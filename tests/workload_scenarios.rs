//! Every scenario workload, proven bit-exact through the full stack by the
//! differential oracle: sharded 1/2/4 fleets vs. a single engine,
//! kill-and-recover mid-stream, split+merge mid-stream, and a push-fed
//! serve mirror — one test per workload, all four legs each.
//!
//! Generator-shape invariants (burst skew, single-class funneling,
//! preferential concentration, story evolution / zombie decay) live next to
//! the generators in `crates/workloads`; this suite asserts the end-to-end
//! contract: whatever shape the adversary takes, the stack's answers stay
//! bit-identical to the single-engine reference.

use dyndens::workloads::{
    AdversarialSkew, AlignedCommunities, Backend, BackendReport, DocCorpus, FlashCrowd,
    GeoPartitioned, Oracle, Workload, WorkloadStream, ALL_BACKENDS,
};

fn run(workload: &dyn Workload, n_updates: usize) -> BackendReport {
    let report = Oracle::new(workload).run_backend(Backend::DynDens);
    assert_eq!(report.workload, workload.name());
    assert_eq!(report.n_updates, n_updates);
    assert_eq!(report.legs.len(), 5, "all four legs and quality must run");
    assert!(
        report.output_dense > 0,
        "{}: degenerate workload, no output-dense stories",
        report.workload
    );
    report.assert_passed();
    report
}

#[test]
fn flash_crowd_is_bit_exact_through_the_full_stack() {
    run(&FlashCrowd::new(12_000, 2026), 12_000);
}

#[test]
fn adversarial_skew_is_bit_exact_through_the_full_stack() {
    let w = AdversarialSkew::new(12_000, 2026);
    let report = run(&w, 12_000);
    // The adversary funnels everything into one congruence class, so the
    // dense stories all live there too — and the stack still answers
    // exactly, it just answers from one hot shard.
    assert!(report.output_dense > 0);
}

#[test]
fn doc_corpus_is_bit_exact_through_the_full_stack() {
    let w = DocCorpus::new(2_000, 2026);
    // The post-shaped stream and its lowering describe the same corpus.
    match w.stream() {
        WorkloadStream::Posts(docs) => assert_eq!(docs.len(), 2_000),
        WorkloadStream::Updates(_) => panic!("doc corpus must stream documents"),
    }
    let n = w.updates().len();
    assert!(n > 0);
    run(&w, n);
}

#[test]
fn geo_partitioned_is_bit_exact_through_the_full_stack() {
    run(&GeoPartitioned::new(12_000, 2026), 12_000);
}

/// Every pluggable backend through every workload: the four deployment legs
/// bit-exact against a single engine of the same backend, then the quality
/// leg against the DynDens referee up to the backend's quality bound (top-q
/// density ratio 1.0 for `dyndens`, ≥ 0.8 for `topk-peeling`), at the sizes
/// of the per-workload tests above.
#[test]
fn every_backend_passes_every_workload() {
    let aligned = AlignedCommunities::new(12_000, 2012);
    let flash = FlashCrowd::new(12_000, 2026);
    let skew = AdversarialSkew::new(12_000, 2026);
    // Documents lower to about six pair-updates each.
    let docs = DocCorpus::new(2_000, 2026);
    let geo = GeoPartitioned::new(12_000, 2026);
    let workloads: [&dyn Workload; 5] = [&aligned, &flash, &skew, &docs, &geo];
    for backend in ALL_BACKENDS {
        for workload in workloads {
            let report = Oracle::new(workload).run_backend(backend);
            assert_eq!(report.legs.len(), 5, "four deployment legs and quality");
            report.assert_passed();
        }
    }
}
