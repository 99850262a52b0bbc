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
    AdversarialSkew, AlignedCommunities, DocCorpus, FlashCrowd, GeoPartitioned, Oracle,
    OracleReport, Workload, WorkloadStream,
};

fn run(workload: &dyn Workload, n_updates: usize) -> OracleReport {
    let report = Oracle::new(workload).run();
    assert_eq!(report.workload, workload.name());
    assert_eq!(report.n_updates, n_updates);
    assert_eq!(report.legs.len(), 4, "all four legs must run");
    assert!(
        report.output_dense > 0,
        "{}: degenerate workload, no output-dense stories",
        report.workload
    );
    report.assert_passed();
    report
}

#[test]
fn aligned_communities_are_bit_exact_through_the_full_stack() {
    run(&AlignedCommunities::new(12_000, 2012), 12_000);
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
