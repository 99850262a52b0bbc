//! Differential test of publication: `DynDens::top_stories` against its
//! definition — every output-dense subgraph, sorted densest first with ties
//! by vertex set, cut to `k`, beside the total — which is spelled out here
//! independently of the library's `story_order`.
//!
//! `DynDens` answers by selection over its index and never materialises the
//! losers. It must return the reference's bits, on streams (the five oracle
//! workloads and the weighted tweet stream, at every batch boundary) and on
//! hand-built states the streams do not reach.

mod support;

use dyndens::prelude::*;
use dyndens::workloads::{
    AdversarialSkew, AlignedCommunities, DocCorpus, FlashCrowd, GeoPartitioned, Workload,
};
use support::{engine_config, tweet_config, tweet_stream};

type Stories = Vec<(VertexSet, f64)>;

fn reference(mut all: Stories, k: usize) -> (Stories, usize) {
    let total = all.len();
    all.sort_by(|a, b| {
        let by_density = b.1.partial_cmp(&a.1).expect("densities are never NaN");
        by_density.then_with(|| a.0.cmp(&b.0))
    });
    all.truncate(k);
    (all, total)
}

fn bits(stories: &Stories) -> Vec<(&VertexSet, u64)> {
    stories.iter().map(|(s, d)| (s, d.to_bits())).collect()
}

/// Checks `top_stories(k)` for the `k`s around the engine's current output
/// size `n` (plus `extra`); returns `n`.
fn check(engine: &DynDens<AvgWeight>, extra: &[usize], context: &str) -> usize {
    let all = engine.output_dense_subgraphs();
    let n = all.len();
    assert_eq!(engine.top_stories(0).1, n, "{context}");
    assert_eq!(engine.output_dense_count(), n, "{context}");
    for &k in [0, 1, 16, n, n + 1, usize::MAX].iter().chain(extra) {
        let (want, want_total) = reference(all.clone(), k);
        let (got, got_total) = engine.top_stories(k);
        assert_eq!(got_total, want_total, "{context}, k = {k}");
        assert_eq!(bits(&got), bits(&want), "{context}, k = {k}");
    }
    n
}

/// Drives `updates` through a fresh engine of `config`, checking at every
/// `batch` boundary.
fn drive(config: DynDensConfig, updates: &[EdgeUpdate], batch: usize, name: &str) {
    let mut engine = DynDens::new(AvgWeight, config);
    let mut events = Vec::new();
    let mut largest = 0;
    for (i, chunk) in updates.chunks(batch).enumerate() {
        for &u in chunk {
            engine.apply_update_into(u, &mut events);
        }
        events.clear();
        let context = format!("{name}, batch {i}");
        largest = largest.max(check(&engine, &[], &context));
    }
    assert!(largest > 0, "{name}: no output-dense subgraph");
}

fn oracle_workloads(n: usize, seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(AlignedCommunities::new(n, seed)),
        Box::new(FlashCrowd::new(n, seed)),
        Box::new(AdversarialSkew::new(n, seed)),
        Box::new(DocCorpus::new(n / 6, seed)),
        Box::new(GeoPartitioned::new(n, seed)),
    ]
}

#[test]
fn dyndens_selection_matches_the_reference_on_every_stream() {
    for workload in oracle_workloads(12_000, 2026) {
        drive(engine_config(), &workload.updates(), 64, workload.name());
    }
    // The too-dense regime: `*` markers, covered bands, weighted densities.
    drive(
        tweet_config(),
        &tweet_stream(2026, 10_000),
        64,
        "tweets_chi_square",
    );
}

fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
    EdgeUpdate::new(VertexId(a), VertexId(b), delta)
}

/// Forty disjoint pairs and one triangle, every edge at the same weight: 44
/// output-dense sets of one density, so the vertex set alone orders them —
/// among them vertex 0, and `{100, 101}` which is a prefix of
/// `{100, 101, 102}`. Inserted high ids first, so index-arena order is not
/// vertex-set order.
fn equal_density_engine(n_max: usize) -> DynDens<AvgWeight> {
    let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, n_max));
    for (a, b) in [(101, 102), (100, 102), (100, 101)] {
        engine.apply_update(update(a, b, 1.5));
    }
    for pair in (0..40u32).rev() {
        engine.apply_update(update(2 * pair, 2 * pair + 1, 1.5));
    }
    engine.validate().expect("consistent engine");
    engine
}

#[test]
fn equal_densities_are_ordered_by_vertex_set_alone() {
    let engine = equal_density_engine(4);
    let every_k: Vec<usize> = (0..=46).collect();
    assert_eq!(check(&engine, &every_k, "equal densities"), 44);

    let (all, total) = engine.top_stories(usize::MAX);
    assert_eq!(total, 44);
    assert!(all.iter().all(|(_, d)| d.to_bits() == 1.5f64.to_bits()));
    assert_eq!(all[0].0, VertexSet::from_ids(&[0, 1]));
    let prefix = all
        .iter()
        .position(|(s, _)| *s == VertexSet::from_ids(&[100, 101]))
        .expect("the pair is output-dense");
    assert_eq!(all[prefix + 1].0, VertexSet::from_ids(&[100, 101, 102]));
    assert_eq!(all[prefix + 2].0, VertexSet::from_ids(&[100, 102]));
}

#[test]
fn cardinalities_past_the_path_key_width_compare_materialised_sets() {
    let engine = equal_density_engine(13);
    assert!(engine.config().n_max > dyndens::core::SubgraphIndex::PATH_KEY_WIDTH);
    let every_k: Vec<usize> = (0..=46).collect();
    assert_eq!(check(&engine, &every_k, "Nmax = 13"), 44);
}

#[test]
fn an_empty_engine_publishes_nothing() {
    let engine = DynDens::new(AvgWeight, engine_config());
    assert_eq!(check(&engine, &[], "empty engine"), 0);
    assert_eq!(engine.top_stories(16), (Vec::new(), 0));
}

#[test]
fn star_marked_subgraphs_are_selected_like_any_other() {
    let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4).with_delta_it(0.15));
    for (a, b, w) in [
        (0, 1, 1.2),
        (1, 2, 1.1),
        (0, 2, 1.3),
        (20, 21, 9.0),
        (21, 22, 0.4),
    ] {
        engine.apply_update(update(a, b, w));
    }
    engine.validate().expect("consistent engine");
    let heavy = VertexSet::from_ids(&[20, 21]);
    let id = engine.index().find(heavy.as_slice()).expect("stored");
    assert!(engine.index().has_star(id), "the heavy pair is too-dense");
    let n = check(&engine, &[2, 3], "star marker");
    assert!(n >= 5);
    assert_eq!(engine.top_stories(1), (vec![(heavy, 9.0)], n));
}
