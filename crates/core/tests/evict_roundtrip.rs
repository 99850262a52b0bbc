//! Property test: eviction is reversible. A compaction pass as a shard
//! worker runs it — the cancelling updates [`DynDens::edges_below`] lists,
//! applied through [`DynDens::apply_update_into`], then
//! [`DynDens::reclaim_idle`] — followed by reinserting the evicted
//! weights must land the engine back on the state of an engine that never
//! evicted — same graph (weight bits included) and same maintained family
//! (score bits included).
//!
//! This holds because eviction is the ordinary update path (exact
//! cancelling deltas), weights are dyadic rationals (f64 arithmetic on them
//! is exact, so cancel-then-reinsert is a true inverse on the graph), and
//! with the plain configuration the maintained family is an exact function
//! of the graph — not of the path taken to reach it.

use dyndens_core::{DynDens, DynDensConfig};
use dyndens_density::AvgWeight;
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};
use proptest::prelude::*;

/// A raw update: edge endpoints and a signed dyadic delta (units of 1/32).
#[derive(Debug, Clone, Copy)]
struct RawUpdate {
    a: u32,
    b: u32,
    delta_32: i32,
}

fn raw_update_strategy(n_vertices: u32) -> impl Strategy<Value = RawUpdate> {
    (0..n_vertices, 0..n_vertices, -64i32..96i32).prop_filter_map(
        "self loops are not allowed",
        |(a, b, delta_32)| {
            if a == b {
                None
            } else {
                Some(RawUpdate { a, b, delta_32 })
            }
        },
    )
}

/// Materialises raw updates into well-formed edge updates (clamped so
/// weights stay non-negative, no-ops dropped).
fn materialise(raws: &[RawUpdate]) -> Vec<EdgeUpdate> {
    let mut graph = DynamicGraph::new();
    let mut out = Vec::new();
    for raw in raws {
        let a = VertexId(raw.a.min(raw.b));
        let b = VertexId(raw.a.max(raw.b));
        let current = graph.weight(a, b);
        let mut delta = raw.delta_32 as f64 / 32.0;
        if current + delta < 0.0 {
            delta = -current;
        }
        if delta == 0.0 {
            continue;
        }
        let update = EdgeUpdate::new(a, b, delta);
        graph.apply_update(&update);
        out.push(update);
    }
    out
}

fn sorted_bits(mut sets: Vec<(VertexSet, f64)>) -> Vec<(VertexSet, u64)> {
    sets.sort_by(|a, b| a.0.cmp(&b.0));
    sets.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
}

fn edge_bits(graph: &DynamicGraph) -> Vec<(VertexId, VertexId, u64)> {
    let mut edges: Vec<(VertexId, VertexId, u64)> =
        graph.edges().map(|(a, b, w)| (a, b, w.to_bits())).collect();
    edges.sort_unstable();
    edges
}

proptest! {
    #[test]
    fn compaction_then_reinsert_round_trips_the_engine(
        raws in proptest::collection::vec(raw_update_strategy(8), 1..60),
        threshold_32 in 1i32..10,
    ) {
        let updates = materialise(&raws);
        let threshold = threshold_32 as f64 / 32.0;
        let config = DynDensConfig::new(1.0, 4);

        let mut control = DynDens::new(AvgWeight, config.clone());
        let mut engine = DynDens::new(AvgWeight, config);
        for &u in &updates {
            control.apply_update(u);
            engine.apply_update(u);
        }

        // Evict: victims are exact cancelling updates for every edge whose
        // weight sits below the threshold.
        let victims = engine.edges_below(threshold);
        let mut events = Vec::new();
        for &u in &victims {
            engine.apply_update_into(u, &mut events);
        }
        engine.reclaim_idle();
        engine.validate().unwrap();
        // Idempotent: a second pass at the same threshold finds nothing.
        prop_assert_eq!(engine.edges_below(threshold).len(), 0);

        // Reinsert the evicted weights (the inverse deltas) and the engine
        // must be back where the never-evicting control is.
        for u in &victims {
            engine.apply_update(EdgeUpdate::new(u.a, u.b, -u.delta));
        }
        engine.validate().unwrap();
        prop_assert_eq!(edge_bits(engine.graph()), edge_bits(control.graph()));
        prop_assert_eq!(
            sorted_bits(engine.dense_subgraphs()),
            sorted_bits(control.dense_subgraphs())
        );
        prop_assert_eq!(engine.dense_count(), control.dense_count());
    }
}
