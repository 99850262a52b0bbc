//! Decay-driven state eviction: reclaiming fully-decayed edges and the
//! vertices they orphan.
//!
//! On an unbounded stream with exponential decay (the paper's emerging-story
//! mode), old associations fade towards zero but the engine state that
//! remembers them — adjacency entries, subgraph index nodes, `*` markers,
//! allocator capacity — never goes away on its own. [`DynDens::evict_below`]
//! closes that loop: it cancels every edge whose weight has decayed to (or
//! below) a caller-chosen floor, driving the removal through the engine's
//! ordinary update path so the subgraph index, star markers and
//! threshold-family interactions are repaired by exactly the same code a
//! genuine negative update would run. The result is **bit-compatible** with
//! an engine that received the identical cancelling updates from the stream
//! itself — snapshot-byte-identical, in fact — which is what makes eviction
//! safe to run inside a WAL-logged shard worker (crash replay reproduces it
//! exactly; see `dyndens-shard`).
//!
//! Eviction is the engine half of a memory-bounded forever-run; the other
//! halves (persistence compaction and shard merge) live in `dyndens-shard`,
//! and the operator-facing story is told in `docs/RETENTION.md`.

use dyndens_density::DensityMeasure;
use dyndens_graph::EdgeUpdate;

use crate::engine::DynDens;
use crate::events::DenseEvent;

/// What one [`DynDens::evict_below`] pass reclaimed.
///
/// This is deliberately **not** part of [`EngineStats`](crate::EngineStats):
/// the stats block is a fixed 13-counter wire format shared by the snapshot
/// codec and the serving protocol, so eviction telemetry travels out-of-band
/// in this report instead. The underlying maintenance work (negative
/// updates, index evictions, star removals) *is* counted in the ordinary
/// stats, exactly as if the cancelling updates had arrived from the stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvictionReport {
    /// Edges whose weight was at or below the floor and were cancelled.
    pub edges_evicted: u64,
    /// Total weight removed from the graph by the cancelled edges.
    pub weight_evicted: f64,
    /// Vertices left with no incident edges by this pass (their adjacency
    /// capacity was returned to the allocator; the ids remain valid).
    pub vertices_orphaned: u64,
    /// Maintained subgraphs evicted from the index by this pass.
    pub subgraphs_evicted: u64,
    /// `*` markers removed by this pass.
    pub star_markers_removed: u64,
    /// [`DenseEvent`]s appended to the caller's buffer by this pass.
    pub events_emitted: u64,
}

impl<D: DensityMeasure> DynDens<D> {
    /// The cancelling updates that [`evict_below`](Self::evict_below) would
    /// apply: [`DynamicGraph::edges_below`](dyndens_graph::DynamicGraph::edges_below)
    /// of the engine's graph.
    ///
    /// Exposed separately so a durability layer can write the exact victim
    /// list to its WAL and then apply *that list* through
    /// [`apply_update_into`](Self::apply_update_into) — crash replay of those
    /// records is then the same code on the same input.
    pub fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        self.graph.edges_below(min_weight)
    }

    /// Evicts every edge whose weight has decayed to `min_weight` or below,
    /// together with the subgraph-index entries, `*` markers and
    /// threshold-family bookkeeping that depended on them, and releases the
    /// adjacency capacity of any vertex the pass leaves isolated.
    ///
    /// The removal runs through the engine's ordinary negative-update path
    /// ([`apply_update_into`](Self::apply_update_into)), once per victim
    /// edge in canonical `(a, b)` order, so the post-eviction state is
    /// snapshot-byte-identical to an engine that received the same
    /// cancelling updates from the stream. [`DenseEvent`]s raised by
    /// subgraphs falling out of the output-dense band are appended to
    /// `events`, exactly as they would be for streamed updates.
    ///
    /// The pass advances the epoch and the [`EngineStats`](crate::EngineStats)
    /// ledger by one update per victim edge. Telemetry about what was
    /// reclaimed is returned in the [`EvictionReport`].
    pub fn evict_below(&mut self, min_weight: f64, events: &mut Vec<DenseEvent>) -> EvictionReport {
        let victims = self.edges_below(min_weight);
        let stats_before = self.stats().clone();
        let events_before = events.len();
        let mut report = EvictionReport {
            edges_evicted: victims.len() as u64,
            weight_evicted: victims.iter().map(|u| -u.delta).sum(),
            ..EvictionReport::default()
        };
        let isolated_before = self.graph.reclaim_isolated();
        for u in victims {
            self.apply_update_into(u, events);
        }
        let isolated_after = self.graph.reclaim_isolated();
        report.vertices_orphaned = (isolated_after - isolated_before) as u64;
        // The ledger keeps counting through an eviction (it is stream work),
        // so the per-pass deltas are recovered by differencing.
        let stats_after = self.stats();
        report.subgraphs_evicted = stats_after.subgraphs_evicted - stats_before.subgraphs_evicted;
        report.star_markers_removed =
            stats_after.star_markers_removed - stats_before.star_markers_removed;
        report.events_emitted = (events.len() - events_before) as u64;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynDensConfig;
    use dyndens_density::AvgWeight;
    use dyndens_graph::{VertexId, VertexSet};

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.25)
    }

    /// Two strong triangles plus a mesh of weak, decayed-out edges between
    /// them; all weights dyadic so mixed-order f64 arithmetic stays exact.
    fn decayed_workload() -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        for base in [0u32, 10u32] {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                updates.push(update(base + a, base + b, 1.5));
            }
        }
        // Weak remnants: below the eviction floor.
        for (a, b) in [(0, 10), (1, 11), (2, 12), (1, 20), (20, 21)] {
            updates.push(update(a, b, 0.03125));
        }
        updates
    }

    /// The comparison used throughout: identical maintained family (set and
    /// score bits), star markers, and graph edges (endpoint and weight bits).
    type MaintenanceImage = (Vec<(VertexSet, u64)>, usize, Vec<(u32, u32, u64)>);

    fn maintenance_image<D: dyndens_density::DensityMeasure>(
        engine: &DynDens<D>,
    ) -> MaintenanceImage {
        let mut family: Vec<(VertexSet, u64)> = engine
            .dense_subgraphs()
            .into_iter()
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        family.sort_by(|a, b| a.0.cmp(&b.0));
        let mut edges: Vec<(u32, u32, u64)> = engine
            .graph()
            .edges()
            .map(|(a, b, w)| (a.0, b.0, w.to_bits()))
            .collect();
        edges.sort_unstable();
        (family, engine.index().star_count(), edges)
    }

    #[test]
    fn evict_below_matches_manual_cancelling_updates_byte_for_byte() {
        let mut engine = DynDens::new(AvgWeight, config());
        let mut manual = DynDens::new(AvgWeight, config());
        for u in decayed_workload() {
            engine.apply_update(u);
            manual.apply_update(u);
        }
        let victims = engine.edges_below(0.1);
        assert_eq!(victims.len(), 5);

        let mut events = Vec::new();
        let report = engine.evict_below(0.1, &mut events);
        for u in victims {
            manual.apply_update(u);
        }

        assert_eq!(engine.snapshot(), manual.snapshot(), "not byte-identical");
        assert_eq!(report.edges_evicted, 5);
        assert!((report.weight_evicted - 5.0 * 0.03125).abs() < 1e-12);
        // Vertices 20 and 21 had only weak edges: both end up orphaned.
        assert_eq!(report.vertices_orphaned, 2);
        engine.validate().unwrap();
    }

    #[test]
    fn evicted_engine_is_bit_compatible_with_fresh_build_from_survivors() {
        let mut engine = DynDens::new(AvgWeight, config());
        for u in decayed_workload() {
            engine.apply_update(u);
        }
        engine.evict_below(0.1, &mut Vec::new());

        // A fresh engine that only ever saw the surviving edges, applied in
        // canonical order.
        let mut survivors: Vec<(VertexId, VertexId, f64)> = engine.graph().edges().collect();
        survivors.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut fresh = DynDens::new(AvgWeight, config());
        for (a, b, w) in survivors {
            fresh.apply_update(EdgeUpdate::new(a, b, w));
        }

        assert_eq!(maintenance_image(&engine), maintenance_image(&fresh));
        engine.validate().unwrap();
        fresh.validate().unwrap();

        // And both evolve identically afterwards.
        let followups = [update(0, 10, 0.75), update(3, 4, 1.25), update(0, 3, 0.5)];
        for u in followups {
            engine.apply_update(u);
            fresh.apply_update(u);
        }
        assert_eq!(maintenance_image(&engine), maintenance_image(&fresh));
    }

    #[test]
    fn eviction_emits_no_longer_output_dense_events() {
        let mut engine = DynDens::new(AvgWeight, config());
        // One community held together by modest weights: evicting them all
        // must retract the story through the ordinary event stream.
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            engine.apply_update(update(a, b, 1.5));
        }
        assert!(engine.output_dense_count() > 0);
        let mut events = Vec::new();
        let report = engine.evict_below(2.0, &mut events);
        assert_eq!(report.edges_evicted, 3);
        assert!(report.subgraphs_evicted > 0);
        assert!(events.iter().any(|e| !e.is_became()));
        assert_eq!(report.events_emitted, events.len() as u64);
        assert_eq!(engine.output_dense_count(), 0);
        assert_eq!(engine.graph().edge_count(), 0);
    }

    #[test]
    fn eviction_with_empty_floor_is_a_no_op() {
        let mut engine = DynDens::new(AvgWeight, config());
        for u in decayed_workload() {
            engine.apply_update(u);
        }
        let before = engine.snapshot();
        let report = engine.evict_below(0.0, &mut Vec::new());
        assert_eq!(report, EvictionReport::default());
        assert_eq!(engine.snapshot(), before);
    }

    #[test]
    fn snapshot_round_trip_after_eviction_continues_bit_exactly() {
        let mut engine = DynDens::new(AvgWeight, config());
        for u in decayed_workload() {
            engine.apply_update(u);
        }
        engine.evict_below(0.1, &mut Vec::new());
        let bytes = engine.snapshot();
        let mut restored = DynDens::restore(AvgWeight, &bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        for u in [update(5, 6, 1.0), update(0, 10, 0.25)] {
            engine.apply_update(u);
            restored.apply_update(u);
        }
        assert_eq!(engine.snapshot(), restored.snapshot());
    }
}
