//! Eviction is ordinary updates: the tests of a compaction pass as a shard
//! worker runs it on one engine — the cancelling updates
//! `DynDens::edges_below` lists, applied through
//! `DynDens::apply_update_into`, then `DynDens::reclaim_idle`.

#[cfg(test)]
mod tests {
    use crate::config::DynDensConfig;
    use crate::engine::DynDens;
    use crate::events::DenseEvent;
    use dyndens_density::AvgWeight;
    use dyndens_graph::{EdgeUpdate, VertexId, VertexSet};

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.25)
    }

    /// One compaction pass at `floor`; returns the victims it applied.
    fn compact(
        engine: &mut DynDens<AvgWeight>,
        floor: f64,
        events: &mut Vec<DenseEvent>,
    ) -> Vec<EdgeUpdate> {
        let victims = engine.edges_below(floor);
        for &u in &victims {
            engine.apply_update_into(u, events);
        }
        engine.reclaim_idle();
        victims
    }

    /// Two strong triangles plus a mesh of weak, decayed-out edges between
    /// them; all weights dyadic so mixed-order f64 arithmetic stays exact.
    fn decayed_engine() -> DynDens<AvgWeight> {
        let mut engine = DynDens::new(AvgWeight, config());
        for base in [0u32, 10u32] {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                engine.apply_update(update(base + a, base + b, 1.5));
            }
        }
        // Weak remnants: below the eviction floor.
        for (a, b) in [(0, 10), (1, 11), (2, 12), (1, 20), (20, 21)] {
            engine.apply_update(update(a, b, 0.03125));
        }
        engine
    }

    /// The comparison used throughout: identical maintained family (set and
    /// score bits), star markers, and graph edges (endpoint and weight bits).
    type MaintenanceImage = (Vec<(VertexSet, u64)>, usize, Vec<(u32, u32, u64)>);

    fn maintenance_image(engine: &DynDens<AvgWeight>) -> MaintenanceImage {
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
    fn compaction_matches_manual_cancelling_updates_byte_for_byte() {
        let mut engine = decayed_engine();
        let mut manual = decayed_engine();
        let victims = compact(&mut engine, 0.1, &mut Vec::new());
        assert_eq!(victims.len(), 5);
        for u in victims {
            manual.apply_update(u);
        }
        assert_eq!(engine.snapshot(), manual.snapshot(), "not byte-identical");
        engine.validate().unwrap();
    }

    #[test]
    fn evicted_engine_is_bit_compatible_with_fresh_build_from_survivors() {
        let mut engine = decayed_engine();
        compact(&mut engine, 0.1, &mut Vec::new());

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
        assert_eq!(compact(&mut engine, 2.0, &mut events).len(), 3);
        assert!(events.iter().any(|e| !e.is_became()));
        assert_eq!(engine.output_dense_count(), 0);
        assert_eq!(engine.graph().edge_count(), 0);
    }

    #[test]
    fn eviction_with_empty_floor_is_a_no_op() {
        let mut engine = decayed_engine();
        let before = engine.snapshot();
        let mut events = Vec::new();
        assert!(compact(&mut engine, 0.0, &mut events).is_empty());
        assert!(events.is_empty());
        assert_eq!(engine.snapshot(), before);
    }

    #[test]
    fn snapshot_round_trip_after_eviction_continues_bit_exactly() {
        let mut engine = decayed_engine();
        compact(&mut engine, 0.1, &mut Vec::new());
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
