//! The `Recompute` maintenance backend: the paper's recompute-from-scratch
//! reference point, packaged behind the [`MaintenanceEngine`] seam so it can
//! run under live sharded ingest, WAL checkpointing, crash recovery and
//! rebalancing — the deployment legs DynDens runs through.
//!
//! ## Design: log replay, not graph rebuild
//!
//! The free function [`recompute`](fn@crate::recompute) rebuilds a [`DynDens`] engine from the
//! *final* graph weights, which recovers the same output-dense **sets** but
//! not necessarily the same score **bits** — DynDens accumulates scores
//! incrementally, so the summation order differs. The differential oracle's
//! headline comparison mode for this backend is *bit-exactness at rebuild
//! boundaries*, so [`RecomputeEngine`] instead journals the raw update log
//! and rebuilds by replaying it through a fresh [`DynDens`]: determinism of
//! the reference engine then makes every rebuilt answer bit-identical to an
//! incremental engine that saw the same stream.
//!
//! Between rebuilds the engine serves the (possibly stale) cached answer,
//! which is what makes the cost profile honest: ingest is `O(1)` per update
//! (append + graph bump), reads pay the full replay every
//! [`rebuild_every`](RecomputeBlueprint::new) updates. With a cadence of `1`
//! every read lands on a rebuild boundary, which is how the oracle drives it.

use dyndens_core::{
    encode_config_params, DenseEvent, DynDens, DynDensConfig, EngineBlueprint, EngineStats,
    GraphSize, MaintenanceEngine, SnapshotError,
};
use dyndens_density::DensityMeasure;
use dyndens_graph::codec::{crc32, put_u32, put_u64, verify_crc_trailer, ByteReader};
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};

/// Snapshot magic for [`RecomputeEngine`] checkpoints (`"DDRC"`).
pub const RECOMPUTE_SNAPSHOT_MAGIC: [u8; 4] = *b"DDRC";
const RECOMPUTE_SNAPSHOT_VERSION: u32 = 1;

/// The periodic-full-rebuild maintenance backend (kind `"recompute"`).
///
/// One shard's worth of state: the live weighted graph, the raw update log,
/// and a lazily rebuilt [`DynDens`] answer cache keyed by log length. See
/// the [module docs](self) for why the rebuild replays the log.
#[derive(Debug, Clone)]
pub struct RecomputeEngine<D: DensityMeasure> {
    measure: D,
    config: DynDensConfig,
    rebuild_every: u64,
    graph: DynamicGraph,
    log: Vec<EdgeUpdate>,
    stats: EngineStats,
    cache: Option<(u64, DynDens<D>)>,
}

impl<D: DensityMeasure> RecomputeEngine<D> {
    fn empty(measure: D, config: DynDensConfig, rebuild_every: u64) -> Self {
        RecomputeEngine {
            measure,
            config,
            rebuild_every: rebuild_every.max(1),
            graph: DynamicGraph::new(),
            log: Vec::new(),
            stats: EngineStats::default(),
            cache: None,
        }
    }

    /// Number of updates applied since the answer cache was last rebuilt
    /// (`None` means no rebuild has happened yet).
    pub fn pending_since_rebuild(&self) -> Option<u64> {
        self.cache.as_ref().map(|(v, _)| self.log.len() as u64 - v)
    }

    /// Whether the next read lands on a rebuild boundary (the answer will be
    /// recomputed from the log rather than served stale).
    pub fn at_rebuild_boundary(&self) -> bool {
        match &self.cache {
            Some((v, _)) => self.log.len() as u64 - v >= self.rebuild_every,
            None => true,
        }
    }

    /// Rebuilds the cached [`DynDens`] answer if the read lands on a rebuild
    /// boundary, then returns it (stale or fresh).
    fn answer(&mut self) -> &mut DynDens<D> {
        if self.at_rebuild_boundary() {
            let mut engine = DynDens::new(self.measure.clone(), self.config.clone());
            let mut sink = Vec::new();
            for u in &self.log {
                engine.apply_update_into(*u, &mut sink);
                sink.clear();
            }
            self.cache = Some((self.log.len() as u64, engine));
        }
        &mut self.cache.as_mut().expect("cache rebuilt above").1
    }
}

impl<D: DensityMeasure> MaintenanceEngine for RecomputeEngine<D> {
    fn apply_update_into(&mut self, update: EdgeUpdate, _events: &mut Vec<DenseEvent>) {
        self.graph.apply_update(&update);
        self.log.push(update);
        self.stats.updates += 1;
        if update.is_positive() {
            self.stats.positive_updates += 1;
        } else {
            self.stats.negative_updates += 1;
        }
    }

    fn output_dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        self.answer().output_dense_subgraphs()
    }

    fn dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        self.answer().dense_subgraphs()
    }

    fn validate(&mut self) -> Result<(), String> {
        let live_edges = self.graph.edge_count();
        let rebuilt = self.answer();
        rebuilt.validate()?;
        let replayed_edges = rebuilt.graph().edge_count();
        // Between rebuilds the answer lags the live graph by design; one
        // rebuilt from the whole log must agree with it.
        if self.pending_since_rebuild() == Some(0) && replayed_edges != live_edges {
            return Err(format!(
                "log replay disagrees with live graph: {replayed_edges} edges vs {live_edges}"
            ));
        }
        Ok(())
    }

    fn graph_size(&self) -> GraphSize {
        GraphSize::of(&self.graph)
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn adopt_stats(&mut self, stats: EngineStats) {
        self.stats = stats;
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.log.len() * 16);
        buf.extend_from_slice(&RECOMPUTE_SNAPSHOT_MAGIC);
        put_u32(&mut buf, RECOMPUTE_SNAPSHOT_VERSION);
        put_u64(&mut buf, self.rebuild_every);
        self.stats.encode_into(&mut buf);
        put_u64(&mut buf, self.log.len() as u64);
        for u in &self.log {
            u.encode_into(&mut buf);
        }
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    fn partition_by(&self, keep: &mut dyn FnMut(VertexId) -> bool) -> (Self, Self) {
        let mut kept = RecomputeEngine::empty(
            self.measure.clone(),
            self.config.clone(),
            self.rebuild_every,
        );
        let mut other = RecomputeEngine::empty(
            self.measure.clone(),
            self.config.clone(),
            self.rebuild_every,
        );
        // Each edge's full update history follows its minimum vertex, so the
        // child replays the identical delta sequence the parent saw for it —
        // bit-for-bit equal accumulated weights.
        for u in &self.log {
            let child = if keep(u.a.min(u.b)) {
                &mut kept
            } else {
                &mut other
            };
            child.graph.apply_update(u);
            child.log.push(*u);
        }
        (kept, other)
    }

    fn absorb(&mut self, other: Self) {
        // The sibling's edges are disjoint from ours, so replaying its log
        // reproduces its weight bits on top of zeros.
        for u in &other.log {
            self.graph.apply_update(u);
        }
        self.log.extend_from_slice(&other.log);
        self.stats.merge(&other.stats);
        self.cache = None;
    }

    fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        self.graph.edges_below(min_weight)
    }
}

/// [`EngineBlueprint`] for [`RecomputeEngine`]: density measure, engine
/// configuration and the rebuild cadence (reads rebuild the answer once this
/// many updates have accumulated since the last rebuild; `1` means every
/// read that follows new data is a rebuild boundary).
#[derive(Debug, Clone)]
pub struct RecomputeBlueprint<D: DensityMeasure> {
    measure: D,
    config: DynDensConfig,
    rebuild_every: u64,
}

impl<D: DensityMeasure> RecomputeBlueprint<D> {
    /// A blueprint building [`RecomputeEngine`]s over `measure` with
    /// `config`, rebuilding every `rebuild_every` updates (clamped to at
    /// least 1).
    pub fn new(measure: D, config: DynDensConfig, rebuild_every: u64) -> Self {
        RecomputeBlueprint {
            measure,
            config,
            rebuild_every: rebuild_every.max(1),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynDensConfig {
        &self.config
    }

    /// The rebuild cadence.
    pub fn rebuild_every(&self) -> u64 {
        self.rebuild_every
    }
}

impl<D: DensityMeasure> EngineBlueprint for RecomputeBlueprint<D> {
    type Engine = RecomputeEngine<D>;

    fn kind(&self) -> &'static str {
        "recompute"
    }

    fn measure_name(&self) -> &'static str {
        self.measure.name()
    }

    fn params(&self) -> Vec<u8> {
        let mut out = encode_config_params(&self.config);
        out.extend_from_slice(&self.rebuild_every.to_le_bytes());
        out
    }

    fn fresh(&self) -> RecomputeEngine<D> {
        RecomputeEngine::empty(
            self.measure.clone(),
            self.config.clone(),
            self.rebuild_every,
        )
    }

    fn restore(&self, bytes: &[u8]) -> Result<RecomputeEngine<D>, SnapshotError> {
        let payload = verify_crc_trailer(bytes)?;
        let mut r = ByteReader::new(payload);
        if r.take(4)? != RECOMPUTE_SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != RECOMPUTE_SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let rebuild_every = r.u64()?;
        if rebuild_every != self.rebuild_every {
            return Err(SnapshotError::Invalid(
                "snapshot was written under a different rebuild cadence",
            ));
        }
        let mut engine = self.fresh();
        engine.stats = EngineStats::decode(&mut r)?;
        let n = r.u64()? as usize;
        engine.log.reserve(n);
        for _ in 0..n {
            let u = EdgeUpdate::decode(&mut r)?;
            engine.graph.apply_update(&u);
            engine.log.push(u);
        }
        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes after update log"));
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_core::DynDensBlueprint;
    use dyndens_density::AvgWeight;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.25)
    }

    fn workload() -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        for base in [0u32, 10u32] {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                updates.push(update(base + a, base + b, 1.25));
            }
        }
        updates.push(update(2, 10, 0.125));
        updates.push(update(0, 1, -0.5));
        updates
    }

    fn sorted(mut sets: Vec<(VertexSet, f64)>) -> Vec<(Vec<u32>, u64)> {
        sets.sort_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        sets.into_iter()
            .map(|(s, score)| (s.iter().map(|v| v.0).collect(), score.to_bits()))
            .collect()
    }

    #[test]
    fn rebuild_boundary_answers_are_bit_exact_with_dyndens() {
        let blueprint = RecomputeBlueprint::new(AvgWeight, config(), 1);
        let reference = DynDensBlueprint::new(AvgWeight, config());
        let mut engine = blueprint.fresh();
        let mut exact = reference.fresh();
        let mut sink = Vec::new();
        for u in workload() {
            engine.apply_update_into(u, &mut sink);
            exact.apply_update_into(u, &mut sink);
            sink.clear();
            assert!(engine.at_rebuild_boundary());
            assert_eq!(
                sorted(engine.output_dense_subgraphs()),
                sorted(MaintenanceEngine::output_dense_subgraphs(&mut exact)),
            );
        }
        engine.validate().unwrap();
        assert_eq!(engine.stats().updates, workload().len() as u64);
    }

    #[test]
    fn stale_reads_wait_for_the_cadence() {
        let blueprint = RecomputeBlueprint::new(AvgWeight, config(), 4);
        let mut engine = blueprint.fresh();
        let mut sink = Vec::new();
        engine.apply_update_into(update(0, 1, 1.25), &mut sink);
        assert!(engine.at_rebuild_boundary(), "first read always rebuilds");
        let first = engine.output_dense_subgraphs();
        engine.apply_update_into(update(0, 1, -1.0), &mut sink);
        assert!(!engine.at_rebuild_boundary());
        assert_eq!(
            sorted(engine.output_dense_subgraphs()),
            sorted(first),
            "below the cadence the cached answer is served unchanged"
        );
        assert_eq!(engine.pending_since_rebuild(), Some(1));
    }

    #[test]
    fn snapshot_round_trips_byte_stably() {
        let blueprint = RecomputeBlueprint::new(AvgWeight, config(), 3);
        let mut engine = blueprint.fresh();
        let mut sink = Vec::new();
        for u in workload() {
            engine.apply_update_into(u, &mut sink);
        }
        let bytes = engine.snapshot();
        let mut restored = blueprint.restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        assert_eq!(
            sorted(restored.output_dense_subgraphs()),
            sorted(engine.output_dense_subgraphs())
        );
        assert_eq!(restored.stats().updates, engine.stats().updates);

        let mismatched = RecomputeBlueprint::new(AvgWeight, config(), 7);
        assert!(matches!(
            mismatched.restore(&bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn partition_and_absorb_round_trip() {
        let blueprint = RecomputeBlueprint::new(AvgWeight, config(), 1);
        let mut engine = blueprint.fresh();
        let mut sink = Vec::new();
        for u in workload() {
            engine.apply_update_into(u, &mut sink);
        }
        let before = sorted(engine.output_dense_subgraphs());
        let (mut kept, other) = engine.partition_by(&mut |v| v.0 < 10);
        kept.absorb(other);
        assert_eq!(sorted(kept.output_dense_subgraphs()), before);
        assert_eq!(kept.graph_size(), engine.graph_size());
    }

    #[test]
    fn evict_below_runs_through_the_update_path() {
        let blueprint = RecomputeBlueprint::new(AvgWeight, config(), 1);
        let mut engine = blueprint.fresh();
        let mut sink = Vec::new();
        for u in workload() {
            engine.apply_update_into(u, &mut sink);
        }
        let victims = engine.edges_below(0.2);
        assert_eq!(victims.len(), 1, "only the weak bridge decays out");
        assert!(victims[0].delta < 0.0);
        for u in victims {
            engine.apply_update_into(u, &mut sink);
        }
        assert!(engine.edges_below(0.2).is_empty());
        engine.validate().unwrap();
    }
}
