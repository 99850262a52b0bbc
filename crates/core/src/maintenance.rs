//! The pluggable maintenance-backend seam: [`MaintenanceEngine`] and
//! [`EngineBlueprint`].
//!
//! The sharded subsystem (`dyndens-shard`) was originally hard-wired to
//! [`DynDens`]. These two traits abstract exactly the surface the shard
//! worker, WAL checkpointing, crash recovery and the `partition_by`/`absorb`
//! rebalance paths consume, so alternative maintenance strategies from the
//! follow-up literature (fully-dynamic top-k densest, one-pass sketches) run
//! under identical routing, persistence and serving. One ships beside
//! [`DynDens`]: `topk-peeling` (`dyndens-baselines`), kept for a measured
//! reason recorded in `docs/BACKENDS.md`. The two traits:
//!
//! * [`MaintenanceEngine`] is one shard's worth of maintenance state: it
//!   ingests [`EdgeUpdate`]s, answers dense-subgraph reads, serialises
//!   itself to checkpoint bytes, and supports the split/merge and eviction
//!   operations live rebalancing and bounded-state retention rely on.
//! * [`EngineBlueprint`] is the *factory*: measure + configuration, able to
//!   build a fresh engine or restore one from checkpoint bytes, and to
//!   identify itself (a stable [`kind`](EngineBlueprint::kind) string plus a
//!   [`params`](EngineBlueprint::params) fingerprint) so a persistent shard
//!   directory is pinned to the backend that wrote it — reopening a
//!   directory under a different backend or configuration fails with a
//!   typed manifest mismatch instead of silently rebuilding.
//!
//! ## Contract
//!
//! Implementations must be **deterministic**: every read must be a pure
//! function of the update sequence applied so far (a lazily rebuilt cache
//! keyed by an update version is fine; wall-clock- or iteration-order-
//! dependent answers are not). This is what lets the cross-backend
//! differential oracle compare a sharded deployment of a backend against a
//! single engine of the *same* backend bit-for-bit, even though micro-batch
//! boundaries and snapshot cadences differ between the two runs.
//!
//! Read methods take `&mut self` precisely to permit such lazy caches;
//! engines that answer from always-fresh state (like [`DynDens`]) simply
//! ignore the mutability.
//!
//! ## What the fleet derives
//!
//! The trait is the set of calls `dyndens-shard` makes, and nothing a caller
//! can compute from them. Three derivations are part of the contract, so a
//! backend must make them come out right rather than implement them:
//!
//! * **Counts.** The number of output-dense subgraphs is
//!   [`top_stories(0).1`](MaintenanceEngine::top_stories) (a backend that can
//!   count without materialising does so there); the number of maintained
//!   subgraphs is `dense_subgraphs().len()`.
//! * **Uncounted replay.** Recovery restores a checkpoint, clones
//!   [`stats`](MaintenanceEngine::stats), replays the WAL tail through
//!   [`apply_update_into`](MaintenanceEngine::apply_update_into) and hands
//!   the clone back through [`adopt_stats`](MaintenanceEngine::adopt_stats):
//!   the replayed updates were counted before the crash. So the ledger must
//!   influence nothing but itself — an engine whose answers or snapshot
//!   bytes (ledger aside) depend on its counters breaks recovery.
//! * **Eviction is streamed cancellation.** Compaction journals
//!   [`edges_below(w)`](MaintenanceEngine::edges_below) to the WAL and
//!   applies *that list* through `apply_update_into`, which is by
//!   construction what crash replay runs on those records. So applying the
//!   list must leave `edges_below(w)` empty, and the engine in the state of
//!   one that received the same updates from the stream.
//!   [`reclaim_idle`](MaintenanceEngine::reclaim_idle) follows, and may
//!   change nothing observable.

use std::cmp::Ordering;

use dyndens_density::DensityMeasure;
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};

use crate::config::{DeltaIt, DynDensConfig};
use crate::engine::DynDens;
use crate::events::{DenseEvent, EngineStats};
use crate::snapshot::SnapshotError;

/// The order stories are published in: densest first, ties broken by vertex
/// set (ascending) so that snapshots are deterministic. This is the only
/// definition; per-shard publication, the merged view and every backend's
/// top-k go through it. `K` is the vertex set or anything that orders like
/// it ([`SubgraphIndex::path_key`](crate::SubgraphIndex::path_key)).
pub fn story_order<K: Ord>(a: (&K, f64), b: (&K, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.0.cmp(b.0))
}

/// Sorts stories into [`story_order`].
pub fn sort_stories(stories: &mut [(VertexSet, f64)]) {
    stories.sort_unstable_by(|a, b| story_order((&a.0, a.1), (&b.0, b.1)));
}

/// The reference definition of [`MaintenanceEngine::top_stories`]: all of
/// `stories` sorted into [`story_order`] and cut to the first `k`, beside
/// how many there were.
pub fn top_of(mut stories: Vec<(VertexSet, f64)>, k: usize) -> (Vec<(VertexSet, f64)>, usize) {
    let total = stories.len();
    sort_stories(&mut stories);
    stories.truncate(k);
    (stories, total)
}

/// How much graph an engine holds: the two numbers the fleet reads about the
/// representation behind the seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSize {
    /// One past the highest vertex id the engine has seen (or was
    /// pre-declared with): vertex ids are global, so this is the engine's
    /// vertex universe, not its count of connected vertices.
    pub vertices: usize,
    /// Edges currently stored with a non-zero weight.
    pub edges: usize,
}

impl GraphSize {
    /// The extent of `graph`, for backends that keep one.
    pub fn of(graph: &DynamicGraph) -> Self {
        GraphSize {
            vertices: graph.vertex_count(),
            edges: graph.edge_count(),
        }
    }
}

/// One shard's worth of dense-subgraph maintenance state, behind a
/// backend-agnostic interface. See the [module docs](self) for the
/// determinism contract.
pub trait MaintenanceEngine: Clone + std::fmt::Debug + Send + 'static {
    /// Applies one edge weight update, appending any dense-set transitions
    /// to `events`.
    ///
    /// Backends that cannot afford per-update output maintenance (a
    /// read-time peeler) may emit no events; their deployments are then
    /// served via snapshot resync rather than delta pushes.
    fn apply_update_into(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>);

    /// Every maintained subgraph whose density clears the *output*
    /// threshold, with its score.
    fn output_dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)>;

    /// Every maintained subgraph (the possibly-larger internal family), with
    /// its score. Backends without an internal band return the output set.
    fn dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)>;

    /// What a shard publishes: the first `k` of
    /// [`output_dense_subgraphs`](Self::output_dense_subgraphs) in
    /// [`story_order`], and the total number of output-dense subgraphs.
    /// `k` may be `usize::MAX` (the whole answer, sorted) or `0` (the count
    /// alone). The provided implementation is the definition ([`top_of`]); a
    /// backend that can pick the `k` without materialising the rest
    /// overrides it and must return the same bits.
    fn top_stories(&mut self, k: usize) -> (Vec<(VertexSet, f64)>, usize) {
        top_of(self.output_dense_subgraphs(), k)
    }

    /// Checks the engine's internal invariants, returning the first
    /// violation found.
    fn validate(&mut self) -> Result<(), String>;

    /// The extent of the graph the engine holds. A backend that stores no
    /// edges (a sketch) reports `edges: 0` and still tracks `vertices`,
    /// which ingest-side recovery cross-checks against its id registry.
    fn graph_size(&self) -> GraphSize;

    /// The engine's work ledger.
    fn stats(&self) -> &EngineStats;

    /// Replaces the work ledger wholesale: after a WAL replay (the restored
    /// counters, so replayed updates are not counted twice) and at rebalance
    /// commits (the live sources' counters).
    fn adopt_stats(&mut self, stats: EngineStats);

    /// Serialises the complete engine state to bytes. Restoring via
    /// [`EngineBlueprint::restore`] and snapshotting again must reproduce
    /// the same bytes (byte-stable round trip).
    fn snapshot(&self) -> Vec<u8>;

    /// Splits the engine into `(kept, other)` children by a vertex
    /// predicate; an edge or subgraph follows its minimum vertex. The
    /// children's union must equal the parent bit-for-bit (graph weights
    /// and stored scores); both children start with default stats (callers
    /// adopt ledgers explicitly).
    fn partition_by(&self, keep: &mut dyn FnMut(VertexId) -> bool) -> (Self, Self);

    /// Folds an edge- and subgraph-disjoint sibling into this engine — the
    /// inverse of [`partition_by`](Self::partition_by). Weights and scores
    /// are copied bit-for-bit; the ledgers are summed.
    fn absorb(&mut self, other: Self);

    /// The exact cancelling updates that would remove every edge with
    /// weight at or below `min_weight`, without applying them, in canonical
    /// ascending `(a, b)` order (`f64::INFINITY` lists every stored edge).
    /// Compaction journals the list and applies it; see the
    /// [module docs](self). A backend that stores no edges returns none.
    fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate>;

    /// Returns memory held for state that no longer exists (the adjacency
    /// capacity of vertices that decay and eviction left isolated) to the
    /// allocator. Called at the end of a compaction pass; must change
    /// nothing observable. The provided implementation does nothing.
    fn reclaim_idle(&mut self) {}
}

/// A maintenance backend's identity and factory: everything the sharded
/// subsystem needs to build, restore, and *pin* engines of one kind. See
/// the [module docs](self).
pub trait EngineBlueprint: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The engine type this blueprint builds.
    type Engine: MaintenanceEngine;

    /// Stable machine-readable backend identifier (`"dyndens"`,
    /// `"topk-peeling"`, ...), pinned in the shard MANIFEST. Reopening a
    /// directory under a blueprint with a different kind fails with
    /// `ManifestMismatch { field: "engine kind" }`.
    fn kind(&self) -> &'static str;

    /// The density measure's name, pinned in the MANIFEST alongside the
    /// kind.
    fn measure_name(&self) -> &'static str;

    /// A byte fingerprint of every answer-relevant configuration parameter,
    /// pinned in the MANIFEST. Two blueprints with equal `kind`, equal
    /// `measure_name` and equal `params` must produce interchangeable
    /// engines.
    fn params(&self) -> Vec<u8>;

    /// Builds a fresh, empty engine.
    fn fresh(&self) -> Self::Engine;

    /// Restores an engine from [`MaintenanceEngine::snapshot`] bytes.
    fn restore(&self, bytes: &[u8]) -> Result<Self::Engine, SnapshotError>;
}

/// Encodes the answer-relevant fields of a [`DynDensConfig`] as a canonical
/// byte fingerprint (threshold bits, `Nmax`, `delta_it` mode + value bits,
/// optimisation flags). Shared by every blueprint whose backend consumes a
/// [`DynDensConfig`], so equal configurations always produce equal
/// [`EngineBlueprint::params`] prefixes.
pub fn encode_config_params(config: &DynDensConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 1 + 8 + 1);
    out.extend_from_slice(&config.threshold.to_bits().to_le_bytes());
    out.extend_from_slice(&(config.n_max as u64).to_le_bytes());
    let (tag, value) = match config.delta_it {
        DeltaIt::Absolute(v) => (0u8, v),
        DeltaIt::FractionOfMax(v) => (1u8, v),
    };
    out.push(tag);
    out.extend_from_slice(&value.to_bits().to_le_bytes());
    let flags = (config.implicit_too_dense as u8)
        | ((config.max_explore as u8) << 1)
        | ((config.degree_prioritize as u8) << 2);
    out.push(flags);
    out
}

/// The [`EngineBlueprint`] of the incremental [`DynDens`] engine — the
/// reproduction's reference backend, bit-exact with the pre-trait stack.
#[derive(Debug, Clone)]
pub struct DynDensBlueprint<D: DensityMeasure> {
    measure: D,
    config: DynDensConfig,
}

impl<D: DensityMeasure> DynDensBlueprint<D> {
    /// A blueprint building [`DynDens`] engines over `measure` with
    /// `config`.
    pub fn new(measure: D, config: DynDensConfig) -> Self {
        DynDensBlueprint { measure, config }
    }

    /// The density measure.
    pub fn measure(&self) -> &D {
        &self.measure
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynDensConfig {
        &self.config
    }
}

impl<D: DensityMeasure> EngineBlueprint for DynDensBlueprint<D> {
    type Engine = DynDens<D>;

    fn kind(&self) -> &'static str {
        "dyndens"
    }

    fn measure_name(&self) -> &'static str {
        self.measure.name()
    }

    fn params(&self) -> Vec<u8> {
        encode_config_params(&self.config)
    }

    fn fresh(&self) -> DynDens<D> {
        DynDens::new(self.measure.clone(), self.config.clone())
    }

    fn restore(&self, bytes: &[u8]) -> Result<DynDens<D>, SnapshotError> {
        DynDens::restore(self.measure.clone(), bytes)
    }
}

impl<D: DensityMeasure> MaintenanceEngine for DynDens<D> {
    fn apply_update_into(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        DynDens::apply_update_into(self, update, events);
    }

    fn output_dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        DynDens::output_dense_subgraphs(self)
    }

    fn dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        DynDens::dense_subgraphs(self)
    }

    fn top_stories(&mut self, k: usize) -> (Vec<(VertexSet, f64)>, usize) {
        DynDens::top_stories(self, k)
    }

    fn validate(&mut self) -> Result<(), String> {
        DynDens::validate(self)
    }

    fn graph_size(&self) -> GraphSize {
        GraphSize::of(&self.graph)
    }

    fn stats(&self) -> &EngineStats {
        DynDens::stats(self)
    }

    fn adopt_stats(&mut self, stats: EngineStats) {
        DynDens::adopt_stats(self, stats);
    }

    fn snapshot(&self) -> Vec<u8> {
        DynDens::snapshot(self)
    }

    fn partition_by(&self, keep: &mut dyn FnMut(VertexId) -> bool) -> (Self, Self) {
        DynDens::partition_by(self, keep)
    }

    fn absorb(&mut self, other: Self) {
        DynDens::absorb(self, other);
    }

    fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        DynDens::edges_below(self, min_weight)
    }

    fn reclaim_idle(&mut self) {
        self.graph.reclaim_isolated();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;

    fn drive<E: MaintenanceEngine>(engine: &mut E) {
        let mut events = Vec::new();
        for (a, b, d) in [(0u32, 1u32, 1.2), (1, 2, 1.1), (0, 2, 1.0)] {
            engine.apply_update_into(EdgeUpdate::new(VertexId(a), VertexId(b), d), &mut events);
        }
    }

    #[test]
    fn dyndens_backend_behaves_like_the_inherent_engine() {
        let blueprint = DynDensBlueprint::new(AvgWeight, DynDensConfig::new(1.0, 4));
        let mut engine = blueprint.fresh();
        drive(&mut engine);
        engine.validate().unwrap();
        assert!(MaintenanceEngine::top_stories(&mut engine, 0).1 >= 4);
        assert_eq!(engine.stats().updates, 3);

        // Snapshot/restore round-trips byte-stably through the blueprint.
        let bytes = MaintenanceEngine::snapshot(&engine);
        let restored = blueprint.restore(&bytes).unwrap();
        assert_eq!(MaintenanceEngine::snapshot(&restored), bytes);
    }

    #[test]
    fn config_params_fingerprint_answer_relevant_fields() {
        let base = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        assert_eq!(
            encode_config_params(&base),
            encode_config_params(&base.clone())
        );
        for bent in [
            DynDensConfig::new(1.1, 4).with_delta_it(0.15),
            DynDensConfig::new(1.0, 5).with_delta_it(0.15),
            DynDensConfig::new(1.0, 4).with_delta_it(0.2),
            DynDensConfig::new(1.0, 4).with_delta_it_fraction(0.15),
            DynDensConfig::plain(1.0, 4).with_delta_it(0.15),
        ] {
            assert_ne!(encode_config_params(&base), encode_config_params(&bent));
        }
    }
}
