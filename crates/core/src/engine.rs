//! The DynDens engine: incremental maintenance of dense subgraphs under
//! streaming edge weight updates (Algorithms 1 and 2 of the paper).
//!
//! ## Once per update
//!
//! Within one update a subgraph is explored at most once per exploration
//! iteration (Section 3.2.2, point ii). A subgraph with an index node
//! remembers its visit in `SubgraphInfo::discovered_iteration`. Under
//! `ImplicitTooDense` (Section 3.2.3) most dense subgraphs of a weighted
//! stream have no node — they exist under a `*` marker — and nested markers
//! reach the same covered extension again and again; those explorations go
//! through `DynDens::explore_once`, which keeps the `(vertex path,
//! iteration)` of what it ran for the length of the update and returns on a
//! repeat. The skip is exact: the repeat's twin ran earlier in the same
//! update, on the same graph, in the same unpruned mode, so everything the
//! repeat could discover is already in the index at an earlier-or-equal
//! iteration (the argument is spelled out on the function).

use dyndens_density::{DensityMeasure, ThresholdFamily};
use dyndens_graph::{DynamicGraph, EdgeUpdate, GammaColumn, VertexId, VertexSet};

use crate::config::{DeltaIt, DynDensConfig};
use crate::events::{DenseEvent, EngineStats};
use crate::heuristics::{DegreePrioritize, MaxExploreBound};
use crate::index::{NodeId, SubgraphIndex, SubgraphInfo, Walk};
use crate::maintenance::{story_order, top_of};
use crate::scratch::Scratch;

/// Adds `v` to the ascending vertex path `set`.
fn insert_sorted(set: &mut Vec<VertexId>, v: VertexId) {
    if let Err(pos) = set.binary_search(&v) {
        set.insert(pos, v);
    }
}

/// Writes `base ∪ extra` into `out`, ascending (`base` already is).
fn union_into(out: &mut Vec<VertexId>, base: &[VertexId], extra: &[VertexId]) {
    out.clear();
    out.extend_from_slice(base);
    for &v in extra {
        insert_sorted(out, v);
    }
}

/// The owned form of a vertex path, for events.
fn set_of(verts: &[VertexId]) -> VertexSet {
    VertexSet::from_vertices(verts.iter().copied())
}

/// A story held by [`DynDens::top_stories`] while it scans, its vertex set
/// standing in as the [`path_key`](SubgraphIndex::path_key).
struct Pick {
    density: f64,
    key: [u32; SubgraphIndex::PATH_KEY_WIDTH],
    id: NodeId,
}

/// Per-update exploration context shared by the recursive exploration
/// procedures.
struct UpdateCtx {
    a: VertexId,
    b: VertexId,
    delta: f64,
    /// `ceil(delta / delta_it)` — the theoretical bound on exploration
    /// iterations (Section 4.1.4).
    max_iterations: usize,
    /// MaxExplore bound for this update (Section 7.1); `unbounded` when the
    /// heuristic is disabled.
    bound: MaxExploreBound,
}

/// The DynDens dense subgraph maintenance engine.
///
/// A `DynDens` instance owns the evolving entity graph, the threshold family
/// `T_n` and the dense subgraph index, and processes a stream of
/// [`EdgeUpdate`]s, reporting after each update which subgraphs became or
/// stopped being output-dense.
///
/// ```
/// use dyndens_core::{DynDens, DynDensConfig};
/// use dyndens_density::AvgWeight;
/// use dyndens_graph::{EdgeUpdate, VertexId};
///
/// let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
/// let mut engine = DynDens::new(AvgWeight, config);
/// let events = engine.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 1.2));
/// assert_eq!(events.len(), 1); // {0, 1} became output-dense
/// ```
#[derive(Debug, Clone)]
pub struct DynDens<D: DensityMeasure> {
    pub(crate) graph: DynamicGraph,
    pub(crate) thresholds: ThresholdFamily<D>,
    pub(crate) config: DynDensConfig,
    pub(crate) index: SubgraphIndex,
    pub(crate) epoch: u64,
    pub(crate) stats: EngineStats,
    /// Working memory of the exploration kernel (hot path, per update).
    pub(crate) scratch: Scratch,
}

impl<D: DensityMeasure> DynDens<D> {
    /// Creates an engine over an initially empty graph whose vertex set grows
    /// lazily as updates mention new vertices.
    ///
    /// Note: the paper's data model assumes a complete graph over a fixed set
    /// of `N` vertices. With `implicit_too_dense` disabled (the explore-all
    /// fallback), extensions of a too-dense subgraph by a vertex that is
    /// introduced *later* and stays disconnected are only materialised once
    /// that vertex gains an edge; declare the full universe up front with
    /// [`with_vertex_capacity`](Self::with_vertex_capacity) if exact
    /// explicit enumeration of such corner cases matters. The default
    /// `ImplicitTooDense` representation covers them either way.
    pub fn new(measure: D, config: DynDensConfig) -> Self {
        Self::with_vertex_capacity(measure, config, 0)
    }

    /// Creates an engine over a graph with `n_vertices` pre-declared vertices
    /// (`VertexId(0) .. VertexId(n_vertices - 1)`), matching the paper's
    /// fixed-universe data model.
    pub fn with_vertex_capacity(measure: D, config: DynDensConfig, n_vertices: usize) -> Self {
        let thresholds = match config.delta_it {
            DeltaIt::Absolute(v) => {
                ThresholdFamily::new(measure, config.threshold, config.n_max, v)
            }
            DeltaIt::FractionOfMax(f) => {
                ThresholdFamily::with_delta_it_fraction(measure, config.threshold, config.n_max, f)
            }
        };
        DynDens {
            graph: DynamicGraph::with_vertices(n_vertices),
            thresholds,
            config,
            index: SubgraphIndex::new(),
            epoch: 0,
            stats: EngineStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// The evolving entity graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The cancelling update of every edge whose weight is at or below
    /// `min_weight`: [`DynamicGraph::edges_below`] of the engine's graph.
    ///
    /// Eviction is applying this list through
    /// [`apply_update_into`](Self::apply_update_into) — what a shard's
    /// compaction step does after writing the list to its WAL — so the
    /// index, the `*` markers and the events are repaired by the code a
    /// streamed negative update runs, and crash replay of those records is
    /// the same code on the same input.
    pub fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        self.graph.edges_below(min_weight)
    }

    /// Returns the adjacency capacity of vertices that decay and eviction
    /// left isolated to the allocator. The end of a compaction pass; it
    /// changes nothing observable.
    pub fn reclaim_idle(&mut self) {
        self.graph.reclaim_isolated();
    }

    /// The threshold family currently in effect.
    pub fn thresholds(&self) -> &ThresholdFamily<D> {
        &self.thresholds
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynDensConfig {
        &self.config
    }

    /// Cumulative processing statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Resets the cumulative statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Replaces the cumulative statistics wholesale.
    ///
    /// This is how work is left uncounted or re-attributed. WAL recovery
    /// saves the restored ledger, replays the log tail and adopts the saved
    /// ledger back, so updates that were counted before the crash are not
    /// counted twice
    /// (`tests/wal_replay.rs::recovered_stats_do_not_double_count_replayed_updates`);
    /// a shard split or merge hands the sources' live counters to the first
    /// rebuilt engine. The fleet-merged ledger stays exactly the sum of all
    /// work ever counted.
    pub fn adopt_stats(&mut self, stats: EngineStats) {
        self.stats = stats;
    }

    /// Partitions the engine's maintenance state into two engines by a
    /// vertex predicate: edge `(a, b)` and subgraph `S` land in the first
    /// engine when `keep` holds for their **minimum** vertex (the same
    /// endpoint shard routing uses), in the second otherwise.
    ///
    /// This is the engine half of a shard split. Both children inherit the
    /// configuration, the *current* (possibly adjusted) threshold-family
    /// parameters, the update epoch and the parent's vertex universe; stored
    /// scores and discovery metadata are copied bit-for-bit, and `*` markers
    /// travel with their subgraph. Statistics start at zero — the caller
    /// decides how to attribute the parent's ledger (see
    /// [`adopt_stats`](Self::adopt_stats)).
    ///
    /// When no maintained subgraph spans the two sides (the partitioning
    /// invariant of `dyndens-shard`), the children's union is exactly the
    /// parent's state and each child is bit-identical to an engine that only
    /// ever saw its own slice of the update stream. A spanning subgraph is
    /// assigned by its minimum vertex — the union answer is still preserved
    /// at the split point, but the two sides' future evolution becomes the
    /// same partition approximation hash-sharding already accepts.
    pub fn partition_by(&self, mut keep: impl FnMut(VertexId) -> bool) -> (Self, Self) {
        let child = || DynDens {
            graph: DynamicGraph::with_vertices(self.graph.vertex_count()),
            thresholds: ThresholdFamily::new(
                self.thresholds.measure().clone(),
                self.thresholds.output_threshold(),
                self.config.n_max,
                self.thresholds.delta_it(),
            ),
            config: self.config.clone(),
            index: SubgraphIndex::new(),
            epoch: self.epoch,
            stats: EngineStats::default(),
            scratch: Scratch::default(),
        };
        let (mut zero, mut one) = (child(), child());
        for (a, b, w) in self.graph.edges() {
            let side = if keep(a) { &mut zero } else { &mut one };
            side.graph.set_weight(a, b, w);
        }
        for (id, verts, info) in self.index.iter() {
            let min = verts.as_slice()[0];
            let side = if keep(min) { &mut zero } else { &mut one };
            side.index
                .insert_copy(verts.as_slice(), *info, self.index.has_star(id));
        }
        (zero, one)
    }

    /// Folds another engine's maintenance state into this one — the inverse
    /// of [`partition_by`](Self::partition_by), used by a shard **merge** to
    /// coarsen two sibling engines back into one.
    ///
    /// Both engines must have the same configuration and current
    /// threshold-family parameters, and their maintained states must be
    /// edge- and subgraph-disjoint (always true for siblings produced by a
    /// split, whose slices are separated by a routing bit). Edge weights and
    /// stored subgraph scores are copied bit-for-bit, `*` markers travel
    /// with their subgraph, the vertex universe grows to the union, the
    /// epoch becomes the maximum of the two (each side's epoch counts only
    /// its own slice's updates) and the work ledgers are summed — so the
    /// merged engine answers exactly like the union of the two children,
    /// down to the score bits.
    pub fn absorb(&mut self, other: Self) {
        debug_assert_eq!(
            self.thresholds.output_threshold().to_bits(),
            other.thresholds.output_threshold().to_bits(),
            "absorb requires identical threshold families"
        );
        debug_assert_eq!(
            self.thresholds.delta_it().to_bits(),
            other.thresholds.delta_it().to_bits(),
            "absorb requires identical threshold families"
        );
        if other.graph.vertex_count() > self.graph.vertex_count() {
            self.graph
                .ensure_vertex(VertexId((other.graph.vertex_count() - 1) as u32));
        }
        for (a, b, w) in other.graph.edges() {
            debug_assert_eq!(
                self.graph.weight(a, b),
                0.0,
                "absorb requires edge-disjoint engines"
            );
            self.graph.set_weight(a, b, w);
        }
        self.scratch.invalidate_edges();
        for (id, verts, info) in other.index.iter() {
            self.index
                .insert_copy(verts.as_slice(), *info, other.index.has_star(id));
        }
        self.epoch = self.epoch.max(other.epoch);
        self.stats.merge(&other.stats);
    }

    /// Read access to the dense subgraph index (for white-box inspection and
    /// benchmarks).
    pub fn index(&self) -> &SubgraphIndex {
        &self.index
    }

    /// Number of dense subgraphs currently maintained (explicitly).
    pub fn dense_count(&self) -> usize {
        self.index.len()
    }

    /// All explicitly maintained dense subgraphs together with their scores.
    pub fn dense_subgraphs(&self) -> Vec<(VertexSet, f64)> {
        self.index
            .iter()
            .map(|(_, v, info)| (v, info.score))
            .collect()
    }

    /// The stored subgraphs that clear the *output* threshold, as `(node,
    /// cardinality, score)` in index-arena order, nothing materialised.
    fn output_dense_nodes(&self) -> impl Iterator<Item = (NodeId, usize, f64)> + '_ {
        self.index
            .scores()
            .filter(|&(_, card, score)| self.thresholds.is_output_dense(score, card))
    }

    /// All explicitly maintained output-dense subgraphs together with their
    /// densities, i.e. the answer to the Engagement problem at the current
    /// point of the stream (excluding subgraphs only represented implicitly
    /// through `*` markers, matching the accounting of the paper's Table 2).
    pub fn output_dense_subgraphs(&self) -> Vec<(VertexSet, f64)> {
        let measure = self.thresholds.measure();
        self.output_dense_nodes()
            .map(|(id, card, score)| (self.index.vertices(id), measure.density(score, card)))
            .collect()
    }

    /// Number of explicitly maintained output-dense subgraphs.
    pub fn output_dense_count(&self) -> usize {
        self.output_dense_nodes().count()
    }

    /// The `k` first of [`output_dense_subgraphs`](Self::output_dense_subgraphs)
    /// in [`story_order`], and how many output-dense subgraphs there are in
    /// all — what a publication needs, at the cost of one pass over the
    /// stored scores plus `k` vertex sets, however many subgraphs lose.
    ///
    /// The pass collects candidates keyed by their allocation-free
    /// [`path_key`](SubgraphIndex::path_key) (whose order is vertex-set
    /// order) and, whenever `2k` have gathered, cuts back to the best `k`;
    /// from then on a subgraph less dense than the `k`-th of the last cut is
    /// dropped on that one comparison. With `k` at or above half the output
    /// size no cut happens and this is a full sort. Engines whose `Nmax`
    /// exceeds the key width sort materialised sets instead ([`top_of`]).
    pub fn top_stories(&self, k: usize) -> (Vec<(VertexSet, f64)>, usize) {
        if self.thresholds.n_max() > SubgraphIndex::PATH_KEY_WIDTH {
            return top_of(self.output_dense_subgraphs(), k);
        }
        let measure = self.thresholds.measure();
        let order = |a: &Pick, b: &Pick| story_order((&a.key, a.density), (&b.key, b.density));
        let mut best: Vec<Pick> = Vec::with_capacity(k.saturating_mul(2).min(self.index.len()));
        let mut kth_density = f64::NEG_INFINITY;
        let mut total = 0;
        for (id, card, score) in self.output_dense_nodes() {
            total += 1;
            let density = measure.density(score, card);
            if k == 0 || density < kth_density {
                continue;
            }
            let key = self.index.path_key(id).expect("Nmax within the key width");
            best.push(Pick { density, key, id });
            if best.len() / 2 >= k {
                best.select_nth_unstable_by(k - 1, order);
                best.truncate(k);
                kth_density = best[k - 1].density;
            }
        }
        best.sort_unstable_by(order);
        best.truncate(k);
        let stories = best
            .iter()
            .map(|pick| (self.index.vertices(pick.id), pick.density))
            .collect();
        (stories, total)
    }

    /// `true` if the subgraph is tracked as dense: either it is explicitly
    /// stored in the index, or it is covered by an `ImplicitTooDense` `*`
    /// marker (it extends a marked too-dense subgraph whose score alone
    /// already clears the dense bound at the queried cardinality).
    pub fn is_tracked_dense(&self, set: &VertexSet) -> bool {
        if set.len() < 2 || set.len() > self.thresholds.n_max() {
            return false;
        }
        if self.index.find(set.as_slice()).is_some() {
            return true;
        }
        self.covered_by_star(set)
    }

    /// `true` if the subgraph is covered by a `*` marker (see
    /// [`is_tracked_dense`](Self::is_tracked_dense)).
    pub fn covered_by_star(&self, set: &VertexSet) -> bool {
        for base in self.index.star_bases_within(set.as_slice()) {
            if self.index.cardinality(base) < set.len()
                && self.thresholds.is_dense(self.index.score(base), set.len())
            {
                return true;
            }
        }
        false
    }

    /// Processes a single edge weight update and returns the changes to the
    /// reported set of output-dense subgraphs.
    pub fn apply_update(&mut self, update: EdgeUpdate) -> Vec<DenseEvent> {
        let mut events = Vec::new();
        self.apply_update_into(update, &mut events);
        events
    }

    /// Processes a single update, appending events to `events` (avoids a fresh
    /// allocation per update in hot loops).
    pub fn apply_update_into(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        self.stats.updates += 1;
        if update.delta == 0.0 {
            return;
        }
        self.epoch += 1;
        self.graph.apply_update(&update);
        self.scratch.invalidate_edges();
        if update.delta < 0.0 {
            self.stats.negative_updates += 1;
            self.process_negative(update, events);
        } else {
            self.stats.positive_updates += 1;
            self.process_positive(update, events);
        }
    }

    // ------------------------------------------------------------------
    // Negative updates (Algorithm 1, lines 1-3)
    // ------------------------------------------------------------------

    fn process_negative(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        let (a, b, delta) = (update.a, update.b, update.delta);
        // Only subgraphs containing both endpoints see their score change.
        // Processed in canonical (vertex set) order, as the index walk hands
        // them out, not index-arena order: arena order depends on the full
        // insert/remove history, which a snapshot-restored engine does not
        // share, and the coverage repairs below are order-sensitive at the
        // floating-point-bit level. The canonical order makes
        // replay-after-restore bit-identical. An entry's path stays valid
        // through the loop: removing a subgraph prunes only nodes without
        // one, so no later entry's node is freed (and re-used).
        self.index
            .subgraphs_containing_both(a, b, &mut self.scratch.walk);
        if self.scratch.walk.entries().is_empty() {
            return;
        }
        let walk = std::mem::take(&mut self.scratch.walk);
        for entry in walk.entries() {
            let id = entry.id;
            let card = self.index.cardinality(id);
            let old_score = self.index.score(id);
            let new_score = old_score + delta;
            let was_output = self.thresholds.is_output_dense(old_score, card);
            let still_dense = self.thresholds.is_dense(new_score, card);
            let still_output = self.thresholds.is_output_dense(new_score, card);
            // Before any demotion or eviction: the score drop shrinks the
            // band the marker covered under the *old* score.
            if self.index.has_star(id) {
                let old_radius = self.coverage_radius(old_score, card);
                self.repair_star(id, card, new_score, old_radius, events);
            }
            if was_output && !(still_dense && still_output) {
                events.push(DenseEvent::NoLongerOutputDense {
                    vertices: set_of(walk.path(entry)),
                    density: self.thresholds.measure().density(new_score, card),
                });
            }
            if still_dense {
                self.index.add_score(id, delta);
            } else {
                self.index.remove(id);
                self.stats.subgraphs_evicted += 1;
            }
        }
        self.scratch.walk = walk;
    }

    /// ImplicitTooDense coverage repair of the `*` base `id` (cardinality
    /// `card`), whose marker covered supersets up to `old_radius` and whose
    /// score is now `score` — after a negative update or a threshold raise,
    /// and before the base itself is demoted or evicted. The band shrinks
    /// to the new radius (to nothing when the base is no longer
    /// too-dense); supersets that fall out of it but remain dense through
    /// their own additional edges are materialised, or the index loses
    /// them, and a base that is still dense but no longer too-dense loses
    /// its marker.
    pub(crate) fn repair_star(
        &mut self,
        id: NodeId,
        card: usize,
        score: f64,
        old_radius: usize,
        events: &mut Vec<DenseEvent>,
    ) {
        let still_dense = self.thresholds.is_dense(score, card);
        let still_starred = still_dense && self.thresholds.is_too_dense(score, card);
        let new_radius = if still_starred {
            self.coverage_radius(score, card)
        } else {
            card
        };
        if new_radius < old_radius {
            self.materialise_covered_band(id, score, new_radius, old_radius, events);
        }
        if still_dense && !still_starred {
            self.index.set_star(id, false);
            self.stats.star_markers_removed += 1;
        }
    }

    /// The largest cardinality whose subgraphs are covered by a `*` marker on
    /// a subgraph of cardinality `card` with the given score: the coverage
    /// claim of [`covered_by_star`](Self::covered_by_star) is
    /// `is_dense(base_score, n)` for supersets of cardinality `n`, and the
    /// dense score bound grows with `n`, so coverage is a contiguous band
    /// `card + 1 ..= radius`.
    pub(crate) fn coverage_radius(&self, base_score: f64, card: usize) -> usize {
        let mut radius = card;
        for n in card + 1..=self.thresholds.n_max() {
            if self.thresholds.is_dense(base_score, n) {
                radius = n;
            } else {
                break;
            }
        }
        radius
    }

    /// Materialises the dense supersets of `base` whose cardinality lies in
    /// `new_radius + 1 ..= old_radius`: previously covered by the base's `*`
    /// marker, no longer covered after its score dropped to `new_base_score`
    /// or a threshold raise lifted the dense bounds.
    ///
    /// Candidates are enumerated by growing the base one neighbouring vertex
    /// or one disjoint edge at a time through dense intermediates (the same
    /// reachability structure the too-dense exploration relies on).
    /// Materialised subgraphs that are output-dense are reported, matching
    /// the accounting that only explicitly represented subgraphs generate
    /// events; ones that are themselves too-dense receive their own marker,
    /// which also bounds how much of the family must be expanded.
    fn materialise_covered_band(
        &mut self,
        base: NodeId,
        new_base_score: f64,
        new_radius: usize,
        old_radius: usize,
        events: &mut Vec<DenseEvent>,
    ) {
        let base_set = self.index.vertices(base);
        let mut gamma = self.scratch.columns.take();
        let mut seen: std::collections::BTreeSet<VertexSet> = std::collections::BTreeSet::new();
        let mut stack: Vec<(VertexSet, f64)> = vec![(base_set, new_base_score)];
        let mut candidates: Vec<(VertexSet, f64)> = Vec::new();
        while let Some((set, score)) = stack.pop() {
            let card = set.len();
            if card >= old_radius {
                // Larger supersets were never covered by the old marker.
                continue;
            }
            // Canonical expansion order — one-vertex extensions by ascending
            // vertex, then disjoint edges by ascending `(y, z)` as the graph
            // hands them out: which path first reaches a superset decides the
            // score bits it is stored with.
            self.graph.neighborhood_into(set.as_slice(), &mut gamma);
            gamma.sort_candidates();
            candidates.extend(
                gamma
                    .iter()
                    .map(|(y, gamma_y)| (set.with(y), score + gamma_y)),
            );
            if card + 2 <= old_radius {
                for &(y, z, w) in self.scratch.edges(&self.graph) {
                    let (gamma_y, gamma_z) = (gamma.get(y), gamma.get(z));
                    if !gamma_y.is_nan() && !gamma_z.is_nan() {
                        let ext_score = w + score + gamma_y + gamma_z;
                        candidates.push((set.with(y).with(z), ext_score));
                    }
                }
            }
            for (ext, ext_score) in candidates.drain(..) {
                let ext_card = ext.len();
                if ext_card > old_radius
                    || !self.thresholds.is_dense(ext_score, ext_card)
                    || !seen.insert(ext.clone())
                {
                    continue;
                }
                self.stats.candidates_examined += 1;
                if ext_card > new_radius && self.index.find(ext.as_slice()).is_none() {
                    let id = self.admit(ext.as_slice(), ext_score, 0, true, events);
                    // Its own marker now covers its supersets up to its
                    // coverage radius; anything beyond old_radius was never
                    // covered by the original marker.
                    if self.index.has_star(id)
                        && self.coverage_radius(ext_score, ext_card) >= old_radius
                    {
                        continue;
                    }
                }
                stack.push((ext, ext_score));
            }
        }
        self.scratch.columns.give(gamma);
    }

    // ------------------------------------------------------------------
    // Positive updates (Algorithm 1, lines 4-11; Algorithm 2)
    // ------------------------------------------------------------------

    fn process_positive(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        let (a, b, delta) = (update.a, update.b, update.delta);
        let new_weight = self.graph.weight(a, b);

        let max_iterations = self.thresholds.exploration_iterations(delta);
        // The MaxExplore inequalities (Section 7.1) carry a `delta_it` slack
        // and are derived in the single-iteration regime `delta <= delta_it`;
        // a large update processed in several exploration iterations can
        // create newly-dense subgraphs beyond the bound (observed on
        // recompute-style replays where each edge arrives as one full-weight
        // update). Fall back to the exact unbounded exploration there.
        let bound = if self.config.max_explore && max_iterations <= 1 {
            MaxExploreBound::compute(&self.graph, &self.thresholds, a, b, new_weight)
        } else {
            MaxExploreBound::unbounded()
        };
        let ctx = UpdateCtx {
            a,
            b,
            delta,
            max_iterations,
            bound,
        };

        // Snapshots: subgraphs that were dense before this update and contain a
        // and/or b — taken before the base case below inserts any — and the
        // * markers present before this update. Both are visited in
        // canonical (vertex set) order, as the index hands them out —
        // exploration discoveries depend on which base reaches a candidate
        // first, so arena order would make the resulting score bits depend
        // on index history and break snapshot/replay bit-equivalence.
        self.index
            .subgraphs_containing_either(a, b, &mut self.scratch.walk);
        let mut stars = self.scratch.nodes.take();
        if self.config.implicit_too_dense {
            stars.extend_from_slice(self.index.star_bases());
        }
        if !self.scratch.explored.is_empty() {
            self.scratch.explored.clear();
        }

        // Base case of Algorithm 1, line 4: the edge {a, b} itself, if it is
        // newly-dense and not already maintained.
        let pair = [a.min(b), a.max(b)];
        if self.index.find(&pair).is_none() && self.thresholds.is_dense(new_weight, 2) {
            self.note_candidate(&pair, new_weight, 0, events);
            self.explore(&pair, new_weight, 1, true, &ctx, events);
        }

        if !self.scratch.walk.entries().is_empty() {
            let walk = std::mem::take(&mut self.scratch.walk);
            self.process_affected(&walk, &ctx, events);
            self.scratch.walk = walk;
        }

        // ImplicitTooDense star bases: their covered extensions may need to be
        // grown around, and two-vertex extensions by {a, b} may be newly-dense
        // (Section 3.2.3).
        for &base in &stars {
            if !self.index.has_info(base) || !self.index.has_star(base) {
                continue;
            }
            self.process_star_base(base, &ctx, events);
        }
        self.scratch.nodes.give(stars);
    }

    /// Algorithm 1, lines 5-11, over the subgraphs that were dense before
    /// the update and contain `a` and/or `b`, in vertex-set order.
    fn process_affected(&mut self, walk: &Walk, ctx: &UpdateCtx, events: &mut Vec<DenseEvent>) {
        // The columns of `{a}` and `{b}` — each endpoint's weights — for the
        // cheap explorations' `Γ_other · c`: summed over the path in
        // ascending order like `degree_into`, the `0.0` of a non-neighbour
        // leaving a partial sum that starts at `+0.0` unchanged. (The path
        // holds one endpoint only, so the other's NaN is never read.)
        let columns = [ctx.a, ctx.b].map(|v| {
            let mut column = self.scratch.columns.take();
            self.graph.neighborhood_into(&[v], &mut column);
            column
        });
        for entry in walk.entries() {
            let id = entry.id;
            if !self.index.has_info(id) {
                // May have been restructured by earlier work in this update.
                continue;
            }
            let path = walk.path(entry);
            if entry.contains_a && entry.contains_b {
                // Algorithm 1, lines 10-11.
                let card = path.len();
                let old_score = self.index.score(id);
                let new_score = self.index.add_score(id, ctx.delta);
                if !self.thresholds.is_output_dense(old_score, card)
                    && self.thresholds.is_output_dense(new_score, card)
                {
                    events.push(DenseEvent::BecameOutputDense {
                        vertices: set_of(path),
                        density: self.thresholds.measure().density(new_score, card),
                    });
                }
                self.explore(path, new_score, 1, true, ctx, events);
            } else {
                // Algorithm 1, lines 5-8: cheap exploration.
                let other_column = &columns[usize::from(entry.contains_a)];
                self.cheap_explore(id, path, entry.contains_a, other_column, ctx, events);
            }
        }
        for column in columns {
            self.scratch.columns.give(column);
        }
    }

    /// Cheap exploration (Algorithm 1 line 6): augments a dense subgraph
    /// (`id`, vertices `path`) containing exactly one of the updated
    /// endpoints with the other one, whose weights are `other_column`.
    fn cheap_explore(
        &mut self,
        id: NodeId,
        path: &[VertexId],
        contains_a: bool,
        other_column: &GammaColumn,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) {
        let card = self.index.cardinality(id);
        let score = self.index.score(id);
        if card + 1 > self.thresholds.n_max() {
            return;
        }
        let other = if contains_a { ctx.b } else { ctx.a };
        // A subgraph that was too-dense before the update normally need not be
        // cheap-explored: its extension by the other endpoint was already
        // dense before the update (its score is unchanged by this update since
        // it contains only one endpoint, so "before" == "now"), and is tracked
        // — by the `*` marker in the implicit representation, or explicitly by
        // explore-all. The exception is the explicit representation with lazy
        // vertex creation: if `other` did not exist yet when the base became
        // too-dense, explore-all could not materialise the extension, so
        // materialise (and explore around) it now that `other` is connected.
        let too_dense = self.thresholds.is_too_dense(score, card);
        if too_dense && self.config.implicit_too_dense {
            return;
        }
        if !too_dense
            && self.config.max_explore
            && !ctx.bound.should_cheap_explore(contains_a, card)
        {
            self.stats.max_explore_skips += 1;
            return;
        }
        let other_degree = path.iter().fold(0.0, |sum, &v| sum + other_column.get(v));
        let ext_score = score + other_degree;
        let ext_card = card + 1;
        // The path of `C ∪ {other}`, in a pooled buffer, once it is needed.
        let mut ext = self.scratch.verts.take();
        let newly_dense = if too_dense {
            // The lazy-vertex exception above: whatever is not stored yet.
            union_into(&mut ext, path, &[other]);
            let missing = self.index.find(&ext).is_none();
            if missing {
                self.stats.candidates_examined += 1;
            }
            missing
        } else if self.config.degree_prioritize
            && DegreePrioritize::skip_cheap_exploration(card, other_degree - ctx.delta, score)
        {
            // (The updated edge connects `other` to the endpoint inside `C`,
            // so its pre-update degree into `C` is lower by exactly delta.)
            self.stats.degree_prioritize_skips += 1;
            false
        } else {
            self.stats.cheap_explorations += 1;
            self.stats.candidates_examined += 1;
            // Dense now, and not dense before the update (the extension
            // contains both endpoints, so its pre-update score is lower by
            // exactly delta).
            self.thresholds.is_dense(ext_score, ext_card)
                && !self.thresholds.is_dense(ext_score - ctx.delta, ext_card)
        };
        if newly_dense {
            // The lazy-vertex branch has already built it.
            if ext.is_empty() {
                union_into(&mut ext, path, &[other]);
            }
            if self.note_candidate(&ext, ext_score, 1, events) {
                // Algorithm 1, line 8: newly-dense subgraphs found via cheap
                // exploration are explored starting from iteration 2.
                self.explore(&ext, ext_score, 2, true, ctx, events);
            }
        }
        self.scratch.verts.give(ext);
    }

    /// Handles one `*` marker during a positive update: extensions of the
    /// marked too-dense base that involve the updated endpoints may have
    /// newly-dense supergraphs that regular exploration cannot reach, because
    /// the extensions themselves are only represented implicitly.
    fn process_star_base(&mut self, base: NodeId, ctx: &UpdateCtx, events: &mut Vec<DenseEvent>) {
        let card = self.index.cardinality(base);
        let contains_a = self.index.contains_vertex(base, ctx.a);
        let contains_b = self.index.contains_vertex(base, ctx.b);
        if contains_a && contains_b {
            // The base's own score was already updated through the regular
            // iteration; all covered extensions only became denser.
            return;
        }
        let ext_card = if contains_a || contains_b {
            card + 1
        } else {
            card + 2
        };
        if ext_card > self.thresholds.n_max() {
            return;
        }
        let base_score = self.index.score(base);
        // The path of the base, then of its extension, in one pooled buffer.
        let mut ext = self.scratch.verts.take();
        self.index.path_into(base, &mut ext);
        if !contains_a && !contains_b {
            // The two-vertex extension C ∪ {a, b} is the only covered-adjacent
            // subgraph whose score changed.
            let deg_a = self.graph.degree_into(ctx.a, &ext);
            let deg_b = self.graph.degree_into(ctx.b, &ext);
            let w_ab = self.graph.weight(ctx.a, ctx.b);
            let score = base_score + deg_a + deg_b + w_ab;
            self.stats.candidates_examined += 1;
            if self.thresholds.is_dense(score, ext_card) {
                insert_sorted(&mut ext, ctx.a);
                insert_sorted(&mut ext, ctx.b);
                let newly = !self.thresholds.is_dense(score - ctx.delta, ext_card);
                let covered = self.thresholds.is_dense(base_score, ext_card);
                if newly && !covered {
                    self.note_candidate(&ext, score, 1, events);
                    // Discovered at iteration 1, explored from iteration 2.
                    self.explore(&ext, score, 2, false, ctx, events);
                } else {
                    // Stable-dense (it was dense before the update, explicitly
                    // or through the marker): its score contains both updated
                    // endpoints, so its supergraphs may be newly-dense. It is
                    // explored like the stable-dense subgraphs of the main
                    // loop, i.e. starting at iteration 1 — starting at 2
                    // would fall outside the `ceil(delta / delta_it)` budget
                    // for single-iteration updates and lose discoveries.
                    self.explore_once(&ext, score, 1, ctx, events);
                }
            }
        } else {
            // Exactly one endpoint inside the base: the covered extension
            // C ∪ {other} contains both endpoints and acts as a stable-dense
            // subgraph that must be explored.
            let other = if contains_a { ctx.b } else { ctx.a };
            let score = base_score + self.graph.degree_into(other, &ext);
            insert_sorted(&mut ext, other);
            self.explore_once(&ext, score, 1, ctx, events);
        }
        self.scratch.verts.give(ext);
    }

    /// [`explore`](Self::explore), unpruned, for a stable-dense subgraph the
    /// caller did not take from the index — so it has no
    /// `discovered_iteration` to say it was visited — at most once per update
    /// and iteration (Section 3.2.2 point ii, for subgraphs that exist only
    /// under a `*` marker). Nested `*` bases reach the same covered
    /// `C ∪ {y}` / `C ∪ {a, b}` again and again; the first visit's key goes
    /// into [`Scratch::explored`] and a later one returns here.
    ///
    /// Skipping is exact, not a heuristic. A skipped call has a twin — same
    /// vertex set, same iteration, same unpruned mode — that ran earlier in
    /// this update on the same graph, and since then the index has only
    /// gained subgraphs and lowered `discovered_iteration`s. Whatever
    /// newly-dense extension the repeat could reach, the twin recorded with
    /// `discovered_iteration <= iteration`, so `note_candidate` would refuse
    /// to recurse on it; every stable-dense extension it could pass on comes
    /// back here and finds the twin's key; a `*` marker it could set is set.
    /// A repeat may arrive with a `score` that differs from the twin's in
    /// its last bits (another summation path to the same set) and could in
    /// principle classify a candidate within one rounding of a threshold
    /// differently: as everywhere in the engine, the first canonical path to
    /// a subgraph decides its bits (the index hands out what an update
    /// touches in vertex-set order; see the [`index`](crate::index) module docs).
    ///
    /// A key enters the table only when the exploration really runs. Engines
    /// whose `Nmax` exceeds the key width explore unconditionally.
    fn explore_once(
        &mut self,
        verts: &[VertexId],
        score: f64,
        iteration: usize,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) {
        let n_max = self.thresholds.n_max();
        if verts.len() >= n_max {
            return;
        }
        if n_max <= SubgraphIndex::PATH_KEY_WIDTH {
            let mut key = [0; SubgraphIndex::PATH_KEY_WIDTH];
            for (at, v) in key.iter_mut().zip(verts) {
                *at = v.0;
            }
            if !self.scratch.explored.insert((key, iteration as u32)) {
                return;
            }
        }
        self.explore(verts, score, iteration, false, ctx, events);
    }

    /// The exploration procedure (Algorithm 2): tries to augment a dense
    /// subgraph (given by `verts`, ascending, and its current `score`) with
    /// one more vertex, recursing on newly-dense discoveries.
    fn explore(
        &mut self,
        verts: &[VertexId],
        score: f64,
        iteration: usize,
        use_max_explore: bool,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) {
        let (card, n_max) = (verts.len(), self.thresholds.n_max());
        if card >= n_max {
            return;
        }
        let member = |v: VertexId| verts.binary_search(&v).is_ok();
        let contains_both = member(ctx.a) && member(ctx.b);
        let was_too_dense_before =
            contains_both && self.thresholds.is_too_dense(score - ctx.delta, card);
        let too_dense_now = self.thresholds.is_too_dense(score, card);
        // A subgraph that was already too-dense before the update has only
        // stable-dense one-vertex supergraphs; with the explicit explore-all
        // representation those are already in the index and will be explored
        // through the affected-subgraph loop, so nothing new can be discovered
        // here. With the implicit representation the supergraphs are only
        // covered by the * marker, and a score increase of the base can make
        // *their* supergraphs newly-dense, so we still fall through to the
        // too-dense handling below in that case.
        if was_too_dense_before && !(self.config.implicit_too_dense && too_dense_now) {
            return;
        }
        self.stats.explorations += 1;
        #[cfg(test)]
        (self.scratch.trace).push((verts.to_vec(), iteration, self.index.find(verts).is_some()));

        // Regular neighbour exploration is subject to the iteration bounds.
        if !too_dense_now {
            if iteration > ctx.max_iterations {
                return;
            }
            if use_max_explore
                && self.config.max_explore
                && iteration > ctx.bound.iterations_for(card)
            {
                self.stats.max_explore_skips += 1;
                return;
            }
        }

        let ext_card = card + 1;
        // Γ_C, the candidates this frame acts on, and the buffer every
        // extension of this frame is spelled out in; recursive frames take
        // their own.
        let mut gamma = self.scratch.columns.take();
        let mut picks = self.scratch.picks.take();
        let mut ext = self.scratch.verts.take();
        self.graph.neighborhood_into(verts, &mut gamma);
        // A dense extension is acted on when it is newly dense, or, with both
        // endpoints inside and room to grow, when it was dense before too.
        let stable_too = contains_both && ext_card < n_max;
        let star = too_dense_now && self.config.implicit_too_dense;
        if star {
            // Every one-vertex extension is dense; the disconnected ones are
            // covered with a * marker (ImplicitTooDense).
            //
            // The subgraph may itself only exist virtually (covered by an
            // ancestor's * marker, e.g. when it is reached through
            // `process_star_base`). A * marker needs an explicit node to
            // live on, and the marker is required so that the subgraph's
            // own (possibly disconnected) extensions stay covered.
            let id = match self.index.find(verts) {
                Some(id) => id,
                None => {
                    let newly = !self.thresholds.is_dense(score - ctx.delta, card);
                    self.admit(verts, score, iteration, newly, events)
                }
            };
            if !self.index.has_star(id) {
                self.index.set_star(id, true);
                self.stats.star_markers_created += 1;
            }
        }
        let newly_dense = |gamma_y: f64| {
            !self
                .thresholds
                .is_dense(score + gamma_y - ctx.delta, ext_card)
        };

        // First the tests that depend on nothing but the candidate, over the
        // column's candidate list in whatever order it holds them (the
        // counters are sums); then the few that pass, in vertex order.
        if star {
            for (y, gamma_y) in gamma.iter() {
                self.stats.candidates_examined += 1;
                if stable_too || newly_dense(gamma_y) {
                    picks.push((y, gamma_y));
                }
            }
        } else if too_dense_now {
            // Explore-all (Algorithm 2, lines 2-5): every vertex is a
            // candidate, and only the newly dense extensions are acted on.
            self.stats.explore_all_invocations += 1;
            for y in (0..self.graph.vertex_count() as u32).map(VertexId) {
                let gamma_y = gamma.get(y);
                if gamma_y.is_nan() {
                    continue; // a member
                }
                self.stats.candidates_examined += 1;
                if newly_dense(gamma_y) {
                    picks.push((y, gamma_y));
                }
            }
        } else {
            for (y, gamma_y) in gamma.iter() {
                if self.config.degree_prioritize
                    && DegreePrioritize::skip_exploration(card, gamma_y, score)
                {
                    self.stats.degree_prioritize_skips += 1;
                    continue;
                }
                self.stats.candidates_examined += 1;
                if self.thresholds.is_dense(score + gamma_y, ext_card)
                    && (stable_too || newly_dense(gamma_y))
                {
                    picks.push((y, gamma_y));
                }
            }
        }
        picks.sort_unstable_by_key(|&(y, _)| y);
        for &(y, gamma_y) in &picks {
            let ext_score = score + gamma_y;
            union_into(&mut ext, verts, &[y]);
            if !self.thresholds.is_dense(ext_score - ctx.delta, ext_card) {
                if self.note_candidate(&ext, ext_score, iteration, events) {
                    self.explore(&ext, ext_score, iteration + 1, use_max_explore, ctx, events);
                }
            } else if self.index.find(&ext).is_none() {
                // The extension was already dense before the update. It is
                // normally in the index — and then the affected-subgraph loop
                // explores it — but it may only be represented implicitly
                // (covered by a `*` marker, possibly this subgraph's, or lost
                // to lazy vertex creation in the explicit mode). Its score
                // changed together with this subgraph's (both endpoints
                // inside), so its own supergraphs may be newly-dense: explore
                // it like the explicit stable-dense subgraphs of the main loop.
                self.explore_once(&ext, ext_score, 1, ctx, events);
            }
        }
        // "Exploring C ∪ {*}": the one-vertex extensions represented by the
        // marker may in turn have newly-dense supergraphs obtained by adding
        // an edge that is not incident on the base at all (Section 3.2.3).
        // Those are exactly the subgraphs C ∪ {y, z} for an edge (y, z)
        // disjoint from C (whose members read NaN) with sufficiently high
        // weight, visited in the graph's canonical edge order. By index, not
        // by borrow: the recursion below needs `self`, and cannot change the
        // graph.
        if star && card + 2 <= n_max {
            let n_edges = self.scratch.edges(&self.graph).len();
            for i in 0..n_edges {
                let (y, z, w) = self.scratch.edges(&self.graph)[i];
                let (gamma_y, gamma_z) = (gamma.get(y), gamma.get(z));
                if gamma_y.is_nan() || gamma_z.is_nan() {
                    continue;
                }
                self.stats.candidates_examined += 1;
                let ext_score = score + gamma_y + gamma_z + w;
                if !self.thresholds.is_dense(ext_score, card + 2) {
                    continue;
                }
                union_into(&mut ext, verts, &[y, z]);
                let ext_has_both =
                    ext.binary_search(&ctx.a).is_ok() && ext.binary_search(&ctx.b).is_ok();
                let before = ext_score - if ext_has_both { ctx.delta } else { 0.0 };
                if self.thresholds.is_dense(before, card + 2) {
                    // Dense before the update: already tracked. If its score
                    // changed (both endpoints inside) and it is only
                    // represented implicitly, its supergraphs may
                    // nevertheless be newly-dense — explore it like the
                    // explicit stable-dense subgraphs.
                    if ext_has_both && card + 2 < n_max && self.index.find(&ext).is_none() {
                        self.explore_once(&ext, ext_score, 1, ctx, events);
                    }
                    continue;
                }
                if self.note_candidate(&ext, ext_score, iteration, events) {
                    self.explore(&ext, ext_score, iteration + 1, use_max_explore, ctx, events);
                }
            }
        }
        self.scratch.verts.give(ext);
        self.scratch.picks.give(picks);
        self.scratch.columns.give(gamma);
    }

    /// Records a newly-dense candidate in the index, reporting it if it is
    /// output-dense. Returns `true` if the caller should recurse on it
    /// (Section 3.2.2 point ii: candidates already discovered at an earlier or
    /// equal exploration iteration within this update are not re-examined).
    fn note_candidate(
        &mut self,
        verts: &[VertexId],
        score: f64,
        iteration: usize,
        events: &mut Vec<DenseEvent>,
    ) -> bool {
        if let Some(existing) = self.index.find(verts) {
            let info = *self.index.info(existing);
            if info.discovered_epoch != self.epoch {
                // It was dense before the update; handled by the main loop.
                return false;
            }
            if info.discovered_iteration <= iteration as u32 {
                return false;
            }
            self.index.info_mut(existing).discovered_iteration = iteration as u32;
            return true;
        }
        self.admit(verts, score, iteration, true, events);
        true
    }

    /// Stores the dense subgraph `verts` (ascending, not in the index yet)
    /// with `score`, discovered in this epoch at `iteration`: the one way a
    /// subgraph enters the index. Counts it, reports it when `announce`
    /// holds and it is output-dense, and, under ImplicitTooDense, marks it
    /// `*` when it is too-dense — so that its extensions stay covered even
    /// when whatever admitted it goes no further.
    pub(crate) fn admit(
        &mut self,
        verts: &[VertexId],
        score: f64,
        iteration: usize,
        announce: bool,
        events: &mut Vec<DenseEvent>,
    ) -> NodeId {
        let card = verts.len();
        let id = self.index.insert(
            verts,
            SubgraphInfo {
                score,
                discovered_epoch: self.epoch,
                discovered_iteration: iteration as u32,
            },
        );
        self.stats.subgraphs_inserted += 1;
        if announce && self.thresholds.is_output_dense(score, card) {
            events.push(DenseEvent::BecameOutputDense {
                vertices: set_of(verts),
                density: self.thresholds.measure().density(score, card),
            });
        }
        if self.config.implicit_too_dense && self.thresholds.is_too_dense(score, card) {
            self.index.set_star(id, true);
            self.stats.star_markers_created += 1;
        }
        id
    }

    // ------------------------------------------------------------------
    // Validation helpers (used heavily by the test suites)
    // ------------------------------------------------------------------

    /// Exhaustively checks internal consistency: index structure invariants,
    /// stored scores matching the graph, every stored subgraph being dense,
    /// `*` markers sitting only on too-dense subgraphs, and cardinalities
    /// within bounds. Intended for tests and debugging; cost is proportional
    /// to the index size times `Nmax^2`.
    pub fn validate(&self) -> Result<(), String> {
        self.index.check_invariants()?;
        for (id, verts, info) in self.index.iter() {
            let card = verts.len();
            if !(2..=self.thresholds.n_max()).contains(&card) {
                return Err(format!("subgraph {verts} has out-of-range cardinality"));
            }
            let actual = self.graph.score(&verts);
            if (actual - info.score).abs() > 1e-6 {
                return Err(format!(
                    "stored score {} of {verts} disagrees with graph score {actual}",
                    info.score
                ));
            }
            if !self.thresholds.is_dense(info.score, card) {
                return Err(format!("stored subgraph {verts} is not dense"));
            }
            if self.index.has_star(id) && !self.thresholds.is_too_dense(info.score, card) {
                return Err(format!("* marker on {verts}, which is not too-dense"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    /// Builds the entity graph of the paper's execution example (Figure 2(a))
    /// just before the update of edge (1, 2): vertices are renumbered to
    /// 0-based (paper vertex i = our vertex i-1).
    ///
    /// Paper weights: w(1,3)=w(1,4)=w(3,4)=w(2,4)=1.0, w(2,3)=1.1, w(1,2)=0.8,
    /// w(1,5)=0.8 (vertex 5 hangs off vertex 1 with a light edge).
    fn execution_example_engine() -> DynDens<AvgWeight> {
        // The paper uses T = 1, Nmax = 4 and thresholds T_2 = 0.9,
        // T_3 = 0.975, which correspond to delta_it = 0.075 under our
        // AvgWeight parameterisation (see dyndens-density's threshold tests).
        let config = DynDensConfig::plain(1.0, 4).with_delta_it(0.075);
        let mut engine = DynDens::new(AvgWeight, config);
        for u in [
            update(0, 2, 1.0),
            update(0, 3, 1.0),
            update(2, 3, 1.0),
            update(1, 3, 1.0),
            update(1, 2, 1.1),
            update(0, 1, 0.8),
            update(0, 4, 0.8),
        ] {
            engine.apply_update(u);
        }
        engine
    }

    fn dense_sets(engine: &DynDens<AvgWeight>) -> Vec<VertexSet> {
        let mut v: Vec<VertexSet> = engine
            .dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn execution_example_initial_state() {
        let engine = execution_example_engine();
        engine.validate().unwrap();
        // Figure 2(b), top half (0-based vertex ids): {0,2}, {0,3}, {1,2},
        // {1,3}, {2,3}, {0,2,3}, {1,2,3} are dense; {0,1} (weight 0.8 < 0.9)
        // and {0,4} are not.
        let dense = dense_sets(&engine);
        let expected: Vec<VertexSet> = [
            vec![0u32, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![0, 2, 3],
            vec![1, 2, 3],
        ]
        .iter()
        .map(|ids| VertexSet::from_ids(ids))
        .collect();
        let mut expected = expected;
        expected.sort();
        assert_eq!(dense, expected);
        assert_eq!(engine.output_dense_count(), 7);
    }

    #[test]
    fn execution_example_update() {
        let mut engine = execution_example_engine();
        // The update of the paper: edge (1,2) [our (0,1)] goes from 0.8 to 0.95.
        let events = engine.apply_update(update(0, 1, 0.15));
        engine.validate().unwrap();

        let dense = dense_sets(&engine);
        let expected: Vec<VertexSet> = [
            vec![0u32, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![0, 2, 3],
            vec![1, 2, 3],
            // newly-dense after the update (bottom half of Figure 2(b)):
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 1, 2, 3],
        ]
        .iter()
        .map(|ids| VertexSet::from_ids(ids))
        .collect();
        let mut expected = expected;
        expected.sort();
        assert_eq!(dense, expected);

        // {0,1,2} (paper {1,2,3}, density 1.016) and {0,1,2,3} (density 1.0083)
        // become output-dense; {0,1} (0.95) and {0,1,3} (0.983) do not.
        let mut became: Vec<VertexSet> = events
            .iter()
            .filter(|e| e.is_became())
            .map(|e| e.vertices().clone())
            .collect();
        became.sort();
        assert_eq!(
            became,
            vec![
                VertexSet::from_ids(&[0, 1, 2]),
                VertexSet::from_ids(&[0, 1, 2, 3])
            ]
        );
        assert!(events.iter().all(|e| e.is_became()));
    }

    #[test]
    fn negative_update_evicts_and_reports() {
        let mut engine = execution_example_engine();
        engine.apply_update(update(0, 1, 0.15));
        // Now pull the same edge back down hard: {0,1}, {0,1,2}, {0,1,3} and
        // {0,1,2,3} lose density.
        let events = engine.apply_update(update(0, 1, -0.8));
        engine.validate().unwrap();
        let gone: Vec<VertexSet> = events
            .iter()
            .filter(|e| !e.is_became())
            .map(|e| e.vertices().clone())
            .collect();
        // The two previously output-dense subgraphs containing edge (0,1) are
        // reported as lost.
        assert!(gone.contains(&VertexSet::from_ids(&[0, 1, 2])));
        assert!(gone.contains(&VertexSet::from_ids(&[0, 1, 2, 3])));
        // And the index no longer stores subgraphs containing the edge (0,1).
        for (set, _) in engine.dense_subgraphs() {
            assert!(
                !(set.contains(VertexId(0)) && set.contains(VertexId(1))),
                "{set} should have been evicted"
            );
        }
    }

    #[test]
    fn zero_delta_is_a_no_op() {
        let mut engine = execution_example_engine();
        let before = dense_sets(&engine);
        let events = engine.apply_update(update(0, 1, 0.0));
        assert!(events.is_empty());
        assert_eq!(dense_sets(&engine), before);
    }

    #[test]
    fn single_heavy_edge_is_reported() {
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        let events = engine.apply_update(update(3, 9, 1.5));
        assert_eq!(events.len(), 1);
        assert!(events[0].is_became());
        assert_eq!(events[0].vertices(), &VertexSet::from_ids(&[3, 9]));
        assert_eq!(engine.dense_count(), 1);
        assert_eq!(engine.output_dense_count(), 1);
        engine.validate().unwrap();
    }

    #[test]
    fn growing_clique_is_tracked_at_all_cardinalities() {
        let config = DynDensConfig::new(1.0, 5).with_delta_it_fraction(0.5);
        let mut engine = DynDens::new(AvgWeight, config);
        // Build a 5-clique with all weights 1.2, one edge at a time.
        let mut events = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                engine.apply_update_into(update(i, j, 1.2), &mut events);
            }
        }
        engine.validate().unwrap();
        // Every subset of cardinality 2..=5 is output-dense: C(5,2)+C(5,3)+C(5,4)+C(5,5) = 10+10+5+1 = 26.
        assert_eq!(engine.output_dense_count(), 26);
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3, 4])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[1, 3])));
        assert!(!engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3, 4, 5])));
    }

    #[test]
    fn implicit_too_dense_covers_disconnected_extensions() {
        // One extremely heavy edge makes {0,1} too-dense: adding any third
        // vertex (even a disconnected one) keeps it dense. With the implicit
        // representation the index stays small but coverage queries succeed.
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        engine.apply_update(update(0, 1, 10.0));
        // Materialise a few unrelated vertices so they exist in the graph.
        engine.apply_update(update(5, 6, 0.2));
        engine.validate().unwrap();
        assert!(engine.index().star_count() >= 1);
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 5])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 6])));
        assert!(engine.covered_by_star(&VertexSet::from_ids(&[0, 1, 5, 6])));
        // The explicit index does not enumerate all of those.
        assert!(engine.dense_count() < 5);
    }

    #[test]
    fn explore_all_mode_matches_implicit_coverage() {
        let implicit_cfg = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let explicit_cfg = implicit_cfg.clone().with_implicit_too_dense(false);
        let updates = vec![
            update(0, 1, 10.0),
            update(5, 6, 0.2),
            update(2, 3, 1.3),
            update(1, 2, 0.8),
        ];
        let mut imp = DynDens::new(AvgWeight, implicit_cfg);
        let mut exp = DynDens::new(AvgWeight, explicit_cfg);
        for u in &updates {
            imp.apply_update(*u);
            exp.apply_update(*u);
        }
        imp.validate().unwrap();
        exp.validate().unwrap();
        // Every subgraph explicitly stored by the explore-all variant must be
        // tracked (explicitly or implicitly) by the implicit variant.
        for (set, _) in exp.dense_subgraphs() {
            assert!(imp.is_tracked_dense(&set), "implicit variant lost {set}");
        }
        assert!(exp.stats().explore_all_invocations > 0);
        assert!(imp.stats().star_markers_created > 0);
    }

    #[test]
    fn star_coverage_shrink_and_demotion_keep_tracking_exact() {
        // T = 1, Nmax = 4, delta_it = 0.15: dense score bounds are 0.8 (card
        // 2), 2.85 (card 3) and 6.0 (card 4).
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::with_vertex_capacity(AvgWeight, config, 6);
        engine.apply_update(update(0, 1, 6.5)); // too-dense pair: covers cards 3 and 4
        engine.apply_update(update(2, 3, 1.2)); // separate output-dense pair
        engine.validate().unwrap();
        // Zero-contribution (disconnected) and cross-component supersets are
        // covered by the marker.
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3])));

        // Radius shrink (6.5 -> 5.0): card-4 coverage is lost. {0,1,2,3}
        // stays dense through its own (2,3) edge (5.0 + 1.2 >= 6.0) and must
        // be materialised; zero-contribution card-4 supersets score exactly
        // 5.0 < 6.0, i.e. they stop being dense the moment they stop being
        // covered — nothing is lost.
        engine.apply_update(update(0, 1, -1.5));
        engine.validate().unwrap();
        assert!(engine.index().star_count() >= 1, "base must stay too-dense");
        assert!(
            engine
                .dense_subgraphs()
                .iter()
                .any(|(s, _)| s == &VertexSet::from_ids(&[0, 1, 2, 3])),
            "weighted ext must be explicit after falling out of coverage"
        );
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4]))); // card-3 coverage retained

        // Full demotion (5.0 -> 2.0 < 2.85): the marker goes away, and every
        // previously covered superset is either materialised or no longer
        // dense.
        engine.apply_update(update(0, 1, -3.0));
        engine.validate().unwrap();
        assert_eq!(engine.index().star_count(), 0);
        assert!(!engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[2, 3])));
        // {0,1,2,3} lost density (2.0 + 1.2 < 6.0) and must be evicted.
        assert!(!engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3])));
    }

    #[test]
    fn partition_then_absorb_round_trips_the_answer() {
        // Two communities separated by the parity of the vertex id, so a
        // `keep = even` partition is subgraph-disjoint.
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        for (a, b) in [(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)] {
            engine.apply_update(update(a, b, 1.25));
        }
        engine.apply_update(update(0, 2, 10.0)); // a `*` marker on one side
        engine.validate().unwrap();
        let mut want: Vec<(VertexSet, u64)> = engine
            .dense_subgraphs()
            .into_iter()
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        let stars = engine.index().star_count();
        let want_stats = engine.stats().clone();
        let want_edges: Vec<_> = engine.graph().edges().collect();

        let (mut zero, one) = engine.partition_by(|v| v.index() % 2 == 0);
        let dealt = zero.graph().edges().chain(one.graph().edges()).count();
        assert_eq!(dealt, want_edges.len());
        zero.adopt_stats(want_stats.clone());
        zero.absorb(one);
        zero.validate().unwrap();
        assert_eq!(zero.graph().edges().collect::<Vec<_>>(), want_edges);
        let mut got: Vec<(VertexSet, u64)> = zero
            .dense_subgraphs()
            .into_iter()
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, want);
        assert_eq!(zero.index().star_count(), stars);
        assert_eq!(zero.stats(), &want_stats);

        // The merged engine keeps evolving exactly like the original.
        for u in [update(0, 1, 1.5), update(2, 3, 0.75)] {
            engine.apply_update(u);
            zero.apply_update(u);
        }
        let left: Vec<(VertexSet, u64)> = {
            let mut v: Vec<_> = engine
                .dense_subgraphs()
                .into_iter()
                .map(|(s, d)| (s, d.to_bits()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let right: Vec<(VertexSet, u64)> = {
            let mut v: Vec<_> = zero
                .dense_subgraphs()
                .into_iter()
                .map(|(s, d)| (s, d.to_bits()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(left, right);
    }

    /// A 4-clique {0, 1, 2, 3} so heavy (12 per edge) that each of its pairs
    /// alone covers every superset up to `Nmax`, with satellite 4 hanging
    /// off member 0 and satellite 5 off member 1: a nest of `*` bases — the
    /// clique, its triangles and pairs, and their materialised extensions by
    /// one satellite — around the pair (4, 5).
    fn nest(n_max: usize) -> DynDens<AvgWeight> {
        let config = DynDensConfig::new(1.0, n_max).with_delta_it(0.15);
        let mut engine = DynDens::with_vertex_capacity(AvgWeight, config, 6);
        for i in 0..4u32 {
            for j in i + 1..4 {
                engine.apply_update(update(i, j, 12.0));
            }
        }
        engine.apply_update(update(0, 4, 1.5));
        engine.apply_update(update(1, 5, 1.5));
        engine.validate().unwrap();
        engine
    }

    #[test]
    fn nested_star_bases_explore_a_covered_subgraph_once() {
        let mut engine = nest(5);
        assert!(engine.index().star_count() > 10, "not a nest");
        // Left over from the last positive update: cleared when the next one
        // starts, never copied, never snapshotted.
        assert!(!engine.scratch.explored.is_empty());
        assert!(engine.clone().scratch.explored.is_empty());
        let mut restored = DynDens::restore(AvgWeight, &engine.snapshot()).unwrap();

        // Every {x, y, 4, 5} with x, y in the clique was dense before this
        // update and contains both endpoints. Only {0, 1, 4, 5} is stored
        // (the main loop explores it); the others exist under their pair's
        // marker. They are reached as
        //   {0,1,4,5}  from the bases {0,1} (+ 4, 5), {0,1,4} (+ 5), {0,1,5} (+ 4)
        //   {0,2,4,5}  from {0,2}, {0,2,4}        {0,3,4,5}  from {0,3}, {0,3,4}
        //   {1,2,4,5}  from {1,2}, {1,2,5}        {1,3,4,5}  from {1,3}, {1,3,5}
        //   {2,3,4,5}  from {2,3}
        // which is 1 + 12 = 13 explorations where every arrival explores (the
        // count before the once-per-update rule covered implicit subgraphs)
        // and 1 + 6 = 7 with one exploration per set.
        let before = engine.stats().explorations;
        engine.scratch.trace.clear();
        let events = engine.apply_update(update(4, 5, 0.1));
        engine.validate().unwrap();
        assert_eq!(engine.stats().explorations - before, 7);
        assert_eq!(engine.scratch.explored.len(), 6);
        let mut implicit: Vec<_> = engine.scratch.trace.iter().filter(|t| !t.2).collect();
        assert_eq!(implicit.len(), 5, "{:?}", engine.scratch.trace);
        implicit.sort();
        implicit.dedup_by_key(|t| (&t.0, t.1));
        assert_eq!(implicit.len(), 5, "an implicit (set, iteration) ran twice");

        // The table is working memory: an engine that starts the update with
        // an empty one does the same work and lands on the same bytes,
        // ledger included.
        assert_eq!(restored.apply_update(update(4, 5, 0.1)), events);
        assert_eq!(restored.snapshot(), engine.snapshot());
    }

    #[test]
    fn past_the_key_width_nothing_is_remembered() {
        // Nmax = 13 > PATH_KEY_WIDTH: the same nest, explored unconditionally
        // (against brute force: `crates/baselines/tests/oracle.rs`).
        let mut engine = nest(13);
        engine.apply_update(update(4, 5, 0.1));
        engine.validate().unwrap();
        assert!(engine.index().star_count() > 10, "not a nest");
        assert!(engine.scratch.explored.is_empty());
    }

    #[test]
    fn stats_are_accumulated() {
        let mut engine = execution_example_engine();
        engine.apply_update(update(0, 1, 0.15));
        let s = engine.stats();
        assert_eq!(s.updates, 8);
        assert_eq!(s.positive_updates, 8);
        assert!(s.explorations > 0);
        assert!(s.cheap_explorations > 0);
        assert!(s.subgraphs_inserted >= 11);
        engine.reset_stats();
        assert_eq!(engine.stats().updates, 0);
    }
}
