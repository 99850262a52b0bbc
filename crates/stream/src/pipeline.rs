//! The post → edge-weight-update pipeline.
//!
//! Every incoming post updates the (decayed) occurrence and co-occurrence
//! counters, and the weights of the edges incident to the mentioned entities
//! are recomputed under the configured association measure. The difference
//! between the new and the previously emitted weight of each such edge becomes
//! an [`EdgeUpdate`] for the DynDens engine.
//!
//! This implements the paper's approximation for expensive statistical
//! measures: the weight of an edge is computed ignoring all documents that
//! appeared after the last time either endpoint was mentioned — operationally,
//! an edge's weight is only refreshed when one of its endpoints appears in a
//! post, so a single post only touches the edges incident to its entities.
//!
//! ## Per-post cost and output order
//!
//! After the tracker has observed the post, every pair it touches is a
//! mentioned entity with one of its co-occurrence partners (the post's own
//! pairs included: observing them made them partners). Each mentioned
//! entity's partner list is ascending, so its incident pairs, written
//! `(min, max)`, are already in canonical order; the post's touched pairs are
//! one merge of those runs, a pair of two mentioned entities taken once. The
//! updates so come out in ascending edge order without a sort, and a
//! one-entity post is a plain walk of one list. The post's decayed total and
//! each mentioned entity's decayed count are read once per post; a pair then
//! costs the partner's count and the pair's co-occurrence count (two counter
//! probes, two `exp`s), the measure, and one probe of the emitted-weight map
//! (two if it emits). The merge works in two buffers the generator keeps, so
//! a post allocates nothing once they have grown.

use crate::decay::{CooccurrenceTracker, PairStats};
use crate::measures::AssociationMeasure;
use crate::post::Post;
use dyndens_graph::{EdgeUpdate, FxHashMap, VertexId};

/// Minimum absolute weight change that is worth emitting as an update.
const MIN_DELTA: f64 = 1e-9;

/// One mentioned entity's partners during a post's merge: they sit at
/// `touched[next..end]` of the generator's buffer, ascending.
#[derive(Debug, Clone, Copy)]
struct Run {
    entity: VertexId,
    /// The entity's decayed count at the post's time.
    count: f64,
    next: usize,
    end: usize,
}

impl Run {
    /// The run's next pair in canonical `(min, max)` form.
    fn head(&self, touched: &[VertexId]) -> Option<(VertexId, VertexId)> {
        (self.next < self.end).then(|| canonical(self.entity, touched[self.next]))
    }
}

fn canonical(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Generates edge weight updates from a stream of entity-annotated posts.
#[derive(Debug, Clone)]
pub struct EdgeUpdateGenerator<M: AssociationMeasure> {
    measure: M,
    tracker: CooccurrenceTracker,
    /// The last weight emitted for each edge (the DynDens engine's view).
    emitted: FxHashMap<(VertexId, VertexId), f64>,
    /// The current post's partner lists, one run per mentioned entity.
    touched: Vec<VertexId>,
    runs: Vec<Run>,
    posts_seen: u64,
    positive_updates: u64,
    negative_updates: u64,
}

impl<M: AssociationMeasure> EdgeUpdateGenerator<M> {
    /// Creates a generator with the given association measure and mean post
    /// life (seconds) for exponential decay.
    pub fn new(measure: M, mean_life: f64) -> Self {
        Self::with_tracker(measure, CooccurrenceTracker::new(mean_life))
    }

    /// Creates a generator that applies no decay (cumulative mode).
    pub fn without_decay(measure: M) -> Self {
        Self::with_tracker(measure, CooccurrenceTracker::without_decay())
    }

    fn with_tracker(measure: M, tracker: CooccurrenceTracker) -> Self {
        EdgeUpdateGenerator {
            measure,
            tracker,
            emitted: FxHashMap::default(),
            touched: Vec::new(),
            runs: Vec::new(),
            posts_seen: 0,
            positive_updates: 0,
            negative_updates: 0,
        }
    }

    /// The decayed co-occurrence statistics collected so far.
    pub fn tracker(&self) -> &CooccurrenceTracker {
        &self.tracker
    }

    /// Number of posts consumed.
    pub fn posts_seen(&self) -> u64 {
        self.posts_seen
    }

    /// Number of positive / negative updates emitted so far.
    pub fn update_counts(&self) -> (u64, u64) {
        (self.positive_updates, self.negative_updates)
    }

    /// The weight currently emitted for an edge (the engine's view of it).
    pub fn current_weight(&self, a: VertexId, b: VertexId) -> f64 {
        let key = canonical(a, b);
        self.emitted.get(&key).copied().unwrap_or(0.0)
    }

    /// Consumes one post and returns the edge weight updates it causes.
    pub fn process_post(&mut self, post: &Post) -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        self.process_post_into(post, &mut updates);
        updates
    }

    /// Consumes one post, appending the resulting updates to `out` in
    /// ascending edge order.
    pub fn process_post_into(&mut self, post: &Post, out: &mut Vec<EdgeUpdate>) {
        self.posts_seen += 1;
        let now = post.timestamp;
        self.tracker.observe(now, &post.entities);
        // Everything below reads the counters after the post was counted.
        self.touched.clear();
        self.runs.clear();
        for &entity in &post.entities {
            let next = self.touched.len();
            self.touched
                .extend_from_slice(self.tracker.partners(entity));
            self.runs.push(Run {
                entity,
                count: self.tracker.occurrences(entity, now),
                next,
                end: self.touched.len(),
            });
        }
        let total = self.tracker.total(now);
        let EdgeUpdateGenerator {
            measure,
            tracker,
            emitted,
            touched,
            runs,
            positive_updates,
            negative_updates,
            ..
        } = self;
        loop {
            // The smallest head among the runs; a pair of two mentioned
            // entities heads both their runs and is taken once.
            let mut best: Option<((VertexId, VertexId), usize)> = None;
            for (i, run) in runs.iter().enumerate() {
                if let Some(key) = run.head(touched) {
                    if best.is_none_or(|(min, _)| key < min) {
                        best = Some((key, i));
                    }
                }
            }
            let Some((key, i)) = best else { break };
            let Run {
                entity,
                count,
                next,
                ..
            } = runs[i];
            for run in runs.iter_mut() {
                if run.head(touched) == Some(key) {
                    run.next += 1;
                }
            }
            let partner = touched[next];
            let partner_count = tracker.occurrences(partner, now);
            let (count_a, count_b) = if entity < partner {
                (count, partner_count)
            } else {
                (partner_count, count)
            };
            let stats = PairStats {
                count_a,
                count_b,
                count_ab: tracker.cooccurrences(key.0, key.1, now),
                total,
            };
            let new_weight = measure.weight(&stats);
            debug_assert!(new_weight >= 0.0 && new_weight.is_finite());
            let delta = new_weight - emitted.get(&key).copied().unwrap_or(0.0);
            if delta.abs() <= MIN_DELTA {
                continue;
            }
            if new_weight <= MIN_DELTA {
                emitted.remove(&key);
            } else {
                emitted.insert(key, new_weight);
            }
            if delta > 0.0 {
                *positive_updates += 1;
            } else {
                *negative_updates += 1;
            }
            out.push(EdgeUpdate::new(key.0, key.1, delta));
        }
    }

    /// Forgets fully-decayed state: prunes tracker counters whose decayed
    /// value at time `now` is at or below `epsilon`, then emits a cancelling
    /// [`EdgeUpdate`] (in canonical ascending edge order) for every emitted
    /// edge whose co-occurrence evidence was pruned away. Returns the number
    /// of edges cancelled.
    ///
    /// This is the stream half of decay-driven eviction. Scale-invariant
    /// association measures keep a stale edge's weight nearly constant under
    /// uniform decay (numerator and denominator shrink together), so weights
    /// alone never reach zero — the pair's *counter* vanishing is what
    /// declares the evidence gone. Feed the returned updates to the engine
    /// (they drive its weights to exactly zero) and follow with the sharded
    /// `compact_below` — or, on a single engine, apply the cancelling
    /// updates `DynDens::edges_below` lists — to reclaim the engine-side
    /// state.
    pub fn compact(&mut self, now: f64, epsilon: f64, out: &mut Vec<EdgeUpdate>) -> usize {
        self.tracker.prune(now, epsilon);
        let mut dead: Vec<(VertexId, VertexId)> = self
            .emitted
            .keys()
            .copied()
            .filter(|&(a, b)| self.tracker.cooccurrences(a, b, now) == 0.0)
            .collect();
        dead.sort_unstable();
        for &(a, b) in &dead {
            let w = self.emitted.remove(&(a, b)).unwrap_or(0.0);
            if w != 0.0 {
                self.negative_updates += 1;
                out.push(EdgeUpdate::new(a, b, -w));
            }
        }
        dead.len()
    }

    /// Consumes a batch of posts, returning all updates in order.
    pub fn process_posts<'a, I: IntoIterator<Item = &'a Post>>(
        &mut self,
        posts: I,
    ) -> Vec<EdgeUpdate> {
        let mut out = Vec::new();
        for p in posts {
            self.process_post_into(p, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{ChiSquareCorrelation, LogLikelihoodRatio};
    use dyndens_graph::DynamicGraph;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn post(t: f64, ids: &[u32]) -> Post {
        Post::new(t, ids.iter().map(|&i| VertexId(i)).collect())
    }

    #[test]
    fn repeated_cooccurrence_creates_a_positive_edge() {
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), 7200.0);
        let mut updates = Vec::new();
        // A background of unrelated posts plus a recurring pair (0, 1).
        for i in 0..30 {
            updates.extend(generator.process_post(&post(i as f64, &[0, 1])));
            updates.extend(generator.process_post(&post(i as f64 + 0.5, &[2 + (i % 5)])));
        }
        assert!(generator.current_weight(v(0), v(1)) > 0.5);
        let (pos, _neg) = generator.update_counts();
        assert!(pos > 0);
        // Replaying the emitted updates must reproduce the generator's view.
        let mut graph = DynamicGraph::new();
        for u in &updates {
            graph.apply_update(u);
        }
        assert!((graph.weight(v(0), v(1)) - generator.current_weight(v(0), v(1))).abs() < 1e-9);
        assert_eq!(generator.posts_seen(), 60);
    }

    #[test]
    fn decay_produces_negative_updates() {
        let mean_life = 100.0;
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), mean_life);
        for i in 0..20 {
            generator.process_post(&post(i as f64, &[0, 1]));
            generator.process_post(&post(i as f64 + 0.25, &[2, 3]));
        }
        let strong = generator.current_weight(v(0), v(1));
        assert!(strong > 0.0);
        // Much later, a post touching entity 0 (with a different partner)
        // forces a refresh of the stale (0,1) edge: its association has
        // decayed relative to the new evidence.
        let mut updates = Vec::new();
        for i in 0..20 {
            updates.extend(generator.process_post(&post(10_000.0 + i as f64, &[0, 4])));
            updates
                .extend(generator.process_post(&post(10_000.0 + i as f64 + 0.25, &[5 + (i % 3)])));
        }
        assert!(
            updates.iter().any(|u| u.is_negative()),
            "expected negative updates from decay"
        );
        let (_, neg) = generator.update_counts();
        assert!(neg > 0);
    }

    #[test]
    fn llr_measure_generates_unit_edges() {
        let mut generator = EdgeUpdateGenerator::without_decay(LogLikelihoodRatio::default());
        let mut updates = Vec::new();
        for i in 0..40 {
            updates.extend(generator.process_post(&post(i as f64, &[0, 1])));
            updates.extend(generator.process_post(&post(i as f64 + 0.5, &[(i % 7) + 2])));
        }
        let w = generator.current_weight(v(0), v(1));
        assert!(
            (w - 1.0).abs() < 1e-9,
            "thresholded LLR weight should be 1, got {w}"
        );
        // All updates for that edge sum to exactly the weight.
        let sum: f64 = updates
            .iter()
            .filter(|u| u.endpoints() == (v(0), v(1)))
            .map(|u| u.delta)
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compact_cancels_edges_whose_evidence_decayed_away() {
        let mean_life = 100.0;
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), mean_life);
        let mut graph = DynamicGraph::new();
        let mut updates = Vec::new();
        for i in 0..20 {
            updates.extend(generator.process_post(&post(i as f64, &[0, 1])));
            updates.extend(generator.process_post(&post(i as f64 + 0.25, &[2, 3])));
        }
        for u in &updates {
            graph.apply_update(u);
        }
        assert!(generator.current_weight(v(0), v(1)) > 0.0);
        let pairs_before = generator.tracker().pair_count();

        // Long after everything decayed: compaction forgets both pairs.
        let now = 1_000.0 * mean_life;
        let mut cancels = Vec::new();
        let cancelled = generator.compact(now, 1e-9, &mut cancels);
        assert_eq!(cancelled, 2);
        assert!(generator.tracker().pair_count() < pairs_before);
        assert_eq!(generator.tracker().entity_count(), 0);
        assert_eq!(generator.current_weight(v(0), v(1)), 0.0);
        // Cancelling updates are in canonical order and drive the mirror
        // graph to exactly empty.
        let keys: Vec<_> = cancels.iter().map(|u| u.endpoints()).collect();
        assert_eq!(keys, vec![(v(0), v(1)), (v(2), v(3))]);
        for u in &cancels {
            graph.apply_update(u);
        }
        assert_eq!(graph.edge_count(), 0);
        // A second compaction finds nothing.
        let mut none = Vec::new();
        assert_eq!(generator.compact(now, 1e-9, &mut none), 0);
        assert!(none.is_empty());
    }

    #[test]
    fn compact_spares_live_edges() {
        let mean_life = 1_000.0;
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), mean_life);
        for i in 0..20 {
            generator.process_post(&post(i as f64, &[0, 1]));
            generator.process_post(&post(i as f64 + 0.25, &[2 + (i % 5)]));
        }
        let w = generator.current_weight(v(0), v(1));
        assert!(w > 0.0);
        let mut cancels = Vec::new();
        // Compact "now": nothing has decayed below epsilon.
        assert_eq!(generator.compact(20.0, 1e-9, &mut cancels), 0);
        assert!(cancels.is_empty());
        assert_eq!(generator.current_weight(v(0), v(1)), w);
    }

    #[test]
    fn posts_without_entities_produce_no_updates() {
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), 7200.0);
        assert!(generator.process_post(&post(0.0, &[])).is_empty());
        assert!(generator.process_post(&post(1.0, &[3])).is_empty());
        assert_eq!(generator.posts_seen(), 2);
        assert_eq!(generator.update_counts(), (0, 0));
    }

    #[test]
    fn single_mention_posts_still_refresh_incident_edges() {
        // The approximation: an edge is refreshed whenever either endpoint is
        // mentioned, even alone.
        let mut generator = EdgeUpdateGenerator::without_decay(ChiSquareCorrelation::default());
        // Interleave background posts so the (0, 1) association is
        // statistically meaningful (a pair that appears in *every* post is
        // indistinguishable from independence under chi-square).
        for i in 0..10 {
            generator.process_post(&post(i as f64, &[0, 1]));
            generator.process_post(&post(i as f64 + 0.5, &[7 + i]));
        }
        let before = generator.current_weight(v(0), v(1));
        assert!(
            before > 0.5,
            "setup should create a strong (0, 1) edge, got {before}"
        );
        // Entity 0 now appears many times alone: the (0,1) association weakens
        // and the edge must be refreshed downward.
        let mut saw_refresh = false;
        for i in 0..50 {
            let ups = generator.process_post(&post(200.0 + i as f64, &[0]));
            if ups
                .iter()
                .any(|u| u.endpoints() == (v(0), v(1)) && u.is_negative())
            {
                saw_refresh = true;
            }
        }
        let after = generator.current_weight(v(0), v(1));
        assert!(
            after < before,
            "association should weaken ({before} -> {after})"
        );
        assert!(saw_refresh);
    }
}
