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

use crate::decay::CooccurrenceTracker;
use crate::measures::AssociationMeasure;
use crate::post::Post;
use dyndens_graph::{EdgeUpdate, FxHashMap, VertexId};

/// Minimum absolute weight change that is worth emitting as an update.
const MIN_DELTA: f64 = 1e-9;

/// Generates edge weight updates from a stream of entity-annotated posts.
#[derive(Debug, Clone)]
pub struct EdgeUpdateGenerator<M: AssociationMeasure> {
    measure: M,
    tracker: CooccurrenceTracker,
    /// The last weight emitted for each edge (the DynDens engine's view).
    emitted: FxHashMap<(VertexId, VertexId), f64>,
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
        let key = if a < b { (a, b) } else { (b, a) };
        self.emitted.get(&key).copied().unwrap_or(0.0)
    }

    /// Consumes one post and returns the edge weight updates it causes.
    pub fn process_post(&mut self, post: &Post) -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        self.process_post_into(post, &mut updates);
        updates
    }

    /// Consumes one post, appending the resulting updates to `out`.
    pub fn process_post_into(&mut self, post: &Post, out: &mut Vec<EdgeUpdate>) {
        self.posts_seen += 1;
        self.tracker.observe(post.timestamp, &post.entities);
        if post.entities.is_empty() {
            return;
        }
        // Refresh every edge incident to a mentioned entity: pairs within the
        // post plus pairs with previous co-occurrence partners.
        let mut touched: Vec<(VertexId, VertexId)> = Vec::new();
        for (i, &a) in post.entities.iter().enumerate() {
            for &b in &post.entities[i + 1..] {
                touched.push(if a < b { (a, b) } else { (b, a) });
            }
            for p in self.tracker.partners(a) {
                if p != a {
                    touched.push(if a < p { (a, p) } else { (p, a) });
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        for (a, b) in touched {
            let stats = self.tracker.pair_stats(a, b, post.timestamp);
            let new_weight = self.measure.weight(&stats);
            debug_assert!(new_weight >= 0.0 && new_weight.is_finite());
            let old_weight = self.emitted.get(&(a, b)).copied().unwrap_or(0.0);
            let delta = new_weight - old_weight;
            if delta.abs() <= MIN_DELTA {
                continue;
            }
            if new_weight <= MIN_DELTA {
                self.emitted.remove(&(a, b));
            } else {
                self.emitted.insert((a, b), new_weight);
            }
            if delta > 0.0 {
                self.positive_updates += 1;
            } else {
                self.negative_updates += 1;
            }
            out.push(EdgeUpdate::new(a, b, delta));
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
