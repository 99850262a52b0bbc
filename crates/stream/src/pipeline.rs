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
//! one-entity post is a plain walk of one list.
//!
//! No step of the merge hashes into a map. A partner list carries each
//! pair's slot beside the partner's id, the tracker's counters are vectors
//! indexed by vertex id and by slot, and the last emitted weight of every
//! pair is a column indexed by slot. Decay is paid once per distinct
//! timestamp: a post keeps a memo of `exp(-dt / mean_life)` keyed by a
//! counter's `last_update`, which every counter read of the post (the
//! post's total, each mentioned entity's count, each partner's count, each
//! pair's count) shares. A pair then costs two counter reads (the
//! partner's count and the pair's), two memo lookups, the measure, and one
//! read of the emitted-weight column (a write too if it emits). The merge
//! and the memo work in buffers the generator keeps, so a post allocates
//! nothing once they have grown.

use crate::decay::{decay_factor, CooccurrenceTracker, DecayedCount, PairStats, Slot};
use crate::measures::AssociationMeasure;
use crate::post::Post;
use dyndens_graph::{EdgeUpdate, VertexId};

/// Minimum absolute weight change that is worth emitting as an update.
const MIN_DELTA: f64 = 1e-9;

/// One mentioned entity's partners during a post's merge: they sit at
/// `touched[next..end]` of the generator's buffer, ascending, with their
/// pairs' slots at the same positions of `touched_slots`.
#[derive(Debug, Clone, Copy)]
struct Run {
    entity: VertexId,
    /// The entity's decayed count at the post's time.
    count: f64,
    /// The [`pair_key`] of the run's next pair; [`DONE`] once it is spent.
    head: u64,
    next: usize,
    end: usize,
}

/// The head of a spent run: above every pair key.
const DONE: u64 = u64::MAX;

impl Run {
    /// Moves the run past its head pair.
    fn advance(&mut self, touched: &[VertexId]) {
        self.next += 1;
        self.head = if self.next < self.end {
            pair_key(self.entity, touched[self.next])
        } else {
            DONE
        };
    }
}

/// A pair's canonical `(min, max)` order as one integer: `min` in the high
/// half, so that the integers order as the pairs do.
fn pair_key(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo.0) << 32) | u64::from(hi.0)
}

/// The current post's decay factors, keyed by the `last_update` bits of the
/// counters read: an open-addressed table whose entries count only when
/// stamped with the post's generation, so starting a post forgets them all
/// at once. It is kept at most half full.
#[derive(Debug, Clone, Default)]
struct DecayMemo {
    now: f64,
    life: f64,
    generation: u32,
    used: usize,
    entries: Vec<MemoEntry>,
}

#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    /// Zero never matches: live generations start at 1.
    generation: u32,
    bits: u64,
    factor: f64,
}

impl DecayMemo {
    const INITIAL_ENTRIES: usize = 64;

    /// Starts a post at time `now`, under mean life `life`.
    fn start(&mut self, now: f64, life: f64) {
        self.now = now;
        self.life = life;
        self.used = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 || self.entries.is_empty() {
            // First use, or the stamps wrapped: clear every stale stamp.
            let len = self.entries.len().max(Self::INITIAL_ENTRIES);
            self.entries.clear();
            self.entries.resize(len, MemoEntry::default());
            self.generation = 1;
        }
    }

    /// `counter`'s value decayed to the post's time, bit-identical to
    /// decaying it directly. A zero counter reads zero without a lookup.
    fn decayed(&mut self, counter: DecayedCount) -> f64 {
        if counter.value == 0.0 {
            return 0.0;
        }
        counter.value * self.factor(counter.last_update)
    }

    fn factor(&mut self, last: f64) -> f64 {
        let bits = last.to_bits();
        let mask = self.entries.len() - 1;
        let mut i = home(bits, mask);
        loop {
            let entry = self.entries[i];
            if entry.generation != self.generation {
                break;
            }
            if entry.bits == bits {
                return entry.factor;
            }
            i = (i + 1) & mask;
        }
        let factor = decay_factor(self.now, last, self.life);
        self.entries[i] = MemoEntry {
            generation: self.generation,
            bits,
            factor,
        };
        self.used += 1;
        if 2 * self.used > self.entries.len() {
            self.grow();
        }
        factor
    }

    /// Doubles the table, carrying the current post's entries over.
    fn grow(&mut self) {
        let doubled = vec![MemoEntry::default(); 2 * self.entries.len()];
        let old = std::mem::replace(&mut self.entries, doubled);
        let mask = self.entries.len() - 1;
        for entry in old.into_iter().filter(|e| e.generation == self.generation) {
            let mut i = home(entry.bits, mask);
            while self.entries[i].generation == self.generation {
                i = (i + 1) & mask;
            }
            self.entries[i] = entry;
        }
    }
}

/// A key's first probe position: the middle bits of a Fibonacci product,
/// so that timestamps differing only in low mantissa bits spread.
fn home(bits: u64, mask: usize) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// Generates edge weight updates from a stream of entity-annotated posts.
#[derive(Debug, Clone)]
pub struct EdgeUpdateGenerator<M: AssociationMeasure> {
    measure: M,
    tracker: CooccurrenceTracker,
    /// The last weight emitted for each pair (the DynDens engine's view),
    /// indexed by the pair's tracker slot; zero in every free slot.
    emitted: Vec<f64>,
    /// The current post's partner lists and their slots, one run per
    /// mentioned entity.
    touched: Vec<VertexId>,
    touched_slots: Vec<Slot>,
    runs: Vec<Run>,
    memo: DecayMemo,
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
            emitted: Vec::new(),
            touched: Vec::new(),
            touched_slots: Vec::new(),
            runs: Vec::new(),
            memo: DecayMemo::default(),
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
        self.tracker
            .slot_of(a, b)
            .map_or(0.0, |slot| self.emitted[slot as usize])
    }

    /// Internal consistency check used by tests: the tracker's
    /// [`check_invariants`](CooccurrenceTracker::check_invariants), one
    /// emitted weight per tracker slot, and a zero one in every free slot
    /// (a compaction cancelled it before the slot can be reused).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tracker.check_invariants()?;
        if self.emitted.len() != self.tracker.slot_count() {
            return Err(format!(
                "{} emitted weights for {} slots",
                self.emitted.len(),
                self.tracker.slot_count()
            ));
        }
        match self
            .tracker
            .free_slots()
            .iter()
            .find(|&&slot| self.emitted[slot as usize] != 0.0)
        {
            Some(slot) => Err(format!("free slot {slot} keeps an emitted weight")),
            None => Ok(()),
        }
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
        // New slots start with nothing emitted; freed ones were zeroed when
        // their pair was cancelled.
        self.emitted.resize(self.tracker.slot_count(), 0.0);
        // Everything below reads the counters after the post was counted.
        self.memo.start(now, self.tracker.life());
        self.touched.clear();
        self.touched_slots.clear();
        self.runs.clear();
        for &entity in &post.entities {
            let (partners, slots) = self.tracker.partner_run(entity);
            let next = self.touched.len();
            self.touched.extend_from_slice(partners);
            self.touched_slots.extend_from_slice(slots);
            self.runs.push(Run {
                entity,
                count: self.memo.decayed(self.tracker.occurrence_counter(entity)),
                head: partners.first().map_or(DONE, |&p| pair_key(entity, p)),
                next,
                end: self.touched.len(),
            });
        }
        let total = self.memo.decayed(self.tracker.total_counter());
        let EdgeUpdateGenerator {
            measure,
            tracker,
            emitted,
            touched,
            touched_slots,
            runs,
            memo,
            positive_updates,
            negative_updates,
            ..
        } = self;
        // The smallest head among the runs, until every run is spent; a
        // pair of two mentioned entities heads both their runs and is taken
        // once.
        while let Some(i) = (0..runs.len())
            .min_by_key(|&i| runs[i].head)
            .filter(|&i| runs[i].head != DONE)
        {
            let Run {
                entity,
                count,
                head,
                next,
                ..
            } = runs[i];
            for run in runs.iter_mut() {
                if run.head == head {
                    run.advance(touched);
                }
            }
            let (partner, slot) = (touched[next], touched_slots[next]);
            let partner_count = memo.decayed(tracker.occurrence_counter(partner));
            let (count_a, count_b) = if entity < partner {
                (count, partner_count)
            } else {
                (partner_count, count)
            };
            let stats = PairStats {
                count_a,
                count_b,
                count_ab: memo.decayed(tracker.pair_counter(slot)),
                total,
            };
            let new_weight = measure.weight(&stats);
            debug_assert!(new_weight >= 0.0 && new_weight.is_finite());
            let emitted = &mut emitted[slot as usize];
            let delta = new_weight - *emitted;
            if delta.abs() <= MIN_DELTA {
                continue;
            }
            *emitted = if new_weight <= MIN_DELTA {
                0.0
            } else {
                new_weight
            };
            if delta > 0.0 {
                *positive_updates += 1;
            } else {
                *negative_updates += 1;
            }
            out.push(EdgeUpdate::new(
                entity.min(partner),
                entity.max(partner),
                delta,
            ));
        }
    }

    /// Forgets fully-decayed state: prunes tracker counters whose decayed
    /// value at time `now` is at or below `epsilon`, then emits a cancelling
    /// [`EdgeUpdate`] (in canonical ascending edge order) for every emitted
    /// edge whose co-occurrence evidence was pruned away. Returns the number
    /// of edges cancelled. A negative `epsilon` prunes, and so cancels,
    /// nothing.
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
        let mut freed = Vec::new();
        self.tracker.prune_into(now, epsilon, &mut freed);
        freed.sort_unstable_by_key(|&(key, _)| key);
        let mut cancelled = 0;
        for ((a, b), slot) in freed {
            // Settled before the slot can hold another pair.
            let w = std::mem::replace(&mut self.emitted[slot as usize], 0.0);
            if w != 0.0 {
                cancelled += 1;
                self.negative_updates += 1;
                out.push(EdgeUpdate::new(a, b, -w));
            }
        }
        cancelled
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
    fn decay_memo_is_bit_identical_through_growth_and_wrap() {
        let life = 7200.0;
        let now = 5_000.0;
        let mut memo = DecayMemo::default();
        let counter = |i: u32| DecayedCount {
            value: 1.0 + f64::from(i % 7),
            last_update: now - 0.37 * f64::from(i) + 40.0,
        };
        for start_generation in [0, u32::MAX - 1] {
            memo.generation = start_generation;
            for _ in 0..3 {
                memo.start(now, life);
                // Far more timestamps than the initial table holds, each
                // read twice; some lie after `now` (a clamped interval).
                for i in (0..500).chain(0..500) {
                    let c = counter(i);
                    let direct = c.value * decay_factor(now, c.last_update, life);
                    assert_eq!(memo.decayed(c).to_bits(), direct.to_bits());
                }
                assert_eq!(memo.used, 500);
            }
        }
        assert!(memo.entries.len() >= 1_000);
        assert_eq!(memo.decayed(DecayedCount::default()), 0.0);
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
