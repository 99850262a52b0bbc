//! Exponentially decayed occurrence and co-occurrence counters.
//!
//! To identify *emerging* stories rather than cumulative stories-to-date, the
//! paper applies exponential decay to all entity occurrences and
//! co-occurrences (with a configurable mean life, two hours in its
//! experiments). The counters here decay lazily: each counter remembers the
//! time it was last touched and scales its value by `exp(-dt / mean_life)`
//! when read or incremented at a later time.
//!
//! Beside the counters, the tracker keeps every entity's co-occurrence
//! partners as an ascending list: exactly the entities it has a live pair
//! counter with. [`observe`](CooccurrenceTracker::observe) links a pair by
//! binary-search insertion the first time it co-occurs, and
//! [`prune`](CooccurrenceTracker::prune) unlinks it by binary search when its
//! counter goes. An entity's incident pairs so come out of its list already
//! in canonical `(min, max)` order, which is what lets the
//! [`pipeline`](crate::pipeline) lower a post without sorting.

use dyndens_graph::{FxHashMap, VertexId};
use std::collections::hash_map::Entry;

/// A single exponentially decayed counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct DecayedCount {
    value: f64,
    last_update: f64,
}

impl DecayedCount {
    fn decayed(&self, now: f64, mean_life: f64) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        let dt = (now - self.last_update).max(0.0);
        self.value * (-dt / mean_life).exp()
    }

    fn add(&mut self, now: f64, amount: f64, mean_life: f64) {
        self.value = self.decayed(now, mean_life) + amount;
        self.last_update = now;
    }
}

/// The contingency statistics of an entity pair at a given time, used by the
/// association measures: decayed occurrence counts of each entity, their
/// decayed co-occurrence count and the decayed total number of posts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// Decayed number of posts mentioning the first entity.
    pub count_a: f64,
    /// Decayed number of posts mentioning the second entity.
    pub count_b: f64,
    /// Decayed number of posts mentioning both.
    pub count_ab: f64,
    /// Decayed total number of posts observed.
    pub total: f64,
}

/// Tracks decayed entity occurrence counts, pairwise co-occurrence counts and
/// the total (decayed) volume of posts.
#[derive(Debug, Clone)]
pub struct CooccurrenceTracker {
    mean_life: f64,
    total: DecayedCount,
    occurrences: FxHashMap<VertexId, DecayedCount>,
    cooccurrences: FxHashMap<(VertexId, VertexId), DecayedCount>,
    /// For every entity, the entities it shares a live co-occurrence
    /// counter with, strictly ascending (the edge weights to refresh when
    /// the entity is mentioned again). An entity with no partner has no
    /// entry.
    partners: FxHashMap<VertexId, Vec<VertexId>>,
    /// When `None`, counts never decay ("cumulative stories to date" mode).
    decay_enabled: bool,
}

impl CooccurrenceTracker {
    /// Creates a tracker with the given mean post life (seconds).
    pub fn new(mean_life: f64) -> Self {
        assert!(mean_life > 0.0, "mean life must be positive");
        CooccurrenceTracker {
            mean_life,
            total: DecayedCount::default(),
            occurrences: FxHashMap::default(),
            cooccurrences: FxHashMap::default(),
            partners: FxHashMap::default(),
            decay_enabled: true,
        }
    }

    /// Creates a tracker that never decays its counts (cumulative mode, used
    /// for the day-granularity qualitative results of Table 3).
    pub fn without_decay() -> Self {
        let mut t = Self::new(1.0);
        t.decay_enabled = false;
        t
    }

    fn life(&self) -> f64 {
        if self.decay_enabled {
            self.mean_life
        } else {
            f64::INFINITY
        }
    }

    /// Records a post at time `now` mentioning the given (distinct) entities.
    /// A pair's first co-occurrence links its two entities as partners.
    pub fn observe(&mut self, now: f64, entities: &[VertexId]) {
        let life = self.life();
        self.total.add(now, 1.0, life);
        for &e in entities {
            self.occurrences.entry(e).or_default().add(now, 1.0, life);
        }
        for (i, &a) in entities.iter().enumerate() {
            for &b in &entities[i + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                match self.cooccurrences.entry(key) {
                    Entry::Occupied(mut counter) => counter.get_mut().add(now, 1.0, life),
                    Entry::Vacant(slot) => {
                        slot.insert(DecayedCount::default()).add(now, 1.0, life);
                        link(self.partners.entry(a).or_default(), b);
                        link(self.partners.entry(b).or_default(), a);
                    }
                }
            }
        }
    }

    /// Decayed occurrence count of an entity at time `now`.
    pub fn occurrences(&self, entity: VertexId, now: f64) -> f64 {
        self.occurrences
            .get(&entity)
            .map_or(0.0, |c| c.decayed(now, self.life()))
    }

    /// Decayed co-occurrence count of a pair at time `now`.
    pub fn cooccurrences(&self, a: VertexId, b: VertexId, now: f64) -> f64 {
        let key = if a < b { (a, b) } else { (b, a) };
        self.cooccurrences
            .get(&key)
            .map_or(0.0, |c| c.decayed(now, self.life()))
    }

    /// Decayed total number of posts at time `now`.
    pub fn total(&self, now: f64) -> f64 {
        self.total.decayed(now, self.life())
    }

    /// The entities `entity` shares a live co-occurrence counter with, in
    /// ascending order.
    pub fn partners(&self, entity: VertexId) -> &[VertexId] {
        self.partners.get(&entity).map_or(&[], Vec::as_slice)
    }

    /// Number of partner links over all entities: twice
    /// [`pair_count`](Self::pair_count) while the tracker is consistent
    /// (every live pair is linked both ways).
    pub fn partner_links(&self) -> usize {
        self.partners.values().map(Vec::len).sum()
    }

    /// The full contingency statistics of a pair at time `now`.
    pub fn pair_stats(&self, a: VertexId, b: VertexId, now: f64) -> PairStats {
        PairStats {
            count_a: self.occurrences(a, now),
            count_b: self.occurrences(b, now),
            count_ab: self.cooccurrences(a, b, now),
            total: self.total(now),
        }
    }

    /// Number of distinct entities observed so far.
    pub fn entity_count(&self) -> usize {
        self.occurrences.len()
    }

    /// Number of entity pairs with a live co-occurrence counter.
    pub fn pair_count(&self) -> usize {
        self.cooccurrences.len()
    }

    /// Internal consistency check used by tests: every partner list is
    /// non-empty and strictly ascending, every link `a → b` has its mirror
    /// `b → a` and a live `(min, max)` counter, and every live counter is
    /// linked — so the links number exactly twice the pairs.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&a, list) in &self.partners {
            if list.is_empty() {
                return Err(format!("{a} has an empty partner list"));
            }
            if let Some(w) = list.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "{a}'s partners are not strictly ascending at {w:?}"
                ));
            }
            for &b in list {
                let key = if a < b { (a, b) } else { (b, a) };
                if !self.cooccurrences.contains_key(&key) {
                    return Err(format!("link {a} -> {b} has no co-occurrence counter"));
                }
                if self.partners(b).binary_search(&a).is_err() {
                    return Err(format!("link {a} -> {b} has no mirror"));
                }
            }
        }
        let links = self.partner_links();
        if links != 2 * self.cooccurrences.len() {
            return Err(format!(
                "{links} partner links for {} live pairs",
                self.cooccurrences.len()
            ));
        }
        Ok(())
    }

    /// Drops every occurrence and co-occurrence counter whose decayed value
    /// at time `now` has fallen to `epsilon` or below, together with the
    /// partner links of the dropped pairs. Returns `(entities_pruned,
    /// pairs_pruned)`.
    ///
    /// Without pruning, the tracker's maps — and, for roughly
    /// scale-invariant association measures like chi-square, the edge
    /// weights derived from them — grow without bound on a forever-run:
    /// uniform exponential decay shrinks numerator and denominator alike, so
    /// a stale association's *weight* barely moves even as the evidence for
    /// it becomes negligible. Pruning is what actually forgets: once a
    /// pair's counter is gone its recomputed weight is zero, and
    /// [`EdgeUpdateGenerator::compact`](crate::EdgeUpdateGenerator::compact)
    /// turns that into cancelling edge updates for the engine.
    ///
    /// In cumulative (no-decay) mode counters never shrink, so nothing is
    /// pruned.
    pub fn prune(&mut self, now: f64, epsilon: f64) -> (usize, usize) {
        if !self.decay_enabled {
            return (0, 0);
        }
        let life = self.mean_life;
        let occ_before = self.occurrences.len();
        self.occurrences
            .retain(|_, c| c.decayed(now, life) > epsilon);
        let pair_before = self.cooccurrences.len();
        let mut dead_pairs: Vec<(VertexId, VertexId)> = Vec::new();
        self.cooccurrences.retain(|&key, c| {
            let live = c.decayed(now, life) > epsilon;
            if !live {
                dead_pairs.push(key);
            }
            live
        });
        for (a, b) in dead_pairs {
            for (from, to) in [(a, b), (b, a)] {
                if let Some(list) = self.partners.get_mut(&from) {
                    if let Ok(i) = list.binary_search(&to) {
                        list.remove(i);
                    }
                    if list.is_empty() {
                        self.partners.remove(&from);
                    }
                }
            }
        }
        (
            occ_before - self.occurrences.len(),
            pair_before - self.cooccurrences.len(),
        )
    }
}

/// Inserts `partner` into an ascending partner list, keeping it ascending.
fn link(list: &mut Vec<VertexId>, partner: VertexId) {
    if let Err(i) = list.binary_search(&partner) {
        list.insert(i, partner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: f64 = 3600.0;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn counts_accumulate_without_time_passing() {
        let mut t = CooccurrenceTracker::new(2.0 * HOUR);
        t.observe(0.0, &[v(0), v(1)]);
        t.observe(0.0, &[v(0), v(1), v(2)]);
        t.observe(0.0, &[v(3)]);
        assert!((t.occurrences(v(0), 0.0) - 2.0).abs() < 1e-12);
        assert!((t.occurrences(v(3), 0.0) - 1.0).abs() < 1e-12);
        assert!((t.cooccurrences(v(0), v(1), 0.0) - 2.0).abs() < 1e-12);
        assert!((t.cooccurrences(v(1), v(2), 0.0) - 1.0).abs() < 1e-12);
        assert_eq!(t.cooccurrences(v(0), v(3), 0.0), 0.0);
        assert!((t.total(0.0) - 3.0).abs() < 1e-12);
        assert_eq!(t.entity_count(), 4);
    }

    #[test]
    fn decay_halves_after_mean_life_times_ln2() {
        let mean_life = 2.0 * HOUR;
        let mut t = CooccurrenceTracker::new(mean_life);
        t.observe(0.0, &[v(0), v(1)]);
        let half_life = mean_life * std::f64::consts::LN_2;
        let c = t.cooccurrences(v(0), v(1), half_life);
        assert!((c - 0.5).abs() < 1e-9, "expected 0.5, got {c}");
        // Far in the future the count is negligible.
        assert!(t.occurrences(v(0), 100.0 * mean_life) < 1e-9);
    }

    #[test]
    fn old_and_new_observations_mix() {
        let mean_life = HOUR;
        let mut t = CooccurrenceTracker::new(mean_life);
        t.observe(0.0, &[v(0), v(1)]);
        t.observe(mean_life, &[v(0), v(1)]);
        let expected = 1.0 + (-1.0f64).exp();
        assert!((t.cooccurrences(v(0), v(1), mean_life) - expected).abs() < 1e-9);
    }

    #[test]
    fn without_decay_counts_are_stable() {
        let mut t = CooccurrenceTracker::without_decay();
        t.observe(0.0, &[v(0), v(1)]);
        t.observe(1e9, &[v(0)]);
        assert!((t.occurrences(v(0), 2e9) - 2.0).abs() < 1e-12);
        assert!((t.cooccurrences(v(0), v(1), 2e9) - 1.0).abs() < 1e-12);
        assert!((t.total(3e9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partners_are_tracked() {
        let mut t = CooccurrenceTracker::new(HOUR);
        t.observe(0.0, &[v(0), v(1), v(2)]);
        t.observe(0.0, &[v(0), v(3)]);
        assert_eq!(t.partners(v(0)), &[v(1), v(2), v(3)]);
        assert_eq!(t.partners(v(2)), &[v(0), v(1)]);
        assert!(t.partners(v(4)).is_empty());
        assert_eq!(t.partner_links(), 2 * t.pair_count());
        t.check_invariants().unwrap();
    }

    #[test]
    fn pair_stats_bundle() {
        let mut t = CooccurrenceTracker::new(HOUR);
        t.observe(0.0, &[v(0), v(1)]);
        t.observe(0.0, &[v(0)]);
        let s = t.pair_stats(v(0), v(1), 0.0);
        assert!((s.count_a - 2.0).abs() < 1e-12);
        assert!((s.count_b - 1.0).abs() < 1e-12);
        assert!((s.count_ab - 1.0).abs() < 1e-12);
        assert!((s.total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prune_drops_decayed_counters_and_partner_links() {
        let mut t = CooccurrenceTracker::new(HOUR);
        t.observe(0.0, &[v(0), v(1)]);
        t.observe(0.0, &[v(2), v(3)]);
        // Much later, only (2, 3) is refreshed.
        let later = 100.0 * HOUR;
        t.observe(later, &[v(2), v(3)]);
        let (entities, pairs) = t.prune(later, 1e-9);
        assert_eq!(entities, 2, "0 and 1 decayed out");
        assert_eq!(pairs, 1, "(0, 1) decayed out");
        assert_eq!(t.entity_count(), 2);
        assert_eq!(t.pair_count(), 1);
        assert!(t.partners(v(0)).is_empty());
        assert_eq!(t.partners(v(2)), &[v(3)]);
        t.check_invariants().unwrap();
        // Survivors keep their exact decayed values.
        assert!((t.cooccurrences(v(2), v(3), later) - (1.0 + (-100.0f64).exp())).abs() < 1e-9);
        // A pruned entity can reappear later as if new.
        t.observe(later + 1.0, &[v(0), v(1)]);
        assert_eq!(t.entity_count(), 4);
        assert!((t.occurrences(v(0), later + 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prune_is_a_no_op_without_decay() {
        let mut t = CooccurrenceTracker::without_decay();
        t.observe(0.0, &[v(0), v(1)]);
        assert_eq!(t.prune(1e12, 1e-9), (0, 0));
        assert_eq!(t.entity_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_mean_life() {
        let _ = CooccurrenceTracker::new(0.0);
    }
}
