//! Exponentially decayed occurrence and co-occurrence counters.
//!
//! To identify *emerging* stories rather than cumulative stories-to-date, the
//! paper applies exponential decay to all entity occurrences and
//! co-occurrences (with a configurable mean life, two hours in its
//! experiments). The counters here decay lazily: each counter remembers the
//! time it was last touched and scales its value by `exp(-dt / mean_life)`
//! when read or incremented at a later time.
//!
//! ## Layout
//!
//! No counter is found through a hash map:
//!
//! * occurrence counters sit in a `Vec` indexed by [`VertexId`] (ids are
//!   dense, as [`EntityRegistry`](crate::EntityRegistry) issues them); a
//!   zero-valued counter is an entity the tracker does not hold, and a live
//!   count keeps [`entity_count`](CooccurrenceTracker::entity_count) exact;
//! * pair counters sit in a slab addressed by a slot, with a free list;
//! * every entity keeps its co-occurrence partners as an ascending list,
//!   exactly the entities it has a live pair counter with, and beside it, as
//!   a parallel vector, the slot of each of those pairs. Every live slot is
//!   linked twice, once from each end. The two lists are boxed, and an
//!   entity with no partner holds no box, so that the entities a forever-run
//!   has stopped mentioning cost a pointer and a zero counter each.
//!
//! [`observe`](CooccurrenceTracker::observe) links a pair by binary-search
//! insertion the first time it co-occurs, and
//! [`prune`](CooccurrenceTracker::prune) unlinks it when its counter goes and
//! frees its slot. An entity's incident pairs so come out of its list already
//! in canonical `(min, max)` order, each with its slot in hand, which is what
//! lets the [`pipeline`](crate::pipeline) lower a post without sorting and
//! without a hash probe.

use dyndens_graph::VertexId;

/// The address of a pair counter in the tracker's slab. A slot is reused
/// once [`prune`](CooccurrenceTracker::prune) frees it, so it names a pair
/// only while the pair is live.
pub(crate) type Slot = u32;

/// A pair freed by a prune: its canonical `(min, max)` key and its slot.
pub(crate) type FreedPair = ((VertexId, VertexId), Slot);

/// A single exponentially decayed counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct DecayedCount {
    pub(crate) value: f64,
    pub(crate) last_update: f64,
}

impl DecayedCount {
    fn decayed(&self, now: f64, mean_life: f64) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        self.value * decay_factor(now, self.last_update, mean_life)
    }

    fn add(&mut self, now: f64, amount: f64, mean_life: f64) {
        self.value = self.decayed(now, mean_life) + amount;
        self.last_update = now;
    }
}

/// The factor a counter last touched at `last` decays by until `now`:
/// `exp(-dt / mean_life)`, with `dt` clamped at zero for a clock that went
/// backwards.
pub(crate) fn decay_factor(now: f64, last: f64, mean_life: f64) -> f64 {
    let dt = (now - last).max(0.0);
    (-dt / mean_life).exp()
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

/// One entity's partners, strictly ascending, and the slot of each pair.
#[derive(Debug, Clone, Default)]
struct PartnerList {
    ids: Vec<VertexId>,
    slots: Vec<Slot>,
}

impl PartnerList {
    fn slot_of(&self, partner: VertexId) -> Option<Slot> {
        self.ids.binary_search(&partner).ok().map(|i| self.slots[i])
    }

    /// Inserts `partner` with its pair's `slot`, keeping the list ascending.
    fn link(&mut self, partner: VertexId, slot: Slot) {
        if let Err(i) = self.ids.binary_search(&partner) {
            self.ids.insert(i, partner);
            self.slots.insert(i, slot);
        }
    }
}

/// Tracks decayed entity occurrence counts, pairwise co-occurrence counts and
/// the total (decayed) volume of posts.
#[derive(Debug, Clone)]
pub struct CooccurrenceTracker {
    mean_life: f64,
    total: DecayedCount,
    /// Occurrence counters, indexed by vertex id; zero-valued when the
    /// tracker holds no counter for the entity.
    occurrences: Vec<DecayedCount>,
    /// Number of non-zero occurrence counters.
    live_entities: usize,
    /// Pair counters, addressed by slot; a free slot's counter is zero.
    pairs: Vec<DecayedCount>,
    /// Slots of `pairs` no pair holds, reused before the slab grows.
    free: Vec<Slot>,
    /// Every entity's partner list, indexed by vertex id (the edge weights
    /// to refresh when the entity is mentioned again); `None` for an entity
    /// with no partner, so that the entities a forever-run no longer
    /// mentions cost one pointer each.
    partners: Vec<Option<Box<PartnerList>>>,
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
            occurrences: Vec::new(),
            live_entities: 0,
            pairs: Vec::new(),
            free: Vec::new(),
            partners: Vec::new(),
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

    /// The mean life counters decay with: infinite in cumulative mode.
    pub(crate) fn life(&self) -> f64 {
        if self.decay_enabled {
            self.mean_life
        } else {
            f64::INFINITY
        }
    }

    /// Records a post at time `now` mentioning the given (distinct) entities.
    /// A pair's first co-occurrence takes a slot and links its two entities
    /// as partners.
    pub fn observe(&mut self, now: f64, entities: &[VertexId]) {
        let life = self.life();
        self.total.add(now, 1.0, life);
        if let Some(max) = entities.iter().max() {
            if max.index() >= self.occurrences.len() {
                self.occurrences
                    .resize(max.index() + 1, DecayedCount::default());
                self.partners.resize_with(max.index() + 1, || None);
            }
        }
        for &e in entities {
            let counter = &mut self.occurrences[e.index()];
            if counter.value == 0.0 {
                self.live_entities += 1;
            }
            counter.add(now, 1.0, life);
        }
        for (i, &a) in entities.iter().enumerate() {
            for &b in &entities[i + 1..] {
                let slot = match self.slot_of(a, b) {
                    Some(slot) => slot,
                    None => {
                        let slot = self.free.pop().unwrap_or_else(|| {
                            self.pairs.push(DecayedCount::default());
                            (self.pairs.len() - 1) as Slot
                        });
                        for (from, to) in [(a, b), (b, a)] {
                            self.partners[from.index()]
                                .get_or_insert_with(Box::default)
                                .link(to, slot);
                        }
                        slot
                    }
                };
                self.pairs[slot as usize].add(now, 1.0, life);
            }
        }
    }

    /// Decayed occurrence count of an entity at time `now`.
    pub fn occurrences(&self, entity: VertexId, now: f64) -> f64 {
        self.occurrence_counter(entity).decayed(now, self.life())
    }

    /// Decayed co-occurrence count of a pair at time `now`.
    pub fn cooccurrences(&self, a: VertexId, b: VertexId, now: f64) -> f64 {
        self.slot_of(a, b).map_or(0.0, |slot| {
            self.pair_counter(slot).decayed(now, self.life())
        })
    }

    /// Decayed total number of posts at time `now`.
    pub fn total(&self, now: f64) -> f64 {
        self.total.decayed(now, self.life())
    }

    /// The entities `entity` shares a live co-occurrence counter with, in
    /// ascending order.
    pub fn partners(&self, entity: VertexId) -> &[VertexId] {
        self.partner_run(entity).0
    }

    /// `entity`'s partners, ascending, and beside them the slot of each
    /// pair.
    pub(crate) fn partner_run(&self, entity: VertexId) -> (&[VertexId], &[Slot]) {
        self.partners
            .get(entity.index())
            .and_then(Option::as_deref)
            .map_or((&[], &[]), |list| (&list.ids, &list.slots))
    }

    /// The slot of the live pair `{a, b}`, if it has one.
    pub(crate) fn slot_of(&self, a: VertexId, b: VertexId) -> Option<Slot> {
        self.partners.get(a.index())?.as_deref()?.slot_of(b)
    }

    /// `entity`'s occurrence counter, undecayed; zero if the tracker holds
    /// none.
    pub(crate) fn occurrence_counter(&self, entity: VertexId) -> DecayedCount {
        self.occurrences
            .get(entity.index())
            .copied()
            .unwrap_or_default()
    }

    /// The pair counter at `slot`, undecayed.
    pub(crate) fn pair_counter(&self, slot: Slot) -> DecayedCount {
        self.pairs[slot as usize]
    }

    /// The post-volume counter, undecayed.
    pub(crate) fn total_counter(&self) -> DecayedCount {
        self.total
    }

    /// Number of slots in the pair slab, live or free: every slot this
    /// tracker hands out is below it.
    pub(crate) fn slot_count(&self) -> usize {
        self.pairs.len()
    }

    /// The slots no pair holds.
    pub(crate) fn free_slots(&self) -> &[Slot] {
        &self.free
    }

    /// Number of partner links over all entities: twice
    /// [`pair_count`](Self::pair_count) while the tracker is consistent
    /// (every live pair is linked both ways).
    pub fn partner_links(&self) -> usize {
        self.partners
            .iter()
            .flatten()
            .map(|list| list.ids.len())
            .sum()
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
        self.live_entities
    }

    /// Number of entity pairs with a live co-occurrence counter.
    pub fn pair_count(&self) -> usize {
        self.pairs.len() - self.free.len()
    }

    /// Internal consistency check used by tests: every partner list is
    /// strictly ascending with one slot per partner, every link `a → b` has
    /// its mirror `b → a` through the same slot, every live slot is linked
    /// exactly twice and holds a non-zero counter, every free slot is
    /// unlinked, listed once and zero, and the live entity count is exact.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut links = vec![0u8; self.pairs.len()];
        for (a, list) in self.partners.iter().enumerate() {
            let a = VertexId(a as u32);
            let Some(list) = list else { continue };
            if list.ids.is_empty() {
                return Err(format!("{a} keeps an empty partner list"));
            }
            if list.ids.len() != list.slots.len() {
                return Err(format!(
                    "{a} has {} partners but {} slots",
                    list.ids.len(),
                    list.slots.len()
                ));
            }
            if let Some(w) = list.ids.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "{a}'s partners are not strictly ascending at {w:?}"
                ));
            }
            for (&b, &slot) in list.ids.iter().zip(&list.slots) {
                let Some(count) = links.get_mut(slot as usize) else {
                    return Err(format!("link {a} -> {b} names slot {slot} past the slab"));
                };
                *count = count.saturating_add(1);
                if self.slot_of(b, a) != Some(slot) {
                    return Err(format!("link {a} -> {b} (slot {slot}) has no mirror"));
                }
                if self.pairs[slot as usize].value == 0.0 {
                    return Err(format!("link {a} -> {b} has a zero counter in slot {slot}"));
                }
            }
        }
        let mut free = vec![false; self.pairs.len()];
        for &slot in &self.free {
            match free.get_mut(slot as usize) {
                Some(listed) if !*listed => *listed = true,
                _ => return Err(format!("free slot {slot} is past the slab or listed twice")),
            }
            if self.pairs[slot as usize] != DecayedCount::default() {
                return Err(format!("free slot {slot} holds a counter"));
            }
        }
        for (slot, (&count, &is_free)) in links.iter().zip(&free).enumerate() {
            match (is_free, count) {
                (true, 0) | (false, 2) => {}
                (true, n) => return Err(format!("free slot {slot} is linked {n} times")),
                (false, n) => return Err(format!("live slot {slot} is linked {n} times")),
            }
        }
        let live = self.occurrences.iter().filter(|c| c.value != 0.0).count();
        if live != self.live_entities {
            return Err(format!(
                "{live} non-zero occurrence counters, {} counted",
                self.live_entities
            ));
        }
        Ok(())
    }

    /// Drops every occurrence and co-occurrence counter whose decayed value
    /// at time `now` has fallen to `epsilon` or below, together with the
    /// partner links of the dropped pairs. Returns `(entities_pruned,
    /// pairs_pruned)`.
    ///
    /// Without pruning, the tracker's counters — and, for roughly
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
        self.prune_into(now, epsilon, &mut Vec::new())
    }

    /// [`prune`](Self::prune), appending every freed pair (its key and the
    /// slot it held, in no particular order) to `freed`, so that the caller
    /// can settle whatever it keeps per slot before the slot is reused.
    pub(crate) fn prune_into(
        &mut self,
        now: f64,
        epsilon: f64,
        freed: &mut Vec<FreedPair>,
    ) -> (usize, usize) {
        if !self.decay_enabled {
            return (0, 0);
        }
        let life = self.mean_life;
        let entities_before = self.live_entities;
        for counter in &mut self.occurrences {
            if counter.value != 0.0 && counter.decayed(now, life) <= epsilon {
                *counter = DecayedCount::default();
                self.live_entities -= 1;
            }
        }
        // A live counter holds at least 1 (its last increment), so zeroing
        // the dying ones marks them for the unlink pass below.
        let mut pairs_pruned = 0;
        for counter in &mut self.pairs {
            if counter.value != 0.0 && counter.decayed(now, life) <= epsilon {
                *counter = DecayedCount::default();
                pairs_pruned += 1;
            }
        }
        if pairs_pruned > 0 {
            for (a, entry) in self.partners.iter_mut().enumerate() {
                let a = VertexId(a as u32);
                let Some(list) = entry else { continue };
                let mut kept = 0;
                for i in 0..list.ids.len() {
                    let (b, slot) = (list.ids[i], list.slots[i]);
                    if self.pairs[slot as usize].value != 0.0 {
                        list.ids[kept] = b;
                        list.slots[kept] = slot;
                        kept += 1;
                    } else if a < b {
                        freed.push(((a, b), slot));
                        self.free.push(slot);
                    }
                }
                if kept == 0 {
                    *entry = None;
                } else {
                    list.ids.truncate(kept);
                    list.slots.truncate(kept);
                }
            }
        }
        (entities_before - self.live_entities, pairs_pruned)
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
    fn pruned_slots_are_reused_and_the_invariants_hold() {
        let mut t = CooccurrenceTracker::new(HOUR);
        t.observe(0.0, &[v(0), v(1), v(2)]);
        assert_eq!(t.slot_count(), 3);
        let later = 100.0 * HOUR;
        t.observe(later, &[v(1), v(2)]);
        let mut freed = Vec::new();
        assert_eq!(t.prune_into(later, 1e-9, &mut freed), (1, 2));
        freed.sort_unstable();
        assert_eq!(
            freed.iter().map(|&(key, _)| key).collect::<Vec<_>>(),
            [(v(0), v(1)), (v(0), v(2))]
        );
        assert_eq!(t.free_slots().len(), 2);
        t.check_invariants().unwrap();
        // New pairs take the freed slots before the slab grows.
        t.observe(later, &[v(3), v(4), v(5)]);
        assert_eq!(t.slot_count(), 4);
        assert_eq!(t.pair_count(), 4);
        t.check_invariants().unwrap();
        assert_eq!(t.cooccurrences(v(5), v(3), later), 1.0);
    }

    #[test]
    fn check_invariants_sees_a_broken_slab() {
        let mut t = CooccurrenceTracker::new(HOUR);
        t.observe(0.0, &[v(0), v(1), v(2)]);
        let mut linked_free = t.clone();
        linked_free.free.push(0);
        linked_free.pairs[0] = DecayedCount::default();
        assert!(linked_free.check_invariants().is_err());
        let mut once = t.clone();
        let list = once.partners[2].as_mut().unwrap();
        list.ids.remove(0);
        list.slots.remove(0);
        assert!(once.check_invariants().is_err());
        let mut dirty_free = t;
        dirty_free.pairs.push(DecayedCount {
            value: 1.0,
            last_update: 0.0,
        });
        dirty_free.free.push(3);
        assert!(dirty_free.check_invariants().is_err());
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
