//! Differential property test of the post lowering: `EdgeUpdateGenerator`
//! against a reference that keeps the algorithm it replaced — hash-set
//! partner lists, a full `pair_stats` per pair, then a sort and dedup of the
//! touched pairs — on random posts over a small entity universe, with
//! multi-entity posts, entities mentioned again and again, equal timestamps
//! and `compact` calls interleaved at random. After every post and every
//! compaction both must have emitted the same `(a, b, delta.to_bits())`
//! sequence and hold the same emitted weights, and the generator (its
//! tracker's slots and partner lists, and its emitted-weight column) must
//! pass `check_invariants`. One leg lets the clock run backwards, which
//! clamps the decay interval at zero and feeds the generator's per-post
//! decay memo timestamps from both sides of the post's own.

use dyndens_graph::{EdgeUpdate, FxHashMap, FxHashSet, VertexId};
use dyndens_stream::{
    AssociationMeasure, ChiSquareCorrelation, EdgeUpdateGenerator, LogLikelihoodRatio, PairStats,
    Post,
};
use proptest::prelude::*;

const MIN_DELTA: f64 = 1e-9;
const UNIVERSE: u32 = 12;
const MEAN_LIFE: f64 = 50.0;

#[derive(Debug, Clone, Copy, Default)]
struct Counter {
    value: f64,
    last_update: f64,
}

impl Counter {
    fn decayed(&self, now: f64, life: f64) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        let dt = (now - self.last_update).max(0.0);
        self.value * (-dt / life).exp()
    }

    fn add(&mut self, now: f64, life: f64) {
        self.value = self.decayed(now, life) + 1.0;
        self.last_update = now;
    }
}

/// The lowering as it was before partner lists were kept sorted.
struct Reference<M> {
    measure: M,
    life: f64,
    total: Counter,
    occurrences: FxHashMap<VertexId, Counter>,
    cooccurrences: FxHashMap<(VertexId, VertexId), Counter>,
    partners: FxHashMap<VertexId, FxHashSet<VertexId>>,
    emitted: FxHashMap<(VertexId, VertexId), f64>,
}

impl<M: AssociationMeasure> Reference<M> {
    fn new(measure: M, life: f64) -> Self {
        Reference {
            measure,
            life,
            total: Counter::default(),
            occurrences: FxHashMap::default(),
            cooccurrences: FxHashMap::default(),
            partners: FxHashMap::default(),
            emitted: FxHashMap::default(),
        }
    }

    fn occurrences(&self, e: VertexId, now: f64) -> f64 {
        self.occurrences
            .get(&e)
            .map_or(0.0, |c| c.decayed(now, self.life))
    }

    fn cooccurrences(&self, a: VertexId, b: VertexId, now: f64) -> f64 {
        self.cooccurrences
            .get(&(a.min(b), a.max(b)))
            .map_or(0.0, |c| c.decayed(now, self.life))
    }

    fn pair_stats(&self, a: VertexId, b: VertexId, now: f64) -> PairStats {
        PairStats {
            count_a: self.occurrences(a, now),
            count_b: self.occurrences(b, now),
            count_ab: self.cooccurrences(a, b, now),
            total: self.total.decayed(now, self.life),
        }
    }

    fn process_post(&mut self, post: &Post) -> Vec<EdgeUpdate> {
        let (now, entities) = (post.timestamp, &post.entities);
        self.total.add(now, self.life);
        for &e in entities {
            self.occurrences.entry(e).or_default().add(now, self.life);
        }
        for (i, &a) in entities.iter().enumerate() {
            for &b in &entities[i + 1..] {
                let key = (a.min(b), a.max(b));
                self.cooccurrences
                    .entry(key)
                    .or_default()
                    .add(now, self.life);
                self.partners.entry(a).or_default().insert(b);
                self.partners.entry(b).or_default().insert(a);
            }
        }
        let mut touched = Vec::new();
        for (i, &a) in entities.iter().enumerate() {
            for &b in &entities[i + 1..] {
                touched.push((a.min(b), a.max(b)));
            }
            for &p in self.partners.get(&a).into_iter().flatten() {
                if p != a {
                    touched.push((a.min(p), a.max(p)));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut out = Vec::new();
        for (a, b) in touched {
            let new_weight = self.measure.weight(&self.pair_stats(a, b, now));
            let delta = new_weight - self.emitted.get(&(a, b)).copied().unwrap_or(0.0);
            if delta.abs() <= MIN_DELTA {
                continue;
            }
            if new_weight <= MIN_DELTA {
                self.emitted.remove(&(a, b));
            } else {
                self.emitted.insert((a, b), new_weight);
            }
            out.push(EdgeUpdate::new(a, b, delta));
        }
        out
    }

    fn compact(&mut self, now: f64, epsilon: f64) -> Vec<EdgeUpdate> {
        let life = self.life;
        self.occurrences
            .retain(|_, c| c.decayed(now, life) > epsilon);
        let mut dead_pairs = Vec::new();
        self.cooccurrences.retain(|&key, c| {
            let live = c.decayed(now, life) > epsilon;
            if !live {
                dead_pairs.push(key);
            }
            live
        });
        for (a, b) in dead_pairs {
            for (from, to) in [(a, b), (b, a)] {
                if let Some(set) = self.partners.get_mut(&from) {
                    set.remove(&to);
                    if set.is_empty() {
                        self.partners.remove(&from);
                    }
                }
            }
        }
        let mut dead: Vec<_> = self
            .emitted
            .keys()
            .copied()
            .filter(|&(a, b)| self.cooccurrences(a, b, now) == 0.0)
            .collect();
        dead.sort_unstable();
        let mut out = Vec::new();
        for key in dead {
            let w = self.emitted.remove(&key).unwrap_or(0.0);
            if w != 0.0 {
                out.push(EdgeUpdate::new(key.0, key.1, -w));
            }
        }
        out
    }
}

fn bits(updates: &[EdgeUpdate]) -> Vec<(u32, u32, u64)> {
    updates
        .iter()
        .map(|u| (u.a.0, u.b.0, u.delta.to_bits()))
        .collect()
}

/// One step of a random history: `(kind, entities, time step, ε choice)`.
/// Kind 0 is a compaction, anything else a post.
type Step = (u32, Vec<u32>, u32, u32);

fn history() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0..8u32,
            prop::collection::vec(0..UNIVERSE, 0..6usize),
            0..8u32,
            0..3u32,
        ),
        1..160,
    )
}

/// How far the clock moves for each time step of a [`Step`]: three steps in
/// eight keep it where it is (equal timestamps); one in eight jumps three
/// mean lives ahead.
const FORWARD: [f64; 8] = [0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 6.0, 3.0 * MEAN_LIFE];

/// Like [`FORWARD`], but two steps in eight go back in time.
const BACKWARDS: [f64; 8] = [0.0, 0.0, -1.0, 1.0, -4.0, 2.5, 6.0, 3.0 * MEAN_LIFE];

/// Random cases per leg: 64 in tier-1; the leg with backward clocks reads
/// `LOWERING_CASES` (the nightly job runs 2 000).
fn lowering_cases() -> u32 {
    match std::env::var("LOWERING_CASES") {
        Ok(n) => n.parse().expect("LOWERING_CASES is a case count"),
        Err(_) => 64,
    }
}

/// Replays `steps` on both lowerings, entity ids taken modulo `universe`;
/// `decay: false` is the cumulative mode (an infinite mean life).
fn check<M: AssociationMeasure>(measure: M, decay: bool, universe: u32, steps: &[Step]) {
    check_with_clock(measure, decay, universe, steps, &FORWARD);
}

/// [`check`], the clock moving by `clock[step]` before each step.
fn check_with_clock<M: AssociationMeasure>(
    measure: M,
    decay: bool,
    universe: u32,
    steps: &[Step],
    clock: &[f64; 8],
) {
    let (mut generator, mut reference) = if decay {
        (
            EdgeUpdateGenerator::new(measure.clone(), MEAN_LIFE),
            Reference::new(measure, MEAN_LIFE),
        )
    } else {
        (
            EdgeUpdateGenerator::without_decay(measure.clone()),
            Reference::new(measure, f64::INFINITY),
        )
    };
    let mut now = 0.0;
    for (i, (kind, ids, step, eps)) in steps.iter().enumerate() {
        now += clock[*step as usize];
        let (got, want) = if *kind == 0 {
            let epsilon = [1e-3, 0.1, 0.6][*eps as usize];
            let mut got = Vec::new();
            generator.compact(now, epsilon, &mut got);
            (got, reference.compact(now, epsilon))
        } else {
            let post = Post::new(now, ids.iter().map(|&v| VertexId(v % universe)).collect());
            let mut got = Vec::new();
            generator.process_post_into(&post, &mut got);
            (got, reference.process_post(&post))
        };
        assert_eq!(bits(&got), bits(&want), "step {i}: {:?}", steps[i]);
        if let Err(e) = generator.check_invariants() {
            panic!("step {i}: {e}");
        }
        let tracker = generator.tracker();
        assert_eq!(tracker.pair_count(), reference.cooccurrences.len());
        assert_eq!(tracker.entity_count(), reference.occurrences.len());
        for a in 0..universe {
            for b in a + 1..universe {
                let (a, b) = (VertexId(a), VertexId(b));
                let want = reference.emitted.get(&(a, b)).copied().unwrap_or(0.0);
                assert_eq!(
                    generator.current_weight(a, b).to_bits(),
                    want.to_bits(),
                    "step {i}: weight of ({a}, {b})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn chi_square_lowering_matches_the_reference(steps in history()) {
        check(ChiSquareCorrelation::default(), true, UNIVERSE, &steps);
    }

    #[test]
    fn cumulative_chi_square_lowering_matches_the_reference(steps in history()) {
        check(ChiSquareCorrelation::default(), false, UNIVERSE, &steps);
    }

    /// Cumulative and over five entities, so that pairs reach the measure's
    /// minimum count.
    #[test]
    fn llr_lowering_matches_the_reference(steps in history()) {
        check(LogLikelihoodRatio::default(), false, 5, &steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: lowering_cases(), .. ProptestConfig::default() })]

    /// Decayed chi-square with a clock that also runs backwards: a counter
    /// touched "after" the post decays by a clamped interval of zero.
    #[test]
    fn backward_clock_lowering_matches_the_reference(steps in history()) {
        check_with_clock(ChiSquareCorrelation::default(), true, UNIVERSE, &steps, &BACKWARDS);
    }
}
