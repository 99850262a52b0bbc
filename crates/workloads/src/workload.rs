//! The common scenario interface: every workload in this crate produces a
//! deterministic, seeded stream — either timestamped entity-set posts or raw
//! [`EdgeUpdate`]s — behind the [`Workload`] trait, so the differential
//! oracle ([`crate::oracle`]) and the suites built on it
//! (`tests/workload_scenarios.rs`) can drive any scenario through the full
//! stack without knowing its shape.

use dyndens_graph::{EdgeUpdate, FxHashMap, VertexId};
use dyndens_stream::Post;

/// What a workload emits: raw edge weight updates, or timestamped
/// entity-set posts (documents, signals) whose co-occurrence the workload
/// also knows how to lower into updates deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadStream {
    /// A raw edge weight update stream, ready for the engine.
    Updates(Vec<EdgeUpdate>),
    /// Timestamped entity-set posts (the pre-association-measure shape).
    Posts(Vec<Post>),
}

/// A deterministic, seeded scenario generator.
///
/// Every implementor guarantees three properties the differential oracle
/// depends on:
///
/// 1. **Determinism** — the same configuration produces the identical
///    stream, update for update, run after run;
/// 2. **Partition alignment** — every edge's endpoints share a congruence
///    class modulo [`alignment`](Workload::alignment), so under
///    [`ShardFn::Modulo`](dyndens_graph::ShardFn) with any shard count
///    dividing the alignment each community is owned by exactly one shard
///    (and stays owned through route-trie splits up to the class-preserving
///    depth);
/// 3. **Bounded weights** — per-pair weights never leave `[0, 1.45]`, which
///    under the canonical engine setup (`AvgWeight`, `T = 1`, `Nmax = 4`,
///    `delta_it = 0.15`) keeps every subgraph below the too-dense regime.
///
/// Together these make the sharded answer *bit-identical* to the
/// single-engine answer, which is what lets the oracle assert equality down
/// to the `f64` score bits instead of within a tolerance.
pub trait Workload {
    /// Short machine-readable scenario name (used as the bench JSON row key).
    fn name(&self) -> &'static str;

    /// The congruence-class alignment of entity ids (property 2 above).
    fn alignment(&self) -> usize;

    /// The canonical raw update stream (lowered from posts if the workload
    /// is post-shaped). Deterministic per configuration.
    fn updates(&self) -> Vec<EdgeUpdate>;

    /// The stream in its native shape. Defaults to wrapping
    /// [`updates`](Workload::updates); post-shaped workloads override it.
    fn stream(&self) -> WorkloadStream {
        WorkloadStream::Updates(self.updates())
    }
}

/// The per-pair weight cap every generator in this crate honours: 1.45 keeps
/// pairs (need ≥ 2.85) and triangles (need ≥ 6) below the too-dense regime
/// of the canonical `AvgWeight`/`T = 1`/`Nmax = 4` setup.
pub const MAX_PAIR_WEIGHT: f64 = 1.45;

/// Deltas smaller than this are never emitted (they carry no signal and
/// `EdgeUpdate` rejects zero).
const MIN_DELTA: f64 = 1e-9;

/// Shared bookkeeping that turns generator intent ("reinforce this pair",
/// "weaken this pair") into capped, non-negative edge weight updates — the
/// invariant-preserving core every scenario generator builds on.
#[derive(Debug, Default, Clone)]
pub(crate) struct WeightBook {
    weights: FxHashMap<(VertexId, VertexId), f64>,
}

impl WeightBook {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The current weight of a pair.
    pub(crate) fn weight(&self, a: VertexId, b: VertexId) -> f64 {
        self.weights
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Strengthens the pair by `magnitude`, clamped to the headroom below
    /// [`MAX_PAIR_WEIGHT`]. Returns `None` when the pair is already pinned
    /// at the cap (no meaningful positive delta exists).
    pub(crate) fn reinforce(
        &mut self,
        a: VertexId,
        b: VertexId,
        magnitude: f64,
    ) -> Option<EdgeUpdate> {
        debug_assert_ne!(a, b, "self loops never enter a workload stream");
        let key = (a.min(b), a.max(b));
        let current = self.weights.get(&key).copied().unwrap_or(0.0);
        let delta = magnitude.min(MAX_PAIR_WEIGHT - current);
        if delta < MIN_DELTA {
            return None;
        }
        self.weights.insert(key, current + delta);
        Some(EdgeUpdate::new(key.0, key.1, delta))
    }

    /// Weakens the pair by `magnitude`, clamped so the weight never goes
    /// negative; weights that reach (numerical) zero are dropped. Returns
    /// `None` when the pair carries no weight to take away.
    pub(crate) fn weaken(
        &mut self,
        a: VertexId,
        b: VertexId,
        magnitude: f64,
    ) -> Option<EdgeUpdate> {
        let key = (a.min(b), a.max(b));
        let current = self.weights.get(&key).copied().unwrap_or(0.0);
        let delta = magnitude.min(current);
        if delta < MIN_DELTA {
            return None;
        }
        let remaining = current - delta;
        if remaining <= 1e-12 {
            self.weights.remove(&key);
        } else {
            self.weights.insert(key, remaining);
        }
        Some(EdgeUpdate::new(key.0, key.1, -delta))
    }

    /// Sustained-traffic primitive for burst scenarios: reinforce if the
    /// pair has headroom, otherwise *weaken* it (churn) — so a pair under
    /// 100x traffic keeps producing real updates instead of saturating into
    /// clamped-to-zero no-ops, while the weight stays inside `[0, cap]`.
    pub(crate) fn churn(&mut self, a: VertexId, b: VertexId, magnitude: f64) -> Option<EdgeUpdate> {
        let key = (a.min(b), a.max(b));
        let current = self.weights.get(&key).copied().unwrap_or(0.0);
        if MAX_PAIR_WEIGHT - current >= magnitude {
            self.reinforce(a, b, magnitude)
        } else {
            self.weaken(a, b, magnitude)
        }
    }
}

/// The shared entity-id layout: block `block` of residue class
/// `class` (mod `alignment`), member `i` — i.e.
/// `(block * span + i) * alignment + class`. Distinct blocks give disjoint
/// vertex sets within a class; every id stays in its class, which is what
/// keeps communities shard-aligned under `ShardFn::Modulo`.
pub(crate) fn class_vertex(
    block: usize,
    span: usize,
    i: usize,
    alignment: usize,
    class: usize,
) -> VertexId {
    debug_assert!(i < span, "member index must stay inside the block span");
    VertexId(((block * span + i) * alignment + class % alignment) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_book_caps_and_floors() {
        let mut book = WeightBook::new();
        let (a, b) = (VertexId(0), VertexId(8));
        // Reinforce far past the cap: total weight must clamp at the cap.
        for _ in 0..100 {
            book.reinforce(a, b, 0.1);
        }
        assert!((book.weight(a, b) - MAX_PAIR_WEIGHT).abs() < 1e-9);
        assert!(book.reinforce(a, b, 0.1).is_none(), "pinned at the cap");
        // Churn keeps emitting real updates at the cap.
        let u = book
            .churn(a, b, 0.1)
            .expect("churn never stalls at the cap");
        assert!(u.is_negative());
        // Weaken far past zero: weight floors at zero and disappears.
        for _ in 0..100 {
            book.weaken(a, b, 0.2);
        }
        assert_eq!(book.weight(a, b), 0.0);
        assert!(book.weaken(a, b, 0.1).is_none(), "nothing left to take");
    }

    #[test]
    fn class_vertices_stay_in_class_and_blocks_are_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for block in 0..10 {
            for i in 0..16 {
                let v = class_vertex(block, 16, i, 8, 3);
                assert_eq!(v.0 % 8, 3);
                assert!(seen.insert(v.0), "blocks must not overlap");
            }
        }
    }
}
