//! The partition-aligned planted-community stream — the canonical workload
//! of the sharded subsystem's equivalence suites and of the repository
//! benchmark's `aligned_steady`.

use dyndens_graph::{EdgeUpdate, FxHashMap, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{Workload, MAX_PAIR_WEIGHT};

/// A partition-aligned planted-community update stream for the sharded
/// subsystem's scaling and equivalence experiments.
///
/// Every community's vertices share one congruence class modulo `alignment`,
/// so under `ShardFn::Modulo` with any shard count dividing `alignment` each
/// community — and therefore each of its edges and dense subgraphs — is owned
/// by exactly one shard. Per-pair weights are capped at 1.45, which (for the
/// canonical `AvgWeight`, `T = 1`, `Nmax = 4`, `delta_it = 0.15` setup) keeps
/// every subgraph below the too-dense regime: pairs would need score ≥ 2.85
/// and triangles ≥ 6 to become too-dense, and no cross-community subgraph can
/// clear the dense bound from edge-disjoint parts. Together these two
/// properties make the `dyndens-shard` partitioning invariant hold exactly,
/// so the union of per-shard answers is *identical* to the single-engine
/// answer and the benchmarks measure pure ingest scaling.
pub fn shard_aligned_stream(n_updates: usize, alignment: usize, seed: u64) -> Vec<EdgeUpdate> {
    assert!(alignment >= 1, "alignment must be at least 1");
    const N_GROUPS: usize = 32;
    const GROUP_SPAN: usize = 8;

    let mut rng = StdRng::seed_from_u64(seed);
    // Community g draws from residue class g % alignment; disjoint blocks of
    // the class keep distinct communities vertex-disjoint.
    let groups: Vec<Vec<VertexId>> = (0..N_GROUPS)
        .map(|g| {
            let size = 4 + g % 2; // communities of 4 or 5 entities
            (0..size)
                .map(|i| VertexId(((g * GROUP_SPAN + i) * alignment + g % alignment) as u32))
                .collect()
        })
        .collect();

    let mut weights: FxHashMap<(VertexId, VertexId), f64> = FxHashMap::default();
    let mut updates = Vec::with_capacity(n_updates);
    while updates.len() < n_updates {
        let group = &groups[rng.gen_range(0..groups.len())];
        let a = group[rng.gen_range(0..group.len())];
        let b = group[rng.gen_range(0..group.len())];
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        let current = weights.get(&key).copied().unwrap_or(0.0);
        let magnitude: f64 = rng.gen_range(0.02..0.12);
        let delta = if rng.gen_bool(0.15) {
            if current <= 0.0 {
                continue;
            }
            -magnitude.min(current)
        } else {
            // Clamp so the pair never enters the too-dense regime.
            magnitude.min(MAX_PAIR_WEIGHT - current)
        };
        if delta.abs() < 1e-9 {
            continue;
        }
        let new_weight = current + delta;
        if new_weight <= 1e-12 {
            weights.remove(&key);
        } else {
            weights.insert(key, new_weight);
        }
        updates.push(EdgeUpdate::new(key.0, key.1, delta));
    }
    updates
}

/// The [`shard_aligned_stream`] behind the [`Workload`] trait: the friendly
/// baseline of the scenario matrix (balanced classes, steady rates), against
/// which the adversarial scenarios are judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedCommunities {
    /// Stream length in updates.
    pub n_updates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl AlignedCommunities {
    /// A balanced planted-community stream of `n_updates` updates.
    pub fn new(n_updates: usize, seed: u64) -> Self {
        AlignedCommunities { n_updates, seed }
    }

    /// The exact 50k-update stream the repository-level equivalence suites
    /// (`tests/sharded_equivalence.rs` and friends) are built on.
    pub fn canonical() -> Self {
        AlignedCommunities::new(50_000, 2012)
    }
}

impl Workload for AlignedCommunities {
    fn name(&self) -> &'static str {
        "aligned_communities"
    }

    fn alignment(&self) -> usize {
        8
    }

    fn updates(&self) -> Vec<EdgeUpdate> {
        shard_aligned_stream(self.n_updates, 8, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_graph::FxHashMap;

    #[test]
    fn shard_aligned_stream_respects_alignment_and_caps() {
        let updates = shard_aligned_stream(5_000, 8, 42);
        assert_eq!(updates.len(), 5_000);
        assert_eq!(updates, shard_aligned_stream(5_000, 8, 42));
        assert_eq!(updates, AlignedCommunities::new(5_000, 42).updates());
        let mut weights: FxHashMap<(VertexId, VertexId), f64> = FxHashMap::default();
        for u in &updates {
            // Both endpoints share a congruence class mod 8 (and mod 2/4).
            assert_eq!(u.a.0 % 8, u.b.0 % 8, "cross-class edge {u:?}");
            let w = weights.entry((u.a, u.b)).or_insert(0.0);
            *w += u.delta;
            assert!(*w >= -1e-9, "negative weight after {u:?}");
            assert!(
                *w <= MAX_PAIR_WEIGHT + 1e-9,
                "weight above the too-dense cap after {u:?}"
            );
        }
        assert!(updates.iter().any(|u| u.is_negative()));
    }
}
