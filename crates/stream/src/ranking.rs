//! Diversity-aware re-ranking of output-dense subgraphs for presentation.
//!
//! Dense subgraphs overlap heavily (a story and its facets all clear the
//! density threshold), so presenting the raw list of output-dense subgraphs to
//! a user would be repetitive. Section 5.3 of the paper re-ranks them in a
//! diversity-aware manner: subgraphs are picked greedily by adjusted density,
//! where the adjustment multiplies the density by
//! `1 - DIVERSITY_PENALTY * (fraction of the story's entities already
//! covered by previously selected stories)`.

use dyndens_graph::{FxHashSet, VertexId, VertexSet};

/// The overlap penalty factor of the diversity re-ranking (the paper's
/// `0.8`).
pub const DIVERSITY_PENALTY: f64 = 0.8;

/// A story: a group of tightly coupled entities together with its density.
#[derive(Debug, Clone, PartialEq)]
pub struct Story {
    /// The entities involved in the story, as human-readable names.
    pub entities: Vec<String>,
    /// The vertex set backing the story.
    pub vertices: VertexSet,
    /// The story's density under the configured measure.
    pub density: f64,
    /// The diversity-adjusted density used for ranking.
    pub adjusted_density: f64,
}

/// Greedily selects up to `limit` subgraphs, penalising overlap with already
/// selected ones by [`DIVERSITY_PENALTY`]. Returns `(vertices,
/// original_density, adjusted_density)` in selection order.
pub fn rank_with_diversity(
    candidates: &[(VertexSet, f64)],
    limit: usize,
) -> Vec<(VertexSet, f64, f64)> {
    rank(candidates, DIVERSITY_PENALTY, limit)
}

/// [`rank_with_diversity`] with the overlap penalty factor spelled out.
fn rank(candidates: &[(VertexSet, f64)], penalty: f64, limit: usize) -> Vec<(VertexSet, f64, f64)> {
    assert!((0.0..=1.0).contains(&penalty), "penalty must lie in [0, 1]");
    let mut covered: FxHashSet<VertexId> = FxHashSet::default();
    let mut remaining: Vec<(VertexSet, f64)> = candidates.to_vec();
    let mut selected = Vec::new();

    while selected.len() < limit && !remaining.is_empty() {
        let mut best_idx = 0;
        let mut best_adjusted = f64::NEG_INFINITY;
        for (idx, (set, density)) in remaining.iter().enumerate() {
            let overlap = set.iter().filter(|v| covered.contains(v)).count();
            let fraction = overlap as f64 / set.len() as f64;
            let adjusted = density * (1.0 - penalty * fraction);
            if adjusted > best_adjusted {
                best_adjusted = adjusted;
                best_idx = idx;
            }
        }
        let (set, density) = remaining.swap_remove(best_idx);
        for v in set.iter() {
            covered.insert(v);
        }
        selected.push((set, density, best_adjusted));
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> VertexSet {
        VertexSet::from_ids(ids)
    }

    #[test]
    fn highest_density_is_selected_first() {
        let candidates = vec![
            (set(&[0, 1]), 1.0),
            (set(&[2, 3]), 2.0),
            (set(&[4, 5]), 1.5),
        ];
        let ranked = rank_with_diversity(&candidates, 3);
        assert_eq!(ranked[0].0, set(&[2, 3]));
        assert_eq!(ranked[1].0, set(&[4, 5]));
        assert_eq!(ranked[2].0, set(&[0, 1]));
        // No overlap: adjusted densities equal the originals.
        for (_, d, adj) in &ranked {
            assert!((d - adj).abs() < 1e-12);
        }
    }

    #[test]
    fn overlapping_stories_are_penalised() {
        // {0,1,2} is densest; its sub-facet {0,1} would normally come second,
        // but the penalty pushes the disjoint {5,6} ahead of it.
        let candidates = vec![
            (set(&[0, 1, 2]), 2.0),
            (set(&[0, 1]), 1.9),
            (set(&[5, 6]), 1.2),
        ];
        let ranked = rank_with_diversity(&candidates, 3);
        assert_eq!(ranked[0].0, set(&[0, 1, 2]));
        assert_eq!(ranked[1].0, set(&[5, 6]));
        assert_eq!(ranked[2].0, set(&[0, 1]));
        // The fully covered facet's adjusted density is 1.9 * (1 - 0.8).
        assert!((ranked[2].2 - 0.38).abs() < 1e-9);
    }

    #[test]
    fn zero_penalty_is_pure_density_order() {
        let candidates = vec![
            (set(&[0, 1, 2]), 2.0),
            (set(&[0, 1]), 1.9),
            (set(&[5, 6]), 1.2),
        ];
        let ranked = rank(&candidates, 0.0, 3);
        assert_eq!(ranked[1].0, set(&[0, 1]));
    }

    #[test]
    fn limit_and_empty_input() {
        let candidates = vec![(set(&[0, 1]), 1.0), (set(&[2, 3]), 2.0)];
        assert_eq!(rank_with_diversity(&candidates, 1).len(), 1);
        assert!(rank_with_diversity(&[], 5).is_empty());
        assert_eq!(rank_with_diversity(&candidates, 10).len(), 2);
    }

    #[test]
    #[should_panic(expected = "penalty")]
    fn rejects_out_of_range_penalty() {
        let _ = rank(&[], 1.5, 3);
    }
}
