//! The two pruning heuristics of Section 7: MaxExplore and DegreePrioritize.
//!
//! Both heuristics limit the work performed while processing a positive edge
//! weight update without affecting the set of dense subgraphs that is
//! eventually maintained (they are "theoretically sound" prunings, validated
//! empirically by the cross-checks against the brute-force oracle in this
//! repository's test suite).

use dyndens_density::{DensityMeasure, ThresholdFamily};
use dyndens_graph::{DynamicGraph, VertexId};

/// The MaxExplore bound of Section 7.1.
///
/// For an update of edge `(a, b)`, the bound inspects the neighbourhoods of
/// the two endpoints and derives, for each endpoint, a cardinality
/// `maxExplore_a` (resp. `maxExplore_b`) above which every newly-dense
/// subgraph is guaranteed to consist of a stable-dense subgraph containing `a`
/// (resp. `b`) augmented with the other endpoint — i.e. it is discovered by a
/// cheap exploration and regular exploration is unnecessary at those
/// cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxExploreBound {
    /// `maxExplore_a`: newly-dense subgraphs of cardinality `>= max_explore_a`
    /// belong to `C_A` (stable-dense containing `a`, augmented with `b`).
    pub max_explore_a: usize,
    /// `maxExplore_b`, symmetrically.
    pub max_explore_b: usize,
    /// `min(maxExplore_a, maxExplore_b)`.
    pub max_explore: usize,
}

/// Up to this `Nmax` the top-weight selection of [`MaxExploreBound::compute`]
/// lives on the stack; beyond it, it pays one allocation per endpoint.
const TOP_STACK_WIDTH: usize = 16;

impl MaxExploreBound {
    /// A bound that never prunes anything (used when the heuristic is
    /// disabled, and for multi-iteration updates where the Section 7.1
    /// inequalities do not apply).
    ///
    /// The sentinel must be effectively infinite rather than `Nmax + 1`: the
    /// [`iterations_for`](Self::iterations_for) cut compares `iteration`
    /// against `max_explore - card`, and a large update can legitimately
    /// discover a chain of newly-dense subgraphs whose exploration depth at
    /// cardinality `c` reaches `c - 1`, which a `Nmax + 1` sentinel would
    /// prune (losing dense subgraphs).
    pub fn unbounded() -> Self {
        const NO_BOUND: usize = usize::MAX / 2;
        MaxExploreBound {
            max_explore_a: NO_BOUND,
            max_explore_b: NO_BOUND,
            max_explore: NO_BOUND,
        }
    }

    /// Computes the bound for the update of edge `(a, b)` whose post-update
    /// weight is `new_weight`, following the definitions of Section 7.1:
    ///
    /// * `best_x(0) = w + delta` (the updated edge weight), `best_x(i)` the
    ///   i-th largest weight among the edges incident to `x` excluding the
    ///   edge to the other updated endpoint, and `0` beyond the degree of `x`;
    /// * `top_x(i) = Σ_{j<=i} best_x(j)`;
    /// * `Z = 2 (g_Nmax T + delta_it / (Nmax - 1))`;
    /// * `maxExplore_a = min { i in 3..=Nmax : top_b(i-1) <= Z (i-1) - delta_it
    ///   and best_b(i) < Z }` (and symmetrically for `b`), or `Nmax + 1` when
    ///   no such `i` exists.
    pub fn compute<D: DensityMeasure>(
        graph: &DynamicGraph,
        thresholds: &ThresholdFamily<D>,
        a: VertexId,
        b: VertexId,
        new_weight: f64,
    ) -> Self {
        let n_max = thresholds.n_max();
        let z = 2.0
            * (thresholds.measure().g(n_max) * thresholds.output_threshold()
                + thresholds.delta_it() / (n_max as f64 - 1.0));
        let max_explore_a =
            Self::one_sided(graph, b, a, new_weight, z, thresholds.delta_it(), n_max);
        let max_explore_b =
            Self::one_sided(graph, a, b, new_weight, z, thresholds.delta_it(), n_max);
        MaxExploreBound {
            max_explore_a,
            max_explore_b,
            max_explore: max_explore_a.min(max_explore_b),
        }
    }

    /// Computes `maxExplore` for the endpoint whose *opposite* neighbourhood
    /// is `Γ_other` (i.e. `maxExplore_a` is derived from `Γ_b`).
    fn one_sided(
        graph: &DynamicGraph,
        other: VertexId,
        this: VertexId,
        new_weight: f64,
        z: f64,
        delta_it: f64,
        n_max: usize,
    ) -> usize {
        // best(0) = w + delta, best(i >= 1) = i-th largest weight in
        // Γ_other \ {this}, 0 beyond the degree of `other`. Only best(1..=Nmax)
        // are ever read, so one pass keeps the Nmax largest, descending — on
        // the stack for every realistic Nmax.
        let mut on_stack = [0.0f64; TOP_STACK_WIDTH];
        let mut on_heap = Vec::new();
        let top: &mut [f64] = if n_max <= TOP_STACK_WIDTH {
            &mut on_stack[..n_max]
        } else {
            on_heap.resize(n_max, 0.0);
            &mut on_heap
        };
        let mut kept = 0;
        for (_, w) in graph.neighbors(other).filter(|&(v, _)| v != this) {
            let rank = top[..kept].partition_point(|&t| t >= w);
            if rank < top.len() {
                kept = (kept + 1).min(top.len());
                top[rank..kept].rotate_right(1);
                top[rank] = w;
            }
        }
        let best = |i: usize| if i <= kept { top[i - 1] } else { 0.0 };

        // top(i-1) = best(0) + ... + best(i-1), kept as a running sum.
        let mut top_sum = new_weight + best(1);
        for i in 3..=n_max {
            top_sum += best(i - 1);
            if top_sum <= z * (i as f64 - 1.0) - delta_it && best(i) < z {
                return i;
            }
        }
        n_max + 1
    }

    /// `true` if no regular exploration is necessary at all for this update:
    /// all newly-dense subgraphs are reachable by cheap exploration plus the
    /// `{a, b}` base case.
    pub fn no_exploration_needed(&self) -> bool {
        self.max_explore == 3
    }

    /// The maximum number of exploration iterations worth performing on a
    /// subgraph of cardinality `card`, before intersecting with the
    /// `ceil(delta / delta_it)` bound.
    pub fn iterations_for(&self, card: usize) -> usize {
        self.max_explore.saturating_sub(card)
    }

    /// Decides whether the cheap exploration of a subgraph containing only
    /// `a` (when `one_sided_is_a` is `true`) or only `b` should be performed,
    /// given the subgraph's cardinality. Per Section 7.1, when
    /// `maxExplore_a >= maxExplore_b` it suffices to cheap-explore all
    /// subgraphs containing only `b` and those containing only `a` of
    /// cardinality at most `maxExplore_a - 1` (and symmetrically otherwise).
    pub fn should_cheap_explore(&self, contains_a_only: bool, card: usize) -> bool {
        if self.max_explore_a >= self.max_explore_b {
            if contains_a_only {
                card <= self.max_explore_a.saturating_sub(1)
            } else {
                true
            }
        } else if contains_a_only {
            true
        } else {
            card <= self.max_explore_b.saturating_sub(1)
        }
    }
}

/// The DegreePrioritize pruning conditions of Section 7.2.
///
/// Both conditions compare a candidate vertex's weighted degree into the
/// explored subgraph against a multiple of the subgraph's score; candidates
/// with *large* degree are skipped because the newly-dense subgraph they would
/// form is guaranteed to also be discovered by growing a different, already
/// maintained subgraph (the one missing its minimum-degree vertex).
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreePrioritize;

impl DegreePrioritize {
    /// When exploring subgraph `C`, candidate `u` may be skipped if
    /// `Γ⁻_u · c > 2 / (|C| - 1) * score⁺(C)`.
    #[inline]
    pub fn skip_exploration(card: usize, candidate_degree_before: f64, score_after: f64) -> bool {
        if card < 2 {
            return false;
        }
        candidate_degree_before > 2.0 / (card as f64 - 1.0) * score_after
    }

    /// When cheap-exploring subgraph `C` (containing exactly one endpoint of
    /// the updated edge) with the other endpoint `u`, the cheap exploration
    /// may be skipped if `Γ⁻_u · c > 2 / (|C| - 1) * score⁻(C)`.
    ///
    /// The pre-update degree is the sound quantity here: if it exceeds the
    /// bound, `u` cannot be the minimum-degree vertex of the (potentially
    /// newly-dense) extension `C ∪ {u}`, so that extension also arises by
    /// growing a different, already maintained subgraph and this cheap
    /// exploration is redundant.
    #[inline]
    pub fn skip_cheap_exploration(
        card: usize,
        endpoint_degree_before: f64,
        score_before: f64,
    ) -> bool {
        if card < 2 {
            return false;
        }
        endpoint_degree_before > 2.0 / (card as f64 - 1.0) * score_before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;
    use dyndens_graph::EdgeUpdate;

    fn graph_with_hub() -> DynamicGraph {
        let mut g = DynamicGraph::with_vertices(6);
        // b = 1 has a rich neighbourhood; a = 0 is poorly connected.
        g.apply_update(&EdgeUpdate::new(VertexId(1), VertexId(2), 0.9));
        g.apply_update(&EdgeUpdate::new(VertexId(1), VertexId(3), 0.8));
        g.apply_update(&EdgeUpdate::new(VertexId(1), VertexId(4), 0.7));
        g.apply_update(&EdgeUpdate::new(VertexId(0), VertexId(1), 0.5));
        g
    }

    #[test]
    fn unbounded_never_prunes() {
        let b = MaxExploreBound::unbounded();
        assert!(!b.no_exploration_needed());
        // The sentinel must not cut any reachable (cardinality, iteration)
        // combination: deep chains of newly-dense discoveries are legitimate
        // for multi-iteration updates.
        for card in 2..=64 {
            assert!(b.iterations_for(card) > 1_000_000);
        }
        assert!(b.should_cheap_explore(true, 6));
        assert!(b.should_cheap_explore(false, 6));
    }

    #[test]
    fn compute_is_symmetric_in_arguments() {
        let g = graph_with_hub();
        let fam = ThresholdFamily::with_delta_it_fraction(AvgWeight, 1.0, 5, 0.5);
        let m1 = MaxExploreBound::compute(&g, &fam, VertexId(0), VertexId(1), 0.5);
        let m2 = MaxExploreBound::compute(&g, &fam, VertexId(1), VertexId(0), 0.5);
        // maxExplore_a of (a=0, b=1) is derived from Γ_b=Γ_1, which equals
        // maxExplore_b of the swapped call.
        assert_eq!(m1.max_explore_a, m2.max_explore_b);
        assert_eq!(m1.max_explore_b, m2.max_explore_a);
        assert_eq!(m1.max_explore, m2.max_explore);
    }

    #[test]
    fn poor_neighbourhood_tightens_bound() {
        let g = graph_with_hub();
        let fam = ThresholdFamily::with_delta_it_fraction(AvgWeight, 1.0, 5, 0.5);
        // Vertex 5 is isolated: after an update of edge (0, 5) with small
        // weight, the contribution of either endpoint to any larger subgraph
        // is tiny, so the bound should collapse to the minimum (3), meaning no
        // exploration is needed.
        let m = MaxExploreBound::compute(&g, &fam, VertexId(0), VertexId(5), 0.05);
        assert_eq!(m.max_explore, 3);
        assert!(m.no_exploration_needed());
        assert_eq!(m.iterations_for(3), 0);
        assert_eq!(m.iterations_for(2), 1);
    }

    #[test]
    fn rich_neighbourhood_keeps_bound_loose() {
        let mut g = DynamicGraph::with_vertices(8);
        // Make both endpoints hubs with heavy edges.
        for v in 2..8u32 {
            g.apply_update(&EdgeUpdate::new(VertexId(0), VertexId(v), 1.0));
            g.apply_update(&EdgeUpdate::new(VertexId(1), VertexId(v), 1.0));
        }
        let fam = ThresholdFamily::with_delta_it_fraction(AvgWeight, 1.0, 6, 0.1);
        let m = MaxExploreBound::compute(&g, &fam, VertexId(0), VertexId(1), 1.0);
        // Dense neighbourhoods: the sufficient condition never triggers.
        assert_eq!(m.max_explore, 7);
        assert!(!m.no_exploration_needed());
    }

    #[test]
    fn cheap_explore_restriction_prefers_larger_bound_side() {
        let b = MaxExploreBound {
            max_explore_a: 5,
            max_explore_b: 3,
            max_explore: 3,
        };
        // maxExplore_a >= maxExplore_b: all b-only subgraphs are cheap-explored,
        // a-only subgraphs only up to cardinality 4.
        assert!(b.should_cheap_explore(false, 10));
        assert!(b.should_cheap_explore(true, 4));
        assert!(!b.should_cheap_explore(true, 5));

        let b = MaxExploreBound {
            max_explore_a: 3,
            max_explore_b: 6,
            max_explore: 3,
        };
        assert!(b.should_cheap_explore(true, 10));
        assert!(b.should_cheap_explore(false, 5));
        assert!(!b.should_cheap_explore(false, 6));
    }

    #[test]
    fn degree_prioritize_conditions() {
        // card 3, score_after 3.0: threshold is 2/(3-1) * 3 = 3.0; skip only
        // when strictly greater.
        assert!(!DegreePrioritize::skip_exploration(3, 3.0, 3.0));
        assert!(DegreePrioritize::skip_exploration(3, 3.01, 3.0));
        assert!(!DegreePrioritize::skip_exploration(1, 100.0, 0.1));

        assert!(!DegreePrioritize::skip_cheap_exploration(2, 1.9, 1.0));
        assert!(DegreePrioritize::skip_cheap_exploration(2, 2.1, 1.0));
    }
}
