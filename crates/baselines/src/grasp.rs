//! A Greedy Randomized Adaptive Search Procedure (GRASP) for dense subgraphs,
//! adapted to the streaming Engagement setting (Section 5.2 of the paper).
//!
//! The original procedure targets large quasi-cliques in unweighted graphs.
//! Each iteration has two phases:
//!
//! 1. **Construction** — grow a vertex set greedily but with randomisation:
//!    at every step the candidate vertices are ranked by how much weight they
//!    add to the current set, a restricted candidate list (RCL) keeps those
//!    within `alpha` of the best, and a random RCL member is added, as long as
//!    the set stays dense and within the cardinality budget.
//! 2. **Local search** — attempt single-vertex swaps that increase the score
//!    while keeping the set dense.
//!
//! Unlike DynDens, GRASP discovers *some* dense subgraphs per invocation; to
//! use it for Engagement it is re-run (`iterations` times) after every edge
//! weight update and the subgraphs it discovers (plus their dense subsets) are
//! accumulated. The benchmark harness measures its recall against the exact
//! answer, reproducing Figures 4(h) and 4(i).

use dyndens_density::{DensityMeasure, ThresholdFamily};
use dyndens_graph::{DynamicGraph, EdgeUpdate, FxHashSet, GammaColumn, VertexId, VertexSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the GRASP baseline.
#[derive(Debug, Clone)]
pub struct GraspConfig {
    /// Number of construction + local-search iterations per update.
    pub iterations_per_update: usize,
    /// Greediness / randomness trade-off in `[0, 1]`: `0` is purely greedy,
    /// `1` is purely random. The paper uses `0.5`.
    pub alpha: f64,
    /// Maximum cardinality of reported subgraphs.
    pub n_max: usize,
    /// RNG seed (the procedure is randomised; a fixed seed keeps benchmarks
    /// reproducible).
    pub seed: u64,
}

impl Default for GraspConfig {
    fn default() -> Self {
        GraspConfig {
            iterations_per_update: 4,
            alpha: 0.5,
            n_max: 5,
            seed: 42,
        }
    }
}

/// The GRASP baseline engine: maintains the graph, and accumulates the dense
/// subgraphs discovered by repeated randomised searches.
#[derive(Debug, Clone)]
pub struct Grasp<D: DensityMeasure> {
    graph: DynamicGraph,
    thresholds: ThresholdFamily<D>,
    config: GraspConfig,
    rng: StdRng,
    found: FxHashSet<VertexSet>,
}

impl<D: DensityMeasure> Grasp<D> {
    /// Creates a GRASP engine reporting subgraphs with density at least
    /// `threshold` under `measure`.
    pub fn new(measure: D, threshold: f64, config: GraspConfig) -> Self {
        // GRASP does not need the T_n family; we reuse ThresholdFamily with a
        // tiny delta_it purely for its output-density checks.
        let thresholds =
            ThresholdFamily::with_delta_it_fraction(measure, threshold, config.n_max, 0.01);
        let rng = StdRng::seed_from_u64(config.seed);
        Grasp {
            graph: DynamicGraph::new(),
            thresholds,
            config,
            rng,
            found: FxHashSet::default(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The accumulated set of discovered output-dense subgraphs.
    pub fn found(&self) -> &FxHashSet<VertexSet> {
        &self.found
    }

    /// Applies an edge weight update and runs the configured number of GRASP
    /// iterations seeded at the updated edge. Returns the number of *new*
    /// output-dense subgraphs discovered.
    pub fn apply_update(&mut self, update: EdgeUpdate) -> usize {
        self.graph.apply_update(&update);
        // Discoveries that are no longer dense are dropped lazily here so the
        // accumulated set reflects the current graph.
        self.prune_stale();
        if update.delta <= 0.0 {
            return 0;
        }
        let mut new = 0;
        for _ in 0..self.config.iterations_per_update {
            if let Some(set) = self.construct(update.a, update.b) {
                let improved = self.local_search(set);
                new += self.record_with_subsets(&improved);
            }
        }
        new
    }

    /// Runs `iterations` stand-alone searches from random seed edges (used for
    /// offline recall measurements).
    pub fn search(&mut self, iterations: usize) -> usize {
        let edges: Vec<(VertexId, VertexId)> = self.graph.edges().map(|(a, b, _)| (a, b)).collect();
        if edges.is_empty() {
            return 0;
        }
        let mut new = 0;
        for _ in 0..iterations {
            let (a, b) = edges[self.rng.gen_range(0..edges.len())];
            if let Some(set) = self.construct(a, b) {
                let improved = self.local_search(set);
                new += self.record_with_subsets(&improved);
            }
        }
        new
    }

    /// Construction phase: grow a subgraph starting from the seed edge.
    fn construct(&mut self, a: VertexId, b: VertexId) -> Option<VertexSet> {
        if self.graph.weight(a, b) <= 0.0 {
            return None;
        }
        let mut set = VertexSet::pair(a, b);
        let mut score = self.graph.weight(a, b);
        let mut gamma = GammaColumn::default();
        loop {
            if set.len() >= self.config.n_max {
                break;
            }
            // In vertex order: the RCL pick below indexes into this list.
            self.graph.neighborhood_into(set.as_slice(), &mut gamma);
            gamma.sort_candidates();
            let candidates: Vec<(VertexId, f64)> = gamma
                .iter()
                .filter(|&(_, g)| self.thresholds.is_output_dense(score + g, set.len() + 1))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let best = candidates.iter().map(|&(_, g)| g).fold(f64::MIN, f64::max);
            let worst = candidates.iter().map(|&(_, g)| g).fold(f64::MAX, f64::min);
            let cutoff = best - self.config.alpha * (best - worst);
            let rcl: Vec<(VertexId, f64)> = candidates
                .into_iter()
                .filter(|&(_, g)| g >= cutoff)
                .collect();
            let (chosen, gain) = rcl[self.rng.gen_range(0..rcl.len())];
            set.insert(chosen);
            score += gain;
        }
        if self.thresholds.is_output_dense(score, set.len()) && set.len() >= 2 {
            Some(set)
        } else {
            None
        }
    }

    /// Local search: single-vertex swaps that increase the score while
    /// preserving output-density.
    fn local_search(&mut self, mut set: VertexSet) -> VertexSet {
        let mut improved = true;
        let mut gamma = GammaColumn::default();
        while improved {
            improved = false;
            let score = self.graph.score(&set);
            let members: Vec<VertexId> = set.iter().collect();
            'swap: for &out in &members {
                let without = set.without(out);
                let without_score = score - self.graph.degree_into(out, without.as_slice());
                // In vertex order: the first improving swap is taken.
                self.graph.neighborhood_into(without.as_slice(), &mut gamma);
                gamma.sort_candidates();
                for (inp, gain) in gamma.iter() {
                    if set.contains(inp) {
                        continue;
                    }
                    let new_score = without_score + gain;
                    if new_score > score + 1e-12
                        && self.thresholds.is_output_dense(new_score, set.len())
                    {
                        set = without.with(inp);
                        improved = true;
                        break 'swap;
                    }
                }
            }
        }
        set
    }

    /// Records a discovered subgraph together with its output-dense subsets
    /// (the Engagement answer includes every dense subset, not just the
    /// largest one found). Returns how many of them were new.
    fn record_with_subsets(&mut self, set: &VertexSet) -> usize {
        let members: Vec<VertexId> = set.iter().collect();
        let mut new = 0;
        let mut current = Vec::new();
        self.record_subsets(&members, 0, &mut current, &mut new);
        new
    }

    fn record_subsets(
        &mut self,
        members: &[VertexId],
        start: usize,
        current: &mut Vec<VertexId>,
        new: &mut usize,
    ) {
        if current.len() >= 2 && current.len() <= self.config.n_max {
            let candidate = VertexSet::from_vertices(current.iter().copied());
            let score = self.graph.score(&candidate);
            if self.thresholds.is_output_dense(score, candidate.len())
                && self.found.insert(candidate)
            {
                *new += 1;
            }
        }
        if current.len() == self.config.n_max {
            return;
        }
        for i in start..members.len() {
            current.push(members[i]);
            self.record_subsets(members, i + 1, current, new);
            current.pop();
        }
    }

    fn prune_stale(&mut self) {
        let graph = &self.graph;
        let thresholds = &self.thresholds;
        self.found
            .retain(|set| thresholds.is_output_dense(graph.score(set), set.len()));
    }

    /// Recall of the accumulated discoveries against an exact answer
    /// (typically produced by DynDens or the brute-force oracle), ignoring
    /// disconnected subgraphs which GRASP by construction cannot produce.
    pub fn recall_against(&self, truth: &[VertexSet]) -> f64 {
        let relevant: Vec<&VertexSet> = truth
            .iter()
            .filter(|s| self.graph.is_connected(s))
            .collect();
        if relevant.is_empty() {
            return 1.0;
        }
        let hit = relevant.iter().filter(|s| self.found.contains(**s)).count();
        hit as f64 / relevant.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForce;
    use dyndens_density::AvgWeight;

    fn clique_updates(members: &[u32], w: f64) -> Vec<EdgeUpdate> {
        let mut v = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                v.push(EdgeUpdate::new(VertexId(a), VertexId(b), w));
            }
        }
        v
    }

    #[test]
    fn finds_a_planted_clique() {
        let mut grasp = Grasp::new(
            AvgWeight,
            1.0,
            GraspConfig {
                n_max: 4,
                ..Default::default()
            },
        );
        for u in clique_updates(&[0, 1, 2, 3], 1.5) {
            grasp.apply_update(u);
        }
        // The full clique and all its subsets are output-dense.
        assert!(grasp.found().contains(&VertexSet::from_ids(&[0, 1, 2, 3])));
        assert!(grasp.found().contains(&VertexSet::from_ids(&[0, 2])));
    }

    #[test]
    fn precision_is_perfect() {
        // Everything GRASP reports must genuinely be output-dense.
        let mut grasp = Grasp::new(
            AvgWeight,
            0.9,
            GraspConfig {
                n_max: 4,
                ..Default::default()
            },
        );
        let mut updates = clique_updates(&[0, 1, 2], 1.2);
        updates.extend(clique_updates(&[3, 4, 5, 6], 0.95));
        updates.push(EdgeUpdate::new(VertexId(2), VertexId(3), 0.4));
        for u in updates {
            grasp.apply_update(u);
        }
        let fam = ThresholdFamily::with_delta_it_fraction(AvgWeight, 0.9, 4, 0.01);
        for set in grasp.found() {
            let score = grasp.graph().score(set);
            assert!(
                fam.is_output_dense(score, set.len()),
                "false positive {set}"
            );
        }
    }

    #[test]
    fn recall_improves_with_more_iterations() {
        let build = |iters: usize| {
            let mut grasp = Grasp::new(
                AvgWeight,
                0.9,
                GraspConfig {
                    iterations_per_update: iters,
                    n_max: 4,
                    alpha: 0.5,
                    seed: 11,
                },
            );
            let mut updates = clique_updates(&[0, 1, 2, 3], 1.0);
            updates.extend(clique_updates(&[2, 4, 5], 1.1));
            updates.extend(clique_updates(&[6, 7, 8], 0.95));
            for u in updates {
                grasp.apply_update(u);
            }
            grasp
        };
        let fam = ThresholdFamily::with_delta_it_fraction(AvgWeight, 0.9, 4, 0.01);
        let sparse_run = build(1);
        let heavy_run = build(16);
        let truth: Vec<VertexSet> = BruteForce::output_dense_subgraphs(sparse_run.graph(), &fam)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let r1 = sparse_run.recall_against(&truth);
        let r2 = heavy_run.recall_against(&truth);
        assert!(
            r2 >= r1,
            "recall should not degrade with more iterations ({r1} vs {r2})"
        );
        assert!(r2 > 0.5);
    }

    #[test]
    fn negative_updates_prune_stale_discoveries() {
        let mut grasp = Grasp::new(
            AvgWeight,
            1.0,
            GraspConfig {
                n_max: 3,
                ..Default::default()
            },
        );
        for u in clique_updates(&[0, 1, 2], 1.2) {
            grasp.apply_update(u);
        }
        assert!(grasp.found().contains(&VertexSet::from_ids(&[0, 1, 2])));
        grasp.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), -1.0));
        assert!(!grasp.found().contains(&VertexSet::from_ids(&[0, 1, 2])));
    }

    #[test]
    fn offline_search_discovers_subgraphs() {
        let mut grasp = Grasp::new(
            AvgWeight,
            1.0,
            GraspConfig {
                n_max: 4,
                ..Default::default()
            },
        );
        // Load the graph without running per-update searches (negative deltas
        // first so apply_update skips the search, then raise them).
        for u in clique_updates(&[0, 1, 2, 3], 1.5) {
            grasp.graph.apply_update(&u);
        }
        assert!(grasp.found().is_empty());
        let found = grasp.search(20);
        assert!(found > 0);
        assert!(grasp.found().contains(&VertexSet::from_ids(&[0, 1, 2, 3])));
        // Searching an empty graph is a no-op.
        let mut empty = Grasp::new(AvgWeight, 1.0, GraspConfig::default());
        assert_eq!(empty.search(5), 0);
    }
}
