//! Top-k peeling: the densest subgraphs of a graph by read-time greedy
//! peeling, in the style of Nasir et al.'s fully-dynamic top-k densest
//! subgraphs (PAPERS.md). A baseline that `repro --figure backends`
//! measures against DynDens; see `docs/BACKENDS.md` for why it is not a
//! deployable engine.
//!
//! Per connected component, [`topk_peeling`] repeatedly removes the vertex
//! of minimum weighted degree, scores every suffix of the peeling order with
//! cardinality in `2..=Nmax`, and extracts the densest suffix if it clears
//! the output threshold — then removes its vertices and repeats, up to `k`
//! extractions per component. This is the classic 2-approximation charging
//! argument applied top-k-wise; every extracted set has density `>= T` and
//! cardinality `<= Nmax`, so the extracted family is a *subset* of DynDens's
//! exact output-dense family and its top-k density ratio against it is at
//! most 1.
//!
//! ## Determinism
//!
//! Every floating-point accumulation is canonically ordered, so the answer
//! is a pure function of the graph's weights:
//!
//! * components are discovered in ascending minimum-vertex order and peeled
//!   independently;
//! * weighted degrees are summed over the component's members in ascending
//!   vertex order (never in adjacency-map iteration order);
//! * ties in the peel choice break toward the smaller vertex id, and suffix
//!   scores come from [`DynamicGraph::score`]'s canonical summation.

use dyndens_core::DynDensConfig;
use dyndens_density::{score_meets, DensityMeasure};
use dyndens_graph::{DynamicGraph, FxHashMap, VertexId, VertexSet};

/// Up to `k` (at least 1) disjoint output-dense subgraphs per connected
/// component of `graph`, peeled greedily under `measure` and `config`'s
/// threshold and `Nmax`, each with its density. Components come in
/// ascending minimum-vertex order, each component's sets in extraction
/// order. See the [module docs](self).
pub fn topk_peeling<D: DensityMeasure>(
    graph: &DynamicGraph,
    measure: &D,
    config: &DynDensConfig,
    k: usize,
) -> Vec<(VertexSet, f64)> {
    let mut out = Vec::new();
    for mut members in components(graph) {
        for _round in 0..k.max(1) {
            if members.len() < 2 {
                break;
            }
            let Some((set, score)) = densest_suffix(graph, measure, config, &members) else {
                break;
            };
            members.retain(|v| !set.contains(*v));
            let density = measure.density(score, set.len());
            out.push((set, density));
        }
    }
    out
}

/// Connected components over positive-weight edges, each sorted ascending,
/// in ascending minimum-vertex order.
fn components(graph: &DynamicGraph) -> Vec<Vec<VertexId>> {
    let n = graph.vertex_count();
    let mut visited = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let v = VertexId(start as u32);
        if !graph.neighbors(v).any(|(_, w)| w > 0.0) {
            continue;
        }
        let mut component = vec![v];
        let mut stack = vec![v];
        visited[start] = true;
        while let Some(u) = stack.pop() {
            for (next, w) in graph.neighbors(u) {
                if w > 0.0 && !visited[next.index()] {
                    visited[next.index()] = true;
                    component.push(next);
                    stack.push(next);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// Runs one peeling pass over `members` (sorted ascending) and returns the
/// densest suffix with cardinality in `2..=Nmax` that clears the output
/// threshold, with its canonical score.
fn densest_suffix<D: DensityMeasure>(
    graph: &DynamicGraph,
    measure: &D,
    config: &DynDensConfig,
    members: &[VertexId],
) -> Option<(VertexSet, f64)> {
    // Canonical weighted degrees: summed over members in ascending order.
    let mut degree: FxHashMap<VertexId, f64> = FxHashMap::default();
    for &u in members {
        let mut d = 0.0;
        for &v in members {
            if v != u {
                d += graph.weight(u, v);
            }
        }
        degree.insert(u, d);
    }
    let mut working: Vec<VertexId> = members.to_vec();
    let mut best: Option<(VertexSet, f64, f64)> = None;
    loop {
        if working.len() <= config.n_max {
            let set = VertexSet::from_vertices(working.iter().copied());
            let score = graph.score(&set);
            let density = measure.density(score, set.len());
            let better = match &best {
                Some((_, _, best_density)) => density > *best_density,
                None => true,
            };
            if better {
                best = Some((set, score, density));
            }
        }
        if working.len() <= 2 {
            break;
        }
        // Min weighted degree, ties toward the smaller id: `working` stays
        // ascending, so a strict `<` scan keeps the first minimum.
        let (peel_idx, _) = working
            .iter()
            .enumerate()
            .fold(None::<(usize, f64)>, |acc, (i, v)| {
                let d = degree[v];
                match acc {
                    Some((_, min)) if d >= min => acc,
                    _ => Some((i, d)),
                }
            })
            .expect("working set is non-empty");
        let peeled = working.remove(peel_idx);
        for &v in &working {
            let w = graph.weight(peeled, v);
            if w != 0.0 {
                *degree.get_mut(&v).expect("degree map covers members") -= w;
            }
        }
    }
    let (set, score, _) = best?;
    // Score-space acceptance, identical to DynDens's output-dense test:
    // every extracted set is therefore a member of DynDens's output family.
    let bound = measure.s(set.len()) * config.threshold;
    score_meets(score, bound).then_some((set, score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;
    use dyndens_graph::EdgeUpdate;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.25)
    }

    /// Two strong triangles in one component joined by a weak bridge, plus
    /// an isolated strong pair in another component.
    fn workload() -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        for base in [0u32, 10u32] {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                updates.push(update(base + a, base + b, 1.25));
            }
        }
        updates.push(update(2, 10, 0.125));
        updates.push(update(20, 21, 1.375));
        updates
    }

    fn graph_of<'a>(updates: impl IntoIterator<Item = &'a EdgeUpdate>) -> DynamicGraph {
        let mut graph = DynamicGraph::new();
        for u in updates {
            graph.apply_update(u);
        }
        graph
    }

    fn sorted(mut sets: Vec<(VertexSet, f64)>) -> Vec<(Vec<u32>, u64)> {
        sets.sort_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        sets.into_iter()
            .map(|(s, density)| (s.iter().map(|v| v.0).collect(), density.to_bits()))
            .collect()
    }

    #[test]
    fn extracts_disjoint_dense_suffixes_per_component() {
        let graph = graph_of(&workload());
        let answer = topk_peeling(&graph, &AvgWeight, &config(), 4);
        // Every extracted set is output-dense, within `Nmax`, and disjoint
        // from the others.
        let mut claimed = VertexSet::new();
        for (set, density) in &answer {
            assert!((2..=4).contains(&set.len()));
            assert!(*density >= 1.0);
            assert!(set.iter().all(|v| claimed.insert(v)));
        }
        // Both triangles and the isolated pair are found despite sharing a
        // component (the bridge is too weak to merge the triangles' density).
        let sets: Vec<Vec<u32>> = sorted(answer).into_iter().map(|(s, _)| s).collect();
        assert!(sets.contains(&vec![0, 1, 2]));
        assert!(sets.contains(&vec![10, 11, 12]));
        assert!(sets.contains(&vec![20, 21]));
    }

    #[test]
    fn answers_are_a_pure_function_of_the_update_sequence() {
        // The same weights reached in the opposite order leave the adjacency
        // maps in another insertion order; the canonical sums may not see it.
        let updates = workload();
        let forward = graph_of(&updates);
        let backward = graph_of(updates.iter().rev());
        assert_eq!(
            sorted(topk_peeling(&forward, &AvgWeight, &config(), 4)),
            sorted(topk_peeling(&backward, &AvgWeight, &config(), 4))
        );
    }
}
