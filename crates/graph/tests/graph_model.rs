//! Model-based property tests for [`DynamicGraph`]'s sorted-vector layout:
//! whatever sequence of updates the stream throws at it — deltas that cancel
//! an edge to within `WEIGHT_EPSILON`, re-insertion after a prune, vertices
//! that only come into being when an update names them — the graph must
//! agree with a `BTreeMap<(u32, u32), f64>` on every read, hand out
//! neighbours and edges in strictly ascending order (the one place edge
//! order is asserted; snapshots, eviction lists and the engine's
//! disjoint-edge steps rely on it without sorting), and sum `Γ_C` into a
//! reused column to the same bits as its reference definition.

use std::collections::BTreeMap;

use dyndens_graph::graph::WEIGHT_EPSILON;
use dyndens_graph::{DynamicGraph, EdgeUpdate, GammaColumn, VertexId, VertexSet};
use proptest::prelude::*;

/// Mostly a dozen vertices (so pairs repeat), now and then a far one that
/// makes the vertex array grow lazily.
const NEAR: u32 = 12;
const FAR: u32 = 40;

/// Deltas and absolute weights that do not add up exactly, so a summation
/// order shows in the bits; the small ones straddle the pruning epsilon.
const VALUES: [f64; 10] = [
    0.1,
    0.7,
    1.0 / 3.0,
    -0.1,
    -1.0 / 3.0,
    2.5,
    4e-13,
    -4e-13,
    3e-12,
    0.0,
];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `apply_update(a, b, VALUES[i])` (skipped for a zero delta: the engine
    /// never forwards one).
    Add(u32, u32, usize),
    /// `set_weight(a, b, VALUES[i])`.
    Set(u32, u32, usize),
    /// The update that cancels the pair's current weight up to a residue
    /// below the epsilon: the edge must disappear, not linger as dust.
    Cancel(u32, u32),
    /// `reclaim_isolated()`: must change nothing observable.
    Reclaim,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..10u8, 0..NEAR, 0..NEAR, 0..FAR, 0..VALUES.len()).prop_filter_map(
            "self loop",
            |(kind, a, b, far, value)| {
                let b = if kind == 9 { far } else { b };
                if a == b {
                    return None;
                }
                Some(match kind {
                    0..=3 | 9 => Op::Add(a, b, value),
                    4..=5 => Op::Set(a, b, value),
                    6..=7 => Op::Cancel(a, b),
                    _ => Op::Reclaim,
                })
            },
        ),
        1..120,
    )
}

type Model = BTreeMap<(u32, u32), f64>;

fn key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

fn model_set(model: &mut Model, a: u32, b: u32, weight: f64) {
    if weight.abs() > WEIGHT_EPSILON {
        model.insert(key(a, b), weight);
    } else {
        model.remove(&key(a, b));
    }
}

fn run(ops: &[Op]) -> (DynamicGraph, Model) {
    run_on(DynamicGraph::new(), ops)
}

/// Applies `ops` to `graph` (empty, with however many vertices declared) and
/// to the model.
fn run_on(mut graph: DynamicGraph, ops: &[Op]) -> (DynamicGraph, Model) {
    let mut model = Model::new();
    for &op in ops {
        match op {
            Op::Add(a, b, i) if VALUES[i] != 0.0 => {
                let old = model.get(&key(a, b)).copied().unwrap_or(0.0);
                let got = graph.apply_update(&EdgeUpdate::new(VertexId(a), VertexId(b), VALUES[i]));
                assert_eq!(got, (old, old + VALUES[i]));
                model_set(&mut model, a, b, old + VALUES[i]);
            }
            Op::Add(..) => {}
            Op::Set(a, b, i) => {
                let old = model.get(&key(a, b)).copied().unwrap_or(0.0);
                assert_eq!(graph.set_weight(VertexId(a), VertexId(b), VALUES[i]), old);
                model_set(&mut model, a, b, VALUES[i]);
            }
            Op::Cancel(a, b) => {
                let old = model.get(&key(a, b)).copied().unwrap_or(0.0);
                let delta = 2e-13 - old;
                graph.apply_update(&EdgeUpdate::new(VertexId(a), VertexId(b), delta));
                model_set(&mut model, a, b, old + delta);
                assert_eq!(graph.weight(VertexId(a), VertexId(b)), 0.0);
            }
            Op::Reclaim => {
                let before: Vec<_> = graph.edges().collect();
                let isolated = graph.reclaim_isolated();
                let by_degree = (0..graph.vertex_count())
                    .filter(|&v| graph.degree(VertexId(v as u32)) == 0)
                    .count();
                assert_eq!(isolated, by_degree);
                assert_eq!(graph.edges().collect::<Vec<_>>(), before);
            }
        }
    }
    (graph, model)
}

/// `edges()` as comparable values.
fn edge_list(graph: &DynamicGraph) -> Vec<((u32, u32), u64)> {
    graph
        .edges()
        .map(|(a, b, w)| ((a.0, b.0), w.to_bits()))
        .collect()
}

/// The model's edges whose smaller endpoint satisfies `keep`, in the map's
/// (ascending) order.
fn model_edges(model: &Model, keep: impl Fn(u32) -> bool) -> Vec<((u32, u32), u64)> {
    model
        .iter()
        .filter(|(&(a, _), _)| keep(a))
        .map(|(&k, w)| (k, w.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `edges()` walks the maintained occupancy bits, not the vertex array:
    /// whichever way a graph came to its state — vertices declared up front
    /// or created by the updates that name them, edges cancelled to zero and
    /// re-inserted, isolated lists reclaimed, one engine's graph dealt out to
    /// two children the way `DynDens::partition_by` does it and folded back
    /// the way `absorb` does — the walk is the model's edge list, in order.
    #[test]
    fn edges_are_the_model_however_the_graph_was_built(ops in arb_ops()) {
        let (lazy, model) = run(&ops);
        let want = model_edges(&model, |_| true);
        prop_assert_eq!(edge_list(&lazy), want.clone());

        // Declared up front, wider than any update reaches and not a
        // multiple of the occupancy word.
        let (mut declared, _) = run_on(DynamicGraph::with_vertices(FAR as usize + 27), &ops);
        prop_assert_eq!(edge_list(&declared), want.clone());
        declared.reclaim_isolated();
        prop_assert_eq!(edge_list(&declared), want.clone());
        // A vertex that lost its last edge leaves the walk, and re-enters it.
        if let Some(&((a, b), _)) = want.first() {
            let old = declared.set_weight(VertexId(a), VertexId(b), 0.0);
            prop_assert_eq!(edge_list(&declared), want[1..].to_vec());
            declared.set_weight(VertexId(b), VertexId(a), old);
            prop_assert_eq!(edge_list(&declared), want.clone());
        }

        // partition_by: two children over the parent's universe, each edge
        // dealt out by its smaller endpoint, in `edges()` order.
        let even = |a: u32| a.is_multiple_of(2);
        let child = || DynamicGraph::with_vertices(lazy.vertex_count());
        let (mut zero, mut one) = (child(), child());
        for (a, b, w) in lazy.edges() {
            let side = if even(a.0) { &mut zero } else { &mut one };
            side.set_weight(a, b, w);
        }
        prop_assert_eq!(edge_list(&zero), model_edges(&model, even));
        prop_assert_eq!(edge_list(&one), model_edges(&model, |a| !even(a)));

        // absorb: a sibling's edges folded into a graph with a smaller
        // universe, which grows first.
        let mut merged = DynamicGraph::new();
        for (a, b, w) in zero.edges() {
            merged.set_weight(a, b, w);
        }
        if one.vertex_count() > merged.vertex_count() {
            merged.ensure_vertex(VertexId(one.vertex_count() as u32 - 1));
        }
        for (a, b, w) in one.edges() {
            merged.set_weight(a, b, w);
        }
        prop_assert_eq!(merged.edge_count(), model.len());
        prop_assert_eq!(edge_list(&merged), want);
    }

    #[test]
    fn reads_agree_with_the_map_model_and_are_ordered(ops in arb_ops()) {
        let (graph, model) = run(&ops);

        // Point reads, both argument orders, including pairs never touched
        // and vertices beyond the array.
        for a in 0..FAR + 2 {
            for b in 0..FAR + 2 {
                let want = if a == b { 0.0 } else { model.get(&key(a, b)).copied().unwrap_or(0.0) };
                prop_assert_eq!(graph.weight(VertexId(a), VertexId(b)).to_bits(), want.to_bits());
            }
        }
        prop_assert_eq!(graph.edge_count(), model.len());
        let total: f64 = model.values().sum();
        prop_assert!((graph.total_weight() - total).abs() < 1e-9);

        // edges(): exactly the model, a < b, strictly ascending in (a, b) —
        // which is the BTreeMap's own iteration order.
        let edges: Vec<((u32, u32), u64)> =
            graph.edges().map(|(a, b, w)| ((a.0, b.0), w.to_bits())).collect();
        let want: Vec<((u32, u32), u64)> = model.iter().map(|(&k, w)| (k, w.to_bits())).collect();
        prop_assert!(edges.iter().all(|&((a, b), _)| a < b));
        prop_assert!(edges.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(edges, want);

        // neighbors(u): strictly ascending, symmetric with the model.
        let mut max_degree = 0;
        for u in 0..FAR + 2 {
            let got: Vec<(u32, u64)> =
                graph.neighbors(VertexId(u)).map(|(v, w)| (v.0, w.to_bits())).collect();
            let want: Vec<(u32, u64)> = (0..FAR + 2)
                .filter_map(|v| model.get(&key(u, v)).filter(|_| u != v).map(|w| (v, w.to_bits())))
                .collect();
            prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert_eq!(graph.degree(VertexId(u)), want.len());
            max_degree = max_degree.max(want.len());
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(graph.max_degree(), max_degree);
    }

    /// One column reused for every fill — first on the graph after half the
    /// updates, then on the whole one, whose vertex array may be larger — is
    /// `Γ_C`'s reference definition on every cell.
    #[test]
    fn the_gamma_column_is_its_reference_definition_bit_for_bit(
        ops in arb_ops(),
        sets in prop::collection::vec(prop::collection::vec(0..FAR + 2, 1..7), 1..8),
    ) {
        let (half, half_model) = run(&ops[..ops.len() / 2]);
        let (full, full_model) = run(&ops);
        let mut column = GammaColumn::default();
        for (graph, model) in [(&half, &half_model), (&full, &full_model)] {
            for ids in &sets {
                // Cardinality 1..=6 after de-duplication; members may be
                // isolated, beyond the vertex array, or each other's only
                // neighbours.
                let set = VertexSet::from_ids(ids);

                // Reference: for each member in ascending order, for each
                // neighbour outside the set, acc[u] += w.
                let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
                for member in set.iter() {
                    for (&(a, b), &w) in model {
                        if a == member.0 || b == member.0 {
                            let u = if a == member.0 { b } else { a };
                            if !set.contains(VertexId(u)) {
                                *acc.entry(u).or_insert(0.0) += w;
                            }
                        }
                    }
                }

                graph.neighborhood_into(set.as_slice(), &mut column);
                // Listed: exactly the non-member neighbours, each once.
                let mut listed: Vec<u32> = column.candidates().iter().map(|v| v.0).collect();
                listed.sort_unstable();
                prop_assert_eq!(listed, acc.keys().copied().collect::<Vec<_>>());
                // Read: a member NaN, a neighbour its sum's bits, anything
                // else 0.0 — past the vertex array too.
                for v in (0..FAR + 2).chain([u32::MAX - 1]).map(VertexId) {
                    let got = column.get(v);
                    if set.contains(v) {
                        prop_assert!(got.is_nan(), "member {} reads {}", v, got);
                    } else {
                        let want = acc.get(&v.0).copied().unwrap_or(0.0);
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "cell {}", v);
                    }
                }
                // degree_into is the same sum restricted to one candidate.
                for (u, gamma_u) in column.iter() {
                    let d = graph.degree_into(u, set.as_slice());
                    prop_assert_eq!(d.to_bits(), gamma_u.to_bits());
                }
            }
        }
    }
}
