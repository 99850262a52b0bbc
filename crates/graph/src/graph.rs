//! The evolving weighted graph and its adjacency-list index.
//!
//! ## Layout and the summation-order contract
//!
//! Every vertex owns one **sorted small vector** of `(neighbour, weight)`
//! pairs, ascending by neighbour id. Communities are small and
//! `Nmax`-bounded, so a weight lookup is a binary search over a few cache
//! lines, and three orders hold *by construction* instead of by sorting:
//!
//! * [`neighbors`](DynamicGraph::neighbors) is strictly ascending;
//! * [`edges`](DynamicGraph::edges) is strictly ascending in `(a, b)`, `a < b`
//!   — the canonical edge order of engine snapshots and eviction lists — and
//!   visits only vertices that have an edge (one maintained occupancy bit
//!   per vertex), so listing `E` edges does not cost a walk over `V` lists;
//! * [`neighborhood_into`](DynamicGraph::neighborhood_into) (`Γ_C`, summed
//!   into a [`GammaColumn`]) adds each entry over the members of `C` in
//!   ascending member order, as [`degree_into`](DynamicGraph::degree_into)
//!   does.
//!
//! The last point is load-bearing. `f64` addition is not associative, so the
//! order in which a candidate's `Γ_C · ê_u` is accumulated decides the bits
//! of every score derived from it. Because the order is a function of the
//! graph's *state* (which edges exist) and never of its *history* (the order
//! updates arrived in), an engine restored from a snapshot and replayed from
//! its WAL stores the same bits as one that never stopped. The column's
//! candidate list is in first-touch order, not vertex order: a caller whose
//! result depends on the order it visits candidates in sorts the ones it acts
//! on.

use crate::{EdgeUpdate, VertexId, VertexSet};

/// Weights whose absolute value falls below this threshold are treated as zero
/// and the corresponding edge is removed from the adjacency lists. Association
/// measures are non-negative in practice, but the stream of updates may drive a
/// weight back to (numerically almost) zero.
pub const WEIGHT_EPSILON: f64 = 1e-12;

/// `Γ_C` as a dense column over the vertices, filled by
/// [`DynamicGraph::neighborhood_into`]: for every vertex `u` outside `C`,
/// the total weight `Γ_C · ê_u` of its edges into `C`.
///
/// A cell is current only while its stamp equals the column's generation,
/// and every fill starts a new generation, so a fill never zeroes what the
/// last one wrote: it costs the neighbourhood's size, not the graph's, and
/// nothing is allocated once the column has grown to the graph and the
/// candidate list to the widest neighbourhood. A cell keeps its sum and its
/// stamp side by side, so a read touches one cache line.
#[derive(Debug, Clone, Default)]
pub struct GammaColumn {
    /// `(sum, stamp)` per vertex.
    cells: Vec<(f64, u32)>,
    generation: u32,
    candidates: Vec<VertexId>,
}

impl GammaColumn {
    /// `Γ_C · ê_v`: `0.0` for a vertex with no edge into `C`, NaN for a
    /// member of `C` (no sum of finite weights is NaN, and a NaN score is
    /// never dense).
    #[inline]
    pub fn get(&self, v: VertexId) -> f64 {
        match self.cells.get(v.index()) {
            Some(&(sum, stamp)) if stamp == self.generation => sum,
            _ => 0.0,
        }
    }

    /// The vertices outside `C` with an edge into it, each once, in the order
    /// the fill first reached them (ascending after
    /// [`sort_candidates`](Self::sort_candidates)).
    pub fn candidates(&self) -> &[VertexId] {
        &self.candidates
    }

    /// The candidates with their sums, in [`candidates`](Self::candidates)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.candidates
            .iter()
            .map(|&u| (u, self.cells[u.index()].0))
    }

    /// Puts the candidate list in ascending vertex order.
    pub fn sort_candidates(&mut self) {
        self.candidates.sort_unstable();
    }

    /// Starts a fill over `len` cells: a new generation, no candidates.
    fn start(&mut self, len: usize) -> u32 {
        if self.cells.len() < len {
            self.cells.resize(len, (0.0, 0));
        }
        self.candidates.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a stamp left from 2^32 fills ago must not read as
            // current. Generation 0 is what fresh cells carry.
            for cell in &mut self.cells {
                cell.1 = 0;
            }
            self.generation = 1;
        }
        self.generation
    }
}

/// The evolving, complete weighted graph, stored sparsely as per-vertex
/// adjacency lists sorted by neighbour id (see the [module docs](self)).
///
/// Absent edges have weight `0.0`. Applying an [`EdgeUpdate`] adjusts a single
/// edge weight; weights that become (numerically) zero are pruned so that
/// `neighbors()` only reports genuinely connected vertices.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    adjacency: Vec<Vec<(VertexId, f64)>>,
    /// Bit `v % 64` of word `v / 64` is set exactly when `adjacency[v]` is
    /// non-empty; what [`edges`](Self::edges) walks.
    occupied: Vec<u64>,
    edge_count: usize,
    total_weight: f64,
}

impl DynamicGraph {
    /// Creates an empty graph with `n` vertices (`VertexId(0) .. VertexId(n-1)`).
    pub fn with_vertices(n: usize) -> Self {
        DynamicGraph {
            adjacency: vec![Vec::new(); n],
            occupied: vec![0; n.div_ceil(64)],
            edge_count: 0,
            total_weight: 0.0,
        }
    }

    /// Creates an empty graph with no vertices; vertices are added lazily by
    /// [`ensure_vertex`](Self::ensure_vertex) or when updates mention them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices currently allocated.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges with non-zero weight.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of all (non-zero) edge weights.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Ensures the vertex `v` exists, growing the vertex set if needed.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        assert!(
            !v.is_star(),
            "the fictitious * vertex cannot be materialised"
        );
        if v.index() >= self.adjacency.len() {
            self.adjacency.resize_with(v.index() + 1, Vec::new);
            self.occupied.resize(self.adjacency.len().div_ceil(64), 0);
        }
    }

    /// The adjacency list of `u`, ascending by neighbour id; empty for a
    /// vertex that does not exist.
    #[inline]
    fn adjacent(&self, u: VertexId) -> &[(VertexId, f64)] {
        self.adjacency.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// Current weight of the edge `(a, b)`; `0.0` if absent.
    #[inline]
    pub fn weight(&self, a: VertexId, b: VertexId) -> f64 {
        let adj = self.adjacent(a);
        adj.binary_search_by_key(&b, |&(v, _)| v)
            .map_or(0.0, |i| adj[i].1)
    }

    /// Degree of `u`: the number of neighbours with non-zero edge weight.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.adjacent(u).len()
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over the neighbours of `u` together with the edge weights, in
    /// ascending neighbour order.
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.adjacent(u).iter().copied()
    }

    /// The weighted "degree" of `u` with respect to subgraph `C`:
    /// `D_u = Γ_u · c = Σ_{j ∈ C} w_uj`, summed in ascending order of `j`.
    ///
    /// `set` must be sorted ascending (as [`VertexSet::as_slice`] is).
    pub fn degree_into(&self, u: VertexId, set: &[VertexId]) -> f64 {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        let adj = self.adjacent(u);
        // Walk the shorter side and search the longer; both are ascending, so
        // either way the shared neighbours are added in the same order.
        if set.len() <= adj.len() {
            set.iter()
                .filter_map(|&v| adj.binary_search_by_key(&v, |&(n, _)| n).ok())
                .fold(0.0, |sum, i| sum + adj[i].1)
        } else {
            adj.iter()
                .filter(|(v, _)| set.binary_search(v).is_ok())
                .fold(0.0, |sum, &(_, w)| sum + w)
        }
    }

    /// Stores `weight` for neighbour `v` in one adjacency list (removing the
    /// entry when `keep` is false), returning the weight stored before.
    fn store(adj: &mut Vec<(VertexId, f64)>, v: VertexId, weight: f64, keep: bool) -> f64 {
        match adj.binary_search_by_key(&v, |&(n, _)| n) {
            Ok(i) => {
                let old = adj[i].1;
                if keep {
                    adj[i].1 = weight;
                } else {
                    adj.remove(i);
                }
                old
            }
            Err(i) => {
                if keep {
                    adj.insert(i, (v, weight));
                }
                0.0
            }
        }
    }

    /// Sets the weight of edge `(a, b)` to an absolute value, returning the old
    /// weight.
    pub fn set_weight(&mut self, a: VertexId, b: VertexId, weight: f64) -> f64 {
        assert!(a != b, "self loops are not supported");
        assert!(weight.is_finite(), "edge weight must be finite");
        self.ensure_vertex(a);
        self.ensure_vertex(b);
        let has_edge = weight.abs() > WEIGHT_EPSILON;
        let old = Self::store(&mut self.adjacency[a.index()], b, weight, has_edge);
        Self::store(&mut self.adjacency[b.index()], a, weight, has_edge);
        // Only weights above the epsilon are ever stored.
        let had_edge = old != 0.0;
        if had_edge != has_edge {
            if has_edge {
                self.edge_count += 1;
            } else {
                self.edge_count -= 1;
            }
            for v in [a.index(), b.index()] {
                let bit = 1u64 << (v % 64);
                if self.adjacency[v].is_empty() {
                    self.occupied[v / 64] &= !bit;
                } else {
                    self.occupied[v / 64] |= bit;
                }
            }
        }
        self.total_weight += (if has_edge { weight } else { 0.0 }) - old;
        old
    }

    /// Applies an edge weight update, returning `(old_weight, new_weight)`.
    pub fn apply_update(&mut self, update: &EdgeUpdate) -> (f64, f64) {
        let old = self.weight(update.a, update.b);
        let new = old + update.delta;
        self.set_weight(update.a, update.b, new);
        (old, new)
    }

    /// The score of a subgraph: `score(C) = Σ_{i,j ∈ C, i<j} w_ij`.
    pub fn score(&self, set: &VertexSet) -> f64 {
        let vertices = set.as_slice();
        let mut score = 0.0;
        for (i, &u) in vertices.iter().enumerate() {
            for &v in &vertices[i + 1..] {
                score += self.weight(u, v);
            }
        }
        score
    }

    /// Computes the neighbourhood score vector `Γ_C` of a subgraph into
    /// `column`: for every vertex `u` outside `C`, the total weight
    /// `Γ_C · ê_u` of the edges between `u` and the members of `C`.
    ///
    /// This is exactly the quantity DynDens needs during exploration: the
    /// score of `C ∪ {u}` is `score(C) + Γ_C · ê_u` (footnote 6 of the paper).
    /// The members are stamped first, so they read NaN and are never listed;
    /// then each member's adjacency list, in ascending member order, is added
    /// in: a vertex's first touch stores its weight and lists it, later
    /// touches add to it. A stored weight is never zero, so the first store
    /// has the bits of `0.0 + w`, and each sum runs over the members in
    /// ascending member order (see the [module docs](self) for why that order
    /// matters).
    ///
    /// `set` must be sorted ascending (as [`VertexSet::as_slice`] is). The
    /// column grows to cover the graph's vertices and every member.
    pub fn neighborhood_into(&self, set: &[VertexId], column: &mut GammaColumn) {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        let len = set.last().map_or(0, |m| m.index() + 1);
        let generation = column.start(len.max(self.vertex_count()));
        for &member in set {
            column.cells[member.index()] = (f64::NAN, generation);
        }
        for &member in set {
            for &(u, w) in self.adjacent(member) {
                let cell = &mut column.cells[u.index()];
                if cell.1 == generation {
                    cell.0 += w;
                } else {
                    *cell = (w, generation);
                    column.candidates.push(u);
                }
            }
        }
    }

    /// Iterates over every edge `(a, b, w)` with `a < b` and non-zero weight,
    /// in ascending `(a, b)` order, visiting only the vertices that have one.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        let occupied = self.occupied.iter().enumerate().flat_map(|(at, &word)| {
            // The set bits of `word`, lowest first.
            std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| at * 64 + rest.trailing_zeros() as usize)
        });
        occupied.flat_map(|i| {
            let (a, adj) = (VertexId(i as u32), &self.adjacency[i]);
            let above = adj.partition_point(|&(b, _)| b < a);
            adj[above..].iter().map(move |&(b, w)| (a, b, w))
        })
    }

    /// The eviction victim list for a weight floor: one cancelling update
    /// `(a, b, -w)` per edge whose weight `w` is at or below `min_weight`, in
    /// the ascending `(a, b)` order of [`edges`](Self::edges). Applying the
    /// list removes exactly those edges. This is the only definition of the
    /// victim set; every graph-backed engine's `edges_below` is this call.
    pub fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        self.edges()
            .filter(|&(_, _, w)| w <= min_weight)
            .map(|(a, b, w)| EdgeUpdate::new(a, b, -w))
            .collect()
    }

    /// Releases the heap capacity held by the adjacency lists of isolated
    /// vertices (degree zero), returning how many vertices are currently
    /// isolated.
    ///
    /// The vertex array itself never shrinks — vertex ids are global and the
    /// snapshot format records `vertex_count` — but a list that grew while its
    /// vertex was connected keeps its capacity after decay empties it. On a
    /// forever-run with eviction this capacity is the dominant memory leak;
    /// swapping each empty list for a fresh one returns it to the allocator
    /// without any observable state change.
    pub fn reclaim_isolated(&mut self) -> usize {
        let mut isolated = 0;
        for adj in &mut self.adjacency {
            if adj.is_empty() {
                isolated += 1;
                if adj.capacity() > 0 {
                    *adj = Vec::new();
                }
            }
        }
        isolated
    }

    /// Returns whether the subgraph induced by `set` is connected (considering
    /// only edges with non-zero weight). Singleton and empty sets are
    /// considered connected.
    pub fn is_connected(&self, set: &VertexSet) -> bool {
        if set.len() <= 1 {
            return true;
        }
        let mut visited = VertexSet::new();
        let start = set.as_slice()[0];
        let mut stack = vec![start];
        visited.insert(start);
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if set.contains(v) && visited.insert(v) {
                    stack.push(v);
                }
            }
        }
        visited.len() == set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> DynamicGraph {
        // The execution-example graph of Figure 2(a) uses 5 vertices; we build a
        // small weighted graph here.
        let mut g = DynamicGraph::with_vertices(5);
        g.set_weight(VertexId(0), VertexId(1), 1.0);
        g.set_weight(VertexId(0), VertexId(2), 0.5);
        g.set_weight(VertexId(1), VertexId(2), 2.0);
        g.set_weight(VertexId(3), VertexId(4), 0.25);
        g
    }

    #[test]
    fn weights_and_counts() {
        let g = sample_graph();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.weight(VertexId(0), VertexId(1)), 1.0);
        assert_eq!(g.weight(VertexId(1), VertexId(0)), 1.0);
        assert_eq!(g.weight(VertexId(0), VertexId(3)), 0.0);
        assert_eq!(g.weight(VertexId(2), VertexId(2)), 0.0);
        assert!((g.total_weight() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn set_weight_returns_old_and_prunes_zero() {
        let mut g = sample_graph();
        let old = g.set_weight(VertexId(0), VertexId(1), 0.0);
        assert_eq!(old, 1.0);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(VertexId(0)), 1);
        assert_eq!(g.weight(VertexId(0), VertexId(1)), 0.0);
    }

    #[test]
    fn apply_update_accumulates() {
        let mut g = DynamicGraph::with_vertices(3);
        let u = EdgeUpdate::new(VertexId(0), VertexId(1), 0.75);
        let (old, new) = g.apply_update(&u);
        assert_eq!((old, new), (0.0, 0.75));
        let (old, new) = g.apply_update(&EdgeUpdate::new(VertexId(1), VertexId(0), -0.25));
        assert_eq!((old, new), (0.75, 0.5));
        assert_eq!(g.weight(VertexId(0), VertexId(1)), 0.5);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut g = DynamicGraph::new();
        assert_eq!(g.vertex_count(), 0);
        g.set_weight(VertexId(7), VertexId(2), 1.5);
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.degree(VertexId(7)), 1);
        assert_eq!(g.degree(VertexId(6)), 0);
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn score_and_neighborhood() {
        let g = sample_graph();
        let c = VertexSet::from_ids(&[0, 1, 2]);
        assert!((g.score(&c) - 3.5).abs() < 1e-12);

        let mut gamma = GammaColumn::default();
        g.neighborhood_into(&[VertexId(0)], &mut gamma);
        assert_eq!(
            gamma.iter().collect::<Vec<_>>(),
            [(VertexId(1), 1.0), (VertexId(2), 0.5)]
        );
        // Every neighbour of {0, 1, 2} is a member: nothing is listed, the
        // members read NaN, and what the last fill listed reads 0.0 again.
        g.neighborhood_into(c.as_slice(), &mut gamma);
        assert!(gamma.candidates().is_empty());
        assert!(gamma.get(VertexId(1)).is_nan());
        assert_eq!(gamma.get(VertexId(3)), 0.0);
        // A member beyond the vertex array reads NaN too.
        g.neighborhood_into(&[VertexId(3), VertexId(77)], &mut gamma);
        assert_eq!(gamma.iter().collect::<Vec<_>>(), [(VertexId(4), 0.25)]);
        assert!(gamma.get(VertexId(77)).is_nan());
        assert_eq!(gamma.get(VertexId(1)), 0.0);
        assert_eq!(gamma.get(VertexId(78)), 0.0);

        // growing by a disconnected vertex leaves the score unchanged
        let c34 = VertexSet::from_ids(&[0, 1, 2, 3]);
        assert!((g.score(&c34) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn no_stamp_reads_as_current_after_the_generation_wraps() {
        let g = sample_graph();
        let mut gamma = GammaColumn::default();
        // Generation 1 lists 1 and 2 around {0}.
        g.neighborhood_into(&[VertexId(0)], &mut gamma);
        assert_eq!(gamma.generation, 1);
        // 2^32 - 2 fills later the next one wraps back to generation 1, the
        // stamps that {0}'s fill left on 1 and 2 included.
        gamma.generation = u32::MAX;
        g.neighborhood_into(&[VertexId(3)], &mut gamma);
        assert_eq!(gamma.generation, 1);
        assert_eq!(gamma.iter().collect::<Vec<_>>(), [(VertexId(4), 0.25)]);
        for v in [0, 1, 2] {
            assert_eq!(gamma.get(VertexId(v)), 0.0, "stale cell {v}");
        }
    }

    #[test]
    fn degree_into_subgraph() {
        let g = sample_graph();
        let c = [VertexId(0), VertexId(1)];
        assert!((g.degree_into(VertexId(2), &c) - 2.5).abs() < 1e-12);
        assert!((g.degree_into(VertexId(0), &c) - 1.0).abs() < 1e-12);
        assert_eq!(g.degree_into(VertexId(4), &c), 0.0);
        assert_eq!(g.degree_into(VertexId(100), &c), 0.0);
    }

    #[test]
    fn degree_into_does_not_depend_on_insertion_history() {
        // Regression: the large-set arm used to sum in hash-map iteration
        // order, so equal graphs built in different orders could disagree in
        // the last bit. Weights chosen so that addition order shows.
        let hub = VertexId(0);
        let weight = |v: u32| 0.1 + 1.0 / f64::from(v) + f64::from(v % 7) * 1e-9;
        let mut forward = DynamicGraph::new();
        let mut backward = DynamicGraph::new();
        for v in 1..=60u32 {
            forward.set_weight(hub, VertexId(v), weight(v));
            backward.set_weight(VertexId(61 - v), hub, weight(61 - v));
        }
        // A detour through a pruned edge must leave no trace either.
        backward.set_weight(hub, VertexId(99), 4.0);
        backward.set_weight(hub, VertexId(99), 0.0);
        let large = VertexSet::from_vertices((11..=50).map(VertexId)); // 40 < degree 60
        let larger = VertexSet::from_vertices((1..=80).map(VertexId)); // 80 > degree 60
        for set in [&large, &larger] {
            assert_eq!(
                forward.degree_into(hub, set.as_slice()).to_bits(),
                backward.degree_into(hub, set.as_slice()).to_bits()
            );
        }
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = sample_graph();
        let edges: Vec<(u32, u32)> = g.edges().map(|(a, b, _)| (a.0, b.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    fn connectivity() {
        let g = sample_graph();
        assert!(g.is_connected(&VertexSet::from_ids(&[0, 1, 2])));
        assert!(!g.is_connected(&VertexSet::from_ids(&[0, 1, 3])));
        assert!(g.is_connected(&VertexSet::from_ids(&[3])));
        assert!(g.is_connected(&VertexSet::new()));
    }

    #[test]
    fn reclaim_isolated_counts_and_releases() {
        let mut g = sample_graph();
        // Vertices 0..5 all connected except none isolated yet.
        assert_eq!(g.reclaim_isolated(), 0);
        // Remove vertex 3/4's only edge: both become isolated.
        g.set_weight(VertexId(3), VertexId(4), 0.0);
        assert_eq!(g.reclaim_isolated(), 2);
        // Reclaim is observationally inert: weights and counts are unchanged.
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.weight(VertexId(0), VertexId(1)), 1.0);
        assert_eq!(g.vertex_count(), 5, "the vertex array never shrinks");
        // The vertex can be reconnected afterwards.
        g.set_weight(VertexId(3), VertexId(0), 0.5);
        assert_eq!(g.reclaim_isolated(), 1);
        assert_eq!(g.degree(VertexId(3)), 1);
    }

    #[test]
    #[should_panic(expected = "fictitious")]
    fn star_vertex_cannot_be_materialised() {
        let mut g = DynamicGraph::new();
        g.ensure_vertex(VertexId::STAR);
    }
}
