//! Engine-owned working memory for the per-update exploration kernel.
//!
//! Exploration is recursive (`explore` iterates a candidate list while
//! recursing into the candidates), so a frame cannot borrow one shared
//! buffer. Instead each frame *takes* the buffers it needs out of a
//! [`Pool`] and gives them back when it is done; nested frames take their
//! own. Once the pools have grown to the deepest recursion and the widest
//! neighbourhood an engine meets, an update that discovers nothing
//! allocates nothing.
//!
//! The one thing here that is more than a buffer is [`Scratch::explored`],
//! the per-update memory of the once-per-update rule for subgraphs that have
//! no index node (see `DynDens::explore_once`).

use dyndens_graph::{DynamicGraph, FxHashSet, VertexId};

use crate::index::{NodeId, SubgraphIndex, Walk};

/// A stack of reusable buffers.
#[derive(Debug)]
pub(crate) struct Pool<T>(Vec<Vec<T>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<T> Pool<T> {
    /// An empty buffer, with whatever capacity its last user left it.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Hands a buffer back; forgetting to only costs its capacity.
    pub(crate) fn give(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.0.push(buf);
    }
}

/// The engine's scratch space. Carries no state between updates: cloning,
/// snapshotting or dropping it never changes what the engine computes — so a
/// clone starts empty instead of copying buffers it would only overwrite.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Index node lists (the `*` bases of a positive update).
    pub(crate) nodes: Pool<NodeId>,
    /// Vertex paths of the subgraphs being explored and of their extensions.
    pub(crate) verts: Pool<VertexId>,
    /// Merged neighbourhoods `Γ_C`.
    pub(crate) gammas: Pool<(VertexId, f64)>,
    /// The subgraphs an update touches, in vertex-set order, with their
    /// paths: one walk per update, never nested.
    pub(crate) walk: Walk,
    /// The graph's canonical edge list, valid while `edges_fresh`. The graph
    /// does not change between `graph.apply_update` and the end of that
    /// update's exploration, so the disjoint-edge steps of one update share
    /// a single walk over the adjacency lists.
    edges: Vec<(VertexId, VertexId, f64)>,
    edges_fresh: bool,
    /// The `(path key, iteration)` of every exploration the current positive
    /// update ran on a subgraph without an index node. Cleared, capacity
    /// kept, when the next positive update starts.
    pub(crate) explored: FxHashSet<([u32; SubgraphIndex::PATH_KEY_WIDTH], u32)>,
    /// Dense per-vertex columns, all `0.0` while pooled, for the disjoint-edge
    /// scans and cheap exploration (see [`scatter`](Self::scatter)).
    columns: Vec<Vec<f64>>,
    /// Every exploration that ran: vertex path, iteration, and whether the
    /// path had an index node then.
    #[cfg(test)]
    pub(crate) trace: Vec<(Vec<VertexId>, usize, bool)>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl Scratch {
    /// `Γ_C` as a dense column over `n_vertices` cells — `0.0` for a vertex
    /// with no edge into `C`, NaN for the members of `C` (no sum of finite
    /// weights is NaN short of overflowing, and a NaN score would not be
    /// dense either) — which a scan over the whole edge list reads with two
    /// loads per edge instead of four binary searches. With one vertex's
    /// adjacency for `gamma` and no members it is that vertex's weights,
    /// which cheap exploration sums over a path. Hand it back through
    /// [`gather`](Self::gather) with the same arguments.
    pub(crate) fn scatter(
        &mut self,
        n_vertices: usize,
        gamma: impl IntoIterator<Item = (VertexId, f64)>,
        members: &[VertexId],
    ) -> Vec<f64> {
        let mut column = self.columns.pop().unwrap_or_default();
        if column.len() < n_vertices {
            column.resize(n_vertices, 0.0);
        }
        for (v, gamma_v) in gamma {
            column[v.index()] = gamma_v;
        }
        for &v in members {
            column[v.index()] = f64::NAN;
        }
        column
    }

    /// Zeroes the cells [`scatter`](Self::scatter) wrote — work sized by the
    /// neighbourhood, not the graph — and pools the column.
    pub(crate) fn gather(
        &mut self,
        mut column: Vec<f64>,
        gamma: impl IntoIterator<Item = (VertexId, f64)>,
        members: &[VertexId],
    ) {
        for v in gamma
            .into_iter()
            .map(|(v, _)| v)
            .chain(members.iter().copied())
        {
            column[v.index()] = 0.0;
        }
        self.columns.push(column);
    }

    /// Must be called whenever the graph changed.
    pub(crate) fn invalidate_edges(&mut self) {
        self.edges_fresh = false;
    }

    /// The edges of `graph`, ascending in `(a, b)`.
    pub(crate) fn edges(&mut self, graph: &DynamicGraph) -> &[(VertexId, VertexId, f64)] {
        if !self.edges_fresh {
            self.edges.clear();
            self.edges.extend(graph.edges());
            self.edges_fresh = true;
        }
        &self.edges
    }
}
