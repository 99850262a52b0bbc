//! Engine-owned working memory for the per-update exploration kernel.
//!
//! Exploration is recursive (`explore` iterates a candidate list while
//! recursing into the candidates), so a frame cannot borrow one shared
//! buffer. Instead each frame *takes* the buffers it needs out of a
//! [`Pool`] and gives them back when it is done; nested frames take their
//! own. Once the pools have grown to the deepest recursion and the widest
//! neighbourhood an engine meets, an update that discovers nothing
//! allocates nothing.

use dyndens_graph::{DynamicGraph, VertexId};

use crate::index::{NodeId, SubgraphIndex};

/// A stack of reusable buffers.
#[derive(Debug, Clone)]
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
/// snapshotting or dropping it never changes what the engine computes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Index node lists (affected subgraphs, `*` bases, traversal stacks).
    pub(crate) nodes: Pool<NodeId>,
    /// Vertex paths of the subgraphs being explored and of their extensions.
    pub(crate) verts: Pool<VertexId>,
    /// Merged neighbourhoods `Γ_C`.
    pub(crate) gammas: Pool<(VertexId, f64)>,
    /// Sort keys of `DynDens::canonical_order`.
    pub(crate) keyed: Vec<([u32; SubgraphIndex::PATH_KEY_WIDTH], NodeId)>,
    /// The graph's canonical edge list, valid while `edges_fresh`. The graph
    /// does not change between `graph.apply_update` and the end of that
    /// update's exploration, so the disjoint-edge steps of one update share
    /// a single walk over the adjacency lists.
    edges: Vec<(VertexId, VertexId, f64)>,
    edges_fresh: bool,
}

impl Scratch {
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
