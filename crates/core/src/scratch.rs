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

use dyndens_graph::{DynamicGraph, FxHashSet, GammaColumn, VertexId};

use crate::index::{NodeId, SubgraphIndex, Walk};

/// A buffer a [`Pool`] can hand out again.
pub(crate) trait Reuse: Default {
    /// Forgets the contents, keeping the capacity.
    fn reset(&mut self);
}

impl<T> Reuse for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

impl Reuse for GammaColumn {
    /// Nothing to forget: the next fill starts a new generation.
    fn reset(&mut self) {}
}

/// A stack of reusable buffers.
#[derive(Debug)]
pub(crate) struct Pool<B>(Vec<B>);

impl<B> Default for Pool<B> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<B: Reuse> Pool<B> {
    /// A reset buffer, with whatever capacity its last user left it.
    pub(crate) fn take(&mut self) -> B {
        self.0.pop().unwrap_or_default()
    }

    /// Hands a buffer back; forgetting to only costs its capacity.
    pub(crate) fn give(&mut self, mut buf: B) {
        buf.reset();
        self.0.push(buf);
    }
}

/// The engine's scratch space. Carries no state between updates: cloning,
/// snapshotting or dropping it never changes what the engine computes — so a
/// clone starts empty instead of copying buffers it would only overwrite.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Index node lists (the `*` bases of a positive update).
    pub(crate) nodes: Pool<Vec<NodeId>>,
    /// Vertex paths of the subgraphs being explored and of their extensions.
    pub(crate) verts: Pool<Vec<VertexId>>,
    /// `Γ_C` columns: one per exploring frame, and the columns of `{a}` and
    /// `{b}` that cheap exploration reads for the length of an update.
    pub(crate) columns: Pool<GammaColumn>,
    /// The candidates a frame acts on, with their `Γ_C · ê_y`, sorted by
    /// vertex before it acts.
    pub(crate) picks: Pool<Vec<(VertexId, f64)>>,
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
