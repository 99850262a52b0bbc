//! The dense subgraph index: a prefix tree over sorted vertex sets with
//! per-vertex posting lists (Section 3.2.1 of the paper).
//!
//! Every maintained subgraph is stored as a path from the root of the tree,
//! following its vertices in ascending order; the node at the end of the path
//! carries the subgraph's [`SubgraphInfo`]. Because dense subgraphs overlap
//! heavily, shared prefixes are stored once, keeping the memory footprint low.
//!
//! To iterate efficiently over the subgraphs containing a given vertex `u`,
//! `u` has a posting list: the node of every stored subgraph whose path
//! passes through a node labelled `u`, which is every stored subgraph
//! containing `u`. The paper threads its per-vertex inverted lists through
//! the tree nodes and walks each listed node's subtree; a posting list names
//! the subgraphs themselves, so a walk costs the length of the lists it
//! reads. A subgraph is filed under each of its vertices when its node gains
//! its info, and taken out when the node loses it. All lists share one
//! buffer, so that filing allocates nothing per vertex: a snapshot restore
//! files every subgraph of the engine.
//!
//! Too-dense subgraphs may additionally carry a `*` marker (the
//! `ImplicitTooDense` optimisation of Section 3.2.3): the marker represents
//! all one-vertex extensions of the subgraph without materialising them.
//! Marked nodes are tracked in a separate list, kept in vertex-set order, so
//! the engine can iterate over them canonically on every update (the paper's
//! `*` inverted list).
//!
//! ## Walks in vertex-set order
//!
//! The engine visits the subgraphs an update touches in vertex-set order
//! (lexicographic over the ascending paths, a prefix before its
//! extensions), so that what it computes depends on which subgraphs exist
//! and never on the arena history that placed them. Every posting list is
//! kept strictly ascending in that order where it changes: an insert
//! appends when the subgraph sorts after the greatest stored one (as each
//! one does on a snapshot restore, which files subgraphs in vertex-set
//! order) and binary-searches its place otherwise; a remove finds its entry
//! the same way. The two walks
//! ([`subgraphs_containing_either`](SubgraphIndex::subgraphs_containing_either)
//! and [`subgraphs_containing_both`](SubgraphIndex::subgraphs_containing_both))
//! then hand out an update's subgraphs in order without sorting them. For an
//! update on `(a, b)`:
//!
//! * the subgraphs containing `a` or `b` are the union of the two lists,
//!   and the ordered merge of two ascending lists is ascending. The flags
//!   come from list membership: an entry of `a`'s list contains `a`, one of
//!   `b`'s contains `b`, and one in both — the merge meets the same node at
//!   both heads — contains both and comes out once;
//! * the subgraphs containing both are the intersection: the shorter list's
//!   entries that contain the other endpoint, a subsequence of an ascending
//!   list and so ascending.
//!
//! Entries are compared by the [`path_key`](SubgraphIndex::path_key) every
//! node caches — its path's first 12 vertices, written once when the node
//! is allocated, from its parent's, since a node's path never changes while
//! it is in use. Two keys tie only when both paths reach past that width
//! (`Nmax > 12`) with the same head; such entries compare as materialised
//! vertex sets. Each entry's path is read from its key too. The walks write
//! into a caller-owned [`Walk`] and allocate nothing once it has grown to
//! size.

use std::cmp::Ordering;

use dyndens_graph::{VertexId, VertexSet};

/// Identifier of a node in the prefix tree (an index into the node arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    const ROOT: NodeId = NodeId(0);

    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Per-subgraph information stored at the node terminating the subgraph's
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgraphInfo {
    /// The subgraph's score `Σ w_ij` over its internal edges.
    pub score: f64,
    /// The update epoch at which the subgraph was inserted (used to
    /// distinguish newly-dense subgraphs from pre-existing ones within a
    /// single update).
    pub discovered_epoch: u64,
    /// The exploration iteration at which the subgraph was discovered within
    /// its discovery epoch (Section 3.2.2, point ii).
    pub discovered_iteration: u32,
}

impl SubgraphInfo {
    /// Creates the info record for a subgraph discovered outside of any
    /// exploration (epoch and iteration 0).
    pub fn with_score(score: f64) -> Self {
        SubgraphInfo {
            score,
            discovered_epoch: 0,
            discovered_iteration: 0,
        }
    }
}

/// A fixed-width vertex path: see [`SubgraphIndex::path_key`].
type PathKey = [u32; SubgraphIndex::PATH_KEY_WIDTH];

#[derive(Debug, Clone)]
struct Node {
    vertex: VertexId,
    parent: NodeId,
    depth: u32,
    /// The first `PATH_KEY_WIDTH` vertices of the path, zero-padded.
    key: PathKey,
    /// Children sorted by vertex id for binary search.
    children: Vec<(VertexId, NodeId)>,
    info: Option<SubgraphInfo>,
    /// `ImplicitTooDense` marker: this subgraph is too-dense and its
    /// one-vertex extensions are represented implicitly. Marked nodes are
    /// listed in `SubgraphIndex::star_bases`.
    star: bool,
    in_use: bool,
}

impl Node {
    fn new(vertex: VertexId, parent: NodeId, depth: u32, key: PathKey) -> Self {
        Node {
            vertex,
            parent,
            depth,
            key,
            children: Vec::new(),
            info: None,
            star: false,
            in_use: true,
        }
    }
}

/// One subgraph handed out by a walk, with what the walk learned on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affected {
    /// The subgraph's node.
    pub id: NodeId,
    /// `true` if the subgraph contains the walk's `a`.
    pub contains_a: bool,
    /// `true` if the subgraph contains the walk's `b`.
    pub contains_b: bool,
    /// Where [`Walk::path`] finds its vertices.
    path: (u32, u32),
}

/// The subgraphs a walk of [`SubgraphIndex`] found, in vertex-set order
/// (see the [module docs](self)), with their paths. Reused across walks, it
/// stops allocating once it has grown to size.
#[derive(Debug, Clone, Default)]
pub struct Walk {
    entries: Vec<Affected>,
    /// Every entry's vertex path, back to back.
    paths: Vec<VertexId>,
}

impl Walk {
    /// The subgraphs found, in vertex-set order.
    pub fn entries(&self) -> &[Affected] {
        &self.entries
    }

    /// The vertices of `entry`, ascending.
    pub fn path(&self, entry: &Affected) -> &[VertexId] {
        &self.paths[entry.path.0 as usize..entry.path.1 as usize]
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.paths.clear();
    }

    /// Appends the subgraph at `id` with its path from `index`.
    fn push(&mut self, index: &SubgraphIndex, id: NodeId, contains_a: bool, contains_b: bool) {
        let start = self.paths.len() as u32;
        index.append_path(id, &mut self.paths);
        self.entries.push(Affected {
            id,
            contains_a,
            contains_b,
            path: (start, self.paths.len() as u32),
        });
    }
}

/// The per-vertex posting lists, all in one buffer so that filing a
/// subgraph allocates nothing per vertex: vertex `v`'s list is the first
/// `len` of the `cap` slots at `pool[start..]`. A full list moves to a
/// block of twice its size at the end of the pool, and the block it leaves
/// is never reused, so a list's abandoned blocks add up to less than the
/// one it holds.
#[derive(Debug, Clone, Default)]
struct Postings {
    spans: Vec<Span>,
    pool: Vec<NodeId>,
}

/// Where one vertex's posting list sits in [`Postings::pool`].
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Postings {
    /// `v`'s list.
    fn get(&self, v: VertexId) -> &[NodeId] {
        match self.spans.get(v.0 as usize) {
            Some(span) => &self.pool[span.start as usize..][..span.len as usize],
            None => &[],
        }
    }

    /// Puts `id` at position `at` of `v`'s list.
    fn insert(&mut self, v: VertexId, at: usize, id: NodeId) {
        let v = v.0 as usize;
        if v >= self.spans.len() {
            self.spans.resize(v + 1, Span::default());
        }
        let span = &mut self.spans[v];
        if span.len == span.cap {
            let (old, start) = (span.start as usize, self.pool.len());
            let cap = (span.cap * 2).max(4);
            self.pool.extend_from_within(old..old + span.len as usize);
            self.pool.resize(start + cap as usize, NodeId::ROOT);
            span.start = u32::try_from(start).expect("posting pool offsets fit in u32");
            span.cap = cap;
        }
        let list = &mut self.pool[span.start as usize..][..=span.len as usize];
        list.copy_within(at..list.len() - 1, at + 1);
        list[at] = id;
        span.len += 1;
    }

    /// Takes position `at` out of `v`'s list.
    fn remove(&mut self, v: VertexId, at: usize) {
        let span = &mut self.spans[v.0 as usize];
        let list = &mut self.pool[span.start as usize..][..span.len as usize];
        list.copy_within(at + 1.., at);
        span.len -= 1;
    }
}

/// The dense subgraph index.
#[derive(Debug, Clone)]
pub struct SubgraphIndex {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    /// Posting lists, by vertex id: every stored subgraph containing the
    /// vertex, strictly ascending in vertex-set order
    /// ([`path_order`](Self::path_order)).
    postings: Postings,
    /// The greatest stored subgraph in vertex-set order, while that is
    /// known (removing it forgets it until the index is empty again): a
    /// subgraph that sorts after it sorts after every list's last entry, so
    /// filing it costs one comparison and an append per vertex. A snapshot
    /// restore, which inserts in vertex-set order, files every subgraph so.
    greatest: Option<NodeId>,
    /// Nodes currently carrying a `*` marker, strictly ascending in
    /// vertex-set order ([`path_order`](Self::path_order)): markers change
    /// rarely and are walked on every positive update, so the list is kept
    /// canonical where it changes instead of sorted where it is read.
    star_bases: Vec<NodeId>,
    /// Number of subgraphs (nodes with info).
    len: usize,
}

impl Default for SubgraphIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl SubgraphIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        // Node 0 is the root; its vertex label is never read.
        let root = Node::new(
            VertexId(u32::MAX - 1),
            NodeId::ROOT,
            0,
            [0; Self::PATH_KEY_WIDTH],
        );
        SubgraphIndex {
            nodes: vec![root],
            free: Vec::new(),
            postings: Postings::default(),
            greatest: None,
            star_bases: Vec::new(),
            len: 0,
        }
    }

    /// Number of subgraphs stored in the index.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the index stores no subgraphs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated tree nodes (root excluded); exposed for memory
    /// accounting in benchmarks and for white-box tests.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.in_use).count() - 1
    }

    fn node(&self, id: NodeId) -> &Node {
        debug_assert!(self.nodes[id.idx()].in_use, "dangling NodeId");
        &self.nodes[id.idx()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        debug_assert!(self.nodes[id.idx()].in_use, "dangling NodeId");
        &mut self.nodes[id.idx()]
    }

    fn child_of(&self, id: NodeId, v: VertexId) -> Option<NodeId> {
        let node = self.node(id);
        node.children
            .binary_search_by_key(&v, |&(cv, _)| cv)
            .ok()
            .map(|i| node.children[i].1)
    }

    fn alloc_node(&mut self, vertex: VertexId, parent: NodeId, depth: u32) -> NodeId {
        // The parent's path plus `vertex`: a node's path is fixed while it is
        // in use, and a reused slot is re-keyed here.
        let mut key = self.node(parent).key;
        if let Some(at) = key.get_mut(depth as usize - 1) {
            *at = vertex.0;
        }
        let node = Node::new(vertex, parent, depth, key);
        match self.free.pop() {
            Some(id) => {
                self.nodes[id.idx()] = node;
                id
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(node);
                id
            }
        }
    }

    /// Takes the subgraph at `id` out of the posting list of every vertex on
    /// its path.
    fn unpost(&mut self, id: NodeId) {
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            let (v, parent) = (n.vertex, n.parent);
            let at = self
                .postings
                .get(v)
                .binary_search_by(|&x| self.path_order(x, id))
                .expect("a stored subgraph is filed under each of its vertices");
            self.postings.remove(v, at);
            cur = parent;
        }
    }

    /// Finds the tree node for the exact vertex path, whether or not it
    /// carries subgraph info.
    fn find_node(&self, vertices: &[VertexId]) -> Option<NodeId> {
        let mut cur = NodeId::ROOT;
        for &v in vertices {
            cur = self.child_of(cur, v)?;
        }
        Some(cur)
    }

    /// Finds the subgraph with exactly these (sorted, duplicate-free)
    /// vertices, returning its node if it is stored in the index.
    pub fn find(&self, vertices: &[VertexId]) -> Option<NodeId> {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertices must be sorted"
        );
        let id = self.find_node(vertices)?;
        self.node(id).info.map(|_| id)
    }

    /// Inserts (or overwrites) the subgraph with the given sorted vertices.
    /// Returns its node id.
    pub fn insert(&mut self, vertices: &[VertexId], info: SubgraphInfo) -> NodeId {
        debug_assert!(vertices.len() >= 2, "subgraphs have cardinality >= 2");
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertices must be sorted"
        );
        let mut cur = NodeId::ROOT;
        for (depth, &v) in vertices.iter().enumerate() {
            cur = match self.child_of(cur, v) {
                Some(c) => c,
                None => {
                    let child = self.alloc_node(v, cur, depth as u32 + 1);
                    let parent = &mut self.nodes[cur.idx()];
                    let pos = parent
                        .children
                        .binary_search_by_key(&v, |&(cv, _)| cv)
                        .unwrap_err();
                    parent.children.insert(pos, (v, child));
                    child
                }
            };
        }
        // An overwrite is already filed. A new subgraph goes into each of
        // its vertices' lists: at the end when it is the greatest, where a
        // binary search puts it otherwise.
        if self.node_mut(cur).info.replace(info).is_none() {
            self.len += 1;
            let last = match self.greatest {
                Some(greatest) => self.path_order(greatest, cur).is_lt(),
                None => self.len == 1,
            };
            if last {
                self.greatest = Some(cur);
            }
            for &v in vertices {
                let list = self.postings.get(v);
                let at = if last {
                    list.len()
                } else {
                    list.partition_point(|&x| self.path_order(x, cur).is_lt())
                };
                self.postings.insert(v, at, cur);
            }
        }
        cur
    }

    /// Stores an entry copied from another index: the subgraph with its
    /// info record and, when `star`, its `*` marker. How a split, a merge
    /// and a snapshot restore move entries between indexes.
    pub(crate) fn insert_copy(&mut self, vertices: &[VertexId], info: SubgraphInfo, star: bool) {
        let id = self.insert(vertices, info);
        self.set_star(id, star);
    }

    /// Removes the subgraph stored at `id` from the index, pruning any tree
    /// nodes that no longer serve a purpose. The `*` marker, if present, is
    /// removed as well.
    pub fn remove(&mut self, id: NodeId) {
        if self.node(id).info.is_some() {
            self.len -= 1;
            self.unpost(id);
            if self.greatest == Some(id) {
                self.greatest = None;
            }
        }
        self.node_mut(id).info = None;
        self.set_star(id, false);
        // Prune upwards while the node is an info-less, childless, non-root leaf.
        let mut cur = id;
        while cur != NodeId::ROOT {
            let (prune, parent, vertex) = {
                let n = self.node(cur);
                (
                    n.info.is_none() && n.children.is_empty() && !n.star,
                    n.parent,
                    n.vertex,
                )
            };
            if !prune {
                break;
            }
            let parent_node = &mut self.nodes[parent.idx()];
            if let Ok(pos) = parent_node
                .children
                .binary_search_by_key(&vertex, |&(cv, _)| cv)
            {
                parent_node.children.remove(pos);
            }
            self.nodes[cur.idx()].in_use = false;
            self.free.push(cur);
            cur = parent;
        }
    }

    /// The vertices of the subgraph (or tree node) `id`, obtained by walking
    /// the parent pointers.
    pub fn vertices(&self, id: NodeId) -> VertexSet {
        let mut vs = Vec::with_capacity(self.node(id).depth as usize);
        self.path_into(id, &mut vs);
        VertexSet::from_vertices(vs)
    }

    /// Writes the vertices of the subgraph (or tree node) `id` into `out`
    /// (cleared first), ascending: [`vertices`](Self::vertices) without the
    /// allocation, for callers that only need a slice.
    pub fn path_into(&self, id: NodeId, out: &mut Vec<VertexId>) {
        out.clear();
        self.append_path(id, out);
    }

    /// Appends the vertices of `id` to `out`, ascending.
    fn append_path(&self, id: NodeId, out: &mut Vec<VertexId>) {
        if let Some(path) = self.key_path(id) {
            out.extend(path.iter().map(|&v| VertexId(v)));
            return;
        }
        let start = out.len();
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            out.push(n.vertex);
            cur = n.parent;
        }
        out[start..].reverse();
    }

    /// The cardinality of the subgraph at `id`.
    #[inline]
    pub fn cardinality(&self, id: NodeId) -> usize {
        self.node(id).depth as usize
    }

    /// Width of the fixed-size canonical [`path_key`](Self::path_key).
    pub const PATH_KEY_WIDTH: usize = 12;

    /// A fixed-width, allocation-free encoding of the node's vertex path,
    /// zero-padded at the tail. Key order equals lexicographic vertex-set
    /// order, and distinct paths map to distinct keys: paths are strictly
    /// ascending vertex sequences, so no real path can continue with
    /// another `0` once a vertex has been emitted. Returns `None` for paths
    /// deeper than the key width (callers fall back to materialising the
    /// vertex sets).
    ///
    /// Every node caches its key, so this is a load: what the posting lists,
    /// publication and the `*` list order by.
    pub fn path_key(&self, id: NodeId) -> Option<PathKey> {
        self.key_path(id).map(|_| self.node(id).key)
    }

    /// The node's path as the used part of its cached key, when it fits.
    fn key_path(&self, id: NodeId) -> Option<&[u32]> {
        let n = self.node(id);
        n.key.get(..n.depth as usize)
    }

    /// `true` if the subgraph at `id` contains vertex `v`.
    pub fn contains_vertex(&self, id: NodeId, v: VertexId) -> bool {
        if let Some(path) = self.key_path(id) {
            return path.binary_search(&v.0).is_ok();
        }
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            if n.vertex == v {
                return true;
            }
            // Paths are sorted ascending, so once we walk past `v` we can stop.
            if n.vertex < v {
                return false;
            }
            cur = n.parent;
        }
        false
    }

    /// The info record of the subgraph at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a structural tree node without subgraph info.
    pub fn info(&self, id: NodeId) -> &SubgraphInfo {
        self.node(id)
            .info
            .as_ref()
            .expect("node does not store a subgraph")
    }

    /// Mutable access to the info record of the subgraph at `id`.
    pub fn info_mut(&mut self, id: NodeId) -> &mut SubgraphInfo {
        self.node_mut(id)
            .info
            .as_mut()
            .expect("node does not store a subgraph")
    }

    /// `true` if `id` currently stores a subgraph.
    pub fn has_info(&self, id: NodeId) -> bool {
        self.node(id).info.is_some()
    }

    /// The score of the subgraph at `id`.
    #[inline]
    pub fn score(&self, id: NodeId) -> f64 {
        self.info(id).score
    }

    /// Adds `delta` to the score of the subgraph at `id`, returning the new
    /// score.
    pub fn add_score(&mut self, id: NodeId, delta: f64) -> f64 {
        let info = self.info_mut(id);
        info.score += delta;
        info.score
    }

    /// Vertex-set order of two tree nodes' paths: by their cached keys when
    /// both fit one, by materialised sets otherwise.
    fn path_order(&self, a: NodeId, b: NodeId) -> Ordering {
        match (self.key_path(a), self.key_path(b)) {
            (Some(x), Some(y)) => x.cmp(y),
            _ => self.vertices(a).cmp(&self.vertices(b)),
        }
    }

    /// Sets or clears the `*` (implicit too-dense) marker on the subgraph at
    /// `id`, keeping [`star_bases`](Self::star_bases) in vertex-set order.
    pub fn set_star(&mut self, id: NodeId, star: bool) {
        if self.node(id).star == star {
            return;
        }
        self.node_mut(id).star = star;
        let at = self
            .star_bases
            .binary_search_by(|&base| self.path_order(base, id));
        match at {
            Ok(at) => {
                self.star_bases.remove(at);
            }
            Err(at) => self.star_bases.insert(at, id),
        }
    }

    /// `true` if the subgraph at `id` carries a `*` marker.
    pub fn has_star(&self, id: NodeId) -> bool {
        self.node(id).star
    }

    /// The subgraphs currently carrying a `*` marker, strictly ascending in
    /// vertex-set order.
    pub fn star_bases(&self) -> &[NodeId] {
        &self.star_bases
    }

    /// Number of `*` markers in the index.
    pub fn star_count(&self) -> usize {
        self.star_bases.len()
    }

    /// The star-marked subgraphs whose vertex set is a subset of `set`
    /// (which must be sorted ascending, as in [`VertexSet::as_slice`]).
    ///
    /// Walks the prefix tree restricted to the vertices of `set`, so the cost
    /// is bounded by the number of subsets of `set` present as tree paths
    /// (at most `2^|set|` with `|set| <= Nmax`), independent of how many `*`
    /// markers the index holds — the difference between this and scanning
    /// [`star_bases`](Self::star_bases) is what makes coverage queries cheap
    /// on star-heavy workloads.
    pub fn star_bases_within(&self, set: &[VertexId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];
        while let Some((node, start)) = stack.pop() {
            if self.has_star(node) {
                out.push(node);
            }
            for (i, &v) in set.iter().enumerate().skip(start) {
                if let Some(child) = self.child_of(node, v) {
                    stack.push((child, i + 1));
                }
            }
        }
        out
    }

    /// Writes all subgraphs containing vertex `a` or vertex `b` into `walk`,
    /// each exactly once, in vertex-set order: the ordered union of the two
    /// posting lists (Section 3.2.2; the order argument is in the
    /// [module docs](self)).
    pub fn subgraphs_containing_either(&self, a: VertexId, b: VertexId, walk: &mut Walk) {
        assert!(a != b);
        walk.clear();
        let (mut la, mut lb) = (self.postings.get(a), self.postings.get(b));
        loop {
            let (id, contains_a, contains_b) = match (la.first(), lb.first()) {
                (Some(&x), Some(&y)) if x == y => (x, true, true),
                (Some(&x), Some(&y)) if self.path_order(x, y).is_gt() => (y, false, true),
                (Some(&x), _) => (x, true, false),
                (None, Some(&y)) => (y, false, true),
                (None, None) => break,
            };
            if contains_a {
                la = &la[1..];
            }
            if contains_b {
                lb = &lb[1..];
            }
            walk.push(self, id, contains_a, contains_b);
        }
    }

    /// Writes all subgraphs containing both `a` and `b` into `walk`, each
    /// exactly once, in vertex-set order: the ordered intersection of the
    /// two posting lists, as the shorter one's entries that contain the
    /// other endpoint (Section 3.2.2).
    pub fn subgraphs_containing_both(&self, a: VertexId, b: VertexId, walk: &mut Walk) {
        assert!(a != b);
        walk.clear();
        let (la, lb) = (self.postings.get(a), self.postings.get(b));
        let (list, other) = if la.len() <= lb.len() {
            (la, b)
        } else {
            (lb, a)
        };
        for &id in list {
            if self.contains_vertex(id, other) {
                walk.push(self, id, true, true);
            }
        }
    }

    /// Every stored subgraph as `(node, cardinality, score)`, in arena order:
    /// one pass over the node arena that reads each node in place and
    /// materialises nothing. What counting and top-k selection run on — a
    /// subgraph's density class is a function of exactly these two numbers.
    pub fn scores(&self) -> impl Iterator<Item = (NodeId, usize, f64)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| {
            let info = n.info.as_ref().filter(|_| n.in_use)?;
            Some((NodeId(i as u32), n.depth as usize, info.score))
        })
    }

    /// Iterates over every stored subgraph as `(node, vertices, info)`,
    /// allocating each vertex set.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, VertexSet, &SubgraphInfo)> + '_ {
        self.scores()
            .map(|(id, _, _)| (id, self.vertices(id), self.info(id)))
    }

    /// The node ids of every stored subgraph.
    pub fn all_subgraphs(&self) -> Vec<NodeId> {
        self.scores().map(|(id, _, _)| id).collect()
    }

    /// Internal consistency check used by tests: every node's cached key is
    /// its parent's path plus its own vertex, each vertex's posting list is
    /// exactly the stored subgraphs containing it, strictly ascending in
    /// vertex-set order, the subgraph count matches, and star markers refer
    /// to stored subgraphs and are listed once each, in vertex-set order.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut info_count, mut stars, mut memberships) = (0usize, 0usize, 0usize);
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.in_use || i == 0 {
                continue;
            }
            let parent = &self.nodes[n.parent.idx()];
            let mut key = parent.key;
            if let Some(at) = key.get_mut(n.depth as usize - 1) {
                *at = n.vertex.0;
            }
            if !parent.in_use || n.depth != parent.depth + 1 || n.key != key {
                return Err(format!("node {i} is not keyed by its parent's path"));
            }
            if n.info.is_some() {
                info_count += 1;
                memberships += n.depth as usize;
            }
            if n.star && n.info.is_none() {
                return Err(format!("star marker on info-less node {i}"));
            }
            stars += usize::from(n.star);
        }
        if info_count != self.len {
            return Err(format!(
                "len {} does not match stored subgraphs {info_count}",
                self.len
            ));
        }
        if stars != self.star_bases.len() {
            return Err(format!(
                "{stars} star markers, {} listed",
                self.star_bases.len()
            ));
        }
        if self.star_bases.iter().any(|id| {
            let n = &self.nodes[id.idx()];
            !n.in_use || !n.star
        }) {
            return Err("stale star base".to_string());
        }
        if self
            .star_bases
            .windows(2)
            .any(|w| self.path_order(w[0], w[1]).is_ge())
        {
            return Err("star list out of vertex-set order".to_string());
        }
        // Every entry is a stored subgraph containing the list's vertex, no
        // list holds one twice (strictly ascending), and there are as many
        // entries as stored (subgraph, vertex) memberships: so each list holds
        // every subgraph containing its vertex.
        let mut filed = 0usize;
        for v in (0..self.postings.spans.len() as u32).map(VertexId) {
            let list = self.postings.get(v);
            for &id in list {
                let n = &self.nodes[id.idx()];
                if !n.in_use || n.info.is_none() {
                    return Err(format!("posting list of {v} holds {id:?}, not a subgraph"));
                }
                if !self.contains_vertex(id, v) {
                    return Err(format!("posting list of {v} holds {id:?}, without {v}"));
                }
            }
            if list.windows(2).any(|w| self.path_order(w[0], w[1]).is_ge()) {
                return Err(format!("posting list of {v} out of vertex-set order"));
            }
            filed += list.len();
        }
        if filed != memberships {
            return Err(format!(
                "{filed} posting-list entries for {memberships} memberships"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    fn insert(index: &mut SubgraphIndex, ids: &[u32], score: f64) -> NodeId {
        index.insert(&vs(ids), SubgraphInfo::with_score(score))
    }

    /// Builds the index of Figure 3: subgraphs {1,3}, {1,3,4}, {1,3,5},
    /// {3,4,5}, {4,5}.
    fn figure3_index() -> SubgraphIndex {
        let mut index = SubgraphIndex::new();
        insert(&mut index, &[1, 3], 1.0);
        insert(&mut index, &[1, 3, 4], 2.5);
        insert(&mut index, &[1, 3, 5], 2.4);
        insert(&mut index, &[3, 4, 5], 2.6);
        insert(&mut index, &[4, 5], 0.9);
        index
    }

    #[test]
    fn insert_find_and_len() {
        let index = figure3_index();
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
        assert!(index.find(&vs(&[1, 3])).is_some());
        assert!(index.find(&vs(&[1, 3, 4])).is_some());
        assert!(index.find(&vs(&[1, 4])).is_none());
        // {1,3,4,5} shares a prefix but is not stored
        assert!(index.find(&vs(&[1, 3, 4, 5])).is_none());
        index.check_invariants().unwrap();
    }

    #[test]
    fn insert_overwrites_info() {
        let mut index = SubgraphIndex::new();
        let id1 = insert(&mut index, &[1, 2], 1.0);
        let id2 = insert(&mut index, &[1, 2], 2.0);
        assert_eq!(id1, id2);
        assert_eq!(index.len(), 1);
        assert_eq!(index.score(id1), 2.0);
    }

    #[test]
    fn vertices_cardinality_and_contains() {
        let index = figure3_index();
        let id = index.find(&vs(&[1, 3, 5])).unwrap();
        assert_eq!(index.vertices(id), VertexSet::from_ids(&[1, 3, 5]));
        assert_eq!(index.cardinality(id), 3);
        assert!(index.contains_vertex(id, VertexId(3)));
        assert!(index.contains_vertex(id, VertexId(5)));
        assert!(!index.contains_vertex(id, VertexId(4)));
        assert!(!index.contains_vertex(id, VertexId(0)));
    }

    #[test]
    fn score_updates() {
        let mut index = SubgraphIndex::new();
        let id = insert(&mut index, &[2, 7], 0.5);
        assert_eq!(index.add_score(id, 0.25), 0.75);
        assert_eq!(index.score(id), 0.75);
        assert!(index.has_info(id));
    }

    fn either(index: &SubgraphIndex, a: u32, b: u32) -> Vec<NodeId> {
        let mut walk = Walk::default();
        index.subgraphs_containing_both(VertexId(a), VertexId(b), &mut walk); // stale content is cleared
        index.subgraphs_containing_either(VertexId(a), VertexId(b), &mut walk);
        walk.entries().iter().map(|e| e.id).collect()
    }

    /// In the order the walk hands them out.
    fn both(index: &SubgraphIndex, a: u32, b: u32) -> Vec<VertexSet> {
        let mut walk = Walk::default();
        index.subgraphs_containing_either(VertexId(a), VertexId(b), &mut walk);
        index.subgraphs_containing_both(VertexId(a), VertexId(b), &mut walk);
        walk.entries()
            .iter()
            .map(|e| index.vertices(e.id))
            .collect()
    }

    /// The path of `id` by its parent pointers, trusting no cached key.
    fn parent_walk(index: &SubgraphIndex, id: NodeId) -> Vec<VertexId> {
        let mut path = Vec::new();
        let mut cur = id;
        while cur != NodeId::ROOT {
            path.push(index.nodes[cur.idx()].vertex);
            cur = index.nodes[cur.idx()].parent;
        }
        path.reverse();
        path
    }

    /// The walks' oracle, blind to the posting lists: every stored subgraph
    /// whose vertex set contains `a` or `b` (`a` and `b` when `both`),
    /// sorted by vertex set.
    fn brute_force(index: &SubgraphIndex, a: VertexId, b: VertexId, both: bool) -> Vec<NodeId> {
        let mut out: Vec<(VertexSet, NodeId)> = index
            .iter()
            .filter(|(_, set, _)| {
                let (has_a, has_b) = (set.contains(a), set.contains(b));
                if both {
                    has_a && has_b
                } else {
                    has_a || has_b
                }
            })
            .map(|(id, set, _)| (set, id))
            .collect();
        out.sort();
        out.into_iter().map(|(_, id)| id).collect()
    }

    /// Checks both walks for `(a, b)` against [`brute_force`], and each
    /// entry's membership flags and path against the index's own answers
    /// and the parent pointers.
    fn check_walks(index: &SubgraphIndex, a: VertexId, b: VertexId, walk: &mut Walk) {
        let mut path = Vec::new();
        for both in [false, true] {
            if both {
                index.subgraphs_containing_both(a, b, walk);
            } else {
                index.subgraphs_containing_either(a, b, walk);
            }
            let got: Vec<NodeId> = walk.entries().iter().map(|e| e.id).collect();
            let want = brute_force(index, a, b, both);
            assert_eq!(got, want, "({a}, {b}), both = {both}");
            for entry in walk.entries() {
                let truth = parent_walk(index, entry.id);
                index.path_into(entry.id, &mut path);
                assert_eq!(walk.path(entry), path, "path of {:?}", entry.id);
                assert_eq!(walk.path(entry), truth, "path of {:?}", entry.id);
                assert_eq!(entry.contains_a, index.contains_vertex(entry.id, a));
                assert_eq!(entry.contains_b, index.contains_vertex(entry.id, b));
                assert_eq!(entry.contains_a, truth.contains(&a));
                assert_eq!(entry.contains_b, truth.contains(&b));
            }
        }
    }

    /// Random insert / remove / mark histories over `universe` vertices, with
    /// subgraphs of up to `max_len` vertices drawn by `bits_of` from three
    /// random words, checking every walk and every cached key as they go.
    fn walk_history(
        seed: u64,
        universe: u32,
        max_len: usize,
        steps: usize,
        bits_of: impl Fn([u64; 3]) -> u64,
    ) {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut index = SubgraphIndex::new();
        let mut walk = Walk::default();
        let (mut reused, mut deepest) = (0, 0);
        for step in 0..steps {
            let roll = next() % 10;
            let stored = index.all_subgraphs();
            if roll < 4 && !stored.is_empty() {
                let id = stored[next() as usize % stored.len()];
                if roll == 0 {
                    index.set_star(id, !index.has_star(id));
                } else {
                    index.remove(id);
                }
            } else {
                let bits = bits_of([next(), next(), next()]);
                let set: Vec<VertexId> = (0..universe)
                    .filter(|v| bits >> v & 1 == 1)
                    .map(VertexId)
                    .take(max_len)
                    .collect();
                if set.len() >= 2 {
                    let free = index.free.len();
                    index.insert(&set, SubgraphInfo::with_score(1.0));
                    reused += usize::from(index.free.len() < free);
                    deepest = deepest.max(set.len());
                }
            }
            index
                .check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            for (i, n) in index.nodes.iter().enumerate().skip(1) {
                if n.in_use {
                    let id = NodeId(i as u32);
                    let truth = parent_walk(&index, id);
                    let key = index.path_key(id);
                    assert_eq!(key.is_some(), truth.len() <= SubgraphIndex::PATH_KEY_WIDTH);
                    if let Some(key) = key {
                        let mut want = [0; SubgraphIndex::PATH_KEY_WIDTH];
                        for (at, v) in want.iter_mut().zip(&truth) {
                            *at = v.0;
                        }
                        assert_eq!(key, want, "step {step}: key of node {i}");
                    }
                }
            }
            for _ in 0..3 {
                let a = VertexId((next() % u64::from(universe)) as u32);
                let b = VertexId((next() % u64::from(universe)) as u32);
                if a != b {
                    check_walks(&index, a, b, &mut walk);
                }
            }
        }
        assert!(reused > 10, "free-list reuse barely exercised ({reused})");
        assert!(index.len() > 20, "the history ended with a small index");
        if max_len > SubgraphIndex::PATH_KEY_WIDTH {
            assert!(
                deepest > SubgraphIndex::PATH_KEY_WIDTH,
                "no path past the key"
            );
        }
    }

    #[test]
    fn walks_match_brute_force_within_the_key() {
        walk_history(0x2545_f491_4f6c_dd1d, 12, 6, 1_500, |[x, y, _]| x & y);
    }

    #[test]
    fn walks_match_brute_force_past_the_key() {
        // Half the sets share the head 0..=11, so list entries past the key
        // width tie on their keys and are ordered by their paths.
        walk_history(0x9e37_79b9_7f4a_7c15, 24, 16, 400, |[x, y, z]| {
            if z % 2 == 0 {
                x | 0xfff
            } else {
                y
            }
        });
    }

    #[test]
    fn subgraphs_containing_both_is_the_filtered_single_vertex_walk() {
        let mut index = figure3_index();
        insert(&mut index, &[1, 4, 5, 6], 3.0); // 1 is an ancestor of this 5, not its parent
        for (a, b) in [(1, 3), (3, 5), (1, 5), (4, 5), (1, 6), (1, 9), (2, 4)] {
            let mut want: Vec<VertexSet> = index
                .iter()
                .map(|(_, set, _)| set)
                .filter(|set| set.contains(VertexId(a)) && set.contains(VertexId(b)))
                .collect();
            want.sort();
            assert_eq!(both(&index, a, b), want, "({a}, {b})");
            assert_eq!(both(&index, b, a), want, "({b}, {a})");
        }
        assert_eq!(
            both(&index, 1, 5),
            vec![
                VertexSet::from_ids(&[1, 3, 5]),
                VertexSet::from_ids(&[1, 4, 5, 6])
            ]
        );
    }

    #[test]
    fn path_into_matches_vertices() {
        let index = figure3_index();
        let mut path = vec![VertexId(42)];
        for id in index.all_subgraphs() {
            index.path_into(id, &mut path);
            assert_eq!(path, index.vertices(id).as_slice());
            assert_eq!(path, parent_walk(&index, id));
        }
    }

    #[test]
    fn subgraphs_containing_either_visits_each_once() {
        let index = figure3_index();
        let got = either(&index, 1, 4);
        let mut sets: Vec<VertexSet> = got.iter().map(|&id| index.vertices(id)).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(
            sets.len(),
            got.len(),
            "each subgraph must be visited exactly once"
        );
        assert_eq!(
            sets,
            vec![
                VertexSet::from_ids(&[1, 3]),
                VertexSet::from_ids(&[1, 3, 4]),
                VertexSet::from_ids(&[1, 3, 5]),
                VertexSet::from_ids(&[3, 4, 5]),
                VertexSet::from_ids(&[4, 5]),
            ]
        );
        // Order-insensitive to which argument is larger.
        assert_eq!(got.len(), either(&index, 4, 1).len());
    }

    #[test]
    fn remove_prunes_chains() {
        let mut index = figure3_index();
        let nodes_before = index.node_count();
        let id = index.find(&vs(&[1, 3, 5])).unwrap();
        index.remove(id);
        assert_eq!(index.len(), 4);
        assert!(index.find(&vs(&[1, 3, 5])).is_none());
        // {1,3} still exists, so only one node (labelled 5) is pruned.
        assert_eq!(index.node_count(), nodes_before - 1);
        index.check_invariants().unwrap();

        // Removing {4,5} prunes the whole 4->5 chain.
        let id45 = index.find(&vs(&[4, 5])).unwrap();
        index.remove(id45);
        assert!(index.find(&vs(&[4, 5])).is_none());
        index.check_invariants().unwrap();

        // Removing {1,3} keeps the prefix node because {1,3,4} still hangs off it.
        let id13 = index.find(&vs(&[1, 3])).unwrap();
        index.remove(id13);
        assert!(index.find(&vs(&[1, 3])).is_none());
        assert!(index.find(&vs(&[1, 3, 4])).is_some());
        assert_eq!(index.len(), 2);
        index.check_invariants().unwrap();
    }

    #[test]
    fn overwrites_and_prefix_removals_file_each_subgraph_once() {
        let mut index = SubgraphIndex::new();
        let id134 = insert(&mut index, &[1, 3, 4], 1.0);
        // {1, 3} is a structural node until it gains info.
        let id13 = insert(&mut index, &[1, 3], 1.0);
        assert_eq!(insert(&mut index, &[1, 3, 4], 2.0), id134);
        assert_eq!(insert(&mut index, &[1, 3], 2.0), id13);
        index.check_invariants().unwrap();
        assert_eq!(index.postings.get(VertexId(1)), [id13, id134]);
        assert_eq!(index.postings.get(VertexId(4)), [id134]);

        // Removing the prefix keeps its node, which {1, 3, 4} hangs off.
        index.remove(id13);
        index.check_invariants().unwrap();
        assert_eq!(index.postings.get(VertexId(1)), [id134]);
        assert_eq!(index.postings.get(VertexId(3)), [id134]);
        assert_eq!(insert(&mut index, &[1, 3], 3.0), id13);
        index.check_invariants().unwrap();
        assert_eq!(index.postings.get(VertexId(3)), [id13, id134]);

        // The check notices a list out of order, one holding a subgraph
        // twice, and one missing a subgraph.
        let v = VertexId(3);
        let mut broken = [index.clone(), index.clone(), index.clone()];
        broken[0].postings.remove(v, 0);
        broken[0].postings.insert(v, 1, id13);
        broken[1].postings.insert(v, 2, id134);
        broken[2].postings.remove(v, 0);
        for broken in broken {
            assert!(broken.check_invariants().is_err());
        }
    }

    #[test]
    fn removed_node_ids_are_reused() {
        let mut index = SubgraphIndex::new();
        let id = insert(&mut index, &[10, 20], 1.0);
        index.remove(id);
        assert!(index.is_empty());
        let id2 = insert(&mut index, &[11, 21], 1.0);
        // The arena reuses freed slots, so no unbounded growth.
        assert!(index.node_count() <= 2);
        assert!(index.has_info(id2));
        index.check_invariants().unwrap();
    }

    #[test]
    fn star_markers() {
        let mut index = figure3_index();
        let id13 = index.find(&vs(&[1, 3])).unwrap();
        assert_eq!(index.star_count(), 0);
        index.set_star(id13, true);
        index.set_star(id13, true); // idempotent
        assert!(index.has_star(id13));
        assert_eq!(index.star_bases(), [id13]);
        assert_eq!(index.star_count(), 1);
        index.check_invariants().unwrap();

        // Unmarking from the front of the list re-seats the moved marker.
        let id45 = index.find(&vs(&[4, 5])).unwrap();
        let id345 = index.find(&vs(&[3, 4, 5])).unwrap();
        index.set_star(id45, true);
        index.set_star(id345, true);
        index.set_star(id13, false);
        index.check_invariants().unwrap();
        assert!(!index.has_star(id13) && index.has_star(id45) && index.has_star(id345));
        index.set_star(id13, true);

        // Removing the subgraph clears the marker.
        index.remove(id13);
        assert_eq!(index.star_count(), 2);
        assert!(index.has_star(id45) && index.has_star(id345));
        index.check_invariants().unwrap();
    }

    #[test]
    fn star_bases_stay_in_vertex_set_order() {
        // Sets that share prefixes, one that *is* a prefix of another, vertex
        // 0 (the key's padding value), and two paths deeper than the path
        // key is wide (the `Nmax = 13` fallback) that differ in their last
        // vertex only.
        let deep: Vec<u32> = (20..33).collect();
        let mut deeper = deep.clone();
        *deeper.last_mut().unwrap() = 40;
        let sets: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 2],
            vec![1, 3],
            vec![1, 3, 4],
            vec![1, 3, 5],
            vec![1, 4],
            vec![3, 4, 5],
            vec![4, 5],
            vec![20, 21],
            deep[..12].to_vec(),
            deep,
            deeper,
        ];
        let mut index = SubgraphIndex::new();
        // Marked, unmarked, removed (marker and all) and re-inserted in an
        // order that has nothing to do with the sets' own.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let set = vs(&sets[(state >> 8) as usize % sets.len()]);
            match (index.find(&set), (state >> 40) % 4) {
                (None, _) => {
                    index.insert(&set, SubgraphInfo::with_score(1.0));
                }
                (Some(id), 0) => index.remove(id),
                (Some(id), 1) => index.set_star(id, false),
                (Some(id), _) => index.set_star(id, true),
            }
            index
                .check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            // What sorting the markers by vertex set gives.
            let mut want: Vec<NodeId> = index
                .all_subgraphs()
                .into_iter()
                .filter(|&id| index.has_star(id))
                .collect();
            want.sort_by_cached_key(|&id| index.vertices(id));
            assert_eq!(index.star_bases(), want, "step {step}");
        }
        assert!(index.star_count() > 3, "the walk ended with few markers");

        // The check notices a list that is complete but out of order.
        index.star_bases.swap(0, 1);
        assert!(index.check_invariants().is_err());
    }

    #[test]
    fn star_bases_within_restricts_to_subsets() {
        let mut index = figure3_index();
        let id13 = index.find(&vs(&[1, 3])).unwrap();
        let id134 = index.find(&vs(&[1, 3, 4])).unwrap();
        let id45 = index.find(&vs(&[4, 5])).unwrap();
        index.set_star(id13, true);
        index.set_star(id134, true);
        index.set_star(id45, true);

        // {1, 3, 4} admits the subsets {1,3} and {1,3,4} but not {4,5}.
        let mut within = index.star_bases_within(&vs(&[1, 3, 4]));
        within.sort_unstable();
        assert_eq!(within, vec![id13, id134]);
        // A superset of everything sees all three markers.
        assert_eq!(index.star_bases_within(&vs(&[1, 3, 4, 5])).len(), 3);
        // Disjoint and partial sets see none.
        assert!(index.star_bases_within(&vs(&[2, 6])).is_empty());
        assert!(index.star_bases_within(&vs(&[3, 4])).is_empty());
        assert!(index.star_bases_within(&vs(&[])).is_empty());
    }

    #[test]
    fn iter_and_all_subgraphs() {
        let index = figure3_index();
        let mut via_iter: Vec<VertexSet> = index.iter().map(|(_, v, _)| v).collect();
        via_iter.sort();
        let mut via_ids: Vec<VertexSet> = index
            .all_subgraphs()
            .into_iter()
            .map(|id| index.vertices(id))
            .collect();
        via_ids.sort();
        assert_eq!(via_iter, via_ids);
        assert_eq!(via_iter.len(), 5);
    }

    #[test]
    fn check_invariants_detects_len_mismatch() {
        let mut index = figure3_index();
        index.len = 17;
        assert!(index.check_invariants().is_err());
    }
}
