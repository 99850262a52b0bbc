//! # dyndens-graph
//!
//! Dynamic weighted entity graph substrate for the DynDens dense subgraph
//! maintenance system.
//!
//! The paper models its problem domain as a complete weighted graph `G = (V, E)`
//! over `N` vertices, where `w_ij` is the weight of the edge between vertices `i`
//! and `j`, together with a stream of edge weight updates `(a, b, delta)`.
//! Edges with weight zero (or below) are simply "absent": the graph is stored
//! sparsely as per-vertex adjacency lists sorted by neighbour id, which is also
//! exactly the graph index the paper prescribes in Section 3.2.1 ("maintaining
//! node adjacency lists is sufficient"), and enables the efficient exploration
//! of a subgraph by summing the members' adjacency lists into one dense column
//! ([`DynamicGraph::neighborhood_into`]). The [`graph`] module docs state the
//! ordering guarantees that fall out of the layout, and why the summation
//! order among them is what keeps snapshot + replay bit-exact.
//!
//! The crate provides:
//!
//! * [`VertexId`] — a compact vertex identifier (`u32` newtype).
//! * [`EdgeUpdate`] — a single `(a, b, delta)` item of the update stream.
//! * [`DynamicGraph`] — the evolving weighted graph with binary-search weight
//!   lookups, ordered neighbourhood and edge iteration, `Γ_C` (into a
//!   [`GammaColumn`]) and subgraph scoring.
//! * [`VertexSet`] — a small, sorted vertex subset used to denote subgraphs.
//! * [`hash`] — a fast, non-cryptographic hasher for the workspace's
//!   integer-keyed maps (the keys are small integers; HashDoS resistance is
//!   not a concern here) and for hashed shard routing.
//! * [`codec`] — the little-endian binary codec (and CRC-32) shared by the
//!   persistence layer: WAL records and engine snapshots.
//! * [`shard_map`] — the generational shard routing table ([`ShardMap`]): the
//!   base shard-assignment functions ([`ShardFn`]) plus the split-refinement
//!   trie and its manifest codec, used by `dyndens-shard` for live
//!   rebalancing.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod graph;
pub mod hash;
pub mod shard_map;
pub mod update;
pub mod vertex_set;

pub use codec::{ByteReader, CodecError};
pub use graph::{DynamicGraph, GammaColumn};
pub use hash::{shard_of, FxBuildHasher, FxHashMap, FxHashSet};
pub use shard_map::{MergeSpec, ShardFn, ShardMap, SplitSpec};
pub use update::EdgeUpdate;
pub use vertex_set::VertexSet;

// Send/Sync audit for the sharded subsystem: every substrate type crossing a
// shard-worker thread boundary must be Send + Sync. Enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DynamicGraph>();
    assert_send_sync::<VertexSet>();
    assert_send_sync::<EdgeUpdate>();
    assert_send_sync::<VertexId>();
};

/// Identifier of a vertex (an entity, in the story identification application).
///
/// Vertices are dense small integers: `VertexId(0) .. VertexId(n - 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The fictitious `*` vertex used by the `ImplicitTooDense` index
    /// optimisation (Section 3.2.3 of the paper). It is lexicographically
    /// larger than every real vertex.
    pub const STAR: VertexId = VertexId(u32::MAX);

    /// Returns the vertex index as a `usize`, for indexing into dense arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is the fictitious `*` vertex.
    #[inline]
    pub fn is_star(self) -> bool {
        self == Self::STAR
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<usize> for VertexId {
    #[inline]
    fn from(v: usize) -> Self {
        VertexId(v as u32)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_star() {
            write!(f, "*")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_ordering_and_star() {
        let a = VertexId(3);
        let b = VertexId(7);
        assert!(a < b);
        assert!(b < VertexId::STAR);
        assert!(VertexId::STAR.is_star());
        assert!(!a.is_star());
        assert_eq!(a.index(), 3);
        assert_eq!(VertexId::from(5u32), VertexId(5));
        assert_eq!(VertexId::from(5usize), VertexId(5));
    }

    #[test]
    fn vertex_id_display() {
        assert_eq!(VertexId(12).to_string(), "12");
        assert_eq!(VertexId::STAR.to_string(), "*");
    }
}
