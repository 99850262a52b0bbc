//! The generational shard routing table used by the `dyndens-shard`
//! subsystem, and the base shard-assignment functions it refines.
//!
//! A fixed shard function (`shard_of(min(u, v), N)`) pins the shard count at
//! deployment time: one hot entity partition then caps whole-pipeline
//! throughput forever. [`ShardMap`] replaces the static function with one
//! level of indirection — a **routing table** that starts out identical to
//! the static assignment and can then be *refined online*, one split at a
//! time, without moving any vertex that is not part of the split:
//!
//! ```text
//!                 base slot = ShardFn(v, n_base)           (fixed forever)
//!                      │
//!   slots[base] ──► route trie:  Leaf{worker, engine}
//!                                Split{zero, one}   bit d = route_bit(v, d)
//! ```
//!
//! * Every **leaf** names a live worker slot and the **engine id** whose
//!   persistence directory (`shard-<engine id>`) holds that slice's WAL and
//!   snapshots. Engine ids are allocated monotonically and never reused, so
//!   a retired parent's directory can never be confused with a child's.
//! * **Splitting** a worker replaces its leaf with a `Split` node whose two
//!   children partition the parent's vertex slice by the next *routing bit*
//!   of the vertex (see [`ShardFn::route_bit`]). One child keeps the
//!   parent's worker slot, the other takes a brand-new slot, and both get
//!   fresh engine ids. Vertices owned by every other leaf route exactly as
//!   before — a split never reshuffles the rest of the fleet.
//! * **Merging** is the exact inverse: a `Split` node whose children are
//!   both leaves collapses back into one leaf (fresh engine id, served by
//!   the smaller of the two slots), and the previous last worker slot is
//!   renumbered into the freed one so slot numbering stays dense — the
//!   invariant the codec validates. See [`ShardMap::merge`] /
//!   [`ShardMap::merge_candidates`].
//! * The **generation** counter increments per split or merge; the map
//!   (including `next_engine`) is serialised into the deployment `MANIFEST`
//!   via [`ShardMap::encode_into`] / [`ShardMap::decode`], so a restart
//!   recovers the refined topology rather than the construction-time one.
//!
//! Under [`ShardFn::Modulo`] the routing bits are the binary digits of
//! `v / n_base`: a workload whose communities are aligned to congruence
//! classes modulo `M` stays community-aligned through
//! `log2(M / n_base)` levels of splitting, which is what keeps the
//! partitioning invariant (and hence split-equivalence) intact. Under
//! [`ShardFn::Hashed`] the bits come from an independently salted hash —
//! balanced, but community alignment is probabilistic, as for the base
//! assignment itself.

use crate::codec::{put_u32, put_u64, ByteReader, CodecError};
use crate::hash::FxHasher;
use crate::VertexId;
use std::hash::Hasher;

/// Salt decorrelating [`ShardFn::Hashed`] routing bits from the multiply-shift
/// base assignment (both consume `FxHasher` output; without a salt the split
/// bits would be a deterministic function of the base slot).
const ROUTE_BIT_SALT: u32 = 0x9E37_79B9;

/// Maximum split depth accepted by [`ShardMap::decode`] (and enforced by
/// [`ShardMap::split`]): 32 refinement levels per base slot is far beyond any
/// realistic fleet and bounds recursion on untrusted manifest bytes.
pub const MAX_SPLIT_DEPTH: usize = 32;

/// The base shard-assignment function applied to the minimum endpoint of an
/// edge. This is generation zero of a [`ShardMap`]; splits refine it with
/// per-vertex routing bits but never change the base assignment itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFn {
    /// Fx-hash the vertex and spread it over the shards with a multiply-shift
    /// ([`crate::shard_of`]). The default: balanced for arbitrary id
    /// distributions.
    Hashed,
    /// `v mod n_shards`. Useful when entity ids are assigned so that related
    /// entities share a congruence class (making the partitioning invariant
    /// hold by construction), and in tests that need a predictable layout.
    Modulo,
}

impl ShardFn {
    /// The base slot owning vertex `v` out of `n_shards`.
    #[inline]
    pub fn shard(self, v: VertexId, n_shards: usize) -> usize {
        match self {
            ShardFn::Hashed => crate::shard_of(v, n_shards),
            ShardFn::Modulo => v.index() % n_shards,
        }
    }

    /// The routing bit consulted at split `depth` below a base slot of an
    /// `n_base`-slot map. Deterministic per vertex, independent across
    /// depths, and — for [`ShardFn::Modulo`] — equal to bit `depth` of
    /// `v / n_base`, so congruence-class-aligned communities split cleanly.
    #[inline]
    pub fn route_bit(self, v: VertexId, n_base: usize, depth: usize) -> bool {
        match self {
            ShardFn::Modulo => (v.index() / n_base) >> depth & 1 == 1,
            ShardFn::Hashed => {
                let mut h = FxHasher::default();
                h.write_u32(v.0);
                h.write_u32(ROUTE_BIT_SALT);
                h.finish() >> depth & 1 == 1
            }
        }
    }
}

/// One node of a base slot's route trie.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RouteNode {
    /// A live slice: the worker slot serving it and the engine id naming its
    /// persistence directory.
    Leaf {
        /// Index of the worker thread (and of its epoch cell, delta ring and
        /// channel) in the fleet's slot-indexed vectors.
        worker: u32,
        /// The monotonically allocated engine id; persisted state lives under
        /// `shard-<engine id>` and ids are never reused across splits.
        engine: u64,
    },
    /// A refinement: vertices with routing bit 0 at this depth descend into
    /// `zero`, the rest into `one`.
    Split {
        zero: Box<RouteNode>,
        one: Box<RouteNode>,
    },
}

/// What [`ShardMap::split`] decided: the slots and engine ids involved in one
/// split, needed by the caller to build, persist and register the children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitSpec {
    /// The worker slot that was split (one child keeps it).
    pub slot: usize,
    /// The brand-new worker slot taken by the other child.
    pub new_slot: usize,
    /// The retired parent's engine id (its directory is deleted once the
    /// split commits).
    pub parent_engine: u64,
    /// Engine id of the child that keeps [`SplitSpec::slot`] (routing bit 0).
    pub child_zero_engine: u64,
    /// Engine id of the child on the new slot (routing bit 1).
    pub child_one_engine: u64,
}

/// What [`ShardMap::merge`] decided: the slots and engine ids involved in one
/// merge, needed by the caller to rebuild, persist and register the merged
/// shard — and to renumber the worker displaced by the freed slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSpec {
    /// The worker slot the merged shard keeps serving (the smaller of the
    /// pair).
    pub slot: usize,
    /// The worker slot the merge frees (the larger of the pair).
    pub freed_slot: usize,
    /// The former slot of the worker renumbered into
    /// [`freed_slot`](MergeSpec::freed_slot) to keep slot numbering dense
    /// (always the previous last slot), or `None` when the freed slot *was*
    /// the last slot and nothing moved.
    pub moved_slot: Option<usize>,
    /// The worker slot that served the routing-bit-0 child (one of `slot` /
    /// `freed_slot`).
    pub zero_slot: usize,
    /// The worker slot that served the routing-bit-1 child (the other one).
    pub one_slot: usize,
    /// The retired bit-0 child's engine id.
    pub zero_engine: u64,
    /// The retired bit-1 child's engine id.
    pub one_engine: u64,
    /// The merged shard's fresh engine id.
    pub merged_engine: u64,
}

/// The generational shard routing table. See the [module docs](self) for the
/// design; constructed by [`ShardMap::new`], refined by [`ShardMap::split`]
/// and coarsened by [`ShardMap::merge`],
/// persisted with [`ShardMap::encode_into`] / [`ShardMap::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    base: ShardFn,
    n_base: usize,
    generation: u64,
    next_engine: u64,
    n_workers: usize,
    slots: Vec<RouteNode>,
}

impl ShardMap {
    /// The generation-zero map: `n_base` slots, slot `i` served by worker `i`
    /// with engine id `i` — byte-for-byte the static assignment the fleet
    /// used before routing indirection existed.
    ///
    /// # Panics
    ///
    /// Panics if `n_base` is zero.
    pub fn new(base: ShardFn, n_base: usize) -> Self {
        assert!(n_base > 0, "a shard map needs at least one base slot");
        ShardMap {
            base,
            n_base,
            generation: 0,
            next_engine: n_base as u64,
            n_workers: n_base,
            slots: (0..n_base)
                .map(|i| RouteNode::Leaf {
                    worker: i as u32,
                    engine: i as u64,
                })
                .collect(),
        }
    }

    /// The base shard-assignment function (generation zero of this map).
    pub fn base_fn(&self) -> ShardFn {
        self.base
    }

    /// Number of base slots (the construction-time shard count, fixed
    /// forever).
    pub fn n_base(&self) -> usize {
        self.n_base
    }

    /// Number of live worker slots (grows by one per split).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// How many topology changes (splits and merges) this map has absorbed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The next engine id a split or merge would allocate (persisted so ids
    /// stay unique across restarts even when a topology change crashed before
    /// committing).
    pub fn next_engine(&self) -> u64 {
        self.next_engine
    }

    /// The worker slot owning vertex `v`: base assignment, then the route
    /// trie refined by splits.
    #[inline]
    pub fn route(&self, v: VertexId) -> usize {
        let mut node = &self.slots[self.base.shard(v, self.n_base)];
        let mut depth = 0usize;
        loop {
            match node {
                RouteNode::Leaf { worker, .. } => return *worker as usize,
                RouteNode::Split { zero, one } => {
                    node = if self.base.route_bit(v, self.n_base, depth) {
                        one
                    } else {
                        zero
                    };
                    depth += 1;
                }
            }
        }
    }

    /// The engine id currently serving worker `slot`, or `None` for an
    /// unknown slot.
    pub fn engine_of(&self, slot: usize) -> Option<u64> {
        let mut found = None;
        for root in &self.slots {
            Self::visit(root, &mut |worker, engine| {
                if worker as usize == slot {
                    found = Some(engine);
                }
            });
        }
        found
    }

    /// Engine ids of all live workers, indexed by worker slot.
    pub fn worker_engines(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.n_workers];
        for root in &self.slots {
            Self::visit(root, &mut |worker, engine| out[worker as usize] = engine);
        }
        out
    }

    fn visit(node: &RouteNode, f: &mut impl FnMut(u32, u64)) {
        match node {
            RouteNode::Leaf { worker, engine } => f(*worker, *engine),
            RouteNode::Split { zero, one } => {
                Self::visit(zero, f);
                Self::visit(one, f);
            }
        }
    }

    /// Splits worker `slot`: its leaf becomes a `Split` whose bit-0 child
    /// keeps `slot` and whose bit-1 child takes the new slot
    /// `n_workers`. Both children get fresh engine ids; the generation
    /// advances. Returns `None` if `slot` does not name a live worker or the
    /// leaf already sits at [`MAX_SPLIT_DEPTH`].
    pub fn split(&mut self, slot: usize) -> Option<SplitSpec> {
        if slot >= self.n_workers {
            return None;
        }
        let new_slot = self.n_workers;
        let (c0, c1) = (self.next_engine, self.next_engine + 1);
        let mut spec = None;
        for root in &mut self.slots {
            if spec.is_some() {
                break;
            }
            Self::split_in(root, 0, slot as u32, new_slot as u32, c0, c1, &mut spec);
        }
        let spec = spec?;
        self.next_engine += 2;
        self.n_workers += 1;
        self.generation += 1;
        Some(spec)
    }

    fn split_in(
        node: &mut RouteNode,
        depth: usize,
        slot: u32,
        new_slot: u32,
        c0: u64,
        c1: u64,
        spec: &mut Option<SplitSpec>,
    ) {
        match node {
            RouteNode::Leaf { worker, engine } if *worker == slot => {
                if depth >= MAX_SPLIT_DEPTH {
                    return;
                }
                *spec = Some(SplitSpec {
                    slot: slot as usize,
                    new_slot: new_slot as usize,
                    parent_engine: *engine,
                    child_zero_engine: c0,
                    child_one_engine: c1,
                });
                *node = RouteNode::Split {
                    zero: Box::new(RouteNode::Leaf {
                        worker: slot,
                        engine: c0,
                    }),
                    one: Box::new(RouteNode::Leaf {
                        worker: new_slot,
                        engine: c1,
                    }),
                };
            }
            RouteNode::Leaf { .. } => {}
            RouteNode::Split { zero, one } => {
                Self::split_in(zero, depth + 1, slot, new_slot, c0, c1, spec);
                if spec.is_none() {
                    Self::split_in(one, depth + 1, slot, new_slot, c0, c1, spec);
                }
            }
        }
    }

    /// The mergeable sibling pairs: worker slots whose leaves hang off the
    /// same `Split` node, returned as `(bit-0 worker, bit-1 worker)`. Merging
    /// any listed pair is the exact inverse of the split that created it.
    pub fn merge_candidates(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for root in &self.slots {
            Self::candidates_in(root, &mut out);
        }
        out
    }

    fn candidates_in(node: &RouteNode, out: &mut Vec<(usize, usize)>) {
        if let RouteNode::Split { zero, one } = node {
            if let (RouteNode::Leaf { worker: w0, .. }, RouteNode::Leaf { worker: w1, .. }) =
                (&**zero, &**one)
            {
                out.push((*w0 as usize, *w1 as usize));
            } else {
                Self::candidates_in(zero, out);
                Self::candidates_in(one, out);
            }
        }
    }

    /// Merges sibling worker slots `a` and `b` (in either order) back into
    /// one: their parent `Split` node collapses to a leaf served by the
    /// smaller slot with a fresh engine id, the larger slot is freed, and —
    /// to keep worker numbering dense, as the codec requires — the previous
    /// last slot is renumbered into the freed one (see
    /// [`MergeSpec::moved_slot`]). The generation advances. Returns `None`
    /// unless the pair is listed by
    /// [`merge_candidates`](Self::merge_candidates).
    pub fn merge(&mut self, a: usize, b: usize) -> Option<MergeSpec> {
        if a == b || a >= self.n_workers || b >= self.n_workers {
            return None;
        }
        let (kept, freed) = (a.min(b) as u32, a.max(b) as u32);
        let merged_engine = self.next_engine;
        let mut spec = None;
        for root in &mut self.slots {
            if spec.is_some() {
                break;
            }
            Self::merge_in(root, kept, freed, merged_engine, &mut spec);
        }
        let mut spec = spec?;
        let last = self.n_workers - 1;
        if spec.freed_slot != last {
            for root in &mut self.slots {
                Self::renumber(root, last as u32, freed);
            }
            spec.moved_slot = Some(last);
        }
        self.next_engine += 1;
        self.n_workers -= 1;
        self.generation += 1;
        Some(spec)
    }

    fn merge_in(
        node: &mut RouteNode,
        kept: u32,
        freed: u32,
        merged_engine: u64,
        spec: &mut Option<MergeSpec>,
    ) {
        if let RouteNode::Split { zero, one } = node {
            if let (
                RouteNode::Leaf {
                    worker: w0,
                    engine: e0,
                },
                RouteNode::Leaf {
                    worker: w1,
                    engine: e1,
                },
            ) = (&**zero, &**one)
            {
                if (w0.min(w1), w0.max(w1)) == (&kept, &freed) {
                    *spec = Some(MergeSpec {
                        slot: kept as usize,
                        freed_slot: freed as usize,
                        moved_slot: None,
                        zero_slot: *w0 as usize,
                        one_slot: *w1 as usize,
                        zero_engine: *e0,
                        one_engine: *e1,
                        merged_engine,
                    });
                    *node = RouteNode::Leaf {
                        worker: kept,
                        engine: merged_engine,
                    };
                    return;
                }
            }
            Self::merge_in(zero, kept, freed, merged_engine, spec);
            if spec.is_none() {
                Self::merge_in(one, kept, freed, merged_engine, spec);
            }
        }
    }

    fn renumber(node: &mut RouteNode, from: u32, to: u32) {
        match node {
            RouteNode::Leaf { worker, .. } => {
                if *worker == from {
                    *worker = to;
                }
            }
            RouteNode::Split { zero, one } => {
                Self::renumber(zero, from, to);
                Self::renumber(one, from, to);
            }
        }
    }

    /// Serialises the map (without framing — the caller owns magic/CRC, e.g.
    /// the deployment `MANIFEST`).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(match self.base {
            ShardFn::Hashed => 0,
            ShardFn::Modulo => 1,
        });
        put_u64(buf, self.n_base as u64);
        put_u64(buf, self.generation);
        put_u64(buf, self.next_engine);
        put_u64(buf, self.n_workers as u64);
        for root in &self.slots {
            Self::encode_node(root, buf);
        }
    }

    fn encode_node(node: &RouteNode, buf: &mut Vec<u8>) {
        match node {
            RouteNode::Leaf { worker, engine } => {
                buf.push(0);
                put_u32(buf, *worker);
                put_u64(buf, *engine);
            }
            RouteNode::Split { zero, one } => {
                buf.push(1);
                Self::encode_node(zero, buf);
                Self::encode_node(one, buf);
            }
        }
    }

    /// Decodes a map written by [`encode_into`](Self::encode_into),
    /// validating structure: positive bounded slot counts, split depth at
    /// most [`MAX_SPLIT_DEPTH`], and every worker slot below `n_workers`
    /// appearing exactly once across the tries.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let base = match r.u8()? {
            0 => ShardFn::Hashed,
            1 => ShardFn::Modulo,
            _ => return Err(CodecError::Invalid("unknown shard fn tag")),
        };
        let n_base = r.u64()? as usize;
        let generation = r.u64()?;
        let next_engine = r.u64()?;
        let n_workers = r.u64()? as usize;
        if n_base == 0 || n_workers < n_base {
            return Err(CodecError::Invalid("shard map slot counts out of range"));
        }
        // A leaf costs at least 13 encoded bytes; reject counts the payload
        // cannot possibly hold before allocating.
        if n_workers > r.remaining() / 13 + 1 {
            return Err(CodecError::Invalid(
                "shard map worker count exceeds payload",
            ));
        }
        let mut slots = Vec::with_capacity(n_base);
        for _ in 0..n_base {
            slots.push(Self::decode_node(r, 0)?);
        }
        let map = ShardMap {
            base,
            n_base,
            generation,
            next_engine,
            n_workers,
            slots,
        };
        let mut seen = vec![false; n_workers];
        let mut valid = true;
        for root in &map.slots {
            Self::visit(root, &mut |worker, engine| {
                match seen.get_mut(worker as usize) {
                    Some(s) if !*s => *s = true,
                    _ => valid = false,
                }
                if engine >= next_engine {
                    valid = false;
                }
            });
        }
        if !valid || !seen.iter().all(|&s| s) {
            return Err(CodecError::Invalid("shard map worker slots inconsistent"));
        }
        Ok(map)
    }

    fn decode_node(r: &mut ByteReader<'_>, depth: usize) -> Result<RouteNode, CodecError> {
        if depth > MAX_SPLIT_DEPTH {
            return Err(CodecError::Invalid("shard map split depth exceeded"));
        }
        match r.u8()? {
            0 => Ok(RouteNode::Leaf {
                worker: r.u32()?,
                engine: r.u64()?,
            }),
            1 => {
                let zero = Box::new(Self::decode_node(r, depth + 1)?);
                let one = Box::new(Self::decode_node(r, depth + 1)?);
                Ok(RouteNode::Split { zero, one })
            }
            _ => Err(CodecError::Invalid("unknown shard map node tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> VertexId {
        VertexId(id)
    }

    #[test]
    fn generation_zero_matches_static_assignment() {
        for base in [ShardFn::Hashed, ShardFn::Modulo] {
            let map = ShardMap::new(base, 4);
            assert_eq!(map.n_workers(), 4);
            assert_eq!(map.generation(), 0);
            assert_eq!(map.worker_engines(), vec![0, 1, 2, 3]);
            for id in 0..500 {
                assert_eq!(map.route(v(id)), base.shard(v(id), 4));
            }
        }
    }

    #[test]
    fn split_moves_only_the_split_slice() {
        let mut map = ShardMap::new(ShardFn::Modulo, 2);
        let before: Vec<usize> = (0..1000).map(|id| map.route(v(id))).collect();
        let spec = map.split(0).unwrap();
        assert_eq!(spec.slot, 0);
        assert_eq!(spec.new_slot, 2);
        assert_eq!(spec.parent_engine, 0);
        assert_eq!(
            (spec.child_zero_engine, spec.child_one_engine),
            (2, 3),
            "children get fresh engine ids"
        );
        assert_eq!(map.n_workers(), 3);
        assert_eq!(map.generation(), 1);
        assert_eq!(map.engine_of(0), Some(2));
        assert_eq!(map.engine_of(1), Some(1));
        assert_eq!(map.engine_of(2), Some(3));
        for id in 0..1000u32 {
            let now = map.route(v(id));
            if before[id as usize] == 1 {
                assert_eq!(now, 1, "untouched slice must not move");
            } else {
                // Modulo base 2: bit 0 of v / 2 decides the child.
                let expect = if (id / 2) & 1 == 1 { 2 } else { 0 };
                assert_eq!(now, expect);
            }
        }
    }

    #[test]
    fn modulo_splits_keep_congruence_classes_together() {
        // Communities aligned mod 8 over a 2-slot base survive two split
        // levels: every member of a residue class routes identically.
        let mut map = ShardMap::new(ShardFn::Modulo, 2);
        map.split(0).unwrap();
        map.split(1).unwrap();
        map.split(0).unwrap();
        for class in 0..8u32 {
            let owner = map.route(v(class));
            for k in 0..50u32 {
                assert_eq!(map.route(v(class + 8 * k)), owner, "class {class}");
            }
        }
    }

    #[test]
    fn hashed_splits_are_deterministic_and_two_sided() {
        let mut map = ShardMap::new(ShardFn::Hashed, 2);
        map.split(1).unwrap();
        let routes: Vec<usize> = (0..4000).map(|id| map.route(v(id))).collect();
        assert_eq!(
            routes,
            (0..4000).map(|id| map.route(v(id))).collect::<Vec<_>>()
        );
        // Both children of the split receive a non-trivial share.
        let kept = routes.iter().filter(|&&s| s == 1).count();
        let moved = routes.iter().filter(|&&s| s == 2).count();
        assert!(kept > 200 && moved > 200, "kept {kept}, moved {moved}");
    }

    #[test]
    fn split_rejects_unknown_slots() {
        let mut map = ShardMap::new(ShardFn::Modulo, 2);
        assert!(map.split(2).is_none());
        assert_eq!(map.generation(), 0);
        assert_eq!(map.next_engine(), 2);
    }

    #[test]
    fn merge_is_the_exact_inverse_of_split() {
        let mut map = ShardMap::new(ShardFn::Modulo, 2);
        let routes_before: Vec<usize> = (0..1000).map(|id| map.route(v(id))).collect();
        map.split(0).unwrap();
        assert_eq!(map.merge_candidates(), vec![(0, 2)]);
        let spec = map.merge(2, 0).unwrap();
        assert_eq!(spec.slot, 0);
        assert_eq!(spec.freed_slot, 2);
        assert_eq!(spec.moved_slot, None, "freed slot was the last slot");
        assert_eq!((spec.zero_slot, spec.one_slot), (0, 2));
        assert_eq!((spec.zero_engine, spec.one_engine), (2, 3));
        assert_eq!(spec.merged_engine, 4, "merged shard gets a fresh id");
        assert_eq!(map.n_workers(), 2);
        assert_eq!(map.generation(), 2);
        assert!(map.merge_candidates().is_empty());
        let routes_after: Vec<usize> = (0..1000).map(|id| map.route(v(id))).collect();
        assert_eq!(routes_after, routes_before, "routing reverts exactly");
        assert_eq!(map.worker_engines(), vec![4, 1]);
    }

    #[test]
    fn merge_renumbers_the_last_slot_into_a_freed_middle_slot() {
        // Split both base slots: workers 0..=3, with sibling pairs (0, 2)
        // and (1, 3). Merging (0, 2) frees the middle slot 2, so worker 3
        // must be renumbered into it to keep numbering dense.
        let mut map = ShardMap::new(ShardFn::Modulo, 2);
        map.split(0).unwrap();
        map.split(1).unwrap();
        let owner_before: Vec<usize> = (0..1000).map(|id| map.route(v(id))).collect();
        let engine_of_3 = map.engine_of(3).unwrap();
        let mut candidates = map.merge_candidates();
        candidates.sort_unstable();
        assert_eq!(candidates, vec![(0, 2), (1, 3)]);

        let spec = map.merge(0, 2).unwrap();
        assert_eq!(spec.moved_slot, Some(3));
        assert_eq!(map.n_workers(), 3);
        // Worker 3's slice now routes to slot 2, with its engine unchanged.
        assert_eq!(map.engine_of(2), Some(engine_of_3));
        for id in 0..1000u32 {
            let expect = match owner_before[id as usize] {
                0 | 2 => 0,
                3 => 2,
                other => other,
            };
            assert_eq!(map.route(v(id)), expect, "vertex {id}");
        }
        // The surviving sibling pair follows the renumbering.
        assert_eq!(map.merge_candidates(), vec![(1, 2)]);

        // The renumbered map still round-trips the codec (the dense-slot
        // validation in decode passes).
        let mut buf = Vec::new();
        map.encode_into(&mut buf);
        assert_eq!(ShardMap::decode(&mut ByteReader::new(&buf)).unwrap(), map);
    }

    #[test]
    fn merge_rejects_non_siblings() {
        let mut map = ShardMap::new(ShardFn::Modulo, 4);
        // Base slots are not siblings (there is no Split node at all).
        assert!(map.merge(0, 1).is_none());
        map.split(0).unwrap();
        // (0, 4) are siblings; (0, 1) and (1, 4) are not. Self and
        // out-of-range pairs are rejected outright.
        assert!(map.merge(0, 1).is_none());
        assert!(map.merge(1, 4).is_none());
        assert!(map.merge(2, 2).is_none());
        assert!(map.merge(0, 9).is_none());
        assert_eq!(map.generation(), 1);
        assert_eq!(map.next_engine(), 6);
        assert!(map.merge(0, 4).is_some());
    }

    #[test]
    fn codec_round_trips_across_generations() {
        let mut map = ShardMap::new(ShardFn::Hashed, 3);
        for _ in 0..4 {
            let slot = map.n_workers() - 1;
            map.split(slot).unwrap();
        }
        let mut buf = Vec::new();
        map.encode_into(&mut buf);
        let decoded = ShardMap::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded, map);
        assert!(ByteReader::new(&buf).remaining() > 0);

        // Truncations never panic and never decode.
        for cut in 0..buf.len() {
            assert!(ShardMap::decode(&mut ByteReader::new(&buf[..cut])).is_err());
        }
    }

    #[test]
    fn decode_rejects_inconsistent_worker_sets() {
        let mut map = ShardMap::new(ShardFn::Modulo, 2);
        map.split(0).unwrap();
        let mut buf = Vec::new();
        map.encode_into(&mut buf);
        // Claim one more worker than the tries name.
        let mut bad = buf.clone();
        bad[1 + 8 + 8 + 8] += 1;
        assert!(ShardMap::decode(&mut ByteReader::new(&bad)).is_err());
    }
}
