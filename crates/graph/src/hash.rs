//! A fast, non-cryptographic hasher for small-integer keys.
//!
//! The workspace keeps many hash maps keyed by [`VertexId`](crate::VertexId)
//! or pairs of them (co-occurrence trackers, workload weight books). The
//! default SipHash hasher of the standard library
//! is robust against HashDoS but noticeably slow for 4-byte integer keys, so we
//! provide a small multiply-and-rotate hasher in the spirit of the widely used
//! "Fx" family. The implementation below is written from scratch; it is *not*
//! suitable for adversarial inputs, which is acceptable because vertex
//! identifiers are assigned internally and never attacker controlled.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit mixing constant (the golden-ratio based odd constant used by many
/// multiplicative hashers).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast hasher for small keys (integers, short byte strings).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`] instances.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Maps a vertex to one of `n_shards` partitions.
///
/// This is the shard assignment used by the `dyndens-shard` subsystem: edge
/// `(u, v)` is owned by `shard_of(min(u, v), n_shards)`, so consecutive
/// updates to the same edge always land on the same shard (per-edge FIFO is
/// preserved) and all edges sharing a minimum endpoint are co-located. The
/// 64-bit Fx hash is spread over the shards with a multiply-shift rather than
/// a modulo, so every shard receives an (almost) equal slice of the vertex
/// universe even when `n_shards` is a power of two.
///
/// # Panics
///
/// Panics if `n_shards` is zero.
#[inline]
pub fn shard_of(v: crate::VertexId, n_shards: usize) -> usize {
    assert!(n_shards > 0, "shard_of requires at least one shard");
    let mut h = FxHasher::default();
    h.write_u32(v.0);
    ((h.finish() as u128 * n_shards as u128) >> 64) as usize
}

/// A `HashMap` using the fast [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the fast [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexId;

    #[test]
    fn hashes_are_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u32(42);
        b.write_u32(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_keys_usually_differ() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..10_000 {
            let mut h = FxHasher::default();
            h.write_u32(i);
            seen.insert(h.finish());
        }
        // A tiny number of collisions would be tolerable; in practice there are none.
        assert!(seen.len() > 9_990);
    }

    #[test]
    fn byte_writes_cover_remainder_path() {
        let mut h1 = FxHasher::default();
        h1.write(b"hello world, this is more than eight bytes");
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is more than eight bytez");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn shard_of_is_deterministic_and_balanced() {
        for n_shards in [1usize, 2, 3, 4, 8] {
            let mut counts = vec![0usize; n_shards];
            for i in 0..8_000u32 {
                let s = shard_of(VertexId(i), n_shards);
                assert_eq!(s, shard_of(VertexId(i), n_shards));
                counts[s] += 1;
            }
            let expected = 8_000 / n_shards;
            for (shard, &count) in counts.iter().enumerate() {
                assert!(
                    count > expected / 2 && count < expected * 2,
                    "shard {shard}/{n_shards} holds {count} of 8000 vertices"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_rejects_zero_shards() {
        let _ = shard_of(VertexId(0), 0);
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut map: FxHashMap<VertexId, f64> = FxHashMap::default();
        for i in 0..100u32 {
            map.insert(VertexId(i), f64::from(i) * 0.5);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map[&VertexId(10)], 5.0);

        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(7);
        assert!(set.contains(&7));
    }
}
