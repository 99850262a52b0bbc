//! Hand-rolled binary codec for the persistence layer.
//!
//! The build environment is fully offline (see `vendor/`), so the write-ahead
//! log and the engine snapshots use a small, explicit little-endian codec
//! instead of a serde framework: fixed-width primitives, a table-driven
//! CRC-32 for integrity framing, and a bounds-checked [`ByteReader`] that
//! turns every malformed input into a [`CodecError`] instead of a panic.
//!
//! Layout conventions shared by every persisted artifact:
//!
//! * all integers little-endian; `f64` as its IEEE-754 bit pattern (exact —
//!   a restored score is bit-identical to the stored one);
//! * variable-length structures carry explicit counts up front;
//! * integrity is checked with CRC-32 (IEEE, reflected polynomial
//!   `0xEDB88320`), computed over the payload it frames.

use crate::{EdgeUpdate, VertexId, VertexSet};

/// An error decoding a persisted artifact. Decoding never panics: truncated,
/// corrupt or semantically invalid bytes all surface as a `CodecError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the expected structure was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The bytes decoded to a semantically invalid value.
    Invalid(&'static str),
    /// A CRC-32 check failed.
    CrcMismatch {
        /// The checksum stored alongside the payload.
        stored: u32,
        /// The checksum computed from the payload.
        computed: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// The slicing-by-8 tables: `table[0]` is the classic one-byte table, and
/// `table[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes, so that eight bytes fold in with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, as used by the WAL record framing and the
/// snapshot trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `a` followed by `bytes`, given `crc == crc32(a)`: a CRC
/// over several slices without joining them. Eight bytes at a time
/// (slicing-by-8), the tail one at a time.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends one length-prefixed, CRC-framed record:
/// `len u32 | crc32(payload) u32 | payload`. The inverse of
/// [`split_frame`]; shared by the shard WAL and the entity-name journal.
pub fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    put_frame_with(buf, |buf| buf.extend_from_slice(payload));
}

/// Appends one [`put_frame`] record whose payload `encode` appends in place:
/// the header is reserved first and filled in once the payload is written,
/// so the payload is never copied.
pub fn put_frame_with(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 8]);
    encode(buf);
    let payload = &buf[at + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// One [`put_frame`] record split off the front of a byte slice by
/// [`split_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameSplit<'a> {
    /// A whole, CRC-valid record: its payload, and the bytes it spans
    /// (header included), which is where the next record starts.
    Complete {
        /// The record's payload.
        payload: &'a [u8],
        /// Header plus payload length.
        used: usize,
    },
    /// The slice is a proper prefix of a record: more bytes may complete it.
    NeedMore,
    /// The header's length is over the bound, or the payload fails its CRC.
    Corrupt(CodecError),
}

/// Splits one [`put_frame`] record off the front of `bytes`: the one place a
/// record header is decoded, for the WAL, the entity-name journal and the
/// wire alike. A length above `max_len` is corrupt as soon as the header is
/// in, before its payload is waited for; `u32::MAX` bounds nothing. Never
/// panics on arbitrary input.
pub fn split_frame(bytes: &[u8], max_len: u32) -> FrameSplit<'_> {
    let Some((header, rest)) = bytes.split_first_chunk::<8>() else {
        return FrameSplit::NeedMore;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let stored = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_len {
        return FrameSplit::Corrupt(CodecError::Invalid("frame length over the bound"));
    }
    let Some(payload) = rest.get(..len as usize) else {
        return FrameSplit::NeedMore;
    };
    let computed = crc32(payload);
    if computed != stored {
        return FrameSplit::Corrupt(CodecError::CrcMismatch { stored, computed });
    }
    FrameSplit::Complete {
        payload,
        used: 8 + payload.len(),
    }
}

/// The result of scanning a stream of [`put_frame`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameScan {
    /// `true` if the input ended exactly at a record boundary; `false` if a
    /// truncated, CRC-invalid or semantically rejected suffix follows the
    /// last valid record (a torn tail, or corruption).
    pub clean: bool,
    /// Byte offset of the end of the last valid record — the length to
    /// truncate to when repairing a torn tail.
    pub valid_len: u64,
}

/// Scans length-prefixed CRC-framed records with [`split_frame`] (no length
/// bound: a WAL micro-batch record is as long as its batch), calling
/// `on_payload` for each CRC-valid payload in order. `on_payload` returns
/// `false` to reject a payload that decodes to something semantically
/// invalid — the scan then stops at that record's boundary, exactly as it
/// does for a truncated or CRC-invalid suffix. Never panics on arbitrary
/// input.
pub fn scan_frames<'a>(bytes: &'a [u8], mut on_payload: impl FnMut(&'a [u8]) -> bool) -> FrameScan {
    let mut pos = 0;
    while pos < bytes.len() {
        match split_frame(&bytes[pos..], u32::MAX) {
            FrameSplit::Complete { payload, used } if on_payload(payload) => pos += used,
            _ => {
                return FrameScan {
                    clean: false,
                    valid_len: pos as u64,
                }
            }
        }
    }
    FrameScan {
        clean: true,
        valid_len: pos as u64,
    }
}

/// Validates the standard persistence envelope `payload | crc32(payload)
/// u32` and returns the payload. Shared by engine snapshots, snapshot
/// files and the deployment manifest, so the framing lives in one place.
pub fn verify_crc_trailer(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated {
            needed: 4,
            available: bytes.len(),
        });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(CodecError::CrcMismatch { stored, computed });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Little-endian primitive writers
// ---------------------------------------------------------------------------

/// Appends a single byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32` in little-endian byte order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian byte order.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bit pattern.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string: `len u32 | bytes`. The inverse of
/// [`ByteReader::str`]. Used by the serving wire protocol for entity names
/// and error messages.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A cursor over a byte slice whose every read is bounds-checked.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Number of unread bytes.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string written by [`put_str`]. The
    /// length prefix is validated against the remaining input *before*
    /// anything is materialised, so a corrupt huge length cannot drive an
    /// allocation.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Invalid("string is not valid UTF-8"))
    }
}

// ---------------------------------------------------------------------------
// VertexSet codec
// ---------------------------------------------------------------------------

impl VertexSet {
    /// Appends the canonical encoding: `count u32 | count × vertex u32`, in
    /// the set's ascending order.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for v in self.iter() {
            put_u32(buf, v.0);
        }
    }

    /// Decodes a vertex set, validating the canonical-form invariant: the
    /// vertices must be strictly ascending (sorted and duplicate-free), so
    /// that decoding is exactly inverse to [`VertexSet::encode_into`] and a
    /// decoded set compares byte-identically to the encoded one.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<VertexSet, CodecError> {
        let count = r.u32()? as usize;
        // Bounds before allocation: a corrupt count cannot reserve memory
        // the input could never back. Saturating: `count * 4` must not wrap
        // on 32-bit targets (this decoder is reachable from network bytes).
        let needed = count.saturating_mul(4);
        if r.remaining() < needed {
            return Err(CodecError::Truncated {
                needed,
                available: r.remaining(),
            });
        }
        let mut vertices = Vec::with_capacity(count);
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let v = r.u32()?;
            if prev.is_some_and(|p| p >= v) {
                return Err(CodecError::Invalid("vertex set not strictly ascending"));
            }
            prev = Some(v);
            vertices.push(VertexId(v));
        }
        Ok(VertexSet::from_vertices(vertices))
    }
}

// ---------------------------------------------------------------------------
// EdgeUpdate codec
// ---------------------------------------------------------------------------

impl EdgeUpdate {
    /// Encoded size of one update: two `u32` endpoints plus an `f64` delta.
    pub const ENCODED_LEN: usize = 16;

    /// Appends the canonical 16-byte encoding (`a`, `b`, `delta`, all
    /// little-endian, with `a < b`).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let (a, b) = if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        };
        put_u32(buf, a.0);
        put_u32(buf, b.0);
        put_f64(buf, self.delta);
    }

    /// Decodes one update from the reader, validating the invariants
    /// [`EdgeUpdate::new`] would otherwise enforce by panicking: endpoints in
    /// strictly ascending order (which also rules out self-loops) and a
    /// finite delta.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<EdgeUpdate, CodecError> {
        let a = VertexId(r.u32()?);
        let b = VertexId(r.u32()?);
        let delta = r.f64()?;
        if a >= b {
            return Err(CodecError::Invalid("edge endpoints not in ascending order"));
        }
        if !delta.is_finite() {
            return Err(CodecError::Invalid("edge update delta is not finite"));
        }
        Ok(EdgeUpdate { a, b, delta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(u: EdgeUpdate) -> EdgeUpdate {
        let mut buf = Vec::new();
        u.encode_into(&mut buf);
        assert_eq!(buf.len(), EdgeUpdate::ENCODED_LEN);
        let mut r = ByteReader::new(&buf);
        let back = EdgeUpdate::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        back
    }

    #[test]
    fn edge_update_round_trips_exactly() {
        for (a, b, delta) in [
            (0u32, 1u32, 1.5f64),
            (3, 9, -0.25),
            (7, 8, f64::MIN_POSITIVE),
            (0, u32::MAX, -1e300),
            (u32::MAX - 1, u32::MAX, 3.5),
        ] {
            let u = EdgeUpdate::new(VertexId(a), VertexId(b), delta);
            assert_eq!(round_trip(u), u);
        }
    }

    #[test]
    fn decode_rejects_malformed_updates() {
        // Self loop / descending order.
        let mut buf = Vec::new();
        put_u32(&mut buf, 5);
        put_u32(&mut buf, 5);
        put_f64(&mut buf, 1.0);
        assert!(matches!(
            EdgeUpdate::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid(_))
        ));
        // Non-finite delta.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 2);
        put_f64(&mut buf, f64::NAN);
        assert!(matches!(
            EdgeUpdate::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid(_))
        ));
        // Truncated.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        assert!(matches!(
            EdgeUpdate::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// CRC-32 as defined: the reflected polynomial applied bit by bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_definition() {
        // xorshift64*: deterministic bytes without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random_bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
                })
                .collect()
        };
        // Every length 0–64 at every offset 0–7 of the buffer, so that the
        // eight-byte words start at every alignment and every tail length
        // is covered.
        let buf = random_bytes(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
        for _ in 0..3 {
            let big = random_bytes(64 << 10);
            assert_eq!(crc32(&big), crc32_bitwise(&big));
            let (head, tail) = big.split_at(12_345);
            assert_eq!(crc32_extend(crc32(head), tail), crc32(&big));
        }
    }

    #[test]
    fn crc_trailer_round_trip_and_rejection() {
        let mut framed = b"payload".to_vec();
        put_u32(&mut framed, crc32(b"payload"));
        assert_eq!(verify_crc_trailer(&framed).unwrap(), b"payload");
        framed[2] ^= 0x10;
        assert!(matches!(
            verify_crc_trailer(&framed),
            Err(CodecError::CrcMismatch { .. })
        ));
        assert!(matches!(
            verify_crc_trailer(&[1, 2]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn split_frame_completes_waits_or_rejects() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"payload");
        put_frame_with(&mut wire, |buf| buf.extend_from_slice(b"next"));
        assert_eq!(
            split_frame(&wire, u32::MAX),
            FrameSplit::Complete {
                payload: b"payload",
                used: 15
            }
        );
        assert_eq!(
            split_frame(&wire[15..], u32::MAX),
            FrameSplit::Complete {
                payload: b"next",
                used: 12
            }
        );
        // Every proper prefix of a record waits for more bytes.
        for cut in 0..15 {
            assert_eq!(split_frame(&wire[..cut], u32::MAX), FrameSplit::NeedMore);
        }
        // A length over the bound is rejected from the header alone.
        assert!(matches!(
            split_frame(&wire[..8], 6),
            FrameSplit::Corrupt(CodecError::Invalid(_))
        ));
        let mut corrupt = wire.clone();
        corrupt[10] ^= 0x04;
        assert!(matches!(
            split_frame(&corrupt, u32::MAX),
            FrameSplit::Corrupt(CodecError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn str_round_trip_and_rejection() {
        let mut buf = Vec::new();
        put_str(&mut buf, "Osama bin Laden");
        put_str(&mut buf, "");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str().unwrap(), "Osama bin Laden");
        assert_eq!(r.str().unwrap(), "");
        assert!(r.is_empty());
        // Invalid UTF-8.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            ByteReader::new(&buf).str(),
            Err(CodecError::Invalid(_))
        ));
        // A huge corrupt length is rejected before any allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            ByteReader::new(&buf).str(),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn vertex_set_round_trip_and_rejection() {
        for ids in [&[][..], &[7][..], &[0, 3, 9, u32::MAX][..]] {
            let set = VertexSet::from_ids(ids);
            let mut buf = Vec::new();
            set.encode_into(&mut buf);
            let mut r = ByteReader::new(&buf);
            assert_eq!(VertexSet::decode(&mut r).unwrap(), set);
            assert!(r.is_empty());
        }
        // Not strictly ascending (duplicate).
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u32(&mut buf, 5);
        put_u32(&mut buf, 5);
        assert!(matches!(
            VertexSet::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid(_))
        ));
        // Count larger than the input can back.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        put_u32(&mut buf, 1);
        assert!(matches!(
            VertexSet::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(r.u32(), Err(CodecError::Truncated { .. })));
        // A failed read leaves the cursor untouched.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.take(2).unwrap(), &[2, 3]);
        assert!(r.is_empty());
    }
}
