//! Incremental frame reading over byte streams.
//!
//! The wire carries the same `len u32 | crc32(payload) u32 | payload` records
//! as the shard WAL ([`dyndens_graph::codec::put_frame`]), and both are split
//! by one parser, [`dyndens_graph::codec::split_frame`]. [`FrameBuffer`]
//! feeds it from a socket: the server's event loops and the client's one
//! read loop (blocking or not) read through it. A CRC mismatch, a length over
//! [`MAX_FRAME_LEN`] or a mid-frame EOF desynchronises the stream, so the
//! connection is torn down rather than resynchronised.

use std::io::{self, Read};

use dyndens_graph::codec::{split_frame, FrameSplit};

use crate::protocol::MAX_FRAME_LEN;

/// The least spare room [`FrameBuffer::fill_from`] offers the source per
/// call.
const FILL_CHUNK: usize = 16 * 1024;

/// An incremental frame decoder.
///
/// A frame may straddle arbitrarily many reads, so the work is split into
/// [`fill_from`](Self::fill_from) (one `read` call, appending whatever
/// arrived) and [`next_frame`](Self::next_frame) (pops one complete,
/// CRC-verified frame if buffered).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// `[start, end)` is read but not yet popped. `[end, len)` is spare
    /// room, zeroed once when the buffer grew and reused by every later read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Performs **one** `read` on `r`, appending whatever arrived. Returns
    /// the byte count (`Ok(0)` is EOF). `WouldBlock` and every other error
    /// pass through untouched; the buffer is unchanged on error.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.buf.len() - self.end < FILL_CHUNK {
            self.buf.resize(self.end + FILL_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pops one complete frame's payload, if buffered. Returns `Ok(None)`
    /// when more bytes are needed; a length over [`MAX_FRAME_LEN`] (known
    /// from the header alone) or a CRC mismatch is an `InvalidData` error.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let (payload, used) = match split_frame(&self.buf[self.start..self.end], MAX_FRAME_LEN) {
            FrameSplit::Complete { payload, used } => (payload.to_vec(), used),
            FrameSplit::NeedMore => return Ok(None),
            FrameSplit::Corrupt(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        };
        self.start += used;
        // Reclaim the consumed prefix once it dominates what is buffered (at
        // no cost when nothing is left), so a long-lived connection's
        // buffer stays proportional to its backlog.
        if self.start == self.end || (self.start > FILL_CHUNK && self.start * 2 > self.end) {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        Ok(Some(payload))
    }

    /// `true` while the buffer holds a partial frame — an EOF now would be a
    /// torn frame, not a clean hang-up.
    pub fn has_partial(&self) -> bool {
        self.end > self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_graph::codec::{put_frame, scan_frames};
    use proptest::prelude::*;

    /// A source that serves `bytes` in reads of the given sizes, cycled.
    struct Chunked<'a> {
        rest: &'a [u8],
        sizes: &'a [usize],
        next: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = size.min(out.len()).min(self.rest.len());
            out[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// How a stream fed through a [`FrameBuffer`] ended.
    #[derive(Debug, PartialEq, Eq)]
    enum End {
        /// EOF at a frame boundary.
        Clean,
        /// EOF inside a frame.
        Torn,
        /// `next_frame` reported `InvalidData`.
        Corrupt,
    }

    /// Feeds `bytes` to a fresh [`FrameBuffer`] in reads of `sizes`,
    /// popping every frame as it completes: the payloads, and how the
    /// stream ended.
    fn feed(bytes: &[u8], sizes: &[usize]) -> (Vec<Vec<u8>>, End) {
        let mut source = Chunked {
            rest: bytes,
            sizes,
            next: 0,
        };
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        loop {
            match fb.next_frame() {
                Ok(Some(payload)) => frames.push(payload),
                Ok(None) if fb.fill_from(&mut source).unwrap() > 0 => {}
                Ok(None) if fb.has_partial() => return (frames, End::Torn),
                Ok(None) => return (frames, End::Clean),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    return (frames, End::Corrupt);
                }
            }
        }
    }

    #[test]
    fn frame_round_trip_over_a_stream() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"first");
        put_frame(&mut wire, b"");
        put_frame(&mut wire, b"third message");
        let (frames, end) = feed(&wire, &[FILL_CHUNK]);
        assert_eq!(
            frames,
            vec![b"first".to_vec(), b"".to_vec(), b"third message".to_vec()]
        );
        assert_eq!(end, End::Clean, "clean EOF");
    }

    #[test]
    fn torn_and_corrupt_frames_are_io_errors() {
        let end = |bytes: &[u8]| feed(bytes, &[FILL_CHUNK]).1;
        let mut wire = Vec::new();
        put_frame(&mut wire, b"payload");
        assert_eq!(end(&wire[..5]), End::Torn, "EOF in the header");
        assert_eq!(end(&wire[..10]), End::Torn, "EOF in the payload");
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        assert_eq!(end(&corrupt), End::Corrupt, "CRC mismatch");
        // Hostile length prefix: rejected from the header alone, before its
        // payload is waited for.
        let mut hostile = wire;
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(end(&hostile[..8]), End::Corrupt, "hostile length");
    }

    #[test]
    fn frame_buffer_decodes_byte_by_byte() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"alpha");
        put_frame(&mut wire, b"");
        put_frame(&mut wire, b"beta frame");

        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        // Feed one byte at a time: frames must pop exactly at the boundaries.
        for chunk in wire.chunks(1) {
            let mut cursor = io::Cursor::new(chunk);
            assert_eq!(fb.fill_from(&mut cursor).unwrap(), 1);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(
            got,
            vec![b"alpha".to_vec(), b"".to_vec(), b"beta frame".to_vec()]
        );
        assert!(!fb.has_partial());
    }

    #[test]
    fn frame_buffer_rejects_corruption_and_tracks_partials() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"payload");

        // Partial header: not an error, just not a frame yet.
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut &wire[..5]).unwrap();
        assert!(fb.next_frame().unwrap().is_none());
        assert!(fb.has_partial());

        // Corrupt payload byte: CRC mismatch.
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut corrupt.as_slice()).unwrap();
        assert_eq!(
            fb.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Hostile length prefix: rejected before buffering the "payload".
        let mut hostile = wire;
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut &hostile[..8]).unwrap();
        assert_eq!(
            fb.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frame_buffer_compacts_consumed_prefix() {
        let big = vec![0xABu8; FILL_CHUNK];
        let mut wire = Vec::new();
        for _ in 0..4 {
            put_frame(&mut wire, &big);
        }
        let mut fb = FrameBuffer::new();
        let mut source = wire.as_slice();
        while fb.fill_from(&mut source).unwrap() > 0 {}
        let grown = fb.buf.len();
        for _ in 0..4 {
            assert_eq!(fb.next_frame().unwrap().unwrap(), big);
        }
        assert!(!fb.has_partial());
        // The consumed prefix was reclaimed, not retained forever.
        assert!(fb.end < 2 * FILL_CHUNK, "buffer compacted");
        // The spare room stays initialised: the same stream again reads
        // into it without growing (or zeroing) anything.
        let mut source = wire.as_slice();
        while fb.fill_from(&mut source).unwrap() > 0 {}
        assert_eq!(fb.buf.len(), grown);
    }

    /// The CRC frames of `payloads`, back to back.
    fn frames_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for payload in payloads {
            put_frame(&mut wire, payload);
        }
        wire
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The stream parser (`scan_frames`, no length bound) and the socket
        /// parser (`FrameBuffer`, fed in random-sized reads) agree on every
        /// input: the same payloads, stopping at the same offset.
        #[test]
        fn scan_frames_and_frame_buffer_agree_on_any_bytes(
            kind in 0..3u8,
            payloads in prop::collection::vec(prop::collection::vec(0..=255u8, 0..40), 0..6),
            cut in 0..u32::MAX,
            flip in (0..u32::MAX, 0..8u32),
            junk in prop::collection::vec(0..=255u8, 0..120),
            sizes in prop::collection::vec(1..48usize, 1..8),
        ) {
            let bytes = match kind {
                // A valid stream cut at a random point, then the same with
                // one bit flipped, then arbitrary bytes.
                0 | 1 => {
                    let mut wire = frames_of(&payloads);
                    wire.truncate(cut as usize % (wire.len() + 1));
                    if kind == 1 && !wire.is_empty() {
                        let at = flip.0 as usize % wire.len();
                        wire[at] ^= 1 << flip.1;
                    }
                    wire
                }
                _ => junk,
            };
            let mut scanned = Vec::new();
            let scan = scan_frames(&bytes, |payload| {
                scanned.push(payload.to_vec());
                true
            });
            let (buffered, end) = feed(&bytes, &sizes);
            prop_assert_eq!(&buffered, &scanned);
            let offset: usize = buffered.iter().map(|p| 8 + p.len()).sum();
            prop_assert_eq!(offset as u64, scan.valid_len);
            prop_assert_eq!(end == End::Clean, scan.clean);
        }
    }
}
