//! Framed message I/O over byte streams.
//!
//! The wire carries the same `len u32 | crc32(payload) u32 | payload` records
//! as the shard WAL ([`dyndens_graph::codec::put_frame`]); this module reads
//! and writes them incrementally over sockets. A CRC mismatch or a mid-frame
//! EOF desynchronises the stream, so both are surfaced as I/O errors and the
//! connection is torn down rather than resynchronised.

use std::io::{self, Read, Write};

use dyndens_graph::codec::crc32;

use crate::protocol::MAX_FRAME_LEN;

/// Writes one framed payload and flushes.
pub fn write_frame(w: &mut impl Write, framed: &[u8]) -> io::Result<()> {
    w.write_all(framed)?;
    w.flush()
}

/// Reads one framed payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between messages); EOF inside a frame, a
/// length above [`MAX_FRAME_LEN`] and a CRC mismatch are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    // Distinguish "no more messages" from "message cut off": only a zero-byte
    // read before the first header byte is a clean end of stream.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != stored_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame CRC mismatch",
        ));
    }
    Ok(Some(payload))
}

/// How many bytes [`FrameBuffer::fill_from`] asks the source for per call.
const FILL_CHUNK: usize = 16 * 1024;

/// An incremental frame decoder for non-blocking streams.
///
/// [`read_frame`] blocks until a whole frame arrives, which a readiness event
/// loop cannot afford: a frame may straddle arbitrarily many readiness
/// events. `FrameBuffer` splits the work into [`fill_from`](Self::fill_from)
/// (one `read` call, appending whatever arrived) and
/// [`next_frame`](Self::next_frame) (pops one complete, CRC-verified frame if
/// buffered). Both the server's event loops and the client's non-blocking
/// `try_next` path use it; framing errors carry the same `io::ErrorKind`s as
/// [`read_frame`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Creates a buffer pre-seeded with bytes already read from the stream
    /// (e.g. the unconsumed tail of a `BufReader` being converted to
    /// non-blocking use).
    pub fn with_initial(bytes: Vec<u8>) -> Self {
        FrameBuffer {
            buf: bytes,
            start: 0,
        }
    }

    /// Performs **one** `read` on `r`, appending whatever arrived. Returns
    /// the byte count (`Ok(0)` is EOF). `WouldBlock` and every other error
    /// pass through untouched; the buffer is unchanged on error.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let old = self.buf.len();
        self.buf.resize(old + FILL_CHUNK, 0);
        match r.read(&mut self.buf[old..]) {
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// Pops one complete frame's payload, if buffered. Returns `Ok(None)`
    /// when more bytes are needed; a hostile length prefix or a CRC mismatch
    /// is an `InvalidData` error, exactly as in [`read_frame`].
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let pending = &self.buf[self.start..];
        if pending.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte bound"),
            ));
        }
        let stored_crc = u32::from_le_bytes([pending[4], pending[5], pending[6], pending[7]]);
        let total = 8 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[8..total].to_vec();
        self.start += total;
        // Reclaim the consumed prefix once it dominates the allocation, so a
        // long-lived connection's buffer stays proportional to its backlog.
        if self.start > FILL_CHUNK && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if crc32(&payload) != stored_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame CRC mismatch",
            ));
        }
        Ok(Some(payload))
    }

    /// `true` while the buffer holds a partial frame — an EOF now would be a
    /// torn frame, not a clean hang-up.
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_graph::codec::put_frame;

    #[test]
    fn frame_round_trip_over_a_stream() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"first");
        put_frame(&mut wire, b"");
        put_frame(&mut wire, b"third message");
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"third message");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_and_corrupt_frames_are_io_errors() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"payload");
        // EOF inside the header.
        let mut cursor = io::Cursor::new(&wire[..5]);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // EOF inside the payload.
        let mut cursor = io::Cursor::new(&wire[..10]);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Flipped payload byte: CRC mismatch.
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        let mut cursor = io::Cursor::new(corrupt);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Hostile length prefix: rejected before allocation.
        let mut hostile = wire;
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(hostile);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
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
        assert_eq!(fb.buffered_len(), 0);
    }

    #[test]
    fn frame_buffer_rejects_corruption_and_tracks_partials() {
        let mut wire = Vec::new();
        put_frame(&mut wire, b"payload");

        // Partial header: not an error, just not a frame yet.
        let mut fb = FrameBuffer::with_initial(wire[..5].to_vec());
        assert!(fb.next_frame().unwrap().is_none());
        assert!(fb.has_partial());

        // Corrupt payload byte: CRC mismatch.
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        let mut fb = FrameBuffer::with_initial(corrupt);
        assert_eq!(
            fb.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Hostile length prefix: rejected before buffering the "payload".
        let mut hostile = wire;
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fb = FrameBuffer::with_initial(hostile);
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
        let mut fb = FrameBuffer::with_initial(wire);
        for _ in 0..4 {
            assert_eq!(fb.next_frame().unwrap().unwrap(), big);
        }
        assert_eq!(fb.buffered_len(), 0);
        // The consumed prefix was reclaimed, not retained forever.
        assert!(fb.buf.len() < 2 * FILL_CHUNK, "buffer compacted");
    }
}
