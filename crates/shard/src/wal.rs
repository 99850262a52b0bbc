//! The per-shard write-ahead log: append-only segments of CRC-framed,
//! length-prefixed micro-batch records.
//!
//! Each shard worker appends one record per micro-batch **before** applying
//! it to its engine, so that after a crash the updates between the last
//! snapshot and the crash point can be replayed. The log is a sequence of
//! segment files (`wal-00000000.log`, `wal-00000001.log`, …); the writer
//! rotates to a fresh segment when the current one exceeds the configured
//! size or when a snapshot is taken (so whole segments become prunable once
//! a snapshot covers them).
//!
//! ## Record framing
//!
//! ```text
//! record  := len u32 | crc32(payload) u32 | payload
//! payload := first_seq u64 | count u32 | count × EdgeUpdate (16 bytes each)
//! ```
//!
//! `first_seq` is the shard's update sequence number *before* the batch:
//! the record covers sequence numbers `first_seq .. first_seq + count`.
//! Replay uses it to skip the prefix already covered by a snapshot and to
//! detect gaps (which indicate genuine log loss, not a torn tail).
//!
//! A torn write — the process died mid-append — leaves a truncated or
//! CRC-invalid suffix at the end of the final segment. [`scan_segment`]
//! stops cleanly at the first invalid byte and reports where the valid
//! prefix ends, so recovery can truncate the tear away
//! ([`truncate_torn_tail`]) and resume appending; it never panics on corrupt
//! input.
//!
//! The module also holds the durable-write steps every persisted file of a
//! deployment shares: the atomic replace of checkpoints and the `MANIFEST`
//! (`replace_atomic`), the numbered-file listing ([`list_numbered`]) and the
//! torn-tail truncation.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dyndens_graph::codec::{put_frame_with, put_u32, put_u64, scan_frames, ByteReader};
use dyndens_graph::EdgeUpdate;

use crate::config::FsyncPolicy;
use crate::obs::WalObs;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

/// Builds the path of segment `no` inside `dir`.
pub fn segment_path(dir: &Path, no: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{no:08}{SEGMENT_SUFFIX}"))
}

/// Fsyncs a directory, making freshly created or renamed entries durable.
/// Without this, `sync_data` on a brand-new segment file protects its
/// *contents* but the directory entry itself can vanish in an OS/power
/// crash — losing the whole "durable" segment.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Replaces the file `name` in `dir` with the concatenation of `parts`,
/// atomically and durably: write a `.tmp` sibling, `sync_data` it, rename it
/// over the target, fsync `dir`. A crash at any point leaves either the old
/// file or the new one, never a mix. Checkpoints and the deployment
/// `MANIFEST` are written through here and nowhere else.
///
/// Both syncs run whatever [`FsyncPolicy`] says. That policy decides how
/// much of the WAL's newest tail an OS crash may take; losing either of
/// these two files would take more:
///
/// * a checkpoint lets the worker delete the WAL segments behind it
///   ([`WalWriter::prune_to`]). The worker hands the checkpoint to its
///   writer thread and prunes only once the writer reports that this
///   function returned `Ok`: if the snapshot were not durable, an OS crash
///   after the prune could lose both copies of that history;
/// * the `MANIFEST` names the routing topology. A split or merge retires the
///   source directories once its rewrite lands. If the rename were not
///   durable, an OS crash could bring back a manifest naming directories
///   that no longer exist.
pub(crate) fn replace_atomic(dir: &Path, name: &str, parts: &[&[u8]]) -> io::Result<()> {
    let path = dir.join(name);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    sync_dir(dir)
}

/// Cuts a torn tail off the log file at `path`: truncates it to `valid_len`,
/// the end of its last valid frame, and syncs it. Used on open by every
/// append-only log of `len | crc | payload` frames (shard WAL segments, the
/// story pipeline's entity journal) when a scan stops short of the file end.
pub fn truncate_torn_tail(path: &Path, valid_len: u64) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_len)?;
    f.sync_data()
}

/// Lists the files in `dir` named `<prefix><number><suffix>` as
/// `(number, path)`, ascending by number. Other names are skipped.
pub fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let number = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix))
            .and_then(|n| n.strip_suffix(suffix))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(number) = number {
            out.push((number, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(number, _)| number);
    Ok(out)
}

/// Lists the WAL segments in `dir` as `(segment_no, path)`, ascending.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, SEGMENT_PREFIX, SEGMENT_SUFFIX)
}

/// One decoded WAL record: a micro-batch and the shard sequence number it
/// starts at.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The shard's update sequence number before this batch was applied.
    pub first_seq: u64,
    /// The batch, in application order.
    pub updates: Vec<EdgeUpdate>,
}

impl WalRecord {
    /// The sequence number after the whole batch: `first_seq + count`.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.updates.len() as u64
    }
}

/// The result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Every fully valid record, in file order.
    pub records: Vec<WalRecord>,
    /// `true` if the file ended exactly at a record boundary; `false` if a
    /// truncated or corrupt suffix follows the last valid record (a torn
    /// tail).
    pub clean: bool,
    /// Byte offset of the end of the last valid record — the length the file
    /// should be truncated to when repairing a torn tail.
    pub valid_len: u64,
}

/// Scans a segment file, decoding records until the first invalid byte.
///
/// Corruption is not an error at this layer: the scan stops cleanly and the
/// caller decides whether a dirty tail is acceptable (torn tail of the final
/// segment) or fatal (corruption in the middle of the log).
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let bytes = fs::read(path)?;
    let mut records = Vec::new();
    // CRC-valid but semantically invalid payloads (closure returns false)
    // are treated like any other corruption: the scan stops at the record
    // boundary.
    let scan = scan_frames(&bytes, |payload| {
        let parsed = (|| -> Result<WalRecord, dyndens_graph::CodecError> {
            let mut r = ByteReader::new(payload);
            let first_seq = r.u64()?;
            let count = r.u32()? as usize;
            if 12 + count * EdgeUpdate::ENCODED_LEN != payload.len() {
                return Err(dyndens_graph::CodecError::Invalid(
                    "record length disagrees with update count",
                ));
            }
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                updates.push(EdgeUpdate::decode(&mut r)?);
            }
            Ok(WalRecord { first_seq, updates })
        })();
        match parsed {
            Ok(rec) => {
                records.push(rec);
                true
            }
            Err(_) => false,
        }
    });
    Ok(SegmentScan {
        records,
        clean: scan.clean,
        valid_len: scan.valid_len,
    })
}

/// The append side of a shard's WAL.
///
/// Opening always starts a **fresh** segment (numbered after any existing
/// ones): prior segments are never appended to again, which keeps them
/// immutable after a restart and sidesteps writing past a repaired tear.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    /// Live segments as `(segment_no, start_seq)`, ascending; the last entry
    /// is the segment currently being appended to. `start_seq` is the shard
    /// sequence number at which the segment begins — segment `i` covers
    /// sequence numbers `start_seq[i] .. start_seq[i + 1]`.
    segments: Vec<(u64, u64)>,
    seg_bytes: u64,
    fsync: FsyncPolicy,
    segment_max_bytes: u64,
    /// Pre-registered metric handles; `None` keeps every instrumentation
    /// site on the uninstrumented fast path.
    obs: Option<WalObs>,
    /// The record being appended, framed in place; kept across appends so
    /// that an append allocates nothing once it has grown.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Opens the WAL in `dir` for appending from sequence number
    /// `start_seq`, given the live `existing` segments (as `(segment_no,
    /// start_seq)`, ascending — recovery computes these while replaying).
    pub fn open(
        dir: &Path,
        start_seq: u64,
        existing: Vec<(u64, u64)>,
        fsync: FsyncPolicy,
        segment_max_bytes: u64,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let next_no = existing.last().map_or(0, |&(no, _)| no + 1);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(dir, next_no))?;
        if fsync == FsyncPolicy::Always {
            sync_dir(dir)?;
        }
        let mut segments = existing;
        segments.push((next_no, start_seq));
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            segments,
            seg_bytes: 0,
            fsync,
            segment_max_bytes: segment_max_bytes.max(1),
            obs: None,
            frame: Vec::new(),
        })
    }

    /// Attaches (or detaches) pre-registered metric handles. Also refreshes
    /// the segment gauges so a scrape right after recovery is accurate.
    pub(crate) fn set_obs(&mut self, obs: Option<WalObs>) {
        if let Some(o) = &obs {
            o.segments.set(self.segments.len() as u64);
            o.segment_bytes.set(self.seg_bytes);
        }
        self.obs = obs;
    }

    /// Number of live segment files (including the one being written).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Appends one micro-batch covering sequence numbers
    /// `first_seq .. first_seq + updates.len()`, honouring the fsync policy,
    /// and rotates if the segment grew past its size bound.
    pub fn append(&mut self, first_seq: u64, updates: &[EdgeUpdate]) -> io::Result<()> {
        self.frame.clear();
        put_frame_with(&mut self.frame, |payload| {
            put_u64(payload, first_seq);
            put_u32(payload, updates.len() as u32);
            for u in updates {
                u.encode_into(payload);
            }
        });
        let frame_bytes = self.frame.len() as u64;
        let started = self.obs.as_ref().map(|_| Instant::now());
        self.file.write_all(&self.frame)?;
        if self.fsync == FsyncPolicy::Always {
            let sync_started = self.obs.as_ref().map(|_| Instant::now());
            self.file.sync_data()?;
            if let (Some(o), Some(t)) = (self.obs.as_ref(), sync_started) {
                o.fsyncs.inc();
                o.fsync_us.record_micros(t.elapsed());
            }
        }
        self.seg_bytes += frame_bytes;
        if let (Some(o), Some(t)) = (self.obs.as_ref(), started) {
            // Append latency covers the write plus any policy-driven fsync:
            // the full durability cost the micro-batch paid on the hot path.
            o.appends.inc();
            o.append_bytes.add(frame_bytes);
            o.append_us.record_micros(t.elapsed());
            o.segment_bytes.set(self.seg_bytes);
        }
        if self.seg_bytes >= self.segment_max_bytes {
            self.rotate(first_seq + updates.len() as u64)?;
        }
        Ok(())
    }

    /// Closes the current segment and starts a new one whose records begin
    /// at `next_seq`. Called on size overflow and after every snapshot (so
    /// snapshot boundaries coincide with segment boundaries, making pruning
    /// a whole-file operation).
    pub fn rotate(&mut self, next_seq: u64) -> io::Result<()> {
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
            if let Some(o) = self.obs.as_ref() {
                o.fsyncs.inc();
            }
        }
        let next_no = self.segments.last().map_or(0, |&(no, _)| no + 1);
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, next_no))?;
        if self.fsync == FsyncPolicy::Always {
            sync_dir(&self.dir)?;
        }
        self.segments.push((next_no, next_seq));
        self.seg_bytes = 0;
        if let Some(o) = self.obs.as_ref() {
            o.rotations.inc();
            o.segments.set(self.segments.len() as u64);
            o.segment_bytes.set(0);
        }
        Ok(())
    }

    /// Deletes every segment fully covered by sequence numbers below
    /// `keep_from_seq` (i.e. whose successor segment starts at or before
    /// it). The current segment is never deleted. Returns the number of
    /// segments removed.
    pub fn prune_to(&mut self, keep_from_seq: u64) -> io::Result<usize> {
        let mut removed = 0;
        while self.segments.len() >= 2 && self.segments[1].1 <= keep_from_seq {
            let (no, _) = self.segments.remove(0);
            fs::remove_file(segment_path(&self.dir, no))?;
            removed += 1;
        }
        if let Some(o) = self.obs.as_ref() {
            o.segments_pruned.add(removed as u64);
            o.segments.set(self.segments.len() as u64);
        }
        Ok(removed)
    }

    /// Forces buffered records to stable storage regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_graph::VertexId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dyndens-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn batch(n: usize, base: u32) -> Vec<EdgeUpdate> {
        (0..n as u32)
            .map(|i| update(base + i, base + i + 1, 0.5 + i as f64))
            .collect()
    }

    fn scan_all(dir: &Path) -> Vec<WalRecord> {
        let mut out = Vec::new();
        for (_, path) in list_segments(dir).unwrap() {
            let scan = scan_segment(&path).unwrap();
            assert!(scan.clean);
            out.extend(scan.records);
        }
        out
    }

    #[test]
    fn append_and_scan_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::open(&dir, 0, Vec::new(), FsyncPolicy::Never, 1 << 20).unwrap();
        let b1 = batch(3, 0);
        let b2 = batch(5, 10);
        w.append(0, &b1).unwrap();
        w.append(3, &b2).unwrap();
        w.sync().unwrap();

        let records = scan_all(&dir);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].first_seq, 0);
        assert_eq!(records[0].updates, b1);
        assert_eq!(records[1].first_seq, 3);
        assert_eq!(records[1].updates, b2);
        assert_eq!(records[1].end_seq(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_rotation_and_pruning() {
        let dir = temp_dir("rotate");
        // Tiny segment bound: every batch rotates.
        let mut w = WalWriter::open(&dir, 0, Vec::new(), FsyncPolicy::Never, 64).unwrap();
        let mut seq = 0u64;
        for i in 0..4 {
            let b = batch(4, i * 10);
            w.append(seq, &b).unwrap();
            seq += b.len() as u64;
        }
        assert!(w.segment_count() >= 4, "size bound must force rotation");
        let n_files = list_segments(&dir).unwrap().len();
        assert_eq!(n_files, w.segment_count());

        // Everything before seq 8 is covered elsewhere: the first two
        // segments (4 updates each) go away.
        let removed = w.prune_to(8).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(list_segments(&dir).unwrap().len(), n_files - 2);
        // Remaining records still replay from seq 8.
        let records = scan_all(&dir);
        assert_eq!(records.first().unwrap().first_seq, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_stops_scan_cleanly() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::open(&dir, 0, Vec::new(), FsyncPolicy::Always, 1 << 20).unwrap();
        w.append(0, &batch(3, 0)).unwrap();
        w.append(3, &batch(2, 10)).unwrap();
        drop(w);

        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();
        let first_record_len = 8 + 12 + 3 * EdgeUpdate::ENCODED_LEN;

        // A cut exactly at the record boundary is a clean end, not a tear.
        fs::write(&path, &full[..first_record_len]).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.clean);
        assert_eq!(scan.records.len(), 1);

        // Cut the file at every length inside the second record: the scan
        // must return exactly the first record and flag the dirty tail.
        for cut in first_record_len + 1..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_segment(&path).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert!(!scan.clean, "cut at {cut}");
            assert_eq!(scan.valid_len, first_record_len as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_scan_cleanly() {
        let dir = temp_dir("crc");
        let mut w = WalWriter::open(&dir, 0, Vec::new(), FsyncPolicy::Always, 1 << 20).unwrap();
        w.append(0, &batch(2, 0)).unwrap();
        w.append(2, &batch(2, 10)).unwrap();
        drop(w);

        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();
        let first_record_len = 8 + 12 + 2 * EdgeUpdate::ENCODED_LEN;

        // Flip one payload byte in the second record.
        let mut bad = full.clone();
        bad[first_record_len + 8] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.clean);

        // Flip a byte inside the *first* record: nothing valid remains.
        let mut bad = full;
        bad[10] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.clean);
        assert_eq!(scan.valid_len, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_starts_a_fresh_segment() {
        let dir = temp_dir("reopen");
        let mut w = WalWriter::open(&dir, 0, Vec::new(), FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(0, &batch(2, 0)).unwrap();
        drop(w);

        let existing: Vec<(u64, u64)> = vec![(0, 0)];
        let mut w2 = WalWriter::open(&dir, 2, existing, FsyncPolicy::Never, 1 << 20).unwrap();
        w2.append(2, &batch(1, 50)).unwrap();
        drop(w2);

        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 2);
        let records = scan_all(&dir);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].first_seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
