//! Crash recovery for shard workers: snapshot files plus WAL replay.
//!
//! Each shard persists two artifacts into its directory:
//!
//! * **snapshots** (`snap-<seq>.snap`) — the engine's full
//!   [`DynDens::snapshot`] image at sequence number `seq`, wrapped
//!   in a CRC-framed file header, written atomically (temp file + rename)
//!   at the end of the micro-batch that brings the updates applied since the
//!   last one to [`PersistenceConfig::snapshot_every_updates`]. The worker
//!   serialises the image and rotates the WAL at `seq`; its
//!   checkpoint writer thread runs [`write_snapshot`], and the worker prunes
//!   the WAL only after the writer reports the snapshot durable;
//! * **WAL segments** (see [`crate::wal`]) — every routed micro-batch,
//!   appended *before* it is applied.
//!
//! Recovery is `latest valid snapshot + WAL tail`: restore the engine from
//! the newest snapshot that parses (falling back to older retained ones),
//! then replay every WAL record past the snapshot's sequence number and hand
//! the restored [`EngineStats`](dyndens_core::EngineStats) back to the
//! engine, so the replayed work rebuilds the exact maintenance state without
//! being counted a second time. Because
//! the engine's update processing is canonicalised (see
//! `dyndens_core::snapshot`), the recovered state is **bit-identical** to an
//! engine that never crashed.
//!
//! A torn tail on the final WAL segment (the classic mid-append crash) is
//! repaired by truncation; corruption anywhere earlier in the log means data
//! is genuinely missing and surfaces as a hard [`RecoveryError`] rather than
//! a silently incomplete engine.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dyndens_core::{encode_config_params, DynDens, DynDensConfig, SnapshotError};
use dyndens_density::DensityMeasure;

use crate::config::{PersistenceConfig, ShardConfig};
use crate::wal::{self, WalWriter};
use dyndens_graph::codec::{crc32, crc32_extend, put_u32, put_u64, ByteReader};
use dyndens_graph::ShardMap;

/// Snapshots kept per shard. Two let recovery fall back to the older one if
/// the newest is damaged; the WAL is only pruned up to the *oldest* retained
/// snapshot, so the fallback can still replay forward.
pub const RETAINED_SNAPSHOTS: usize = 2;

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".snap";
/// Magic bytes of the snapshot *file* wrapper (the engine image inside
/// carries its own `DDSN` magic).
const SNAP_FILE_MAGIC: &[u8; 4] = b"DDSF";
const SNAP_FILE_VERSION: u32 = 1;

/// Name of the deployment manifest at the persistence root.
const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 4] = b"DDMF";
/// Version 3: the static section names the engine kind ([`ENGINE_KIND`]),
/// then the measure name and a length-prefixed fingerprint of the engine
/// configuration ([`encode_config_params`]), ahead of the **generational
/// shard map** ([`ShardMap`]) carried since version 2.
const MANIFEST_VERSION: u32 = 3;
/// The engine kind every manifest names. A directory naming any other kind
/// is refused by the kind comparison, before any snapshot or WAL byte is
/// interpreted.
const ENGINE_KIND: &str = "dyndens";

/// An error recovering a shard from its persistence directory.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure.
    Io(io::Error),
    /// Every snapshot file failed to parse *and* the WAL does not reach back
    /// to sequence zero, or a snapshot was structurally unusable in a
    /// context with no fallback.
    Snapshot(SnapshotError),
    /// A WAL segment other than the final one has a truncated or corrupt
    /// tail: records are genuinely missing from the middle of the log.
    CorruptWal {
        /// The damaged segment's number.
        segment: u64,
    },
    /// Replay found a record starting past the engine's sequence number:
    /// updates between `expected` and `found` are missing.
    SequenceGap {
        /// The next sequence number the engine needed.
        expected: u64,
        /// The sequence number the record started at instead.
        found: u64,
    },
    /// The persistence directory was written by a deployment with different
    /// state-affecting parameters (engine kind, shard count, shard function,
    /// density measure or engine configuration). Reusing it would silently
    /// drop shard slices, misroute updates, or feed another engine's
    /// checkpoint bytes to this one, so the mismatch is a hard error.
    ManifestMismatch {
        /// The parameter that disagrees with the on-disk manifest.
        field: &'static str,
    },
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery I/O failure: {e}"),
            RecoveryError::Snapshot(e) => write!(f, "unusable snapshot: {e}"),
            RecoveryError::CorruptWal { segment } => {
                write!(f, "WAL segment {segment} is corrupt before the log tail")
            }
            RecoveryError::SequenceGap { expected, found } => write!(
                f,
                "WAL sequence gap: needed update {expected}, next record starts at {found}"
            ),
            RecoveryError::ManifestMismatch { field } => write!(
                f,
                "persistence directory belongs to a deployment with a different `{field}`; \
                 reusing it would corrupt the recovered state"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// The persistence directory of engine `engine_id` under the deployment
/// root. Engine ids are allocated by the [`ShardMap`] and never reused, so a
/// retired parent's directory can never be mistaken for a live child's.
pub(crate) fn shard_dir(root: &Path, engine_id: u64) -> PathBuf {
    root.join(format!("shard-{engine_id:04}"))
}

/// Lists the snapshot files in `dir` as `(seq, path)`, ascending by `seq`.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    wal::list_numbered(dir, SNAP_PREFIX, SNAP_SUFFIX)
}

/// Writes the engine image `engine_bytes` as the shard's snapshot at
/// sequence number `seq`, atomically and durably (see
/// `wal::replace_atomic` for why whatever the fsync policy), then deletes
/// all but the newest [`RETAINED_SNAPSHOTS`]. Returns the sequence number of
/// the **oldest** retained snapshot — the point up to which the WAL may
/// safely be pruned. The file wrapper is written around the image, not
/// copied with it: a shard's checkpoint writer thread allocates nothing the
/// size of the image.
pub fn write_snapshot(dir: &Path, seq: u64, engine_bytes: &[u8]) -> io::Result<u64> {
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(SNAP_FILE_MAGIC);
    put_u32(&mut header, SNAP_FILE_VERSION);
    put_u64(&mut header, seq);
    put_u64(&mut header, engine_bytes.len() as u64);
    let crc = crc32_extend(crc32(&header), engine_bytes);
    wal::replace_atomic(
        dir,
        &format!("{SNAP_PREFIX}{seq:020}{SNAP_SUFFIX}"),
        &[&header, engine_bytes, &crc.to_le_bytes()],
    )?;

    let mut snapshots = list_snapshots(dir)?;
    while snapshots.len() > RETAINED_SNAPSHOTS {
        let (_, path) = snapshots.remove(0);
        fs::remove_file(path)?;
    }
    Ok(snapshots.first().map_or(seq, |&(s, _)| s))
}

/// Reads and validates one snapshot file, returning `(seq, engine_bytes)`.
pub fn read_snapshot(path: &Path) -> Result<(u64, Vec<u8>), RecoveryError> {
    let bytes = fs::read(path)?;
    let structural =
        |e: dyndens_graph::CodecError| RecoveryError::Snapshot(SnapshotError::Codec(e));
    let payload = dyndens_graph::codec::verify_crc_trailer(&bytes).map_err(structural)?;
    let mut r = ByteReader::new(payload);
    if r.take(4).map_err(structural)? != SNAP_FILE_MAGIC {
        return Err(RecoveryError::Snapshot(SnapshotError::BadMagic));
    }
    let version = r.u32().map_err(structural)?;
    if version != SNAP_FILE_VERSION {
        return Err(RecoveryError::Snapshot(SnapshotError::UnsupportedVersion(
            version,
        )));
    }
    let seq = r.u64().map_err(structural)?;
    let len = r.u64().map_err(structural)? as usize;
    let engine_bytes = r.take(len).map_err(structural)?;
    if !r.is_empty() {
        return Err(RecoveryError::Snapshot(SnapshotError::Invalid(
            "trailing bytes in snapshot file",
        )));
    }
    Ok((seq, engine_bytes.to_vec()))
}

// ---------------------------------------------------------------------------
// Deployment manifest
// ---------------------------------------------------------------------------

/// Serialises the static state-affecting deployment parameters — the engine
/// kind (it decides what every checkpoint byte means), the density measure
/// (it decides what every persisted score means) and the engine
/// configuration's fingerprint (it decides what "dense" means) — without
/// framing. Queueing tunables (`channel_capacity`, `max_batch`,
/// `top_k`) and persistence knobs are deliberately excluded: they may vary
/// freely across restarts. The routing topology (base shard count, shard
/// function, split refinements) lives in the [`ShardMap`] section that
/// follows this block in the manifest.
fn encode_static_section(measure_name: &str, params: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u32(&mut buf, ENGINE_KIND.len() as u32);
    buf.extend_from_slice(ENGINE_KIND.as_bytes());
    put_u32(&mut buf, measure_name.len() as u32);
    buf.extend_from_slice(measure_name.as_bytes());
    put_u32(&mut buf, params.len() as u32);
    buf.extend_from_slice(params);
    buf
}

/// Serialises the full manifest: magic, version, static section, shard map,
/// CRC trailer.
fn encode_manifest(measure_name: &str, params: &[u8], map: &ShardMap) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    buf.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut buf, MANIFEST_VERSION);
    buf.extend_from_slice(&encode_static_section(measure_name, params));
    map.encode_into(&mut buf);
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Writes the manifest naming `map`: once when a deployment first binds its
/// directory, then at every split or merge **after** the targets' snapshots
/// and WALs are durably on disk and **before** the source directories are
/// retired. A crash on either side of the rewrite leaves the directory
/// consistent with whichever topology the manifest names (the sources' state
/// is complete until the rewrite, the targets' from the moment it lands).
pub(crate) fn rewrite_manifest(
    root: &Path,
    measure_name: &str,
    engine_config: &DynDensConfig,
    map: &ShardMap,
) -> io::Result<()> {
    let params = encode_config_params(engine_config);
    wal::replace_atomic(
        root,
        MANIFEST_NAME,
        &[&encode_manifest(measure_name, &params, map)],
    )
}

/// On first use, binds the persistence root to the deployment parameters by
/// writing a manifest carrying the generation-zero shard map; on reuse,
/// verifies the caller's parameters against the manifest's static section
/// and returns the **persisted** shard map — which may be generations ahead
/// of the caller's `ShardConfig` if the deployment was split while it ran.
///
/// A mismatch on any state-affecting parameter is a hard
/// [`RecoveryError::ManifestMismatch`] — restarting with, say, a different
/// base shard count would otherwise silently lose shard slices and route
/// their vertices into unrelated engines, and a directory naming another
/// engine kind holds checkpoint bytes this engine cannot read. An
/// unreadable or corrupt manifest is reported likewise (the directory's
/// provenance is unknown).
pub(crate) fn bind_manifest(
    root: &Path,
    measure_name: &str,
    engine_config: &DynDensConfig,
    shard_config: &ShardConfig,
) -> Result<ShardMap, RecoveryError> {
    let path = root.join(MANIFEST_NAME);
    match fs::read(&path) {
        Ok(existing) => {
            let mismatch = |field| Err(RecoveryError::ManifestMismatch { field });
            let Ok(m) = decode_manifest(&existing) else {
                return mismatch("manifest (unreadable/corrupt)");
            };
            if m.kind != ENGINE_KIND {
                return mismatch("engine kind");
            }
            if m.map.n_base() != shard_config.n_shards {
                return mismatch("n_shards");
            }
            if m.map.base_fn() != shard_config.shard_fn {
                return mismatch("shard_fn");
            }
            if m.measure_name != measure_name {
                return mismatch("density measure");
            }
            if m.params != encode_config_params(engine_config) {
                return mismatch("engine config");
            }
            Ok(m.map)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let map = ShardMap::new(shard_config.shard_fn, shard_config.n_shards);
            rewrite_manifest(root, measure_name, engine_config, &map)?;
            Ok(map)
        }
        Err(e) => Err(e.into()),
    }
}

struct ManifestView {
    kind: String,
    measure_name: String,
    /// The engine configuration's raw fingerprint, compared wholesale
    /// against the caller's encoding (field-exact, including every config
    /// flag).
    params: Vec<u8>,
    map: ShardMap,
}

fn decode_manifest(bytes: &[u8]) -> Result<ManifestView, ()> {
    let payload = dyndens_graph::codec::verify_crc_trailer(bytes).map_err(|_| ())?;
    let mut r = ByteReader::new(payload);
    if r.take(4).map_err(|_| ())? != MANIFEST_MAGIC || r.u32().map_err(|_| ())? != MANIFEST_VERSION
    {
        return Err(());
    }
    let string = |r: &mut ByteReader<'_>| -> Result<String, ()> {
        let len = r.u32().map_err(|_| ())? as usize;
        String::from_utf8(r.take(len).map_err(|_| ())?.to_vec()).map_err(|_| ())
    };
    let kind = string(&mut r)?;
    let measure_name = string(&mut r)?;
    let params_len = r.u32().map_err(|_| ())? as usize;
    let params = r.take(params_len).map_err(|_| ())?.to_vec();
    let map = ShardMap::decode(&mut r).map_err(|_| ())?;
    if !r.is_empty() {
        return Err(());
    }
    Ok(ManifestView {
        kind,
        measure_name,
        params,
        map,
    })
}

// ---------------------------------------------------------------------------
// Shard recovery
// ---------------------------------------------------------------------------

/// What recovery did for one shard; exposed through
/// [`ShardedDynDens::recovery_reports`](crate::ShardedDynDens::recovery_reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The shard index.
    pub shard: usize,
    /// Sequence number of the snapshot the engine was restored from (0 when
    /// starting fresh).
    pub snapshot_seq: u64,
    /// Number of WAL updates replayed past the snapshot.
    pub replayed_updates: u64,
    /// The shard's sequence number after recovery.
    pub recovered_seq: u64,
    /// `true` if a torn tail was truncated off the final WAL segment.
    pub repaired_torn_tail: bool,
}

/// A recovered shard: the rebuilt engine, its sequence number, and the WAL
/// writer positioned to continue appending.
pub(crate) struct RecoveredShard<D: DensityMeasure> {
    pub engine: DynDens<D>,
    pub seq: u64,
    pub wal: WalWriter,
    pub report: RecoveryReport,
}

/// Recovers one shard from `dir`: newest valid snapshot + WAL tail replay,
/// starting from a fresh engine of `measure` and `engine_config` when no
/// snapshot parses. [`bind_manifest`] has already pinned the directory to
/// both.
pub(crate) fn recover_shard<D: DensityMeasure>(
    measure: &D,
    engine_config: &DynDensConfig,
    shard: usize,
    dir: &Path,
    persistence: &PersistenceConfig,
) -> Result<RecoveredShard<D>, RecoveryError> {
    fs::create_dir_all(dir)?;

    // 1. Restore from the newest snapshot that parses; a damaged newest
    //    snapshot falls back to an older retained one (the WAL is only ever
    //    pruned up to the oldest retained snapshot, so replay still works).
    let mut engine: Option<DynDens<D>> = None;
    let mut snapshot_seq = 0u64;
    let mut last_snapshot_error: Option<RecoveryError> = None;
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        let restored = read_snapshot(&path).and_then(|(s, bytes)| {
            let engine = DynDens::restore(measure.clone(), &bytes);
            engine.map(|e| (s, e)).map_err(RecoveryError::Snapshot)
        });
        match restored {
            Ok((s, e)) => {
                engine = Some(e);
                snapshot_seq = s;
                break;
            }
            Err(e) => last_snapshot_error = Some(e),
        }
    }
    let mut engine = match engine {
        Some(e) => e,
        None => DynDens::new(measure.clone(), engine_config.clone()),
    };
    let mut seq = snapshot_seq;

    // 2. Replay the WAL tail. Records wholly covered by the snapshot are
    //    skipped; partially covered records are applied from their overlap
    //    point; a gap means records are missing (for example because every
    //    snapshot was unusable but the early WAL was already pruned) and is
    //    a hard error.
    let segments = wal::list_segments(dir)?;
    let mut segment_meta: Vec<(u64, u64)> = Vec::new();
    let mut replayed = 0u64;
    let mut repaired_torn_tail = false;
    // The replayed updates were counted before the crash and the restored
    // ledger already carries them: replay, then put the ledger back.
    let ledger = engine.stats().clone();
    let mut events = Vec::new();
    for (i, (no, path)) in segments.iter().enumerate() {
        let scan = wal::scan_segment(path)?;
        if !scan.clean {
            if i + 1 != segments.len() {
                return Err(RecoveryError::CorruptWal { segment: *no });
            }
            // Torn tail of the final segment: the batch was never
            // acknowledged as applied, so truncating it away is safe.
            wal::truncate_torn_tail(path, scan.valid_len)?;
            repaired_torn_tail = true;
        }
        segment_meta.push((*no, scan.records.first().map_or(seq, |r| r.first_seq)));
        for record in scan.records {
            if record.first_seq > seq {
                if let Some(e) = last_snapshot_error.take() {
                    // The gap exists because we fell back past a damaged
                    // snapshot; surface the root cause.
                    return Err(e);
                }
                return Err(RecoveryError::SequenceGap {
                    expected: seq,
                    found: record.first_seq,
                });
            }
            let skip = (seq - record.first_seq) as usize;
            if skip >= record.updates.len() {
                continue;
            }
            for u in &record.updates[skip..] {
                engine.apply_update_into(*u, &mut events);
                events.clear();
                seq += 1;
                replayed += 1;
            }
        }
    }
    engine.adopt_stats(ledger);

    // 3. Continue the log in a fresh segment (old segments stay immutable).
    let wal = WalWriter::open(
        dir,
        seq,
        segment_meta,
        persistence.fsync,
        persistence.segment_max_bytes,
    )?;

    Ok(RecoveredShard {
        engine,
        seq,
        wal,
        report: RecoveryReport {
            shard,
            snapshot_seq,
            replayed_updates: replayed,
            recovered_seq: seq,
            repaired_torn_tail,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsyncPolicy;
    use dyndens_core::{DynDens, DynDensConfig};
    use dyndens_density::AvgWeight;
    use dyndens_graph::{EdgeUpdate, VertexId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dyndens-rec-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.15)
    }

    fn recover(
        shard: usize,
        dir: &Path,
        p: &PersistenceConfig,
    ) -> Result<RecoveredShard<AvgWeight>, RecoveryError> {
        recover_shard(&AvgWeight, &config(), shard, dir, p)
    }

    fn persistence(dir: &Path) -> PersistenceConfig {
        PersistenceConfig::new(dir).with_fsync(FsyncPolicy::Never)
    }

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    /// The engine's snapshot with the stats section zeroed: recovery replays
    /// and puts the restored ledger back (by design — replayed updates were
    /// already counted before the crash), so equivalence to an uninterrupted
    /// engine is over the maintenance state, not the work ledger.
    fn state_image(engine: &DynDens<AvgWeight>) -> Vec<u8> {
        let mut clone = engine.clone();
        clone.reset_stats();
        clone.snapshot()
    }

    fn stream(n: usize) -> Vec<EdgeUpdate> {
        (0..n)
            .map(|i| {
                let a = (i % 7) as u32;
                let b = a + 1 + (i % 3) as u32;
                let delta = if i % 5 == 4 { -0.2 } else { 0.4 };
                update(a, b, delta)
            })
            .collect()
    }

    #[test]
    fn fresh_directory_recovers_to_empty_engine() {
        let dir = temp_dir("fresh");
        let rec = recover(0, &dir, &persistence(&dir)).unwrap();
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.report.replayed_updates, 0);
        assert_eq!(rec.engine.dense_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_replay_matches_uninterrupted() {
        let dir = temp_dir("tail");
        let updates = stream(200);
        let p = persistence(&dir);

        // Reference: never crashed.
        let mut reference = DynDens::new(AvgWeight, config());
        for u in &updates {
            reference.apply_update(*u);
        }

        // Crashy run: WAL everything, snapshot at update 120, "crash" at 200
        // (no final snapshot).
        let mut engine = DynDens::new(AvgWeight, config());
        let mut wal = WalWriter::open(&dir, 0, Vec::new(), p.fsync, p.segment_max_bytes).unwrap();
        for (i, chunk) in updates.chunks(10).enumerate() {
            wal.append((i * 10) as u64, chunk).unwrap();
            for u in chunk {
                engine.apply_update(*u);
            }
            if (i + 1) * 10 == 120 {
                let oldest = write_snapshot(&dir, 120, &engine.snapshot()).unwrap();
                wal.rotate(120).unwrap();
                wal.prune_to(oldest).unwrap();
            }
        }
        drop(wal);
        drop(engine);

        let rec = recover(3, &dir, &p).unwrap();
        assert_eq!(rec.report.shard, 3);
        assert_eq!(rec.report.snapshot_seq, 120);
        assert_eq!(rec.report.replayed_updates, 80);
        assert_eq!(rec.seq, 200);
        assert!(!rec.report.repaired_torn_tail);

        // Bit-identical maintenance state vs. the uninterrupted engine.
        assert_eq!(state_image(&rec.engine), state_image(&reference));
        // The work ledger stops at the snapshot: the 80 replayed updates are
        // not double-counted.
        assert_eq!(rec.engine.stats().updates, 120);
        assert_eq!(reference.stats().updates, 200);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_stops_cleanly() {
        let dir = temp_dir("torn");
        let p = persistence(&dir);
        let updates = stream(30);
        let mut wal = WalWriter::open(&dir, 0, Vec::new(), p.fsync, p.segment_max_bytes).unwrap();
        wal.append(0, &updates[..20]).unwrap();
        wal.append(20, &updates[20..]).unwrap();
        drop(wal);

        // Tear the last record.
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let rec = recover(0, &dir, &p).unwrap();
        assert_eq!(rec.seq, 20, "only the intact record replays");
        assert!(rec.report.repaired_torn_tail);

        // The tear is gone from disk: a second recovery sees a clean log.
        let rec2 = recover(0, &dir, &p).unwrap();
        assert_eq!(rec2.seq, 20);
        assert!(!rec2.report.repaired_torn_tail);
        assert_eq!(rec2.engine.snapshot(), rec.engine.snapshot());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_before_the_tail_is_a_hard_error() {
        let dir = temp_dir("midcorrupt");
        let p = persistence(&dir);
        let updates = stream(30);
        let mut wal = WalWriter::open(&dir, 0, Vec::new(), p.fsync, p.segment_max_bytes).unwrap();
        wal.append(0, &updates[..15]).unwrap();
        wal.rotate(15).unwrap();
        wal.append(15, &updates[15..]).unwrap();
        drop(wal);

        // Corrupt the FIRST segment: replay must refuse rather than skip.
        let (no, path) = wal::list_segments(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        match recover(0, &dir, &p) {
            Err(RecoveryError::CorruptWal { segment }) => assert_eq!(segment, no),
            Err(other) => panic!("expected CorruptWal, got {other:?}"),
            Ok(_) => panic!("expected CorruptWal, recovery succeeded"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_newest_snapshot_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let p = persistence(&dir);
        let updates = stream(100);

        let mut engine = DynDens::new(AvgWeight, config());
        let mut wal = WalWriter::open(&dir, 0, Vec::new(), p.fsync, p.segment_max_bytes).unwrap();
        for (i, chunk) in updates.chunks(10).enumerate() {
            wal.append((i * 10) as u64, chunk).unwrap();
            for u in chunk {
                engine.apply_update(*u);
            }
            if matches!((i + 1) * 10, 50 | 90) {
                let seq = ((i + 1) * 10) as u64;
                let oldest = write_snapshot(&dir, seq, &engine.snapshot()).unwrap();
                wal.rotate(seq).unwrap();
                wal.prune_to(oldest).unwrap();
            }
        }
        drop(wal);

        // Vandalise the newest snapshot (seq 90).
        let snaps = list_snapshots(&dir).unwrap();
        let (seq, newest) = snaps.last().unwrap();
        assert_eq!(*seq, 90);
        let mut bytes = fs::read(newest).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0xFF;
        fs::write(newest, &bytes).unwrap();

        let rec = recover(0, &dir, &p).unwrap();
        assert_eq!(rec.report.snapshot_seq, 50, "fell back to seq-50 snapshot");
        assert_eq!(rec.seq, 100);
        assert_eq!(rec.report.replayed_updates, 50);
        assert_eq!(state_image(&rec.engine), state_image(&engine));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_retention_reports_prune_point() {
        let dir = temp_dir("retain");
        let engine = DynDens::new(AvgWeight, config());
        let image = engine.snapshot();
        assert_eq!(write_snapshot(&dir, 10, &image).unwrap(), 10);
        assert_eq!(write_snapshot(&dir, 20, &image).unwrap(), 10);
        assert_eq!(write_snapshot(&dir, 30, &image).unwrap(), 20);
        let seqs: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, vec![20, 30]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
