//! The shard worker: a thread owning one engine, fed by a bounded channel.

use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dyndens_core::{DenseEvent, DynDens};
use dyndens_density::DensityMeasure;
use dyndens_graph::EdgeUpdate;

use crate::config::PersistenceConfig;
use crate::obs::ShardObs;
use crate::recovery;
use crate::view::{DeltaBatch, PublishWakers, ShardFeed, ShardSnapshot};
use crate::wal::WalWriter;

const POISONED: &str = "shard engine poisoned";

/// Messages a shard worker consumes.
#[derive(Clone)]
pub(crate) enum WorkerMsg {
    /// Apply one update.
    Update(EdgeUpdate),
    /// Apply a pre-routed batch of updates.
    Batch(Vec<EdgeUpdate>),
    /// Acknowledge once every previously sent update has been applied and its
    /// snapshot published.
    Flush(Sender<()>),
    /// A compaction pass: one more micro-batch, made of the cancelling
    /// updates [`DynDens::edges_below`] lists for `min_weight`, through the
    /// ordinary step with a forced checkpoint; then
    /// [`DynDens::reclaim_idle`], a wait until the checkpoint is durable
    /// (and the WAL pruned behind it), and an acknowledgement with the
    /// number of edges evicted.
    Compact {
        /// The eviction floor handed to [`DynDens::edges_below`].
        min_weight: f64,
        /// Receives the number of edges evicted once the pass is durable.
        ack: Sender<u64>,
    },
    /// Stop after processing everything drained alongside this message.
    Shutdown,
}

/// A control message that terminates a drain; the worker applies whatever
/// micro-batch it drained first, then acts on the control.
enum Control {
    Shutdown,
    Compact { min_weight: f64, ack: Sender<u64> },
}

/// The durability half of a worker: its WAL writer, its snapshot cadence
/// and its checkpoint writer.
pub(crate) struct WorkerPersistence {
    /// The shard's WAL, positioned to append.
    pub wal: WalWriter,
    /// Snapshot once this many updates are applied since the last one.
    pub snapshot_every: usize,
    /// Updates applied since the last snapshot was handed off.
    pub updates_since_snapshot: usize,
    /// Writes the handed-off images into the shard's directory.
    writer: CheckpointWriter,
}

impl WorkerPersistence {
    /// The durability half of a worker appending to `wal` in `dir`, with the
    /// deployment's checkpoint cadence.
    pub(crate) fn new(wal: WalWriter, dir: PathBuf, p: &PersistenceConfig) -> Self {
        WorkerPersistence {
            wal,
            snapshot_every: p.snapshot_every_updates,
            updates_since_snapshot: 0,
            writer: CheckpointWriter::new(dir),
        }
    }

    /// Hands the engine image `bytes`, taken at `seq`, to the checkpoint
    /// writer, after waiting for the report on the one still in flight (at
    /// most one is).
    /// The WAL rotates at `seq` now, so that the segments behind the image
    /// are whole files once the writer reports it durable.
    fn hand_off(&mut self, obs: Option<&ShardObs>, engine: u64, seq: u64, bytes: Vec<u8>) {
        self.settle(obs, engine, true);
        if let Err(e) = self.wal.rotate(seq) {
            eprintln!("shard-{engine}: WAL rotate failed: {e}");
        }
        self.updates_since_snapshot = 0;
        self.writer.submit(seq, bytes);
    }

    /// Acts on the writer's report, waiting for it when `wait` and an image
    /// is in flight. A durable checkpoint prunes the WAL segments wholly
    /// behind the oldest retained snapshot. A failed one is not fatal: the
    /// WAL still covers the whole history since the last durable snapshot,
    /// nothing is pruned, and the cadence stays due, so the next micro-batch
    /// retries.
    fn settle(&mut self, obs: Option<&ShardObs>, engine: u64, wait: bool) {
        let Some(report) = self.writer.report(wait) else {
            return;
        };
        match report.durable {
            Ok(oldest_retained) => {
                if let Some(o) = obs {
                    o.record_checkpoint(report.bytes, report.elapsed);
                }
                if let Err(e) = self.wal.prune_to(oldest_retained) {
                    eprintln!("shard-{engine}: WAL prune failed: {e}");
                }
            }
            Err(e) => {
                eprintln!("shard-{engine}: checkpoint write failed: {e}");
                self.updates_since_snapshot = self.snapshot_every;
            }
        }
    }
}

/// An engine image for a checkpoint writer: the snapshot at `seq`, for
/// the shard directory `dir`.
struct CheckpointJob {
    dir: PathBuf,
    seq: u64,
    bytes: Vec<u8>,
}

/// What the checkpoint writer did with one [`CheckpointJob`].
struct CheckpointReport {
    bytes: u64,
    /// How long [`recovery::write_snapshot`] took.
    elapsed: Duration,
    /// The oldest retained snapshot's sequence number once the image is
    /// durable: how far the WAL may be pruned.
    durable: io::Result<u64>,
}

/// The two ends a worker holds of a writer thread.
struct WriterLink {
    jobs: Sender<CheckpointJob>,
    reports: Receiver<CheckpointReport>,
}

impl WriterLink {
    fn spawn() -> Self {
        let (jobs, inbox) = channel::<CheckpointJob>();
        let (outbox, reports) = channel();
        std::thread::Builder::new()
            .name("dyndens-checkpoint".into())
            .spawn(move || {
                for CheckpointJob { dir, seq, bytes } in inbox {
                    let started = Instant::now();
                    let durable = recovery::write_snapshot(&dir, seq, &bytes);
                    let report = CheckpointReport {
                        bytes: bytes.len() as u64,
                        elapsed: started.elapsed(),
                        durable,
                    };
                    if outbox.send(report).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn checkpoint writer");
        WriterLink { jobs, reports }
    }
}

/// Writer threads whose worker has handed its durability half back, each
/// idle until the next worker takes it. A writer thread, once spawned,
/// serves one worker at a time for the rest of the process and is never
/// joined: reopening or reshaping a fleet reuses the threads, and the
/// allocator arenas they hold, instead of spawning fresh ones (fresh
/// threads measurably raised the footprint after every reopen). A writer
/// that dies is seen by its worker as a disconnected channel, reported as a
/// failed checkpoint, and not pooled again.
static IDLE_WRITERS: Mutex<Vec<WriterLink>> = Mutex::new(Vec::new());

/// A persistent worker's checkpoint writer: one long-lived thread that
/// writes checkpoints with [`recovery::write_snapshot`], so that the worker
/// does not wait on the snapshot's `sync_data` and directory fsync. At most
/// one image is in flight; the worker collects its report before handing
/// off the next. Dropping the writer waits for the image in flight and
/// returns the thread to [`IDLE_WRITERS`].
struct CheckpointWriter {
    /// The shard directory the snapshots go to.
    dir: PathBuf,
    link: Option<WriterLink>,
    /// Whether an image is in flight.
    in_flight: bool,
}

impl CheckpointWriter {
    fn new(dir: PathBuf) -> Self {
        let idle = IDLE_WRITERS.lock().map_or(None, |mut idle| idle.pop());
        CheckpointWriter {
            dir,
            link: Some(idle.unwrap_or_else(WriterLink::spawn)),
            in_flight: false,
        }
    }

    fn submit(&mut self, seq: u64, bytes: Vec<u8>) {
        debug_assert!(!self.in_flight, "one checkpoint in flight");
        // A writer thread that is gone reports a failure below.
        if let Some(link) = &self.link {
            let dir = self.dir.clone();
            let _ = link.jobs.send(CheckpointJob { dir, seq, bytes });
        }
        self.in_flight = true;
    }

    /// The report on the image in flight, if there is one and it is in (or,
    /// when `wait`, once it is).
    fn report(&mut self, wait: bool) -> Option<CheckpointReport> {
        if !self.in_flight {
            return None;
        }
        let report = match &self.link {
            Some(link) if wait => link.reports.recv().map_err(|_| TryRecvError::Disconnected),
            Some(link) => link.reports.try_recv(),
            None => Err(TryRecvError::Disconnected),
        };
        let report = match report {
            Ok(report) => report,
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => {
                self.link = None;
                CheckpointReport {
                    bytes: 0,
                    elapsed: Duration::ZERO,
                    durable: Err(io::Error::other("checkpoint writer is gone")),
                }
            }
        };
        self.in_flight = false;
        Some(report)
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        // Normally settled already; a worker that panicked may not have.
        self.report(true);
        if let (Some(link), Ok(mut idle)) = (self.link.take(), IDLE_WRITERS.lock()) {
            idle.push(link);
        }
    }
}

/// Everything a worker thread is parameterised by at spawn time (beyond its
/// shared engine and feed).
pub(crate) struct WorkerSetup {
    /// The id of the engine the worker applies to, which names its
    /// `shard-<id>` directory; its log lines carry it.
    pub engine_id: u64,
    /// Micro-batch drain bound, in updates.
    pub max_batch: usize,
    /// Stories kept per published snapshot.
    pub top_k: usize,
    /// The shard's sequence number at spawn (non-zero after recovery).
    pub initial_seq: u64,
    /// The durability half, absent for in-memory deployments.
    pub persist: Option<WorkerPersistence>,
    /// Pre-registered metric handles, absent when the deployment has no
    /// registry attached.
    pub obs: Option<ShardObs>,
    /// The fleet's publication wakers, notified after every publication.
    pub wakers: Arc<PublishWakers>,
}

/// A worker thread's handle: joining it hands the worker's durability half
/// back (see [`run`]).
pub(crate) type WorkerHandle = JoinHandle<Option<WorkerPersistence>>;

/// The worker loop: block on the inbox, drain what else is queued until the
/// drain holds `max_batch` updates, run the drained micro-batch through
/// [`Worker::step`], acknowledge flushes, repeat. A compaction pass is one
/// more step. On shutdown it waits for the checkpoint in flight, then
/// returns its durability half, WAL writer positioned at the shard's
/// sequence number, so an aborted reshape can respawn the shard on it.
pub(crate) fn run<D: DensityMeasure>(
    setup: WorkerSetup,
    inbox: Receiver<WorkerMsg>,
    engine: Arc<Mutex<DynDens<D>>>,
    feed: Arc<ShardFeed>,
) -> Option<WorkerPersistence> {
    let WorkerSetup {
        engine_id,
        max_batch,
        top_k,
        initial_seq,
        persist,
        obs,
        wakers,
    } = setup;
    let mut worker = Worker {
        engine,
        engine_id,
        feed,
        wakers,
        top_k,
        seq: initial_seq,
        persist,
        obs,
        events: Vec::new(),
        no_events: Arc::new([]),
    };
    // Scratch buffers reused across micro-batches.
    let mut pending: Vec<EdgeUpdate> = Vec::with_capacity(max_batch);
    let mut acks: Vec<Sender<()>> = Vec::new();

    loop {
        let first = match inbox.recv() {
            Ok(msg) => msg,
            // All senders dropped: the facade is gone, stop quietly.
            Err(_) => break,
        };
        let mut control = absorb(first, &mut pending, &mut acks);
        // Micro-batching: drain whatever else is already queued, up to the
        // configured bound in updates, so channel wakeups, engine locking and
        // the publication amortise. A paced shard finds little queued and
        // publishes what one wakeup brought; under backlog one step serves up
        // to `max_batch` updates.
        // A control message (shutdown, compact) ends the drain so it acts at
        // its position in the queue order.
        while control.is_none() && pending.len() < max_batch {
            match inbox.try_recv() {
                Ok(msg) => control = absorb(msg, &mut pending, &mut acks),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }

        worker.step(&mut pending, false);
        if let Some(Control::Compact { min_weight, ack }) = &control {
            // The decayed-out edges' cancelling updates are an ordinary
            // micro-batch — WAL first, then the update path, which is what
            // crash replay runs on those records — whose checkpoint is
            // forced: the "fold evicted state out of the snapshot, truncate
            // the log" half of bounded-state operation.
            let mut victims = worker
                .engine
                .lock()
                .expect(POISONED)
                .edges_below(*min_weight);
            let evicted = victims.len() as u64;
            worker.step(&mut victims, true);
            worker.engine.lock().expect(POISONED).reclaim_idle();
            // The pass is acknowledged once its checkpoint is durable and
            // the WAL pruned behind it.
            worker.settle(true);
            // A dropped compaction waiter is not an error.
            let _ = ack.send(evicted);
        }
        for ack in acks.drain(..) {
            // A dropped flush waiter is not an error.
            let _ = ack.send(());
        }
        if matches!(control, Some(Control::Shutdown)) {
            break;
        }
    }
    // The durability half goes back with no checkpoint in flight.
    worker.settle(true);
    worker.persist
}

/// A worker thread's state between micro-batches.
struct Worker<D: DensityMeasure> {
    engine: Arc<Mutex<DynDens<D>>>,
    engine_id: u64,
    feed: Arc<ShardFeed>,
    wakers: Arc<PublishWakers>,
    top_k: usize,
    /// Updates applied so far.
    seq: u64,
    persist: Option<WorkerPersistence>,
    obs: Option<ShardObs>,
    /// Event buffer reused across micro-batches.
    events: Vec<DenseEvent>,
    /// Nearly every micro-batch emits no event; those publications share this.
    no_events: Arc<[DenseEvent]>,
}

impl<D: DensityMeasure> Worker<D> {
    /// The one step every micro-batch takes: act on the checkpoint
    /// writer's report if it is in, WAL append, apply under a single engine
    /// lock, advance `seq`, publish a fresh snapshot, and hand a checkpoint
    /// to the writer on the cadence — or regardless of it when
    /// `force_checkpoint`. An empty batch appends and publishes nothing; a
    /// forced checkpoint still runs.
    fn step(&mut self, batch: &mut Vec<EdgeUpdate>, force_checkpoint: bool) {
        self.settle(false);
        if batch.is_empty() && !force_checkpoint {
            return;
        }
        let batch_len = batch.len();
        // Durability before visibility: the micro-batch is in the WAL before
        // the engine sees it, so a crash at any later point can replay it.
        // An append failure is a broken durability contract — better to kill
        // the worker (and surface the panic on the next facade call) than to
        // silently continue unlogged.
        if let Some(p) = self.persist.as_mut().filter(|_| batch_len > 0) {
            p.wal
                .append(self.seq, batch)
                .unwrap_or_else(|e| panic!("shard-{}: WAL append failed: {e}", self.engine_id));
        }
        let base_seq = self.seq;
        let apply_started = self.obs.as_ref().map(|_| Instant::now());
        let mut apply_elapsed = Duration::ZERO;
        let (snapshot, checkpoint, publish_started) = {
            let mut guard = self.engine.lock().expect(POISONED);
            for update in batch.drain(..) {
                guard.apply_update_into(update, &mut self.events);
            }
            self.seq += batch_len as u64;
            // Apply latency as the worker experienced it: lock wait plus
            // the engine work, excluding checkpoint serialisation.
            if let Some(t) = apply_started {
                apply_elapsed = t.elapsed();
            }
            // Serialise the checkpoint image while the lock guarantees it
            // corresponds exactly to `seq`; hand it to the checkpoint writer
            // after the lock is released. A failed write makes the cadence
            // due again, so a failed checkpoint (e.g. disk full) is retried
            // on the next micro-batch instead of a full cadence later.
            let checkpoint = self.persist.as_mut().and_then(|p| {
                p.updates_since_snapshot += batch_len;
                (force_checkpoint || p.updates_since_snapshot >= p.snapshot_every)
                    .then(|| guard.snapshot())
            });
            // Publish latency: top-k selection, ring push, epoch swap and
            // wakers — neither the apply above nor the checkpoint image.
            let publish_started = self.obs.as_ref().map(|_| Instant::now());
            let snapshot = (batch_len > 0).then(|| build_snapshot(&guard, self.seq, self.top_k));
            (snapshot, checkpoint, publish_started)
        };
        if let Some(snapshot) = snapshot {
            let events = take_events(&mut self.events, &self.no_events);
            let published = publish(snapshot, base_seq, events, &self.feed);
            self.wakers.notify();
            if let (Some(o), Some(t)) = (self.obs.as_ref(), publish_started) {
                o.record_batch(batch_len, apply_elapsed, t.elapsed());
                o.set_engine_gauges(&published.stats);
            }
        }
        if let (Some(bytes), Some(p)) = (checkpoint, self.persist.as_mut()) {
            p.hand_off(self.obs.as_ref(), self.engine_id, self.seq, bytes);
        }
    }

    /// Acts on the checkpoint writer's report, if any, waiting for it when
    /// `wait` (see [`WorkerPersistence::settle`]).
    fn settle(&mut self, wait: bool) {
        if let Some(p) = self.persist.as_mut() {
            p.settle(self.obs.as_ref(), self.engine_id, wait);
        }
    }
}

/// Folds one message into the drain buffers; a returned [`Control`] ends the
/// drain.
fn absorb(
    msg: WorkerMsg,
    pending: &mut Vec<EdgeUpdate>,
    acks: &mut Vec<Sender<()>>,
) -> Option<Control> {
    match msg {
        WorkerMsg::Update(u) => pending.push(u),
        WorkerMsg::Batch(batch) => pending.extend(batch),
        WorkerMsg::Flush(ack) => acks.push(ack),
        WorkerMsg::Compact { min_weight, ack } => {
            return Some(Control::Compact { min_weight, ack })
        }
        WorkerMsg::Shutdown => return Some(Control::Shutdown),
    }
    None
}

/// Moves a micro-batch's events out of the worker's buffer (left empty, its
/// capacity kept) into the slice the delta ring retains.
fn take_events(events: &mut Vec<DenseEvent>, none: &Arc<[DenseEvent]>) -> Arc<[DenseEvent]> {
    if events.is_empty() {
        Arc::clone(none)
    } else {
        events.drain(..).collect()
    }
}

/// Renders the engine's current answer into an immutable snapshot.
pub(crate) fn build_snapshot<D: DensityMeasure>(
    engine: &DynDens<D>,
    seq: u64,
    top_k: usize,
) -> ShardSnapshot {
    let (top_stories, output_dense) = engine.top_stories(top_k);
    ShardSnapshot {
        seq,
        top_stories,
        output_dense,
        stats: engine.stats().clone(),
    }
}

/// Makes one micro-batch visible: its `events`, covering updates
/// `base_seq..snapshot.seq`, into the feed's delta ring, then `snapshot` into
/// its epoch cell. Retention before visibility: the ring covers the new seq
/// before the epoch pointer announces it, so a poller that observes the new
/// seq can always fetch its deltas.
fn publish(
    snapshot: ShardSnapshot,
    base_seq: u64,
    events: Arc<[DenseEvent]>,
    feed: &ShardFeed,
) -> Arc<ShardSnapshot> {
    let seq = snapshot.seq;
    feed.ring.push(DeltaBatch {
        base_seq,
        seq,
        events,
    });
    let snapshot = Arc::new(snapshot);
    feed.cell.store_with_seq(Arc::clone(&snapshot), seq);
    snapshot
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::Path;

    use dyndens_core::DynDensConfig;
    use dyndens_density::AvgWeight;
    use dyndens_graph::VertexId;
    use dyndens_obs::{names, Registry};

    use super::*;
    use crate::config::{FsyncPolicy, ShardConfig};
    use crate::wal::{list_segments, scan_segment};
    use crate::ShardedDynDens;

    /// Updates per batch: with one shard, a checkpoint every `BATCH` updates
    /// and a flush after every batch, batch `k` ends (and checkpoints) at
    /// sequence number `BATCH * (k + 1)`.
    const BATCH: u64 = 4;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dyndens-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn engine_config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.15)
    }

    fn open(dir: &Path) -> ShardedDynDens<AvgWeight> {
        open_every(dir, BATCH as usize, ShardConfig::new(1))
    }

    fn open_every(dir: &Path, updates: usize, config: ShardConfig) -> ShardedDynDens<AvgWeight> {
        ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            config,
            PersistenceConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(updates),
        )
        .unwrap()
    }

    /// A one-shard in-memory fleet recording into `registry`.
    fn instrumented(registry: &Arc<Registry>) -> ShardedDynDens<AvgWeight> {
        let config = ShardConfig::new(1).with_obs(Arc::clone(registry));
        ShardedDynDens::new(AvgWeight, engine_config(), config)
    }

    /// The `i`-th of a run of disjoint edges.
    fn edge(i: u32) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(2 * i), VertexId(2 * i + 1), 1.0)
    }

    /// Engine 0's counter `name`.
    fn shard_counter(registry: &Registry, name: &str) -> u64 {
        let scrape = registry.snapshot();
        scrape.counter(name, &[("engine", "0")]).unwrap_or(0)
    }

    fn batch(k: u32) -> Vec<EdgeUpdate> {
        (0..BATCH as u32)
            .map(|i| EdgeUpdate::new(VertexId(k * 10 + i), VertexId(k * 10 + i + 1), 1.0))
            .collect()
    }

    fn apply_and_flush(fleet: &mut ShardedDynDens<AvgWeight>, k: u32) {
        fleet.apply_batch(&batch(k));
        fleet.flush();
    }

    fn shard_dir(dir: &Path, fleet: &ShardedDynDens<AvgWeight>) -> PathBuf {
        recovery::shard_dir(dir, fleet.shard_map().engine_of(0).unwrap())
    }

    fn snapshot_seqs(shard: &Path) -> Vec<u64> {
        let snapshots = recovery::list_snapshots(shard).unwrap();
        snapshots.into_iter().map(|(seq, _)| seq).collect()
    }

    fn segment_numbers(shard: &Path) -> Vec<u64> {
        let segments = list_segments(shard).unwrap();
        segments.into_iter().map(|(no, _)| no).collect()
    }

    #[test]
    fn a_failed_checkpoint_prunes_nothing_and_the_next_batch_retries() {
        let dir = temp_dir("ckpt-squat");
        let mut fleet = open(&dir);
        let shard = shard_dir(&dir, &fleet);
        // Checkpoints at 4 and 8; the one at 4 is the oldest retained once
        // 8 is durable, so segment 0 (updates 0..4) is pruned.
        apply_and_flush(&mut fleet, 0);
        apply_and_flush(&mut fleet, 1);
        // A directory on the `.tmp` path of the checkpoint at 12.
        let squat = shard.join(format!("snap-{:020}.tmp", 3 * BATCH));
        fs::create_dir(&squat).unwrap();
        apply_and_flush(&mut fleet, 2);
        // The batch after the failure learns of it, prunes nothing and
        // retries at 16. Had the checkpoint at 12 been durable, segment 1
        // (updates 4..8) would have gone behind it.
        apply_and_flush(&mut fleet, 3);
        assert_eq!(segment_numbers(&shard), [1, 2, 3, 4]);
        assert!(!snapshot_seqs(&shard).contains(&(3 * BATCH)));
        // Dropping the fleet settles the retry: durable, so the WAL is
        // pruned behind the oldest retained snapshot, 8.
        drop(fleet);
        assert_eq!(snapshot_seqs(&shard), [2 * BATCH, 4 * BATCH]);
        assert_eq!(segment_numbers(&shard), [2, 3, 4]);
        fs::remove_dir(&squat).unwrap();
        let reopened = open(&dir);
        assert_eq!(reopened.edge_count(), 4 * BATCH as usize);
        assert_eq!(reopened.recovery_reports()[0].replayed_updates, 0);
        drop(reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_wal_is_never_pruned_past_a_retained_snapshot() {
        let dir = temp_dir("ckpt-prune");
        let mut fleet = open(&dir);
        let shard = shard_dir(&dir, &fleet);
        for k in 0..12u32 {
            apply_and_flush(&mut fleet, k);
            let seq = BATCH * (k as u64 + 1);
            // Whatever the writer has made durable so far, the WAL replays
            // from the oldest snapshot on disk to `seq` without a gap, so
            // recovery can start from any of them.
            let Some(&oldest) = snapshot_seqs(&shard).first() else {
                continue;
            };
            let mut next = oldest;
            for (_, path) in list_segments(&shard).unwrap() {
                for record in scan_segment(&path).unwrap().records {
                    if record.end_seq() > next {
                        assert!(record.first_seq <= next, "after batch {k}: gap at {next}");
                        next = record.end_seq();
                    }
                }
            }
            assert_eq!(next, seq, "after batch {k}: the WAL ends at {next}");
        }
        drop(fleet);
        let reopened = open(&dir);
        assert_eq!(reopened.edge_count(), 12 * BATCH as usize);
        drop(reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_returns_once_its_checkpoint_is_on_disk() {
        let dir = temp_dir("ckpt-compact");
        let mut fleet = open(&dir);
        let shard = shard_dir(&dir, &fleet);
        apply_and_flush(&mut fleet, 0);
        // One edge below the floor: the compaction's micro-batch cancels it.
        fleet.apply_batch(&[EdgeUpdate::new(VertexId(100), VertexId(101), 0.05)]);
        fleet.flush();
        assert_eq!(fleet.compact_below(0.1), 1);
        assert_eq!(snapshot_seqs(&shard).last(), Some(&(BATCH + 2)));
        drop(fleet);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_backlog_behind_a_held_lock_lands_in_at_most_two_publications() {
        let registry = Arc::new(Registry::new());
        let fleet = instrumented(&registry);
        // The worker blocks on the engine lock with whatever it drained
        // first; everything queued behind that waits in its inbox.
        let engine = Arc::clone(&fleet.workers[0].engine);
        let held = engine.lock().unwrap();
        for i in 0..200 {
            fleet.apply_update(edge(i));
        }
        drop(held);
        fleet.flush();
        assert_eq!(fleet.view().snapshot().seq, 200);
        assert_eq!(
            shard_counter(&registry, names::SHARD_UPDATES_APPLIED_TOTAL),
            200
        );
        // The batch drained before the lock was released, then one for the
        // rest: not one per 64 updates.
        let publications = shard_counter(&registry, names::SHARD_BATCHES_APPLIED_TOTAL);
        assert!(publications <= 2, "{publications} publications");
    }

    #[test]
    fn a_paced_update_is_published_on_its_own() {
        let registry = Arc::new(Registry::new());
        let fleet = instrumented(&registry);
        for i in 0..5 {
            fleet.apply_update(edge(i));
            fleet.flush();
            let published = u64::from(i) + 1;
            assert_eq!(fleet.view().snapshot().seq, published);
            assert_eq!(
                shard_counter(&registry, names::SHARD_BATCHES_APPLIED_TOTAL),
                published
            );
        }
    }

    #[test]
    fn the_checkpoint_cadence_counts_updates_not_micro_batches() {
        // 32 updates at a cadence of 8, as 32 micro-batches of one update
        // and as 4 of eight: checkpoints at 8, 16, 24 and 32 either way.
        for size in [1, 8] {
            let dir = temp_dir(&format!("ckpt-cadence-{size}"));
            let registry = Arc::new(Registry::new());
            let config = ShardConfig::new(1).with_obs(Arc::clone(&registry));
            let mut fleet = open_every(&dir, 8, config);
            let shard = shard_dir(&dir, &fleet);
            let updates: Vec<EdgeUpdate> = (0..32).map(edge).collect();
            for chunk in updates.chunks(size) {
                fleet.apply_batch(chunk);
                fleet.flush();
            }
            drop(fleet);
            let checkpoints = shard_counter(&registry, names::CHECKPOINTS_TOTAL);
            assert_eq!(checkpoints, 4, "micro-batches of {size}");
            assert_eq!(snapshot_seqs(&shard), [24, 32], "micro-batches of {size}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
