//! The shard worker: a thread owning one engine, fed by a bounded channel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dyndens_core::{DenseEvent, DynDens};
use dyndens_density::DensityMeasure;
use dyndens_graph::EdgeUpdate;

use crate::config::PersistenceConfig;
use crate::obs::{ShardObs, WalObs};
use crate::recovery;
use crate::view::{DeltaBatch, DeltaRing, EpochCell, PublishWakers, ShardSnapshot};
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
    /// ordinary step with a forced checkpoint (which prunes the WAL behind
    /// it); then [`DynDens::reclaim_idle`], and an
    /// acknowledgement with the number of edges evicted.
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

/// The durability half of a worker: its WAL writer and snapshot cadence.
pub(crate) struct WorkerPersistence {
    /// The shard's WAL, positioned to append.
    pub wal: WalWriter,
    /// The shard's persistence directory (snapshots are written here).
    pub dir: PathBuf,
    /// Snapshot every N micro-batches.
    pub snapshot_every: usize,
    /// Micro-batches applied since the last snapshot.
    pub batches_since_snapshot: usize,
}

impl WorkerPersistence {
    /// The durability half of a worker appending to `wal` in `dir`, with the
    /// deployment's checkpoint cadence.
    pub(crate) fn new(wal: WalWriter, dir: PathBuf, p: &PersistenceConfig) -> Self {
        WorkerPersistence {
            wal,
            dir,
            snapshot_every: p.snapshot_every_batches,
            batches_since_snapshot: 0,
        }
    }

    /// Writes the engine image `bytes` taken at `seq` as the shard's newest
    /// checkpoint, then rotates the WAL and prunes the segments wholly behind
    /// the oldest retained one. A failed checkpoint is not fatal: the WAL
    /// still covers the whole history since the last good one, and the
    /// cadence counter is only reset on success, so the next micro-batch
    /// retries.
    fn checkpoint(&mut self, obs: Option<&ShardObs>, shard: usize, seq: u64, bytes: &[u8]) {
        let started = Instant::now();
        match recovery::write_snapshot(&self.dir, seq, bytes) {
            Ok(oldest_retained) => {
                self.batches_since_snapshot = 0;
                if let Some(o) = obs {
                    o.record_checkpoint(seq, bytes.len() as u64, started.elapsed());
                }
                if let Err(e) = self
                    .wal
                    .rotate(seq)
                    .and_then(|()| self.wal.prune_to(oldest_retained))
                {
                    eprintln!("shard {shard}: WAL rotate/prune failed: {e}");
                }
            }
            Err(e) => eprintln!("shard {shard}: checkpoint write failed: {e}"),
        }
    }
}

/// Everything a worker thread is parameterised by at spawn time (beyond its
/// shared engine/cell handles).
pub(crate) struct WorkerSetup {
    /// The worker's slot index, shared with the facade: a shard **merge**
    /// that frees a middle slot renumbers the last live worker into the
    /// freed slot by storing into this cell — the worker stamps every
    /// snapshot it publishes with the current value, so readers never see a
    /// stale slot number.
    pub slot: Arc<AtomicU32>,
    /// Micro-batch drain bound.
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

/// The worker loop: block on the inbox, drain up to `max_batch` pending
/// messages, run the drained micro-batch through [`Worker::step`],
/// acknowledge flushes, repeat. A compaction pass is one more step. On
/// shutdown it returns its durability half, WAL writer positioned at the
/// shard's sequence number, so an aborted reshape can respawn the shard on
/// it.
pub(crate) fn run<D: DensityMeasure>(
    setup: WorkerSetup,
    inbox: Receiver<WorkerMsg>,
    engine: Arc<Mutex<DynDens<D>>>,
    cell: Arc<EpochCell<ShardSnapshot>>,
    ring: Arc<DeltaRing>,
) -> Option<WorkerPersistence> {
    let WorkerSetup {
        slot,
        max_batch,
        top_k,
        initial_seq,
        persist,
        obs,
        wakers,
    } = setup;
    let mut worker = Worker {
        engine,
        cell,
        ring,
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
        // configured bound, so channel wakeups and engine locking amortise.
        // A control message (shutdown, compact) ends the drain so it acts at
        // its position in the queue order.
        while control.is_none() && pending.len() < max_batch {
            match inbox.try_recv() {
                Ok(msg) => control = absorb(msg, &mut pending, &mut acks),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }

        let shard = slot.load(Ordering::Relaxed) as usize;
        // A shard merge can renumber this worker's slot; relabel the metric
        // handles (a rare, registration-cost path) so per-shard series keep
        // matching the slot readers see in published snapshots.
        if let Some(o) = worker.obs.as_mut() {
            if o.slot != shard as u32 {
                let registry = Arc::clone(&o.registry);
                *o = ShardObs::for_slot(&registry, shard as u32);
                if let Some(p) = worker.persist.as_mut() {
                    p.wal
                        .set_obs(Some(WalObs::for_slot(&registry, shard as u32)));
                }
            }
        }
        worker.step(shard, &mut pending, false);
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
            worker.step(shard, &mut victims, true);
            worker.engine.lock().expect(POISONED).reclaim_idle();
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
    worker.persist
}

/// A worker thread's state between micro-batches.
struct Worker<D: DensityMeasure> {
    engine: Arc<Mutex<DynDens<D>>>,
    cell: Arc<EpochCell<ShardSnapshot>>,
    ring: Arc<DeltaRing>,
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
    /// The one step every micro-batch takes: WAL append, apply under a
    /// single engine lock, advance `seq`, publish a fresh snapshot, and
    /// checkpoint on the cadence — or regardless of it when
    /// `force_checkpoint`. An empty batch appends and publishes nothing; a
    /// forced checkpoint still runs.
    fn step(&mut self, shard: usize, batch: &mut Vec<EdgeUpdate>, force_checkpoint: bool) {
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
                .unwrap_or_else(|e| panic!("shard {shard}: WAL append failed: {e}"));
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
            // corresponds exactly to `seq`; write it to disk after the lock
            // is released. The cadence counter is only reset once the write
            // succeeds, so a failed checkpoint (e.g. disk full) is retried
            // on the next micro-batch instead of a full cadence later.
            let checkpoint = self.persist.as_mut().and_then(|p| {
                p.batches_since_snapshot += 1;
                (force_checkpoint || p.batches_since_snapshot >= p.snapshot_every)
                    .then(|| guard.snapshot())
            });
            // Publish latency: top-k selection, ring push, epoch swap and
            // wakers — neither the apply above nor the checkpoint image.
            let publish_started = self.obs.as_ref().map(|_| Instant::now());
            let snapshot =
                (batch_len > 0).then(|| build_snapshot(shard, &guard, self.seq, self.top_k));
            (snapshot, checkpoint, publish_started)
        };
        if let Some(snapshot) = snapshot {
            let events = take_events(&mut self.events, &self.no_events);
            let published = publish(snapshot, base_seq, events, &self.ring, &self.cell);
            self.wakers.notify();
            if let (Some(o), Some(t)) = (self.obs.as_ref(), publish_started) {
                o.record_batch(batch_len, apply_elapsed, t.elapsed());
                o.set_engine_gauges(&published.stats);
            }
        }
        if let (Some(bytes), Some(p)) = (checkpoint, self.persist.as_mut()) {
            p.checkpoint(self.obs.as_ref(), shard, self.seq, &bytes);
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
    shard: usize,
    engine: &DynDens<D>,
    seq: u64,
    top_k: usize,
) -> ShardSnapshot {
    let (top_stories, output_dense) = engine.top_stories(top_k);
    ShardSnapshot {
        shard,
        seq,
        top_stories,
        output_dense,
        stats: engine.stats().clone(),
    }
}

/// Makes one micro-batch visible: its `events`, covering updates
/// `base_seq..snapshot.seq`, into the delta ring, then `snapshot` into the
/// epoch cell. Retention before visibility: the ring covers the new seq
/// before the epoch pointer announces it, so a poller that observes the new
/// seq can always fetch its deltas.
fn publish(
    snapshot: ShardSnapshot,
    base_seq: u64,
    events: Arc<[DenseEvent]>,
    ring: &DeltaRing,
    cell: &EpochCell<ShardSnapshot>,
) -> Arc<ShardSnapshot> {
    let seq = snapshot.seq;
    ring.push(DeltaBatch {
        base_seq,
        seq,
        events,
    });
    let snapshot = Arc::new(snapshot);
    cell.store_with_seq(Arc::clone(&snapshot), seq);
    snapshot
}
