//! The [`ShardedDynDens`] facade: the single-engine API, scaled across cores,
//! with a generational routing table that supports live shard splits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender};
use std::sync::{Arc, Mutex, RwLock};

use dyndens_core::{DynDens, DynDensConfig, EngineStats};
use dyndens_density::DensityMeasure;
use dyndens_graph::{EdgeUpdate, ShardMap, VertexSet};

use dyndens_obs::{names, ObsEvent};

use crate::config::{PersistenceConfig, ShardConfig};
use crate::obs::{ShardObs, WalObs};
use crate::recovery::{self, RecoveryError, RecoveryReport};
use crate::view::{
    DeltaRing, EpochCell, PublishWakers, ShardFeed, ShardRoster, ShardSnapshot, StoryView,
};
use crate::worker::{self, WorkerHandle, WorkerMsg, WorkerPersistence};

/// The send side of one worker slot's inbox.
///
/// A slot is normally [`Live`](ShardTx::Live): a bounded channel consumed by
/// the slot's worker thread (backpressure by blocking the producer). While
/// the slot is being **split or merged**, it is temporarily
/// [`Parked`](ShardTx::Parked): an unbounded channel nobody consumes —
/// updates routed to the slot simply accumulate until the reshape commits
/// and re-routes them, in order, through the new shard map (see
/// [`crate::rebalance`]). Parking is unbounded deliberately: a bounded
/// parking queue could block an ingest thread that holds the routing read
/// lock while the reshape needs the write lock to drain it.
#[derive(Debug)]
pub(crate) enum ShardTx {
    /// A worker thread is consuming this slot's inbox.
    Live(SyncSender<WorkerMsg>),
    /// The slot is mid-reshape; messages park until the reshape commits.
    Parked(Sender<WorkerMsg>),
}

impl ShardTx {
    /// Sends one message, blocking only on a full live inbox. Send failures
    /// mean the receiving side is gone, which the caller treats as fatal for
    /// live slots and ignores during teardown.
    pub(crate) fn send(&self, msg: WorkerMsg) -> Result<(), ()> {
        match self {
            ShardTx::Live(tx) => tx.send(msg).map_err(|_| ()),
            ShardTx::Parked(tx) => tx.send(msg).map_err(|_| ()),
        }
    }
}

/// One worker slot's routing entry.
#[derive(Debug)]
pub(crate) struct SlotRoute {
    /// The slot's inbox.
    pub(crate) tx: ShardTx,
    /// Updates routed to the slot so far. Together with the slot's published
    /// sequence number this yields the **ingest queue depth** (routed −
    /// applied), the primary hot-shard signal used by
    /// [`Rebalancer`](crate::rebalance::Rebalancer).
    pub(crate) routed: Arc<AtomicU64>,
}

impl SlotRoute {
    /// Adds `updates` to the routed counter, then sends `msg`, which carries
    /// that many updates.
    fn send(&self, updates: usize, msg: WorkerMsg) {
        self.routed.fetch_add(updates as u64, Ordering::Relaxed);
        self.tx.send(msg).expect(WORKER_GONE);
    }
}

/// The routing state every ingest path consults: the generational shard map
/// plus one [`SlotRoute`] per worker slot. Guarded by an `RwLock` — ingest
/// takes it for read (many concurrent routers), a reshape takes it for write
/// twice (park the sources, commit the new map).
#[derive(Debug)]
pub(crate) struct RouteState {
    /// The generational routing table (vertex → worker slot).
    pub(crate) map: ShardMap,
    /// The slots' routing entries, indexed by worker slot.
    pub(crate) slots: Vec<SlotRoute>,
}

/// What a send into a worker slot that has gone away panics with.
pub(crate) const WORKER_GONE: &str = "shard worker terminated while the facade is alive";

impl RouteState {
    /// The one router every ingest path goes through — the facade, every
    /// [`IngestHandle`], and a reshape's drain of its parked backlog. Each
    /// update goes to its owner slot (the slot of its minimum endpoint);
    /// each slot receives its updates as one message, in arrival order, and
    /// its routed counter is bumped once, by the group's size, just before
    /// the send (so routed never trails applied). `groups` is per-slot
    /// scratch, left empty: each group sent is replaced by one with the
    /// capacity it just used, so a caller that keeps `groups` does not
    /// regrow them on the next batch.
    pub(crate) fn send(&self, updates: &[EdgeUpdate], groups: &mut Vec<Vec<EdgeUpdate>>) {
        let slot_of = |update: &EdgeUpdate| self.map.route(update.a.min(update.b));
        if let [update] = updates {
            // A lone update travels unboxed.
            return self.slots[slot_of(update)].send(1, WorkerMsg::Update(*update));
        }
        if groups.len() < self.slots.len() {
            groups.resize_with(self.slots.len(), Vec::new);
        }
        for &update in updates {
            groups[slot_of(&update)].push(update);
        }
        for (route, group) in self.slots.iter().zip(groups.iter_mut()) {
            if !group.is_empty() {
                let n = group.len();
                let sized = Vec::with_capacity(n);
                route.send(n, WorkerMsg::Batch(std::mem::replace(group, sized)));
            }
        }
    }
}

/// A cloneable, thread-safe ingest handle over a [`ShardedDynDens`]'s
/// routing table: the write-side counterpart of [`StoryView`].
///
/// Handles route through the same generational shard map as the facade, so
/// they follow splits transparently — including during a split, when updates
/// for the splitting slot park and everything else flows undisturbed. This
/// is what lets ingest continue from other threads while the owning thread
/// drives [`ShardedDynDens::split_shard`].
#[derive(Debug, Clone)]
pub struct IngestHandle {
    routing: Arc<RwLock<RouteState>>,
}

impl IngestHandle {
    /// Routes one update to its owner shard. Blocks only when that shard's
    /// live inbox is full (backpressure).
    pub fn apply_update(&self, update: EdgeUpdate) {
        self.apply_batch(std::slice::from_ref(&update));
    }

    /// Routes a batch of updates under one routing-lock acquisition,
    /// grouping them per owner slot (per-slot relative order is preserved).
    pub fn apply_batch(&self, updates: &[EdgeUpdate]) {
        let routing = self.routing.read().expect("routing poisoned");
        routing.send(updates, &mut Vec::new());
    }
}

/// A [`DynDens`] deployment partitioned over worker slots by a generational
/// routing table, each slot's worker owning one engine.
///
/// The facade mirrors the single-engine API — [`apply_update`],
/// [`apply_batch`], [`stats`], [`output_dense`] — with one semantic shift:
/// ingest is **asynchronous**. An accepted update is queued on its owner
/// shard and applied by that shard's worker thread; [`flush`] drains every
/// queue, and the authoritative read methods flush implicitly. For
/// non-blocking reads that tolerate a bounded lag, use the [`StoryView`]
/// returned by [`view`].
///
/// The worker count starts at [`ShardConfig::n_shards`] and changes at
/// runtime: [`split_shard`] rebuilds a hot shard's state into two fresh
/// engines, and [`merge_shards`](ShardedDynDens::merge_shards) folds cold
/// siblings back into one, while every other shard keeps ingesting. See
/// [`crate::rebalance`].
///
/// See the crate docs for the partitioning invariant that governs when the
/// sharded answer is identical to the single-engine answer.
///
/// [`apply_update`]: ShardedDynDens::apply_update
/// [`apply_batch`]: ShardedDynDens::apply_batch
/// [`stats`]: ShardedDynDens::stats
/// [`output_dense`]: ShardedDynDens::output_dense
/// [`flush`]: ShardedDynDens::flush
/// [`view`]: ShardedDynDens::view
/// [`split_shard`]: ShardedDynDens::split_shard
#[derive(Debug)]
pub struct ShardedDynDens<D: DensityMeasure> {
    pub(crate) config: ShardConfig,
    /// The density measure every shard's engine is built and restored with.
    pub(crate) measure: D,
    /// The per-shard engine configuration.
    pub(crate) engine_config: DynDensConfig,
    pub(crate) routing: Arc<RwLock<RouteState>>,
    pub(crate) roster: Arc<EpochCell<ShardRoster>>,
    /// The one publication waker list every [`StoryView`] of the fleet
    /// attaches to; workers notify it after each publication, the reshape
    /// commit after each roster store.
    pub(crate) wakers: Arc<PublishWakers>,
    /// One entry per worker slot, in slot order.
    pub(crate) workers: Vec<WorkerSlot<D>>,
    /// Per-slot scratch buffers reused by [`ShardedDynDens::apply_batch`].
    route_scratch: Vec<Vec<EdgeUpdate>>,
    /// What recovery did per shard; empty for non-persistent deployments.
    recovery: Vec<RecoveryReport>,
    /// The persistence configuration, kept for splits (children need new
    /// directories, WALs and a manifest rewrite). `None` for in-memory
    /// deployments.
    pub(crate) persistence: Option<PersistenceConfig>,
}

/// A shard's initial state handed to [`install_slot`].
pub(crate) struct ShardSeed<D: DensityMeasure> {
    pub(crate) engine: DynDens<D>,
    pub(crate) seq: u64,
    pub(crate) persist: Option<WorkerPersistence>,
}

/// One worker slot as the facade holds it.
#[derive(Debug)]
pub(crate) struct WorkerSlot<D: DensityMeasure> {
    /// The engine the worker applies to, and the authoritative reads lock.
    pub(crate) engine: Arc<Mutex<DynDens<D>>>,
    /// The worker thread; `None` between a reshape's quiesce and its commit
    /// or abort.
    pub(crate) thread: Option<WorkerHandle>,
    /// The engine's id, which names its `shard-<id>` directory and labels
    /// its metric series. A merge that moves the worker to another slot
    /// leaves it as it is.
    pub(crate) engine_id: u64,
}

impl<D: DensityMeasure> WorkerSlot<D> {
    /// Starts this slot's worker thread, publishing into `feed` and notifying
    /// `wakers`, and returns its inbox. The worker resumes at the sequence
    /// number `feed` already publishes. The one start path: a fresh slot
    /// ([`install_slot`]) and a resurrected one (an aborted reshape) both
    /// come here.
    pub(crate) fn start(
        &mut self,
        config: &ShardConfig,
        mut persist: Option<WorkerPersistence>,
        feed: &Arc<ShardFeed>,
        wakers: &Arc<PublishWakers>,
    ) -> SyncSender<WorkerMsg> {
        let id = self.engine_id;
        let (tx, rx) = sync_channel(config.channel_capacity);
        // Registration happens here, once per spawn — the worker loop itself
        // only ever touches the pre-registered handles.
        let obs = config.obs.registry().map(|registry| {
            if let Some(p) = persist.as_mut() {
                p.wal.set_obs(Some(WalObs::for_engine(registry, id)));
            }
            ShardObs::for_engine(registry, id, &feed.cell.load().stats)
        });
        let setup = worker::WorkerSetup {
            engine_id: id,
            max_batch: config.max_batch,
            top_k: config.top_k,
            initial_seq: feed.cell.seq(),
            persist,
            obs,
            wakers: Arc::clone(wakers),
        };
        let engine = Arc::clone(&self.engine);
        let feed = Arc::clone(feed);
        let thread = std::thread::Builder::new()
            .name(format!("dyndens-shard-{id}"))
            .spawn(move || worker::run(setup, rx, engine, feed))
            .expect("failed to spawn shard worker");
        self.thread = Some(thread);
        tx
    }
}

/// Brings engine `engine_id` to life on `seed`: a fresh feed whose cell
/// already publishes the seed engine's answer at `seed.seq` (readers see
/// recovered or rebuilt state immediately, not an empty snapshot that fills
/// in after the first micro-batch) and whose delta ring is **empty** (there
/// is no event stream from before `seed.seq`, so pollers resynchronise from
/// the snapshot), a worker thread, and a routed-update counter seeded at
/// `seed.seq` and adopted by the registry's routed series of the engine
/// (zero added cost on the routing path). Returns the slot's record for each
/// owner: the roster's feed, the routing entry and the facade's worker slot,
/// which the caller places at the engine's slot. Used at fleet start-up and
/// at the commit of every reshape.
pub(crate) fn install_slot<D: DensityMeasure>(
    engine_id: u64,
    config: &ShardConfig,
    seed: ShardSeed<D>,
    wakers: &Arc<PublishWakers>,
) -> (Arc<ShardFeed>, SlotRoute, WorkerSlot<D>) {
    let ShardSeed {
        engine,
        seq,
        persist,
    } = seed;
    let feed = Arc::new(ShardFeed {
        cell: EpochCell::new(ShardSnapshot::default()),
        ring: DeltaRing::new(config.delta_retention),
    });
    let snapshot = worker::build_snapshot(&engine, seq, config.top_k);
    feed.cell.store_with_seq(Arc::new(snapshot), seq);
    let mut worker = WorkerSlot {
        engine: Arc::new(Mutex::new(engine)),
        thread: None,
        engine_id,
    };
    let tx = worker.start(config, persist, &feed, wakers);
    let routed = Arc::new(AtomicU64::new(seq));
    if let Some(registry) = config.obs.registry() {
        registry.adopt_counter(
            names::SHARD_ROUTED_TOTAL,
            &[("engine", &engine_id.to_string())],
            Arc::clone(&routed),
        );
    }
    let route = SlotRoute {
        tx: ShardTx::Live(tx),
        routed,
    };
    (feed, route, worker)
}

impl<D: DensityMeasure> ShardedDynDens<D> {
    /// Spawns `config.n_shards` worker threads, each owning an independent
    /// [`DynDens`] engine built from `measure` and `engine_config`. No state
    /// is persisted; see [`with_persistence`](Self::with_persistence) for the
    /// crash-safe variant.
    pub fn new(measure: D, engine_config: DynDensConfig, config: ShardConfig) -> Self {
        let map = ShardMap::new(config.shard_fn, config.n_shards);
        let seeds = (0..config.n_shards)
            .map(|_| ShardSeed {
                engine: DynDens::new(measure.clone(), engine_config.clone()),
                seq: 0,
                persist: None,
            })
            .collect();
        Self::spawn(measure, engine_config, config, map, seeds, Vec::new(), None)
    }

    /// The crash-safe constructor: recovers every shard from
    /// `persistence.dir` (newest valid snapshot + WAL tail replay — an empty
    /// directory simply starts fresh), then spawns workers that write each
    /// micro-batch to their shard's WAL **before** applying it and
    /// checkpoint their engine every
    /// [`snapshot_every_updates`](PersistenceConfig::snapshot_every_updates)
    /// updates.
    ///
    /// The deployment `MANIFEST` carries the **generational shard map**: a
    /// directory refined by live splits reopens with the refined topology
    /// (more workers than `config.n_shards`), each slot recovering from the
    /// directory its current engine id names. The caller's `config` must
    /// still match the manifest's *base* parameters — see
    /// [`RecoveryError::ManifestMismatch`].
    ///
    /// Recovery hands each engine its restored ledger back after the replay,
    /// so replayed updates do not inflate [`EngineStats`]; the recovered
    /// maintenance state is bit-identical to a deployment that never crashed. Details of
    /// what was recovered are available via
    /// [`recovery_reports`](Self::recovery_reports).
    pub fn with_persistence(
        measure: D,
        engine_config: DynDensConfig,
        config: ShardConfig,
        persistence: PersistenceConfig,
    ) -> Result<Self, RecoveryError> {
        std::fs::create_dir_all(&persistence.dir)?;
        // Bind the directory to the deployment's state-affecting parameters
        // (or verify it was written by an identical deployment) and load the
        // current routing topology: restarting with a different base shard
        // count / shard function / measure / engine config would silently
        // drop or misroute persisted slices, or reinterpret their scores.
        let map =
            recovery::bind_manifest(&persistence.dir, measure.name(), &engine_config, &config)?;
        let engine_ids = map.worker_engines();

        // Shards recover independently (distinct directories, no shared
        // state), so cold start pays the slowest shard's snapshot load +
        // WAL tail replay, not the sum over shards.
        let recovered: Vec<Result<recovery::RecoveredShard<D>, RecoveryError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = engine_ids
                    .iter()
                    .enumerate()
                    .map(|(slot, &engine_id)| {
                        let (measure, engine_config) = (&measure, &engine_config);
                        let persistence = &persistence;
                        scope.spawn(move || {
                            let shard_dir = recovery::shard_dir(&persistence.dir, engine_id);
                            recovery::recover_shard(
                                measure,
                                engine_config,
                                slot,
                                &shard_dir,
                                persistence,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard recovery thread panicked"))
                    .collect()
            });

        let mut seeds = Vec::with_capacity(engine_ids.len());
        let mut reports = Vec::with_capacity(engine_ids.len());
        for (slot, result) in recovered.into_iter().enumerate() {
            let recovered = result?;
            if let Some(registry) = config.obs.registry() {
                // The journal form of the RecoveryReport: a crash recovery
                // that happened hours ago stays explainable from a scrape.
                let report = &recovered.report;
                let label = engine_ids[slot].to_string();
                let labels: &[(&str, &str)] = &[("engine", label.as_str())];
                registry.counter(names::RECOVERIES_TOTAL, labels).inc();
                registry
                    .counter(names::RECOVERY_REPLAYED_TOTAL, labels)
                    .add(report.replayed_updates);
                registry.emit(ObsEvent::Recovery {
                    shard: slot as u32,
                    snapshot_seq: report.snapshot_seq,
                    replayed_updates: report.replayed_updates,
                    recovered_seq: report.recovered_seq,
                    repaired_torn_tail: report.repaired_torn_tail,
                });
            }
            reports.push(recovered.report);
            seeds.push(ShardSeed {
                engine: recovered.engine,
                seq: recovered.seq,
                persist: Some(WorkerPersistence::new(
                    recovered.wal,
                    recovery::shard_dir(&persistence.dir, engine_ids[slot]),
                    &persistence,
                )),
            });
        }
        Ok(Self::spawn(
            measure,
            engine_config,
            config,
            map,
            seeds,
            reports,
            Some(persistence),
        ))
    }

    fn spawn(
        measure: D,
        engine_config: DynDensConfig,
        config: ShardConfig,
        map: ShardMap,
        seeds: Vec<ShardSeed<D>>,
        recovery: Vec<RecoveryReport>,
        persistence: Option<PersistenceConfig>,
    ) -> Self {
        debug_assert_eq!(seeds.len(), map.n_workers());
        let wakers = Arc::new(PublishWakers::default());
        let (feeds, (slots, workers)): (Vec<_>, (Vec<_>, Vec<_>)) = seeds
            .into_iter()
            .zip(map.worker_engines())
            .map(|(seed, engine_id)| {
                let (feed, route, worker) = install_slot(engine_id, &config, seed, &wakers);
                (feed, (route, worker))
            })
            .unzip();
        let fleet = ShardedDynDens {
            route_scratch: vec![Vec::new(); workers.len()],
            config,
            measure,
            engine_config,
            routing: Arc::new(RwLock::new(RouteState { map, slots })),
            roster: Arc::new(EpochCell::new(feeds)),
            wakers,
            workers,
            recovery,
            persistence,
        };
        fleet.set_slot_gauges();
        fleet
    }

    /// Sets `dyndens_shard_slot{engine}` to each live engine's slot: the
    /// link from the engine-labelled series to the slot numbers that
    /// [`StoryView`] and the serve protocol's replies use. Called at start
    /// and at every reshape commit, the only times a slot changes engine.
    pub(crate) fn set_slot_gauges(&self) {
        if let Some(registry) = self.config.obs.registry() {
            for (slot, worker) in self.workers.iter().enumerate() {
                let label = worker.engine_id.to_string();
                registry
                    .gauge(names::SHARD_SLOT, &[("engine", label.as_str())])
                    .set(slot as u64);
            }
        }
    }

    /// Per-shard recovery reports of a [`with_persistence`] deployment
    /// (empty when the deployment is not persistent).
    ///
    /// [`with_persistence`]: Self::with_persistence
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Number of live shard workers. Starts at [`ShardConfig::n_shards`] and
    /// grows by one per [`split_shard`](Self::split_shard).
    pub fn n_shards(&self) -> usize {
        self.routing
            .read()
            .expect("routing poisoned")
            .map
            .n_workers()
    }

    /// The shard configuration (its `n_shards` is the **base** slot count of
    /// the routing table, not the current worker count — see
    /// [`n_shards`](Self::n_shards)).
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The per-shard engine configuration.
    pub fn engine_config(&self) -> &DynDensConfig {
        &self.engine_config
    }

    /// A clone of the current generational routing table.
    pub fn shard_map(&self) -> ShardMap {
        self.routing.read().expect("routing poisoned").map.clone()
    }

    /// The shard owning `update` (the routing-table slot of its minimum
    /// endpoint).
    #[inline]
    pub fn shard_of(&self, update: &EdgeUpdate) -> usize {
        self.routing
            .read()
            .expect("routing poisoned")
            .map
            .route(update.a.min(update.b))
    }

    /// Per-slot ingest queue depths: updates routed but not yet applied and
    /// published. The primary hot-shard signal consumed by
    /// [`Rebalancer`](crate::rebalance::Rebalancer).
    pub fn queue_depths(&self) -> Vec<u64> {
        let routing = self.routing.read().expect("routing poisoned");
        let roster = self.roster.load();
        let depths: Vec<u64> = routing
            .slots
            .iter()
            .zip(roster.iter())
            .map(|(route, feed)| {
                let routed = route.routed.load(Ordering::Relaxed);
                routed.saturating_sub(feed.cell.seq())
            })
            .collect();
        if let Some(registry) = self.config.obs.registry() {
            // Refreshed at probe cadence (the rebalancer's), not per update:
            // a gauge of a derived quantity is only as fresh as its probe.
            for (worker, &depth) in self.workers.iter().zip(&depths) {
                let label = worker.engine_id.to_string();
                registry
                    .gauge(names::SHARD_QUEUE_DEPTH, &[("engine", label.as_str())])
                    .set(depth);
            }
        }
        depths
    }

    /// A cloneable, thread-safe ingest handle sharing this deployment's
    /// routing table — the write-side counterpart of [`view`](Self::view).
    /// Handles keep working across splits (updates for a slot that is
    /// mid-split park and are re-routed when the split commits).
    pub fn ingest_handle(&self) -> IngestHandle {
        IngestHandle {
            routing: Arc::clone(&self.routing),
        }
    }

    /// Routes one update to its owner shard. Blocks only when that shard's
    /// inbox is full (backpressure).
    pub fn apply_update(&self, update: EdgeUpdate) {
        let routing = self.routing.read().expect("routing poisoned");
        routing.send(std::slice::from_ref(&update), &mut Vec::new());
    }

    /// Routes a batch of updates, grouping them per owner shard so each shard
    /// receives one message (per-shard relative order is preserved).
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) {
        let routing = self.routing.read().expect("routing poisoned");
        routing.send(updates, &mut self.route_scratch);
    }

    /// Blocks until every update routed so far has been applied and
    /// published.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = channel();
        let expected = {
            let routing = self.routing.read().expect("routing poisoned");
            for route in &routing.slots {
                route
                    .tx
                    .send(WorkerMsg::Flush(ack_tx.clone()))
                    .expect(WORKER_GONE);
            }
            routing.slots.len()
        };
        drop(ack_tx);
        for _ in 0..expected {
            ack_rx.recv().expect("shard worker dropped a flush ack");
        }
    }

    /// Runs a compaction pass on every shard: the cancelling updates of every
    /// engine edge whose weight has decayed to `min_weight` or below
    /// ([`DynDens::edges_below`]) go through the shard as one
    /// ordinary micro-batch (WAL, apply, publish) whose checkpoint is forced,
    /// which prunes the WAL segments wholly behind it. A shard that evicts
    /// nothing publishes nothing but still checkpoints. Returns the total
    /// number of edges evicted.
    ///
    /// The pass is serialised with each shard's stream at the point the
    /// message reaches its queue, so it is safe to call concurrently with
    /// ingest. On a decaying workload, a periodic `compact_below` is what
    /// keeps both the engines' memory and the persistence directory bounded
    /// — see `docs/RETENTION.md` for cadence guidance.
    pub fn compact_below(&self, min_weight: f64) -> u64 {
        let receivers: Vec<_> = {
            let routing = self.routing.read().expect("routing poisoned");
            routing
                .slots
                .iter()
                .map(|route| {
                    let (ack, rx) = channel();
                    route
                        .tx
                        .send(WorkerMsg::Compact { min_weight, ack })
                        .expect(WORKER_GONE);
                    rx
                })
                .collect()
        };
        // Each receiver yields one ack per worker that executed the pass and
        // closes when the last ack sender is dropped.
        let evicted: u64 = receivers.into_iter().flat_map(|rx| rx.into_iter()).sum();
        if let Some(registry) = self.config.obs.registry() {
            registry.counter(names::COMPACTION_PASSES_TOTAL, &[]).inc();
            registry
                .counter(names::COMPACTION_EVICTED_EDGES_TOTAL, &[])
                .add(evicted);
        }
        evicted
    }

    /// A non-blocking read handle over the shards' published snapshots and
    /// delta retention rings. Views observe splits: their shard count grows
    /// when one commits.
    pub fn view(&self) -> StoryView {
        StoryView {
            roster: Arc::clone(&self.roster),
            wakers: Arc::clone(&self.wakers),
            top_k: self.config.top_k,
        }
    }

    /// The authoritative read path: flushes, so every routed update is
    /// applied, then reads each shard's engine under its lock, in slot order.
    fn read_engines<T>(&self, mut read: impl FnMut(&DynDens<D>) -> T) -> Vec<T> {
        self.flush();
        self.workers
            .iter()
            .map(|w| read(&w.engine.lock().expect("shard engine poisoned")))
            .collect()
    }

    /// The merged cumulative work counters of all shards (flushes first, so
    /// the ledger covers every routed update). The ledger is preserved
    /// exactly across splits and merges: the target that keeps a source's
    /// slot adopts the sources' counters, the other starts at zero.
    pub fn stats(&self) -> EngineStats {
        EngineStats::merged(&self.read_engines(|e| e.stats().clone()))
    }

    /// The authoritative union of the shards' output-dense subgraphs
    /// (flushes first). Order is unspecified; sort for comparisons.
    pub fn output_dense(&self) -> Vec<(VertexSet, f64)> {
        let per_shard = self.read_engines(|e| e.output_dense_subgraphs());
        per_shard.into_iter().flatten().collect()
    }

    /// The authoritative union of the shards' maintained (dense) subgraphs
    /// with their scores (flushes first). Order is unspecified; sort for
    /// comparisons. This is the full maintained family, a superset of
    /// [`output_dense`](Self::output_dense) — the quantity the crash
    /// recovery and split equivalence tests compare bit-for-bit.
    pub fn dense_subgraphs(&self) -> Vec<(VertexSet, f64)> {
        let per_shard = self.read_engines(|e| e.dense_subgraphs());
        per_shard.into_iter().flatten().collect()
    }

    /// The fleet's vertex universe: the maximum
    /// [`vertex_count`](dyndens_graph::DynamicGraph::vertex_count) of the
    /// shards' graphs (vertex ids are global — each shard's graph grows to
    /// the highest id it has seen). Flushes first. Used by ingest-side recovery
    /// to cross-check that its id-assigning state (e.g. the story pipeline's
    /// entity registry) covers every vertex the engines reference.
    pub fn vertex_universe(&self) -> usize {
        let sizes = self.read_engines(|e| e.graph().vertex_count());
        sizes.into_iter().max().unwrap_or(0)
    }

    /// Number of live (non-zero-weight) edges across all shards (flushes
    /// first). The primary gauge of resident state for bounded-state
    /// operation: on a decaying workload this should plateau once
    /// [`compact_below`](Self::compact_below) runs on a cadence — see
    /// `docs/RETENTION.md`.
    pub fn edge_count(&self) -> usize {
        self.read_engines(|e| e.graph().edge_count()).iter().sum()
    }

    /// Number of output-dense subgraphs across all shards (flushes first).
    pub fn output_dense_count(&self) -> usize {
        self.read_engines(|e| e.output_dense_count()).iter().sum()
    }

    /// Runs each shard engine's internal consistency check (flushes first),
    /// returning the first violation in slot order, then checks the slot
    /// bookkeeping: the routing map, the routing table, the roster and the
    /// facade agree on the slot count, and each slot's worker runs the
    /// engine the map names for that slot.
    pub fn validate(&self) -> Result<(), String> {
        let checks = self.read_engines(|e| e.validate());
        checks
            .into_iter()
            .enumerate()
            .try_for_each(|(shard, check)| check.map_err(|e| format!("shard {shard}: {e}")))?;
        let routing = self.routing.read().expect("routing poisoned");
        let (mapped, routed) = (routing.map.n_workers(), routing.slots.len());
        let (rostered, workers) = (self.roster.load().len(), self.workers.len());
        if [mapped, routed, rostered] != [workers; 3] {
            return Err(format!(
                "slot counts disagree: map {mapped}, routing {routed}, roster {rostered}, \
                 facade {workers}"
            ));
        }
        let engines = routing.map.worker_engines();
        for (slot, (worker, &mapped)) in self.workers.iter().zip(&engines).enumerate() {
            if worker.engine_id != mapped {
                let id = worker.engine_id;
                return Err(format!(
                    "the worker in slot {slot} runs engine {id}, the map names {mapped}"
                ));
            }
        }
        Ok(())
    }
}

impl<D: DensityMeasure> Drop for ShardedDynDens<D> {
    fn drop(&mut self) {
        {
            let routing = self.routing.read().expect("routing poisoned");
            for route in &routing.slots {
                // A worker that already exited (or panicked) has hung up;
                // that is fine during teardown. Parked slots have no worker.
                let _ = route.tx.send(WorkerMsg::Shutdown);
            }
        }
        for thread in self.workers.drain(..).filter_map(|w| w.thread) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardFn;
    use crate::view::DeltaCatchUp;
    use dyndens_core::DynDens;
    use dyndens_density::AvgWeight;
    use dyndens_graph::VertexId;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn sharded(n: usize) -> ShardedDynDens<AvgWeight> {
        ShardedDynDens::new(
            AvgWeight,
            DynDensConfig::new(1.0, 4).with_delta_it(0.15),
            ShardConfig::new(n)
                .with_shard_fn(ShardFn::Modulo)
                .with_max_batch(4),
        )
    }

    #[test]
    fn single_shard_matches_plain_engine() {
        let updates = [
            update(0, 2, 1.0),
            update(0, 3, 1.0),
            update(2, 3, 1.0),
            update(1, 3, 1.0),
            update(1, 2, 1.1),
            update(0, 1, 0.95),
        ];
        let mut reference = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4).with_delta_it(0.15));
        let mut sharded = sharded(1);
        for u in updates {
            reference.apply_update(u);
        }
        sharded.apply_batch(&updates);
        sharded.validate().unwrap();

        let mut want: Vec<VertexSet> = reference
            .output_dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let mut got: Vec<VertexSet> = sharded.output_dense().into_iter().map(|(s, _)| s).collect();
        want.sort();
        got.sort();
        assert_eq!(got, want);
        assert_eq!(sharded.stats(), reference.stats().clone());
        assert_eq!(sharded.dense_subgraphs().len(), reference.dense_count());
    }

    #[test]
    fn updates_route_to_min_endpoint_shard() {
        let sharded = sharded(4);
        assert_eq!(sharded.n_shards(), 4);
        // Modulo sharding: min endpoint decides.
        assert_eq!(sharded.shard_of(&update(5, 2, 1.0)), 2);
        assert_eq!(sharded.shard_of(&update(3, 7, 1.0)), 3);
        assert_eq!(sharded.shard_of(&update(8, 1, 1.0)), 1);
        assert_eq!(sharded.shard_of(&update(8, 12, 1.0)), 0);
    }

    #[test]
    fn ingest_handle_routes_like_the_facade() {
        let sharded = sharded(2);
        let handle = sharded.ingest_handle();
        handle.apply_update(update(0, 2, 1.5));
        handle.apply_batch(&[update(1, 3, 1.5), update(2, 4, 1.2)]);
        sharded.flush();
        let view = sharded.view();
        assert_eq!(view.snapshot().seq, 3);
        assert_eq!(view.per_shard_seq(), vec![2, 1]);
        assert_eq!(sharded.queue_depths(), vec![0, 0]);
    }

    #[test]
    fn the_router_keeps_its_groups_sized() {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| sync_channel(4)).unzip();
        let state = RouteState {
            map: ShardMap::new(ShardFn::Modulo, 3),
            slots: txs
                .into_iter()
                .map(|tx| SlotRoute {
                    tx: ShardTx::Live(tx),
                    routed: Arc::new(AtomicU64::new(0)),
                })
                .collect(),
        };
        // 40 updates for slot 0, 24 for slot 1, none for slot 2.
        let batch: Vec<EdgeUpdate> = (0..64)
            .map(|i| update(3 * (i % 8) + u32::from(i >= 40), 100 + i, 1.0))
            .collect();
        let mut groups = Vec::new();
        for round in 0..2 {
            state.send(&batch, &mut groups);
            for (slot, want) in [(0, 40), (1, 24)] {
                match rxs[slot].try_recv() {
                    Ok(WorkerMsg::Batch(sent)) => assert_eq!(sent.len(), want),
                    _ => panic!("round {round}: slot {slot} got no batch"),
                }
                assert!(groups[slot].is_empty());
                assert!(
                    groups[slot].capacity() >= want,
                    "round {round}: slot {slot}"
                );
            }
            assert!(rxs[2].try_recv().is_err());
            assert_eq!(groups[2].capacity(), 0);
        }
        assert_eq!(state.slots[0].routed.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn validate_checks_the_slot_bookkeeping() {
        let mut fleet = sharded(3);
        fleet.validate().unwrap();
        fleet.workers[1].engine_id = 2;
        let err = fleet.validate().unwrap_err();
        assert_eq!(err, "the worker in slot 1 runs engine 2, the map names 1");
    }

    #[test]
    fn every_applied_batch_records_one_publish_latency() {
        let registry = Arc::new(dyndens_obs::Registry::new());
        let mut fleet = ShardedDynDens::new(
            AvgWeight,
            DynDensConfig::new(1.0, 4).with_delta_it(0.15),
            ShardConfig::new(2)
                .with_shard_fn(ShardFn::Modulo)
                .with_max_batch(4)
                .with_obs(Arc::clone(&registry)),
        );
        for round in 0..5 {
            fleet.apply_batch(&[update(round, round + 2, 1.2), update(round, round + 4, 1.1)]);
            fleet.flush();
        }
        let scrape = registry.snapshot();
        let published = scrape.merged_histogram(names::SHARD_PUBLISH_LATENCY_US);
        let batches: u64 = scrape
            .counters
            .iter()
            .filter(|c| c.name.name == names::SHARD_BATCHES_APPLIED_TOTAL)
            .map(|c| c.value)
            .sum();
        assert!(batches >= 5, "a flush after every round");
        assert_eq!(published.count, batches);
    }

    #[test]
    fn disjoint_communities_are_maintained_per_shard() {
        // Two 3-cliques on residues 0 and 1 (mod 2): each lives wholly in one
        // shard, and the union answer covers both.
        let mut sharded = sharded(2);
        let cliques: &[&[u32]] = &[&[0, 2, 4], &[1, 3, 5]];
        let mut updates = Vec::new();
        for clique in cliques {
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    updates.push(update(a, b, 1.2));
                }
            }
        }
        sharded.apply_batch(&updates);
        sharded.validate().unwrap();
        let got = sharded.output_dense();
        // Each 3-clique contributes 3 pairs + 1 triangle.
        assert_eq!(got.len(), 8);
        assert_eq!(sharded.output_dense_count(), 8);
        assert!(sharded.dense_subgraphs().len() >= 8);
        let stats = sharded.stats();
        assert_eq!(stats.updates, updates.len() as u64);

        // The view serves the same stories, sequence-numbered.
        let view = sharded.view();
        let merged = view.snapshot();
        assert_eq!(merged.seq, updates.len() as u64);
        assert_eq!(merged.output_dense_total, 8);
        assert_eq!(merged.stories.len(), 8.min(sharded.config().top_k));
        let top_density = merged.stories[0].1;
        assert!((top_density - 1.2).abs() < 1e-9);
        assert_eq!(view.stats().updates, stats.updates);
    }

    #[test]
    fn flush_makes_single_update_path_visible() {
        let sharded = sharded(2);
        sharded.apply_update(update(0, 2, 1.5));
        sharded.apply_update(update(1, 3, 1.5));
        sharded.flush();
        let view = sharded.view();
        let merged = view.snapshot();
        assert_eq!(merged.seq, 2);
        assert_eq!(merged.per_shard_seq, vec![1, 1]);
        assert_eq!(merged.output_dense_total, 2);
        // Each shard's delta ring serves the events of its last batch.
        match view.deltas_since(0, 0) {
            DeltaCatchUp::Events { to_seq, events } => {
                assert_eq!(to_seq, 1);
                assert_eq!(events.len(), 1);
                assert!(events[0].is_became());
            }
            other => panic!("expected events, got {other:?}"),
        }
    }

    #[test]
    fn persistent_facade_recovers_across_restarts() {
        use crate::config::{FsyncPolicy, PersistenceConfig};

        let dir = std::env::temp_dir().join(format!("dyndens-facade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                // Two of the run's micro-batches: each shard gets one
                // 100-update message, so no checkpoint fires and recovery
                // replays the whole WAL.
                .with_snapshot_every_updates(200)
        };
        let updates: Vec<EdgeUpdate> = (0..200)
            .map(|i| {
                let a = (i % 8) as u32;
                let b = a + 2 * (1 + (i % 4) as u32);
                update(a, b, if i % 6 == 5 { -0.3 } else { 0.5 })
            })
            .collect();

        // Reference: plain in-memory deployment.
        let mut reference = sharded(2);
        reference.apply_batch(&updates);
        let mut want: Vec<(VertexSet, f64)> = reference.dense_subgraphs();
        want.sort_by(|a, b| a.0.cmp(&b.0));

        // First persistent run: ingest, flush (WAL is written before apply,
        // so everything flushed is on disk), then "crash" by dropping.
        {
            let mut p = ShardedDynDens::with_persistence(
                AvgWeight,
                DynDensConfig::new(1.0, 4).with_delta_it(0.15),
                ShardConfig::new(2)
                    .with_shard_fn(ShardFn::Modulo)
                    .with_max_batch(4),
                persistence(),
            )
            .unwrap();
            assert!(p
                .recovery_reports()
                .iter()
                .all(|r| r.recovered_seq == 0 && r.replayed_updates == 0));
            p.apply_batch(&updates);
            p.flush();
        }

        // Restart: recovery must rebuild the identical answer with no new
        // ingest at all.
        let recovered = ShardedDynDens::with_persistence(
            AvgWeight,
            DynDensConfig::new(1.0, 4).with_delta_it(0.15),
            ShardConfig::new(2)
                .with_shard_fn(ShardFn::Modulo)
                .with_max_batch(4),
            persistence(),
        )
        .unwrap();
        let reports = recovered.recovery_reports().to_vec();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports.iter().map(|r| r.recovered_seq).sum::<u64>(),
            updates.len() as u64
        );
        assert!(reports.iter().any(|r| r.replayed_updates > 0));
        let mut got = recovered.dense_subgraphs();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got.len(), want.len());
        for ((gs, gd), (ws, wd)) in got.iter().zip(&want) {
            assert_eq!(gs, ws);
            assert_eq!(gd.to_bits(), wd.to_bits(), "score bits diverge on {gs}");
        }
        // The recovered state is visible through the view without ingest.
        assert_eq!(recovered.view().snapshot().seq, updates.len() as u64);
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_below_reclaims_state_and_prunes_the_wal() {
        use crate::config::{FsyncPolicy, PersistenceConfig};

        fn wal_bytes(root: &std::path::Path) -> u64 {
            let mut total = 0;
            let mut stack = vec![root.to_path_buf()];
            while let Some(d) = stack.pop() {
                for entry in std::fs::read_dir(&d).unwrap() {
                    let path = entry.unwrap().path();
                    if path.is_dir() {
                        stack.push(path);
                    } else if path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("wal-"))
                    {
                        total += path.metadata().unwrap().len();
                    }
                }
            }
            total
        }

        let dir = std::env::temp_dir().join(format!("dyndens-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A huge checkpoint cadence: without compaction the WAL only grows.
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(1_000_000)
        };
        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            DynDensConfig::new(1.0, 4).with_delta_it(0.15),
            ShardConfig::new(2)
                .with_shard_fn(ShardFn::Modulo)
                .with_max_batch(4),
            persistence(),
        )
        .unwrap();

        // Two strong communities (one per shard) plus 30 chaff edges whose
        // weight decays to a dyadic residual 0.0625 — fully-decayed stories.
        let mut updates = Vec::new();
        for &(a, b) in &[(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)] {
            updates.push(update(a, b, 1.25));
        }
        for i in 0..30u32 {
            updates.push(update(20 + i, 100 + i, 0.5));
        }
        for i in 0..30u32 {
            updates.push(update(20 + i, 100 + i, -0.4375));
        }
        fleet.apply_batch(&updates);
        fleet.flush();

        let mut before = fleet.dense_subgraphs();
        before.sort_by(|a, b| a.0.cmp(&b.0));
        let wal_before = wal_bytes(&dir);
        assert!(wal_before > 0);
        assert_eq!(fleet.edge_count(), 36);

        let evicted = fleet.compact_below(0.1);
        assert_eq!(evicted, 30, "every chaff edge is reclaimed");
        assert_eq!(fleet.edge_count(), 6, "only the live communities remain");
        let mut after = fleet.dense_subgraphs();
        after.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(after.len(), before.len());
        for ((askey, ad), (bskey, bd)) in after.iter().zip(&before) {
            assert_eq!(askey, bskey);
            assert_eq!(ad.to_bits(), bd.to_bits(), "answer changed on {askey}");
        }
        // The compaction checkpoint folds everything evicted out of the log:
        // only a fresh (near-empty) segment per shard survives.
        assert!(
            wal_bytes(&dir) < wal_before,
            "WAL not pruned: {} >= {wal_before}",
            wal_bytes(&dir)
        );

        // Ingest keeps working after the pass, and a crash + reopen recovers
        // the compacted state bit for bit.
        fleet.apply_batch(&[update(0, 6, 1.25)]);
        fleet.flush();
        let mut want = fleet.dense_subgraphs();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        drop(fleet);
        let reopened = ShardedDynDens::with_persistence(
            AvgWeight,
            DynDensConfig::new(1.0, 4).with_delta_it(0.15),
            ShardConfig::new(2)
                .with_shard_fn(ShardFn::Modulo)
                .with_max_batch(4),
            persistence(),
        )
        .unwrap();
        assert_eq!(reopened.edge_count(), 7);
        let mut got = reopened.dense_subgraphs();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got.len(), want.len());
        for ((gs, gd), (ws, wd)) in got.iter().zip(&want) {
            assert_eq!(gs, ws);
            assert_eq!(gd.to_bits(), wd.to_bits(), "recovery diverges on {gs}");
        }
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_parameter_drift_across_restarts() {
        use crate::config::PersistenceConfig;
        use crate::recovery::RecoveryError;

        let dir = std::env::temp_dir().join(format!("dyndens-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine_cfg = || DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let open = |n_shards: usize, shard_fn: ShardFn, engine: DynDensConfig| {
            ShardedDynDens::with_persistence(
                AvgWeight,
                engine,
                ShardConfig::new(n_shards).with_shard_fn(shard_fn),
                PersistenceConfig::new(&dir),
            )
        };

        // Bind the directory with a 4-shard modulo deployment.
        {
            let d = open(4, ShardFn::Modulo, engine_cfg()).unwrap();
            d.apply_update(update(0, 1, 1.5));
            d.flush();
        }
        // Identical parameters reopen fine (queueing tunables may differ).
        {
            let d = ShardedDynDens::with_persistence(
                AvgWeight,
                engine_cfg(),
                ShardConfig::new(4)
                    .with_shard_fn(ShardFn::Modulo)
                    .with_max_batch(7)
                    .with_top_k(3),
                PersistenceConfig::new(&dir).with_snapshot_every_updates(35),
            )
            .unwrap();
            assert_eq!(d.output_dense_count(), 1);
        }
        // Fewer shards would silently drop slices: hard error.
        assert!(matches!(
            open(2, ShardFn::Modulo, engine_cfg()),
            Err(RecoveryError::ManifestMismatch { field: "n_shards" })
        ));
        // Different routing would misassign edges: hard error.
        assert!(matches!(
            open(4, ShardFn::Hashed, engine_cfg()),
            Err(RecoveryError::ManifestMismatch { field: "shard_fn" })
        ));
        // Different density semantics: hard error.
        assert!(matches!(
            open(
                4,
                ShardFn::Modulo,
                DynDensConfig::new(0.8, 4).with_delta_it(0.15)
            ),
            Err(RecoveryError::ManifestMismatch {
                field: "engine config"
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn negative_updates_and_evictions_propagate() {
        let mut sharded = sharded(2);
        sharded.apply_batch(&[update(0, 2, 1.5), update(1, 3, 1.5)]);
        assert_eq!(sharded.output_dense_count(), 2);
        sharded.apply_batch(&[update(0, 2, -1.0)]);
        assert_eq!(sharded.output_dense_count(), 1);
        match sharded.view().deltas_since(0, 1) {
            DeltaCatchUp::Events { events, .. } => assert!(events.iter().any(|e| !e.is_became())),
            other => panic!("expected events, got {other:?}"),
        }
        let stats = sharded.stats();
        assert_eq!(stats.negative_updates, 1);
        assert_eq!(stats.subgraphs_evicted, 1);
    }
}
