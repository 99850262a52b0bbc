//! The system under test, assembled from shipped defaults, and the threads
//! the benchmark adds beside it: one push subscriber feeding a `Mirror`,
//! and on `flash_readers` one reader. Receiving blocks and pacing sleeps;
//! nothing here spins.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dyndens_density::AvgWeight;
use dyndens_graph::VertexSet;
use dyndens_obs::{ObsHandle, Registry};
use dyndens_serve::{Client, Mirror, PushBatch, ShardPoll, StoryServer, Subscription};
use dyndens_shard::{PersistenceConfig, ShardConfig, ShardFn, ShardedDynDens, StoryView};
use dyndens_stream::sharded::ShardedStoryPipeline;
use dyndens_stream::ChiSquareCorrelation;

use crate::probe::LogEntry;
use crate::ticks::{Clock, WallClock};
use crate::trace::{Span, Tracer};
use crate::workload::{Input, Workload, MEAN_LIFE_S};

/// How long the generator waits for the mirror before it gives the run up:
/// every run must end well inside the driver's 180 s.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(90);

/// Push batches the subscriber keeps, from the first one on (contiguous, so
/// the isolated `Mirror::apply` drive can replay them), in a traced run.
const CAPTURED_PUSHES: usize = 4096;

/// Requests per second the `flash_readers` reader sends.
const READER_RATE: u64 = 2_000;

type Pipeline = ShardedStoryPipeline<ChiSquareCorrelation, AvgWeight>;

/// A directory removed when the guard drops — on success, failure or panic.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, uniquely named directory under `parent`.
    pub fn create(parent: &Path, tag: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = parent.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The ingest side of the system: a bare fleet for update-shaped workloads,
/// the persistent story pipeline for `posts_wal`.
pub enum Sut {
    Fleet(Box<ShardedDynDens<AvgWeight>>),
    Pipeline(Box<Pipeline>),
}

/// The shipped shard defaults (max_batch 64, channel 1024, top_k 16,
/// retention 256) under Modulo routing, with the registry attached only in
/// a traced run.
fn shard_config(workload: Workload, registry: Option<&Arc<Registry>>) -> ShardConfig {
    let config = ShardConfig::new(workload.n_shards()).with_shard_fn(ShardFn::Modulo);
    match registry {
        Some(registry) => config.with_obs(Arc::clone(registry)),
        None => config,
    }
}

impl Sut {
    /// Builds (or, on a directory that already holds state, recovers) the
    /// ingest side. `wal_dir` is used by `posts_wal` only.
    pub fn build(
        workload: Workload,
        registry: Option<&Arc<Registry>>,
        wal_dir: &Path,
    ) -> Result<Sut, String> {
        let shards = shard_config(workload, registry);
        Ok(match workload {
            Workload::PostsWal => Sut::Pipeline(Box::new(
                ShardedStoryPipeline::with_persistence(
                    ChiSquareCorrelation::default(),
                    MEAN_LIFE_S,
                    AvgWeight,
                    workload.engine_config(),
                    shards,
                    PersistenceConfig::new(wal_dir),
                )
                .map_err(|e| format!("opening the persistent pipeline: {e}"))?,
            )),
            _ => Sut::Fleet(Box::new(ShardedDynDens::new(
                AvgWeight,
                workload.engine_config(),
                shards,
            ))),
        })
    }

    /// Sends `input[range]` through the shipped ingest call — one
    /// `apply_batch`, or one `ingest` per post — and returns the edge
    /// updates routed.
    pub fn send(&mut self, input: &Input, range: std::ops::Range<usize>) -> u64 {
        match (self, input) {
            (Sut::Fleet(fleet), Input::Updates(updates)) => {
                let n = range.len() as u64;
                fleet.apply_batch(&updates[range]);
                n
            }
            (Sut::Pipeline(pipeline), Input::Posts(corpus)) => {
                let names = corpus.registry.names();
                let mut routed = 0;
                let mut mentioned: Vec<&str> = Vec::new();
                for post in &corpus.posts[range] {
                    mentioned.clear();
                    mentioned.extend(post.entities.iter().map(|v| names[v.index()].as_str()));
                    routed += pipeline.ingest(post.timestamp, &mentioned) as u64;
                }
                routed
            }
            _ => unreachable!("a workload's input shape matches its system"),
        }
    }

    pub fn flush(&self) {
        match self {
            Sut::Fleet(fleet) => fleet.flush(),
            Sut::Pipeline(pipeline) => pipeline.flush(),
        }
    }

    pub fn view(&self) -> StoryView {
        match self {
            Sut::Fleet(fleet) => fleet.view(),
            Sut::Pipeline(pipeline) => pipeline.view(),
        }
    }

    /// The authoritative answer (flushes first).
    pub fn output_dense(&self) -> Vec<(VertexSet, f64)> {
        match self {
            Sut::Fleet(fleet) => fleet.output_dense(),
            Sut::Pipeline(pipeline) => pipeline.engine().output_dense(),
        }
    }

    /// The entity names the pipeline has interned, in vertex-id order; empty
    /// for a bare fleet.
    pub fn entity_names(&self) -> Vec<String> {
        match self {
            Sut::Fleet(_) => Vec::new(),
            Sut::Pipeline(pipeline) => pipeline.entity_names(),
        }
    }

    /// Updates recovery replayed from the WAL, over all shards; 0 for an
    /// in-memory fleet.
    pub fn replayed_updates(&self) -> u64 {
        match self {
            Sut::Fleet(_) => 0,
            Sut::Pipeline(pipeline) => pipeline
                .engine()
                .recovery_reports()
                .iter()
                .map(|report| report.replayed_updates)
                .sum(),
        }
    }
}

/// What the generator and the subscriber share: how far the mirror has got,
/// and how far the generator is waiting for it to get.
#[derive(Debug)]
pub struct Progress {
    /// Sum of the mirror's per-shard cursor after its latest applied push.
    visible: AtomicU64,
    /// The cursor sum the generator is waiting for (`u64::MAX`: none).
    target: AtomicU64,
}

impl Progress {
    /// The mirror's cursor sum after its latest applied push.
    pub fn visible(&self) -> u64 {
        self.visible.load(Ordering::SeqCst)
    }
}

/// What the subscriber thread hands back when the server hangs up.
pub struct SubscriberReport {
    /// `(time, shard, to_seq)` for every entry of every push, logged right
    /// after `Mirror::apply`.
    pub log: Vec<LogEntry>,
    pub mirror: Mirror,
    /// Per shard, the sequence number of the latest resync snapshot the
    /// mirror was rebased on (0: it followed deltas all the way).
    pub resynced_at: Vec<u64>,
    /// The first [`CAPTURED_PUSHES`] pushes (traced runs only).
    pub captured: Vec<PushBatch>,
    pub spans: Vec<Span>,
    /// A protocol error that ended the subscription early.
    pub error: Option<String>,
}

fn subscriber_loop(
    mut sub: Subscription,
    progress: Arc<Progress>,
    reached: Sender<()>,
    mut tracer: Tracer,
) -> SubscriberReport {
    let mut report = SubscriberReport {
        log: Vec::with_capacity(1 << 16),
        mirror: Mirror::new(),
        resynced_at: Vec::new(),
        captured: Vec::new(),
        spans: Vec::new(),
        error: None,
    };
    let root = tracer.open("subscriber", 0);
    let mut notified = u64::MAX;
    // Anything but a push means the server hung up (the run is over) or
    // severed us.
    while let Ok(Some(batch)) = tracer.span("recv_wait", root, || sub.recv()) {
        if let Err(e) = tracer.span("mirror_apply", root, || report.mirror.apply(&batch)) {
            report.error = Some(format!("Mirror::apply: {e}"));
            break;
        }
        let at_ns = tracer.now_ns();
        for entry in &batch.entries {
            let to_seq = match entry {
                ShardPoll::Deltas { to_seq, .. } => *to_seq,
                ShardPoll::Resync { seq, .. } => {
                    let shard = entry.shard() as usize;
                    if report.resynced_at.len() <= shard {
                        report.resynced_at.resize(shard + 1, 0);
                    }
                    report.resynced_at[shard] = *seq;
                    *seq
                }
            };
            report.log.push(LogEntry {
                at_ns,
                shard: entry.shard(),
                to_seq,
            });
        }
        if tracer.enabled() && report.captured.len() < CAPTURED_PUSHES {
            report.captured.push(batch);
        }
        // SeqCst on both sides: either the generator's check sees this
        // store, or this load sees the generator's target — never neither.
        let visible: u64 = report.mirror.cursor().iter().sum();
        progress.visible.store(visible, Ordering::SeqCst);
        let target = progress.target.load(Ordering::SeqCst);
        if visible >= target && notified != target {
            notified = target;
            let _ = reached.send(());
        }
    }
    tracer.close(root);
    report.spans = tracer.into_spans();
    report
}

/// What the reader thread hands back.
pub struct ReaderReport {
    /// Round-trip time of every request, ns.
    pub rtts_ns: Vec<u64>,
    pub requests: u64,
    pub errors: u64,
    /// The reader's poll-fed mirror, caught up after the writes ended.
    pub mirror: Mirror,
    pub spans: Vec<Span>,
}

/// Sends [`READER_RATE`] requests per second on one connection, alternating
/// `top_k(16)` and a cursor poll, until told to stop; then polls until the
/// mirror is current. Request `k` is due at `start + k / rate`; a reader
/// that has fallen behind sends back to back until it has caught up.
fn reader_loop(
    mut client: Client,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    mut tracer: Tracer,
) -> ReaderReport {
    let mut clock = WallClock::new(epoch);
    let mut report = ReaderReport {
        rtts_ns: Vec::with_capacity(1 << 16),
        requests: 0,
        errors: 0,
        mirror: Mirror::new(),
        spans: Vec::new(),
    };
    let root = tracer.open("reader", 0);
    let start_ns = clock.now_ns();
    let period_ns = 1_000_000_000 / READER_RATE;
    for k in 0u64.. {
        clock.sleep_until_ns(start_ns + k * period_ns);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent = Instant::now();
        let ok = tracer.span("read_rtt", root, || {
            if k % 2 == 0 {
                client.top_k(16).is_ok()
            } else {
                report.mirror.poll(&mut client).is_ok()
            }
        });
        report.rtts_ns.push(sent.elapsed().as_nanos() as u64);
        report.requests += 1;
        report.errors += u64::from(!ok);
    }
    // The writes are over and flushed: poll until nothing advances.
    loop {
        report.requests += 1;
        match report.mirror.poll(&mut client) {
            Ok(true) => {}
            Ok(false) => break,
            Err(_) => {
                report.errors += 1;
                break;
            }
        }
    }
    tracer.close(root);
    report.spans = tracer.into_spans();
    report
}

/// The whole stack of one run: ingest side, server, subscriber, and the
/// optional reader.
pub struct System {
    pub sut: Sut,
    pub server: StoryServer,
    pub progress: Arc<Progress>,
    reached: Receiver<()>,
    subscriber: JoinHandle<SubscriberReport>,
    reader: Option<(Arc<AtomicBool>, JoinHandle<ReaderReport>)>,
}

/// What is left of a [`System`] once its server is gone and its threads
/// have ended.
pub struct Teardown {
    pub sut: Sut,
    pub subscriber: SubscriberReport,
}

impl System {
    /// Builds the ingest side, binds the server on an ephemeral loopback
    /// port with one event loop, and connects the push subscriber at the
    /// bootstrap cursor — before the first update, so the mirror follows
    /// deltas from sequence 0 and never needs a resync to start.
    pub fn start(
        workload: Workload,
        registry: Option<&Arc<Registry>>,
        wal_dir: &Path,
        epoch: Instant,
    ) -> Result<System, String> {
        let sut = Sut::build(workload, registry, wal_dir)?;
        let mut builder = StoryServer::builder(sut.view()).workers(1);
        if let Some(registry) = registry {
            builder = builder.obs(ObsHandle::new(Arc::clone(registry)));
        }
        let server = builder
            .bind("127.0.0.1:0")
            .map_err(|e| format!("binding the server: {e}"))?;
        let sub = Client::builder()
            .connect(server.local_addr())
            .map_err(|e| format!("connecting the subscriber: {e}"))?
            .subscribe(&[])
            .map_err(|e| format!("subscribing: {e}"))?;
        let progress = Arc::new(Progress {
            visible: AtomicU64::new(0),
            target: AtomicU64::new(u64::MAX),
        });
        let (reached_tx, reached) = channel();
        let traced = registry.is_some();
        let subscriber = {
            let progress = Arc::clone(&progress);
            let tracer = Tracer::new(traced, epoch, 2);
            std::thread::Builder::new()
                .name("bench-subscriber".into())
                .spawn(move || subscriber_loop(sub, progress, reached_tx, tracer))
                .map_err(|e| format!("spawning the subscriber: {e}"))?
        };
        Ok(System {
            sut,
            server,
            progress,
            reached,
            subscriber,
            reader: None,
        })
    }

    /// Starts the reader thread (`flash_readers`).
    pub fn start_reader(&mut self, epoch: Instant, traced: bool) -> Result<(), String> {
        let client = Client::builder()
            .connect(self.server.local_addr())
            .map_err(|e| format!("connecting the reader: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            let tracer = Tracer::new(traced, epoch, 3);
            std::thread::Builder::new()
                .name("bench-reader".into())
                .spawn(move || reader_loop(client, stop, epoch, tracer))
                .map_err(|e| format!("spawning the reader: {e}"))?
        };
        self.reader = Some((stop, handle));
        Ok(())
    }

    /// Blocks until the subscriber's mirror has reached cursor sum `target`.
    pub fn wait_visible(&self, target: u64) -> Result<(), String> {
        self.progress.target.store(target, Ordering::SeqCst);
        while self.progress.visible() < target {
            match self.reached.recv_timeout(VISIBLE_TIMEOUT) {
                Ok(()) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "the mirror stalled at {} of {target} updates for {VISIBLE_TIMEOUT:?}",
                        self.progress.visible()
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!(
                        "the subscriber ended at {} of {target} updates",
                        self.progress.visible()
                    ))
                }
            }
        }
        Ok(())
    }

    /// Tells the reader the writes are over (they must be flushed) and waits
    /// for it; `None` if none was started.
    pub fn stop_reader(&mut self) -> Result<Option<ReaderReport>, String> {
        match self.reader.take() {
            Some((stop, handle)) => {
                stop.store(true, Ordering::Relaxed);
                Ok(Some(
                    handle.join().map_err(|_| "the reader thread panicked")?,
                ))
            }
            None => Ok(None),
        }
    }

    /// Stops the reader if it still runs, hangs up the server (which ends
    /// the subscriber) and waits for every thread.
    pub fn teardown(mut self) -> Result<Teardown, String> {
        self.stop_reader()?;
        drop(self.server);
        let subscriber = self
            .subscriber
            .join()
            .map_err(|_| "the subscriber thread panicked")?;
        Ok(Teardown {
            sut: self.sut,
            subscriber,
        })
    }
}
