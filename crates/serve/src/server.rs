//! The story server: a std-only TCP front-end over a [`StoryView`].
//!
//! ## Shape
//!
//! One blocking accept thread admits connections (enforcing
//! `max_connections`) and deals them round-robin to `workers` event-loop
//! threads through per-loop inboxes. Each loop owns its connections outright
//! — no cross-loop locking on the serving path — and runs a classic
//! readiness loop over a `poll`/`epoll` poller: non-blocking reads feed an
//! incremental frame buffer, each complete frame is decoded once and
//! answered, and responses go out through a bounded per-connection write
//! queue drained on writability. The loops need a readiness poller, so the
//! server is unix-only; the client side of the crate is portable.
//!
//! All request handling is read-only over the shards' published epochs, so a
//! server never blocks ingest for more than an epoch-pointer clone.
//!
//! ## Push fan-out
//!
//! Each loop attaches its own [`PublishWaker`] to the fleet once, through
//! [`StoryView::watch`]: every shard publication and every split/merge
//! roster swap, on every shard the fleet has or will have, writes one byte
//! into each loop's waker pipe. A woken loop runs a fan-out pass: for every
//! subscribed connection it builds the `Push` frame covering the
//! subscriber's cursor from the shards' delta rings — deltas when retention
//! covers the cursor, resync snapshots when not — advances the cursor, and
//! enqueues the frame. Subscribers at the same cursor share one encoded
//! frame (`Arc`'d into each write queue), so a ten-thousand-subscriber
//! fan-out encodes each micro-batch once per loop, not once per subscriber.
//!
//! ## Slow readers
//!
//! A connection whose queued-but-unsent bytes would exceed
//! `write_queue_bytes` is evicted: queued frames are dropped (the partially
//! written head frame is kept so framing stays intact), a final typed
//! [`ErrorCode::SlowConsumer`] error is enqueued, and the connection closes
//! once it drains. One laggard can therefore delay nobody and pin at most
//! one write queue of memory.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dyndens_obs::{names, Counter, Gauge, Histogram, ObsHandle};
use dyndens_shard::{DeltaCatchUp, PublishWaker, StoryView};

use crate::net::FrameBuffer;
use crate::poller::{Event, Interest, Poller};
use crate::protocol::{
    frame_message, DecodeFailure, ErrorCode, Request, Response, ServeStats, ShardPoll, ShardStat,
    WireStory,
};

/// A shared, swappable vertex → entity-name table.
///
/// The ingest process owns the entity registry and its growth; a serving
/// thread only ever needs a recent snapshot of it. `publish` swaps in a new
/// snapshot (cheap: one `Arc` store), `load` grabs the current one. A server
/// with an empty table serves unnamed, vertex-level stories.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Arc<Mutex<Arc<Vec<String>>>>,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Swaps in a new snapshot of names, indexed by vertex id.
    pub fn publish(&self, names: Vec<String>) {
        *self.names.lock().expect("name table poisoned") = Arc::new(names);
    }

    /// The current snapshot.
    pub fn load(&self) -> Arc<Vec<String>> {
        self.names.lock().expect("name table poisoned").clone()
    }
}

/// The request kinds the per-type serving metrics are labelled with, in the
/// index order of [`EventLoop::handle_frame`]'s dispatch. `error` is the
/// pseudo-kind for frames whose payload failed to decode into any request.
const REQUEST_KINDS: &[&str] = &[
    "top_k",
    "poll",
    "stats",
    "metrics",
    "subscribe",
    "unsubscribe",
    "error",
];

/// State shared between the accept thread, the event loops and the facade.
#[derive(Debug)]
struct Shared {
    view: StoryView,
    names: NameTable,
    shutdown: AtomicBool,
    /// Live connections; the accept guard that enforces `max_connections`.
    live_conns: AtomicUsize,
    /// Hard accept bound: a connection beyond it is counted rejected and
    /// closed without a handshake.
    max_connections: usize,
    /// Per-connection write-queue bound, bytes; a connection whose
    /// queued-but-unsent bytes would exceed it is evicted as a slow reader.
    write_queue_bytes: usize,
    /// Currently registered push subscribers.
    subscribers: AtomicU64,
    /// The [`ServeStats`] cells. `Arc`'d so an enabled registry reads the
    /// very same cells through its adopted counter series — the serving hot
    /// path never double-counts.
    requests_served: Arc<AtomicU64>,
    conns_accepted: Arc<AtomicU64>,
    conns_severed: Arc<AtomicU64>,
    resyncs_served: Arc<AtomicU64>,
    error_replies: Arc<AtomicU64>,
    conns_rejected: Arc<AtomicU64>,
    pushes_sent: Arc<AtomicU64>,
    slow_evictions: Arc<AtomicU64>,
    obs: ObsHandle,
    /// Pre-registered per-request-type `(requests, latency)` handles,
    /// indexed like [`REQUEST_KINDS`]; present iff `obs` is enabled.
    req_obs: Option<Vec<(Counter, Histogram)>>,
}

impl Shared {
    fn serve_stats(&self) -> ServeStats {
        ServeStats {
            requests_served: self.requests_served.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_severed: self.conns_severed.load(Ordering::Relaxed),
            resyncs_served: self.resyncs_served.load(Ordering::Relaxed),
            error_replies: self.error_replies.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            pushes_sent: self.pushes_sent.load(Ordering::Relaxed),
            slow_evictions: self.slow_evictions.load(Ordering::Relaxed),
        }
    }

    /// Applies the accept-time admission policy: under the bound, the
    /// connection is counted live and accepted; at the bound it is counted
    /// rejected and the caller must drop it.
    fn admit(&self) -> bool {
        if self.live_conns.load(Ordering::Relaxed) >= self.max_connections {
            self.conns_rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.live_conns.fetch_add(1, Ordering::Relaxed);
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Answers `TopK`: the merged current stories, named when the table has
    /// names.
    fn top_k(&self, k: u32) -> Response {
        let merged = self.view.snapshot();
        let names = self.names.load();
        let stories = merged
            .stories
            .into_iter()
            .take(k as usize)
            .map(|(vertices, density)| {
                let entities = if names.is_empty() {
                    Vec::new()
                } else {
                    vertices
                        .iter()
                        .map(|v| {
                            names
                                .get(v.index())
                                .cloned()
                                .unwrap_or_else(|| format!("entity#{v}"))
                        })
                        .collect()
                };
                WireStory {
                    vertices,
                    density,
                    entities,
                }
            })
            .collect();
        Response::Stories {
            per_shard_seq: merged.per_shard_seq,
            stories,
        }
    }

    /// Answers `Poll` from the reader's cursor.
    fn poll(&self, since: Vec<u64>) -> Response {
        let n_shards = self.view.n_shards();
        // A cursor whose length disagrees with the current topology is a
        // reader from before a shard split (or from another deployment):
        // treat it as the bootstrap cursor. The reply's `n_shards` tells the
        // client the new topology and its per-shard entries rebase every
        // slot — the clean-resync path pollers take after a split, with no
        // error round-trip.
        let mut cursor = if since.len() == n_shards {
            since
        } else {
            vec![0; n_shards]
        };
        let entries = self.poll_entries(&mut cursor);
        Response::Poll {
            n_shards: n_shards as u32,
            entries,
        }
    }

    /// Answers `Stats`: the merged work ledger, the serving counters and
    /// per-shard serving health.
    fn stats(&self) -> Response {
        let view = &self.view;
        let shards = (0..view.n_shards())
            .map(|shard| {
                let snapshot = view.shard_snapshot(shard);
                ShardStat {
                    shard: shard as u32,
                    seq: snapshot.seq,
                    output_dense: snapshot.output_dense as u64,
                    delta_coverage_from: view.delta_coverage_from(shard),
                }
            })
            .collect();
        Response::Stats {
            stats: view.stats(),
            serve: self.serve_stats(),
            shards,
        }
    }

    /// Answers `Metrics`: a snapshot of the attached registry (empty when
    /// the server is not instrumented).
    fn metrics(&self) -> Response {
        Response::Metrics {
            registry: self
                .obs
                .registry()
                .map(|registry| registry.snapshot())
                .unwrap_or_default(),
        }
    }

    /// Builds the poll entries for every shard past `cursor` (shared by the
    /// `Poll` handler and the push fan-out): deltas when retention covers
    /// the cursor, a resync snapshot when it does not. Advances
    /// `cursor[shard]` to the sequence each entry catches the reader up to
    /// and maintains the resync counter.
    fn poll_entries(&self, cursor: &mut [u64]) -> Vec<ShardPoll> {
        let view = &self.view;
        let mut entries = Vec::new();
        for (shard, slot) in cursor.iter_mut().enumerate() {
            let since_seq = *slot;
            // The cheap path: one atomic load decides whether the shard has
            // anything at all for this reader.
            if view.shard_seq(shard) <= since_seq {
                continue;
            }
            match view.deltas_since(shard, since_seq) {
                DeltaCatchUp::Current => {}
                DeltaCatchUp::Events { to_seq, events } => {
                    entries.push(ShardPoll::Deltas {
                        shard: shard as u32,
                        from_seq: since_seq,
                        to_seq,
                        events,
                    });
                    *slot = to_seq;
                }
                DeltaCatchUp::Resync => {
                    self.resyncs_served.fetch_add(1, Ordering::Relaxed);
                    let snapshot = view.shard_snapshot(shard);
                    entries.push(ShardPoll::Resync {
                        shard: shard as u32,
                        seq: snapshot.seq,
                        stories: snapshot.top_stories.clone(),
                    });
                    *slot = snapshot.seq;
                }
            }
        }
        entries
    }
}

fn error_response(failure: &DecodeFailure) -> Response {
    let code = match failure {
        DecodeFailure::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        DecodeFailure::UnknownTag(_) => ErrorCode::UnknownTag,
        DecodeFailure::Malformed(_) => ErrorCode::Malformed,
    };
    Response::Error {
        code,
        message: failure.to_string(),
    }
}

/// Configures and binds a [`StoryServer`]: worker count, connection bound,
/// write-queue bound and instrumentation in one place.
///
/// ```no_run
/// # use dyndens_serve::StoryServer;
/// # fn view() -> dyndens_shard::StoryView { unimplemented!() }
/// let server = StoryServer::builder(view())
///     .workers(2)
///     .max_connections(10_000)
///     .write_queue_bytes(1 << 20)
///     .bind("127.0.0.1:0")
///     .unwrap();
/// # drop(server);
/// ```
#[derive(Debug)]
pub struct ServerBuilder {
    view: StoryView,
    obs: ObsHandle,
    workers: usize,
    max_connections: usize,
    write_queue_bytes: usize,
}

impl ServerBuilder {
    fn new(view: StoryView) -> ServerBuilder {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerBuilder {
            view,
            obs: ObsHandle::none(),
            workers: cores.min(4),
            max_connections: 65_536,
            write_queue_bytes: 1 << 20,
        }
    }

    /// Instruments the server: its connection/request/push counters become
    /// registry series (adopting the very cells `Stats` replies read, so the
    /// two surfaces can never disagree), request types get latency
    /// histograms, and the loops count wakeups, subscribers and fan-out
    /// latency. The registry is also what a [`Request::Metrics`] against this
    /// server snapshots.
    pub fn obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Event-loop worker threads (clamped to at least 1). Defaults to the
    /// machine's available parallelism, capped at 4 — fan-out is
    /// I/O-bound, not compute-bound.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Hard accept bound on simultaneous connections; beyond it, new
    /// connections are counted rejected and closed immediately. Defaults to
    /// 65 536.
    pub fn max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Per-connection write-queue bound in bytes. A connection whose unsent
    /// backlog would exceed it is evicted as a slow reader: queued frames
    /// are dropped, a final typed [`ErrorCode::SlowConsumer`] error is sent,
    /// and the connection is closed. Defaults to 1 MiB.
    pub fn write_queue_bytes(mut self, bytes: usize) -> Self {
        self.write_queue_bytes = bytes.max(1024);
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    /// The server's [`names`](StoryServer::names) table starts empty;
    /// publish the ingest side's entity names into it to serve named
    /// stories.
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<StoryServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let requests_served = Arc::new(AtomicU64::new(0));
        let conns_accepted = Arc::new(AtomicU64::new(0));
        let conns_severed = Arc::new(AtomicU64::new(0));
        let resyncs_served = Arc::new(AtomicU64::new(0));
        let error_replies = Arc::new(AtomicU64::new(0));
        let conns_rejected = Arc::new(AtomicU64::new(0));
        let pushes_sent = Arc::new(AtomicU64::new(0));
        let slow_evictions = Arc::new(AtomicU64::new(0));
        let req_obs = self.obs.registry().map(|registry| {
            for (name, cell) in [
                (names::SERVE_CONNS_ACCEPTED_TOTAL, &conns_accepted),
                (names::SERVE_CONNS_SEVERED_TOTAL, &conns_severed),
                (names::SERVE_RESYNCS_TOTAL, &resyncs_served),
                (names::SERVE_ERROR_REPLIES_TOTAL, &error_replies),
                (names::SERVE_CONNS_REJECTED_TOTAL, &conns_rejected),
                (names::SERVE_PUSHES_TOTAL, &pushes_sent),
                (names::SERVE_SLOW_EVICTIONS_TOTAL, &slow_evictions),
            ] {
                registry.adopt_counter(name, &[], Arc::clone(cell));
            }
            REQUEST_KINDS
                .iter()
                .map(|kind| {
                    let labels: &[(&str, &str)] = &[("type", kind)];
                    (
                        registry.counter(names::SERVE_REQUESTS_TOTAL, labels),
                        registry.histogram(names::SERVE_REQUEST_LATENCY_US, labels),
                    )
                })
                .collect()
        });
        let shared = Arc::new(Shared {
            view: self.view,
            names: NameTable::new(),
            shutdown: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            max_connections: self.max_connections,
            write_queue_bytes: self.write_queue_bytes,
            subscribers: AtomicU64::new(0),
            requests_served,
            conns_accepted,
            conns_severed,
            resyncs_served,
            error_replies,
            conns_rejected,
            pushes_sent,
            slow_evictions,
            obs: self.obs,
            req_obs,
        });

        // Threads join into `server` as they start, so a failure part-way
        // through drops it and its `Drop` stops and joins them.
        let mut server = StoryServer {
            local_addr,
            shared: Arc::clone(&shared),
            accept: None,
            loops: Vec::with_capacity(self.workers),
        };
        let mut dispatch = Vec::with_capacity(self.workers);
        for idx in 0..self.workers {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            let waker = Arc::new(LoopWaker { tx });
            let publish_waker: Arc<dyn PublishWaker> = waker.clone();
            shared.view.watch(&publish_waker);
            let inbox: Inbox = Arc::default();
            dispatch.push((Arc::clone(&inbox), Arc::clone(&waker)));
            let mut event_loop = EventLoop::new(rx, inbox, Arc::clone(&shared))?;
            let thread = std::thread::Builder::new()
                .name(format!("dyndens-serve-loop-{idx}"))
                .spawn(move || event_loop.run())?;
            server.loops.push((waker, thread));
        }
        let accept = std::thread::Builder::new()
            .name("dyndens-serve-accept".into())
            .spawn(move || accept_loop(listener, shared, dispatch))?;
        server.accept = Some(accept);
        Ok(server)
    }
}

/// A running story server. Dropping it stops the accept loop, severs open
/// connections and joins every serving thread before returning.
#[derive(Debug)]
pub struct StoryServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    /// Each event loop's waker and thread. The wakers' strong counts live
    /// here: the fleet holds them weakly, so dropping the server detaches
    /// the fan-out hook.
    loops: Vec<(Arc<LoopWaker>, JoinHandle<()>)>,
}

impl StoryServer {
    /// Starts configuring a server over `view`; see [`ServerBuilder`].
    pub fn builder(view: StoryView) -> ServerBuilder {
        ServerBuilder::new(view)
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's entity-name table. Publish the ingest side's names into
    /// it (periodically, or whenever new entities are interned) to serve
    /// named stories.
    pub fn names(&self) -> NameTable {
        self.shared.names.clone()
    }

    /// Number of requests answered since the server started (all request
    /// types, including error replies; pushes are not requests).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::Relaxed)
    }

    /// The serving-layer counters, as a [`Request::Stats`] reply would
    /// carry them.
    pub fn serve_stats(&self) -> ServeStats {
        self.shared.serve_stats()
    }

    /// Currently registered push subscribers.
    pub fn subscribers(&self) -> u64 {
        self.shared.subscribers.load(Ordering::Relaxed)
    }

    /// Live connections right now (accepted minus closed).
    pub fn live_connections(&self) -> usize {
        self.shared.live_conns.load(Ordering::Relaxed)
    }
}

impl Drop for StoryServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for (waker, _) in &self.loops {
            waker.wake();
        }
        for (_, thread) in self.loops.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Wakes one loop thread by writing a byte into its waker pipe: on every
/// fleet publication, on every admitted connection, and at shutdown.
/// Non-blocking on the write side: a full pipe already means a wakeup is
/// pending, which is all a level-triggered edge signal needs.
#[derive(Debug)]
struct LoopWaker {
    tx: UnixStream,
}

impl PublishWaker for LoopWaker {
    fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// A loop's queue of admitted connections, filled by the accept thread.
type Inbox = Arc<Mutex<Vec<TcpStream>>>;

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, dispatch: Vec<(Inbox, Arc<LoopWaker>)>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if !shared.admit() {
            // At the connection bound: close without touching a loop.
            continue;
        }
        let _ = stream.set_nodelay(true);
        let (inbox, waker) = &dispatch[next % dispatch.len()];
        next = next.wrapping_add(1);
        inbox.lock().expect("loop inbox poisoned").push(stream);
        waker.wake();
    }
}

/// The loop's pre-registered metric handles (present iff obs is enabled).
#[derive(Debug)]
struct LoopObs {
    wakeups: Counter,
    fanout_us: Histogram,
    subscribers: Gauge,
}

/// One connection's state machine: incremental read buffer, bounded write
/// queue, optional subscription cursor.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    /// Completed frames awaiting the socket, `Arc`'d so one fan-out frame is
    /// shared across every subscriber's queue.
    wq: VecDeque<Arc<Vec<u8>>>,
    /// Bytes across all queued frames (including the partially sent head).
    wq_bytes: usize,
    /// Bytes of the head frame already written.
    woff: usize,
    /// The subscription cursor, present while the connection is subscribed.
    cursor: Option<Vec<u64>>,
    /// Set once the connection is condemned (slow-reader eviction): the
    /// queue drains, then the socket closes.
    closing: bool,
    /// Whether the poller currently watches writability for this conn.
    writable_interest: bool,
}

/// A memoised fan-out computation: subscribers sharing a cursor share the
/// encoded frame and the advanced cursor. `frame` is `None` when the cursor
/// is already current.
struct CachedPush {
    frame: Option<Arc<Vec<u8>>>,
    new_cursor: Vec<u64>,
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    waker_rx: UnixStream,
    inbox: Inbox,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    obs: Option<LoopObs>,
}

/// Token 0 is the waker pipe; connection slots are offset by 1.
const TOKEN_WAKER: usize = 0;

impl EventLoop {
    fn new(waker_rx: UnixStream, inbox: Inbox, shared: Arc<Shared>) -> io::Result<EventLoop> {
        let obs = shared.obs.registry().map(|registry| LoopObs {
            wakeups: registry.counter(names::SERVE_WAKEUPS_TOTAL, &[]),
            fanout_us: registry.histogram(names::SERVE_FANOUT_LATENCY_US, &[]),
            subscribers: registry.gauge(names::SERVE_SUBSCRIBERS, &[]),
        });
        Ok(EventLoop {
            shared,
            poller: Poller::new()?,
            waker_rx,
            inbox,
            conns: Vec::new(),
            free: Vec::new(),
            obs,
        })
    }

    fn run(&mut self) {
        if self
            .poller
            .register(self.waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            let mut woken = false;
            for event in &events {
                if event.token == TOKEN_WAKER {
                    woken = true;
                    continue;
                }
                let slot = event.token - 1;
                if event.readable {
                    self.handle_readable(slot);
                }
                if event.writable {
                    self.flush(slot);
                }
            }
            if woken {
                self.drain_waker();
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if woken {
                self.adopt_new_conns();
                self.fan_out();
            }
        }
        // Shutdown: close every connection this loop owns, releasing the
        // live-connection count (none of these closes are severs).
        for slot in 0..self.conns.len() {
            self.close(slot, false);
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn adopt_new_conns(&mut self) {
        let admitted = std::mem::take(&mut *self.inbox.lock().expect("loop inbox poisoned"));
        for stream in admitted {
            if stream.set_nonblocking(true).is_err() {
                self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if self
                .poller
                .register(stream.as_raw_fd(), slot + 1, Interest::READ)
                .is_err()
            {
                self.free.push(slot);
                self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            self.conns[slot] = Some(Conn {
                stream,
                rbuf: FrameBuffer::new(),
                wq: VecDeque::new(),
                wq_bytes: 0,
                woff: 0,
                cursor: None,
                closing: false,
                writable_interest: false,
            });
        }
    }

    /// Reads until `WouldBlock` (level-triggered, so stopping early would
    /// only defer to the next wakeup; draining now saves the syscalls),
    /// handling every complete frame as it surfaces.
    fn handle_readable(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            match conn.rbuf.fill_from(&mut conn.stream) {
                Ok(0) => {
                    // EOF: clean if no frame was torn mid-stream. A condemned
                    // conn hanging up early is already accounted for.
                    let torn = conn.rbuf.has_partial() && !conn.closing;
                    self.close(slot, torn);
                    return;
                }
                Ok(_) => {
                    if self.process_frames(slot).is_err() {
                        self.close(slot, true);
                        return;
                    }
                    if self.conns.get(slot).is_none_or(Option::is_none) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, true);
                    return;
                }
            }
        }
    }

    /// Answers every complete frame buffered on `slot`. An `Err` means the
    /// stream desynchronised (framing/CRC) and must be severed.
    fn process_frames(&mut self, slot: usize) -> Result<(), ()> {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return Ok(());
            };
            let payload = match conn.rbuf.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => return Ok(()),
                Err(_) => return Err(()),
            };
            if conn.closing {
                // A condemned connection's requests no longer matter; keep
                // consuming frames (bounding the read buffer) while the
                // severance drains, but answer nothing.
                continue;
            }
            self.handle_frame(slot, &payload);
        }
    }

    /// Answers one frame: decodes it once and dispatches on the request.
    /// Subscription traffic changes this connection's state; everything else
    /// reads the view. The request counters and per-type metrics of every
    /// kind, undecodable payloads included, are recorded here.
    fn handle_frame(&mut self, slot: usize, payload: &[u8]) {
        let started = self.shared.req_obs.is_some().then(Instant::now);
        // `kind` indexes REQUEST_KINDS.
        let (kind, response) = match Request::decode(payload) {
            Ok(Request::TopK { k }) => (0, self.shared.top_k(k)),
            Ok(Request::Poll { since }) => (1, self.shared.poll(since)),
            Ok(Request::Stats) => (2, self.shared.stats()),
            Ok(Request::Metrics) => (3, self.shared.metrics()),
            Ok(Request::Subscribe { since }) => (4, self.subscribe(slot, since)),
            Ok(Request::Unsubscribe) => (5, self.unsubscribe(slot)),
            // An intact frame with an undecodable payload: the stream is
            // still synchronised, so report the problem and keep serving.
            Err(failure) => (6, error_response(&failure)),
        };
        let shared = &self.shared;
        if matches!(response, Response::Error { .. }) {
            shared.error_replies.fetch_add(1, Ordering::Relaxed);
        }
        shared.requests_served.fetch_add(1, Ordering::Relaxed);
        if let (Some(req_obs), Some(started)) = (shared.req_obs.as_ref(), started) {
            let (requests, latency) = &req_obs[kind];
            requests.inc();
            latency.record_micros(started.elapsed());
        }
        let subscribed = matches!(response, Response::Subscribed { .. });
        self.enqueue(
            slot,
            Arc::new(frame_message(|buf| response.encode_into(buf))),
        );
        if subscribed {
            // Catch the subscriber up immediately: everything its cursor is
            // already behind on goes out as the first push.
            self.push_to(slot, &mut HashMap::new());
        }
    }

    /// Registers (or re-bases) `slot`'s subscription cursor.
    fn subscribe(&mut self, slot: usize, since: Vec<u64>) -> Response {
        let n_shards = self.shared.view.n_shards();
        let cursor = if since.len() == n_shards {
            since
        } else {
            // Stale or bootstrap cursor: rebase every shard from 0; the
            // catch-up push resyncs whatever retention no longer covers —
            // the same contract as `Poll`.
            vec![0; n_shards]
        };
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if conn.cursor.replace(cursor).is_none() {
                self.shared.subscribers.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.publish_subscriber_gauge();
        Response::Subscribed {
            n_shards: n_shards as u32,
        }
    }

    /// Drops `slot`'s subscription cursor. With the cursor gone no further
    /// push can be enqueued, so the acknowledgement is the last subscription
    /// frame on the wire, as the protocol promises.
    fn unsubscribe(&mut self, slot: usize) -> Response {
        let conn = self.conns.get_mut(slot).and_then(Option::as_mut);
        if conn.is_some_and(|conn| conn.cursor.take().is_some()) {
            self.shared.subscribers.fetch_sub(1, Ordering::Relaxed);
        }
        self.publish_subscriber_gauge();
        Response::Unsubscribed
    }

    fn publish_subscriber_gauge(&self) {
        if let Some(obs) = &self.obs {
            obs.subscribers
                .set(self.shared.subscribers.load(Ordering::Relaxed));
        }
    }

    /// One fan-out pass: push to every subscribed connection whose cursor a
    /// shard has published past. Runs after every wakeup; a pass that finds
    /// nothing new costs one atomic load per shard per subscriber.
    fn fan_out(&mut self) {
        let started = self.obs.is_some().then(Instant::now);
        let mut cache: HashMap<Vec<u64>, CachedPush> = HashMap::new();
        let mut any = false;
        for slot in 0..self.conns.len() {
            let subscribed = self
                .conns
                .get(slot)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.cursor.is_some() && !c.closing);
            if subscribed {
                any = true;
                self.push_to(slot, &mut cache);
            }
        }
        if let Some(obs) = &self.obs {
            obs.wakeups.inc();
            if any {
                if let Some(started) = started {
                    obs.fanout_us.record_micros(started.elapsed());
                }
            }
        }
    }

    /// Builds (or reuses) the push frame covering `slot`'s cursor and
    /// enqueues it, advancing the cursor. No-op when nothing advanced.
    fn push_to(&mut self, slot: usize, cache: &mut HashMap<Vec<u64>, CachedPush>) {
        let shared = Arc::clone(&self.shared);
        let n_shards = shared.view.n_shards();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let Some(cursor) = conn.cursor.as_mut() else {
            return;
        };
        if cursor.len() != n_shards {
            // The topology changed under the subscription (split/merge):
            // rebase from zero. Retention won't cover seq 0 on a busy shard,
            // so the affected slots go out as resyncs — the directive the
            // client's mirror honours by rebuilding from the snapshot.
            *cursor = vec![0; n_shards];
        }
        let key = cursor.clone();
        let cached = cache.entry(key.clone()).or_insert_with(|| {
            let mut advanced = key;
            let entries = shared.poll_entries(&mut advanced);
            let frame = if entries.is_empty() {
                None
            } else {
                let resp = Response::Push {
                    n_shards: n_shards as u32,
                    entries,
                };
                Some(Arc::new(frame_message(|buf| resp.encode_into(buf))))
            };
            CachedPush {
                frame,
                new_cursor: advanced,
            }
        });
        let frame = cached.frame.clone();
        let new_cursor = cached.new_cursor.clone();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if let Some(cursor) = conn.cursor.as_mut() {
            *cursor = new_cursor;
        }
        if let Some(frame) = frame {
            shared.pushes_sent.fetch_add(1, Ordering::Relaxed);
            self.enqueue(slot, frame);
        }
    }

    /// Appends a frame to `slot`'s write queue, evicting the connection as a
    /// slow reader if the queue bound would be exceeded, then flushes as
    /// much as the socket accepts.
    fn enqueue(&mut self, slot: usize, frame: Arc<Vec<u8>>) {
        let bound = self.shared.write_queue_bytes;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing {
            return;
        }
        // A single frame larger than the bound is still deliverable on an
        // otherwise-empty queue; only a *backlog* marks a slow reader.
        if conn.wq_bytes > 0 && conn.wq_bytes + frame.len() > bound {
            self.evict_slow(slot);
            return;
        }
        conn.wq_bytes += frame.len();
        conn.wq.push_back(frame);
        self.flush(slot);
    }

    /// Condemns a slow reader: drops its queued frames (keeping the
    /// partially written head so framing stays intact), enqueues the typed
    /// severance, and lets the queue drain to close.
    fn evict_slow(&mut self, slot: usize) {
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let queued_bytes = conn.wq_bytes as u64;
        // Keep the head frame if mid-write — truncating it would desync the
        // client's framing right as we try to tell it why it's being cut.
        let head = if conn.woff > 0 {
            conn.wq.front().cloned()
        } else {
            None
        };
        conn.wq.clear();
        conn.wq_bytes = 0;
        if let Some(head) = head {
            conn.wq_bytes = head.len();
            conn.wq.push_back(head);
        }
        let severance = Response::Error {
            code: ErrorCode::SlowConsumer,
            message: format!(
                "write queue overflow: {queued_bytes} bytes queued against a \
                 {}-byte bound; subscriber evicted",
                shared.write_queue_bytes
            ),
        };
        let frame = Arc::new(frame_message(|buf| severance.encode_into(buf)));
        conn.wq_bytes += frame.len();
        conn.wq.push_back(frame);
        conn.closing = true;
        if conn.cursor.take().is_some() {
            shared.subscribers.fetch_sub(1, Ordering::Relaxed);
        }
        shared.slow_evictions.fetch_add(1, Ordering::Relaxed);
        shared.error_replies.fetch_add(1, Ordering::Relaxed);
        self.publish_subscriber_gauge();
        self.flush(slot);
    }

    /// Writes queued frames until the socket pushes back, then reconciles
    /// poller interest (writable iff a backlog remains) and closes condemned
    /// connections whose severance has fully drained.
    fn flush(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let Some(head) = conn.wq.front() else { break };
            let head = Arc::clone(head);
            match conn.stream.write(&head[conn.woff..]) {
                Ok(0) => {
                    self.close(slot, true);
                    return;
                }
                Ok(n) => {
                    conn.woff += n;
                    if conn.woff == head.len() {
                        conn.wq_bytes -= head.len();
                        conn.woff = 0;
                        conn.wq.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, true);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.wq.is_empty() && conn.closing {
            // The severance is on the wire; the eviction was already
            // accounted, so this close is not a sever.
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.close(slot, false);
            return;
        }
        let want_writable = !conn.wq.is_empty();
        if want_writable != conn.writable_interest {
            conn.writable_interest = want_writable;
            let interest = if want_writable {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.reregister(fd, slot + 1, interest);
        }
    }

    /// Tears down `slot`: deregisters, releases the live count, frees the
    /// slot. `severed` marks framing/I/O failures (not clean hang-ups,
    /// evictions or shutdown).
    fn close(&mut self, slot: usize, severed: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.cursor.is_some() {
            self.shared.subscribers.fetch_sub(1, Ordering::Relaxed);
            self.publish_subscriber_gauge();
        }
        if severed && !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.conns_severed.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        self.free.push(slot);
    }
}
