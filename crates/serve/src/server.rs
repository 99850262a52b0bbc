//! The story server: a std-only TCP front-end over a [`StoryView`].
//!
//! One backend behind the [`ServerBuilder`]: a readiness event loop
//! multiplexing every connection onto a small fixed worker pool, with
//! non-blocking per-connection read/write state machines, bounded write
//! queues with slow-reader eviction, and protocol-v3 push subscriptions
//! fanning `DeltaRing` micro-batches out to every subscriber the moment a
//! shard publishes (see the `evented` module). It needs a readiness poller,
//! so the server is unix-only; the client side of the crate is portable.
//!
//! All request handling is read-only over the shards' published epochs, so a
//! server never blocks ingest for more than an epoch-pointer clone.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dyndens_obs::{names, Counter, Histogram, ObsEvent, ObsHandle};
use dyndens_shard::{DeltaCatchUp, StoryView};

use crate::evented::EventedBackend;
use crate::protocol::{
    DecodeFailure, ErrorCode, Request, Response, ServeStats, ShardPoll, ShardStat, WireStory,
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

/// The request kinds the per-type serving metrics are labelled with, in
/// [`request_kind`] index order. `error` is the pseudo-kind for frames whose
/// payload failed to decode into any request.
pub(crate) const REQUEST_KINDS: &[&str] = &[
    "top_k",
    "poll",
    "stats",
    "metrics",
    "subscribe",
    "unsubscribe",
    "error",
];
pub(crate) const REQ_SUBSCRIBE: usize = 4;
pub(crate) const REQ_UNSUBSCRIBE: usize = 5;
pub(crate) const REQ_ERROR: usize = 6;

pub(crate) fn request_kind(request: &Request) -> usize {
    match request {
        Request::TopK { .. } => 0,
        Request::Poll { .. } => 1,
        Request::Stats => 2,
        Request::Metrics => 3,
        Request::Subscribe { .. } => 4,
        Request::Unsubscribe => 5,
    }
}

/// State shared between the accept thread, the event loops and the facade.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) view: StoryView,
    pub(crate) names: NameTable,
    pub(crate) shutdown: AtomicBool,
    /// Live connections; the accept guard that enforces `max_connections`.
    pub(crate) live_conns: AtomicUsize,
    /// Hard accept bound: a connection beyond it is counted rejected and
    /// closed without a handshake.
    pub(crate) max_connections: usize,
    /// Per-connection write-queue bound, bytes; a connection whose
    /// queued-but-unsent bytes would exceed it is evicted as a slow reader.
    pub(crate) write_queue_bytes: usize,
    /// Currently registered push subscribers.
    pub(crate) subscribers: AtomicU64,
    /// The [`ServeStats`] cells. `Arc`'d so an enabled registry reads the
    /// very same cells through its adopted counter series — the serving hot
    /// path never double-counts.
    pub(crate) requests_served: Arc<AtomicU64>,
    pub(crate) conns_accepted: Arc<AtomicU64>,
    pub(crate) conns_severed: Arc<AtomicU64>,
    pub(crate) resyncs_served: Arc<AtomicU64>,
    pub(crate) error_replies: Arc<AtomicU64>,
    pub(crate) conns_rejected: Arc<AtomicU64>,
    pub(crate) pushes_sent: Arc<AtomicU64>,
    pub(crate) slow_evictions: Arc<AtomicU64>,
    pub(crate) obs: ObsHandle,
    /// Pre-registered per-request-type `(requests, latency)` handles,
    /// indexed like [`REQUEST_KINDS`]; present iff `obs` is enabled.
    pub(crate) req_obs: Option<Vec<(Counter, Histogram)>>,
}

impl Shared {
    pub(crate) fn serve_stats(&self) -> ServeStats {
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
    /// connection is counted live and assigned an id; at the bound it is
    /// counted rejected and the caller must drop it.
    pub(crate) fn admit(&self) -> Option<u64> {
        if self.live_conns.load(Ordering::Relaxed) >= self.max_connections {
            self.conns_rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.live_conns.fetch_add(1, Ordering::Relaxed);
        let conn_id = self.conns_accepted.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(registry) = self.obs.registry() {
            registry.emit(ObsEvent::ConnAccepted { conn: conn_id });
        }
        Some(conn_id)
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
    /// histograms, and connection lifecycle, resyncs and subscription events
    /// are journalled. The registry is also what a [`Request::Metrics`]
    /// against this server snapshots.
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
        let backend = EventedBackend::start(listener, Arc::clone(&shared), self.workers)?;
        Ok(StoryServer {
            local_addr,
            shared,
            backend,
        })
    }
}

/// A running story server. Dropping it stops the accept loop, severs open
/// connections and joins every serving thread before returning.
#[derive(Debug)]
pub struct StoryServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    backend: EventedBackend,
}

impl StoryServer {
    /// Starts configuring a server over `view`; see [`ServerBuilder`].
    pub fn builder(view: StoryView) -> ServerBuilder {
        ServerBuilder::new(view)
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `view` with default settings (no instrumentation). The returned
    /// server's [`names`](StoryServer::names) table starts empty; publish the
    /// ingest side's entity names into it to serve named stories.
    pub fn bind(addr: impl ToSocketAddrs, view: StoryView) -> io::Result<StoryServer> {
        Self::builder(view).bind(addr)
    }

    /// Like [`bind`](StoryServer::bind), but instrumented; shorthand for
    /// `builder(view).obs(obs).bind(addr)`.
    pub fn bind_with_obs(
        addr: impl ToSocketAddrs,
        view: StoryView,
        obs: ObsHandle,
    ) -> io::Result<StoryServer> {
        Self::builder(view).obs(obs).bind(addr)
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
        self.backend.shutdown();
    }
}

/// Decodes one request payload and answers it, maintaining the request
/// counters and per-type latency metrics. The event loops route plain
/// request/response traffic through here and intercept
/// `Subscribe`/`Unsubscribe` before calling it.
pub(crate) fn process_request(payload: &[u8], shared: &Shared) -> Response {
    let started = shared.req_obs.is_some().then(Instant::now);
    let (kind, response) = match Request::decode(payload) {
        Ok(request) => (request_kind(&request), handle_request(&request, shared)),
        // An intact frame with an undecodable payload: the stream is
        // still synchronised, so report the problem and keep serving.
        Err(failure) => (REQ_ERROR, error_response(&failure)),
    };
    if matches!(response, Response::Error { .. }) {
        shared.error_replies.fetch_add(1, Ordering::Relaxed);
    }
    shared.requests_served.fetch_add(1, Ordering::Relaxed);
    if let (Some(req_obs), Some(started)) = (shared.req_obs.as_ref(), started) {
        let (requests, latency) = &req_obs[kind];
        requests.inc();
        latency.record_micros(started.elapsed());
    }
    response
}

pub(crate) fn error_response(failure: &DecodeFailure) -> Response {
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

/// Builds the poll entries for every shard past `since` (shared by the
/// `Poll` handler and the push fan-out): deltas when retention covers the
/// cursor, a resync snapshot when it does not. Advances `cursor[shard]` to
/// the sequence each entry catches the reader up to and maintains the resync
/// counter and journal.
pub(crate) fn poll_entries(shared: &Shared, cursor: &mut [u64]) -> Vec<ShardPoll> {
    let view = &shared.view;
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
                shared.resyncs_served.fetch_add(1, Ordering::Relaxed);
                if let Some(registry) = shared.obs.registry() {
                    registry.emit(ObsEvent::PollResync {
                        shard: shard as u32,
                    });
                }
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

/// Answers one request against the view's current epochs.
pub(crate) fn handle_request(request: &Request, shared: &Shared) -> Response {
    let view = &shared.view;
    match request {
        Request::TopK { k } => {
            let merged = view.snapshot();
            let names = shared.names.load();
            let stories = merged
                .stories
                .into_iter()
                .take(*k as usize)
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
        Request::Poll { since } => {
            let n_shards = view.n_shards();
            // A cursor whose length disagrees with the current topology is a
            // reader from before a shard split (or from another deployment):
            // treat it as the bootstrap cursor. The reply's `n_shards` tells
            // the client the new topology and its per-shard entries rebase
            // every slot — the clean-resync path pollers take after a split,
            // with no error round-trip.
            let mut cursor = if since.len() == n_shards {
                since.clone()
            } else {
                vec![0; n_shards]
            };
            let entries = poll_entries(shared, &mut cursor);
            Response::Poll {
                n_shards: n_shards as u32,
                entries,
            }
        }
        Request::Stats => {
            let stats = view.stats();
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
                stats,
                serve: shared.serve_stats(),
                shards,
            }
        }
        Request::Metrics => Response::Metrics {
            registry: shared
                .obs
                .registry()
                .map(|registry| registry.snapshot())
                .unwrap_or_default(),
        },
        // The event loops intercept these before reaching here; a stray one
        // is outside input and gets the typed refusal, never a panic.
        Request::Subscribe { .. } | Request::Unsubscribe => Response::Error {
            code: ErrorCode::Unsupported,
            message: "push subscriptions are handled by the event loop".to_string(),
        },
    }
}
