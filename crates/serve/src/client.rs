//! The client side: configurable connections ([`ClientBuilder`]), blocking
//! request/response ([`Client`]), push subscriptions ([`Subscription`]) and
//! [`Mirror`], the delta-applying replica of a remote story set.
//!
//! ```text
//!   ClientBuilder ──connect──► Client ──subscribe──► Subscription
//!        ▲                      │  ▲                     │
//!        └── timeouts, retry    │  └────unsubscribe──────┘
//!                               └── top_k / poll / stats / metrics
//! ```
//!
//! A [`Client`] issues one request at a time and reads its reply. Calling
//! [`Client::subscribe`] upgrades the connection to push mode: the server
//! streams [`PushBatch`]es whenever shards publish, and the connection comes
//! back to request/response mode through [`Subscription::unsubscribe`].
//! Either way, a [`Mirror`] turns the entries into a local story set that
//! matches what an in-process reader at the same sequence numbers would see.
//!
//! There is one connection throughout: a `TcpStream` and the
//! [`FrameBuffer`] it is read through. A [`Subscription`] is that same
//! [`Client`] plus the server's shard count, and every read — a reply, a
//! blocking [`recv`](Subscription::recv), a non-blocking
//! [`try_next`](Subscription::try_next), the drain in
//! [`unsubscribe`](Subscription::unsubscribe) — goes through one read loop,
//! so bytes that arrive early (the catch-up push behind the subscribe
//! acknowledgement) simply wait in the buffer.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use dyndens_core::{DenseEvent, EngineStats};
use dyndens_graph::VertexSet;
use dyndens_obs::RegistrySnapshot;

use crate::net::FrameBuffer;
use crate::protocol::{
    frame_message, DecodeFailure, ErrorCode, Request, Response, ServeStats, ShardPoll, ShardStat,
    WireStory,
};

/// An error talking to a story server.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or desynchronised (includes CRC mismatches).
    Io(io::Error),
    /// The server's reply frame did not decode.
    Decode(DecodeFailure),
    /// The server answered with an [`ErrorCode`].
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server's reply type does not match the request, or a reply
    /// invariant the client relies on was violated.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Decode(e) => write!(f, "undecodable reply: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeFailure> for ClientError {
    fn from(e: DecodeFailure) -> Self {
        ClientError::Decode(e)
    }
}

/// Configures and opens a [`Client`]: timeouts and connect retries with
/// backoff. `TCP_NODELAY` is always on — the protocol is request/response
/// and push frames should not wait on Nagle.
///
/// ```no_run
/// # use std::time::Duration;
/// # use dyndens_serve::client::ClientBuilder;
/// let client = ClientBuilder::new()
///     .connect_timeout(Duration::from_secs(2))
///     .read_timeout(Some(Duration::from_secs(30)))
///     .retries(3)
///     .backoff(Duration::from_millis(50))
///     .connect("127.0.0.1:7171")
///     .unwrap();
/// # drop(client);
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    retries: u32,
    backoff: Duration,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            connect_timeout: None,
            read_timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
        }
    }
}

impl ClientBuilder {
    /// A builder with defaults: no timeouts, no retries.
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Bounds each TCP connect attempt. Default: the OS's own limit.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds every blocking read — request replies *and*
    /// [`Subscription::recv`], where a timeout surfaces as an
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] error.
    /// `None` (the default) blocks indefinitely.
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// How many times to retry a failed connect (so `retries(3)` makes up to
    /// four attempts). Default: 0.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The delay before the first reconnect attempt; it doubles per attempt.
    /// Default: 100 ms.
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Connects, retrying with doubling backoff on failure.
    pub fn connect(self, addr: impl ToSocketAddrs) -> io::Result<Client> {
        let mut delay = self.backoff;
        let mut last_err = None;
        for attempt in 0..=self.retries {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match self.connect_once(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no socket addresses resolved")
        }))
    }

    fn connect_once(&self, addr: &impl ToSocketAddrs) -> io::Result<Client> {
        let mut last_err = None;
        for sockaddr in addr.to_socket_addrs()? {
            let attempt = match self.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&sockaddr, timeout),
                None => TcpStream::connect(sockaddr),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(self.read_timeout)?;
                    return Ok(Client {
                        stream,
                        rbuf: FrameBuffer::new(),
                        blocking: true,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no socket addresses resolved")
        }))
    }
}

/// A blocking connection to a story server. One in-flight request at a time;
/// open one client per thread for concurrency. Build with
/// [`Client::builder`]; upgrade to push delivery with
/// [`Client::subscribe`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    rbuf: FrameBuffer,
    blocking: bool,
}

impl Client {
    /// Starts configuring a connection; see [`ClientBuilder`].
    pub fn builder() -> ClientBuilder {
        ClientBuilder::new()
    }

    fn set_blocking(&mut self, on: bool) -> io::Result<()> {
        if self.blocking != on {
            self.stream.set_nonblocking(!on)?;
            self.blocking = on;
        }
        Ok(())
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        self.set_blocking(true)?;
        self.stream
            .write_all(&frame_message(|buf| request.encode_into(buf)))
    }

    /// The one read loop: the next frame's response, reading the socket
    /// until one is buffered. With `wait` it blocks (up to the read
    /// timeout) and `Ok(None)` is a clean hang-up at a frame boundary;
    /// without, `Ok(None)` means nothing is pending yet and a hang-up is an
    /// error. An [`Response::Error`] frame becomes [`ClientError::Server`].
    fn read_response(&mut self, wait: bool) -> Result<Option<Response>, ClientError> {
        self.set_blocking(wait)?;
        loop {
            if let Some(payload) = self.rbuf.next_frame()? {
                return match Response::decode(&payload)? {
                    Response::Error { code, message } => Err(ClientError::Server { code, message }),
                    response => Ok(Some(response)),
                };
            }
            match self.rbuf.fill_from(&mut self.stream) {
                Ok(0) if wait && !self.rbuf.has_partial() => return Ok(None),
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.rbuf.has_partial() {
                            "server hung up inside a frame"
                        } else {
                            "server hung up"
                        },
                    )))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && !wait => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Sends one request and reads its reply.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.read_response(true)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up before replying",
            ))
        })
    }

    /// The merged current top-`k` stories and the per-shard sequence numbers
    /// they reflect.
    pub fn top_k(&mut self, k: u32) -> Result<(Vec<u64>, Vec<WireStory>), ClientError> {
        match self.call(&Request::TopK { k })? {
            Response::Stories {
                per_shard_seq,
                stories,
            } => Ok((per_shard_seq, stories)),
            _ => Err(ClientError::Protocol("expected a Stories reply to TopK")),
        }
    }

    /// One incremental read: the shard count and, for every shard that
    /// advanced past `since`, its delta suffix or resync snapshot. An empty
    /// `since` is the bootstrap cursor.
    pub fn poll(&mut self, since: &[u64]) -> Result<(u32, Vec<ShardPoll>), ClientError> {
        let request = Request::Poll {
            since: since.to_vec(),
        };
        match self.call(&request)? {
            Response::Poll { n_shards, entries } => Ok((n_shards, entries)),
            _ => Err(ClientError::Protocol("expected a Poll reply to Poll")),
        }
    }

    /// The fleet's merged work counters, the serving layer's own counters,
    /// and per-shard serving health.
    pub fn stats(&mut self) -> Result<(EngineStats, ServeStats, Vec<ShardStat>), ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats {
                stats,
                serve,
                shards,
            } => Ok((stats, serve, shards)),
            _ => Err(ClientError::Protocol("expected a Stats reply to Stats")),
        }
    }

    /// The server's full observability snapshot: every registered counter,
    /// gauge and latency histogram plus the recent event journal. Empty when
    /// the server runs uninstrumented.
    pub fn metrics(&mut self) -> Result<RegistrySnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { registry } => Ok(registry),
            _ => Err(ClientError::Protocol("expected a Metrics reply to Metrics")),
        }
    }

    /// Registers this connection as a push subscriber at cursor `since` (use
    /// `&[]` to bootstrap from nothing) and converts it into a
    /// [`Subscription`].
    ///
    /// The server immediately follows its acknowledgement with a catch-up
    /// [`PushBatch`] for everything the cursor is behind on, then pushes a
    /// batch whenever a shard publishes. On error the connection is consumed
    /// — push registration is a protocol-mode switch, and a connection whose
    /// mode is uncertain is not worth keeping. A server without push
    /// support answers with [`ErrorCode::Unsupported`].
    pub fn subscribe(mut self, since: &[u64]) -> Result<Subscription, ClientError> {
        let request = Request::Subscribe {
            since: since.to_vec(),
        };
        let n_shards = match self.call(&request)? {
            Response::Subscribed { n_shards } => n_shards,
            _ => {
                return Err(ClientError::Protocol(
                    "expected a Subscribed reply to Subscribe",
                ))
            }
        };
        Ok(Subscription {
            client: self,
            n_shards,
        })
    }
}

/// One push from the server: the shard count it was computed under and the
/// per-shard entries (delta suffixes or resync snapshots) that advance a
/// subscriber past its cursor. Feed it to [`Mirror::apply`] to maintain a
/// local story set.
#[derive(Debug, Clone)]
pub struct PushBatch {
    /// The server's shard count when the push was built. A change from the
    /// previous batch means the topology changed; the affected entries
    /// arrive as resyncs.
    pub n_shards: u32,
    /// Per-shard catch-up entries, at most one per shard.
    pub entries: Vec<ShardPoll>,
}

/// A [`Client`] in push mode: the server streams [`PushBatch`]es as shards
/// publish.
///
/// [`recv`](Subscription::recv) blocks for the next batch (and the
/// [`Iterator`] implementation wraps it); [`try_next`](Subscription::try_next)
/// returns immediately. [`unsubscribe`](Subscription::unsubscribe) drains the
/// stream and hands back the same [`Client`] for request/response use.
///
/// A server that evicts this subscriber as a slow reader ends the stream
/// with [`ClientError::Server`] carrying [`ErrorCode::SlowConsumer`].
#[derive(Debug)]
pub struct Subscription {
    client: Client,
    n_shards: u32,
}

impl Subscription {
    /// The server's shard count at subscribe time.
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// Reads the next push, if the read loop yields one.
    fn next_push(&mut self, wait: bool) -> Result<Option<PushBatch>, ClientError> {
        match self.client.read_response(wait)? {
            Some(Response::Push { n_shards, entries }) => {
                self.n_shards = n_shards;
                Ok(Some(PushBatch { n_shards, entries }))
            }
            Some(_) => Err(ClientError::Protocol(
                "unexpected non-push frame on a subscription",
            )),
            None => Ok(None),
        }
    }

    /// Blocks until the next [`PushBatch`] arrives. `Ok(None)` means the
    /// server hung up cleanly; with a read timeout configured, expiry
    /// surfaces as [`ClientError::Io`].
    pub fn recv(&mut self) -> Result<Option<PushBatch>, ClientError> {
        self.next_push(true)
    }

    /// Returns the next [`PushBatch`] if one is already buffered or in the
    /// socket, without blocking. `Ok(None)` means nothing is pending yet; a
    /// server that hung up is an error, since nothing will ever be pending.
    pub fn try_next(&mut self) -> Result<Option<PushBatch>, ClientError> {
        self.next_push(false)
    }

    /// Deregisters the subscription and hands back the same connection as a
    /// request/response [`Client`], discarding pushes still in flight (the
    /// server guarantees nothing follows its acknowledgement).
    pub fn unsubscribe(mut self) -> Result<Client, ClientError> {
        self.client.send(&Request::Unsubscribe)?;
        loop {
            match self.client.read_response(true)? {
                Some(Response::Push { .. }) => continue, // in flight before the ack
                Some(Response::Unsubscribed) => return Ok(self.client),
                Some(_) => {
                    return Err(ClientError::Protocol(
                        "unexpected frame while unsubscribing",
                    ))
                }
                None => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server hung up before acknowledging unsubscribe",
                    )))
                }
            }
        }
    }
}

impl Iterator for Subscription {
    type Item = Result<PushBatch, ClientError>;

    /// Blocks for the next push; `None` when the server hangs up cleanly.
    fn next(&mut self) -> Option<Self::Item> {
        self.recv().transpose()
    }
}

/// A client-side mirror of the served story sets, maintained from `Poll`
/// replies and/or subscription [`PushBatch`]es: resync snapshots rebase a
/// shard, delta suffixes advance it event by event.
///
/// After any applied batch, [`story_sets`](Mirror::story_sets) is exactly
/// the union of the per-shard story sets at the cursor's sequence numbers —
/// the same sets an in-process [`StoryView`](dyndens_shard::StoryView)
/// reader at those sequence numbers would observe (provided the server's
/// `top_k` covers each shard's full output-dense set, so resync snapshots
/// are complete). Densities are as-of each story's last event; a story whose
/// density drifts *without* crossing the output threshold emits no event, so
/// only the set membership (not every score) is guaranteed current between
/// resyncs.
#[derive(Debug, Default)]
pub struct Mirror {
    since: Vec<u64>,
    shards: Vec<BTreeMap<VertexSet, f64>>,
    events_applied: u64,
    resyncs: u64,
}

impl Mirror {
    /// A mirror at the bootstrap cursor: its first batch resynchronises (or
    /// replays from sequence zero, when retention still covers it).
    pub fn new() -> Mirror {
        Mirror::default()
    }

    /// The per-shard cursor: the sequence numbers the mirror is current to.
    /// Empty until the first batch teaches it the server's shard count.
    pub fn cursor(&self) -> &[u64] {
        &self.since
    }

    /// Total [`DenseEvent`]s applied through delta suffixes so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Number of resync rebases performed so far (each one means the mirror
    /// had fallen behind a shard's delta retention, or the topology
    /// changed).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Polls `client` once and applies the reply. Returns `true` if any
    /// shard advanced.
    pub fn poll(&mut self, client: &mut Client) -> Result<bool, ClientError> {
        let (n_shards, entries) = client.poll(&self.since)?;
        self.apply(&PushBatch { n_shards, entries })
    }

    /// Applies one batch of per-shard entries — a `Poll` reply or a
    /// subscription push. Returns `true` if any shard advanced.
    pub fn apply(&mut self, batch: &PushBatch) -> Result<bool, ClientError> {
        let n_shards = batch.n_shards as usize;
        if self.since.is_empty() {
            self.since = vec![0; n_shards];
            self.shards = (0..n_shards).map(|_| BTreeMap::new()).collect();
        } else if self.since.len() != n_shards {
            // The server's topology changed under us (a shard split, or a
            // recovery into a differently-sized fleet). The server already
            // treated our stale cursor as a bootstrap cursor, so the entries
            // in this very batch rebase every slot: drop the old mirror and
            // apply them against a fresh one.
            self.since = vec![0; n_shards];
            self.shards = (0..n_shards).map(|_| BTreeMap::new()).collect();
            self.resyncs += 1;
        }
        let advanced = !batch.entries.is_empty();
        for entry in &batch.entries {
            let shard = entry.shard() as usize;
            if shard >= self.shards.len() {
                return Err(ClientError::Protocol("poll entry for unknown shard"));
            }
            match entry {
                ShardPoll::Resync {
                    seq, stories: set, ..
                } => {
                    self.shards[shard] = set.iter().cloned().collect();
                    self.since[shard] = *seq;
                    self.resyncs += 1;
                }
                ShardPoll::Deltas {
                    from_seq,
                    to_seq,
                    events,
                    ..
                } => {
                    if *from_seq != self.since[shard] {
                        return Err(ClientError::Protocol(
                            "delta suffix does not start at the cursor",
                        ));
                    }
                    self.events_applied += events.len() as u64;
                    for event in events {
                        apply_event(&mut self.shards[shard], event);
                    }
                    self.since[shard] = *to_seq;
                }
            }
        }
        Ok(advanced)
    }

    /// The mirrored story sets, union over shards, ordered by vertex set.
    pub fn story_sets(&self) -> Vec<(VertexSet, f64)> {
        let mut out: Vec<(VertexSet, f64)> = self
            .shards
            .iter()
            .flat_map(|m| m.iter().map(|(s, d)| (s.clone(), *d)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The mirrored vertex sets only, ordered.
    pub fn vertex_sets(&self) -> Vec<VertexSet> {
        self.story_sets().into_iter().map(|(s, _)| s).collect()
    }
}

fn apply_event(set: &mut BTreeMap<VertexSet, f64>, event: &DenseEvent) {
    match event {
        DenseEvent::BecameOutputDense { vertices, density } => {
            set.insert(vertices.clone(), *density);
        }
        DenseEvent::NoLongerOutputDense { vertices, .. } => {
            set.remove(vertices);
        }
    }
}
