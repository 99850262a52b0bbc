//! The readiness event-loop backend: every connection multiplexed onto a
//! small fixed pool of loop threads.
//!
//! ## Shape
//!
//! One blocking accept thread admits connections (enforcing
//! `max_connections`) and deals them round-robin to `workers` loop threads
//! through per-loop inboxes. Each loop owns its connections outright — no
//! cross-loop locking on the serving path — and runs a classic readiness
//! loop over the [`Poller`]: non-blocking reads feed an incremental
//! [`FrameBuffer`], decoded requests are answered through the same
//! `handle_request` path, and responses go out through a bounded
//! per-connection write queue drained on writability.
//!
//! ## Push fan-out
//!
//! The loops collectively register one [`PublishWaker`] on the
//! [`StoryView`](dyndens_shard::StoryView): every shard publication (and
//! every split/merge roster swap) writes one byte into each loop's waker
//! pipe. A woken loop runs a fan-out pass: for every subscribed connection
//! it builds the `Push` frame covering the subscriber's cursor from the
//! shards' delta rings — deltas when retention covers the cursor, resync
//! snapshots when not — advances the cursor, and enqueues the frame.
//! Subscribers at the same cursor share one encoded frame (`Arc`'d into
//! each write queue), so a ten-thousand-subscriber fan-out encodes each
//! micro-batch once per loop, not once per subscriber.
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
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dyndens_obs::{names, Counter, Gauge, Histogram, ObsEvent};
use dyndens_shard::PublishWaker;

use crate::net::FrameBuffer;
use crate::poller::{Event, Interest, Poller};
use crate::protocol::{frame_message, ErrorCode, Request, Response};
use crate::server::{poll_entries, process_request, Shared, REQ_SUBSCRIBE, REQ_UNSUBSCRIBE};

/// Wakes one loop thread by writing a byte into its waker pipe. Non-blocking
/// on the write side: a full pipe already means a wakeup is pending, which
/// is all a level-triggered edge signal needs.
#[derive(Debug, Clone)]
struct LoopWaker {
    tx: Arc<UnixStream>,
}

impl LoopWaker {
    fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// The fleet-wide publication waker registered on the `StoryView`: one shard
/// publication wakes every loop (each loop owns a disjoint subscriber set,
/// and all of them must fan out).
#[derive(Debug)]
struct FleetWaker {
    wakers: Vec<LoopWaker>,
}

impl PublishWaker for FleetWaker {
    fn wake(&self, _seq: u64) {
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

/// A connection freshly admitted by the accept thread, en route to a loop.
type Admitted = (TcpStream, u64);

struct LoopHandle {
    waker: LoopWaker,
    thread: Option<JoinHandle<()>>,
}

/// The running event-loop backend: the accept thread plus the loop pool.
pub(crate) struct EventedBackend {
    accept: Option<JoinHandle<()>>,
    loops: Vec<LoopHandle>,
    /// Keeps the fleet waker's strong count alive: the view's cells hold it
    /// weakly, so dropping the backend detaches the fan-out hook.
    _fleet: Arc<dyn PublishWaker>,
}

impl std::fmt::Debug for EventedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventedBackend")
            .field("loops", &self.loops.len())
            .finish_non_exhaustive()
    }
}

impl EventedBackend {
    pub(crate) fn start(
        listener: TcpListener,
        shared: Arc<Shared>,
        workers: usize,
    ) -> io::Result<EventedBackend> {
        let workers = workers.max(1);
        let mut pipes = Vec::with_capacity(workers);
        let mut wakers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            let waker = LoopWaker { tx: Arc::new(tx) };
            wakers.push(waker.clone());
            pipes.push((rx, waker));
        }
        let fleet: Arc<dyn PublishWaker> = Arc::new(FleetWaker { wakers });
        shared.view.watch(&fleet);

        let mut loops = Vec::with_capacity(workers);
        let mut dispatch = Vec::with_capacity(workers);
        for (idx, (rx, waker)) in pipes.into_iter().enumerate() {
            let inbox: Arc<Mutex<Vec<Admitted>>> = Arc::new(Mutex::new(Vec::new()));
            dispatch.push((Arc::clone(&inbox), waker.clone()));
            let mut event_loop =
                EventLoop::new(rx, inbox, Arc::clone(&shared), Arc::clone(&fleet))?;
            let thread = std::thread::Builder::new()
                .name(format!("dyndens-serve-loop-{idx}"))
                .spawn(move || event_loop.run())?;
            loops.push(LoopHandle {
                waker,
                thread: Some(thread),
            });
        }

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("dyndens-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, dispatch))?;
        Ok(EventedBackend {
            accept: Some(accept),
            loops,
            _fleet: fleet,
        })
    }

    /// Joins the accept thread and the loop pool. The caller has already set
    /// the shutdown flag and poked the listener.
    pub(crate) fn shutdown(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in &self.loops {
            handle.waker.wake();
        }
        for handle in &mut self.loops {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    dispatch: Vec<(Arc<Mutex<Vec<Admitted>>>, LoopWaker)>,
) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Some(conn_id) = shared.admit() else {
            // At the connection bound: close without touching a loop.
            continue;
        };
        let _ = stream.set_nodelay(true);
        let (inbox, waker) = &dispatch[next % dispatch.len()];
        next = next.wrapping_add(1);
        inbox
            .lock()
            .expect("loop inbox poisoned")
            .push((stream, conn_id));
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
    id: u64,
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
    inbox: Arc<Mutex<Vec<Admitted>>>,
    fleet: Arc<dyn PublishWaker>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// The shard count the loop last attached watchers under; a grown
    /// roster re-walks `StoryView::watch` to cover new shard cells.
    known_shards: usize,
    obs: Option<LoopObs>,
}

/// Token 0 is the waker pipe; connection slots are offset by 1.
const TOKEN_WAKER: usize = 0;

impl EventLoop {
    fn new(
        waker_rx: UnixStream,
        inbox: Arc<Mutex<Vec<Admitted>>>,
        shared: Arc<Shared>,
        fleet: Arc<dyn PublishWaker>,
    ) -> io::Result<EventLoop> {
        let obs = shared.obs.registry().map(|registry| LoopObs {
            wakeups: registry.counter(names::SERVE_WAKEUPS_TOTAL, &[]),
            fanout_us: registry.histogram(names::SERVE_FANOUT_LATENCY_US, &[]),
            subscribers: registry.gauge(names::SERVE_SUBSCRIBERS, &[]),
        });
        let known_shards = shared.view.n_shards();
        Ok(EventLoop {
            shared,
            poller: Poller::new()?,
            waker_rx,
            inbox,
            fleet,
            conns: Vec::new(),
            free: Vec::new(),
            known_shards,
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
                    self.handle_writable(slot);
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
        let admitted: Vec<Admitted> =
            std::mem::take(&mut *self.inbox.lock().expect("loop inbox poisoned"));
        for (stream, id) in admitted {
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
                id,
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

    /// Decodes and answers every complete frame buffered on `slot`. An
    /// `Err` means the stream desynchronised (framing/CRC) and must be
    /// severed.
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

    /// Answers one decoded frame. Subscription traffic is intercepted here
    /// (it needs per-connection state); everything else goes through the
    /// shared `process_request` path.
    fn handle_frame(&mut self, slot: usize, payload: &[u8]) {
        let shared = Arc::clone(&self.shared);
        match Request::decode(payload) {
            Ok(Request::Subscribe { since }) => {
                let started = shared.req_obs.is_some().then(Instant::now);
                let n_shards = shared.view.n_shards();
                let cursor = if since.len() == n_shards {
                    since
                } else {
                    // Stale or bootstrap cursor: rebase every shard from 0;
                    // the catch-up push resyncs whatever retention no longer
                    // covers — the same contract as `Poll`.
                    vec![0; n_shards]
                };
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                let newly = conn.cursor.is_none();
                let conn_id = conn.id;
                conn.cursor = Some(cursor);
                if newly {
                    shared.subscribers.fetch_add(1, Ordering::Relaxed);
                    if let Some(registry) = shared.obs.registry() {
                        registry.emit(ObsEvent::Subscribed { conn: conn_id });
                    }
                }
                self.publish_subscriber_gauge();
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                self.record_request(REQ_SUBSCRIBE, started);
                let reply = Response::Subscribed {
                    n_shards: n_shards as u32,
                };
                self.enqueue(slot, Arc::new(frame_message(|buf| reply.encode_into(buf))));
                // Catch the subscriber up immediately: everything its cursor
                // is already behind on goes out as the first push.
                let mut cache = HashMap::new();
                self.push_to(slot, &mut cache);
            }
            Ok(Request::Unsubscribe) => {
                let started = shared.req_obs.is_some().then(Instant::now);
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                if conn.cursor.take().is_some() {
                    shared.subscribers.fetch_sub(1, Ordering::Relaxed);
                }
                self.publish_subscriber_gauge();
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                self.record_request(REQ_UNSUBSCRIBE, started);
                // The cursor is gone, so no further push can be enqueued:
                // the acknowledgement is the last subscription frame on the
                // wire, as the protocol promises.
                let reply = Response::Unsubscribed;
                self.enqueue(slot, Arc::new(frame_message(|buf| reply.encode_into(buf))));
            }
            _ => {
                // Plain request/response (or an undecodable payload): the
                // shared path decodes again — these requests are cold next
                // to pushes, so the double decode is noise.
                let response = process_request(payload, &shared);
                self.enqueue(
                    slot,
                    Arc::new(frame_message(|buf| response.encode_into(buf))),
                );
            }
        }
    }

    /// Records one subscribe/unsubscribe request against the per-type
    /// metrics (the shared `process_request` path does this for the kinds it
    /// handles).
    fn record_request(&self, kind: usize, started: Option<Instant>) {
        if let (Some(req_obs), Some(started)) = (self.shared.req_obs.as_ref(), started) {
            let (requests, latency) = &req_obs[kind];
            requests.inc();
            latency.record_micros(started.elapsed());
        }
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
        let n_shards = self.shared.view.n_shards();
        if n_shards != self.known_shards {
            // Topology changed: re-walk the watcher attachment so cells
            // created by the split wake this loop too.
            self.known_shards = n_shards;
            self.shared.view.watch(&self.fleet);
        }
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
            let entries = poll_entries(&shared, &mut advanced);
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
        let conn_id = conn.id;
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
        if let Some(registry) = shared.obs.registry() {
            registry.emit(ObsEvent::SlowReaderEvicted {
                conn: conn_id,
                queued_bytes,
            });
        }
        self.publish_subscriber_gauge();
        self.flush(slot);
    }

    fn handle_writable(&mut self, slot: usize) {
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
            if let Some(registry) = self.shared.obs.registry() {
                registry.emit(ObsEvent::ConnSevered { conn: conn.id });
            }
        }
        self.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        self.free.push(slot);
    }
}
