//! The dyndens-serve wire protocol: message types and their binary codec.
//!
//! This module is the *implementation* of the protocol; the normative
//! specification lives in `docs/PROTOCOL.md` at the repository root and is
//! written so that a non-Rust client can be built from it alone. The two must
//! agree; the round-trip property tests in `tests/wire_roundtrip.rs` pin the
//! encodings.
//!
//! Every message travels as one CRC-framed record (the same
//! `len | crc32 | payload` framing as the shard WAL — see
//! [`dyndens_graph::codec::put_frame`]), whose payload starts with a protocol
//! version byte and a message tag byte. Request and response tags share one
//! numbering space; requests use `0x01..=0x7F`, responses `0x80..=0xFF`.

use dyndens_core::{DenseEvent, EngineStats};
use dyndens_graph::codec::{put_f64, put_frame_with};
use dyndens_graph::codec::{put_str, put_u32, put_u64, put_u8, ByteReader, CodecError};
use dyndens_graph::VertexSet;
use dyndens_obs::RegistrySnapshot;

/// The protocol revision this build speaks. A decoder rejects every other
/// version; additions to message bodies require a bump (bodies are
/// fixed-layout — decoders reject trailing bytes).
///
/// Revision 2 added the `Metrics` request/response pair and the
/// [`ServeStats`] block inside `Stats` replies. Revision 3 added the push
/// subscription family (`Subscribe`/`Unsubscribe` requests, `Subscribed`/
/// `Unsubscribed`/`Push` responses), grew [`ServeStats`] from five to eight
/// counters, and assigned error codes 5 (`SlowConsumer`) and 6
/// (`Unsupported`). Revision 4 cut the `Metrics` journal to the four
/// lifecycle event kinds (tags 4–7) and dropped `SplitPhase`'s always-zero
/// `replayed` field.
pub const PROTOCOL_VERSION: u8 = 4;

/// Upper bound a frame reader accepts for one message, before allocating
/// anything: 32 MiB. A corrupt or hostile length prefix beyond it is rejected
/// as a framing error rather than an attempted allocation.
pub const MAX_FRAME_LEN: u32 = 32 << 20;

/// A request, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The merged current top-`k` stories (tag `0x01`).
    TopK {
        /// Maximum number of stories to return.
        k: u32,
    },
    /// Incremental read (tag `0x02`): for every shard that advanced past the
    /// client's cursor, the `DenseEvent` suffix since it (or a resync
    /// snapshot once the client fell behind the shard's delta retention).
    Poll {
        /// The client's per-shard sequence cursor. An empty vector is the
        /// bootstrap cursor (all shards from sequence 0); otherwise the
        /// length must equal the server's shard count.
        since: Vec<u64>,
    },
    /// Merged work counters plus per-shard serving health (tag `0x03`).
    Stats,
    /// The server's full observability snapshot (tag `0x04`): every
    /// registered counter, gauge and latency histogram plus the recent
    /// structured-event journal. Answers with [`Response::Metrics`]; a
    /// server running without instrumentation answers with an empty
    /// snapshot.
    Metrics,
    /// Register a push subscription (tag `0x05`): the client states its
    /// per-shard cursor **once**; from then on the server fans out
    /// [`Response::Push`] frames whenever a shard publishes past it — the
    /// connection carries no further request traffic until the client
    /// unsubscribes or hangs up. Answered with [`Response::Subscribed`], then
    /// an immediate catch-up `Push` if any shard is already past the cursor.
    /// A server that cannot push (releases before the event loop was the
    /// only backend) answers with a typed [`ErrorCode::Unsupported`] error
    /// instead.
    Subscribe {
        /// The client's per-shard sequence cursor, with the same semantics
        /// as [`Request::Poll`]: empty means bootstrap (every shard from
        /// sequence 0), as does a stale length from before a topology change.
        since: Vec<u64>,
    },
    /// Deregister the connection's push subscription (tag `0x06`). The
    /// server stops fanning out, then answers [`Response::Unsubscribed`];
    /// `Push` frames already in flight arrive before the acknowledgement,
    /// never after it. The connection then reverts to request/response use.
    Unsubscribe,
}

/// One story on the wire: the vertex set, its density, and the entity names
/// (empty when the server has no name table).
#[derive(Debug, Clone, PartialEq)]
pub struct WireStory {
    /// The story's vertex set.
    pub vertices: VertexSet,
    /// The story's density under the server's measure, bit-exact.
    pub density: f64,
    /// Human-readable entity names, parallel to `vertices`; empty when the
    /// server serves unnamed vertex-level stories.
    pub entities: Vec<String>,
}

/// One shard's contribution to a [`Response::Poll`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPoll {
    /// The exact contiguous event suffix `from_seq..to_seq`: applying the
    /// events in order to the story set the client held at `from_seq` yields
    /// the shard's story set at `to_seq`.
    Deltas {
        /// The shard the events belong to.
        shard: u32,
        /// The cursor the events start from (equals the requested cursor).
        from_seq: u64,
        /// The shard sequence the events catch the client up to.
        to_seq: u64,
        /// The events, in publication order.
        events: Vec<DenseEvent>,
    },
    /// The client fell behind the shard's delta retention (or the shard just
    /// recovered from a crash): rebase on this full published story list,
    /// then resume delta-following from `seq`.
    Resync {
        /// The shard being resynchronised.
        shard: u32,
        /// The shard sequence number of the snapshot.
        seq: u64,
        /// The shard's published stories (its top-k; the *full* story set
        /// whenever `top_k` is at least the shard's output-dense count).
        stories: Vec<(VertexSet, f64)>,
    },
}

impl ShardPoll {
    /// The shard index this entry refers to.
    pub fn shard(&self) -> u32 {
        match self {
            ShardPoll::Deltas { shard, .. } | ShardPoll::Resync { shard, .. } => *shard,
        }
    }
}

/// Per-shard serving health, carried by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// The shard index.
    pub shard: u32,
    /// The shard's latest published sequence number.
    pub seq: u64,
    /// The shard's total output-dense subgraph count (may exceed the
    /// published top-k).
    pub output_dense: u64,
    /// The earliest cursor a `Poll` can be served deltas for, or `None`
    /// while the shard has published nothing since construction/recovery.
    /// `seq - delta_coverage_from` is the shard's poll-tolerance window;
    /// the gap between `seq` and a reader's cursor is that reader's
    /// staleness in updates.
    pub delta_coverage_from: Option<u64>,
}

/// Serving-layer counters carried by [`Response::Stats`]: what the server
/// itself did, as opposed to the ingest fleet's [`EngineStats`] work ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered since the server started (all request types,
    /// including error replies).
    pub requests_served: u64,
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections severed by a framing or I/O failure (CRC mismatch,
    /// mid-frame EOF, reset) rather than a clean peer hang-up or server
    /// shutdown.
    pub conns_severed: u64,
    /// Resync entries served in `Poll` and `Push` replies — each one is a
    /// reader that fell behind a shard's delta retention, or a shard that
    /// restarted (recovery, split, merge) under the reader.
    pub resyncs_served: u64,
    /// Typed [`Response::Error`] replies sent.
    pub error_replies: u64,
    /// Connections refused at accept because the server was at its
    /// `max_connections` bound.
    pub conns_rejected: u64,
    /// [`Response::Push`] frames enqueued to subscribers.
    pub pushes_sent: u64,
    /// Subscribers evicted because their bounded write queue overflowed
    /// (each received a final [`ErrorCode::SlowConsumer`] severance).
    pub slow_evictions: u64,
}

impl ServeStats {
    /// Number of counters in the wire encoding of this protocol revision
    /// (the mirror of [`EngineStats::WIRE_COUNTERS`]). Adding a counter is a
    /// wire-format change: bump [`PROTOCOL_VERSION`] alongside this constant
    /// (the destructuring in [`encode_into`](ServeStats::encode_into) forces
    /// the revisit).
    pub const WIRE_COUNTERS: u8 = 8;

    /// Appends the canonical wire encoding:
    /// `n u8 (= 8) | n × counter u64`, counters in declaration order.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let ServeStats {
            requests_served,
            conns_accepted,
            conns_severed,
            resyncs_served,
            error_replies,
            conns_rejected,
            pushes_sent,
            slow_evictions,
        } = self;
        put_u8(buf, Self::WIRE_COUNTERS);
        for counter in [
            requests_served,
            conns_accepted,
            conns_severed,
            resyncs_served,
            error_replies,
            conns_rejected,
            pushes_sent,
            slow_evictions,
        ] {
            put_u64(buf, *counter);
        }
    }

    /// Decodes a serving-stats block, rejecting a counter count other than
    /// [`ServeStats::WIRE_COUNTERS`] (a mismatch means the peer speaks a
    /// different protocol revision).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<ServeStats, CodecError> {
        if r.u8()? != Self::WIRE_COUNTERS {
            return Err(CodecError::Invalid("serve stats counter count mismatch"));
        }
        Ok(ServeStats {
            requests_served: r.u64()?,
            conns_accepted: r.u64()?,
            conns_severed: r.u64()?,
            resyncs_served: r.u64()?,
            error_replies: r.u64()?,
            conns_rejected: r.u64()?,
            pushes_sent: r.u64()?,
            slow_evictions: r.u64()?,
        })
    }
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion = 1,
    /// The request tag is unknown to this server.
    UnknownTag = 2,
    /// The request body failed to decode.
    Malformed = 3,
    /// A `Poll` cursor's length does not match the server's shard count.
    BadCursor = 4,
    /// Final severance frame sent to a push subscriber whose bounded write
    /// queue overflowed: the subscriber read slower than the fan-out
    /// produced, so the server evicted it rather than buffer without bound.
    /// The connection is closed after this frame.
    SlowConsumer = 5,
    /// The request is valid but this server cannot serve it (e.g.
    /// `Subscribe` against an older server without push support). The
    /// connection stays usable.
    Unsupported = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::UnsupportedVersion),
            2 => Some(ErrorCode::UnknownTag),
            3 => Some(ErrorCode::Malformed),
            4 => Some(ErrorCode::BadCursor),
            5 => Some(ErrorCode::SlowConsumer),
            6 => Some(ErrorCode::Unsupported),
            _ => None,
        }
    }
}

/// A response, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::TopK`] (tag `0x81`).
    Stories {
        /// The per-shard sequence numbers the answer reflects.
        per_shard_seq: Vec<u64>,
        /// The merged stories, densest first.
        stories: Vec<WireStory>,
    },
    /// Answer to [`Request::Poll`] (tag `0x82`). Shards that did not advance
    /// past the client's cursor are simply absent from `entries`.
    Poll {
        /// The server's shard count (so a bootstrap client can size its
        /// cursor).
        n_shards: u32,
        /// One entry per shard that advanced.
        entries: Vec<ShardPoll>,
    },
    /// Answer to [`Request::Stats`] (tag `0x83`).
    Stats {
        /// The fleet's merged work counters, as of the latest published
        /// snapshots.
        stats: EngineStats,
        /// The serving layer's own counters.
        serve: ServeStats,
        /// Per-shard serving health.
        shards: Vec<ShardStat>,
    },
    /// Answer to [`Request::Metrics`] (tag `0x84`): the server's full
    /// observability snapshot. Empty (no series, no events) when the server
    /// runs uninstrumented.
    Metrics {
        /// Every registered metric series plus the recent event journal.
        registry: RegistrySnapshot,
    },
    /// Answer to [`Request::Subscribe`] (tag `0x85`): the subscription is
    /// registered; `Push` frames follow as shards publish.
    Subscribed {
        /// The server's shard count (so a bootstrap subscriber can size its
        /// mirror before the first push arrives).
        n_shards: u32,
    },
    /// Answer to [`Request::Unsubscribe`] (tag `0x86`): fan-out to this
    /// connection has stopped; no `Push` frame follows this acknowledgement.
    Unsubscribed,
    /// A server-initiated fan-out frame (tag `0x87`), sent to subscribed
    /// connections whenever a shard publishes past the subscriber's cursor.
    /// The body is shaped exactly like a [`Response::Poll`] answer: one
    /// entry per shard that advanced, deltas when retention covers the
    /// cursor, a resync snapshot when it does not (or when the topology
    /// changed under the subscriber). The server advances its copy of the
    /// cursor as it pushes; the client never re-states it.
    Push {
        /// The server's current shard count; growth mid-subscription means a
        /// split committed, and the affected entries arrive as resyncs.
        n_shards: u32,
        /// One entry per shard that advanced past the subscriber's cursor.
        entries: Vec<ShardPoll>,
    },
    /// The request could not be served (tag `0xEE`). The connection stays
    /// usable — framing was intact, only this request was rejected — except
    /// after [`ErrorCode::SlowConsumer`], which is a severance: the server
    /// closes the connection once the frame is written.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why an intact frame failed to decode into a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The payload's version byte differs from [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// The message tag is not assigned (in this direction).
    UnknownTag(u8),
    /// The body is truncated, has trailing bytes, or violates an invariant.
    Malformed(CodecError),
}

impl std::fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFailure::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            DecodeFailure::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            DecodeFailure::Malformed(e) => write!(f, "malformed message body: {e}"),
        }
    }
}

impl std::error::Error for DecodeFailure {}

impl From<CodecError> for DecodeFailure {
    fn from(e: CodecError) -> Self {
        DecodeFailure::Malformed(e)
    }
}

// Message tags. Requests and responses share one numbering space so a tag is
// never ambiguous in a captured byte stream.
const TAG_TOPK: u8 = 0x01;
const TAG_POLL: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_METRICS: u8 = 0x04;
const TAG_SUBSCRIBE: u8 = 0x05;
const TAG_UNSUBSCRIBE: u8 = 0x06;
const TAG_STORIES_REPLY: u8 = 0x81;
const TAG_POLL_REPLY: u8 = 0x82;
const TAG_STATS_REPLY: u8 = 0x83;
const TAG_METRICS_REPLY: u8 = 0x84;
const TAG_SUBSCRIBED_REPLY: u8 = 0x85;
const TAG_UNSUBSCRIBED_REPLY: u8 = 0x86;
const TAG_PUSH: u8 = 0x87;
const TAG_ERROR: u8 = 0xEE;

fn begin(buf: &mut Vec<u8>, tag: u8) {
    put_u8(buf, PROTOCOL_VERSION);
    put_u8(buf, tag);
}

/// Reads the version and tag bytes, rejecting foreign versions.
fn header(r: &mut ByteReader<'_>) -> Result<u8, DecodeFailure> {
    let version = r.u8().map_err(DecodeFailure::Malformed)?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeFailure::UnsupportedVersion(version));
    }
    r.u8().map_err(DecodeFailure::Malformed)
}

/// Bodies are fixed-layout per version: trailing bytes mean the peer speaks
/// a different revision, so they are rejected rather than skipped.
fn finish<T>(value: T, r: &ByteReader<'_>) -> Result<T, DecodeFailure> {
    if r.is_empty() {
        Ok(value)
    } else {
        Err(DecodeFailure::Malformed(CodecError::Invalid(
            "trailing bytes after message body",
        )))
    }
}

/// Guards a count prefix against the bytes that could possibly back it, so a
/// corrupt count can never drive an allocation (`min_encoded` is the smallest
/// possible encoding of one element).
fn check_count(r: &ByteReader<'_>, count: usize, min_encoded: usize) -> Result<(), CodecError> {
    if r.remaining() < count.saturating_mul(min_encoded) {
        return Err(CodecError::Truncated {
            needed: count.saturating_mul(min_encoded),
            available: r.remaining(),
        });
    }
    Ok(())
}

impl Request {
    /// Appends the versioned payload (not the frame) for this request.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::TopK { k } => {
                begin(buf, TAG_TOPK);
                put_u32(buf, *k);
            }
            Request::Poll { since } => {
                begin(buf, TAG_POLL);
                put_u32(buf, since.len() as u32);
                for s in since {
                    put_u64(buf, *s);
                }
            }
            Request::Stats => begin(buf, TAG_STATS),
            Request::Metrics => begin(buf, TAG_METRICS),
            Request::Subscribe { since } => {
                begin(buf, TAG_SUBSCRIBE);
                put_u32(buf, since.len() as u32);
                for s in since {
                    put_u64(buf, *s);
                }
            }
            Request::Unsubscribe => begin(buf, TAG_UNSUBSCRIBE),
        }
    }

    /// Decodes one request payload (the bytes inside a frame).
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeFailure> {
        let mut r = ByteReader::new(payload);
        let tag = header(&mut r)?;
        let request = match tag {
            TAG_TOPK => Request::TopK { k: r.u32()? },
            TAG_POLL => {
                let n = r.u32()? as usize;
                check_count(&r, n, 8)?;
                let since = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                Request::Poll { since }
            }
            TAG_STATS => Request::Stats,
            TAG_METRICS => Request::Metrics,
            TAG_SUBSCRIBE => {
                let n = r.u32()? as usize;
                check_count(&r, n, 8)?;
                let since = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                Request::Subscribe { since }
            }
            TAG_UNSUBSCRIBE => Request::Unsubscribe,
            other => return Err(DecodeFailure::UnknownTag(other)),
        };
        finish(request, &r)
    }
}

impl WireStory {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.vertices.encode_into(buf);
        put_f64(buf, self.density);
        put_u32(buf, self.entities.len() as u32);
        for name in &self.entities {
            put_str(buf, name);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<WireStory, CodecError> {
        let vertices = VertexSet::decode(r)?;
        let density = r.f64()?;
        if !density.is_finite() {
            return Err(CodecError::Invalid("story density is not finite"));
        }
        let n = r.u32()? as usize;
        check_count(r, n, 4)?;
        let entities = (0..n)
            .map(|_| r.str().map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WireStory {
            vertices,
            density,
            entities,
        })
    }
}

fn encode_scored_set(buf: &mut Vec<u8>, (set, density): &(VertexSet, f64)) {
    set.encode_into(buf);
    put_f64(buf, *density);
}

fn decode_scored_set(r: &mut ByteReader<'_>) -> Result<(VertexSet, f64), CodecError> {
    let set = VertexSet::decode(r)?;
    let density = r.f64()?;
    if !density.is_finite() {
        return Err(CodecError::Invalid("story density is not finite"));
    }
    Ok((set, density))
}

/// Encodes a `Poll`/`Push` body: `n_shards u32 | count u32 | count × entry`
/// (the two responses share one body shape by design — a subscriber's mirror
/// applies pushes with the same code it applies poll answers with).
fn encode_poll_body(buf: &mut Vec<u8>, n_shards: u32, entries: &[ShardPoll]) {
    put_u32(buf, n_shards);
    put_u32(buf, entries.len() as u32);
    for entry in entries {
        match entry {
            ShardPoll::Deltas {
                shard,
                from_seq,
                to_seq,
                events,
            } => {
                put_u32(buf, *shard);
                put_u8(buf, 0);
                put_u64(buf, *from_seq);
                put_u64(buf, *to_seq);
                put_u32(buf, events.len() as u32);
                for event in events {
                    event.encode_into(buf);
                }
            }
            ShardPoll::Resync {
                shard,
                seq,
                stories,
            } => {
                put_u32(buf, *shard);
                put_u8(buf, 1);
                put_u64(buf, *seq);
                put_u32(buf, stories.len() as u32);
                for story in stories {
                    encode_scored_set(buf, story);
                }
            }
        }
    }
}

/// Decodes a `Poll`/`Push` body; the inverse of [`encode_poll_body`].
fn decode_poll_body(r: &mut ByteReader<'_>) -> Result<(u32, Vec<ShardPoll>), DecodeFailure> {
    let n_shards = r.u32()?;
    let n = r.u32()? as usize;
    check_count(r, n, 13)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let shard = r.u32()?;
        let entry = match r.u8()? {
            0 => {
                let from_seq = r.u64()?;
                let to_seq = r.u64()?;
                if to_seq <= from_seq {
                    return Err(DecodeFailure::Malformed(CodecError::Invalid(
                        "poll deltas do not advance the cursor",
                    )));
                }
                let n_events = r.u32()? as usize;
                check_count(r, n_events, 13)?;
                let events = (0..n_events)
                    .map(|_| DenseEvent::decode(r))
                    .collect::<Result<Vec<_>, _>>()?;
                ShardPoll::Deltas {
                    shard,
                    from_seq,
                    to_seq,
                    events,
                }
            }
            1 => {
                let seq = r.u64()?;
                let n_stories = r.u32()? as usize;
                check_count(r, n_stories, 12)?;
                let stories = (0..n_stories)
                    .map(|_| decode_scored_set(r))
                    .collect::<Result<Vec<_>, _>>()?;
                ShardPoll::Resync {
                    shard,
                    seq,
                    stories,
                }
            }
            _ => {
                return Err(DecodeFailure::Malformed(CodecError::Invalid(
                    "unknown poll entry kind",
                )))
            }
        };
        entries.push(entry);
    }
    Ok((n_shards, entries))
}

impl Response {
    /// Appends the versioned payload (not the frame) for this response.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Stories {
                per_shard_seq,
                stories,
            } => {
                begin(buf, TAG_STORIES_REPLY);
                put_u32(buf, per_shard_seq.len() as u32);
                for s in per_shard_seq {
                    put_u64(buf, *s);
                }
                put_u32(buf, stories.len() as u32);
                for story in stories {
                    story.encode_into(buf);
                }
            }
            Response::Poll { n_shards, entries } => {
                begin(buf, TAG_POLL_REPLY);
                encode_poll_body(buf, *n_shards, entries);
            }
            Response::Stats {
                stats,
                serve,
                shards,
            } => {
                begin(buf, TAG_STATS_REPLY);
                stats.encode_into(buf);
                serve.encode_into(buf);
                put_u32(buf, shards.len() as u32);
                for s in shards {
                    put_u32(buf, s.shard);
                    put_u64(buf, s.seq);
                    put_u64(buf, s.output_dense);
                    match s.delta_coverage_from {
                        Some(from) => {
                            put_u8(buf, 1);
                            put_u64(buf, from);
                        }
                        None => put_u8(buf, 0),
                    }
                }
            }
            Response::Metrics { registry } => {
                begin(buf, TAG_METRICS_REPLY);
                registry.encode_into(buf);
            }
            Response::Subscribed { n_shards } => {
                begin(buf, TAG_SUBSCRIBED_REPLY);
                put_u32(buf, *n_shards);
            }
            Response::Unsubscribed => begin(buf, TAG_UNSUBSCRIBED_REPLY),
            Response::Push { n_shards, entries } => {
                begin(buf, TAG_PUSH);
                encode_poll_body(buf, *n_shards, entries);
            }
            Response::Error { code, message } => {
                begin(buf, TAG_ERROR);
                put_u8(buf, *code as u8);
                put_str(buf, message);
            }
        }
    }

    /// Decodes one response payload (the bytes inside a frame).
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeFailure> {
        let mut r = ByteReader::new(payload);
        let tag = header(&mut r)?;
        let response = match tag {
            TAG_STORIES_REPLY => {
                let n = r.u32()? as usize;
                check_count(&r, n, 8)?;
                let per_shard_seq = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                let n = r.u32()? as usize;
                check_count(&r, n, 16)?;
                let stories = (0..n)
                    .map(|_| WireStory::decode(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Response::Stories {
                    per_shard_seq,
                    stories,
                }
            }
            TAG_POLL_REPLY => {
                let (n_shards, entries) = decode_poll_body(&mut r)?;
                Response::Poll { n_shards, entries }
            }
            TAG_STATS_REPLY => {
                let stats = EngineStats::decode(&mut r)?;
                let serve = ServeStats::decode(&mut r)?;
                let n = r.u32()? as usize;
                check_count(&r, n, 21)?;
                let shards = (0..n)
                    .map(|_| {
                        let shard = r.u32()?;
                        let seq = r.u64()?;
                        let output_dense = r.u64()?;
                        let delta_coverage_from = match r.u8()? {
                            0 => None,
                            1 => Some(r.u64()?),
                            _ => return Err(CodecError::Invalid("bad coverage flag")),
                        };
                        Ok(ShardStat {
                            shard,
                            seq,
                            output_dense,
                            delta_coverage_from,
                        })
                    })
                    .collect::<Result<Vec<_>, CodecError>>()?;
                Response::Stats {
                    stats,
                    serve,
                    shards,
                }
            }
            TAG_METRICS_REPLY => Response::Metrics {
                registry: RegistrySnapshot::decode(&mut r)?,
            },
            TAG_SUBSCRIBED_REPLY => Response::Subscribed { n_shards: r.u32()? },
            TAG_UNSUBSCRIBED_REPLY => Response::Unsubscribed,
            TAG_PUSH => {
                let (n_shards, entries) = decode_poll_body(&mut r)?;
                Response::Push { n_shards, entries }
            }
            TAG_ERROR => {
                let code =
                    ErrorCode::from_u8(r.u8()?).ok_or(CodecError::Invalid("unknown error code"))?;
                let message = r.str()?.to_string();
                Response::Error { code, message }
            }
            other => return Err(DecodeFailure::UnknownTag(other)),
        };
        finish(response, &r)
    }
}

/// Encodes a message payload behind its CRC frame header in one buffer,
/// ready to write to a socket.
pub fn frame_message(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut framed = Vec::new();
    put_frame_with(&mut framed, encode);
    framed
}
