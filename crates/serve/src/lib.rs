//! # dyndens-serve
//!
//! Network serving for DynDens stories: a hand-rolled, std-only wire
//! protocol (the build environment has no crates.io access) that exposes the
//! sharded subsystem's [`StoryView`](dyndens_shard::StoryView) to
//! out-of-process readers, completing the paper's pipeline — *real-time
//! story identification served to readers* — beyond the maintenance-only
//! scope of related dynamic-density systems.
//!
//! ## Architecture
//!
//! ```text
//!   ingest process                           serving clients
//!  ┌─────────────────────────────────┐      ┌─────────────────────┐
//!  │ ShardedStoryPipeline            │      │ serve::Client       │
//!  │   shard workers ──► epoch       │ TCP  │   TopK/Poll/Stats   │
//!  │   cells + delta rings           ├──────┤ serve::Subscription │
//!  │     │ publish wakes the loops   │      │   pushed deltas     │
//!  │     ▼                           │      │ serve::Mirror       │
//!  │ serve::StoryServer              │      │   (delta-applied    │
//!  │   event loops over a Poller,    │      │    story mirror)    │
//!  │   bounded write queues          │      └─────────────────────┘
//!  └─────────────────────────────────┘
//! ```
//!
//! The server multiplexes every connection onto a small fixed pool of
//! readiness event loops (unix only: [`StoryServer`] needs a readiness
//! poller; [`Client`], [`Mirror`], [`protocol`] and [`net`] are portable).
//! Each loop attaches one publication waker to the fleet, which covers every
//! shard across splits and merges, and decodes each request frame once
//! before dispatching it. Request types are chosen around what the
//! epoch-pointer design makes cheap:
//!
//! * [`Request::TopK`] — the merged current stories, densest first, with
//!   entity names when the server has a [`NameTable`].
//! * [`Request::Poll`] — the incremental pull: the client sends its
//!   per-shard sequence cursor; the server answers — after one atomic load
//!   per shard — with entries only for shards that advanced, each carrying
//!   the exact [`DenseEvent`](dyndens_core::DenseEvent) suffix since the
//!   cursor (or a resync snapshot once the client fell behind the shard's
//!   delta retention). No long-polling, no per-client server state.
//! * [`Request::Subscribe`] — the push registration: the server remembers
//!   the cursor and fans a `Push` frame out to every subscriber the moment a
//!   shard publishes, one encode per distinct cursor per event loop. Slow
//!   subscribers are evicted with a typed
//!   [`ErrorCode::SlowConsumer`] severance once their bounded write queue
//!   overflows.
//! * [`Request::Stats`] / [`Request::Metrics`] — the merged
//!   [`EngineStats`](dyndens_core::EngineStats) work ledger, per-shard
//!   serving health, and the full observability registry over the wire.
//!
//! Framing reuses the WAL's `len | crc32 | payload` records:
//! [`dyndens_graph::codec::put_frame`] writes them, and one parser,
//! [`dyndens_graph::codec::split_frame`], reads wire frames (bounded by
//! [`MAX_FRAME_LEN`]), WAL records and `entities.log` alike. The server's
//! event loops and the client read sockets through the same
//! [`net::FrameBuffer`]; a [`Client`] is one connection with one read loop,
//! and its [`Subscription`] is that same client in push mode. Message
//! payloads are versioned.
//! The normative byte-level specification is `docs/PROTOCOL.md` at the
//! repository root; `ARCHITECTURE.md` places this crate among the other
//! subsystems.
//!
//! ## Quick start
//!
//! ```
//! use dyndens_core::DynDensConfig;
//! use dyndens_density::AvgWeight;
//! use dyndens_graph::{EdgeUpdate, VertexId};
//! use dyndens_shard::{ShardConfig, ShardedDynDens};
//! use dyndens_serve::{Client, Mirror, StoryServer};
//!
//! let mut fleet = ShardedDynDens::new(AvgWeight, DynDensConfig::new(1.0, 4), ShardConfig::new(2));
//! let server = StoryServer::builder(fleet.view())
//!     .workers(1)
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//!
//! fleet.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 1.5));
//! fleet.flush();
//!
//! // Pull mode: poll with a cursor whenever it suits the reader.
//! let mut client = Client::builder().connect(server.local_addr()).unwrap();
//! let mut mirror = Mirror::new();
//! mirror.poll(&mut client).unwrap();
//! assert_eq!(mirror.vertex_sets().len(), 1);
//!
//! // Push mode: subscribe once, receive deltas as shards publish.
//! let client = Client::builder().connect(server.local_addr()).unwrap();
//! let mut sub = client.subscribe(&[]).unwrap();
//! let mut mirror = Mirror::new();
//! let batch = sub.recv().unwrap().expect("catch-up push");
//! mirror.apply(&batch).unwrap();
//! assert_eq!(mirror.vertex_sets().len(), 1);
//! let _client = sub.unsubscribe().unwrap();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod net;
#[cfg(unix)]
mod poller;
pub mod protocol;
#[cfg(unix)]
pub mod server;

pub use client::{Client, ClientBuilder, ClientError, Mirror, PushBatch, Subscription};
pub use protocol::{
    DecodeFailure, ErrorCode, Request, Response, ServeStats, ShardPoll, ShardStat, WireStory,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
#[cfg(unix)]
pub use server::{NameTable, ServerBuilder, StoryServer};

// Send/Sync audit: server state is shared across the accept thread and the
// event loops, and clients/subscriptions are handed to worker threads in the
// benchmarks.
const _: () = {
    #[cfg(unix)]
    {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoryServer>();
        assert_send_sync::<NameTable>();
    }
    const fn assert_send<T: Send>() {}
    assert_send::<Client>();
    assert_send::<Subscription>();
    assert_send::<Mirror>();
};
