//! # dyndens-shard
//!
//! Sharded parallel ingest and story serving for DynDens: the scale-out layer
//! that turns the single-threaded engine of `dyndens-core` into a
//! multi-core subsystem with non-blocking reads, in the mould of
//! partition-parallel streaming-graph systems (S-Graffito; Nasir et al.'s
//! partitioned top-k densest-subgraph maintenance).
//!
//! ## Architecture
//!
//! ```text
//!                      ┌────────────────────────────────────────────┐
//!  EdgeUpdate stream   │ ShardedDynDens                             │
//!  ────────────────────┤  router: shard_of(min(u, v), N)            │
//!                      │   │bounded MPSC│bounded MPSC│bounded MPSC  │
//!                      │   ▼            ▼            ▼              │
//!                      │ worker 0     worker 1     worker N-1       │
//!                      │ DynDens_0    DynDens_1    DynDens_N-1      │
//!                      │   │ publish    │ publish    │ publish      │
//!                      │   ▼            ▼            ▼              │
//!                      │ epoch cell   epoch cell   epoch cell       │
//!                      └───┬────────────┬────────────┬──────────────┘
//!                          └──── StoryView::snapshot ┘  (readers)
//! ```
//!
//! * **Router** — edge `(u, v)` is owned by `shard_of(min(u, v), N)` (see
//!   [`dyndens_graph::shard_of`]); every update to a given edge therefore
//!   lands on the same shard, in submission order.
//! * **Workers** — each shard worker owns an independent [`DynDens`](dyndens_core::DynDens) engine
//!   over its slice of the edge stream, fed by a bounded MPSC channel
//!   (backpressure by blocking the producer). Each wakeup blocks for one
//!   message, then drains what is already queued until the micro-batch
//!   holds [`ShardConfig::max_batch`] updates (default 1024), so the WAL
//!   record, engine lock and publication amortise across the micro-batch
//!   (applied via `apply_update_into` into one scratch event buffer). A
//!   paced shard's micro-batch is what one wakeup finds queued; under
//!   backlog one publication serves up to `max_batch` updates.
//! * **Read path** — after every micro-batch a worker publishes an immutable
//!   [`ShardSnapshot`] (sequence number, top-k output-dense subgraphs,
//!   [`DenseEvent`](dyndens_core::DenseEvent) deltas, merged-ready [`EngineStats`](dyndens_core::EngineStats)) into an
//!   ArcSwap-style [`EpochCell`]. [`StoryView::snapshot`] merges the shard
//!   snapshots into a sequence-numbered top-k view without ever blocking the
//!   writers for more than a pointer clone.
//! * **Poll path** — each publication also stamps the cell's atomic sequence
//!   number ([`EpochCell::seq`], one relaxed load to check for progress) and
//!   appends the micro-batch's events to a bounded per-shard [`DeltaRing`].
//!   [`StoryView::deltas_since`] turns the two into a cheap incremental read:
//!   a reader that last saw sequence `s` gets back either *nothing changed*,
//!   the exact contiguous event suffix after `s`, or a *resync* directive
//!   once it falls behind the retention bound. This is the substrate the
//!   `dyndens-serve` wire protocol's `Poll` request is built on.
//!
//! ## The partitioning invariant
//!
//! Each shard maintains dense subgraphs over **its slice of the graph**: the
//! edges whose minimum endpoint hashes to it. The union of the shards'
//! output-dense sets equals the single-engine answer exactly when no
//! output-relevant subgraph spans two shards, i.e. when every maintained
//! subgraph's edges share an owner shard. Two workload properties make this
//! hold (and are asserted by the equivalence tests):
//!
//! 1. **co-location** — each dense community's edges map to one shard (e.g.
//!    communities drawn from congruence classes under
//!    [`ShardFn::Modulo`], or any partition-aligned entity id assignment);
//! 2. **no too-dense escalation** — scores stay below the too-dense bound,
//!    so no `*`-marker machinery materialises subgraphs through edges that
//!    are disjoint from the community (the one mechanism that can couple
//!    otherwise edge-disjoint vertex groups).
//!
//! On workloads that violate the invariant the subsystem still runs and is
//! deterministic per shard, but reports the union of per-shard answers — a
//! partition approximation of the global answer, the standard trade taken by
//! partition-parallel dense-subgraph systems. Entity resolution in the story
//! pipeline can route co-occurring entities to the same congruence class to
//! keep the invariant in practice.
//!
//! ## Durability
//!
//! [`ShardedDynDens::with_persistence`] makes each shard crash-safe: the
//! worker appends every micro-batch to a per-shard write-ahead log
//! ([`wal`]) *before* applying it, and checkpoints its engine with
//! [`DynDens::snapshot`](dyndens_core::DynDens::snapshot) once it has applied
//! [`PersistenceConfig::snapshot_every_updates`] updates since the last
//! checkpoint, so the WAL tail recovery replays stays bounded in updates
//! whatever the micro-batch sizes. The worker
//! serialises the image and rotates the WAL; a checkpoint writer thread of
//! its own makes the image durable, and the worker prunes the WAL behind it
//! only once the writer reports it so. Recovery
//! ([`recovery`]) is `newest valid snapshot + WAL tail replay` and rebuilds
//! a state **bit-identical** to a worker that never crashed, without
//! double-counting replayed updates into [`EngineStats`](dyndens_core::EngineStats).
//!
//! ## Live rebalancing
//!
//! Routing is a level of indirection, not a fixed function: updates flow
//! through a **generational shard map** ([`dyndens_graph::ShardMap`], a
//! route trie refined one split at a time and persisted in the deployment
//! `MANIFEST`). [`ShardedDynDens::split_shard`] splits a hot shard online
//! and [`ShardedDynDens::merge_shards`] folds two cold sibling slots back
//! into one, as two parameterisations of one reshape transaction that pauses
//! only the affected slots while ingest everywhere else continues and
//! readers resynchronise through the ordinary [`StoryView`] plumbing. The
//! [`rebalance`] module documents the protocol, the equivalence guarantee
//! (split-or-merge-mid-stream == never-refined, bit for bit, under the
//! partitioning invariant) and the failure semantics;
//! [`rebalance::Rebalancer`] turns the fleet's queue depth and skew signals
//! into split decisions and its cold-slot signals into merge decisions.
//!
//! ## Bounded state
//!
//! On decaying workloads, [`ShardedDynDens::compact_below`] reclaims what
//! decay has abandoned: each worker journals the cancelling updates of its
//! fully-decayed edges
//! ([`DynDens::edges_below`](dyndens_core::DynDens::edges_below))
//! to the WAL, applies that list through the ordinary update path, then
//! checkpoints and prunes the WAL segments wholly behind the checkpoint.
//! Together with shard merging this keeps a forever-run's memory and disk
//! footprint proportional to the *live* story set, not the stream's history
//! — see `docs/RETENTION.md` for the operational model.
//!
//! ## What the fleet derives
//!
//! The fleet calls the engine's own methods and computes nothing the engine
//! could answer itself. Three derivations rest on properties of
//! [`DynDens`](dyndens_core::DynDens) that `tests/engine_contracts.rs` checks
//! on random streams:
//!
//! * **Counts.** A published snapshot's output-dense count is the total
//!   [`top_stories`](dyndens_core::DynDens::top_stories) returns beside its
//!   `k` stories, and [`ShardedDynDens::output_dense_count`] sums
//!   [`output_dense_count`](dyndens_core::DynDens::output_dense_count); both
//!   count without materialising a set, and must agree.
//! * **Uncounted replay.** Recovery restores a checkpoint, clones
//!   [`stats`](dyndens_core::DynDens::stats), replays the WAL tail through
//!   [`apply_update_into`](dyndens_core::DynDens::apply_update_into) and hands
//!   the clone back through
//!   [`adopt_stats`](dyndens_core::DynDens::adopt_stats): the replayed
//!   updates were counted before the crash. So the ledger must influence
//!   nothing but itself — were the engine's answers or snapshot bytes
//!   (ledger aside) to depend on its counters, recovery would break.
//! * **Eviction is streamed cancellation.** Compaction journals
//!   [`edges_below(w)`](dyndens_core::DynDens::edges_below) to the WAL and
//!   applies *that list* through `apply_update_into`, which is by
//!   construction what crash replay runs on those records. So applying the
//!   list must leave `edges_below(w)` empty, and the engine in the state of
//!   one that received the same updates from the stream.
//!   [`reclaim_idle`](dyndens_core::DynDens::reclaim_idle) follows, and
//!   changes nothing observable.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod obs;
pub mod rebalance;
pub mod recovery;
pub mod sharded;
pub mod view;
pub mod wal;
mod worker;

pub use config::{FsyncPolicy, PersistenceConfig, ShardConfig, ShardFn};
pub use dyndens_obs::RebalanceStage;
pub use rebalance::{MergeReport, RebalanceError, RebalancePolicy, Rebalancer, SplitReport};
pub use recovery::{RecoveryError, RecoveryReport};
pub use sharded::{IngestHandle, ShardedDynDens};
pub use view::{
    DeltaBatch, DeltaCatchUp, DeltaRing, EpochCell, MergedStories, PublishWaker, ShardSnapshot,
    StoryView,
};
pub use wal::{WalRecord, WalWriter};

// Send/Sync audit: the engine and every payload crossing a worker-thread
// boundary must be shareable. Enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<dyndens_core::DynDens<dyndens_density::AvgWeight>>();
    assert_send_sync::<dyndens_core::DenseEvent>();
    assert_send_sync::<dyndens_core::EngineStats>();
    assert_send_sync::<view::ShardSnapshot>();
    assert_send_sync::<view::StoryView>();
};
