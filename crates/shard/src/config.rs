//! Configuration of the sharded subsystem.

use std::path::PathBuf;
use std::sync::Arc;

use dyndens_obs::{ObsHandle, Registry};

/// The base shard-assignment function, re-exported from
/// [`dyndens_graph::shard_map`] where it now lives alongside the
/// generational [`ShardMap`](dyndens_graph::ShardMap) routing table that
/// refines it during live rebalancing (see [`crate::rebalance`]).
pub use dyndens_graph::ShardFn;

/// Configuration of a [`ShardedDynDens`](crate::ShardedDynDens) deployment.
///
/// Equality ignores the [`ShardConfig::obs`] handle: two configs that differ
/// only in where their telemetry goes describe the same deployment shape.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of **base** shard workers (>= 1). This is generation zero of
    /// the deployment's routing table; live rebalancing
    /// ([`ShardedDynDens::split_shard`](crate::ShardedDynDens::split_shard))
    /// can grow the worker count beyond it without changing this value.
    pub n_shards: usize,
    /// Bound of each worker's MPSC inbox, in messages. Producers block once a
    /// shard falls this far behind (backpressure).
    pub channel_capacity: usize,
    /// The most updates a worker drains per wakeup. A drain blocks for one
    /// message, then takes what is already queued until it holds this many
    /// updates; the drained micro-batch is one WAL record, applied under a
    /// single engine lock, and one snapshot publication. A paced shard's
    /// micro-batch is what one wakeup finds queued, so the bound only bites
    /// under backlog, where one publication then serves up to this many
    /// updates.
    pub max_batch: usize,
    /// Number of top stories each shard publishes and the merged view serves.
    pub top_k: usize,
    /// Number of published micro-batches of [`DenseEvent`] deltas each shard
    /// retains in its [`DeltaRing`], bounding how far a polling reader may
    /// fall behind before it must resynchronise from a full snapshot.
    ///
    /// [`DenseEvent`]: dyndens_core::DenseEvent
    /// [`DeltaRing`]: crate::view::DeltaRing
    pub delta_retention: usize,
    /// The shard-assignment function.
    pub shard_fn: ShardFn,
    /// Observability sink. Disabled by default; attach a shared
    /// [`Registry`] with [`ShardConfig::with_obs`] to have workers, WAL,
    /// recovery and rebalancing record metrics and journal events into it.
    pub obs: ObsHandle,
}

impl PartialEq for ShardConfig {
    fn eq(&self, other: &Self) -> bool {
        self.n_shards == other.n_shards
            && self.channel_capacity == other.channel_capacity
            && self.max_batch == other.max_batch
            && self.top_k == other.top_k
            && self.delta_retention == other.delta_retention
            && self.shard_fn == other.shard_fn
    }
}

impl Eq for ShardConfig {}

impl ShardConfig {
    /// A configuration with the given shard count and the defaults:
    /// capacity 1024, micro-batches of up to 1024 updates, top-16 stories,
    /// 256 retained delta batches, hashed sharding.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: usize) -> Self {
        assert!(
            n_shards > 0,
            "a sharded deployment needs at least one shard"
        );
        ShardConfig {
            n_shards,
            channel_capacity: 1024,
            max_batch: 1024,
            top_k: 16,
            delta_retention: 256,
            shard_fn: ShardFn::Hashed,
            obs: ObsHandle::none(),
        }
    }

    /// Sets the per-shard channel capacity (clamped to at least 1).
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity.max(1);
        self
    }

    /// Sets the micro-batch drain bound, in updates (clamped to at least 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the number of stories kept per snapshot.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Sets the per-shard delta retention bound, in micro-batches (clamped to
    /// at least 1).
    pub fn with_delta_retention(mut self, batches: usize) -> Self {
        self.delta_retention = batches.max(1);
        self
    }

    /// Sets the shard-assignment function.
    pub fn with_shard_fn(mut self, shard_fn: ShardFn) -> Self {
        self.shard_fn = shard_fn;
        self
    }

    /// Attaches a shared metrics registry; every layer of the deployment
    /// (workers, WAL, recovery, rebalancing) then records into it.
    pub fn with_obs(mut self, registry: Arc<Registry>) -> Self {
        self.obs = ObsHandle::new(registry);
        self
    }
}

impl Default for ShardConfig {
    /// One shard per available CPU core (capped at 8), with the standard
    /// queueing parameters.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ShardConfig::new(cores.min(8))
    }
}

/// When WAL appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: a committed micro-batch survives even
    /// an OS/power crash, at the cost of one sync per batch on the ingest
    /// path.
    Always,
    /// Leave flushing to the OS page cache: records survive a process crash
    /// (the common failure mode for a shard worker) but the tail written in
    /// the seconds before an OS crash may be lost. The default — recovery
    /// handles a torn tail either way.
    Never,
}

/// Configuration of the per-shard persistence layer (WAL + snapshots), used
/// by [`ShardedDynDens::with_persistence`](crate::ShardedDynDens::with_persistence).
///
/// Layout on disk: `dir/shard-NNNN/` holds each shard's WAL segments
/// (`wal-XXXXXXXX.log`) and engine snapshots (`snap-<seq>.snap`). Recovery
/// loads the newest valid snapshot and replays the WAL tail past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Root directory of the deployment's persistent state.
    pub dir: PathBuf,
    /// A snapshot is written (and the WAL pruned) once a shard has applied
    /// this many updates since its last one, at the end of the micro-batch
    /// that reaches the count. Whatever the micro-batch sizes, the WAL tail
    /// past a shard's newest checkpoint then stays under this many updates,
    /// which is what recovery replays (plus the span of a checkpoint still
    /// in flight, or failed, at the crash). Smaller values bound recovery
    /// time tighter; larger values cost less on the ingest path.
    pub snapshot_every_updates: usize,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Size bound after which a WAL segment is rotated.
    pub segment_max_bytes: u64,
}

impl PersistenceConfig {
    /// A configuration rooted at `dir` with the defaults: snapshot every
    /// 4096 updates, no per-record fsync, 8 MiB segments. Every shard keeps
    /// [`RETAINED_SNAPSHOTS`](crate::recovery::RETAINED_SNAPSHOTS)
    /// snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig {
            dir: dir.into(),
            snapshot_every_updates: 4096,
            fsync: FsyncPolicy::Never,
            segment_max_bytes: 8 << 20,
        }
    }

    /// Sets the snapshot cadence in updates (clamped to at least 1).
    pub fn with_snapshot_every_updates(mut self, updates: usize) -> Self {
        self.snapshot_every_updates = updates.max(1);
        self
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the WAL segment rotation bound (clamped to at least 4 KiB).
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(4 << 10);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_graph::VertexId;

    #[test]
    fn builders_round_trip() {
        let c = ShardConfig::new(4)
            .with_channel_capacity(16)
            .with_max_batch(8)
            .with_top_k(5)
            .with_shard_fn(ShardFn::Modulo);
        assert_eq!(c.n_shards, 4);
        assert_eq!(c.channel_capacity, 16);
        assert_eq!(c.max_batch, 8);
        assert_eq!(c.top_k, 5);
        assert_eq!(c.shard_fn, ShardFn::Modulo);
    }

    #[test]
    fn clamps_degenerate_values() {
        let c = ShardConfig::new(1)
            .with_channel_capacity(0)
            .with_max_batch(0);
        assert_eq!(c.channel_capacity, 1);
        assert_eq!(c.max_batch, 1);
        assert!(ShardConfig::default().n_shards >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardConfig::new(0);
    }

    #[test]
    fn persistence_builders_and_clamps() {
        let p = PersistenceConfig::new("/tmp/x")
            .with_snapshot_every_updates(0)
            .with_fsync(FsyncPolicy::Always)
            .with_segment_max_bytes(1);
        assert_eq!(p.snapshot_every_updates, 1);
        assert_eq!(p.fsync, FsyncPolicy::Always);
        assert_eq!(p.segment_max_bytes, 4 << 10);
        let d = PersistenceConfig::new("/tmp/y");
        assert_eq!(d.snapshot_every_updates, 4096);
        assert_eq!(d.fsync, FsyncPolicy::Never);
    }

    #[test]
    fn shard_fns_stay_in_range_and_agree_on_determinism() {
        for n in [1usize, 2, 3, 8] {
            for v in 0..100u32 {
                let h = ShardFn::Hashed.shard(VertexId(v), n);
                let m = ShardFn::Modulo.shard(VertexId(v), n);
                assert!(h < n && m < n);
                assert_eq!(m, v as usize % n);
                assert_eq!(h, ShardFn::Hashed.shard(VertexId(v), n));
            }
        }
    }
}
