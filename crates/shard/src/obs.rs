//! Internal instrumentation bundles: pre-registered metric handles for the
//! shard subsystem's hot paths.
//!
//! Every per-shard series is labelled `engine="<id>"`, the engine id that
//! names the slice's `shard-<id>` directory. The routing map never reuses an
//! id, so a series belongs to one engine for its whole life: a reshape adds
//! the targets' series and drops the retired sources' ones, and nothing is
//! ever relabelled. `dyndens_shard_slot{engine}` maps each live engine to
//! its roster slot.
//!
//! All registration (name interning, label formatting) happens once, at
//! worker spawn; the hot paths then touch only the `Arc`'d atomic handles
//! inside these bundles. Every site is gated on the deployment's
//! [`ObsHandle`](dyndens_obs::ObsHandle) being enabled, so the
//! uninstrumented fast path stays a branch on `None`.

use std::time::Duration;

use dyndens_core::EngineStats;
use dyndens_obs::{names, Counter, Gauge, Histogram, Registry};

/// A worker's pre-registered handles: batch/apply metrics plus the engine
/// gauge block.
#[derive(Debug)]
pub(crate) struct ShardObs {
    batches: Counter,
    updates: Counter,
    apply_us: Histogram,
    publish_us: Histogram,
    batch_size: Histogram,
    checkpoints: Counter,
    checkpoint_us: Histogram,
    checkpoint_bytes: Gauge,
    engine_gauges: Vec<Gauge>,
}

impl ShardObs {
    /// The handles labelled with engine `id`, with the engine gauges set
    /// from `stats`, the ledger the engine's feed publishes now: a reshape's
    /// target starts from its sources' ledger, and a scrape taken before its
    /// first publication shows that ledger, not zeros.
    pub(crate) fn for_engine(registry: &Registry, id: u64, stats: &EngineStats) -> Self {
        let label = id.to_string();
        let labels: &[(&str, &str)] = &[("engine", label.as_str())];
        let obs = ShardObs {
            batches: registry.counter(names::SHARD_BATCHES_APPLIED_TOTAL, labels),
            updates: registry.counter(names::SHARD_UPDATES_APPLIED_TOTAL, labels),
            apply_us: registry.histogram(names::SHARD_APPLY_LATENCY_US, labels),
            publish_us: registry.histogram(names::SHARD_PUBLISH_LATENCY_US, labels),
            batch_size: registry.histogram(names::SHARD_BATCH_SIZE, labels),
            checkpoints: registry.counter(names::CHECKPOINTS_TOTAL, labels),
            checkpoint_us: registry.histogram(names::CHECKPOINT_LATENCY_US, labels),
            checkpoint_bytes: registry.gauge(names::CHECKPOINT_BYTES, labels),
            // One gauge per ledger counter, named after it.
            engine_gauges: EngineStats::COUNTERS
                .iter()
                .map(|(name, ..)| registry.gauge(&format!("dyndens_engine_{name}"), labels))
                .collect(),
        };
        obs.set_engine_gauges(stats);
        obs
    }

    /// Records one applied and published micro-batch: counters and
    /// latency/size histograms. `publish` runs from the applied batch to its
    /// snapshot being visible and its wakers fired.
    pub(crate) fn record_batch(&self, batch: usize, apply: Duration, publish: Duration) {
        self.batches.inc();
        self.updates.add(batch as u64);
        self.apply_us.record_micros(apply);
        self.publish_us.record_micros(publish);
        self.batch_size.record(batch as u64);
    }

    /// Records one engine checkpoint written to disk.
    pub(crate) fn record_checkpoint(&self, bytes: u64, elapsed: Duration) {
        self.checkpoints.inc();
        self.checkpoint_us.record_micros(elapsed);
        self.checkpoint_bytes.set(bytes);
    }

    /// Mirrors the engine's merged-ready counters into per-shard gauges.
    pub(crate) fn set_engine_gauges(&self, stats: &EngineStats) {
        for ((_, get, _), gauge) in EngineStats::COUNTERS.iter().zip(&self.engine_gauges) {
            gauge.set(get(stats));
        }
    }
}

/// The WAL writer's pre-registered handles.
#[derive(Debug)]
pub(crate) struct WalObs {
    pub appends: Counter,
    pub append_bytes: Counter,
    pub append_us: Histogram,
    pub fsyncs: Counter,
    pub fsync_us: Histogram,
    pub rotations: Counter,
    pub segments_pruned: Counter,
    pub segments: Gauge,
    pub segment_bytes: Gauge,
}

impl WalObs {
    pub(crate) fn for_engine(registry: &Registry, id: u64) -> Self {
        let label = id.to_string();
        let labels: &[(&str, &str)] = &[("engine", label.as_str())];
        WalObs {
            appends: registry.counter(names::WAL_APPENDS_TOTAL, labels),
            append_bytes: registry.counter(names::WAL_APPEND_BYTES_TOTAL, labels),
            append_us: registry.histogram(names::WAL_APPEND_LATENCY_US, labels),
            fsyncs: registry.counter(names::WAL_FSYNCS_TOTAL, labels),
            fsync_us: registry.histogram(names::WAL_FSYNC_LATENCY_US, labels),
            rotations: registry.counter(names::WAL_ROTATIONS_TOTAL, labels),
            segments_pruned: registry.counter(names::WAL_SEGMENTS_PRUNED_TOTAL, labels),
            segments: registry.gauge(names::WAL_SEGMENTS, labels),
            segment_bytes: registry.gauge(names::WAL_SEGMENT_BYTES, labels),
        }
    }
}
