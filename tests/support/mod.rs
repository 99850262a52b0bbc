//! Shared fixtures for the repository-level equivalence suites.
//!
//! Every suite drives the same canonical partition-aligned stream through
//! the same canonical engine/shard configuration; the definitions live in
//! `dyndens_workloads::oracle` (the differential oracle uses them too) and
//! this module re-exports them next to the handful of purely test-side
//! helpers (temp dirs, persistence cadences, f64-keyed sorting).

// Each integration-test binary compiles this module independently and uses
// its own slice of the helpers.
#![allow(dead_code)]
#![allow(unused_imports)]

use std::path::{Path, PathBuf};

use dyndens::prelude::*;
use dyndens::stream::{ChiSquareCorrelation, EdgeUpdateGenerator};
use dyndens::workloads::tweets::default_stories;
use dyndens::workloads::{TweetSimulator, TweetSimulatorConfig};

pub use dyndens::workloads::oracle::{engine_config, shard_config, sorted_bits};
pub use dyndens::workloads::{shard_aligned_stream, Leg, Oracle};

/// Canonical stream length of the equivalence suites.
pub const N_UPDATES: usize = 50_000;
/// Canonical ingest chunk (matches the oracle's).
pub const CHUNK: usize = 256;

/// The canonical 50k-update partition-aligned stream (alignment 8, the
/// paper's publication year as seed) every equivalence suite ingests.
pub fn canonical_stream() -> Vec<EdgeUpdate> {
    shard_aligned_stream(N_UPDATES, 8, 2012)
}

/// The canonical serving-layer shard configuration: untruncated top-k (so
/// resync snapshots carry the full per-shard story sets) and a retention
/// far below the stream's publication count (so late joiners genuinely
/// exercise the resync path).
pub fn serve_shard_config(n_shards: usize) -> ShardConfig {
    shard_config(n_shards)
        .with_top_k(usize::MAX)
        .with_delta_retention(16)
}

/// Story sets sorted by vertex set, densities kept as `f64`.
pub fn sorted_sets(mut sets: Vec<(VertexSet, f64)>) -> Vec<(VertexSet, f64)> {
    sets.sort_by(|a, b| a.0.cmp(&b.0));
    sets
}

/// A per-test temp dir, cleared of any previous run's leftovers.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dyndens-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical crash-recovery persistence setup: no fsync (the tests kill
/// the process politely), a snapshot every 512 updates (eight of the
/// canonical configuration's 64-update micro-batches), small WAL segments so
/// rotation is exercised.
pub fn persistence(dir: &Path) -> PersistenceConfig {
    PersistenceConfig::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshot_every_updates(512)
        .with_segment_max_bytes(64 << 10)
}

/// Persistence with a custom snapshot cadence (the rebalance suite uses a
/// sparser cadence so split checkpoints dominate WAL-slice replay).
pub fn persistence_every(dir: &Path, snapshot_every_updates: usize) -> PersistenceConfig {
    PersistenceConfig::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshot_every_updates(snapshot_every_updates)
}

/// The weighted tweet stream of the repo benchmark's `weighted_dense`
/// workload at its run size (blog entity mix over 2 000 background entities,
/// 18 000 posts in 2.4 simulated hours, `ChiSquareCorrelation` with the
/// paper's two-hour decay), first `len` updates.
pub fn tweet_stream(seed: u64, len: usize) -> Vec<EdgeUpdate> {
    const STRETCH: f64 = 2.0 * 0.05;
    let stories = default_stories()
        .into_iter()
        .map(|s| {
            let (start, end) = (s.start * STRETCH, s.end * STRETCH);
            s.with_window(start, end)
        })
        .collect();
    let corpus = TweetSimulator::new(TweetSimulatorConfig {
        n_posts: 18_000,
        n_background_entities: 2_000,
        duration: 24.0 * 3600.0 * STRETCH,
        entity_count_mix: (0.40, 0.25, 0.20, 0.15),
        stories,
        seed,
        ..TweetSimulatorConfig::default()
    })
    .generate();
    let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), 7200.0);
    let mut updates = Vec::with_capacity(len + 64);
    for post in &corpus.posts {
        generator.process_post_into(post, &mut updates);
        if updates.len() >= len {
            break;
        }
    }
    assert!(updates.len() >= len, "the corpus lowers to too few updates");
    updates.truncate(len);
    updates
}

/// The engine configuration [`tweet_stream`] is driven at (the benchmark's
/// `weighted_dense` operating point: `*` markers and covered bands appear).
pub fn tweet_config() -> DynDensConfig {
    DynDensConfig::new(0.25, 5).with_delta_it_fraction(0.25)
}
