//! The live wire scrape: a persistent fleet and a story server on one
//! registry, a polling follower riding along, a split mid-stream, a
//! compaction pass after the tail, and then the `Metrics` request an
//! operator's collector would send — checked for being lit end to end and
//! self-consistent.
//!
//! The text exposition's line grammar is held by
//! `crates/obs/tests/registry.rs`; this suite checks that the live series
//! are *in* it.

mod support;

use std::sync::Arc;

use dyndens::prelude::*;
use dyndens::serve::{Client, Mirror, StoryServer};
use dyndens_obs::{names, ObsEvent, ObsHandle, Registry};
use support::{engine_config, shard_aligned_stream, shard_config, temp_dir};

const N_UPDATES: usize = 16_384;
const CHUNK: usize = 512;

#[test]
fn wire_scrape_of_a_live_split_fleet_is_lit_and_self_consistent() {
    let updates = shard_aligned_stream(N_UPDATES, 8, 2012);
    let dir = temp_dir("obs-live-scrape");
    let registry = Arc::new(Registry::new());
    let mut fleet = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2).with_obs(Arc::clone(&registry)),
        PersistenceConfig::new(&dir).with_fsync(FsyncPolicy::Always),
    )
    .expect("persistent fleet");
    let obs = ObsHandle::new(Arc::clone(&registry));
    let server = StoryServer::builder(fleet.view())
        .obs(obs)
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::builder()
        .connect(server.local_addr())
        .expect("connect");
    let mut follower = Mirror::new();

    for (i, chunk) in updates.chunks(CHUNK).enumerate() {
        fleet.apply_batch(chunk);
        follower.poll(&mut client).expect("poll");
        if (i + 1) * CHUNK == N_UPDATES / 2 {
            fleet.split_shard(0).expect("mid-stream split");
        }
    }
    fleet.flush();
    while follower.poll(&mut client).expect("poll") {}

    // Compact at the median final edge weight: every shard evicts, so each
    // one's sequence number moves past the tail.
    let mut graph = DynamicGraph::new();
    for u in &updates {
        graph.apply_update(u);
    }
    let mut weights: Vec<f64> = graph.edges().map(|(_, _, w)| w).collect();
    weights.sort_by(f64::total_cmp);
    let tail_seqs = fleet.view().per_shard_seq();
    assert!(fleet.compact_below(weights[weights.len() / 2]) > 0);
    let compacted_seqs = fleet.view().per_shard_seq();
    for (shard, (before, after)) in tail_seqs.iter().zip(&compacted_seqs).enumerate() {
        assert!(after > before, "shard {shard} evicted nothing");
    }
    while follower.poll(&mut client).expect("poll") {}
    client.top_k(8).expect("top_k");
    client.stats().expect("stats");

    let snapshot = client.metrics().expect("metrics scrape");

    // Durability before visibility pairs WAL appends 1:1 with applied
    // batches — a compaction pass is one more batch — and `Always` fsyncs
    // each of them.
    let wal_appends = snapshot.counter_total(names::WAL_APPENDS_TOTAL);
    assert!(wal_appends > 0, "no WAL appends recorded");
    assert_eq!(
        wal_appends,
        snapshot.counter_total(names::SHARD_BATCHES_APPLIED_TOTAL),
        "every applied batch must have been WAL-appended first, and nothing else may append"
    );
    assert!(snapshot.counter_total(names::WAL_FSYNCS_TOTAL) > 0);

    // One apply-latency series per engine that ever ran: the two base
    // shards and the split's children.
    let histograms = &snapshot.histograms;
    let apply_series = histograms
        .iter()
        .filter(|h| h.name.name == names::SHARD_APPLY_LATENCY_US && h.hist.count > 0);
    assert!(apply_series.count() >= 3, "per-shard apply series missing");

    for kind in ["poll", "top_k", "stats"] {
        let served = histograms.iter().find(|h| {
            h.name.name == names::SERVE_REQUEST_LATENCY_US && h.name.label("type") == Some(kind)
        });
        assert!(
            served.is_some_and(|h| h.hist.count > 0),
            "no {kind} request latency recorded"
        );
    }

    // The split left its lifecycle in the journal and its pause in the
    // histogram operators alert on.
    let committed = snapshot.events.iter().filter(|record| {
        matches!(
            record.event,
            ObsEvent::SplitPhase {
                stage: RebalanceStage::Committed,
                ..
            }
        )
    });
    assert!(
        committed.count() >= 1,
        "no Committed split event journalled"
    );
    let pause = snapshot.merged_histogram(names::REBALANCE_PAUSE_US);
    assert!(pause.count >= 1, "the split recorded no pause");

    let exposition = snapshot.to_prometheus();
    for series in [
        names::WAL_APPENDS_TOTAL,
        names::SHARD_BATCHES_APPLIED_TOTAL,
        names::WAL_FSYNCS_TOTAL,
        names::SHARD_APPLY_LATENCY_US,
        names::SERVE_REQUEST_LATENCY_US,
        names::REBALANCE_PAUSE_US,
    ] {
        assert!(exposition.contains(series), "{series} not exposed");
    }

    drop(client);
    drop(server);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
