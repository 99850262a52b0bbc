//! End-to-end serving equivalence: a TCP client that follows `Poll` deltas
//! must reconstruct story sets **byte-identical** to what an in-process
//! [`StoryView`] reader observes, on the same 50k-update partition-aligned
//! stream the sharded-equivalence suite uses — both when polling continuously
//! during ingest (the delta path) and when joining late (the resync path).
//!
//! The oracle's serve leg (see `dyndens_workloads::oracle`) runs the pushed
//! subscription path on every workload; this suite keeps the poll-driven
//! follower, the wire-level top-k/stats/error checks, and the
//! subscription-across-split scenario.

mod support;

use dyndens::prelude::*;
use dyndens::serve::{Client, Mirror, ShardPoll, StoryServer};
use std::time::Duration;
use support::{canonical_stream, engine_config, serve_shard_config, sorted_sets};

#[test]
fn polling_client_reconstructs_story_sets_on_50k_stream() {
    let updates = canonical_stream();
    // Untruncated top-k publication + small retention (see
    // `support::serve_shard_config`): resync snapshots are complete, so the
    // reconstruction claim is exact, while a late joiner genuinely exercises
    // the resync path below. A continuously-polling follower (one poll per
    // 512-update chunk) stays comfortably covered by the retention.
    let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), serve_shard_config(2));
    let server = StoryServer::builder(fleet.view())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Mirror A polls concurrently with ingest: it advances almost entirely
    // through contiguous delta suffixes.
    let mut client = Client::builder().connect(addr).unwrap();
    let mut follower = Mirror::new();
    for chunk in updates.chunks(512) {
        fleet.apply_batch(chunk);
        follower.poll(&mut client).unwrap();
    }
    fleet.flush();
    while follower.poll(&mut client).unwrap() {}
    assert!(
        follower.events_applied() > 0,
        "an actively-following cursor should advance through delta suffixes"
    );

    // Precondition of exact delta-reconstruction (same as the sharded
    // equivalence suite): the workload stays below the too-dense regime, so
    // every output-dense subgraph is explicitly materialised and evented.
    let stats = fleet.stats();
    assert_eq!(stats.star_markers_created, 0);
    assert_eq!(stats.updates, updates.len() as u64);

    // Ground truth: the in-process view (untruncated top_k ⇒ the full sets).
    let view = fleet.view();
    let merged = view.snapshot();
    assert_eq!(merged.seq, updates.len() as u64);
    let want = sorted_sets(merged.stories.clone());
    assert!(
        want.len() >= 10,
        "degenerate workload: {} stories",
        want.len()
    );

    // The delta-following mirror reconstructs the identical story sets.
    let got = follower.story_sets();
    assert_eq!(
        follower.vertex_sets(),
        want.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
        "delta-followed story sets diverge from the in-process view"
    );
    assert_eq!(got.len(), want.len());
    assert_eq!(follower.cursor().iter().sum::<u64>(), updates.len() as u64);

    // A late joiner is told to resync (its cursor predates retention), and
    // lands on the same sets — including byte-identical densities, since a
    // resync snapshot carries the engine's current scores.
    let (_, entries) = client.poll(&[0, 0]).unwrap();
    assert!(
        entries
            .iter()
            .any(|e| matches!(e, ShardPoll::Resync { .. })),
        "a cursor behind the retention bound must be resynced"
    );
    let mut late = Mirror::new();
    while late.poll(&mut client).unwrap() {}
    let late_sets = late.story_sets();
    assert_eq!(late_sets.len(), want.len());
    for ((gs, gd), (ws, wd)) in late_sets.iter().zip(&want) {
        assert_eq!(gs, ws);
        assert_eq!(gd.to_bits(), wd.to_bits(), "score bits diverge on {gs}");
    }

    // The TopK path serves the merged view byte-identically.
    let (per_shard_seq, stories) = client.top_k(u32::MAX).unwrap();
    assert_eq!(per_shard_seq, merged.per_shard_seq);
    assert_eq!(stories.len(), merged.stories.len());
    for (wire, (set, density)) in stories.iter().zip(&merged.stories) {
        assert_eq!(&wire.vertices, set);
        assert_eq!(wire.density.to_bits(), density.to_bits());
        assert!(wire.entities.is_empty(), "no name table was published");
    }

    // And the stats path reports the merged work ledger plus the serving
    // layer's own counters (this connection made every request counted).
    let (wire_stats, serve_stats, shard_stats) = client.stats().unwrap();
    assert_eq!(wire_stats, view.stats());
    assert!(serve_stats.requests_served > 0);
    assert!(serve_stats.conns_accepted >= 1);
    assert!(
        serve_stats.resyncs_served >= 1,
        "the late joiner above was resynced"
    );
    assert_eq!(shard_stats.len(), 2);
    assert_eq!(
        shard_stats.iter().map(|s| s.seq).sum::<u64>(),
        updates.len() as u64
    );
    for s in &shard_stats {
        let from = s.delta_coverage_from.expect("shards have published");
        assert!(from > 0, "retention should have evicted early batches");
        assert!(from < s.seq);
    }
}

#[test]
fn named_stories_and_error_replies() {
    let mut fleet = ShardedDynDens::new(
        AvgWeight,
        DynDensConfig::new(1.0, 4),
        ShardConfig::new(2).with_shard_fn(ShardFn::Modulo),
    );
    let server = StoryServer::builder(fleet.view())
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .names()
        .publish(vec!["NATO".into(), "Libya".into(), "Sony".into()]);
    fleet.apply_batch(&[
        EdgeUpdate::new(VertexId(0), VertexId(2), 1.5),
        EdgeUpdate::new(VertexId(1), VertexId(3), 1.5),
    ]);
    fleet.flush();

    let mut client = Client::builder().connect(server.local_addr()).unwrap();
    let (_, stories) = client.top_k(10).unwrap();
    assert_eq!(stories.len(), 2);
    let all_entities: Vec<String> = stories.iter().flat_map(|s| s.entities.clone()).collect();
    assert!(all_entities.contains(&"NATO".to_string()));
    assert!(
        all_entities.contains(&"entity#3".to_string()),
        "vertices beyond the published table fall back to ids: {all_entities:?}"
    );

    // A cursor of the wrong length means the reader's topology is stale
    // (e.g. it predates a shard split): the server treats it as a bootstrap
    // cursor and rebases every shard in the same reply, no error round-trip.
    let (n_shards, entries) = client.poll(&[7, 7, 7]).unwrap();
    assert_eq!(n_shards, 2);
    assert_eq!(entries.len(), 2, "every shard rebases the stale reader");
    let (n_shards, _) = client.poll(&[0, 0]).unwrap();
    assert_eq!(n_shards, 2);
}

/// The push path under a topology change: a subscriber that registered on a
/// 2-shard fleet keeps its mirrored story sets byte-identical to the
/// in-process [`StoryView`] across a mid-stream `split_shard`, honoring the
/// resync directive the server pushes when the shard count changes — without
/// ever re-registering.
#[test]
fn subscriber_mirror_survives_a_mid_stream_shard_split() {
    let updates = support::shard_aligned_stream(16_000, 8, 77);
    let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), serve_shard_config(2));
    let server = StoryServer::builder(fleet.view())
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();

    let client = Client::builder()
        .read_timeout(Some(Duration::from_secs(60)))
        .connect(server.local_addr())
        .unwrap();
    let mut sub = client.subscribe(&[]).unwrap();
    let mut mirror = Mirror::new();

    // First half on the 2-shard topology, draining pushes as they arrive.
    let (head, tail) = updates.split_at(8_000);
    for chunk in head.chunks(512) {
        fleet.apply_batch(chunk);
        while let Some(batch) = sub.try_next().unwrap() {
            mirror.apply(&batch).unwrap();
        }
    }
    fleet.flush();
    let target = fleet.view().per_shard_seq();
    while mirror.cursor() != target.as_slice() {
        let batch = sub.recv().unwrap().expect("server alive");
        mirror.apply(&batch).unwrap();
    }
    assert_eq!(mirror.cursor().len(), 2);

    // Mid-stream topology change: the server must rebase the live
    // subscription onto the 3-shard cursor via pushed resyncs.
    let report = fleet.split_shard(0).unwrap();
    assert_eq!(report.new_slot, 2);
    let resyncs_before = mirror.resyncs();

    for chunk in tail.chunks(512) {
        fleet.apply_batch(chunk);
        while let Some(batch) = sub.try_next().unwrap() {
            mirror.apply(&batch).unwrap();
        }
    }
    fleet.flush();
    let target = fleet.view().per_shard_seq();
    assert_eq!(target.len(), 3, "the split took");
    while mirror.cursor() != target.as_slice() {
        let batch = sub.recv().unwrap().expect("server alive");
        mirror.apply(&batch).unwrap();
    }
    assert!(
        mirror.resyncs() > resyncs_before,
        "the topology change must have resynced the subscriber"
    );

    // Exactness: the pushed mirror's story sets are byte-identical to what
    // an in-process reader sees after the split.
    let merged = fleet.view().snapshot();
    let want = sorted_sets(merged.stories.clone());
    assert_eq!(
        mirror.vertex_sets(),
        want.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
        "subscriber story sets diverge from the in-process view across the split"
    );
    assert!(mirror.events_applied() > 0, "the delta path was exercised");

    let stats = server.serve_stats();
    assert!(stats.pushes_sent > 0);
    assert_eq!(stats.slow_evictions, 0);
}
