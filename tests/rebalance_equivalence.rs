//! Live shard rebalancing equivalence: splitting a hot shard **mid-stream**
//! must yield story sets bit-identical to a deployment that never split,
//! while ingest on untouched shards keeps flowing during the split.
//!
//! The workload is the canonical partition-aligned 50k-update stream
//! (communities drawn from congruence classes mod 8, weights below the
//! too-dense regime). Under `ShardFn::Modulo` with 2 base shards, the
//! routing bits consulted by splits are the binary digits of `v / 2`, so
//! communities stay aligned through two levels of splitting — the
//! partitioning invariant holds before *and* after every split, which is
//! what makes the comparison exact down to the score bits.
//!
//! The oracle's rebalance leg (see `dyndens_workloads::oracle`) covers the
//! blocking split+merge path on every workload; this suite keeps the
//! concurrency-sensitive variants — an [`IngestHandle`] feeding the fleet
//! from inside the `Parked` phase — plus crash-reopen of changed topologies.

mod support;

use dyndens::prelude::*;
use dyndens::shard::DeltaCatchUp;
use support::{
    canonical_stream, engine_config, persistence_every, shard_config, sorted_bits, temp_dir, CHUNK,
};

/// The headline acceptance test: a persistent 2-shard deployment ingests the
/// 50k stream; mid-stream, the hot shard is split (the quiesced live engine
/// partitioned, each child persisted from its own snapshot at the split
/// point) while an [`IngestHandle`] concurrently feeds the fleet — updates
/// for the splitting shard park, updates for the untouched shard are applied
/// *during* the split (asserted deterministically from inside the split's
/// `Parked` phase). The final maintained family must match a never-split run
/// bit for bit, the work ledger must count every update exactly once, and a
/// crash + reopen must recover the refined topology with the same answer.
#[test]
fn split_mid_stream_matches_never_split_bit_identically() {
    let updates = canonical_stream();

    // Never-split reference.
    let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    for chunk in updates.chunks(CHUNK) {
        reference.apply_batch(chunk);
    }
    let want = sorted_bits(reference.dense_subgraphs());
    assert!(want.len() >= 10, "degenerate workload");
    assert_eq!(reference.stats().updates, updates.len() as u64);
    drop(reference);

    let dir = temp_dir("rebeq");
    let persistence = || persistence_every(&dir, 1024);

    let mut fleet = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence(),
    )
    .unwrap();
    let (head, rest) = updates.split_at(20_000);
    let (mid, tail) = rest.split_at(10_000);
    for chunk in head.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.flush();

    // Split shard 0 while the mid tranche flows in through an IngestHandle.
    // The observer runs inside the split, after the parent is quiesced and
    // before the refined routing commits — the deterministic window in which
    // slot-0 updates park and slot-1 updates must still be applied.
    let handle = fleet.ingest_handle();
    let view = fleet.view();
    let seq0_at_park = std::cell::Cell::new(0u64);
    let concurrent_applied = std::cell::Cell::new(0u64);
    // The children's snapshot seqs once persisted, before their workers
    // apply (and checkpoint) the parked backlog.
    let next = fleet.shard_map().next_engine();
    let child_snapshots = std::cell::RefCell::new(Vec::new());
    let report = fleet
        .split_shard_with(0, |phase| {
            if phase == RebalanceStage::Rebuilt {
                for child in [next, next + 1] {
                    let child_dir = dir.join(format!("shard-{child:04}"));
                    let snapshots = dyndens::shard::recovery::list_snapshots(&child_dir).unwrap();
                    let seqs: Vec<u64> = snapshots.into_iter().map(|(seq, _)| seq).collect();
                    child_snapshots.borrow_mut().push(seqs);
                }
            }
            if phase == RebalanceStage::Parked {
                seq0_at_park.set(view.shard_seq(0));
                let untouched_before = view.shard_seq(1);
                for chunk in mid.chunks(128) {
                    handle.apply_batch(chunk);
                }
                // The untouched shard must make progress while the split
                // shard is down: wait for its worker to apply something.
                while view.shard_seq(1) == untouched_before {
                    std::thread::yield_now();
                }
                concurrent_applied.set(view.shard_seq(1) - untouched_before);
                // The split shard itself is quiescent: everything routed to
                // it is parking, nothing is applied.
                assert_eq!(view.shard_seq(0), seq0_at_park.get());
            }
        })
        .unwrap();
    assert!(
        concurrent_applied.get() > 0,
        "untouched shard applied no batches during the split"
    );
    assert!(
        report.parked_updates > 0,
        "the mid tranche must have parked updates for the split shard"
    );
    assert_eq!(report.slot, 0);
    assert_eq!(report.new_slot, 2);
    assert_eq!(report.child_engines, (next, next + 1));
    assert_eq!(
        child_snapshots.into_inner(),
        vec![vec![report.parent_seq]; 2],
        "each child directory holds exactly one snapshot, at the quiesce point"
    );
    assert_eq!(fleet.n_shards(), 3);
    assert_eq!(view.n_shards(), 3, "pre-split views observe the growth");
    // Pollers of the split slot resync: the slot's ring restarted empty at
    // the split point, so every pre-split cursor (strictly below it) finds
    // its suffix gone — exactly the post-crash-recovery behaviour.
    assert_eq!(
        fleet
            .view()
            .deltas_since(0, seq0_at_park.get().saturating_sub(1)),
        DeltaCatchUp::Resync
    );
    assert!(fleet
        .view()
        .delta_coverage_from(0)
        .is_none_or(|from| from >= seq0_at_park.get()));

    for chunk in tail.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.validate().unwrap();
    let got = sorted_bits(fleet.dense_subgraphs());
    assert_eq!(got.len(), want.len());
    for ((gs, gd), (ws, wd)) in got.iter().zip(&want) {
        assert_eq!(gs, ws, "maintained sets diverge after the split");
        assert_eq!(*gd, *wd, "score bits diverge on {gs}");
    }
    // The ledger counts every update exactly once across the split: rebuild
    // replay counts nothing, the slot-keeping child adopts the parent's
    // counters, parked updates are applied (and counted) by the children.
    assert_eq!(fleet.stats().updates, updates.len() as u64);

    // Crash + reopen: the generational manifest recovers all three shards
    // and the identical answer, still under the base ShardConfig::new(2).
    drop(fleet);
    let reopened = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence(),
    )
    .unwrap();
    assert_eq!(reopened.n_shards(), 3);
    assert_eq!(reopened.recovery_reports().len(), 3);
    assert_eq!(reopened.shard_map().generation(), 1);
    assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The merge acceptance test: a persistent deployment splits a shard
/// mid-stream, keeps ingesting, then **merges the pair back** mid-stream —
/// while an [`IngestHandle`] concurrently feeds the fleet from inside the
/// merge's `Parked` phase (updates for either quiesced sibling park, updates
/// for the untouched shard are applied *during* the merge). The final
/// maintained family must match a fleet that never changed topology bit for
/// bit, the ledger must count every update exactly once, pollers of the
/// merged slot must resync, and a crash + reopen must recover the coarsened
/// topology with the same answer.
#[test]
fn merge_mid_stream_matches_never_merged_bit_identically() {
    let updates = canonical_stream();

    // Never-refined reference.
    let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    for chunk in updates.chunks(CHUNK) {
        reference.apply_batch(chunk);
    }
    let want = sorted_bits(reference.dense_subgraphs());
    assert!(want.len() >= 10, "degenerate workload");
    drop(reference);

    let dir = temp_dir("mergeeq");
    let persistence = || persistence_every(&dir, 1024);

    let mut fleet = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence(),
    )
    .unwrap();
    let (head, rest) = updates.split_at(15_000);
    let (between, rest) = rest.split_at(15_000);
    let (during, tail) = rest.split_at(10_000);

    for chunk in head.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.flush();
    let split = fleet.split_shard(0).unwrap();
    assert_eq!(split.new_slot, 2);
    for chunk in between.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.flush();

    // Merge the siblings back while the `during` tranche flows in through an
    // IngestHandle. Inside the Parked phase both siblings are quiesced —
    // their updates park — while the untouched shard keeps applying.
    let handle = fleet.ingest_handle();
    let view = fleet.view();
    let merged_seq_at_park = std::cell::Cell::new(0u64);
    let concurrent_applied = std::cell::Cell::new(0u64);
    let report = fleet
        .merge_shards_with(0, 2, |phase| {
            if phase == RebalanceStage::Parked {
                merged_seq_at_park.set(view.shard_seq(0) + view.shard_seq(2));
                let untouched_before = view.shard_seq(1);
                for chunk in during.chunks(128) {
                    handle.apply_batch(chunk);
                }
                while view.shard_seq(1) == untouched_before {
                    std::thread::yield_now();
                }
                concurrent_applied.set(view.shard_seq(1) - untouched_before);
                // Both quiesced siblings are frozen at their park points.
                assert_eq!(
                    view.shard_seq(0) + view.shard_seq(2),
                    merged_seq_at_park.get()
                );
            }
        })
        .unwrap();
    assert!(
        concurrent_applied.get() > 0,
        "untouched shard applied no batches during the merge"
    );
    assert!(
        report.parked_updates > 0,
        "the during tranche must have parked updates for the merging pair"
    );
    assert_eq!(report.slot, 0);
    assert_eq!(report.freed_slot, 2);
    assert_eq!(report.moved_slot, None);
    assert_eq!(report.child_engines, split.child_engines);
    assert_eq!(report.merged_seq, merged_seq_at_park.get());
    assert_eq!(report.generation, 2);
    assert_eq!(fleet.n_shards(), 2);
    assert_eq!(view.n_shards(), 2, "pre-merge views observe the shrink");
    // Pollers of the merged slot resync: its ring restarted empty at the
    // merge point, exactly like after a split or crash recovery.
    assert_eq!(
        fleet
            .view()
            .deltas_since(0, merged_seq_at_park.get().saturating_sub(1)),
        DeltaCatchUp::Resync
    );
    assert!(fleet
        .view()
        .delta_coverage_from(0)
        .is_none_or(|from| from >= merged_seq_at_park.get()));

    for chunk in tail.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.validate().unwrap();
    let got = sorted_bits(fleet.dense_subgraphs());
    assert_eq!(got.len(), want.len());
    for ((gs, gd), (ws, wd)) in got.iter().zip(&want) {
        assert_eq!(gs, ws, "maintained sets diverge after the merge");
        assert_eq!(*gd, *wd, "score bits diverge on {gs}");
    }
    // Split + merge is ledger-neutral: every update counted exactly once.
    assert_eq!(fleet.stats().updates, updates.len() as u64);

    // Crash + reopen: the manifest's coarsened topology recovers two shards
    // (the merged engine plus the untouched base engine) and the same bits.
    drop(fleet);
    let reopened = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence(),
    )
    .unwrap();
    assert_eq!(reopened.n_shards(), 2);
    assert_eq!(reopened.shard_map().generation(), 2);
    assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Which direction an abort case drives.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Split,
    Merge,
}

/// The abort path, end to end, on a persistent fleet: from inside `Parked` a
/// regular file squats on a target engine's directory path, so persisting
/// the rebuilt targets fails with `Io` *after* the rebuild succeeded. The
/// call must err, the journal span must stay open, every quiesced source
/// must be resurrected — updates parked from another thread are applied,
/// the stream continues, and the final answer and ledger equal a fleet that
/// never attempted anything. A drop and reopen must then recover every
/// update, which proves the WAL writers the sources handed back logged the
/// parked backlog and the post-abort traffic; the same call must succeed on
/// the reopened fleet once the obstacle is gone.
fn aborted_reshape_resurrects_and_retries(direction: Direction) {
    use dyndens_obs::{Registry, SpanMark};
    use std::sync::Arc;

    let updates = support::shard_aligned_stream(16_000, 8, 31);
    let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    for chunk in updates.chunks(CHUNK) {
        reference.apply_batch(chunk);
    }
    let want = sorted_bits(reference.dense_subgraphs());
    assert!(want.len() >= 10, "degenerate workload");
    drop(reference);

    let tag = match direction {
        Direction::Split => "abort-split",
        Direction::Merge => "abort-merge",
    };
    let dir = temp_dir(tag);
    let registry = Arc::new(Registry::new());
    let mut fleet = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2).with_obs(Arc::clone(&registry)),
        persistence_every(&dir, 1024),
    )
    .unwrap();
    let (head, rest) = updates.split_at(6_000);
    let (during, tail) = rest.split_at(4_000);
    for chunk in head.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    // Both children of a split start at the parent's seq, so per-shard seqs
    // count those updates twice.
    let mut counted_twice = 0;
    if direction == Direction::Merge {
        // Setup, not under test: the pair the merge will try to fold.
        let split = fleet.split_shard(0).unwrap();
        assert_eq!(split.new_slot, 2);
        counted_twice = split.parent_seq;
    }
    fleet.flush();
    let workers = fleet.n_shards();

    // The last engine id the attempt will allocate: a split's bit-1 child
    // (its bit-0 sibling's directory is written first and left an orphan the
    // retry must clobber), a merge's only target.
    let next = fleet.shard_map().next_engine();
    let (kind, target) = match direction {
        Direction::Split => ("split_phase", next + 1),
        Direction::Merge => ("merge_phase", next),
    };
    let squatter = dir.join(format!("shard-{target:04}"));
    let handle = fleet.ingest_handle();
    let mut at_parked = |stage: RebalanceStage| {
        if stage == RebalanceStage::Parked {
            std::fs::write(&squatter, b"not a directory").unwrap();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for chunk in during.chunks(128) {
                        handle.apply_batch(chunk);
                    }
                });
            });
        }
    };
    let attempt = match direction {
        Direction::Split => fleet.split_shard_with(0, &mut at_parked).map(drop),
        Direction::Merge => fleet.merge_shards_with(0, 2, &mut at_parked).map(drop),
    };
    assert!(
        matches!(attempt, Err(RebalanceError::Io(_))),
        "expected the squatted directory to fail the persist phase: {attempt:?}"
    );
    let marks = |mark: SpanMark| {
        registry
            .recent_events()
            .iter()
            .filter(|r| r.event.kind() == kind && r.mark == mark)
            .count()
    };
    assert_eq!(
        (marks(SpanMark::Begin), marks(SpanMark::End)),
        (1, 0),
        "an aborted attempt leaves its journal span open"
    );

    // Resurrected: the topology is unchanged and everything parked during
    // the attempt is applied.
    assert_eq!(fleet.n_shards(), workers);
    assert_eq!(fleet.stats().updates, (head.len() + during.len()) as u64);
    for chunk in tail.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.validate().unwrap();
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
    assert_eq!(fleet.stats().updates, updates.len() as u64);

    // Drop and reopen: the resurrected sources' WALs hold every update.
    drop(fleet);
    let mut fleet = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2).with_obs(Arc::clone(&registry)),
        persistence_every(&dir, 1024),
    )
    .unwrap();
    let recovered: u64 = fleet
        .recovery_reports()
        .iter()
        .map(|r| r.recovered_seq)
        .sum();
    assert_eq!(recovered, updates.len() as u64 + counted_twice);
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
    // Recovery restores checkpoint-time counters and counts no replay.
    let ledger = fleet.stats().updates;

    // The retry: same call, obstacle gone.
    std::fs::remove_file(&squatter).unwrap();
    match direction {
        Direction::Split => drop(fleet.split_shard(0).unwrap()),
        Direction::Merge => drop(fleet.merge_shards(0, 2).unwrap()),
    }
    assert_eq!(marks(SpanMark::End), 1);
    assert_ne!(fleet.n_shards(), workers);
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
    assert_eq!(fleet.stats().updates, ledger, "a reshape is ledger-neutral");
    drop(fleet);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn aborted_split_resurrects_the_parent_and_retries() {
    aborted_reshape_resurrects_and_retries(Direction::Split);
}

#[test]
fn aborted_merge_resurrects_both_children_and_retries() {
    aborted_reshape_resurrects_and_retries(Direction::Merge);
}

/// The oracle's rebalance leg on the canonical stream: splitting mid-stream
/// and merging the siblings back (the engine-side `partition_by`/`absorb`
/// paths) must match an untouched-topology fleet bit for bit.
#[test]
fn every_backend_split_merge_matches_untouched_topology() {
    let oracle = support::Oracle::from_updates("canonical", support::canonical_stream());
    oracle.run_legs(&[support::Leg::Rebalance]).assert_passed();
}

/// Two successive splits of the same base slot exercise depth-2 routing bits
/// (still community-aligned at alignment 8 over 2 base shards) on the
/// in-memory partition path.
#[test]
fn repeated_in_memory_splits_stay_exact() {
    let updates = support::shard_aligned_stream(20_000, 8, 77);
    let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    for chunk in updates.chunks(CHUNK) {
        reference.apply_batch(chunk);
    }
    let want = sorted_bits(reference.dense_subgraphs());
    drop(reference);

    let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    let thirds = updates.len() / 3;
    for chunk in updates[..thirds].chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    let first = fleet.split_shard(0).unwrap();
    assert_eq!(first.generation, 1);
    for chunk in updates[thirds..2 * thirds].chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    // Split slot 0 again: its route-trie leaf now sits at depth 1, so the
    // second split consults routing bit 1.
    let second = fleet.split_shard(0).unwrap();
    assert_eq!(second.generation, 2);
    assert_eq!(fleet.n_shards(), 4);
    for chunk in updates[2 * thirds..].chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.validate().unwrap();
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
    assert_eq!(fleet.stats().updates, updates.len() as u64);
    // Four live workers, every one of them owning real work by now.
    let per_shard = fleet.view().per_shard_seq();
    assert_eq!(per_shard.len(), 4);
    assert!(per_shard.iter().all(|&s| s > 0), "{per_shard:?}");
}

/// A serving-layer follower spanning a split: its stale cursor is rebased by
/// the server (no error round-trip) and the mirrored story sets stay
/// byte-identical to the in-process view.
#[test]
fn follower_resyncs_cleanly_across_a_split() {
    use dyndens::serve::{Client, Mirror, StoryServer};

    let updates = support::shard_aligned_stream(8_000, 8, 5);
    let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), support::serve_shard_config(2));
    let server = StoryServer::builder(fleet.view())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::builder().connect(server.local_addr()).unwrap();
    let mut follower = Mirror::new();

    let (head, tail) = updates.split_at(4_000);
    for chunk in head.chunks(128) {
        fleet.apply_batch(chunk);
    }
    fleet.flush();
    follower.poll(&mut client).unwrap();
    assert_eq!(follower.cursor().len(), 2);

    let report = fleet.split_shard(0).unwrap();
    assert_eq!(report.new_slot, 2);
    for chunk in tail.chunks(128) {
        fleet.apply_batch(chunk);
    }
    fleet.flush();

    // The next poll carries a 2-entry cursor against a 3-shard server: the
    // reply rebases the follower onto the new topology.
    let resyncs_before = follower.resyncs();
    follower.poll(&mut client).unwrap();
    assert_eq!(follower.cursor().len(), 3);
    assert!(follower.resyncs() > resyncs_before);

    // The rebased mirror tracks the in-process story sets across the new
    // topology (densities delivered by deltas may lag until the next resync,
    // as on any delta-followed shard — set membership is exact).
    let view = fleet.view();
    let mut expect: Vec<(VertexSet, f64)> = (0..view.n_shards())
        .flat_map(|s| view.shard_snapshot(s).top_stories.clone())
        .collect();
    expect.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(
        follower.vertex_sets(),
        expect.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>()
    );

    // A fresh follower bootstraps against the post-split topology purely via
    // resync snapshots: byte-identical sets *and* densities.
    let mut late = Mirror::new();
    while late.poll(&mut client).unwrap() {}
    let got = late.story_sets();
    assert_eq!(late.cursor().len(), 3);
    assert_eq!(got.len(), expect.len());
    for ((gs, gd), (ws, wd)) in got.iter().zip(&expect) {
        assert_eq!(gs, ws);
        assert_eq!(gd.to_bits(), wd.to_bits());
    }
}
