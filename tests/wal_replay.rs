//! Crash-recovery equivalence: killing a persistent sharded deployment after
//! an arbitrary batch and recovering it (latest snapshot + WAL tail replay)
//! must reproduce the **bit-identical** maintenance state of a deployment
//! that never crashed — for a crash right at the start, in the middle, and
//! at the very end of the 50k-update partition-aligned stream.
//!
//! "Bit-identical" is literal: every maintained subgraph's score and every
//! served story's density must carry the same `f64` bit pattern, which the
//! engine guarantees by canonicalising its exploration order and
//! serialising scores as raw bits (see `dyndens_core::snapshot`).

mod support;

use dyndens::prelude::*;
use support::{canonical_stream, engine_config, persistence, shard_config, temp_dir, CHUNK};

/// The two quantities the acceptance criterion compares, with scores as raw
/// bits so equality is bit-equality.
struct Answer {
    dense: Vec<(VertexSet, u64)>,
    top_stories: Vec<(VertexSet, u64)>,
}

fn answer(deployment: &ShardedDynDens<AvgWeight>) -> Answer {
    let mut dense: Vec<(VertexSet, u64)> = deployment
        .dense_subgraphs()
        .into_iter()
        .map(|(s, score)| (s, score.to_bits()))
        .collect();
    dense.sort();
    let top_stories = deployment
        .view()
        .snapshot()
        .stories
        .into_iter()
        .map(|(s, d)| (s, d.to_bits()))
        .collect();
    Answer { dense, top_stories }
}

#[test]
fn crash_at_any_batch_then_recover_equals_never_crashed() {
    let updates = canonical_stream();
    let chunks: Vec<&[EdgeUpdate]> = updates.chunks(CHUNK).collect();

    // Ground truth: an uninterrupted (non-persistent) deployment.
    let mut uninterrupted = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    for chunk in &chunks {
        uninterrupted.apply_batch(chunk);
    }
    uninterrupted.validate().unwrap();
    let want = answer(&uninterrupted);
    assert!(
        want.dense.len() >= 10 && !want.top_stories.is_empty(),
        "degenerate workload"
    );

    // Kill points: right after the first batch, mid-stream, and after the
    // final batch (recovery must also cope with "nothing left to ingest").
    let kill_points = [1usize, chunks.len() / 2, chunks.len()];
    for (label, k) in ["first", "middle", "last"].iter().zip(kill_points) {
        let dir = temp_dir(&format!("walreplay-{label}"));

        // Phase 1: ingest the first k batches, then crash. Dropping the
        // facade without any shutdown checkpoint leaves exactly what a kill
        // leaves behind: the WAL (written before each apply) and whatever
        // snapshots the cadence produced.
        {
            let mut doomed = ShardedDynDens::with_persistence(
                AvgWeight,
                engine_config(),
                shard_config(2),
                persistence(&dir),
            )
            .expect("fresh persistent deployment");
            for chunk in &chunks[..k] {
                doomed.apply_batch(chunk);
            }
            doomed.flush();
        }

        // Phase 2: recover and ingest the rest of the stream.
        let mut recovered = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(&dir),
        )
        .unwrap_or_else(|e| panic!("kill at {label} batch: recovery failed: {e}"));
        let ingested_before_crash: u64 = chunks[..k].iter().map(|c| c.len() as u64).sum();
        let reports = recovered.recovery_reports().to_vec();
        assert_eq!(
            reports.iter().map(|r| r.recovered_seq).sum::<u64>(),
            ingested_before_crash,
            "kill at {label}: recovery must account for every pre-crash update"
        );
        for chunk in &chunks[k..] {
            recovered.apply_batch(chunk);
        }
        recovered.validate().unwrap();

        // Byte-identical dense subgraphs and top-k stories.
        let got = answer(&recovered);
        assert_eq!(
            got.dense.len(),
            want.dense.len(),
            "kill at {label}: dense family size diverged"
        );
        for ((gs, gd), (ws, wd)) in got.dense.iter().zip(&want.dense) {
            assert_eq!(gs, ws, "kill at {label}: dense sets diverge");
            assert_eq!(
                gd, wd,
                "kill at {label}: score bits diverge on {gs} ({gd:x} vs {wd:x})"
            );
        }
        assert_eq!(
            got.top_stories, want.top_stories,
            "kill at {label}: served top-k stories diverge"
        );

        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn every_backend_recovers_bit_identically_after_a_crash() {
    // The oracle's recovery leg on the canonical stream: kill-and-recover
    // mid-stream (newest snapshot + WAL tail replay) must match a
    // never-crashed single engine bit for bit.
    let oracle = support::Oracle::from_updates("canonical", support::canonical_stream());
    oracle.run_legs(&[support::Leg::Recovery]).assert_passed();
}

/// Compaction under a fleet and a kill: ingest, `compact_below`
/// mid-stream, ingest on, drop without a final checkpoint, reopen, finish the
/// stream. With `lose_checkpoint` the kill lands between the compaction's WAL
/// append and its checkpoint (the newest snapshot of every shard is removed),
/// so recovery replays the journaled victims instead of restoring past them.
fn compaction_survives_a_kill(lose_checkpoint: bool) {
    const FLOOR: f64 = 0.6;
    // Shorter than the canonical stream on purpose: its first quarter holds
    // no edge at or below the floor, so there would be nothing to compact.
    let updates = support::shard_aligned_stream(8_000, 8, 2012);
    let (head, rest) = updates.split_at(updates.len() / 4);
    let (middle, tail) = rest.split_at(CHUNK);
    let sorted_dense =
        |fleet: &ShardedDynDens<AvgWeight>| support::sorted_bits(fleet.dense_subgraphs());

    let mut never_killed = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    never_killed.apply_batch(head);
    let evicted = never_killed.compact_below(FLOOR);
    assert!(evicted > 0, "nothing to compact");
    never_killed.apply_batch(middle);
    never_killed.apply_batch(tail);
    never_killed.validate().unwrap();

    let dir = temp_dir("walreplay-compact");
    let open = || {
        ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(&dir),
        )
        .unwrap_or_else(|e| panic!("open failed: {e}"))
    };
    {
        let mut doomed = open();
        doomed.apply_batch(&head[..CHUNK]);
        // A first pass that evicts nothing but leaves a checkpoint (and the
        // WAL from it on) for recovery to fall back to.
        assert_eq!(doomed.compact_below(-1.0), 0);
        doomed.apply_batch(&head[CHUNK..]);
        assert_eq!(doomed.compact_below(FLOOR), evicted);
        doomed.apply_batch(middle);
        doomed.flush();
    }
    if lose_checkpoint {
        for shard in std::fs::read_dir(&dir).unwrap() {
            let shard = shard.unwrap().path();
            if shard.is_dir() {
                let snapshots = dyndens::shard::recovery::list_snapshots(&shard).unwrap();
                assert!(snapshots.len() >= 2, "nothing to fall back to");
                std::fs::remove_file(&snapshots.last().unwrap().1).unwrap();
            }
        }
    }
    let mut recovered = open();
    let replayed: u64 = recovered
        .recovery_reports()
        .iter()
        .map(|r| r.replayed_updates)
        .sum();
    assert!(
        !lose_checkpoint || replayed >= evicted,
        "the journaled victims were not replayed"
    );
    recovered.apply_batch(tail);
    recovered.validate().unwrap();
    assert!(
        sorted_dense(&recovered) == sorted_dense(&never_killed),
        "compaction + kill (checkpoint lost: {lose_checkpoint}) diverged"
    );
    assert_eq!(recovered.edge_count(), never_killed.edge_count());
    assert_eq!(
        recovered.stats().updates + replayed,
        (updates.len() as u64) + evicted,
        "replayed updates, journaled victims included, stay out of the ledger"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_backend_survives_a_kill_after_a_compaction() {
    for lose_checkpoint in [false, true] {
        compaction_survives_a_kill(lose_checkpoint);
    }
}

#[test]
fn recovered_stats_do_not_double_count_replayed_updates() {
    // The fleet ledger merges per-shard EngineStats; a recovered deployment
    // must report the snapshot-time counters plus any *new* ingest, never the
    // replayed WAL tail a second time.
    let updates = support::shard_aligned_stream(5_000, 8, 77);
    let dir = temp_dir("walreplay-stats");
    {
        let mut doomed = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(&dir),
        )
        .unwrap();
        // Each shard checkpoints at the end of the bulk and logs a tail
        // below the cadence (512 updates) that recovery must replay.
        let (bulk, tail) = updates.split_at(updates.len() - 100);
        doomed.apply_batch(bulk);
        doomed.flush();
        doomed.apply_batch(tail);
        doomed.flush();
    }
    let recovered = ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence(&dir),
    )
    .unwrap();
    let stats = recovered.stats();
    let replayed: u64 = recovered
        .recovery_reports()
        .iter()
        .map(|r| r.replayed_updates)
        .sum();
    assert!(replayed > 0, "expected a WAL tail past the last snapshot");
    assert_eq!(
        stats.updates + replayed,
        updates.len() as u64,
        "replayed updates must not re-enter the work ledger"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
