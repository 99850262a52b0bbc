//! MANIFEST backend pinning: a persistence directory is written by exactly
//! one maintenance backend, and reopening it under any other blueprint must
//! fail with the typed [`RecoveryError::ManifestMismatch`] on the `engine
//! kind` field — *before* any checkpoint bytes are fed to the wrong
//! engine's decoder and before anything on disk is touched. A failed open
//! must leave the directory fully usable by the backend that owns it: no
//! corruption, no silent rebuild from an empty state.

mod support;

use dyndens::prelude::*;
use dyndens::shard::RecoveryError;
use support::{engine_config, persistence, shard_config, sorted_bits, temp_dir, CHUNK};

/// The deployment's answers with densities as raw bits.
fn answers<B: EngineBlueprint>(fleet: &ShardedFleet<B>) -> Vec<(VertexSet, u64)> {
    sorted_bits(fleet.output_dense())
}

/// Ingests a short aligned stream into a fresh persistent deployment of
/// `blueprint`, returning its answers at shutdown.
fn seed_directory<B: EngineBlueprint>(
    blueprint: B,
    dir: &std::path::Path,
    updates: &[EdgeUpdate],
) -> Vec<(VertexSet, u64)> {
    let mut fleet =
        ShardedFleet::with_backend_persistence(blueprint, shard_config(2), persistence(dir))
            .expect("fresh persistent deployment");
    for chunk in updates.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
    fleet.flush();
    answers(&fleet)
}

/// Asserts that reopening `dir` under `blueprint` fails with the typed
/// engine-kind mismatch (not an I/O error, not a decode error, and above
/// all not a fresh deployment over the foreign directory).
fn assert_kind_refused<B: EngineBlueprint>(blueprint: B, dir: &std::path::Path) {
    let kind = blueprint.kind();
    match ShardedFleet::with_backend_persistence(blueprint, shard_config(2), persistence(dir)) {
        Err(RecoveryError::ManifestMismatch {
            field: "engine kind",
        }) => {}
        Err(other) => panic!("reopen as {kind}: wrong error: {other}"),
        Ok(_) => panic!("reopen as {kind}: foreign directory was accepted"),
    }
}

#[test]
fn dyndens_directory_refuses_other_backends() {
    let updates = support::shard_aligned_stream(2_000, 8, 2012);
    let dir = temp_dir("manifest-dyndens");
    let want = seed_directory(
        DynDensBlueprint::new(AvgWeight, engine_config()),
        &dir,
        &updates,
    );
    assert!(!want.is_empty(), "degenerate seed stream");

    assert_kind_refused(
        TopKPeelingBlueprint::new(AvgWeight, engine_config(), 4),
        &dir,
    );

    // The failed open left the directory intact: the owning backend
    // recovers the exact pre-shutdown state.
    let recovered = ShardedFleet::with_backend_persistence(
        DynDensBlueprint::new(AvgWeight, engine_config()),
        shard_config(2),
        persistence(&dir),
    )
    .expect("owning backend must still recover after refused opens");
    assert_eq!(recovered.stats().updates, updates.len() as u64);
    assert_eq!(answers(&recovered), want, "recovered answers diverge");
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn topk_directory_refuses_other_backends_and_pins_params() {
    let updates = support::shard_aligned_stream(2_000, 8, 2012);
    let dir = temp_dir("manifest-topk");
    let blueprint = || TopKPeelingBlueprint::new(AvgWeight, engine_config(), 4);
    let want = seed_directory(blueprint(), &dir, &updates);
    assert!(!want.is_empty(), "degenerate seed stream");

    assert_kind_refused(DynDensBlueprint::new(AvgWeight, engine_config()), &dir);

    // Same kind, different answer-relevant parameter (k): also pinned, as
    // its own field so the operator sees *what* diverged.
    match ShardedFleet::with_backend_persistence(
        TopKPeelingBlueprint::new(AvgWeight, engine_config(), 8),
        shard_config(2),
        persistence(&dir),
    ) {
        Err(RecoveryError::ManifestMismatch {
            field: "engine config",
        }) => {}
        Err(other) => panic!("reopen with k=8: wrong error: {other}"),
        Ok(_) => panic!("reopen with k=8: mismatched params were accepted"),
    }

    let recovered =
        ShardedFleet::with_backend_persistence(blueprint(), shard_config(2), persistence(&dir))
            .expect("owning backend must still recover after refused opens");
    assert_eq!(recovered.stats().updates, updates.len() as u64);
    assert_eq!(answers(&recovered), want, "recovered answers diverge");
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
