//! MANIFEST compatibility: a deployment writes the version-3 MANIFEST byte
//! for byte as it always has (engine kind `dyndens`, measure name, engine
//! configuration fingerprint, shard map), so directories written before and
//! after stay interchangeable; and a directory whose MANIFEST names another
//! engine kind is refused with the typed
//! [`RecoveryError::ManifestMismatch`] on `engine kind` before any
//! checkpoint byte is read, leaving every file as it was.

mod support;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dyndens::graph::codec::crc32;
use dyndens::prelude::*;
use dyndens::shard::RecoveryError;
use support::{engine_config, persistence, shard_config, sorted_bits, temp_dir, CHUNK};

/// The MANIFEST of a fresh 2-shard `Modulo` `AvgWeight` deployment at
/// `engine_config()`: magic `DDMF`, version 3, kind `dyndens`, measure
/// `AvgWeight`, the 26-byte configuration fingerprint, the generation-zero
/// shard map and the CRC trailer.
const GOLDEN_MANIFEST: [u8; 125] = [
    68, 68, 77, 70, 3, 0, 0, 0, 7, 0, 0, 0, 100, 121, 110, 100, 101, 110, 115, 9, 0, 0, 0, 65, 118,
    103, 87, 101, 105, 103, 104, 116, 26, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240, 63, 4, 0, 0, 0, 0, 0, 0,
    0, 0, 51, 51, 51, 51, 51, 51, 195, 63, 7, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2,
    0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
    0, 1, 0, 0, 0, 0, 0, 0, 0, 122, 162, 47, 71,
];

fn open(dir: &Path) -> Result<ShardedDynDens<AvgWeight>, RecoveryError> {
    ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence(dir),
    )
}

/// Every file under `dir`, keyed by path, with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(next).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path, bytes);
            }
        }
    }
    out
}

#[test]
fn a_fresh_deployment_writes_the_golden_manifest() {
    let dir = temp_dir("manifest-golden");
    drop(open(&dir).expect("fresh persistent deployment"));
    let written = std::fs::read(dir.join("MANIFEST")).unwrap();
    assert_eq!(written, GOLDEN_MANIFEST);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_directory_naming_another_engine_kind_is_refused_untouched() {
    let updates = support::shard_aligned_stream(2_000, 8, 2012);
    let dir = temp_dir("manifest-kind");
    let want = {
        let mut fleet = open(&dir).expect("fresh persistent deployment");
        for chunk in updates.chunks(CHUNK) {
            fleet.apply_batch(chunk);
        }
        fleet.flush();
        sorted_bits(fleet.output_dense())
    };
    assert!(!want.is_empty(), "degenerate seed stream");

    // Same MANIFEST, kind `topk-peeling`, with a valid CRC: only the kind
    // comparison can refuse it.
    let manifest = dir.join("MANIFEST");
    let original = std::fs::read(&manifest).unwrap();
    let kind = b"dyndens";
    assert_eq!(&original[12..12 + kind.len()], kind);
    let mut foreign = original[..8].to_vec();
    let other = b"topk-peeling";
    foreign.extend_from_slice(&(other.len() as u32).to_le_bytes());
    foreign.extend_from_slice(other);
    foreign.extend_from_slice(&original[12 + kind.len()..original.len() - 4]);
    let crc = crc32(&foreign);
    foreign.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&manifest, &foreign).unwrap();

    let before = files(&dir);
    match open(&dir) {
        Err(RecoveryError::ManifestMismatch {
            field: "engine kind",
        }) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a directory naming another engine kind was accepted"),
    }
    assert!(
        before == files(&dir),
        "the refused open changed the directory"
    );

    // Nothing was touched: with its own MANIFEST back, the directory
    // recovers the exact pre-shutdown state.
    std::fs::write(&manifest, &original).unwrap();
    let recovered = open(&dir).expect("the directory must still recover");
    // Every shard recovers up to its last logged update (the ledger stops
    // at the checkpoint replay starts from, so it cannot show this).
    let recovered_seqs: u64 = recovered
        .recovery_reports()
        .iter()
        .map(|r| r.recovered_seq)
        .sum();
    assert_eq!(recovered_seqs, updates.len() as u64);
    assert_eq!(sorted_bits(recovered.output_dense()), want);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
