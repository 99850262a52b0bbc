//! Forever-run soak: memory- and disk-bounded operation under decay.
//!
//! Drives the full post → decayed-association → sharded-engine pipeline with
//! a rolling-story workload (new stories keep being born, old ones decay to
//! nothing forever), on a cadence running the two state-reclamation passes:
//!
//! 1. **pipeline compaction** — `EdgeUpdateGenerator::compact` prunes the
//!    decayed co-occurrence tracker and emits exact cancelling updates for
//!    every pair decay has reclaimed, removing those edges from the engines
//!    through the ordinary (WAL-logged) update path;
//! 2. **shard compaction** — `ShardedDynDens::compact_below` evicts any
//!    remaining sub-floor residual edges, checkpoints every shard and prunes
//!    the WAL segments behind the checkpoint.
//!
//! The harness samples RSS, live edge count and on-disk WAL bytes at every
//! compaction; mid-soak it kills the fleet (drop without a final checkpoint)
//! and recovers it, asserting the answer is bit-identical. It writes
//! `BENCH_soak.json` with the sample series and the headline bounds CI
//! gates on: RSS and WAL growth between the half-run and full-run samples.
//!
//! The whole run is instrumented through one shared observability
//! [`Registry`] that survives the kill: the fleet's workers, WAL and
//! recovery report into it, the harness emits a
//! [`CompactionWindow`](ObsEvent::CompactionWindow) journal event per
//! reclamation pass, and the JSON carries a `registry` block of the
//! counters an operator would watch on a real forever-run.
//!
//! Run with `cargo run --release -p dyndens-bench --bin soak_forever`.
//! `SOAK_UPDATES` overrides the update target (default 2,000,000; CI's
//! smoke step uses a short run).
//!
//! ## `BENCH_soak.json`
//!
//! * `target_updates` / `updates_total` / `posts_total` — run length
//!   (`SOAK_UPDATES` overrides the 2M default; CI smokes at 500k), with
//!   `seed` and `n_shards` beside them;
//! * `mean_life_secs`, `story_life_posts`, `tracker_epsilon`, `weight_floor`
//!   — the decay clock and the two retention thresholds (see
//!   `docs/RETENTION.md` §3);
//! * `compactions`, `edges_reclaimed_by_decay`, `edges_evicted_by_floor` —
//!   reclamation work: windows run, edges cancelled because their decayed
//!   evidence was pruned, edges evicted at the weight floor (legitimately 0
//!   under exact-cancellation measures: cancelled edges never reach the
//!   floor check). CI gates `edges_reclaimed_by_decay > 0`;
//! * `edges_final`, `output_dense_final` — the steady-state live set;
//! * `tracker_pairs` / `tracker_partner_links` — the co-occurrence tracker
//!   at the last sample: live pair counters, and the links of its sorted
//!   partner lists. CI gates `tracker_partner_links == 2 * tracker_pairs`:
//!   every live pair is linked both ways and nothing else is, so a link
//!   leaked by pruning shows here although `tracker_pairs` counts only the
//!   counters;
//! * `rss_half_kb` / `rss_final_kb` / `rss_growth_pct` — process RSS at the
//!   half-run sample against the end; CI gates `< 10`;
//! * `wal_half_bytes` / `wal_final_bytes` / `wal_growth_pct` — total on-disk
//!   WAL bytes across shards, same gate (negative growth is common: the
//!   final compaction prunes the tail);
//! * `recovery{}` — the mid-soak kill: `at_updates`, `seconds`, `bitexact`
//!   (CI gates `true`: reopening a compacted directory is ordinary
//!   recovery);
//! * `samples[]` — one row per compaction window (`updates`, `posts`,
//!   `rss_kb`, `edges`, `wal_bytes`, `tracker_pairs`,
//!   `tracker_partner_links`, `reclaimed`): the
//!   series to eyeball for trends. `edges`, `tracker_pairs` and `rss_kb`
//!   should plateau, `reclaimed` should climb, `wal_bytes` should sawtooth
//!   under a ceiling;
//! * `registry{}` — the observability registry's own totals at the end of
//!   the run (batches/updates applied, WAL appends/fsyncs/rotations/prunes,
//!   checkpoints, recoveries + replayed updates, compaction
//!   passes/evictions/prunes/cancellations, `apply_p99_us`,
//!   `compaction_window_events`): a cross-check that the soak's own ledger
//!   and the registry agree.

use std::sync::Arc;
use std::time::Instant;

use dyndens_core::DynDensConfig;
use dyndens_density::AvgWeight;
use dyndens_graph::{EdgeUpdate, VertexId};
use dyndens_obs::{names, ObsEvent, Registry};
use dyndens_shard::{FsyncPolicy, PersistenceConfig, ShardConfig, ShardFn, ShardedDynDens};
use dyndens_stream::{ChiSquareCorrelation, EdgeUpdateGenerator, Post};
use dyndens_workloads::oracle::sorted_bits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DEFAULT_TARGET_UPDATES: u64 = 2_000_000;
const SEED: u64 = 2012;
const N_SHARDS: usize = 2;
/// Posts arrive one per simulated second.
const MEAN_LIFE_SECS: f64 = 60.0;
/// A story is posted about for this long, then falls silent forever.
const STORY_LIFE_POSTS: u64 = 600;
/// Stories run concurrently with staggered births, so each one is a genuine
/// co-mention burst against a broad background (low per-entity base rates,
/// high within-story co-occurrence — positive association).
const CONCURRENT_STORIES: u64 = 8;
const STORY_STAGGER: u64 = STORY_LIFE_POSTS / CONCURRENT_STORIES;
/// Each story spans 6 disjoint entities. Once it falls silent, its entities
/// are never mentioned again: its engine edges freeze at their last emitted
/// weight, and **only** decay-driven reclamation (tracker prune + cancelling
/// updates) can remove them — exactly the leak a forever-run without
/// compaction would accumulate.
const STORY_SPAN: u32 = 6;
/// Decayed co-occurrence counts below this are pruned from the tracker.
const TRACKER_EPSILON: f64 = 1e-4;
/// Engine-side eviction floor. The chi-square pipeline cancels dead pairs
/// with *exact* inverse deltas (weights land on 0.0 and the graph drops the
/// edge), so in this soak the floor only catches float dust and its count
/// stays at zero — the pass still matters for its checkpoint + WAL-prune
/// side. Workloads whose decay leaves sub-threshold residuals (e.g.
/// additive decayed weights) are where the floor itself evicts; see
/// `docs/RETENTION.md`.
const WEIGHT_FLOOR: f64 = 1e-6;
/// Compaction passes (and samples) per run.
const WINDOWS: u64 = 24;
/// Kill and recover the fleet at this fraction of the run.
const KILL_AT: f64 = 0.6;

fn engine_config() -> DynDensConfig {
    DynDensConfig::new(0.3, 4).with_delta_it(0.05)
}

fn shard_config(registry: &Arc<Registry>) -> ShardConfig {
    ShardConfig::new(N_SHARDS)
        .with_shard_fn(ShardFn::Modulo)
        .with_channel_capacity(4096)
        .with_obs(Arc::clone(registry))
}

fn persistence(dir: &std::path::Path) -> PersistenceConfig {
    PersistenceConfig::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshot_every_updates(8192)
}

/// Resident set size in kB, from `/proc/self/status` (0 where unavailable).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Total bytes of WAL segments under the persistence root.
fn wal_bytes(root: &std::path::Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![root.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
            {
                total += path.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

/// One post of the rolling-story workload: 3 distinct entities of one of the
/// stories alive at `t` (a story is alive for `STORY_LIFE_POSTS` after its
/// birth; births are staggered every `STORY_STAGGER` posts).
fn synth_post(t: u64, rng: &mut StdRng) -> Post {
    let newest = t / STORY_STAGGER;
    let story = newest.saturating_sub(rng.gen_range(0..CONCURRENT_STORIES)) as u32;
    let base = story * STORY_SPAN;
    let mut entities = Vec::with_capacity(3);
    while entities.len() < 3 {
        let e = VertexId(base + rng.gen_range(0..STORY_SPAN));
        if !entities.contains(&e) {
            entities.push(e);
        }
    }
    Post::new(t as f64, entities)
}

struct Sample {
    updates: u64,
    posts: u64,
    rss_kb: u64,
    edges: usize,
    wal_bytes: u64,
    tracker_pairs: usize,
    tracker_partner_links: usize,
    reclaimed: u64,
}

struct RecoveryOutcome {
    at_updates: u64,
    seconds: f64,
    bitexact: bool,
}

fn reopen(dir: &std::path::Path, registry: &Arc<Registry>) -> ShardedDynDens<AvgWeight> {
    ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(registry),
        persistence(dir),
    )
    .expect("reopen persistent fleet")
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    target: u64,
    samples: &[Sample],
    recovery: &RecoveryOutcome,
    reclaimed_by_decay: u64,
    evicted_by_floor: u64,
    output_dense: usize,
    elapsed_secs: f64,
    registry: &Registry,
) -> std::io::Result<()> {
    let half = &samples[samples.len() / 2];
    let last = samples.last().expect("at least one sample");
    let growth = |h: u64, f: u64| -> f64 { (f as f64 - h as f64) / (h as f64).max(1.0) * 100.0 };
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"target_updates\": {target},\n"));
    json.push_str(&format!("  \"updates_total\": {},\n", last.updates));
    json.push_str(&format!("  \"posts_total\": {},\n", last.posts));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"n_shards\": {N_SHARDS},\n"));
    json.push_str(&format!("  \"mean_life_secs\": {MEAN_LIFE_SECS},\n"));
    json.push_str(&format!("  \"story_life_posts\": {STORY_LIFE_POSTS},\n"));
    json.push_str(&format!("  \"tracker_epsilon\": {TRACKER_EPSILON:e},\n"));
    json.push_str(&format!("  \"weight_floor\": {WEIGHT_FLOOR:e},\n"));
    json.push_str(&format!("  \"compactions\": {},\n", samples.len()));
    json.push_str(&format!(
        "  \"edges_reclaimed_by_decay\": {reclaimed_by_decay},\n"
    ));
    json.push_str(&format!(
        "  \"edges_evicted_by_floor\": {evicted_by_floor},\n"
    ));
    json.push_str(&format!("  \"edges_final\": {},\n", last.edges));
    json.push_str(&format!("  \"output_dense_final\": {output_dense},\n"));
    json.push_str(&format!("  \"tracker_pairs\": {},\n", last.tracker_pairs));
    json.push_str(&format!(
        "  \"tracker_partner_links\": {},\n",
        last.tracker_partner_links
    ));
    json.push_str(&format!("  \"elapsed_secs\": {elapsed_secs:.3},\n"));
    json.push_str(&format!(
        "  \"updates_per_sec\": {:.1},\n",
        last.updates as f64 / elapsed_secs.max(1e-9)
    ));
    json.push_str(&format!("  \"rss_half_kb\": {},\n", half.rss_kb));
    json.push_str(&format!("  \"rss_final_kb\": {},\n", last.rss_kb));
    json.push_str(&format!(
        "  \"rss_growth_pct\": {:.2},\n",
        growth(half.rss_kb, last.rss_kb)
    ));
    json.push_str(&format!("  \"wal_half_bytes\": {},\n", half.wal_bytes));
    json.push_str(&format!("  \"wal_final_bytes\": {},\n", last.wal_bytes));
    json.push_str(&format!(
        "  \"wal_growth_pct\": {:.2},\n",
        growth(half.wal_bytes, last.wal_bytes)
    ));
    json.push_str("  \"recovery\": {\n");
    json.push_str(&format!("    \"at_updates\": {},\n", recovery.at_updates));
    json.push_str(&format!("    \"seconds\": {:.6},\n", recovery.seconds));
    json.push_str(&format!("    \"bitexact\": {}\n", recovery.bitexact));
    json.push_str("  },\n");
    // The operator's view of the same run: the shared registry's counters,
    // scraped once at the end (the kill+recover kept the registry alive, so
    // these span the whole soak).
    let snap = registry.snapshot();
    let apply = snap.merged_histogram(names::SHARD_APPLY_LATENCY_US);
    json.push_str("  \"registry\": {\n");
    for (field, name) in [
        ("batches_applied_total", names::SHARD_BATCHES_APPLIED_TOTAL),
        ("updates_applied_total", names::SHARD_UPDATES_APPLIED_TOTAL),
        ("wal_appends_total", names::WAL_APPENDS_TOTAL),
        ("wal_fsyncs_total", names::WAL_FSYNCS_TOTAL),
        ("wal_rotations_total", names::WAL_ROTATIONS_TOTAL),
        (
            "wal_segments_pruned_total",
            names::WAL_SEGMENTS_PRUNED_TOTAL,
        ),
        ("checkpoints_total", names::CHECKPOINTS_TOTAL),
        ("recoveries_total", names::RECOVERIES_TOTAL),
        ("recovery_replayed_total", names::RECOVERY_REPLAYED_TOTAL),
        ("compaction_passes_total", names::COMPACTION_PASSES_TOTAL),
        (
            "compaction_evicted_edges_total",
            names::COMPACTION_EVICTED_EDGES_TOTAL,
        ),
        (
            "compaction_pruned_pairs_total",
            names::COMPACTION_PRUNED_PAIRS_TOTAL,
        ),
        (
            "compaction_cancelled_total",
            names::COMPACTION_CANCELLED_TOTAL,
        ),
    ] {
        json.push_str(&format!("    \"{field}\": {},\n", snap.counter_total(name)));
    }
    json.push_str(&format!(
        "    \"apply_p99_us\": {},\n",
        apply.percentile(99.0)
    ));
    json.push_str(&format!(
        "    \"compaction_window_events\": {}\n",
        snap.events
            .iter()
            .filter(|r| matches!(r.event, ObsEvent::CompactionWindow { .. }))
            .count()
    ));
    json.push_str("  },\n");
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 < samples.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"updates\": {}, \"posts\": {}, \"rss_kb\": {}, \"edges\": {}, \
             \"wal_bytes\": {}, \"tracker_pairs\": {}, \"tracker_partner_links\": {}, \
             \"reclaimed\": {}}}{sep}\n",
            s.updates,
            s.posts,
            s.rss_kb,
            s.edges,
            s.wal_bytes,
            s.tracker_pairs,
            s.tracker_partner_links,
            s.reclaimed,
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_soak.json", json)
}

fn main() {
    let target: u64 = std::env::var("SOAK_UPDATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TARGET_UPDATES);
    let window = (target / WINDOWS).max(1);
    let kill_at = (target as f64 * KILL_AT) as u64;
    println!(
        "soak: {target} updates, {WINDOWS} compaction windows, kill+recover at {kill_at} updates"
    );

    let dir = std::env::temp_dir().join(format!("dyndens-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One registry for the whole soak: it deliberately outlives the mid-run
    // kill, the way a scrape endpoint outlives any single process incarnation
    // of the fleet it watches.
    let registry = Arc::new(Registry::new());
    let mut fleet = Some(
        ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(&registry),
            persistence(&dir),
        )
        .expect("persistent fleet"),
    );

    let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), MEAN_LIFE_SECS);
    let mut rng = StdRng::seed_from_u64(SEED);
    let start = Instant::now();

    let mut updates: u64 = 0;
    let mut posts: u64 = 0;
    let mut next_window = window;
    let mut reclaimed_by_decay: u64 = 0;
    let mut evicted_by_floor: u64 = 0;
    let mut samples: Vec<Sample> = Vec::new();
    let mut recovery: Option<RecoveryOutcome> = None;
    let mut buf: Vec<EdgeUpdate> = Vec::new();
    let mut evictions: Vec<EdgeUpdate> = Vec::new();

    while updates < target {
        let post = synth_post(posts, &mut rng);
        posts += 1;
        generator.process_post_into(&post, &mut buf);
        if buf.len() >= 512 {
            updates += buf.len() as u64;
            fleet.as_mut().unwrap().apply_batch(&buf);
            buf.clear();
        }

        if updates >= next_window || updates >= target {
            next_window = updates + window;
            let f = fleet.as_mut().unwrap();
            if !buf.is_empty() {
                updates += buf.len() as u64;
                f.apply_batch(&buf);
                buf.clear();
            }
            // Reclamation pass 1: the pipeline cancels decayed-out pairs.
            let wal_before = wal_bytes(&dir);
            evictions.clear();
            let dead = generator.compact(posts as f64, TRACKER_EPSILON, &mut evictions);
            reclaimed_by_decay += dead as u64;
            registry
                .counter(names::COMPACTION_PRUNED_PAIRS_TOTAL, &[])
                .add(dead as u64);
            registry
                .counter(names::COMPACTION_CANCELLED_TOTAL, &[])
                .add(evictions.len() as u64);
            if !evictions.is_empty() {
                updates += evictions.len() as u64;
                f.apply_batch(&evictions);
            }
            // Reclamation pass 2: floor eviction + checkpoint + WAL prune.
            let floor_evicted = f.compact_below(WEIGHT_FLOOR);
            evicted_by_floor += floor_evicted;
            // One journal event per reclamation window: the generator-side
            // prune and the engine-side eviction as a single operator-visible
            // record, with the WAL bytes the checkpoint+prune gave back.
            registry.emit(ObsEvent::CompactionWindow {
                pruned_pairs: dead as u64,
                cancelled_updates: evictions.len() as u64,
                evicted_edges: floor_evicted,
                reclaimed_bytes: wal_before.saturating_sub(wal_bytes(&dir)),
            });
            samples.push(Sample {
                updates,
                posts,
                rss_kb: rss_kb(),
                edges: f.edge_count(),
                wal_bytes: wal_bytes(&dir),
                tracker_pairs: generator.tracker().pair_count(),
                tracker_partner_links: generator.tracker().partner_links(),
                reclaimed: reclaimed_by_decay + evicted_by_floor,
            });
            let s = samples.last().unwrap();
            println!(
                "  {:>10} updates  {:>8} posts  rss {:>7} kB  edges {:>5}  wal {:>8} B  \
                 pairs {:>5}  reclaimed {:>6}",
                s.updates, s.posts, s.rss_kb, s.edges, s.wal_bytes, s.tracker_pairs, s.reclaimed,
            );
        }

        if recovery.is_none() && updates >= kill_at {
            // Kill: drop the fleet with no goodbye checkpoint; the WAL has
            // everything. Recover and demand the identical answer.
            let f = fleet.as_mut().unwrap();
            f.flush();
            let want = sorted_bits(f.dense_subgraphs());
            let edges_want = f.edge_count();
            drop(fleet.take());
            let clock = Instant::now();
            let reopened = reopen(&dir, &registry);
            let seconds = clock.elapsed().as_secs_f64();
            let bitexact = sorted_bits(reopened.dense_subgraphs()) == want
                && reopened.edge_count() == edges_want;
            println!("  kill+recover at {updates} updates: {seconds:.3}s, bitexact = {bitexact}");
            recovery = Some(RecoveryOutcome {
                at_updates: updates,
                seconds,
                bitexact,
            });
            fleet = Some(reopened);
        }
    }

    let f = fleet.as_mut().unwrap();
    if !buf.is_empty() {
        f.apply_batch(&buf);
    }
    f.flush();
    let output_dense = f.output_dense_count();
    let elapsed = start.elapsed().as_secs_f64();
    let recovery = recovery.expect("kill point inside the run");

    assert!(recovery.bitexact, "mid-soak recovery was not bit-exact");
    let half = &samples[samples.len() / 2];
    let last = samples.last().unwrap();
    println!(
        "\ndone: {} updates in {elapsed:.1}s; rss {} -> {} kB, wal {} -> {} B, \
         {} edges live, {} reclaimed",
        last.updates,
        half.rss_kb,
        last.rss_kb,
        half.wal_bytes,
        last.wal_bytes,
        last.edges,
        reclaimed_by_decay + evicted_by_floor,
    );

    match write_json(
        target,
        &samples,
        &recovery,
        reclaimed_by_decay,
        evicted_by_floor,
        output_dense,
        elapsed,
        &registry,
    ) {
        Ok(()) => println!("wrote BENCH_soak.json"),
        Err(e) => eprintln!("failed to write BENCH_soak.json: {e}"),
    }

    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
