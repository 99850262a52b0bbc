//! The shared differential oracle: drives any [`Workload`] through the full
//! stack and asserts **bit-exact** story sets at every checkpoint.
//!
//! One run ([`Oracle::run`]) feeds a single [`DynDens`] engine the whole
//! stream, then compares four deployment legs against it:
//!
//! 1. **sharded** — a fleet with 1, 2 and 4 shards;
//! 2. **recovery** — a persistent 2-shard fleet killed mid-stream (drop
//!    without shutdown) and recovered (newest snapshot + WAL tail replay);
//! 3. **rebalance** — a 2-shard fleet split mid-stream, then the sibling
//!    pair merged back, topology changing twice under live ingest;
//! 4. **serve** — a push-fed [`Mirror`] subscribed over TCP, plus a
//!    late-joining mirror that bootstraps purely from resync snapshots.
//!
//! "Bit-exact" is literal: every story's density must carry the same `f64`
//! bit pattern as the single engine's, which the stack guarantees under the
//! [`Workload`] contract (partition alignment + capped weights keep the
//! partitioning invariant exact, and the engine's canonical processing
//! order makes scores reproducible to the bit). The oracle *checks* the
//! precondition too: a workload that drifts into the too-dense regime
//! (star markers in the referee) fails its report rather than silently
//! comparing approximations.
//!
//! The repository-level equivalence suites (`tests/sharded_equivalence.rs`,
//! `tests/workload_scenarios.rs`, ...) are thin wrappers over this module;
//! `tests/workload_scenarios.rs` holds every workload × leg to its
//! [`OracleReport`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dyndens_core::{DynDens, DynDensConfig};
use dyndens_density::AvgWeight;
use dyndens_graph::{EdgeUpdate, VertexSet};
use dyndens_serve::{Client, Mirror, StoryServer};
use dyndens_shard::{
    FsyncPolicy, PersistenceConfig, RebalancePolicy, ShardConfig, ShardFn, ShardedDynDens,
};

use crate::workload::Workload;

/// Ingest chunk size used by every leg (matches the equivalence suites).
const CHUNK: usize = 256;

/// The canonical engine configuration of the equivalence suites: `T = 1`,
/// `Nmax = 4`, `delta_it = 0.15` over [`AvgWeight`].
pub fn engine_config() -> DynDensConfig {
    DynDensConfig::new(1.0, 4).with_delta_it(0.15)
}

/// The canonical sharded configuration: modulo routing (what partition
/// alignment is defined against) with 64-update micro-batches.
pub fn shard_config(n_shards: usize) -> ShardConfig {
    ShardConfig::new(n_shards)
        .with_shard_fn(ShardFn::Modulo)
        .with_max_batch(64)
}

/// A deterministic [`RebalancePolicy`] for scenario tests and benches: the
/// queue-depth trigger is disabled (queue depth depends on thread timing;
/// the tests drive decisions after `flush`, when queues are empty anyway)
/// and the share window is scaled to `window_updates` so the production
/// 60%-split / 5%-merge thresholds can be exercised on short streams.
pub fn scenario_policy(window_updates: u64) -> RebalancePolicy {
    RebalancePolicy {
        min_queue_depth: u64::MAX,
        min_total_updates: window_updates,
        ..RebalancePolicy::default()
    }
}

/// Story sets sorted by vertex set, densities as raw bits — the canonical
/// comparison shape: equality is bit-equality.
pub fn sorted_bits(mut sets: Vec<(VertexSet, f64)>) -> Vec<(VertexSet, u64)> {
    sets.sort_by(|a, b| a.0.cmp(&b.0));
    sets.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
}

/// The outcome of one oracle leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegReport {
    /// Leg name: `sharded`, `recovery`, `rebalance` or `serve`.
    pub leg: &'static str,
    /// Whether the leg's story sets matched the reference bit for bit.
    pub bit_exact: bool,
    /// What matched, or the first divergence.
    pub detail: String,
}

/// Which legs [`Oracle::run_legs`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Sharded fleet (1/2/4 shards) vs. the single engine.
    Sharded,
    /// Kill-and-recover mid-stream on a persistent 2-shard fleet.
    Recovery,
    /// Split then merge mid-stream on a 2-shard fleet.
    Rebalance,
    /// Push-fed serve [`Mirror`] plus a late-joining resync mirror.
    Serve,
}

/// All four legs, the default of [`Oracle::run`].
pub const ALL_LEGS: [Leg; 4] = [Leg::Sharded, Leg::Recovery, Leg::Rebalance, Leg::Serve];

/// The differential oracle over one materialised workload stream. See the
/// [module docs](self).
pub struct Oracle {
    name: String,
    updates: Vec<EdgeUpdate>,
}

impl Oracle {
    /// An oracle over `workload`'s update stream.
    pub fn new(workload: &dyn Workload) -> Self {
        Oracle {
            name: workload.name().to_string(),
            updates: workload.updates(),
        }
    }

    /// An oracle over a raw update stream (for streams that don't come from
    /// a [`Workload`], like the canonical 50k equivalence stream).
    pub fn from_updates(name: impl Into<String>, updates: Vec<EdgeUpdate>) -> Self {
        Oracle {
            name: name.into(),
            updates,
        }
    }

    /// The stream under test.
    pub fn updates(&self) -> &[EdgeUpdate] {
        &self.updates
    }

    /// Runs every leg. See [`run_legs`](Self::run_legs).
    pub fn run(&self) -> OracleReport {
        self.run_legs(&ALL_LEGS)
    }

    /// Builds the single-engine ground truth, then drives every requested
    /// deployment leg against it, bit-exact. Nothing panics on divergence —
    /// the report carries the verdicts (tests call
    /// [`OracleReport::assert_passed`]).
    pub fn run_legs(&self, legs: &[Leg]) -> OracleReport {
        let single = self.single_engine();
        let mut reports = Vec::with_capacity(legs.len() + 1);
        if let Err(e) = single.validate() {
            reports.push(leg_failed("single", format!("engine invariants: {e}")));
        }
        let want = sorted_bits(single.output_dense_subgraphs());
        for leg in legs {
            reports.push(match leg {
                Leg::Sharded => self.sharded_leg(&want),
                Leg::Recovery => self.recovery_leg(&want),
                Leg::Rebalance => self.rebalance_leg(&want),
                Leg::Serve => self.serve_leg(&want),
            });
        }
        OracleReport {
            workload: self.name.clone(),
            n_updates: self.updates.len(),
            output_dense: want.len(),
            star_markers: single.stats().star_markers_created,
            legs: reports,
        }
    }

    /// One engine fed the whole stream.
    fn single_engine(&self) -> DynDens<AvgWeight> {
        let mut engine = DynDens::new(AvgWeight, engine_config());
        let mut events = Vec::new();
        for u in &self.updates {
            engine.apply_update_into(*u, &mut events);
            events.clear();
        }
        engine
    }

    fn sharded_leg(&self, want: &[(VertexSet, u64)]) -> LegReport {
        for n_shards in [1usize, 2, 4] {
            let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(n_shards));
            for chunk in self.updates.chunks(CHUNK) {
                fleet.apply_batch(chunk);
            }
            fleet.flush();
            if let Err(e) = fleet.validate() {
                return leg_failed("sharded", format!("{n_shards} shards: {e}"));
            }
            if let Err(detail) = compare(want, &sorted_bits(fleet.output_dense())) {
                return leg_failed("sharded", format!("{n_shards} shards: {detail}"));
            }
            if fleet.stats().updates != self.updates.len() as u64 {
                return leg_failed("sharded", format!("{n_shards} shards: ledger mismatch"));
            }
        }
        leg_ok(
            "sharded",
            format!("1/2/4 shards == single engine ({} sets)", want.len()),
        )
    }

    fn recovery_leg(&self, want: &[(VertexSet, u64)]) -> LegReport {
        let dir = self.temp_dir("recovery");
        let open = || {
            ShardedDynDens::with_persistence(
                AvgWeight,
                engine_config(),
                shard_config(2),
                leg_persistence(&dir),
            )
        };
        let chunks: Vec<&[EdgeUpdate]> = self.updates.chunks(CHUNK).collect();
        let kill_at = chunks.len() / 2;
        {
            let mut doomed = match open() {
                Ok(fleet) => fleet,
                Err(e) => return leg_failed("recovery", format!("fresh deployment: {e}")),
            };
            for chunk in &chunks[..kill_at] {
                doomed.apply_batch(chunk);
            }
            doomed.flush();
            // Dropping without shutdown is the kill: nothing but the WAL
            // (written before every apply) and cadence snapshots survive.
        }
        let mut recovered = match open() {
            Ok(fleet) => fleet,
            Err(e) => return leg_failed("recovery", format!("recovery: {e}")),
        };
        let pre_crash: u64 = chunks[..kill_at].iter().map(|c| c.len() as u64).sum();
        let recovered_seq: u64 = recovered
            .recovery_reports()
            .iter()
            .map(|r| r.recovered_seq)
            .sum();
        if recovered_seq != pre_crash {
            return leg_failed(
                "recovery",
                format!("recovered seq {recovered_seq} != {pre_crash} pre-crash updates"),
            );
        }
        for chunk in &chunks[kill_at..] {
            recovered.apply_batch(chunk);
        }
        recovered.flush();
        let verdict = compare(want, &sorted_bits(recovered.output_dense()));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
        match verdict {
            Ok(()) => leg_ok(
                "recovery",
                format!("kill at update {pre_crash} + recover == never crashed"),
            ),
            Err(detail) => leg_failed("recovery", detail),
        }
    }

    /// Split at 1/3, merge the pair back at 2/3, on both deployments: an
    /// in-memory fleet and a persistent one, the latter also reopened from
    /// its coarsened manifest.
    fn rebalance_leg(&self, want: &[(VertexSet, u64)]) -> LegReport {
        let dir = self.temp_dir("rebalance");
        let persistence = || leg_persistence(&dir);
        for persistent in [false, true] {
            let input = if persistent {
                "persistent"
            } else {
                "in-memory"
            };
            let failed = |detail: String| leg_failed("rebalance", format!("{input}: {detail}"));
            let open = || {
                if persistent {
                    ShardedDynDens::with_persistence(
                        AvgWeight,
                        engine_config(),
                        shard_config(2),
                        persistence(),
                    )
                } else {
                    Ok(ShardedDynDens::new(
                        AvgWeight,
                        engine_config(),
                        shard_config(2),
                    ))
                }
            };
            let mut fleet = match open() {
                Ok(fleet) => fleet,
                Err(e) => return failed(format!("fresh deployment: {e}")),
            };
            let third = self.updates.len() / 3;
            for chunk in self.updates[..third].chunks(CHUNK) {
                fleet.apply_batch(chunk);
            }
            let split = match fleet.split_shard(0) {
                Ok(report) => report,
                Err(e) => return failed(format!("split: {e}")),
            };
            for chunk in self.updates[third..2 * third].chunks(CHUNK) {
                fleet.apply_batch(chunk);
            }
            if let Err(e) = fleet.merge_shards(split.slot, split.new_slot) {
                return failed(format!("merge: {e}"));
            }
            for chunk in self.updates[2 * third..].chunks(CHUNK) {
                fleet.apply_batch(chunk);
            }
            fleet.flush();
            if let Err(e) = fleet.validate() {
                return failed(e);
            }
            if fleet.stats().updates != self.updates.len() as u64 {
                return failed("split+merge lost or double-counted updates".into());
            }
            if let Err(detail) = compare(want, &sorted_bits(fleet.output_dense())) {
                return failed(detail);
            }
            if persistent {
                drop(fleet);
                let verdict = match open() {
                    Ok(reopened) => compare(want, &sorted_bits(reopened.output_dense())),
                    Err(e) => Err(e.to_string()),
                };
                let _ = std::fs::remove_dir_all(&dir);
                if let Err(detail) = verdict {
                    return failed(format!("reopen after merge: {detail}"));
                }
            }
        }
        leg_ok(
            "rebalance",
            "split @1/3 + merge @2/3 == untouched topology (in-memory, persistent + reopen)".into(),
        )
    }

    /// A push-fed [`Mirror`] subscribed over TCP during ingest, then a
    /// late-joining mirror that bootstraps purely from resync snapshots. The
    /// push-fed mirror must hold exactly the single engine's story sets (the
    /// engine announces every change as a
    /// [`DenseEvent`](dyndens_core::DenseEvent)); the late joiner must match
    /// bit for bit (resync snapshots carry the full story family with
    /// current scores).
    fn serve_leg(&self, want: &[(VertexSet, u64)]) -> LegReport {
        // Untruncated top-k makes resync snapshots complete; small retention
        // makes the late joiner genuinely take the resync path.
        let mut fleet = ShardedDynDens::new(
            AvgWeight,
            engine_config(),
            shard_config(2)
                .with_top_k(usize::MAX)
                .with_delta_retention(16),
        );
        let server = match StoryServer::builder(fleet.view())
            .workers(2)
            .bind("127.0.0.1:0")
        {
            Ok(server) => server,
            Err(e) => return leg_failed("serve", format!("bind: {e}")),
        };
        let addr = server.local_addr();
        let sub_client = match Client::builder()
            .read_timeout(Some(Duration::from_secs(60)))
            .connect(addr)
        {
            Ok(client) => client,
            Err(e) => return leg_failed("serve", format!("connect: {e}")),
        };
        let mut sub = match sub_client.subscribe(&[]) {
            Ok(sub) => sub,
            Err(e) => return leg_failed("serve", format!("subscribe: {e}")),
        };
        let mut mirror = Mirror::new();
        let drain =
            |mirror: &mut Mirror, sub: &mut dyndens_serve::Subscription| -> Result<(), String> {
                while let Some(batch) = sub.try_next().map_err(|e| e.to_string())? {
                    mirror.apply(&batch).map_err(|e| e.to_string())?;
                }
                Ok(())
            };
        for chunk in self.updates.chunks(CHUNK) {
            fleet.apply_batch(chunk);
            if let Err(e) = drain(&mut mirror, &mut sub) {
                return leg_failed("serve", e);
            }
        }
        fleet.flush();
        let target = fleet.view().per_shard_seq();
        while mirror.cursor() != target.as_slice() {
            match sub.recv() {
                Ok(Some(batch)) => {
                    if let Err(e) = mirror.apply(&batch) {
                        return leg_failed("serve", e.to_string());
                    }
                }
                Ok(None) => return leg_failed("serve", "server hung up mid-stream".into()),
                Err(e) => return leg_failed("serve", e.to_string()),
            }
        }
        // Push-fed mirror: exact set membership (densities ride deltas and
        // may trail until a resync, as on any delta-followed shard).
        let want_sets: Vec<VertexSet> = want.iter().map(|(s, _)| s.clone()).collect();
        if mirror.vertex_sets() != want_sets {
            return leg_failed("serve", "push-fed mirror story sets diverge".into());
        }
        let mut poll_client = match Client::builder().connect(addr) {
            Ok(client) => client,
            Err(e) => return leg_failed("serve", format!("late connect: {e}")),
        };
        let mut late = Mirror::new();
        loop {
            match late.poll(&mut poll_client) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return leg_failed("serve", format!("late poll: {e}")),
            }
        }
        match compare(want, &sorted_bits(late.story_sets())) {
            Ok(()) => leg_ok(
                "serve",
                format!(
                    "push-fed + late-resync mirrors == in-process view ({} events)",
                    mirror.events_applied()
                ),
            ),
            Err(detail) => leg_failed("serve", format!("late mirror: {detail}")),
        }
    }

    fn temp_dir(&self, tag: &str) -> PathBuf {
        // Unique per call: legs of one oracle may run from parallel test
        // threads of one process.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dyndens-oracle-{}-{tag}-{}-{}",
            self.name,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// The outcome of one workload's oracle run: each deployment leg's verdict
/// against the single engine, plus the too-dense precondition probe.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// The workload's [`name`](Workload::name).
    pub workload: String,
    /// Stream length in updates.
    pub n_updates: usize,
    /// Output-dense story count of the single-engine run.
    pub output_dense: usize,
    /// Star markers the single engine created — must be 0 (the too-dense
    /// precondition of exact comparisons).
    pub star_markers: u64,
    /// The deployment legs, in the order requested.
    pub legs: Vec<LegReport>,
}

impl OracleReport {
    /// `true` when every leg passed and the single engine stayed below the
    /// too-dense regime.
    pub fn passed(&self) -> bool {
        self.star_markers == 0 && self.legs.iter().all(|l| l.bit_exact)
    }

    /// Panics with the first failure unless [`passed`](Self::passed).
    pub fn assert_passed(&self) {
        assert_eq!(
            self.star_markers, 0,
            "{}: workload entered the too-dense regime",
            self.workload
        );
        for leg in &self.legs {
            assert!(
                leg.bit_exact,
                "{}: {} leg failed: {}",
                self.workload, leg.leg, leg.detail
            );
        }
    }
}

/// Top-q density-ratio quality of a baseline's story family against the
/// exact referee's, with `q = min(16, referee count)`: the baseline's `q`
/// highest densities (missing entries contribute 0) summed, over the
/// referee's `q` highest densities summed. `1.0` when the referee is empty.
/// For baselines whose extraction rule only admits members of the exact
/// output family (score at or above the output bound, cardinality at most
/// `Nmax`) the ratio never exceeds 1.
pub fn top_q_density_ratio(got: &[(VertexSet, u64)], referee: &[(VertexSet, u64)]) -> f64 {
    if referee.is_empty() {
        return 1.0;
    }
    let mut g: Vec<f64> = got.iter().map(|(_, bits)| f64::from_bits(*bits)).collect();
    let mut r: Vec<f64> = referee
        .iter()
        .map(|(_, bits)| f64::from_bits(*bits))
        .collect();
    g.sort_by(|a, b| b.total_cmp(a));
    r.sort_by(|a, b| b.total_cmp(a));
    let q = 16usize.min(r.len());
    let denom: f64 = r[..q].iter().sum();
    if denom <= 0.0 {
        return 1.0;
    }
    let numer: f64 = g[..q.min(g.len())].iter().sum();
    numer / denom
}

/// The persistent legs' setup: no fsync (their kills are polite drops) and a
/// checkpoint every 512 updates (eight of [`shard_config`]'s 64-update
/// micro-batches), so rebuilds see snapshot + WAL tail.
fn leg_persistence(dir: &Path) -> PersistenceConfig {
    PersistenceConfig::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshot_every_updates(512)
}

fn leg_ok(leg: &'static str, detail: String) -> LegReport {
    LegReport {
        leg,
        bit_exact: true,
        detail,
    }
}

fn leg_failed(leg: &'static str, detail: String) -> LegReport {
    LegReport {
        leg,
        bit_exact: false,
        detail,
    }
}

/// First divergence between two sorted bit-form story families, or `Ok`.
fn compare(want: &[(VertexSet, u64)], got: &[(VertexSet, u64)]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{} story sets, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for ((gs, gd), (ws, wd)) in got.iter().zip(want) {
        if gs != ws {
            return Err(format!("sets diverge: {gs} vs {ws}"));
        }
        if gd != wd {
            return Err(format!("score bits diverge on {gs}: {gd:#x} vs {wd:#x}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlignedCommunities;

    #[test]
    fn oracle_passes_on_a_small_aligned_stream() {
        let report = Oracle::new(&AlignedCommunities::new(4_000, 17)).run_legs(&[Leg::Sharded]);
        assert_eq!(report.workload, "aligned_communities");
        assert_eq!(report.n_updates, 4_000);
        assert!(report.output_dense > 0);
        report.assert_passed();
    }

    #[test]
    fn density_ratio_handles_degenerate_families() {
        let some = vec![(VertexSet::from_ids(&[0, 1]), 1.25f64.to_bits())];
        assert_eq!(top_q_density_ratio(&[], &[]), 1.0);
        assert_eq!(top_q_density_ratio(&some, &[]), 1.0);
        assert_eq!(top_q_density_ratio(&[], &some), 0.0);
        assert_eq!(top_q_density_ratio(&some, &some), 1.0);
    }

    #[test]
    fn compare_reports_first_divergence() {
        let oracle = Oracle::from_updates("probe", AlignedCommunities::new(4_000, 3).updates());
        let engine = oracle.single_engine();
        assert_eq!(engine.stats().star_markers_created, 0);
        let want = sorted_bits(engine.output_dense_subgraphs());
        assert!(!want.is_empty());
        assert!(compare(&want, &want).is_ok());
        assert!(compare(&want, &[]).unwrap_err().contains("story sets"));
        let mut bent = want.clone();
        bent[0].1 ^= 1;
        assert!(compare(&want, &bent).unwrap_err().contains("score bits"));
    }
}
