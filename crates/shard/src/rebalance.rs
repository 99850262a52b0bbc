//! Live shard rebalancing: **one reshape transaction** that moves entity
//! partitions between workers while the rest of the fleet keeps ingesting.
//!
//! A fixed shard count means one hot entity partition caps whole-pipeline
//! throughput forever, and on decaying workloads a fleet split for a
//! long-gone hot spot pays the per-shard overhead forever. Splitting a hot
//! shard ([`ShardedDynDens::split_shard`]) and merging cold **siblings** back
//! together ([`ShardedDynDens::merge_shards`]; leaves of one `Split` trie node
//! — see [`ShardMap::merge_candidates`]) are the two parameterisations of a
//! single transaction over the generational [`ShardMap`]: a set of *source*
//! slots is replaced by a set of *target* slots under a refined or coarsened
//! map. This is the one place the protocol is written down:
//!
//! ```text
//!  phase       split (1 source → 2 targets)          merge (2 sources → 1 target)
//!  ──────────  ────────────────────────────────────  ────────────────────────────────────
//!  1 park      routing[slot] := Parked               routing[a] := routing[b] := Parked
//!              (other slots: untouched)              (one shared queue)
//!  2 quiesce   flush + stop every source worker → each source's engine and WAL are
//!              complete to its quiesce sequence number S; the worker hands its WAL
//!              writer back
//!  3 rebuild   parent@S ─partition_by(new map)─►     child₀@S₀ ─absorb(child₁@S₁)─►
//!              child₀ │ child₁                       merged
//!              sources: the quiesced live engines, for every deployment (a split
//!              reads the parent through its lock; a merge absorbs clones)
//!  4 persist   per target: directory, snapshot @ ΣS, fresh WAL; then ONE atomic MANIFEST
//!              rewrite — the commit point
//!  5 commit    drop every series labelled with a source's engine id; install each target
//!              as one record per owner — roster: a fresh feed (cell @ ΣS, empty delta
//!              ring); facade: engine, worker, engine id; routing: inbox + routed
//!              counter — and publish the roster in one store, then each engine's slot:
//!              grown by the new slot                 shrunk; the last slot's records move
//!                                                    into the freed one, its worker
//!                                                    not respawned
//!  6 drain     parked backlog re-routed, in arrival order, through the new map; routing
//!              serves the new map; source directories retired
//!  ──────────  ───────────────────────────────────────────────────────────────────────────
//!  abort       any failure in 4: restart every source's worker on its existing records
//!              (engine and id, feed, routing entry) and its handed-back WAL
//!              writer, through the start path 5 uses; drain the backlog through the
//!              *unchanged* map
//! ```
//!
//! Only the source slots pause (updates routed to them park in an unbounded
//! queue and are re-routed at commit); ingest on every other shard never
//! stops. Readers need no coordination either: the
//! [`StoryView`](crate::StoryView) roster changes in one epoch store, a
//! target slot's delta ring restarts empty — pollers resynchronise from its
//! snapshot, exactly as after crash recovery — and a slot renumbered by a
//! merge keeps its feed, so its pollers follow deltas seamlessly under the
//! new index.
//!
//! ## Equivalence
//!
//! Under the partitioning invariant (no maintained subgraph spans the two
//! children — see the crate docs) [`DynDens::partition_by`] yields
//! children **bit-identical** to engines that only ever saw their own slice,
//! and [`DynDens::absorb`] is its exact inverse, so reshaping
//! mid-stream yields exactly the story sets of a fleet that never changed
//! topology (`tests/rebalance_equivalence.rs`, and the oracle's rebalance
//! leg). The work ledger is preserved too: the first target
//! adopts the sources' live counters and any other starts at zero.
//!
//! ## Crash safety
//!
//! The in-memory engines are the maintained state; the disk only rebuilds
//! them after a crash, so a reshape never reads it back. The manifest
//! rewrite is the commit point. The targets' snapshots (at ΣS) and WALs are
//! durable *before* it; the sources' directories are retired *after* it, and
//! nothing reads them again. A crash before the rewrite recovers the sources
//! through the ordinary open path, with every check it makes (orphan target
//! directories are overwritten by the next attempt — engine ids are
//! persisted in the manifest and never reused); a crash after recovers the
//! targets.
//!
//! ## Failure containment
//!
//! Rebuilding cannot fail: it transforms engines already in memory. If
//! persisting the targets fails (disk errors), every source is
//! **resurrected** on the engine, feed and WAL writer it stopped with
//! — complete up to the quiesce point — the parked backlog is drained to it
//! unchanged, and the fleet continues with its old topology and the error
//! reported. A source worker that died before the reshape panics it, as it
//! panics every other facade call.
//!
//! [`Rebalancer`] drives both directions from policy: hot slots split, cold
//! sibling pairs merge.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use dyndens_core::{DynDens, EngineStats};
use dyndens_density::DensityMeasure;
use dyndens_graph::ShardMap;
use dyndens_obs::{names, ObsEvent, RebalanceStage};

use crate::config::PersistenceConfig;
use crate::recovery;
use crate::sharded::{install_slot, RouteState, ShardSeed, ShardTx, ShardedDynDens, WORKER_GONE};
use crate::wal::WalWriter;
use crate::worker::{WorkerMsg, WorkerPersistence};

/// An error splitting or merging shards. The fleet is left routing exactly
/// as before the attempt: every quiesced shard was resurrected on its own
/// state and the parked updates were applied.
#[derive(Debug)]
pub enum RebalanceError {
    /// Filesystem failure while persisting the new shards.
    Io(io::Error),
    /// The slot does not name a live worker (or its route-trie leaf already
    /// sits at the maximum split depth).
    UnknownShard(usize),
    /// The two slots handed to a merge are not sibling leaves of the routing
    /// trie (only pairs produced by one split — see
    /// [`ShardMap::merge_candidates`] — can be merged).
    NotSiblings(usize, usize),
}

impl From<io::Error> for RebalanceError {
    fn from(e: io::Error) -> Self {
        RebalanceError::Io(e)
    }
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Io(e) => write!(f, "rebalance I/O failure: {e}"),
            RebalanceError::UnknownShard(slot) => {
                write!(f, "shard {slot} is not a splittable worker slot")
            }
            RebalanceError::NotSiblings(a, b) => {
                write!(f, "shards {a} and {b} are not sibling slots of one split")
            }
        }
    }
}

impl std::error::Error for RebalanceError {}

/// What a completed split did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitReport {
    /// The worker slot that was split (now serving the bit-0 child).
    pub slot: usize,
    /// The new worker slot serving the bit-1 child.
    pub new_slot: usize,
    /// The retired parent's engine id.
    pub parent_engine: u64,
    /// The children's fresh engine ids (bit 0, bit 1).
    pub child_engines: (u64, u64),
    /// The parent's sequence number at quiesce — both children start here.
    pub parent_seq: u64,
    /// Updates that parked during the split and were re-routed at commit.
    pub parked_updates: u64,
    /// The routing-table generation after the split.
    pub generation: u64,
}

/// What a completed merge did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// The worker slot the merged shard serves (the smaller of the pair).
    pub slot: usize,
    /// The worker slot the merge freed (the larger of the pair).
    pub freed_slot: usize,
    /// The former slot of the worker renumbered into
    /// [`freed_slot`](MergeReport::freed_slot) (always the previous last
    /// slot), or `None` when the freed slot was the last one.
    pub moved_slot: Option<usize>,
    /// The retired children's engine ids (routing bit 0, bit 1).
    pub child_engines: (u64, u64),
    /// The merged shard's fresh engine id.
    pub merged_engine: u64,
    /// The children's sequence numbers at quiesce (bit 0, bit 1).
    pub child_seqs: (u64, u64),
    /// The merged shard's starting sequence number (the children's sum).
    pub merged_seq: u64,
    /// Updates that parked during the merge and were drained at commit.
    pub parked_updates: u64,
    /// The routing-table generation after the merge.
    pub generation: u64,
}

/// Thresholds deciding when a shard is hot enough to split.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePolicy {
    /// Split when a slot's ingest queue depth (updates routed but not yet
    /// applied) reaches this many updates — the shard is falling behind its
    /// stream.
    pub min_queue_depth: u64,
    /// Split when a slot applied more than this fraction of the fleet's
    /// updates **since the previous check** (skew signal; only meaningful
    /// once [`min_total_updates`](RebalancePolicy::min_total_updates) is met
    /// within the window).
    pub min_share: f64,
    /// Minimum fleet-wide updates applied within the check window before
    /// the share signal fires (avoids splitting on startup or idle noise).
    /// Also gates the **merge** signal: an idle fleet is indistinguishable
    /// from a cold one, so nothing merges until the window carries at least
    /// this much traffic.
    pub min_total_updates: u64,
    /// Merge a sibling pair back together only while **both** slots' ingest
    /// queue depths are at or below this bound (neither is falling behind).
    pub merge_max_queue_depth: u64,
    /// ... and each of the pair applied at most this fraction of the fleet's
    /// updates within the check window (both slices have gone cold — e.g.
    /// their stories decayed out).
    pub merge_max_share: f64,
}

impl Default for RebalancePolicy {
    /// Split on queue depth 4096 or a 60% share of a ≥50k-update window;
    /// merge sibling slots whose queues are ≤16 deep and whose window shares
    /// are each ≤5%.
    fn default() -> Self {
        RebalancePolicy {
            min_queue_depth: 4096,
            min_share: 0.6,
            min_total_updates: 50_000,
            merge_max_queue_depth: 16,
            merge_max_share: 0.05,
        }
    }
}

/// Detects hot shards from the fleet's live signals and drives splits.
///
/// The two signals are the ones the facade already maintains: per-slot
/// **ingest queue depth** ([`ShardedDynDens::queue_depths`], routed minus
/// applied — the backpressure measure) and the per-slot share of updates
/// applied **since the previous check**, derived from the published
/// [`ShardSnapshot`](crate::ShardSnapshot) stats (the skew measure). The share signal is a *rate*,
/// not a lifetime counter, for two reasons: a slot that was hot an hour ago
/// but is balanced now must not be split, and the child that adopts the
/// parent's cumulative ledger after a split must not look eternally hot.
/// That makes the rebalancer stateful: the first [`pick`](Rebalancer::pick)
/// after construction (or after a topology change) only establishes the
/// baseline window. Drive it from an operations loop:
///
/// ```no_run
/// use dyndens_shard::{rebalance::Rebalancer, ShardConfig, ShardedDynDens};
/// use dyndens_core::DynDensConfig;
/// use dyndens_density::AvgWeight;
///
/// let mut fleet = ShardedDynDens::new(
///     AvgWeight,
///     DynDensConfig::new(1.0, 4).with_delta_it(0.15),
///     ShardConfig::new(2),
/// );
/// let mut rebalancer = Rebalancer::default();
/// loop {
///     // ... ingest for a while ...
///     if let Some(result) = rebalancer.maybe_split(&mut fleet) {
///         let report = result.expect("split failed");
///         eprintln!("split shard {} -> +{}", report.slot, report.new_slot);
///     }
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rebalancer {
    policy: RebalancePolicy,
    /// Per-slot applied-update counters at the previous [`pick`], the base
    /// of the share window. Reset whenever the slot count changes.
    ///
    /// [`pick`]: Rebalancer::pick
    baseline: Vec<u64>,
    /// The cold-slot window base for [`pick_merge`](Rebalancer::pick_merge),
    /// kept separate from the split baseline so an operations loop can drive
    /// both signals without the two consuming each other's windows.
    merge_baseline: Vec<u64>,
}

impl Rebalancer {
    /// A rebalancer with the given thresholds.
    pub fn new(policy: RebalancePolicy) -> Self {
        Rebalancer {
            policy,
            baseline: Vec::new(),
            merge_baseline: Vec::new(),
        }
    }

    /// The thresholds in effect.
    pub fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }

    /// Per-slot updates applied since the previous call with this
    /// `baseline`, which advances to now. `None` while the window is only
    /// being established (first call, or the slot count changed).
    fn window_deltas<D: DensityMeasure>(
        baseline: &mut Vec<u64>,
        fleet: &ShardedDynDens<D>,
    ) -> Option<Vec<u64>> {
        let view = fleet.view();
        let applied: Vec<u64> = (0..view.n_shards())
            .map(|s| view.shard_snapshot(s).stats.updates)
            .collect();
        let deltas = (baseline.len() == applied.len()).then(|| {
            applied
                .iter()
                .zip(baseline.iter())
                .map(|(now, base)| now.saturating_sub(*base))
                .collect()
        });
        *baseline = applied;
        deltas
    }

    /// The hottest splittable slot, or `None` while no slot crosses the
    /// policy thresholds. Queue depth dominates (a shard actively falling
    /// behind); the applied-share skew signal backs it up, computed over the
    /// window since the previous `pick` (the first call after construction
    /// or a topology change only establishes the window).
    pub fn pick<D: DensityMeasure>(&mut self, fleet: &ShardedDynDens<D>) -> Option<usize> {
        let window = Self::window_deltas(&mut self.baseline, fleet);
        let window_valid = window.is_some();
        let deltas = window.unwrap_or_default();

        let depths = fleet.queue_depths();
        let total: u64 = deltas.iter().sum();
        // Publish the two signals the decision is based on — the observed
        // skew is what an operator tunes the policy thresholds against.
        if let Some(registry) = fleet.config().obs.registry() {
            registry
                .gauge(names::REBALANCE_MAX_QUEUE_DEPTH, &[])
                .set(depths.iter().copied().max().unwrap_or(0));
            let most = deltas.iter().copied().max().unwrap_or(0);
            registry
                .gauge(names::REBALANCE_MAX_SHARE_PERMILLE, &[])
                .set(most.saturating_mul(1000).checked_div(total).unwrap_or(0));
        }
        let picked = (|| {
            if let Some((slot, &depth)) = depths.iter().enumerate().max_by_key(|&(_, &depth)| depth)
            {
                if depth >= self.policy.min_queue_depth {
                    return Some(slot);
                }
            }
            if !window_valid || deltas.len() < 2 {
                return None;
            }
            if total < self.policy.min_total_updates {
                return None;
            }
            let (slot, &most) = deltas.iter().enumerate().max_by_key(|&(_, &n)| n)?;
            (most as f64 > self.policy.min_share * total as f64).then_some(slot)
        })();
        if let (Some(registry), Some(slot)) = (fleet.config().obs.registry(), picked) {
            registry
                .gauge(names::REBALANCE_LAST_PICK, &[])
                .set(slot as u64);
        }
        picked
    }

    /// Splits the hottest shard if any slot crosses the thresholds. Returns
    /// `None` when the fleet is balanced (or while the share window is still
    /// being established).
    pub fn maybe_split<D: DensityMeasure>(
        &mut self,
        fleet: &mut ShardedDynDens<D>,
    ) -> Option<Result<SplitReport, RebalanceError>> {
        let slot = self.pick(fleet)?;
        Some(fleet.split_shard(slot))
    }

    /// The coldest mergeable sibling pair, or `None` while no pair qualifies.
    /// A pair qualifies when both slots' ingest queues are at or below
    /// [`merge_max_queue_depth`](RebalancePolicy::merge_max_queue_depth) and
    /// each applied at most
    /// [`merge_max_share`](RebalancePolicy::merge_max_share) of a window
    /// carrying at least
    /// [`min_total_updates`](RebalancePolicy::min_total_updates) fleet-wide
    /// — cold slices inside an otherwise active fleet. The idle-fleet guard
    /// is deliberate: with no traffic at all, "cold" carries no information,
    /// and merging would churn topology for nothing. Like
    /// [`pick`](Rebalancer::pick), the first call after construction or a
    /// topology change only establishes the window.
    pub fn pick_merge<D: DensityMeasure>(
        &mut self,
        fleet: &ShardedDynDens<D>,
    ) -> Option<(usize, usize)> {
        let deltas = Self::window_deltas(&mut self.merge_baseline, fleet)?;
        let total: u64 = deltas.iter().sum();
        if total < self.policy.min_total_updates {
            return None;
        }
        let depths = fleet.queue_depths();
        let cold = |slot: usize| {
            depths[slot] <= self.policy.merge_max_queue_depth
                && deltas[slot] as f64 <= self.policy.merge_max_share * total as f64
        };
        fleet
            .shard_map()
            .merge_candidates()
            .into_iter()
            .filter(|&(a, b)| cold(a) && cold(b))
            .min_by_key(|&(a, b)| deltas[a] + deltas[b])
    }

    /// Merges the coldest sibling pair if one qualifies. Returns `None` when
    /// no pair crosses the cold thresholds (or while the window is still
    /// being established).
    pub fn maybe_merge<D: DensityMeasure>(
        &mut self,
        fleet: &mut ShardedDynDens<D>,
    ) -> Option<Result<MergeReport, RebalanceError>> {
        let (a, b) = self.pick_merge(fleet)?;
        Some(fleet.merge_shards(a, b))
    }
}

/// One end of a reshape: a worker slot and the engine id naming its
/// persistence directory.
#[derive(Debug, Clone, Copy)]
struct Seat {
    slot: usize,
    engine: u64,
}

impl Seat {
    fn new(slot: usize, engine: u64) -> Self {
        Seat { slot, engine }
    }
}

/// What one reshape does; split and merge differ only in the plan they
/// build. The engine transform follows from the shape:
/// [`partition_by`](DynDens::partition_by) for 1 → 2,
/// [`absorb`](DynDens::absorb) for 2 → 1.
struct ReshapePlan {
    /// The slots parked, quiesced and retired, in routing-bit order.
    sources: Vec<Seat>,
    /// The slots installed at commit, in routing-bit order. The first reuses
    /// a source slot and adopts the sources' work ledger.
    targets: Vec<Seat>,
    /// The refined (split) or coarsened (merge) map the commit installs.
    map: ShardMap,
    /// Merge only: the source slot no target reuses. The roster's last slot
    /// is renumbered into it so slot numbering stays dense.
    freed_slot: Option<usize>,
}

impl ReshapePlan {
    /// The journal record of `stage`: a `SplitPhase` or a `MergePhase`.
    fn event(&self, stage: RebalanceStage, parked: u64) -> ObsEvent {
        let slot = self.targets[0].slot as u32;
        match self.freed_slot {
            None => ObsEvent::SplitPhase {
                slot,
                new_slot: self.targets[1].slot as u32,
                stage,
                parked,
            },
            Some(freed) => ObsEvent::MergePhase {
                slot,
                freed_slot: freed as u32,
                stage,
                parked,
            },
        }
    }
}

/// What a committed reshape measured, shaped into a [`SplitReport`] or a
/// [`MergeReport`] by the public wrappers.
struct Reshaped {
    /// The sources' sequence numbers at quiesce, in plan order.
    source_seqs: Vec<u64>,
    /// Updates that parked during the reshape.
    parked: u64,
}

/// Overwrites `items[slot]`, or appends when `slot` is the next new index.
fn place<T>(items: &mut Vec<T>, slot: usize, item: T) {
    if slot == items.len() {
        items.push(item);
    } else {
        items[slot] = item;
    }
}

impl<D: DensityMeasure> ShardedDynDens<D> {
    /// Splits worker `slot` into two shards: the bit-0 child keeps `slot`,
    /// the bit-1 child takes a new slot, and the routing table advances one
    /// generation. Equivalent to
    /// [`split_shard_with`](Self::split_shard_with) with a no-op observer.
    pub fn split_shard(&mut self, slot: usize) -> Result<SplitReport, RebalanceError> {
        self.split_shard_with(slot, |_| {})
    }

    /// Splits worker `slot`, invoking `observer` at each [`RebalanceStage`]:
    /// `Parked` once the parent is quiesced (every other shard is ingesting
    /// normally — the equivalence tests ingest concurrently from here),
    /// `Rebuilt` once both children exist (and, when persistent, the split
    /// is the committed topology even across a crash), `Committed` once
    /// routing serves the refined map and the children's workers are live.
    ///
    /// Only the split shard pauses; every other shard — and every
    /// [`IngestHandle`](crate::IngestHandle) and
    /// [`StoryView`](crate::StoryView) — keeps working throughout, including
    /// from other threads. See the [module docs](crate::rebalance) for the
    /// protocol, equivalence guarantees and failure semantics.
    pub fn split_shard_with(
        &mut self,
        slot: usize,
        mut observer: impl FnMut(RebalanceStage),
    ) -> Result<SplitReport, RebalanceError> {
        // Refine the map first: it also validates the slot.
        let mut map = self.shard_map();
        let spec = map.split(slot).ok_or(RebalanceError::UnknownShard(slot))?;
        let generation = map.generation();
        let plan = ReshapePlan {
            sources: vec![Seat::new(slot, spec.parent_engine)],
            targets: vec![
                Seat::new(slot, spec.child_zero_engine),
                Seat::new(spec.new_slot, spec.child_one_engine),
            ],
            map,
            freed_slot: None,
        };
        let done = self.reshape(plan, &mut observer)?;
        Ok(SplitReport {
            slot,
            new_slot: spec.new_slot,
            parent_engine: spec.parent_engine,
            child_engines: (spec.child_zero_engine, spec.child_one_engine),
            parent_seq: done.source_seqs[0],
            parked_updates: done.parked,
            generation,
        })
    }

    /// Merges sibling worker slots `a` and `b` back into one shard.
    /// Equivalent to [`merge_shards_with`](Self::merge_shards_with) with a
    /// no-op observer.
    pub fn merge_shards(&mut self, a: usize, b: usize) -> Result<MergeReport, RebalanceError> {
        self.merge_shards_with(a, b, |_| {})
    }

    /// Merges sibling worker slots `a` and `b` — the exact inverse of the
    /// split that created them — invoking `observer` at each
    /// [`RebalanceStage`], as [`split_shard_with`](Self::split_shard_with)
    /// does.
    ///
    /// Only the two siblings pause. The merged shard keeps the smaller slot
    /// of the pair; the larger slot is freed, and the previous last slot is
    /// renumbered into it without respawning its worker (see
    /// [`MergeReport::moved_slot`]). See the [module docs](crate::rebalance)
    /// for the protocol, equivalence guarantees and failure semantics.
    pub fn merge_shards_with(
        &mut self,
        a: usize,
        b: usize,
        mut observer: impl FnMut(RebalanceStage),
    ) -> Result<MergeReport, RebalanceError> {
        // Coarsen the map first: it also validates that the pair is a
        // sibling pair.
        let mut map = self.shard_map();
        let spec = map.merge(a, b).ok_or(RebalanceError::NotSiblings(a, b))?;
        let generation = map.generation();
        let plan = ReshapePlan {
            sources: vec![
                Seat::new(spec.zero_slot, spec.zero_engine),
                Seat::new(spec.one_slot, spec.one_engine),
            ],
            targets: vec![Seat::new(spec.slot, spec.merged_engine)],
            map,
            freed_slot: Some(spec.freed_slot),
        };
        let done = self.reshape(plan, &mut observer)?;
        let (seq_zero, seq_one) = (done.source_seqs[0], done.source_seqs[1]);
        Ok(MergeReport {
            slot: spec.slot,
            freed_slot: spec.freed_slot,
            moved_slot: spec.moved_slot,
            child_engines: (spec.zero_engine, spec.one_engine),
            merged_engine: spec.merged_engine,
            child_seqs: (seq_zero, seq_one),
            merged_seq: seq_zero + seq_one,
            parked_updates: done.parked,
            generation,
        })
    }

    /// The reshape transaction — see the [module docs](crate::rebalance) for
    /// the phase table. On `Err` the fleet routes exactly as before (every
    /// source resurrected).
    fn reshape(
        &mut self,
        mut plan: ReshapePlan,
        observer: &mut dyn FnMut(RebalanceStage),
    ) -> Result<Reshaped, RebalanceError> {
        // 1–2. Park and quiesce the sources. The pause clock runs from here
        // to commit — the whole window in which they apply nothing.
        let pause_started = Instant::now();
        let source_slots: Vec<usize> = plan.sources.iter().map(|s| s.slot).collect();
        let (park_rx, source_persists) = self.park_and_quiesce(&source_slots);
        let roster = self.roster.load();
        let source_seqs: Vec<u64> = source_slots
            .iter()
            .map(|&slot| roster[slot].cell.seq())
            .collect();
        // Every target starts where the sources stopped.
        let seq: u64 = source_seqs.iter().sum();
        observer(RebalanceStage::Parked);
        // One journal span covers the whole reshape; the Committed record is
        // enriched with the report counts. An aborted reshape leaves the
        // span open — a Begin without an End marks the failed attempt.
        let registry = self.config.obs.registry().cloned();
        let span = registry
            .as_ref()
            .map(|r| r.begin(plan.event(RebalanceStage::Parked, 0)));

        // 3–4. Rebuild and persist the targets; if persisting fails,
        // resurrect the sources.
        let engines = self.rebuild(&plan);
        let persists = match self.persist(&plan, seq, &engines) {
            Ok(persists) => persists,
            Err(cause) => {
                self.resurrect(&plan.sources, source_persists, park_rx);
                return Err(cause);
            }
        };
        // The sources' WALs end here: their directories retire at commit.
        drop(source_persists);
        // So do their engines, whose ids no map reuses: every series
        // labelled with one goes.
        if let Some(r) = &registry {
            for seat in &plan.sources {
                r.unregister_labelled("engine", &seat.engine.to_string());
            }
        }
        observer(RebalanceStage::Rebuilt);
        if let (Some(r), Some(span)) = (&registry, span) {
            r.note(span, plan.event(RebalanceStage::Rebuilt, 0));
        }

        // 5. Install the targets and publish the new roster in ONE epoch
        // store, so readers switch topology atomically — no interleaving
        // can observe one split child without the other (which would
        // transiently lose the moved slice's stories). Sequence numbers stay
        // monotone: a reused slot's old feed sat at or below `seq` too.
        // Each target is one record per owner: its feed goes into the
        // roster, its worker slot into the facade, and its routing entry
        // into the routing table at step 6.
        let mut feeds = (*roster).clone();
        let mut routes = Vec::with_capacity(plan.targets.len());
        for ((seat, engine), persist) in plan.targets.iter().zip(engines).zip(persists) {
            let seed = ShardSeed {
                engine,
                seq,
                persist,
            };
            let (feed, route, worker) = install_slot(seat.engine, &self.config, seed, &self.wakers);
            place(&mut feeds, seat.slot, feed);
            place(&mut self.workers, seat.slot, worker);
            routes.push((seat.slot, route));
        }
        if let Some(freed) = plan.freed_slot {
            // The last slot moves into the freed one keeping its feed and
            // worker (no respawn); its series keep their engine label.
            feeds.swap_remove(freed);
            self.workers.swap_remove(freed);
        }
        self.roster.store(Arc::new(feeds));
        self.wakers.notify();
        self.set_slot_gauges();

        // 6. Commit routing: install the targets and the new map, then drain
        // the parked backlog through them, in arrival order. Holding the
        // write lock guarantees no sender is mid-send, so the drain is
        // complete and nothing overtakes it.
        let parked = {
            let mut routing = self.routing.write().expect("routing poisoned");
            for (slot, route) in routes {
                place(&mut routing.slots, slot, route);
            }
            if let Some(freed) = plan.freed_slot {
                routing.slots.swap_remove(freed);
            }
            // The old map dies with the plan.
            std::mem::swap(&mut routing.map, &mut plan.map);
            drain_parked(&park_rx, &routing)
        };

        // Retire the sources' directories (the manifest no longer references
        // them; best-effort — an orphan is harmless).
        if let Some(p) = &self.persistence {
            for seat in &plan.sources {
                let _ = std::fs::remove_dir_all(recovery::shard_dir(&p.dir, seat.engine));
            }
        }
        observer(RebalanceStage::Committed);
        if let (Some(r), Some(span)) = (&registry, span) {
            r.end(span, plan.event(RebalanceStage::Committed, parked));
            let total = match plan.freed_slot {
                None => names::SPLITS_TOTAL,
                Some(_) => names::MERGES_TOTAL,
            };
            r.counter(total, &[]).inc();
            r.histogram(names::REBALANCE_PAUSE_US, &[])
                .record_micros(pause_started.elapsed());
        }
        Ok(Reshaped {
            source_seqs,
            parked,
        })
    }

    /// Phases 1–2: swaps every slot's live sender for one shared parked
    /// queue (new ingest for the slots accumulates unconsumed; per-sender
    /// order is preserved, which is all the targets need — distinct sources
    /// touch disjoint edges), then flushes and stops the workers, so
    /// everything routed before the park is applied and, when persistent,
    /// in each source's WAL. Returns the parked queue and each source
    /// worker's durability half, as its thread handed it back.
    ///
    /// # Panics
    ///
    /// If a source worker has died, as every other facade call does.
    fn park_and_quiesce(
        &mut self,
        slots: &[usize],
    ) -> (Receiver<WorkerMsg>, Vec<Option<WorkerPersistence>>) {
        let (park_tx, park_rx) = channel();
        let live: Vec<SyncSender<WorkerMsg>> = {
            let mut routing = self.routing.write().expect("routing poisoned");
            slots
                .iter()
                .map(|&slot| {
                    let parked = ShardTx::Parked(park_tx.clone());
                    match std::mem::replace(&mut routing.slots[slot].tx, parked) {
                        ShardTx::Live(tx) => tx,
                        // Reshapes are serialised by `&mut self`, and every
                        // one ends with its slots live again.
                        ShardTx::Parked(_) => unreachable!("slot {slot} is already parked"),
                    }
                })
                .collect()
        };
        let persists = live
            .into_iter()
            .zip(slots)
            .map(|(tx, &slot)| {
                let (ack_tx, ack_rx) = channel();
                tx.send(WorkerMsg::Flush(ack_tx)).expect(WORKER_GONE);
                ack_rx.recv().expect(WORKER_GONE);
                tx.send(WorkerMsg::Shutdown).expect(WORKER_GONE);
                let worker = &mut self.workers[slot];
                let thread = worker.thread.take().expect("a live slot has a worker");
                thread.join().expect(WORKER_GONE)
            })
            .collect();
        (park_rx, persists)
    }

    /// Phase 3: the quiesced live engines transformed into the targets, in
    /// plan order. A split partitions the parent through its lock; a merge
    /// clones each source, because `absorb` consumes it and an abort needs
    /// the sources intact.
    fn rebuild(&self, plan: &ReshapePlan) -> Vec<DynDens<D>> {
        let split = plan.targets.len() == 2;
        let kept = plan.targets[0].slot;
        let mut ledger = EngineStats::default();
        let mut targets: Vec<DynDens<D>> = Vec::with_capacity(plan.targets.len());
        for seat in &plan.sources {
            let live = self.workers[seat.slot]
                .engine
                .lock()
                .expect("shard engine poisoned");
            ledger.merge(live.stats());
            if split {
                let (zero, one) = live.partition_by(|v| plan.map.route(v) == kept);
                targets.extend([zero, one]);
            } else {
                let source = live.clone();
                match targets.first_mut() {
                    Some(merged) => merged.absorb(source),
                    None => targets.push(source),
                }
            }
        }
        // The ledger survives exactly: the first target adopts the sources'
        // live counters wholesale and any other starts at zero.
        let mut ledger = Some(ledger);
        for target in &mut targets {
            target.adopt_stats(ledger.take().unwrap_or_default());
        }
        targets
    }

    /// Phase 4: every target's directory, then the manifest rewrite — the
    /// commit point, from which recovery reopens the new topology. A no-op
    /// (`None` per target) for in-memory deployments.
    fn persist(
        &self,
        plan: &ReshapePlan,
        seq: u64,
        engines: &[DynDens<D>],
    ) -> Result<Vec<Option<WorkerPersistence>>, RebalanceError> {
        let Some(p) = &self.persistence else {
            return Ok(engines.iter().map(|_| None).collect());
        };
        let mut persists = Vec::with_capacity(engines.len());
        for (seat, engine) in plan.targets.iter().zip(engines) {
            persists.push(Some(persist_child(p, seat.engine, seq, engine)?));
        }
        recovery::rewrite_manifest(&p.dir, self.measure.name(), &self.engine_config, &plan.map)?;
        Ok(persists)
    }

    /// The abort path: restarts every parked source on its own records —
    /// its engine (intact, ledger included: its worker stopped cleanly at
    /// the quiesce point) and id, feed (no resync for its pollers) and
    /// routing entry — with the durability half its worker handed back, then
    /// re-routes the parked backlog through the unchanged map. Nothing is
    /// read from disk. Like an installed slot's, each source's routed counter
    /// restarts at its sequence number, and the drain counts the backlog in
    /// again.
    fn resurrect(
        &mut self,
        sources: &[Seat],
        persists: Vec<Option<WorkerPersistence>>,
        park_rx: Receiver<WorkerMsg>,
    ) {
        let roster = self.roster.load();
        let txs: Vec<SyncSender<WorkerMsg>> = sources
            .iter()
            .zip(persists)
            .map(|(seat, persist)| {
                let (feed, wakers) = (&roster[seat.slot], &self.wakers);
                self.workers[seat.slot].start(&self.config, persist, feed, wakers)
            })
            .collect();
        // Swap the live senders in under the write lock, so no producer can
        // interleave ahead of the backlog.
        let mut routing = self.routing.write().expect("routing poisoned");
        for (seat, tx) in sources.iter().zip(txs) {
            let route = &mut routing.slots[seat.slot];
            route.tx = ShardTx::Live(tx);
            let seq = roster[seat.slot].cell.seq();
            route.routed.store(seq, Ordering::Relaxed);
        }
        drain_parked(&park_rx, &routing);
    }
}

/// Empties a parked queue, in arrival order, through `routing` — the new map
/// and targets on commit, the unchanged map and resurrected sources on abort.
/// Returns the number of updates drained. The caller holds the routing write
/// lock, so no producer is mid-send and the drain is complete.
fn drain_parked(park_rx: &Receiver<WorkerMsg>, routing: &RouteState) -> u64 {
    let mut groups = Vec::new();
    let mut drained = 0;
    while let Ok(msg) = park_rx.try_recv() {
        match msg {
            WorkerMsg::Update(u) => {
                drained += 1;
                routing.send(&[u], &mut groups);
            }
            WorkerMsg::Batch(batch) => {
                drained += batch.len() as u64;
                routing.send(&batch, &mut groups);
            }
            // No control message can be parked: `Flush` and `Compact` are
            // only sent by `&self` methods of the fleet (`flush`,
            // `compact_below`) and `Shutdown` by its `Drop`, none of which
            // can run while a reshape holds `&mut self` from park to drain,
            // and an `IngestHandle` sends only updates and batches. Should
            // that ever change, fanning out keeps every waiter acknowledged.
            control => {
                for route in &routing.slots {
                    let _ = route.tx.send(control.clone());
                }
            }
        }
    }
    drained
}

/// Writes one target's initial state: its directory (clobbering an orphan
/// from a previously crashed or aborted attempt — engine ids are only
/// consumed by the manifest rewrite), a snapshot at the reshape point, and a
/// fresh WAL positioned to append from it.
fn persist_child<D: DensityMeasure>(
    p: &PersistenceConfig,
    engine_id: u64,
    seq: u64,
    child: &DynDens<D>,
) -> Result<WorkerPersistence, RebalanceError> {
    let dir = recovery::shard_dir(&p.dir, engine_id);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    recovery::write_snapshot(&dir, seq, &child.snapshot())?;
    let wal = WalWriter::open(&dir, seq, Vec::new(), p.fsync, p.segment_max_bytes)?;
    Ok(WorkerPersistence::new(wal, dir, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsyncPolicy, ShardConfig, ShardFn};
    use crate::sharded::ShardedDynDens;
    use dyndens_core::DynDensConfig;
    use dyndens_density::AvgWeight;
    use dyndens_graph::{EdgeUpdate, VertexId, VertexSet};
    use dyndens_obs::MetricName;
    use std::collections::{BTreeMap, BTreeSet};

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn engine_config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.15)
    }

    fn shard_config(n: usize) -> ShardConfig {
        ShardConfig::new(n)
            .with_shard_fn(ShardFn::Modulo)
            .with_max_batch(4)
    }

    /// A stream of two communities both owned by base slot 0 of a 2-slot
    /// modulo map (residues 0 and 2 mod 4), plus one on slot 1: splitting
    /// slot 0 separates the two co-resident communities.
    fn skewed_updates() -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        let communities: &[&[u32]] = &[&[0, 4, 8], &[2, 6, 10], &[1, 5, 9]];
        for round in 0..6 {
            for community in communities {
                for (i, &a) in community.iter().enumerate() {
                    for &b in &community[i + 1..] {
                        let delta = if round == 5 && i == 0 { -0.1 } else { 0.23 };
                        updates.push(update(a, b, delta));
                    }
                }
            }
        }
        updates
    }

    fn sorted_bits(mut sets: Vec<(VertexSet, f64)>) -> Vec<(VertexSet, u64)> {
        sets.sort_by(|a, b| a.0.cmp(&b.0));
        sets.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
    }

    #[test]
    fn in_memory_split_preserves_the_answer_and_the_ledger() {
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let (head, tail) = updates.split_at(updates.len() / 2);
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        fleet.apply_batch(head);
        let mut phases = Vec::new();
        let report = fleet.split_shard_with(0, |p| phases.push(p)).unwrap();
        assert_eq!(
            phases,
            vec![
                RebalanceStage::Parked,
                RebalanceStage::Rebuilt,
                RebalanceStage::Committed
            ]
        );
        assert_eq!(report.slot, 0);
        assert_eq!(report.new_slot, 2);
        assert_eq!(report.generation, 1);
        assert_eq!(fleet.n_shards(), 3);
        fleet.apply_batch(tail);
        fleet.validate().unwrap();
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        // The ledger counts every update exactly once across the split.
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        // Both children own part of the split slot's slice.
        let per_shard = fleet.view().per_shard_seq();
        assert_eq!(per_shard.len(), 3);
        assert!(per_shard[2] > report.parent_seq);
    }

    #[test]
    fn updates_parked_during_split_are_rerouted() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        fleet.apply_batch(&[update(0, 4, 1.1), update(2, 6, 1.2), update(1, 5, 1.3)]);
        fleet.flush();
        let handle = fleet.ingest_handle();
        let view = fleet.view();
        let report = fleet
            .split_shard_with(0, |phase| {
                if phase == RebalanceStage::Parked {
                    // Routed to the parked slot: must wait for the commit.
                    handle.apply_update(update(0, 8, 0.9));
                    handle.apply_update(update(2, 10, 0.8));
                    // Routed to the untouched slot: applied while the split
                    // shard is down.
                    let before = view.shard_seq(1);
                    handle.apply_update(update(1, 9, 0.7));
                    while view.shard_seq(1) == before {
                        std::thread::yield_now();
                    }
                }
            })
            .unwrap();
        assert_eq!(report.parked_updates, 2);
        fleet.flush();
        // Both children start at the parent's quiesce point (2 updates) and
        // each applied one parked update; the untouched slot applied three.
        assert_eq!(fleet.view().per_shard_seq(), vec![3, 2, 3]);
        fleet.validate().unwrap();
        // The parked updates landed on their new owners: residue 0 mod 4
        // stayed on slot 0, residue 2 mod 4 moved to slot 2.
        assert_eq!(fleet.shard_of(&update(0, 8, 0.0)), 0);
        assert_eq!(fleet.shard_of(&update(2, 10, 0.0)), 2);
    }

    #[test]
    fn persistent_split_rebuilds_from_snapshot_and_wal_slice() {
        let dir = std::env::temp_dir().join(format!("dyndens-reb-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(12)
        };
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        let (head, tail) = updates.split_at(2 * updates.len() / 3);
        // Flush per chunk so each chunk is its own micro-batch and the
        // checkpoint cadence (every 12 updates) actually fires.
        for chunk in head.chunks(4) {
            fleet.apply_batch(chunk);
            fleet.flush();
        }
        let report = fleet.split_shard(0).unwrap();
        // Each child's durability starts from one snapshot of its own, at
        // the parent's quiesce point.
        for child in [report.child_engines.0, report.child_engines.1] {
            let snapshots = recovery::list_snapshots(&recovery::shard_dir(&dir, child)).unwrap();
            let seqs: Vec<u64> = snapshots.into_iter().map(|(seq, _)| seq).collect();
            assert_eq!(seqs, vec![report.parent_seq], "child engine {child}");
        }
        fleet.apply_batch(tail);
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        // The parent's directory is retired; the children's exist.
        assert!(!recovery::shard_dir(&dir, report.parent_engine).exists());
        assert!(recovery::shard_dir(&dir, report.child_engines.0).exists());
        assert!(recovery::shard_dir(&dir, report.child_engines.1).exists());

        // Crash + reopen: the manifest's refined topology recovers all three
        // shards and the identical answer.
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
        assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_split_does_not_read_the_parent_directory() {
        let dir = std::env::temp_dir().join(format!("dyndens-no-reread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(12)
        };
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        let (head, tail) = updates.split_at(updates.len() / 2);
        for chunk in head.chunks(4) {
            fleet.apply_batch(chunk);
            fleet.flush();
        }
        // Lose the parent's whole directory — checkpoints and WAL — while it
        // is quiesced. The rebuild reads the live engine, so the split
        // commits anyway.
        let parent_dir = recovery::shard_dir(&dir, 0);
        let report = fleet
            .split_shard_with(0, |stage| {
                if stage == RebalanceStage::Parked {
                    std::fs::remove_dir_all(&parent_dir).unwrap();
                }
            })
            .unwrap();
        assert_eq!(report.parent_engine, 0);
        assert!(report.parent_seq > 0);
        fleet.apply_batch(tail);
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);

        // The children's own snapshots and WALs carry the deployment: a
        // dropped and reopened fleet serves the never-split answer.
        drop(fleet);
        let reopened = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        assert_eq!(reopened.n_shards(), 3);
        assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_rejects_unknown_slots() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        assert!(matches!(
            fleet.split_shard(7),
            Err(RebalanceError::UnknownShard(7))
        ));
        assert_eq!(fleet.n_shards(), 2);
    }

    #[test]
    fn in_memory_merge_is_the_splits_inverse() {
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let third = updates.len() / 3;
        fleet.apply_batch(&updates[..third]);
        let split = fleet.split_shard(0).unwrap();
        fleet.apply_batch(&updates[third..2 * third]);
        let mut phases = Vec::new();
        let report = fleet
            .merge_shards_with(split.new_slot, 0, |p| phases.push(p))
            .unwrap();
        assert_eq!(
            phases,
            vec![
                RebalanceStage::Parked,
                RebalanceStage::Rebuilt,
                RebalanceStage::Committed
            ]
        );
        assert_eq!(report.slot, 0);
        assert_eq!(report.freed_slot, 2);
        assert_eq!(report.moved_slot, None);
        assert_eq!(report.merged_seq, report.child_seqs.0 + report.child_seqs.1);
        assert_eq!(report.generation, 2);
        assert_eq!(fleet.n_shards(), 2);
        fleet.apply_batch(&updates[2 * third..]);
        fleet.validate().unwrap();
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        // The ledger survives the round trip: every update counted once.
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        assert_eq!(fleet.view().per_shard_seq().len(), 2);
        // Pollers of the merged slot resync (its delta ring restarted empty
        // at the merge point); the untouched slot's ring is unaffected.
        assert_eq!(
            fleet
                .view()
                .deltas_since(0, report.merged_seq.saturating_sub(1)),
            crate::view::DeltaCatchUp::Resync
        );
    }

    #[test]
    fn one_watch_covers_the_cells_of_a_split_then_merge() {
        use crate::PublishWaker;
        use std::sync::atomic::AtomicUsize;

        struct CountWaker(AtomicUsize);
        impl PublishWaker for CountWaker {
            fn wake(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let counter = Arc::new(CountWaker(AtomicUsize::new(0)));
        let waker: Arc<dyn PublishWaker> = counter.clone();
        fleet.view().watch(&waker);
        let split = fleet.split_shard(0).unwrap();
        fleet.merge_shards(split.new_slot, 0).unwrap();
        // Same shard count as at attach time, but slot 0 publishes into a
        // cell the merge created after the waker was attached.
        assert_eq!(fleet.n_shards(), 2);
        let before = counter.0.load(Ordering::SeqCst);
        fleet.apply_update(update(0, 4, 0.5));
        fleet.flush();
        assert_eq!(
            counter.0.load(Ordering::SeqCst),
            before + 1,
            "slot 0's publication must wake the watcher"
        );
    }

    #[test]
    fn merge_renumbers_the_displaced_last_slot() {
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        // Split both base slots: workers 0..=3 with sibling pairs (0, 2)
        // and (1, 3). Merging (0, 2) frees the middle slot 2, so worker 3
        // is renumbered into it without a respawn.
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let (head, tail) = updates.split_at(updates.len() / 2);
        fleet.apply_batch(head);
        fleet.split_shard(0).unwrap();
        fleet.split_shard(1).unwrap();
        assert_eq!(fleet.n_shards(), 4);
        let report = fleet.merge_shards(0, 2).unwrap();
        assert_eq!(report.moved_slot, Some(3));
        assert_eq!(fleet.n_shards(), 3);
        // The moved worker keeps applying updates under its new number.
        fleet.apply_batch(tail);
        fleet.flush();
        fleet.validate().unwrap();
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        // Ingest routed to the renumbered slot reaches it: slot 2 now owns
        // the slice worker 3 served (residue 3 mod 4 under the map).
        let depths = fleet.queue_depths();
        assert_eq!(depths.len(), 3);
        assert_eq!(fleet.queue_depths(), vec![0, 0, 0]);
    }

    /// Every series in `registry`: counters, gauges and histograms.
    fn all_series(registry: &dyndens_obs::Registry) -> Vec<MetricName> {
        let scrape = registry.snapshot();
        let counters = scrape.counters.iter().map(|c| &c.name);
        let gauges = scrape.gauges.iter().map(|g| &g.name);
        let histograms = scrape.histograms.iter().map(|h| &h.name);
        counters.chain(gauges).chain(histograms).cloned().collect()
    }

    /// The names of every series in `registry` labelled `engine="<id>"`.
    fn series_of(registry: &dyndens_obs::Registry, id: u64) -> Vec<String> {
        let label = id.to_string();
        all_series(registry)
            .into_iter()
            .filter(|name| name.label("engine") == Some(label.as_str()))
            .map(|name| name.name)
            .collect()
    }

    /// The engine ids that label at least one series in `registry`.
    fn labelled_engines(registry: &dyndens_obs::Registry) -> BTreeSet<u64> {
        let series = all_series(registry);
        let labels = series.iter().filter_map(|name| name.label("engine"));
        labels.map(|id| id.parse().unwrap()).collect()
    }

    fn live_engines(fleet: &ShardedDynDens<AvgWeight>) -> BTreeSet<u64> {
        fleet.shard_map().worker_engines().into_iter().collect()
    }

    #[test]
    fn a_reshape_drops_every_series_of_its_retired_engines() {
        let registry = Arc::new(dyndens_obs::Registry::new());
        let config = shard_config(2).with_obs(Arc::clone(&registry));
        let applied_by = |id: u64| {
            let scrape = registry.snapshot();
            let label = id.to_string();
            scrape.counter(names::SHARD_UPDATES_APPLIED_TOTAL, &[("engine", &label)])
        };

        // The freed slot is a middle one: worker 3 moves into slot 2.
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), config);
        fleet.apply_batch(&skewed_updates());
        let zero = fleet.split_shard(0).unwrap();
        let one = fleet.split_shard(1).unwrap();
        fleet.queue_depths();
        let moved = one.child_engines.1;
        assert!(
            series_of(&registry, moved).len() > 1,
            "engine {moved} is instrumented"
        );
        let report = fleet.merge_shards(0, 2).unwrap();
        assert_eq!(report.moved_slot, Some(3));
        fleet.queue_depths();
        let (a, b) = report.child_engines;
        for id in [zero.parent_engine, one.parent_engine, a, b] {
            assert!(series_of(&registry, id).is_empty(), "engine {id} retired");
        }
        assert_eq!(labelled_engines(&registry), live_engines(&fleet));
        // The moved worker counts on under its own label.
        let batch = [update(3, 7, 1.1), update(7, 11, 1.2), update(3, 11, 1.0)];
        assert_eq!(fleet.shard_of(&batch[0]), 2);
        let before = applied_by(moved).expect("the moved engine is instrumented");
        fleet.apply_batch(&batch);
        fleet.flush();
        assert_eq!(applied_by(moved), Some(before + 3));
        fleet.validate().unwrap();
        drop(fleet);

        // The freed slot is the last one: nothing moves.
        let registry = Arc::new(dyndens_obs::Registry::new());
        let config = shard_config(2).with_obs(Arc::clone(&registry));
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), config);
        fleet.apply_batch(&skewed_updates());
        let split = fleet.split_shard(0).unwrap();
        fleet.queue_depths();
        let report = fleet.merge_shards(0, 2).unwrap();
        assert_eq!((report.freed_slot, report.moved_slot), (2, None));
        let (child_zero, child_one) = split.child_engines;
        for id in [split.parent_engine, child_zero, child_one] {
            assert!(series_of(&registry, id).is_empty(), "engine {id} retired");
        }
        assert_eq!(labelled_engines(&registry), live_engines(&fleet));
        fleet.validate().unwrap();
    }

    /// A fleet split twice, with every slot having applied something, slot
    /// 3 (residue 3 mod 4) included.
    fn four_busy_slots(registry: &Arc<dyndens_obs::Registry>) -> ShardedDynDens<AvgWeight> {
        let config = shard_config(2).with_obs(Arc::clone(registry));
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), config);
        fleet.apply_batch(&skewed_updates());
        fleet.split_shard(0).unwrap();
        fleet.split_shard(1).unwrap();
        fleet.apply_batch(&busy_slot_three());
        fleet
    }

    /// Another round of the skewed stream plus a triangle on residue 3 mod 4.
    fn busy_slot_three() -> Vec<EdgeUpdate> {
        let mut ingest = skewed_updates();
        ingest.extend([update(3, 7, 0.6), update(7, 11, 0.6), update(3, 11, 0.6)]);
        ingest
    }

    fn assert_engine_gauges_match_the_feeds(
        fleet: &ShardedDynDens<AvgWeight>,
        registry: &dyndens_obs::Registry,
    ) {
        let view = fleet.view();
        let scrape = registry.snapshot();
        for (slot, id) in fleet.shard_map().worker_engines().into_iter().enumerate() {
            let label = id.to_string();
            assert_eq!(
                scrape.gauge("dyndens_engine_updates", &[("engine", &label)]),
                Some(view.shard_snapshot(slot).stats.updates),
                "slot {slot}, engine {id}"
            );
        }
    }

    #[test]
    fn engine_gauges_show_each_slots_published_ledger_after_a_merge() {
        let registry = Arc::new(dyndens_obs::Registry::new());
        let mut fleet = four_busy_slots(&registry);
        // Slot 0 becomes a fresh worker on the merged engine; worker 3 moves
        // into slot 2. Neither publishes before the scrape.
        let report = fleet.merge_shards(0, 2).unwrap();
        assert_eq!(report.moved_slot, Some(3));
        fleet.flush();
        assert_engine_gauges_match_the_feeds(&fleet, &registry);
    }

    #[test]
    fn a_moved_worker_keeps_its_series_through_a_merge() {
        let registry = Arc::new(dyndens_obs::Registry::new());
        let mut fleet = four_busy_slots(&registry);
        fleet.flush();
        let moved = fleet.shard_map().engine_of(3).unwrap();
        let label = moved.to_string();
        let counters_of_moved = || {
            let scrape = registry.snapshot();
            let counters = scrape.counters.into_iter();
            let own = counters.filter(|c| c.name.label("engine") == Some(label.as_str()));
            own.map(|c| (c.name, c.value)).collect::<Vec<_>>()
        };
        let slot_of_moved = || {
            registry
                .snapshot()
                .gauge(names::SHARD_SLOT, &[("engine", &label)])
        };
        let before = counters_of_moved();
        let applied = |(name, value): &(MetricName, u64)| {
            name.name == names::SHARD_UPDATES_APPLIED_TOTAL && *value > 0
        };
        assert!(before.iter().any(applied), "{before:?}");
        assert_eq!(slot_of_moved(), Some(3));
        // The merge sends the moved worker nothing: the same series, at the
        // same values, and only the slot gauge follows the move.
        let report = fleet.merge_shards(0, 2).unwrap();
        assert_eq!(report.moved_slot, Some(3));
        assert_eq!(counters_of_moved(), before);
        assert_eq!(slot_of_moved(), Some(2));
        assert_engine_gauges_match_the_feeds(&fleet, &registry);
    }

    /// Every `_total` counter in `registry`, by series.
    fn totals(registry: &dyndens_obs::Registry) -> BTreeMap<MetricName, u64> {
        let counters = registry.snapshot().counters.into_iter();
        let totals = counters.filter(|c| c.name.name.ends_with("_total"));
        totals.map(|c| (c.name, c.value)).collect()
    }

    #[test]
    fn no_total_counter_decreases_across_splits_and_a_merge() {
        let registry = Arc::new(dyndens_obs::Registry::new());
        let config = shard_config(2).with_obs(Arc::clone(&registry));
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), config);
        let mut previous = BTreeMap::new();
        // Scrapes after `step` and compares with the scrape before it.
        let mut scrape_after = |step: &str| {
            let now = totals(&registry);
            for (series, &value) in &now {
                if let Some(&before) = previous.get(series) {
                    assert!(
                        value >= before,
                        "after {step}: {series} fell from {before} to {value}"
                    );
                }
            }
            previous = now;
        };
        fleet.apply_batch(&skewed_updates());
        scrape_after("the first ingest");
        fleet.split_shard(0).unwrap();
        scrape_after("split 0");
        fleet.split_shard(1).unwrap();
        scrape_after("split 1");
        fleet.apply_batch(&busy_slot_three());
        scrape_after("the second ingest");
        fleet.merge_shards(0, 2).unwrap();
        scrape_after("merge(0, 2)");
        fleet.apply_batch(&busy_slot_three());
        scrape_after("the third ingest");
        fleet.flush();
        scrape_after("the flush");
    }

    #[test]
    fn a_persistent_fleets_series_are_labelled_by_its_engine_ids() {
        let dir = std::env::temp_dir().join(format!("dyndens-labels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(dyndens_obs::Registry::new());
        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2).with_obs(Arc::clone(&registry)),
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(12),
        )
        .unwrap();
        for chunk in skewed_updates().chunks(4) {
            fleet.apply_batch(chunk);
            fleet.flush();
        }
        fleet.split_shard(0).unwrap();
        fleet.split_shard(1).unwrap();
        fleet.merge_shards(0, 2).unwrap();
        fleet.queue_depths();

        let engines = fleet.shard_map().worker_engines();
        let on_disk: BTreeSet<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| {
                let name = entry.unwrap().file_name().into_string().unwrap();
                name.strip_prefix("shard-").map(|id| id.parse().unwrap())
            })
            .collect();
        assert_eq!(labelled_engines(&registry), live_engines(&fleet));
        assert_eq!(on_disk, live_engines(&fleet));
        let scrape = registry.snapshot();
        for (slot, id) in engines.iter().enumerate() {
            let label = id.to_string();
            let gauge = scrape.gauge(names::SHARD_SLOT, &[("engine", &label)]);
            assert_eq!(gauge, Some(slot as u64), "engine {id}");
        }
        let slot_labelled: Vec<_> = all_series(&registry)
            .into_iter()
            .filter(|name| name.label("shard").is_some())
            .collect();
        assert_eq!(slot_labelled, Vec::new());
        drop(fleet);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_non_sibling_pairs() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        assert!(matches!(
            fleet.merge_shards(0, 1),
            Err(RebalanceError::NotSiblings(0, 1))
        ));
        assert_eq!(fleet.n_shards(), 2);
    }

    #[test]
    fn persistent_merge_commits_durably() {
        let dir = std::env::temp_dir().join(format!("dyndens-merge-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(12)
        };
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        let (head, tail) = updates.split_at(updates.len() / 2);
        for chunk in head.chunks(4) {
            fleet.apply_batch(chunk);
            fleet.flush();
        }
        let split = fleet.split_shard(0).unwrap();
        let report = fleet.merge_shards(0, split.new_slot).unwrap();
        assert_eq!(report.child_engines, split.child_engines);
        fleet.apply_batch(tail);
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        // The children's directories are retired; the merged one exists.
        assert!(!recovery::shard_dir(&dir, report.child_engines.0).exists());
        assert!(!recovery::shard_dir(&dir, report.child_engines.1).exists());
        assert!(recovery::shard_dir(&dir, report.merged_engine).exists());

        // Crash + reopen: the manifest's coarsened topology recovers two
        // shards and the identical answer.
        drop(fleet);
        let reopened = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        assert_eq!(reopened.n_shards(), 2);
        assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebalancer_merges_cold_siblings() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        fleet.split_shard(0).unwrap();
        assert_eq!(fleet.n_shards(), 3);
        let mut rebalancer = Rebalancer::new(RebalancePolicy {
            min_queue_depth: u64::MAX,
            min_share: 1.0,
            min_total_updates: 10,
            merge_max_queue_depth: 16,
            merge_max_share: 0.1,
        });
        // First call only establishes the cold window.
        assert_eq!(rebalancer.pick_merge(&fleet), None, "no window yet");
        // An idle fleet must not merge: cold is indistinguishable from dead.
        assert_eq!(rebalancer.pick_merge(&fleet), None, "idle fleet");

        // All traffic lands on slot 1; the siblings (0, 2) sit cold.
        let updates: Vec<EdgeUpdate> = (0..40).map(|i| update(1, 5 + 2 * (i % 5), 0.1)).collect();
        fleet.apply_batch(&updates);
        fleet.flush();
        assert_eq!(rebalancer.pick_merge(&fleet), Some((0, 2)));
        // Each pick consumes the window, so feed another hot round before
        // letting the driver act on the signal.
        fleet.apply_batch(&updates);
        fleet.flush();
        let report = rebalancer.maybe_merge(&mut fleet).unwrap().unwrap();
        assert_eq!((report.slot, report.freed_slot), (0, 2));
        assert_eq!(fleet.n_shards(), 2);
        // The topology change resets the window; no further merge fires.
        assert_eq!(rebalancer.pick_merge(&fleet), None);
    }

    #[test]
    fn rebalancer_picks_the_skewed_shard_by_rate() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let mut relaxed = Rebalancer::new(RebalancePolicy {
            min_queue_depth: u64::MAX,
            min_share: 0.9,
            min_total_updates: 10,
            ..RebalancePolicy::default()
        });
        // The first pick only establishes the share window.
        assert_eq!(relaxed.pick(&fleet), None, "no window yet");

        // Everything in this window lands on slot 0.
        let updates: Vec<EdgeUpdate> = (0..40).map(|i| update(0, 2 + 2 * (i % 5), 0.1)).collect();
        fleet.apply_batch(&updates);
        fleet.flush();
        let mut strict = Rebalancer::default();
        strict.pick(&fleet); // establish the strict window too
        assert_eq!(strict.pick(&fleet), None, "below the default thresholds");
        let report = relaxed.maybe_split(&mut fleet).unwrap().unwrap();
        assert_eq!(report.slot, 0);
        assert_eq!(fleet.n_shards(), 3);

        // The split invalidated the window (slot count changed) and child
        // zero adopted the parent's cumulative ledger: the rate-based signal
        // must NOT keep splitting the historically-hot slot while the fleet
        // is now idle.
        assert_eq!(relaxed.pick(&fleet), None, "topology change resets window");
        assert_eq!(relaxed.pick(&fleet), None, "idle fleet stays un-split");

        // But fresh skew inside a new window fires again.
        let more: Vec<EdgeUpdate> = (0..40).map(|i| update(1, 3 + 2 * (i % 5), 0.1)).collect();
        fleet.apply_batch(&more);
        fleet.flush();
        assert_eq!(relaxed.pick(&fleet), Some(1));
    }
}
