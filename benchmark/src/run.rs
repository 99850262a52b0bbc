//! One workload, one process: repetitions of set-up → paced → saturated →
//! reads, then the checks and the metrics of the mode the run was started in.
//!
//! An untraced run measures the workload [`REPS`] times over, each on a
//! fresh system fed the identical stream. Every repetition gives one plain
//! value per metric — a phase's work over the phase's whole duration, a
//! phase's median latency — and the run reports a timing at its best
//! repetition and a share at its median one (see [`best_low`]); the median
//! over repetitions is printed beside every timing. A traced run measures
//! [`TRACED_REPS`] times with a `Registry` attached to the shard and serve
//! layers and a span around every call into the system, and as often,
//! alternating, without, so that the same estimator prices the tracing
//! itself; then it runs the isolated layer drives and reports the per-layer
//! stage budget.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dyndens_graph::{EdgeUpdate, ShardFn, ShardMap, VertexSet};
use dyndens_obs::{names, HistogramSnapshot, Registry, RegistrySnapshot};
use dyndens_serve::{Mirror, ServeStats};
use dyndens_workloads::oracle::sorted_bits;

use crate::emit::{MetricDef, MetricSet};
use crate::layers::{self, CoreDrive, StreamDrive};
use crate::phases::{paced_phase, reads_phase, saturated_phase, set_up, Paced, Reads, Saturated};
use crate::probe;
use crate::stats::{
    best_high, best_low, median, percentile_of_sorted, summarize, summarize_histogram,
};
use crate::sys;
use crate::system::{ReaderReport, SubscriberReport, Sut, TempDir};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Generated, Input, Workload, REPS, STREAMS, TRACED_REPS};

/// A probe must be visible within this long of its due time.
const VISIBLE_LIMIT_MS: f64 = 100.0;

/// Times a traced run repeats the isolated `stream` and `core` drives; each
/// counts at its best repetition, like every other timing.
const DRIVE_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time of the run; every size scales with it.
    pub seconds: f64,
    pub trace: bool,
    /// Where span files and WAL directories go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Options {
    /// The measuring time one repetition gets.
    pub fn rep_seconds(&self) -> f64 {
        self.seconds / REPS as f64
    }
}

/// What a run reports on its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
}

/// Correctness checks made and failed, by kind, over all repetitions.
#[derive(Debug, Default)]
struct Checks {
    kinds: Vec<(&'static str, u64, u64)>,
}

impl Checks {
    fn check(&mut self, kind: &'static str, ok: bool) {
        self.tally(kind, 1, u64::from(!ok));
    }

    /// `made` checks of one kind, `failed` of them failed.
    fn tally(&mut self, kind: &'static str, made: u64, failed: u64) {
        match self.kinds.iter_mut().find(|(k, _, _)| *k == kind) {
            Some(entry) => {
                entry.1 += made;
                entry.2 += failed;
            }
            None => self.kinds.push((kind, made, failed)),
        }
    }

    fn made(&self) -> u64 {
        self.kinds.iter().map(|(_, made, _)| made).sum()
    }

    fn failed(&self) -> u64 {
        self.kinds.iter().map(|(_, _, failed)| failed).sum()
    }

    /// `answer_ok_share`: the share passed of the kind that did worst, so
    /// that one failed bit-for-bit comparison is not lost among ten thousand
    /// verified replies.
    fn ok_share(&self) -> f64 {
        self.kinds
            .iter()
            .map(|(_, made, failed)| (made - failed) as f64 / (*made).max(1) as f64)
            .fold(1.0, f64::min)
    }

    fn print(&self) {
        for (kind, made, failed) in &self.kinds {
            let verdict = if *failed == 0 { "ok    " } else { "FAILED" };
            println!("check  {verdict}  {kind}: {} of {made}", made - failed);
        }
    }
}

/// Everything one repetition measured, its system torn down.
struct Measured {
    setup_s: f64,
    paced: Paced,
    saturated: Saturated,
    reads: Reads,
    reader: Option<ReaderReport>,
    subscriber: SubscriberReport,
    /// The fleet's final answer, in comparison form.
    answer: Vec<(VertexSet, u64)>,
    /// `posts_wal`: what reopening the directory took and replayed, and
    /// whether it recovered `answer` bit for bit.
    recovery: Option<(f64, u64, bool)>,
    /// The serve counters and the registry when the saturated phase began
    /// and when the reads phase had ended (empty scrapes in an untraced
    /// repetition).
    serve_stats: [ServeStats; 2],
    scrape: [RegistrySnapshot; 2],
    view_snapshot_us: f64,
    ctx_switches: u64,
    spans: Vec<Span>,
}

impl Measured {
    /// When the mirror had the saturated phase's last update (ns since the
    /// run's epoch).
    fn saturated_end_ns(&self) -> Result<u64, String> {
        probe::reached_at(&self.subscriber.log, self.saturated.target)
            .ok_or_else(|| "the push log never reached the saturated phase's last update".into())
    }

    /// Edge updates routed in the saturated phase ÷ the time from its first
    /// send until the mirror had the last of them.
    fn ingest_rate(&self) -> Result<f64, String> {
        let ns = self.saturated_end_ns()? - self.saturated.start_ns;
        Ok(self.saturated.routed as f64 / (ns.max(1) as f64 / 1e9))
    }

    /// Per probe, `visible − due` in ms, `None` for a probe never seen.
    fn visible_ms(&self) -> Vec<Option<f64>> {
        probe::join(&self.paced.probes, &self.subscriber.log)
            .into_iter()
            .map(|l| l.map(ms))
            .collect()
    }

    /// Verified replies of the reads phase ÷ its wall time.
    fn reads_rate(&self) -> f64 {
        (self.reads.made - self.reads.failed) as f64 / (self.reads.ns.max(1) as f64 / 1e9)
    }
}

/// What a repetition was fed: the input, its plan, and the shard of every
/// update (empty on one shard).
struct Fed {
    generated: Generated,
    shards: Vec<u8>,
}

/// One repetition on the run's `stream`-th stream: set-up, paced, saturated,
/// reads, teardown; with a registry attached and spans recorded if `traced`. What it was fed is
/// handed back beside the measurements so that the caller keeps only one
/// copy.
fn measure(
    opts: &Options,
    stream: usize,
    traced: bool,
    epoch: Instant,
) -> Result<(Measured, Fed), String> {
    let workload = opts.workload;
    let registry = traced.then(|| Arc::new(Registry::new()));
    let started = Instant::now();
    let mut ready = set_up(opts, stream, registry.as_ref(), epoch)?;
    let setup_s = started.elapsed().as_secs_f64();
    let plan = ready.generated.plan;

    let mut tracer = Tracer::new(traced, epoch, 1);
    let ctx_before = sys::context_switches();
    if workload.has_reader() {
        ready.system.start_reader(epoch, traced)?;
    }
    let paced = paced_phase(&mut ready, workload, epoch, &mut tracer);
    ready.system.wait_visible(ready.routed)?;
    let scrape = |registry: &Option<Arc<Registry>>| {
        registry.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    };
    let before = (ready.system.server.serve_stats(), scrape(&registry));
    let saturated = saturated_phase(
        &mut ready,
        workload,
        plan.paced_end..plan.total,
        epoch,
        &mut tracer,
    )?;
    let reader = ready.system.stop_reader()?;
    let ctx_switches = sys::context_switches() - ctx_before;

    ready
        .system
        .server
        .names()
        .publish(ready.system.sut.entity_names());
    let reads = reads_phase(&ready.system, plan.reads)?;
    let after = (ready.system.server.serve_stats(), scrape(&registry));
    let view_snapshot_us = if traced {
        layers::drive_view_snapshot(&ready.system.sut.view())
    } else {
        0.0
    };
    let torn = ready.system.teardown()?;
    if let Some(error) = &torn.subscriber.error {
        return Err(format!("the subscription ended early: {error}"));
    }

    let answer = sorted_bits(torn.sut.output_dense());
    let recovery = if workload == Workload::PostsWal {
        // Dropping the pipeline is a clean crash; reopening the same
        // directory must recover the same answer.
        drop(torn.sut);
        let started = Instant::now();
        let reopened = tracer.span("recovery", 0, || {
            Sut::build(workload, None, ready.wal.path())
        })?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let same = sorted_bits(reopened.output_dense()) == answer;
        Some((ms, reopened.replayed_updates(), same))
    } else {
        None
    };
    let measured = Measured {
        setup_s,
        paced,
        saturated,
        reads,
        reader,
        subscriber: torn.subscriber,
        answer,
        recovery,
        serve_stats: [before.0, after.0],
        scrape: [before.1, after.1],
        view_snapshot_us,
        ctx_switches,
        spans: tracer.into_spans(),
    };
    let fed = Fed {
        generated: ready.generated,
        shards: ready.shards,
    };
    Ok((measured, fed))
}

/// The reference: the isolated `core` drive — a single `DynDens` fed
/// exactly the updates the system was fed (lowered by the `stream` drive on
/// `posts_wal`) — with its answer in comparison form.
struct Reference {
    stream: Option<StreamDrive>,
    core: CoreDrive,
    want: Vec<(VertexSet, u64)>,
    want_sets: Vec<VertexSet>,
}

/// Runs the `stream` and `core` drives `times` times each and keeps each
/// one's fastest pass (every pass computes the same answer).
fn reference(workload: Workload, fed: &Fed, times: usize, tracer: &mut Tracer) -> Reference {
    let stream = match &fed.generated.input {
        Input::Updates(_) => None,
        Input::Posts(corpus) => (0..times)
            .map(|_| {
                tracer.span("drive_stream", 0, || {
                    layers::drive_stream(corpus, corpus.posts.len())
                })
            })
            .min_by(|a, b| a.ns_per_update().total_cmp(&b.ns_per_update())),
    };
    let updates: &[EdgeUpdate] = match (&fed.generated.input, &stream) {
        (Input::Updates(updates), _) => updates,
        (Input::Posts(_), Some(stream)) => &stream.updates,
        (Input::Posts(_), None) => unreachable!("posts are lowered by the stream drive"),
    };
    let core = (0..times)
        .map(|_| {
            tracer.span("drive_core", 0, || {
                layers::drive_core(workload.engine_config(), updates, &fed.shards)
            })
        })
        .min_by(|a, b| a.apply_ns_per_update.total_cmp(&b.apply_ns_per_update))
        .expect("the drives run at least once");
    let want = sorted_bits(core.engine.output_dense_subgraphs());
    let want_sets = want.iter().map(|(set, _)| set.clone()).collect();
    Reference {
        stream,
        core,
        want,
        want_sets,
    }
}

/// What a delta-fed mirror holds against what it should: `(extra, missing)`.
///
/// A mirror that followed deltas all the way holds exactly the sets the
/// engine `announced` (the replay of its own event stream, each set with the
/// `(shard, per-shard seq)` of its last `BecameOutputDense`). One that was
/// `rebased` mid-run on a resync snapshot — a shard's published top-16, not
/// its whole answer — may hold less: it must hold every set announced after
/// the snapshot it was rebased on (`resynced_at`, per shard) and no set the
/// engine does not hold (`engine_holds`, sorted). When a rebased mirror's
/// snapshots are unknown (`None`: the reader's poll-fed mirror) only the
/// second condition is checked.
fn mirror_verdict(
    got: &[VertexSet],
    rebased: bool,
    resynced_at: Option<&[u64]>,
    announced: &BTreeMap<VertexSet, (u8, u64)>,
    engine_holds: &[VertexSet],
) -> (usize, usize) {
    let extra = got
        .iter()
        .filter(|set| {
            if rebased {
                engine_holds.binary_search(set).is_err()
            } else {
                !announced.contains_key(*set)
            }
        })
        .count();
    let missing = match resynced_at {
        None if rebased => 0,
        _ => announced
            .iter()
            .filter(|(set, (shard, seq))| {
                let snapshot = resynced_at
                    .and_then(|at| at.get(*shard as usize))
                    .copied()
                    .unwrap_or(0);
                *seq > snapshot && got.binary_search(set).is_err()
            })
            .count(),
    };
    (extra, missing)
}

/// [`mirror_verdict`] of `mirror` against the reference: whether it agrees,
/// and a line describing it.
fn mirror_agrees(
    mirror: &Mirror,
    resynced_at: Option<&[u64]>,
    reference: &Reference,
) -> (bool, String) {
    let got = mirror.vertex_sets();
    let announced = &reference.core.announced;
    let (extra, missing) = mirror_verdict(
        &got,
        mirror.resyncs() > 0,
        resynced_at,
        announced,
        &reference.want_sets,
    );
    let line = format!(
        "mirror holds {} sets; the engine announced {} and holds {}; {extra} extra, \
         {missing} missing, {} resyncs",
        got.len(),
        announced.len(),
        reference.want.len(),
        mirror.resyncs()
    );
    (extra == 0 && missing == 0, line)
}

/// Checks one repetition against the reference; `describe` prints the
/// mirror lines even when they pass.
fn check(checks: &mut Checks, m: &Measured, reference: &Reference, describe: bool) {
    checks.check(
        "fleet answer == one reference DynDens fed the same updates, bit for bit",
        m.answer == reference.want,
    );
    let (ok, line) = mirror_agrees(
        &m.subscriber.mirror,
        Some(&m.subscriber.resynced_at),
        reference,
    );
    if describe || !ok {
        println!("push   {line}");
    }
    checks.check("push-fed mirror == the sets the engine announced", ok);
    checks.tally(
        "reads-phase replies == StoryView in process",
        m.reads.made,
        m.reads.failed,
    );
    if let Some(reader) = &m.reader {
        checks.tally(
            "reader replies beside the writes",
            reader.requests,
            reader.errors,
        );
        let (ok, line) = mirror_agrees(&reader.mirror, None, reference);
        if describe || !ok {
            println!("reader {line}");
        }
        checks.check(
            "reader's poll-fed mirror == the sets the engine announced",
            ok,
        );
    }
    if let Some((_, _, same)) = m.recovery {
        checks.check(
            "reopened pipeline recovers the same answer, bit for bit",
            same,
        );
    }
}

/// `after − before` of two snapshots of one histogram series.
fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier: std::collections::HashMap<u32, u64> = before.buckets.iter().copied().collect();
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        buckets: after
            .buckets
            .iter()
            .map(|&(bucket, n)| (bucket, n - earlier.get(&bucket).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One line of the report: the value the run reports for a metric, the
/// median over repetitions, and each repetition's own value.
fn print_reps(name: &str, reported: f64, values: &[f64]) {
    let each: Vec<String> = values.iter().map(|v| format!("{v:.5}")).collect();
    println!(
        "reps   {name:<22} reports {reported:.6} | median {:.6} | each {}",
        median(values),
        each.join(" ")
    );
}

/// The value a run reports for a share, or a traced run for a timing on its
/// one stream: `pick` over the repetitions.
fn over_reps(name: &str, values: &[f64], pick: fn(&[f64]) -> f64) -> f64 {
    let picked = pick(values);
    print_reps(name, picked, values);
    picked
}

/// The value a run over [`STREAMS`] streams reports for a timing, repetition
/// `i` being on stream `i % STREAMS`: the mean over the streams of each
/// stream's `best` repetition.
fn over_streams(name: &str, values: &[f64], best: fn(&[f64]) -> f64) -> f64 {
    let reported = (0..STREAMS)
        .map(|stream| {
            let own: Vec<f64> = values
                .iter()
                .skip(stream)
                .step_by(STREAMS)
                .copied()
                .collect();
            best(&own)
        })
        .sum::<f64>()
        / STREAMS as f64;
    print_reps(name, reported, values);
    reported
}

/// Runs one workload in this process and returns what to report.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    sys::pin_to_one_cpu()?;
    let epoch = Instant::now();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {:?}: {e}", opts.out_dir))?;
    println!(
        "# {} | seed {} | seconds {} | trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# {}", sys::environment(nproc, &opts.out_dir));
    let calib_before = sys::calibration_ms();

    let mut checks = Checks::default();
    let (metrics, calib_after) = if opts.trace {
        traced_run(opts, epoch, calib_before, &mut checks)?
    } else {
        untraced_run(opts, epoch, &mut checks)?
    };
    checks.print();
    println!("env    calibration {calib_before:.3} ms before, {calib_after:.3} ms after");
    for (def, value) in &metrics {
        println!("metric {:<36} {value:>18.6} {}", def.name, def.unit);
    }
    Ok(Outcome {
        correct: checks.failed() == 0,
        attempted: checks.made(),
        failed: checks.failed(),
        metrics,
    })
}

/// [`REPS`] repetitions, the checks on each, and the end-to-end metrics.
fn untraced_run(
    opts: &Options,
    epoch: Instant,
    checks: &mut Checks,
) -> Result<(Vec<(MetricDef, f64)>, f64), String> {
    let mut reps: Vec<Measured> = Vec::with_capacity(REPS);
    let mut fed: Vec<Option<Fed>> = (0..STREAMS).map(|_| None).collect();
    for rep in 0..REPS {
        // Every repetition regenerates its stream (that is part of the
        // set-up being timed); the stream's previous copy goes first.
        let stream = rep % STREAMS;
        fed[stream] = None;
        let (measured, input) = measure(opts, stream, false, epoch)?;
        reps.push(measured);
        fed[stream] = Some(input);
    }
    // The peak is read before the checks: the reference engine is the
    // harness's, not the system's.
    let peak_rss_mb = sys::peak_rss_mb();

    let references: Vec<Reference> = fed
        .iter()
        .map(|fed| {
            let fed = fed.as_ref().expect("every stream was measured");
            reference(opts.workload, fed, 1, &mut Tracer::new(false, epoch, 0))
        })
        .collect();
    for (rep, m) in reps.iter().enumerate() {
        check(checks, m, &references[rep % STREAMS], rep < STREAMS);
    }
    let calib_after = sys::calibration_ms();

    let of = |value: fn(&Measured) -> f64| reps.iter().map(value).collect::<Vec<f64>>();
    let ingest = reps
        .iter()
        .map(Measured::ingest_rate)
        .collect::<Result<Vec<_>, _>>()?;
    let latencies: Vec<Vec<Option<f64>>> = reps.iter().map(Measured::visible_ms).collect();
    // A repetition in which no probe was ever seen has no median: it counts
    // as infinitely slow, and through its share as wholly failed.
    let p50: Vec<f64> = latencies
        .iter()
        .map(|l| {
            let mut seen: Vec<f64> = l.iter().flatten().copied().collect();
            if seen.is_empty() {
                f64::INFINITY
            } else {
                summarize(&mut seen).p50
            }
        })
        .collect();
    let ok_share: Vec<f64> = latencies
        .iter()
        .map(|l| {
            let within = l.iter().flatten().filter(|&&v| v <= VISIBLE_LIMIT_MS);
            within.count() as f64 / l.len().max(1) as f64
        })
        .collect();

    let mut set = MetricSet::end_to_end();
    set.set(
        "setup_s",
        over_streams("setup_s", &of(|m| m.setup_s), best_low),
    );
    set.set(
        "ingest_updates_per_s",
        over_streams("ingest_updates_per_s", &ingest, best_high),
    );
    set.set(
        "visible_p50_ms",
        over_streams("visible_p50_ms", &p50, best_low),
    );
    set.set(
        "visible_ok_share",
        over_reps("visible_ok_share", &ok_share, median),
    );
    set.set(
        "reads_per_s",
        over_streams("reads_per_s", &of(Measured::reads_rate), best_high),
    );
    set.set("answer_ok_share", checks.ok_share());
    set.set("peak_rss_mb", peak_rss_mb);

    let mut seen: Vec<f64> = latencies.iter().flatten().flatten().copied().collect();
    println!(
        "timing visible             {}",
        summarize(&mut seen).describe("ms")
    );
    let mut late: Vec<f64> = reps
        .iter()
        .flat_map(|m| m.paced.lateness_ns.iter().map(|&ns| ms(ns)))
        .collect();
    println!(
        "timing generator lateness  {}",
        summarize(&mut late).describe("ms")
    );
    println!(
        "paced  backlog at end, updates, each repetition: {}",
        reps.iter()
            .map(|m| m.paced.backlog_end.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok((set.finish()?, calib_after))
}

/// [`TRACED_REPS`] traced repetitions alternating with as many untraced
/// ones, the isolated drives, the span file and the per-layer metrics.
fn traced_run(
    opts: &Options,
    epoch: Instant,
    calib_before: f64,
    checks: &mut Checks,
) -> Result<(Vec<(MetricDef, f64)>, f64), String> {
    let workload = opts.workload;
    let mut traced: Vec<Measured> = Vec::with_capacity(TRACED_REPS);
    let mut plain: Vec<Measured> = Vec::with_capacity(TRACED_REPS);
    let mut fed = None;
    for _ in 0..TRACED_REPS {
        drop(fed.take());
        traced.push(measure(opts, 0, true, epoch)?.0);
        let (measured, input) = measure(opts, 0, false, epoch)?;
        plain.push(measured);
        fed = Some(input);
    }
    let fed = fed.expect("at least one repetition");
    let generated = &fed.generated;
    let mut tracer = Tracer::new(true, epoch, 4);
    let reference = reference(workload, &fed, DRIVE_REPS, &mut tracer);
    for (i, m) in traced.iter().chain(&plain).enumerate() {
        check(checks, m, &reference, i == 0);
    }
    let (stream, core) = (&reference.stream, &reference.core);

    // The same estimator as the gated metric, on both sides: what the
    // registry and the spans cost is the gap between the best traced and the
    // best untraced repetition.
    let rates = |reps: &[Measured]| {
        reps.iter()
            .map(Measured::ingest_rate)
            .collect::<Result<Vec<_>, _>>()
    };
    let traced_rates = rates(&traced)?;
    let traced_rate = over_reps("ingest, traced", &traced_rates, best_high);
    let untraced_rate = over_reps("ingest, untraced", &rates(&plain)?, best_high);
    // The per-layer lines are read off the least disturbed traced
    // repetition.
    let least_disturbed = traced_rates
        .iter()
        .position(|&r| r == traced_rate)
        .expect("the best rate is one of the rates");
    let m = traced.swap_remove(least_disturbed);

    let extras = tracer.span("drive_core_extras", 0, || {
        layers::drive_core_extras(&core.engine)
    })?;
    let routed_updates: &[EdgeUpdate] = match (&generated.input, stream) {
        (Input::Updates(updates), _) => updates,
        (Input::Posts(_), Some(stream)) => &stream.updates,
        (Input::Posts(_), None) => unreachable!("posts are lowered by the stream drive"),
    };
    let shard_map = ShardMap::new(ShardFn::Modulo, workload.n_shards());
    let (route_ns, encode_ns) = tracer.span("drive_graph", 0, || {
        layers::drive_graph(&shard_map, routed_updates)
    });
    let wal_ns = if workload == Workload::PostsWal {
        let scratch = TempDir::create(&opts.out_dir, "wal-isolated")
            .map_err(|e| format!("creating the scratch WAL directory: {e}"))?;
        tracer.span("drive_wal", 0, || {
            layers::drive_wal(scratch.path(), routed_updates)
        })?
    } else {
        0.0
    };
    let serve = tracer.span("drive_serve", 0, || {
        layers::drive_serve(&m.subscriber.captured)
    })?;
    let calib_after = sys::calibration_ms();

    // Registry series count from construction; the per-update lines are about
    // the saturated phase, so they are read as the change across it.
    let (paced, saturated) = (&m.paced, &m.saturated);
    let counter =
        |name: &str| (m.scrape[1].counter_total(name) - m.scrape[0].counter_total(name)) as f64;
    let histogram = |name: &str| {
        histogram_delta(
            &m.scrape[1].merged_histogram(name),
            &m.scrape[0].merged_histogram(name),
        )
    };
    let mut latencies_ms: Vec<f64> = m.visible_ms().into_iter().flatten().collect();
    let visible = summarize(&mut latencies_ms);
    let mut late_ms: Vec<f64> = paced.lateness_ns.iter().map(|&ns| ms(ns)).collect();
    let late = summarize(&mut late_ms);
    let shard_apply = summarize_histogram(&histogram(names::SHARD_APPLY_LATENCY_US));
    let checkpoint = histogram(names::CHECKPOINT_LATENCY_US);
    let fanout = summarize_histogram(&histogram(names::SERVE_FANOUT_LATENCY_US));
    let publishes = counter(names::SHARD_BATCHES_APPLIED_TOTAL);
    let applied = counter(names::SHARD_UPDATES_APPLIED_TOTAL);
    let updates_per_publish = applied / publishes.max(1.0);
    let pushes = (m.serve_stats[1].pushes_sent - m.serve_stats[0].pushes_sent) as f64;
    let updates_per_push = saturated.routed as f64 / pushes.max(1.0);
    let read_rtt = m.reader.as_ref().map(|r| {
        summarize(
            &mut r
                .rtts_ns
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    });

    let mut set = MetricSet::per_layer();
    set.set(
        "workloads.gen_ns_per_update",
        generated.gen_ns as f64 / generated.input.len() as f64,
    );
    set.set("workloads.input_mb", generated.input.megabytes());
    if let Some(stream) = stream {
        set.set("stream.intern_ns_per_name", stream.intern_ns_per_name);
        set.set("stream.post_p50_ns", stream.post_ns.p50);
        set.set("stream.post_tail_ns", stream.post_ns.tail_value());
        set.set("stream.updates_per_post", stream.updates_per_post());
        set.set("stream.tracker_pairs", stream.tracker_pairs as f64);
        println!(
            "timing stream.post         {}",
            stream.post_ns.describe("ns")
        );
    }
    set.set("graph.route_ns_per_update", route_ns);
    set.set("graph.encode_ns_per_update", encode_ns);
    let stats = core.engine.stats();
    let per_update = |count: u64| count as f64 / core.updates.max(1) as f64;
    set.set("core.apply_ns_per_update", core.apply_ns_per_update);
    set.set("core.apply_batch_p50_us", core.batch_us.p50);
    set.set("core.apply_batch_tail_us", core.batch_us.tail_value());
    set.set(
        "core.explorations_per_update",
        per_update(stats.explorations),
    );
    set.set(
        "core.cheap_explorations_per_update",
        per_update(stats.cheap_explorations),
    );
    set.set(
        "core.candidates_per_update",
        per_update(stats.candidates_examined),
    );
    set.set(
        "core.degree_skips_per_update",
        per_update(stats.degree_prioritize_skips),
    );
    set.set("core.subgraphs_inserted", stats.subgraphs_inserted as f64);
    set.set(
        "core.star_markers_created",
        stats.star_markers_created as f64,
    );
    set.set(
        "core.output_dense_end",
        core.engine.output_dense_count() as f64,
    );
    set.set("core.dense_end", core.engine.dense_count() as f64);
    set.set("core.output_extract_us", extras.output_extract_us);
    set.set("core.snapshot_us", extras.snapshot_us);
    set.set("core.snapshot_bytes", extras.snapshot_bytes as f64);
    set.set("core.restore_us", extras.restore_us);
    let ingest_call_ns: u64 = m
        .spans
        .iter()
        .filter(|s| s.name == "ingest_call" && s.start_ns >= saturated.start_ns)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    set.set(
        "shard.ingest_call_ns_per_update",
        ingest_call_ns as f64 / saturated.routed.max(1) as f64,
    );
    let end_ns = m.saturated_end_ns()?;
    set.set(
        "shard.backpressure_wait_share",
        saturated
            .sending_ns
            .saturating_sub(saturated.sending_cpu_ns) as f64
            / (end_ns - saturated.start_ns).max(1) as f64,
    );
    set.set("shard.publishes", publishes);
    set.set("shard.updates_per_publish", updates_per_publish);
    set.set("shard.apply_batch_p50_us", shard_apply.p50);
    set.set("shard.apply_batch_tail_us", shard_apply.tail_value());
    set.set("shard.seq_lag_max_updates", paced.lag_max as f64);
    set.set("shard.backlog_end_updates", paced.backlog_end as f64);
    set.set("shard.wal_append_ns_per_update", wal_ns);
    set.set(
        "shard.wal_bytes_per_update",
        counter(names::WAL_APPEND_BYTES_TOTAL) / applied.max(1.0),
    );
    for (metric, series) in [
        ("shard.wal_appends", names::WAL_APPENDS_TOTAL),
        ("shard.wal_fsyncs", names::WAL_FSYNCS_TOTAL),
        ("shard.wal_rotations", names::WAL_ROTATIONS_TOTAL),
        ("shard.checkpoints", names::CHECKPOINTS_TOTAL),
        ("serve.wakeups", names::SERVE_WAKEUPS_TOTAL),
    ] {
        set.set(metric, counter(series));
    }
    set.set(
        "shard.checkpoint_p50_us",
        checkpoint.percentile(50.0) as f64,
    );
    set.set(
        "shard.checkpoint_bytes",
        m.scrape[1]
            .gauges
            .iter()
            .filter(|g| g.name.name == names::CHECKPOINT_BYTES)
            .map(|g| g.value)
            .sum::<u64>() as f64,
    );
    set.set("shard.view_snapshot_us", m.view_snapshot_us);
    set.set("shard.flush_ms", saturated.flush_ms);
    if let Some((recovery_ms, replayed, _)) = m.recovery {
        set.set("shard.recovery_ms", recovery_ms);
        set.set("shard.recovery_replayed_updates", replayed as f64);
    }
    set.set("serve.pushes", pushes);
    set.set("serve.updates_per_push", updates_per_push);
    set.set("serve.push_bytes_p50", serve.push_bytes.p50);
    set.set("serve.encode_ns_per_frame", serve.encode_ns_per_frame);
    set.set("serve.decode_ns_per_frame", serve.decode_ns_per_frame);
    set.set(
        "serve.mirror_apply_ns_per_frame",
        serve.mirror_apply_ns_per_frame,
    );
    set.set("serve.fanout_p50_us", fanout.p50);
    set.set("serve.fanout_tail_us", fanout.tail_value());
    if let Some(rtt) = &read_rtt {
        set.set("serve.read_rtt_p50_us", rtt.p50);
        set.set("serve.read_rtt_tail_us", rtt.tail_value());
        println!("timing serve.read_rtt      {}", rtt.describe("us"));
    }
    set.set(
        "serve.resyncs",
        (m.serve_stats[1].resyncs_served + m.subscriber.mirror.resyncs()) as f64,
    );
    set.set(
        "serve.slow_evictions",
        m.serve_stats[1].slow_evictions as f64,
    );
    set.set("serve.error_replies", m.serve_stats[1].error_replies as f64);
    set.set(
        "e2e.visible_p99_ms",
        percentile_of_sorted(&latencies_ms, 99.0),
    );
    set.set("e2e.visible_max_ms", visible.max);
    set.set("e2e.probes", paced.probes.len() as f64);
    set.set(
        "e2e.generator_late_p99_ms",
        percentile_of_sorted(&late_ms, 99.0),
    );
    set.set(
        "e2e.cpu_us_per_update_paced",
        paced.cpu_ns as f64 / 1e3 / paced.routed.max(1) as f64,
    );
    set.set(
        "e2e.cpu_us_per_update_saturated",
        saturated.cpu_ns as f64 / 1e3 / saturated.routed.max(1) as f64,
    );
    set.set(
        "e2e.ctx_switches_per_update",
        m.ctx_switches as f64 / (paced.routed + saturated.routed).max(1) as f64,
    );
    set.set("env.calib_ms_before", calib_before);
    set.set("env.calib_ms_after", calib_after);
    set.set("trace.overhead_share", 1.0 - traced_rate / untraced_rate);

    // The stage budget: on one CPU nothing overlaps, so the isolated lines
    // should add up to 1e9 / ingest rate; what they do not cover (channel
    // hand-offs, context switches, syscalls, socket writes) is the
    // unaccounted share.
    let checkpoint_ns = checkpoint.sum as f64 * 1e3 / applied.max(1.0);
    let lines = [
        (
            "stream (intern + lower)",
            stream.as_ref().map_or(0.0, StreamDrive::ns_per_update),
        ),
        ("graph.route", route_ns),
        ("shard.wal_append", wal_ns),
        ("shard.checkpoint", checkpoint_ns),
        ("core.apply", core.apply_ns_per_update),
        (
            "publish: core.output_extract / updates_per_publish",
            extras.output_extract_us * 1e3 / updates_per_publish.max(1.0),
        ),
        (
            "serve: (encode + decode + mirror apply) / updates_per_push",
            (serve.encode_ns_per_frame
                + serve.decode_ns_per_frame
                + serve.mirror_apply_ns_per_frame)
                / updates_per_push.max(1.0),
        ),
    ];
    let sum: f64 = lines.iter().map(|(_, ns)| ns).sum();
    let budget = 1e9 / untraced_rate;
    println!("stage budget, ns per routed update (the best untraced repetition ingests {untraced_rate:.0} upd/s)");
    for (name, ns) in lines {
        println!("budget {ns:>12.1}  {:>5.1} %  {name}", 100.0 * ns / budget);
    }
    println!(
        "budget {sum:>12.1}  {:>5.1} %  sum of the isolated lines",
        100.0 * sum / budget
    );
    println!("budget {budget:>12.1}  100.0 %  1e9 / ingest_updates_per_s");
    set.set("budget.sum_ns_per_update", sum);
    set.set("budget.unaccounted_share", 1.0 - sum / budget);

    println!("timing visible             {}", visible.describe("ms"));
    println!("timing generator lateness  {}", late.describe("ms"));
    println!(
        "timing core.apply_batch    {}",
        core.batch_us.describe("us")
    );
    println!("timing shard.apply_batch   {}", shard_apply.describe("us"));
    println!("timing serve.fanout        {}", fanout.describe("us"));
    println!(
        "timing serve.push_bytes    {}",
        serve.push_bytes.describe("bytes")
    );

    let mut spans = m.spans.clone();
    spans.extend(tracer.into_spans());
    spans.extend(m.subscriber.spans.iter().copied());
    if let Some(reader) = &m.reader {
        spans.extend(reader.spans.iter().copied());
    }
    println!("spans  name                     count     total ms      self ms");
    for t in trace::totals_by_name(&spans) {
        println!(
            "spans  {:<22} {:>7} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            ms(t.total_ns),
            ms(t.self_ns)
        );
    }
    let path = opts.out_dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&path, trace::to_json(workload.name(), &spans))
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("spans  {} written to {}", spans.len(), path.display());
    Ok((set.finish()?, calib_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> VertexSet {
        VertexSet::from_ids(ids)
    }

    /// The engine announced {1,2} and {3,4} on shard 0 and {5,6} on shard 1,
    /// and beside a `*` marker also holds {1,2,7}, which it never announced.
    fn announced() -> (BTreeMap<VertexSet, (u8, u64)>, Vec<VertexSet>) {
        let announced = BTreeMap::from([
            (set(&[1, 2]), (0, 10)),
            (set(&[3, 4]), (0, 500)),
            (set(&[5, 6]), (1, 40)),
        ]);
        let mut holds: Vec<VertexSet> = announced.keys().cloned().collect();
        holds.push(set(&[1, 2, 7]));
        holds.sort();
        (announced, holds)
    }

    #[test]
    fn a_mirror_that_followed_deltas_holds_exactly_what_was_announced() {
        let (announced, holds) = announced();
        let all: Vec<VertexSet> = announced.keys().cloned().collect();
        assert_eq!(
            mirror_verdict(&all, false, Some(&[]), &announced, &holds),
            (0, 0)
        );
        // One lost delta is a missing set, even beside `*` markers.
        assert_eq!(
            mirror_verdict(&all[1..], false, Some(&[]), &announced, &holds),
            (0, 1)
        );
        // Without a resync nothing can have told it about the unannounced
        // superset: holding it is a stale or invented set.
        assert_eq!(
            mirror_verdict(&holds, false, Some(&[]), &announced, &holds),
            (1, 0)
        );
        assert_eq!(mirror_verdict(&[], false, None, &announced, &holds), (0, 3));
    }

    #[test]
    fn a_rebased_mirror_owes_only_what_was_announced_after_its_snapshot() {
        let (announced, holds) = announced();
        // Shard 0 was rebased on its snapshot at seq 100: {1,2} (seq 10) may
        // be gone with the top-16 cut, {3,4} (seq 500) must be there; shard
        // 1 followed deltas, so {5,6} must be there too.
        let at = [100u64, 0];
        let got = vec![set(&[3, 4]), set(&[5, 6])];
        assert_eq!(
            mirror_verdict(&got, true, Some(&at), &announced, &holds),
            (0, 0)
        );
        assert_eq!(
            mirror_verdict(&got[..1], true, Some(&at), &announced, &holds),
            (0, 1)
        );
        // A snapshot may carry the unannounced superset; a set the engine
        // does not hold is still extra.
        let got = vec![set(&[1, 2, 7]), set(&[3, 4]), set(&[5, 6]), set(&[8, 9])];
        assert_eq!(
            mirror_verdict(&got, true, Some(&at), &announced, &holds),
            (1, 0)
        );
        // Snapshots unknown (the reader's mirror): only the extra rule.
        assert_eq!(mirror_verdict(&[], true, None, &announced, &holds), (0, 0));
    }
}
