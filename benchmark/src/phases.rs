//! The phases of one repetition: set-up, paced, saturated, reads. Each
//! returns raw timings; `run` turns them into metrics.

use std::sync::Arc;
use std::time::Instant;

use dyndens_obs::Registry;
use dyndens_serve::{Client, ShardPoll, WireStory};
use dyndens_shard::StoryView;

use crate::probe::Probe;
use crate::run::Options;
use crate::sys;
use crate::system::{Sut, System, TempDir};
use crate::ticks::{items_of_tick, run_ticks, Clock, TickSchedule, WallClock};
use crate::trace::Tracer;
use crate::workload::{generate, stream_seed, Generated, Input, Plan, Workload};

/// A system that has ingested its warm-up and whose mirror has caught up.
pub struct Ready {
    pub generated: Generated,
    pub system: System,
    pub wal: TempDir,
    /// The shard `fleet.shard_of` gives every update of the stream; empty on
    /// `posts_wal`, which runs one shard.
    pub shards: Vec<u8>,
    /// Per paced tick, the `(shard, per-shard seq)` of its last update;
    /// empty on `posts_wal`, whose watermark is the running routed count.
    pub tick_probes: Vec<(u32, u64)>,
    /// Edge updates routed so far.
    pub routed: u64,
}

/// The `(shard, per-shard sequence number)` of the last update of every
/// non-empty paced tick, from one pass over the warm-up and paced part of
/// the stream's shards.
fn tick_probes(shards: &[u8], plan: &Plan, rate: u64) -> Vec<(u32, u64)> {
    let mut counts = [0u64; 256];
    let mut probes = Vec::with_capacity(plan.paced_ticks as usize);
    let mut counted = 0usize;
    for k in 0..plan.paced_ticks {
        let range = items_of_tick(k, rate, plan.warm_end);
        for &shard in &shards[counted..range.end] {
            counts[shard as usize] += 1;
        }
        counted = range.end;
        if let Some(&last) = shards[..range.end].last().filter(|_| !range.is_empty()) {
            probes.push((u32::from(last), counts[last as usize]));
        }
    }
    probes
}

/// Sends `range` back to back in the workload's ingest chunks, under the
/// channels' backpressure; returns the edge updates routed.
pub fn drive(
    sut: &mut Sut,
    input: &Input,
    range: std::ops::Range<usize>,
    chunk: usize,
    tracer: &mut Tracer,
    parent: u64,
) -> u64 {
    let mut routed = 0;
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + chunk).min(range.end);
        routed += tracer.span("ingest_call", parent, || sut.send(input, lo..hi));
        lo = hi;
    }
    routed
}

/// Generates the run's `stream`-th stream, builds the stack, ingests the
/// warm-up and waits until the subscriber's mirror has it.
pub fn set_up(
    opts: &Options,
    stream: usize,
    registry: Option<&Arc<Registry>>,
    epoch: Instant,
) -> Result<Ready, String> {
    let workload = opts.workload;
    let seed = stream_seed(opts.seed, stream);
    let generated = generate(workload, seed, opts.rep_seconds());
    let wal = TempDir::create(&opts.out_dir, "wal")
        .map_err(|e| format!("creating a WAL directory under {:?}: {e}", opts.out_dir))?;
    let mut system = System::start(workload, registry, wal.path(), epoch)?;
    let shards: Vec<u8> = match (&system.sut, &generated.input) {
        (Sut::Fleet(fleet), Input::Updates(updates)) => updates
            .iter()
            .map(|u| u8::try_from(fleet.shard_of(u)).expect("fewer than 256 shards"))
            .collect(),
        _ => Vec::new(),
    };
    let tick_probes = if shards.is_empty() {
        Vec::new()
    } else {
        tick_probes(&shards, &generated.plan, workload.paced_rate())
    };
    let routed = drive(
        &mut system.sut,
        &generated.input,
        0..generated.plan.warm_end,
        workload.ingest_chunk(),
        &mut Tracer::new(false, epoch, 0),
        0,
    );
    system.sut.flush();
    system.wait_visible(routed)?;
    Ok(Ready {
        generated,
        system,
        wal,
        shards,
        tick_probes,
        routed,
    })
}

/// What the paced phase measured.
pub struct Paced {
    pub probes: Vec<Probe>,
    pub lateness_ns: Vec<u64>,
    /// Edge updates routed in the phase.
    pub routed: u64,
    /// Largest `routed − visible`, sampled once per tick.
    pub lag_max: u64,
    /// `routed − visible` when the last tick's interval ended.
    pub backlog_end: u64,
    pub cpu_ns: u64,
}

/// Open loop: a 1 kHz tick sends the items due in that tick at the
/// workload's fixed rate, whether or not the system has kept up.
pub fn paced_phase(
    ready: &mut Ready,
    workload: Workload,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Paced {
    let plan = ready.generated.plan;
    let rate = workload.paced_rate();
    let mut clock = WallClock::new(epoch);
    let schedule = TickSchedule {
        start_ns: clock.now_ns() + 2_000_000,
        period_ns: 1_000_000,
        n_ticks: plan.paced_ticks,
    };
    let root = tracer.open("paced", 0);
    sys::set_timer_slack_ns(1);
    let cpu_before = sys::process_cpu_ns();
    let routed_before = ready.routed;
    let mut routed = ready.routed;
    let mut probes = Vec::with_capacity(plan.paced_ticks as usize);
    let mut next_probe = ready.tick_probes.iter().copied();
    let mut lag_max = 0u64;
    let (system, input) = (&mut ready.system, &ready.generated.input);
    let lateness_ns = run_ticks(&mut clock, schedule, |k, due_ns| {
        lag_max = lag_max.max(routed.saturating_sub(system.progress.visible()));
        let range = items_of_tick(k, rate, plan.warm_end);
        if range.is_empty() {
            return;
        }
        let sent = tracer.span("ingest_call", root, || system.sut.send(input, range));
        routed += sent;
        match input {
            Input::Updates(_) => {
                let (shard, seq) = next_probe.next().expect("one probe per non-empty tick");
                probes.push(Probe { shard, seq, due_ns });
            }
            // One shard: the watermark is the running sum of `ingest`'s
            // return values. A tick whose posts lowered to nothing has
            // nothing to become visible and sends no probe.
            Input::Posts(_) if sent > 0 => probes.push(Probe {
                shard: 0,
                seq: routed,
                due_ns,
            }),
            Input::Posts(_) => {}
        }
    });
    clock.sleep_until_ns(schedule.end_ns());
    sys::set_timer_slack_ns(sys::DEFAULT_TIMER_SLACK_NS);
    let backlog_end = routed.saturating_sub(ready.system.progress.visible());
    let cpu_ns = sys::process_cpu_ns() - cpu_before;
    tracer.close(root);
    ready.routed = routed;
    Paced {
        probes,
        lateness_ns,
        routed: routed - routed_before,
        lag_max,
        backlog_end,
        cpu_ns,
    }
}

/// What a saturated phase measured.
pub struct Saturated {
    pub start_ns: u64,
    /// Edge updates routed in the phase.
    pub routed: u64,
    /// The mirror's cursor sum the phase ends at.
    pub target: u64,
    /// Wall time from the first to the last ingest call's return.
    pub sending_ns: u64,
    /// Generator-thread CPU time over the same interval.
    pub sending_cpu_ns: u64,
    pub flush_ms: f64,
    pub cpu_ns: u64,
}

/// Closed loop: `range` back to back under backpressure; ends when the
/// subscriber's mirror cursor has reached the last update.
pub fn saturated_phase(
    ready: &mut Ready,
    workload: Workload,
    range: std::ops::Range<usize>,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Result<Saturated, String> {
    let mut clock = WallClock::new(epoch);
    let root = tracer.open("saturated", 0);
    let cpu_before = sys::process_cpu_ns();
    let thread_cpu_before = sys::thread_cpu_ns();
    let start_ns = clock.now_ns();
    let routed = drive(
        &mut ready.system.sut,
        &ready.generated.input,
        range,
        workload.ingest_chunk(),
        tracer,
        root,
    );
    let sending_ns = clock.now_ns() - start_ns;
    let sending_cpu_ns = sys::thread_cpu_ns() - thread_cpu_before;
    let flush_started = Instant::now();
    tracer.span("flush", root, || ready.system.sut.flush());
    let flush_ms = flush_started.elapsed().as_secs_f64() * 1e3;
    ready.routed += routed;
    ready.system.wait_visible(ready.routed)?;
    let cpu_ns = sys::process_cpu_ns() - cpu_before;
    tracer.close(root);
    Ok(Saturated {
        start_ns,
        routed,
        target: ready.routed,
        sending_ns,
        sending_cpu_ns,
        flush_ms,
        cpu_ns,
    })
}

/// What `StoryView` serves in process for `top_k(16)`.
fn expected_top_k(view: &StoryView, names: &[String]) -> (Vec<u64>, Vec<WireStory>) {
    let merged = view.snapshot();
    let stories = merged
        .stories
        .into_iter()
        .take(16)
        .map(|(vertices, density)| WireStory {
            entities: if names.is_empty() {
                Vec::new()
            } else {
                vertices.iter().map(|v| names[v.index()].clone()).collect()
            },
            vertices,
            density,
        })
        .collect();
    (merged.per_shard_seq, stories)
}

/// What the reads phase measured.
pub struct Reads {
    pub made: u64,
    pub failed: u64,
    /// Wall time of the phase, ns.
    pub ns: u64,
}

/// Closed loop on one client against the now-static state: `requests`
/// requests alternating `top_k(16)` and `poll(cursor)`, every reply compared
/// with what `StoryView` serves in process.
pub fn reads_phase(system: &System, requests: usize) -> Result<Reads, String> {
    let view = system.sut.view();
    let names = system.server.names().load();
    let want_top = expected_top_k(&view, &names);
    // A client that follows static state polls at its current cursor and is
    // told nothing changed: the poll a steady reader sends most.
    let cursor = view.per_shard_seq();
    let want_poll = (view.n_shards() as u32, Vec::<ShardPoll>::new());
    let mut client = Client::builder()
        .connect(system.server.local_addr())
        .map_err(|e| format!("connecting the reads client: {e}"))?;
    let mut failed = 0u64;
    let started = Instant::now();
    for i in 0..requests {
        let ok = if i % 2 == 0 {
            client.top_k(16).is_ok_and(|reply| reply == want_top)
        } else {
            client.poll(&cursor).is_ok_and(|reply| reply == want_poll)
        };
        failed += u64::from(!ok);
    }
    Ok(Reads {
        made: requests as u64,
        failed,
        ns: started.elapsed().as_nanos() as u64,
    })
}
