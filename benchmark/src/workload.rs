//! The four workloads: what each feeds the system, how it configures it, and
//! how a run over it is divided into warm-up, paced and saturated parts.
//!
//! Sizes are the issue's full-size design (36 s of measuring: 15 s paced,
//! 15–20 s saturated, reads) scaled linearly by the measuring time one
//! repetition gets, `--seconds / REPS`: a run measures its workload
//! [`REPS`] times over (a traced run [`TRACED_REPS`] times with tracing on
//! and as often with it off), every time on a fresh system fed the identical
//! stream. The driver's fixed `--seconds` so gives a fixed amount of work
//! per seed. Paced rates are constants — about 35–45 % of today's
//! saturation on the slowest part of each stream — and are never derived
//! from a measured rate.

use std::time::Instant;

use dyndens_core::DynDensConfig;
use dyndens_graph::EdgeUpdate;
use dyndens_stream::{ChiSquareCorrelation, EdgeUpdateGenerator};
use dyndens_workloads::tweets::default_stories;
use dyndens_workloads::{
    AlignedCommunities, FlashCrowd, SimulatedCorpus, TweetSimulator, TweetSimulatorConfig,
    Workload as _,
};

/// The `--seconds` the driver passes (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 18.0;

/// Times an untraced run measures its workload, each on a fresh system:
/// [`STREAMS`] streams, alternating, each `REPS / STREAMS` times (see
/// `stats::best_low`).
pub const REPS: usize = 10;

/// Streams a run measures, generated from the sub-seeds `STREAMS * seed +
/// 0..STREAMS`. A timing is the mean over the streams of its best
/// repetition. Two, because on the tweet-shaped workloads what a stream
/// costs depends on its seed: the engine examines 69–88 candidates per
/// update on `weighted_dense` across sixteen seeds (sd 9 %, whatever the
/// threshold), and ten runs on ten seeds spread 20–22 % on ingest where ten
/// runs on one seed spread 8 %.
pub const STREAMS: usize = 2;

/// The seed of a run's `stream`-th stream.
pub fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed.wrapping_mul(STREAMS as u64)
        .wrapping_add(stream as u64)
}

/// Times a traced run measures its workload with tracing on, and as often,
/// alternating, with it off: the same repetition, so that
/// `trace.overhead_share` compares like with like.
pub const TRACED_REPS: usize = 5;

/// The measuring time the full-size sizes below were designed for.
const FULL_SECONDS: f64 = 36.0;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 2012;

/// Decay mean life of the post-shaped streams, seconds (the paper's two
/// hours).
pub const MEAN_LIFE_S: f64 = 7200.0;

/// One of the four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AlignedSteady,
    WeightedDense,
    PostsWal,
    FlashReaders,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::AlignedSteady,
    Workload::WeightedDense,
    Workload::PostsWal,
    Workload::FlashReaders,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlignedSteady => "aligned_steady",
            Workload::WeightedDense => "weighted_dense",
            Workload::PostsWal => "posts_wal",
            Workload::FlashReaders => "flash_readers",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Base shard count. The two-shard workloads are Modulo-aligned and the
    /// others run one shard, so all four are exact against a single engine.
    pub fn n_shards(self) -> usize {
        match self {
            Workload::AlignedSteady | Workload::FlashReaders => 2,
            Workload::WeightedDense | Workload::PostsWal => 1,
        }
    }

    pub fn engine_config(self) -> DynDensConfig {
        match self {
            Workload::AlignedSteady | Workload::FlashReaders => {
                dyndens_workloads::oracle::engine_config()
            }
            Workload::WeightedDense => DynDensConfig::new(0.25, 5).with_delta_it_fraction(0.25),
            // 0.5, not the issue's 0.4: on the time-compressed stream 0.4 sits
            // in the too-dense regime, where a handful of `*` markers decide
            // the engine's cost (300–530 ns per update across ten seeds,
            // against 220–280 at 0.5) and the engine is no longer the minor
            // layer this workload wants it to be.
            Workload::PostsWal => DynDensConfig::new(0.5, 5).with_delta_it_fraction(0.25),
        }
    }

    /// The fixed paced rate, in items (updates, or posts on `posts_wal`) per
    /// second.
    pub fn paced_rate(self) -> u64 {
        match self {
            Workload::AlignedSteady => 120_000,
            // The burst runs at about 125 k upd/s beside the reader, so the
            // issue's 120 k would pace the burst at its capacity.
            Workload::FlashReaders => 60_000,
            Workload::WeightedDense => 30_000,
            Workload::PostsWal => 10_000,
        }
    }

    /// Items per back-to-back ingest call in the warm-up and the saturated
    /// phase: 64-update batches, or one post (`ShardedStoryPipeline::ingest`
    /// takes one).
    pub fn ingest_chunk(self) -> usize {
        match self {
            Workload::PostsWal => 1,
            _ => 64,
        }
    }

    /// Whether a reader thread sends requests beside the writes.
    pub fn has_reader(self) -> bool {
        self == Workload::FlashReaders
    }

    /// Full-size `(warm-up, total)` item counts.
    fn full_size(self) -> (f64, f64) {
        match self {
            Workload::AlignedSteady => (500_000.0, 8_000_000.0),
            Workload::WeightedDense => (100_000.0, 1_800_000.0),
            // A 100 000-post warm-up, not the issue's 20 000, so that the
            // set-up being timed is not a few milliseconds.
            Workload::PostsWal => (100_000.0, 1_200_000.0),
            // The paced phase (15 s × 60 k) straddles the calm → burst edge
            // at 30 % of the stream.
            Workload::FlashReaders => (900_000.0, 4_500_000.0),
        }
    }
}

/// How one run divides its input, in item indices: `[0, warm_end)` is the
/// warm-up, `[warm_end, paced_end)` the paced phase, `[paced_end, total)`
/// the saturated phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub warm_end: usize,
    pub paced_end: usize,
    pub total: usize,
    /// 1 ms ticks in the paced phase.
    pub paced_ticks: u64,
    /// Requests in the reads phase.
    pub reads: usize,
}

/// The generated input of one run.
pub enum Input {
    /// A raw edge weight update stream (three workloads).
    Updates(Vec<EdgeUpdate>),
    /// Posts fed one by one, with entity names (`posts_wal`).
    Posts(SimulatedCorpus),
}

impl Input {
    pub fn len(&self) -> usize {
        match self {
            Input::Updates(updates) => updates.len(),
            Input::Posts(corpus) => corpus.posts.len(),
        }
    }

    /// Size of the pre-generated input in MB: a constant part of the
    /// process's peak RSS.
    pub fn megabytes(&self) -> f64 {
        let bytes = match self {
            Input::Updates(updates) => std::mem::size_of_val(updates.as_slice()),
            Input::Posts(corpus) => corpus
                .posts
                .iter()
                .map(|p| std::mem::size_of_val(p) + std::mem::size_of_val(p.entities.as_slice()))
                .sum(),
        };
        bytes as f64 / 1e6
    }
}

/// Input, plan and what generating them cost.
pub struct Generated {
    pub input: Input,
    pub plan: Plan,
    pub gen_ns: u64,
}

/// The simulator both post-shaped workloads use: the blog entity mix over
/// 2 000 background entities and the default planted stories, `full_posts`
/// posts over `full_days` simulated days at full size. The simulated time and
/// the stories' windows are compressed by `scale` together with the post
/// count, so posts per decay mean life — what sets the work per post — stay
/// at the full-size design's value and every story still starts and ends
/// inside the stream.
fn simulate(full_posts: f64, full_days: f64, seed: u64, scale: f64) -> SimulatedCorpus {
    let stretch = full_days * scale;
    let stories = default_stories()
        .into_iter()
        .map(|s| {
            let (start, end) = (s.start * stretch, s.end * stretch);
            s.with_window(start, end)
        })
        .collect();
    TweetSimulator::new(TweetSimulatorConfig {
        n_posts: ((full_posts * scale).round() as usize).max(50),
        n_background_entities: 2_000,
        duration: 24.0 * 3600.0 * stretch,
        entity_count_mix: (0.40, 0.25, 0.20, 0.15),
        stories,
        seed,
        ..TweetSimulatorConfig::default()
    })
    .generate()
}

/// The `weighted_dense` stream: the simulator's posts lowered to weighted
/// edge updates (`ChiSquareCorrelation`, two-hour decay), exactly `len`
/// updates long, so that every seed measures the same amount of work and
/// holds the same amount of input in memory; posts are lowered only until
/// the stream is that long. At the run's size 18 000 posts over 2.4
/// simulated hours would lower to 140–210 k updates depending on the seed,
/// of which the first 90 000 are used; at smoke sizes the association
/// statistics are still building up and a post lowers to far fewer, so the
/// simulated stretch is doubled until the stream is long enough.
fn weighted_updates(seed: u64, scale: f64, len: usize) -> Vec<EdgeUpdate> {
    let mut stretch = scale;
    loop {
        let corpus = simulate(360_000.0, 2.0, seed, stretch);
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), MEAN_LIFE_S);
        let mut updates = Vec::with_capacity(len + 64);
        for post in &corpus.posts {
            generator.process_post_into(post, &mut updates);
            if updates.len() >= len {
                updates.truncate(len);
                return updates;
            }
        }
        stretch *= 2.0;
    }
}

/// Generates `workload`'s input from `seed` for one repetition of
/// `rep_seconds` of measuring.
pub fn generate(workload: Workload, seed: u64, rep_seconds: f64) -> Generated {
    let started = Instant::now();
    let scale = rep_seconds / FULL_SECONDS;
    let (full_warm, full_total) = workload.full_size();
    let total = (full_total * scale).round() as usize;
    let paced_ticks = (15_000.0 * scale).round().max(1.0) as u64;
    let paced_items = (paced_ticks * workload.paced_rate() / 1000) as usize;
    let warm_end = ((full_warm * scale).round() as usize).max(1);
    let paced_end = warm_end + paced_items;
    let input = match workload {
        Workload::AlignedSteady => Input::Updates(AlignedCommunities::new(total, seed).updates()),
        Workload::FlashReaders => Input::Updates(FlashCrowd::new(total, seed).updates()),
        Workload::WeightedDense => Input::Updates(weighted_updates(
            seed,
            scale,
            total.max(paced_end + paced_items),
        )),
        // Two simulated days: at 600 000 posts a repetition's saturated phase
        // was over in half a second.
        Workload::PostsWal => Input::Posts(simulate(full_total, 2.0, seed, scale)),
    };
    let plan = Plan {
        warm_end,
        paced_end,
        total: input.len(),
        paced_ticks,
        reads: ((300_000.0 * scale).round() as usize).max(2),
    };
    assert!(
        plan.paced_end < plan.total,
        "{}: {} items cannot hold a {}-item warm-up and a {}-item paced phase",
        workload.name(),
        plan.total,
        plan.warm_end,
        paced_items
    );
    Generated {
        input,
        plan,
        gen_ns: started.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_well_formed() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::emit::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_the_plan_fits() {
        for w in WORKLOADS {
            let a = generate(w, 7, 0.05);
            let b = generate(w, 7, 0.05);
            let c = generate(w, 8, 0.05);
            assert_eq!(a.plan, b.plan);
            assert!(a.plan.warm_end < a.plan.paced_end && a.plan.paced_end < a.plan.total);
            assert_eq!(
                a.plan.paced_end - a.plan.warm_end,
                (a.plan.paced_ticks * w.paced_rate() / 1000) as usize
            );
            match (&a.input, &b.input, &c.input) {
                (Input::Updates(x), Input::Updates(y), Input::Updates(z)) => {
                    assert_eq!(x, y);
                    assert_ne!(x, z);
                }
                (Input::Posts(x), Input::Posts(y), Input::Posts(z)) => {
                    assert_eq!(x.posts, y.posts);
                    assert_ne!(x.posts, z.posts);
                }
                _ => panic!("{}: the input shape depends on the seed", w.name()),
            }
        }
    }

    #[test]
    fn the_flash_crowd_burst_begins_inside_the_paced_phase() {
        let g = generate(Workload::FlashReaders, 1, 0.1);
        let burst_start = g.plan.total * 3 / 10;
        assert!(g.plan.warm_end < burst_start && burst_start < g.plan.paced_end);
    }
}
