//! Sharded real-time story identification: parallel ingest across shard
//! workers, non-blocking story serving from the merged view.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example sharded_stories
//! ```
//!
//! The same planted-story simulator as `story_identification` feeds a
//! `ShardedStoryPipeline`: posts are turned into edge weight updates on the
//! ingest thread and routed to per-shard DynDens engines, while story reads
//! come from the sequence-numbered `StoryView` without stalling ingest. A
//! second phase pushes a partition-aligned synthetic stream through raw
//! `ShardedDynDens` fleets at 1/2/4 shards to show the ingest scaling and
//! the exactness of the partitioned answer.

use std::time::Instant;

use dyndens::prelude::*;
use dyndens::stream::{ChiSquareCorrelation, ShardedStoryPipeline};
use dyndens::workloads::{TweetSimulator, TweetSimulatorConfig};

fn main() {
    posts_through_sharded_pipeline();
    scaling_on_aligned_stream();
}

fn posts_through_sharded_pipeline() {
    let config = TweetSimulatorConfig {
        n_posts: 20_000,
        n_background_entities: 300,
        ..TweetSimulatorConfig::default()
    };
    let corpus = TweetSimulator::new(config.clone()).generate();
    println!(
        "phase 1: {} simulated posts over {:.1} hours through a 4-shard story pipeline\n",
        corpus.posts.len(),
        config.duration / 3600.0,
    );

    let mut pipeline = ShardedStoryPipeline::new(
        ChiSquareCorrelation::default(),
        2.0 * 3600.0,
        AvgWeight,
        DynDensConfig::new(0.4, 5).with_delta_it_fraction(0.25),
        ShardConfig::new(4),
    );

    // A serving handle that could live on another thread: reads never block
    // the ingest path.
    let view = pipeline.view();

    let checkpoints = [0.5, 1.0];
    let mut next_checkpoint = 0;
    for (i, post) in corpus.posts.iter().enumerate() {
        let names: Vec<String> = corpus.registry.describe(post.entities.iter().copied());
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        pipeline.ingest(post.timestamp, &name_refs);

        let progress = (i + 1) as f64 / corpus.posts.len() as f64;
        if next_checkpoint < checkpoints.len() && progress >= checkpoints[next_checkpoint] {
            // Non-blocking read: whatever the shards have published so far.
            let merged = view.snapshot();
            println!(
                "=== snapshot at {:.1}h: seq {} (per shard {:?}), {} stories tracked ===",
                post.timestamp / 3600.0,
                merged.seq,
                merged.per_shard_seq,
                merged.output_dense_total,
            );
            for (rank, story) in pipeline.top_stories_latest(5).iter().enumerate() {
                println!(
                    "    {}. [density {:.2}] {}",
                    rank + 1,
                    story.density,
                    story.entities.join(", ")
                );
            }
            println!();
            next_checkpoint += 1;
        }
    }

    pipeline.flush();
    let stats = view.stats();
    let (positive, negative) = pipeline.generator().update_counts();
    println!("stream statistics (merged across shards):");
    println!(
        "    posts ingested:        {}",
        pipeline.generator().posts_seen()
    );
    println!(
        "    edge updates routed:   {} positive, {negative} negative",
        positive
    );
    println!(
        "    stories reported now:  {}",
        pipeline.engine().output_dense_count()
    );
    println!(
        "    engine work: {} updates, {} explorations, {} subgraphs inserted\n",
        stats.updates, stats.explorations, stats.subgraphs_inserted
    );
}

fn scaling_on_aligned_stream() {
    let updates = dyndens::workloads::shard_aligned_stream(50_000, 4, 2012);
    println!("phase 2: 50k partition-aligned updates through raw ShardedDynDens fleets");

    let engine_config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
    let mut baseline: Option<(f64, usize)> = None;
    for n_shards in [1usize, 2, 4] {
        let mut fleet = ShardedDynDens::new(
            AvgWeight,
            engine_config.clone(),
            ShardConfig::new(n_shards).with_shard_fn(ShardFn::Modulo),
        );
        let start = Instant::now();
        for chunk in updates.chunks(512) {
            fleet.apply_batch(chunk);
        }
        fleet.flush();
        let secs = start.elapsed().as_secs_f64();
        let stories = fleet.output_dense_count();
        let (base_secs, base_stories) = *baseline.get_or_insert((secs, stories));
        assert_eq!(
            stories, base_stories,
            "partition-aligned sharding must be lossless"
        );
        println!(
            "    {n_shards} shard(s): {:>8.0} updates/s ({:.2}x), {} output-dense subgraphs",
            updates.len() as f64 / secs,
            base_secs / secs,
            stories,
        );
    }
}
