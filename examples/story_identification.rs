//! End-to-end real-time story identification over a simulated post stream.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release -p dyndens --example story_identification
//! ```
//!
//! A planted-story tweet simulator stands in for the live social media feed
//! (the paper's Twitter sample is not redistributable). Posts flow through the
//! full pipeline — entity registry, decayed co-occurrence counters, the
//! chi-square + correlation association measure, and the DynDens engine — and
//! the current top stories are printed at a few checkpoints during the
//! simulated day, illustrating how the late-breaking "raid" story overtakes
//! the morning's stories in real time.

use dyndens::prelude::*;
use dyndens::shard::ShardConfig;
use dyndens::stream::{ChiSquareCorrelation, ShardedStoryPipeline};
use dyndens::workloads::{TweetSimulator, TweetSimulatorConfig};

fn main() {
    let config = TweetSimulatorConfig {
        n_posts: 40_000,
        n_background_entities: 400,
        ..TweetSimulatorConfig::default()
    };
    let corpus = TweetSimulator::new(config.clone()).generate();
    println!(
        "simulated corpus: {} posts over {:.1} hours, {} entities, {} planted stories\n",
        corpus.posts.len(),
        config.duration / 3600.0,
        corpus.registry.len(),
        config.stories.len(),
    );

    // The story pipeline: 2-hour mean post life, average-edge-weight density,
    // stories of up to 5 entities with density at least 0.4, on one shard.
    let mut pipeline = ShardedStoryPipeline::new(
        ChiSquareCorrelation::default(),
        2.0 * 3600.0,
        AvgWeight,
        DynDensConfig::new(0.4, 5).with_delta_it_fraction(0.25),
        ShardConfig::new(1),
    );

    let checkpoints = [0.25, 0.5, 0.75, 1.0];
    let mut next_checkpoint = 0;
    for (i, post) in corpus.posts.iter().enumerate() {
        // Re-resolve the post through the pipeline's own registry so names and
        // vertices stay consistent.
        let names: Vec<String> = corpus.registry.describe(post.entities.iter().copied());
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        pipeline.ingest(post.timestamp, &name_refs);

        let progress = (i + 1) as f64 / corpus.posts.len() as f64;
        if next_checkpoint < checkpoints.len() && progress >= checkpoints[next_checkpoint] {
            let hour = post.timestamp / 3600.0;
            println!("=== top stories at {hour:.1}h ({} posts seen) ===", i + 1);
            let stories = pipeline.top_stories(5);
            if stories.is_empty() {
                println!("    (no story clears the density threshold yet)");
            }
            for (rank, story) in stories.iter().enumerate() {
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

    let (positive, negative) = pipeline.generator().update_counts();
    println!("stream statistics:");
    println!(
        "    posts ingested:        {}",
        pipeline.generator().posts_seen()
    );
    println!("    positive edge updates: {positive}");
    println!("    negative edge updates: {negative}");
    println!(
        "    stories currently reported: {}",
        pipeline.engine().output_dense_count()
    );
    let stats = pipeline.engine().stats();
    println!(
        "    engine work: {} explorations, {} cheap explorations, {} subgraphs inserted",
        stats.explorations, stats.cheap_explorations, stats.subgraphs_inserted
    );
}
