//! A live story server: simulated posts stream through a sharded pipeline
//! while the `dyndens-serve` TCP server exposes the emerging stories to
//! remote readers.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example story_server            # serves on 127.0.0.1:7171
//! cargo run --release --example story_server -- 127.0.0.1:9000 30
//! ```
//!
//! Arguments: `[listen_addr] [serve_seconds]` (defaults `127.0.0.1:7171`,
//! 15 seconds). While the server runs, point the companion example at it:
//!
//! ```bash
//! cargo run --release --example story_client -- 127.0.0.1:7171
//! ```
//!
//! The planted-story tweet simulator provides the post stream; ingest is
//! paced across the serving window so a polling client observes stories
//! forming and fading in real time. Entity names are published into the
//! server's name table as they are interned, so remote stories arrive
//! human-readable. The fleet and the server record into one metrics
//! registry, which a client's `Metrics` request scrapes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dyndens::prelude::*;
use dyndens::serve::StoryServer;
use dyndens::stream::{ChiSquareCorrelation, ShardedStoryPipeline};
use dyndens::workloads::{TweetSimulator, TweetSimulatorConfig};
use dyndens_obs::{ObsHandle, Registry};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let serve_secs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(15);

    let config = TweetSimulatorConfig {
        n_posts: 20_000,
        n_background_entities: 300,
        ..TweetSimulatorConfig::default()
    };
    let corpus = TweetSimulator::new(config).generate();
    println!("simulated {} posts", corpus.posts.len());

    let registry = Arc::new(Registry::new());
    let mut pipeline = ShardedStoryPipeline::new(
        ChiSquareCorrelation::default(),
        2.0 * 3600.0,
        AvgWeight,
        DynDensConfig::new(0.4, 5).with_delta_it_fraction(0.25),
        ShardConfig::new(2).with_obs(Arc::clone(&registry)),
    );

    let server = StoryServer::builder(pipeline.view())
        .workers(2)
        .max_connections(1024)
        .obs(ObsHandle::new(registry))
        .bind(&addr)
        .expect("bind story server");
    let names = server.names();
    println!(
        "serving on {} for {serve_secs}s (TopK / Poll / Stats / Metrics / Subscribe)",
        server.local_addr()
    );

    // Pace the corpus across the serving window so stories evolve while
    // clients watch. Names reach the table before the updates that use them
    // are routed, mirroring the entity journal's ordering discipline.
    let window = Duration::from_secs(serve_secs);
    let start = Instant::now();
    let per_post = window / corpus.posts.len() as u32;
    let mut next_report = window / 4;
    for (i, post) in corpus.posts.iter().enumerate() {
        let entities: Vec<String> = corpus.registry.describe(post.entities.iter().copied());
        let refs: Vec<&str> = entities.iter().map(String::as_str).collect();
        pipeline.ingest(post.timestamp, &refs);
        if i % 64 == 0 {
            names.publish(pipeline.entity_names());
        }
        // Sleep only while ahead of schedule; on slow machines ingest simply
        // runs flat out and the rest of the window serves a finished stream.
        let target = per_post * i as u32;
        if let Some(ahead) = target.checked_sub(start.elapsed()) {
            if !ahead.is_zero() {
                std::thread::sleep(ahead.min(Duration::from_millis(5)));
            }
        }
        if start.elapsed() >= next_report {
            next_report += window / 4;
            let seq: u64 = pipeline.view().per_shard_seq().iter().sum();
            let top = pipeline.top_stories_latest(1);
            println!(
                "t+{:>4.1}s  seq {seq:>7}  requests {:>6}  subscribers {}  top story: {}",
                start.elapsed().as_secs_f64(),
                server.requests_served(),
                server.subscribers(),
                top.first()
                    .map(|s| format!("{} (density {:.2})", s.entities.join(" + "), s.density))
                    .unwrap_or_else(|| "none yet".to_string()),
            );
        }
    }
    pipeline.flush();
    names.publish(pipeline.entity_names());

    // Serve the finished stream for whatever remains of the window.
    while start.elapsed() < window {
        std::thread::sleep(Duration::from_millis(50));
    }

    println!("\nfinal top stories:");
    for story in pipeline.top_stories(5) {
        println!(
            "  {:<60} density {:.3}",
            story.entities.join(" + "),
            story.density
        );
    }
    println!(
        "served {} requests; shutting down",
        server.requests_served()
    );
}
