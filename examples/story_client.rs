//! A remote story reader: connects to a running `story_server` example,
//! subscribes for pushed story-set deltas, and periodically prints the
//! merged top stories with entity names.
//!
//! Run (while `story_server` is up):
//!
//! ```bash
//! cargo run --release --example story_client                      # 127.0.0.1:7171
//! cargo run --release --example story_client -- 127.0.0.1:9000 10
//! ```
//!
//! Arguments: `[server_addr] [watch_seconds]` (defaults `127.0.0.1:7171`,
//! 10 seconds). The client registers one `Subscribe` cursor and lets the
//! server push exact per-shard `DenseEvent` suffixes as shards publish —
//! the out-of-process counterpart of holding a `StoryView`, with a resync
//! snapshot pushed only if the mirror lags behind the server's delta
//! retention (or the shard topology changes).
//!
//! Exits non-zero if no push advanced the mirror's cursor during the watch,
//! so a run that read nothing fails instead of printing an empty mirror. It
//! ends with a `Metrics` scrape and also exits non-zero unless the scrape
//! decodes, holds a per-shard applied-batches series and counts at least
//! one accepted connection (this one).

use std::time::{Duration, Instant};

use dyndens::serve::{Client, ClientBuilder, Mirror};
use dyndens_obs::names;

fn connect(addr: &str) -> Client {
    match ClientBuilder::new()
        .connect_timeout(Duration::from_secs(2))
        .retries(3)
        .backoff(Duration::from_millis(200))
        .connect(addr)
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            eprintln!("start the server first: cargo run --release --example story_server");
            std::process::exit(1);
        }
    }
}

fn print_top(client: &mut Client) {
    let (_, stories) = client.top_k(3).expect("topk request");
    for story in &stories {
        let label = if story.entities.is_empty() {
            story.vertices.to_string()
        } else {
            story.entities.join(" + ")
        };
        println!("  top: {label:<60} density {:.3}", story.density);
    }
}

/// Push mode: one subscription, deltas arrive as the server publishes.
fn watch_pushed(addr: &str, watch_secs: u64) {
    let mut client = connect(addr);
    let (stats, serve_stats, shards) = client.stats().expect("stats request");
    println!(
        "connected to {addr}: {} shards, {} updates ingested so far, \
         {} requests served",
        shards.len(),
        stats.updates,
        serve_stats.requests_served
    );

    let mut sub = client.subscribe(&[]).expect("subscribe");
    println!("subscribed across {} shards (push mode)", sub.n_shards());
    let mut mirror = Mirror::new();
    let start = Instant::now();
    let mut next_report = Duration::ZERO;
    while start.elapsed() < Duration::from_secs(watch_secs) {
        // Drain whatever the server has pushed since the last look; the
        // mirror applies deltas (or rebases on a pushed resync) exactly.
        while let Some(batch) = sub.try_next().expect("subscription healthy") {
            mirror.apply(&batch).expect("push applies");
        }
        if start.elapsed() >= next_report {
            next_report += Duration::from_secs(2);
            let seq: u64 = mirror.cursor().iter().sum();
            println!(
                "\nt+{:>4.1}s  cursor seq {seq}  mirrored stories {}  (events {}, resyncs {})",
                start.elapsed().as_secs_f64(),
                mirror.story_sets().len(),
                mirror.events_applied(),
                mirror.resyncs(),
            );
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // Unsubscribing hands the same connection back for request/reply use.
    let mut client = sub.unsubscribe().expect("unsubscribe");
    print_top(&mut client);
    let seq: u64 = mirror.cursor().iter().sum();
    println!(
        "\nwatched {watch_secs}s: mirror at seq {seq} with {} stories \
         ({} delta events applied, {} resyncs)",
        mirror.story_sets().len(),
        mirror.events_applied(),
        mirror.resyncs(),
    );
    if seq == 0 {
        eprintln!("no push advanced the mirror's cursor in {watch_secs}s");
        std::process::exit(1);
    }
    scrape_metrics(&mut client);
}

/// One `Metrics` scrape of the server's registry.
fn scrape_metrics(client: &mut Client) {
    let scrape = client.metrics().expect("metrics request");
    let batch_series = scrape
        .counters
        .iter()
        .filter(|s| s.name.name == names::SHARD_BATCHES_APPLIED_TOTAL)
        .count();
    let accepted = scrape.counter_total(names::SERVE_CONNS_ACCEPTED_TOTAL);
    println!(
        "metrics: {} counters, {} gauges, {} histograms, {} journal records; \
         {batch_series} applied-batch series, {accepted} connections accepted",
        scrape.counters.len(),
        scrape.gauges.len(),
        scrape.histograms.len(),
        scrape.events.len(),
    );
    if batch_series == 0 || accepted == 0 {
        eprintln!("the scrape lacks the fleet's or the server's series");
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let watch_secs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    watch_pushed(&addr, watch_secs);
}
