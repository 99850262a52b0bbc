//! The isolated layer drives: each layer's public functions called directly,
//! single-threaded, on the same input the full stack was fed. They give the
//! per-layer lines of the stage budget, and — because the `core` drive is a
//! single reference `DynDens` fed the same updates — the answer every run's
//! correctness checks compare against.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dyndens_core::{DenseEvent, DynDens, DynDensConfig};
use dyndens_density::AvgWeight;
use dyndens_graph::{EdgeUpdate, ShardMap, VertexId, VertexSet};
use dyndens_serve::protocol::Response;
use dyndens_serve::{Mirror, PushBatch};
use dyndens_shard::{FsyncPolicy, StoryView, WalWriter};
use dyndens_stream::{ChiSquareCorrelation, EdgeUpdateGenerator, EntityRegistry, Post};
use dyndens_workloads::SimulatedCorpus;

use crate::stats::{median, summarize, Timing};
use crate::workload::MEAN_LIFE_S;

/// Updates per engine batch in the `core` drive — the shard worker's
/// `max_batch`.
const BATCH: usize = 64;

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// `stream` in isolation: what `ShardedStoryPipeline::ingest` does before it
/// routes, over the first `n_posts` posts.
pub struct StreamDrive {
    /// The lowered edge updates, in the order the pipeline routes them.
    pub updates: Vec<EdgeUpdate>,
    pub posts: u64,
    pub names: u64,
    pub intern_ns_per_name: f64,
    /// Per-post `process_post_into` time, ns.
    pub post_ns: Timing,
    pub post_ns_total: f64,
    pub tracker_pairs: u64,
}

impl StreamDrive {
    pub fn updates_per_post(&self) -> f64 {
        self.updates.len() as f64 / self.posts.max(1) as f64
    }

    /// `stream`'s share of the budget, per routed update.
    pub fn ns_per_update(&self) -> f64 {
        (self.intern_ns_per_name * self.names as f64 + self.post_ns_total)
            / self.updates.len().max(1) as f64
    }
}

/// Interns every mentioned name in post order (so vertex ids match the
/// pipeline's, which interns by first appearance), then lowers the posts
/// with a fresh `EdgeUpdateGenerator`.
pub fn drive_stream(corpus: &SimulatedCorpus, n_posts: usize) -> StreamDrive {
    let names = corpus.registry.names();
    let posts = &corpus.posts[..n_posts];
    let mut registry = EntityRegistry::new();
    let n_names: usize = posts.iter().map(|p| p.entities.len()).sum();
    let started = Instant::now();
    let resolved: Vec<Vec<VertexId>> = posts
        .iter()
        .map(|p| {
            p.entities
                .iter()
                .map(|v| registry.intern(&names[v.index()]))
                .collect()
        })
        .collect();
    let intern_ns = ns_since(started);

    let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), MEAN_LIFE_S);
    let mut updates = Vec::new();
    let mut post_ns = Vec::with_capacity(posts.len());
    for (post, entities) in posts.iter().zip(resolved) {
        let post = Post::new(post.timestamp, entities);
        let started = Instant::now();
        generator.process_post_into(&post, &mut updates);
        post_ns.push(ns_since(started));
    }
    let post_ns_total = post_ns.iter().sum();
    StreamDrive {
        updates,
        posts: posts.len() as u64,
        names: n_names as u64,
        intern_ns_per_name: intern_ns / n_names.max(1) as f64,
        post_ns: summarize(&mut post_ns),
        post_ns_total,
        tracker_pairs: generator.tracker().pair_count() as u64,
    }
}

/// `core` in isolation: one `DynDens`, `apply_update_into` over the stream
/// in 64-update batches. The engine it leaves behind is the reference
/// answer, and the events it emitted along the way are what a mirror must
/// have been told.
pub struct CoreDrive {
    pub engine: DynDens<AvgWeight>,
    pub updates: u64,
    pub apply_ns_per_update: f64,
    /// Per-batch apply time, µs.
    pub batch_us: Timing,
    /// The engine's own event stream replayed: every set whose last event
    /// is `BecameOutputDense`, with the `(shard, per-shard sequence number)`
    /// of the update that emitted it. A follower that was sent every delta
    /// holds exactly these sets. (Beside a `*` marker the engine holds
    /// more: it materialises covered supersets without an event.)
    pub announced: BTreeMap<VertexSet, (u8, u64)>,
}

/// `shards[i]` is the shard that owns `updates[i]`; empty means one shard.
pub fn drive_core(config: DynDensConfig, updates: &[EdgeUpdate], shards: &[u8]) -> CoreDrive {
    let mut engine = DynDens::new(AvgWeight, config);
    let mut events = Vec::new();
    let mut emitted = Vec::with_capacity(BATCH);
    let mut batch_us = Vec::with_capacity(updates.len() / BATCH + 1);
    let mut announced = BTreeMap::new();
    let mut seqs = [0u64; 256];
    for (b, batch) in updates.chunks(BATCH).enumerate() {
        let started = Instant::now();
        for update in batch {
            engine.apply_update_into(*update, &mut events);
            emitted.push(events.len());
        }
        batch_us.push(ns_since(started) / 1e3);
        // Untimed: replay the batch's events, each under its own update.
        let mut replayed = 0;
        for (i, &end) in emitted.iter().enumerate() {
            let shard = shards.get(b * BATCH + i).copied().unwrap_or(0);
            seqs[shard as usize] += 1;
            for event in &events[replayed..end] {
                match event {
                    DenseEvent::BecameOutputDense { vertices, .. } => {
                        announced.insert(vertices.clone(), (shard, seqs[shard as usize]));
                    }
                    DenseEvent::NoLongerOutputDense { vertices, .. } => {
                        announced.remove(vertices);
                    }
                }
            }
            replayed = end;
        }
        events.clear();
        emitted.clear();
    }
    let total_us: f64 = batch_us.iter().sum();
    CoreDrive {
        engine,
        updates: updates.len() as u64,
        apply_ns_per_update: total_us * 1e3 / updates.len().max(1) as f64,
        batch_us: summarize(&mut batch_us),
        announced,
    }
}

/// Densest first, ties by vertex set: the order `shard::view` publishes in.
fn sort_stories(stories: &mut [(VertexSet, f64)]) {
    stories.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
}

/// The median of `reps` timings of `call`, in µs.
fn median_us<T>(reps: usize, mut call: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(call());
            ns_since(started) / 1e3
        })
        .collect();
    median(&times)
}

/// What each publication and each checkpoint pays, timed on the reference
/// engine's final state.
pub struct CoreExtras {
    /// `output_dense_subgraphs()` + sort + truncate to 16.
    pub output_extract_us: f64,
    pub snapshot_us: f64,
    pub snapshot_bytes: u64,
    pub restore_us: f64,
}

pub fn drive_core_extras(engine: &DynDens<AvgWeight>) -> Result<CoreExtras, String> {
    let output_extract_us = median_us(200, || {
        let mut stories = engine.output_dense_subgraphs();
        sort_stories(&mut stories);
        stories.truncate(16);
        stories
    });
    let bytes = engine.snapshot();
    let snapshot_us = median_us(20, || engine.snapshot());
    DynDens::restore(AvgWeight, &bytes).map_err(|e| format!("restoring a snapshot: {e}"))?;
    let restore_us = median_us(20, || DynDens::restore(AvgWeight, &bytes).is_ok());
    Ok(CoreExtras {
        output_extract_us,
        snapshot_us,
        snapshot_bytes: bytes.len() as u64,
        restore_us,
    })
}

/// `graph` in isolation: `(ShardMap::route, EdgeUpdate::encode_into)` in ns
/// per update.
pub fn drive_graph(map: &ShardMap, updates: &[EdgeUpdate]) -> (f64, f64) {
    let n = updates.len().max(1) as f64;
    let started = Instant::now();
    let mut slots = 0usize;
    for u in updates {
        slots += map.route(black_box(u.a.min(u.b)));
    }
    black_box(slots);
    let route_ns = ns_since(started) / n;

    let mut buf = Vec::with_capacity(BATCH * EdgeUpdate::ENCODED_LEN);
    let started = Instant::now();
    for batch in updates.chunks(BATCH) {
        buf.clear();
        for u in batch {
            u.encode_into(&mut buf);
        }
        black_box(&buf);
    }
    (route_ns, ns_since(started) / n)
}

/// `shard::wal` in isolation: `WalWriter::append` of 64-update batches into
/// a scratch directory beside the run's own WAL, buffered like the run's.
/// Returns ns per update.
pub fn drive_wal(dir: &Path, updates: &[EdgeUpdate]) -> Result<f64, String> {
    let mut wal = WalWriter::open(dir, 0, Vec::new(), FsyncPolicy::Never, 8 << 20)
        .map_err(|e| format!("opening the scratch WAL: {e}"))?;
    let started = Instant::now();
    let mut seq = 0u64;
    for batch in updates.chunks(BATCH) {
        wal.append(seq, batch)
            .map_err(|e| format!("appending to the scratch WAL: {e}"))?;
        seq += batch.len() as u64;
    }
    Ok(ns_since(started) / updates.len().max(1) as f64)
}

/// `StoryView::snapshot` on the final state, µs.
pub fn drive_view_snapshot(view: &StoryView) -> f64 {
    median_us(200, || view.snapshot())
}

/// `serve` in isolation, on the push batches captured during the run.
pub struct ServeDrive {
    /// Frame size on the wire (payload plus the 8-byte `len | crc` header).
    pub push_bytes: Timing,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub mirror_apply_ns_per_frame: f64,
}

pub fn drive_serve(captured: &[PushBatch]) -> Result<ServeDrive, String> {
    let n = captured.len().max(1) as f64;
    let responses: Vec<Response> = captured
        .iter()
        .map(|b| Response::Push {
            n_shards: b.n_shards,
            entries: b.entries.clone(),
        })
        .collect();

    let started = Instant::now();
    let payloads: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            r.encode_into(&mut buf);
            buf
        })
        .collect();
    let encode_ns = ns_since(started);

    let started = Instant::now();
    for payload in &payloads {
        black_box(Response::decode(payload).map_err(|e| format!("decoding a push: {e}"))?);
    }
    let decode_ns = ns_since(started);

    // The captured batches start at the bootstrap cursor and are contiguous,
    // so a fresh mirror can replay them.
    let mut mirror = Mirror::new();
    let started = Instant::now();
    for batch in captured {
        mirror
            .apply(batch)
            .map_err(|e| format!("replaying a captured push: {e}"))?;
    }
    let apply_ns = ns_since(started);

    let mut sizes: Vec<f64> = payloads.iter().map(|p| (p.len() + 8) as f64).collect();
    Ok(ServeDrive {
        push_bytes: summarize(&mut sizes),
        encode_ns_per_frame: encode_ns / n,
        decode_ns_per_frame: decode_ns / n,
        mirror_apply_ns_per_frame: apply_ns / n,
    })
}
