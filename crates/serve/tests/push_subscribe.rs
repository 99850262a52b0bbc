//! Push-mode serving: the `Subscribe`/`Push` protocol exercised end to end
//! against a live fleet — catch-up on subscribe, live fan-out as shards
//! publish, clean unsubscribe back to request/reply mode, non-blocking
//! `try_next`, the typed slow-consumer severance, and a thousand-subscriber
//! fan-in.

use std::time::{Duration, Instant};

use dyndens_core::DynDensConfig;
use dyndens_density::AvgWeight;
use dyndens_graph::{EdgeUpdate, VertexId};
use dyndens_serve::{Client, ClientError, ErrorCode, Mirror, StoryServer};
use dyndens_shard::{ShardConfig, ShardedDynDens};

fn fleet(n_shards: usize) -> ShardedDynDens<AvgWeight> {
    ShardedDynDens::new(
        AvgWeight,
        DynDensConfig::new(1.0, 4).with_delta_it(0.15),
        ShardConfig::new(n_shards)
            .with_max_batch(64)
            .with_top_k(usize::MAX),
    )
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Deterministic community-structured edge stream: disjoint groups of 4–5
/// vertices with per-pair weights clamped below the too-dense regime, so
/// delta reconstruction is exact (the same workload shape the top-level
/// serving-equivalence suite uses).
fn updates(n: usize, n_groups: usize, seed: u64) -> Vec<EdgeUpdate> {
    const MAX_PAIR_WEIGHT: f64 = 1.45;
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut weights: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let g = (rng.next() as usize) % n_groups;
        let size = (4 + g % 2) as u32;
        let base = (g * 8) as u32;
        let a = base + rng.next() as u32 % size;
        let b = base + rng.next() as u32 % size;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        let current = *weights.get(&key).unwrap_or(&0.0);
        let magnitude = 0.02 + ((rng.next() % 100) as f64) * 0.001;
        let delta = if rng.next() % 100 < 15 {
            if current <= 0.0 {
                continue;
            }
            -magnitude.min(current)
        } else {
            magnitude.min(MAX_PAIR_WEIGHT - current)
        };
        if delta.abs() < 1e-9 {
            continue;
        }
        *weights.entry(key).or_insert(0.0) += delta;
        out.push(EdgeUpdate::new(VertexId(a), VertexId(b), delta));
    }
    out
}

/// A stream that first builds thousands of disjoint *marginally* dense
/// 4-cliques, then round-robins one edge of each across the density
/// threshold: every touch makes its story appear or disappear, and only
/// threshold crossings are evented — so each publication carries hundreds
/// of events and every flush pushes a meaty delta batch.
fn churn_updates(n: usize) -> Vec<EdgeUpdate> {
    const GROUPS: u32 = 2_000;
    let mut out = Vec::with_capacity(n);
    for g in 0..GROUPS {
        let base = g * 8;
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                out.push(EdgeUpdate::new(
                    VertexId(base + i),
                    VertexId(base + j),
                    1.02,
                ));
            }
        }
    }
    // Swinging one edge by 0.6 moves the clique's average weight across the
    // 1.0 threshold: 1.02 -> 0.92 -> 1.02 -> ...
    let mut sign = -1.0;
    let mut g: u32 = 0;
    while out.len() < n {
        let base = g * 8;
        out.push(EdgeUpdate::new(
            VertexId(base),
            VertexId(base + 1),
            0.6 * sign,
        ));
        g += 1;
        if g == GROUPS {
            g = 0;
            sign = -sign;
        }
    }
    out.truncate(n);
    out
}

fn client(server: &StoryServer) -> Client {
    Client::builder()
        .read_timeout(Some(Duration::from_secs(60)))
        .connect(server.local_addr())
        .expect("connect")
}

/// Drives the subscription until the mirror's cursor matches `target`.
fn drain_until(sub: &mut dyndens_serve::Subscription, mirror: &mut Mirror, target: &[u64]) {
    while mirror.cursor() != target {
        let batch = sub
            .recv()
            .expect("subscription healthy")
            .expect("server alive");
        mirror.apply(&batch).expect("push applies");
    }
}

#[test]
fn subscribe_catches_up_follows_live_and_unsubscribes() {
    let mut fleet = fleet(2);
    let stream = updates(4_000, 32, 7);
    let (head, tail) = stream.split_at(2_000);

    // Publish the head before anyone subscribes: the subscriber must get it
    // as an immediate catch-up push, not wait for the next publication.
    fleet.apply_batch(head);
    fleet.flush();

    let server = StoryServer::builder(fleet.view())
        .workers(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let sub_client = client(&server);
    let mut sub = sub_client.subscribe(&[]).expect("subscribe");
    assert_eq!(sub.n_shards(), 2);

    let view = fleet.view();
    let mut mirror = Mirror::new();
    drain_until(&mut sub, &mut mirror, &view.per_shard_seq());
    assert_eq!(server.subscribers(), 1);

    // Live phase: every flush publishes; pushes must carry the mirror to the
    // exact same per-shard cursor with no further request from the client.
    for chunk in tail.chunks(256) {
        fleet.apply_batch(chunk);
        fleet.flush();
    }
    drain_until(&mut sub, &mut mirror, &view.per_shard_seq());

    // The pushed mirror reconstructs the identical story sets (Mirror keeps
    // its sets ordered by vertex set, so sort the ground truth the same way).
    let merged = view.snapshot();
    let mut want: Vec<_> = merged.stories.iter().map(|(s, _)| s.clone()).collect();
    want.sort();
    assert_eq!(
        mirror.vertex_sets(),
        want,
        "push-fed story sets diverge from the in-process view"
    );
    assert!(mirror.events_applied() > 0);

    // Unsubscribe hands back a request/reply client on the same connection.
    let mut back = sub.unsubscribe().expect("unsubscribe");
    assert_eq!(server.subscribers(), 0);
    let (per_shard_seq, _) = back.top_k(u32::MAX).unwrap();
    assert_eq!(per_shard_seq, view.per_shard_seq());

    let stats = server.serve_stats();
    assert!(
        stats.pushes_sent >= 2,
        "catch-up plus at least one live push"
    );
    assert_eq!(stats.slow_evictions, 0);
}

#[test]
fn try_next_is_nonblocking_and_sees_later_publications() {
    let fleet = fleet(2);
    let server = StoryServer::builder(fleet.view())
        .workers(1)
        .bind("127.0.0.1:0")
        .unwrap();

    // Nothing has published: subscribing sends no catch-up frame, and
    // try_next must return immediately with nothing rather than block.
    let mut sub = client(&server).subscribe(&[]).expect("subscribe");
    assert!(sub.try_next().expect("idle poll").is_none());

    fleet.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 2.0));
    fleet.flush();

    let deadline = Instant::now() + Duration::from_secs(60);
    let batch = loop {
        if let Some(batch) = sub.try_next().expect("poll") {
            break batch;
        }
        assert!(Instant::now() < deadline, "push never arrived");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(batch.n_shards, 2);
    assert!(!batch.entries.is_empty());
}

#[test]
fn slow_subscriber_is_evicted_while_healthy_one_keeps_receiving() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    let mut fleet = fleet(2);
    let server = StoryServer::builder(fleet.view())
        .workers(1)
        // Small enough that a subscriber whose socket stops draining
        // overflows within a few hundred KB of published deltas; large
        // enough that a live reader rides out fan-out bursts.
        .write_queue_bytes(256 * 1024)
        .bind("127.0.0.1:0")
        .unwrap();

    // The laggard subscribes and then never reads; the healthy subscriber
    // drains continuously on its own thread and must never be severed.
    let mut laggard = client(&server).subscribe(&[]).expect("laggard subscribe");
    let healthy = Client::builder()
        .read_timeout(Some(Duration::from_millis(20)))
        .connect(server.local_addr())
        .expect("connect")
        .subscribe(&[])
        .expect("healthy subscribe");

    // Once the main thread knows the final cursor it parks it here; the
    // drainer exits as soon as its mirror reaches it.
    let finish_line: Arc<Mutex<Option<Vec<u64>>>> = Arc::new(Mutex::new(None));
    let severed = Arc::new(AtomicBool::new(false));
    let drainer = {
        let finish_line = Arc::clone(&finish_line);
        let severed = Arc::clone(&severed);
        std::thread::spawn(move || {
            let mut sub = healthy;
            let mut mirror = Mirror::new();
            let deadline = Instant::now() + Duration::from_secs(120);
            loop {
                match sub.recv() {
                    Ok(Some(batch)) => {
                        mirror.apply(&batch).expect("push applies");
                    }
                    Ok(None) => break,
                    Err(ClientError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => {
                        severed.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                if let Some(target) = finish_line.lock().unwrap().as_ref() {
                    if mirror.cursor() == target.as_slice() {
                        break;
                    }
                }
                if Instant::now() > deadline {
                    break;
                }
            }
            mirror
        })
    };

    // Publish in small paced chunks until the laggard's queue overflows.
    let stream = churn_updates(400_000);
    let mut evicted = false;
    for chunk in stream.chunks(200) {
        fleet.apply_batch(chunk);
        fleet.flush();
        if server.serve_stats().slow_evictions > 0 {
            evicted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        evicted,
        "laggard was never evicted: the write-queue bound is not enforced ({:?})",
        server.serve_stats()
    );

    // The laggard's connection was severed with a typed final frame: its
    // queued pushes drain first, then the severance surfaces.
    let verdict = loop {
        match laggard.recv() {
            Ok(Some(_)) => continue,
            other => break other,
        }
    };
    match verdict {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SlowConsumer),
        other => panic!("expected a SlowConsumer severance, got {other:?}"),
    }

    // The healthy subscriber is unaffected: it catches up to the exact
    // final cursor and was never severed.
    let target = fleet.view().per_shard_seq();
    *finish_line.lock().unwrap() = Some(target.clone());
    let mirror = drainer.join().expect("drainer thread");
    assert!(
        !severed.load(Ordering::SeqCst),
        "the healthy subscriber must keep receiving while the laggard is cut"
    );
    assert_eq!(
        mirror.cursor(),
        target.as_slice(),
        "the healthy subscriber missed publications"
    );

    let stats = server.serve_stats();
    assert!(stats.slow_evictions >= 1);
    assert!(
        stats.error_replies >= 1,
        "severance counts as an error reply"
    );
}

/// Subscriber fan-in: as many concurrent subscribers as the fd limit allows
/// (up to 1 000; each costs the client's reader and writer handles plus the
/// server-side connection), all registered before anything publishes, then
/// one live publication that must reach every one of them. Latency and
/// footprint are the repository benchmark's business (`serve.fanout_*`).
#[test]
fn a_live_publication_reaches_every_one_of_many_subscribers() {
    use dyndens_obs::{names, ObsHandle, Registry};

    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    let max_open_files = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3)?.parse::<usize>().ok());
    let n = max_open_files.map_or(1_000, |fds| (fds.saturating_sub(256) / 3).min(1_000));
    assert!(n > 0, "no file descriptors to spare");

    let fleet = fleet(2);
    let registry = std::sync::Arc::new(Registry::new());
    let server = StoryServer::builder(fleet.view())
        .obs(ObsHandle::new(std::sync::Arc::clone(&registry)))
        .bind("127.0.0.1:0")
        .unwrap();
    // Nothing has published, so no subscriber gets a catch-up push: whatever
    // arrives below is the live fan-out.
    let mut subs: Vec<_> = (0..n)
        .map(|i| {
            let registered = client(&server).subscribe(&[]);
            registered.unwrap_or_else(|e| panic!("subscriber {i}: {e}"))
        })
        .collect();
    assert_eq!(server.subscribers(), n as u64, "not all registered");

    fleet.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 2.0));
    fleet.flush();

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut pending: Vec<usize> = (0..n).collect();
    while !pending.is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} of {n} subscribers never saw the push",
            pending.len()
        );
        pending.retain(|&i| match subs[i].try_next() {
            Ok(batch) => batch.is_none(),
            Err(e) => panic!("subscriber {i} severed: {e}"),
        });
    }

    // Scraped over the wire while every subscriber is still registered.
    let snapshot = client(&server).metrics().expect("metrics scrape");
    assert_eq!(
        snapshot.gauge(names::SERVE_SUBSCRIBERS, &[]),
        Some(n as u64)
    );
    assert!(snapshot.counter_total(names::SERVE_PUSHES_TOTAL) >= n as u64);
    assert_eq!(snapshot.counter_total(names::SERVE_SLOW_EVICTIONS_TOTAL), 0);
    assert_eq!(server.serve_stats().slow_evictions, 0);
}
