//! Property tests of the engine contracts the sharded subsystem leans on
//! (see the `dyndens-shard` crate docs): for random small update streams,
//! `DynDens` must honour all four —
//!
//! 1. `snapshot` → `restore` → `snapshot` reproduces the same bytes
//!    (byte-stable round trip), and the restored engine answers identically
//!    to the original;
//! 2. `partition_by` followed by `absorb` is the identity on graph weight
//!    bits and on every maintained subgraph's score bits (the invariant the
//!    WAL-journaled rebalance commit protocol assumes);
//! 3. *uncounted replay*: restore a snapshot taken at a prefix, replay the
//!    suffix and adopt the restored ledger back — what `recover_shard` does —
//!    and the ledger is the snapshot's while the maintained score bits and
//!    the snapshot bytes (ledger aside) are the uninterrupted engine's;
//! 4. *eviction is streamed cancellation*: applying `edges_below(w)` through
//!    `apply_update_into` — what a compaction pass does — leaves the engine
//!    byte-identical to a twin that received the same cancelling updates as
//!    stream input, with nothing left at or below `w`.
//!
//! The suites `sharded_equivalence`, `wal_replay` and
//! `rebalance_equivalence` check these contracts through full deployments on
//! structured streams; this file attacks the engine directly with
//! adversarial random streams, including exact weight cancellations. The
//! engine copies state bit-for-bit through `partition_by`/`absorb`, so the
//! identity holds for **any** predicate, including splits that cut straight
//! through a maintained subgraph.

mod support;

use std::collections::HashMap;

use dyndens::prelude::*;
use proptest::prelude::*;
use support::engine_config;

/// Deltas drawn from exactly-representable multiples of 0.25 so that bit
/// comparisons exercise real accumulation, including partial and complete
/// cancellations.
const DELTAS: [f64; 7] = [0.25, 0.5, 0.75, 1.25, 2.0, -0.25, -0.75];

/// Number of vertices in the random universe.
const N_VERTICES: u32 = 12;

/// Strategy: raw `(a, b, delta index)` triples over the vertex universe,
/// plus a split point for the partition predicate (including both
/// degenerate "keep everything" / "keep nothing" splits). The raw triples
/// are turned into a valid stream by [`realize`].
fn contract_inputs() -> impl Strategy<Value = (Vec<(u32, u32, usize)>, u32)> {
    (
        prop::collection::vec(
            (0u32..N_VERTICES, 0u32..N_VERTICES, 0usize..DELTAS.len()),
            1..60,
        ),
        0u32..N_VERTICES + 1,
    )
}

/// Turns raw triples into a well-formed update stream: self-loops are
/// dropped and negative deltas are clamped so no edge weight ever goes
/// below zero (clamping to the exact accumulated weight keeps complete
/// cancellations in play, which is where bit-level bugs hide).
fn realize(raw: &[(u32, u32, usize)]) -> Vec<EdgeUpdate> {
    let mut weights: HashMap<(u32, u32), f64> = HashMap::new();
    let mut updates = Vec::new();
    for &(a, b, d) in raw {
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        let w = weights.entry(key).or_insert(0.0);
        let mut delta = DELTAS[d];
        if delta < 0.0 {
            if *w <= 0.0 {
                delta = -delta;
            } else if *w + delta < 0.0 {
                delta = -*w;
            }
        }
        *w += delta;
        updates.push(EdgeUpdate::new(VertexId(key.0), VertexId(key.1), delta));
    }
    updates
}

type Engine = DynDens<AvgWeight>;

/// The engine's full weight state read through eviction: every stored edge's
/// cancelling update carries its endpoints and its (negated) weight's bits,
/// in canonical order.
fn graph_bits(engine: &Engine) -> Vec<(VertexId, VertexId, u64)> {
    let edges = engine.edges_below(f64::INFINITY);
    assert!(edges
        .windows(2)
        .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)));
    edges
        .into_iter()
        .map(|u| (u.a, u.b, u.delta.to_bits()))
        .collect()
}

/// Applies `updates` the way every deployment path does.
fn ingest(engine: &mut Engine, updates: &[EdgeUpdate]) {
    let mut sink = Vec::new();
    for u in updates {
        engine.apply_update_into(*u, &mut sink);
        sink.clear();
    }
}

/// The maintained family with scores as raw bits, sorted by vertex set.
fn answer_bits(engine: &Engine) -> Vec<(VertexSet, u64)> {
    support::sorted_bits(engine.dense_subgraphs())
}

fn fresh() -> Engine {
    DynDens::new(AvgWeight, engine_config())
}

fn restore(bytes: &[u8]) -> Engine {
    DynDens::restore(AvgWeight, bytes).unwrap_or_else(|e| panic!("restore failed: {e}"))
}

/// Runs the four contracts on one stream.
fn check_contracts(updates: &[EdgeUpdate], split: u32) {
    let mut engine = fresh();
    ingest(&mut engine, updates);
    engine
        .validate()
        .unwrap_or_else(|e| panic!("engine invalid after ingest: {e}"));
    let want_graph = graph_bits(&engine);
    let want_answer = answer_bits(&engine);
    let want_updates = engine.stats().updates;

    // Contract 1: snapshot → restore → snapshot is byte-stable, and the
    // restored engine is indistinguishable from the original.
    let bytes = engine.snapshot();
    let restored = restore(&bytes);
    assert_eq!(
        restored.snapshot(),
        bytes,
        "snapshot round trip is not byte-stable"
    );
    assert_eq!(
        graph_bits(&restored),
        want_graph,
        "restored graph weight bits diverge"
    );
    assert_eq!(
        answer_bits(&restored),
        want_answer,
        "restored score bits diverge"
    );
    assert_eq!(restored.stats().updates, want_updates);

    // Contract 2: partition_by + absorb is the identity on graph weight
    // bits and maintained score bits. The contract covers the children's
    // *union*: a child in isolation may be transiently inconsistent when
    // the split cuts a stored subgraph (it follows its minimum vertex, some
    // of its edges may not), so the children are deliberately not validated
    // here — only the reunited engine is.
    let (mut kept, other) = engine.partition_by(|v| v.0 < split);
    kept.absorb(other);
    assert_eq!(
        graph_bits(&kept),
        want_graph,
        "partition_by + absorb changed graph weight bits"
    );
    assert_eq!(
        answer_bits(&kept),
        want_answer,
        "partition_by + absorb changed maintained score bits"
    );
    kept.validate()
        .unwrap_or_else(|e| panic!("reunited engine invalid: {e}"));

    // Contract 3: uncounted replay. The cut runs over the whole stream,
    // both ends included, as `split` runs over the universe.
    let cut = updates.len() * split as usize / N_VERTICES as usize;
    let mut prefix = fresh();
    ingest(&mut prefix, &updates[..cut]);
    let mut replayed = restore(&prefix.snapshot());
    let ledger = replayed.stats().clone();
    ingest(&mut replayed, &updates[cut..]);
    replayed.adopt_stats(ledger);
    assert_eq!(
        replayed.stats(),
        prefix.stats(),
        "replay from {cut} leaked into the ledger"
    );
    assert_eq!(
        answer_bits(&replayed),
        want_answer,
        "replay from {cut} changed maintained score bits"
    );
    let mut uninterrupted = engine.clone();
    uninterrupted.adopt_stats(prefix.stats().clone());
    assert_eq!(
        replayed.snapshot(),
        uninterrupted.snapshot(),
        "replay from {cut} changed snapshot bytes beyond the ledger"
    );

    // Contract 4: eviction is streamed cancellation. The floor runs from
    // "evicts nothing" past the heaviest weight these streams build.
    let floor = 0.5 * split as f64;
    let victims = engine.edges_below(floor);
    let mut twin = fresh();
    ingest(&mut twin, updates);
    ingest(&mut twin, &victims);
    ingest(&mut engine, &victims);
    assert_eq!(
        engine.snapshot(),
        twin.snapshot(),
        "evicting below {floor} is not the streamed cancellation"
    );
    assert_eq!(
        engine.edges_below(floor),
        [],
        "edges at or below {floor} survived their eviction"
    );
    engine.reclaim_idle();
    assert_eq!(
        engine.snapshot(),
        twin.snapshot(),
        "reclaim_idle changed the engine"
    );
    engine
        .validate()
        .unwrap_or_else(|e| panic!("engine invalid after eviction: {e}"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn dyndens_contracts_hold(inputs in contract_inputs()) {
        let (raw, split) = inputs;
        check_contracts(&realize(&raw), split);
    }
}
