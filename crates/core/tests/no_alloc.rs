//! The discover-nothing path allocates nothing, and a publication allocates
//! for its `k` winners only.
//!
//! An update that neither creates nor destroys a dense subgraph — by far the
//! common case on a stream in steady state — still runs the whole kernel:
//! the graph edit, the index walks, the MaxExplore bound, cheap and regular
//! explorations summing `Γ_C` into the dense `Γ` column, `*` bases, their
//! disjoint-edge scans over that column and the explored-once table. All of that
//! works out of engine-owned scratch, so once the scratch has grown to size
//! the allocator is not called at all. Publication
//! ([`DynDens::top_stories`]) selects over the stored scores and builds vertex
//! sets for the `k` it returns, so its allocation count does not depend on
//! how many subgraphs are stored. This binary owns its `#[global_allocator]`
//! (hence its own file) and counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dyndens_core::{DynDens, DynDensConfig};
use dyndens_density::AvgWeight;
use dyndens_graph::{EdgeUpdate, VertexId};

/// Forwards to the system allocator, counting per thread the calls an armed
/// thread makes (the harness's own threads, and the other test's, allocate
/// whenever they like).
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

/// The number of allocator calls `work` makes on this thread.
fn allocations_in(work: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    work();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised, destructor-free thread-locals, which neither allocate
// nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
    EdgeUpdate::new(VertexId(a), VertexId(b), delta)
}

/// The very heavy pair: a `*` base with one light neighbour.
const HEAVY: (u32, u32) = (20, 21);
/// A hub with two very heavy legs, each a `*` base that covers the triangle
/// they span, and the light edge that closes it.
const LEGS: [(u32, u32); 2] = [(30, 31), (30, 32)];
const CLOSING: (u32, u32) = (31, 32);

/// Three communities of five vertices with comfortably output-dense pairs
/// and triangles, light bridges between them (so neighbourhoods reach across
/// and cheap explorations have something to reject), one very heavy pair
/// that carries a `*` marker, and a wedge of two more whose markers nest.
fn stationary_engine() -> (DynDens<AvgWeight>, Vec<(u32, u32)>) {
    let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
    let mut engine = DynDens::new(AvgWeight, config);
    let mut edges = Vec::new();
    for community in 0..3u32 {
        let base = community * 5;
        for i in 0..5 {
            for j in i + 1..5 {
                let weight = 1.05 + 0.03 * f64::from((i * 5 + j + community) % 7);
                engine.apply_update(update(base + i, base + j, weight));
                edges.push((base + i, base + j));
            }
        }
    }
    for (a, b) in [(0, 5), (1, 6), (5, 10), (7, 12), (4, 14), (2, 11)] {
        engine.apply_update(update(a, b, 0.3));
        edges.push((a, b));
    }
    for ((a, b), weight) in [
        (HEAVY, 9.0),
        ((21, 22), 0.4),
        (LEGS[0], 9.0),
        (LEGS[1], 9.0),
        (CLOSING, 0.4),
    ] {
        engine.apply_update(update(a, b, weight));
        edges.push((a, b));
    }
    engine.validate().expect("consistent engine");
    assert!(engine.index().star_count() >= 3, "no * markers to walk");
    (engine, edges)
}

/// One pass over every edge: a small reinforcement, then the same weight
/// taken away again — 2 × `edges.len()` updates that leave every density on
/// the side of every threshold it started on.
fn wiggle(
    engine: &mut DynDens<AvgWeight>,
    edges: &[(u32, u32)],
    events: &mut Vec<dyndens_core::DenseEvent>,
) {
    for &(a, b) in edges {
        engine.apply_update_into(update(a, b, 0.002), events);
        engine.apply_update_into(update(a, b, -0.002), events);
    }
}

#[test]
fn updates_that_discover_nothing_do_not_allocate() {
    let (mut engine, edges) = stationary_engine();
    let mut events = Vec::new();

    // Warm-up: the scratch pools grow to the deepest recursion and the
    // widest neighbourhood this graph has.
    for _ in 0..3 {
        wiggle(&mut engine, &edges, &mut events);
    }
    assert!(
        events.is_empty(),
        "the warm-up is not stationary: {events:?}"
    );
    let before = engine.stats().clone();
    let dense_before = engine.dense_count();

    // The counter counts: one boxed value, one allocation.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(Box::new(0u64)))),
        1
    );

    let passes = 1_000usize.div_ceil(edges.len());
    // (explorations, candidates examined) of one positive update each,
    // inside the measured stretch.
    let mut probes = [(0, 0); 2];
    let allocations = allocations_in(|| {
        for _ in 0..passes {
            wiggle(&mut engine, &edges, &mut events);
        }
        for (probe, (a, b)) in probes.iter_mut().zip([HEAVY, CLOSING]) {
            let before = engine.stats().clone();
            engine.apply_update_into(update(a, b, 0.002), &mut events);
            *probe = (
                engine.stats().explorations - before.explorations,
                engine.stats().candidates_examined - before.candidates_examined,
            );
            engine.apply_update_into(update(a, b, -0.002), &mut events);
        }
    });

    // The stretch took the disjoint-edge scan over a real edge list: the
    // heavy pair is a too-dense frame with room for two more vertices, and
    // examines its one neighbour, every edge that touches neither end (all
    // but its own and its neighbour's), and — as `*` bases elsewhere — the
    // two legs extended by the pair.
    assert_eq!(probes[0].1, 1 + (edges.len() as u64 - 2) + 2);
    // And it hit the explored-once table: the closing edge's triangle is
    // stored (the main loop explores it) and is the covered extension of
    // both legs; the first leg's arrival explores it unpruned, the second's
    // finds the first's key. Two explorations, where every arrival used to
    // make three.
    assert_eq!(probes[1].0, 2);

    // The measured stretch did real work and changed nothing.
    let after = engine.stats();
    let n = (passes * edges.len() + probes.len()) as u64;
    assert!(n >= 1_000);
    assert_eq!(after.positive_updates - before.positive_updates, n);
    assert_eq!(after.negative_updates - before.negative_updates, n);
    assert!(after.explorations > before.explorations);
    assert!(after.cheap_explorations > before.cheap_explorations);
    assert!(after.candidates_examined > before.candidates_examined + n);
    assert_eq!(after.subgraphs_inserted, before.subgraphs_inserted);
    assert_eq!(after.subgraphs_evicted, before.subgraphs_evicted);
    assert_eq!(after.star_markers_created, before.star_markers_created);
    assert_eq!(engine.dense_count(), dense_before);
    assert!(events.is_empty());
    engine.validate().expect("consistent engine");

    assert_eq!(
        allocations, 0,
        "apply_update_into allocated on the discover-nothing path"
    );
}

/// `pairs` disjoint output-dense pairs of distinct densities, and as many
/// stored subgraphs.
fn engine_of_pairs(pairs: u32) -> DynDens<AvgWeight> {
    let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4).with_delta_it(0.15));
    for i in 0..pairs {
        // Neither ascending nor descending in arena order.
        let weight = 1.05 + 0.0001 * f64::from((i * 37) % pairs);
        engine.apply_update(update(2 * i, 2 * i + 1, weight));
    }
    assert_eq!(engine.output_dense_count(), pairs as usize);
    engine
}

#[test]
fn publication_allocates_for_its_winners_only() {
    /// The result vector and the selection buffer.
    const OVERHEAD: u64 = 2;
    const K: usize = 16;

    for pairs in [250u32, 2_000] {
        let engine = engine_of_pairs(pairs);
        let mut published = (Vec::new(), 0);
        let allocations = allocations_in(|| published = engine.top_stories(K));

        let (stories, output_dense) = published;
        assert_eq!(output_dense, pairs as usize);
        assert_eq!(stories.len(), K);
        assert!(stories.windows(2).all(|w| w[0].1 > w[1].1), "densest first");
        assert_eq!(
            allocations,
            K as u64 + OVERHEAD,
            "top_stories({K}) over {pairs} stored subgraphs"
        );
        let mut count = 0;
        assert_eq!(allocations_in(|| count = engine.output_dense_count()), 0);
        assert_eq!(count, output_dense);
    }
}
