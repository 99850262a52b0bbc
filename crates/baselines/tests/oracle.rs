//! Property tests: the DynDens engine against the brute-force oracle.
//!
//! These are the central correctness tests of the reproduction. Random update
//! streams (with positive and negative deltas) are applied both to a DynDens
//! engine (in several configurations: optimisations on/off) and, after every
//! update, the resulting dense / output-dense sets are compared against
//! exhaustive enumeration over the final graph.

use std::sync::atomic::{AtomicU32, Ordering};

use dyndens_baselines::BruteForce;
use dyndens_core::{DynDens, DynDensConfig};
use dyndens_density::{AvgDegree, AvgWeight, DensityMeasure, SqrtDens, ThresholdFamily};
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};
use proptest::prelude::*;

/// A raw update: edge endpoints and a signed dyadic delta. Deltas are clamped
/// during replay so edge weights never go negative (association strengths are
/// non-negative by construction in the application).
#[derive(Debug, Clone, Copy)]
struct RawUpdate {
    a: u32,
    b: u32,
    /// delta in units of 1/32, in [-64, 96] (i.e. [-2.0, 3.0]).
    delta_32: i32,
}

fn raw_update_strategy(n_vertices: u32) -> impl Strategy<Value = RawUpdate> {
    (0..n_vertices, 0..n_vertices, -64i32..96i32).prop_filter_map(
        "self loops are not allowed",
        |(a, b, delta_32)| {
            if a == b {
                None
            } else {
                Some(RawUpdate { a, b, delta_32 })
            }
        },
    )
}

/// Materialises the raw updates into well-formed edge updates (clamping so
/// weights stay non-negative, dropping no-ops).
fn materialise(raws: &[RawUpdate]) -> Vec<EdgeUpdate> {
    let mut graph = DynamicGraph::new();
    let mut out = Vec::new();
    for raw in raws {
        let a = VertexId(raw.a.min(raw.b));
        let b = VertexId(raw.a.max(raw.b));
        let current = graph.weight(a, b);
        let mut delta = raw.delta_32 as f64 / 32.0;
        if current + delta < 0.0 {
            delta = -current;
        }
        if delta == 0.0 {
            continue;
        }
        let update = EdgeUpdate::new(a, b, delta);
        graph.apply_update(&update);
        out.push(update);
    }
    out
}

/// Checks a single engine state against brute force over its current graph.
fn check_against_oracle<D: DensityMeasure>(engine: &DynDens<D>, context: &str) {
    engine
        .validate()
        .unwrap_or_else(|e| panic!("validate failed ({context}): {e}"));
    let thresholds = engine.thresholds();
    let truth: Vec<(VertexSet, f64)> = BruteForce::dense_subgraphs(engine.graph(), thresholds);
    let truth_sets: std::collections::BTreeSet<VertexSet> =
        truth.iter().map(|(s, _)| s.clone()).collect();

    // Soundness: everything stored is genuinely dense (validate() already
    // checked scores); also everything stored must appear in the oracle.
    for (set, _) in engine.dense_subgraphs() {
        assert!(
            truth_sets.contains(&set),
            "{context}: engine stores {set} which the oracle does not consider dense"
        );
    }
    // Completeness: every dense subgraph is tracked, explicitly or via a star.
    for set in &truth_sets {
        assert!(
            engine.is_tracked_dense(set),
            "{context}: oracle-dense subgraph {set} is not tracked by the engine \
             (explicit: {}, stars: {})",
            engine.dense_count(),
            engine.index().star_count(),
        );
    }
    // Without the implicit representation, the explicit set must be exact.
    if !engine.config().implicit_too_dense {
        let explicit: std::collections::BTreeSet<VertexSet> = engine
            .dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(
            explicit, truth_sets,
            "{context}: explicit dense set differs from the oracle"
        );
    }
    // Output-dense answers are sound.
    let output_truth: std::collections::BTreeSet<VertexSet> =
        BruteForce::output_dense_subgraphs(engine.graph(), thresholds)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
    for (set, _) in engine.output_dense_subgraphs() {
        assert!(
            output_truth.contains(&set),
            "{context}: engine reports {set} as output-dense, oracle disagrees"
        );
    }
    // And complete up to star coverage.
    for set in &output_truth {
        assert!(
            engine.is_tracked_dense(set),
            "{context}: output-dense subgraph {set} is not tracked"
        );
    }
}

/// Runs the stream, checking after every update; returns how many `*`
/// markers the run created.
fn run_stream<D: DensityMeasure>(
    measure: D,
    config: DynDensConfig,
    updates: &[EdgeUpdate],
    label: &str,
) -> u64 {
    // Pre-declare the vertex universe, matching the paper's fixed-N model (and
    // the oracle, which enumerates over the graph's full vertex set).
    let universe = 1 + updates.iter().map(|u| u.b.index()).max().unwrap_or(0);
    let mut engine = DynDens::with_vertex_capacity(measure, config, universe);
    for (i, u) in updates.iter().enumerate() {
        engine.apply_update(*u);
        check_against_oracle(&engine, &format!("{label}, after update {i} ({u:?})"));
    }
    engine.stats().star_markers_created
}

/// Random cases per property: 48 in tier-1, `ORACLE_CASES` in the nightly
/// job (2 000) and whenever the exploration schedule changed.
fn cases() -> u32 {
    match std::env::var("ORACLE_CASES") {
        Ok(n) => n.parse().expect("ORACLE_CASES is a case count"),
        Err(_) => 48,
    }
}

/// Cases of `nested_star_regime` run so far, and how many of them created a
/// `*` marker.
static NESTED_RUN: AtomicU32 = AtomicU32::new(0);
static NESTED_WITH_STARS: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), .. ProptestConfig::default() })]

    /// The regime the repo benchmark's `weighted_dense` runs in — a low
    /// threshold at `Nmax = 5`, where most dense subgraphs exist only under
    /// nested `*` markers and are reached by many paths per update, explored
    /// once, and scanned for disjoint edges — and the same past the path-key
    /// width (`Nmax = 13`), where nothing is remembered between arrivals.
    #[test]
    fn nested_star_regime(raws in prop::collection::vec(raw_update_strategy(8), 1..32)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::new(0.25, 5).with_delta_it_fraction(0.25);
        let stars = run_stream(AvgWeight, config, &updates, "AvgWeight/nested-star");
        let wide = DynDensConfig::new(0.25, 13).with_delta_it_fraction(0.25);
        run_stream(AvgWeight, wide, &updates, "AvgWeight/nested-star, Nmax 13");

        // Over the whole run, not per case: a short stream of cancelling
        // deltas legitimately creates none.
        let reached = u32::from(stars > 0);
        let with_stars = NESTED_WITH_STARS.fetch_add(reached, Ordering::Relaxed) + reached;
        if NESTED_RUN.fetch_add(1, Ordering::Relaxed) + 1 == cases() {
            prop_assert!(
                with_stars * 4 >= cases() * 3,
                "only {with_stars} of {} cases reached the `*` regime",
                cases()
            );
        }
    }

    /// AvgWeight, all optimisations enabled (the paper's default setup).
    #[test]
    fn avg_weight_all_optimisations(raws in prop::collection::vec(raw_update_strategy(7), 1..32)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::new(1.0, 4).with_delta_it_fraction(0.4);
        run_stream(AvgWeight, config, &updates, "AvgWeight/all-on");
    }

    /// AvgWeight with every optimisation disabled: the explicit index must
    /// match the oracle exactly.
    #[test]
    fn avg_weight_plain(raws in prop::collection::vec(raw_update_strategy(7), 1..32)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::plain(1.0, 4).with_delta_it_fraction(0.4);
        run_stream(AvgWeight, config, &updates, "AvgWeight/plain");
    }

    /// Small delta_it (many exploration iterations) without heuristics.
    #[test]
    fn avg_weight_small_delta_it(raws in prop::collection::vec(raw_update_strategy(6), 1..28)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::plain(0.8, 5).with_delta_it_fraction(0.05);
        run_stream(AvgWeight, config, &updates, "AvgWeight/small-delta-it");
    }

    /// AvgDegree (S_n = n), favouring larger subgraphs, all optimisations on.
    #[test]
    fn avg_degree_all_optimisations(raws in prop::collection::vec(raw_update_strategy(6), 1..28)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::new(1.2, 4).with_delta_it_fraction(0.3);
        run_stream(AvgDegree, config, &updates, "AvgDegree/all-on");
    }

    /// SqrtDens, mixed configuration (implicit on, heuristics off).
    #[test]
    fn sqrt_dens_implicit_only(raws in prop::collection::vec(raw_update_strategy(6), 1..28)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::new(0.9, 4)
            .with_delta_it_fraction(0.5)
            .with_max_explore(false)
            .with_degree_prioritize(false);
        run_stream(SqrtDens, config, &updates, "SqrtDens/implicit-only");
    }

    /// Heuristics enabled but ImplicitTooDense disabled (explicit index must be
    /// exact even with the prunings active).
    #[test]
    fn avg_weight_heuristics_only(raws in prop::collection::vec(raw_update_strategy(6), 1..28)) {
        let updates = materialise(&raws);
        let config = DynDensConfig::new(0.9, 4)
            .with_delta_it_fraction(0.25)
            .with_implicit_too_dense(false);
        run_stream(AvgWeight, config, &updates, "AvgWeight/heuristics-only");
    }

    /// Dynamic threshold adjustment: lowering or raising T mid-stream must
    /// leave the engine sound and complete right after the change and at the
    /// end of the stream, with the explicit index and under ImplicitTooDense
    /// `*` markers; with the explicit index it must also report what an
    /// engine that used the final threshold from the start reports.
    #[test]
    fn threshold_adjustment_matches_oracle(
        raws in prop::collection::vec(raw_update_strategy(6), 4..24),
        t_start in 2usize..6,
        t_end in 2usize..6,
        split in 0.2f64..0.8,
    ) {
        let thresholds = [0.6, 0.8, 0.9, 1.0, 1.1, 1.3];
        let t_start = thresholds[t_start];
        let t_end = thresholds[t_end];
        let updates = materialise(&raws);
        let cut = ((updates.len() as f64) * split) as usize;

        let universe = 1 + updates.iter().map(|u| u.b.index()).max().unwrap_or(0);
        for implicit in [false, true] {
            let config = |t| {
                DynDensConfig::new(t, 4)
                    .with_delta_it_fraction(0.3)
                    .with_implicit_too_dense(implicit)
            };
            let mut engine = DynDens::with_vertex_capacity(AvgWeight, config(t_start), universe);
            for u in &updates[..cut] {
                engine.apply_update(*u);
            }
            engine.set_output_threshold(t_end);
            let leg = if implicit { "implicit" } else { "explicit" };
            let leg = format!("threshold-adjustment ({leg}, T {t_start} -> {t_end})");
            check_against_oracle(&engine, &format!("{leg}, right after change"));
            for u in &updates[cut..] {
                engine.apply_update(*u);
            }
            check_against_oracle(&engine, &format!("{leg}, end of stream"));
            if implicit {
                // Which subgraphs are explicit rather than `*`-covered
                // legitimately depends on the path taken.
                continue;
            }

            // The reported output-dense set must equal that of an engine that
            // ran with t_end from the beginning.
            let mut reference = DynDens::with_vertex_capacity(AvgWeight, config(t_end), universe);
            for u in &updates {
                reference.apply_update(*u);
            }
            let mut got: Vec<VertexSet> =
                engine.output_dense_subgraphs().into_iter().map(|(s, _)| s).collect();
            let mut want: Vec<VertexSet> =
                reference.output_dense_subgraphs().into_iter().map(|(s, _)| s).collect();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}

/// Deterministic regression: a hand-crafted stream that exercises eviction,
/// star creation and star demotion in one run.
#[test]
fn star_lifecycle_regression() {
    let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
    let mut engine = DynDens::with_vertex_capacity(AvgWeight, config, 4);
    let updates = [
        (0u32, 1u32, 4.0), // {0,1} becomes too-dense immediately
        (2, 3, 1.0),       // unrelated dense edge
        (1, 2, 0.5),       // connects the two regions
        (0, 1, -3.2),      // {0,1} stops being too-dense
        (1, 2, 0.6),       // strengthens the bridge
        (0, 1, -0.9),      // {0,1} barely dense / evicted depending on bounds
    ];
    for (i, &(a, b, d)) in updates.iter().enumerate() {
        engine.apply_update(EdgeUpdate::new(VertexId(a), VertexId(b), d));
        check_against_oracle(&engine, &format!("star lifecycle step {i}"));
    }
}

/// Deterministic regression with the ThresholdFamily used directly, ensuring
/// the oracle and engine agree on the dense bound at every cardinality.
#[test]
fn oracle_and_engine_share_bounds() {
    let fam = ThresholdFamily::with_delta_it_fraction(AvgWeight, 1.0, 5, 0.3);
    let mut graph = DynamicGraph::new();
    for (a, b, w) in [(0u32, 1u32, 1.5), (1, 2, 1.0), (0, 2, 0.9), (2, 3, 1.4)] {
        graph.apply_update(&EdgeUpdate::new(VertexId(a), VertexId(b), w));
    }
    let dense = BruteForce::dense_subgraphs(&graph, &fam);
    for (set, score) in dense {
        assert!(fam.is_dense(score, set.len()));
    }
}
