//! `repro`: the paper's evaluation (Sections 5, 6.2 and 7.3) in one binary,
//! ending with a table of which of its relative claims reproduce.
//!
//! ```bash
//! cargo run --release -p dyndens-bench --bin repro -- [--figure <id>|all] [--scale <s>] [--smoke]
//! ```
//!
//! ## Figure index
//!
//! | id | paper | stream | what is swept |
//! |---|---|---|---|
//! | `4a` `4b` `4c` | Fig. 4(a)–(c), Table 2 | weighted tweet stream | `T` × `Nmax` under AvgWeight / SqrtDens / AvgDegree |
//! | `4d` `4e` `4f` | Fig. 4(d)–(f), Table 2 | boolean graph | `T` × `Nmax`, same three measures |
//! | `4g` | Fig. 4(g) | boolean graph | `T` × `delta_it` (fraction of its maximum) at `Nmax` = 10 |
//! | `4j` | Fig. 4(j) | near-clique mixture | `Nmax` × {MaxExplore, DegreePrioritize} on/off |
//! | `ablation` | §3.2.3 / §5.1 | weighted tweet stream | ImplicitTooDense on/off at `(T, Nmax)` that create `*` markers |
//! | `stix` | §5.2 | boolean graph | Stix maximal cliques against DynDens at `Nmax` 3–7 |
//! | `4hi` | Fig. 4(h)/(i) | boolean graph, smaller and denser | GRASP iterations per update: recall and runtime against DynDens |
//! | `table3` | Table 3 | tweet-like and blog-like corpora | the diversity-ranked top stories |
//! | `fig6` | Table 4, Fig. 6(a)–(d) | four synthetic graphs × two sizes | stored subgraphs per `T`; a threshold change, incremental against recompute |
//! | `backends` | none (information only) | `aligned_communities`, `flash_crowd`, weighted tweet stream | `dyndens` against the `topk-peeling` baseline: ingest with a top-16 publish every 64 updates, output sets, top-16 density ratio, DynDens snapshot bytes |
//!
//! Table 2 is the `avg output-dense` column of 4(a)–(f). `backends` records
//! no claim: it is the measurement that keeps `topk-peeling` a baseline
//! rather than an engine (`docs/BACKENDS.md`).
//!
//! **Streams.** The paper's Twitter corpora are not redistributable. The
//! *weighted tweet stream* is the planted-story simulator lowered with
//! chi-square + correlation weights and a two-hour mean life
//! ([`weighted_dataset`]). The *boolean graph* is the paper's own synthetic
//! `nodePreferentialBoolean` graph (§7.3): it stands in for the unweighted
//! (thresholded log-likelihood, 0/1) tweet stream, because the simulator's
//! 0/1 lowering has a few dozen updates where the paper's has 43 K. The
//! *near-clique mixture* is §7.3's setup with too-dense-inducing updates
//! rejected. The paper's threshold grids bracket the values at which *its*
//! streams turn dense; the grids here do the same for these streams: each
//! reaches from where only the cheapest subgraphs qualify down to where the
//! weighted stream creates `*` markers, or non-clique subgraphs start to
//! qualify around the boolean graph's hubs, and stops before a row takes
//! minutes.
//!
//! **Degenerate rows.** A row whose stream has under 5 000 updates, or whose
//! timed section (everything the row times: both sides, for a comparison
//! row) lasts under 50 ms, measures timer resolution and fixed overheads, not
//! the algorithm. Its time is printed as `degenerate (N updates, t ms)`,
//! never as a number, and a claim that needs it gets the verdict
//! `degenerate`. Each timed engine run is the fastest of three (a run over
//! two seconds is not repeated).
//!
//! **Claims.** The last table lists each relative claim of the paper as a
//! ratio, the interval the ratio must fall in (a bare direction is held to
//! 10 % beyond 1, so a ratio inside the noise does not count), the measured
//! ratio (geometric mean over the rows that define it) and the verdict.
//!
//! `--smoke` divides the scale by 50: it checks the code paths, not the
//! claims (the rows come out degenerate). With or without it, the exit status
//! is non-zero only if a figure produced no rows.

use std::time::{Duration, Instant};

use dyndens_baselines::{recompute, topk_peeling, Grasp, GraspConfig, StixCliques};
use dyndens_bench::{run_updates, weighted_dataset, DatasetSpec, RunMeasurement, Table};
use dyndens_core::{top_of, DynDens, DynDensConfig};
use dyndens_density::{AvgDegree, AvgWeight, DensityMeasure, SqrtDens};
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};
use dyndens_stream::{rank_with_diversity, LogLikelihoodRatio, CHI2_CRITICAL_5PCT};
use dyndens_workloads::oracle::{engine_config, sorted_bits, top_q_density_ratio};
use dyndens_workloads::{
    AlignedCommunities, FlashCrowd, SyntheticConfig, SyntheticStrategy, SyntheticWorkload,
    TweetSimulator, TweetSimulatorConfig, Workload,
};

const USAGE: &str = "usage: repro [--figure <id>|all] [--scale <s>] [--smoke]\n\
                     figure ids: 4a 4b 4c 4d 4e 4f 4g 4j ablation stix 4hi table3 fig6 backends";
const MIN_UPDATES: usize = 5_000;
const MIN_TIMED_MS: f64 = 50.0;
/// The paper caps individual runs at ten minutes; so does every engine run
/// here.
const CAP: Duration = Duration::from_secs(600);

/// `(figure, scale)`.
fn parse_args() -> Result<(String, f64), String> {
    let (mut figure, mut scale, mut smoke) = ("all".to_string(), 1.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--figure" => figure = args.next().ok_or("--figure needs an id")?,
            "--scale" => {
                let value = args.next().and_then(|s| s.parse().ok());
                scale = value
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--scale needs a positive number")?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((figure, if smoke { scale / 50.0 } else { scale }))
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Stream {
    /// The weighted tweet stream at this multiple of [`DatasetSpec`]'s unit.
    Weighted(f64),
    /// The boolean graph: `(vertices, updates per vertex)`.
    Boolean(usize, usize),
    NearClique,
}

/// Sized so that a row in which nothing turns dense still clears 50 ms.
const WEIGHTED: Stream = Stream::Weighted(12.0);
/// The paper's shape: three updates per vertex.
const BOOLEAN: Stream = Stream::Boolean(25_000, 3);
/// GRASP sweeps everything it has found for staleness on every update, so its
/// cost is quadratic in the stream: it gets a smaller graph, and a denser one
/// so that there are cliques to miss.
const BOOLEAN_FOR_GRASP: Stream = Stream::Boolean(3_000, 5);

impl Stream {
    /// What table titles call the stream.
    fn label(self) -> &'static str {
        match self {
            Stream::Weighted(_) => "weighted tweet stream",
            Stream::Boolean(..) => "synthetic boolean graph (in place of the 0/1 tweet stream)",
            Stream::NearClique => "near-clique mixture",
        }
    }

    fn generate(self, scale: f64) -> Vec<EdgeUpdate> {
        let scaled = |n: usize| (n as f64 * scale) as usize;
        let config = match self {
            Stream::Weighted(unit) => return weighted_dataset(&DatasetSpec::scaled(unit * scale)),
            // A twentieth of the vertices are hubs, so a smaller graph with
            // as many updates per vertex is a denser one: below scale 1 the
            // updates per vertex shrink with it.
            Stream::Boolean(vertices, per_vertex) => {
                let (n, updates) = (scaled(vertices), scaled(per_vertex * vertices));
                let updates = (updates as f64 * scale.min(1.0)) as usize;
                SyntheticConfig::node_preferential_boolean(n, updates, 4)
            }
            Stream::NearClique => {
                let n = scaled(150_000);
                SyntheticConfig {
                    // Reject updates that would drive a planted pair into the
                    // too-dense regime at T = 0.7, so the figure isolates the
                    // exploration heuristics (as in the paper).
                    strategy: SyntheticStrategy::NearClique {
                        groups: (n / 200).max(10),
                        group_size: 10,
                        p_group: 0.9,
                        max_pair_weight: Some(1.4),
                    },
                    ..SyntheticConfig::near_clique(n, 5 * n / 2, 73)
                }
            }
        };
        SyntheticWorkload::generate(config).into_updates()
    }
}

// ---------------------------------------------------------------------------
// Rows and claims
// ---------------------------------------------------------------------------

/// The time cell of a row that timed `ms` in total over a stream of
/// `updates`: the number if the row measures the algorithm, the degenerate
/// marker (and `None`) if it does not.
fn time_cell(updates: usize, ms: f64) -> (String, Option<f64>) {
    if updates < MIN_UPDATES || ms < MIN_TIMED_MS {
        (format!("degenerate ({updates} updates, {ms:.1} ms)"), None)
    } else {
        (format!("{ms:.1}"), Some(ms))
    }
}

fn millis(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// One timed engine run under a density measure.
type Timed = fn(DynDensConfig, &[EdgeUpdate]) -> RunMeasurement;

/// The fastest of three runs of `config` over `updates`.
fn timed<D: DensityMeasure + Default>(
    config: DynDensConfig,
    updates: &[EdgeUpdate],
) -> RunMeasurement {
    let run = || {
        run_updates(D::default(), config.clone(), updates, Some(CAP), 1000)
            .expect("an engine run exceeded the ten-minute cap; lower --scale")
    };
    let mut best = run();
    for _ in 0..2 {
        if best.elapsed > Duration::from_secs(2) {
            break;
        }
        let m = run();
        if m.elapsed < best.elapsed {
            best = m;
        }
    }
    best
}

/// The open interval a ratio must fall in for its claim to reproduce.
type Bound = (f64, f64);
const UP: Bound = (1.1, f64::INFINITY);
const DOWN: Bound = (0.0, 0.9);

/// The rows of the claims table: claim, what the paper says, what was
/// measured, verdict.
type Claims = Vec<[String; 4]>;

/// Records a claim; `measured` is what was measured and whether it agrees
/// with the paper, or `None` if a row it needs is degenerate.
fn claim(claims: &mut Claims, claim: &str, paper: &str, measured: Option<(String, bool)>) {
    let (measured, verdict) = match measured {
        Some((measured, true)) => (measured, "reproduces"),
        Some((measured, false)) => (measured, "does not"),
        None => ("-".to_string(), "degenerate"),
    };
    claims.push([claim.into(), paper.into(), measured, verdict.into()]);
}

/// A claim about the geometric mean of `ratios`, all of which it needs.
fn ratio_claim(
    claims: &mut Claims,
    name: &str,
    (lo, hi): Bound,
    ratios: impl Iterator<Item = Option<f64>>,
) {
    let ratios = ratios.collect::<Option<Vec<f64>>>();
    let measured = ratios.filter(|r| !r.is_empty()).map(|r| {
        let mean = (r.iter().map(|x| x.ln()).sum::<f64>() / r.len() as f64).exp();
        let min = r.iter().copied().fold(f64::INFINITY, f64::min);
        let max = r.iter().copied().fold(0.0, f64::max);
        let text = format!("{mean:.2} ({} rows, {min:.2} to {max:.2})", r.len());
        (text, lo < mean && mean < hi)
    });
    claim(claims, name, &format!("in ({lo}, {hi})"), measured);
}

// ---------------------------------------------------------------------------
// Sweeps: 4(a)-(g), 4(j) and the ablation differ only in the grid
// ---------------------------------------------------------------------------

/// Which claim a sweep's times are judged by; its rows form an
/// `outer × inner` grid, row-major.
enum SweepClaim {
    /// Two claims: the first outer row (lowest `T`) costs more than the last,
    /// and the last inner column (largest `Nmax`) more than the first.
    CostGrid,
    /// Along the inner axis, the fastest interior point beats both ends.
    InteriorOptimum,
    /// The last inner column over the first.
    LastOverFirst(&'static str, Bound),
}

struct Sweep {
    id: &'static str,
    title: String,
    stream: Stream,
    timed: Timed,
    /// `(row label, engine configuration)`.
    rows: Vec<(String, DynDensConfig)>,
    inner: usize,
    claim: SweepClaim,
}

/// The rows of an `outer × inner` grid.
fn grid<A, B>(
    outer: &[A],
    inner: &[B],
    row: impl Fn(&A, &B) -> (String, DynDensConfig),
) -> Vec<(String, DynDensConfig)> {
    let rows = outer.iter().flat_map(|a| inner.iter().map(|b| row(a, b)));
    rows.collect()
}

/// 4(a)–(f): `T` × `Nmax` with `delta_it` at 1 % of its maximum.
fn cost<D: DensityMeasure + Default>(
    id: &'static str,
    stream: Stream,
    thresholds: &[f64],
    n_maxes: &[usize],
) -> Sweep {
    Sweep {
        id,
        title: format!("Figure 4({}): {}", &id[1..], D::default().name()),
        stream,
        timed: timed::<D>,
        rows: grid(thresholds, n_maxes, |t, n| {
            let config = DynDensConfig::new(*t, *n).with_delta_it_fraction(0.01);
            (format!("T={t} Nmax={n}"), config)
        }),
        inner: n_maxes.len(),
        claim: SweepClaim::CostGrid,
    }
}

fn sweeps() -> Vec<Sweep> {
    let fractions = [0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.99];
    let heuristics = [
        ("none", false, false),
        ("DegreePrioritize", false, true),
        ("MaxExplore", true, false),
        ("both", true, true),
    ];
    vec![
        cost::<AvgWeight>("4a", WEIGHTED, &[0.25, 0.3, 0.41, 0.6], &[4, 5, 6, 8]),
        cost::<SqrtDens>("4b", WEIGHTED, &[0.6, 0.7, 0.8, 1.0], &[4, 5, 6]),
        cost::<AvgDegree>("4c", WEIGHTED, &[0.7, 0.9, 1.1, 1.7], &[4, 6, 8]),
        cost::<AvgWeight>("4d", BOOLEAN, &[0.7, 0.8, 1.0], &[4, 5, 6]),
        cost::<SqrtDens>("4e", BOOLEAN, &[1.2, 1.4, 1.5], &[4, 5]),
        cost::<AvgDegree>("4f", BOOLEAN, &[1.3, 1.5, 1.7], &[5, 6]),
        // The paper sweeps delta_it over its full validity range (normalised
        // to the maximum value) at Nmax = 10.
        Sweep {
            id: "4g",
            title: "Figure 4(g): effect of delta_it (AvgWeight, Nmax = 10)".into(),
            stream: BOOLEAN,
            timed: timed::<AvgWeight>,
            rows: grid(&[0.8, 0.9, 1.0], &fractions, |t, f| {
                let config = DynDensConfig::new(*t, 10).with_delta_it_fraction(*f);
                (format!("T={t} delta_it/max={f}"), config)
            }),
            inner: fractions.len(),
            claim: SweepClaim::InteriorOptimum,
        },
        Sweep {
            id: "4j",
            title: "Figure 4(j): exploration heuristics (AvgWeight, T = 0.7, delta_it at 40 %)"
                .into(),
            stream: Stream::NearClique,
            timed: timed::<AvgWeight>,
            rows: grid(
                &[8, 9, 10],
                &heuristics,
                |n, (name, max_explore, prioritize)| {
                    let config = DynDensConfig::new(0.7, *n)
                        .with_delta_it_fraction(0.4)
                        .with_max_explore(*max_explore)
                        .with_degree_prioritize(*prioritize);
                    (format!("Nmax={n} heuristics={name}"), config)
                },
            ),
            inner: heuristics.len(),
            claim: SweepClaim::LastOverFirst("both heuristics on / off", DOWN),
        },
        // Operating points low enough to create `*` markers on this stream;
        // without the implicit representation each one is an explore-all.
        Sweep {
            id: "ablation",
            title: "ImplicitTooDense ablation (AvgWeight)".into(),
            stream: Stream::Weighted(4.0),
            timed: timed::<AvgWeight>,
            rows: grid(
                &[(0.25, 5), (0.3, 5), (0.25, 6)],
                &[("on", true), ("off", false)],
                |(t, n), (label, implicit)| {
                    let config = DynDensConfig::new(*t, *n)
                        .with_delta_it_fraction(0.05)
                        .with_implicit_too_dense(*implicit);
                    (format!("T={t} Nmax={n} ImplicitTooDense={label}"), config)
                },
            ),
            inner: 2,
            claim: SweepClaim::LastOverFirst("explore-all / ImplicitTooDense", (10.0, UP.1)),
        },
    ]
}

impl Sweep {
    /// Runs the rows, prints the table, records the claims and returns the
    /// number of rows.
    fn run(&self, scale: f64, claims: &mut Claims) -> usize {
        let updates = self.stream.generate(scale);
        let (label, n) = (self.stream.label(), updates.len());
        let title = format!("{} on the {label} ({n} updates)", self.title);
        let mut table = Table::new(
            &title,
            &[
                "row",
                "time_ms",
                "avg output-dense",
                "dense at end",
                "explorations",
                "heuristic skips",
                "* markers",
                "explore-all calls",
            ],
        );
        let mut times = Vec::new();
        for (label, config) in &self.rows {
            let m = (self.timed)(config.clone(), &updates);
            let (cell, ms) = time_cell(updates.len(), m.millis());
            times.push(ms);
            let s = &m.stats;
            table.row(vec![
                label.clone(),
                cell,
                format!("{:.1}", m.avg_output_dense),
                m.dense_at_end.to_string(),
                s.explorations.to_string(),
                (s.max_explore_skips + s.degree_prioritize_skips).to_string(),
                s.star_markers_created.to_string(),
                s.explore_all_invocations.to_string(),
            ]);
        }
        table.print();

        let (id, inner, outer) = (self.id, self.inner, self.rows.len() / self.inner);
        let t = |o: usize, i: usize| times[o * inner + i];
        let over = |a: Option<f64>, b: Option<f64>| Some(a? / b?);
        match &self.claim {
            SweepClaim::CostGrid => {
                let by_t = (0..inner).map(|i| over(t(0, i), t(outer - 1, i)));
                let name = format!("{id}: cost at the lowest T / at the highest");
                ratio_claim(claims, &name, UP, by_t);
                let by_n = (0..outer).map(|o| over(t(o, inner - 1), t(o, 0)));
                let name = format!("{id}: cost at the largest Nmax / at the smallest");
                ratio_claim(claims, &name, UP, by_n);
            }
            SweepClaim::InteriorOptimum => {
                let ratios = (0..outer).map(|o| {
                    let ends = t(o, 0)?.min(t(o, inner - 1)?);
                    let interior: Option<Vec<f64>> = (1..inner - 1).map(|i| t(o, i)).collect();
                    Some(ends / interior?.into_iter().fold(f64::INFINITY, f64::min))
                });
                let name = format!("{id}: cost at the better end of delta_it / best interior");
                ratio_claim(claims, &name, UP, ratios);
            }
            SweepClaim::LastOverFirst(what, bound) => {
                let ratios = (0..outer).map(|o| over(t(o, inner - 1), t(o, 0)));
                ratio_claim(claims, &format!("{id}: cost, {what}"), *bound, ratios);
            }
        }
        table.len()
    }
}

// ---------------------------------------------------------------------------
// Baseline comparisons: Stix (Section 5.2) and GRASP (Fig. 4(h)/(i))
// ---------------------------------------------------------------------------

/// Both comparisons run `AvgWeight` at `T = 1` with `delta_it` at half its
/// maximum, as in the paper.
fn comparison_config(n_max: usize) -> DynDensConfig {
    DynDensConfig::new(1.0, n_max).with_delta_it_fraction(0.5)
}

fn stix(scale: f64, claims: &mut Claims) -> usize {
    let updates = BOOLEAN.generate(scale);
    let (label, n) = (BOOLEAN.label(), updates.len());
    let title = format!("Stix against DynDens (AvgWeight, T = 1) on the {label} ({n} updates)");
    let mut table = Table::new(&title, &["algorithm", "time_ms", "subgraphs maintained"]);
    // Stix: edge insertions and deletions follow the 0/1 weights.
    let start = Instant::now();
    let mut cliques = StixCliques::new();
    for u in &updates {
        cliques.apply_unweighted_update(u.a, u.b, u.is_positive());
    }
    let (cell, stix_ms) = time_cell(updates.len(), millis(start.elapsed()));
    let name = "Stix (maximal cliques, unbounded)".to_string();
    table.row(vec![name, cell, cliques.clique_count().to_string()]);
    let mut at_five = None;
    for n_max in 3..=7 {
        let m = timed::<AvgWeight>(comparison_config(n_max), &updates);
        let (cell, ms) = time_cell(updates.len(), m.millis());
        if n_max == 5 {
            at_five = ms;
        }
        let name = format!("DynDens (all cliques), Nmax = {n_max}");
        table.row(vec![name, cell, m.dense_at_end.to_string()]);
    }
    table.print();
    let ratio = at_five.and_then(|ms| Some(ms / stix_ms?));
    let name = "stix: cost of DynDens at Nmax = 5 / Stix";
    ratio_claim(claims, name, (0.5, 2.0), std::iter::once(ratio));
    table.len()
}

fn grasp(scale: f64, claims: &mut Claims) -> usize {
    let updates = BOOLEAN_FOR_GRASP.generate(scale);
    let dyndens = timed::<AvgWeight>(comparison_config(5), &updates);
    // DynDens has recall 1 by construction: its answer is the truth.
    let mut exact = DynDens::new(AvgWeight, comparison_config(5));
    for u in &updates {
        exact.apply_update(*u);
    }
    let truth = exact.output_dense_subgraphs().into_iter();
    let truth: Vec<VertexSet> = truth.map(|(set, _)| set).collect();

    let (label, n) = (BOOLEAN.label(), updates.len());
    let title = format!(
        "Figures 4(h)/(i): GRASP against DynDens (AvgWeight, T = 1, Nmax = 5) on a smaller, \
         denser {label} ({n} updates)"
    );
    let headers = ["algorithm", "time_ms", "recall", "subgraphs found"];
    let mut table = Table::new(&title, &headers);
    let (cell, dyndens_ms) = time_cell(updates.len(), dyndens.millis());
    let found = truth.len().to_string();
    table.row(vec!["DynDens".into(), cell, "1.00".into(), found]);
    let mut points = Vec::new();
    for iterations in [1, 2, 4, 8, 16] {
        let config = GraspConfig {
            iterations_per_update: iterations,
            ..GraspConfig::default()
        };
        let mut grasp = Grasp::new(AvgWeight, 1.0, config);
        let start = Instant::now();
        for u in &updates {
            grasp.apply_update(*u);
        }
        let (cell, ms) = time_cell(updates.len(), millis(start.elapsed()));
        let recall = grasp.recall_against(&truth);
        points.push(ms.map(|ms| (ms, recall)));
        let name = format!("GRASP, {iterations} iterations/update");
        let found = grasp.found().len().to_string();
        table.row(vec![name, cell, format!("{recall:.2}"), found]);
    }
    table.print();

    let measured = (|| {
        let ((ms_lo, recall_lo), (ms_hi, recall_hi)) = (points[0]?, points[4]?);
        let (lo, hi) = (ms_lo / dyndens_ms?, ms_hi / dyndens_ms?);
        let text = format!(
            "recall {recall_lo:.2} to {recall_hi:.2}, runtime {lo:.0} to {hi:.0} x DynDens"
        );
        let holds = recall_lo < 1.0 && recall_hi > recall_lo && ms_hi > ms_lo * UP.0;
        Some((text, holds))
    })();
    let name = "4hi: GRASP buys recall with runtime (1 to 16 iterations)";
    claim(
        claims,
        name,
        "recall below 1 and rising, runtime rising",
        measured,
    );
    table.len()
}

// ---------------------------------------------------------------------------
// Table 3: the ranked stories of a simulated day
// ---------------------------------------------------------------------------

/// Section 5.3's setup: correlations over the whole day (no decay), raw
/// log-likelihood ratios retained above the 5 % significance level, AvgDegree
/// (favouring larger stories), diversity-aware re-ranking.
fn table3(scale: f64, claims: &mut Claims) -> usize {
    let corpus = |posts: f64, n_background_entities, base| TweetSimulatorConfig {
        n_posts: (posts * scale) as usize,
        n_background_entities,
        ..base
    };
    let tweets = corpus(60_000.0, 600, TweetSimulatorConfig::default());
    let blogs = corpus(8_000.0, 400, TweetSimulatorConfig::blog_profile());
    let mut rows = 0;
    for (label, config) in [("tweets", tweets), ("blog posts", blogs)] {
        let corpus = TweetSimulator::new(config).generate();
        let updates = corpus.to_updates(LogLikelihoodRatio::raw(CHI2_CRITICAL_5PCT), None);
        let config = DynDensConfig::new(1.5, 5).with_delta_it_fraction(0.05);
        let mut engine = DynDens::new(AvgDegree, config);
        for u in &updates {
            engine.apply_update(*u);
        }
        let ranked = rank_with_diversity(&engine.output_dense_subgraphs(), 6);
        // One planted story: every entity is scripted, and the scripts it
        // draws on all share an entity (the two facets of the raid do; the
        // wedding and the pop stars do not).
        let one_story = |set: &VertexSet| {
            let touches = |script: &&Vec<VertexId>| set.iter().any(|v| script.contains(&v));
            let hit: Vec<&Vec<VertexId>> = corpus.story_vertices.iter().filter(touches).collect();
            let linked = |a: &&Vec<VertexId>| hit.iter().all(|b| a.iter().any(|v| b.contains(v)));
            set.iter().all(|v| hit.iter().any(|s| s.contains(&v))) && hit.iter().all(linked)
        };

        let (posts, n) = (corpus.posts.len(), updates.len());
        let title = format!("Table 3: top stories from {posts} simulated {label} ({n} updates)");
        let headers = ["rank", "density", "entities", "one planted story"];
        let mut table = Table::new(&title, &headers);
        for (rank, (set, density, _)) in ranked.iter().enumerate() {
            let entities = corpus.registry.describe(set.iter()).join(", ");
            let planted = if one_story(set) { "yes" } else { "no" };
            let (rank, density) = ((rank + 1).to_string(), format!("{density:.2}"));
            table.row(vec![rank, density, entities, planted.into()]);
        }
        table.print();
        rows += table.len();

        let n_planted = ranked.iter().filter(|(set, ..)| one_story(set)).count();
        let measurable = updates.len() >= MIN_UPDATES && !ranked.is_empty();
        let text = format!("{n_planted} of {}", ranked.len());
        let measured = measurable.then_some((text, n_planted == ranked.len()));
        let name = format!("table3: top stories from {label} that are one planted story each");
        claim(claims, &name, "all of them", measured);
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 4 and Figure 6: dynamic threshold adjustment on the synthetic graphs
// ---------------------------------------------------------------------------

const FIG6_THRESHOLDS: [f64; 5] = [0.8, 0.85, 0.9, 0.95, 1.0];

fn fig6_config(threshold: f64) -> DynDensConfig {
    DynDensConfig::new(threshold, 5).with_delta_it_fraction(0.3)
}

/// Table 4 (subgraphs stored at each threshold) and Fig. 6 (a threshold
/// raised from 0.8 or lowered from 1.0, incrementally and by recomputation
/// from the final graph) share the engines they build.
fn fig6(scale: f64, claims: &mut Claims) -> usize {
    // The paper uses 249K-node/750K-update and 500K-node/1.5M-update graphs.
    // The edgePreferential graphs are a twenty-fifth of the others: their hot
    // edges grow without bound, and what the index stores for them grows far
    // faster than the graph (at T = 0.8, 181 K subgraphs at 2 000 vertices and
    // 1.19 M at 4 000, where the random graph of 50 000 stores 66 K).
    let small = (50_000.0 * scale) as usize;
    let sizes = [("S", small, 1), ("L", 2 * small, 5)];
    let graphs = sizes.into_iter().flat_map(|(size, n, seed)| {
        let hot = (n / 25).max(16);
        let random = SyntheticConfig::random(n, 3 * n, seed);
        let edge = SyntheticConfig::edge_preferential(hot, 3 * hot, seed + 1);
        let node = SyntheticConfig::node_preferential(n, 3 * n, seed + 2);
        let boolean = SyntheticConfig::node_preferential_boolean(n, 3 * n, seed + 3);
        let names = ["Random", "EdgePref", "NodePref", "NodePrefBool"];
        let names = names.map(|name| format!("{name}-{size}"));
        names.into_iter().zip([random, edge, node, boolean])
    });

    let title = "Table 4: subgraphs stored in the index at each threshold";
    let headers = [
        "graph", "updates", "T=0.8", "T=0.85", "T=0.9", "T=0.95", "T=1",
    ];
    let mut table4 = Table::new(title, &headers);
    let title = "Figure 6: a threshold change, incremental against recompute (AvgWeight, Nmax = 5)";
    let headers = [
        "graph",
        "T_old -> T_new",
        "row time_ms",
        "incremental / recompute",
    ];
    let mut fig6 = Table::new(title, &headers);
    let mut ratios = Vec::new();
    for (name, config) in graphs {
        let workload = SyntheticWorkload::generate(config);
        let n_updates = workload.updates().len();
        let build = |&t: &f64| {
            let n_vertices = workload.config().n_vertices;
            let mut engine = DynDens::with_vertex_capacity(AvgWeight, fig6_config(t), n_vertices);
            for u in workload.updates() {
                engine.apply_update(*u);
            }
            engine
        };
        let engines: Vec<DynDens<AvgWeight>> = FIG6_THRESHOLDS.iter().map(build).collect();
        let mut cells = vec![name.clone(), n_updates.to_string()];
        cells.extend(engines.iter().map(|e| e.dense_count().to_string()));
        table4.row(cells);

        // Raise from the lowest threshold, lower from the highest.
        for (from, to) in [0, 0, 0, 0, 4, 4, 4, 4]
            .into_iter()
            .zip([1, 2, 3, 4, 3, 2, 1, 0])
        {
            let (old, new) = (FIG6_THRESHOLDS[from], FIG6_THRESHOLDS[to]);
            let mut engine = engines[from].clone();
            let start = Instant::now();
            engine.set_output_threshold(new);
            let incremental = millis(start.elapsed());
            let start = Instant::now();
            let _rebuilt = recompute(AvgWeight, fig6_config(new), engines[from].graph());
            let recomputed = millis(start.elapsed());
            let (cell, ms) = time_cell(n_updates, incremental + recomputed);
            let ratio = ms.map(|_| incremental / recomputed);
            ratios.push(ratio);
            let ratio = ratio.map_or("-".to_string(), |r| format!("{r:.3}"));
            fig6.row(vec![name.clone(), format!("{old} -> {new}"), cell, ratio]);
        }
    }
    table4.print();
    fig6.print();
    let name = "fig6: cost of an incremental threshold change / recompute";
    ratio_claim(claims, name, DOWN, ratios.into_iter());
    table4.len().min(fig6.len())
}

// ---------------------------------------------------------------------------
// Backends: what keeps `topk-peeling` a baseline (no claim)
// ---------------------------------------------------------------------------

/// A shard worker publishes the top 16 after every 64-update micro-batch.
const PUBLISH_EVERY: usize = 64;

/// Feeds `updates` to a `fresh()` state one publication at a time through
/// `publish`: the fastest of three runs in ms (a run over two seconds is not
/// repeated) and the last run's final state.
fn publishing_run<S>(
    updates: &[EdgeUpdate],
    fresh: impl Fn() -> S,
    mut publish: impl FnMut(&mut S, &[EdgeUpdate]),
) -> (f64, S) {
    let (mut best, mut state) = (f64::INFINITY, fresh());
    for _ in 0..3 {
        state = fresh();
        let start = Instant::now();
        for batch in updates.chunks(PUBLISH_EVERY) {
            publish(&mut state, batch);
        }
        best = best.min(millis(start.elapsed()));
        if best > 2_000.0 {
            break;
        }
    }
    (best, state)
}

/// DynDens and the `topk-peeling` baseline on the two scenario streams
/// (canonical engine configuration) and on the weighted tweet stream (the
/// repository benchmark's `T = 0.25`, `Nmax = 5` operating point). DynDens
/// publishes as a shard worker does; the baseline keeps one graph and peels
/// it at every publication. `ratio` is `top_q_density_ratio` against
/// DynDens's final output family.
fn backends(scale: f64, _: &mut Claims) -> usize {
    let n = (200_000.0 * scale) as usize;
    let aligned = AlignedCommunities::new(n, 4024).updates();
    let flash = FlashCrowd::new(n, 4024).updates();
    let weighted = DynDensConfig::new(0.25, 5).with_delta_it_fraction(0.25);
    let streams = [
        ("aligned_communities", aligned, engine_config()),
        ("flash_crowd", flash, engine_config()),
        ("weighted tweet stream", WEIGHTED.generate(scale), weighted),
    ];
    let title = format!(
        "Backends (AvgWeight, peeling k = 4): ingest with the top 16 published every \
         {PUBLISH_EVERY} updates, final output sets, their top-16 density ratio against \
         DynDens, DynDens snapshot bytes"
    );
    let headers = [
        "stream", "backend", "updates", "upd/s", "sets", "ratio", "bytes",
    ];
    let mut table = Table::new(&title, &headers);
    for (stream, updates, config) in streams {
        let n = updates.len();
        let mut events = Vec::new();
        let fresh = || DynDens::new(AvgWeight, config.clone());
        let (dyndens_ms, engine) = publishing_run(&updates, fresh, |engine, batch| {
            for u in batch {
                engine.apply_update_into(*u, &mut events);
            }
            events.clear();
            std::hint::black_box(engine.top_stories(16));
        });
        let peel = |graph: &DynamicGraph| topk_peeling(graph, &AvgWeight, &config, 4);
        let (peeling_ms, graph) = publishing_run(&updates, DynamicGraph::new, |graph, batch| {
            for u in batch {
                graph.apply_update(u);
            }
            std::hint::black_box(top_of(peel(graph), 16));
        });
        let exact = sorted_bits(engine.output_dense_subgraphs());
        let peeled = sorted_bits(peel(&graph));
        let bytes = engine.snapshot().len().to_string();
        for (backend, ms, family, bytes) in [
            ("dyndens", dyndens_ms, &exact, bytes),
            ("topk-peeling", peeling_ms, &peeled, "-".to_string()),
        ] {
            let (cell, ms) = time_cell(n, ms);
            let rate = ms.map_or(cell, |ms| format!("{:.0}", n as f64 / ms * 1e3));
            let ratio = format!("{:.3}", top_q_density_ratio(family, &exact));
            let (s, b, sets) = (stream.to_string(), backend.to_string(), family.len());
            table.row(vec![
                s,
                b,
                n.to_string(),
                rate,
                sets.to_string(),
                ratio,
                bytes,
            ]);
        }
    }
    table.print();
    table.len()
}

// ---------------------------------------------------------------------------

fn main() {
    let (figure, scale) = parse_args().unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let started = Instant::now();
    type Run = Box<dyn Fn(f64, &mut Claims) -> usize>;
    let mut figures: Vec<(&str, Run)> = Vec::new();
    for sweep in sweeps() {
        figures.push((
            sweep.id,
            Box::new(move |scale, claims| sweep.run(scale, claims)),
        ));
    }
    figures.extend([("stix", Box::new(stix) as Run), ("4hi", Box::new(grasp))]);
    figures.extend([
        ("table3", Box::new(table3) as Run),
        ("fig6", Box::new(fig6)),
        ("backends", Box::new(backends)),
    ]);
    figures.retain(|(id, _)| figure == "all" || figure == *id);
    if figures.is_empty() {
        eprintln!("repro: unknown figure `{figure}`\n{USAGE}");
        std::process::exit(2);
    }

    let mut claims = Claims::new();
    let mut empty = Vec::new();
    for (id, run) in &figures {
        if run(scale, &mut claims) == 0 {
            empty.push(*id);
        }
    }
    let mut table = Table::new(
        "Claims: the paper's relative claims against this run",
        &["claim", "paper", "measured", "verdict"],
    );
    for row in claims {
        table.row(row.to_vec());
    }
    table.print();
    let seconds = started.elapsed().as_secs_f64();
    println!("\nscale {scale}, {seconds:.0} s in total");
    if !empty.is_empty() {
        eprintln!("repro: no rows from {}", empty.join(", "));
        std::process::exit(1);
    }
}
