//! Criterion micro-benchmarks for the dense subgraph index operations, the
//! delta_it trade-off (Fig. 4(g)), the heuristics (Fig. 4(j)) and the
//! ImplicitTooDense ablation (Sec. 5.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dyndens_core::{DynDens, DynDensConfig, SubgraphIndex, SubgraphInfo};
use dyndens_density::AvgWeight;
use dyndens_graph::VertexId;
use dyndens_workloads::{SyntheticConfig, SyntheticStrategy, SyntheticWorkload};

fn index_operations(c: &mut Criterion) {
    // Insert / look up / remove a family of overlapping subgraphs.
    let subgraphs: Vec<Vec<VertexId>> = (0..2_000u32)
        .map(|i| {
            let base = i % 400;
            vec![
                VertexId(base),
                VertexId(base + 1 + (i % 3)),
                VertexId(base + 5 + (i % 7)),
                VertexId(base + 20 + (i % 11)),
            ]
        })
        .collect();

    c.bench_function("index_insert_2000_overlapping", |b| {
        b.iter(|| {
            let mut index = SubgraphIndex::new();
            for (i, vs) in subgraphs.iter().enumerate() {
                index.insert(vs, SubgraphInfo::with_score(i as f64));
            }
            index.len()
        })
    });

    let mut index = SubgraphIndex::new();
    for (i, vs) in subgraphs.iter().enumerate() {
        index.insert(vs, SubgraphInfo::with_score(i as f64));
    }
    c.bench_function("index_lookup_2000", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for vs in &subgraphs {
                if index.find(vs).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    let (mut stack, mut out) = (Vec::new(), Vec::new());
    c.bench_function("index_containing_either_scan", |b| {
        b.iter(|| {
            index.subgraphs_containing_either(VertexId(100), VertexId(101), &mut stack, &mut out);
            out.len()
        })
    });
}

fn near_clique_workload(updates: usize) -> SyntheticWorkload {
    let mut config = SyntheticConfig::near_clique(3_000, updates, 73);
    if let SyntheticStrategy::NearClique {
        max_pair_weight,
        groups,
        ..
    } = &mut config.strategy
    {
        *max_pair_weight = Some(1.4);
        *groups = 30;
    }
    SyntheticWorkload::generate(config)
}

fn run_with(config: DynDensConfig, workload: &SyntheticWorkload) -> usize {
    let mut engine = DynDens::new(AvgWeight, config);
    let mut events = Vec::new();
    for u in workload.updates() {
        events.clear();
        engine.apply_update_into(*u, &mut events);
    }
    engine.dense_count()
}

fn heuristics_ablation(c: &mut Criterion) {
    let workload = near_clique_workload(8_000);
    let mut group = c.benchmark_group("fig4j_heuristics");
    group.sample_size(10);
    for (name, max_explore, degree_prioritize) in [
        ("none", false, false),
        ("max_explore", true, false),
        ("degree_prioritize", false, true),
        ("both", true, true),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let config = DynDensConfig::new(0.7, 9)
                    .with_delta_it_fraction(0.4)
                    .with_max_explore(max_explore)
                    .with_degree_prioritize(degree_prioritize);
                run_with(config, &workload)
            })
        });
    }
    group.finish();
}

fn delta_it_tradeoff(c: &mut Criterion) {
    let workload = near_clique_workload(6_000);
    let mut group = c.benchmark_group("fig4g_delta_it");
    group.sample_size(10);
    for fraction in [0.01, 0.1, 0.4, 0.9] {
        group.bench_with_input(BenchmarkId::from_parameter(fraction), &fraction, |b, &f| {
            b.iter(|| {
                let config = DynDensConfig::new(0.7, 6).with_delta_it_fraction(f);
                run_with(config, &workload)
            })
        });
    }
    group.finish();
}

fn implicit_too_dense_ablation(c: &mut Criterion) {
    // A workload that *does* create too-dense subgraphs (no rejection cap).
    let workload = SyntheticWorkload::generate(SyntheticConfig::near_clique(1_500, 4_000, 17));
    let mut group = c.benchmark_group("implicit_too_dense");
    group.sample_size(10);
    for (name, implicit) in [("with_implicit", true), ("explore_all", false)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &implicit,
            |b, &implicit| {
                b.iter(|| {
                    let config = DynDensConfig::new(0.3, 6)
                        .with_delta_it_fraction(0.1)
                        .with_implicit_too_dense(implicit);
                    run_with(config, &workload)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    index_operations,
    heuristics_ablation,
    delta_it_tradeoff,
    implicit_too_dense_ablation
);
criterion_main!(benches);
