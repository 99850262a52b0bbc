//! Cross-crate integration tests: simulated posts → association measures →
//! DynDens → ranked stories.

use dyndens::prelude::*;
use dyndens::shard::ShardConfig;
use dyndens::stream::{ChiSquareCorrelation, LogLikelihoodRatio, ShardedStoryPipeline};
use dyndens::workloads::{TweetSimulator, TweetSimulatorConfig};

fn small_corpus() -> dyndens::workloads::SimulatedCorpus {
    let config = TweetSimulatorConfig {
        n_posts: 8_000,
        n_background_entities: 150,
        ..TweetSimulatorConfig::default()
    };
    TweetSimulator::new(config).generate()
}

#[test]
fn weighted_pipeline_surfaces_planted_stories() {
    let corpus = small_corpus();
    let updates = corpus.to_updates(ChiSquareCorrelation::default(), Some(2.0 * 3600.0));
    assert!(!updates.is_empty());

    let mut engine = DynDens::new(
        AvgWeight,
        DynDensConfig::new(0.4, 5).with_delta_it_fraction(0.25),
    );
    for u in &updates {
        engine.apply_update(*u);
    }
    engine.validate().unwrap();

    // At least half of the always-active planted stories should have a facet
    // reported as output-dense at the end of the day.
    let reported = engine.output_dense_subgraphs();
    let mut recovered = 0;
    let mut active_stories = 0;
    for (idx, story) in corpus.story_vertices.iter().enumerate() {
        // Skip windowed stories that ended early (their association decayed).
        let script = &dyndens::workloads::tweets::default_stories()[idx];
        if script.end < 20.0 * 3600.0 {
            continue;
        }
        active_stories += 1;
        let hit = reported
            .iter()
            .any(|(set, _)| set.iter().filter(|v| story.contains(v)).count() >= 2);
        if hit {
            recovered += 1;
        }
    }
    assert!(active_stories >= 3);
    assert!(
        recovered * 2 >= active_stories,
        "only {recovered} of {active_stories} active stories were recovered"
    );
}

#[test]
fn unweighted_pipeline_produces_unit_edges_and_cliques() {
    let corpus = small_corpus();
    let updates = corpus.to_updates(LogLikelihoodRatio::default(), Some(2.0 * 3600.0));
    // Every positive update on the unweighted dataset corresponds to an edge
    // appearing (weight 0 -> 1), every negative one to an edge disappearing.
    let mut graph = DynamicGraph::new();
    for u in &updates {
        graph.apply_update(u);
    }
    for (_, _, w) in graph.edges() {
        assert!((w - 1.0).abs() < 1e-6, "unexpected non-unit weight {w}");
    }

    // DynDens over the unweighted stream with T = 1 maintains cliques.
    let mut engine = DynDens::new(
        AvgWeight,
        DynDensConfig::new(1.0, 5).with_delta_it_fraction(0.5),
    );
    for u in &updates {
        engine.apply_update(*u);
    }
    engine.validate().unwrap();
    for (set, _) in engine.output_dense_subgraphs() {
        // Every reported subgraph is a clique in the thresholded graph.
        let members: Vec<VertexId> = set.iter().collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                assert!(engine.graph().weight(a, b) > 0.99, "{set} is not a clique");
            }
        }
    }
}

#[test]
fn story_pipeline_ranks_with_diversity() {
    let corpus = small_corpus();
    let mut pipeline = ShardedStoryPipeline::new(
        ChiSquareCorrelation::default(),
        2.0 * 3600.0,
        AvgWeight,
        DynDensConfig::new(0.4, 5).with_delta_it_fraction(0.25),
        ShardConfig::new(1),
    );
    for post in &corpus.posts {
        let names: Vec<String> = corpus.registry.describe(post.entities.iter().copied());
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        pipeline.ingest(post.timestamp, &refs);
    }
    let stories = pipeline.top_stories(6);
    assert!(!stories.is_empty());
    // Diversity ranking: the top two stories must not be near-duplicates.
    if stories.len() >= 2 {
        let overlap = stories[0].vertices.intersection_size(&stories[1].vertices);
        assert!(
            overlap < stories[0].vertices.len(),
            "top two stories are identical: {:?} / {:?}",
            stories[0].entities,
            stories[1].entities
        );
    }
    // Adjusted density ordering is non-increasing.
    for pair in stories.windows(2) {
        assert!(pair[0].adjusted_density >= pair[1].adjusted_density - 1e-9);
    }
}

#[test]
fn measure_choice_changes_the_update_stream_but_both_replay_consistently() {
    let corpus = small_corpus();
    let weighted = corpus.to_updates(ChiSquareCorrelation::default(), Some(2.0 * 3600.0));
    let unweighted = corpus.to_updates(LogLikelihoodRatio::default(), Some(2.0 * 3600.0));
    assert_ne!(weighted.len(), unweighted.len());

    // Replaying either stream leaves every weight non-negative.
    for updates in [&weighted, &unweighted] {
        let mut graph = DynamicGraph::new();
        for u in updates.iter() {
            graph.apply_update(u);
        }
        for (_, _, w) in graph.edges() {
            assert!(w >= -1e-9);
        }
    }
}
