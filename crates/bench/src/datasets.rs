//! The simulated weighted dataset.
//!
//! The paper's evaluation uses two datasets derived from a one-day Twitter
//! sample: a *weighted* one (chi-square + correlation coefficient weights) and
//! an *unweighted* one (thresholded log-likelihood ratio, 0/1 weights). The
//! raw corpus is not redistributable, so the weighted stream is generated
//! with the planted-story simulator and converted with the same association
//! measure. The simulator's 0/1 lowering yields a few dozen updates where the
//! paper's has 43 K, so the 0/1 family runs on the paper's own synthetic
//! boolean graph instead (see the `repro` binary's module doc).

use dyndens_graph::EdgeUpdate;
use dyndens_stream::ChiSquareCorrelation;
use dyndens_workloads::{TweetSimulator, TweetSimulatorConfig};

/// Parameters of a simulated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Number of simulated posts.
    pub n_posts: usize,
    /// Number of background entities.
    pub n_background_entities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// The unit scale: 60 000 posts over 800 background entities.
    pub fn default_scale() -> Self {
        DatasetSpec {
            n_posts: 60_000,
            n_background_entities: 800,
            seed: 2011,
        }
    }

    /// Scales the number of posts (and entities, sub-linearly) by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let base = Self::default_scale();
        DatasetSpec {
            n_posts: ((base.n_posts as f64) * factor).max(1_000.0) as usize,
            n_background_entities: ((base.n_background_entities as f64) * factor.sqrt()).max(100.0)
                as usize,
            seed: base.seed,
        }
    }
}

/// The *weighted* dataset: chi-square + correlation-coefficient weights with a
/// two-hour mean post life. Returns the edge weight update stream.
pub fn weighted_dataset(spec: &DatasetSpec) -> Vec<EdgeUpdate> {
    let corpus = TweetSimulator::new(TweetSimulatorConfig {
        n_posts: spec.n_posts,
        n_background_entities: spec.n_background_entities,
        seed: spec.seed,
        ..TweetSimulatorConfig::default()
    })
    .generate();
    corpus.to_updates(ChiSquareCorrelation::default(), Some(2.0 * 3600.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_nonempty_and_deterministic() {
        let spec = DatasetSpec {
            n_posts: 4_000,
            n_background_entities: 120,
            seed: 3,
        };
        let w1 = weighted_dataset(&spec);
        let w2 = weighted_dataset(&spec);
        assert_eq!(w1, w2);
        assert!(!w1.is_empty());
    }

    #[test]
    fn scaling_changes_volume() {
        let small = DatasetSpec::scaled(0.02);
        let smaller_still = DatasetSpec::scaled(0.01);
        assert!(small.n_posts > smaller_still.n_posts);
        assert_eq!(DatasetSpec::default_scale().n_posts, 60_000);
    }
}
