//! # dyndens-stream
//!
//! The post-stream substrate of the real-time story identification pipeline
//! (Section 5 of the paper): turning a stream of entity-annotated social media
//! posts into the stream of edge weight updates consumed by the DynDens
//! engine, and turning the resulting dense subgraphs back into presentable
//! "stories".
//!
//! The crate provides:
//!
//! * [`entity`] — a registry mapping entity names to graph vertices;
//! * [`post`] — entity-annotated posts with timestamps;
//! * [`decay`] — exponentially decayed occurrence and co-occurrence counters
//!   (the paper uses a mean post life of two hours so that identified stories
//!   are "stories happening now" rather than cumulative stories to date);
//! * [`measures`] — association measures: the thresholded log-likelihood
//!   ratio (the paper's *unweighted* dataset) and the chi-square +
//!   correlation-coefficient combination (the *weighted* dataset), behind a
//!   common [`AssociationMeasure`] trait;
//! * [`pipeline`] — the post → edge-weight-update generator, implementing the
//!   paper's approximation that an edge's weight is only recomputed when one
//!   of its endpoints is mentioned;
//! * [`ranking`] — diversity-aware re-ranking of output-dense subgraphs into
//!   presentable [`Story`]s (Section 5.3);
//! * [`sharded`] — the end-to-end pipeline (posts in, stories out) over the
//!   `dyndens-shard` fleet, from one shard up (parallel ingest, non-blocking
//!   story reads).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decay;
pub mod entity;
pub mod measures;
pub mod pipeline;
pub mod post;
pub mod ranking;
pub mod sharded;

pub use decay::{CooccurrenceTracker, PairStats};
pub use entity::EntityRegistry;
pub use measures::{
    AssociationMeasure, ChiSquareCorrelation, LogLikelihoodRatio, CHI2_CRITICAL_1PCT,
    CHI2_CRITICAL_5PCT,
};
pub use pipeline::EdgeUpdateGenerator;
pub use post::Post;
pub use ranking::{rank_with_diversity, Story, DIVERSITY_PENALTY};
pub use sharded::{PipelineRecoveryError, ShardedStoryPipeline};
