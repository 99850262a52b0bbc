//! # dyndens-workloads
//!
//! The scenario & adversary workload library for the DynDens benchmarks and
//! tests: deterministic, seeded stream generators behind the common
//! [`Workload`] trait, plus the differential [`oracle`] that drives any
//! workload through the full stack (sharded fleet vs. single engine,
//! kill-and-recover, split/merge mid-stream, push-fed serve mirror) and
//! asserts bit-exact story sets at every checkpoint.
//!
//! Paper-era generators:
//!
//! * [`synthetic`] — synthetic edge-weight-update streams matching the
//!   generation strategies of the paper's threshold-adjustment experiments
//!   (Section 6.2: `random`, `edgePreferential`, `nodePreferential`,
//!   `nodePreferentialBoolean`) and the near-clique mixture used for the
//!   heuristics ablation (Section 7.3);
//! * [`tweets`] — a planted-story social media simulator standing in for the
//!   Twitter and blog corpora the paper's datasets were derived from (which
//!   are not redistributable); it produces entity-annotated posts with the
//!   same statistical shape (entity-count mix per post, Zipf-distributed
//!   background popularity, bursty facet-structured story mentions) so the
//!   full pipeline — association measures, decay, DynDens — is exercised on
//!   realistic input.
//!
//! The scenario matrix (each a [`Workload`], each judged by the oracle in
//! `tests/workload_scenarios.rs` — see `docs/WORKLOADS.md`):
//!
//! * [`AlignedCommunities`] — the friendly baseline: balanced planted
//!   communities, one congruence class each (the canonical 50k equivalence
//!   stream);
//! * [`FlashCrowd`] — one story absorbs ~100x traffic in seconds, designed
//!   to trip the `Rebalancer`'s skew trigger — and *only* during the burst;
//! * [`AdversarialSkew`] — every update funneled into one congruence class,
//!   so a single shard owns the world: the split-storm hysteresis probe;
//! * [`DocCorpus`] — document co-occurrence with self-reinforcing
//!   repeated-edge weights (preferential topics, preferential entities);
//! * [`GeoPartitioned`] — city-keyed signal streams whose stories evolve
//!   rather than duplicate across waves, with departed members' edges
//!   decayed to zero (zombie archival).
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversarial;
pub mod aligned;
pub mod doc_corpus;
pub mod flash_crowd;
pub mod geo;
pub mod oracle;
pub mod synthetic;
pub mod tweets;
mod workload;

pub use adversarial::AdversarialSkew;
pub use aligned::{shard_aligned_stream, AlignedCommunities};
pub use doc_corpus::DocCorpus;
pub use flash_crowd::FlashCrowd;
pub use geo::GeoPartitioned;
pub use oracle::{Leg, LegReport, Oracle, OracleReport};
pub use synthetic::{SyntheticConfig, SyntheticStrategy, SyntheticWorkload};
pub use tweets::{SimulatedCorpus, StoryScript, TweetSimulator, TweetSimulatorConfig};
pub use workload::{Workload, WorkloadStream, MAX_PAIR_WEIGHT};
