//! # dyndens-baselines
//!
//! Baselines and oracles for the Engagement problem, used both as comparison
//! points in the benchmark harness (Section 5.2 of the paper) and as
//! correctness oracles in the test suites:
//!
//! * [`brute_force`] — exhaustive enumeration of dense subgraphs (and of
//!   maximal cliques); the ground truth for property tests.
//! * [`recompute`](mod@recompute) — `DynDensRecompute`: rebuild a DynDens index from scratch
//!   by replaying every final edge weight as an update (the reference point of
//!   the threshold-adjustment experiments, Section 6.2).
//! * [`stix`] — incremental maintenance of all maximal cliques in a dynamic
//!   unweighted graph, an adaptation of the Stix algorithm (Section 5.2).
//! * [`grasp`] — a Greedy Randomized Adaptive Search Procedure for large
//!   quasi-cliques, adapted to the streaming setting (Section 5.2).
//! * [`flow`] / [`goldberg`] — a Dinic max-flow solver and Goldberg's
//!   max-density subgraph algorithm, used for the offline Top-1 variant
//!   discussed in Section 4.2.2.
//! * [`topk_peeling`](mod@topk_peeling) — per-component greedy peeling in
//!   the style of fully-dynamic top-k densest maintenance, the baseline
//!   `repro --figure backends` measures DynDens against (see
//!   `docs/BACKENDS.md`).
//!
//! `recompute` and `topk_peeling` are free functions over a graph: reference
//! points to measure DynDens against, not ways to serve a stream.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brute_force;
pub mod flow;
pub mod goldberg;
pub mod grasp;
pub mod recompute;
pub mod stix;
pub mod topk_peeling;

pub use brute_force::BruteForce;
pub use goldberg::densest_subgraph;
pub use grasp::{Grasp, GraspConfig};
pub use recompute::recompute;
pub use stix::StixCliques;
pub use topk_peeling::topk_peeling;
