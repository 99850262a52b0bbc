//! # dyndens-bench
//!
//! The two measurement programs that live beside the repository benchmark
//! (`benchmark/`, which alone measures performance):
//!
//! * `repro` (`src/bin/repro.rs`) re-runs the paper's evaluation — every
//!   figure and table of Sections 5, 6.2 and 7.3 — and ends with a table of
//!   which of the paper's relative claims reproduce; its module doc carries
//!   the figure-by-figure index;
//! * `soak_forever` (`src/bin/soak_forever.rs`) is the nightly bounded-state
//!   forever-run.
//!
//! This library crate holds what `repro` is built on: the simulated weighted
//! dataset standing in for the paper's Twitter corpus, the timed engine run
//! and plain-text table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod report;
pub mod runner;

pub use datasets::{weighted_dataset, DatasetSpec};
pub use report::Table;
pub use runner::{run_updates, RunMeasurement};
