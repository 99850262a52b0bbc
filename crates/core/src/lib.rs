//! # dyndens-core
//!
//! DynDens: incremental maintenance of dense subgraphs under streaming edge
//! weight updates, for real-time story identification (the **Engagement**
//! problem).
//!
//! Given an evolving weighted entity graph and a density threshold `T`, the
//! [`DynDens`] engine maintains, after every edge weight update, every vertex
//! subset of cardinality at most `Nmax` whose density clears `T`
//! ("output-dense" subgraphs), without recomputing anything from scratch. It
//! does so by maintaining a slightly larger family of "dense" subgraphs —
//! those clearing a cardinality-dependent threshold `T_n` — in a prefix-tree
//! index, and exploring around the subgraphs affected by each update for a
//! bounded number of iterations.
//!
//! ## Crate layout
//!
//! * [`engine`] — the update-processing algorithm (Algorithms 1 & 2).
//! * [`index`] — the prefix-tree dense subgraph index with per-vertex
//!   posting lists and the `ImplicitTooDense` markers (Section 3.2).
//! * [`heuristics`] — the MaxExplore and DegreePrioritize prunings (Section 7).
//! * [`snapshot`] — versioned binary snapshot/restore of the full engine
//!   state, the substrate of the sharded subsystem's crash recovery.
//! * [`threshold_update`] — dynamic threshold adjustment (Section 6).
//! * [`maintenance`] — the publication order ([`story_order`]) and the
//!   configuration fingerprint a persistent deployment pins
//!   ([`encode_config_params`]).
//! * [`config`], [`events`] — configuration and reporting types.
//!
//! ## Quick start
//!
//! ```
//! use dyndens_core::{DynDens, DynDensConfig};
//! use dyndens_density::AvgWeight;
//! use dyndens_graph::{EdgeUpdate, VertexId};
//!
//! // Maintain subgraphs of up to 5 entities with average edge weight >= 1.0.
//! let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 5));
//!
//! // Feed the stream of edge weight updates.
//! for (a, b, delta) in [(0, 1, 1.2), (1, 2, 1.1), (0, 2, 1.0)] {
//!     let events = engine.apply_update(EdgeUpdate::new(VertexId(a), VertexId(b), delta));
//!     for event in events {
//!         println!("{event:?}");
//!     }
//! }
//! assert!(engine.output_dense_count() >= 4); // the triangle and its edges
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod events;
#[cfg(test)]
mod evict;
pub mod heuristics;
pub mod index;
pub mod maintenance;
mod scratch;
pub mod snapshot;
pub mod threshold_update;

pub use config::{DeltaIt, DynDensConfig};
pub use engine::DynDens;
pub use events::{DenseEvent, EngineStats};
pub use heuristics::{DegreePrioritize, MaxExploreBound};
pub use index::{NodeId, SubgraphIndex, SubgraphInfo};
pub use maintenance::{encode_config_params, sort_stories, story_order, top_of};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

// Re-export the substrate crates so downstream users only need one dependency.
pub use dyndens_density as density;
pub use dyndens_graph as graph;
