//! Dynamic threshold adjustment at runtime (Section 6, Algorithms 3 and 4).
//!
//! Engagement assumes the output threshold `T` is chosen so that the number of
//! output-dense subgraphs stays meaningful. When stream characteristics drift,
//! `T` must be adjusted: raising it is a simple index scan, lowering it
//! requires exploring around every maintained subgraph (and re-checking every
//! edge of the graph), but both are far cheaper than recomputing the index
//! from scratch by replaying every edge weight as an update.

use dyndens_density::DensityMeasure;
use dyndens_graph::{VertexId, VertexSet};

use crate::engine::DynDens;
use crate::events::DenseEvent;
use crate::index::{NodeId, SubgraphInfo};

impl<D: DensityMeasure> DynDens<D> {
    /// Changes the output density threshold `T` at runtime, incrementally
    /// adjusting the maintained dense subgraphs (Algorithm 3). `delta_it` is
    /// rescaled proportionally to the threshold change so that it stays inside
    /// its validity range.
    ///
    /// Returns the transitions in the reported output-dense set caused by the
    /// threshold change.
    pub fn set_output_threshold(&mut self, new_threshold: f64) -> Vec<DenseEvent> {
        let mut events = Vec::new();
        let old_threshold = self.thresholds().output_threshold();
        if (new_threshold - old_threshold).abs() < f64::EPSILON {
            return events;
        }
        self.epoch += 1;
        // Snapshot the classification of every stored subgraph under the old
        // thresholds before switching.
        let snapshot: Vec<(NodeId, usize, f64, bool)> = self
            .index
            .all_subgraphs()
            .iter()
            .map(|&id| {
                let card = self.index.cardinality(id);
                let score = self.index.score(id);
                let was_output = self.thresholds().is_output_dense(score, card);
                (id, card, score, was_output)
            })
            .collect();

        self.thresholds_mut().set_output_threshold(new_threshold);

        if new_threshold > old_threshold {
            self.increase_threshold(snapshot, &mut events);
        } else {
            self.decrease_threshold(snapshot, &mut events);
        }
        events
    }

    /// Algorithm 3, lines 2-4: a threshold increase can only shrink the dense
    /// set, so a single scan over the index suffices.
    fn increase_threshold(
        &mut self,
        snapshot: Vec<(NodeId, usize, f64, bool)>,
        events: &mut Vec<DenseEvent>,
    ) {
        for (id, card, score, was_output) in snapshot {
            let still_dense = self.thresholds().is_dense(score, card);
            let still_output = self.thresholds().is_output_dense(score, card);
            if self.index.has_star(id) && !self.thresholds().is_too_dense(score, card) {
                // Covered extensions that remain dense under the new threshold
                // must be materialised before the marker disappears.
                self.demote_star_for_threshold(id, score);
            }
            if !still_dense {
                if was_output {
                    events.push(DenseEvent::NoLongerOutputDense {
                        vertices: self.index.vertices(id),
                        density: self.thresholds().measure().density(score, card),
                    });
                }
                self.index.remove(id);
            } else if was_output && !still_output {
                events.push(DenseEvent::NoLongerOutputDense {
                    vertices: self.index.vertices(id),
                    density: self.thresholds().measure().density(score, card),
                });
            }
        }
    }

    /// Algorithm 3, lines 5-9: a threshold decrease can surface previously
    /// sparse subgraphs. Every edge is re-examined as a base case, and every
    /// previously dense subgraph is explored with [`Self::update_explore`]
    /// (Algorithm 4).
    fn decrease_threshold(
        &mut self,
        snapshot: Vec<(NodeId, usize, f64, bool)>,
        events: &mut Vec<DenseEvent>,
    ) {
        // Previously stored subgraphs that cross the output threshold are
        // reported; they stay in the index either way.
        for &(id, card, score, was_output) in &snapshot {
            if !was_output && self.thresholds().is_output_dense(score, card) {
                events.push(DenseEvent::BecameOutputDense {
                    vertices: self.index.vertices(id),
                    density: self.thresholds().measure().density(score, card),
                });
            }
        }

        // Base case (Algorithm 3, lines 6-7): every edge of the graph may now
        // be a dense 2-subgraph.
        let edges: Vec<(VertexId, VertexId, f64)> = self.graph().edges().collect();
        for (u, v, w) in edges {
            if self.thresholds().is_dense(w, 2) && self.index.find(&[u, v]).is_none() {
                let pair = VertexSet::pair(u, v);
                self.insert_for_threshold(&pair, w, events);
            }
        }

        // Explore around every previously dense subgraph (Algorithm 3,
        // lines 8-9). Newly inserted subgraphs are explored recursively inside
        // `update_explore`.
        let old_dense: Vec<(VertexSet, f64)> = snapshot
            .iter()
            .map(|&(id, _, score, _)| (self.index.vertices(id), score))
            .collect();
        for (verts, score) in old_dense {
            self.update_explore(&verts, score, events);
        }
        // Newly inserted 2-subgraphs also need exploration (they are the seeds
        // for subgraphs that contain no previously-dense part).
        let new_pairs: Vec<(VertexSet, f64)> = self
            .index
            .iter()
            .filter(|(_, _, info)| info.discovered_epoch == self.epoch)
            .map(|(_, v, info)| (v, info.score))
            .collect();
        for (verts, score) in new_pairs {
            self.update_explore(&verts, score, events);
        }
    }

    /// Algorithm 4 (`UpdateExplore`): augments a dense subgraph with one
    /// neighbouring vertex (or, for too-dense subgraphs, with every vertex —
    /// or a `*` marker under the ImplicitTooDense optimisation), recursing on
    /// the extensions that are dense and not stored yet. A stored extension
    /// is left alone: it was either dense before the change, and is explored
    /// from the snapshot, or already discovered during this change.
    fn update_explore(&mut self, verts: &VertexSet, score: f64, events: &mut Vec<DenseEvent>) {
        let card = verts.len();
        if card >= self.thresholds().n_max() {
            return;
        }
        let too_dense = self.thresholds().is_too_dense(score, card);
        let ext_card = card + 1;

        if too_dense && self.config().implicit_too_dense {
            if let Some(id) = self.index.find(verts.as_slice()) {
                if !self.index.has_star(id) {
                    self.index.set_star(id, true);
                }
            }
        }

        // Candidates in ascending vertex order: the neighbours, or under
        // explore-all (Algorithm 4, lines 2-5) every vertex.
        let mut gamma = self.scratch.columns.take();
        let mut candidates = self.scratch.verts.take();
        self.graph.neighborhood_into(verts.as_slice(), &mut gamma);
        if too_dense && !self.config().implicit_too_dense {
            candidates.extend((0..self.graph.vertex_count() as u32).map(VertexId));
        } else {
            gamma.sort_candidates();
            candidates.extend_from_slice(gamma.candidates());
        }

        for &y in &candidates {
            let ext_score = score + gamma.get(y);
            // A member's NaN is never dense.
            if !self.thresholds().is_dense(ext_score, ext_card) {
                continue;
            }
            let ext = verts.with(y);
            if self.index.find(ext.as_slice()).is_none() {
                self.insert_for_threshold(&ext, ext_score, events);
                self.update_explore(&ext, ext_score, events);
            }
        }
        self.scratch.verts.give(candidates);
        self.scratch.columns.give(gamma);
    }

    fn insert_for_threshold(
        &mut self,
        verts: &VertexSet,
        score: f64,
        events: &mut Vec<DenseEvent>,
    ) {
        let id = self.index.insert(
            verts.as_slice(),
            SubgraphInfo {
                score,
                discovered_epoch: self.epoch,
                discovered_iteration: 0,
            },
        );
        if self.thresholds().is_output_dense(score, verts.len()) {
            events.push(DenseEvent::BecameOutputDense {
                vertices: verts.clone(),
                density: self.thresholds().measure().density(score, verts.len()),
            });
        }
        if self.config().implicit_too_dense && self.thresholds().is_too_dense(score, verts.len()) {
            self.index.set_star(id, true);
        }
    }

    /// Star demotion during a threshold increase: mirrors
    /// `DynDens::demote_star` but is driven by a threshold change rather than
    /// a score change.
    fn demote_star_for_threshold(&mut self, base: NodeId, base_score: f64) {
        self.index.set_star(base, false);
        let card = self.index.cardinality(base);
        if card + 1 > self.thresholds().n_max() {
            return;
        }
        let verts = self.index.vertices(base);
        let mut gamma = self.scratch.columns.take();
        self.graph.neighborhood_into(verts.as_slice(), &mut gamma);
        gamma.sort_candidates();
        for (y, gamma_y) in gamma.iter() {
            let ext_score = base_score + gamma_y;
            let ext = verts.with(y);
            if !self.thresholds().is_dense(ext_score, card + 1)
                || self.index.find(ext.as_slice()).is_some()
            {
                continue;
            }
            let id = self.index.insert(
                ext.as_slice(),
                SubgraphInfo {
                    score: ext_score,
                    discovered_epoch: self.epoch,
                    discovered_iteration: 0,
                },
            );
            if self.config().implicit_too_dense
                && self.thresholds().is_too_dense(ext_score, ext.len())
            {
                self.index.set_star(id, true);
            }
        }
        self.scratch.columns.give(gamma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynDensConfig;
    use dyndens_density::AvgWeight;
    use dyndens_graph::EdgeUpdate;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn sample_engine(threshold: f64) -> DynDens<AvgWeight> {
        let config = DynDensConfig::new(threshold, 4).with_delta_it_fraction(0.3);
        let mut engine = DynDens::new(AvgWeight, config);
        let updates = [
            update(0, 1, 1.0),
            update(0, 2, 0.9),
            update(1, 2, 0.95),
            update(2, 3, 0.7),
            update(3, 4, 1.2),
            update(0, 3, 0.5),
        ];
        for u in updates {
            engine.apply_update(u);
        }
        engine
    }

    #[test]
    fn increase_shrinks_the_dense_set() {
        let mut engine = sample_engine(0.8);
        let before = engine.dense_count();
        let out_before = engine.output_dense_count();
        let events = engine.set_output_threshold(1.0);
        engine.validate().unwrap();
        assert!(engine.dense_count() <= before);
        assert!(engine.output_dense_count() <= out_before);
        assert!(events.iter().all(|e| !e.is_became()));
        assert!((engine.thresholds().output_threshold() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decrease_matches_recompute_from_scratch() {
        let mut engine = sample_engine(1.0);
        let events = engine.set_output_threshold(0.7);
        engine.validate().unwrap();
        assert!(events.iter().all(|e| e.is_became()));

        // Reference: a fresh engine built directly at the lower threshold by
        // replaying all final edge weights (DynDensRecompute).
        let config = DynDensConfig::new(0.7, 4).with_delta_it_fraction(0.3);
        let mut reference = DynDens::new(AvgWeight, config);
        let edges: Vec<(VertexId, VertexId, f64)> = engine.graph().edges().collect();
        for (u, v, w) in edges {
            reference.apply_update(EdgeUpdate::new(u, v, w));
        }
        let mut got: Vec<VertexSet> = engine
            .output_dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let mut want: Vec<VertexSet> = reference
            .output_dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn round_trip_returns_to_original_set() {
        let mut engine = sample_engine(0.9);
        let mut original: Vec<VertexSet> = engine
            .output_dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        original.sort();
        engine.set_output_threshold(0.7);
        engine.set_output_threshold(0.9);
        engine.validate().unwrap();
        let mut after: Vec<VertexSet> = engine
            .output_dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        after.sort();
        // Lower-then-raise may leave extra *dense-but-not-output* subgraphs in
        // the index, but the reported output-dense set must be identical.
        assert_eq!(original, after);
    }

    #[test]
    fn no_op_threshold_change() {
        let mut engine = sample_engine(0.9);
        let before = engine.dense_count();
        let events = engine.set_output_threshold(0.9);
        assert!(events.is_empty());
        assert_eq!(engine.dense_count(), before);
    }

    #[test]
    fn events_report_threshold_crossings() {
        let mut engine = sample_engine(1.0);
        // {3,4} has weight 1.2 and is output-dense at T=1; {0,1} has weight
        // 1.0, also output-dense. Raising the threshold to 1.1 keeps only {3,4}.
        let events = engine.set_output_threshold(1.1);
        let lost: Vec<&VertexSet> = events.iter().map(|e| e.vertices()).collect();
        assert!(lost.contains(&&VertexSet::from_ids(&[0, 1])));
        assert!(!lost.contains(&&VertexSet::from_ids(&[3, 4])));
        // Lowering back reports {0,1} again.
        let events = engine.set_output_threshold(1.0);
        assert!(events
            .iter()
            .any(|e| e.is_became() && e.vertices() == &VertexSet::from_ids(&[0, 1])));
    }
}
