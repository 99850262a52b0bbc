//! Dynamic threshold adjustment at runtime (Section 6, Algorithms 3 and 4).
//!
//! Engagement assumes the output threshold `T` is chosen so that the number of
//! output-dense subgraphs stays meaningful. When stream characteristics drift,
//! `T` must be adjusted: raising it is a simple index scan, lowering it
//! requires exploring around every maintained subgraph (and re-checking every
//! edge of the graph), but both are far cheaper than recomputing the index
//! from scratch by replaying every edge weight as an update.
//!
//! Under ImplicitTooDense a raise also shrinks the coverage band of every
//! `*` marker: its base covers fewer cardinalities, or none once it stops
//! being too-dense. The raise repairs each shrunken band with the code a
//! negative update runs on a base whose score dropped
//! (`DynDens::repair_star`): supersets that leave the band but stay dense
//! are stored (and reported when output-dense), and a base that is no
//! longer too-dense loses its marker. A lowering explores a `*` base's
//! extensions by a disjoint edge, as an update's exploration does.
//! Subgraphs enter the index only through `DynDens::admit`, as they do for
//! updates, and are counted in the ledger the same way.

use dyndens_density::DensityMeasure;
use dyndens_graph::{VertexId, VertexSet};

use crate::engine::DynDens;
use crate::events::DenseEvent;
use crate::index::NodeId;

/// A stored subgraph as it stood under the thresholds in force before a
/// change.
struct Before {
    id: NodeId,
    card: usize,
    score: f64,
    was_output: bool,
    /// The coverage radius of its `*` marker; `card` when it has none.
    radius: usize,
}

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
        let old_threshold = self.thresholds.output_threshold();
        if (new_threshold - old_threshold).abs() < f64::EPSILON {
            return events;
        }
        self.epoch += 1;
        // Classify every stored subgraph under the old thresholds before
        // switching.
        let before: Vec<Before> = self
            .index
            .all_subgraphs()
            .into_iter()
            .map(|id| {
                let (card, score) = (self.index.cardinality(id), self.index.score(id));
                let radius = if self.index.has_star(id) {
                    self.coverage_radius(score, card)
                } else {
                    card
                };
                let was_output = self.thresholds.is_output_dense(score, card);
                Before {
                    id,
                    card,
                    score,
                    was_output,
                    radius,
                }
            })
            .collect();

        self.thresholds.set_output_threshold(new_threshold);

        if new_threshold > old_threshold {
            self.increase_threshold(before, &mut events);
        } else {
            self.decrease_threshold(before, &mut events);
        }
        events
    }

    /// Algorithm 3, lines 2-4: a threshold increase can only shrink the dense
    /// set, so a single scan over the index suffices. A `*` base is repaired
    /// first, by the code that repairs one whose score dropped.
    fn increase_threshold(&mut self, before: Vec<Before>, events: &mut Vec<DenseEvent>) {
        for Before {
            id,
            card,
            score,
            was_output,
            radius,
        } in before
        {
            if self.index.has_star(id) {
                self.repair_star(id, card, score, radius, events);
            }
            if was_output && !self.thresholds.is_output_dense(score, card) {
                events.push(DenseEvent::NoLongerOutputDense {
                    vertices: self.index.vertices(id),
                    density: self.thresholds.measure().density(score, card),
                });
            }
            if !self.thresholds.is_dense(score, card) {
                self.index.remove(id);
                self.stats.subgraphs_evicted += 1;
            }
        }
    }

    /// Algorithm 3, lines 5-9: a threshold decrease can surface previously
    /// sparse subgraphs. Every edge is re-examined as a base case, and every
    /// previously dense subgraph is explored with [`Self::update_explore`]
    /// (Algorithm 4).
    fn decrease_threshold(&mut self, before: Vec<Before>, events: &mut Vec<DenseEvent>) {
        // Previously stored subgraphs that cross the output threshold are
        // reported; they stay in the index either way.
        for b in &before {
            if !b.was_output && self.thresholds.is_output_dense(b.score, b.card) {
                events.push(DenseEvent::BecameOutputDense {
                    vertices: self.index.vertices(b.id),
                    density: self.thresholds.measure().density(b.score, b.card),
                });
            }
        }

        // Base case (Algorithm 3, lines 6-7): every edge of the graph may now
        // be a dense 2-subgraph. By index, not by borrow: admitting needs
        // `self`, and changes no edge.
        let n_edges = self.scratch.edges(&self.graph).len();
        for i in 0..n_edges {
            let (u, v, w) = self.scratch.edges(&self.graph)[i];
            if self.thresholds.is_dense(w, 2) && self.index.find(&[u, v]).is_none() {
                self.admit(&[u, v], w, 0, true, events);
            }
        }

        // Explore around every previously dense subgraph (Algorithm 3,
        // lines 8-9). Newly inserted subgraphs are explored recursively inside
        // `update_explore`.
        let old_dense: Vec<(VertexSet, f64)> = before
            .iter()
            .map(|b| (self.index.vertices(b.id), b.score))
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
        if card >= self.thresholds.n_max() {
            return;
        }
        let too_dense = self.thresholds.is_too_dense(score, card);
        let ext_card = card + 1;

        if too_dense && self.config.implicit_too_dense {
            if let Some(id) = self.index.find(verts.as_slice()) {
                if !self.index.has_star(id) {
                    self.index.set_star(id, true);
                    self.stats.star_markers_created += 1;
                }
            }
        }

        // Candidates in ascending vertex order: the neighbours, or under
        // explore-all (Algorithm 4, lines 2-5) every vertex.
        let mut gamma = self.scratch.columns.take();
        let mut candidates = self.scratch.verts.take();
        self.graph.neighborhood_into(verts.as_slice(), &mut gamma);
        if too_dense && !self.config.implicit_too_dense {
            candidates.extend((0..self.graph.vertex_count() as u32).map(VertexId));
        } else {
            gamma.sort_candidates();
            candidates.extend_from_slice(gamma.candidates());
        }

        for &y in &candidates {
            let ext_score = score + gamma.get(y);
            // A member's NaN is never dense.
            if !self.thresholds.is_dense(ext_score, ext_card) {
                continue;
            }
            let ext = verts.with(y);
            if self.index.find(ext.as_slice()).is_none() {
                self.admit(ext.as_slice(), ext_score, 0, true, events);
                self.update_explore(&ext, ext_score, events);
            }
        }
        // "Exploring C ∪ {*}", as `explore` does: the marker's covered
        // `C ∪ {y}` has no node for this loop to start from, so the
        // extensions `C ∪ {y, z}` by an edge disjoint from `C` (its members
        // read NaN) are tried here. By index, not by borrow: the recursion
        // needs `self`, and changes no edge.
        if too_dense && self.config.implicit_too_dense && card + 2 <= self.thresholds.n_max() {
            let n_edges = self.scratch.edges(&self.graph).len();
            for i in 0..n_edges {
                let (y, z, w) = self.scratch.edges(&self.graph)[i];
                let ext_score = score + gamma.get(y) + gamma.get(z) + w;
                if !self.thresholds.is_dense(ext_score, card + 2) {
                    continue;
                }
                let ext = verts.with(y).with(z);
                if self.index.find(ext.as_slice()).is_none() {
                    self.admit(ext.as_slice(), ext_score, 0, true, events);
                    self.update_explore(&ext, ext_score, events);
                }
            }
        }
        self.scratch.verts.give(candidates);
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

    fn output_sets(engine: &DynDens<AvgWeight>) -> Vec<VertexSet> {
        let mut sets: Vec<VertexSet> = engine
            .output_dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        sets.sort();
        sets
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
        assert_eq!(output_sets(&engine), output_sets(&reference));
    }

    #[test]
    fn round_trip_returns_to_original_set() {
        let mut engine = sample_engine(0.9);
        let original = output_sets(&engine);
        engine.set_output_threshold(0.7);
        engine.set_output_threshold(0.9);
        engine.validate().unwrap();
        // Lower-then-raise may leave extra *dense-but-not-output* subgraphs in
        // the index, but the reported output-dense set must be identical.
        assert_eq!(original, output_sets(&engine));
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

    #[test]
    fn raise_materialises_what_a_shrunken_star_band_stops_covering() {
        // T = 1, Nmax = 4, delta_it = 0.15: dense score bounds 0.8, 2.85 and
        // 6.0 for cardinalities 2, 3 and 4. {0,1} = 6.5 is too-dense and
        // covers both; {0,1,2,3} = 7.7 is dense through that coverage alone.
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::with_vertex_capacity(AvgWeight, config, 6);
        engine.apply_update(update(0, 1, 6.5));
        engine.apply_update(update(2, 3, 1.2));
        let whole = VertexSet::from_ids(&[0, 1, 2, 3]);
        assert!(engine.index().find(whole.as_slice()).is_none());
        assert!(engine.covered_by_star(&whole));
        let inserted = engine.stats().subgraphs_inserted;

        // T = 1.2 scales every bound by 1.2: 3.42 for card 3, 7.2 for card
        // 4. {0,1} stays too-dense but covers card 3 only, and {0,1,2,3} is
        // output-dense (7.7 / 6 >= 1.2) in its own right.
        let events = engine.set_output_threshold(1.2);
        engine.validate().unwrap();
        let base = engine.index().find(&[VertexId(0), VertexId(1)]).unwrap();
        assert!(engine.index().has_star(base), "the base stays too-dense");
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4])));
        assert!(!engine.covered_by_star(&whole));
        assert!(engine.index().find(whole.as_slice()).is_some());
        assert!(events
            .iter()
            .any(|e| e.is_became() && e.vertices() == &whole));
        assert_eq!(engine.stats().subgraphs_inserted, inserted + 1);
    }

    #[test]
    fn absorb_then_threshold_change_sees_the_absorbed_edges() {
        // {1,3} = 0.5 is sparse at T = 1 and at T = 0.9 and dense at T = 0.5
        // (pair bounds 0.8, 0.72, 0.4).
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut whole = DynDens::new(AvgWeight, config);
        for u in [update(0, 2, 1.25), update(1, 3, 0.5)] {
            whole.apply_update(u);
        }
        let (mut zero, mut one) = whole.partition_by(|v| v.index() % 2 == 0);
        // Each side lists its own edges on the way down to 0.9; the merged
        // engine must not keep the even side's list.
        for engine in [&mut whole, &mut zero, &mut one] {
            engine.set_output_threshold(0.9);
        }
        zero.absorb(one);
        whole.set_output_threshold(0.5);
        zero.set_output_threshold(0.5);
        zero.validate().unwrap();
        assert!(zero.is_tracked_dense(&VertexSet::from_ids(&[1, 3])));
        assert_eq!(output_sets(&zero), output_sets(&whole));
    }
}
