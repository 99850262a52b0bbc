//! The `TopKPeeling` maintenance backend: fully-dynamic top-k densest
//! subgraph maintenance in the style of Nasir et al. (PAPERS.md), behind the
//! [`MaintenanceEngine`] seam.
//!
//! The engine keeps only the weighted graph during ingest (`O(1)` per
//! update) and answers reads by **greedy peeling**: per connected component,
//! repeatedly remove the vertex of minimum weighted degree, score every
//! suffix of the peeling order with cardinality in `2..=Nmax`, and extract
//! the densest suffix if it clears the output threshold — then remove its
//! vertices and repeat, up to `k` extractions per component. This is the
//! classic 2-approximation charging argument applied top-k-wise; against the
//! exact DynDens referee the extracted family is a *subset* of the exact
//! output-dense family (every extracted set has density `>= T` and
//! cardinality `<= Nmax`), so the oracle's top-k density-ratio quality
//! metric is at most 1 and the backend is gated on a declared lower bound
//! instead of bit-exactness.
//!
//! ## Determinism
//!
//! Every floating-point accumulation is canonically ordered so answers are
//! a pure function of the applied update sequence (the seam's contract, and
//! what makes a sharded deployment bit-identical to a single engine under
//! partition-aligned workloads):
//!
//! * components are discovered in ascending minimum-vertex order and peeled
//!   independently — a partition-aligned shard split never splits a
//!   component, so per-component answers survive sharding unchanged;
//! * weighted degrees are summed over the component's members in ascending
//!   vertex order (never in adjacency-map iteration order);
//! * ties in the peel choice break toward the smaller vertex id, and suffix
//!   scores come from [`DynamicGraph::score`]'s canonical summation.

use dyndens_core::{
    encode_config_params, DenseEvent, DynDensConfig, EngineBlueprint, EngineStats, GraphSize,
    MaintenanceEngine, SnapshotError,
};
use dyndens_density::{score_meets, DensityMeasure};
use dyndens_graph::codec::{crc32, put_f64, put_u32, put_u64, verify_crc_trailer, ByteReader};
use dyndens_graph::{DynamicGraph, EdgeUpdate, FxHashMap, VertexId, VertexSet};

/// Snapshot magic for [`TopKPeelingEngine`] checkpoints (`"DDTK"`).
pub const TOPK_SNAPSHOT_MAGIC: [u8; 4] = *b"DDTK";
const TOPK_SNAPSHOT_VERSION: u32 = 1;

/// The read-time greedy-peeling backend (kind `"topk-peeling"`).
///
/// One shard's worth of state: the live weighted graph plus a peeled-answer
/// cache keyed by an update version. See the [module docs](self) for the
/// extraction rule and determinism argument.
#[derive(Debug, Clone)]
pub struct TopKPeelingEngine<D: DensityMeasure> {
    measure: D,
    config: DynDensConfig,
    k: usize,
    graph: DynamicGraph,
    stats: EngineStats,
    version: u64,
    cache: Option<(u64, Vec<(VertexSet, f64)>)>,
}

impl<D: DensityMeasure> TopKPeelingEngine<D> {
    fn empty(measure: D, config: DynDensConfig, k: usize) -> Self {
        TopKPeelingEngine {
            measure,
            config,
            k: k.max(1),
            graph: DynamicGraph::new(),
            stats: EngineStats::default(),
            version: 0,
            cache: None,
        }
    }

    /// Connected components over positive-weight edges, each sorted
    /// ascending, in ascending minimum-vertex order.
    fn components(&self) -> Vec<Vec<VertexId>> {
        let n = self.graph.vertex_count();
        let mut visited = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let v = VertexId(start as u32);
            if !self.graph.neighbors(v).any(|(_, w)| w > 0.0) {
                continue;
            }
            let mut component = vec![v];
            let mut stack = vec![v];
            visited[start] = true;
            while let Some(u) = stack.pop() {
                for (next, w) in self.graph.neighbors(u) {
                    if w > 0.0 && !visited[next.index()] {
                        visited[next.index()] = true;
                        component.push(next);
                        stack.push(next);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// Greedily peels one component, extracting up to `k` output-dense
    /// suffixes. `members` must be sorted ascending.
    fn peel_component(&self, mut members: Vec<VertexId>, out: &mut Vec<(VertexSet, f64)>) {
        for _round in 0..self.k {
            if members.len() < 2 {
                return;
            }
            let Some((set, score)) = self.densest_suffix(&members) else {
                return;
            };
            out.push((set.clone(), score));
            members.retain(|v| !set.contains(*v));
        }
    }

    /// Runs one peeling pass over `members` (sorted ascending) and returns
    /// the densest suffix with cardinality in `2..=Nmax` that clears the
    /// output threshold, with its canonical score.
    fn densest_suffix(&self, members: &[VertexId]) -> Option<(VertexSet, f64)> {
        // Canonical weighted degrees: summed over members in ascending order.
        let mut degree: FxHashMap<VertexId, f64> = FxHashMap::default();
        for &u in members {
            let mut d = 0.0;
            for &v in members {
                if v != u {
                    d += self.graph.weight(u, v);
                }
            }
            degree.insert(u, d);
        }
        let mut working: Vec<VertexId> = members.to_vec();
        let mut best: Option<(VertexSet, f64, f64)> = None;
        loop {
            if working.len() <= self.config.n_max {
                let set = VertexSet::from_vertices(working.iter().copied());
                let score = self.graph.score(&set);
                let density = self.measure.density(score, set.len());
                let better = match &best {
                    Some((_, _, best_density)) => density > *best_density,
                    None => true,
                };
                if better {
                    best = Some((set, score, density));
                }
            }
            if working.len() <= 2 {
                break;
            }
            // Min weighted degree, ties toward the smaller id: `working`
            // stays ascending, so a strict `<` scan keeps the first minimum.
            let (peel_idx, _) = working
                .iter()
                .enumerate()
                .fold(None::<(usize, f64)>, |acc, (i, v)| {
                    let d = degree[v];
                    match acc {
                        Some((_, min)) if d >= min => acc,
                        _ => Some((i, d)),
                    }
                })
                .expect("working set is non-empty");
            let peeled = working.remove(peel_idx);
            for &v in &working {
                let w = self.graph.weight(peeled, v);
                if w != 0.0 {
                    *degree.get_mut(&v).expect("degree map covers members") -= w;
                }
            }
        }
        let (set, score, _) = best?;
        // Score-space acceptance, identical to DynDens's output-dense test:
        // every extracted set is therefore a member of the exact referee's
        // output family, which caps the oracle's quality ratio at 1.
        let bound = self.measure.s(set.len()) * self.config.threshold;
        score_meets(score, bound).then_some((set, score))
    }

    /// The cached peeled answer, recomputed when updates have arrived since
    /// the last read.
    fn answer(&mut self) -> &Vec<(VertexSet, f64)> {
        let fresh = self.cache.as_ref().map(|(v, _)| *v) != Some(self.version);
        if fresh {
            let mut out = Vec::new();
            for component in self.components() {
                self.peel_component(component, &mut out);
            }
            self.cache = Some((self.version, out));
        }
        &self.cache.as_ref().expect("cache filled above").1
    }
}

impl<D: DensityMeasure> MaintenanceEngine for TopKPeelingEngine<D> {
    fn apply_update_into(&mut self, update: EdgeUpdate, _events: &mut Vec<DenseEvent>) {
        self.graph.apply_update(&update);
        self.version += 1;
        self.stats.updates += 1;
        if update.is_positive() {
            self.stats.positive_updates += 1;
        } else {
            self.stats.negative_updates += 1;
        }
    }

    fn output_dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        // Like `DynDens`, the output family carries *densities*; the
        // internal family below carries raw scores.
        let measure = self.measure.clone();
        self.answer()
            .iter()
            .map(|(set, score)| (set.clone(), measure.density(*score, set.len())))
            .collect()
    }

    fn dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        self.answer().clone()
    }

    fn validate(&mut self) -> Result<(), String> {
        let answer = self.answer().clone();
        let mut claimed = VertexSet::new();
        for (set, score) in &answer {
            if set.len() < 2 || set.len() > self.config.n_max {
                return Err(format!("extracted set of cardinality {}", set.len()));
            }
            let canonical = self.graph.score(set);
            if canonical.to_bits() != score.to_bits() {
                return Err(format!(
                    "stored score {score} disagrees with canonical score {canonical}"
                ));
            }
            let bound = self.measure.s(set.len()) * self.config.threshold;
            if !score_meets(*score, bound) {
                return Err(format!(
                    "extracted set has score {score} below bound {bound}"
                ));
            }
            for v in set.iter() {
                if !claimed.insert(v) {
                    return Err(format!("vertex {} extracted twice", v.0));
                }
            }
        }
        Ok(())
    }

    fn graph_size(&self) -> GraphSize {
        GraphSize::of(&self.graph)
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn adopt_stats(&mut self, stats: EngineStats) {
        self.stats = stats;
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.graph.edge_count() * 16);
        buf.extend_from_slice(&TOPK_SNAPSHOT_MAGIC);
        put_u32(&mut buf, TOPK_SNAPSHOT_VERSION);
        put_u64(&mut buf, self.graph.vertex_count() as u64);
        self.stats.encode_into(&mut buf);
        put_u64(&mut buf, self.graph.edge_count() as u64);
        // `edges()` is ascending in (a, b) by construction.
        for (a, b, w) in self.graph.edges() {
            put_u32(&mut buf, a.0);
            put_u32(&mut buf, b.0);
            put_f64(&mut buf, w);
        }
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    fn partition_by(&self, keep: &mut dyn FnMut(VertexId) -> bool) -> (Self, Self) {
        let mut kept = TopKPeelingEngine::empty(self.measure.clone(), self.config.clone(), self.k);
        let mut other = TopKPeelingEngine::empty(self.measure.clone(), self.config.clone(), self.k);
        for (a, b, w) in self.graph.edges() {
            let child = if keep(a.min(b)) {
                &mut kept
            } else {
                &mut other
            };
            child.graph.set_weight(a, b, w);
        }
        (kept, other)
    }

    fn absorb(&mut self, other: Self) {
        for (a, b, w) in other.graph.edges() {
            self.graph.set_weight(a, b, w);
        }
        self.stats.merge(&other.stats);
        self.version += other.version + 1;
        self.cache = None;
    }

    fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        self.graph.edges_below(min_weight)
    }
}

/// [`EngineBlueprint`] for [`TopKPeelingEngine`]: density measure, engine
/// configuration (threshold and `Nmax` bound the extraction rule) and the
/// per-component extraction budget `k`.
#[derive(Debug, Clone)]
pub struct TopKPeelingBlueprint<D: DensityMeasure> {
    measure: D,
    config: DynDensConfig,
    k: usize,
}

impl<D: DensityMeasure> TopKPeelingBlueprint<D> {
    /// A blueprint building [`TopKPeelingEngine`]s over `measure` with
    /// `config`, extracting up to `k` subgraphs per connected component
    /// (clamped to at least 1).
    pub fn new(measure: D, config: DynDensConfig, k: usize) -> Self {
        TopKPeelingBlueprint {
            measure,
            config,
            k: k.max(1),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynDensConfig {
        &self.config
    }

    /// The per-component extraction budget.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<D: DensityMeasure> EngineBlueprint for TopKPeelingBlueprint<D> {
    type Engine = TopKPeelingEngine<D>;

    fn kind(&self) -> &'static str {
        "topk-peeling"
    }

    fn measure_name(&self) -> &'static str {
        self.measure.name()
    }

    fn params(&self) -> Vec<u8> {
        let mut out = encode_config_params(&self.config);
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out
    }

    fn fresh(&self) -> TopKPeelingEngine<D> {
        TopKPeelingEngine::empty(self.measure.clone(), self.config.clone(), self.k)
    }

    fn restore(&self, bytes: &[u8]) -> Result<TopKPeelingEngine<D>, SnapshotError> {
        let payload = verify_crc_trailer(bytes)?;
        let mut r = ByteReader::new(payload);
        if r.take(4)? != TOPK_SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != TOPK_SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut engine = self.fresh();
        let vertices = r.u64()? as usize;
        if vertices > 0 {
            engine.graph.ensure_vertex(VertexId(vertices as u32 - 1));
        }
        engine.stats = EngineStats::decode(&mut r)?;
        let n = r.u64()? as usize;
        for _ in 0..n {
            let a = VertexId(r.u32()?);
            let b = VertexId(r.u32()?);
            let w = r.f64()?;
            engine.graph.set_weight(a, b, w);
        }
        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes after edge list"));
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.25)
    }

    fn blueprint() -> TopKPeelingBlueprint<AvgWeight> {
        TopKPeelingBlueprint::new(AvgWeight, config(), 4)
    }

    /// Two strong triangles in one component joined by a weak bridge, plus
    /// an isolated strong pair in another component.
    fn workload() -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        for base in [0u32, 10u32] {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                updates.push(update(base + a, base + b, 1.25));
            }
        }
        updates.push(update(2, 10, 0.125));
        updates.push(update(20, 21, 1.375));
        updates
    }

    fn drive(engine: &mut TopKPeelingEngine<AvgWeight>, updates: &[EdgeUpdate]) {
        let mut sink = Vec::new();
        for u in updates {
            engine.apply_update_into(*u, &mut sink);
        }
    }

    fn sorted(mut sets: Vec<(VertexSet, f64)>) -> Vec<(Vec<u32>, u64)> {
        sets.sort_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        sets.into_iter()
            .map(|(s, score)| (s.iter().map(|v| v.0).collect(), score.to_bits()))
            .collect()
    }

    #[test]
    fn extracts_disjoint_dense_suffixes_per_component() {
        let mut engine = blueprint().fresh();
        drive(&mut engine, &workload());
        let answer = engine.output_dense_subgraphs();
        engine.validate().unwrap();
        // Both triangles and the isolated pair are found despite sharing a
        // component (the bridge is too weak to merge the triangles' density).
        let sets: Vec<Vec<u32>> = sorted(answer).into_iter().map(|(s, _)| s).collect();
        assert!(sets.contains(&vec![0, 1, 2]));
        assert!(sets.contains(&vec![10, 11, 12]));
        assert!(sets.contains(&vec![20, 21]));
    }

    #[test]
    fn answers_are_a_pure_function_of_the_update_sequence() {
        let mut a = blueprint().fresh();
        let mut b = blueprint().fresh();
        drive(&mut a, &workload());
        // Read mid-stream on one engine only: the caches diverge but the
        // final answers may not.
        let updates = workload();
        drive(&mut b, &updates[..4]);
        let _ = b.output_dense_subgraphs();
        drive(&mut b, &updates[4..]);
        assert_eq!(
            sorted(a.output_dense_subgraphs()),
            sorted(b.output_dense_subgraphs())
        );
    }

    #[test]
    fn snapshot_round_trips_byte_stably() {
        let mut engine = blueprint().fresh();
        drive(&mut engine, &workload());
        let bytes = engine.snapshot();
        let mut restored = blueprint().restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        assert_eq!(
            sorted(restored.output_dense_subgraphs()),
            sorted(engine.output_dense_subgraphs())
        );
        assert_eq!(restored.stats().updates, engine.stats().updates);
    }

    #[test]
    fn partition_union_matches_single_engine() {
        let mut whole = blueprint().fresh();
        drive(&mut whole, &workload());
        // The bridge edge (2, 10) follows its minimum vertex into the kept
        // child; splitting at 20 keeps components intact.
        let (mut kept, mut other) = whole.partition_by(&mut |v| v.0 < 20);
        let mut union = kept.output_dense_subgraphs();
        union.extend(other.output_dense_subgraphs());
        assert_eq!(sorted(union), sorted(whole.output_dense_subgraphs()));
        kept.absorb(other);
        assert_eq!(
            sorted(kept.output_dense_subgraphs()),
            sorted(whole.output_dense_subgraphs())
        );
    }

    #[test]
    fn eviction_removes_decayed_bridges() {
        let mut engine = blueprint().fresh();
        drive(&mut engine, &workload());
        let victims = engine.edges_below(0.2);
        assert_eq!(victims.len(), 1);
        drive(&mut engine, &victims);
        assert!(engine.edges_below(0.2).is_empty());
        engine.validate().unwrap();
    }
}
