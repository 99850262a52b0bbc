//! Events reported by the engine and cumulative processing statistics.

use dyndens_graph::codec::{put_f64, put_u64, put_u8, ByteReader, CodecError};
use dyndens_graph::VertexSet;

/// A change in the reported set of output-dense subgraphs, produced while
/// processing an edge weight update or a threshold adjustment.
///
/// Events refer to **explicitly materialised** subgraphs. Supergraphs of
/// too-dense subgraphs that are only represented implicitly through the
/// `ImplicitTooDense` optimisation (Section 3.2.3) do not generate events;
/// this mirrors the accounting used in the paper's evaluation (Table 2
/// "excluding output-dense subgraphs that are not represented in the index").
#[derive(Debug, Clone, PartialEq)]
pub enum DenseEvent {
    /// The subgraph's density rose to (or above) the output threshold `T`.
    BecameOutputDense {
        /// The vertices of the subgraph.
        vertices: VertexSet,
        /// Its density after the update.
        density: f64,
    },
    /// The subgraph's density fell below the output threshold `T`.
    NoLongerOutputDense {
        /// The vertices of the subgraph.
        vertices: VertexSet,
        /// Its density after the update.
        density: f64,
    },
}

impl DenseEvent {
    /// The vertex set the event refers to.
    pub fn vertices(&self) -> &VertexSet {
        match self {
            DenseEvent::BecameOutputDense { vertices, .. }
            | DenseEvent::NoLongerOutputDense { vertices, .. } => vertices,
        }
    }

    /// `true` for [`DenseEvent::BecameOutputDense`].
    pub fn is_became(&self) -> bool {
        matches!(self, DenseEvent::BecameOutputDense { .. })
    }

    /// The subgraph's density after the update that produced the event.
    pub fn density(&self) -> f64 {
        match self {
            DenseEvent::BecameOutputDense { density, .. }
            | DenseEvent::NoLongerOutputDense { density, .. } => *density,
        }
    }

    /// Appends the canonical wire encoding used by the serving protocol:
    /// `kind u8 (0 = became, 1 = no-longer) | vertex set | density f64`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u8(buf, if self.is_became() { 0 } else { 1 });
        self.vertices().encode_into(buf);
        put_f64(buf, self.density());
    }

    /// Decodes one event, rejecting unknown kinds, non-canonical vertex sets
    /// and non-finite densities (engine densities are always finite).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<DenseEvent, CodecError> {
        let kind = r.u8()?;
        let vertices = VertexSet::decode(r)?;
        let density = r.f64()?;
        if !density.is_finite() {
            return Err(CodecError::Invalid("dense event density is not finite"));
        }
        match kind {
            0 => Ok(DenseEvent::BecameOutputDense { vertices, density }),
            1 => Ok(DenseEvent::NoLongerOutputDense { vertices, density }),
            _ => Err(CodecError::Invalid("unknown dense event kind")),
        }
    }
}

/// Cumulative counters describing the work performed by a [`DynDens`]
/// engine instance. Useful for the paper's cost analysis (Section 4.2) and
/// for the benchmark harness.
///
/// [`DynDens`]: crate::DynDens
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total number of updates processed.
    pub updates: u64,
    /// Number of positive updates processed.
    pub positive_updates: u64,
    /// Number of negative updates processed.
    pub negative_updates: u64,
    /// Number of `explore` invocations (Algorithm 2).
    pub explorations: u64,
    /// Number of cheap explorations performed (Algorithm 1, line 6).
    pub cheap_explorations: u64,
    /// Number of candidate subgraphs whose density was evaluated.
    pub candidates_examined: u64,
    /// Number of newly-dense subgraphs inserted into the index.
    pub subgraphs_inserted: u64,
    /// Number of losing-dense subgraphs evicted from the index.
    pub subgraphs_evicted: u64,
    /// Number of explore-all expansions performed (only when the
    /// `ImplicitTooDense` optimisation is disabled).
    pub explore_all_invocations: u64,
    /// Number of `*` (implicit too-dense) markers created.
    pub star_markers_created: u64,
    /// Number of `*` markers removed.
    pub star_markers_removed: u64,
    /// Number of explorations skipped by the MaxExplore heuristic.
    pub max_explore_skips: u64,
    /// Number of candidates skipped by the DegreePrioritize heuristic.
    pub degree_prioritize_skips: u64,
}

/// One row of [`EngineStats::COUNTERS`]: a counter's name, its value in a
/// ledger, and its place in one.
pub type CounterRow = (
    &'static str,
    fn(&EngineStats) -> u64,
    fn(&mut EngineStats) -> &mut u64,
);

macro_rules! counter_rows {
    ($($field:ident),* $(,)?) => {
        [$((stringify!($field), |s| s.$field, |s| &mut s.$field)),*]
    };
}

// A counter added to the struct and not to the table fails to compile here.
const _: () = assert!(std::mem::size_of::<EngineStats>() == 8 * EngineStats::COUNTERS.len());

impl EngineStats {
    /// Every counter, in wire order. This table is the only list of them
    /// beside the struct: [`merge`](Self::merge), the serving protocol's
    /// encoding, the engine snapshot's stats block and the per-shard
    /// `dyndens_engine_<name>` gauges are all loops over it. Adding a row is
    /// a wire-format change: bump the serving protocol and snapshot versions.
    pub const COUNTERS: [CounterRow; 13] = counter_rows![
        updates,
        positive_updates,
        negative_updates,
        explorations,
        cheap_explorations,
        candidates_examined,
        subgraphs_inserted,
        subgraphs_evicted,
        explore_all_invocations,
        star_markers_created,
        star_markers_removed,
        max_explore_skips,
        degree_prioritize_skips,
    ];

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = EngineStats::default();
    }

    /// Adds `other`'s counters into `self`.
    ///
    /// Every counter is a plain sum, so merging the per-shard statistics of a
    /// partitioned deployment (see the `dyndens-shard` crate) yields exactly
    /// the work ledger of the fleet as a whole.
    pub fn merge(&mut self, other: &EngineStats) {
        for (_, get, slot) in Self::COUNTERS {
            *slot(self) += get(other);
        }
    }

    /// Merges an iterator of statistics into a single ledger.
    pub fn merged<'a, I: IntoIterator<Item = &'a EngineStats>>(stats: I) -> EngineStats {
        let mut out = EngineStats::default();
        for s in stats {
            out.merge(s);
        }
        out
    }

    /// Number of counters in the wire encoding of this protocol revision.
    pub const WIRE_COUNTERS: u8 = Self::COUNTERS.len() as u8;

    /// Appends the counters as `13 × u64` in [`COUNTERS`](Self::COUNTERS)
    /// order, unprefixed: the stats block of an engine snapshot.
    pub fn put_counters(&self, buf: &mut Vec<u8>) {
        for (_, get, _) in Self::COUNTERS {
            put_u64(buf, get(self));
        }
    }

    /// Reads what [`put_counters`](Self::put_counters) wrote.
    pub fn read_counters(r: &mut ByteReader<'_>) -> Result<EngineStats, CodecError> {
        let mut stats = EngineStats::default();
        for (_, _, slot) in Self::COUNTERS {
            *slot(&mut stats) = r.u64()?;
        }
        Ok(stats)
    }

    /// Appends the canonical wire encoding used by the serving protocol:
    /// `n u8 (= 13) | n × counter u64`, counters in declaration order.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u8(buf, Self::WIRE_COUNTERS);
        self.put_counters(buf);
    }

    /// Decodes a statistics ledger, rejecting a counter count other than
    /// [`EngineStats::WIRE_COUNTERS`] (a count mismatch means the peer speaks
    /// a different protocol revision).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<EngineStats, CodecError> {
        if r.u8()? != Self::WIRE_COUNTERS {
            return Err(CodecError::Invalid("engine stats counter count mismatch"));
        }
        Self::read_counters(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let v = VertexSet::from_ids(&[1, 2, 3]);
        let e = DenseEvent::BecameOutputDense {
            vertices: v.clone(),
            density: 1.25,
        };
        assert_eq!(e.vertices(), &v);
        assert!(e.is_became());
        let e = DenseEvent::NoLongerOutputDense {
            vertices: v.clone(),
            density: 0.5,
        };
        assert!(!e.is_became());
        assert_eq!(e.vertices(), &v);
    }

    #[test]
    fn dense_event_wire_round_trip() {
        for event in [
            DenseEvent::BecameOutputDense {
                vertices: VertexSet::from_ids(&[0, 5, 9]),
                density: 1.25,
            },
            DenseEvent::NoLongerOutputDense {
                vertices: VertexSet::from_ids(&[2]),
                density: -0.5,
            },
        ] {
            let mut buf = Vec::new();
            event.encode_into(&mut buf);
            let mut r = ByteReader::new(&buf);
            let back = DenseEvent::decode(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(back, event);
        }
        // Unknown kind byte.
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        VertexSet::from_ids(&[1]).encode_into(&mut buf);
        put_f64(&mut buf, 1.0);
        assert!(matches!(
            DenseEvent::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid(_))
        ));
        // Non-finite density.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0);
        VertexSet::from_ids(&[1]).encode_into(&mut buf);
        put_f64(&mut buf, f64::NAN);
        assert!(matches!(
            DenseEvent::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn stats_wire_round_trip() {
        let stats = EngineStats {
            updates: 10,
            positive_updates: 7,
            negative_updates: 3,
            explorations: 20,
            cheap_explorations: 5,
            candidates_examined: 100,
            subgraphs_inserted: 12,
            subgraphs_evicted: 4,
            explore_all_invocations: 1,
            star_markers_created: 2,
            star_markers_removed: 1,
            max_explore_skips: 9,
            degree_prioritize_skips: 8,
        };
        let mut buf = Vec::new();
        stats.encode_into(&mut buf);
        assert_eq!(buf.len(), 1 + 13 * 8);
        let mut r = ByteReader::new(&buf);
        assert_eq!(EngineStats::decode(&mut r).unwrap(), stats);
        assert!(r.is_empty());
        // A different counter count is a protocol-revision mismatch.
        buf[0] = 12;
        assert!(matches!(
            EngineStats::decode(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn stats_reset() {
        let mut s = EngineStats {
            updates: 10,
            explorations: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, EngineStats::default());
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = EngineStats {
            updates: 10,
            positive_updates: 7,
            negative_updates: 3,
            explorations: 20,
            cheap_explorations: 5,
            candidates_examined: 100,
            subgraphs_inserted: 12,
            subgraphs_evicted: 4,
            explore_all_invocations: 1,
            star_markers_created: 2,
            star_markers_removed: 1,
            max_explore_skips: 9,
            degree_prioritize_skips: 8,
        };
        let b = EngineStats {
            updates: 1,
            candidates_examined: 11,
            ..Default::default()
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.updates, 11);
        assert_eq!(merged.candidates_examined, 111);
        assert_eq!(merged.positive_updates, 7);

        let from_iter = EngineStats::merged([&a, &b]);
        assert_eq!(from_iter, merged);
        assert_eq!(
            EngineStats::merged(std::iter::empty()),
            EngineStats::default()
        );
    }
}
