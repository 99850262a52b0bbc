//! What the engine's callers share: the order stories are published in
//! ([`story_order`]) and the fingerprint of an engine configuration that a
//! persistent deployment pins in its MANIFEST ([`encode_config_params`]).

use std::cmp::Ordering;

use dyndens_graph::codec::{put_f64, put_u64, put_u8};
use dyndens_graph::VertexSet;

use crate::config::{DeltaIt, DynDensConfig};

/// The order stories are published in: densest first, ties broken by vertex
/// set (ascending) so that snapshots are deterministic. This is the only
/// definition; the engine's top-k, per-shard publication and the merged
/// view go through it. `K` is the vertex set or anything that orders like
/// it ([`SubgraphIndex::path_key`](crate::SubgraphIndex::path_key)).
pub fn story_order<K: Ord>(a: (&K, f64), b: (&K, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.0.cmp(b.0))
}

/// Sorts stories into [`story_order`].
pub fn sort_stories(stories: &mut [(VertexSet, f64)]) {
    stories.sort_unstable_by(|a, b| story_order((&a.0, a.1), (&b.0, b.1)));
}

/// The reference definition of
/// [`DynDens::top_stories`](crate::DynDens::top_stories): all of
/// `stories` sorted into [`story_order`] and cut to the first `k`, beside
/// how many there were.
pub fn top_of(mut stories: Vec<(VertexSet, f64)>, k: usize) -> (Vec<(VertexSet, f64)>, usize) {
    let total = stories.len();
    sort_stories(&mut stories);
    stories.truncate(k);
    (stories, total)
}

/// `delta_it` mode tags in [`encode_config_params`].
pub(crate) const DELTA_IT_ABSOLUTE: u8 = 0;
pub(crate) const DELTA_IT_FRACTION: u8 = 1;
/// Optimisation flag bits in [`encode_config_params`].
pub(crate) const FLAG_IMPLICIT_TOO_DENSE: u8 = 1 << 0;
pub(crate) const FLAG_MAX_EXPLORE: u8 = 1 << 1;
pub(crate) const FLAG_DEGREE_PRIORITIZE: u8 = 1 << 2;

/// Encodes the answer-relevant fields of a [`DynDensConfig`] as a canonical
/// byte fingerprint (threshold bits, `Nmax`, `delta_it` mode + value bits,
/// optimisation flags). A persistent deployment pins it in its MANIFEST, so
/// a directory never reopens under a configuration that would change what
/// "dense" means; an engine snapshot opens with it.
pub fn encode_config_params(config: &DynDensConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 1 + 8 + 1);
    put_f64(&mut out, config.threshold);
    put_u64(&mut out, config.n_max as u64);
    let (tag, value) = match config.delta_it {
        DeltaIt::Absolute(v) => (DELTA_IT_ABSOLUTE, v),
        DeltaIt::FractionOfMax(v) => (DELTA_IT_FRACTION, v),
    };
    put_u8(&mut out, tag);
    put_f64(&mut out, value);
    let flags = (u8::from(config.implicit_too_dense) * FLAG_IMPLICIT_TOO_DENSE)
        | (u8::from(config.max_explore) * FLAG_MAX_EXPLORE)
        | (u8::from(config.degree_prioritize) * FLAG_DEGREE_PRIORITIZE);
    put_u8(&mut out, flags);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_params_fingerprint_answer_relevant_fields() {
        let base = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        assert_eq!(
            encode_config_params(&base),
            encode_config_params(&base.clone())
        );
        for bent in [
            DynDensConfig::new(1.1, 4).with_delta_it(0.15),
            DynDensConfig::new(1.0, 5).with_delta_it(0.15),
            DynDensConfig::new(1.0, 4).with_delta_it(0.2),
            DynDensConfig::new(1.0, 4).with_delta_it_fraction(0.15),
            DynDensConfig::plain(1.0, 4).with_delta_it(0.15),
        ] {
            assert_ne!(encode_config_params(&base), encode_config_params(&bent));
        }
    }
}
