//! Property tests pinning the serve wire protocol: encode → decode must be
//! the identity for every message type (requests and responses, all
//! variants), and decoding must reject truncated payloads, trailing bytes
//! and corrupt frames without panicking — mirroring the codec round-trip
//! suite in `crates/graph/tests/codec_roundtrip.rs`.

use dyndens_core::{DenseEvent, EngineStats};
use dyndens_graph::VertexSet;
use dyndens_obs::{
    HistogramSample, HistogramSnapshot, MetricName, MetricSample, ObsEvent, ObsRecord,
    RebalanceStage, RegistrySnapshot, SpanMark, N_BUCKETS,
};
use dyndens_serve::net::FrameBuffer;
use dyndens_serve::protocol::frame_message;
use dyndens_serve::{ErrorCode, Request, Response, ServeStats, ShardPoll, ShardStat, WireStory};
use proptest::prelude::*;

fn vertex_set_strategy() -> impl Strategy<Value = VertexSet> {
    prop::collection::vec(0..50_000u32, 0..8).prop_map(|ids| VertexSet::from_ids(&ids))
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..38u8, 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0..=25 => (b'a' + c) as char,
                26..=35 => (b'0' + c - 26) as char,
                36 => ' ',
                _ => 'é', // exercise multi-byte UTF-8
            })
            .collect()
    })
}

fn density_strategy() -> impl Strategy<Value = f64> {
    (-1e9f64..1e9, 0..3u8).prop_map(|(d, scale)| match scale {
        0 => d,
        1 => d * 1e-12,
        _ => d.trunc(),
    })
}

fn event_strategy() -> impl Strategy<Value = DenseEvent> {
    (0..2u8, vertex_set_strategy(), density_strategy()).prop_map(|(kind, vertices, density)| {
        if kind == 0 {
            DenseEvent::BecameOutputDense { vertices, density }
        } else {
            DenseEvent::NoLongerOutputDense { vertices, density }
        }
    })
}

fn story_strategy() -> impl Strategy<Value = WireStory> {
    (
        vertex_set_strategy(),
        density_strategy(),
        prop::collection::vec(name_strategy(), 0..5),
    )
        .prop_map(|(vertices, density, entities)| WireStory {
            vertices,
            density,
            entities,
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0..6u8,
        0..10_000u32,
        prop::collection::vec(0..u64::MAX, 0..6),
    )
        .prop_map(|(variant, k, since)| match variant {
            0 => Request::TopK { k },
            1 => Request::Poll { since },
            2 => Request::Stats,
            3 => Request::Metrics,
            4 => Request::Subscribe { since },
            _ => Request::Unsubscribe,
        })
}

fn shard_poll_strategy() -> impl Strategy<Value = ShardPoll> {
    (
        0..2u8,
        0..64u32,
        0..1_000_000u64,
        1..1_000_000u64,
        prop::collection::vec(event_strategy(), 0..6),
        prop::collection::vec((vertex_set_strategy(), density_strategy()), 0..6),
    )
        .prop_map(|(variant, shard, from_seq, advance, events, stories)| {
            if variant == 0 {
                ShardPoll::Deltas {
                    shard,
                    from_seq,
                    to_seq: from_seq + advance,
                    events,
                }
            } else {
                ShardPoll::Resync {
                    shard,
                    seq: from_seq,
                    stories,
                }
            }
        })
}

fn stats_strategy() -> impl Strategy<Value = EngineStats> {
    (0..u64::MAX, 0..u64::MAX, 0..u64::MAX, 0..u64::MAX).prop_map(|(a, b, c, d)| EngineStats {
        updates: a,
        positive_updates: b,
        negative_updates: c,
        explorations: d,
        cheap_explorations: a ^ b,
        candidates_examined: b ^ c,
        subgraphs_inserted: c ^ d,
        subgraphs_evicted: d.rotate_left(7),
        explore_all_invocations: a.rotate_left(13),
        star_markers_created: b.wrapping_add(c),
        star_markers_removed: c.wrapping_add(d),
        max_explore_skips: a.wrapping_mul(3),
        degree_prioritize_skips: d.wrapping_mul(5),
    })
}

fn serve_stats_strategy() -> impl Strategy<Value = ServeStats> {
    (0..u64::MAX, 0..u64::MAX, 0..u64::MAX).prop_map(|(a, b, c)| ServeStats {
        requests_served: a,
        conns_accepted: b,
        conns_severed: c,
        resyncs_served: a ^ b,
        error_replies: b ^ c,
        conns_rejected: a ^ c,
        pushes_sent: a.rotate_left(11),
        slow_evictions: b.rotate_left(23),
    })
}

fn metric_name_strategy() -> impl Strategy<Value = MetricName> {
    // The codec preserves label order verbatim, so any pair list round-trips
    // (the registry always produces sorted labels, but the wire format does
    // not require it).
    (
        name_strategy(),
        prop::collection::vec((name_strategy(), name_strategy()), 0..3),
    )
        .prop_map(|(name, labels)| MetricName { name, labels })
}

fn histogram_snapshot_strategy() -> impl Strategy<Value = HistogramSnapshot> {
    // The codec demands strictly ascending bucket indexes below N_BUCKETS:
    // prefix-summing positive gaps delivers that by construction (at most
    // five gaps under 300 stays well below N_BUCKETS = 1920).
    (
        prop::collection::vec((1..300u32, 1..u64::MAX), 0..6),
        0..u64::MAX,
    )
        .prop_map(|(steps, sum)| {
            let mut index = 0u32;
            let mut buckets = Vec::with_capacity(steps.len());
            for (gap, n) in steps {
                index += gap;
                assert!((index as usize) < N_BUCKETS);
                buckets.push((index, n));
            }
            let count = buckets
                .iter()
                .fold(0u64, |acc, &(_, n)| acc.wrapping_add(n));
            HistogramSnapshot {
                count,
                sum,
                buckets,
            }
        })
}

fn obs_event_strategy() -> impl Strategy<Value = ObsEvent> {
    (0..4u8, 0..64u32, 0..u64::MAX, 0..u64::MAX, 0..2u8).prop_map(|(variant, shard, a, b, flag)| {
        let flag = flag == 1;
        let stage = match a % 3 {
            0 => RebalanceStage::Parked,
            1 => RebalanceStage::Rebuilt,
            _ => RebalanceStage::Committed,
        };
        match variant {
            0 => ObsEvent::Recovery {
                shard,
                snapshot_seq: a,
                replayed_updates: b,
                recovered_seq: a.wrapping_add(b),
                repaired_torn_tail: flag,
            },
            1 => ObsEvent::SplitPhase {
                slot: shard,
                new_slot: shard + 1,
                stage,
                parked: a,
            },
            2 => ObsEvent::MergePhase {
                slot: shard,
                freed_slot: shard + 1,
                stage,
                parked: a,
            },
            _ => ObsEvent::CompactionWindow {
                pruned_pairs: a,
                cancelled_updates: b,
                evicted_edges: a ^ b,
                reclaimed_bytes: a.rotate_left(9),
            },
        }
    })
}

fn obs_record_strategy() -> impl Strategy<Value = ObsRecord> {
    (
        0..u64::MAX,
        0..u64::MAX,
        0..u64::MAX,
        0..3u8,
        obs_event_strategy(),
    )
        .prop_map(|(seq, at_unix_ms, span, mark, event)| ObsRecord {
            seq,
            at_unix_ms,
            span,
            mark: match mark {
                0 => SpanMark::Instant,
                1 => SpanMark::Begin,
                _ => SpanMark::End,
            },
            event,
        })
}

fn registry_snapshot_strategy() -> impl Strategy<Value = RegistrySnapshot> {
    (
        prop::collection::vec((metric_name_strategy(), 0..u64::MAX), 0..4),
        prop::collection::vec((metric_name_strategy(), 0..u64::MAX), 0..4),
        prop::collection::vec(
            (metric_name_strategy(), histogram_snapshot_strategy()),
            0..3,
        ),
        prop::collection::vec(obs_record_strategy(), 0..4),
    )
        .prop_map(|(counters, gauges, histograms, events)| RegistrySnapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| MetricSample { name, value })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(name, value)| MetricSample { name, value })
                .collect(),
            histograms: histograms
                .into_iter()
                .map(|(name, hist)| HistogramSample { name, hist })
                .collect(),
            events,
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        0..8u8,
        prop::collection::vec(0..u64::MAX, 0..6),
        prop::collection::vec(story_strategy(), 0..5),
        prop::collection::vec(shard_poll_strategy(), 0..5),
        (
            stats_strategy(),
            serve_stats_strategy(),
            registry_snapshot_strategy(),
        ),
        (0..64u32, 0..u64::MAX, 0..2u8, name_strategy()),
    )
        .prop_map(
            |(
                variant,
                seqs,
                stories,
                entries,
                (stats, serve, registry),
                (shard, seq, cov, message),
            )| match variant {
                0 => Response::Stories {
                    per_shard_seq: seqs,
                    stories,
                },
                1 => Response::Poll {
                    n_shards: entries.iter().map(|e| e.shard() + 1).max().unwrap_or(1),
                    entries,
                },
                2 => Response::Stats {
                    stats,
                    serve,
                    shards: (0..shard % 5)
                        .map(|i| ShardStat {
                            shard: i,
                            seq: seq.wrapping_add(i as u64),
                            output_dense: seq.rotate_left(i),
                            delta_coverage_from: (cov == 1).then_some(seq / 2),
                        })
                        .collect(),
                },
                3 => Response::Metrics { registry },
                4 => Response::Subscribed {
                    n_shards: shard + 1,
                },
                5 => Response::Unsubscribed,
                6 => Response::Push {
                    n_shards: entries.iter().map(|e| e.shard() + 1).max().unwrap_or(1),
                    entries,
                },
                _ => Response::Error {
                    code: match shard % 6 {
                        0 => ErrorCode::UnsupportedVersion,
                        1 => ErrorCode::UnknownTag,
                        2 => ErrorCode::Malformed,
                        3 => ErrorCode::BadCursor,
                        4 => ErrorCode::SlowConsumer,
                        _ => ErrorCode::Unsupported,
                    },
                    message,
                },
            },
        )
}

fn encode_request(request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    request.encode_into(&mut payload);
    payload
}

fn encode_response(response: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    response.encode_into(&mut payload);
    payload
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn request_round_trips_exactly(request in request_strategy()) {
        let payload = encode_request(&request);
        prop_assert_eq!(Request::decode(&payload).unwrap(), request);
    }

    #[test]
    fn response_round_trips_exactly(response in response_strategy()) {
        let payload = encode_response(&response);
        let back = Response::decode(&payload).unwrap();
        // Densities must survive bit-exactly, which `PartialEq` on f64
        // already demands (the strategies generate no NaNs).
        prop_assert_eq!(back, response);
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panicked(
        request in request_strategy(),
        response in response_strategy(),
        num in 0..1_000_000usize,
    ) {
        let payload = encode_request(&request);
        let cut = num % payload.len();
        prop_assert!(Request::decode(&payload[..cut]).is_err());
        let payload = encode_response(&response);
        let cut = num % payload.len();
        prop_assert!(Response::decode(&payload[..cut]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected(request in request_strategy(), junk in 1..=255u8) {
        let mut payload = encode_request(&request);
        payload.push(junk);
        prop_assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(
        bytes in prop::collection::vec(0..=255u8, 0..80)
    ) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn corrupt_frames_are_detected_by_the_crc(
        request in request_strategy(),
        flip in (0..u32::MAX, 0..8u32),
    ) {
        let mut framed = frame_message(|buf| request.encode_into(buf));
        // Flip one bit anywhere in the frame (header or payload).
        let byte = (flip.0 as usize) % framed.len();
        framed[byte] ^= 1 << flip.1;
        let mut fb = FrameBuffer::new();
        let mut source = framed.as_slice();
        while fb.fill_from(&mut source).unwrap() > 0 {}
        // The flip must never be silently absorbed: either the frame is
        // rejected (or, with a lengthened prefix, never completes), or
        // (flips in the length prefix can shorten the frame) the recovered
        // payload differs and decode sees garbage that it either rejects
        // or — only if the flip undid itself — returns unchanged.
        if let Ok(Some(payload)) = fb.next_frame() {
            if let Ok(back) = Request::decode(&payload) {
                prop_assert_eq!(back, request);
            }
        }
    }
}

#[test]
fn version_byte_gates_decoding() {
    let mut payload = encode_request(&Request::Stats);
    payload[0] = 9;
    assert!(matches!(
        Request::decode(&payload),
        Err(dyndens_serve::DecodeFailure::UnsupportedVersion(9))
    ));
    let mut payload = encode_response(&Response::Poll {
        n_shards: 1,
        entries: vec![],
    });
    payload[0] = 0;
    assert!(matches!(
        Response::decode(&payload),
        Err(dyndens_serve::DecodeFailure::UnsupportedVersion(0))
    ));
}

#[test]
fn unknown_tags_are_rejected_with_the_tag() {
    let payload = [dyndens_serve::PROTOCOL_VERSION, 0x42];
    assert!(matches!(
        Request::decode(&payload),
        Err(dyndens_serve::DecodeFailure::UnknownTag(0x42))
    ));
    assert!(matches!(
        Response::decode(&payload),
        Err(dyndens_serve::DecodeFailure::UnknownTag(0x42))
    ));
}
