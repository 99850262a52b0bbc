//! Registry, journal and snapshot behaviour: interning, adoption, span
//! pairing, ring bounds, codec round-trip and truncation rejection, and the
//! text exposition's line grammar.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dyndens_graph::codec::{ByteReader, CodecError};
use dyndens_obs::{
    names, ObsEvent, RebalanceStage, Registry, RegistrySnapshot, SpanMark, LIFECYCLE_RING_CAPACITY,
};

#[test]
fn handles_are_interned_by_name_and_labels() {
    let r = Registry::new();
    let a = r.counter("c", &[("shard", "0")]);
    let b = r.counter("c", &[("shard", "0")]);
    let other = r.counter("c", &[("shard", "1")]);
    a.inc();
    b.add(2);
    other.inc();
    let snap = r.snapshot();
    assert_eq!(snap.counter("c", &[("shard", "0")]), Some(3));
    assert_eq!(snap.counter("c", &[("shard", "1")]), Some(1));
    assert_eq!(snap.counter_total("c"), 4);
}

#[test]
fn label_order_does_not_matter() {
    let r = Registry::new();
    r.counter("c", &[("a", "1"), ("b", "2")]).inc();
    let snap = r.snapshot();
    assert_eq!(snap.counter("c", &[("b", "2"), ("a", "1")]), Some(1));
}

#[test]
#[should_panic(expected = "already registered")]
fn kind_mismatch_panics() {
    let r = Registry::new();
    let _ = r.counter("same", &[]);
    let _ = r.gauge("same", &[]);
}

#[test]
fn adopted_cells_are_read_through_and_replaceable() {
    let r = Registry::new();
    let cell = Arc::new(AtomicU64::new(7));
    r.adopt_counter("adopted", &[("shard", "0")], cell.clone());
    cell.fetch_add(5, Ordering::Relaxed);
    assert_eq!(r.snapshot().counter("adopted", &[("shard", "0")]), Some(12));
    // Re-adoption (the split path swapping the routed cell) replaces it.
    let newer = Arc::new(AtomicU64::new(100));
    r.adopt_counter("adopted", &[("shard", "0")], newer);
    assert_eq!(
        r.snapshot().counter("adopted", &[("shard", "0")]),
        Some(100)
    );
    r.unregister_labelled("shard", "0");
    assert_eq!(r.snapshot().counter("adopted", &[("shard", "0")]), None);
}

#[test]
fn spans_pair_begin_and_end() {
    let r = Registry::new();
    let span = r.begin(ObsEvent::SplitPhase {
        slot: 0,
        new_slot: 2,
        stage: RebalanceStage::Parked,
        parked: 0,
    });
    r.end(
        span,
        ObsEvent::SplitPhase {
            slot: 0,
            new_slot: 2,
            stage: RebalanceStage::Committed,
            parked: 3,
        },
    );

    let events = r.recent_events();
    let split: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.event, ObsEvent::SplitPhase { .. }))
        .collect();
    assert_eq!(split.len(), 2);
    assert_eq!(split[0].span, span);
    assert_eq!(split[0].mark, SpanMark::Begin);
    assert_eq!(split[1].span, span);
    assert_eq!(split[1].mark, SpanMark::End);
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
}

#[test]
fn the_removed_event_tags_are_rejected() {
    // Tags 1-3 and 8-12 named per-batch and per-connection kinds, which the
    // registry's series count; the journal keeps lifecycle kinds 4-7 only.
    for tag in (1u8..=3).chain(8..=12) {
        let mut body = vec![tag];
        body.resize(64, 0);
        assert_eq!(
            ObsEvent::decode(&mut ByteReader::new(&body)),
            Err(CodecError::Invalid("unknown obs event tag")),
            "tag {tag}"
        );
    }
}

#[test]
fn the_ring_keeps_emission_order_past_evictions() {
    let r = Registry::new();
    let total = LIFECYCLE_RING_CAPACITY as u64 * 2 + 7;
    for i in 0..total {
        r.emit(ObsEvent::CompactionWindow {
            pruned_pairs: i,
            cancelled_updates: 0,
            evicted_edges: 0,
            reclaimed_bytes: 0,
        });
    }
    let seqs: Vec<u64> = r.recent_events().iter().map(|e| e.seq).collect();
    let first = total - LIFECYCLE_RING_CAPACITY as u64;
    assert_eq!(seqs, (first..total).collect::<Vec<_>>());
}

#[test]
fn lifecycle_ring_is_bounded() {
    let r = Registry::new();
    for i in 0..(LIFECYCLE_RING_CAPACITY as u64 + 50) {
        r.emit(ObsEvent::CompactionWindow {
            pruned_pairs: i,
            cancelled_updates: 0,
            evicted_edges: 0,
            reclaimed_bytes: 0,
        });
    }
    let events = r.recent_events();
    assert_eq!(events.len(), LIFECYCLE_RING_CAPACITY);
    // The oldest records were evicted, the newest retained.
    assert!(matches!(
        events.last().unwrap().event,
        ObsEvent::CompactionWindow { pruned_pairs, .. }
            if pruned_pairs == LIFECYCLE_RING_CAPACITY as u64 + 49
    ));
}

fn populated_registry() -> Registry {
    let r = Registry::new();
    r.counter(names::WAL_APPENDS_TOTAL, &[("shard", "0")])
        .add(17);
    r.counter(names::WAL_APPENDS_TOTAL, &[("shard", "1")])
        .add(4);
    r.gauge(names::SHARD_QUEUE_DEPTH, &[("shard", "0")]).set(9);
    let h = r.histogram(names::SHARD_APPLY_LATENCY_US, &[("shard", "0")]);
    for v in [3u64, 3, 90, 4096, 70_000] {
        h.record(v);
    }
    r.emit(ObsEvent::Recovery {
        shard: 0,
        snapshot_seq: 128,
        replayed_updates: 40,
        recovered_seq: 168,
        repaired_torn_tail: true,
    });
    let span = r.begin(ObsEvent::MergePhase {
        slot: 1,
        freed_slot: 3,
        stage: RebalanceStage::Parked,
        parked: 0,
    });
    r.end(
        span,
        ObsEvent::MergePhase {
            slot: 1,
            freed_slot: 3,
            stage: RebalanceStage::Committed,
            parked: 12,
        },
    );
    assert!(span > 0);
    r
}

#[test]
fn snapshot_codec_round_trips() {
    let snap = populated_registry().snapshot();
    let mut buf = Vec::new();
    snap.encode_into(&mut buf);
    let mut reader = ByteReader::new(&buf);
    let decoded = RegistrySnapshot::decode(&mut reader).expect("decode");
    assert!(reader.is_empty(), "decode must consume the whole encoding");
    assert_eq!(decoded, snap);
}

#[test]
fn snapshot_codec_rejects_every_truncation() {
    let snap = populated_registry().snapshot();
    let mut buf = Vec::new();
    snap.encode_into(&mut buf);
    for len in 0..buf.len() {
        let mut reader = ByteReader::new(&buf[..len]);
        match RegistrySnapshot::decode(&mut reader) {
            Err(_) => {}
            // A prefix that happens to decode must not equal the original
            // (it lost data) — and for this encoding no prefix decodes at
            // all because every section is count-prefixed.
            Ok(d) => assert_ne!(d, snap, "truncated prefix decoded to the full snapshot"),
        }
    }
}

#[test]
fn snapshot_codec_rejects_hostile_counts_and_bad_buckets() {
    // A huge count with no bytes behind it must be rejected before
    // allocating.
    let mut buf = Vec::new();
    dyndens_graph::codec::put_u32(&mut buf, u32::MAX);
    assert!(RegistrySnapshot::decode(&mut ByteReader::new(&buf)).is_err());

    // Out-of-range or non-ascending bucket indexes are invalid.
    let snap = populated_registry().snapshot();
    let mut good = Vec::new();
    snap.encode_into(&mut good);
    // Corrupt one byte at a time; decoding must never panic, and must
    // either error or produce a different value.
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        let _ = RegistrySnapshot::decode(&mut ByteReader::new(&bad));
    }
}

#[test]
fn prometheus_exposition_parses_line_by_line() {
    let snap = populated_registry().snapshot();
    let text = snap.to_prometheus();
    assert!(!text.is_empty());
    let mut saw_bucket = false;
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# TYPE ") {
            let mut parts = comment.split_whitespace();
            let name = parts.next().expect("type line has a name");
            let kind = parts.next().expect("type line has a kind");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            assert!(!name.is_empty());
            continue;
        }
        // Sample line: `name{labels} value` or `name value`.
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated label set in {line:?}");
        }
        saw_bucket |= series.contains("le=\"+Inf\"");
    }
    assert!(saw_bucket, "histogram must emit a +Inf bucket");
    // Cumulative bucket counts: the +Inf bucket equals _count.
    let inf: u64 = text
        .lines()
        .find(|l| l.contains("le=\"+Inf\""))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap();
    assert_eq!(inf, 5);
}
