//! Bounded structured event journal.
//!
//! Metrics answer "how much / how fast"; the journal answers "what
//! happened". It keeps a bounded ring of typed [`ObsEvent`]s with coarse
//! wall-clock timestamps and **span-style begin/end pairing**: a multi-phase
//! operation (a shard split, say) emits a `Begin` record, zero or more
//! interior records and an `End` record that all share one span id, so an
//! operator reading a [`Metrics`](crate::RegistrySnapshot) scrape can
//! reconstruct the full lifecycle of an operation that finished hours ago.
//!
//! Only rare **lifecycle** events are journalled (recovery, split/merge
//! phases, compaction windows): per-batch, per-append and per-connection
//! activity is counted by the registry's series instead, so nothing busy
//! can push a lifecycle record out of the ring before an operator sees it.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use dyndens_graph::codec::{put_u32, put_u64, put_u8, ByteReader, CodecError};

/// Retained journal records (recovery / split / merge / compaction).
pub const LIFECYCLE_RING_CAPACITY: usize = 256;

/// The stage of a split or merge lifecycle: what the journal's
/// `SplitPhase` / `MergePhase` records carry, and what the observer hooks of
/// the rebalance protocol in `dyndens-shard` are called with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceStage {
    /// The affected worker(s) quiesced; routing holds updates parked.
    Parked,
    /// Replacement engines rebuilt from durable state.
    Rebuilt,
    /// New routing committed; parked backlog drained.
    Committed,
}

impl RebalanceStage {
    fn to_u8(self) -> u8 {
        match self {
            RebalanceStage::Parked => 0,
            RebalanceStage::Rebuilt => 1,
            RebalanceStage::Committed => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(RebalanceStage::Parked),
            1 => Ok(RebalanceStage::Rebuilt),
            2 => Ok(RebalanceStage::Committed),
            _ => Err(CodecError::Invalid("unknown rebalance stage")),
        }
    }
}

/// One typed lifecycle event. `shard`/`slot` fields are worker slot
/// indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// A shard recovered from durable state at startup (the journal form of
    /// `RecoveryReport`).
    Recovery {
        /// Worker slot that recovered.
        shard: u32,
        /// Sequence number of the snapshot the recovery started from.
        snapshot_seq: u64,
        /// WAL updates replayed on top of the snapshot.
        replayed_updates: u64,
        /// Sequence number after replay.
        recovered_seq: u64,
        /// `true` if a torn WAL tail was truncated during recovery.
        repaired_torn_tail: bool,
    },
    /// A phase transition of a live shard split (enriched at `Committed`
    /// with the `SplitReport` counts).
    SplitPhase {
        /// The slot being split.
        slot: u32,
        /// The slot the new sibling worker was assigned.
        new_slot: u32,
        /// Which phase boundary this record marks.
        stage: RebalanceStage,
        /// Updates parked while routing was frozen (known at `Committed`).
        parked: u64,
    },
    /// A phase transition of a live shard merge (enriched at `Committed`
    /// with the `MergeReport` counts).
    MergePhase {
        /// The surviving slot.
        slot: u32,
        /// The slot that was absorbed and freed.
        freed_slot: u32,
        /// Which phase boundary this record marks.
        stage: RebalanceStage,
        /// Updates parked while routing was frozen (known at `Committed`).
        parked: u64,
    },
    /// One decay-driven compaction window completed.
    CompactionWindow {
        /// Tracked co-occurrence pairs pruned from the stream tracker.
        pruned_pairs: u64,
        /// Cancellation updates emitted for decayed pairs.
        cancelled_updates: u64,
        /// Fully-decayed edges evicted from the engines.
        evicted_edges: u64,
        /// Disk bytes reclaimed by WAL pruning (0 when unknown).
        reclaimed_bytes: u64,
    },
}

impl ObsEvent {
    /// Stable event-kind name, used by the text exposition and docs.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Recovery { .. } => "recovery",
            ObsEvent::SplitPhase { .. } => "split_phase",
            ObsEvent::MergePhase { .. } => "merge_phase",
            ObsEvent::CompactionWindow { .. } => "compaction_window",
        }
    }

    /// Encodes the event as `tag u8 | fields` (graph codec conventions).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            ObsEvent::Recovery {
                shard,
                snapshot_seq,
                replayed_updates,
                recovered_seq,
                repaired_torn_tail,
            } => {
                put_u8(buf, 4);
                put_u32(buf, shard);
                put_u64(buf, snapshot_seq);
                put_u64(buf, replayed_updates);
                put_u64(buf, recovered_seq);
                put_u8(buf, repaired_torn_tail as u8);
            }
            ObsEvent::SplitPhase {
                slot,
                new_slot,
                stage,
                parked,
            } => {
                put_u8(buf, 5);
                put_u32(buf, slot);
                put_u32(buf, new_slot);
                put_u8(buf, stage.to_u8());
                put_u64(buf, parked);
            }
            ObsEvent::MergePhase {
                slot,
                freed_slot,
                stage,
                parked,
            } => {
                put_u8(buf, 6);
                put_u32(buf, slot);
                put_u32(buf, freed_slot);
                put_u8(buf, stage.to_u8());
                put_u64(buf, parked);
            }
            ObsEvent::CompactionWindow {
                pruned_pairs,
                cancelled_updates,
                evicted_edges,
                reclaimed_bytes,
            } => {
                put_u8(buf, 7);
                put_u64(buf, pruned_pairs);
                put_u64(buf, cancelled_updates);
                put_u64(buf, evicted_edges);
                put_u64(buf, reclaimed_bytes);
            }
        }
    }

    /// Decodes one event; the inverse of [`ObsEvent::encode_into`]. Unknown
    /// tags and out-of-range discriminants are rejected, never panicked on.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<ObsEvent, CodecError> {
        Ok(match r.u8()? {
            4 => ObsEvent::Recovery {
                shard: r.u32()?,
                snapshot_seq: r.u64()?,
                replayed_updates: r.u64()?,
                recovered_seq: r.u64()?,
                repaired_torn_tail: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::Invalid("recovery bool out of range")),
                },
            },
            5 => ObsEvent::SplitPhase {
                slot: r.u32()?,
                new_slot: r.u32()?,
                stage: RebalanceStage::from_u8(r.u8()?)?,
                parked: r.u64()?,
            },
            6 => ObsEvent::MergePhase {
                slot: r.u32()?,
                freed_slot: r.u32()?,
                stage: RebalanceStage::from_u8(r.u8()?)?,
                parked: r.u64()?,
            },
            7 => ObsEvent::CompactionWindow {
                pruned_pairs: r.u64()?,
                cancelled_updates: r.u64()?,
                evicted_edges: r.u64()?,
                reclaimed_bytes: r.u64()?,
            },
            _ => return Err(CodecError::Invalid("unknown obs event tag")),
        })
    }
}

/// How a record relates to a span: a standalone instant, the opening record
/// of a span, or its closing record. Interior records of an open span are
/// emitted as `Instant` with the span's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanMark {
    /// A standalone event (or an interior record of an open span).
    Instant,
    /// Opens a span; later records with the same span id belong to it.
    Begin,
    /// Closes a span.
    End,
}

impl SpanMark {
    fn to_u8(self) -> u8 {
        match self {
            SpanMark::Instant => 0,
            SpanMark::Begin => 1,
            SpanMark::End => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(SpanMark::Instant),
            1 => Ok(SpanMark::Begin),
            2 => Ok(SpanMark::End),
            _ => Err(CodecError::Invalid("unknown span mark")),
        }
    }
}

/// One journal record: a monotone process-wide sequence number, a coarse
/// wall-clock timestamp, the span id (0 for spanless instants) and the
/// typed event payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsRecord {
    /// Monotone emission order.
    pub seq: u64,
    /// Milliseconds since the UNIX epoch at emission (coarse: reading the
    /// clock once per event, not per field).
    pub at_unix_ms: u64,
    /// Span id shared by the records of one multi-phase operation; 0 when
    /// the record belongs to no span.
    pub span: u64,
    /// The record's relation to its span.
    pub mark: SpanMark,
    /// The typed payload.
    pub event: ObsEvent,
}

/// Minimum encoded size of an [`ObsRecord`]: three `u64`, the mark byte, and
/// the smallest event body (`SplitPhase` and `MergePhase`: tag, two `u32`,
/// the stage byte and one `u64`). Used as the allocation guard unit when
/// decoding event lists.
pub const OBS_RECORD_MIN_ENCODED: usize = 8 + 8 + 8 + 1 + (1 + 4 + 4 + 1 + 8);

impl ObsRecord {
    /// Encodes `seq | at_unix_ms | span | mark | event`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.seq);
        put_u64(buf, self.at_unix_ms);
        put_u64(buf, self.span);
        put_u8(buf, self.mark.to_u8());
        self.event.encode_into(buf);
    }

    /// Decodes one record; the inverse of [`ObsRecord::encode_into`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<ObsRecord, CodecError> {
        Ok(ObsRecord {
            seq: r.u64()?,
            at_unix_ms: r.u64()?,
            span: r.u64()?,
            mark: SpanMark::from_u8(r.u8()?)?,
            event: ObsEvent::decode(r)?,
        })
    }
}

/// The bounded ring. A record's sequence number is one past its
/// predecessor's, assigned under the ring's lock so the ring is in emission
/// order; the ring never empties once written, so the count carries on past
/// evictions.
pub(crate) struct Journal {
    ring: Mutex<VecDeque<ObsRecord>>,
}

impl Journal {
    pub(crate) fn new() -> Self {
        Journal {
            ring: Mutex::new(VecDeque::with_capacity(LIFECYCLE_RING_CAPACITY)),
        }
    }

    pub(crate) fn push(&self, span: u64, mark: SpanMark, event: ObsEvent) {
        let at_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mut ring = self.ring.lock().expect("journal ring poisoned");
        let seq = ring.back().map_or(0, |last| last.seq + 1);
        if ring.len() == LIFECYCLE_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(ObsRecord {
            seq,
            at_unix_ms,
            span,
            mark,
            event,
        });
    }

    /// The retained records, ascending by emission sequence.
    pub(crate) fn recent(&self) -> Vec<ObsRecord> {
        let ring = self.ring.lock().expect("journal ring poisoned");
        ring.iter().cloned().collect()
    }
}
