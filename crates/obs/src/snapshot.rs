//! Owned registry snapshots: wire codec and Prometheus-style text
//! exposition.
//!
//! A [`RegistrySnapshot`] is the unit of scraping. It travels two ways:
//!
//! * **binary**, via [`RegistrySnapshot::encode_into`] /
//!   [`RegistrySnapshot::decode`] — the payload of the serve protocol's
//!   `Metrics` response, following the `dyndens-graph` codec conventions
//!   (little-endian fixed-width primitives, explicit counts, decoding that
//!   rejects malformed input instead of panicking);
//! * **text**, via [`RegistrySnapshot::to_prometheus`] — a
//!   Prometheus-exposition-style rendering (`# TYPE` comments, cumulative
//!   `_bucket{le=...}` lines, `_sum`/`_count`) for offline scrapes and
//!   humans. Journal events have no Prometheus form and are omitted there.

use dyndens_graph::codec::{put_str, put_u32, put_u64, put_u8, ByteReader, CodecError};

use crate::histogram::{bucket_bounds, HistogramSnapshot, N_BUCKETS};
use crate::journal::{ObsRecord, OBS_RECORD_MIN_ENCODED};

/// A metric identity: a name plus sorted `(key, value)` label pairs.
/// Ordering (name, then labels) defines the canonical encode order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricName {
    /// The metric name, e.g. `dyndens_wal_appends_total`.
    pub name: String,
    /// Label pairs, sorted by key, e.g. `[("engine", "0")]`.
    pub labels: Vec<(String, String)>,
}

impl MetricName {
    /// Builds a metric name, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricName {
            name: name.to_string(),
            labels,
        }
    }

    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.name);
        put_u8(buf, self.labels.len().min(255) as u8);
        for (k, v) in self.labels.iter().take(255) {
            put_str(buf, k);
            put_str(buf, v);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<MetricName, CodecError> {
        let name = r.str()?.to_string();
        let n_labels = r.u8()? as usize;
        let mut labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            let k = r.str()?.to_string();
            let v = r.str()?.to_string();
            labels.push((k, v));
        }
        Ok(MetricName { name, labels })
    }
}

impl std::fmt::Display for MetricName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{}\"", escape_label(v))?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// One sampled counter or gauge: identity plus current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// The metric identity.
    pub name: MetricName,
    /// The sampled value.
    pub value: u64,
}

/// One sampled histogram: identity plus its sparse bucket snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// The metric identity.
    pub name: MetricName,
    /// The sampled distribution.
    pub hist: HistogramSnapshot,
}

/// An owned point-in-time capture of a whole [`Registry`](crate::Registry):
/// every counter, gauge and histogram (sorted by [`MetricName`]) plus the
/// retained journal records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// All counters, sorted by identity.
    pub counters: Vec<MetricSample>,
    /// All gauges, sorted by identity.
    pub gauges: Vec<MetricSample>,
    /// All histograms, sorted by identity.
    pub histograms: Vec<HistogramSample>,
    /// Retained journal records, ascending by emission order.
    pub events: Vec<ObsRecord>,
}

/// Smallest encoded [`MetricSample`]: empty name (4-byte length), zero-label
/// count, 8-byte value.
const METRIC_SAMPLE_MIN_ENCODED: usize = 4 + 1 + 8;
/// Smallest encoded [`HistogramSample`]: empty name, count, sum, zero-bucket
/// count.
const HISTOGRAM_SAMPLE_MIN_ENCODED: usize = 4 + 1 + 8 + 8 + 4;
/// Encoded size of one `(bucket index, count)` pair.
const BUCKET_ENCODED: usize = 4 + 8;

/// Allocation guard shared by every count-prefixed list in the snapshot
/// codec: a hostile length must not allocate more than the bytes actually
/// present can justify.
fn guard_count(r: &ByteReader<'_>, count: usize, min_encoded: usize) -> Result<(), CodecError> {
    if count.saturating_mul(min_encoded) > r.remaining() {
        return Err(CodecError::Truncated {
            needed: count.saturating_mul(min_encoded),
            available: r.remaining(),
        });
    }
    Ok(())
}

impl RegistrySnapshot {
    /// Encodes the snapshot:
    /// `n_counters u32 | samples | n_gauges u32 | samples |
    ///  n_histograms u32 | samples | n_events u32 | records`,
    /// where a sample is `name | value u64` (or `name | count u64 | sum u64 |
    /// n_buckets u32 | (index u32, count u64)*` for histograms) and a name is
    /// `str | n_labels u8 | (str, str)*`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.counters.len() as u32);
        for s in &self.counters {
            s.name.encode_into(buf);
            put_u64(buf, s.value);
        }
        put_u32(buf, self.gauges.len() as u32);
        for s in &self.gauges {
            s.name.encode_into(buf);
            put_u64(buf, s.value);
        }
        put_u32(buf, self.histograms.len() as u32);
        for s in &self.histograms {
            s.name.encode_into(buf);
            put_u64(buf, s.hist.count);
            put_u64(buf, s.hist.sum);
            put_u32(buf, s.hist.buckets.len() as u32);
            for &(i, n) in &s.hist.buckets {
                put_u32(buf, i);
                put_u64(buf, n);
            }
        }
        put_u32(buf, self.events.len() as u32);
        for e in &self.events {
            e.encode_into(buf);
        }
    }

    /// Decodes a snapshot; the inverse of [`RegistrySnapshot::encode_into`].
    /// Every count is allocation-guarded against the remaining input, and
    /// histogram bucket lists must be strictly ascending with indexes below
    /// [`N_BUCKETS`] — truncated, corrupt or hostile input is rejected with
    /// a [`CodecError`], never panicked on.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<RegistrySnapshot, CodecError> {
        let n_counters = r.u32()? as usize;
        guard_count(r, n_counters, METRIC_SAMPLE_MIN_ENCODED)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let name = MetricName::decode(r)?;
            let value = r.u64()?;
            counters.push(MetricSample { name, value });
        }
        let n_gauges = r.u32()? as usize;
        guard_count(r, n_gauges, METRIC_SAMPLE_MIN_ENCODED)?;
        let mut gauges = Vec::with_capacity(n_gauges);
        for _ in 0..n_gauges {
            let name = MetricName::decode(r)?;
            let value = r.u64()?;
            gauges.push(MetricSample { name, value });
        }
        let n_histograms = r.u32()? as usize;
        guard_count(r, n_histograms, HISTOGRAM_SAMPLE_MIN_ENCODED)?;
        let mut histograms = Vec::with_capacity(n_histograms);
        for _ in 0..n_histograms {
            let name = MetricName::decode(r)?;
            let count = r.u64()?;
            let sum = r.u64()?;
            let n_buckets = r.u32()? as usize;
            guard_count(r, n_buckets, BUCKET_ENCODED)?;
            let mut buckets = Vec::with_capacity(n_buckets);
            let mut prev: Option<u32> = None;
            for _ in 0..n_buckets {
                let i = r.u32()?;
                let n = r.u64()?;
                if i as usize >= N_BUCKETS {
                    return Err(CodecError::Invalid("histogram bucket index out of range"));
                }
                if prev.is_some_and(|p| i <= p) {
                    return Err(CodecError::Invalid("histogram buckets not ascending"));
                }
                prev = Some(i);
                buckets.push((i, n));
            }
            histograms.push(HistogramSample {
                name,
                hist: HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            });
        }
        let n_events = r.u32()? as usize;
        guard_count(r, n_events, OBS_RECORD_MIN_ENCODED)?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(ObsRecord::decode(r)?);
        }
        Ok(RegistrySnapshot {
            counters,
            gauges,
            histograms,
            events,
        })
    }

    /// Sum of every counter named `name`, across all label sets. Convenience
    /// for consistency gates (`wal appends == applied batches`).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The counter with exactly `(name, labels)`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricName::new(name, labels);
        self.counters
            .iter()
            .find(|s| s.name == key)
            .map(|s| s.value)
    }

    /// The gauge with exactly `(name, labels)`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricName::new(name, labels);
        self.gauges.iter().find(|s| s.name == key).map(|s| s.value)
    }

    /// All histograms named `name` merged across label sets (e.g. per-shard
    /// apply latencies folded into one fleet-wide distribution). Empty when
    /// no histogram has that name.
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for s in self.histograms.iter().filter(|s| s.name.name == name) {
            merged.merge(&s.hist);
        }
        merged
    }

    /// Renders the metric sections in Prometheus text exposition style.
    ///
    /// Counters and gauges render as `name{labels} value`; a histogram
    /// renders its non-empty buckets cumulatively as
    /// `name_bucket{labels,le="<upper>"}` followed by `le="+Inf"`, then
    /// `name_sum` and `name_count`. A `# TYPE` comment precedes each metric
    /// family. Journal events have no text form.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut prev: Option<String> = None;
        for s in &self.counters {
            if prev.as_deref() != Some(s.name.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} counter", s.name.name);
                prev = Some(s.name.name.clone());
            }
            let _ = writeln!(out, "{} {}", s.name, s.value);
        }
        let mut prev: Option<String> = None;
        for s in &self.gauges {
            if prev.as_deref() != Some(s.name.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} gauge", s.name.name);
                prev = Some(s.name.name.clone());
            }
            let _ = writeln!(out, "{} {}", s.name, s.value);
        }
        let mut prev: Option<String> = None;
        for s in &self.histograms {
            if prev.as_deref() != Some(s.name.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} histogram", s.name.name);
                prev = Some(s.name.name.clone());
            }
            let mut cumulative = 0u64;
            for &(i, n) in &s.hist.buckets {
                cumulative += n;
                let upper = bucket_bounds(i as usize).1;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    s.name.name,
                    labels_with_le(&s.name, &upper.to_string())
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                s.name.name,
                labels_with_le(&s.name, "+Inf"),
                s.hist.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                s.name.name,
                labels_only(&s.name),
                s.hist.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                s.name.name,
                labels_only(&s.name),
                s.hist.count
            );
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn labels_only(name: &MetricName) -> String {
    if name.labels.is_empty() {
        String::new()
    } else {
        let inner: Vec<String> = name
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{{{}}}", inner.join(","))
    }
}

fn labels_with_le(name: &MetricName, le: &str) -> String {
    let mut inner: Vec<String> = name
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    inner.push(format!("le=\"{le}\""));
    format!("{{{}}}", inner.join(","))
}
