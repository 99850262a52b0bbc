//! The process-wide metrics registry.
//!
//! A [`Registry`] interns metrics by `(name, labels)` under one mutex, but
//! the mutex is touched **only at registration**: the handles it returns
//! ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed atomics, so the
//! instrumented hot paths (shard workers, WAL appends, request serving)
//! never contend on the registry itself. Existing `AtomicU64` cells that
//! predate the registry (e.g. the router's per-shard routed counters) can be
//! *adopted* with [`Registry::adopt_counter`] — zero added cost on their
//! update path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;
use crate::journal::{Journal, ObsEvent, ObsRecord, SpanMark};
use crate::snapshot::{MetricName, MetricSample, RegistrySnapshot};

/// A monotone counter handle. Cloning is cheap; all clones add into the same
/// cell. Counters only go up — rates and deltas are the scraper's job.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle for point-in-time levels (queue depth,
/// segment bytes). Cloning is cheap; all clones store into the same cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Stores `v`.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The process-wide metrics registry plus the bounded event journal.
///
/// Construct one per process (or per test), share it as `Arc<Registry>`, and
/// thread it into subsystems via
/// [`ObsHandle`](crate::ObsHandle). [`Registry::snapshot`] captures
/// everything — counters, gauges, histogram buckets, recent events — into a
/// [`RegistrySnapshot`] for the wire or the text exposition.
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricName, Metric>>,
    journal: Journal,
    spans: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
            journal: Journal::new(),
            spans: AtomicU64::new(1),
        }
    }

    fn intern<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        extract: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let key = MetricName::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let metric = metrics.entry(key).or_insert_with(make);
        match extract(metric) {
            Some(handle) => handle,
            None => panic!(
                "metric `{name}` already registered as a {}, requested as a different kind",
                metric.kind()
            ),
        }
    }

    /// Returns the counter registered under `(name, labels)`, creating it at
    /// zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` was registered as a gauge or
    /// histogram — a programming error, not a runtime condition.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.intern(
            name,
            labels,
            || Metric::Counter(Arc::new(AtomicU64::new(0))),
            |m| match m {
                Metric::Counter(c) => Some(Counter { cell: c.clone() }),
                _ => None,
            },
        )
    }

    /// Registers an **existing** atomic cell as the counter `(name, labels)`,
    /// replacing any previous registration under that key. This is how
    /// pre-existing hot-path counters (the router's per-shard routed cells)
    /// join the registry without adding a single instruction to their update
    /// path.
    pub fn adopt_counter(&self, name: &str, labels: &[(&str, &str)], cell: Arc<AtomicU64>) {
        let key = MetricName::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        metrics.insert(key, Metric::Counter(cell));
    }

    /// Removes every metric carrying the label `key="value"`, whatever its
    /// name. Used when a label value stops naming anything (the engines a
    /// split or merge retires).
    pub fn unregister_labelled(&self, key: &str, value: &str) {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        metrics.retain(|name, _| name.label(key) != Some(value));
    }

    /// Returns the gauge registered under `(name, labels)`, creating it at
    /// zero on first use.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch, as for [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.intern(
            name,
            labels,
            || Metric::Gauge(Arc::new(AtomicU64::new(0))),
            |m| match m {
                Metric::Gauge(c) => Some(Gauge { cell: c.clone() }),
                _ => None,
            },
        )
    }

    /// Returns the histogram registered under `(name, labels)`, creating it
    /// empty on first use.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch, as for [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.intern(
            name,
            labels,
            || Metric::Histogram(Histogram::new()),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Emits a standalone (spanless) event into the journal.
    pub fn emit(&self, event: ObsEvent) {
        self.journal.push(0, SpanMark::Instant, event);
    }

    /// Opens a span with `event` as its `Begin` record and returns the span
    /// id for [`Registry::note`] / [`Registry::end`].
    pub fn begin(&self, event: ObsEvent) -> u64 {
        let span = self.spans.fetch_add(1, Ordering::Relaxed);
        self.journal.push(span, SpanMark::Begin, event);
        span
    }

    /// Emits an interior record of an open span.
    pub fn note(&self, span: u64, event: ObsEvent) {
        self.journal.push(span, SpanMark::Instant, event);
    }

    /// Closes a span with `event` as its `End` record.
    pub fn end(&self, span: u64, event: ObsEvent) {
        self.journal.push(span, SpanMark::End, event);
    }

    /// The retained journal records, ascending by emission order.
    pub fn recent_events(&self) -> Vec<ObsRecord> {
        self.journal.recent()
    }

    /// Captures every registered metric and the retained journal into an
    /// owned [`RegistrySnapshot`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        {
            let metrics = self.metrics.lock().expect("registry poisoned");
            for (name, metric) in metrics.iter() {
                match metric {
                    Metric::Counter(c) => counters.push(MetricSample {
                        name: name.clone(),
                        value: c.load(Ordering::Relaxed),
                    }),
                    Metric::Gauge(g) => gauges.push(MetricSample {
                        name: name.clone(),
                        value: g.load(Ordering::Relaxed),
                    }),
                    Metric::Histogram(h) => histograms.push(crate::snapshot::HistogramSample {
                        name: name.clone(),
                        hist: h.snapshot(),
                    }),
                }
            }
        }
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
            events: self.journal.recent(),
        }
    }
}
