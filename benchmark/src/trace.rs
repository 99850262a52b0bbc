//! In-memory spans around the benchmark's calls into the system.
//!
//! Spans are recorded only from the benchmark's own files, around the calls
//! into each layer; spans inside the program are a later change (ROADMAP
//! item 5). Each thread owns a [`Tracer`] and appends without sharing; the
//! tracers are merged and written out when the run ends. With tracing off a
//! tracer records nothing and a span costs one branch.

use std::time::Instant;

use crate::json;

/// One recorded span. `parent` is 0 for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this tracer hands out, so ids stay unique
    /// across threads without coordination.
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// The tracer of thread number `thread` (1-based); `epoch` is the run's
    /// common time origin.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            id_base: thread << 40,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the run's epoch, whether or not tracing is on.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open across several calls (a phase, an
    /// isolated drive); returns its id for [`Tracer::close`] and for use as
    /// a parent. Returns 0 with tracing off.
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.id_base + self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = (id - self.id_base - 1) as usize;
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `call` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: u64, call: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = call();
        self.close(id);
        out
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: how many, their total duration, and their total self time
/// (duration minus the part of it the span's children cover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotals {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, in order of first appearance. Children are
/// clipped to their parent's interval and are assumed not to overlap each
/// other (they come from one thread's sequential calls).
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotals> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    let mut out: Vec<NameTotals> = Vec::new();
    for (s, covered) in spans.iter().zip(covered) {
        let duration = s.end_ns - s.start_ns;
        let entry = match out.iter_mut().find(|t| t.name == s.name) {
            Some(entry) => entry,
            None => {
                out.push(NameTotals {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// The span file: one JSON object per span, one per line inside an array.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": {}, \"spans\": [\n", json::quote(workload));
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.id,
            s.parent,
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span(1, 0, "saturated", 0, 1_000),
            span(2, 1, "ingest_call", 100, 300),
            span(3, 1, "ingest_call", 400, 900),
            span(4, 1, "flush", 950, 1_200), // clipped to the parent's end
            span(5, 0, "recv_wait", 0, 50),
        ];
        let totals = totals_by_name(&spans);
        let by = |name: &str| totals.iter().find(|t| t.name == name).unwrap().clone();
        assert_eq!(by("saturated").self_ns, 1_000 - 200 - 500 - 50);
        assert_eq!(
            (by("ingest_call").count, by("ingest_call").total_ns),
            (2, 700)
        );
        assert_eq!(by("ingest_call").self_ns, 700);
        assert_eq!(by("recv_wait").self_ns, 50);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_ids_are_unique_across_threads() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch, 1);
        assert_eq!(off.span("ingest_call", 0, || 7), 7);
        assert!(off.into_spans().is_empty());

        let mut a = Tracer::new(true, epoch, 1);
        let mut b = Tracer::new(true, epoch, 2);
        let root = a.open("paced", 0);
        a.span("ingest_call", root, || ());
        a.close(root);
        b.span("mirror_apply", 0, || ());
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let doc = json::parse(&to_json("aligned_steady", &spans)).unwrap();
        assert_eq!(doc.get("spans").unwrap().elements().unwrap().len(), 3);
    }
}
