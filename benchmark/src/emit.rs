//! The metric catalogue and the emitter of the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units
//! (a test in this module holds the two together). An untraced run emits
//! exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`].

use crate::json;
#[cfg(test)]
use crate::json::Value;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("ingest_updates_per_s", "1/s"),
    m("visible_p50_ms", "ms"),
    m("visible_ok_share", "share"),
    m("reads_per_s", "1/s"),
    m("answer_ok_share", "share"),
    m("peak_rss_mb", "MB"),
];

/// The outside-in stage budget; measured in the traced run only. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.gen_ns_per_update", "ns"),
    m("workloads.input_mb", "MB"),
    m("stream.intern_ns_per_name", "ns"),
    m("stream.post_p50_ns", "ns"),
    m("stream.post_tail_ns", "ns"),
    m("stream.updates_per_post", "count"),
    m("stream.tracker_pairs", "count"),
    m("graph.route_ns_per_update", "ns"),
    m("graph.encode_ns_per_update", "ns"),
    m("core.apply_ns_per_update", "ns"),
    m("core.apply_batch_p50_us", "us"),
    m("core.apply_batch_tail_us", "us"),
    m("core.explorations_per_update", "count"),
    m("core.cheap_explorations_per_update", "count"),
    m("core.candidates_per_update", "count"),
    m("core.degree_skips_per_update", "count"),
    m("core.subgraphs_inserted", "count"),
    m("core.star_markers_created", "count"),
    m("core.output_dense_end", "count"),
    m("core.dense_end", "count"),
    m("core.output_extract_us", "us"),
    m("core.snapshot_us", "us"),
    m("core.snapshot_bytes", "bytes"),
    m("core.restore_us", "us"),
    m("shard.ingest_call_ns_per_update", "ns"),
    m("shard.backpressure_wait_share", "share"),
    m("shard.publishes", "count"),
    m("shard.updates_per_publish", "count"),
    m("shard.apply_batch_p50_us", "us"),
    m("shard.apply_batch_tail_us", "us"),
    m("shard.seq_lag_max_updates", "count"),
    m("shard.backlog_end_updates", "count"),
    m("shard.wal_append_ns_per_update", "ns"),
    m("shard.wal_bytes_per_update", "bytes"),
    m("shard.wal_appends", "count"),
    m("shard.wal_fsyncs", "count"),
    m("shard.wal_rotations", "count"),
    m("shard.checkpoints", "count"),
    m("shard.checkpoint_p50_us", "us"),
    m("shard.checkpoint_bytes", "bytes"),
    m("shard.view_snapshot_us", "us"),
    m("shard.flush_ms", "ms"),
    m("shard.recovery_ms", "ms"),
    m("shard.recovery_replayed_updates", "count"),
    m("serve.pushes", "count"),
    m("serve.updates_per_push", "count"),
    m("serve.push_bytes_p50", "bytes"),
    m("serve.encode_ns_per_frame", "ns"),
    m("serve.decode_ns_per_frame", "ns"),
    m("serve.mirror_apply_ns_per_frame", "ns"),
    m("serve.fanout_p50_us", "us"),
    m("serve.fanout_tail_us", "us"),
    m("serve.wakeups", "count"),
    m("serve.read_rtt_p50_us", "us"),
    m("serve.read_rtt_tail_us", "us"),
    m("serve.resyncs", "count"),
    m("serve.slow_evictions", "count"),
    m("serve.error_replies", "count"),
    m("e2e.visible_p99_ms", "ms"),
    m("e2e.visible_max_ms", "ms"),
    m("e2e.probes", "count"),
    m("e2e.generator_late_p99_ms", "ms"),
    m("e2e.cpu_us_per_update_paced", "us"),
    m("e2e.cpu_us_per_update_saturated", "us"),
    m("e2e.ctx_switches_per_update", "count"),
    m("env.calib_ms_before", "ms"),
    m("env.calib_ms_after", "ms"),
    m("trace.overhead_share", "share"),
    m("budget.sum_ns_per_update", "ns"),
    m("budget.unaccounted_share", "share"),
];

/// `true` if `name` is made of `[A-Za-z0-9_.-]` only and is not empty.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The values of one catalogue, filled in by the run.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// The end-to-end set: every metric must be set before the run may
    /// report.
    pub fn end_to_end() -> Self {
        MetricSet {
            defs: END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// The per-layer set: starts at 0 everywhere, because a layer that does
    /// no work on a workload (the WAL outside `posts_wal`) reports 0.
    pub fn per_layer() -> Self {
        MetricSet {
            defs: PER_LAYER,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: that is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[idx] = Some(value);
    }

    /// The value of one metric, if set.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let idx = self.defs.iter().position(|d| d.name == name)?;
        self.values[idx]
    }

    /// Every metric with its value, in catalogue order; an error names the
    /// first metric that is missing or not finite.
    pub fn finish(&self) -> Result<Vec<(MetricDef, f64)>, String> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(def, value)| match value {
                Some(v) if v.is_finite() => Ok((*def, *v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", def.name)),
                None => Err(format!("metric {} was never measured", def.name)),
            })
            .collect()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values print with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(def.name),
                json::quote(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Checks a result line against the contract and the catalogue `defs`:
/// exactly the four keys, whole `attempted >= 1` and `failed`, and exactly
/// the catalogue's metrics, each a finite `value` with the catalogue's
/// `unit`. Returns whether the line says `correct`.
#[cfg(test)]
pub fn validate_result_line(line: &str, defs: &[MetricDef]) -> Result<bool, String> {
    let doc = json::parse(line)?;
    let keys: Vec<&str> = doc
        .members()
        .ok_or("the result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let correct = doc
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("correct is not a bool")?;
    for key in ["attempted", "failed"] {
        let n = doc
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("{key} is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 || (key == "attempted" && n < 1.0) {
            return Err(format!("{key} = {n} is out of range"));
        }
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::members)
        .ok_or("metrics is not an object")?;
    if metrics.len() != defs.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            defs.len()
        ));
    }
    for (def, (name, body)) in defs.iter().zip(metrics) {
        if name != def.name || !valid_name(name) {
            return Err(format!("metric {name:?} where {:?} was expected", def.name));
        }
        let keys: Vec<&str> = body
            .members()
            .ok_or(format!("metric {name} is not an object"))?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if keys != ["value", "unit"] {
            return Err(format!("metric {name} has keys {keys:?}"));
        }
        match body.get("value").and_then(Value::as_f64) {
            Some(v) if v.is_finite() => {}
            _ => return Err(format!("metric {name} has no finite value")),
        }
        if body.get("unit").and_then(Value::as_str) != Some(def.unit) {
            return Err(format!("metric {name} does not carry unit {}", def.unit));
        }
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(
                def.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {:?}",
                def.unit
            );
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("µs"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn an_end_to_end_set_reports_only_when_every_metric_is_present() {
        // The same seven metrics for every workload: the set does not know
        // the workload, so one missing value fails it on all four.
        for _workload in WORKLOADS {
            let mut set = MetricSet::end_to_end();
            for def in &END_TO_END[1..] {
                set.set(def.name, 1.5);
            }
            let err = set.finish().unwrap_err();
            assert!(err.contains("setup_s"), "{err}");
            set.set("setup_s", f64::NAN);
            assert!(set.finish().unwrap_err().contains("not finite"));
            set.set("setup_s", 0.75);
            let metrics = set.finish().unwrap();
            let names: Vec<&str> = metrics.iter().map(|(d, _)| d.name).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            let line = result_line(true, 12, 0, &metrics);
            assert!(!line.contains('\n'));
            assert_eq!(validate_result_line(&line, END_TO_END), Ok(true));
        }
    }

    #[test]
    fn per_layer_metrics_default_to_zero_and_round_trip() {
        let mut set = MetricSet::per_layer();
        set.set("core.apply_ns_per_update", 2262.123456789);
        assert_eq!(set.get("stream.post_p50_ns"), Some(0.0));
        let line = result_line(false, 3, 1, &set.finish().unwrap());
        assert_eq!(validate_result_line(&line, PER_LAYER), Ok(false));
        assert!(line.contains("2262.123456789"), "all digits are printed");
        // The wrong catalogue, or a damaged line, does not validate.
        assert!(validate_result_line(&line, END_TO_END).is_err());
        assert!(validate_result_line(&line.replace("\"failed\"", "\"fail\""), PER_LAYER).is_err());
        assert!(validate_result_line(
            &line.replace("\"attempted\": 3", "\"attempted\": 0"),
            PER_LAYER
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn setting_an_unknown_metric_is_a_harness_bug() {
        MetricSet::end_to_end().set("latency_ms", 1.0);
    }

    /// `BENCHMARK.json` is the driver's copy of the catalogue; the two must
    /// not drift apart.
    #[test]
    fn benchmark_json_lists_the_same_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::elements)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|e| {
                    (
                        e.get("name")
                            .and_then(Value::as_str)
                            .expect("name")
                            .to_string(),
                        e.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let catalogue = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, want);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::workload::RUN_SECONDS),
            "the phases are sized for the run length the driver passes"
        );
    }
}
