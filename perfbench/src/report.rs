//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics: reported by every workload on the untraced pass.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("comm_mb_per_node", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
];

/// Per-layer metrics: reported by every workload on the traced pass (0 where
/// a workload never enters the layer).
pub const PER_LAYER: [(&str, &str); 53] = [
    // ndlog + core: building the deployment.
    ("build.ms", "ms"),
    // runtime.
    ("fixpoint.s", "s"),
    ("fixpoint.events", "count"),
    ("runtime.window_ms_p50", "ms"),
    ("runtime.window_ms_max", "ms"),
    ("runtime.churn_events", "count"),
    ("runtime.events_per_s", "1/s"),
    ("runtime.tuples", "count"),
    ("runtime.eval_errors", "count"),
    // netsim.
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.dropped", "count"),
    // bdd + value policy.
    ("bdd.nodes", "count"),
    ("bdd.memo_hit_ratio", "ratio"),
    ("bdd.memo_lookups", "count"),
    ("bdd.memo_clears", "count"),
    ("value.annotation_bytes", "bytes"),
    // store.
    ("store.snapshots", "count"),
    ("store.snapshot_bytes", "bytes"),
    ("store.wal_bytes", "bytes"),
    ("store.committed_ops", "count"),
    ("store.bytes_per_op", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.recover_s", "s"),
    // core query.
    ("query.messages", "count"),
    ("query.bytes", "bytes"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.cache_lookups", "count"),
    ("query.invalidations", "count"),
    ("query.sim_latency_ms_p50", "sim_ms"),
    // serve, timed at the client.
    ("serve.ack_ms_p50", "ms"),
    ("serve.ack_ms_p99", "ms"),
    ("serve.poll_rtt_ms_p50", "ms"),
    ("serve.poll_rtt_ms_p99", "ms"),
    ("serve.polls_per_query", "count"),
    ("serve.sim_floor_ms", "ms"),
    ("serve.result_bytes_per_query", "bytes"),
    ("serve.rejected", "count"),
    ("gen.late_ms_max", "ms"),
    // Workload-level figures named after what they count.
    ("churn_changes_per_s", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_sat_qps", "1/s"),
    ("failed_ratio", "ratio"),
    // Self time per layer, from the spans.
    ("self_ms.bench", "ms"),
    ("self_ms.build", "ms"),
    ("self_ms.runtime", "ms"),
    ("self_ms.store", "ms"),
    ("self_ms.serve", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
];

/// Metrics printed but left out of the result line: those only
/// `query-churn` measures (it is not among the benchmark's workloads) and
/// the generator's fixed poll period, which is a setting, not a measurement.
const PRINTED_ONLY: [(&str, &str); 8] = [
    ("query.slice_ms_p50", "ms"),
    ("query.slice_ms_max", "ms"),
    ("query.empty_answers", "count"),
    ("query.stale_answers", "count"),
    ("gen.poll_period_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("query_kb_per_query", "KB"),
    ("self_ms.query", "ms"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(PRINTED_ONLY.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Named values in insertion order; setting a name again replaces it.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| n == name).map(|e| e.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// Formats a number as JSON (non-finite values, which JSON cannot carry,
/// become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `names` selects (and orders) the reported metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = metrics.get(name).unwrap_or(0.0);
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_requested_metric_once() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("setup_s", 1.25);
        m.set("ops_per_s", f64::NAN);
        let line = result_line(true, 10, 0, &m, &END_TO_END[..4]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}, \
             \"comm_mb_per_node\": {\"value\": 0.0, \"unit\": \"MB\"}, \
             \"ops_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique_and_units_known() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(PRINTED_ONLY.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert_eq!(unit_of("store.recover_s"), "s");
    }
}
