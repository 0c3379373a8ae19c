//! The metrics a run prints, the correctness tally, and the final JSON
//! line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// What each means on each workload is in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("cmpsim.profile_s", "s"),
    ("cmpsim.profile_ns_per_insn", "ns"),
    ("trace.compile_s", "s"),
    ("trace.compile_ops", "count"),
    ("cmpsim.run_s", "s"),
    ("cmpsim.ns_per_insn", "ns"),
    ("cmpsim.ns_per_llc_access", "ns"),
    ("cache.llc_accesses", "count"),
    ("cache.llc_miss_ratio", "ratio"),
    ("core.solve_warm_us", "us"),
    ("core.steps_per_eval", "count"),
    ("core.nonconverged", "count"),
    ("core.solve_fresh_us", "us"),
    ("core.stp_err_pct", "%"),
    ("campaign.plan_s", "s"),
    ("campaign.execute_s", "s"),
    ("campaign.journal_store_s", "s"),
    ("campaign.journal_load_s", "s"),
    ("campaign.journal_bytes", "B"),
    ("campaign.aggregate_s", "s"),
    ("store.profile_hit_us", "us"),
    ("store.profile_load", "count"),
    ("server.p50_ms", "ms"),
    ("server.tail_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.miss_tail_ms", "ms"),
    ("server.evictions", "count"),
    ("server.protocol_us", "us"),
    ("server.gen_late_max_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Whether `name` is a well-formed metric name (`[A-Za-z0-9_.-]+`).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records metric `name` (must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one attempted operation, and a failure unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Checks that exactly the metrics of `declared` were recorded, each
    /// finite, and renders the result line. Prints every metric by name
    /// and unit first, one per line.
    pub fn finish(&mut self, declared: &[(&str, &str)]) -> String {
        let missing: Vec<&str> = declared
            .iter()
            .map(|d| d.0)
            .filter(|n| !self.metrics.contains_key(*n))
            .collect();
        let extra: Vec<String> = self
            .metrics
            .keys()
            .filter(|n| !declared.iter().any(|d| d.0 == n.as_str()))
            .cloned()
            .collect();
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, v)| !v.is_finite() || !valid_name(n))
            .map(|(n, _)| n.clone())
            .collect();
        self.op(missing.is_empty() && extra.is_empty() && bad.is_empty(), || {
            format!("metric set: missing {missing:?}, undeclared {extra:?}, malformed or non-finite {bad:?}")
        });
        let mut body = Vec::new();
        for (name, unit) in declared {
            let value = self
                .metrics
                .get(*name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            println!("metric {name} = {value} {unit}");
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "error_pct = {:.4} % ({} failed of {} attempted)",
            100.0 * self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names declared in `BENCHMARK.json` under `key`.
    fn benchmark_json_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = json
            .get(key)
            .and_then(|v| v.as_array())
            .expect("metric list");
        list.iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named metric")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("x/y"));
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        let sorted = |v: Vec<String>| -> Vec<String> {
            let mut v = v;
            v.sort();
            v
        };
        let e2e = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layer = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(sorted(benchmark_json_names("end_to_end")), sorted(e2e));
        assert_eq!(sorted(benchmark_json_names("per_layer")), sorted(layer));
    }

    #[test]
    fn the_result_line_names_exactly_the_declared_metrics() {
        let mut report = Report::default();
        report.op(true, String::new);
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.finish(&END_TO_END);
        let json: serde_json::Value = serde_json::from_str(&line).unwrap();
        let metrics = json.get("metrics").and_then(|m| m.as_object()).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(printed, declared);
        assert!(line.starts_with("{\"correct\": true"), "{line}");

        let mut short = Report::default();
        short.op(true, String::new);
        short.set("setup_s", 1.0);
        let line = short.finish(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
