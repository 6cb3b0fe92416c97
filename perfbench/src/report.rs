//! Metric names, the pass/failure tally, and the result line.
//!
//! The two tables below are the benchmark's metric contract (mirrored
//! in `BENCHMARK.json`): an untraced run reports every end-to-end
//! metric, a traced run every per-layer metric. A per-layer metric whose
//! layer a workload never calls reads 0 on that workload.

use rcoal_scenario::json::{ObjBuilder, Value};
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "samples/s"),
    ("scenarios_per_s", "scenarios/s"),
    ("replay_per_s", "scenarios/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("experiments.gen_s", "s"),
    ("experiments.gen_us_per_sample", "us"),
    ("workload.build_kernel_us", "us"),
    ("attack.push_s", "s"),
    ("attack.pairs", "count"),
    ("attack.predict_ns", "ns"),
    ("attack.accumulate_ns", "ns"),
    ("attack.checkpoint_s", "s"),
    ("attack.parallel_eff", "ratio"),
    ("audit.push_s", "s"),
    ("audit.self_s", "s"),
    ("audit.finish_s", "s"),
    ("audit.batch_s", "s"),
    ("gpu-sim.kernel_ms", "ms"),
    ("gpu-sim.cycles_per_s", "cycles/s"),
    ("gpu-sim.sim_cycles", "cycles"),
    ("gpu-sim.row_hit_rate", "ratio"),
    ("gpu-sim.mshr_merged", "count"),
    ("gpu-sim.mem_latency_mean", "cycles"),
    ("experiments.sweep_cold_s", "s"),
    ("experiments.sweep_warm_s", "s"),
    ("experiments.launched", "count"),
    ("experiments.served", "count"),
    ("experiments.encode_us", "us"),
    ("experiments.decode_us", "us"),
    ("scenario.hash_us", "us"),
    ("scenario.cache_hit_ratio", "ratio"),
    ("scenario.disk_stores", "count"),
    ("scenario.write_failures", "count"),
    ("scenario.store_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Largest allowed gap between 1 and `trace.coverage`: the layer spans
/// must account for the traced wall time to within this share.
pub const COVERAGE_BOUND: f64 = 0.05;

/// Operations attempted and failed: chunks, scenarios, and correctness
/// checks. Every failure is kept with its reason.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one correctness check.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts one operation that returned an error.
    pub fn error(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(msg);
    }
}

/// Metric values keyed by name; names outside the two tables are a bug.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the benchmark's tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The JSON `metrics` object over `table`, in table order.
    fn to_value(&self, table: &[(&'static str, &'static str)]) -> Value {
        Value::Obj(
            table
                .iter()
                .map(|&(name, unit)| {
                    let metric = ObjBuilder::new()
                        .field("value", Value::f64(self.get(name)))
                        .field("unit", Value::str(unit))
                        .build();
                    (name.to_string(), metric)
                })
                .collect(),
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The result line: the last line the benchmark prints.
pub fn result_line(tally: &Tally, metrics: &Metrics, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    ObjBuilder::new()
        .field("correct", Value::Bool(tally.failed == 0))
        .field("attempted", Value::u64(tally.attempted.max(1)))
        .field("failed", Value::u64(tally.failed))
        .field("metrics", metrics.to_value(table))
        .build()
        .to_json()
}

/// The per-layer table printed by traced runs.
pub fn layer_table(metrics: &Metrics) -> String {
    let mut out = String::from("per-layer metrics (medians over traced passes; probes once)\n");
    for &(name, unit) in PER_LAYER {
        out.push_str(&format!(
            "  {name:<32} {:>16.6} {unit}\n",
            metrics.get(name)
        ));
    }
    out
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a digest of `bytes` as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", rcoal_scenario::fnv1a_64(bytes))
}

/// Digest of a sequence of 64-bit words (little-endian).
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> String {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    digest(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25);
        let line = result_line(&Tally::default(), &m, false);
        let v = Value::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("wall_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
