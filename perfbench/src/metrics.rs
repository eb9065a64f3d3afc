//! The metric catalogue, the run summary and its JSON output line.
//!
//! The two tables below are the only place metric names and units are
//! spelled out; a test checks them against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("event_ms.p50", "ms"),
    ("event_ms.p90", "ms"),
    ("proposals_per_event", "ratio"),
    ("floodings_per_event", "ratio"),
    ("convergence_rounds", "rounds"),
    ("tree_cost", "cost"),
    ("datagrams_per_event", "ratio"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_ms", "ms"),
    ("topology.spf.hits", "count"),
    ("topology.spf.misses", "count"),
    ("topology.spf.repairs", "count"),
    ("topology.spf.settled_nodes", "count"),
    ("topology.spf.hit_ratio", "ratio"),
    ("topology.spf.miss_ms", "ms"),
    ("mctree.calls", "count"),
    ("mctree.ms", "ms"),
    ("mctree.self_ms", "ms"),
    ("mctree.us_per_call", "us"),
    ("core.computations", "count"),
    ("core.withdrawn", "count"),
    ("core.withdrawn_ratio", "ratio"),
    ("core.installs", "count"),
    ("core.disrupted_edges", "count"),
    ("core.switch_self_ms", "ms"),
    ("lsr.mc_lsas", "count"),
    ("lsr.duplicates", "count"),
    ("lsr.dup_ratio", "ratio"),
    ("lsr.router_floods", "count"),
    ("des.events", "count"),
    ("des.ns_per_event", "ns"),
    ("obs.metrics_mode_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("node.spawn_ms", "ms"),
    ("node.ctl_rtt_ms", "ms"),
    ("node.polls_per_event", "count"),
    ("node.tx_datagrams", "count"),
    ("node.core_us", "us"),
    ("node.encode_us", "us"),
    ("node.decode_us", "us"),
    ("node.frame_bytes", "bytes"),
    ("node.max_frame_bytes", "bytes"),
    ("node.io_ms", "ms"),
];

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Summary {
    /// `false` when a check on the program's outputs failed.
    pub correct: bool,
    /// Operations attempted (run calls, consensus checks, commands).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Summary {
    pub fn new() -> Summary {
        Summary {
            correct: true,
            ..Summary::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed output check: the run is reported as incorrect.
    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.correct = false;
    }

    /// Asserts `a == b` for a deterministic count, as an output check.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.problem(format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// Sets `success_ratio` from the operation counts.
    pub fn set_success_ratio(&mut self) {
        let ok = self.attempted - self.failed;
        self.set("success_ratio", ratio(ok as f64, self.attempted as f64));
    }

    /// The human-readable table and the final JSON line for `table`.
    ///
    /// # Panics
    ///
    /// Panics when a metric of `table` was not measured or a measured one is
    /// not in `table`: both are bugs in this benchmark.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        let mut json = Vec::new();
        for &(name, unit) in table {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            out.push_str(&format!("{name:<28} {value:>16.6} {unit}\n"));
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for name in self.values.keys() {
            assert!(
                table.iter().any(|&(n, _)| n == *name),
                "metric {name} is not in the catalogue"
            );
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            json.join(", ")
        ));
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Peak resident set size of `pid` (`"self"` for this process), in MB,
/// from `/proc/<pid>/status`; 0 where the kernel does not report it.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_obs::JsonValue;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        root.get(section)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn catalogue(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), catalogue(END_TO_END));
        assert_eq!(declared("per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn rendered_names_equal_the_catalogue() {
        let mut summary = Summary::new();
        for &(name, _) in END_TO_END {
            summary.set(name, 1.5);
        }
        let out = summary.render(END_TO_END);
        let last = out.lines().last().unwrap();
        let json = JsonValue::parse(last).unwrap();
        let JsonValue::Obj(metrics) = json.get("metrics").unwrap() else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, want);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Summary::new().render(END_TO_END);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }
}
