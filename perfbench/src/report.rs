//! Metric catalogue, per-call timing accumulators, and the result line.
//!
//! The catalogue here is the single list of metric names and units;
//! `BENCHMARK.json` and `METRICS.md` mirror it (a test checks the JSON).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload in a timed run
/// (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload in a traced run
/// (`--trace 1`); a layer the workload does not reach reads 0 with 0
/// samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("router_sim.wall_power.ns", "ns"),
    ("router_sim.psu_read.ns", "ns"),
    ("router_sim.psu_read.calls_per_rr", "calls/rr"),
    ("traffic.rate.ns", "ns"),
    ("traffic.rate.calls_per_rr", "calls/rr"),
    ("isp.predict.ns", "ns"),
    ("isp.router_step.ns", "ns"),
    ("isp.event_apply.ns", "ns"),
    ("isp.events_applied", "count"),
    ("faults.should_drop.ns", "ns"),
    ("faults.gap_frac", "frac"),
    ("faults.health_transitions", "count"),
    ("isp.simulate_s", "s"),
    ("isp.merge_s", "s"),
    ("isp.merge_ns_per_rr", "ns"),
    ("par.dispatch_wait_s", "s"),
    ("par.merge_overlap_frac", "frac"),
    ("par.efficiency", "frac"),
    ("isp.advance.ms", "ms"),
    ("isp.checkpoint_s", "s"),
    ("isp.checkpoints_written", "count"),
    ("isp.checkpoint_last_bytes", "B"),
    ("alerts.evals", "count"),
    ("alerts.transitions", "count"),
    ("telemetry.events", "count"),
    ("telemetry.spans", "count"),
    ("hypnos.observe.us", "us"),
    ("hypnos.decide_p50_ms", "ms"),
    ("hypnos.decide_tail_ms", "ms"),
    ("hypnos.candidates_per_decision", "count"),
    ("hypnos.slept_frac", "frac"),
    ("snmp.snapshot.us", "us"),
    ("snmp.encode.ns", "ns"),
    ("snmp.decode.ns", "ns"),
    ("snmp.requests_per_get", "count"),
    ("snmp.wait_us", "us"),
    ("snmp.rows_per_walk", "count"),
    ("trace.overhead_frac", "frac"),
    ("split.dominant_frac", "frac"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the catalogue unit.
    pub value: f64,
    /// Samples (runs, calls, units) the value summarises.
    pub samples: u64,
}

/// Values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    /// Records `name` (which must be in a catalogue).
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(EXTRA)
                .any(|(n, _)| *n == name),
            "{name} is not catalogued"
        );
        self.0.insert(name, Value { value, samples });
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }
}

/// Figures printed by name in the human-readable report beside the
/// catalogue but not gated: the workload's own name for `ops_per_s`,
/// the raw (not speed-normalised) readings, per-operation latencies with
/// their tail, and the error rate.
pub const EXTRA: &[(&str, &str)] = &[
    ("router_rounds_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("gets_per_s", "1/s"),
    ("ops_per_s_raw", "1/s"),
    ("setup_s_raw", "s"),
    ("decision_p50_us", "us"),
    ("decision_tail_us", "us"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("get_tail_us", "us"),
    ("error_rate", "frac"),
];

/// Per-call wall-time accumulator for one traced layer boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallStats {
    /// Calls timed.
    pub calls: u64,
    /// Σ measured call time.
    pub total: Duration,
}

impl CallStats {
    /// Times one call into the layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.total += t0.elapsed();
        self.calls += 1;
        out
    }

    /// Mean ns per call with the timer's own cost (`clock_ns`, see
    /// [`clock_overhead_ns`]) taken off; 0 when never called.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.total.as_nanos() as f64 / self.calls as f64 - clock_ns).max(0.0)
    }
}

/// The measured length of an empty timed interval: what
/// [`CallStats::time`] adds to every call. Median of many back-to-back
/// clock pairs.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Formats a number with all its digits (Rust's shortest round-trip
/// form); non-finite values become `null`, which the output check
/// rejects.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `catalogue` (missing ones read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).map_or(0.0, |v| v.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(v),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value as Json;

    fn parse(text: &str) -> Json {
        serde_json::from_str(text).expect("valid JSON")
    }

    fn at<'a>(v: &'a Json, key: &str) -> &'a Json {
        serde::field(v.as_map().expect("JSON object"), key)
    }

    #[test]
    fn result_line_lists_every_catalogued_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, 5);
        let line = parse(&result_line(true, 10, 0, END_TO_END, &m));
        let keys: Vec<&str> = line
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = at(&line, "metrics");
        assert_eq!(metrics.as_map().map(<[_]>::len), Some(END_TO_END.len()));
        assert_eq!(at(at(metrics, "setup_s"), "value"), &Json::Float(0.25));
        assert_eq!(at(at(metrics, "cpu_s"), "unit"), &Json::Str("s".into()));
        assert_eq!(at(&line, "attempted"), &Json::UInt(10));
        assert_eq!(at(&line, "correct"), &Json::Bool(true));
    }

    #[test]
    fn json_keeps_all_digits_and_rejects_non_finite() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn call_stats_subtract_clock_cost() {
        let mut s = CallStats::default();
        assert_eq!(s.mean_ns(20.0), 0.0);
        s.calls = 4;
        s.total = Duration::from_nanos(400);
        assert_eq!(s.mean_ns(20.0), 80.0);
        assert_eq!(s.mean_ns(500.0), 0.0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = parse(&text);
        let listed = |key: &str| -> Vec<(String, String)> {
            at(&spec, key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| at(m, k).as_str().expect("string").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
