//! One experiment's report: the header it prints, every verdict it
//! records, and the run record and telemetry dumps written when it ends.

use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fj_alerts::AlertEngine;
use fj_bench::EXPERIMENT_SEED;
use fj_telemetry::{Level, MetricValue, Telemetry};
use serde::{Deserialize, Serialize};

/// One paper-vs-measured verdict. Claims (qualitative shape checks) carry
/// no numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    pub experiment: String,
    pub row: String,
    pub quantity: String,
    pub paper: Option<f64>,
    pub measured: Option<f64>,
    pub rel_tol: Option<f64>,
    pub abs_tol: Option<f64>,
    pub verdict: String,
}

/// What one experiment run leaves behind in `target/fidelity/<id>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub experiment: String,
    /// `"ok"` or `"panic"`.
    pub outcome: String,
    /// The panic message, when the run panicked.
    pub message: Option<String>,
    pub cells: Vec<Cell>,
}

/// Collects an experiment's verdicts; [`Report::finish`] prints the
/// alerts/telemetry footer and writes the dumps, all named after the id.
pub struct Report {
    id: &'static str,
    telemetry: Arc<Telemetry>,
    target: PathBuf,
    cells: Vec<Cell>,
}

/// The verdict string every table prints.
fn verdict(holds: bool) -> &'static str {
    if holds {
        "ok"
    } else {
        "drift"
    }
}

impl Report {
    /// Starts the report for experiment `id`, writing under `target`
    /// (`telemetry/` and `fidelity/`). Info-and-up events echo to stderr
    /// while the experiment runs, so progress notes stay out of the
    /// machine-readable stdout tables; the flight recorder is armed so
    /// the first health-ladder departure or shard panic dumps its context.
    pub fn new(id: &'static str, telemetry: Arc<Telemetry>, target: PathBuf) -> Report {
        telemetry.events().set_stderr_echo(Some(Level::Info));
        telemetry.arm_flight_recorder(id, target.join("telemetry"));
        Report {
            id,
            telemetry,
            target,
            cells: Vec::new(),
        }
    }

    /// Prints the standard experiment banner.
    pub fn header(&self, label: &str, title: &str) {
        println!("==============================================================");
        println!("{label} — {title}");
        println!("seed {EXPERIMENT_SEED}; all numbers deterministic");
        println!("==============================================================");
    }

    /// Records and returns the shape verdict for one cell: `"ok"` when
    /// `measured` lies within `rel_tol` (relative) or `abs_tol` (absolute)
    /// of `paper`, else `"drift"`. Absolute agreement with the authors'
    /// testbed is out of scope; the *shape* must hold.
    pub fn check(
        &mut self,
        row: &str,
        quantity: &str,
        paper: f64,
        measured: f64,
        rel_tol: f64,
        abs_tol: f64,
    ) -> &'static str {
        let diff = (paper - measured).abs();
        let verdict = verdict(diff <= abs_tol || diff <= rel_tol * paper.abs());
        self.push(
            row,
            quantity,
            [paper, measured, rel_tol, abs_tol].map(Some),
            verdict,
        );
        verdict
    }

    /// Records and returns the verdict of a qualitative shape claim.
    pub fn claim(&mut self, label: &str, holds: bool) -> &'static str {
        let verdict = verdict(holds);
        self.push(label, "claim", [None; 4], verdict);
        verdict
    }

    fn push(&mut self, row: &str, quantity: &str, numbers: [Option<f64>; 4], verdict: &str) {
        let [paper, measured, rel_tol, abs_tol] = numbers;
        self.cells.push(Cell {
            experiment: self.id.to_owned(),
            row: row.to_owned(),
            quantity: quantity.to_owned(),
            paper,
            measured,
            rel_tol,
            abs_tol,
            verdict: verdict.to_owned(),
        });
    }

    /// Ends the run with the experiment's result: a panic becomes an
    /// error-level `experiment panicked` event and a `"panic"` outcome.
    /// Prints the footer, writes the telemetry/alerts dumps and the
    /// record, and returns the record.
    pub fn finish(self, result: std::thread::Result<()>) -> Record {
        let message = result.err().map(|payload| panic_message(&*payload));
        if let Some(message) = &message {
            self.telemetry.event(
                Level::Error,
                "bench.exp",
                "experiment panicked",
                &[
                    ("experiment", self.id.to_owned()),
                    ("message", message.clone()),
                ],
            );
        }
        self.dump_telemetry();
        let record = Record {
            experiment: self.id.to_owned(),
            outcome: if message.is_some() { "panic" } else { "ok" }.to_owned(),
            message,
            cells: self.cells,
        };
        let path = record_path(&self.target, self.id);
        if let Err(e) = write_json(&path, &record) {
            eprintln!("fidelity record {} failed: {e}", path.display());
        }
        record
    }

    /// Evaluates the default alert pack once over the whole run (an
    /// engine's first sample counts the full reading, so one evaluation
    /// computes whole-run SLIs) and prints the metric summary, unless
    /// nothing instrumented ran.
    fn dump_telemetry(&self) {
        let metrics = self.telemetry.registry().snapshot();
        if metrics.is_empty() && self.telemetry.events().is_empty() {
            return; // nothing instrumented ran; keep the output clean
        }
        let dir = self.target.join("telemetry");
        let mut engine = AlertEngine::new(fj_alerts::default_pack());
        engine.eval_and_trip(&self.telemetry, self.telemetry.now());
        let rendered = engine.render_prometheus();
        if !rendered.is_empty() {
            println!("\n--- alerts ---");
            print!("{rendered}");
        }
        let path = dir.join(format!("alerts-{}.json", self.id));
        match engine.write_alerts_json(&path) {
            Ok(()) => println!("alert dump: {}", path.display()),
            Err(e) => eprintln!("alert dump failed: {e}"),
        }
        println!(
            "\n--- telemetry ({} series, {} events) ---",
            metrics.len(),
            self.telemetry.events().len()
        );
        for m in &metrics {
            let labels = if m.labels.is_empty() {
                String::new()
            } else {
                let inner: Vec<String> =
                    m.labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
                format!("{{{}}}", inner.join(","))
            };
            match &m.value {
                MetricValue::Counter(c) => println!("  {}{labels} {c}", m.name),
                MetricValue::Gauge(g) => println!("  {}{labels} {g}", m.name),
                MetricValue::Histogram(h) => println!(
                    "  {}{labels} count={} mean={:.6} p99={:.6}",
                    m.name,
                    h.count,
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                ),
            }
        }
        let path = dir.join(format!("{}.json", self.id));
        match self.telemetry.write_snapshot(&path) {
            Ok(()) => println!("telemetry snapshot: {}", path.display()),
            Err(e) => eprintln!("telemetry snapshot failed: {e}"),
        }
        if let Some(dump) = self.telemetry.flight_recorder_path() {
            println!("flight recorder dump: {}", dump.display());
        }
    }
}

/// Where the record of experiment `id` lives under `target`.
pub fn record_path(target: &Path, id: &str) -> PathBuf {
    target.join("fidelity").join(format!("{id}.json"))
}

/// Writes `value` as pretty JSON, creating parent directories.
pub fn write_json(path: &Path, value: &impl Serialize) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fj-exp-{name}-{}", std::process::id()))
    }

    #[test]
    fn check_applies_the_shape_rule() {
        let mut r = Report::new("check", Telemetry::new(), scratch("check"));
        assert_eq!(r.check("a", "q", 100.0, 104.0, 0.05, 0.0), "ok");
        assert_eq!(r.check("b", "q", 100.0, 120.0, 0.05, 0.0), "drift");
        assert_eq!(r.check("c", "q", 0.0, 0.3, 0.05, 0.5), "ok");
        assert_eq!(r.check("d", "q", 1.0, f64::NAN, 0.5, 0.5), "drift");
        assert_eq!(r.claim("e", false), "drift");
        let verdicts: Vec<&str> = r.cells.iter().map(|c| c.verdict.as_str()).collect();
        assert_eq!(verdicts, ["ok", "drift", "ok", "drift", "drift"]);
        assert_eq!(r.cells[1].measured, Some(120.0));
        assert_eq!(r.cells[4].paper, None);
    }

    #[test]
    fn a_panicking_experiment_is_recorded_as_a_panic() {
        fn boom(r: &mut Report) {
            r.check("row", "q", 1.0, 1.0, 0.0, 0.0);
            panic!("boom at row 2");
        }
        let target = scratch("panic");
        let telemetry = Telemetry::new();
        let mut r = Report::new("panicking", Arc::clone(&telemetry), target.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| boom(&mut r)));
        let record = r.finish(result);

        assert_eq!(record.outcome, "panic");
        assert_eq!(record.message.as_deref(), Some("boom at row 2"));
        assert_eq!(record.cells.len(), 1, "cells before the panic are kept");
        let on_disk: Record = serde_json::from_str(
            &std::fs::read_to_string(record_path(&target, "panicking")).expect("record written"),
        )
        .expect("record parses");
        assert_eq!(on_disk, record);
        // Nothing else was instrumented, yet the snapshot is written and
        // carries the error-level event.
        let snapshot =
            std::fs::read_to_string(target.join("telemetry/panicking.json")).expect("snapshot");
        assert!(snapshot.contains("experiment panicked"), "{snapshot}");
        assert!(snapshot.contains("\"level\": \"error\""), "{snapshot}");
        let _ = std::fs::remove_dir_all(&target);
    }
}
