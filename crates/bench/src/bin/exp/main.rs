//! The experiment runner: every table and figure of the paper, plus the
//! extensions, behind one registry.
//!
//! `exp <id>` runs one experiment in-process and records every verdict it
//! prints in `target/fidelity/<id>.json`. `exp all` runs each id in its
//! own child process (telemetry is process-global, and the SNMP and
//! Autopower planes write to it implicitly), merges the records into
//! `target/fidelity/FIDELITY.json`, and fails on a panic, a failed child,
//! a drift not in [`EXPECTED_DRIFT`], or an expected drift that no longer
//! shows.

mod extensions;
mod figures;
mod report;
mod sections;
mod tables;

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;

use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_isp::{Fleet, FleetTrace, ScheduledEvent};
use fj_units::{SimDuration, SimInstant};
use serde::Serialize;

use report::{record_path, write_json, Record, Report};

/// An experiment prints its tables and records each verdict in the report.
type Experiment = fn(&mut Report);

/// Every experiment, by id, in the order of `EXPERIMENTS.md`.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1_network", figures::fig1_network),
    ("fig2_efficiency", figures::fig2_efficiency),
    (
        "table1_datasheet_accuracy",
        tables::table1_datasheet_accuracy,
    ),
    ("table2_power_models", tables::table2_power_models),
    ("table6_additional_models", tables::table6_additional_models),
    ("fig4_validation", figures::fig4_validation),
    ("fig9_offset_zoom", figures::fig9_offset_zoom),
    ("fig5_psu_curve", figures::fig5_psu_curve),
    ("fig6_psu_scatter", figures::fig6_psu_scatter),
    ("table3_psu_savings", tables::table3_psu_savings),
    ("table4_psu_sizing", tables::table4_psu_sizing),
    ("table5_port_type_params", tables::table5_port_type_params),
    ("fig8_os_update", figures::fig8_os_update),
    ("sec7_insights", sections::sec7_insights),
    ("sec8_link_sleeping", sections::sec8_link_sleeping),
    ("ablations", sections::ablations),
    ("fig7_autopower_status", figures::fig7_autopower_status),
    ("ext_modular", extensions::ext_modular),
    ("ext_hot_standby", extensions::ext_hot_standby),
    ("ext_green_monitoring", extensions::ext_green_monitoring),
    ("ext_parser_quality", extensions::ext_parser_quality),
    ("ext_long_horizon", extensions::ext_long_horizon),
    ("ext_combined_savings", extensions::ext_combined_savings),
    ("ext_replication", extensions::ext_replication),
];

/// The cells that are known to drift from the paper, as
/// `(experiment, row, quantity)`; `EXPERIMENTS.md` explains each. Every
/// other cell must be `ok`.
const EXPECTED_DRIFT: &[(&str, &str, &str)] = &[
    ("table1_datasheet_accuracy", "8201-32FH", "over %"),
    ("table3_psu_savings", "≥Bronze PSUs", "saved %"),
    ("table3_psu_savings", "≥Silver PSUs", "saved %"),
    ("table4_psu_sizing", "250 W", "k=1 %"),
    ("table4_psu_sizing", "400 W", "k=1 %"),
    ("table4_psu_sizing", "2000 W", "k=1 %"),
    ("table4_psu_sizing", "2700 W", "k=1 %"),
    ("table5_port_type_params", "SFP+", "P_port W"),
    ("table5_port_type_params", "QSFP-DD", "P_port W"),
    (
        "sec8_link_sleeping",
        "external share of trx power",
        "fraction",
    ),
];

/// The workspace `target/` directory all dumps go under.
fn target_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
}

/// Collects a clean (fault-free) streaming trace of `fleet` over
/// `(start, end, step)` with the default engine settings.
fn collect(
    fleet: &mut Fleet,
    (start, end, step): (SimInstant, SimInstant, SimDuration),
    events: Vec<ScheduledEvent>,
    instrumented: &[usize],
) -> FleetTrace {
    trace::collect_streaming(
        fleet,
        start,
        end,
        step,
        events,
        instrumented,
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("trace collection")
    .trace
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "all" {
        return run_all();
    }
    let Some(&(id, experiment)) = EXPERIMENTS.iter().find(|(id, _)| *id == arg) else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!("usage: exp <id> | exp all\nids: {}", ids.join(" "));
        return ExitCode::from(2);
    };
    let mut report = Report::new(id, Arc::clone(fj_telemetry::global()), target_dir());
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| experiment(&mut report)));
    if report.finish(result).outcome == "ok" {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The merged ledger written to `target/fidelity/FIDELITY.json`.
#[derive(Serialize)]
struct Fidelity {
    experiments: Vec<Record>,
    problems: Vec<String>,
}

/// Runs every experiment in its own child process, merges the records,
/// and gates them against [`EXPECTED_DRIFT`].
fn run_all() -> ExitCode {
    let target = target_dir();
    let mut records = Vec::new();
    let mut problems = Vec::new();
    for (id, _) in EXPERIMENTS {
        let path = record_path(&target, id);
        if path.exists() {
            if let Err(e) = std::fs::remove_file(&path) {
                problems.push(format!("{id}: cannot clear the old record: {e}"));
            }
        }
        match std::env::current_exe().and_then(|exe| Command::new(exe).arg(id).status()) {
            Ok(status) if status.success() => {}
            Ok(status) => problems.push(format!("{id}: child {status}")),
            Err(e) => problems.push(format!("{id}: cannot run: {e}")),
        }
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        records.extend(serde_json::from_str::<Record>(&text).ok());
    }
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    problems.extend(gate(&ids, &records, EXPECTED_DRIFT));
    let cells: usize = records.iter().map(|r| r.cells.len()).sum();
    let ledger = target.join("fidelity/FIDELITY.json");
    println!(
        "\n==============================================================\n\
         fidelity: {} of {} experiments recorded, {cells} cells, {} expected drifts\n\
         ledger: {}",
        records.len(),
        ids.len(),
        EXPECTED_DRIFT.len(),
        ledger.display()
    );
    let mut fidelity = Fidelity {
        experiments: records,
        problems,
    };
    if let Err(e) = write_json(&ledger, &fidelity) {
        fidelity
            .problems
            .push(format!("cannot write the ledger: {e}"));
    }
    for problem in &fidelity.problems {
        println!("FAIL {problem}");
    }
    if fidelity.problems.is_empty() {
        println!("every verdict as expected");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares the records of a full run with the registry and the expected
/// drift set; every returned line is one reason to fail: a missing or
/// panicked experiment, a drift cell not in `expected`, or an expected
/// drift that a completed experiment no longer shows.
fn gate(ids: &[&str], records: &[Record], expected: &[(&str, &str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for id in ids {
        match records.iter().find(|r| r.experiment == *id) {
            None => problems.push(format!("{id}: missing (no record)")),
            Some(r) if r.outcome != "ok" => {
                let message = r.message.as_deref().unwrap_or("");
                problems.push(format!("{id}: {}: {message}", r.outcome));
            }
            Some(_) => {}
        }
    }
    let number = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
    let mut drifted = BTreeSet::new();
    for c in records.iter().flat_map(|r| &r.cells) {
        let key = (c.experiment.as_str(), c.row.as_str(), c.quantity.as_str());
        if c.verdict == "ok" || !drifted.insert(key) || expected.contains(&key) {
            continue;
        }
        problems.push(format!(
            "new drift: {} / {} / {}: paper {}, measured {}, rel_tol {}, abs_tol {}",
            key.0,
            key.1,
            key.2,
            number(c.paper),
            number(c.measured),
            number(c.rel_tol),
            number(c.abs_tol),
        ));
    }
    for &(id, row, quantity) in expected {
        let completed = records
            .iter()
            .any(|r| r.experiment == id && r.outcome == "ok");
        if completed && !drifted.contains(&(id, row, quantity)) {
            problems.push(format!(
                "expected drift no longer shows: {id} / {row} / {quantity}"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Cell;

    fn cell(experiment: &str, row: &str, verdict: &str) -> Cell {
        Cell {
            experiment: experiment.to_owned(),
            row: row.to_owned(),
            quantity: "W".to_owned(),
            paper: Some(1.0),
            measured: Some(2.0),
            rel_tol: Some(0.1),
            abs_tol: Some(0.0),
            verdict: verdict.to_owned(),
        }
    }

    fn record(experiment: &str, cells: Vec<Cell>) -> Record {
        Record {
            experiment: experiment.to_owned(),
            outcome: "ok".to_owned(),
            message: None,
            cells,
        }
    }

    const IDS: &[&str] = &["a", "b"];
    const EXPECTED: &[(&str, &str, &str)] = &[("a", "x", "W")];

    fn baseline() -> Vec<Record> {
        vec![
            record("a", vec![cell("a", "x", "drift"), cell("a", "y", "ok")]),
            record("b", vec![cell("b", "z", "ok")]),
        ]
    }

    #[test]
    fn an_identical_drift_set_passes() {
        assert_eq!(gate(IDS, &baseline(), EXPECTED), Vec::<String>::new());
    }

    #[test]
    fn a_new_drift_fails_and_names_the_cell() {
        let mut records = baseline();
        records[1].cells[0].verdict = "drift".to_owned();
        let problems = gate(IDS, &records, EXPECTED);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("new drift: b / z / W"),
            "{problems:?}"
        );
    }

    #[test]
    fn a_vanished_drift_fails() {
        let mut records = baseline();
        records[0].cells[0].verdict = "ok".to_owned();
        let problems = gate(IDS, &records, EXPECTED);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("no longer shows: a / x / W"),
            "{problems:?}"
        );
    }

    #[test]
    fn a_panic_fails() {
        let mut records = baseline();
        records[1].outcome = "panic".to_owned();
        records[1].message = Some("boom".to_owned());
        assert_eq!(gate(IDS, &records, EXPECTED), ["b: panic: boom"]);
    }

    #[test]
    fn a_missing_experiment_fails() {
        let mut records = baseline();
        records.pop();
        assert_eq!(gate(IDS, &records, EXPECTED), ["b: missing (no record)"]);
    }

    #[test]
    fn registry_ids_are_unique_and_match_the_experiments_doc() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        // The doc names each experiment as `exp <id>` (and the runner
        // mode as `exp all`).
        let doc = include_str!("../../../../../EXPERIMENTS.md");
        let documented: BTreeSet<&str> = doc
            .split("`exp ")
            .skip(1)
            .filter_map(|rest| rest.split('`').next())
            .filter(|id| *id != "all")
            .collect();
        assert_eq!(documented, ids);
    }

    #[test]
    fn expected_drifts_name_registered_experiments() {
        for (id, _, _) in EXPECTED_DRIFT {
            assert!(
                EXPERIMENTS.iter().any(|(e, _)| e == id),
                "{id} is not an experiment"
            );
        }
    }
}
