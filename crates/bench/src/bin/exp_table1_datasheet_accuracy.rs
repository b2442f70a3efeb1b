//! Table 1 — datasheet "typical" power vs deployed median.
//!
//! The fleet runs for a simulated week; per router model we take the
//! median of the firmware-reported power traces (the dataset's SNMP
//! source) and compare against the datasheet figures the paper lists.
//! The expected shape: most models overstated by 20–40 %, the two Cisco
//! 8000-series models *understated*.

use fj_bench::{banner, paper, short_window, standard_fleet, table::*};
use fj_datasheets::analysis::datasheet_accuracy_table;
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_units::median;

fn main() {
    let _run = banner("Table 1", "datasheet accuracy against deployed medians");
    let mut fleet = standard_fleet();
    let (start, end, step) = short_window();
    let traces = trace::collect_streaming(
        &mut fleet,
        start,
        end,
        step,
        vec![],
        &[],
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("trace collection")
    .trace;

    // Median power per hardware model: median over time of the summed
    // per-router medians' mean — we follow the paper and take each
    // router's trace median, then average routers of the same model.
    let mut rows = Vec::new();
    for (model, _paper_measured, stated) in paper::TABLE1 {
        let mut medians = Vec::new();
        for rt in &traces.routers {
            if rt.model == model {
                let series = if rt.psu_reported.is_empty() {
                    &rt.predicted // non-reporting models: no SNMP trace
                } else {
                    &rt.psu_reported
                };
                if let Ok(m) = series.median() {
                    medians.push(m);
                }
            }
        }
        if medians.is_empty() {
            continue;
        }
        let measured = median(&medians).expect("non-empty");
        rows.push((model.to_owned(), measured, stated));
    }

    let table = datasheet_accuracy_table(rows);
    let t = TablePrinter::new(&[20, 12, 12, 12, 12, 12, 7]);
    t.header(&[
        "router model",
        "measured W",
        "paper W",
        "datasheet W",
        "over %",
        "paper %",
        "shape",
    ]);
    for row in &table {
        let paper_row = paper::TABLE1
            .iter()
            .find(|(m, _, _)| *m == row.model)
            .expect("model transcribed");
        let paper_over = 100.0 * (paper_row.2 - paper_row.1) / paper_row.2;
        t.row(&[
            row.model.clone(),
            fmt(row.measured_w, 0),
            fmt(paper_row.1, 0),
            fmt(row.datasheet_w, 0),
            pct(row.overestimation_pct()),
            pct(paper_over),
            // Shape: the sign and rough magnitude of the overestimation.
            shape(paper_over, row.overestimation_pct(), 0.5, 8.0).to_owned(),
        ]);
    }

    let signs_match = table.iter().all(|row| {
        let paper_row = paper::TABLE1.iter().find(|(m, _, _)| *m == row.model);
        paper_row.is_none_or(|(_, measured, stated)| {
            ((stated - measured) > 0.0) == (row.overestimation_pct() > 0.0)
        })
    });
    println!(
        "\nheadline: 8000-series underestimates, everything else overestimates — {}",
        if signs_match {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
}
