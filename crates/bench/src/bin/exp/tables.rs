//! Tables 1–6 of the paper.

use fj_bench::table::{fmt, pct, TablePrinter};
use fj_bench::{paper, short_window, standard_fleet, EXPERIMENT_SEED};
use fj_core::InterfaceClass;
use fj_datasheets::analysis::datasheet_accuracy_table;
use fj_isp::stats::psu_snapshot;
use fj_netpowerbench::{Derivation, DerivationConfig};
use fj_psu::{
    combined_savings, right_sizing_savings, single_psu_savings, uplift_savings, EightyPlus,
    SavingsReport,
};
use fj_units::median;

use crate::collect;
use crate::report::Report;

/// Table 1 — datasheet "typical" power vs deployed median.
///
/// The fleet runs for a simulated week; per router model we take the
/// median of the firmware-reported power traces (the dataset's SNMP
/// source) and compare against the datasheet figures the paper lists.
/// The expected shape: most models overstated by 20–40 %, the two Cisco
/// 8000-series models *understated*.
pub fn table1_datasheet_accuracy(r: &mut Report) {
    r.header("Table 1", "datasheet accuracy against deployed medians");
    let mut fleet = standard_fleet();
    let traces = collect(&mut fleet, short_window(), vec![], &[]);

    // Median power per hardware model: we follow the paper and take each
    // router's trace median, then the median over routers of that model.
    let mut rows = Vec::new();
    for (model, _paper_measured, stated) in paper::TABLE1 {
        let medians: Vec<f64> = traces
            .routers
            .iter()
            .filter(|rt| rt.model == model)
            // Non-reporting models have no SNMP trace: use the model's.
            .map(|rt| {
                if rt.psu_reported.is_empty() {
                    &rt.predicted
                } else {
                    &rt.psu_reported
                }
            })
            .filter_map(|series| series.median().ok())
            .collect();
        if let Ok(measured) = median(&medians) {
            rows.push((model.to_owned(), measured, stated));
        }
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
    let mut signs_match = true;
    for row in &table {
        let (_, paper_measured, stated) = paper::TABLE1
            .into_iter()
            .find(|(m, _, _)| *m == row.model)
            .expect("model transcribed");
        let paper_over = 100.0 * (stated - paper_measured) / stated;
        let over = row.overestimation_pct();
        signs_match &= (paper_over > 0.0) == (over > 0.0);
        t.row(&[
            row.model.as_str(),
            &fmt(row.measured_w, 0),
            &fmt(paper_measured, 0),
            &fmt(row.datasheet_w, 0),
            &pct(over),
            &pct(paper_over),
            // Shape: the sign and rough magnitude of the overestimation.
            r.check(&row.model, "over %", paper_over, over, 0.5, 8.0),
        ]);
    }

    let headline = "8000-series underestimates, everything else overestimates";
    let reproduced = match r.claim(headline, signs_match) {
        "ok" => "reproduced",
        _ => "NOT reproduced",
    };
    println!("\nheadline: {headline} — {reproduced}");
}

/// Table 2 — lab-derived power models for the four body-text devices.
///
/// For each device, NetPowerBench runs the full Base/Idle/Port/Trx/Snake
/// methodology against the simulator and the derived parameters are
/// printed next to the published row. The derivation sees only noisy
/// wall-power measurements.
pub fn table2_power_models(r: &mut Report) {
    r.header("Table 2", "derived power models (body-text devices)");
    derive_rows(r, &paper::TABLE2);
}

/// Table 6 — the appendix's additional power models, same pipeline as
/// Table 2 on four more devices (EdgeCore Wedge, Nexus 93108, VSP-4900,
/// Catalyst 3560).
pub fn table6_additional_models(r: &mut Report) {
    r.header("Table 6", "derived power models (appendix devices)");
    derive_rows(r, &paper::TABLE6);
}

/// The Table 2/6 parameter columns in print order: (name, printed digits,
/// rel_tol, abs_tol).
const PARAMS: [(&str, usize, f64, f64); 7] = [
    ("P_base", 1, 0.01, 0.5),
    ("P_port", 2, 0.15, 0.06),
    ("P_trx,in", 2, 0.15, 0.06),
    ("P_trx,up", 2, 0.25, 0.08),
    ("E_bit pJ", 1, 0.3, 1.5),
    ("E_pkt nJ", 1, 0.4, 8.0),
    ("P_off", 2, 0.5, 0.15),
];

/// Runs a thorough derivation per published row and prints a
/// paper / derived / shape triplet for every parameter.
fn derive_rows(r: &mut Report, rows: &[paper::PaperModelRow]) {
    let t = TablePrinter::new(&[20, 10, 9, 9, 9, 9, 9, 9, 9]);
    let mut header = vec!["router / source", "class"];
    header.extend(PARAMS.map(|(name, ..)| name));
    t.header(&header);

    for row in rows {
        let class: InterfaceClass = row.class.parse().expect("class parses");
        let config = DerivationConfig::thorough(row.router, class.transceiver, class.speed)
            .expect("builtin model");
        let derived = Derivation::run(&config, EXPERIMENT_SEED).expect("derivation");
        let p = derived.params();
        let published = [
            row.p_base,
            row.p_port,
            row.p_trx_in,
            row.p_trx_up,
            row.e_bit_pj,
            row.e_pkt_nj,
            row.p_offset,
        ];
        let values = [
            derived.model.p_base.as_f64(),
            p.p_port.as_f64(),
            p.p_trx_in.as_f64(),
            p.p_trx_up.as_f64(),
            p.e_bit.as_picojoules(),
            p.e_pkt.as_nanojoules(),
            p.p_offset.as_f64(),
        ];
        let mut lines = [
            vec![
                format!("{} paper", row.router),
                row.class.replace("Passive DAC", "DAC"),
            ],
            vec!["  derived".to_owned(), String::new()],
            vec!["  shape".to_owned(), String::new()],
        ];
        for (i, (name, digits, rel, abs)) in PARAMS.into_iter().enumerate() {
            let (paper, value) = (published[i], values[i]);
            lines[0].push(fmt(paper, digits));
            lines[1].push(fmt(value, digits));
            lines[2].push(r.check(row.router, name, paper, value, rel, abs).to_owned());
        }
        for line in &lines {
            t.row(line);
        }
        println!(
            "    fits: port R²={:.4}  trx R²={:.4}  rate R²≥{:.4}  size R²={:.4}",
            derived.diagnostics.port_r2,
            derived.diagnostics.trx_r2,
            derived.diagnostics.worst_alpha_r2,
            derived.diagnostics.ebit_r2
        );
    }
    println!(
        "\nnote: the N540X-class low-speed devices carry the paper's dagger —\n\
         at 1G the traffic-induced power is so small that E_bit/E_pkt are\n\
         imprecise by construction; the error matters as little here as there."
    );
}

/// Table 3 — savings from more efficient PSUs, single-PSU loading, and
/// both combined.
pub fn table3_psu_savings(r: &mut Report) {
    r.header("Table 3", "PSU efficiency what-ifs");
    let data = psu_snapshot(&standard_fleet());
    println!(
        "\nfleet snapshot: {} PSUs, {:.1} kW total input power\n",
        data.observations.len(),
        data.total_input_power_w() / 1e3
    );

    let t = TablePrinter::new(&[26, 10, 10, 10, 10, 7]);
    t.header(&[
        "measure", "saved W", "saved %", "paper W", "paper %", "shape",
    ]);
    let row = |r: &mut Report, measure: String, s: SavingsReport, paper: (f64, f64), abs| {
        let (paper_pct, paper_w) = paper;
        let shape = r.check(&measure, "saved %", paper_pct, s.percent(), 0.6, abs);
        t.row(&[
            measure,
            fmt(s.saved_w, 0),
            fmt(s.percent(), 1),
            fmt(paper_w, 0),
            fmt(paper_pct, 1),
            shape.to_owned(),
        ]);
    };

    // §9.3.2: raise every PSU to at least each 80 Plus level.
    for (level, (name, paper_pct, paper_w)) in EightyPlus::ALL.iter().zip(paper::TABLE3_UPLIFT) {
        let s = uplift_savings(&data, *level);
        row(r, format!("≥{name} PSUs"), s, (paper_pct, paper_w), 1.2);
    }

    // §9.3.4: concentrate load on a single PSU.
    let single = single_psu_savings(&data);
    row(
        r,
        "only one PSU".to_owned(),
        single,
        paper::TABLE3_SINGLE_PSU,
        1.5,
    );

    // §9.3.5: both measures together.
    for (level, (name, paper_pct, paper_w)) in EightyPlus::ALL.iter().zip(paper::TABLE3_COMBINED) {
        let s = combined_savings(&data, *level);
        row(r, format!("one ≥{name} PSU"), s, (paper_pct, paper_w), 2.0);
    }

    // The qualitative orderings that make the table's argument.
    let bronze = uplift_savings(&data, EightyPlus::Bronze).percent();
    let titanium = uplift_savings(&data, EightyPlus::Titanium).percent();
    let both_titanium = combined_savings(&data, EightyPlus::Titanium).percent();
    println!("\nshape checks:");
    println!(
        "  Titanium > Bronze uplift:      {}",
        r.claim("Titanium > Bronze uplift", titanium > bronze)
    );
    println!(
        "  combined ≥ each measure alone: {}",
        r.claim(
            "combined ≥ each measure alone",
            both_titanium + 1e-9 >= titanium && both_titanium + 1e-9 >= single.percent()
        )
    );
}

/// Table 4 — right-sizing PSU capacities (k = 1 and k = 2).
///
/// Expected shape: small minimum capacities save a couple of percent,
/// savings shrink toward zero around 1100 W, and forcing everything to
/// 2000/2700 W *costs* about a percent — and the k = 1 / k = 2 columns
/// barely differ (over-dimensioning is cheap; inefficiency is not).
pub fn table4_psu_sizing(r: &mut Report) {
    r.header("Table 4", "PSU capacity right-sizing");
    let data = psu_snapshot(&standard_fleet());

    let k1 = right_sizing_savings(&data, 1.0);
    let k2 = right_sizing_savings(&data, 2.0);

    let t = TablePrinter::new(&[12, 10, 10, 10, 10, 12, 12, 7]);
    t.header(&[
        "min cap W",
        "k=1 W",
        "k=1 %",
        "k=2 W",
        "k=2 %",
        "paper k=1 %",
        "paper k=2 %",
        "shape",
    ]);
    for (i, (cap, p_k1_pct, _p_k1_w, p_k2_pct, _p_k2_w)) in paper::TABLE4.iter().enumerate() {
        let (c1, s1) = k1.rows[i];
        let (_c2, s2) = k2.rows[i];
        assert_eq!(c1, *cap, "capacity options aligned");
        t.row(&[
            fmt(*cap, 0),
            fmt(s1.saved_w, 0),
            fmt(s1.percent(), 1),
            fmt(s2.saved_w, 0),
            fmt(s2.percent(), 1),
            fmt(*p_k1_pct, 0),
            fmt(*p_k2_pct, 0),
            r.check(
                &format!("{cap} W"),
                "k=1 %",
                *p_k1_pct,
                s1.percent(),
                0.8,
                1.2,
            )
            .to_owned(),
        ]);
    }

    let k1_pcts: Vec<f64> = k1.rows.iter().map(|(_, s)| s.percent()).collect();
    let checks = [
        (
            "savings shrink with capacity",
            k1_pcts.windows(2).all(|w| w[0] >= w[1] - 0.2),
        ),
        ("smallest capacity saves most", k1_pcts[0] > 0.5),
        (
            "forcing 2700 W saves ~nothing",
            *k1_pcts.last().expect("rows") < 0.3,
        ),
        (
            "k=1 ≈ k=2 (cheap redundancy)",
            k1.rows
                .iter()
                .zip(&k2.rows)
                .all(|((_, a), (_, b))| (a.percent() - b.percent()).abs() < 0.8),
        ),
    ];
    println!("\nshape checks:");
    for (label, holds) in checks {
        println!("  {:<30} {}", format!("{label}:"), r.claim(label, holds));
    }
}

/// Table 5 — per-port-type `P_port` / `P_trx,up` used by the §8 link-
/// sleeping evaluation, obtained by averaging all available power models
/// per port type (the paper's own fallback method).
pub fn table5_port_type_params(r: &mut Report) {
    r.header("Table 5", "per-port-type parameter averages for §8");
    let averages = fj_core::builtin_registry().port_type_averages();

    let t = TablePrinter::new(&[10, 12, 12, 12, 12, 7]);
    t.header(&["port", "P_port W", "paper", "P_trx,up W", "paper", "shape"]);
    for (name, paper_port, paper_trx_up) in paper::TABLE5 {
        let port: fj_core::PortType = name.parse().expect("known port type");
        let Some((p_port, p_trx_up)) = averages.get(&port) else {
            continue;
        };
        t.row(&[
            name.to_owned(),
            fmt(p_port.as_f64(), 3),
            fmt(paper_port, 3),
            fmt(p_trx_up.as_f64(), 3),
            fmt(paper_trx_up, 3),
            r.check(name, "P_port W", paper_port, p_port.as_f64(), 0.4, 0.25)
                .to_owned(),
        ]);
    }

    println!(
        "\nnote: the paper averages over *its* model set; ours averages over\n\
         the same published models, so small differences come only from\n\
         which classes each port type aggregates."
    );
}
