//! Fig. 1 — total network power vs total traffic over time.
//!
//! The figure's message: the network draws ≈21.5 kW, traffic swings
//! diurnally around ≈1.3 % of capacity, and the correlation between
//! power and traffic is invisible at the network scale; the visible
//! power jumps coincide with hardware (de)commissioning.

use fj_bench::{banner, paper, standard_fleet, standard_window, table::*};
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_isp::{EventKind, ScheduledEvent};
use fj_units::{correlation, SimInstant, Watts};

fn main() {
    let _run = banner("Fig. 1", "network-wide power and traffic over eight weeks");
    let mut fleet = standard_fleet();
    let (start, end, step) = standard_window();

    // Hardware (de)commissioning steps like the ones visible in Fig. 1.
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_days(18),
            kind: EventKind::PowerStep {
                router: 5,
                delta: Watts::new(220.0),
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(37),
            kind: EventKind::PowerStep {
                router: 42,
                delta: Watts::new(-160.0),
            },
        },
    ];

    let traces = trace::collect_streaming(
        &mut fleet,
        start,
        end,
        step,
        events,
        &[],
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("trace collection")
    .trace;

    // Weekly summary rows.
    let t = TablePrinter::new(&[8, 12, 12, 12, 12]);
    t.header(&["week", "power kW", "traffic Tb", "traffic %", "util swing"]);
    let capacity = fleet.total_capacity().as_f64();
    for week in 0..8 {
        let lo = SimInstant::from_days(week * 7);
        let hi = SimInstant::from_days((week + 1) * 7);
        let p = traces.total_reported.slice(lo, hi);
        let tr = traces.total_traffic.slice(lo, hi);
        let (Ok(pm), Ok(tm)) = (p.mean(), tr.mean()) else {
            continue;
        };
        let swing = (tr.max().unwrap_or(0.0) - tr.min().unwrap_or(0.0)) / capacity;
        t.row(&[
            format!("{}", week + 1),
            fmt(pm / 1e3, 2),
            fmt(tm / 1e12, 2),
            fmt(100.0 * tm / capacity, 2),
            fmt(100.0 * swing, 2),
        ]);
    }

    let power_kw = traces.total_reported.mean().expect("non-empty") / 1e3;
    let util = traces.total_traffic.mean().expect("non-empty") / capacity;
    let corr = correlation(
        &traces.total_reported.values(),
        &traces.total_traffic.values(),
    )
    .expect("aligned series");

    println!("\nsummary vs paper:");
    println!(
        "  mean total power:   {power_kw:.1} kW   (paper: {:.1}–{:.1} kW)  {}",
        paper::FIG1_TOTAL_KW.0,
        paper::FIG1_TOTAL_KW.1,
        shape(21.75, power_kw, 0.12, 0.0)
    );
    println!(
        "  mean utilisation:   {:.2} %    (paper: ≈1.3 %)          {}",
        100.0 * util,
        shape(0.013, util, 0.5, 0.0)
    );
    println!(
        "  power–traffic corr: {corr:+.3}    (paper: invisible at network scale) {}",
        if corr.abs() < 0.35 { "ok" } else { "drift" }
    );
    println!("  power steps at weeks 3 and 6 correspond to (de)commissioning events");
}
