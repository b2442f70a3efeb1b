//! Fig. 4 — PSU measurements vs Autopower (external) vs model predictions
//! for three instrumented routers over two months, with the paper's
//! events reproduced:
//!
//! * day 17: a PSU on the NCS-55A1-24H is power-cycled while an Autopower
//!   meter is installed — its reported value jumps with no real change;
//! * day 31 ("Oct 9"): a 400G FR4 module is pulled from the 8201-32FH —
//!   every trace drops ≈13 W;
//! * days 44–47 ("Oct 22–25"): a flapping interface on the 8201 is taken
//!   down (transceiver left plugged!) and brought back — the model drops
//!   *more* than the measurements because it assumes the module was
//!   removed.

use fj_bench::{banner, paper, standard_fleet, standard_window, table::*};
use fj_core::{InterfaceClass, PortType, Speed, TransceiverType};
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_isp::{EventKind, ScheduledEvent};
use fj_units::{correlation, SimDuration, SimInstant, TimeSeries};

fn main() {
    let _run = banner(
        "Fig. 4",
        "PSU vs Autopower vs model, three instrumented routers",
    );
    let mut fleet = standard_fleet();
    let (start, end, step) = standard_window();

    let r8201 = fleet.find_model("8201-32FH").expect("8201 in fleet");
    let rncs = fleet.find_model("NCS-55A1-24H").expect("NCS in fleet");
    let rn540 = fleet
        .find_model("N540X-8Z16G-SYS-A")
        .expect("N540X in fleet");
    let instrumented = [r8201, rncs, rn540];

    // The 8201's QSFP-DD cages sit at ports 28–31; give it the 400G FR4
    // that will be pulled on day 31, and find a flappable optical iface.
    let fr4_port = 28;
    let flap_port = fleet.routers[r8201].plan[0].index;
    let events = vec![
        ScheduledEvent {
            at: start,
            kind: EventKind::PlugAndEnable {
                router: r8201,
                iface: fr4_port,
                class: InterfaceClass::new(PortType::QsfpDd, TransceiverType::Fr4, Speed::G400),
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(17),
            kind: EventKind::PowerCyclePsu {
                router: rncs,
                slot: 0,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(31),
            kind: EventKind::UnplugTransceiver {
                router: r8201,
                iface: fr4_port,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(44),
            kind: EventKind::AdminDown {
                router: r8201,
                iface: flap_port,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(47),
            kind: EventKind::AdminUp {
                router: r8201,
                iface: flap_port,
            },
        },
    ];

    let traces = trace::collect_streaming(
        &mut fleet,
        start,
        end,
        step,
        events,
        &instrumented,
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("trace collection")
    .trace;

    // --- Per-router comparisons (30-minute averages, like the figure) ---
    let window = SimDuration::from_mins(30);
    let t = TablePrinter::new(&[20, 13, 13, 13, 13]);
    t.header(&[
        "router",
        "psu-wall W",
        "model-wall W",
        "psu corr",
        "model corr",
    ]);
    for &idx in &instrumented {
        let rt = &traces.routers[idx];
        let wall = rt.wall.window_mean(window);
        let model = rt.predicted.window_mean(window);
        let model_off = model.mean_diff(&wall).expect("aligned");
        let model_corr = corr(&model, &wall);
        let (psu_off, psu_corr) = if rt.psu_reported.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            let psu = rt.psu_reported.window_mean(window);
            (psu.mean_diff(&wall).expect("aligned"), corr(&psu, &wall))
        };
        t.row(&[
            rt.model.clone(),
            if psu_off.is_nan() {
                "n/a".into()
            } else {
                fmt(psu_off, 1)
            },
            fmt(model_off, 1),
            if psu_corr.is_nan() {
                "n/a".into()
            } else {
                fmt(psu_corr, 3)
            },
            fmt(model_corr, 3),
        ]);
    }
    println!(
        "\npaper: PSU offset +15–20 W (8201) / pseudo-constant (NCS) / absent (N540X);\n\
         model offsets ≈ -9 / -13 / -3 W with matching shapes"
    );
    for (model, paper_off) in paper::FIG4_MODEL_OFFSETS {
        let idx = instrumented[match model {
            "8201-32FH" => 0,
            "NCS-55A1-24H" => 1,
            _ => 2,
        }];
        let rt = &traces.routers[idx];
        let measured = -rt
            .predicted
            .window_mean(window)
            .mean_diff(&rt.wall.window_mean(window))
            .expect("aligned");
        println!(
            "  {model:<20} model underestimates by {measured:5.1} W (paper ≈ {paper_off:4.1} W) {}",
            shape(paper_off, measured, 1.5, 8.0)
        );
    }

    // --- Event forensics ------------------------------------------------
    println!("\nevent forensics (8201-32FH):");
    let rt = &traces.routers[r8201];
    let wall30 = rt.wall.window_mean(window);
    let model30 = rt.predicted.window_mean(window);

    let drop_wall = step_size(&wall30, SimInstant::from_days(31));
    let drop_model = step_size(&model30, SimInstant::from_days(31));
    println!(
        "  day 31 FR4 unplug: wall drop {:.1} W, model drop {:.1} W (paper: ≈13 W, matching) {}",
        -drop_wall,
        -drop_model,
        shape(13.0, -drop_wall, 0.3, 3.0)
    );

    let flap_wall = window_delta(&wall30, 44, 47);
    let flap_model = window_delta(&model30, 44, 47);
    println!(
        "  days 44–47 flap:   wall drop {:.1} W, model drop {:.1} W (paper: model drops MORE) {}",
        -flap_wall,
        -flap_model,
        if -flap_model > -flap_wall + 0.5 {
            "ok"
        } else {
            "drift"
        }
    );

    let ncs = &traces.routers[rncs];
    let psu_jump = step_size(
        &ncs.psu_reported.window_mean(window),
        SimInstant::from_days(17),
    );
    let wall_jump = step_size(&ncs.wall.window_mean(window), SimInstant::from_days(17));
    println!(
        "  day 17 PSU cycle (NCS): reported jump {psu_jump:+.1} W vs wall change {wall_jump:+.1} W\n\
         \u{20}   (paper: a 7 W reported drop with no physical change) {}",
        if psu_jump.abs() > 1.0 && wall_jump.abs() < 1.0 { "ok" } else { "drift" }
    );
}

fn corr(a: &TimeSeries, b: &TimeSeries) -> f64 {
    let joined = a.combine(b, |x, _| x);
    let joined_b = a.combine(b, |_, y| y);
    correlation(&joined.values(), &joined_b.values()).unwrap_or(f64::NAN)
}

/// Mean level in the 3 days after `at` minus the 3 days before.
fn step_size(series: &TimeSeries, at: SimInstant) -> f64 {
    let d3 = SimDuration::from_days(3);
    let before = series.slice(at - d3, at).mean().unwrap_or(f64::NAN);
    let after = series
        .slice(at + SimDuration::from_hours(1), at + d3)
        .mean()
        .unwrap_or(f64::NAN);
    after - before
}

/// Mean level inside [day_a, day_b] minus the surrounding week's level.
fn window_delta(series: &TimeSeries, day_a: i64, day_b: i64) -> f64 {
    let inside = series
        .slice(SimInstant::from_days(day_a), SimInstant::from_days(day_b))
        .mean()
        .unwrap_or(f64::NAN);
    let before = series
        .slice(
            SimInstant::from_days(day_a - 3),
            SimInstant::from_days(day_a),
        )
        .mean()
        .unwrap_or(f64::NAN);
    inside - before
}
