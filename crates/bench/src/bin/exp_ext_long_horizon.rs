//! Extension — the full 10-month horizon of the paper's SNMP dataset,
//! with energy accounting.
//!
//! The paper collects 10 months of 5-minute SNMP from 107 routers; the
//! shorter regenerators use 8-week windows for speed. This binary runs
//! the whole horizon (≈87 k polls × 107 routers) and reports what an
//! operator ultimately pays for: energy. At ≈22 kW the network burns
//! ≈16 MWh per month-of-30-days; the §8/§9 savings translate to real
//! megawatt-hours at this horizon.

use fj_bench::{banner, standard_fleet, table::*};
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_units::{SimDuration, SimInstant};

fn main() {
    let _run = banner("Extension", "10-month horizon with energy accounting");
    let mut fleet = standard_fleet();
    let start = SimInstant::EPOCH;
    let end = SimInstant::from_days(305);
    let step = SimDuration::from_mins(5);
    // Progress note goes through the event log (banner arms stderr echo),
    // so it is captured in the snapshot alongside the collection metrics.
    fj_telemetry::global().event(
        fj_telemetry::Level::Info,
        "bench.long_horizon",
        "simulating 305 days at 5-minute polls; this takes a few minutes…",
        &[("days", "305".to_owned())],
    );

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
    .expect("collection")
    .trace;

    let t = TablePrinter::new(&[10, 12, 12, 12]);
    t.header(&["month", "mean kW", "MWh", "traffic Tb"]);
    let mut total_mwh = 0.0;
    for month in 0..10 {
        let lo = SimInstant::from_days(month * 30);
        let hi = SimInstant::from_days((month + 1) * 30);
        let p = traces.total_wall.slice(lo, hi);
        let Ok(mean_w) = p.mean() else { continue };
        let mwh = p.energy_kwh(hi) / 1e3;
        total_mwh += mwh;
        let tr = traces.total_traffic.slice(lo, hi).mean().unwrap_or(0.0);
        t.row(&[
            format!("{}", month + 1),
            fmt(mean_w / 1e3, 2),
            fmt(mwh, 1),
            fmt(tr / 1e12, 2),
        ]);
    }

    println!("\n10-month total: {total_mwh:.0} MWh");
    let sleeping_low = 103.0; // §8 regenerator, seed 7
    let hot_standby = 694.0; // hot-standby regenerator, seed 7
    println!(
        "in context: the §8 link-sleeping low bound (≈{sleeping_low:.0} W) is\n\
         ≈{:.1} MWh over this horizon; fleet-wide hot standby (≈{hot_standby:.0} W)\n\
         is ≈{:.1} MWh — the units operators and sustainability reports use.",
        sleeping_low * 305.0 * 24.0 / 1e6,
        hot_standby * 305.0 * 24.0 / 1e6,
    );

    let kw = traces.total_wall.mean().expect("non-empty") / 1e3;
    println!(
        "\nshape: {}",
        if (19.0..25.0).contains(&kw) && total_mwh > 100.0 {
            "ok — the long horizon holds the Fig. 1 level throughout"
        } else {
            "drift"
        }
    );
}
