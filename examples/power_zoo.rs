//! The Network Power Zoo workflow: collect → publish → reload → reuse.
//!
//! A fleet contributes its traces and PSU snapshot to a zoo; the zoo is
//! serialised (what the public artifact repository stores), reloaded, and
//! a traffic trace from it is fitted back into a replayable load pattern
//! — the full community data loop.
//!
//! ```text
//! cargo run --release --example power_zoo
//! ```

use fantastic_joules::traffic::fit_pattern;
use fantastic_joules::units::{SimDuration, SimInstant};
use fantastic_joules::zoo::{Contributor, TraceKind, Zoo};
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_isp::{build_fleet, publish_fleet, FleetConfig};

fn main() {
    // 1. Collect a week of fleet telemetry.
    let mut fleet = build_fleet(&FleetConfig::small(42));
    let traces = trace::collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(7),
        SimDuration::from_mins(5),
        vec![],
        &[0],
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("collection")
    .trace;

    // 2. Publish everything to a zoo.
    let mut zoo = Zoo::new();
    let added = publish_fleet(&mut zoo, &fleet, &traces, &Contributor::new("example-isp"));
    let summary = zoo.summary();
    println!("published {added} records:");
    println!(
        "  {} traces ({} samples), {} PSU rows, {} router models, {} contributor(s)",
        summary.traces,
        summary.trace_samples,
        summary.psus,
        summary.distinct_router_models,
        summary.distinct_contributors
    );

    // 3. Serialise and reload — the repository round trip.
    let json = zoo.to_json().expect("serialises");
    println!(
        "\nzoo JSON size: {:.1} MiB",
        json.len() as f64 / (1024.0 * 1024.0)
    );
    let reloaded = Zoo::from_json(&json).expect("parses");
    assert_eq!(reloaded.len(), zoo.len());

    // 4. Reuse: fit a replayable pattern to a published traffic trace.
    let router_name = &traces.routers[0].name;
    let traffic = &reloaded.traces_for(router_name, TraceKind::Traffic)[0].series;
    // Normalise to utilisation using the router's capacity.
    let capacity = fleet.routers[0].capacity().as_f64();
    let utilisation = traffic.map(|bps| bps / capacity);
    match fit_pattern(&utilisation) {
        Some(fit) => {
            println!("\nfitted pattern for {router_name}:");
            println!("  mean utilisation  {:6.2} %", 100.0 * fit.mean_utilization);
            println!(
                "  diurnal amplitude {:6.1} %",
                100.0 * fit.diurnal_amplitude
            );
            println!("  weekend factor    {:6.2}", fit.weekend_factor);
            println!("  residual σ (rel)  {:6.2}", fit.residual_rel_std);
            let replica = fit.to_pattern(7);
            println!(
                "  replayable pattern at 14:00 weekday: {:.2} % utilisation",
                100.0 * replica.utilization(SimInstant::from_days(1) + SimDuration::from_hours(14))
            );
        }
        None => println!("\ntrace too short to fit (needs ≥ 2 days)"),
    }
}
