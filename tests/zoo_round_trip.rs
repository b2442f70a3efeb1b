//! Integration test: populate a Network Power Zoo from every pipeline and
//! round-trip it through JSON — the "public artifact" path of the paper.

use fantastic_joules::core::{Speed, TransceiverType};
use fantastic_joules::netpowerbench::{Derivation, DerivationConfig};
use fantastic_joules::units::{SimDuration, SimInstant};
use fantastic_joules::zoo::{Contributor, ModelEntry, PsuEntry, TraceEntry, TraceKind, Zoo};
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_isp::{build_fleet, stats, FleetConfig};

#[test]
fn build_publish_and_reload_a_zoo() {
    let mut zoo = Zoo::new();
    let who = Contributor::new("fantastic-joules-ci");

    // 1. A derived model.
    let config =
        DerivationConfig::quick("VSP-4900", TransceiverType::T, Speed::G10).expect("builtin");
    let derived = Derivation::run(&config, 11).expect("derivation");
    zoo.add_model(ModelEntry {
        model: derived.model.clone(),
        methodology: format!(
            "NetPowerBench, {} pairs, {} per point",
            config.pairs, config.point_duration
        ),
        contributor: who.clone(),
    });

    // 2. Fleet traces (a day of SNMP + one instrumented router).
    let mut fleet = build_fleet(&FleetConfig::small(23));
    let traces = trace::collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(1),
        SimDuration::from_mins(5),
        vec![],
        &[0],
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("collection")
    .trace;
    for rt in &traces.routers {
        if !rt.psu_reported.is_empty() {
            zoo.add_trace(TraceEntry {
                router_model: rt.model.clone(),
                router_name: rt.name.clone(),
                kind: TraceKind::Snmp,
                contributor: who.clone(),
                series: rt.psu_reported.clone(),
            });
        }
    }
    zoo.add_trace(TraceEntry {
        router_model: traces.routers[0].model.clone(),
        router_name: traces.routers[0].name.clone(),
        kind: TraceKind::Autopower,
        contributor: who.clone(),
        series: traces.routers[0].wall.clone(),
    });

    // 3. The PSU sensor export.
    for obs in stats::psu_snapshot(&fleet).observations {
        zoo.add_psu(PsuEntry {
            router_name: obs.router,
            router_model: obs.router_model,
            slot: obs.slot,
            capacity_w: obs.capacity_w,
            p_in_w: obs.p_in_w,
            p_out_w: obs.p_out_w,
            contributor: who.clone(),
        });
    }

    assert!(zoo.len() > 20, "zoo holds a real payload: {}", zoo.len());

    // Publish → reload → query.
    let json = zoo.to_json().expect("serialises");
    let back = Zoo::from_json(&json).expect("parses");
    assert_eq!(back.len(), zoo.len());
    assert_eq!(back.models_for("VSP-4900").len(), 1);
    let autopower = back.traces_for(&traces.routers[0].name, TraceKind::Autopower);
    assert_eq!(autopower.len(), 1);
    assert!(!autopower[0].series.is_empty());

    // Community merge: two zoos combine without loss.
    let mut merged = Zoo::new();
    merged.merge(back);
    merged.merge(Zoo::from_json(&json).expect("parses"));
    assert_eq!(merged.len(), 2 * zoo.len());
}
