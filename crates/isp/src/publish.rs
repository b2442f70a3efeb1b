//! Publishing fleet data to the Network Power Zoo — the path by which the
//! paper's dataset reaches the community repository.

use fj_zoo::{Contributor, PsuEntry, TraceEntry, TraceKind, Zoo};

use crate::fleet::Fleet;
use crate::stats::psu_snapshot;
use crate::trace::FleetTrace;

/// Adds every collected trace (SNMP, Autopower, model predictions,
/// traffic) and the PSU snapshot of `fleet` to `zoo`, attributed to
/// `contributor`. Returns the number of records added.
pub fn publish_fleet(
    zoo: &mut Zoo,
    fleet: &Fleet,
    traces: &FleetTrace,
    contributor: &Contributor,
) -> usize {
    let before = zoo.len();

    for rt in &traces.routers {
        let mut add = |kind: TraceKind, series: &fj_units::TimeSeries| {
            if !series.is_empty() {
                zoo.add_trace(TraceEntry {
                    router_model: rt.model.clone(),
                    router_name: rt.name.clone(),
                    kind,
                    contributor: contributor.clone(),
                    series: series.clone(),
                });
            }
        };
        add(TraceKind::Snmp, &rt.psu_reported);
        add(TraceKind::Autopower, &rt.wall);
        add(TraceKind::ModelPrediction, &rt.predicted);
        add(TraceKind::Traffic, &rt.traffic);
    }

    for obs in psu_snapshot(fleet).observations {
        zoo.add_psu(PsuEntry {
            router_name: obs.router,
            router_model: obs.router_model,
            slot: obs.slot,
            capacity_w: obs.capacity_w,
            p_in_w: obs.p_in_w,
            p_out_w: obs.p_out_w,
            contributor: contributor.clone(),
        });
    }

    zoo.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_fleet;
    use crate::config::FleetConfig;
    use crate::trace::{collect_streaming, StreamConfig};
    use fj_faults::FaultPlan;
    use fj_units::{SimDuration, SimInstant};

    #[test]
    fn publish_covers_every_router() {
        let mut fleet = build_fleet(&FleetConfig::small(31));
        let traces = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(30),
            vec![],
            &[0],
            &FaultPlan::clean(),
            fj_telemetry::global(),
            &StreamConfig::default(),
        )
        .expect("collection")
        .trace;

        let mut zoo = Zoo::new();
        let added = publish_fleet(&mut zoo, &fleet, &traces, &Contributor::new("ci"));
        assert_eq!(added, zoo.len());
        // Every router contributes at least predictions + traffic + PSUs.
        assert!(zoo.len() >= fleet.routers.len() * 3);
        // The instrumented router's Autopower trace is queryable.
        let name = &traces.routers[0].name;
        assert_eq!(zoo.traces_for(name, TraceKind::Autopower).len(), 1);
        // Non-reporting models contribute no SNMP trace.
        for rt in &traces.routers {
            let snmp = zoo.traces_for(&rt.name, TraceKind::Snmp);
            assert_eq!(snmp.is_empty(), rt.psu_reported.is_empty(), "{}", rt.name);
        }
    }

    #[test]
    fn published_zoo_round_trips() {
        let mut fleet = build_fleet(&FleetConfig::small(32));
        let traces = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_secs(3 * 3600),
            SimDuration::from_mins(30),
            vec![],
            &[],
            &FaultPlan::clean(),
            fj_telemetry::global(),
            &StreamConfig::default(),
        )
        .expect("collection")
        .trace;
        let mut zoo = Zoo::new();
        publish_fleet(&mut zoo, &fleet, &traces, &Contributor::new("ci"));
        let back = Zoo::from_json(&zoo.to_json().expect("serialises")).expect("parses");
        assert_eq!(back.len(), zoo.len());
    }
}
