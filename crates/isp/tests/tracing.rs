//! Causal-trace integration contracts (tier-1):
//!
//! 1. the Perfetto/Chrome export of a 4-shard fleet run validates as
//!    `trace_event` JSON with the documented shape;
//! 2. a health-ladder trip during collection produces a flight-recorder
//!    dump whose fault cause events join 1:1 to the spans they
//!    interrupted.

use std::sync::Arc;

use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig};
use fj_isp::{build_fleet, FleetConfig, FleetTrace};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant};

/// One simulated day over the small fleet at 5-minute polls: 287 rounds,
/// comfortably inside every bounded span ring, so dumps can join fully.
fn run_day(shards: usize, drop_rate: f64, telemetry: &Arc<Telemetry>) -> FleetTrace {
    let mut fleet = build_fleet(&FleetConfig::small(11));
    let plan = FaultPlan::new(0x6A9_0005).with_drop_rate(drop_rate);
    collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(1),
        SimDuration::from_mins(5),
        vec![],
        &[0, 3],
        &plan,
        telemetry,
        &StreamConfig {
            shards,
            ..Default::default()
        },
    )
    .expect("collection succeeds")
    .trace
}

#[test]
fn perfetto_export_of_a_four_shard_run_validates() {
    let telemetry = Telemetry::with_capacity(1 << 16);
    let _ = run_day(4, 0.0, &telemetry);

    let dir = std::env::temp_dir().join("fj-tracing-test-export");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trace-fleet.json");
    telemetry.write_trace(&path).expect("trace export writes");

    let text = std::fs::read_to_string(&path).expect("trace readable");
    let back: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let doc = back.as_map().expect("top level is an object");
    let events = serde::field(doc, "traceEvents")
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty(), "export contains spans");

    let mut names = std::collections::BTreeSet::new();
    let mut lanes = std::collections::BTreeSet::new();
    for e in events {
        let map = e.as_map().expect("trace event is an object");
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(
                map.iter().any(|(k, _)| k == key),
                "trace event missing {key}"
            );
        }
        assert_eq!(serde::field(map, "ph").as_str(), Some("X"));
        assert_eq!(serde::field(map, "cat").as_str(), Some("fj"));
        if let Some(name) = serde::field(map, "name").as_str() {
            names.insert(name.to_owned());
        }
        if let serde::Value::UInt(tid) = serde::field(map, "tid") {
            lanes.insert(*tid);
        }
    }
    // The orchestrator stages and the adopted worker stages all export.
    for expected in [
        "fleet_collect",
        "fleet_simulate",
        "fleet_merge",
        "router_step",
        "predict",
        "snmp_poll",
        "autopower_frame",
    ] {
        assert!(names.contains(expected), "span {expected} in export");
    }
    assert!(lanes.contains(&0), "orchestrator lane present");
    assert!(lanes.len() > 1, "per-router lanes present: {lanes:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_trip_dumps_a_flight_record_with_full_joins() {
    let telemetry = Telemetry::with_capacity(1 << 16);
    let dir = std::env::temp_dir().join("fj-tracing-test-flightrec");
    let _ = std::fs::remove_dir_all(&dir);
    telemetry.arm_flight_recorder("tracing-test", &dir);

    // A 35% drop rate walks some router off the health ladder within the
    // day; the first transition away from Healthy trips the recorder.
    let trace = run_day(4, 0.35, &telemetry);
    assert!(trace.missed_polls > 0, "faults occurred");

    let path = telemetry
        .flight_recorder_path()
        .expect("health trip dumped a flight record");
    assert!(path.starts_with(&dir));
    assert_eq!(
        telemetry.registry().counter_total("flightrec_dumps_total"),
        1
    );

    let back: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("dump readable"))
            .expect("dump is valid JSON");
    let doc = back.as_map().expect("dump is an object");

    // Every joinable fault cause event (snmp/wall gap) in the dump joins
    // to exactly one recorded span; none are left dangling.
    let events = serde::field(doc, "events").as_array().expect("events");
    let joinable = events
        .iter()
        .filter(|e| {
            let fields = serde::field(e.as_map().unwrap(), "fields");
            matches!(
                serde::field(fields.as_map().unwrap(), "series").as_str(),
                Some("snmp" | "wall")
            )
        })
        .count();
    assert!(joinable > 0, "dump captured fault cause events");
    let joins = serde::field(doc, "joins").as_array().expect("joins");
    assert_eq!(joins.len(), joinable, "1:1 span↔cause-event joins");
    assert_eq!(
        serde::field(doc, "unjoined_fault_events"),
        &serde::Value::UInt(0)
    );

    // Join targets are unique spans (no two events claiming one span).
    let mut targets = std::collections::BTreeSet::new();
    for j in joins {
        let map = j.as_map().expect("join is an object");
        if let serde::Value::UInt(id) = serde::field(map, "span_id") {
            assert!(targets.insert(*id), "span {id} joined twice");
        }
    }

    // The trip is once-per-arming even though more transitions followed.
    let reason = serde::field(
        serde::field(doc, "flightrec").as_map().expect("header"),
        "reason",
    );
    assert_eq!(
        reason.as_str(),
        Some("router health ladder left healthy"),
        "dump records the first failure"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
