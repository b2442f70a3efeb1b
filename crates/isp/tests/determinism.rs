//! The FJ01 determinism contract for the sharded collection engine
//! (tier-1): the shard count must change wall-clock time and nothing
//! else. Traces, gap markers, telemetry events, counters, and gauges are
//! bit-identical whether the fleet runs on one worker or many.

use std::sync::Arc;

use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig};
use fj_isp::{build_fleet, EventKind, FleetConfig, FleetTrace, ScheduledEvent};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant, Watts};

/// A week of 5-minute polls over a small fleet with drops, Autopower
/// meters, and mid-run events — every code path the engine has.
fn run(shards: usize) -> (FleetTrace, Arc<Telemetry>) {
    let mut fleet = build_fleet(&FleetConfig::small(11));
    let n = fleet.routers.len();
    assert!(n >= 5, "scenario expects a multi-router fleet");
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_days(1),
            kind: EventKind::AdminDown {
                router: 1,
                iface: fleet.routers[1].plan[0].index,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(2),
            kind: EventKind::OsUpdate {
                router: n - 1,
                version: "7.11.2".into(),
                delta: Watts::new(45.0),
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(3),
            kind: EventKind::AdminUp {
                router: 1,
                iface: fleet.routers[1].plan[0].index,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(4),
            kind: EventKind::PsuFailure { router: 2, slot: 1 },
        },
    ];
    // 15 % drop rate is high enough to walk routers down the health
    // ladder into quarantine and back within a week.
    let plan = FaultPlan::new(0x6A9_0004).with_drop_rate(0.15);
    let telemetry = Telemetry::with_capacity(1 << 16);
    let trace = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(7),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        &StreamConfig {
            shards,
            ..Default::default()
        },
    )
    .expect("collection succeeds")
    .trace;
    (trace, telemetry)
}

/// The same scenario through the streaming engine's persistent worker
/// pool with a mid-horizon chunk size, so every chunk boundary crosses
/// the pipelined prefetch path: while the caller merges chunk N, the
/// pool is already simulating chunk N+1. 96 rounds per chunk over a
/// 2016-round week gives 21 chunks, none aligned to event days.
fn run_chunked(shards: usize) -> (FleetTrace, Arc<Telemetry>) {
    let mut fleet = build_fleet(&FleetConfig::small(11));
    let n = fleet.routers.len();
    let events = vec![
        ScheduledEvent {
            at: SimInstant::from_days(1),
            kind: EventKind::AdminDown {
                router: 1,
                iface: fleet.routers[1].plan[0].index,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(2),
            kind: EventKind::OsUpdate {
                router: n - 1,
                version: "7.11.2".into(),
                delta: Watts::new(45.0),
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(3),
            kind: EventKind::AdminUp {
                router: 1,
                iface: fleet.routers[1].plan[0].index,
            },
        },
        ScheduledEvent {
            at: SimInstant::from_days(4),
            kind: EventKind::PsuFailure { router: 2, slot: 1 },
        },
    ];
    let plan = FaultPlan::new(0x6A9_0004).with_drop_rate(0.15);
    let telemetry = Telemetry::with_capacity(1 << 16);
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(7),
        SimDuration::from_mins(5),
        events,
        &[0, 3],
        &plan,
        &telemetry,
        &StreamConfig {
            shards,
            chunk_rounds: 96,
            ..StreamConfig::default()
        },
    )
    .expect("collection succeeds");
    assert!(outcome.completed, "full horizon collected");
    (outcome.trace, telemetry)
}

// Metric snapshot minus the sanctioned off-surface series (wall-clock
// timing and feature-only planes), via the shared exclusion list in
// `fj_telemetry::OFF_SURFACE_METRICS`.
use fj_telemetry::stable_prometheus;

/// The causal span stream projected onto its deterministic content. Wall
/// stamps are the sanctioned nondeterminism (they measure real elapsed
/// time); everything else — sequential ids, parents, names, lanes, sim
/// stamps, fields, drop counts — must be bit-identical per shard count.
fn stable_spans(t: &Telemetry) -> Vec<String> {
    let mut out: Vec<String> = t
        .tracer()
        .spans()
        .iter()
        .map(|s| {
            format!(
                "{} parent={} name={} lane={} sim={}..{} fields={:?}",
                s.id,
                s.parent,
                s.name,
                s.lane,
                s.sim_start.as_secs(),
                s.sim_end.as_secs(),
                s.fields
            )
        })
        .collect();
    out.push(format!("dropped={}", t.tracer().dropped()));
    out
}

#[test]
fn shard_count_never_changes_results() {
    let (seq_trace, seq_tel) = run(1);

    // The scenario actually exercised the interesting paths.
    assert!(seq_trace.missed_polls > 0, "drops occurred");
    assert!(
        !seq_trace.total_reported.gaps().is_empty(),
        "fleet total had unknowable rounds"
    );
    assert!(!seq_tel.events().events().is_empty(), "events were emitted");

    assert!(
        !seq_tel.tracer().spans().is_empty(),
        "causal spans were recorded"
    );

    for shards in [2, 3, 4, 8] {
        let (par_trace, par_tel) = run(shards);
        assert_eq!(
            seq_trace, par_trace,
            "{shards}-shard trace diverged from sequential"
        );
        assert_eq!(
            seq_tel.events().events(),
            par_tel.events().events(),
            "{shards}-shard event log diverged from sequential"
        );
        assert_eq!(
            stable_prometheus(&seq_tel),
            stable_prometheus(&par_tel),
            "{shards}-shard metric snapshot diverged from sequential"
        );
        assert_eq!(
            stable_spans(&seq_tel),
            stable_spans(&par_tel),
            "{shards}-shard span stream diverged from sequential"
        );
    }
}

#[test]
fn shard_count_beyond_fleet_size_is_fine() {
    let (seq_trace, seq_tel) = run(1);
    let (par_trace, par_tel) = run(1024);
    assert_eq!(seq_trace, par_trace);
    assert_eq!(stable_spans(&seq_tel), stable_spans(&par_tel));
}

/// FJ01 on the pool path: the chunked streaming engine — persistent
/// workers, pipelined merge, cells ping-ponging between dispatch and
/// merge — produces the same trace, events, metrics, and spans at any
/// shard count, including the 1024-shard placement-stress case.
#[test]
fn pool_path_chunking_never_changes_results() {
    let (seq_trace, seq_tel) = run_chunked(1);

    // Chunking itself must not change the physics either: the chunked
    // sequential trace equals the whole-horizon sequential trace.
    let (whole_trace, _) = run(1);
    assert_eq!(
        seq_trace, whole_trace,
        "chunked trace diverged from the whole-horizon engine"
    );

    for shards in [2, 4, 8, 1024] {
        let (par_trace, par_tel) = run_chunked(shards);
        assert_eq!(
            seq_trace, par_trace,
            "{shards}-shard pooled trace diverged from sequential"
        );
        assert_eq!(
            seq_tel.events().events(),
            par_tel.events().events(),
            "{shards}-shard pooled event log diverged from sequential"
        );
        assert_eq!(
            stable_prometheus(&seq_tel),
            stable_prometheus(&par_tel),
            "{shards}-shard pooled metric snapshot diverged from sequential"
        );
        assert_eq!(
            stable_spans(&seq_tel),
            stable_spans(&par_tel),
            "{shards}-shard pooled span stream diverged from sequential"
        );
    }
}
