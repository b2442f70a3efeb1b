//! The traced replay: the streaming engine's per-router round, rebuilt
//! from the program's public per-router API in the engine's call order,
//! with every call into a layer timed from here.
//!
//! Per router-round the engine (`fj_isp::trace`) does, in order:
//! due events (`ScheduledEvent::apply_to_router`) → `wall_power` →
//! `psu_reported_power` per PSU slot → the SNMP fault draw and health
//! ladder (`FaultPlan::should_drop`, `TargetHealth`) → the wall-meter
//! fault draw for instrumented routers → `LoadPattern::rate` per active
//! interface → `ModelPredictor::predict_router` → `FleetRouter::step`.
//! The replay is accepted as the same computation only when its fleet
//! totals and per-router predicted series equal the engine's trace bit
//! for bit.

use std::time::{Duration, Instant};

use fj_faults::{HealthState, TargetHealth};
use fj_isp::{FleetTrace, ModelPredictor, ScheduledEvent};
use fj_router_sim::SimError;
use fj_units::{SimDuration, SimInstant, TimeSeries};

use crate::digest::series_bits_eq;
use crate::fleet::Scenario;
use crate::report::CallStats;

/// One router's SNMP poll outcome in one round.
#[derive(Clone, Copy)]
enum Snmp {
    Value(f64),
    Gap,
    NonReporting,
}

/// What one router contributes to one round's fleet totals.
#[derive(Clone, Copy)]
struct Contribution {
    wall: f64,
    snmp: Snmp,
    traffic_contrib: f64,
}

/// Timings and counts gathered by the replay.
#[derive(Debug, Default)]
pub struct ReplayLayers {
    pub event_apply: CallStats,
    pub wall_power: CallStats,
    pub psu_read: CallStats,
    pub should_drop: CallStats,
    pub rate: CallStats,
    pub predict: CallStats,
    pub router_step: CallStats,
    /// Polls attempted (SNMP on reporting routers + wall-meter reads).
    pub polls: u64,
    /// Of those, dropped by the fault plan.
    pub gaps: u64,
    /// Health-ladder state changes.
    pub health_transitions: u64,
    /// Router-rounds replayed.
    pub router_rounds: u64,
    /// Wall time of the whole replay, timers included.
    pub wall: Duration,
}

/// Poll time of global round `round` (the engine's `round_time`).
fn round_time(start: SimInstant, step: SimDuration, round: u64) -> SimInstant {
    let n = i64::try_from(round).unwrap_or(i64::MAX).saturating_add(1);
    start + SimDuration::from_secs(step.as_secs().saturating_mul(n))
}

/// Replays `sc` on a fresh copy of its fleet, then compares the result
/// with `engine`, the trace the streaming engine produced for the same
/// scenario. Returns the layer timings and any mismatch found.
pub fn replay_and_compare(
    sc: &Scenario,
    engine: &FleetTrace,
) -> Result<(ReplayLayers, Vec<String>), SimError> {
    let mut layers = ReplayLayers::default();
    let t0 = Instant::now();
    let mut fleet = sc.fleet.clone();
    let mut events = sc.events.clone();
    fj_isp::events::sort_events(&mut events);
    let rounds = sc.rounds();
    let (start, step) = (sc.start, sc.step);
    let packets = fleet.packets.clone();

    let mut per_router: Vec<Vec<Contribution>> = Vec::with_capacity(fleet.routers.len());
    let mut predicted: Vec<TimeSeries> = Vec::with_capacity(fleet.routers.len());
    for (index, router) in fleet.routers.iter_mut().enumerate() {
        let mine: Vec<&ScheduledEvent> =
            events.iter().filter(|e| e.kind.router() == index).collect();
        let mut next_event = 0;
        let mut predictor = ModelPredictor::new(fj_router_sim::spec::truth_registry());
        let mut health = TargetHealth::new();
        let snmp_stream = format!("snmp/{}", router.name);
        let wall_stream = format!("wall/{}", router.name);
        let instrumented = sc.instrumented.contains(&index);
        let mut series = TimeSeries::new();
        let mut contributions = Vec::with_capacity(usize::try_from(rounds).unwrap_or(0));

        // Priming, as the engine does before its first round.
        router.sim.set_time(start);
        let _ = predictor.predict_router(index, router, step);
        router.step(start, &packets, step)?;

        for round in 0..rounds {
            let t = round_time(start, step, round);
            while next_event < mine.len() && mine[next_event].at <= t {
                layers
                    .event_apply
                    .time(|| mine[next_event].apply_to_router(router))?;
                next_event += 1;
            }

            let wall = layers.wall_power.time(|| router.sim.wall_power()).as_f64();

            let mut reported = 0.0;
            let mut reports = false;
            for slot in 0..router.sim.psu_count() {
                if let Ok(Some(p)) = layers.psu_read.time(|| router.sim.psu_reported_power(slot)) {
                    reported += p.as_f64();
                    reports = true;
                }
            }
            let snmp = if reports {
                layers.polls += 1;
                let before = health.state();
                if layers
                    .should_drop
                    .time(|| sc.faults.should_drop(&snmp_stream, round))
                {
                    layers.gaps += 1;
                    if health.record_failure() != before {
                        layers.health_transitions += 1;
                    }
                    Snmp::Gap
                } else {
                    health.record_success();
                    if before != HealthState::Healthy {
                        layers.health_transitions += 1;
                    }
                    Snmp::Value(reported)
                }
            } else {
                Snmp::NonReporting
            };
            if instrumented {
                layers.polls += 1;
                if layers
                    .should_drop
                    .time(|| sc.faults.should_drop(&wall_stream, round))
                {
                    layers.gaps += 1;
                }
            }

            let mut traffic_contrib = 0.0;
            for p in router.plan.iter().filter(|p| !p.spare) {
                let r = layers
                    .rate
                    .time(|| p.pattern.rate(t, p.class.speed.rate()))
                    .as_f64();
                traffic_contrib += if p.external { r } else { r / 2.0 };
            }

            if let Some(p) = layers
                .predict
                .time(|| predictor.predict_router(index, router, step))
            {
                series.push(t, p.as_f64());
            }
            contributions.push(Contribution {
                wall,
                snmp,
                traffic_contrib,
            });
            layers.router_step.time(|| router.step(t, &packets, step))?;
            layers.router_rounds += 1;
        }
        per_router.push(contributions);
        predicted.push(series);
    }

    // Fleet totals: ordered sums over routers, round by round.
    let mut total_wall = TimeSeries::new();
    let mut total_reported = TimeSeries::new();
    let mut total_traffic = TimeSeries::new();
    for round in 0..rounds {
        let t = round_time(start, step, round);
        let i = usize::try_from(round).unwrap_or(usize::MAX);
        let (mut wall, mut reported, mut traffic, mut unknown) = (0.0, 0.0, 0.0, false);
        for c in per_router.iter().map(|r| r[i]) {
            wall += c.wall;
            traffic += c.traffic_contrib;
            match c.snmp {
                Snmp::Value(v) => reported += v,
                Snmp::Gap => unknown = true,
                Snmp::NonReporting => reported += c.wall,
            }
        }
        total_wall.push(t, wall);
        if unknown {
            total_reported.push_gap(t);
        } else {
            total_reported.push(t, reported);
        }
        total_traffic.push(t, traffic);
    }
    layers.wall = t0.elapsed();

    let mut mismatches = Vec::new();
    for (name, ours, theirs) in [
        ("total_wall", &total_wall, &engine.total_wall),
        ("total_reported", &total_reported, &engine.total_reported),
        ("total_traffic", &total_traffic, &engine.total_traffic),
    ] {
        if !series_bits_eq(ours, theirs) {
            mismatches.push(format!("replay {name} differs from the engine trace"));
        }
    }
    if predicted.len() != engine.routers.len() {
        mismatches.push("replay router count differs from the engine trace".to_owned());
    }
    let differing = predicted
        .iter()
        .zip(&engine.routers)
        .filter(|(ours, theirs)| !series_bits_eq(ours, &theirs.predicted))
        .count();
    if differing > 0 {
        mismatches.push(format!(
            "replay predicted series differ from the engine trace on {differing} routers"
        ));
    }
    Ok((layers, mismatches))
}
