//! The two streaming-engine workloads, `census` and `switch_ops`: their
//! scenarios, the timed run, the traced run, and the output checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fj_core::{InterfaceClass, PortType, Speed, TransceiverType};
use fj_faults::FaultPlan;
use fj_isp::trace::AlertsConfig;
use fj_isp::{
    build_fleet, collect_streaming, CheckpointConfig, EventKind, Fleet, FleetConfig, FleetTrace,
    ScheduledEvent, StreamConfig, StreamOutcome,
};
use fj_telemetry::Telemetry;
use fj_units::{SimDuration, SimInstant};

use crate::digest::Digest;
use crate::replay::replay_and_compare;
use crate::report::Metrics;
use crate::speed::Bracket;
use crate::{record_throughput, Run, Unit};

/// Everything the engine is given for one collection: the generated
/// inputs plus the engine knobs the workload fixes.
#[derive(Clone)]
pub struct Scenario {
    pub fleet: Fleet,
    pub start: SimInstant,
    pub end: SimInstant,
    pub step: SimDuration,
    pub events: Vec<ScheduledEvent>,
    pub instrumented: Vec<usize>,
    pub faults: FaultPlan,
    pub drop_rate: f64,
    pub shards: usize,
    pub chunk_rounds: u64,
    pub checkpoints: bool,
    pub alerts: bool,
}

/// A streaming-engine workload: how to build its scenario from a seed,
/// and the digest of the default seed's collection. A change in what the
/// engine computes changes the digest; a change in how fast it computes
/// it must not.
pub struct FleetWorkload {
    pub build: fn(u64) -> Scenario,
    pub pinned_digest: u64,
}

pub const CENSUS: FleetWorkload = FleetWorkload {
    build: census,
    pinned_digest: 0xbfa6_c712_5378_b097,
};

pub const SWITCH_OPS: FleetWorkload = FleetWorkload {
    build: switch_ops,
    pinned_digest: 0xc648_d34c_c704_3440,
};

/// `census`: 1 000 routers, half a sim day at the 5-minute poll, clean
/// fault plan, no events, nothing instrumented, inline single shard, no
/// checkpoints/alerts/profiler — the router-round hot path and the merge.
fn census(seed: u64) -> Scenario {
    Scenario {
        fleet: build_fleet(&FleetConfig::census(seed)),
        start: SimInstant::EPOCH,
        end: SimInstant::EPOCH + SimDuration::from_hours(12),
        step: SimDuration::from_mins(5),
        events: Vec::new(),
        instrumented: Vec::new(),
        faults: FaultPlan::clean(),
        drop_rate: 0.0,
        shards: 1,
        chunk_rounds: 48,
        checkpoints: false,
        alerts: false,
    }
}

/// A free cage on `router` and a module class it accepts: a 400G FR4
/// (the Fig. 4a module) where the chassis has a QSFP-DD cage free,
/// otherwise the class of the router's first planned interface.
fn free_cage(fleet: &Fleet, router: usize) -> Option<(usize, InterfaceClass)> {
    let r = &fleet.routers[router];
    let spec = r.sim.spec();
    let fallback = r.plan.first().map(|p| p.class);
    let free = |i: &usize| r.sim.interface(*i).is_ok_and(|st| st.transceiver.is_none());
    let priceable = |c: InterfaceClass| spec.truth.lookup(c).is_some();
    (0..spec.ports.len()).rev().filter(free).find_map(|i| {
        let slot = &spec.ports[i];
        let fr4 = InterfaceClass::new(PortType::QsfpDd, TransceiverType::Fr4, Speed::G400);
        [Some(fr4), fallback]
            .into_iter()
            .flatten()
            .find(|c| c.port == slot.port && slot.speeds.contains(&c.speed) && priceable(*c))
            .map(|c| (i, c))
    })
}

/// Share of polls the `switch_ops` fault plan drops.
const SWITCH_OPS_DROP_RATE: f64 = 0.02;

/// `switch_ops`: the 107-router Switch-like fleet over one sim week with
/// a 2 % poll-drop plan, the Fig. 4 event kinds rescheduled inside the
/// week, three instrumented routers, a checkpoint at every 8-hour chunk,
/// the default alert pack, and two shards on the worker pool.
fn switch_ops(seed: u64) -> Scenario {
    let fleet = build_fleet(&FleetConfig::switch_like(seed));
    let find = |model: &str| {
        fleet
            .find_model(model)
            .unwrap_or_else(|| panic!("the Switch-like mix always holds a {model}"))
    };
    let r8201 = find("8201-32FH");
    let rncs = find("NCS-55A1-24H");
    let rn540 = find("N540X-8Z16G-SYS-A");
    let (cage, class) = free_cage(&fleet, r8201).expect("an 8201-32FH has a free cage");
    let flap = fleet.routers[r8201].plan[0].index;
    let at = |hours: i64| SimInstant::EPOCH + SimDuration::from_hours(hours);
    let events = vec![
        ScheduledEvent {
            at: at(2),
            kind: EventKind::PlugAndEnable {
                router: r8201,
                iface: cage,
                class,
            },
        },
        ScheduledEvent {
            at: at(40),
            kind: EventKind::PowerCyclePsu {
                router: rncs,
                slot: 0,
            },
        },
        ScheduledEvent {
            at: at(72),
            kind: EventKind::UnplugTransceiver {
                router: r8201,
                iface: cage,
            },
        },
        ScheduledEvent {
            at: at(100),
            kind: EventKind::AdminDown {
                router: r8201,
                iface: flap,
            },
        },
        ScheduledEvent {
            at: at(130),
            kind: EventKind::AdminUp {
                router: r8201,
                iface: flap,
            },
        },
    ];
    Scenario {
        fleet,
        start: SimInstant::EPOCH,
        end: SimInstant::from_days(7),
        step: SimDuration::from_mins(5),
        events,
        instrumented: vec![r8201, rncs, rn540],
        faults: FaultPlan::new(seed).with_drop_rate(SWITCH_OPS_DROP_RATE),
        drop_rate: SWITCH_OPS_DROP_RATE,
        shards: 2,
        chunk_rounds: 96,
        checkpoints: true,
        alerts: true,
    }
}

impl Scenario {
    /// Poll rounds in the horizon (the first step primes).
    pub fn rounds(&self) -> u64 {
        let span = (self.end - self.start).as_secs() / self.step.as_secs();
        u64::try_from(span - 1).unwrap_or(0)
    }

    /// Router-rounds one collection performs.
    pub fn router_rounds(&self) -> u64 {
        self.rounds() * self.fleet.routers.len() as u64
    }

    pub fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("routers", self.fleet.routers.len().to_string()),
            ("rounds", self.rounds().to_string()),
            ("step_s", self.step.as_secs().to_string()),
            ("events", self.events.len().to_string()),
            ("instrumented", self.instrumented.len().to_string()),
            ("drop_rate", self.drop_rate.to_string()),
            ("shards", self.shards.to_string()),
            ("chunk_rounds", self.chunk_rounds.to_string()),
            ("checkpoints", self.checkpoints.to_string()),
            ("alerts", self.alerts.to_string()),
        ]
    }

    /// One collection on a fresh copy of the fleet, bracketed by
    /// host-speed probes. Only the engine call is timed;
    /// `checkpoint_dir` must be empty (checkpointing scenarios).
    pub fn collect(&self, checkpoint_dir: Option<&Path>, profile: bool) -> Collected {
        let mut fleet = self.fleet.clone();
        let telemetry = Telemetry::new();
        let config = StreamConfig {
            shards: self.shards,
            chunk_rounds: self.chunk_rounds,
            checkpoints: checkpoint_dir.map(CheckpointConfig::new),
            alerts: self.alerts.then(AlertsConfig::default_pack),
            profile,
            ..StreamConfig::default()
        };
        let bracket = Bracket::open();
        let t0 = Instant::now();
        let outcome = collect_streaming(
            &mut fleet,
            self.start,
            self.end,
            self.step,
            self.events.clone(),
            &self.instrumented,
            &self.faults,
            &telemetry,
            &config,
        );
        let secs = t0.elapsed().as_secs_f64();
        Collected {
            outcome: outcome.map_err(|e| e.to_string()),
            secs,
            speed: bracket.close(),
            telemetry,
        }
    }
}

/// What [`Scenario::collect`] returns.
pub struct Collected {
    pub outcome: Result<StreamOutcome, String>,
    /// Wall seconds of the engine call.
    pub secs: f64,
    /// Factor to reference-host seconds ([`crate::speed`]).
    pub speed: f64,
    /// The run's telemetry bundle.
    pub telemetry: Arc<Telemetry>,
}

/// Digest of everything a collection recorded.
pub fn trace_digest(trace: &FleetTrace) -> u64 {
    let mut d = Digest::default();
    d.u64(trace.missed_polls);
    for s in [
        &trace.total_wall,
        &trace.total_reported,
        &trace.total_traffic,
    ] {
        d.series(s);
    }
    for r in &trace.routers {
        d.bytes(r.name.as_bytes());
        for s in [&r.psu_reported, &r.wall, &r.predicted, &r.traffic] {
            d.series(s);
        }
    }
    d.finish()
}

/// Seed-independent checks on a completed collection: every series is
/// aligned to the poll grid, `missed_polls` equals the gap markers, the
/// fleet total is a gap exactly where a reporting router's poll is, and
/// every value is finite.
pub fn check_trace(sc: &Scenario, outcome: &StreamOutcome) -> Vec<String> {
    let mut bad = Vec::new();
    let trace = &outcome.trace;
    let rounds = usize::try_from(sc.rounds()).unwrap_or(usize::MAX);
    if !outcome.completed || outcome.rounds_done != sc.rounds() {
        bad.push(format!(
            "collection stopped at round {} of {}",
            outcome.rounds_done,
            sc.rounds()
        ));
    }
    if trace.routers.len() != sc.fleet.routers.len() {
        bad.push("trace router count differs from the fleet".to_owned());
        return bad;
    }
    let covered = |s: &fj_units::TimeSeries| s.len() + s.gap_count();
    for (name, s) in [
        ("total_wall", &trace.total_wall),
        ("total_reported", &trace.total_reported),
        ("total_traffic", &trace.total_traffic),
    ] {
        if covered(s) != rounds {
            bad.push(format!("{name} covers {} of {rounds} rounds", covered(s)));
        }
    }
    let mut gap_markers = 0u64;
    let mut reporting_gaps: Vec<SimInstant> = Vec::new();
    for (i, r) in trace.routers.iter().enumerate() {
        let reports = !r.psu_reported.is_empty() || r.psu_reported.has_gaps();
        if reports && covered(&r.psu_reported) != rounds {
            bad.push(format!("{}: psu series misses rounds", r.name));
        }
        let metered = sc.instrumented.contains(&i);
        if covered(&r.wall) != if metered { rounds } else { 0 } {
            bad.push(format!(
                "{}: wall series does not match instrumentation",
                r.name
            ));
        }
        if r.traffic.len() != rounds || r.predicted.len() > rounds {
            bad.push(format!("{}: traffic/predicted series misaligned", r.name));
        }
        for s in [&r.psu_reported, &r.wall, &r.predicted, &r.traffic] {
            if s.samples().iter().any(|x| !x.value.is_finite()) {
                bad.push(format!("{}: non-finite sample", r.name));
            }
        }
        gap_markers += (r.psu_reported.gap_count() + r.wall.gap_count()) as u64;
        reporting_gaps.extend_from_slice(r.psu_reported.gaps());
    }
    if trace.missed_polls != gap_markers {
        bad.push(format!(
            "missed_polls {} != gap markers {gap_markers}",
            trace.missed_polls
        ));
    }
    reporting_gaps.sort();
    reporting_gaps.dedup();
    if trace.total_reported.gaps() != reporting_gaps.as_slice() {
        bad.push("fleet-total gaps differ from the reporting routers' gaps".to_owned());
    }
    if (sc.drop_rate > 0.0) != (trace.missed_polls > 0) {
        bad.push(format!(
            "drop rate {} recorded {} missed polls",
            sc.drop_rate, trace.missed_polls
        ));
    }
    bad
}

/// A fresh checkpoint directory under the run's scratch area.
fn unit_dir(scratch: &Path, unit: usize) -> PathBuf {
    scratch.join(format!("unit-{unit}"))
}

/// The timed run: repeat the whole collection on fresh fleet copies for
/// `seconds`; the engine call alone is timed per unit.
pub fn timed(workload: &FleetWorkload, seed: u64, seconds: f64, scratch: &Path, run: &mut Run) {
    let sc = run.setup(|| (workload.build)(seed));
    run.params = sc.params();
    let rr = sc.router_rounds();
    let mut units = Vec::new();
    let mut first_digest = None;
    run.timed_phase(seconds, |run, unit| {
        let dir = sc.checkpoints.then(|| unit_dir(scratch, unit));
        let Collected {
            outcome,
            secs,
            speed,
            ..
        } = sc.collect(dir.as_deref(), false);
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        run.attempted += rr;
        let failures = match &outcome {
            Ok(o) => {
                let mut bad = check_trace(&sc, o);
                let digest = trace_digest(&o.trace);
                match first_digest {
                    None => {
                        first_digest = Some(digest);
                        if seed == crate::DEFAULT_SEED && digest != workload.pinned_digest {
                            bad.push(format!(
                                "default-seed digest {digest:#018x} != pinned {:#018x}",
                                workload.pinned_digest
                            ));
                        }
                    }
                    Some(d) if d != digest => {
                        bad.push("a repeated collection produced a different trace".to_owned());
                    }
                    Some(_) => {}
                }
                bad
            }
            Err(e) => vec![format!("collection failed: {e}")],
        };
        if failures.is_empty() {
            units.push(Unit {
                ops: rr as f64,
                secs,
                speed,
            });
        } else {
            run.fail(rr, failures.join("; "));
        }
    });
    record_throughput(run, "router_rounds_per_s", &units);
}

/// Σ spans recorded under every stage name.
fn span_count(telemetry: &Telemetry) -> u64 {
    telemetry
        .tracer()
        .totals()
        .iter()
        .map(|(_, t)| t.count)
        .sum()
}

/// Σ events emitted at every level.
fn event_count(telemetry: &Telemetry) -> u64 {
    telemetry
        .events()
        .emitted_by_level()
        .iter()
        .map(|(_, n)| n)
        .sum()
}

/// The traced run: the engine with its profiler on (for the
/// simulate/merge/pool split), the same run with checkpoints off when
/// the workload checkpoints, an inline run as the replay's untraced
/// reference when the workload is not inline already, and the per-call
/// replay that must equal the engine's trace bit for bit. Every time is
/// rescaled to reference-host speed ([`crate::speed`]) by the probes
/// around the run it came from, so times from different runs compare.
pub fn traced(workload: &FleetWorkload, seed: u64, scratch: &Path, run: &mut Run, clock_ns: f64) {
    let sc = run.setup(|| (workload.build)(seed));
    run.params = sc.params();
    let rr = sc.router_rounds();
    let dir = sc.checkpoints.then(|| unit_dir(scratch, 0));
    let main = sc.collect(dir.as_deref(), true);
    run.attempted += rr;
    let outcome = match main.outcome {
        Ok(o) => o,
        Err(e) => {
            run.fail(rr, format!("collection failed: {e}"));
            return;
        }
    };
    let digest = trace_digest(&outcome.trace);
    let mut bad = check_trace(&sc, &outcome);
    // Reruns a variant of the scenario, which must record the same trace;
    // returns its outcome and speed factor.
    let rerun = |changed: fn(&mut Scenario), what: &str, bad: &mut Vec<String>| {
        let mut other = sc.clone();
        changed(&mut other);
        let c = other.collect(None, true);
        match c.outcome {
            Ok(o) if trace_digest(&o.trace) == digest => Some((o, c.secs * c.speed, c.speed)),
            _ => {
                bad.push(format!("the run {what} produced a different trace"));
                None
            }
        }
    };
    let wall = main.secs * main.speed;
    let m = &mut run.metrics;
    if let Some(dir) = &dir {
        let newest = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".fjck"))
            .max_by_key(|e| e.file_name());
        let bytes = newest
            .and_then(|e| e.metadata().ok())
            .map_or(0, |md| md.len());
        m.set("isp.checkpoint_last_bytes", bytes as f64, 1);
        let _ = std::fs::remove_dir_all(dir);
        let written = main
            .telemetry
            .registry()
            .counter("fleet_checkpoints_written_total", &[])
            .get();
        m.set("isp.checkpoints_written", written as f64, 1);
        if let Some((_, plain, _)) =
            rerun(|s| s.checkpoints = false, "without checkpoints", &mut bad)
        {
            let ckpt_s = (wall - plain).max(0.0);
            m.set("isp.checkpoint_s", ckpt_s, 1);
            m.set("split.dominant_frac", ckpt_s / wall, 1);
        }
    }
    if let Some(eff) = &outcome.efficiency {
        let k = main.speed;
        m.set("isp.simulate_s", eff.simulate_secs * k, eff.chunks);
        m.set("isp.merge_s", eff.merge_secs * k, eff.chunks);
        m.set(
            "isp.merge_ns_per_rr",
            eff.merge_secs * k * 1e9 / rr as f64,
            rr,
        );
        m.set(
            "par.dispatch_wait_s",
            eff.pool_dispatch_wait_secs.unwrap_or(0.0) * k,
            eff.chunks,
        );
        m.set(
            "par.merge_overlap_frac",
            eff.merge_overlap_fraction.unwrap_or(0.0),
            eff.chunks,
        );
        m.set("par.efficiency", eff.efficiency, eff.chunks);
        if !sc.checkpoints {
            m.set("split.dominant_frac", eff.simulate_secs / eff.wall_secs, 1);
        }
    }
    if let Some(alerts) = &outcome.alerts {
        m.set("alerts.evals", alerts.evals() as f64, 1);
        m.set("alerts.transitions", alerts.transitions().len() as f64, 1);
    }
    m.set("telemetry.events", event_count(&main.telemetry) as f64, 1);
    m.set("telemetry.spans", span_count(&main.telemetry) as f64, 1);

    // The untraced reference for the replay: the engine's simulate busy
    // time on one inline shard without checkpoints.
    let reference_busy = if sc.shards == 1 && !sc.checkpoints {
        outcome
            .efficiency
            .as_ref()
            .map(|e| e.busy_secs * main.speed)
    } else {
        let inline = |s: &mut Scenario| {
            s.shards = 1;
            s.checkpoints = false;
        };
        rerun(inline, "on one inline shard", &mut bad)
            .and_then(|(o, _, speed)| o.efficiency.map(|e| e.busy_secs * speed))
    };

    let bracket = Bracket::open();
    let replayed = replay_and_compare(&sc, &outcome.trace);
    let k = bracket.close();
    match replayed {
        Ok((layers, mismatches)) => {
            bad.extend(mismatches);
            let per_rr = |calls: u64| calls as f64 / layers.router_rounds.max(1) as f64;
            let set_ns = |m: &mut Metrics, name, s: crate::report::CallStats| {
                m.set(name, s.mean_ns(clock_ns) * k, s.calls);
            };
            set_ns(m, "router_sim.wall_power.ns", layers.wall_power);
            set_ns(m, "router_sim.psu_read.ns", layers.psu_read);
            m.set(
                "router_sim.psu_read.calls_per_rr",
                per_rr(layers.psu_read.calls),
                layers.router_rounds,
            );
            set_ns(m, "traffic.rate.ns", layers.rate);
            m.set(
                "traffic.rate.calls_per_rr",
                per_rr(layers.rate.calls),
                layers.router_rounds,
            );
            set_ns(m, "isp.predict.ns", layers.predict);
            set_ns(m, "isp.router_step.ns", layers.router_step);
            set_ns(m, "isp.event_apply.ns", layers.event_apply);
            m.set(
                "isp.events_applied",
                layers.event_apply.calls as f64,
                layers.event_apply.calls,
            );
            set_ns(m, "faults.should_drop.ns", layers.should_drop);
            m.set(
                "faults.gap_frac",
                layers.gaps as f64 / layers.polls.max(1) as f64,
                layers.polls,
            );
            m.set(
                "faults.health_transitions",
                layers.health_transitions as f64,
                layers.router_rounds,
            );
            if let Some(busy) = reference_busy {
                // The engine's simulate work on one thread against the
                // same work replayed on one thread with timers on.
                m.set(
                    "trace.overhead_frac",
                    layers.wall.as_secs_f64() * k / busy - 1.0,
                    1,
                );
            }
        }
        Err(e) => bad.push(format!("replay failed: {e}")),
    }
    if !bad.is_empty() {
        run.fail(rr, bad.join("; "));
    }
}
