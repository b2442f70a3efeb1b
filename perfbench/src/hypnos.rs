//! `link_sleeping`: the §8 loop — every sim hour, observe the internal
//! links, let Hypnos decide which to sleep, and advance the fleet an
//! hour on two scoped shards — over 28 sim days (672 decisions) per
//! pass. The loop never touches the streaming engine or the power model,
//! so it is the control for fleet-engine changes.
//!
//! The topology is the Switch-like fleet of [`crate::DEFAULT_SEED`]
//! whatever the seed: `decide`'s cost grows with about the cube of the
//! internal link count, which ranges over ±7 % between fleet seeds, so a
//! seed-built topology would move the figures by ±20 % on input alone.
//! The seed instead picks the hour of the week the loop starts at, and
//! with it the traffic every decision sees.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use fj_hypnos::algorithm::{decide, observe_links};
use fj_hypnos::{HypnosConfig, HypnosOutcome};
use fj_isp::{build_fleet, Fleet, FleetConfig};
use fj_units::{SimDuration, SimInstant};

use crate::digest::Digest;
use crate::speed::Bracket;
use crate::stats::{median, tail};
use crate::{record_throughput, tail_note, Run, Unit};

/// Decisions per pass: hourly over 28 sim days.
const PASS: usize = 28 * 24;
/// Decisions per traced run: one sim week.
const TRACED: usize = 7 * 24;
/// Decisions per sim day: the throughput unit; the first day's are
/// folded into the pinned digest.
const DAY: usize = 24;
/// Shards `Fleet::advance_with_shards` steps the fleet on.
const SHARDS: usize = 2;
/// Digest of the default seed's first sim day of decisions.
const PINNED_DIGEST: u64 = 0x9625_4c75_35a1_c21b;

/// The fleet for `seed`: the fixed topology, its clocks set to the
/// seed's starting hour of the week.
fn fleet_for(seed: u64) -> Fleet {
    let mut fleet = build_fleet(&FleetConfig::switch_like(crate::DEFAULT_SEED));
    let start = SimInstant::EPOCH + SimDuration::from_hours(start_hour(seed));
    for r in &mut fleet.routers {
        r.sim.set_time(start);
    }
    fleet
}

fn start_hour(seed: u64) -> i64 {
    i64::try_from(seed % (7 * 24)).unwrap_or(0)
}

fn params(fleet: &Fleet, seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("routers", fleet.routers.len().to_string()),
        ("links", fleet.links.len().to_string()),
        ("topology_seed", crate::DEFAULT_SEED.to_string()),
        ("start_hour", start_hour(seed).to_string()),
        ("decision_step_s", "3600".to_owned()),
        ("decisions_per_pass", PASS.to_string()),
        ("shards", SHARDS.to_string()),
    ]
}

/// Components of the graph on `nodes` with `edges` (union-find).
fn components(nodes: &BTreeSet<usize>, edges: impl Iterator<Item = (usize, usize)>) -> usize {
    let index: Vec<usize> = nodes.iter().copied().collect();
    let mut parent: Vec<usize> = (0..index.len()).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut count = index.len();
    for (a, b) in edges {
        let (Ok(a), Ok(b)) = (index.binary_search(&a), index.binary_search(&b)) else {
            continue;
        };
        let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
            count -= 1;
        }
    }
    count
}

/// Checks one decision from outside the algorithm: slept links are
/// distinct considered links under the utilisation cap, and sleeping
/// them leaves the internal topology with no more components than it
/// had with every link up.
fn check_decision(outcome: &HypnosOutcome, config: &HypnosConfig) -> Option<String> {
    let slept: BTreeSet<usize> = outcome.slept.iter().copied().collect();
    if slept.len() != outcome.slept.len() {
        return Some("a link was slept twice".to_owned());
    }
    for id in &slept {
        match outcome.considered.iter().find(|o| o.link_id == *id) {
            None => return Some(format!("slept link {id} was never considered")),
            Some(o) if o.utilization() > config.max_sleep_utilization => {
                return Some(format!("slept link {id} is above the utilisation cap"));
            }
            Some(_) => {}
        }
    }
    let nodes: BTreeSet<usize> = outcome
        .considered
        .iter()
        .flat_map(|o| [o.routers.0, o.routers.1])
        .collect();
    let all = components(&nodes, outcome.considered.iter().map(|o| o.routers));
    let awake = components(
        &nodes,
        outcome
            .considered
            .iter()
            .filter(|o| !slept.contains(&o.link_id))
            .map(|o| o.routers),
    );
    (awake > all).then(|| format!("sleeping split the topology: {all} → {awake} components"))
}

fn fold(d: &mut Digest, outcome: &HypnosOutcome) {
    d.u64(outcome.considered.len() as u64);
    d.u64(outcome.slept.len() as u64);
    for id in &outcome.slept {
        d.u64(*id as u64);
    }
}

/// The timed run: sim days of decisions until `seconds` have passed,
/// starting a fresh pass on a copy of the built fleet every 28 days.
pub fn timed(seed: u64, seconds: f64, run: &mut Run) {
    let fleet = run.setup(|| fleet_for(seed));
    run.params = params(&fleet, seed);
    let config = HypnosConfig::default();
    let mut current = fleet.clone();
    let mut latencies_us = Vec::new();
    let mut days = Vec::new();
    let mut first_day: Option<u64> = None;
    run.timed_phase(seconds, |run, day| {
        if day > 0 && day % (PASS / DAY) == 0 {
            current = fleet.clone();
        }
        let bracket = Bracket::open();
        let mut busy = Duration::ZERO;
        let mut digest = Digest::default();
        for _ in 0..DAY {
            let t0 = Instant::now();
            let outcome = decide(&observe_links(&current), &config);
            let advanced = current.advance_with_shards(SimDuration::from_hours(1), SHARDS);
            let elapsed = t0.elapsed();
            busy += elapsed;
            run.attempted += 1;
            fold(&mut digest, &outcome);
            match advanced.map_err(|e| format!("fleet advance failed: {e}")) {
                Err(why) => run.fail(1, why),
                Ok(()) => match check_decision(&outcome, &config) {
                    Some(why) => run.fail(1, why),
                    None => latencies_us.push(elapsed.as_secs_f64() * 1e6),
                },
            }
        }
        days.push(Unit {
            ops: DAY as f64,
            secs: busy.as_secs_f64(),
            speed: bracket.close(),
        });
        // Every pass starts from the same fleet, so its first day must
        // decide exactly as the run's first day did.
        if day % (PASS / DAY) == 0 {
            let digest = digest.finish();
            match first_day {
                None if seed == crate::DEFAULT_SEED && digest != PINNED_DIGEST => run.fail(
                    DAY as u64,
                    format!("default-seed digest {digest:#018x} != pinned {PINNED_DIGEST:#018x}"),
                ),
                Some(d) if d != digest => {
                    run.fail(DAY as u64, "a repeated pass decided differently".to_owned());
                }
                _ => {}
            }
            first_day.get_or_insert(digest);
        }
    });
    record_throughput(run, "decisions_per_s", &days);
    let n = latencies_us.len() as u64;
    run.metrics.set(
        "decision_p50_us",
        median(&latencies_us).unwrap_or(f64::NAN),
        n,
    );
    if let Some(t) = tail(&latencies_us) {
        run.metrics.set("decision_tail_us", t.value, n);
        run.notes.push(tail_note("decision_tail_us", t, n));
    }
}

/// The traced run: one sim week of decisions with `observe_links`,
/// `decide` and `Fleet::advance_with_shards` timed separately, rescaled
/// to reference-host speed ([`crate::speed`]).
pub fn traced(seed: u64, run: &mut Run) {
    let mut fleet = run.setup(|| fleet_for(seed));
    run.params = params(&fleet, seed);
    let config = HypnosConfig::default();
    let (mut observe, mut advance) = (Duration::ZERO, Duration::ZERO);
    let mut decide_ms = Vec::with_capacity(TRACED);
    let (mut considered, mut slept) = (0usize, 0usize);
    let bracket = Bracket::open();
    for _ in 0..TRACED {
        let t0 = Instant::now();
        let obs = observe_links(&fleet);
        let t1 = Instant::now();
        let outcome = decide(&obs, &config);
        let t2 = Instant::now();
        let advanced = fleet.advance_with_shards(SimDuration::from_hours(1), SHARDS);
        advance += t2.elapsed();
        observe += t1 - t0;
        decide_ms.push((t2 - t1).as_secs_f64() * 1e3);
        run.attempted += 1;
        considered += outcome.considered.len();
        slept += outcome.slept.len();
        let bad = match advanced {
            Err(e) => Some(format!("fleet advance failed: {e}")),
            Ok(()) => check_decision(&outcome, &config),
        };
        if let Some(why) = bad {
            run.fail(1, why);
        }
    }
    // Rescale every time to reference-host speed.
    let k = bracket.close();
    let n = TRACED as u64;
    let decide_total: f64 = decide_ms.iter().sum::<f64>() / 1e3;
    let m = &mut run.metrics;
    m.set(
        "hypnos.observe.us",
        observe.as_secs_f64() * k * 1e6 / n as f64,
        n,
    );
    m.set(
        "hypnos.decide_p50_ms",
        median(&decide_ms).unwrap_or(0.0) * k,
        n,
    );
    if let Some(t) = tail(&decide_ms) {
        m.set("hypnos.decide_tail_ms", t.value * k, n);
        run.notes.push(tail_note(
            "hypnos.decide_tail_ms",
            t,
            decide_ms.len() as u64,
        ));
    }
    m.set(
        "hypnos.candidates_per_decision",
        considered as f64 / n as f64,
        n,
    );
    m.set(
        "hypnos.slept_frac",
        slept as f64 / considered.max(1) as f64,
        n,
    );
    m.set(
        "isp.advance.ms",
        advance.as_secs_f64() * k * 1e3 / n as f64,
        n,
    );
    m.set(
        "split.dominant_frac",
        decide_total / (decide_total + observe.as_secs_f64() + advance.as_secs_f64()),
        n,
    );
}
