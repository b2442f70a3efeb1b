//! `snmp_walk`: one `SnmpAgent` serving one simulated 8201-32FH (its
//! ports populated from the seed's Switch-like fleet) on UDP loopback,
//! walked end to end by one `SnmpPoller` on the main thread — a closed
//! loop with one request outstanding. Between walks the router advances
//! one 5-minute poll period, so every walk reads fresh counters and PSU
//! sensors.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use fj_isp::{build_fleet, FleetConfig, FleetRouter};
use fj_router_sim::SimulatedRouter;
use fj_snmp::agent::AgentConfig;
use fj_snmp::{MibValue, Oid, Pdu, SnmpAgent, SnmpError, SnmpPoller};
use fj_telemetry::Telemetry;
use fj_traffic::PacketProfile;
use fj_units::{SimDuration, SimInstant};

use crate::digest::Digest;
use crate::report::CallStats;
use crate::speed::Bracket;
use crate::stats::{median, percentile, tail, Reservoir};
use crate::{record_throughput, tail_note, Run, Unit};

/// The router model served.
const MODEL: &str = "8201-32FH";
/// Walks in a traced run.
const TRACED_WALKS: usize = 20;
/// Walks per throughput unit (about a second of gets).
const WALKS_PER_UNIT: usize = 20;
/// Get latencies kept for the percentiles: more than a 25-second run
/// records, so they are exact there.
const LATENCY_SAMPLE: usize = 1 << 19;
/// Digest of the default seed's first walk.
const PINNED_DIGEST: u64 = 0x29be_48db_0881_4680;

type Rows = Vec<(Oid, MibValue)>;

/// The agent, its router, and the poller walking it.
struct Rig {
    agent: SnmpAgent,
    poller: SnmpPoller,
    shared: Arc<Mutex<SimulatedRouter>>,
    router: FleetRouter,
    packets: PacketProfile,
}

fn step() -> SimDuration {
    SimDuration::from_mins(5)
}

fn rig(seed: u64) -> io::Result<Rig> {
    let fleet = build_fleet(&FleetConfig::switch_like(seed));
    let index = fleet
        .find_model(MODEL)
        .ok_or_else(|| io::Error::other(format!("no {MODEL} in the fleet")))?;
    let mut router = fleet.routers[index].clone();
    router.sim.set_time(SimInstant::EPOCH);
    router
        .step(SimInstant::EPOCH, &fleet.packets, step())
        .map_err(io::Error::other)?;
    let shared = Arc::new(Mutex::new(router.sim.clone()));
    let telemetry = Telemetry::new();
    let agent = SnmpAgent::spawn_with_config(
        Arc::clone(&shared),
        AgentConfig {
            telemetry: Arc::clone(&telemetry),
            ..AgentConfig::default()
        },
    )?;
    let poller = SnmpPoller::with_telemetry(telemetry)?;
    Ok(Rig {
        agent,
        poller,
        shared,
        router,
        packets: fleet.packets,
    })
}

impl Rig {
    /// The in-process MIB view of the router's current state, taken on
    /// a copy so the served router is not touched.
    fn expected(&self) -> Rows {
        let tree = fj_snmp::snapshot(&mut self.router.sim.clone());
        tree.walk(&root())
            .into_iter()
            .map(|(o, v)| (o.clone(), v.clone()))
            .collect()
    }

    /// Advances the router one poll period and hands the agent the new
    /// state.
    fn tick(&mut self) -> Result<(), String> {
        let now = self.router.sim.now();
        self.router
            .step(now, &self.packets, step())
            .map_err(|e| e.to_string())?;
        *self.shared.lock() = self.router.sim.clone();
        Ok(())
    }

    /// One full walk with every GET-NEXT timed: the rows, the per-get
    /// latencies (µs), and the error that ended the walk early, if any.
    fn walk(&mut self) -> (Rows, Vec<f64>, Option<SnmpError>) {
        let root = root();
        let mut rows = Vec::new();
        let mut latencies = Vec::new();
        let mut cursor = root.clone();
        loop {
            let t0 = Instant::now();
            let got = self.poller.get_next(self.agent.addr(), &cursor);
            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
            match got {
                Ok((oid, value)) if root.is_prefix_of(&oid) => {
                    cursor = oid.clone();
                    rows.push((oid, value));
                }
                // Walked past the subtree, or past the end of the MIB.
                Ok(_) | Err(SnmpError::NoSuchObject(_)) => return (rows, latencies, None),
                Err(e) => return (rows, latencies, Some(e)),
            }
        }
    }
}

/// The whole MIB: everything under `iso(1)`.
fn root() -> Oid {
    Oid::new(vec![1])
}

fn walk_digest(rows: &Rows) -> u64 {
    let mut d = Digest::default();
    for (oid, value) in rows {
        for arc in oid.arcs() {
            d.u64(u64::from(*arc));
        }
        d.bytes(format!("{value:?}").as_bytes());
    }
    d.finish()
}

fn params(rows: usize) -> Vec<(&'static str, String)> {
    vec![
        ("model", MODEL.to_owned()),
        ("rows_per_walk", rows.to_string()),
        ("outstanding_requests", "1".to_owned()),
        ("tick_s", step().as_secs().to_string()),
    ]
}

/// Checks one walk against the in-process snapshot of the same state.
fn check_walk(rows: &Rows, expected: &Rows, error: Option<SnmpError>) -> Option<String> {
    if let Some(e) = error {
        return Some(format!("walk failed: {e}"));
    }
    if rows.len() != expected.len() {
        return Some(format!(
            "walk returned {} rows, the snapshot holds {}",
            rows.len(),
            expected.len()
        ));
    }
    rows.iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .map(|i| format!("walked row {i} differs from the snapshot"))
}

/// The timed run: blocks of [`WALKS_PER_UNIT`] walks until `seconds`
/// have passed; only the GET-NEXT round trips are timed.
pub fn timed(seed: u64, seconds: f64, run: &mut Run) {
    let mut rig = match run.setup(|| rig(seed)) {
        Ok(r) => r,
        Err(e) => {
            run.failures.push(format!("agent setup failed: {e}"));
            return;
        }
    };
    let mut latencies = Reservoir::new(LATENCY_SAMPLE);
    let mut units = Vec::new();
    let mut rows_per_walk = None;
    run.timed_phase(seconds, |run, _| {
        let bracket = Bracket::open();
        let mut unit = Unit {
            ops: 0.0,
            secs: 0.0,
            speed: 1.0,
        };
        for _ in 0..WALKS_PER_UNIT {
            let expected = rig.expected();
            let (rows, lat, error) = rig.walk();
            let gets = lat.len() as u64;
            run.attempted += gets;
            let mut bad = check_walk(&rows, &expected, error);
            if rows_per_walk.is_none() {
                let digest = walk_digest(&rows);
                if seed == crate::DEFAULT_SEED && digest != PINNED_DIGEST {
                    bad = Some(format!(
                        "default-seed digest {digest:#018x} != pinned {PINNED_DIGEST:#018x}"
                    ));
                }
                rows_per_walk = Some(rows.len());
            }
            if let Err(e) = rig.tick() {
                bad = Some(format!("router tick failed: {e}"));
            }
            match bad {
                None => {
                    unit.ops += lat.len() as f64;
                    unit.secs += lat.iter().sum::<f64>() / 1e6;
                    for l in lat {
                        latencies.push(l);
                    }
                }
                Some(why) => run.fail(gets, why),
            }
        }
        unit.speed = bracket.close();
        if unit.ops > 0.0 {
            units.push(unit);
        }
    });
    run.params = params(rows_per_walk.unwrap_or(0));
    record_throughput(run, "gets_per_s", &units);
    let n = latencies.seen();
    let latencies = latencies.values();
    let m = &mut run.metrics;
    m.set("get_p50_us", median(latencies).unwrap_or(f64::NAN), n);
    if let Some(t) = percentile(latencies, 9_900) {
        m.set("get_p99_us", t.value, n);
    }
    if let Some(t) = tail(latencies) {
        m.set("get_tail_us", t.value, n);
        run.notes
            .push(tail_note("get_tail_us", t, latencies.len() as u64));
    }
}

/// Times `reps` calls of `f` into `stats`.
fn time_reps<T>(stats: &mut CallStats, reps: u32, mut f: impl FnMut() -> T) {
    for _ in 0..reps {
        std::hint::black_box(stats.time(&mut f));
    }
}

/// The request and response PDUs of a walk over `rows`.
fn walk_pdus(rows: &Rows) -> Vec<(Pdu, Pdu)> {
    let mut cursor = root();
    rows.iter()
        .enumerate()
        .map(|(i, (oid, value))| {
            let id = u32::try_from(i).unwrap_or(u32::MAX);
            let request = Pdu::get_next(id, std::mem::replace(&mut cursor, oid.clone()));
            let mut response = Pdu::get_next(id, oid.clone());
            response.pdu_type = fj_snmp::PduType::Response;
            response.value = Some(value.clone());
            (request, response)
        })
        .collect()
}

/// The traced run: the get latency over [`TRACED_WALKS`] walks, set
/// against the pieces a get is made of — the agent's per-request MIB
/// snapshot (timed on a copy of the router state the walk read), the
/// codec on the walk's own PDUs, and what is left: loopback and wake-up.
/// The pieces are timed right after each walk, so host-speed swings hit
/// both sides of the split alike; every time is then rescaled to
/// reference-host speed ([`crate::speed`]).
pub fn traced(seed: u64, run: &mut Run, clock_ns: f64) {
    let mut rig = match run.setup(|| rig(seed)) {
        Ok(r) => r,
        Err(e) => {
            run.failures.push(format!("agent setup failed: {e}"));
            return;
        }
    };
    let seen_before = rig.agent.requests_seen();
    let mut latencies = Vec::new();
    let mut rows_seen = 0;
    let (mut snapshot, mut wall, mut psu) = (
        CallStats::default(),
        CallStats::default(),
        CallStats::default(),
    );
    let (mut encode, mut decode) = (CallStats::default(), CallStats::default());
    let bracket = Bracket::open();
    for _ in 0..TRACED_WALKS {
        let expected = rig.expected();
        let (rows, lat, error) = rig.walk();
        let gets = lat.len() as u64;
        run.attempted += gets;
        rows_seen = rows.len();
        let mut sim = rig.shared.lock().clone();
        time_reps(&mut snapshot, 100, || fj_snmp::snapshot(&mut sim));
        time_reps(&mut wall, 1_000, || sim.wall_power());
        for slot in 0..sim.psu_count() {
            time_reps(&mut psu, 100, || sim.psu_reported_power(slot));
        }
        for (request, response) in walk_pdus(&rows) {
            for pdu in [request, response] {
                let wire = encode.time(|| pdu.encode());
                let _ = std::hint::black_box(decode.time(|| Pdu::decode(&wire)));
            }
        }
        let mut bad = check_walk(&rows, &expected, error);
        if let Err(e) = rig.tick() {
            bad = Some(format!("router tick failed: {e}"));
        }
        match bad {
            None => latencies.extend(lat),
            Some(why) => run.fail(gets, why),
        }
    }
    let speed = bracket.close();
    run.params = params(rows_seen);
    let gets = run.attempted;
    let requests = rig.agent.requests_seen() - seen_before;
    let get_p50 = median(&latencies).unwrap_or(0.0) * speed;
    let ns = |s: &CallStats| s.mean_ns(clock_ns) * speed;
    // Every get encodes and decodes one request and one response.
    let codec_us = 2.0 * (ns(&encode) + ns(&decode)) / 1e3;
    let snapshot_us = ns(&snapshot) / 1e3;

    let m = &mut run.metrics;
    m.set("snmp.snapshot.us", snapshot_us, snapshot.calls);
    m.set("snmp.encode.ns", ns(&encode), encode.calls);
    m.set("snmp.decode.ns", ns(&decode), decode.calls);
    m.set(
        "snmp.requests_per_get",
        requests as f64 / gets.max(1) as f64,
        gets,
    );
    m.set(
        "snmp.wait_us",
        (get_p50 - snapshot_us - codec_us).max(0.0),
        latencies.len() as u64,
    );
    m.set("snmp.rows_per_walk", rows_seen as f64, TRACED_WALKS as u64);
    m.set("router_sim.wall_power.ns", ns(&wall), wall.calls);
    m.set("router_sim.psu_read.ns", ns(&psu), psu.calls);
    m.set(
        "split.dominant_frac",
        snapshot_us / get_p50,
        latencies.len() as u64,
    );
}
