//! End-to-end test of the UDP telemetry path: simulated router → agent →
//! poller, the way the Switch collection polls production routers.

use std::sync::Arc;

use parking_lot::Mutex;

use fj_core::{InterfaceLoad, Speed, TransceiverType};
use fj_faults::{FaultPlan, HealthState};
use fj_router_sim::{RouterSpec, SimulatedRouter};
use fj_snmp::mib::{oids, total_psu_power};
use fj_snmp::{MibValue, SnmpAgent, SnmpError, SnmpPoller};
use fj_telemetry::Telemetry;
use fj_units::{Bytes, DataRate, SimDuration};

fn lab_router() -> SimulatedRouter {
    let mut r = SimulatedRouter::new(RouterSpec::builtin("8201-32FH").unwrap(), 5);
    r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
    r.plug(1, TransceiverType::PassiveDac, Speed::G100).unwrap();
    r.cable(0, 1).unwrap();
    r.set_admin(0, true).unwrap();
    r.set_admin(1, true).unwrap();
    r
}

#[test]
fn poll_counters_over_udp() {
    let router = Arc::new(Mutex::new(lab_router()));
    let agent = SnmpAgent::spawn(Arc::clone(&router)).unwrap();
    let mut poller = SnmpPoller::new().unwrap();

    // Drive traffic while the agent is live.
    {
        let mut r = router.lock();
        r.set_load(
            0,
            InterfaceLoad::from_rate(DataRate::from_gbps(8.0), Bytes::new(1000.0)),
        )
        .unwrap();
        r.tick(SimDuration::from_secs(60));
    }

    let v = poller
        .get(agent.addr(), &oids::if_hc_in_octets().child(1))
        .unwrap();
    match v {
        MibValue::Counter64(octets) => {
            // 8 Gbps for 60 s = 60 GB total, half attributed to "in".
            assert_eq!(octets, 30 * 1_000_000_000);
        }
        other => panic!("unexpected value {other:?}"),
    }

    // Admin status of an unconfigured port is down (2).
    let admin = poller
        .get(agent.addr(), &oids::if_admin_status().child(9))
        .unwrap();
    assert_eq!(admin, MibValue::Integer(2));

    agent.shutdown();
}

#[test]
fn walk_psu_sensors_over_udp() {
    let router = Arc::new(Mutex::new(lab_router()));
    let agent = SnmpAgent::spawn(Arc::clone(&router)).unwrap();
    let mut poller = SnmpPoller::new().unwrap();

    let rows = poller.walk(agent.addr(), &oids::psu_in_power()).unwrap();
    assert_eq!(rows.len(), 2, "two PSUs report power");
    let total: f64 = rows.iter().filter_map(|(_, v)| v.as_f64()).sum();
    let wall = router.lock().wall_power().as_f64();
    // The 8201's sensors read ~8.5 W high per PSU (Fig. 4a pathology).
    assert!(
        (total - wall - 17.0).abs() < 5.0,
        "total {total} wall {wall}"
    );

    // Cross-check against the in-process snapshot path.
    let tree = fj_snmp::snapshot(&mut router.lock());
    let in_process = total_psu_power(&tree).unwrap();
    assert!((in_process - total).abs() < 3.0);

    agent.shutdown();
}

#[test]
fn missing_object_reports_no_such() {
    let router = Arc::new(Mutex::new(lab_router()));
    let agent = SnmpAgent::spawn(router).unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    let bogus: fj_snmp::Oid = "9.9.9.9".parse().unwrap();
    match poller.get(agent.addr(), &bogus) {
        Err(SnmpError::NoSuchObject(oid)) => assert_eq!(oid, bogus),
        other => panic!("unexpected {other:?}"),
    }
    agent.shutdown();
}

#[test]
fn non_reporting_router_has_no_psu_rows() {
    let router = Arc::new(Mutex::new(SimulatedRouter::new(
        RouterSpec::builtin("N540X-8Z16G-SYS-A").unwrap(),
        1,
    )));
    let agent = SnmpAgent::spawn(router).unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    let rows = poller.walk(agent.addr(), &oids::psu_in_power()).unwrap();
    assert!(rows.is_empty());
    agent.shutdown();
}

#[test]
fn timeout_against_dead_agent() {
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(30);
    poller.retries = 2;
    // An unused loopback port: nothing answers.
    let dead = "127.0.0.1:9".parse().unwrap();
    match poller.get(dead, &"1.2.3".parse().unwrap()) {
        Err(SnmpError::Timeout) | Err(SnmpError::Io(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn walk_full_interface_table() {
    let router = Arc::new(Mutex::new(lab_router()));
    let agent = SnmpAgent::spawn(router).unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    let rows = poller.walk(agent.addr(), &oids::if_oper_status()).unwrap();
    assert_eq!(rows.len(), 32, "one row per interface");
    let up = rows
        .iter()
        .filter(|(_, v)| *v == MibValue::Integer(1))
        .count();
    assert_eq!(up, 2);
    agent.shutdown();
}

#[test]
fn poller_retries_through_datagram_loss() {
    // The agent drops ~30% of requests per a seeded fault plan; the
    // poller's retry budget still completes a full interface-table walk.
    // Decisions are a pure function of (seed, stream, index), so the
    // walk either always passes or always fails for a given seed.
    let router = Arc::new(Mutex::new(lab_router()));
    let plan = FaultPlan::new(0xF1EE7).with_drop_rate(0.3);
    let agent = SnmpAgent::spawn_with_faults(router, plan, "lossy").unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(50);
    poller.retries = 5;
    let rows = poller
        .walk(agent.addr(), &oids::if_oper_status())
        .expect("retries absorb 30% loss");
    assert_eq!(rows.len(), 32);
    agent.shutdown();
}

#[test]
fn poller_retries_through_corrupted_replies() {
    // Corrupted datagrams fail to decode (or decode to a mismatched
    // request id) and are treated like loss: retried, never surfaced.
    let router = Arc::new(Mutex::new(lab_router()));
    let plan = FaultPlan::new(11).with_corrupt_rate(0.3);
    let agent = SnmpAgent::spawn_with_faults(router, plan, "noisy").unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(50);
    poller.retries = 5;
    let rows = poller
        .walk(agent.addr(), &oids::if_oper_status())
        .expect("retries absorb corruption");
    assert_eq!(rows.len(), 32);
    agent.shutdown();
}

#[test]
fn duplicated_replies_are_harmless() {
    // Duplicate responses either match the outstanding request (consumed
    // once, the copy discarded on the next request's id check) or are
    // stray and skipped.
    let router = Arc::new(Mutex::new(lab_router()));
    let plan = FaultPlan::new(5).with_duplicate_rate(1.0);
    let agent = SnmpAgent::spawn_with_faults(router, plan, "dup").unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    let rows = poller.walk(agent.addr(), &oids::if_oper_status()).unwrap();
    assert_eq!(rows.len(), 32);
    agent.shutdown();
}

#[test]
fn poller_gives_up_under_total_loss() {
    let router = Arc::new(Mutex::new(lab_router()));
    let plan = FaultPlan::new(0).with_drop_rate(1.0); // drop all
    let agent = SnmpAgent::spawn_with_faults(router, plan, "dead").unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(20);
    poller.retries = 2;
    match poller.get(agent.addr(), &oids::sys_descr()) {
        Err(SnmpError::Timeout) => {}
        other => panic!("unexpected {other:?}"),
    }
    agent.shutdown();
}

#[test]
fn failing_target_degrades_and_backs_off() {
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(10);
    poller.retries = 1;
    let dead = "127.0.0.1:9".parse().unwrap();
    let oid: fj_snmp::Oid = "1.2.3".parse().unwrap();

    assert_eq!(poller.health(dead), HealthState::Healthy);
    // First failure opens a backoff window.
    assert!(poller.get(dead, &oid).is_err());
    assert!(poller.in_backoff(dead));
    // Polls inside the window short-circuit without touching the network.
    let t0 = std::time::Instant::now();
    match poller.get(dead, &oid) {
        Err(SnmpError::TargetSuppressed) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(5),
        "suppressed poll must not wait out the timeout"
    );

    // Drive the target down the health ladder (waiting out each window).
    for _ in 0..8 {
        while poller.in_backoff(dead) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let _ = poller.get(dead, &oid);
    }
    assert_eq!(poller.health(dead), HealthState::Quarantined);
}

/// `snmp_poll_duration_seconds` observes one latency per attempted round
/// trip — successes and timeouts alike — and nothing for a poll the
/// backoff window suppressed before it touched the network.
#[test]
fn poll_duration_counts_round_trips_not_suppressed_polls() {
    let router = Arc::new(Mutex::new(lab_router()));
    let agent = SnmpAgent::spawn(Arc::clone(&router)).unwrap();
    let telemetry = Telemetry::new();
    let mut poller = SnmpPoller::with_telemetry(Arc::clone(&telemetry)).unwrap();
    poller.timeout = std::time::Duration::from_millis(10);
    poller.retries = 1;
    let oid = oids::sys_descr();

    const LIVE: u64 = 3;
    for _ in 0..LIVE {
        poller.get(agent.addr(), &oid).unwrap();
    }
    // A dead target: every attempt times out and widens the backoff
    // window, so polls in between are suppressed without a round trip.
    let dead = "127.0.0.1:9".parse().unwrap();
    const SUPPRESSED: u64 = 4;
    let (mut attempted, mut suppressed) = (0u64, 0u64);
    for _ in 0..1_000 {
        if suppressed == SUPPRESSED {
            break;
        }
        match poller.get(dead, &oid) {
            Err(SnmpError::TargetSuppressed) => suppressed += 1,
            Err(SnmpError::Timeout) => attempted += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(suppressed, SUPPRESSED, "the backoff window never opened");
    assert!(attempted >= 1, "the first dead poll is a real round trip");

    let registry = telemetry.registry();
    let durations = registry
        .histogram("snmp_poll_duration_seconds", &[])
        .snapshot();
    assert_eq!(durations.count, LIVE + attempted);
    assert_eq!(
        registry.counter("snmp_polls_suppressed_total", &[]).get(),
        SUPPRESSED
    );
    agent.shutdown();
}

#[test]
fn recovered_target_returns_to_healthy() {
    let router = Arc::new(Mutex::new(lab_router()));
    // Flaky during the first requests, then clean: with a tiny retry
    // budget the first polls fail, then a success resets the ladder.
    let agent = SnmpAgent::spawn(Arc::clone(&router)).unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(10);
    poller.retries = 1;
    let oid = oids::sys_descr();

    // Manufacture failures against a dead port first.
    let dead = "127.0.0.1:9".parse().unwrap();
    for _ in 0..3 {
        while poller.in_backoff(dead) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let _ = poller.get(dead, &oid);
    }
    assert_eq!(poller.health(dead), HealthState::Degraded);

    // The live agent stays healthy and a success keeps it there.
    poller.get(agent.addr(), &oid).unwrap();
    assert_eq!(poller.health(agent.addr()), HealthState::Healthy);
    assert!(!poller.in_backoff(agent.addr()));
    agent.shutdown();
}

#[test]
fn predicted_drops_match_plan() {
    // The agent's request indices line up with the plan's event indices,
    // so a test can predict exactly which requests were eaten.
    let router = Arc::new(Mutex::new(lab_router()));
    let plan = FaultPlan::new(77).with_drop_rate(0.5);
    let agent = SnmpAgent::spawn_with_faults(router, plan.clone(), "predict").unwrap();
    let mut poller = SnmpPoller::new().unwrap();
    poller.timeout = std::time::Duration::from_millis(30);
    poller.retries = 1;
    poller.retry_pause = std::time::Duration::from_millis(1);

    let oid = oids::sys_descr();
    let mut outcomes = Vec::new();
    for _ in 0..20 {
        while poller.in_backoff(agent.addr()) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        outcomes.push(poller.get(agent.addr(), &oid).is_ok());
    }
    assert_eq!(agent.requests_seen(), 20);
    let dropped = plan.expected_drops("predict", 20);
    for (i, ok) in outcomes.iter().enumerate() {
        assert_eq!(
            *ok,
            !dropped.contains(&(i as u64)),
            "request {i}: observed {ok}, plan says dropped={}",
            dropped.contains(&(i as u64))
        );
    }
    agent.shutdown();
}

#[test]
fn fleet_of_107_agents_idles_quietly() {
    // The agent loop used to busy-poll with a 5 ms read timeout: 107
    // idle agents woke ~21k times per second between polls. With the
    // parameterized timeout and datagram-wakeup shutdown, an idle fleet
    // should burn close to zero CPU — checked against the process's
    // actual CPU clock, with a generous bound for noisy CI machines.
    let routers: Vec<_> = (0..107)
        .map(|_| Arc::new(Mutex::new(lab_router())))
        .collect();
    let agents: Vec<_> = routers
        .iter()
        .map(|r| SnmpAgent::spawn(Arc::clone(r)).unwrap())
        .collect();

    let cpu_before = process_cpu();
    std::thread::sleep(std::time::Duration::from_millis(600));
    let cpu_spent = process_cpu() - cpu_before;

    // A quick poll proves the fleet is alive, not parked.
    let mut poller = SnmpPoller::new().unwrap();
    for agent in agents.iter().take(3) {
        poller.get(agent.addr(), &oids::sys_descr()).unwrap();
    }
    // Shutdown is wakeup-datagram driven: the whole fleet must come down
    // far faster than 107 × read_timeout.
    let t0 = std::time::Instant::now();
    for agent in agents {
        agent.shutdown();
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );
    assert!(
        cpu_spent < std::time::Duration::from_millis(250),
        "idle fleet burned {cpu_spent:?} of CPU in 600 ms wall"
    );
}

/// Total user+system CPU consumed by this process (Linux).
fn process_cpu() -> std::time::Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("linux /proc");
    // Fields 14 (utime) and 15 (stime), in clock ticks, after the comm
    // field which is parenthesised and may contain spaces.
    let after = stat.rsplit(')').next().expect("stat tail");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    let ticks_per_sec = 100u64; // USER_HZ on all mainstream Linux configs
    std::time::Duration::from_millis((utime + stime) * 1000 / ticks_per_sec)
}

#[test]
fn health_transition_sequence_matches_seeded_plan() {
    // The fault plan is deterministic per (stream, index), so the exact
    // ladder walk — including recoveries — is predictable offline: replay
    // the plan's drop pattern through a reference `TargetHealth` and
    // demand the poller's transition events tell the same story.
    use fj_faults::TargetHealth;

    let plan = FaultPlan::new(0xA11_AD5E).with_drop_rate(0.6);
    const POLLS: u64 = 30;
    let (degrade_after, quarantine_after) = (2, 4);

    let dropped = plan.expected_drops("ladder", POLLS);
    let mut reference = TargetHealth::with_thresholds(
        degrade_after,
        quarantine_after,
        std::time::Duration::from_millis(30),
    );
    let mut expected = Vec::new();
    for i in 0..POLLS {
        let before = reference.state();
        let after = if dropped.contains(&i) {
            reference.record_failure()
        } else {
            reference.record_success();
            HealthState::Healthy
        };
        if after != before {
            expected.push((before.label(), after.label()));
        }
    }
    assert!(
        expected.iter().any(|&(_, to)| to == "degraded"),
        "seed must exercise a downward transition: {expected:?}"
    );
    assert!(
        expected.iter().any(|&(_, to)| to == "healthy"),
        "seed must exercise a recovery: {expected:?}"
    );

    let router = Arc::new(Mutex::new(lab_router()));
    let agent = SnmpAgent::spawn_with_faults(router, plan, "ladder").unwrap();
    let telemetry = Telemetry::new();
    let mut poller = SnmpPoller::with_telemetry(Arc::clone(&telemetry)).unwrap();
    poller.set_health_thresholds(
        degrade_after,
        quarantine_after,
        std::time::Duration::from_millis(30),
    );
    poller.timeout = std::time::Duration::from_millis(30);
    poller.retries = 1;
    let oid = oids::sys_descr();

    let mut sent = 0u64;
    while sent < POLLS {
        while poller.in_backoff(agent.addr()) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        match poller.get(agent.addr(), &oid) {
            // Quarantine gating: wait for the next recovery-probe slot.
            Err(SnmpError::TargetSuppressed) => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            _ => sent += 1,
        }
    }
    assert_eq!(agent.requests_seen(), POLLS);

    // The event log replays the reference ladder exactly, in order.
    let observed: Vec<(String, String)> = telemetry
        .events()
        .events_where(|e| e.target == "snmp.poller" && e.field("from").is_some())
        .iter()
        .map(|e| {
            (
                e.field("from").unwrap().to_owned(),
                e.field("to").unwrap().to_owned(),
            )
        })
        .collect();
    let expected_owned: Vec<(String, String)> = expected
        .iter()
        .map(|&(f, t)| (f.to_owned(), t.to_owned()))
        .collect();
    assert_eq!(observed, expected_owned);

    // Accessor and gauge agree on the final rung.
    let final_state = poller.health_state(agent.addr());
    assert_eq!(reference.state(), final_state);
    let level = telemetry
        .registry()
        .gauge(
            "snmp_target_health",
            &[("target", &agent.addr().to_string())],
        )
        .get();
    let expected_level = match final_state {
        HealthState::Healthy => 0.0,
        HealthState::Degraded => 1.0,
        HealthState::Quarantined => 2.0,
    };
    assert_eq!(level, expected_level);
    agent.shutdown();
}
