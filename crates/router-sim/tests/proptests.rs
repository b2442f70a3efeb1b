//! Property-based tests for the router simulator's physical invariants.

use fj_core::{InterfaceClass, InterfaceConfig, InterfaceLoad, Speed, TransceiverType};
use fj_router_sim::{RouterSpec, SimulatedRouter};
use fj_units::{Bytes, DataRate, SimDuration, Watts};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = String> {
    prop::sample::select(RouterSpec::builtin_names())
}

/// The first class the truth model prices that fits cage `i`.
fn priced_class(spec: &RouterSpec, i: usize) -> Option<InterfaceClass> {
    let slot = &spec.ports[i];
    spec.truth
        .classes()
        .iter()
        .map(|cp| cp.class)
        .find(|c| c.port == slot.port && slot.speeds.contains(&c.speed))
}

/// Plugs the first `n` ports with whatever class the truth model prices.
fn populate(router: &mut SimulatedRouter, n: usize) -> Vec<usize> {
    let spec = router.spec().clone();
    let mut plugged = Vec::new();
    for i in 0..n.min(spec.port_count()) {
        if let Some(class) = priced_class(&spec, i) {
            if router.plug(i, class.transceiver, class.speed).is_ok() {
                plugged.push(i);
            }
        }
    }
    plugged
}

/// The nominal power as the simulator priced it before its allocation-
/// free total: collect every plugged cage's configuration and load, run
/// the full breakdown, take its total. `extra` is the unmodeled draw the
/// test added.
fn nominal_power_oracle(router: &SimulatedRouter, extra: Watts) -> Watts {
    let spec = router.spec();
    let mut cfgs = Vec::new();
    let mut loads = Vec::new();
    for i in 0..router.interface_count() {
        let st = router.interface(i).unwrap();
        let Some(trx) = st.transceiver else { continue };
        cfgs.push(InterfaceConfig {
            class: InterfaceClass::new(spec.ports[i].port, trx, st.speed),
            plugged: true,
            admin_up: st.admin_up,
            oper_up: st.oper_up,
        });
        loads.push(if st.oper_up {
            st.load
        } else {
            InterfaceLoad::IDLE
        });
    }
    spec.truth.predict(&cfgs, &loads).unwrap().total() + extra
}

/// One configuration or traffic change on a random interface.
#[derive(Debug, Clone)]
enum Op {
    Plug(usize),
    Unplug(usize),
    Admin(usize, bool),
    Peer(usize, bool),
    Cable(usize, usize),
    Load(usize, f64),
    Draw(f64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Plug),
        (0usize..64).prop_map(Op::Unplug),
        (0usize..64, any::<bool>()).prop_map(|(i, up)| Op::Admin(i, up)),
        (0usize..64, any::<bool>()).prop_map(|(i, up)| Op::Peer(i, up)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Cable(a, b)),
        (0usize..64, prop_oneof![Just(0.0), 0.0f64..400.0]).prop_map(|(i, g)| Op::Load(i, g)),
        (-50.0f64..50.0).prop_map(Op::Draw),
    ]
}

/// Applies `op` (invalid ones are refused by the simulator and ignored),
/// tracking the unmodeled draw it adds.
fn apply(router: &mut SimulatedRouter, op: &Op, extra: &mut Watts) {
    let n = router.interface_count();
    let _ = match *op {
        Op::Plug(i) => match priced_class(router.spec(), i % n) {
            Some(c) => router.plug(i % n, c.transceiver, c.speed),
            None => Ok(()),
        },
        Op::Unplug(i) => router.unplug(i % n).map(|_| ()),
        Op::Admin(i, up) => router.set_admin(i % n, up),
        Op::Peer(i, up) => router.set_external_peer(i % n, up),
        Op::Cable(a, b) => router.cable(a % n, b % n),
        Op::Load(i, gbps) => router.set_load(
            i % n,
            InterfaceLoad::from_rate(DataRate::from_gbps(gbps), Bytes::new(800.0)),
        ),
        Op::Draw(w) => {
            router.add_unmodeled_draw(Watts::new(w));
            *extra += Watts::new(w);
            Ok(())
        }
    };
}

proptest! {
    /// The allocation-free nominal power is bit-identical to the
    /// breakdown path on random plug/unplug/admin/cabling/load sequences.
    #[test]
    fn nominal_power_matches_breakdown_oracle(
        model in arb_model(),
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), 3);
        let mut extra = Watts::ZERO;
        for op in &ops {
            apply(&mut router, op, &mut extra);
            prop_assert_eq!(
                router.nominal_power().as_f64().to_bits(),
                nominal_power_oracle(&router, extra).as_f64().to_bits(),
                "{} after {:?}", model, op
            );
        }
    }

    /// Reading a bay at a precomputed wall power is bit-identical to the
    /// self-contained read, for every bay — carrying, hot-standby and
    /// disabled — and over time as pseudo-constant sensors latch.
    #[test]
    fn psu_reads_at_wall_match_self_contained_reads(
        model in arb_model(),
        seed in 0u64..100,
        roles in prop::collection::vec(0u8..3, 4),
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let mut at = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let mut extra = Watts::ZERO;
        populate(&mut at, 6);
        for op in &ops {
            apply(&mut at, op, &mut extra);
        }
        for (slot, role) in roles.iter().enumerate().take(at.psu_count()) {
            let _ = match role {
                0 => Ok(()),
                1 => at.set_psu_hot_standby(slot, true),
                _ => at.set_psu_enabled(slot, false),
            };
        }
        let mut plain = at.clone();
        let bits = |w: Watts| w.as_f64().to_bits();
        let pair_bits = |p: (f64, f64)| (p.0.to_bits(), p.1.to_bits());
        for _ in 0..4 {
            let wall = at.wall_power();
            // One past the last bay checks the error path too.
            for slot in 0..=at.psu_count() {
                prop_assert_eq!(
                    at.psu_reported_power_at(slot, wall).map(|r| r.map(bits)),
                    plain.psu_reported_power(slot).map(|r| r.map(bits))
                );
                prop_assert_eq!(
                    at.psu_snapshot_at(slot, wall).map(|r| r.map(pair_bits)),
                    plain.psu_snapshot(slot).map(|r| r.map(pair_bits))
                );
            }
            at.tick(SimDuration::from_mins(5));
            plain.tick(SimDuration::from_mins(5));
        }
    }

    /// Wall power is strictly positive and finite for any built-in model
    /// and any seed.
    #[test]
    fn wall_power_positive_finite(model in arb_model(), seed in 0u64..1000) {
        let router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let w = router.wall_power().as_f64();
        prop_assert!(w.is_finite());
        prop_assert!(w > 0.0);
        prop_assert!(w < 5_000.0, "{model}: {w}");
    }

    /// Plugging modules never reduces nominal power; unplugging restores
    /// the exact original value.
    #[test]
    fn plug_unplug_round_trip(model in arb_model(), seed in 0u64..100, n in 1usize..8) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let before = router.nominal_power();
        let plugged = populate(&mut router, n);
        prop_assume!(!plugged.is_empty());
        prop_assert!(router.nominal_power().as_f64() >= before.as_f64() - 1e-9);
        for i in &plugged {
            router.unplug(*i).unwrap();
        }
        prop_assert!((router.nominal_power() - before).abs().as_f64() < 1e-9);
    }

    /// Enabling an interface (admin up with live peer) never lowers
    /// nominal power when all parameters are non-negative for the class;
    /// for published models with slightly negative P_trx,up the drop is
    /// bounded by that parameter.
    #[test]
    fn admin_up_power_change_bounded(model in arb_model(), seed in 0u64..50) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        let plugged = populate(&mut router, 2);
        prop_assume!(!plugged.is_empty());
        let i = plugged[0];
        router.set_external_peer(i, true).unwrap();
        let before = router.nominal_power().as_f64();
        router.set_admin(i, true).unwrap();
        let after = router.nominal_power().as_f64();
        // P_port + P_trx,up ≥ -0.5 W across every published class.
        prop_assert!(after >= before - 0.5, "{model}: {before} -> {after}");
    }

    /// Counters accumulate proportionally to elapsed time.
    #[test]
    fn counters_linear_in_time(seed in 0u64..50, gbps in 0.1f64..100.0, secs in 1i64..10_000) {
        let mut router =
            SimulatedRouter::new(RouterSpec::builtin("8201-32FH").unwrap(), seed);
        router.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        router.set_external_peer(0, true).unwrap();
        router.set_admin(0, true).unwrap();
        router
            .set_load(0, InterfaceLoad::from_rate(DataRate::from_gbps(gbps), Bytes::new(1000.0)))
            .unwrap();
        router.tick(SimDuration::from_secs(secs));
        let octets = router.interface(0).unwrap().octets;
        let expected = gbps * 1e9 / 8.0 * secs as f64;
        prop_assert!(
            (octets as f64 - expected).abs() <= secs as f64, // ≤1 B/s rounding
            "octets {octets} expected {expected}"
        );
    }

    /// PSU sensor snapshots always produce positive readings with a
    /// plausible implied efficiency.
    #[test]
    fn snapshot_plausible(model in arb_model(), seed in 0u64..100) {
        let router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        for slot in 0..router.psu_count() {
            if let Some((p_in, p_out)) = router.psu_snapshot(slot).unwrap() {
                prop_assert!(p_in > 0.0);
                prop_assert!(p_out > 0.0);
                let eff = p_out / p_in;
                prop_assert!(eff > 0.3 && eff < 1.15, "{model} slot {slot}: eff {eff}");
            }
        }
    }

    /// Hot standby round-trips: enabling and disabling restores the
    /// original wall power exactly.
    #[test]
    fn hot_standby_round_trip(model in arb_model(), seed in 0u64..50) {
        let mut router = SimulatedRouter::new(RouterSpec::builtin(&model).unwrap(), seed);
        prop_assume!(router.psu_count() >= 2);
        let before = router.wall_power();
        router.set_psu_hot_standby(1, true).unwrap();
        router.set_psu_hot_standby(1, false).unwrap();
        prop_assert!((router.wall_power() - before).abs().as_f64() < 1e-9);
    }
}
