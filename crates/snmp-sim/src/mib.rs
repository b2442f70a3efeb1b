//! The MIB view of a simulated router.
//!
//! A small subset of IF-MIB and ENTITY-SENSOR-MIB, enough for everything
//! the paper collects: per-interface high-capacity octet/packet counters
//! and status, plus per-PSU input power (where the firmware reports it —
//! the N540X's absence of PSU power in Fig. 4c shows up here as missing
//! OIDs, exactly how the real collection discovered it).

// fj-lint: allow-file(FJ02) — the `oids` module parses well-known OID
// string constants (cannot fail), and the MIB walk indexes interfaces the
// router itself enumerated one line earlier; both are by-construction
// invariants, not runtime conditions.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use fj_router_sim::SimulatedRouter;

use crate::oid::Oid;

/// A typed MIB value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MibValue {
    /// 64-bit counter (ifHC* objects).
    Counter64(u64),
    /// Floating gauge (sensor values; real SNMP scales integers, we keep
    /// the float for clarity).
    Gauge(f64),
    /// Small integer (status enums: 1 = up, 2 = down).
    Integer(i64),
    /// Display string.
    Str(String),
}

impl MibValue {
    /// The value as f64 for numeric processing, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MibValue::Counter64(v) => Some(*v as f64),
            MibValue::Gauge(v) => Some(*v),
            MibValue::Integer(v) => Some(*v as f64),
            MibValue::Str(_) => None,
        }
    }
}

/// An ordered OID → value store supporting GET and GET-NEXT.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MibTree {
    entries: BTreeMap<Oid, MibValue>,
}

impl MibTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a value.
    pub fn set(&mut self, oid: Oid, value: MibValue) {
        self.entries.insert(oid, value);
    }

    /// Exact-match GET.
    pub fn get(&self, oid: &Oid) -> Option<&MibValue> {
        self.entries.get(oid)
    }

    /// GET-NEXT: the first entry strictly after `oid` in OID order.
    pub fn get_next(&self, oid: &Oid) -> Option<(&Oid, &MibValue)> {
        use std::ops::Bound;
        self.entries
            .range((Bound::Excluded(oid.clone()), Bound::Unbounded))
            .next()
    }

    /// Walks the subtree under `prefix` (GET-NEXT repeatedly, the way an
    /// `snmpwalk` does).
    pub fn walk(&self, prefix: &Oid) -> Vec<(&Oid, &MibValue)> {
        self.entries
            .iter()
            .filter(|(oid, _)| prefix.is_prefix_of(oid))
            .collect()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Well-known OID prefixes used by the collection.
pub mod oids {
    use crate::oid::Oid;

    /// `ifHCInOctets` column (IF-MIB::ifXTable).
    pub fn if_hc_in_octets() -> Oid {
        "1.3.6.1.2.1.31.1.1.1.6".parse().expect("static OID")
    }

    /// `ifHCOutOctets` column.
    pub fn if_hc_out_octets() -> Oid {
        "1.3.6.1.2.1.31.1.1.1.10".parse().expect("static OID")
    }

    /// `ifHCInUcastPkts` column.
    pub fn if_hc_in_pkts() -> Oid {
        "1.3.6.1.2.1.31.1.1.1.7".parse().expect("static OID")
    }

    /// `ifHCOutUcastPkts` column.
    pub fn if_hc_out_pkts() -> Oid {
        "1.3.6.1.2.1.31.1.1.1.11".parse().expect("static OID")
    }

    /// `ifAdminStatus` column (IF-MIB::ifTable).
    pub fn if_admin_status() -> Oid {
        "1.3.6.1.2.1.2.2.1.7".parse().expect("static OID")
    }

    /// `ifOperStatus` column.
    pub fn if_oper_status() -> Oid {
        "1.3.6.1.2.1.2.2.1.8".parse().expect("static OID")
    }

    /// PSU input power sensors (ENTITY-SENSOR-MIB style), one row per PSU.
    pub fn psu_in_power() -> Oid {
        "1.3.6.1.2.1.99.1.1.1.4".parse().expect("static OID")
    }

    /// PSU *output* power sensors — the object the paper wishes existed:
    /// "Network monitoring tools should include both input and output PSU
    /// power to enable PSU efficiency tracking over time" (§9.4), the gap
    /// the IETF GREEN WG is chartered to close (§10). Modeled here as a
    /// second ENTITY-SENSOR-style column.
    pub fn psu_out_power() -> Oid {
        "1.3.6.1.2.1.99.1.1.1.5".parse().expect("static OID")
    }

    /// System description.
    pub fn sys_descr() -> Oid {
        "1.3.6.1.2.1.1.1.0".parse().expect("static OID")
    }
}

/// Builds the full MIB snapshot of a router at its current instant.
///
/// Needs `&mut` because reading a PSU power sensor can latch state on
/// pseudo-constant sensors (that statefulness *is* the §6.2 pathology).
pub fn snapshot(router: &mut SimulatedRouter) -> MibTree {
    let mut tree = MibTree::new();
    tree.set(
        oids::sys_descr(),
        MibValue::Str(format!(
            "{} OS {}",
            router.spec().model,
            router.os_version()
        )),
    );

    for i in 0..router.interface_count() {
        let idx = i as u32 + 1; // ifIndex is 1-based
        let st = router.interface(i).expect("index in range");
        // Counters: the simulator tracks both directions summed; split
        // evenly for the in/out columns (the analyses only use the sum).
        tree.set(
            oids::if_hc_in_octets().child(idx),
            MibValue::Counter64(st.octets / 2),
        );
        tree.set(
            oids::if_hc_out_octets().child(idx),
            MibValue::Counter64(st.octets - st.octets / 2),
        );
        tree.set(
            oids::if_hc_in_pkts().child(idx),
            MibValue::Counter64(st.packets / 2),
        );
        tree.set(
            oids::if_hc_out_pkts().child(idx),
            MibValue::Counter64(st.packets - st.packets / 2),
        );
        tree.set(
            oids::if_admin_status().child(idx),
            MibValue::Integer(if st.admin_up { 1 } else { 2 }),
        );
        tree.set(
            oids::if_oper_status().child(idx),
            MibValue::Integer(if st.oper_up { 1 } else { 2 }),
        );
    }

    // One power-model evaluation serves every PSU row below.
    let wall = router.wall_power();
    for slot in 0..router.psu_count() {
        if let Ok(Some(power)) = router.psu_reported_power_at(slot, wall) {
            tree.set(
                oids::psu_in_power().child(slot as u32 + 1),
                MibValue::Gauge(power.as_f64()),
            );
            // GREEN-style output power: exported alongside the input so
            // pollers can track conversion efficiency continuously —
            // instead of the one-time sensor snapshot the paper had to
            // settle for (§9.2).
            if let Ok(Some((_, p_out))) = router.psu_snapshot_at(slot, wall) {
                tree.set(
                    oids::psu_out_power().child(slot as u32 + 1),
                    MibValue::Gauge(p_out),
                );
            }
        }
        // Routers that do not report PSU power simply have no such OID —
        // the collector discovers the gap, as the paper did.
    }

    tree
}

/// Sums the PSU input power over all reported sensors, if any.
pub fn total_psu_power(tree: &MibTree) -> Option<f64> {
    let rows = tree.walk(&oids::psu_in_power());
    if rows.is_empty() {
        return None;
    }
    Some(rows.iter().filter_map(|(_, v)| v.as_f64()).sum())
}

/// Per-PSU conversion efficiency from a GREEN-enabled snapshot: pairs the
/// `psu_in_power` and `psu_out_power` columns by index. Empty when the
/// router exports only input power (today's common case).
pub fn psu_efficiencies(tree: &MibTree) -> Vec<(u32, f64)> {
    let outs: std::collections::BTreeMap<u32, f64> = tree
        .walk(&oids::psu_out_power())
        .into_iter()
        .filter_map(|(oid, v)| Some((oid.last_arc()?, v.as_f64()?)))
        .collect();
    tree.walk(&oids::psu_in_power())
        .into_iter()
        .filter_map(|(oid, v)| {
            let idx = oid.last_arc()?;
            let p_in = v.as_f64()?;
            let p_out = *outs.get(&idx)?;
            if p_in <= 0.0 {
                return None;
            }
            Some((idx, (p_out / p_in).min(1.0)))
        })
        .collect()
}

/// Sums octet counters (in + out) over all interfaces.
pub fn total_octets(tree: &MibTree) -> u64 {
    let mut total = 0u64;
    for (_, v) in tree.walk(&oids::if_hc_in_octets()) {
        if let MibValue::Counter64(c) = v {
            total += c;
        }
    }
    for (_, v) in tree.walk(&oids::if_hc_out_octets()) {
        if let MibValue::Counter64(c) = v {
            total += c;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::{InterfaceLoad, Speed, TransceiverType};
    use fj_router_sim::RouterSpec;
    use fj_units::{Bytes, DataRate, SimDuration};

    fn lab_router() -> SimulatedRouter {
        let mut r = SimulatedRouter::new(RouterSpec::builtin("8201-32FH").unwrap(), 3);
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.plug(1, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.cable(0, 1).unwrap();
        r.set_admin(0, true).unwrap();
        r.set_admin(1, true).unwrap();
        r
    }

    #[test]
    fn tree_get_next_and_walk() {
        let mut t = MibTree::new();
        let a: Oid = "1.1".parse().unwrap();
        let b: Oid = "1.2".parse().unwrap();
        let c: Oid = "2.1".parse().unwrap();
        t.set(a.clone(), MibValue::Integer(1));
        t.set(b.clone(), MibValue::Integer(2));
        t.set(c.clone(), MibValue::Integer(3));
        assert_eq!(t.get(&b), Some(&MibValue::Integer(2)));
        let (next, _) = t.get_next(&a).unwrap();
        assert_eq!(next, &b);
        assert!(t.get_next(&c).is_none());
        let under1 = t.walk(&"1".parse().unwrap());
        assert_eq!(under1.len(), 2);
    }

    #[test]
    fn snapshot_contains_interface_rows() {
        let mut r = lab_router();
        let tree = snapshot(&mut r);
        // 32 interfaces × 6 columns + sysDescr + 2 PSUs × (P_in + P_out).
        assert_eq!(tree.len(), 32 * 6 + 1 + 4);
        let admin0 = tree.get(&oids::if_admin_status().child(1)).unwrap();
        assert_eq!(admin0, &MibValue::Integer(1));
        let oper5 = tree.get(&oids::if_oper_status().child(6)).unwrap();
        assert_eq!(oper5, &MibValue::Integer(2));
    }

    #[test]
    fn counters_reflect_traffic() {
        let mut r = lab_router();
        r.set_load(
            0,
            InterfaceLoad::from_rate(DataRate::from_gbps(8.0), Bytes::new(1000.0)),
        )
        .unwrap();
        r.tick(SimDuration::from_secs(100));
        let tree = snapshot(&mut r);
        let total = total_octets(&tree);
        assert_eq!(total, 100 * 1_000_000_000);
    }

    #[test]
    fn psu_power_missing_on_non_reporting_model() {
        let mut r = SimulatedRouter::new(RouterSpec::builtin("N540X-8Z16G-SYS-A").unwrap(), 3);
        let tree = snapshot(&mut r);
        assert_eq!(total_psu_power(&tree), None);
    }

    #[test]
    fn psu_power_present_and_plausible() {
        let mut r = lab_router();
        let tree = snapshot(&mut r);
        let p = total_psu_power(&tree).unwrap();
        let wall = r.wall_power().as_f64();
        // AccurateWithOffset(+8.5 per PSU): reported ≈ wall + 17.
        assert!((p - wall - 17.0).abs() < 4.0, "p {p} wall {wall}");
    }

    #[test]
    fn green_efficiency_tracking() {
        let mut r = lab_router();
        let tree = snapshot(&mut r);
        let effs = psu_efficiencies(&tree);
        assert_eq!(effs.len(), 2, "both PSUs trackable");
        for (idx, eff) in effs {
            assert!((0.4..=1.0).contains(&eff), "PSU {idx}: eff {eff}");
        }
        // A non-reporting router exposes neither column.
        let mut n = SimulatedRouter::new(RouterSpec::builtin("N540X-8Z16G-SYS-A").unwrap(), 3);
        assert!(psu_efficiencies(&snapshot(&mut n)).is_empty());
    }

    #[test]
    fn sys_descr_mentions_model() {
        let mut r = lab_router();
        let tree = snapshot(&mut r);
        match tree.get(&oids::sys_descr()).unwrap() {
            MibValue::Str(s) => assert!(s.contains("8201-32FH")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
