//! Fleet-level insight statistics (§7–§8 numerators and denominators).

// fj-lint: allow-file(FJ02) — introspection over the builder's own plan:
// every `expect` names a lookup the fleet builder guarantees (planned
// interfaces exist and are priced, PSU slots are in range). Skipping a
// missing entry would silently under-count fleet power.

use serde::{Deserialize, Serialize};

use fj_psu::{FleetPsuData, PsuObservation};
use fj_units::Watts;

use crate::fleet::Fleet;

/// Interface population split used by §8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceShare {
    /// Number of active external interfaces.
    pub external_count: usize,
    /// Number of active internal interfaces.
    pub internal_count: usize,
    /// Transceiver power of external interfaces (W).
    pub external_trx_w: f64,
    /// Transceiver power of internal interfaces (W).
    pub internal_trx_w: f64,
}

impl InterfaceShare {
    /// Fraction of interfaces that are external (paper: 51 %).
    pub fn external_fraction(&self) -> f64 {
        let total = self.external_count + self.internal_count;
        if total == 0 {
            return 0.0;
        }
        self.external_count as f64 / total as f64
    }

    /// External share of transceiver power (paper: 52 %).
    pub fn external_trx_fraction(&self) -> f64 {
        let total = self.external_trx_w + self.internal_trx_w;
        if total == 0.0 {
            return 0.0;
        }
        self.external_trx_w / total
    }
}

/// The §7 insight numbers for a fleet at its current instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetInsights {
    /// Total wall power (W).
    pub total_power_w: f64,
    /// Total transceiver power, `P_trx,in + P_trx,up` over every plugged
    /// module including spares (W). Paper: ≈2.2 kW, ≈10 %.
    pub transceiver_w: f64,
    /// Pure traffic-forwarding power, the `E_bit`/`E_pkt` terms (W).
    /// Paper: ≈5.9 W network-wide, 0.02 %.
    pub traffic_w: f64,
    /// Interface split.
    pub share: InterfaceShare,
}

impl FleetInsights {
    /// Transceiver share of total power.
    pub fn transceiver_fraction(&self) -> f64 {
        self.transceiver_w / self.total_power_w
    }

    /// Traffic-power share of total power.
    pub fn traffic_fraction(&self) -> f64 {
        self.traffic_w / self.total_power_w
    }

    /// Computes the insights from the fleet's current state, pricing each
    /// router with its ground-truth model (the best available model — the
    /// paper uses its lab models the same way).
    pub fn compute(fleet: &Fleet) -> FleetInsights {
        let mut transceiver_w = 0.0;
        let mut traffic_w = 0.0;
        let mut share = InterfaceShare {
            external_count: 0,
            internal_count: 0,
            external_trx_w: 0.0,
            internal_trx_w: 0.0,
        };

        for router in &fleet.routers {
            let now = router.sim.now();
            for p in &router.plan {
                let st = router
                    .sim
                    .interface(p.index)
                    .expect("planned interfaces exist");
                let params = router
                    .sim
                    .spec()
                    .truth
                    .lookup(p.class)
                    .expect("planned class is priced");
                let mut trx = Watts::ZERO;
                if st.transceiver.is_some() {
                    trx += params.p_trx_in;
                }
                if st.oper_up {
                    trx += params.p_trx_up;
                }
                transceiver_w += trx.as_f64();

                if !p.spare {
                    if p.external {
                        share.external_count += 1;
                        share.external_trx_w += trx.as_f64();
                    } else {
                        share.internal_count += 1;
                        share.internal_trx_w += trx.as_f64();
                    }
                }

                if st.oper_up {
                    let rate = p.pattern.rate(now, p.class.speed.rate());
                    let pkts = fleet.packets.packet_rate(rate);
                    traffic_w += (params.e_bit * rate + params.e_pkt * pkts).as_f64();
                }
            }
        }

        FleetInsights {
            total_power_w: fleet.total_wall_power_w(),
            transceiver_w,
            traffic_w,
            share,
        }
    }
}

/// Takes the one-time PSU sensor export (§9.2) for the whole fleet.
pub fn psu_snapshot(fleet: &Fleet) -> FleetPsuData {
    let mut observations = Vec::new();
    for router in &fleet.routers {
        let wall = router.sim.wall_power();
        for slot in 0..router.sim.psu_count() {
            if let Ok(Some((p_in, p_out))) = router.sim.psu_snapshot_at(slot, wall) {
                observations.push(PsuObservation {
                    router: router.name.clone(),
                    router_model: router.sim.spec().model.clone(),
                    slot,
                    capacity_w: router.sim.psu(slot).expect("slot exists").capacity_w,
                    p_in_w: p_in,
                    p_out_w: p_out,
                });
            }
        }
    }
    FleetPsuData::new(observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_fleet;
    use crate::config::FleetConfig;

    fn full_fleet() -> Fleet {
        build_fleet(&FleetConfig::switch_like(7))
    }

    #[test]
    fn transceiver_share_near_ten_percent() {
        let fleet = full_fleet();
        let insights = FleetInsights::compute(&fleet);
        let frac = insights.transceiver_fraction();
        assert!(
            (0.05..0.16).contains(&frac),
            "transceiver share {frac} ({} W of {} W)",
            insights.transceiver_w,
            insights.total_power_w
        );
    }

    #[test]
    fn traffic_power_is_tiny() {
        let mut fleet = full_fleet();
        fleet
            .advance(fj_units::SimDuration::from_hours(14))
            .unwrap();
        let insights = FleetInsights::compute(&fleet);
        // Paper: ≈0.02 % of total power. Allow an order of magnitude.
        assert!(
            insights.traffic_fraction() < 0.005,
            "traffic fraction {}",
            insights.traffic_fraction()
        );
        assert!(insights.traffic_w > 0.0);
    }

    #[test]
    fn external_split_matches_paper() {
        let fleet = full_fleet();
        let insights = FleetInsights::compute(&fleet);
        let f = insights.share.external_fraction();
        assert!((0.45..0.62).contains(&f), "external fraction {f}");
        let tf = insights.share.external_trx_fraction();
        assert!((0.40..0.75).contains(&tf), "external trx fraction {tf}");
    }

    #[test]
    fn psu_snapshot_covers_fleet() {
        let fleet = full_fleet();
        let snap = psu_snapshot(&fleet);
        // Nearly every router contributes two PSUs (Catalyst has one,
        // none are in the switch-like mix).
        assert_eq!(snap.observations.len(), fleet.routers.len() * 2);
        // Loads are low — the §9.3.1 observation.
        let loads: Vec<f64> = snap.observations.iter().filter_map(|o| o.load()).collect();
        let mean_load = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!(
            (0.03..0.30).contains(&mean_load),
            "mean PSU load {mean_load}"
        );
    }

    #[test]
    fn psu_snapshot_has_efficiency_spread() {
        let fleet = full_fleet();
        let snap = psu_snapshot(&fleet);
        let effs: Vec<f64> = snap
            .observations
            .iter()
            .filter_map(|o| o.efficiency())
            .collect();
        let min = effs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = effs.iter().cloned().fold(0.0f64, f64::max);
        // Fig. 6: from very poor (<70 %) to very good (>95 %).
        assert!(min < 0.75, "worst efficiency {min}");
        assert!(max > 0.9, "best efficiency {max}");
    }
}
