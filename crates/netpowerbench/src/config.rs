//! Derivation configuration.

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceClass, Speed, TransceiverType};
use fj_router_sim::{RouterSpec, SimError};
use fj_traffic::RateSweep;
use fj_units::SimDuration;

use crate::derive::BenchError;

/// Everything a derivation run needs to know.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivationConfig {
    /// The DUT's hardware spec.
    pub spec: RouterSpec,
    /// Transceiver family to characterise (one per experiment, §5.1).
    pub transceiver: TransceiverType,
    /// Line rate to characterise.
    pub speed: Speed,
    /// Number of cabled interface pairs to use (`N` in Eqs. 7–11).
    pub pairs: usize,
    /// Measurement duration per experiment point. Longer averages more
    /// meter noise away: parameter precision scales with `1/√samples`.
    pub point_duration: SimDuration,
    /// The `(rate, packet size)` grid for Snake experiments.
    pub sweep: RateSweep,
}

impl DerivationConfig {
    /// A configuration using a *representative* DUT: the PSU unit-to-unit
    /// spread is zeroed so the lab unit carries exactly the model-typical
    /// conversion efficiency — the convention under which the published
    /// tables were produced (the paper models the same physical routers
    /// it monitors). Field units then deviate only by their unit spread,
    /// which is part of what the Fig. 4 offsets are made of.
    pub fn new(
        model: &str,
        transceiver: TransceiverType,
        speed: Speed,
        pairs: usize,
        point_duration: SimDuration,
    ) -> Result<Self, SimError> {
        let mut spec = RouterSpec::builtin(model)?;
        spec.psu_eff_offset_std = 0.0;
        let sweep = RateSweep::for_line_rate(speed.rate());
        Ok(Self {
            spec,
            transceiver,
            speed,
            pairs,
            point_duration,
            sweep,
        })
    }

    /// A fast configuration for tests and examples: 4 pairs, 8-minute
    /// points. Parameter estimates stay within a few percent of truth for
    /// the watt-scale terms.
    pub fn quick(
        model: &str,
        transceiver: TransceiverType,
        speed: Speed,
    ) -> Result<Self, SimError> {
        Self::new(model, transceiver, speed, 4, SimDuration::from_mins(8))
    }

    /// A thorough configuration: as many pairs as the chassis has ports
    /// for the characterised class (capped at 12) and 45-minute points —
    /// comparable to a real lab session and good to ~0.01 W on the
    /// static terms.
    pub fn thorough(
        model: &str,
        transceiver: TransceiverType,
        speed: Speed,
    ) -> Result<Self, SimError> {
        let spec = RouterSpec::builtin(model)?;
        let pairs = (eligible_ports(&spec, transceiver, speed).count() / 2).min(12);
        Self::new(model, transceiver, speed, pairs, SimDuration::from_mins(45))
    }

    /// Interfaces involved (`2 * pairs`).
    pub fn interfaces(&self) -> usize {
        self.pairs * 2
    }

    /// The ports the bench cables, in chassis order: the first
    /// `2 * pairs` whose cage accepts the characterised transceiver at
    /// the characterised speed (the ports `plug` would take), paired
    /// `(ports[0], ports[1]), (ports[2], ports[3]), …`. A mixed chassis
    /// (48×RJ45 then 6×QSFP28) thus characterises its QSFP28 class on the
    /// QSFP28 cages.
    pub fn bench_ports(&self) -> Result<Vec<usize>, BenchError> {
        let needed = self.interfaces().max(2);
        let mut ports: Vec<usize> =
            eligible_ports(&self.spec, self.transceiver, self.speed).collect();
        if ports.len() < needed {
            return Err(BenchError::TooFewPorts {
                needed,
                eligible: ports.len(),
            });
        }
        ports.truncate(needed);
        Ok(ports)
    }
}

/// Indices of the ports of `spec` that can carry `transceiver` at
/// `speed`: the cage supports the speed and the ground truth prices the
/// resulting class — the same checks `SimulatedRouter::plug` makes.
fn eligible_ports(
    spec: &RouterSpec,
    transceiver: TransceiverType,
    speed: Speed,
) -> impl Iterator<Item = usize> + '_ {
    spec.ports.iter().enumerate().filter_map(move |(i, slot)| {
        let class = InterfaceClass::new(slot.port, transceiver, speed);
        (slot.speeds.contains(&speed) && spec.truth.lookup(class).is_some()).then_some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::PortType;

    #[test]
    fn quick_config_zeroes_psu_variability() {
        let c =
            DerivationConfig::quick("8201-32FH", TransceiverType::PassiveDac, Speed::G100).unwrap();
        assert_eq!(c.spec.psu_eff_offset_std, 0.0, "unit spread zeroed");
        // The model-typical mean is kept: the lab unit is representative.
        assert_eq!(
            c.spec.psu_eff_offset_mean,
            RouterSpec::builtin("8201-32FH")
                .unwrap()
                .psu_eff_offset_mean
        );
        assert_eq!(c.interfaces(), 8);
    }

    #[test]
    fn thorough_uses_more_pairs() {
        let c = DerivationConfig::thorough("8201-32FH", TransceiverType::PassiveDac, Speed::G100)
            .unwrap();
        assert!(c.pairs > 4);
        assert!(c.interfaces() <= c.spec.port_count());
    }

    #[test]
    fn bench_ports_are_the_leading_ports_on_a_uniform_chassis() {
        let c = DerivationConfig::thorough("8201-32FH", TransceiverType::PassiveDac, Speed::G100)
            .unwrap();
        let ports = c.bench_ports().unwrap();
        assert_eq!(ports, (0..c.interfaces()).collect::<Vec<_>>());
    }

    #[test]
    fn bench_ports_skip_cages_that_cannot_take_the_class() {
        // 48×RJ45 then 6×QSFP28: the 100G class lives on the QSFP28 tail.
        let c = DerivationConfig::thorough(
            "Nexus93108TC-FX3P",
            TransceiverType::PassiveDac,
            Speed::G100,
        )
        .unwrap();
        assert_eq!(c.pairs, 3, "six QSFP28 cages make three pairs");
        let ports = c.bench_ports().unwrap();
        assert_eq!(ports, (48..54).collect::<Vec<_>>());
        assert!(ports
            .iter()
            .all(|&i| c.spec.ports[i].port == PortType::Qsfp28));
    }

    #[test]
    fn too_few_eligible_ports_is_a_typed_error() {
        let mut c = DerivationConfig::thorough(
            "Nexus93108TC-FX3P",
            TransceiverType::PassiveDac,
            Speed::G100,
        )
        .unwrap();
        c.pairs = 4;
        match c.bench_ports() {
            Err(BenchError::TooFewPorts {
                needed: 8,
                eligible: 6,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_model_errors() {
        assert!(DerivationConfig::quick("nope", TransceiverType::Lr, Speed::G10).is_err());
    }
}
