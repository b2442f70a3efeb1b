//! The fleet data model.

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceClass, InterfaceLoad};
use fj_router_sim::{SimError, SimulatedRouter};
use fj_traffic::{LoadPattern, PacketProfile};
use fj_units::{DataRate, SimDuration, SimInstant};

/// One endpoint of an internal link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSide {
    /// Index into [`Fleet::routers`].
    pub router: usize,
    /// Interface index on that router.
    pub iface: usize,
}

/// The deployment plan of one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedInterface {
    /// Port index on the router.
    pub index: usize,
    /// Port/transceiver/speed combination (the inventory entry).
    pub class: InterfaceClass,
    /// Faces another network (true) or another Switch router (false).
    pub external: bool,
    /// For internal interfaces: which [`Fleet::links`] entry this is an
    /// endpoint of.
    pub link_id: Option<usize>,
    /// Traffic pattern (idle for spares).
    pub pattern: LoadPattern,
    /// A spare module: plugged into a shut port, drawing `P_trx,in` —
    /// the §6.2 explanation for part of the model offset.
    pub spare: bool,
}

/// One deployed router: the simulator plus its deployment plan.
///
/// Serializable as a whole — the checkpointed streaming engine persists
/// each router's full state (sim clock, counters, PSU inventory, *and*
/// the plan, which scheduled events mutate mid-run) at chunk boundaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetRouter {
    /// Anonymised name encoding only the PoP relation (§11), e.g.
    /// `"pop07-r2"`.
    pub name: String,
    /// PoP index.
    pub pop: usize,
    /// The live device.
    pub sim: SimulatedRouter,
    /// Deployment plan, one entry per *populated* interface.
    pub plan: Vec<PlannedInterface>,
}

impl FleetRouter {
    /// Active (non-spare) planned interfaces.
    pub fn active_interfaces(&self) -> impl Iterator<Item = &PlannedInterface> {
        self.plan.iter().filter(|p| !p.spare)
    }

    /// Advances this router alone by `dt`: refreshes every active
    /// interface's offered load from its pattern at `now`, then ticks the
    /// simulator. The per-router unit of [`Fleet::advance`] — routers
    /// share no simulation state, so shards step them independently and
    /// the result is identical for any shard count.
    pub fn step(
        &mut self,
        now: SimInstant,
        packets: &PacketProfile,
        dt: SimDuration,
    ) -> Result<(), SimError> {
        for p in &self.plan {
            if p.spare {
                continue;
            }
            let rate = p.pattern.rate(now, p.class.speed.rate());
            let load = InterfaceLoad {
                bit_rate: rate,
                pkt_rate: packets.packet_rate(rate),
            };
            self.sim.set_load(p.index, load)?;
        }
        self.sim.tick(dt);
        Ok(())
    }

    /// Total capacity over active interfaces.
    pub fn capacity(&self) -> DataRate {
        DataRate::new(
            self.active_interfaces()
                .map(|p| p.class.speed.rate().as_f64())
                .sum(),
        )
    }
}

/// The whole deployed network.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// All routers.
    pub routers: Vec<FleetRouter>,
    /// Internal links (both endpoints inside the network).
    pub links: Vec<(LinkSide, LinkSide)>,
    /// Packet profile of carried traffic.
    pub packets: PacketProfile,
}

impl Fleet {
    /// Current simulated time (all routers march in lockstep).
    pub fn now(&self) -> SimInstant {
        self.routers
            .first()
            .map_or(SimInstant::EPOCH, |r| r.sim.now())
    }

    /// Advances the fleet by `dt`: refreshes every active interface's
    /// offered load from its pattern at the *current* instant, then ticks
    /// every router. Routers are stepped shard-parallel with the default
    /// shard count ([`fj_par::shard_count`]); ticking is per-router pure,
    /// so the fleet state afterwards is identical for any shard count.
    pub fn advance(&mut self, dt: SimDuration) -> Result<(), SimError> {
        self.advance_with_shards(dt, fj_par::shard_count())
    }

    /// [`Fleet::advance`] with an explicit shard count (1 = inline on the
    /// calling thread). Results are bit-identical whatever `shards` is.
    pub fn advance_with_shards(&mut self, dt: SimDuration, shards: usize) -> Result<(), SimError> {
        let now = self.now();
        let packets = self.packets.clone();
        let done = fj_par::WorkerPool::for_shards(shards)
            .submit(
                std::mem::take(&mut self.routers),
                shards,
                move |_, router: &mut FleetRouter| router.step(now, &packets, dt),
            )
            .wait();
        // The pool hands every router back, also when a step panicked.
        self.routers = done.items;
        // First error in fleet order, as the sequential loop reported.
        done.result
            .unwrap_or_else(|p| p.resume())
            .into_iter()
            .collect()
    }

    /// Total wall power right now — what the sum of external meters on
    /// every PSU would read.
    pub fn total_wall_power_w(&self) -> f64 {
        self.routers
            .iter()
            .map(|r| r.sim.wall_power().as_f64())
            .sum()
    }

    /// Total traffic volume right now, counting each internal link once
    /// and each external interface once (the Fig. 1 numerator).
    pub fn total_traffic(&self) -> DataRate {
        let now = self.now();
        let mut total = 0.0;
        for router in &self.routers {
            for p in router.active_interfaces() {
                let r = p.pattern.rate(now, p.class.speed.rate()).as_f64();
                if p.external {
                    total += r;
                } else {
                    total += r / 2.0; // internal links appear at both ends
                }
            }
        }
        DataRate::new(total)
    }

    /// Total capacity with the same counting convention.
    pub fn total_capacity(&self) -> DataRate {
        let mut total = 0.0;
        for router in &self.routers {
            for p in router.active_interfaces() {
                let c = p.class.speed.rate().as_f64();
                total += if p.external { c } else { c / 2.0 };
            }
        }
        DataRate::new(total)
    }

    /// Administratively disables or re-enables both ends of an internal
    /// link (the Hypnos actuation, §8). Transceivers stay plugged —
    /// "down" does not mean "off" (§7).
    pub fn set_link_enabled(&mut self, link_id: usize, enabled: bool) -> Result<(), SimError> {
        let (a, b) = self.links[link_id];
        self.routers[a.router].sim.set_admin(a.iface, enabled)?;
        self.routers[b.router].sim.set_admin(b.iface, enabled)?;
        Ok(())
    }

    /// Looks up a router by name.
    pub fn router_by_name(&self, name: &str) -> Option<&FleetRouter> {
        self.routers.iter().find(|r| r.name == name)
    }

    /// Index of the first router of the given hardware model, if any.
    pub fn find_model(&self, model: &str) -> Option<usize> {
        self.routers
            .iter()
            .position(|r| r.sim.spec().model == model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sharded engine hands routers to scoped worker threads; this
    /// stops compiling if any simulator component regresses to a
    /// non-`Send`/`Sync` type (`Rc`, raw pointers, thread-bound handles).
    #[test]
    fn fleet_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlannedInterface>();
        assert_send_sync::<FleetRouter>();
        assert_send_sync::<Fleet>();
    }
}
