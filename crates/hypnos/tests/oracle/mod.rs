//! The reference Hypnos path the library's fast one is checked against:
//! a topology that counts the components of the whole up-graph before and
//! after each candidate sleeps, and the greedy `decide` over it. Slow and
//! obviously right; test-only.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fj_hypnos::algorithm::LinkObservation;
use fj_hypnos::HypnosConfig;

/// An undirected multigraph of routers (nodes) and links (edges), with
/// component counting by breadth-first search.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Adjacency: node → (neighbor, link id).
    adj: BTreeMap<usize, Vec<(usize, usize)>>,
    /// Links currently considered up.
    up: BTreeSet<usize>,
}

impl Topology {
    /// Builds a topology from `(link_id, a, b)` edges, all up.
    pub fn new(edges: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let mut t = Topology::default();
        for (id, a, b) in edges {
            t.adj.entry(a).or_default().push((b, id));
            t.adj.entry(b).or_default().push((a, id));
            t.up.insert(id);
        }
        t
    }

    /// Marks a link down.
    pub fn sleep(&mut self, link_id: usize) {
        self.up.remove(&link_id);
    }

    /// Marks a link up again.
    pub fn wake(&mut self, link_id: usize) {
        self.up.insert(link_id);
    }

    /// Whether a link is up.
    pub fn is_up(&self, link_id: usize) -> bool {
        self.up.contains(&link_id)
    }

    /// Number of connected components in the up-link subgraph (nodes with
    /// no edges at all are not counted).
    pub fn component_count(&self) -> usize {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut components = 0;
        for &start in self.adj.keys() {
            if seen.contains(&start) {
                continue;
            }
            components += 1;
            let mut queue = VecDeque::from([start]);
            seen.insert(start);
            while let Some(node) = queue.pop_front() {
                for &(next, link) in self.adj.get(&node).into_iter().flatten() {
                    if self.up.contains(&link) && seen.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
        }
        components
    }

    /// Whether sleeping `link_id` leaves the component count unchanged.
    /// The link is restored before returning.
    pub fn safe_to_sleep(&mut self, link_id: usize) -> bool {
        if !self.is_up(link_id) {
            return false;
        }
        let before = self.component_count();
        self.sleep(link_id);
        let after = self.component_count();
        self.wake(link_id);
        after <= before
    }
}

/// The greedy decision over the reference topology: the link ids slept,
/// in the order they were slept.
pub fn decide(observations: &[LinkObservation], config: &HypnosConfig) -> Vec<usize> {
    let mut topology = Topology::new(
        observations
            .iter()
            .map(|o| (o.link_id, o.routers.0, o.routers.1)),
    );
    let mut router_traffic: BTreeMap<usize, f64> = BTreeMap::new();
    let mut router_capacity: BTreeMap<usize, f64> = BTreeMap::new();
    for o in observations {
        for r in [o.routers.0, o.routers.1] {
            *router_traffic.entry(r).or_default() += o.traffic.as_f64();
            *router_capacity.entry(r).or_default() += o.capacity.as_f64();
        }
    }

    let mut order: Vec<&LinkObservation> = observations.iter().collect();
    order.sort_by(|x, y| x.utilization().total_cmp(&y.utilization()));

    let mut slept = Vec::new();
    for o in order {
        if o.utilization() > config.max_sleep_utilization {
            continue;
        }
        if !topology.safe_to_sleep(o.link_id) {
            continue;
        }
        let ok = [o.routers.0, o.routers.1].iter().all(|r| {
            let cap = router_capacity[r] - o.capacity.as_f64();
            cap >= config.headroom * router_traffic[r]
        });
        if !ok {
            continue;
        }
        topology.sleep(o.link_id);
        for r in [o.routers.0, o.routers.1] {
            *router_capacity.entry(r).or_default() -= o.capacity.as_f64();
        }
        slept.push(o.link_id);
    }
    slept
}
