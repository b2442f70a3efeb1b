//! Exhaustive check of `decide` on every small multigraph: every ordered
//! sequence of up to five links over four nodes, self-loops and parallel
//! links included (111 110 sequences). On each, the library path and the
//! reference path sleep the same links, the slept set never raises the
//! component count, and the greedy stops only where the next link would
//! fail a rule.

mod oracle;

use fj_hypnos::algorithm::{self, LinkObservation};
use fj_hypnos::HypnosConfig;
use oracle::Topology;

const NODES: usize = 4;
const MAX_LINKS: usize = 5;

/// Every node pair `a ≤ b`: four self-loops and six distinct pairs.
fn pairs() -> Vec<(usize, usize)> {
    (0..NODES)
        .flat_map(|a| (a..NODES).map(move |b| (a, b)))
        .collect()
}

/// Link `i` of a sequence: id `i`, 100G, utilisation rising with `i` and
/// always under the default 20 % cap.
fn observations(seq: &[(usize, usize)]) -> Vec<LinkObservation> {
    seq.iter()
        .enumerate()
        .map(|(i, &ends)| algorithm::observation(i, ends, 100.0, 0.5 + i as f64))
        .collect()
}

/// Whether a link the greedy left up could still sleep once it is done:
/// the endpoints stay joined without it and both keep their headroom.
/// `after` is the topology with the `slept` links down.
fn could_still_sleep(
    obs: &[LinkObservation],
    (after, slept): (&mut Topology, &[usize]),
    link: &LinkObservation,
    config: &HypnosConfig,
) -> bool {
    if !after.safe_to_sleep(link.link_id) {
        return false;
    }
    [link.routers.0, link.routers.1].iter().all(|&r| {
        let (mut traffic, mut capacity) = (0.0, 0.0);
        for o in obs {
            for end in [o.routers.0, o.routers.1] {
                if end == r {
                    traffic += o.traffic.as_f64();
                    if !slept.contains(&o.link_id) {
                        capacity += o.capacity.as_f64();
                    }
                }
            }
        }
        capacity - link.capacity.as_f64() >= config.headroom * traffic
    })
}

fn check(seq: &[(usize, usize)], config: &HypnosConfig) {
    let obs = observations(seq);
    let outcome = algorithm::decide(&obs, config);
    assert_eq!(outcome.slept, oracle::decide(&obs, config), "{seq:?}");

    let before = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
    let mut after = before.clone();
    for &id in &outcome.slept {
        after.sleep(id);
    }
    assert!(
        after.component_count() <= before.component_count(),
        "{seq:?}: slept {:?} split the graph",
        outcome.slept
    );
    for o in obs.iter().filter(|o| !outcome.slept.contains(&o.link_id)) {
        assert!(
            !could_still_sleep(&obs, (&mut after, &outcome.slept), o, config),
            "{seq:?}: link {} could still sleep after {:?}",
            o.link_id,
            outcome.slept
        );
    }
}

#[test]
fn every_sequence_of_up_to_five_links_on_four_nodes() {
    let pairs = pairs();
    let config = HypnosConfig::default();
    let mut seq = Vec::with_capacity(MAX_LINKS);
    let mut checked = 0usize;
    // Depth-first over sequences: each prefix is itself a sequence.
    fn walk(
        pairs: &[(usize, usize)],
        seq: &mut Vec<(usize, usize)>,
        config: &HypnosConfig,
        checked: &mut usize,
    ) {
        for &p in pairs {
            seq.push(p);
            check(seq, config);
            *checked += 1;
            if seq.len() < MAX_LINKS {
                walk(pairs, seq, config, checked);
            }
            seq.pop();
        }
    }
    walk(&pairs, &mut seq, &config, &mut checked);
    assert_eq!(checked, 10 + 100 + 1_000 + 10_000 + 100_000);
}
