//! Property-based tests: Hypnos must never partition a topology and its
//! pricing must bracket correctly, for arbitrary random networks; and the
//! library's `decide` must sleep exactly what the reference path sleeps.

mod oracle;

use fj_hypnos::{algorithm, sleeping_savings, HypnosConfig};
use oracle::Topology;
use proptest::prelude::*;

/// Random multigraph edges `(link id, a, b)` over up to `n` nodes:
/// self-loops and parallel links included. In about half the cases the
/// ids are the edge positions; in the rest they are drawn with repeats,
/// so one id may name several edges.
fn arb_edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    (
        prop::collection::vec((0..max_edges, 0..n, 0..n), 1..max_edges),
        any::<bool>(),
    )
        .prop_map(|(edges, repeat_ids)| {
            edges
                .into_iter()
                .enumerate()
                .map(|(i, (id, a, b))| (if repeat_ids { id } else { i }, a, b))
                .collect()
        })
}

/// One observation per edge. Traffic is per link id, so every edge of
/// one id carries the same utilisation.
fn observations_from_edges(
    edges: &[(usize, usize, usize)],
    traffic_gbps: &[f64],
) -> Vec<algorithm::LinkObservation> {
    edges
        .iter()
        .map(|&(id, a, b)| {
            let t = traffic_gbps.get(id).copied().unwrap_or(0.0);
            algorithm::observation(id, (a, b), 100.0, t)
        })
        .collect()
}

proptest! {
    /// Whatever Hypnos decides, the component count never grows.
    #[test]
    fn sleeping_never_partitions(
        edges in arb_edges(12, 40),
        traffic in prop::collection::vec(0.0f64..30.0, 40),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let before = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
        let outcome = algorithm::decide(&obs, &HypnosConfig::default());

        let mut after = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
        for &id in &outcome.slept {
            after.sleep(id);
        }
        prop_assert!(
            after.component_count() <= before.component_count(),
            "slept set partitioned the graph"
        );
    }

    /// Slept links always respect the utilisation threshold.
    #[test]
    fn slept_links_are_cold(
        edges in arb_edges(10, 30),
        traffic in prop::collection::vec(0.0f64..100.0, 30),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let config = HypnosConfig::default();
        let outcome = algorithm::decide(&obs, &config);
        for o in outcome.slept_observations() {
            prop_assert!(o.utilization() <= config.max_sleep_utilization + 1e-12);
        }
    }

    /// The savings range is well-formed: 0 ≤ low ≤ high, and empty sleep
    /// sets price to zero.
    #[test]
    fn savings_bracket_well_formed(
        edges in arb_edges(10, 30),
        traffic in prop::collection::vec(0.0f64..30.0, 30),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let outcome = algorithm::decide(&obs, &HypnosConfig::default());
        let s = sleeping_savings(&outcome);
        prop_assert!(s.low_w >= 0.0);
        prop_assert!(s.high_w >= s.low_w);
        if outcome.slept.is_empty() {
            prop_assert_eq!(s.low_w, 0.0);
            prop_assert_eq!(s.high_w, 0.0);
        } else {
            prop_assert!(s.low_w > 0.0, "sleeping something must save something");
        }
    }

    /// A stricter utilisation threshold never sleeps more links.
    #[test]
    fn stricter_threshold_sleeps_fewer(
        edges in arb_edges(10, 30),
        traffic in prop::collection::vec(0.0f64..40.0, 30),
    ) {
        let obs = observations_from_edges(&edges, &traffic);
        let loose = algorithm::decide(&obs, &HypnosConfig {
            max_sleep_utilization: 0.4,
            ..HypnosConfig::default()
        });
        let strict = algorithm::decide(&obs, &HypnosConfig {
            max_sleep_utilization: 0.05,
            ..HypnosConfig::default()
        });
        prop_assert!(strict.slept.len() <= loose.slept.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The library path and the reference path sleep the same links in
    /// the same order, whatever the graph, the capacities or the config:
    /// forests, isolated islands, parallel links, self-loops and ids that
    /// name several edges.
    #[test]
    fn decide_matches_the_oracle(
        edges in arb_edges(12, 40),
        links in prop::collection::vec(
            (prop::sample::select(vec![10.0, 40.0, 100.0, 400.0]), 0.0f64..0.5),
            40,
        ),
        headroom in prop::sample::select(vec![0.0, 1.0, 2.0, 4.0]),
        max_sleep_utilization in prop::sample::select(vec![0.05, 0.2, 0.5]),
    ) {
        let obs: Vec<_> = edges
            .iter()
            .map(|&(id, a, b)| {
                let (capacity, utilization) = links[id];
                algorithm::observation(id, (a, b), capacity, capacity * utilization)
            })
            .collect();
        let config = HypnosConfig { headroom, max_sleep_utilization };
        let outcome = algorithm::decide(&obs, &config);
        prop_assert_eq!(outcome.slept, oracle::decide(&obs, &config));
    }
}
