//! Cross-crate integration tests: the full pipelines the paper chains
//! together, exercised through the public facade crate.

use fantastic_joules::core::{builtin_registry, Speed, TransceiverType};
use fantastic_joules::hypnos::{algorithm, sleeping_savings, HypnosConfig};
use fantastic_joules::netpowerbench::{compare_to_reference, Derivation, DerivationConfig};
use fantastic_joules::psu::{uplift_savings, EightyPlus};
use fantastic_joules::units::{SimDuration, SimInstant};
use fj_faults::FaultPlan;
use fj_isp::trace::{self, StreamConfig};
use fj_isp::{build_fleet, stats, FleetConfig};

/// Lab → model → validation: derive a model from simulated experiments
/// and check it against the published reference — the §5+§6 loop.
#[test]
fn derive_then_validate_against_published_model() {
    let config =
        DerivationConfig::quick("Wedge100BF-32X", TransceiverType::PassiveDac, Speed::G100)
            .expect("builtin");
    let derived = Derivation::run(&config, 3).expect("derivation");
    let registry = builtin_registry();
    let reference = registry.get("Wedge100BF-32X").expect("published");
    let errors =
        compare_to_reference(&derived.model, reference, derived.class).expect("same class");
    assert!(
        errors.within(0.12, 1.5, 6.0),
        "derived parameters drift: {errors:?}"
    );
}

/// Fleet → traces → model predictions: the §6.2 comparison holds on a
/// fresh fleet: predictions correlate with wall power and sit below it.
#[test]
fn fleet_trace_prediction_offset_is_small_and_negative() {
    let mut fleet = build_fleet(&FleetConfig::small(17));
    let traces = trace::collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
        vec![],
        &[0, 1, 2],
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .expect("collection")
    .trace;

    for idx in [0usize, 1, 2] {
        let rt = &traces.routers[idx];
        let offset = rt.wall.mean_diff(&rt.predicted).expect("aligned");
        assert!(
            (-2.0..40.0).contains(&offset),
            "{}: model offset {offset} W out of the Fig. 4 ballpark",
            rt.name
        );
    }
}

/// Fleet → PSU snapshot → what-ifs: savings are positive, ordered, and
/// in the Table 3 ballpark.
#[test]
fn psu_whatifs_ordered_on_fleet_snapshot() {
    let fleet = build_fleet(&FleetConfig::switch_like(5));
    let data = stats::psu_snapshot(&fleet);
    let mut last = -1.0;
    for level in EightyPlus::ALL {
        let s = uplift_savings(&data, level);
        assert!(s.saved_w >= last, "{level} not monotone");
        last = s.saved_w;
    }
    let titanium = uplift_savings(&data, EightyPlus::Titanium);
    assert!(
        (1.0..12.0).contains(&titanium.percent()),
        "Titanium uplift {} % out of band",
        titanium.percent()
    );
}

/// Fleet → Hypnos → pricing: savings fall in the §8 percentage band.
#[test]
fn link_sleeping_savings_in_paper_band() {
    let mut fleet = build_fleet(&FleetConfig::switch_like(5));
    fleet.advance(SimDuration::from_hours(3)).expect("advance");
    let outcome = algorithm::decide(&algorithm::observe_links(&fleet), &HypnosConfig::default());
    let savings = sleeping_savings(&outcome);
    let (lo, hi) = savings.as_percent_of(fleet.total_wall_power_w());
    assert!(
        lo > 0.05 && hi < 3.5,
        "savings {lo:.2}–{hi:.2} % out of band"
    );
    assert!(hi > lo);
}

/// The actuated savings must land inside the estimated range: the
/// estimator's bracket really brackets the simulator's physics.
#[test]
fn actuated_sleeping_falls_within_estimate() {
    let mut fleet = build_fleet(&FleetConfig::switch_like(9));
    fleet.advance(SimDuration::from_hours(3)).expect("advance");
    let before = fleet.total_wall_power_w();
    let outcome = algorithm::run_on_fleet(&mut fleet, &HypnosConfig::default());
    let after = fleet.total_wall_power_w();
    let realised = before - after;
    let savings = sleeping_savings(&outcome);
    assert!(
        realised >= savings.low_w * 0.5 && realised <= savings.high_w * 1.6,
        "realised {realised:.0} W outside bracket {:.0}–{:.0} W",
        savings.low_w,
        savings.high_w
    );
}

/// Everything the §7 analysis needs from one fleet instance, sanity
/// bounds only (exact values are covered by crate tests).
#[test]
fn insights_have_paper_shape() {
    let fleet = build_fleet(&FleetConfig::switch_like(5));
    let insights = fj_isp::FleetInsights::compute(&fleet);
    assert!(insights.total_power_w > 15_000.0);
    assert!(insights.transceiver_fraction() > 0.03);
    assert!(insights.transceiver_fraction() < 0.2);
    assert!(insights.traffic_fraction() < 0.01);
    let ext = insights.share.external_fraction();
    assert!((0.4..0.7).contains(&ext));
}
