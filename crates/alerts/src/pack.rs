//! The default SLO rule pack for fleet runs.
//!
//! Every rule name here is catalogued in DESIGN.md's "Alert catalogue"
//! section; the FJ04 lint cross-checks both directions, so adding a
//! rule without documenting it (or documenting one that no longer
//! exists) fails CI.
//!
//! Thresholds are chosen so a healthy deterministic run stays silent:
//! the gap-rate and prediction-error budgets tolerate the background
//! fault rates the chaos scenarios inject, the dispatch-wait budget is
//! the ceiling of the `perf_gate` CI bound on the benchmark's switch_ops
//! `par.dispatch_wait_s`, and the stall horizon is a full sim day of
//! chunk boundaries.

use fj_units::SimDuration;

use crate::rule::{AlertExpr, AlertRule, Cmp, MetricSelector, Severity};

/// Error budget for fleet poll gaps: 5% of rounds may gap before the
/// SLO burns.
pub const GAP_BUDGET: f64 = 0.05;

/// Error budget for power-model misses: 5% of predicted rounds may
/// land outside the tolerance band.
pub const PREDICTION_BUDGET: f64 = 0.05;

/// Burn multiple that pages: sustained burn at double the budgeted
/// pace.
pub const BURN_FACTOR: f64 = 2.0;

/// Cumulative pool dispatch wait tolerated per run: this rule pack's
/// budget, and the ceiling of the bound `perf_gate` puts on the
/// benchmark's switch_ops `par.dispatch_wait_s`.
pub const DISPATCH_WAIT_BUDGET_SECS: f64 = 0.25;

/// The default rule pack evaluated by fleet runs, every `exp`
/// experiment at exit, and the alert smoke gate.
pub fn default_pack() -> Vec<AlertRule> {
    vec![
        // The paper's first-order data-quality number: what fraction of
        // expected poll observations never arrived (§5). Short window
        // catches an active incident, long window filters blips.
        AlertRule::new(
            "gap_rate_slo",
            Severity::Warning,
            AlertExpr::BurnRate {
                numerator: MetricSelector::with_labels("gaps_total", &[("source", "fleet_total")]),
                denominator: MetricSelector::name("fleet_poll_rounds_total"),
                budget: GAP_BUDGET,
                factor: BURN_FACTOR,
                short: SimDuration::from_hours(1),
                long: SimDuration::from_hours(6),
            },
        ),
        // A power model drifting away from wall truth is the paper's
        // central failure mode (§6): rounds whose prediction misses the
        // wall reading by more than the tolerance band, as a fraction
        // of all predicted rounds.
        AlertRule::new(
            "prediction_error_burn",
            Severity::Critical,
            AlertExpr::BurnRate {
                numerator: MetricSelector::name("fleet_prediction_errors_total"),
                denominator: MetricSelector::name("fleet_predictions_total"),
                budget: PREDICTION_BUDGET,
                factor: BURN_FACTOR,
                short: SimDuration::from_hours(2),
                long: SimDuration::from_hours(12),
            },
        ),
        // A rejected checkpoint means a resume would have spliced
        // incompatible state — one is already too many.
        AlertRule::new(
            "checkpoint_rejection_spike",
            Severity::Critical,
            AlertExpr::Threshold {
                metric: MetricSelector::name("fleet_checkpoints_rejected_total"),
                cmp: Cmp::Ge,
                value: 1.0,
            },
        ),
        // Shards queueing behind busy pool workers past the CI budget.
        // The gauge only exists on profiled runs; unprofiled runs never
        // breach (missing data is not a threshold breach).
        AlertRule::new(
            "dispatch_wait_budget",
            Severity::Warning,
            AlertExpr::Threshold {
                metric: MetricSelector::name("fleet_pool_dispatch_wait_seconds"),
                cmp: Cmp::Gt,
                value: DISPATCH_WAIT_BUDGET_SECS,
            },
        ),
        // The round counter freezing for a sim day of boundaries means
        // the engine stopped making progress.
        AlertRule::new(
            "progress_stall",
            Severity::Critical,
            AlertExpr::Absent {
                metric: MetricSelector::name("fleet_poll_rounds_total"),
                staleness: SimDuration::from_days(1),
            },
        ),
        // Any SNMP target away from Healthy (degraded=1, quarantined=2)
        // — the poller's health ladder feeding the alert plane. Zero
        // for/keep: fires on the transition, resolves on recovery.
        AlertRule::new(
            "snmp_target_unhealthy",
            Severity::Warning,
            AlertExpr::Threshold {
                metric: MetricSelector::name("snmp_target_health"),
                cmp: Cmp::Ge,
                value: 1.0,
            },
        ),
        // The Autopower store dropping samples under backpressure.
        AlertRule::new(
            "autopower_sample_loss",
            Severity::Warning,
            AlertExpr::Threshold {
                metric: MetricSelector::name("autopower_samples_lost_total"),
                cmp: Cmp::Ge,
                value: 1.0,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AlertEngine;
    use crate::rule::{parse_rules, render_rules};
    use fj_units::SimInstant;

    #[test]
    fn default_pack_round_trips_and_has_unique_names() {
        let pack = default_pack();
        let text = render_rules(&pack);
        let back = parse_rules(&text).expect("default pack parses");
        assert_eq!(back, pack);
        let mut names: Vec<&str> = pack.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), pack.len());
    }

    #[test]
    fn default_pack_stays_silent_on_an_empty_registry() {
        // A fresh registry (no series at all) must not fire anything on
        // the first boundary: absence rules measure from engine start.
        let mut engine = AlertEngine::new(default_pack());
        assert!(engine.eval(&[], SimInstant::EPOCH).is_empty());
        assert_eq!(engine.firing_count(), 0);
    }
}
