//! Shared harness utilities for the experiment runner and the benches.
//!
//! Every table and figure of the paper's evaluation is an experiment in
//! the `exp` binary (`src/bin/exp/`), which rebuilds it from the
//! simulated substrate, prints paper-vs-measured rows (recorded in the
//! repository's `EXPERIMENTS.md`), and records every verdict it prints.
//! Criterion performance benches live in `benches/`.
//!
//! Run one experiment, or all of them against the expected verdicts:
//!
//! ```text
//! cargo run --release -p fj-bench --bin exp -- table2_power_models
//! cargo run --release -p fj-bench --bin exp -- all
//! ```

pub mod paper;
pub mod table;

use std::path::PathBuf;

use fj_isp::{build_fleet, Fleet, FleetConfig};
use fj_units::{SimDuration, SimInstant};

/// The standard seed used by every experiment, so all printed numbers are
/// reproducible verbatim.
pub const EXPERIMENT_SEED: u64 = 7;

/// Builds the standard Switch-like fleet used across experiments.
pub fn standard_fleet() -> Fleet {
    build_fleet(&FleetConfig::switch_like(EXPERIMENT_SEED))
}

/// Standard trace window for the long-horizon experiments: the paper's
/// SNMP dataset spans 10 months; most figures show a 2-month window
/// (Sep 08 – Nov 03). We simulate a comparable 8-week window by default,
/// which keeps the experiments at tens-of-seconds scale in release mode.
pub fn standard_window() -> (SimInstant, SimInstant, SimDuration) {
    (
        SimInstant::EPOCH,
        SimInstant::from_days(56),
        SimDuration::from_mins(5),
    )
}

/// A shorter window (one week) for the quicker experiments.
pub fn short_window() -> (SimInstant, SimInstant, SimDuration) {
    (
        SimInstant::EPOCH,
        SimInstant::from_days(7),
        SimDuration::from_mins(5),
    )
}

/// Where experiments and smoke binaries drop their telemetry snapshots
/// (`target/telemetry/<name>.json`).
pub fn telemetry_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/telemetry"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fleet_builds() {
        let fleet = standard_fleet();
        assert_eq!(fleet.routers.len(), 107);
    }

    #[test]
    fn windows_are_ordered() {
        let (start, end, step) = standard_window();
        assert!(start < end);
        assert!(step.is_positive());
    }
}
