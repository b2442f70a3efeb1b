//! A Switch-like Tier-2 ISP fleet simulation.
//!
//! The paper's observational data comes from 107 production routers at
//! Switch (10 months of 5-minute SNMP, 2 months of external Autopower
//! measurements on three routers, a one-time PSU sensor export). This
//! crate synthesises the equivalent fleet with the paper's aggregates as
//! calibration targets:
//!
//! * ≈21.5 kW total wall power (Fig. 1) across 107 routers in ~25 PoPs;
//! * mean utilisation around 1.3 % with diurnal/weekly structure (Fig. 1);
//! * ≈10 % of total power drawn by transceivers (§7);
//! * ≈51 % of interfaces external — facing other networks — carrying
//!   ≈52 % of the transceiver power (§8);
//! * PSU loads of 10–20 % with widely varying efficiency (Fig. 6).
//!
//! Scheduled events reproduce the episodes the paper dissects: the Oct 9
//! 400G-FR4 unplug and Oct 22–25 interface flap of Fig. 4a, the Sept 25
//! PSU re-plug jump of Fig. 4b, the OS update of Fig. 8, and hardware
//! (de)commissioning steps visible in Fig. 1.
//!
//! The crate also implements the §6.2 *predictor*: power-model predictions
//! computed the way the paper computes them — from the module inventory
//! plus traffic counters, with "no traffic" interpreted as "inactive",
//! which is exactly the assumption the flapping event falsifies.

pub mod build;
pub mod checkpoint;
pub mod config;
pub mod events;
pub mod fleet;
pub mod predict;
pub mod profile;
pub mod publish;
pub mod stats;
pub mod trace;
pub mod validate;

pub use build::build_fleet;
pub use checkpoint::{CheckpointConfig, CheckpointError, CHECKPOINT_VERSION};
pub use config::FleetConfig;
pub use events::{EventKind, ScheduledEvent};
pub use fleet::{Fleet, FleetRouter, LinkSide, PlannedInterface};
pub use predict::ModelPredictor;
pub use profile::ParallelEfficiencyReport;
pub use publish::publish_fleet;
pub use stats::{FleetInsights, InterfaceShare};
pub use trace::{
    collect_streaming, ChaosPanic, FleetTrace, RouterTrace, StreamConfig, StreamOutcome,
};
pub use validate::SourceComparison;
