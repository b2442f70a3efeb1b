//! Error type for simulator operations.

use std::fmt;

/// Errors raised by [`crate::SimulatedRouter`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Interface index out of range.
    NoSuchInterface(usize),
    /// PSU slot index out of range.
    NoSuchPsu(usize),
    /// Operation requires a plugged transceiver but the cage is empty.
    CageEmpty(usize),
    /// A transceiver is already plugged into this cage.
    CageOccupied(usize),
    /// Attempted to cable an interface to itself.
    SelfLoop(usize),
    /// The requested speed is not supported by this port.
    UnsupportedSpeed { iface: usize, speed: fj_core::Speed },
    /// Unknown builtin router model name.
    UnknownModel(String),
    /// Console command could not be parsed.
    BadCommand(String),
    /// Disabling this PSU would leave the router unpowered.
    LastPsu(usize),
    /// Linecard slot index out of range (modular chassis).
    NoSuchSlot(usize),
    /// The linecard slot already holds a card.
    SlotOccupied(usize),
    /// The linecard slot is empty.
    SlotEmpty(usize),
    /// A fleet collection request the engine cannot run: a non-positive
    /// poll period, or an event aimed at a router outside the fleet.
    InvalidCollection(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchInterface(i) => write!(f, "no interface {i}"),
            SimError::NoSuchPsu(i) => write!(f, "no PSU slot {i}"),
            SimError::CageEmpty(i) => write!(f, "interface {i} has no transceiver"),
            SimError::CageOccupied(i) => {
                write!(f, "interface {i} already has a transceiver")
            }
            SimError::SelfLoop(i) => write!(f, "cannot cable interface {i} to itself"),
            SimError::UnsupportedSpeed { iface, speed } => {
                write!(f, "interface {iface} does not support {speed}")
            }
            SimError::UnknownModel(m) => write!(f, "unknown router model {m:?}"),
            SimError::BadCommand(c) => write!(f, "cannot parse console command {c:?}"),
            SimError::LastPsu(i) => {
                write!(
                    f,
                    "PSU {i} is the last active supply; refusing to disable it"
                )
            }
            SimError::NoSuchSlot(s) => write!(f, "no linecard slot {s}"),
            SimError::SlotOccupied(s) => write!(f, "linecard slot {s} is occupied"),
            SimError::SlotEmpty(s) => write!(f, "linecard slot {s} is empty"),
            SimError::InvalidCollection(why) => write!(f, "invalid fleet collection: {why}"),
        }
    }
}

impl std::error::Error for SimError {}
