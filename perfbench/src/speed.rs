//! Host-speed normalisation.
//!
//! On the reference host (a 2-vCPU VM) the speed one thread gets moves
//! by up to 1.7× over stretches of seconds to minutes with load from
//! other tenants, and every timing in a stretch moves with it. A fixed
//! probe, independent of the program, is timed right before and right
//! after each measured unit; the unit's time is rescaled by how much
//! slower than on a quiet reference host the probe ran. The probe mixes
//! the kinds of work the workloads do — a dependent floating-point
//! chain, ordered-set inserts and lookups, and float formatting — and
//! slows down with the program (per-unit correlation 0.9 on `census`),
//! so the rescaled times vary far less between runs than the raw ones,
//! while a change to the program still moves them in full.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// The probe's time on the reference host when quiet (its fastest
/// observed stretch), in seconds. Normalised times read as seconds on
/// that host.
pub const REFERENCE_PROBE_S: f64 = 0.027;

/// One probe run, in seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut y = 1.0f64;
    for i in 0..2_500_000u32 {
        y = (y * 1.000_001 + f64::from(i).sqrt()) % 1e9;
    }
    let mut set = BTreeSet::new();
    let mut x = 0x9E37_79B9u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 44
    };
    for _ in 0..30_000 {
        set.insert(next());
    }
    let hits = (0..100_000).filter(|_| set.contains(&next())).count();
    let mut text = String::new();
    for i in 0..30_000u32 {
        text.clear();
        let _ = write!(text, "{:?}", y + f64::from(i) * 1.000_1);
    }
    std::hint::black_box((y, hits, text));
    t0.elapsed().as_secs_f64()
}

/// Brackets one measured unit with probes.
pub struct Bracket(f64);

impl Bracket {
    /// Probes before the unit.
    pub fn open() -> Bracket {
        Bracket(probe())
    }

    /// Probes after the unit and returns the factor that turns the
    /// unit's raw seconds into reference-host seconds.
    pub fn close(self) -> f64 {
        REFERENCE_PROBE_S / ((self.0 + probe()) / 2.0)
    }
}
