//! FNV-1a digests of program outputs, for the pinned default-seed
//! checks. Floats are hashed by bit pattern, so a digest match is a
//! bit-for-bit match.

use fj_units::TimeSeries;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` in by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a series in: every sample's time and value bits, then every
    /// gap marker, each list prefixed by its length.
    pub fn series(&mut self, s: &TimeSeries) {
        self.u64(s.samples().len() as u64);
        for sample in s.samples() {
            self.u64(sample.at.as_secs() as u64);
            self.f64(sample.value);
        }
        self.u64(s.gaps().len() as u64);
        for g in s.gaps() {
            self.u64(g.as_secs() as u64);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Whether two series are identical bit for bit: same sample times,
/// same value bit patterns, same gap markers.
pub fn series_bits_eq(a: &TimeSeries, b: &TimeSeries) -> bool {
    a.gaps() == b.gaps()
        && a.samples().len() == b.samples().len()
        && a.samples()
            .iter()
            .zip(b.samples())
            .all(|(x, y)| x.at == y.at && x.value.to_bits() == y.value.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_units::SimInstant;

    #[test]
    fn fnv_reference_vector() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bit_equality_tells_signed_zeros_apart() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        a.push(SimInstant::EPOCH, 0.0);
        b.push(SimInstant::EPOCH, -0.0);
        assert!(series_bits_eq(&a, &a.clone()));
        assert!(!series_bits_eq(&a, &b));
    }
}
