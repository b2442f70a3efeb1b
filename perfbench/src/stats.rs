//! Order statistics for timings: medians, quartiles, and the tail
//! percentile rule — report the highest percentile that still has at
//! least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail figure is
//! never one or two lucky (or unlucky) samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in basis points (1/100 of a percent),
/// highest first.
const TAIL_CANDIDATES_BP: [u32; 7] = [9_999, 9_990, 9_900, 9_500, 9_000, 7_500, 5_000];

/// A tail percentile chosen by the rule, with its evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank index (0-based) of percentile `bp` (basis points) in `n`
/// sorted samples: `ceil(bp · n / 10000) − 1`, in integer arithmetic so
/// `99 % of 1000` is exactly rank 990.
fn rank_index(bp: u32, n: usize) -> usize {
    let n = n as u128;
    let rank = (u128::from(bp) * n).div_ceil(10_000).max(1);
    usize::try_from(rank - 1).unwrap_or(usize::MAX)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn at_rank(v: &[f64], bp: u32) -> Option<Tail> {
    let idx = rank_index(bp, v.len());
    let beyond = v.len().checked_sub(idx + 1)?;
    (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
        percentile: f64::from(bp) / 100.0,
        value: v[idx],
        beyond,
    })
}

/// Percentile `bp` (basis points) by nearest rank, or `None` when fewer
/// than [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], bp: u32) -> Option<Tail> {
    at_rank(&sorted(values), bp)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its rank, or `None` when even the median has fewer
/// (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    TAIL_CANDIDATES_BP.iter().find_map(|&bp| at_rank(&v, bp))
}

/// Linear-interpolation quantile `q ∈ [0, 1]` of `values`; `None` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A uniform random sample of at most `cap` values (Algorithm R with a
/// fixed-seed generator, so a run is reproducible). Its storage is
/// allocated and written up front, so the process's peak RSS does not
/// depend on how many values a run happens to record.
#[derive(Debug)]
pub struct Reservoir {
    values: Vec<f64>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            values: vec![-1.0; cap.max(1)],
            len: 0,
            seen: 0,
            rng: 0x2545_F491_4F6C_DD1D,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.len < self.values.len() {
            self.values[self.len] = v;
            self.len += 1;
            return;
        }
        // xorshift64*; index uniform enough over `seen`.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let j = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(slot) = usize::try_from(j).ok().and_then(|j| self.values.get_mut(j)) {
            *slot = v;
        }
    }

    /// The sample.
    pub fn values(&self) -> &[f64] {
        &self.values[..self.len]
    }

    /// Values pushed, sampled or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the helpers must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_twenty_samples_for_the_median() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples carry a median");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 9.0);
    }

    #[test]
    fn p99_qualifies_at_exactly_ten_beyond() {
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn one_sample_short_falls_back_a_step() {
        // 999 samples: rank ceil(989.01) = 990 leaves 9 beyond p99.
        let t = tail(&ramp(999)).expect("tail");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 999 - 950);
    }

    #[test]
    fn deep_tails_unlock_with_sample_count() {
        assert_eq!(tail(&ramp(10_000)).map(|t| t.percentile), Some(99.9));
        assert_eq!(tail(&ramp(100_000)).map(|t| t.percentile), Some(99.99));
        assert_eq!(tail(&ramp(200)).map(|t| t.percentile), Some(95.0));
    }

    #[test]
    fn fixed_percentile_refuses_a_thin_tail() {
        assert_eq!(percentile(&ramp(999), 9_900), None);
        let p = percentile(&ramp(1000), 9_900).expect("p99 of 1000");
        assert_eq!((p.value, p.beyond), (989.0, 10));
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_samples() {
        let mut r = Reservoir::new(4);
        for v in [3.0, 1.0, 2.0] {
            r.push(v);
        }
        assert_eq!(r.values(), [3.0, 1.0, 2.0]);
        for i in 0..1000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.values().len(), 4);
        assert_eq!(r.seen(), 1003);
        assert!(r.values().iter().any(|&v| v >= 3.0));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(quantile(&ramp(5), 0.25), Some(1.0));
        assert_eq!(quantile(&ramp(5), 1.0), Some(4.0));
    }
}
