//! Seeded input generation and the summary arithmetic every workload
//! shares: medians, the tail percentile, failure fractions.

use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// byte-identical inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_50A1_2004_0D5A)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Exponential variate with rate `rate`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// The highest percentile of `n` samples that still has at least
/// `beyond` samples above it: `floor(100 · (n − beyond) / n)`, or `None`
/// when the sample is too small to leave `beyond` samples above any
/// percentile of at least 1.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n <= beyond {
        return None;
    }
    let p = (100 * (n - beyond)) / n;
    (p >= 1).then_some(p as u32)
}

/// The value at percentile `p` of `xs` by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p as usize * v.len()).div_ceil(100)).clamp(1, v.len());
    v[rank - 1]
}

/// Tail of `xs`: the value at [`tail_percentile`] with 10 samples beyond
/// it, together with that percentile. Falls back to the maximum (and
/// percentile 100) when fewer than 11 samples exist.
pub fn tail(xs: &[f64]) -> (f64, u32) {
    match tail_percentile(xs.len(), 10) {
        Some(p) => (percentile(xs, p), p),
        None => (xs.iter().copied().fold(f64::NEG_INFINITY, f64::max), 100),
    }
}

/// Failed over attempted operations; `0.0` when nothing was attempted.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Times one call of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Unit roundoff of `f64` (`2⁻⁵³`).
pub const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The a-priori rounding allowance for a moment computed as `terms`
/// floating-point accumulations of magnitude `scale`: the textbook
/// recursive-summation bound `γ_m·Σ|x| ≈ m·u·scale`, doubled for the
/// products feeding each term.
pub fn rounding_allowance(terms: f64, scale: f64) -> f64 {
    2.0 * terms * UNIT_ROUNDOFF * scale.abs()
}

/// `|got − want| ≤ bound + allowance`, with NaN never passing.
pub fn within(got: f64, want: f64, bound: f64, allowance: f64) -> bool {
    (got - want).abs() <= bound + allowance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_index_leaves_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 above it.
        assert_eq!(tail_percentile(100, 10), Some(90));
        // 200 samples: p95 leaves 10.
        assert_eq!(tail_percentile(200, 10), Some(95));
        // 1000 samples: p99.
        assert_eq!(tail_percentile(1000, 10), Some(99));
        // 150 samples: floor(100·140/150) = 93; 93% of 150 is 139.5,
        // so the nearest rank is 140 and 10 samples lie beyond.
        assert_eq!(tail_percentile(150, 10), Some(93));
        assert_eq!(tail_percentile(10, 10), None);
        // 11 samples: p9 is rank 1, leaving 10 above it.
        assert_eq!(tail_percentile(11, 10), Some(9));
        // In general the chosen percentile leaves at least 10 samples
        // beyond it and the next one up does not.
        let beyond = |n: usize, p: u32| n - (p as usize * n).div_ceil(100);
        for n in 11..3000 {
            let p = tail_percentile(n, 10).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            assert!(p == 100 || beyond(n, p + 1) < 10, "n={n} p={p}");
        }
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(p, 93);
        assert_eq!(v, 140.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Too few samples: the tail is the maximum.
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100));
    }

    #[test]
    fn fail_frac_arithmetic() {
        assert_eq!(fail_frac(0, 0), 0.0);
        assert_eq!(fail_frac(0, 17), 0.0);
        assert_eq!(fail_frac(1, 4), 0.25);
        assert_eq!(fail_frac(3, 3), 1.0);
    }

    #[test]
    fn rng_is_seed_stable() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000)
            .map(|_| r.uniform())
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
