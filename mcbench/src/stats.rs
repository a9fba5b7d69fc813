//! Summary statistics the benchmark reports: medians, the tail-percentile
//! rule, geometric means and failure fractions.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A percentile as reported: the value, the percentile actually used, and
/// the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample value at `percentile` (nearest rank); `+∞` when that rank
    /// holds a failed request.
    pub value: f64,
    /// Percentile used: the requested one, or the highest integer
    /// percentile below it that keeps [`MIN_TAIL_SAMPLES`] samples beyond.
    pub percentile: u32,
    /// Sample count.
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    ((p as f64 / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Percentile `requested` of `samples` under the reporting rule: report the
/// highest percentile (at most `requested`) that has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it. The median is always reported
/// as the median. Returns `None` for an empty sample.
pub fn tail(samples: &[f64], requested: u32) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let v = sorted(samples);
    let mut p = requested.min(100);
    if p > 50 {
        while p > 50 && n - 1 - rank(p, n) < MIN_TAIL_SAMPLES {
            p -= 1;
        }
    }
    let value = if p == 50 {
        median_sorted(&v)
    } else {
        v[rank(p, n)]
    };
    Some(Tail {
        value,
        percentile: p,
        samples: n,
    })
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `samples` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(median_sorted(&sorted(samples)))
    }
}

/// Geometric mean of `after / before` over `(before, after)` pairs,
/// skipping pairs with `before == 0`; `None` when nothing is left.
///
/// An `after` of 0 (a circuit optimized to no AND at all) contributes a
/// ratio of 0 and makes the mean 0, as the arithmetic demands.
pub fn ratio_geomean(pairs: &[(usize, usize)]) -> Option<f64> {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(before, _)| *before > 0)
        .map(|&(before, after)| after as f64 / before as f64)
        .collect();
    if ratios.is_empty() {
        return None;
    }
    if ratios.contains(&0.0) {
        return Some(0.0);
    }
    let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    Some(log_mean.exp())
}

/// Attempted operations and how many of them failed: errors, refused
/// requests and outputs that were not equivalent to their inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed in any way.
    pub failed: u64,
}

impl Outcomes {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 - fail_frac`: the share of operations that succeeded and checked
    /// out.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.fail_frac()
    }
}

impl std::ops::AddAssign for Outcomes {
    fn add_assign(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must not depend on input order.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn tail_keeps_the_requested_percentile_with_enough_samples() {
        let t = tail(&ramp(1000), 99).unwrap();
        assert_eq!(t.percentile, 99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        let t = tail(&ramp(100), 90).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 120 samples: p91 is rank 110 (10 beyond), p92 would leave 9.
        let t = tail(&ramp(120), 99).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (91, 110.0, 120));
        // 40 samples: p75 is rank 30 (10 beyond).
        let t = tail(&ramp(40), 90).unwrap();
        assert_eq!((t.percentile, t.value), (75, 30.0));
        // Too few for any tail: the median is what is left.
        let t = tail(&ramp(12), 99).unwrap();
        assert_eq!((t.percentile, t.value), (50, 6.5));
        assert!(tail(&[], 50).is_none());
    }

    #[test]
    fn tail_counts_failures_as_infinitely_slow() {
        let mut v = ramp(100);
        v.extend([f64::INFINITY; 20]);
        let t = tail(&v, 90).unwrap();
        // 120 samples, p90 = rank 108 → among the 20 failures.
        assert_eq!(t.percentile, 90);
        assert!(t.value.is_infinite());
        assert_eq!(tail(&v, 50).unwrap().value, 60.5);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = ratio_geomean(&[(100, 50), (10, 10), (8, 2)]).unwrap();
        // (0.5 · 1 · 0.25)^(1/3) = 0.5
        assert!((g - 0.5).abs() < 1e-12);
        assert_eq!(ratio_geomean(&[(0, 3)]), None);
        assert_eq!(ratio_geomean(&[(4, 0), (4, 2)]), Some(0.0));
        // Repeats exactly: same pairs, same bits.
        let pairs = [(94, 32), (418, 160), (823, 308)];
        assert_eq!(
            ratio_geomean(&pairs).unwrap().to_bits(),
            ratio_geomean(&pairs).unwrap().to_bits()
        );
    }

    #[test]
    fn fail_and_ok_fractions() {
        let mut o = Outcomes::default();
        assert_eq!(o.fail_frac(), 0.0);
        for i in 0..40 {
            o.record(i % 8 != 0);
        }
        assert_eq!((o.attempted, o.failed), (40, 5));
        assert!((o.fail_frac() - 0.125).abs() < 1e-12);
        assert!((o.ok_frac() - 0.875).abs() < 1e-12);
        o += Outcomes {
            attempted: 10,
            failed: 0,
        };
        assert_eq!((o.attempted, o.failed), (50, 5));
    }
}
