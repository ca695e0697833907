//! Order statistics over per-op samples.

/// Median, quartiles and the highest percentile the sample count supports.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// Highest of p50/p90/p95/p99 with at least ten samples beyond it.
    /// With fewer than 20 samples none qualifies and this is the maximum,
    /// flagged by `tail_pct == 100`.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.p75 - self.p25) / self.median).abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by Python's `statistics.quantiles(xs, n=4)` (the default
/// "exclusive" method), so the spreads printed here match the ones a
/// reader computes from the emitted medians.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = i as f64 * m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Summary {
            n,
            median: f64::NAN,
            p25: f64::NAN,
            p75: f64::NAN,
            tail_pct: f64::NAN,
            tail: f64::NAN,
        };
    }
    let (p25, p75) = quartiles(&v);
    // Percentiles in tenths of a percent, with their nearest rank.
    let supported = [990usize, 950, 900, 500]
        .into_iter()
        .map(|p| (p, (p * n).div_ceil(1000).max(1)))
        .find(|&(_, rank)| n - rank >= 10);
    let (tail_pct, tail) = match supported {
        Some((p, rank)) => (p as f64 / 10.0, v[rank - 1]),
        None => (100.0, v[n - 1]),
    };
    Summary {
        n,
        median: median(&v),
        p25,
        p75,
        tail_pct,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_pct, 100.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
    }
}
