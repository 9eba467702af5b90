//! Order statistics over samples and the `compare` verdict rules.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v)?;
        Some(Summary {
            n: v.len(),
            q1,
            median: median_sorted(&v),
            q3,
        })
    }

    /// The inter-quartile range as a share of the median's magnitude
    /// (0 for a zero median with no spread).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

/// The median of `values` (any order); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles of sorted `v`, by the same "exclusive"
/// interpolation as Python's `statistics.quantiles(v, n=4)`. A single
/// sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Outcome of comparing a metric's samples on two commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// The new median is worse than the base median by more than the
    /// bound.
    Regressed,
    /// The new median is better by more than the bound, or every new
    /// sample beats every base sample.
    Improved,
    /// The spread of either side is wider than the bound, so the
    /// samples cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`:
/// positive is worse, negative is better.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// The verdict for one metric: `base` and `new` are the samples of the
/// parent and of the change, `bound` the share by which the median may
/// worsen.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (b, n) = (Summary::of(base)?, Summary::of(new)?);
    let all_better = new
        .iter()
        .all(|&x| base.iter().all(|&y| worsening(y, x, better) < 0.0));
    let worse = worsening(b.median, n.median, better);
    Some(if b.spread().max(n.spread()) > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]).unwrap();
        assert_eq!(s.spread(), (10.5 - 9.5) / 10.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Same distribution: ok.
        let same = [10.02, 9.95, 10.08, 10.0, 9.97];
        assert_eq!(verdict(&base, &same, Better::Lower, 0.1), Some(Verdict::Ok));
        // 20% slower in a lower-is-better time: regressed.
        let slow = base.map(|x| x * 1.2);
        assert_eq!(
            verdict(&base, &slow, Better::Lower, 0.1),
            Some(Verdict::Regressed)
        );
        // The same move in a higher-is-better rate is an improvement.
        assert_eq!(
            verdict(&base, &slow, Better::Higher, 0.1),
            Some(Verdict::Improved)
        );
        // A spread wider than the bound leaves the verdict open...
        let noisy = [7.0, 13.0, 10.0, 8.0, 12.5];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Some(Verdict::Unresolved)
        );
        // ...unless every new sample beats every base sample.
        let wide_but_faster = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(
            verdict(&base, &wide_but_faster, Better::Lower, 0.1),
            Some(Verdict::Improved)
        );
        // Exact metrics: any worsening past a zero-width bound regresses.
        assert_eq!(
            verdict(&[5.0], &[5.0], Better::Lower, 0.0),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&[5.0], &[6.0], Better::Lower, 0.0),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(&[], &[1.0], Better::Lower, 0.1), None);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(worsening(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worsening(10.0, 11.0, Better::Higher), -0.1);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
