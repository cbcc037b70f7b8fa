//! Order statistics over repetition samples.

/// Samples a tail percentile must leave above itself.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail is chosen from, highest first.
const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The reported tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile used, in percent.
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder whose nearest-rank value leaves at
/// least [`MIN_BEYOND`] samples above it. With fewer than 20 samples no
/// ladder step qualifies; the rank `n - MIN_BEYOND` is used instead, and
/// with at most `MIN_BEYOND` samples the maximum (`beyond` then says so).
pub fn tail(xs: &[f64]) -> Tail {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            percentile: 0.0,
            value: 0.0,
            beyond: 0,
        };
    }
    for p in LADDER {
        let r = nearest_rank(p, n);
        if n - r >= MIN_BEYOND {
            return Tail {
                percentile: p,
                value: s[r - 1],
                beyond: n - r,
            };
        }
    }
    let r = if n > MIN_BEYOND { n - MIN_BEYOND } else { n };
    Tail {
        percentile: 100.0 * r as f64 / n as f64,
        value: s[r - 1],
        beyond: n - r,
    }
}

/// The tail at a fixed `percentile` when its nearest-rank value leaves at
/// least [`MIN_BEYOND`] samples above it, and [`tail`] otherwise. A fixed
/// percentile keeps runs comparable: with [`tail`] alone, a run with a few
/// more samples would step up the ladder to a more extreme percentile.
pub fn tail_at(xs: &[f64], percentile: f64) -> Tail {
    let n = xs.len();
    if n == 0 || n - nearest_rank(percentile, n) < MIN_BEYOND {
        return tail(xs);
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let r = nearest_rank(percentile, n);
    Tail {
        percentile,
        value: s[r - 1],
        beyond: n - r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 13.0, 12));
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (5.0, 10));
        let t = tail(&[1.0, 2.0]);
        assert_eq!((t.value, t.beyond), (2.0, 0));
    }

    #[test]
    fn tail_at_keeps_its_percentile_or_falls_back() {
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail_at(&xs, 95.0);
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 380.0, 20));
        // 150 samples leave only 7 beyond p95: the ladder decides.
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail_at(&xs, 95.0), tail(&xs));
        assert_eq!(tail_at(&xs, 95.0).percentile, 90.0);
        assert_eq!(tail_at(&[], 95.0).beyond, 0);
    }
}
