//! Summary statistics over timed samples.

/// Summary of a bench's per-iteration sample times, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Number of timed samples.
    pub samples: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (lower-middle for even counts, so it is a real sample).
    pub p50_ns: f64,
    /// First quartile, nearest rank: a real sample.
    pub q1_ns: f64,
    /// Third quartile, nearest rank: a real sample.
    pub q3_ns: f64,
    /// Fastest sample — the least-noise estimate on a busy machine.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Sample standard deviation (0 for a single sample).
    pub stddev_ns: f64,
}

impl Stats {
    /// Computes statistics from raw per-iteration times. Sorting uses
    /// the IEEE total order, so a NaN sample sorts to one end instead of
    /// panicking.
    pub fn from_ns(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "stats need at least one sample");
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Nearest rank: quartile `q` is the sample at 1-based rank
        // ceil(q·n/4).
        let quartile = |q: usize| sorted[(q * n).div_ceil(4) - 1];
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let stddev = if n > 1 {
            let var = sorted.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        Stats {
            samples: n,
            mean_ns: mean,
            p50_ns: sorted[(n - 1) / 2],
            q1_ns: quartile(1),
            q3_ns: quartile(3),
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            stddev_ns: stddev,
        }
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let s = Stats::from_ns(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.mean_ns, 2.5);
        assert_eq!(s.p50_ns, 2.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 4.0);
        assert!((s.stddev_ns - 1.2909944487358056).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Stats::from_ns(&[7.5]);
        assert_eq!(s.mean_ns, 7.5);
        assert_eq!(s.p50_ns, 7.5);
        assert_eq!((s.q1_ns, s.q3_ns), (7.5, 7.5));
        assert_eq!(s.stddev_ns, 0.0);
    }

    #[test]
    fn quartiles_are_nearest_rank_samples() {
        // Ranks ceil(n/4) and ceil(3n/4), 1-based.
        let s = Stats::from_ns(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1_ns, s.q3_ns), (1.0, 3.0));
        let s = Stats::from_ns(&[50.0, 10.0, 40.0, 30.0, 20.0]);
        assert_eq!((s.q1_ns, s.p50_ns, s.q3_ns), (20.0, 30.0, 40.0));
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Stats::from_ns(&ten);
        assert_eq!((s.q1_ns, s.p50_ns, s.q3_ns), (3.0, 5.0, 8.0));
    }

    #[test]
    fn a_nan_sample_sorts_last_instead_of_panicking() {
        let s = Stats::from_ns(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!((s.min_ns, s.q1_ns, s.p50_ns, s.q3_ns), (1.0, 1.0, 2.0, 3.0));
        assert!(s.max_ns.is_nan());
    }

    #[test]
    fn unit_formatting_scales() {
        assert_eq!(fmt_ns(512.0), "512.0 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_100_000.0), "3.10 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
