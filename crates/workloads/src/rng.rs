//! Deterministic random-number utilities for workload generation.
//!
//! Workloads must be reproducible run-to-run so that manager comparisons
//! see identical access streams. [`SplitMix64`] is the base generator;
//! [`Zipfian`] implements the YCSB zipfian generator (Gray et al.) used by
//! the Cassandra/YCSB surrogate.

pub use tiersim::rng::SplitMix64;

/// The YCSB zipfian generator over `[0, n)` with parameter `theta`.
///
/// Produces the skewed key popularity Cassandra sees under YCSB workload A.
/// Item 0 is the most popular. Uses the standard constant-time inversion
/// with precomputed `zeta(n, theta)`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator for `n` items with skew `theta` (YCSB default
    /// 0.99).
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n >= 1);
        assert!(theta > 0.0 && theta < 1.0, "theta in (0, 1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian { n, theta, alpha, zeta_n, eta }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; integral approximation for large n keeps
        // construction O(1)-ish while staying within ~1 % of the sum.
        const EXACT_LIMIT: u64 = 10_000;
        if n <= EXACT_LIMIT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT_LIMIT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // Integral of x^-theta from EXACT_LIMIT to n.
            let a = EXACT_LIMIT as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the next item rank (0 = most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// The integer cut `ceil(t · 2⁵³)`. `unit_f64()` is exactly `m · 2⁻⁵³`
/// with `m = next_u64() >> 11`, so `unit_f64() < t` holds exactly when
/// `m < cut(t)`: the float compare becomes an integer one.
#[inline]
pub fn cut(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// A Fisher-Yates-derived "scatter" permutation: maps rank `r` to a stable
/// pseudo-random item id so zipfian popularity is spread across the key
/// space (as YCSB's hashed insertion order does).
#[inline]
pub fn scatter(rank: u64, n: u64, salt: u64) -> u64 {
    let mut x = rank.wrapping_add(salt).wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 32;
    ((x as u128 * n as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(37) < 37);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn integer_coin_matches_unit_f64() {
        // `unit_f64() < p` and `(next_u64() >> 11) < cut(p)` on the same
        // draw, at the cut's boundary mantissas and on a random stream.
        let ulp = 1.0 / (1u64 << 53) as f64;
        for p in [0.8, 0.2, 0.5, 1.0 / 3.0, ulp, 1.0 - ulp, 0.0, 1.0] {
            let k = cut(p);
            for m in [k.saturating_sub(1), k] {
                if m < 1 << 53 {
                    assert_eq!((m as f64 * ulp) < p, m < k, "m={m} p={p}");
                }
            }
            let mut a = SplitMix64::new(p.to_bits());
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(a.unit_f64() < p, (b.next_u64() >> 11) < k, "p={p}");
            }
        }
        // The paper's 0.8: the boundary mantissas fall on either side.
        let k = cut(0.8);
        assert!(((k - 1) as f64 * ulp) < 0.8 && k as f64 * ulp >= 0.8);
    }

    #[test]
    fn gaussian_has_sane_moments() {
        let mut r = SplitMix64::new(3);
        let n = 50_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.gaussian();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let z = Zipfian::new(1000, 0.99);
        let mut r = SplitMix64::new(11);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let k = z.sample(&mut r);
            counts[k as usize] += 1;
        }
        // Rank 0 is by far the most popular.
        assert!(counts[0] > counts[10] && counts[0] > counts[500]);
        // Top-10 ranks carry a large share under theta = 0.99.
        let top10: u64 = counts[..10].iter().sum();
        assert!(top10 as f64 > 0.2 * 100_000.0, "top10 = {top10}");
    }

    #[test]
    fn zipf_large_n_constructs_and_samples() {
        let z = Zipfian::new(50_000_000, 0.99);
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < 50_000_000);
        }
    }

    #[test]
    fn prop_zipf_head_mass_is_seed_stable() {
        use proptest_lite::{gen, prop_check};
        // The sampled *distribution* is a property of (n, theta) alone:
        // any two seed streams put the same mass on the head ranks (YCSB
        // and TPC-C lean on this — their per-thread streams must see the
        // same popularity curve), every draw is in bounds, and the
        // head carries more than its uniform share.
        prop_check!(
            "zipf_head_mass_is_seed_stable",
            16,
            (
                gen::u64_range(1_000, 200_000),
                gen::f64_range(0.3, 0.99),
                gen::u64_range(0, 1 << 62),
            ),
            |&(n, theta, seed)| {
                const DRAWS: u64 = 20_000;
                let z = Zipfian::new(n, theta);
                let decile = (n / 10).max(1);
                let mut shares = [0.0f64; 2];
                for (i, s) in [seed, seed ^ 0xD1CE_B00C].into_iter().enumerate() {
                    let mut rng = SplitMix64::new(s);
                    let mut hits = 0u64;
                    for _ in 0..DRAWS {
                        let k = z.sample(&mut rng);
                        proptest_lite::prop_assert!(k < n, "sample {k} out of bounds (n={n})");
                        if k < decile {
                            hits += 1;
                        }
                    }
                    shares[i] = hits as f64 / DRAWS as f64;
                }
                proptest_lite::prop_assert!(
                    shares[0] > 0.15,
                    "head decile under-weighted: {} (n={n}, theta={theta})",
                    shares[0]
                );
                proptest_lite::prop_assert!(
                    (shares[0] - shares[1]).abs() < 0.05,
                    "seed-dependent distribution: {} vs {} (n={n}, theta={theta})",
                    shares[0],
                    shares[1]
                );
            }
        );
    }

    #[test]
    fn scatter_is_stable_and_bounded() {
        assert_eq!(scatter(5, 100, 1), scatter(5, 100, 1));
        for rank in 0..1000 {
            assert!(scatter(rank, 777, 3) < 777);
        }
        // Adjacent ranks land far apart (spread check, not a strict law).
        let spread = (0..100)
            .filter(|&r| scatter(r, 1 << 40, 0).abs_diff(scatter(r + 1, 1 << 40, 0)) > 1 << 20)
            .count();
        assert!(spread > 90);
    }
}
