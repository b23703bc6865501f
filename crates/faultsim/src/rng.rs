//! The workspace's one SplitMix64 generator.
//!
//! `faultsim` is the lowest crate in the workspace graph, so the
//! generator lives here and `tiersim::rng` re-exports it for everything
//! above. SplitMix64 is small, fast and deterministic: a fault schedule
//! is fully described by `(plan, seed)`, and policies and workloads see
//! identical streams run to run — nothing about the host, thread or
//! build enters them.

/// The SplitMix64 increment (the golden-ratio "Weyl" constant).
const GAMMA: u64 = 0x9e3779b97f4a7c15;

/// A SplitMix64 generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed.wrapping_add(GAMMA) }
    }

    /// Jumps ahead: returns a generator whose next draw equals draw `k`
    /// (0-based) of `SplitMix64::new(seed)`. SplitMix64 is counter-based —
    /// draw `k` is `mix(seed + (k + 2)·γ)` — so any stream position is
    /// reachable in O(1), which lets independent workers generate disjoint
    /// slices of one stream.
    #[inline]
    pub fn at(seed: u64, k: u64) -> SplitMix64 {
        SplitMix64 { state: seed.wrapping_add(k.wrapping_add(1).wrapping_mul(GAMMA)) }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift range reduction: bias is negligible for
        // workload-generation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Approximately standard-normal value (sum of 12 uniforms).
    pub fn gaussian(&mut self) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += self.unit_f64();
        }
        s - 6.0
    }

    /// Picks `k` distinct indices out of `[0, n)` (reservoir style);
    /// returns all of them when `k >= n`.
    pub fn sample_indices(&mut self, n: u64, k: usize) -> Vec<u64> {
        if k as u64 >= n {
            return (0..n).collect();
        }
        let mut out: Vec<u64> = (0..k as u64).collect();
        for i in k as u64..n {
            let j = self.below(i + 1);
            if (j as usize) < k {
                out[j as usize] = i;
            }
        }
        out
    }
}

/// Derives a per-run seed from a base seed and a label (manager, fault
/// level, ...), so a sweep can give every run its own reproducible stream
/// regardless of the order runs execute in.
pub fn derive_seed(base: u64, label: &str) -> u64 {
    // FNV-1a over the label folded into a SplitMix64 scramble: cheap,
    // stable, and label order independent.
    let mut h = 0xcbf29ce484222325u64 ^ base;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    SplitMix64::new(h).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..256 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn jump_ahead_matches_sequential_draws() {
        for seed in [0, 1, 0x6EA4, u64::MAX] {
            let mut seq = SplitMix64::new(seed);
            let mut drawn = 0u64;
            for k in [0, 1, 2, 1000, (1 << 20) + 7] {
                while drawn < k {
                    seq.next_u64();
                    drawn += 1;
                }
                let mut jumped = SplitMix64::at(seed, k);
                let mut probe = seq.clone();
                for _ in 0..4 {
                    assert_eq!(jumped.next_u64(), probe.next_u64(), "seed={seed} k={k}");
                }
            }
        }
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SplitMix64::new(4);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let set: std::collections::BTreeSet<_> = s.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_saturates() {
        let mut r = SplitMix64::new(4);
        let s = r.sample_indices(5, 10);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn derived_seeds_differ_by_label_and_base() {
        assert_eq!(derive_seed(7, "MTM/heavy"), derive_seed(7, "MTM/heavy"));
        assert_ne!(derive_seed(7, "MTM/heavy"), derive_seed(7, "MTM/light"));
        assert_ne!(derive_seed(7, "MTM/heavy"), derive_seed(8, "MTM/heavy"));
    }
}
