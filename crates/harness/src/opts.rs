//! Experiment options: simulation scale and run length.
//!
//! The defaults reproduce the paper's setup scaled down by `scale` (see
//! `DESIGN.md` for the mapping). Environment variables override them
//! (see [`Opts::from_env`]).

/// Options shared by every experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Opts {
    /// Capacity/footprint divisor relative to the paper's hardware.
    pub scale: u64,
    /// Application threads (paper default: 8).
    pub threads: usize,
    /// Profiling intervals per run.
    pub intervals: u64,
    /// Virtual length of one profiling interval in nanoseconds
    /// (simulation-time equivalent of the paper's 10 s interval).
    pub interval_ns: f64,
    /// Quick mode (CI-sized runs).
    pub quick: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts { scale: 256, threads: 8, intervals: 120, interval_ns: 2.0e6, quick: false }
    }
}

impl Opts {
    /// Quick-mode options for CI and tests.
    pub fn quick() -> Opts {
        Opts { scale: 4096, threads: 4, intervals: 12, interval_ns: 1.0e6, quick: true }
    }

    /// The options the environment asks for: `MTM_QUICK=1` picks
    /// [`Opts::quick`], then `MTM_SCALE`, `MTM_THREADS`, `MTM_INTERVALS`
    /// and `MTM_INTERVAL_NS` override single fields. They are read once
    /// per process with the other run knobs, and an unparsable value is
    /// **not** silently ignored: it prints a `warning:` line on stderr
    /// (which `scripts/verify.sh` fails the smoke run on), so a typo'd
    /// `MTM_SCALE` can't quietly run the wrong experiment.
    pub fn from_env() -> Opts {
        crate::runs::env_knobs().opts
    }

    /// The per-interval migration budget every system shares (the paper's
    /// 200 MB per interval, scaled; see `MtmConfig::with_paper_promote_budget`).
    pub fn promote_budget(&self) -> u64 {
        ((200u64 << 20) * 16 / self.scale).max(4 << 21)
    }

    /// Formats a simulated byte count at paper scale (multiplying back).
    pub fn paper_bytes(&self, sim_bytes: u64) -> String {
        tiersim::addr::fmt_bytes(sim_bytes.saturating_mul(self.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_quick_differ() {
        let d = Opts::default();
        let q = Opts::quick();
        assert!(q.scale > d.scale);
        assert!(q.intervals < d.intervals);
        assert_ne!(d, q);
    }

    #[test]
    fn promote_budget_has_floor() {
        let mut o = Opts::default();
        o.scale = 1 << 40;
        assert_eq!(o.promote_budget(), 4 << 21);
        o.scale = 8;
        assert_eq!(o.promote_budget(), 400 << 20);
    }
}
