//! Experiment options: simulation scale and run length.
//!
//! The defaults reproduce the paper's setup scaled down by `scale` (see
//! `DESIGN.md` for the mapping). Environment variables override them:
//! `MTM_QUICK=1` (small, fast runs), `MTM_SCALE`, `MTM_THREADS`,
//! `MTM_INTERVALS`, `MTM_INTERVAL_NS`.

/// Applies one `NAME=value` override to `dst`; on a parse failure leaves
/// `dst` untouched and returns the warning line to print.
fn apply_override<T: std::str::FromStr>(
    name: &str,
    raw: Option<String>,
    dst: &mut T,
) -> Option<String> {
    let raw = raw?;
    match raw.parse() {
        Ok(v) => {
            *dst = v;
            None
        }
        Err(_) => Some(format!(
            "warning: ignoring {name}={raw:?} (not a valid {})",
            std::any::type_name::<T>()
        )),
    }
}

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

    /// Reads options from the environment. Unparsable overrides are
    /// **not** silently ignored: each one prints a `warning:` line on
    /// stderr (and `scripts/verify.sh` fails the smoke run on any such
    /// line), so a typo'd `MTM_SCALE` can't quietly run the wrong
    /// experiment.
    pub fn from_env() -> Opts {
        let mut o = match std::env::var("MTM_QUICK").ok().as_deref() {
            Some("1") => Opts::quick(),
            Some("0") | Some("") | None => Opts::default(),
            Some(other) => {
                eprintln!("warning: ignoring MTM_QUICK={other:?} (expected 0 or 1)");
                Opts::default()
            }
        };
        for w in [
            apply_override("MTM_SCALE", std::env::var("MTM_SCALE").ok(), &mut o.scale),
            apply_override("MTM_THREADS", std::env::var("MTM_THREADS").ok(), &mut o.threads),
            apply_override("MTM_INTERVALS", std::env::var("MTM_INTERVALS").ok(), &mut o.intervals),
            apply_override("MTM_INTERVAL_NS", std::env::var("MTM_INTERVAL_NS").ok(), &mut o.interval_ns),
        ]
        .into_iter()
        .flatten()
        {
            eprintln!("{w}");
        }
        o
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
    fn override_parses_or_warns() {
        let mut scale = 256u64;
        // Unset: untouched, no warning.
        assert_eq!(apply_override("MTM_SCALE", None, &mut scale), None);
        assert_eq!(scale, 256);
        // Valid: applied, no warning.
        assert_eq!(apply_override("MTM_SCALE", Some("64".into()), &mut scale), None);
        assert_eq!(scale, 64);
        // Typo: untouched, loud.
        let w = apply_override("MTM_SCALE", Some("6 4".into()), &mut scale)
            .expect("unparsable override warns");
        assert!(w.starts_with("warning: ignoring MTM_SCALE=\"6 4\""), "{w}");
        assert_eq!(scale, 64);
        // Same machinery for floats.
        let mut ns = 2.0e6f64;
        assert_eq!(apply_override("MTM_INTERVAL_NS", Some("1e6".into()), &mut ns), None);
        assert_eq!(ns, 1.0e6);
        assert!(apply_override("MTM_INTERVAL_NS", Some("fast".into()), &mut ns).is_some());
        assert_eq!(ns, 1.0e6);
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
