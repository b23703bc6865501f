//! The fault-plan DSL: what to inject, how often, and when.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (the harness takes
//! it from the `MTM_FAULTS` environment variable) of comma-separated
//! clauses:
//!
//! ```text
//! busy=0.2            fail a migration attempt with PageBusy, p = 0.2
//! allocfail=0.1       fail a migration attempt with TransientAllocFail
//! droppebs=0.5        drop each drained PEBS sample with p = 0.5
//! drophint=0.5        drop each drained hint-fault record with p = 0.5
//! bw=0.25@3..9        scale copy bandwidth by 0.25 during intervals [3, 9)
//! bw=0.5              scale copy bandwidth by 0.5 for the whole run
//! ```
//!
//! Example: `MTM_FAULTS="busy=0.2,allocfail=0.05,bw=0.25@3..9"`.
//!
//! Probabilities are clamped to `[0, 1]`; bandwidth factors to
//! `[0.01, 1]` (a zero factor would make copies take forever and hang a
//! run, which is a different experiment). An empty spec parses to the
//! disabled plan.

/// One bandwidth-degradation window: copy bandwidth between components is
/// multiplied by `factor` while the machine is inside interval
/// `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BwWindow {
    /// Multiplier applied to copy bandwidth (clamped to `[0.01, 1]`).
    pub factor: f64,
    /// First profiling interval the window covers.
    pub from: u64,
    /// First profiling interval after the window (`u64::MAX` = open).
    pub until: u64,
}

/// A complete fault plan. The default plan injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability a migration attempt fails with `PageBusy`.
    pub page_busy: f64,
    /// Probability a migration attempt fails with `TransientAllocFail`.
    pub alloc_fail: f64,
    /// Probability each drained PEBS sample is lost.
    pub drop_pebs: f64,
    /// Probability each drained hint-fault record is lost.
    pub drop_hint: f64,
    /// Bandwidth-degradation windows (may overlap; factors multiply).
    pub bw_windows: Vec<BwWindow>,
}

/// Base injection seed used when none is configured.
pub const DEFAULT_SEED: u64 = 0x4d54_4d00; // "MTM\0"

fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

fn parse_prob(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 =
        value.parse().map_err(|_| format!("fault clause {key}={value:?}: not a number"))?;
    if !p.is_finite() || p < 0.0 {
        return Err(format!("fault clause {key}={value:?}: probability must be >= 0"));
    }
    Ok(clamp01(p))
}

impl FaultPlan {
    /// Parses a spec string; the empty (or all-whitespace) spec is the
    /// disabled plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?}: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "busy" => plan.page_busy = parse_prob(key, value)?,
                "allocfail" => plan.alloc_fail = parse_prob(key, value)?,
                "droppebs" => plan.drop_pebs = parse_prob(key, value)?,
                "drophint" => plan.drop_hint = parse_prob(key, value)?,
                "bw" => plan.bw_windows.push(parse_bw(value)?),
                _ => {
                    return Err(format!(
                        "fault clause {clause:?}: unknown key {key:?} \
                         (expected busy, allocfail, droppebs, drophint or bw)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// True when this plan can never inject anything.
    pub fn is_disabled(&self) -> bool {
        self.page_busy == 0.0
            && self.alloc_fail == 0.0
            && self.drop_pebs == 0.0
            && self.drop_hint == 0.0
            && self.bw_windows.is_empty()
    }

    /// The combined bandwidth factor at profiling interval `interval`
    /// (overlapping windows multiply; 1.0 outside every window).
    pub fn bw_factor(&self, interval: u64) -> f64 {
        let mut f = 1.0;
        for w in &self.bw_windows {
            if interval >= w.from && interval < w.until {
                f *= w.factor;
            }
        }
        f.max(0.01)
    }
}

fn parse_bw(value: &str) -> Result<BwWindow, String> {
    let (factor_str, window) = match value.split_once('@') {
        Some((f, w)) => (f.trim(), Some(w.trim())),
        None => (value, None),
    };
    let factor: f64 =
        factor_str.parse().map_err(|_| format!("fault clause bw={value:?}: not a number"))?;
    if !factor.is_finite() || factor <= 0.0 {
        return Err(format!("fault clause bw={value:?}: factor must be > 0"));
    }
    let factor = factor.clamp(0.01, 1.0);
    let (from, until) = match window {
        None => (0, u64::MAX),
        Some(w) => {
            let (lo, hi) = w
                .split_once("..")
                .ok_or_else(|| format!("fault clause bw={value:?}: window must be from..until"))?;
            let from: u64 = lo
                .trim()
                .parse()
                .map_err(|_| format!("fault clause bw={value:?}: bad window start"))?;
            let until: u64 = if hi.trim().is_empty() {
                u64::MAX
            } else {
                hi.trim()
                    .parse()
                    .map_err(|_| format!("fault clause bw={value:?}: bad window end"))?
            };
            if until <= from {
                return Err(format!("fault clause bw={value:?}: empty window"));
            }
            (from, until)
        }
    };
    Ok(BwWindow { factor, from, until })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_disabled() {
        assert!(FaultPlan::parse("").unwrap().is_disabled());
        assert!(FaultPlan::parse("  , ,").unwrap().is_disabled());
        assert!(FaultPlan::default().is_disabled());
    }

    #[test]
    fn full_spec_round_trips() {
        let p = FaultPlan::parse("busy=0.2, allocfail=0.05, droppebs=0.5, drophint=0.1, bw=0.25@3..9")
            .unwrap();
        assert_eq!(p.page_busy, 0.2);
        assert_eq!(p.alloc_fail, 0.05);
        assert_eq!(p.drop_pebs, 0.5);
        assert_eq!(p.drop_hint, 0.1);
        assert_eq!(p.bw_windows, vec![BwWindow { factor: 0.25, from: 3, until: 9 }]);
        assert!(!p.is_disabled());
    }

    #[test]
    fn probabilities_clamp_to_unit_interval() {
        let p = FaultPlan::parse("busy=7.5").unwrap();
        assert_eq!(p.page_busy, 1.0);
        assert!(FaultPlan::parse("busy=-0.5").is_err());
        assert!(FaultPlan::parse("busy=nanobot").is_err());
    }

    #[test]
    fn bw_windows_parse_and_combine() {
        let p = FaultPlan::parse("bw=0.5,bw=0.5@4..8,bw=0.25@6..").unwrap();
        assert_eq!(p.bw_windows.len(), 3);
        assert_eq!(p.bw_factor(0), 0.5, "whole-run window only");
        assert_eq!(p.bw_factor(4), 0.25, "two windows multiply");
        assert_eq!(p.bw_factor(7), 0.5 * 0.5 * 0.25, "all three overlap");
        assert_eq!(p.bw_factor(100), 0.5 * 0.25, "open window never ends");
        // The factor floor keeps copies finite.
        let p = FaultPlan::parse("bw=0.001").unwrap();
        assert_eq!(p.bw_factor(0), 0.01);
    }

    #[test]
    fn malformed_clauses_are_loud() {
        for bad in ["busy", "busy:0.5", "turbo=1", "bw=0@1..2", "bw=0.5@5..5", "bw=0.5@a..b"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
