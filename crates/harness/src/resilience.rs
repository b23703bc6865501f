//! Robustness sweep: every manager under increasing fault intensity.
//!
//! For each of the eight managers the sweep runs GUPS healthy and under
//! three fault levels (`light`, `medium`, `heavy` — see [`level_spec`]),
//! then reports per run: slowdown versus the same manager's healthy run,
//! injections that actually fired, how the resilience machinery responded
//! (retries, transactional aborts, sync→async deferrals, transient
//! drops), and how many intervals the run needed to recover after the
//! bandwidth-degradation window closed.
//!
//! Every run draws its schedule from a label-derived SplitMix64 stream
//! seeded off `MTM_FAULT_SEED`, so the whole table is byte-identical for
//! any `MTM_JOBS` value. Each cell's [`RunSpec`] carries its level's
//! plan in place of `MTM_FAULTS` (the levels are the experiment).

use crate::opts::Opts;
use crate::runs::{RunSpec, OVERALL_MANAGERS};
use crate::tablefmt::{f, TextTable};
use tiersim::sim::RunReport;

/// The eight managers of the robustness sweep: the overall-evaluation
/// seven plus Thermostat.
pub const RESILIENCE_MANAGERS: [&str; 8] = [
    OVERALL_MANAGERS[0],
    OVERALL_MANAGERS[1],
    OVERALL_MANAGERS[2],
    OVERALL_MANAGERS[3],
    OVERALL_MANAGERS[4],
    OVERALL_MANAGERS[5],
    OVERALL_MANAGERS[6],
    "thermostat",
];

/// Fault levels, mild to severe. `healthy` is the reference run.
pub const LEVELS: [&str; 4] = ["healthy", "light", "medium", "heavy"];

/// The workload the sweep stresses (GUPS: uniformly hot, migration-heavy,
/// the workload most sensitive to lost migrations).
pub const WORKLOAD: &str = "GUPS";

/// The bandwidth-degradation window for a run of `intervals` intervals:
/// the middle third, so every run has a pre-fault warmup and a
/// post-fault recovery phase. The window is clamped to the run — the
/// unclamped `(2*intervals/3).max(a+1)` exceeds `intervals` for tiny
/// interval counts, yielding a window that never closes and a recovery
/// column measured from beyond the end of the run.
pub fn bw_window(intervals: u64) -> (u64, u64) {
    let a = (intervals / 3).max(1);
    let b = (2 * intervals / 3).max(a + 1).min(intervals);
    (a.min(b.saturating_sub(1)), b)
}

/// The `MTM_FAULTS`-grammar spec of one level, or `None` for `healthy`.
/// Panics on an unknown level name.
pub fn level_spec(level: &str, intervals: u64) -> Option<String> {
    let (a, b) = bw_window(intervals);
    match level {
        "healthy" => None,
        "light" => Some("busy=0.05,allocfail=0.02,droppebs=0.05,drophint=0.05".into()),
        "medium" => {
            Some(format!("busy=0.2,allocfail=0.1,droppebs=0.25,drophint=0.25,bw=0.5@{a}..{b}"))
        }
        "heavy" => {
            Some(format!("busy=0.5,allocfail=0.25,droppebs=0.5,drophint=0.5,bw=0.25@{a}..{b}"))
        }
        _ => panic!("unknown fault level {level:?}"),
    }
}

/// Runs one sweep cell. Public so tests can replay a single cell and
/// compare against the table.
pub fn run_cell(manager: &str, level: &str, opts: &Opts, base_seed: u64) -> RunReport {
    let mut run = RunSpec::new(manager, WORKLOAD, opts)
        .unwrap_or_else(|| panic!("unknown manager {manager:?}"));
    run.faults = level_spec(level, opts.intervals).map(|spec| {
        let plan = faultsim::FaultPlan::parse(&spec).expect("built-in level specs parse");
        (plan, faultsim::derive_seed(base_seed, &format!("{manager}/{level}")))
    });
    run.run()
}

/// How a run's wall time behaved after the bandwidth window closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recovery {
    /// Back within 10% of the healthy mean this many intervals after the
    /// window closed.
    After(u64),
    /// Observed past the window but never returned to healthy.
    Never,
    /// Nothing to judge: the run recorded no intervals past the window
    /// (tiny `MTM_QUICK` runs) or the healthy reference recorded none at
    /// all. Reported as `n/a`, not as a bogus `never`.
    NotObservable,
}

/// Intervals until the wall time per interval returns to within 10% of
/// the healthy run's mean, counted from the end of the bandwidth window.
fn recovery_intervals(faulty: &RunReport, healthy: &RunReport, window_end: u64) -> Recovery {
    let walls = &faulty.telemetry.series.wall_ns;
    let healthy_walls = &healthy.telemetry.series.wall_ns;
    if healthy_walls.is_empty() || window_end as usize >= walls.len() {
        return Recovery::NotObservable;
    }
    let healthy_mean = healthy_walls.iter().sum::<f64>() / healthy_walls.len() as f64;
    walls
        .iter()
        .enumerate()
        .skip(window_end as usize)
        .find(|&(_, &w)| w <= 1.1 * healthy_mean)
        .map_or(Recovery::Never, |(i, _)| Recovery::After(i as u64 - window_end))
}

/// Renders the robustness table.
pub fn run(opts: &Opts) -> String {
    let base_seed = crate::runs::fault_seed();
    let cells: Vec<(usize, usize)> = (0..RESILIENCE_MANAGERS.len())
        .flat_map(|mi| (0..LEVELS.len()).map(move |li| (mi, li)))
        .collect();
    let reports = crate::runpool::map_parallel(cells, |(mi, li)| {
        run_cell(RESILIENCE_MANAGERS[mi], LEVELS[li], opts, base_seed)
    });
    let report = |mi: usize, li: usize| -> &RunReport { &reports[mi * LEVELS.len() + li] };

    let (_, window_end) = bw_window(opts.intervals);
    let mut t = TextTable::new(&[
        "manager", "faults", "ns/op", "slowdown", "injected", "retries", "aborts", "deferrals",
        "dropped", "recovery",
    ]);
    for (mi, &manager) in RESILIENCE_MANAGERS.iter().enumerate() {
        let healthy = report(mi, 0);
        for (li, &level) in LEVELS.iter().enumerate() {
            let r = report(mi, li);
            let reg = &r.telemetry.registry;
            let injected = reg.counter(obs::names::FAULT_PAGE_BUSY)
                + reg.counter(obs::names::FAULT_ALLOC_FAIL)
                + reg.counter(obs::names::FAULT_PEBS_LOST)
                + reg.counter(obs::names::FAULT_HINTS_LOST);
            let slowdown = if li == 0 {
                "1.00x".to_string()
            } else if healthy.ns_per_op().is_finite() && healthy.ns_per_op() > 0.0 {
                format!("{}x", f(r.ns_per_op() / healthy.ns_per_op()))
            } else {
                "n/a".to_string()
            };
            // Recovery only makes sense for levels with a bandwidth
            // window (medium/heavy).
            let recovery = if level_spec(level, opts.intervals)
                .is_some_and(|s| s.contains("bw="))
            {
                match recovery_intervals(r, healthy, window_end) {
                    Recovery::After(n) => format!("{n} iv"),
                    Recovery::Never => "never".to_string(),
                    Recovery::NotObservable => "n/a".to_string(),
                }
            } else {
                "-".to_string()
            };
            t.row(vec![
                manager.to_string(),
                level.to_string(),
                f(r.ns_per_op()),
                slowdown,
                injected.to_string(),
                reg.counter(obs::names::MIGRATION_RETRIES).to_string(),
                reg.counter(obs::names::MIGRATION_ABORTS).to_string(),
                reg.counter(obs::names::MIGRATION_DEFERRALS).to_string(),
                reg.counter(obs::names::MIGRATIONS_DROPPED_TRANSIENT).to_string(),
                recovery,
            ]);
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Robustness under injected faults ({WORKLOAD}, {} intervals, seed {base_seed})\n\n",
        opts.intervals
    ));
    out.push_str(&t.render());
    out.push('\n');
    for &level in &LEVELS[1..] {
        let spec = level_spec(level, opts.intervals).expect("non-healthy levels have a spec");
        out.push_str(&format!("{level:<7} = MTM_FAULTS=\"{spec}\"\n"));
    }
    out.push_str(
        "\nslowdown  vs the same manager's healthy run (ns/op ratio)\n\
         injected  faults that actually fired (busy + alloc + lost samples)\n\
         recovery  intervals after the bandwidth window closes until the\n\
        \u{20}          per-interval wall time is back within 10% of healthy\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bw_window_stays_inside_the_run() {
        for intervals in 1..=200 {
            let (a, b) = bw_window(intervals);
            assert!(a < b, "window non-empty for {intervals} intervals");
            assert!(b <= intervals, "window closes inside the run for {intervals} intervals");
        }
        // Committed goldens pin the default and quick-mode windows.
        assert_eq!(bw_window(120), (40, 80));
        assert_eq!(bw_window(12), (4, 8));
    }
}
