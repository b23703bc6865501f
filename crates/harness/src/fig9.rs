//! Fig. 9: sensitivity to the merge/split thresholds tau_m and tau_s on
//! VoltDB, for num_scans = 3 and 6.

use crate::opts::Opts;
use crate::runs::RunSpec;
use crate::tablefmt::{dur, TextTable};

/// The paper's grid: `(num_scans, tau_m, tau_s)`.
pub const GRID: [(u32, f64, f64); 12] = [
    (3, 0.0, 3.0),
    (3, 1.0, 1.0),
    (3, 1.0, 2.0),
    (3, 2.0, 0.0),
    (3, 2.0, 1.0),
    (3, 3.0, 0.0),
    (6, 0.0, 6.0),
    (6, 2.0, 2.0),
    (6, 2.0, 4.0),
    (6, 4.0, 0.0),
    (6, 4.0, 2.0),
    (6, 6.0, 0.0),
];

/// Runs the grid (independent runs, in parallel on the worker pool);
/// returns `(num_scans, tau_m, tau_s, total_ns)` in grid order.
pub fn measure(opts: &Opts) -> Vec<(u32, f64, f64, f64)> {
    crate::runpool::map_parallel(GRID.to_vec(), |(scans, tau_m, tau_s)| {
        let mut spec = RunSpec::new("MTM", "VoltDB", opts).expect("MTM/VoltDB exists");
        let cfg = spec.mtm_mut();
        cfg.num_scans = scans;
        cfg.tau_m = tau_m;
        cfg.tau_s = tau_s;
        (scans, tau_m, tau_s, spec.run().ns_per_op_steady() * 1e6)
    })
}

/// Renders Fig. 9.
pub fn run(opts: &Opts) -> String {
    let rows = measure(opts);
    let mut table = TextTable::new(&["num_scans", "(tau_m, tau_s)", "time per 1M txns"]);
    let mut best: Option<(f64, String)> = None;
    for (scans, tm, ts, total) in &rows {
        let label = format!("({tm:.0}, {ts:.0})");
        if best.as_ref().map(|(b, _)| total < b).unwrap_or(true) {
            best = Some((*total, format!("num_scans={scans} {label}")));
        }
        table.row(vec![scans.to_string(), label, dur(*total)]);
    }
    format!(
        "Fig. 9 — Sensitivity to tau_m and tau_s (VoltDB)\n\n{}\nbest configuration: {}\n(paper: tau_m=1, tau_s=2 best for num_scans=3 — the defaults)\n",
        table.render(),
        best.map(|(_, l)| l).unwrap_or_default()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_and_reports() {
        let mut o = Opts::quick();
        o.scale = 1 << 13;
        o.intervals = 3;
        o.threads = 2;
        let rows = measure(&o);
        assert_eq!(rows.len(), GRID.len());
        assert!(rows.iter().all(|&(_, _, _, t)| t > 0.0));
    }
}
