//! Fig. 10: sensitivity to the EMA weight alpha (Eq. 2), all six
//! workloads, normalized to the default alpha = 1/2.

use crate::opts::Opts;
use crate::runs::{cached_run, RunSpec, WORKLOADS};
use crate::tablefmt::{f, TextTable};

/// The alpha sweep of the paper.
pub const ALPHAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

fn run_one(opts: &Opts, workload: &str, alpha: f64) -> f64 {
    let mut spec = RunSpec::new("MTM", workload, opts).expect("known workload");
    if spec.mtm_mut().alpha == alpha {
        // The default alpha is the plain MTM run the overall matrix
        // already made: fetch it from the run cache.
        return cached_run("MTM", workload, opts).ns_per_op_steady();
    }
    spec.mtm_mut().alpha = alpha;
    spec.run().ns_per_op_steady()
}

/// Renders Fig. 10 (speedup over alpha = 1/2; higher is better).
pub fn run(opts: &Opts) -> String {
    let mut headers = vec!["workload".to_string()];
    headers.extend(ALPHAS.iter().map(|a| format!("alpha={a}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    // The full workload × alpha sweep is independent runs; fan it out on
    // the worker pool, then assemble rows (each alpha is normalized to
    // the same workload's alpha = 1/2 run, which is part of the sweep).
    let mut jobs = Vec::new();
    for wl in WORKLOADS {
        for &a in &ALPHAS {
            jobs.push((wl, a));
        }
    }
    let times = crate::runpool::map_parallel(jobs, |(wl, a)| run_one(opts, wl, a));
    for (w, wl) in WORKLOADS.iter().enumerate() {
        let at = |a: f64| {
            let i = ALPHAS.iter().position(|&x| (x - a).abs() < 1e-9).expect("alpha in sweep");
            times[w * ALPHAS.len() + i]
        };
        let base = at(0.5);
        let mut row = vec![wl.to_string()];
        for &a in &ALPHAS {
            row.push(f(base / at(a)));
        }
        table.row(row);
    }
    format!(
        "Fig. 10 — Performance when changing alpha (speedup vs alpha=1/2; >1 means faster than default)\n\n{}\n(paper: using both current and historical profiling results helps most workloads)\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_sweep_single_workload() {
        let mut o = Opts::quick();
        o.scale = 1 << 13;
        o.intervals = 3;
        o.threads = 2;
        let t_default = run_one(&o, "GUPS", 0.5);
        let t_zero = run_one(&o, "GUPS", 0.0);
        assert!(t_default > 0.0 && t_zero > 0.0);
    }
}
