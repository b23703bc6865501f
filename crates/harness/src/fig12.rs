//! Fig. 12: MTM vs HeMem on a two-tiered machine (one socket: DRAM + PM),
//! GUPS throughput as the working set grows past the fast tier, at 16 and
//! 24 threads.

use mtm_workloads::{Gups, GupsConfig};
use tiersim::sim::run_scenario;
use tiersim::tier::two_tier;

use crate::opts::Opts;
use crate::runs::{build_manager, healthy_machine_for};
use crate::tablefmt::{f, TextTable};

/// Working-set sizes as fractions of fast-memory capacity.
pub const RATIOS: [f64; 5] = [0.5, 0.75, 1.0, 1.25, 1.5];

fn run_one(opts: &Opts, manager: &str, threads: usize, ratio: f64) -> f64 {
    let topo = two_tier(opts.scale);
    let fast = topo.components[0].capacity;
    let opts = Opts { threads, ..*opts };
    let mut machine = healthy_machine_for(manager, &opts, topo.clone());
    let mut gcfg = GupsConfig::paper(opts.scale, threads);
    gcfg.table_bytes = ((fast as f64 * ratio) as u64).max(16 << 20) & !((2 << 20) - 1);
    gcfg.rotate_every = None;
    // Sec. 9.6 runs GUPS at full speed: the stress is aggregate NVM
    // (write) bandwidth under thread scaling plus hot-set tracking.
    gcfg.cpu_ns_per_op = 150.0;
    let mut wl = Gups::new(gcfg);
    let mut mgr = build_manager(manager, &opts, &topo);
    let r = run_scenario(&mut machine, mgr.as_mut(), &mut wl, opts.intervals);
    // Giga-updates per second (scaled measure: updates/s / 1e9).
    r.ops_per_second_steady() / 1e9
}

/// Renders Fig. 12.
pub fn run(opts: &Opts) -> String {
    let mut table = TextTable::new(&[
        "working set / fast mem",
        "HeMem 16t",
        "HeMem 24t",
        "MTM 16t",
        "MTM 24t",
    ]);
    let mut hemem24_drop = (0.0f64, 0.0f64);
    let mut mtm24_drop = (0.0f64, 0.0f64);
    // 4 configurations × 5 ratios, all independent: run on the pool.
    let mut jobs = Vec::new();
    for &ratio in &RATIOS {
        for (mgr, threads) in [("hemem", 16), ("hemem", 24), ("MTM", 16), ("MTM", 24)] {
            jobs.push((mgr, threads, ratio));
        }
    }
    let gups = crate::runpool::map_parallel(jobs, |(mgr, threads, ratio)| {
        run_one(opts, mgr, threads, ratio)
    });
    for (i, &ratio) in RATIOS.iter().enumerate() {
        let [h16, h24, m16, m24] = [gups[i * 4], gups[i * 4 + 1], gups[i * 4 + 2], gups[i * 4 + 3]];
        if (ratio - 0.5).abs() < 1e-9 {
            hemem24_drop.0 = h24;
            mtm24_drop.0 = m24;
        }
        if (ratio - 1.5).abs() < 1e-9 {
            hemem24_drop.1 = h24;
            mtm24_drop.1 = m24;
        }
        table.row(vec![format!("{ratio:.2}"), f(h16), f(h24), f(m16), f(m24)]);
    }
    format!(
        "Fig. 12 — GUPS on two-tiered HM (giga-updates/s, simulated scale; higher is better)\n\n{}\nHeMem 24t retains {:.0}% of its in-DRAM throughput at ratio 1.5; MTM retains {:.0}%\n(paper: HeMem fails to sustain 24-thread performance once the working set exceeds fast memory; MTM sustains it)\n",
        table.render(),
        100.0 * hemem24_drop.1 / hemem24_drop.0.max(1e-12),
        100.0 * mtm24_drop.1 / mtm24_drop.0.max(1e-12),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_set_runs_fast() {
        let mut o = Opts::quick();
        o.scale = 1 << 13;
        o.intervals = 4;
        let g = run_one(&o, "MTM", 4, 0.5);
        assert!(g > 0.0);
    }
}
