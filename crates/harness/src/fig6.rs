//! Fig. 6: heatmap of memory accesses in GUPS and which hot objects
//! (A: indexes, B: hot-set info, C: the hot set) each profiler detects,
//! DAMON vs MTM, under the same profiling overhead.

use mtm::{MtmConfig, MtmManager};
use mtm_baselines::{Damon, DamonConfig};
use mtm_workloads::{Gups, GupsConfig};
use tiersim::addr::VaRange;
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{drive_interval, MemoryManager, SimEnv};
use tiersim::tier::optane_four_tier;

use crate::metrics::intersection_bytes;
use crate::opts::Opts;
use crate::tablefmt::TextTable;

struct Detection {
    detected: Vec<VaRange>,
    heat: Vec<(tiersim::VirtAddr, u64)>,
}

fn run_profiler<M: MemoryManager>(
    opts: &Opts,
    mut mgr: M,
    probe: impl Fn(&M) -> Vec<VaRange>,
) -> (Detection, Gups) {
    let mut cfg = MachineConfig::new(optane_four_tier(opts.scale), opts.threads);
    cfg.interval_ns = opts.interval_ns;
    cfg.track_heat = true;
    let mut m = Machine::new(cfg);
    let mut gcfg = GupsConfig::paper(opts.scale, opts.threads);
    gcfg.rotate_every = None; // Fig. 6 studies a stable hot set.
    let mut wl = Gups::new(gcfg);
    {
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        tiersim::sim::Workload::setup(&mut wl, &mut env);
    }
    mgr.init(&mut m);
    m.reset_measurement();
    for ivl in 0..opts.intervals {
        drive_interval(&mut m, &mut mgr, &mut wl, ivl);
        mgr.on_interval(&mut m, ivl);
    }
    (Detection { detected: probe(&mgr), heat: m.heat_snapshot() }, wl)
}

fn coverage(detected: &[VaRange], object: VaRange) -> f64 {
    if object.is_empty() {
        return 0.0;
    }
    intersection_bytes(detected, &[object]) as f64 / object.len() as f64
}

/// ASCII heat strip over the GUPS table (for a visual cross-check).
fn heat_strip(heat: &[(tiersim::VirtAddr, u64)], table: VaRange, buckets: usize) -> String {
    let mut acc = vec![0u64; buckets];
    for &(va, n) in heat {
        if table.contains(va) {
            let b = ((va - table.start) as u128 * buckets as u128 / table.len() as u128) as usize;
            acc[b.min(buckets - 1)] += n;
        }
    }
    let max = acc.iter().copied().max().unwrap_or(1).max(1);
    const SHADES: [char; 5] = [' ', '.', ':', 'o', '#'];
    acc.iter()
        .map(|&v| SHADES[((v as u128 * (SHADES.len() - 1) as u128) / max as u128) as usize])
        .collect()
}

/// Renders Fig. 6.
pub fn run(opts: &Opts) -> String {
    // The two profiler runs are independent simulations; run them on the
    // worker pool.
    let jobs: Vec<Box<dyn FnOnce() -> (Detection, Gups) + Send + '_>> = vec![
        Box::new(move || {
            let mut cfg = MtmConfig::default();
            cfg.promote_bytes = 0;
            let scans = cfg.num_scans as f64;
            run_profiler(opts, MtmManager::new(cfg, 2), move |m| {
                m.profiler().hot_ranges_above(scans * 0.5)
            })
        }),
        Box::new(move || {
            let dcfg = DamonConfig::default();
            let thr = ((dcfg.checks_per_interval as f64) * 0.3) as u32;
            run_profiler(opts, Damon::new(dcfg), move |d| d.hot_ranges_above(thr.max(1)))
        }),
    ];
    let mut out = crate::runpool::map_parallel(jobs, |job| job()).into_iter();
    let (mtm, wl) = out.next().expect("MTM run");
    let (damon, _) = out.next().expect("DAMON run");

    let objects =
        [("A (indexes)", wl.index_range()), ("B (hot-set info)", wl.hotinfo_range()), ("C (hot set)", wl.hot_band())];
    let mut table = TextTable::new(&["object", "size", "DAMON coverage", "MTM coverage"]);
    for (name, range) in objects {
        table.row(vec![
            name.to_string(),
            tiersim::addr::fmt_bytes(range.len()),
            format!("{:.0}%", 100.0 * coverage(&damon.detected, range)),
            format!("{:.0}%", 100.0 * coverage(&mtm.detected, range)),
        ]);
    }
    let strip = heat_strip(&mtm.heat, wl.table_range(), 64);
    format!(
        "Fig. 6 — GUPS hot-object detection, DAMON vs MTM (same 5% overhead)\n\n{}\nAccess heat over the GUPS table (64 buckets):\n[{}]\n(paper: MTM finds A, B and C; DAMON finds only A and misses B and C)\n",
        table.render(),
        strip
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtm_covers_hot_band_better_than_damon() {
        let mut o = Opts::quick();
        o.scale = 1 << 13;
        o.intervals = 10;
        o.threads = 2;
        let s = run(&o);
        assert!(s.contains("C (hot set)"));
        assert!(s.contains("Access heat"));
    }
}
