//! Fig. 6: heatmap of memory accesses in GUPS and which hot objects
//! (A: indexes, B: hot-set info, C: the hot set) each profiler detects,
//! DAMON vs MTM, under the same profiling overhead.

use mtm_workloads::{Gups, GupsConfig};
use tiersim::addr::VaRange;
use tiersim::sim::MemoryManager;
use tiersim::tier::optane_four_tier;

use crate::fig1::{damon_profiler, mtm_profiler, profile};
use crate::metrics::intersection_bytes;
use crate::opts::Opts;
use crate::runs::{build_machine, machine_config};
use crate::tablefmt::TextTable;

struct Detection {
    detected: Vec<VaRange>,
    heat: Vec<(tiersim::VirtAddr, u64)>,
}

fn run_profiler<M: MemoryManager>(
    opts: &Opts,
    (mut mgr, probe): (M, impl Fn(&M) -> Vec<VaRange>),
) -> (Detection, Gups) {
    let mut cfg = machine_config(&mgr.name(), opts, optane_four_tier(opts.scale));
    cfg.track_heat = true;
    let mut m = build_machine(cfg);
    let mut gcfg = GupsConfig::paper(opts.scale, opts.threads);
    gcfg.rotate_every = None; // Fig. 6 studies a stable hot set.
    let mut wl = Gups::new(gcfg);
    profile(opts, &mut m, &mut mgr, &mut wl, |_, _, _| {});
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
        Box::new(move || run_profiler(opts, mtm_profiler())),
        Box::new(move || run_profiler(opts, damon_profiler())),
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
