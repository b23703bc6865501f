//! Diagnostic: run MTM on a workload and dump internal policy state.
//!
//! Usage: `debug_mtm [workload] [--all]` (default `GUPS`); `--all` also
//! dumps every region with its residency at the end.

use tiersim::sim::ScenarioProgress;
use tiersim::tier::optane_four_tier;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dump_all = args.iter().any(|a| a == "--all");
    let wl_name = args.iter().find(|a| *a != "--all").cloned().unwrap_or_else(|| "GUPS".into());
    let opts = mtm_harness::Opts::from_env();
    let topo = optane_four_tier(opts.scale);
    let mut machine = mtm_harness::runs::healthy_machine_for("MTM", &opts, topo.clone());
    let mut mgr = mtm::MtmManager::new(mtm_harness::runs::mtm_config(&opts), topo.nodes as usize);
    let mut wl = mtm_workloads::build_paper_workload(&wl_name, opts.scale, opts.threads).unwrap();
    let mut progress = ScenarioProgress::start(&mut machine, &mut mgr, wl.as_mut());
    let mut last_mig = 0.0;
    for ivl in 0..opts.intervals {
        progress.step_interval(&mut machine, &mut mgr, wl.as_mut(), ivl);
        let mig = machine.breakdown().migration_ns;
        if ivl % 8 == 0 { println!("   mig this ivl: {:.3}ms (cum {:.1}ms)", (mig-last_mig)/1e6, mig/1e6); }
        last_mig = mig;
        if ivl % 8 == 0 || ivl == opts.intervals - 1 {
            let p = mgr.policy_totals();
            let ms = mgr.migration_stats();
            let regions = mgr.profiler().regions();
            let nhot = regions.iter().filter(|r| r.whi >= 1.5).count();
            println!(
                "ivl {ivl}: regions={} hot_regions={} promoted={} ({}MB) demoted={} ({}MB) async_clean={} switched={} dropped={}(ns={} em={}) resid={:?}",
                regions.len(), nhot, p.promoted, p.promoted_bytes >> 20, p.demoted,
                p.demoted_bytes >> 20, ms.async_clean, ms.switched_sync, ms.dropped, ms.dropped_nospace, ms.dropped_empty,
                machine.residency().iter().map(|b| b >> 20).collect::<Vec<_>>()
            );
        }
    }
    // Dump every region with residency at the end.
    if dump_all {
        for r in mgr.profiler().regions() {
            let comp = mtm::residency::majority_component(&machine, r.range);
            println!(
                "ALL {:?} len={}MB whi={:.2} comp={:?} home={} quota={}",
                r.range, r.len() >> 20, r.whi, comp, r.home_node, r.quota
            );
        }
    }
    // Dump the hottest 12 regions.
    let mut idx: Vec<usize> = (0..mgr.profiler().regions().len()).collect();
    idx.sort_by(|&a, &b| mgr.profiler().regions()[b].whi.partial_cmp(&mgr.profiler().regions()[a].whi).unwrap());
    for &i in idx.iter().take(12) {
        let r = &mgr.profiler().regions()[i];
        println!("region {:?} len={}MB whi={:.2} hi={:.2} quota={} node={}",
            r.range, r.len() >> 20, r.whi, r.hi, r.quota, r.dominant_node());
    }
}
