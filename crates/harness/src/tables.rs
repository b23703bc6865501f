//! Tables 1, 2, 4 and 6 of the paper.

use mtm::config::InitialPlacement;
use tiersim::sim::ScenarioProgress;
use tiersim::tier::optane_four_tier;

use crate::opts::Opts;
use crate::runs::{build_machine, build_manager, machine_config, RunSpec};
use crate::tablefmt::{f, TextTable};

/// Table 1: the simulated hardware.
pub fn table1(opts: &Opts) -> String {
    let topo = optane_four_tier(opts.scale);
    let mut table =
        TextTable::new(&["tier (node-0 view)", "component", "latency", "bandwidth", "capacity (sim)", "capacity (paper)"]);
    let names = ["Fast Mem Local Access", "Fast Mem Remote Access", "Slow Mem Local Access", "Slow Mem Remote Access"];
    for (rank, name) in names.iter().enumerate() {
        let c = topo.component_at_rank(0, rank);
        let link = topo.link(0, c);
        let comp = &topo.components[c as usize];
        table.row(vec![
            format!("{} ({})", rank + 1, name),
            comp.name.clone(),
            format!("{:.0}ns", link.latency_ns),
            format!("{:.0} GB/s", link.bandwidth_gbps),
            tiersim::addr::fmt_bytes(comp.capacity),
            opts.paper_bytes(comp.capacity),
        ]);
    }
    format!(
        "Table 1 — Hardware overview of the (simulated) Optane system, scale 1/{}\n\n{}",
        opts.scale,
        table.render()
    )
}

/// Table 2: the workload inventory.
pub fn table2(opts: &Opts) -> String {
    let mut table = TextTable::new(&["workload", "description", "mem (paper)", "mem (sim)", "R/W"]);
    for e in mtm_workloads::catalog() {
        table.row(vec![
            e.name.to_string(),
            e.description.to_string(),
            tiersim::addr::fmt_bytes(e.paper_bytes),
            tiersim::addr::fmt_bytes(e.paper_bytes / opts.scale),
            e.rw.to_string(),
        ]);
    }
    format!("Table 2 — Workloads for evaluation\n\n{}", table.render())
}

/// Table 4: GUPS progress under the two initial page placements.
///
/// Reports the virtual time at which GUPS reached each update-count
/// milestone, for MTM's slow-tier-first placement vs first-touch-style
/// fast-first placement.
pub fn table4(opts: &Opts) -> String {
    let milestones = 5;
    let run_one = |placement: InitialPlacement| -> (Vec<f64>, u64) {
        let mut spec = RunSpec::new("MTM", "GUPS", opts).expect("MTM/GUPS exists");
        spec.mtm_mut().initial_placement = placement;
        let (mut machine, mut mgr, mut wl) = spec.build();
        let mut progress = ScenarioProgress::start(&mut machine, mgr.as_mut(), wl.as_mut());
        // Record (ops, time) after each interval.
        let mut trace = Vec::new();
        for ivl in 0..opts.intervals {
            progress.step_interval(&mut machine, mgr.as_mut(), wl.as_mut(), ivl);
            trace.push((wl.ops_completed(), machine.elapsed_ns()));
        }
        let total_ops = trace.last().map(|&(o, _)| o).unwrap_or(0);
        // Time when ops crossed each milestone (linear interpolation).
        let mut times = Vec::new();
        for k in 1..=milestones {
            let target = total_ops * k as u64 / milestones as u64;
            let t = trace
                .iter()
                .find(|&&(ops, _)| ops >= target)
                .map(|&(_, t)| t)
                .unwrap_or(f64::NAN);
            times.push(t);
        }
        (times, total_ops)
    };
    // The two placements are independent runs; use the worker pool.
    let mut results = crate::runpool::map_parallel(
        vec![InitialPlacement::SlowLocalFirst, InitialPlacement::FastLocalFirst],
        |p| run_one(p),
    )
    .into_iter();
    let (slow_times, slow_ops) = results.next().expect("slow-first run");
    let (fast_times, _) = results.next().expect("fast-first run");
    let mut table = TextTable::new(&["updates (fraction of run)", "slow tier first", "first-touch (fast first)", "gap"]);
    for k in 0..milestones {
        let gap = (slow_times[k] - fast_times[k]) / fast_times[k].max(1.0) * 100.0;
        table.row(vec![
            format!("{}/{milestones} ({} ops)", k + 1, slow_ops * (k as u64 + 1) / milestones as u64),
            crate::tablefmt::dur(slow_times[k]),
            crate::tablefmt::dur(fast_times[k]),
            format!("{gap:+.1}%"),
        ]);
    }
    format!(
        "Table 4 — GUPS progress with different initial page placements (MTM managing both)\n\n{}\n(paper: ~4.9% difference early in the run, negligible later as MTM uses all tiers)\n",
        table.render()
    )
}

/// Table 6: per-tier application access counts for VoltDB with all
/// clients on one processor.
pub fn table6(opts: &Opts) -> String {
    const MANAGERS: [&str; 3] = ["autonuma", "autotiering", "MTM"];
    let topo = optane_four_tier(opts.scale);
    let mut table = TextTable::new(&["system", "tier 1", "tier 2", "tier 3", "tier 4"]);
    // The paper pins all eight VoltDB clients to one processor; the tier
    // view below is that processor's. The three managers run in parallel.
    let reports = crate::runpool::map_parallel(MANAGERS.to_vec(), |mgr| {
        let mut machine = build_machine(machine_config(mgr, opts, topo.clone()).pin_all_to(0));
        let mut mgr_box = build_manager(mgr, opts, &topo);
        let mut wl = mtm_workloads::build_paper_workload("VoltDB", opts.scale, opts.threads)
            .expect("VoltDB exists");
        tiersim::sim::run_scenario(&mut machine, mgr_box.as_mut(), wl.as_mut(), opts.intervals)
    });
    for r in reports {
        let mut row = vec![r.manager.clone()];
        for rank in 0..4 {
            let n = r.accesses_at_rank(&topo, 0, rank);
            row.push(if n >= 1_000_000 {
                format!("{}M", f(n as f64 / 1e6))
            } else {
                format!("{}K", f(n as f64 / 1e3))
            });
        }
        table.row(row);
    }
    format!(
        "Table 6 — Application memory accesses per tier, VoltDB (node-0 view; migration traffic excluded)\n\n{}\n(paper: MTM serves 12-14% more accesses from tier 1 than tiered-AutoNUMA/AutoTiering)\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let o = Opts::quick();
        let t1 = table1(&o);
        assert!(t1.contains("90ns") && t1.contains("DRAM0"));
        let t2 = table2(&o);
        assert!(t2.contains("GUPS") && t2.contains("read-only"));
    }

    #[test]
    fn table4_reports_milestones() {
        let mut o = Opts::quick();
        o.scale = 1 << 13;
        o.intervals = 5;
        o.threads = 2;
        let s = table4(&o);
        assert!(s.contains("slow tier first"));
        assert!(s.contains("1/5"));
    }
}
