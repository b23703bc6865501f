//! Diagnostic: run one (manager, workload) pair and dump details.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mgr = args.get(1).cloned().unwrap_or_else(|| "MTM".into());
    let wl = args.get(2).cloned().unwrap_or_else(|| "GUPS".into());
    let opts = mtm_harness::Opts::from_env();
    let r = mtm_harness::runs::RunSpec::new(&mgr, &wl, &opts)
        .unwrap_or_else(|| panic!("unknown manager {mgr:?} or workload {wl:?}"))
        .run();
    println!("manager={} workload={} total={:.3}ms", r.manager, r.workload, r.total_ns / 1e6);
    println!("breakdown app={:.3}ms prof={:.3}ms mig={:.3}ms",
        r.breakdown.app_ns / 1e6, r.breakdown.profiling_ns / 1e6, r.breakdown.migration_ns / 1e6);
    println!("residency={:?}", r.residency.iter().map(|b| b >> 20).collect::<Vec<_>>());
    println!("counts={:?}", r.component_counts);
    println!("stats={:?}", r.machine);
    println!("ops={} ops/s={:.0} ns/op={:.1} steady_ns/op={:.1}", r.ops_completed, r.ops_per_second(), r.ns_per_op(), r.ns_per_op_steady());
    let (sb, sops) = r.steady();
    println!("steady: app={:.2}ms prof={:.2}ms mig={:.2}ms ops={} app_ns/op={:.1}",
        sb.app_ns/1e6, sb.profiling_ns/1e6, sb.migration_ns/1e6, sops, sb.app_ns/sops.max(1) as f64);
    println!("hot_bytes={}MB meta={}KB", r.hot_bytes_identified >> 20, r.metadata_bytes >> 10);
    if let Some(rs) = r.region_stats { println!("regions: {rs:?}"); }
    // Window trend: fast-tier share over intervals.
    let n = r.window_counts.len();
    for i in [0, n/4, n/2, 3*n/4, n-1] {
        let w = &r.window_counts[i];
        let total: u64 = w.iter().map(|c| c.total()).sum();
        let fast = w[0].total();
        println!("ivl {i}: fast share {:.2} (total {total}) wall={:.2}ms", fast as f64 / total.max(1) as f64, r.interval_ns[i]/1e6);
    }
}
