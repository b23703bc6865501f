//! Cross-crate integration tests: every manager on every workload at a
//! tiny scale, with system-level invariants checked on the results.

use mtm_harness::runs::{RunSpec, OVERALL_MANAGERS, WORKLOADS};
use mtm_harness::Opts;
use tiersim::sim::RunReport;
use tiersim::tier::optane_four_tier;

fn tiny_opts() -> Opts {
    let mut o = Opts::quick();
    o.scale = 1 << 13;
    o.intervals = 6;
    o.threads = 2;
    o.interval_ns = 1.0e6;
    o
}

fn run(manager: &str, workload: &str, opts: &Opts) -> RunReport {
    RunSpec::new(manager, workload, opts).expect("known pair").run()
}

#[test]
fn every_manager_runs_every_workload() {
    let opts = tiny_opts();
    for wl in WORKLOADS {
        for mgr in OVERALL_MANAGERS {
            let r = run(mgr, wl, &opts);
            assert!(r.total_ns > 0.0, "{mgr}/{wl}: time advanced");
            assert!(r.ops_completed > 0, "{mgr}/{wl}: work happened");
            assert_eq!(r.interval_ns.len(), opts.intervals as usize, "{mgr}/{wl}");
            // Residency never exceeds capacity and covers the footprint.
            let topo = optane_four_tier(opts.scale);
            let resident: u64 = r.residency.iter().sum();
            assert!(resident >= r.footprint, "{mgr}/{wl}: all pages stay mapped");
            for (c, &bytes) in r.residency.iter().enumerate() {
                assert!(
                    bytes <= topo.components[c].capacity,
                    "{mgr}/{wl}: component {c} within capacity"
                );
            }
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let opts = tiny_opts();
    let a = run("MTM", "GUPS", &opts);
    let b = run("MTM", "GUPS", &opts);
    assert_eq!(a.ops_completed, b.ops_completed);
    assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits());
    assert_eq!(a.residency, b.residency);
    assert_eq!(a.machine.pages_migrated, b.machine.pages_migrated);
}

#[test]
fn mtm_profiling_respects_overhead_constraint() {
    let opts = tiny_opts();
    for wl in WORKLOADS {
        let r = run("MTM", wl, &opts);
        let budget = opts.intervals as f64 * opts.interval_ns * 0.05;
        assert!(
            r.breakdown.profiling_ns <= budget * 1.5,
            "{wl}: profiling {:.0} within ~1.5x of the 5% budget {:.0}",
            r.breakdown.profiling_ns,
            budget
        );
    }
}

#[test]
fn mtm_promotes_hot_data_on_gups() {
    let mut opts = tiny_opts();
    opts.intervals = 20;
    let r = run("MTM", "GUPS", &opts);
    // The fastest component holds promoted data by the end.
    assert!(r.residency[0] > 0, "fast tier populated: {:?}", r.residency);
    assert!(r.machine.pages_migrated > 0);
    assert!(r.hot_bytes_identified > 0, "profiler classified something hot");
}

#[test]
fn first_touch_never_migrates() {
    let opts = tiny_opts();
    let r = run("first-touch", "Cassandra", &opts);
    assert_eq!(r.machine.pages_migrated, 0);
    assert_eq!(r.breakdown.migration_ns, 0.0);
    assert_eq!(r.breakdown.profiling_ns, 0.0);
}

#[test]
fn hmc_mode_keeps_dram_invisible() {
    let opts = tiny_opts();
    let r = run("hmc", "GUPS", &opts);
    // Memory Mode: nothing is ever *resident* in the DRAM components.
    assert_eq!(r.residency[0], 0);
    assert_eq!(r.residency[1], 0);
    assert!(r.component_counts[2].total() + r.component_counts[3].total() > 0);
}

#[test]
fn managed_systems_report_profiling_activity() {
    let opts = tiny_opts();
    for mgr in ["autonuma", "autotiering", "thermostat", "MTM"] {
        let r = run(mgr, "GUPS", &opts);
        assert!(
            r.breakdown.profiling_ns > 0.0,
            "{mgr} reports profiling time"
        );
    }
}

#[test]
fn mtm_region_stats_consistent() {
    let opts = tiny_opts();
    let r = run("MTM", "VoltDB", &opts);
    let rs = r.region_stats.expect("MTM exposes region stats");
    assert_eq!(rs.intervals, opts.intervals);
    assert!(rs.avg_regions >= 1.0);
    assert!(r.metadata_bytes > 0);
    // Table 5's headline: metadata is a vanishing fraction of the footprint.
    assert!((r.metadata_bytes as f64) < 0.01 * r.footprint as f64);
}

#[test]
fn two_tier_machines_run_mtm_and_hemem() {
    let mut opts = tiny_opts();
    opts.intervals = 4;
    for mgr_name in ["MTM", "hemem"] {
        let mut spec = RunSpec::new(mgr_name, "GUPS", &opts).expect("known pair");
        spec.topology = tiersim::tier::two_tier(opts.scale);
        let r = spec.run();
        assert!(r.ops_completed > 0, "{mgr_name} on two tiers");
    }
}

#[test]
fn workload_access_mix_matches_table2() {
    let opts = tiny_opts();
    // Read-only workloads produce almost no stores after setup; 1:1
    // workloads produce a comparable number.
    let bfs = run("first-touch", "BFS", &opts);
    let stores: u64 = bfs.component_counts.iter().map(|c| c.stores).sum();
    let loads: u64 = bfs.component_counts.iter().map(|c| c.loads).sum();
    // Early traversal marks every vertex visited (one write each), so the
    // short test window shows a milder read dominance than steady state.
    assert!(loads > stores * 3 / 2, "BFS is read-dominated ({loads} loads / {stores} stores)");
    let gups = run("first-touch", "GUPS", &opts);
    let stores: u64 = gups.component_counts.iter().map(|c| c.stores).sum();
    let loads: u64 = gups.component_counts.iter().map(|c| c.loads).sum();
    let ratio = loads as f64 / stores.max(1) as f64;
    assert!((1.0..6.0).contains(&ratio), "GUPS mixes reads and writes (ratio {ratio:.2})");
}
