//! Overall-evaluation benchmarks: one scenario run per manager on GUPS
//! (the Fig. 4 / Fig. 5 / Tables 3-6 machinery) plus the MTM runs across
//! the remaining Table 2 workloads.

use mtm_bench::{bench_opts, Bench};
use mtm_harness::runs::RunSpec;

fn main() {
    let mut b = Bench::new("overall");
    let opts = bench_opts();

    for mgr in ["first-touch", "hmc", "autonuma", "autotiering", "hemem", "MTM"] {
        let spec = RunSpec::new(mgr, "GUPS", &opts).expect("known pair");
        b.iter(&format!("fig4_gups/{mgr}"), || spec.run());
    }

    for wl in ["VoltDB", "Cassandra", "BFS", "SSSP", "Spark"] {
        let spec = RunSpec::new("MTM", wl, &opts).expect("known pair");
        b.iter(&format!("fig4_mtm/{wl}"), || spec.run());
    }

    b.finish();
}
