//! Ablation benchmarks: the Fig. 7 MTM variants, the Fig. 9 tau grid and
//! the Fig. 10 alpha sweep (all on small scenarios).

use mtm_bench::{bench_opts, Bench};
use mtm_harness::runs::RunSpec;

fn main() {
    let mut b = Bench::new("ablation");

    let opts = bench_opts();
    for variant in ["MTM", "MTM:w/o-AMR", "MTM:w/o-APS", "MTM:w/o-OC", "MTM:w/o-PEBS", "MTM:w/o-async"] {
        let label = format!("fig7/{}", variant.replace(':', "_"));
        let spec = RunSpec::new(variant, "VoltDB", &opts).expect("known pair");
        b.iter(&label, || spec.run());
    }

    let mut opts = bench_opts();
    opts.intervals = 3;
    b.iter("fig9_tau_grid", || mtm_harness::fig9::measure(&opts));

    b.finish();
}
