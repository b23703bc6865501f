//! Scenario sweep: serving-style traffic generators (hot-set drift,
//! diurnal load, flash crowds) and tenant churn under global
//! arbitration, with phase-transition metrics and an always-on
//! checkpoint/resume differential (see `mtm_harness::scenarios`). Not
//! part of `bin/all` — `results/ALL.txt` stays a batch-workload
//! artifact.
//!
//! `results/scenarios.txt` is only (re)written when the sweep shape is
//! unrestricted (`MTM_SCENARIO_SET`/`MTM_SCENARIO_INTERVALS` unset), so
//! a filtered smoke run never clobbers the committed full table.

fn main() {
    let opts = mtm_harness::Opts::from_env();
    eprintln!("running with {opts:?} on {} worker(s)", mtm_harness::runpool::jobs());
    let (out, full_shape) = mtm_harness::scenarios::run(&opts);
    println!("{out}");
    if full_shape {
        if let Err(e) = mtm_harness::save_result("scenarios", &out) {
            eprintln!("warning: could not save results/scenarios.txt: {e}");
        }
    }
}
