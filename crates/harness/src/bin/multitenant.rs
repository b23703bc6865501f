//! Multi-tenant arbitration sweep: N co-scheduled tenants sharing the
//! four-tier machine under a global arbiter (see
//! `mtm_harness::multitenant`). Not part of `bin/all` —
//! `results/ALL.txt` stays a single-tenant artifact.
//!
//! `results/multitenant.txt` is only (re)written when both sweep axes
//! are unrestricted (`MTM_TENANTS`/`MTM_ARBITER` unset), so a filtered
//! smoke run never clobbers the committed full table.

fn main() {
    let opts = mtm_harness::Opts::from_env();
    eprintln!("running with {opts:?} on {} worker(s)", mtm_harness::runpool::jobs());
    let (out, full_shape) = mtm_harness::multitenant::run(&opts);
    println!("{out}");
    if full_shape {
        if let Err(e) = mtm_harness::save_result("multitenant", &out) {
            eprintln!("warning: could not save results/multitenant.txt: {e}");
        }
    }
}
