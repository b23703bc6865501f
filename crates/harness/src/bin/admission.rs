//! Admission-control sweep: the four `MTM_ADMIT` policies × fault
//! levels (see `mtm_harness::admission`).
//! Not part of `bin/all` — `results/ALL.txt` stays a legacy-pipeline
//! artifact.

fn main() {
    let opts = mtm_harness::Opts::from_env();
    eprintln!("running with {opts:?} on {} worker(s)", mtm_harness::runpool::jobs());
    let out = mtm_harness::admission::run(&opts);
    println!("{out}");
    if let Err(e) = mtm_harness::save_result("admission", &out) {
        eprintln!("warning: could not save results/admission.txt: {e}");
    }
}
