//! `MTM_CHECK` behavioural-identity and sweep tests: the sanitizer is
//! read-only, so a checked run must produce a report identical to an
//! unchecked one, and the full manager x workload matrix must pass a
//! checked run with zero invariant violations.

use mtm_harness::opts::Opts;
use mtm_harness::resilience::RESILIENCE_MANAGERS;
use mtm_harness::runs::{RunSpec, WORKLOADS};
use tiersim::sim::{run_scenario, RunReport};

/// Small-but-representative options for the checked sweep: large enough
/// that every manager actually migrates, small enough that 48 uncached
/// runs stay CI-sized.
fn sweep_opts() -> Opts {
    let mut o = Opts::quick();
    o.scale = 8192;
    o.threads = 2;
    o.intervals = 6;
    o.interval_ns = 5.0e5;
    o
}

/// Runs a pair with the shadow-state sanitizer armed for the whole run
/// regardless of `MTM_CHECK`, plus a final consistency sweep after the
/// last interval. Panics on any invariant violation.
fn run_checked(manager: &str, workload: &str, opts: &Opts) -> RunReport {
    let spec = RunSpec::new(manager, workload, opts).expect("known pair");
    let (mut machine, mut mgr, mut wl) = spec.build();
    machine.set_checking(true);
    let report = run_scenario(&mut machine, mgr.as_mut(), wl.as_mut(), opts.intervals);
    machine.verify_consistency("end of run");
    report
}

#[test]
fn checked_run_is_behaviourally_identical() {
    let opts = Opts::quick();
    let checked = run_checked("MTM", "GUPS", &opts);
    let unchecked = RunSpec::new("MTM", "GUPS", &opts).expect("known pair").run();
    // The sanitizer only observes: same simulation, same report, down to
    // every counter and telemetry event.
    assert_eq!(
        format!("{checked:?}"),
        format!("{unchecked:?}"),
        "MTM_CHECK perturbed the simulation"
    );
}

#[test]
fn checked_matrix_passes_all_managers_and_workloads() {
    let opts = sweep_opts();
    std::thread::scope(|scope| {
        for manager in RESILIENCE_MANAGERS {
            scope.spawn(move || {
                for workload in WORKLOADS {
                    // Panics (with the structured MTM_CHECK message) on
                    // any invariant violation mid-run or at the end.
                    let report = run_checked(manager, workload, &opts);
                    assert!(
                        report.ops_completed > 0,
                        "{manager} x {workload}: no work completed"
                    );
                }
            });
        }
    });
}
