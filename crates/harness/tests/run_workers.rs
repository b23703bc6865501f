//! Worker-count determinism for the intra-run packet engine.
//!
//! The interval loop fans its profiling scans and census sweeps out over
//! `MTM_RUN_WORKERS` packet workers with an ordered reduction, so a run
//! must produce bit-identical results for any worker count. These tests
//! pin the worker count programmatically through
//! [`tiersim::machine::Machine::set_run_workers`] instead of the
//! environment variable, so they cannot race with other tests in the
//! same process.

use mtm_harness::runs::RunSpec;
use mtm_harness::Opts;
use tiersim::sim::{run_scenario, RunReport};

/// Tiny but real run options (same shape as the parallel-cache tests).
fn tiny(intervals: u64) -> Opts {
    let mut o = Opts::quick();
    o.scale = 1 << 13;
    o.threads = 2;
    o.intervals = intervals;
    o
}

/// Runs one (manager, workload) pair with a pinned packet worker count,
/// bypassing the run cache (a cache hit would compare a report against
/// itself and prove nothing). `checked` additionally arms the
/// shadow-state sanitizer for the whole run.
fn run_with_workers(
    manager: &str,
    workload: &str,
    opts: &Opts,
    workers: usize,
    checked: bool,
) -> RunReport {
    let spec = RunSpec::new(manager, workload, opts).expect("known pair");
    let (mut machine, mut mgr, mut wl) = spec.build();
    machine.set_run_workers(workers);
    machine.set_checking(checked);
    let report = run_scenario(&mut machine, mgr.as_mut(), wl.as_mut(), opts.intervals);
    if checked {
        machine.verify_consistency("end of run");
    }
    report
}

/// The full report — every f64 (printed round-trippably by `Debug`),
/// every trace, every counter — is identical for 1 and 4 packet workers.
#[test]
fn reports_are_bit_identical_for_one_and_four_workers() {
    let opts = tiny(3);
    for (manager, workload) in [("MTM", "GUPS"), ("hemem", "BFS"), ("autonuma", "SSSP")] {
        let serial = run_with_workers(manager, workload, &opts, 1, false);
        let packet = run_with_workers(manager, workload, &opts, 4, false);
        assert_eq!(
            format!("{serial:?}"),
            format!("{packet:?}"),
            "{manager}/{workload}: 4-worker report differs from serial"
        );
        assert_eq!(
            serial.total_ns.to_bits(),
            packet.total_ns.to_bits(),
            "{manager}/{workload}: total_ns not bit-identical"
        );
    }
}

/// Worker counts that do not divide the packet count evenly (3) and
/// oversubscribed counts (16) still reduce to the same bytes.
#[test]
fn uneven_and_oversubscribed_worker_counts_agree() {
    let opts = tiny(2);
    let baseline = run_with_workers("MTM", "VoltDB", &opts, 1, false);
    for workers in [3usize, 16] {
        let other = run_with_workers("MTM", "VoltDB", &opts, workers, false);
        assert_eq!(
            format!("{baseline:?}"),
            format!("{other:?}"),
            "MTM/VoltDB: {workers}-worker report differs from serial"
        );
    }
}

/// The shadow-state sanitizer (which cross-checks the packed side
/// metadata against the PTE bits after every interval) passes under the
/// parallel scan path, and checking stays read-only: a checked 4-worker
/// run reports the same bytes as a checked serial run.
#[test]
fn sanitizer_passes_and_stays_readonly_under_parallel_scans() {
    let opts = tiny(2);
    let serial = run_with_workers("MTM", "GUPS", &opts, 1, true);
    let packet = run_with_workers("MTM", "GUPS", &opts, 4, true);
    assert_eq!(
        format!("{serial:?}"),
        format!("{packet:?}"),
        "MTM/GUPS: checked 4-worker report differs from checked serial"
    );
}
