//! Concurrency and determinism tests for the parallel evaluation-matrix
//! runner: the single-flight run cache and the worker pool.
//!
//! `MTM_JOBS=4` is set (same value) by every test that needs the parallel
//! path, because the test host may expose a single core and the pool
//! would otherwise fall back to serial inline execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use mtm_harness::runpool;
use mtm_harness::runs::{cached_run_traced, prewarm, RunSpec};
use mtm_harness::Opts;

fn force_parallel() {
    std::env::set_var("MTM_JOBS", "4");
}

/// Tiny but real run options with a distinctive key so these tests never
/// collide with cache entries made by other tests in this process.
fn tiny(intervals: u64) -> Opts {
    let mut o = Opts::quick();
    o.scale = 1 << 13;
    o.threads = 2;
    o.intervals = intervals;
    o.interval_ns = 0.5e6 + intervals as f64; // distinctive key component
    o
}

fn spec(manager: &str, workload: &str, opts: &Opts) -> RunSpec {
    RunSpec::new(manager, workload, opts).expect("known pair")
}

#[test]
fn same_key_runs_exactly_once_across_threads() {
    force_parallel();
    let opts = tiny(2);
    let executed = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let executed = executed.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait(); // maximize contention on the one key
                let (report, ran) = cached_run_traced(&spec("first-touch", "GUPS", &opts));
                if ran {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                report
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
    assert_eq!(executed.load(Ordering::Relaxed), 1, "single-flight: one underlying run");
    for r in &reports[1..] {
        assert!(Arc::ptr_eq(&reports[0], r), "every caller gets the same report instance");
    }
    assert!(reports[0].total_ns > 0.0);
}

#[test]
fn distinct_keys_execute_in_parallel_on_the_pool() {
    force_parallel();
    // Both tasks block until the other has started: this only terminates
    // if the pool really runs distinct tasks concurrently.
    let rendezvous = Barrier::new(2);
    let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = (0..2usize)
        .map(|i| {
            let rendezvous = &rendezvous;
            Box::new(move || {
                rendezvous.wait();
                i
            }) as Box<dyn FnOnce() -> usize + Send + '_>
        })
        .collect();
    assert_eq!(runpool::map_parallel(jobs, |job| job()), vec![0, 1]);
}

#[test]
fn parallel_prewarm_is_bit_identical_to_serial_runs() {
    force_parallel();
    let opts = tiny(3);
    let pairs = [("first-touch", "GUPS"), ("MTM", "GUPS"), ("autonuma", "BFS"), ("hemem", "SSSP")];
    // Serial ground truth: direct runs, no cache involved.
    let serial: Vec<String> =
        pairs.iter().map(|&(m, w)| format!("{:?}", spec(m, w, &opts).run())).collect();
    // Parallel: prewarm the matrix on the pool, then read the cache.
    prewarm(&pairs, &opts);
    for (i, &(m, w)) in pairs.iter().enumerate() {
        let (report, ran) = cached_run_traced(&spec(m, w, &opts));
        assert!(!ran, "prewarm already executed {m}/{w}");
        assert_eq!(
            serial[i],
            format!("{:?}", *report),
            "{m}/{w}: parallel report differs from serial"
        );
    }
}

#[test]
fn telemetry_is_deterministic_and_identical_through_the_cache() {
    force_parallel();
    let opts = tiny(4);
    // Two independent executions of the same (manager, workload, opts)
    // serialize to byte-identical telemetry JSON.
    let a = spec("MTM", "GUPS", &opts).run().telemetry.to_json();
    let b = spec("MTM", "GUPS", &opts).run().telemetry.to_json();
    assert_eq!(a, b, "telemetry must be deterministic across runs");
    // The snapshot travels inside the cached report, so the pooled
    // prewarm path (any MTM_JOBS) serves the exact same bytes as the
    // serial direct runs above.
    prewarm(&[("MTM", "GUPS")], &opts);
    let (report, ran) = cached_run_traced(&spec("MTM", "GUPS", &opts));
    assert!(!ran, "prewarm already executed the run");
    assert_eq!(report.telemetry.to_json(), a, "cached telemetry differs from serial");
    // The JSON parses and carries the full schema.
    let json = obs::json::parse(&a).expect("telemetry JSON parses");
    for key in obs::snapshot::REQUIRED_KEYS {
        assert!(json.get(key).is_some(), "missing top-level key {key:?}");
    }
    // An instrumented MTM run on GUPS actually recorded decisions.
    assert!(
        json.get("events").and_then(|e| e.as_arr()).map(|a| a.len()).unwrap_or(0) > 0,
        "MTM/GUPS run recorded no decision events"
    );
}

#[test]
fn prewarm_tolerates_duplicates_and_repeats() {
    force_parallel();
    let opts = tiny(2);
    let pairs =
        [("first-touch", "SSSP"), ("first-touch", "SSSP"), ("first-touch", "SSSP")];
    prewarm(&pairs, &opts);
    prewarm(&pairs, &opts); // all hits, still fine
    let (_, ran) = cached_run_traced(&spec("first-touch", "SSSP", &opts));
    assert!(!ran);
}
