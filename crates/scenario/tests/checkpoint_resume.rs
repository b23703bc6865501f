//! Checkpoint/resume differential tests: stopping a run at an interval
//! boundary, serializing everything, and resuming in fresh objects
//! yields the straight-through run's report and telemetry byte-for-byte.

use mtm::{MtmConfig, MtmManager};
use mtm_scenario::{restore_checkpoint, save_checkpoint, Serving, ServingConfig};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, RunReport, ScenarioProgress};
use tiersim::tier::tiny_two_tier;
use tiersim::PAGE_SIZE_2M;

const INTERVALS: u64 = 10;

fn machine() -> Machine {
    let topo = tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M);
    let mut cfg = MachineConfig::new(topo, 2);
    cfg.interval_ns = 0.5e6;
    Machine::new(cfg)
}

fn manager() -> MtmManager {
    MtmManager::new(MtmConfig::default(), 1)
}

fn workload() -> Serving {
    Serving::new(ServingConfig::kv_drift(1 << 14, 2, 3))
}

fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.telemetry.to_json())
}

/// Runs to `stop_at`, checkpoints, resumes in fresh objects, and runs to
/// the end; returns the resumed run's report.
fn resumed_report(stop_at: u64) -> RunReport {
    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, &mut wl);
    for ivl in 0..stop_at {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    let blob =
        save_checkpoint(&m, &mgr, &wl, &progress, stop_at).expect("checkpointable stack");
    drop((m, mgr, wl, progress));

    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let (mut progress, next) =
        restore_checkpoint(&blob, &mut m, &mut mgr, &mut wl).expect("checkpoint restores");
    assert_eq!(next, stop_at);
    for ivl in next..INTERVALS {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    progress.finish(&mut m, &mut mgr, &mut wl)
}

#[test]
fn resume_matches_straight_through_byte_for_byte() {
    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let straight = run_scenario(&mut m, &mut mgr, &mut wl, INTERVALS);
    let want = fingerprint(&straight);
    // Resume at an early, a mid-drift, and a late boundary: the report
    // and its telemetry JSON must be byte-identical each time.
    for stop_at in [2, 5, 9] {
        let resumed = resumed_report(stop_at);
        assert_eq!(fingerprint(&resumed), want, "resume at interval {stop_at} diverged");
    }
}

#[test]
fn double_checkpoint_chain_still_matches() {
    // save -> resume -> save again -> resume again: checkpoints compose.
    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let want = fingerprint(&run_scenario(&mut m, &mut mgr, &mut wl, INTERVALS));

    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, &mut wl);
    for ivl in 0..3 {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    let first = save_checkpoint(&m, &mgr, &wl, &progress, 3).expect("first checkpoint");

    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let (mut progress, next) =
        restore_checkpoint(&first, &mut m, &mut mgr, &mut wl).expect("first restore");
    for ivl in next..7 {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    let second = save_checkpoint(&m, &mgr, &wl, &progress, 7).expect("second checkpoint");

    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let (mut progress, next) =
        restore_checkpoint(&second, &mut m, &mut mgr, &mut wl).expect("second restore");
    for ivl in next..INTERVALS {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    let out = progress.finish(&mut m, &mut mgr, &mut wl);
    assert_eq!(fingerprint(&out), want);
}

#[test]
fn unsupported_workload_fails_with_clear_error() {
    let mut m = machine();
    let mut mgr = manager();
    let mut wl = mtm_workloads::build_paper_workload("GUPS", 1 << 13, 2).expect("GUPS exists");
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, wl.as_mut());
    progress.step_interval(&mut m, &mut mgr, wl.as_mut(), 0);
    let err = save_checkpoint(&m, &mgr, wl.as_ref(), &progress, 1).unwrap_err();
    assert!(err.contains("workload"), "unexpected error: {err}");
}

#[test]
fn restore_rejects_mismatched_workload_and_manager() {
    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, &mut wl);
    progress.step_interval(&mut m, &mut mgr, &mut wl, 0);
    let blob = save_checkpoint(&m, &mgr, &wl, &progress, 1).expect("checkpointable");

    let mut m2 = machine();
    let mut mgr2 = manager();
    let mut other_wl = Serving::new(ServingConfig::diurnal(1 << 14, 2, 8));
    let Err(err) = restore_checkpoint(&blob, &mut m2, &mut mgr2, &mut other_wl) else {
        panic!("mismatched workload accepted")
    };
    assert!(err.contains("workload"), "unexpected error: {err}");

    let mut cfg = MtmConfig::default();
    cfg.pebs_assist = false;
    let mut other_mgr = MtmManager::new(cfg, 1);
    let mut wl2 = workload();
    let Err(err) = restore_checkpoint(&blob, &mut m2, &mut other_mgr, &mut wl2) else {
        panic!("mismatched manager accepted")
    };
    assert!(err.contains("manager"), "unexpected error: {err}");
}

#[test]
fn corrupted_checkpoints_are_rejected_without_panicking() {
    let mut m = machine();
    let mut mgr = manager();
    let mut wl = workload();
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, &mut wl);
    for ivl in 0..4 {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    let blob = save_checkpoint(&m, &mgr, &wl, &progress, 4).expect("checkpointable stack");
    // Flip bits 0, 3 and 7 of every byte in turn. A restore may accept a
    // flip it cannot tell from real state (a counter, a float), but it
    // must never panic. Machine and manager are rebuilt for every
    // restore. The workload is built once, because its zipfian set-up
    // dominates the sweep; that is sound because `Serving::load_state`
    // overwrites its state without reading it.
    let mut panics = Vec::new();
    let mut wl = workload();
    for at in 0..blob.len() {
        for bit in [0, 3, 7] {
            let mut bad = blob.clone();
            bad[at] ^= 1 << bit;
            let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                restore_checkpoint(&bad, &mut machine(), &mut manager(), &mut wl).map(|_| ())
            }));
            if restored.is_err() {
                panics.push((at, bit));
            }
        }
    }
    assert!(panics.is_empty(), "{} of {} flips panicked: {panics:?}", panics.len(), 3 * blob.len());
}
