//! Checkpoint/resume differential tests: stopping a run at an interval
//! boundary, serializing everything, and resuming in fresh objects
//! yields the straight-through run's report and telemetry byte-for-byte.
//!
//! The paper workloads keep no checkpointable state of their own, so the
//! tests record a paper workload under MTM and checkpoint the replay of
//! that trace (as `fault_checkpoint.rs` does). Cassandra (YCSB) is the
//! workload: MTM starts its rows in the slow tier and promotes the
//! zipfian head while the run goes on.

use mtm::{MtmConfig, MtmManager};
use mtm_scenario::trace::{record_run, TraceReplayer};
use mtm_scenario::{restore_checkpoint, save_checkpoint};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, RunReport, ScenarioProgress};
use tiersim::tier::tiny_two_tier;
use tiersim::PAGE_SIZE_2M;

const SCALE: u64 = 1 << 15;
const THREADS: usize = 2;
const INTERVALS: u64 = 10;

/// The machine every run uses, with the `MTM_CHECK` sanitizer armed: each
/// migration and interval boundary re-verifies the machine's books, so a
/// restore that leaves them inconsistent panics the run.
fn machine() -> Machine {
    let mut m = unchecked_machine();
    m.set_checking(true);
    m
}

/// The same machine without the sanitizer, for sweeps that restore
/// thousands of blobs and never step them.
fn unchecked_machine() -> Machine {
    let topo = tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M);
    let mut cfg = MachineConfig::new(topo, THREADS);
    cfg.interval_ns = 0.5e6;
    Machine::new(cfg)
}

fn manager() -> MtmManager {
    MtmManager::new(MtmConfig::default(), 1)
}

fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.telemetry.to_json())
}

/// Records `workload` under MTM for the whole run; returns the live
/// report and the trace.
fn record(workload: &str) -> (RunReport, Vec<u8>) {
    let wl = mtm_workloads::build_paper_workload(workload, SCALE, THREADS).expect("paper workload");
    record_run(&mut machine(), &mut manager(), wl, INTERVALS).expect("MTM run records")
}

fn replayer(trace: &[u8]) -> TraceReplayer {
    TraceReplayer::from_bytes(trace).expect("trace decodes")
}

/// Replays `trace` to interval `stop_at` and checkpoints it.
fn checkpoint_at(trace: &[u8], stop_at: u64) -> Vec<u8> {
    let (mut m, mut mgr, mut wl) = (machine(), manager(), replayer(trace));
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, &mut wl);
    for ivl in 0..stop_at {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    save_checkpoint(&m, &mgr, &wl, &progress, stop_at).expect("checkpointable stack")
}

/// Restores `blob` into fresh objects and runs it to the end; returns
/// the resumed run's report.
fn resume(trace: &[u8], blob: &[u8], stop_at: u64) -> RunReport {
    let (mut m, mut mgr, mut wl) = (machine(), manager(), replayer(trace));
    let (mut progress, next) =
        restore_checkpoint(blob, &mut m, &mut mgr, &mut wl).expect("checkpoint restores");
    assert_eq!(next, stop_at);
    for ivl in next..INTERVALS {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    progress.finish(&mut m, &mut mgr, &mut wl)
}

#[test]
fn resume_matches_straight_through_byte_for_byte() {
    let (live, trace) = record("Cassandra");
    assert!(live.telemetry.registry.counter(obs::names::PROMOTIONS) > 0, "MTM must migrate");
    let straight = run_scenario(&mut machine(), &mut manager(), &mut replayer(&trace), INTERVALS);
    let want = fingerprint(&straight);
    assert_eq!(want, fingerprint(&live), "replay diverged from the live run");
    // Resume at an early, the middle and a late boundary, each checked by
    // the sanitizer: the report and its telemetry JSON must be
    // byte-identical each time.
    for stop_at in [2, INTERVALS / 2, INTERVALS - 1] {
        let resumed = resume(&trace, &checkpoint_at(&trace, stop_at), stop_at);
        assert_eq!(fingerprint(&resumed), want, "resume at interval {stop_at} diverged");
    }
}

#[test]
fn double_checkpoint_chain_still_matches() {
    // save -> resume -> save again -> resume again: checkpoints compose.
    let (live, trace) = record("Cassandra");
    let first = checkpoint_at(&trace, 3);

    let (mut m, mut mgr, mut wl) = (machine(), manager(), replayer(&trace));
    let (mut progress, next) =
        restore_checkpoint(&first, &mut m, &mut mgr, &mut wl).expect("first restore");
    for ivl in next..7 {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    let second = save_checkpoint(&m, &mgr, &wl, &progress, 7).expect("second checkpoint");

    assert_eq!(fingerprint(&resume(&trace, &second, 7)), fingerprint(&live));
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
fn baselines_without_checkpoint_support_refuse_cleanly() {
    // Every baseline but Memory Mode (`hmc`, see
    // `memory_mode_checkpoint.rs`) keeps the default `save_state`. Saving
    // one must fail with an error naming it, and feeding one bytes must
    // be an `Err`, never a panic.
    let (_, trace) = record("Cassandra");
    let budget = MtmConfig::default().promote_bytes;
    let garbage: [&[u8]; 3] = [&[], &[0xFF; 7], b"MTMCKPT1 is not a manager blob"];
    for name in
        ["first-touch", "vanilla-autonuma", "autonuma", "autotiering", "hemem", "thermostat"]
    {
        let build = || mtm_baselines::build_baseline(name, budget).expect("known baseline");
        let mut mgr = build();
        let (mut m, mut wl) = (machine(), replayer(&trace));
        let mut progress = ScenarioProgress::start(&mut m, mgr.as_mut(), &mut wl);
        progress.step_interval(&mut m, mgr.as_mut(), &mut wl, 0);
        let Err(err) = save_checkpoint(&m, mgr.as_ref(), &wl, &progress, 1) else {
            panic!("{name} has no save_state but checkpointed")
        };
        assert!(err.contains(&format!("manager {:?}", mgr.name())), "{name}: {err}");
        for bytes in garbage {
            let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                build().load_state(bytes)
            }));
            let err = loaded.unwrap_or_else(|_| panic!("{name}: load_state panicked"));
            assert!(err.is_err(), "{name} accepted {} garbage bytes", bytes.len());
        }
    }
}

#[test]
fn restore_rejects_mismatched_workload_and_manager() {
    let (_, trace) = record("Cassandra");
    let blob = checkpoint_at(&trace, 1);

    let (_, other_trace) = record("GUPS");
    let mut other_wl = replayer(&other_trace);
    let Err(err) = restore_checkpoint(&blob, &mut machine(), &mut manager(), &mut other_wl) else {
        panic!("mismatched workload accepted")
    };
    assert!(err.contains("workload"), "unexpected error: {err}");

    let mut cfg = MtmConfig::default();
    cfg.pebs_assist = false;
    let mut other_mgr = MtmManager::new(cfg, 1);
    let Err(err) = restore_checkpoint(&blob, &mut machine(), &mut other_mgr, &mut replayer(&trace))
    else {
        panic!("mismatched manager accepted")
    };
    assert!(err.contains("manager"), "unexpected error: {err}");
}

#[test]
fn corrupted_checkpoints_are_rejected_without_panicking() {
    let (_, trace) = record("Cassandra");
    let blob = checkpoint_at(&trace, 4);
    // Flip bits 0, 3 and 7 of every byte in turn. A restore may accept a
    // flip it cannot tell from real state (a counter, a float), but it
    // must never panic. Machine and manager are rebuilt for every
    // restore. The replayer is decoded once, because decoding dominates
    // the sweep; that is sound because `TraceReplayer::load_state`
    // overwrites its cursor and op count without reading them.
    let mut panics = Vec::new();
    let mut wl = replayer(&trace);
    for at in 0..blob.len() {
        for bit in [0, 3, 7] {
            let mut bad = blob.clone();
            bad[at] ^= 1 << bit;
            let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                restore_checkpoint(&bad, &mut unchecked_machine(), &mut manager(), &mut wl)
                    .map(|_| ())
            }));
            if restored.is_err() {
                panics.push((at, bit));
            }
        }
    }
    assert!(panics.is_empty(), "{} of {} flips panicked: {panics:?}", panics.len(), 3 * blob.len());
}
