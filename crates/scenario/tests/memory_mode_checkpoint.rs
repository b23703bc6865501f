//! Checkpoints of Memory Mode runs: a run of the `hmc` baseline stopped
//! at an interval boundary and resumed in fresh objects reproduces the
//! straight-through run byte for byte, DRAM-cache tag state included.
//!
//! The paper workloads keep no checkpointable state of their own, so each
//! test records the workload's access stream under Memory Mode and
//! checkpoints the replay of that trace (as `record_replay.rs` does).

use mtm_baselines::hmc::MemoryMode;
use mtm_scenario::trace::{record_run, TraceReplayer};
use mtm_scenario::{restore_checkpoint, save_checkpoint};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, RunReport, ScenarioProgress};
use tiersim::tier::optane_four_tier;

/// The quick options: scale 1/4096, 4 threads, 12 intervals of 1 ms.
const SCALE: u64 = 4096;
const THREADS: usize = 4;
const INTERVALS: u64 = 12;

fn machine() -> Machine {
    let mut cfg = MachineConfig::new(optane_four_tier(SCALE), THREADS);
    cfg.interval_ns = 1.0e6;
    cfg.hmc_mode = true;
    Machine::new(cfg)
}

fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.telemetry.to_json())
}

/// Records `workload` under Memory Mode; returns the live report and the
/// trace.
fn record(workload: &str) -> (RunReport, Vec<u8>) {
    let wl = mtm_workloads::build_paper_workload(workload, SCALE, THREADS).expect("paper workload");
    record_run(&mut machine(), &mut MemoryMode, wl, INTERVALS).expect("Memory Mode run records")
}

/// Replays `trace` to interval `stop_at` and checkpoints it.
fn checkpoint_at(trace: &[u8], stop_at: u64) -> Vec<u8> {
    let mut m = machine();
    let mut wl = TraceReplayer::from_bytes(trace).expect("trace decodes");
    let mut progress = ScenarioProgress::start(&mut m, &mut MemoryMode, &mut wl);
    for ivl in 0..stop_at {
        progress.step_interval(&mut m, &mut MemoryMode, &mut wl, ivl);
    }
    save_checkpoint(&m, &MemoryMode, &wl, &progress, stop_at).expect("Memory Mode checkpoints")
}

/// Restores `blob` into fresh objects and runs it to the end.
fn resume(trace: &[u8], blob: &[u8]) -> RunReport {
    let mut m = machine();
    let mut wl = TraceReplayer::from_bytes(trace).expect("trace decodes");
    let (mut progress, next) =
        restore_checkpoint(blob, &mut m, &mut MemoryMode, &mut wl).expect("checkpoint restores");
    for ivl in next..INTERVALS {
        progress.step_interval(&mut m, &mut MemoryMode, &mut wl, ivl);
    }
    progress.finish(&mut m, &mut MemoryMode, &mut wl)
}

fn check_resume_matches_straight_through(workload: &str) {
    let (live, trace) = record(workload);
    let mut replayer = TraceReplayer::from_bytes(&trace).expect("trace decodes");
    let straight = run_scenario(&mut machine(), &mut MemoryMode, &mut replayer, INTERVALS);
    let want = fingerprint(&straight);
    assert_eq!(want, fingerprint(&live), "{workload}: replay under Memory Mode diverged");
    for stop_at in [1, INTERVALS / 2, INTERVALS - 1] {
        let resumed = resume(&trace, &checkpoint_at(&trace, stop_at));
        assert_eq!(fingerprint(&resumed), want, "{workload}: resume at interval {stop_at} diverged");
    }
}

#[test]
fn gups_memory_mode_resume_matches_straight_through() {
    check_resume_matches_straight_through("GUPS");
}

#[test]
fn voltdb_memory_mode_resume_matches_straight_through() {
    check_resume_matches_straight_through("VoltDB");
}

#[test]
fn truncated_memory_mode_checkpoints_are_rejected() {
    let (_, trace) = record("GUPS");
    let blob = checkpoint_at(&trace, INTERVALS / 2);
    // Most of the blob is the two caches' tag bytes; cut inside them,
    // around them, and one byte short of the end.
    for cut in (0..blob.len()).step_by(blob.len() / 61 + 1).chain([blob.len() - 1]) {
        let mut m = machine();
        let mut wl = TraceReplayer::from_bytes(&trace).expect("trace decodes");
        let restored = restore_checkpoint(&blob[..cut], &mut m, &mut MemoryMode, &mut wl);
        assert!(restored.is_err(), "a blob cut to {cut} of {} bytes restored", blob.len());
    }
}
