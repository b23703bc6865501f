//! Checkpoints of fault-injected runs: an MTM run under a heavy fault
//! plan stopped at an interval boundary and resumed in fresh objects
//! reproduces the straight-through run byte for byte, fault stream
//! included.
//!
//! The paper workloads keep no checkpointable state of their own, so the
//! test records GUPS under the plan and checkpoints the replay of that
//! trace (as `memory_mode_checkpoint.rs` does).

use faultsim::FaultPlan;
use mtm::{MtmConfig, MtmManager};
use mtm_scenario::trace::{record_run, TraceReplayer};
use mtm_scenario::{restore_checkpoint, save_checkpoint};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, RunReport, ScenarioProgress};
use tiersim::tier::optane_four_tier;

const SCALE: u64 = 1 << 13;
const THREADS: usize = 2;
const INTERVALS: u64 = 10;
const HEAVY: &str = "busy=0.5,allocfail=0.25,droppebs=0.5,drophint=0.5,bw=0.25@3..7";
const SEED: u64 = 17;

/// A machine with the heavy plan drawn from `seed`, or a healthy one.
fn machine(seed: Option<u64>) -> Machine {
    let mut cfg = MachineConfig::new(optane_four_tier(SCALE), THREADS);
    cfg.interval_ns = 1.0e6;
    let mut m = Machine::new(cfg);
    if let Some(seed) = seed {
        m.install_faults(FaultPlan::parse(HEAVY).expect("valid plan"), seed);
    }
    m
}

fn manager() -> MtmManager {
    MtmManager::new(MtmConfig::default(), optane_four_tier(SCALE).nodes as usize)
}

fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.telemetry.to_json())
}

/// Records GUPS under the plan; returns the live report and the trace.
fn record() -> (RunReport, Vec<u8>) {
    let wl = mtm_workloads::build_paper_workload("GUPS", SCALE, THREADS).expect("paper workload");
    record_run(&mut machine(Some(SEED)), &mut manager(), wl, INTERVALS).expect("faulty run records")
}

/// Replays `trace` to interval `stop_at` and checkpoints it.
fn checkpoint_at(trace: &[u8], stop_at: u64) -> Vec<u8> {
    let (mut m, mut mgr) = (machine(Some(SEED)), manager());
    let mut wl = TraceReplayer::from_bytes(trace).expect("trace decodes");
    let mut progress = ScenarioProgress::start(&mut m, &mut mgr, &mut wl);
    for ivl in 0..stop_at {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    save_checkpoint(&m, &mgr, &wl, &progress, stop_at).expect("faulty machine checkpoints")
}

/// Restores `blob` into fresh objects over a machine with `seed`'s plan.
fn restore(trace: &[u8], blob: &[u8], seed: Option<u64>) -> Result<RunReport, String> {
    let (mut m, mut mgr) = (machine(seed), manager());
    let mut wl = TraceReplayer::from_bytes(trace).expect("trace decodes");
    let (mut progress, next) = restore_checkpoint(blob, &mut m, &mut mgr, &mut wl)?;
    for ivl in next..INTERVALS {
        progress.step_interval(&mut m, &mut mgr, &mut wl, ivl);
    }
    Ok(progress.finish(&mut m, &mut mgr, &mut wl))
}

#[test]
fn heavy_fault_resume_matches_straight_through() {
    let (live, trace) = record();
    let injected = |name| live.telemetry.registry.counter(name);
    assert!(injected(obs::names::FAULT_PAGE_BUSY) > 0, "the plan must fail migrations");
    assert!(injected(obs::names::FAULT_PEBS_LOST) > 0, "the plan must drop samples");
    let mut replayer = TraceReplayer::from_bytes(&trace).expect("trace decodes");
    let straight = run_scenario(&mut machine(Some(SEED)), &mut manager(), &mut replayer, INTERVALS);
    let want = fingerprint(&straight);
    assert_eq!(want, fingerprint(&live), "replay under the plan diverged");
    for stop_at in [1, INTERVALS / 2, INTERVALS - 1] {
        let resumed = restore(&trace, &checkpoint_at(&trace, stop_at), Some(SEED))
            .expect("checkpoint restores");
        assert_eq!(fingerprint(&resumed), want, "resume at interval {stop_at} diverged");
    }
}

#[test]
fn fault_checkpoints_reject_truncation_and_other_plans() {
    let (_, trace) = record();
    let blob = checkpoint_at(&trace, INTERVALS / 2);
    for cut in (0..blob.len()).step_by(blob.len() / 61 + 1).chain([blob.len() - 1]) {
        let restored = restore(&trace, &blob[..cut], Some(SEED));
        assert!(restored.is_err(), "a blob cut to {cut} of {} bytes restored", blob.len());
    }
    for other in [Some(SEED + 1), None] {
        let err = restore(&trace, &blob, other).expect_err("restored under another plan");
        assert!(err.contains("fault"), "{other:?}: {err}");
    }
}
