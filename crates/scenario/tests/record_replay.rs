//! Record → replay differential tests: a trace replayed through the same
//! machine/manager configuration reproduces the live run's report and
//! telemetry byte-for-byte.

use mtm::{MtmConfig, MtmManager};
use mtm_scenario::trace::{record_run, TraceReplayer};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, RunReport, Workload};
use tiersim::tier::tiny_two_tier;
use tiersim::PAGE_SIZE_2M;

const INTERVALS: u64 = 6;

fn machine() -> Machine {
    let topo = tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M);
    let mut cfg = MachineConfig::new(topo, 2);
    cfg.interval_ns = 0.5e6;
    Machine::new(cfg)
}

fn manager() -> MtmManager {
    MtmManager::new(MtmConfig::default(), 1)
}

/// Reports carry floats; Debug formatting is exact (no rounding), so
/// string equality is bit equality across every field.
fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.telemetry.to_json())
}

fn live_report(workload: Box<dyn Workload>) -> RunReport {
    let mut wl = workload;
    run_scenario(&mut machine(), &mut manager(), wl.as_mut(), INTERVALS)
}

fn check_replay_matches_live(make: impl Fn() -> Box<dyn Workload>) {
    let live = live_report(make());

    let wl = make();
    let (recorded, trace) =
        record_run(&mut machine(), &mut manager(), wl, INTERVALS).expect("recordable");
    assert_eq!(
        fingerprint(&recorded),
        fingerprint(&live),
        "recording must not perturb the run"
    );

    let mut replayer = TraceReplayer::from_bytes(&trace).expect("trace decodes");
    let replayed = run_scenario(&mut machine(), &mut manager(), &mut replayer, INTERVALS);
    assert_eq!(
        fingerprint(&replayed),
        fingerprint(&live),
        "replay must match the live run byte-for-byte"
    );
}

fn gups() -> Box<dyn Workload> {
    mtm_workloads::build_paper_workload("GUPS", 1 << 13, 2).expect("GUPS exists")
}

#[test]
fn gups_replay_is_byte_identical() {
    check_replay_matches_live(gups);
}

#[test]
fn cassandra_replay_is_byte_identical() {
    check_replay_matches_live(|| {
        mtm_workloads::build_paper_workload("Cassandra", 1 << 13, 2).expect("Cassandra exists")
    });
}

#[test]
fn voltdb_replay_is_byte_identical() {
    check_replay_matches_live(|| {
        mtm_workloads::build_paper_workload("VoltDB", 1 << 13, 2).expect("VoltDB exists")
    });
}

#[test]
fn trace_rejects_bad_magic_and_version() {
    let wl = gups();
    let (_, trace) =
        record_run(&mut machine(), &mut manager(), wl, 2).expect("recordable");
    let mut bad = trace.clone();
    bad[0] ^= 0xFF;
    let Err(e) = TraceReplayer::from_bytes(&bad) else { panic!("bad magic accepted") };
    assert!(e.contains("magic"), "unexpected error: {e}");
    let mut vbad = trace.clone();
    vbad[8] = 0xEE;
    let Err(e) = TraceReplayer::from_bytes(&vbad) else { panic!("bad version accepted") };
    assert!(e.contains("version"), "unexpected error: {e}");
}

#[test]
fn replay_on_mismatched_machine_panics_loudly() {
    let wl = gups();
    let (_, trace) =
        record_run(&mut machine(), &mut manager(), wl, 2).expect("recordable");
    let mut replayer = TraceReplayer::from_bytes(&trace).expect("trace decodes");
    let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M);
    let mut other = Machine::new(MachineConfig::new(topo, 2));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_scenario(&mut other, &mut manager(), &mut replayer, 1);
    }));
    assert!(err.is_err(), "mismatched machine config must not replay silently");
}
