//! Differential test of the access loop's two entries. `drive_interval`
//! calls `Workload::round` once per round; workloads override it to run
//! their generic tick body against the simulator directly. A wrapper that
//! forwards only `tick` falls back to the provided `round`, which makes
//! one `dyn MemEnv` tick at a time. Both must produce the same run, down
//! to every report field and the telemetry JSON.

use mtm::{MtmConfig, MtmManager};
use mtm_scenario::trace::{record_run, TraceReplayer};
use tiersim::addr::VaRange;
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, MemEnv, RunReport, Workload};
use tiersim::tier::tiny_two_tier;
use tiersim::PAGE_SIZE_2M;

const INTERVALS: u64 = 6;
const SCALE: u64 = 1 << 14;

/// Forwards every method except `round`, so each tick goes through the
/// `dyn MemEnv` path.
struct TickOnly<W: Workload>(W);

impl<W: Workload> Workload for TickOnly<W> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        self.0.setup(env);
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.0.tick(env, tid);
    }

    fn footprint(&self) -> u64 {
        self.0.footprint()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        self.0.true_hot_ranges()
    }

    fn end_of_interval(&mut self, interval: u64) {
        self.0.end_of_interval(interval);
    }

    fn ops_completed(&self) -> u64 {
        self.0.ops_completed()
    }
}

fn machine() -> Machine {
    let mut cfg = MachineConfig::new(tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M), 2);
    cfg.interval_ns = 0.5e6;
    Machine::new(cfg)
}

/// Reports carry floats; Debug formatting is exact, so string equality
/// is bit equality across every field.
fn fingerprint(mut workload: impl Workload) -> String {
    let mgr = &mut MtmManager::new(MtmConfig::default(), 1);
    let r: RunReport = run_scenario(&mut machine(), mgr, &mut workload, INTERVALS);
    format!("{r:?}\n{}", r.telemetry.to_json())
}

fn check_round_matches_tick(make: impl Fn() -> Box<dyn Workload>) {
    let name = make().name();
    assert_eq!(
        fingerprint(make()),
        fingerprint(TickOnly(make())),
        "{name}: round diverged from tick"
    );
}

#[test]
fn paper_workloads_round_matches_tick() {
    for name in ["GUPS", "VoltDB", "Cassandra", "BFS", "SSSP", "Spark"] {
        check_round_matches_tick(|| {
            mtm_workloads::build_paper_workload(name, SCALE, 2).expect("paper workload")
        });
    }
}

#[test]
fn trace_replayer_round_matches_tick() {
    // Traces of GUPS's rotating hot band and of Cassandra's zipfian rows.
    for name in ["GUPS", "Cassandra"] {
        let wl = mtm_workloads::build_paper_workload(name, SCALE, 2).expect("paper workload");
        let mgr = &mut MtmManager::new(MtmConfig::default(), 1);
        let (_, trace) = record_run(&mut machine(), mgr, wl, INTERVALS).expect("recordable");
        check_round_matches_tick(|| {
            Box::new(TraceReplayer::from_bytes(&trace).expect("trace decodes"))
        });
    }
}
