//! Differential test of the access loop's two entries. `drive_interval`
//! calls `Workload::round` once per round; workloads override it to run
//! their generic tick body against the simulator directly. A wrapper that
//! forwards only `tick` falls back to the provided `round`, which makes
//! one `dyn MemEnv` tick at a time. Both must produce the same run, down
//! to every report field and the telemetry JSON, on a plain machine, a
//! Memory Mode machine, a heat-tracking machine and a sanitizer-armed
//! machine (which keeps frame versions) alike. GUPS, YCSB and TPC-C issue
//! their read-modify-writes as `MemEnv::update`; each must also match a
//! tick path that splits every update into a `read` and a `write`.

use mtm::{MtmConfig, MtmManager};
use mtm_baselines::hmc::MemoryMode;
use mtm_scenario::trace::{record_run, TraceReplayer};
use tiersim::addr::{VaRange, VirtAddr};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::PAGE_SIZE_4K;
use tiersim::sim::{run_scenario, MemEnv, MemoryManager, RunReport, Workload};
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

/// A `MemEnv` that forwards everything but `update`, which it leaves to
/// the trait's default: a `read` and then a `write`.
struct SplitUpdates<'a>(&'a mut dyn MemEnv);

impl MemEnv for SplitUpdates<'_> {
    fn read(&mut self, tid: usize, va: VirtAddr) {
        self.0.read(tid, va);
    }

    fn write(&mut self, tid: usize, va: VirtAddr) {
        self.0.write(tid, va);
    }

    fn compute(&mut self, tid: usize, ns: f64) {
        self.0.compute(tid, ns);
    }

    fn machine(&mut self) -> &mut Machine {
        self.0.machine()
    }
}

/// [`TickOnly`] with every tick on a [`SplitUpdates`] environment.
struct SplitTicks<W: Workload>(TickOnly<W>);

impl<W: Workload> Workload for SplitTicks<W> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        self.0.setup(env);
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.0.tick(&mut SplitUpdates(env), tid);
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

/// The machine kinds `Machine::access` tells apart: a plain machine
/// (the inlined fast path), and a Memory Mode, a heat-tracking and a
/// sanitizer-armed machine (all on the out-of-line general path).
#[derive(Clone, Copy, Debug)]
enum Kind {
    Plain,
    MemoryMode,
    Heat,
    Checked,
}

fn machine(kind: Kind) -> Machine {
    let mut cfg = MachineConfig::new(tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M), 2);
    cfg.interval_ns = 0.5e6;
    cfg.hmc_mode = matches!(kind, Kind::MemoryMode);
    cfg.track_heat = matches!(kind, Kind::Heat);
    let mut m = Machine::new(cfg);
    m.set_checking(matches!(kind, Kind::Checked));
    m
}

/// A Memory Mode machine runs under the Memory Mode baseline, the others
/// under MTM.
fn manager(kind: Kind) -> Box<dyn MemoryManager> {
    match kind {
        Kind::MemoryMode => Box::new(MemoryMode),
        Kind::Plain | Kind::Heat | Kind::Checked => Box::new(MtmManager::new(MtmConfig::default(), 1)),
    }
}

/// Reports carry floats; Debug formatting is exact, so string equality
/// is bit equality across every field. The heatmap, the Memory Mode
/// hit ratios and the frame versions are not in the report, so they are
/// appended (the versions as the machine's whole checkpoint); each must
/// be there on the machine kind that keeps it.
fn fingerprint(kind: Kind, mut workload: impl Workload) -> String {
    let m = &mut machine(kind);
    let r: RunReport = run_scenario(m, &mut *manager(kind), &mut workload, INTERVALS);
    let (heat, hmc) = (m.heat_snapshot(), m.hmc_hit_ratios());
    assert_eq!(!heat.is_empty(), matches!(kind, Kind::Heat), "{kind:?}: heatmap");
    assert_eq!(!hmc.is_empty(), matches!(kind, Kind::MemoryMode), "{kind:?}: Memory Mode caches");
    let written = (0..m.topology().num_components() as u16).any(|c| {
        (0..m.allocator(c).capacity() / PAGE_SIZE_4K)
            .any(|f| m.frame_version(tiersim::addr::PhysAddr::new(c, f * PAGE_SIZE_4K)) > 0)
    });
    assert_eq!(written, matches!(kind, Kind::Checked), "{kind:?}: frame versions");
    let state = obs::wire::fnv1a(&m.save_state());
    format!("{r:?}\n{}\n{heat:?}\n{hmc:?}\n{state:#x}", r.telemetry.to_json())
}

fn check_round_matches_tick(kind: Kind, make: impl Fn() -> Box<dyn Workload>) {
    let name = make().name();
    assert_eq!(
        fingerprint(kind, make()),
        fingerprint(kind, TickOnly(make())),
        "{name} on a {kind:?} machine: round diverged from tick"
    );
}

fn paper_workloads_round_matches_tick_on(kind: Kind) {
    for name in ["GUPS", "VoltDB", "Cassandra", "BFS", "SSSP", "Spark"] {
        check_round_matches_tick(kind, || {
            mtm_workloads::build_paper_workload(name, SCALE, 2).expect("paper workload")
        });
    }
}

#[test]
fn paper_workloads_round_matches_tick() {
    paper_workloads_round_matches_tick_on(Kind::Plain);
}

#[test]
fn paper_workloads_round_matches_tick_under_memory_mode() {
    paper_workloads_round_matches_tick_on(Kind::MemoryMode);
}

#[test]
fn paper_workloads_round_matches_tick_with_a_heatmap() {
    paper_workloads_round_matches_tick_on(Kind::Heat);
}

#[test]
fn paper_workloads_round_matches_tick_with_the_sanitizer_armed() {
    paper_workloads_round_matches_tick_on(Kind::Checked);
}

/// GUPS's table update, YCSB's (Cassandra's) row update and TPC-C's
/// (VoltDB's) read-modify-writes are each one `MemEnv::update`.
#[test]
fn gups_updates_match_a_read_and_a_write() {
    for name in ["GUPS", "VoltDB", "Cassandra"] {
        for kind in [Kind::Plain, Kind::Checked] {
            let make = || mtm_workloads::build_paper_workload(name, SCALE, 2).expect("paper workload");
            assert_eq!(
                fingerprint(kind, make()),
                fingerprint(kind, SplitTicks(TickOnly(make()))),
                "{name} on a {kind:?} machine: update diverged from read + write"
            );
        }
    }
}

#[test]
fn trace_replayer_round_matches_tick() {
    // Traces of GUPS's rotating hot band and of Cassandra's zipfian rows.
    for name in ["GUPS", "Cassandra"] {
        let wl = mtm_workloads::build_paper_workload(name, SCALE, 2).expect("paper workload");
        let mgr = &mut MtmManager::new(MtmConfig::default(), 1);
        let (_, trace) =
            record_run(&mut machine(Kind::Plain), mgr, wl, INTERVALS).expect("recordable");
        check_round_matches_tick(Kind::Plain, || {
            Box::new(TraceReplayer::from_bytes(&trace).expect("trace decodes"))
        });
    }
}
