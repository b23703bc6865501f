//! Scenario driver: wires a workload, a memory manager, and a machine.
//!
//! The driver advances the simulation in *profiling intervals*: workload
//! threads issue accesses until the open interval's virtual wall time
//! reaches the configured interval length, then the interval is committed
//! and the manager's `on_interval` hook runs (profile, decide, migrate) —
//! the structure of every system the paper evaluates.

use crate::addr::{VaRange, VirtAddr};
use crate::counters::ComponentCounts;
use crate::machine::{AccessKind, AccessResult, Lane, Machine, MachineStats};
use crate::tier::ComponentId;

/// The memory interface a workload sees: plain reads and writes plus access
/// to the machine for setup (VMA registration, prefaulting).
pub trait MemEnv {
    /// Issues a load from `va` on thread `tid`.
    fn read(&mut self, tid: usize, va: VirtAddr);
    /// Issues a store to `va` on thread `tid`.
    fn write(&mut self, tid: usize, va: VirtAddr);
    /// Issues a read-modify-write of `va` on thread `tid`: a load and
    /// then a store. The simulator's environments serve it with one page
    /// walk; any override must leave the same state as the default.
    fn update(&mut self, tid: usize, va: VirtAddr) {
        self.read(tid, va);
        self.write(tid, va);
    }
    /// Charges pure compute (think) time to `tid`.
    fn compute(&mut self, tid: usize, ns: f64);
    /// The underlying machine.
    fn machine(&mut self) -> &mut Machine;
}

/// The argument of [`MemoryManager::set_share`]. It carries nothing; it
/// stays only so the out-of-workspace benchmark's delegating manager,
/// which forwards this hook, keeps compiling.
pub struct Share;

/// A page-management system under test (MTM or a baseline).
pub trait MemoryManager {
    /// Display name used in reports.
    fn name(&self) -> String;

    /// One-time initialization once VMAs exist.
    fn init(&mut self, _m: &mut Machine) {}

    /// Placement order for a faulting page: components to try, best first.
    fn placement(&mut self, m: &Machine, tid: usize, va: VirtAddr) -> Vec<ComponentId>;

    /// Periodic hook: profile, decide, and migrate. Runs after interval
    /// `interval` has been committed to the clock.
    fn on_interval(&mut self, m: &mut Machine, interval: u64);

    /// Number of profiling points within one interval (multi-scan
    /// profilers return their scans-per-interval; default 1).
    fn sub_intervals(&self) -> u32 {
        1
    }

    /// Called at each sub-interval boundary `k` in `1..=sub_intervals()`,
    /// while the interval is still open. Multi-scan profilers perform one
    /// PTE scan pass per call.
    fn on_subinterval(&mut self, _m: &mut Machine, _interval: u64, _k: u32) {}

    /// Cumulative bytes of pages the manager has classified as hot
    /// (Table 3's "volume of hot pages identified").
    fn hot_bytes_identified(&self) -> u64 {
        0
    }

    /// Extra memory the manager's metadata consumes (Table 5).
    fn metadata_bytes(&self) -> u64 {
        0
    }

    /// `(merged, split, live)` region counts averaged per interval
    /// (Table 7), if the manager forms memory regions.
    fn region_stats(&self) -> Option<RegionStats> {
        None
    }

    /// A no-op that no caller reaches; see [`Share`].
    fn set_share(&mut self, _share: Share) {}

    /// Inert: no manager implements it and no caller reaches it. It
    /// stays only so the out-of-workspace benchmark's delegating manager,
    /// which forwards this hook, keeps compiling; the benchmark's next
    /// revision removes it.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Inert, like [`MemoryManager::save_state`]: always `Err`.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!("manager {:?} has no state to load", self.name()))
    }
}

/// Region-formation statistics (Table 7).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RegionStats {
    /// Profiling intervals observed.
    pub intervals: u64,
    /// Average regions merged per interval.
    pub avg_merged: f64,
    /// Average regions split per interval.
    pub avg_split: f64,
    /// Average live regions per interval.
    pub avg_regions: f64,
}

/// A workload generating memory accesses (Table 2 of the paper).
pub trait Workload {
    /// Display name used in reports.
    fn name(&self) -> String;

    /// Registers VMAs and populates initial data (runs before measurement).
    fn setup(&mut self, env: &mut dyn MemEnv);

    /// Performs one small unit of work on thread `tid` (e.g. one GUPS
    /// update or one transaction step), issuing its accesses.
    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize);

    /// Runs one round of the access loop: [`ROUND_TICKS`] passes over
    /// threads `0..threads`, one [`Workload::tick`] each on the tick's
    /// [`TickEnv`] (see [`round_ticks`]). `drive_interval` makes one call
    /// per round. Workloads whose tick body is generic over the
    /// environment override this to run it against the `TickEnv`
    /// directly, so every access is a static call; an override must issue
    /// exactly the accesses of the ticks it replaces, in the same order.
    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.tick(t, tid));
    }

    /// Total memory footprint in bytes (simulated scale).
    fn footprint(&self) -> u64;

    /// Ground-truth hot virtual ranges, when the workload knows them
    /// (GUPS does; used for profiling recall/accuracy in Fig. 1).
    fn true_hot_ranges(&self) -> Vec<VaRange> {
        Vec::new()
    }

    /// Notifies the workload that a profiling interval ended, letting it
    /// shift phases (e.g. GUPS hot-set rotation).
    fn end_of_interval(&mut self, _interval: u64) {}

    /// Application-level progress counter (operations completed).
    fn ops_completed(&self) -> u64 {
        0
    }
}

/// Boxed workloads forward the whole trait, so factory-built workloads
/// plug into generic wrappers without re-boxing.
impl Workload for Box<dyn Workload> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        (**self).setup(env);
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        (**self).tick(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        (**self).round(env, threads);
    }

    fn footprint(&self) -> u64 {
        (**self).footprint()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        (**self).true_hot_ranges()
    }

    fn end_of_interval(&mut self, interval: u64) {
        (**self).end_of_interval(interval);
    }

    fn ops_completed(&self) -> u64 {
        (**self).ops_completed()
    }
}

/// Ticks each thread runs per round of the access loop. `drive_interval`
/// checks the interval's end only between rounds.
pub const ROUND_TICKS: usize = 8;

/// Calls `tick` in the access loop's round order: [`ROUND_TICKS`]
/// passes over threads `0..threads`, each tick on its own [`TickEnv`].
/// Every [`Workload::round`] runs its ticks through this, so all of them
/// share one order.
#[inline(always)]
pub fn round_ticks(env: &mut SimEnv<'_>, threads: usize, mut tick: impl FnMut(&mut TickEnv<'_>, usize)) {
    for _ in 0..ROUND_TICKS {
        for tid in 0..threads {
            env.on_thread(tid, |t| tick(t, tid));
        }
    }
}

/// A [`MemEnv`] over a machine and a manager: faults are resolved through
/// the manager's placement policy.
pub struct SimEnv<'a> {
    /// The machine accesses execute on.
    pub machine: &'a mut Machine,
    /// The manager resolving placement faults.
    pub manager: &'a mut dyn MemoryManager,
}

impl SimEnv<'_> {
    /// Runs `f` on thread `tid`'s [`TickEnv`], then writes the thread's
    /// clock back.
    #[inline(always)]
    fn on_thread<R>(&mut self, tid: usize, f: impl FnOnce(&mut TickEnv<'_>) -> R) -> R {
        let lane = self.machine.lane(tid);
        let mut t = TickEnv { machine: self.machine, manager: self.manager, lane, parked: false };
        let r = f(&mut t);
        if !t.parked {
            t.machine.park(&t.lane);
        }
        r
    }
}

/// Each access is one [`TickEnv`] access. `read`, `write` and `update`
/// are forced inline here and on `TickEnv`: with a plain `#[inline]` the
/// compiler kept them out of line, and every workload's `round` paid a
/// call per access. `scripts/verify.sh` fails if the release `all`
/// calls any of them other than through the `dyn MemEnv` vtable.
impl MemEnv for SimEnv<'_> {
    #[inline(always)]
    fn read(&mut self, tid: usize, va: VirtAddr) {
        self.on_thread(tid, |t| t.read(tid, va));
    }

    #[inline(always)]
    fn write(&mut self, tid: usize, va: VirtAddr) {
        self.on_thread(tid, |t| t.write(tid, va));
    }

    #[inline(always)]
    fn update(&mut self, tid: usize, va: VirtAddr) {
        self.on_thread(tid, |t| t.update(tid, va));
    }

    #[inline]
    fn compute(&mut self, tid: usize, ns: f64) {
        self.machine.compute(tid, ns);
    }

    fn machine(&mut self) -> &mut Machine {
        self.machine
    }
}

/// The [`MemEnv`] of one thread for one tick, which [`round_ticks`] hands
/// each tick. It holds the thread's [`Lane`] (its row of the link table
/// and its open-interval clock) in locals, and the clock goes back to
/// the machine when the tick ends and before every out-of-line path: a
/// demand fault, the general access path and [`MemEnv::machine`], after
/// which the next operation re-reads it.
pub struct TickEnv<'t> {
    machine: &'t mut Machine,
    manager: &'t mut dyn MemoryManager,
    lane: Lane,
    /// The clock was written back for [`MemEnv::machine`].
    parked: bool,
}

impl TickEnv<'_> {
    #[inline(always)]
    fn unpark(&mut self, tid: usize) {
        debug_assert_eq!(tid, self.lane.tid, "a tick issues accesses on its own thread");
        if self.parked {
            self.machine.resume(&mut self.lane);
            self.parked = false;
        }
    }

    #[inline(always)]
    fn access(&mut self, tid: usize, va: VirtAddr, kind: AccessKind) {
        self.unpark(tid);
        if self.machine.lane_access(&mut self.lane, va, kind) != AccessResult::Ok {
            self.lane = TickEnv::fault_in(self.machine, self.manager, self.lane, va, kind);
        }
    }

    /// Maps the page behind `va` where the manager places it, then
    /// retries the access. It takes the lane by value and no `self`, so
    /// none of the tick's state has an address and all of it can stay
    /// in registers.
    #[cold]
    #[inline(never)]
    fn fault_in(
        machine: &mut Machine,
        manager: &mut dyn MemoryManager,
        mut lane: Lane,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Lane {
        machine.park(&lane);
        let order = manager.placement(machine, lane.tid, va);
        machine
            .alloc_and_map(lane.tid, va, &order)
            .unwrap_or_else(|e| panic!("placement failed for {va:?}: {e}"));
        machine.resume(&mut lane);
        let r = machine.lane_access(&mut lane, va, kind);
        debug_assert_eq!(r, AccessResult::Ok, "access succeeds after mapping");
        lane
    }
}

impl MemEnv for TickEnv<'_> {
    #[inline(always)]
    fn read(&mut self, tid: usize, va: VirtAddr) {
        self.access(tid, va, AccessKind::Read);
    }

    #[inline(always)]
    fn write(&mut self, tid: usize, va: VirtAddr) {
        self.access(tid, va, AccessKind::Write);
    }

    #[inline(always)]
    fn update(&mut self, tid: usize, va: VirtAddr) {
        self.unpark(tid);
        if self.machine.lane_update(&mut self.lane, va) != AccessResult::Ok {
            self.lane = TickEnv::fault_in(self.machine, self.manager, self.lane, va, AccessKind::Read);
            self.write(tid, va);
        }
    }

    #[inline(always)]
    fn compute(&mut self, tid: usize, ns: f64) {
        self.unpark(tid);
        self.lane.t_ns += ns;
    }

    fn machine(&mut self) -> &mut Machine {
        if !self.parked {
            self.machine.park(&self.lane);
            self.parked = true;
        }
        self.machine
    }
}

/// Everything a finished scenario reports; the harness builds every paper
/// table and figure from these fields.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Manager display name.
    pub manager: String,
    /// Workload display name.
    pub workload: String,
    /// Committed time breakdown.
    pub breakdown: crate::clock::TimeBreakdown,
    /// Total virtual runtime in nanoseconds.
    pub total_ns: f64,
    /// Per-component application access counts.
    pub component_counts: Vec<ComponentCounts>,
    /// Per-interval per-component access counts.
    pub window_counts: Vec<Vec<ComponentCounts>>,
    /// Per-interval wall time.
    pub interval_ns: Vec<f64>,
    /// Cumulative workload ops after each interval (including the
    /// manager's interval work).
    pub ops_trace: Vec<u64>,
    /// Committed time breakdown after each interval.
    pub breakdown_trace: Vec<crate::clock::TimeBreakdown>,
    /// Bytes resident per component at the end.
    pub residency: Vec<u64>,
    /// Machine-level statistics.
    pub machine: MachineStats,
    /// Manager-reported hot-page volume (Table 3).
    pub hot_bytes_identified: u64,
    /// Manager metadata footprint (Table 5).
    pub metadata_bytes: u64,
    /// Region statistics (Table 7), if any.
    pub region_stats: Option<RegionStats>,
    /// Workload operations completed.
    pub ops_completed: u64,
    /// Workload footprint in bytes.
    pub footprint: u64,
    /// Per-run observability snapshot (counters, decision events,
    /// per-interval series). Travels with the report through the
    /// harness's run cache, so telemetry is identical for every caller.
    pub telemetry: obs::RunTelemetry,
}

impl RunReport {
    /// Total accesses that hit the component at tier rank `rank` from
    /// `node`'s view.
    pub fn accesses_at_rank(&self, topo: &crate::tier::Topology, node: u16, rank: usize) -> u64 {
        let c = topo.component_at_rank(node, rank);
        self.component_counts[c as usize].total()
    }

    /// Throughput in operations per virtual second.
    pub fn ops_per_second(&self) -> f64 {
        if self.total_ns <= 0.0 {
            return 0.0;
        }
        self.ops_completed as f64 / (self.total_ns / 1e9)
    }

    /// Virtual nanoseconds per completed operation — the execution-time
    /// metric for a fixed amount of work. Runs last a fixed number of
    /// profiling intervals, so comparing managers requires normalizing by
    /// the work they completed.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            return f64::INFINITY;
        }
        self.total_ns / self.ops_completed as f64
    }

    /// Steady-state window: the time breakdown and work completed in the
    /// last quarter of the run, after migration-driven placement has
    /// (largely) converged — the regime the paper's hours-long runs spend
    /// most of their time in.
    ///
    /// The window covers the last `ceil(n/4)` intervals: its start index
    /// is `w = n - ceil(n/4)` (arithmetically equal to the old opaque
    /// `3*n/4`, but now the "round the window *up* to a quarter when `n %
    /// 4 != 0`" boundary is explicit), and the `w >= 1` guard keeps
    /// `w - 1` (the breakdown snapshot the deltas are taken against) in
    /// bounds by construction instead of by luck of the `n < 4` early
    /// return.
    /// All deltas are computed saturating: breakdown traces are monotone
    /// in a healthy run, but a degenerate trace (e.g. from a partially
    /// recorded or merged run) must clamp to zero, not panic in debug
    /// builds or wrap into garbage.
    pub fn steady(&self) -> (crate::clock::TimeBreakdown, u64) {
        let n = self.breakdown_trace.len();
        if n < 4 {
            return (self.breakdown, self.ops_completed);
        }
        let quarter = n.div_ceil(4);
        let w = (n - quarter).max(1);
        let b0 = self.breakdown_trace[w - 1];
        let b1 = self.breakdown_trace[n - 1];
        // f64 "saturating subtraction": clamp each field at zero.
        let delta = crate::clock::TimeBreakdown {
            app_ns: (b1.app_ns - b0.app_ns).max(0.0),
            profiling_ns: (b1.profiling_ns - b0.profiling_ns).max(0.0),
            migration_ns: (b1.migration_ns - b0.migration_ns).max(0.0),
        };
        let ops = self.ops_trace[n - 1].saturating_sub(self.ops_trace[w - 1]);
        (delta, ops)
    }

    /// Nanoseconds per operation over the steady-state window.
    pub fn ns_per_op_steady(&self) -> f64 {
        let (b, ops) = self.steady();
        if ops == 0 {
            return f64::INFINITY;
        }
        b.total_ns() / ops as f64
    }

    /// Steady-state throughput (ops per virtual second).
    pub fn ops_per_second_steady(&self) -> f64 {
        let (b, ops) = self.steady();
        if b.total_ns() <= 0.0 {
            return 0.0;
        }
        ops as f64 / (b.total_ns() / 1e9)
    }
}

/// Drives one profiling interval's access phase: generates accesses until
/// the interval's virtual wall time elapses (invoking the manager's
/// sub-interval hooks on the way), commits the interval and returns its
/// wall time. [`ScenarioProgress::step_interval`] wraps it with the
/// interval hooks; drivers that probe state between intervals step that.
///
/// # Phase structure
///
/// Each interval is three phases. **Access simulation** (the tick loop
/// below) is inherently serial: every access mutates the clock, counters,
/// PEBS and PTE state, and the access order *is* the simulated workload.
/// **Profiling scans** and **migration batches** (inside the manager
/// hooks) read the page table in one serial sweep, then apply their
/// effects in the sweep's order, on this thread.
fn drive_interval(
    machine: &mut Machine,
    manager: &mut dyn MemoryManager,
    workload: &mut dyn Workload,
    interval: u64,
) -> f64 {
    let interval_len = machine.cfg.interval_ns;
    let threads = machine.cfg.threads;
    let subs = manager.sub_intervals().max(1);
    for k in 1..=subs {
        let target = interval_len * k as f64 / subs as f64;
        while machine.open_interval_ns() < target {
            workload.round(&mut SimEnv { machine, manager }, threads);
        }
        manager.on_subinterval(machine, interval, k);
    }
    machine.commit_interval()
}

/// An in-flight scenario that external drivers advance one interval at a
/// time, e.g. to sample its state as it goes.
/// [`run_scenario`] is exactly `start` + `step_interval` × N + `finish`,
/// so a single-stepped run is bit-identical to the one-shot path.
pub struct ScenarioProgress {
    window_counts: Vec<Vec<ComponentCounts>>,
    interval_ns: Vec<f64>,
    ops_trace: Vec<u64>,
    breakdown_trace: Vec<crate::clock::TimeBreakdown>,
    series: obs::IntervalSeries,
    prev_breakdown: crate::clock::TimeBreakdown,
    prev_migrated: u64,
}

impl ScenarioProgress {
    /// Sets up the scenario (workload VMAs and data, manager init) and
    /// resets measurement, leaving the run ready for its first interval.
    pub fn start(
        machine: &mut Machine,
        manager: &mut dyn MemoryManager,
        workload: &mut dyn Workload,
    ) -> ScenarioProgress {
        {
            let mut env = SimEnv { machine, manager };
            workload.setup(&mut env);
        }
        manager.init(machine);
        machine.reset_measurement();
        machine.counters_mut().reset_window();
        ScenarioProgress {
            window_counts: Vec::new(),
            interval_ns: Vec::new(),
            ops_trace: Vec::new(),
            breakdown_trace: Vec::new(),
            series: obs::IntervalSeries::default(),
            prev_breakdown: machine.breakdown(),
            prev_migrated: machine.stats().bytes_migrated,
        }
    }

    /// Drives profiling interval `ivl` to completion: access generation,
    /// the manager's interval hook, the workload's phase shift, and the
    /// per-interval telemetry series.
    pub fn step_interval(
        &mut self,
        machine: &mut Machine,
        manager: &mut dyn MemoryManager,
        workload: &mut dyn Workload,
        ivl: u64,
    ) {
        let wall = drive_interval(machine, manager, workload, ivl);
        self.interval_ns.push(wall);
        let comps = machine.topology().num_components();
        self.window_counts.push((0..comps as u16).map(|c| machine.counters().window(c)).collect());
        machine.counters_mut().reset_window();
        manager.on_interval(machine, ivl);
        workload.end_of_interval(ivl);
        self.ops_trace.push(workload.ops_completed());
        self.breakdown_trace.push(machine.breakdown());

        // Per-interval telemetry series: profiling overhead share,
        // migration traffic and tier occupancy for this interval.
        let b = machine.breakdown();
        let total_delta = b.total_ns() - self.prev_breakdown.total_ns();
        let prof_delta = b.profiling_ns - self.prev_breakdown.profiling_ns;
        self.series.wall_ns.push(wall);
        self.series
            .overhead_pct
            .push(if total_delta > 0.0 { 100.0 * prof_delta / total_delta } else { 0.0 });
        let migrated = machine.stats().bytes_migrated;
        self.series.migrated_bytes.push(migrated - self.prev_migrated);
        self.series.occupancy.push(machine.residency());
        self.prev_breakdown = b;
        self.prev_migrated = migrated;
    }

    /// Finalizes telemetry and assembles the report.
    pub fn finish(
        self,
        machine: &mut Machine,
        manager: &mut dyn MemoryManager,
        workload: &mut dyn Workload,
    ) -> RunReport {
        let telemetry = finalize_telemetry(machine, manager, workload, self.series);
        let breakdown = machine.breakdown();
        RunReport {
            manager: manager.name(),
            workload: workload.name(),
            breakdown,
            total_ns: breakdown.total_ns(),
            component_counts: machine.counters().all(),
            window_counts: self.window_counts,
            interval_ns: self.interval_ns,
            ops_trace: self.ops_trace,
            breakdown_trace: self.breakdown_trace,
            residency: machine.residency(),
            machine: machine.stats(),
            hot_bytes_identified: manager.hot_bytes_identified(),
            metadata_bytes: manager.metadata_bytes(),
            region_stats: manager.region_stats(),
            ops_completed: workload.ops_completed(),
            footprint: workload.footprint(),
            telemetry,
        }
    }
}

/// Runs `workload` under `manager` for `intervals` profiling intervals and
/// returns the report. Setup time is excluded from measurement.
pub fn run_scenario(
    machine: &mut Machine,
    manager: &mut dyn MemoryManager,
    workload: &mut dyn Workload,
    intervals: u64,
) -> RunReport {
    let mut progress = ScenarioProgress::start(machine, manager, workload);
    for ivl in 0..intervals {
        progress.step_interval(machine, manager, workload, ivl);
    }
    progress.finish(machine, manager, workload)
}

/// Static metric names for per-component PEBS sample counts (the
/// registry's key set is closed at compile time; no simulated topology
/// exceeds this many components).
const PEBS_COMPONENT_NAMES: [&str; 8] = [
    "pebs_samples_c0",
    "pebs_samples_c1",
    "pebs_samples_c2",
    "pebs_samples_c3",
    "pebs_samples_c4",
    "pebs_samples_c5",
    "pebs_samples_c6",
    "pebs_samples_c7",
];

/// Moves the machine's recorder out and folds the end-of-run machine
/// statistics into it, producing the run's telemetry snapshot.
fn finalize_telemetry(
    machine: &mut Machine,
    manager: &mut dyn MemoryManager,
    workload: &mut dyn Workload,
    series: obs::IntervalSeries,
) -> obs::RunTelemetry {
    use obs::names;
    let mut rec = std::mem::take(machine.obs_mut());
    let stats = machine.stats();
    for (name, v) in [
        (names::ALLOC_FAULTS, stats.alloc_faults),
        (names::HINT_FAULTS, stats.hint_faults),
        (names::PROT_FAULTS, stats.prot_faults),
        (names::WP_FAULTS, stats.wp_faults),
        (names::PTE_SCANS, stats.pte_scans),
        (names::TLB_FLUSHES, stats.tlb_flushes),
        (names::PAGES_MIGRATED, stats.pages_migrated),
        (names::BYTES_MIGRATED, stats.bytes_migrated),
    ] {
        rec.reg.counter_add(name, v);
    }
    let (pebs_taken, pebs_dropped, _) = machine.pebs_stats();
    rec.reg.counter_add(names::PEBS_SAMPLES_TAKEN, pebs_taken);
    rec.reg.counter_add(names::PEBS_SAMPLES_DROPPED, pebs_dropped);
    for (c, n) in machine.pebs_component_counts() {
        if let Some(&name) = PEBS_COMPONENT_NAMES.get(c as usize) {
            rec.reg.counter_add(name, n);
        }
    }
    rec.reg.gauge_set(names::HINT_POISONED_PEAK, machine.hint_poisoned_peak() as f64);
    obs::RunTelemetry {
        manager: manager.name(),
        workload: workload.name(),
        registry: rec.reg,
        events_dropped: rec.ring.dropped(),
        events: rec.ring.take(),
        series,
    }
}

/// A trivial manager placing pages on the local fastest component with
/// space, never migrating — first-touch NUMA, also used in substrate tests.
pub struct FirstTouchPolicy;

impl MemoryManager for FirstTouchPolicy {
    fn name(&self) -> String {
        "first-touch".into()
    }

    fn placement(&mut self, m: &Machine, tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        m.topology().view(m.node_of(tid)).to_vec()
    }

    fn on_interval(&mut self, _m: &mut Machine, _interval: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE_2M;
    use crate::machine::MachineConfig;
    use crate::tier::tiny_two_tier;

    /// A workload striding over its footprint.
    struct Strider {
        range: VaRange,
        cursor: u64,
        ops: u64,
    }

    impl Workload for Strider {
        fn name(&self) -> String {
            "strider".into()
        }

        fn setup(&mut self, env: &mut dyn MemEnv) {
            let range = self.range;
            env.machine().mmap("stride", range, false);
        }

        fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
            let va = VirtAddr(self.range.start.0 + self.cursor % self.range.len());
            self.cursor += 4096;
            self.ops += 1;
            env.read(tid, va);
        }

        fn footprint(&self) -> u64 {
            self.range.len()
        }

        fn ops_completed(&self) -> u64 {
            self.ops
        }
    }

    #[test]
    fn scenario_runs_and_reports() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 2);
        cfg.interval_ns = 50_000.0;
        let mut machine = Machine::new(cfg);
        let mut wl = Strider { range: VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M), cursor: 0, ops: 0 };
        let mut mgr = FirstTouchPolicy;
        let report = run_scenario(&mut machine, &mut mgr, &mut wl, 4);
        assert_eq!(report.interval_ns.len(), 4);
        assert!(report.total_ns > 0.0);
        assert!(report.ops_completed > 0);
        assert_eq!(report.window_counts.len(), 4);
        // First-touch fills the fast component first; nothing spills until
        // it is full.
        assert!(report.residency[0] > 0);
        assert!(report.residency[0] <= 2 * PAGE_SIZE_2M);
        if report.residency[1] > 0 {
            assert_eq!(report.residency[0], 2 * PAGE_SIZE_2M, "spill only after fast is full");
        }
        // Each interval's wall time is at least the configured length.
        for &w in &report.interval_ns {
            assert!(w >= 50_000.0);
        }
    }

    /// A strider that counts its `round` calls.
    struct Rounds(Strider, std::rc::Rc<std::cell::Cell<u64>>);

    impl Workload for Rounds {
        fn name(&self) -> String {
            self.0.name()
        }

        fn setup(&mut self, env: &mut dyn MemEnv) {
            self.0.setup(env);
        }

        fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
            self.0.tick(env, tid);
        }

        fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
            self.1.set(self.1.get() + 1);
            round_ticks(env, threads, |t, tid| self.0.tick(t, tid));
        }

        fn footprint(&self) -> u64 {
            self.0.footprint()
        }

        fn ops_completed(&self) -> u64 {
            self.0.ops_completed()
        }
    }

    #[test]
    fn a_boxed_workload_runs_its_own_round() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 2);
        cfg.interval_ns = 20_000.0;
        let mut machine = Machine::new(cfg);
        let rounds = std::rc::Rc::new(std::cell::Cell::new(0));
        let strider = Strider { range: VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), cursor: 0, ops: 0 };
        let mut wl: Box<dyn Workload> = Box::new(Rounds(strider, rounds.clone()));
        let report = run_scenario(&mut machine, &mut FirstTouchPolicy, &mut wl, 3);
        // Every tick ran inside a counted round. A box that did not
        // forward `round` would run the provided per-tick loop instead
        // and count none.
        assert!(rounds.get() > 0);
        assert_eq!(report.ops_completed, rounds.get() * (ROUND_TICKS * 2) as u64);
    }

    /// Charges its thread through `MemEnv::machine` between accesses.
    struct ChargesMachine(Strider);

    impl Workload for ChargesMachine {
        fn name(&self) -> String {
            self.0.name()
        }

        fn setup(&mut self, env: &mut dyn MemEnv) {
            self.0.setup(env);
        }

        fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
            env.compute(tid, 3.0);
            env.machine().compute(tid, 5.0);
            self.0.tick(env, tid);
            env.machine().compute(tid, 7.0);
        }

        fn footprint(&self) -> u64 {
            self.0.footprint()
        }
    }

    #[test]
    fn a_tick_env_keeps_charges_made_through_the_machine() {
        // One round on `TickEnv`s against the same ticks on the plain
        // `SimEnv`: the machine's clock must agree bit for bit.
        let clocks = |on_tick_env: bool| {
            let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
            let mut machine = Machine::new(MachineConfig::new(topo, 2));
            let strider = Strider { range: VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), cursor: 0, ops: 0 };
            let mut wl = ChargesMachine(strider);
            let env = &mut SimEnv { machine: &mut machine, manager: &mut FirstTouchPolicy };
            wl.setup(env);
            if on_tick_env {
                wl.round(env, 2);
            } else {
                for _ in 0..ROUND_TICKS {
                    for tid in 0..2 {
                        wl.tick(env, tid);
                    }
                }
            }
            [0, 1].map(|tid| machine.approx_now_ns(tid).to_bits())
        };
        assert_eq!(clocks(true), clocks(false));
    }

    fn bd(ns: f64) -> crate::clock::TimeBreakdown {
        crate::clock::TimeBreakdown { app_ns: ns, profiling_ns: ns / 2.0, migration_ns: ns / 4.0 }
    }

    #[test]
    fn steady_clamps_degenerate_traces() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 1);
        cfg.interval_ns = 20_000.0;
        let mut machine = Machine::new(cfg);
        let mut wl = Strider { range: VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), cursor: 0, ops: 0 };
        let mut report = run_scenario(&mut machine, &mut FirstTouchPolicy, &mut wl, 4);

        // A degenerate (non-monotone) trace: the tail snapshot is *below*
        // the window anchor, as a partially recorded or merged run can
        // produce. Every field must clamp to zero — not panic in debug,
        // not wrap.
        report.breakdown_trace = vec![bd(100.0), bd(200.0), bd(300.0), bd(50.0)];
        report.ops_trace = vec![10, 20, 30, 5];
        let (delta, ops) = report.steady();
        assert_eq!(delta.app_ns, 0.0);
        assert_eq!(delta.profiling_ns, 0.0);
        assert_eq!(delta.migration_ns, 0.0);
        assert_eq!(ops, 0);

        // Healthy monotone trace with n % 4 != 0: the window is the last
        // ceil(n/4) = 2 intervals, anchored at index w - 1 = 2.
        report.breakdown_trace = vec![bd(10.0), bd(20.0), bd(30.0), bd(40.0), bd(60.0)];
        report.ops_trace = vec![1, 2, 3, 4, 9];
        let (delta, ops) = report.steady();
        assert_eq!(delta.app_ns, 30.0);
        assert_eq!(ops, 6);
    }

    #[test]
    fn report_rank_accessor() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo.clone(), 1);
        cfg.interval_ns = 20_000.0;
        let mut machine = Machine::new(cfg);
        let mut wl = Strider { range: VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), cursor: 0, ops: 0 };
        let mut mgr = FirstTouchPolicy;
        let report = run_scenario(&mut machine, &mut mgr, &mut wl, 2);
        // Footprint fits in fast; all accesses land at rank 0.
        assert_eq!(report.accesses_at_rank(&topo, 0, 0), report.component_counts[0].total());
        assert_eq!(report.accesses_at_rank(&topo, 0, 1), 0);
    }
}
