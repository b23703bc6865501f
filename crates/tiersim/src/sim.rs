//! Scenario driver: wires a workload, a memory manager, and a machine.
//!
//! The driver advances the simulation in *profiling intervals*: workload
//! threads issue accesses until the open interval's virtual wall time
//! reaches the configured interval length, then the interval is committed
//! and the manager's `on_interval` hook runs (profile, decide, migrate) —
//! the structure of every system the paper evaluates.

use crate::addr::{VaRange, VirtAddr};
use crate::counters::ComponentCounts;
use crate::machine::{AccessKind, AccessResult, Machine, MachineStats};
use crate::tier::ComponentId;

/// The memory interface a workload sees: plain reads and writes plus access
/// to the machine for setup (VMA registration, prefaulting).
pub trait MemEnv {
    /// Issues a load from `va` on thread `tid`.
    fn read(&mut self, tid: usize, va: VirtAddr);
    /// Issues a store to `va` on thread `tid`.
    fn write(&mut self, tid: usize, va: VirtAddr);
    /// Charges pure compute (think) time to `tid`.
    fn compute(&mut self, tid: usize, ns: f64);
    /// The underlying machine.
    fn machine(&mut self) -> &mut Machine;
}

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

    /// Installs this tenant's resource [`Share`](crate::tenant::Share)
    /// from a global arbiter: promotion-bandwidth slice and profiling
    /// budget fraction. Managers that ignore arbitration (all static
    /// baselines) keep the default no-op; fast-tier capacity is enforced
    /// separately through allocator quotas, not through the manager.
    fn set_share(&mut self, _share: crate::tenant::Share) {}

    /// Serializes the manager's dynamic state for a checkpoint, or `None`
    /// when the manager does not support checkpointing (the default).
    /// A `Some` blob must restore bit-identically via
    /// [`MemoryManager::load_state`] on a freshly built manager of the
    /// same configuration.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`MemoryManager::save_state`] into this
    /// freshly built manager. The default rejects: managers that return
    /// `None` from `save_state` cannot be resumed.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!("manager {:?} does not support checkpoint restore", self.name()))
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
    /// threads `0..threads`, one [`Workload::tick`] each (see
    /// [`round_ticks`]). `drive_interval` makes one call per round. Workloads
    /// whose tick body is generic over the environment override this to
    /// run it against `env` directly, so every access is a static call;
    /// an override must issue exactly the accesses of the ticks it
    /// replaces, in the same order.
    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(threads, |tid| self.tick(env, tid));
    }

    /// Total memory footprint in bytes (simulated scale).
    fn footprint(&self) -> u64;

    /// Footprint the workload *will* map, known before [`Workload::setup`]
    /// has laid any VMA out. Multi-tenant arbitration uses this for its
    /// initial grant: setup populates eagerly, so a deeply split quota
    /// carved blind to demand can be too small for the first touch of a
    /// tenant whose tables span more 2 MB blocks than its equal share.
    /// Implementations replicate the VMA rounding their setup performs,
    /// so the declared value equals [`Workload::footprint`] once setup
    /// ran. Defaults to `footprint()` (zero before setup).
    fn declared_footprint(&self) -> u64 {
        self.footprint()
    }

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

    /// Serializes the workload's dynamic state (RNG streams, cursors,
    /// phase counters) for a checkpoint, or `None` when the workload does
    /// not support checkpointing (the default).
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`Workload::save_state`] into this
    /// freshly built (and already set-up) workload. The default rejects.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!("workload {:?} does not support checkpoint restore", self.name()))
    }
}

/// Boxed workloads forward the whole trait, so factory-built workloads
/// plug into generic wrappers (e.g. the scenario engine's trace
/// recorder) without re-boxing.
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

    fn declared_footprint(&self) -> u64 {
        (**self).declared_footprint()
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

    fn save_state(&self) -> Option<Vec<u8>> {
        (**self).save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).load_state(bytes)
    }
}

/// Ticks each thread runs per round of the access loop. `drive_interval`
/// checks the interval's end only between rounds.
pub const ROUND_TICKS: usize = 8;

/// Calls `tick(tid)` in the access loop's round order: [`ROUND_TICKS`]
/// passes over threads `0..threads`. Every [`Workload::round`] runs its
/// ticks through this, so all of them share one order.
#[inline(always)]
pub fn round_ticks(threads: usize, mut tick: impl FnMut(usize)) {
    for _ in 0..ROUND_TICKS {
        for tid in 0..threads {
            tick(tid);
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

impl<'a> SimEnv<'a> {
    /// One access. Forced inline, so a workload's generic `step` gets its
    /// own copy of `Machine::access` at each `read`/`write` with the kind
    /// fixed, and no call; the demand-fault path stays out of line.
    #[inline(always)]
    fn do_access(&mut self, tid: usize, va: VirtAddr, kind: AccessKind) {
        if self.machine.access(tid, va, kind) != AccessResult::Ok {
            self.fault_in(tid, va, kind);
        }
    }

    /// Maps the page behind `va` where the manager places it, then
    /// retries the access.
    #[cold]
    #[inline(never)]
    fn fault_in(&mut self, tid: usize, va: VirtAddr, kind: AccessKind) {
        let order = self.manager.placement(self.machine, tid, va);
        self.machine
            .alloc_and_map(tid, va, &order)
            .unwrap_or_else(|e| panic!("placement failed for {va:?}: {e}"));
        let r = self.machine.access(tid, va, kind);
        debug_assert_eq!(r, AccessResult::Ok, "access succeeds after mapping");
    }
}

impl<'a> MemEnv for SimEnv<'a> {
    #[inline]
    fn read(&mut self, tid: usize, va: VirtAddr) {
        self.do_access(tid, va, AccessKind::Read);
    }

    #[inline]
    fn write(&mut self, tid: usize, va: VirtAddr) {
        self.do_access(tid, va, AccessKind::Write);
    }

    #[inline]
    fn compute(&mut self, tid: usize, ns: f64) {
        self.machine.compute(tid, ns);
    }

    fn machine(&mut self) -> &mut Machine {
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
/// time — the mechanism behind multi-tenant lock-step execution, where a
/// global arbiter re-splits resources between each tenant's intervals.
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

    /// Serializes the accumulated per-interval traces (checkpoint
    /// support). Together with [`Machine::save_state`] and the manager's
    /// and workload's state blobs this captures everything a resumed run
    /// needs to finish with a byte-identical report.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.window_counts.len() as u64);
        for snap in &self.window_counts {
            w.varint(snap.len() as u64);
            for c in snap {
                w.varint(c.loads);
                w.varint(c.stores);
            }
        }
        w.varint(self.interval_ns.len() as u64);
        for &v in &self.interval_ns {
            w.f64(v);
        }
        w.varint(self.ops_trace.len() as u64);
        for &v in &self.ops_trace {
            w.varint(v);
        }
        w.varint(self.breakdown_trace.len() as u64);
        for b in &self.breakdown_trace {
            w.f64(b.app_ns);
            w.f64(b.profiling_ns);
            w.f64(b.migration_ns);
        }
        self.series.save(w);
        w.f64(self.prev_breakdown.app_ns);
        w.f64(self.prev_breakdown.profiling_ns);
        w.f64(self.prev_breakdown.migration_ns);
        w.varint(self.prev_migrated);
    }

    /// Restores progress saved with [`ScenarioProgress::save`]. The
    /// machine, manager and workload must be restored separately before
    /// stepping resumes.
    pub fn load(r: &mut obs::wire::Reader) -> Result<ScenarioProgress, String> {
        let mut window_counts = Vec::new();
        for _ in 0..r.varint()? {
            let n = r.varint()? as usize;
            let mut snap = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                snap.push(ComponentCounts { loads: r.varint()?, stores: r.varint()? });
            }
            window_counts.push(snap);
        }
        let mut interval_ns = Vec::new();
        for _ in 0..r.varint()? {
            interval_ns.push(r.f64()?);
        }
        let mut ops_trace = Vec::new();
        for _ in 0..r.varint()? {
            ops_trace.push(r.varint()?);
        }
        let mut breakdown_trace = Vec::new();
        for _ in 0..r.varint()? {
            breakdown_trace.push(crate::clock::TimeBreakdown {
                app_ns: r.f64()?,
                profiling_ns: r.f64()?,
                migration_ns: r.f64()?,
            });
        }
        let series = obs::IntervalSeries::load(r)?;
        let prev_breakdown = crate::clock::TimeBreakdown {
            app_ns: r.f64()?,
            profiling_ns: r.f64()?,
            migration_ns: r.f64()?,
        };
        let prev_migrated = r.varint()?;
        Ok(ScenarioProgress {
            window_counts,
            interval_ns,
            ops_trace,
            breakdown_trace,
            series,
            prev_breakdown,
            prev_migrated,
        })
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
            round_ticks(threads, |tid| self.0.tick(env, tid));
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
