//! One sample, run in-process: workload construction, scenario set-up,
//! the interval loop and the final report, each timed from outside.
//!
//! A traced sample wraps the manager in `Timed`, a delegating
//! `MemoryManager` that times every hook call. The wrapper forwards every
//! trait method, so a traced run produces the same report (and digest) as
//! an untraced one; the runner checks that it does.

use std::time::Instant;

use mtm_harness::runs::{
    cached_run, healthy_machine_for, run_cache_stats, try_build_manager, OVERALL_MANAGERS,
    WORKLOADS,
};
use mtm_harness::Opts;
use mtm_workloads::graph::{cached_rmat, RmatParams};
use mtm_workloads::{BfsConfig, Gups, GupsConfig, SsspConfig};
use tiersim::addr::VirtAddr;
use tiersim::machine::Machine;
use tiersim::sim::{MemoryManager, RegionStats, RunReport, ScenarioProgress, Workload};
use tiersim::tier::{optane_four_tier, ComponentId};

use crate::digest::{report_digest, Fnv};
use crate::host::{now, secs_since};
use crate::BenchWorkload;

/// Application threads of the pair workloads (the paper's default).
const THREADS: usize = 8;
/// Virtual length of one profiling interval of the pair workloads, ns.
const INTERVAL_NS: f64 = 2.0e6;
/// GUPS rotates its hot band every this many intervals, so the profiler
/// and the migration engine stay busy in steady state.
const GUPS_ROTATE_EVERY: u64 = 12;

/// Size of a pair workload: the capacity divisor and the run length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairSpec {
    /// Capacity/footprint divisor relative to the paper's hardware.
    pub scale: u64,
    /// Profiling intervals per run.
    pub intervals: u64,
}

impl PairSpec {
    /// The benchmark size of `wl`; `None` for `quick_all`, whose size is
    /// `Opts::quick()`.
    pub fn bench(wl: BenchWorkload) -> Option<PairSpec> {
        match wl {
            BenchWorkload::QuickAll => None,
            BenchWorkload::GupsMtm | BenchWorkload::GupsFirstTouch => Some(PairSpec {
                scale: 256,
                intervals: 1500,
            }),
            BenchWorkload::BfsMtm => Some(PairSpec {
                scale: 2048,
                intervals: 600,
            }),
        }
    }

    fn opts(self) -> Opts {
        Opts {
            scale: self.scale,
            threads: THREADS,
            intervals: self.intervals,
            interval_ns: INTERVAL_NS,
            quick: false,
        }
    }
}

/// Host time and call count of one manager hook.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hook {
    /// Host seconds spent in the hook.
    pub secs: f64,
    /// Calls made.
    pub calls: u64,
}

impl Hook {
    fn record(&mut self, since: Instant) {
        self.secs += secs_since(since);
        self.calls += 1;
    }

    fn add(&mut self, o: Hook) {
        self.secs += o.secs;
        self.calls += o.calls;
    }
}

/// Host time of the manager's hooks (all zero in an untraced sample).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hooks {
    /// `init`.
    pub init: Hook,
    /// `placement` during set-up, before `init` (the populate phase).
    pub placement_setup: Hook,
    /// `placement` during the interval loop (demand faults).
    pub placement_run: Hook,
    /// `on_subinterval`.
    pub on_subinterval: Hook,
    /// `on_interval`.
    pub on_interval: Hook,
}

impl Hooks {
    fn add(&mut self, o: &Hooks) {
        self.init.add(o.init);
        self.placement_setup.add(o.placement_setup);
        self.placement_run.add(o.placement_run);
        self.on_subinterval.add(o.on_subinterval);
        self.on_interval.add(o.on_interval);
    }
}

/// A delegating manager that times every hook of the manager it wraps.
struct Timed<'a> {
    inner: &'a mut dyn MemoryManager,
    hooks: Hooks,
}

impl MemoryManager for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, m: &mut Machine) {
        let t = now();
        self.inner.init(m);
        self.hooks.init.record(t);
    }

    fn placement(&mut self, m: &Machine, tid: usize, va: VirtAddr) -> Vec<ComponentId> {
        let t = now();
        let order = self.inner.placement(m, tid, va);
        // `ScenarioProgress::start` populates before it calls `init`, so
        // calls before `init` are set-up faults and later ones run faults.
        if self.hooks.init.calls == 0 {
            self.hooks.placement_setup.record(t);
        } else {
            self.hooks.placement_run.record(t);
        }
        order
    }

    fn on_interval(&mut self, m: &mut Machine, interval: u64) {
        let t = now();
        self.inner.on_interval(m, interval);
        self.hooks.on_interval.record(t);
    }

    fn sub_intervals(&self) -> u32 {
        self.inner.sub_intervals()
    }

    fn on_subinterval(&mut self, m: &mut Machine, interval: u64, k: u32) {
        let t = now();
        self.inner.on_subinterval(m, interval, k);
        self.hooks.on_subinterval.record(t);
    }

    fn hot_bytes_identified(&self) -> u64 {
        self.inner.hot_bytes_identified()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }

    fn region_stats(&self) -> Option<RegionStats> {
        self.inner.region_stats()
    }

    fn set_share(&mut self, share: tiersim::Share) {
        self.inner.set_share(share);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.load_state(bytes)
    }
}

/// Host seconds of each phase of one or more scenario runs (summed).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Phases {
    /// Workload construction, including R-MAT generation.
    pub workload_s: f64,
    /// The R-MAT part of `workload_s`.
    pub rmat_s: f64,
    /// Machine and manager construction.
    pub machine_s: f64,
    /// `ScenarioProgress::start`: VMA layout and populate, manager init.
    pub start_s: f64,
    /// The interval loop (`step_interval` for every interval).
    pub loop_s: f64,
    /// `ScenarioProgress::finish`: the telemetry fold and the report.
    pub finish_s: f64,
    /// Manager hook times inside `start_s` and `loop_s` (traced only).
    pub hooks: Hooks,
}

impl Phases {
    fn add(&mut self, o: &Phases) {
        self.workload_s += o.workload_s;
        self.rmat_s += o.rmat_s;
        self.machine_s += o.machine_s;
        self.start_s += o.start_s;
        self.loop_s += o.loop_s;
        self.finish_s += o.finish_s;
        self.hooks.add(&o.hooks);
    }

    /// Construction plus scenario start.
    pub fn setup_s(&self) -> f64 {
        self.workload_s + self.machine_s + self.start_s
    }

    /// The interval loop plus `finish`.
    pub fn run_s(&self) -> f64 {
        self.loop_s + self.finish_s
    }

    /// Every timed phase.
    pub fn total_s(&self) -> f64 {
        self.setup_s() + self.run_s()
    }

    /// The interval loop's self time: the loop minus the manager hooks
    /// that run inside it.
    pub fn tick_loop_s(&self) -> f64 {
        let h = &self.hooks;
        self.loop_s - h.on_subinterval.secs - h.on_interval.secs - h.placement_run.secs
    }
}

/// Simulated work and model counters of one or more runs (summed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated loads plus stores.
    pub accesses: u64,
    /// Workload operations completed.
    pub ops: u64,
    /// PTE scans.
    pub pte_scans: u64,
    /// PEBS samples taken.
    pub pebs_samples_taken: u64,
    /// Pages migrated.
    pub pages_migrated: u64,
    /// Bytes migrated.
    pub bytes_migrated: u64,
    /// TLB flushes.
    pub tlb_flushes: u64,
    /// Hint faults.
    pub hint_faults: u64,
    /// MTM promotions.
    pub promotions: u64,
    /// MTM demotions.
    pub demotions: u64,
    /// Async copies committed clean.
    pub async_clean: u64,
    /// Async copies dirtied and switched to sync.
    pub switched_sync: u64,
    /// Migrations dropped.
    pub dropped: u64,
    /// Regions merged.
    pub regions_merged: u64,
    /// Regions split.
    pub regions_split: u64,
}

impl Counts {
    /// The counters of one report.
    pub fn of(r: &RunReport) -> Counts {
        let reg = &r.telemetry.registry;
        Counts {
            accesses: r.component_counts.iter().map(|c| c.loads + c.stores).sum(),
            ops: r.ops_completed,
            pte_scans: r.machine.pte_scans,
            pebs_samples_taken: reg.counter(obs::names::PEBS_SAMPLES_TAKEN),
            pages_migrated: r.machine.pages_migrated,
            bytes_migrated: r.machine.bytes_migrated,
            tlb_flushes: r.machine.tlb_flushes,
            hint_faults: r.machine.hint_faults,
            promotions: reg.counter(obs::names::PROMOTIONS),
            demotions: reg.counter(obs::names::DEMOTIONS),
            async_clean: reg.counter(obs::names::ASYNC_CLEAN),
            switched_sync: reg.counter(obs::names::SWITCHED_SYNC),
            dropped: reg.counter(obs::names::MIGRATIONS_DROPPED),
            regions_merged: reg.counter(obs::names::REGIONS_MERGED),
            regions_split: reg.counter(obs::names::REGIONS_SPLIT),
        }
    }

    fn add(&mut self, o: &Counts) {
        self.accesses += o.accesses;
        self.ops += o.ops;
        self.pte_scans += o.pte_scans;
        self.pebs_samples_taken += o.pebs_samples_taken;
        self.pages_migrated += o.pages_migrated;
        self.bytes_migrated += o.bytes_migrated;
        self.tlb_flushes += o.tlb_flushes;
        self.hint_faults += o.hint_faults;
        self.promotions += o.promotions;
        self.demotions += o.demotions;
        self.async_clean += o.async_clean;
        self.switched_sync += o.switched_sync;
        self.dropped += o.dropped;
        self.regions_merged += o.regions_merged;
        self.regions_split += o.regions_split;
    }
}

/// The result of one sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    /// Host time per phase.
    pub phases: Phases,
    /// Simulated work and counters.
    pub counts: Counts,
    /// Digest of the simulated statistics of every run in the sample.
    pub digest: u64,
}

/// `num` per unit of `den`. A zero count divides as one, so a workload
/// that never does the work reports the whole time spent, a measured
/// value, rather than a constant zero.
fn per(num: f64, den: u64) -> f64 {
    num / den.max(1) as f64
}

impl Sample {
    /// Simulated millions of accesses per host second of the run phase.
    pub fn maccess_per_s(&self) -> f64 {
        self.counts.accesses as f64 / self.phases.run_s() / 1e6
    }

    /// The [`crate::SIM_LAYERS`] metrics, in that order.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let p = &self.phases;
        let h = &p.hooks;
        let c = &self.counts;
        let placement = p.hooks.placement_setup.secs + p.hooks.placement_run.secs;
        let placement_calls = h.placement_setup.calls + h.placement_run.calls;
        vec![
            ("workloads.build_s", p.workload_s),
            ("workloads.rmat_s", p.rmat_s),
            ("sim.build_s", p.machine_s),
            ("sim.start_s", p.start_s),
            ("manager.init_s", h.init.secs),
            ("manager.placement_s", placement),
            ("manager.placement.calls", placement_calls as f64),
            ("sim.tick_loop_s", p.tick_loop_s()),
            (
                "sim.tick_loop.ns_per_access",
                per(p.tick_loop_s() * 1e9, c.accesses),
            ),
            ("sim.accesses", c.accesses as f64),
            ("sim.ops", c.ops as f64),
            ("manager.on_subinterval_s", h.on_subinterval.secs),
            (
                "manager.on_subinterval.calls",
                h.on_subinterval.calls as f64,
            ),
            (
                "mtm.profiler.ns_per_pte_scan",
                per(h.on_subinterval.secs * 1e9, c.pte_scans),
            ),
            ("tiersim.pte_scans", c.pte_scans as f64),
            ("tiersim.pebs_samples_taken", c.pebs_samples_taken as f64),
            ("mtm.regions_merged", c.regions_merged as f64),
            ("mtm.regions_split", c.regions_split as f64),
            ("manager.on_interval_s", h.on_interval.secs),
            ("manager.on_interval.calls", h.on_interval.calls as f64),
            (
                "mtm.migration.us_per_page",
                per(h.on_interval.secs * 1e6, c.pages_migrated),
            ),
            ("tiersim.pages_migrated", c.pages_migrated as f64),
            ("tiersim.bytes_migrated", c.bytes_migrated as f64),
            ("tiersim.tlb_flushes", c.tlb_flushes as f64),
            ("tiersim.hint_faults", c.hint_faults as f64),
            ("mtm.promotions", c.promotions as f64),
            ("mtm.demotions", c.demotions as f64),
            ("mtm.migrations_async_clean", c.async_clean as f64),
            ("mtm.migrations_switched_sync", c.switched_sync as f64),
            ("mtm.migrations_dropped", c.dropped as f64),
            (
                "mtm.async_clean_ratio",
                per(c.async_clean as f64, c.async_clean + c.switched_sync),
            ),
            ("sim.finish_s", p.finish_s),
        ]
    }
}

/// Builds machine and manager, then runs the scenario to its report,
/// timing each phase into `p`.
fn run_built(
    manager: &str,
    opts: &Opts,
    workload: &mut dyn Workload,
    traced: bool,
    p: &mut Phases,
) -> Result<RunReport, String> {
    let t = now();
    let topo = optane_four_tier(opts.scale);
    let mut machine = healthy_machine_for(manager, opts, topo.clone());
    let mut mgr = try_build_manager(manager, opts, &topo)
        .ok_or_else(|| format!("unknown manager {manager:?}"))?;
    p.machine_s += secs_since(t);
    if !traced {
        return Ok(drive(
            &mut machine,
            mgr.as_mut(),
            workload,
            opts.intervals,
            p,
        ));
    }
    let mut timed = Timed {
        inner: mgr.as_mut(),
        hooks: Hooks::default(),
    };
    let report = drive(&mut machine, &mut timed, workload, opts.intervals, p);
    p.hooks.add(&timed.hooks);
    Ok(report)
}

/// `run_scenario`, split into its timed phases.
fn drive(
    machine: &mut Machine,
    mgr: &mut dyn MemoryManager,
    workload: &mut dyn Workload,
    intervals: u64,
    p: &mut Phases,
) -> RunReport {
    let t = now();
    let mut progress = ScenarioProgress::start(machine, mgr, workload);
    p.start_s += secs_since(t);
    let t = now();
    for ivl in 0..intervals {
        progress.step_interval(machine, mgr, workload, ivl);
    }
    p.loop_s += secs_since(t);
    let t = now();
    let report = progress.finish(machine, mgr, workload);
    p.finish_s += secs_since(t);
    report
}

/// Runs one sample of a pair workload at `spec`, its inputs derived from
/// `seed` (seed 0 is the paper configuration).
pub fn pair(wl: BenchWorkload, spec: PairSpec, seed: u64, traced: bool) -> Result<Sample, String> {
    let opts = spec.opts();
    let mut p = Phases::default();
    let t = now();
    let (manager, mut workload): (&str, Box<dyn Workload>) = match wl {
        BenchWorkload::GupsMtm | BenchWorkload::GupsFirstTouch => {
            let mut c = GupsConfig::paper(spec.scale, THREADS);
            c.rotate_every = Some(GUPS_ROTATE_EVERY);
            c.seed ^= seed;
            p.rmat_s = build_graph(None);
            let manager = if wl == BenchWorkload::GupsMtm {
                "MTM"
            } else {
                "first-touch"
            };
            (manager, Box::new(Gups::new(c)))
        }
        BenchWorkload::BfsMtm => {
            let mut c = BfsConfig::paper(spec.scale, THREADS);
            c.graph.seed ^= seed;
            c.seed ^= seed;
            p.rmat_s = build_graph(Some(c.graph));
            ("MTM", Box::new(mtm_workloads::Bfs::new(c)))
        }
        BenchWorkload::QuickAll => return Err("quick_all is not a pair workload".into()),
    };
    p.workload_s = secs_since(t);
    let report = run_built(manager, &opts, workload.as_mut(), traced, &mut p)?;
    Ok(Sample {
        phases: p,
        counts: Counts::of(&report),
        digest: report_digest(&report),
    })
}

/// Generates (or fetches from the process-wide cache) the R-MAT graph a
/// workload is about to build on, and returns the host seconds it took.
/// Workloads without a graph time an empty step.
fn build_graph(graph: Option<RmatParams>) -> f64 {
    let t = now();
    if let Some(g) = graph {
        cached_rmat(g);
    }
    secs_since(t)
}

/// The R-MAT graph a quick-matrix workload builds on, if any.
fn quick_graph(workload: &str, opts: &Opts) -> Option<RmatParams> {
    match workload {
        "BFS" => Some(BfsConfig::paper(opts.scale, opts.threads).graph),
        "SSSP" => Some(SsspConfig::paper(opts.scale, opts.threads).graph),
        _ => None,
    }
}

/// The (manager, workload) pairs `all` prewarms: the overall matrix plus
/// the Fig. 7 ablations on VoltDB, without duplicates, in `all`'s order.
///
/// This repeats how `all` composes its list. The runner keeps the copy
/// honest: every `all` sample must execute exactly this many runs, and
/// the harness child fails if an experiment needs a pair outside it.
pub fn quick_pairs() -> Vec<(&'static str, &'static str)> {
    let mut pairs = mtm_harness::overall::matrix(&OVERALL_MANAGERS, &WORKLOADS);
    pairs.extend(mtm_harness::fig7::SYSTEMS.iter().map(|&s| (s, "VoltDB")));
    let mut unique = Vec::with_capacity(pairs.len());
    for pair in pairs {
        if !unique.contains(&pair) {
            unique.push(pair);
        }
    }
    unique
}

/// The `harness.prewarm` label of a manager.
pub fn prewarm_label(manager: &'static str) -> &'static str {
    if manager.starts_with("MTM:") {
        "mtm-ablations"
    } else {
        manager
    }
}

/// Runs every quick-matrix pair serially on one worker, as `all`'s
/// prewarm would with one job, with the phases of every pair summed. The
/// graph workloads share one R-MAT graph, generated by the first of them.
///
/// `quick_all` needs this because the benchmark reports every end-to-end
/// metric for every workload, and `all` exposes neither its set-up time
/// nor its simulated access count.
pub(crate) fn matrix(traced: bool) -> Result<Sample, String> {
    let opts = Opts::quick();
    let mut s = Sample::default();
    let mut digest = Fnv::default();
    for (manager, name) in quick_pairs() {
        let mut p = Phases::default();
        let t = now();
        p.rmat_s = build_graph(quick_graph(name, &opts));
        let mut workload = mtm_workloads::build_paper_workload(name, opts.scale, opts.threads)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        p.workload_s = secs_since(t);
        let report = run_built(manager, &opts, workload.as_mut(), traced, &mut p)?;
        digest.u64(report_digest(&report));
        s.counts.add(&Counts::of(&report));
        s.phases.add(&p);
    }
    s.digest = digest.finish();
    Ok(s)
}

/// What [`harness`] measured.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HarnessTimes {
    /// Host seconds of `cached_run` per quick-matrix manager label.
    pub per_label: Vec<(&'static str, f64)>,
    /// Host seconds per experiment id, in paper order.
    pub per_id: Vec<(&'static str, f64)>,
    /// Whether the combined report equals `expected` byte for byte.
    pub output_matches: bool,
    /// Run-cache hits over the whole sample.
    pub cache_hits: u64,
    /// Run-cache misses (executed runs) over the whole sample.
    pub cache_misses: u64,
}

/// Does what `all` does at `Opts::quick()`, timed per manager and per
/// experiment: runs the matrix through the harness's run cache serially,
/// then renders every experiment from it. The shared R-MAT graph is built
/// first, because it is a cost of the workload and not of whichever
/// manager runs it first. The combined report is compared with `expected`
/// (the committed `results/ALL.txt`); nothing is written.
pub(crate) fn harness(expected: &str) -> HarnessTimes {
    let opts = Opts::quick();
    for name in WORKLOADS {
        build_graph(quick_graph(name, &opts));
    }
    let mut per_label: Vec<(&'static str, f64)> = Vec::new();
    for (manager, name) in quick_pairs() {
        let t = now();
        cached_run(manager, name, &opts);
        let secs = secs_since(t);
        let label = prewarm_label(manager);
        match per_label.iter_mut().find(|(l, _)| *l == label) {
            Some((_, total)) => *total += secs,
            None => per_label.push((label, secs)),
        }
    }
    let mut combined = String::new();
    let mut per_id = Vec::new();
    for e in mtm_harness::experiments() {
        let t = now();
        let out = (e.run)(&opts);
        per_id.push((e.id, secs_since(t)));
        combined.push_str(&out);
        combined.push_str("\n\n");
    }
    let stats = run_cache_stats();
    HarnessTimes {
        per_label,
        per_id,
        output_matches: combined == expected,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
    }
}
