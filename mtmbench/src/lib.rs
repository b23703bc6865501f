//! `mtmbench` — a repeatable host-time benchmark of the MTM simulator.
//!
//! One invocation measures one workload for a fixed number of seconds.
//! Every sample is a fresh child process with every `MTM_*` variable
//! removed from its environment, because the R-MAT graph cache, the run
//! cache and the `MTM_*` `OnceLock`s are process-wide and users pay a
//! cold start on every run. The parent times each child from spawn to
//! exit and checks its output; children time their own phases from
//! outside the simulator's public functions ([`sample`]). A traced run
//! adds per-layer attribution through a delegating `MemoryManager`
//! wrapper, so nothing inside the simulator changes.
//!
//! Every host timing is normalized to a reference CPU speed measured by a
//! probe just before each child ([`host::cpu_probe`]): on a shared host
//! the core's speed drifts by tens of percent over minutes, and the probe
//! drifts with it.
//!
//! `BENCHMARK.json` at the repository root names the same workloads and
//! metrics as [`BenchWorkload`], [`END_TO_END`] and [`per_layer`]; the
//! smoke test keeps the two in step.

pub mod digest;
pub mod host;
pub mod runner;
pub mod sample;

/// The benchmark's workloads. Each sample is one complete, fixed-length
/// batch run; none is request-driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BenchWorkload {
    /// The real `MTM_QUICK=1 all` binary: every manager, every figure
    /// sweep, the run cache and the run pool.
    QuickAll,
    /// MTM on rotating-hot-band GUPS: profiler and migration busy in
    /// steady state; read-modify-write, so async copies get dirtied.
    GupsMtm,
    /// The same GUPS under first-touch: no profiling, no migration. The
    /// bypass control for profiler and migration changes.
    GupsFirstTouch,
    /// MTM on R-MAT BFS: set-up dominated by graph generation, and a
    /// read-only traversal whose async copies commit clean.
    BfsMtm,
}

impl BenchWorkload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::QuickAll,
        BenchWorkload::GupsMtm,
        BenchWorkload::GupsFirstTouch,
        BenchWorkload::BfsMtm,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::QuickAll => "quick_all",
            BenchWorkload::GupsMtm => "gups_mtm",
            BenchWorkload::GupsFirstTouch => "gups_first_touch",
            BenchWorkload::BfsMtm => "bfs_mtm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
    }
}

/// Wall time of one sample process, spawn to exit, best of the run's
/// samples (normalized).
pub const WALL_S: Metric = lower("wall_s", "s");
/// Set-up time of one sample, median of the run's samples (normalized).
pub const SETUP_S: Metric = lower("setup_s", "s");
/// Simulated accesses per host second of the run phase, best sample
/// (normalized).
pub const SIM_MACCESS_PER_S: Metric = higher("sim_maccess_per_s", "Maccess/s");
/// Peak resident set of the sample process, median of the run's samples.
pub const PEAK_RSS_MB: Metric = lower("peak_rss_mb", "MB");

/// The end-to-end metrics of an untraced run.
pub const END_TO_END: [Metric; 4] = [WALL_S, SETUP_S, SIM_MACCESS_PER_S, PEAK_RSS_MB];

/// Managers of the quick matrix, as the `harness.prewarm.<label>_s`
/// labels name them; every `MTM:<ablation>` variant counts as
/// `mtm-ablations`.
pub const PREWARM_LABELS: [&str; 9] = [
    "first-touch",
    "hmc",
    "vanilla-autonuma",
    "autonuma",
    "autotiering",
    "hemem",
    "MTM",
    "thermostat",
    "mtm-ablations",
];

/// The harness experiments timed by `harness.exp.<id>_s`, in paper order.
pub const EXPERIMENT_IDS: [&str; 18] = [
    "table1", "table2", "fig1", "fig3", "fig4", "table3", "table4", "fig5", "table5", "table6",
    "table7", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Per-layer metrics of a pair workload's traced run, in printing order.
pub const SIM_LAYERS: [Metric; 32] = [
    lower("workloads.build_s", "s"),
    lower("workloads.rmat_s", "s"),
    lower("sim.build_s", "s"),
    lower("sim.start_s", "s"),
    lower("manager.init_s", "s"),
    lower("manager.placement_s", "s"),
    lower("manager.placement.calls", "count"),
    lower("sim.tick_loop_s", "s"),
    lower("sim.tick_loop.ns_per_access", "ns/access"),
    higher("sim.accesses", "count"),
    higher("sim.ops", "count"),
    lower("manager.on_subinterval_s", "s"),
    lower("manager.on_subinterval.calls", "count"),
    lower("mtm.profiler.ns_per_pte_scan", "ns"),
    lower("tiersim.pte_scans", "count"),
    lower("tiersim.pebs_samples_taken", "count"),
    lower("mtm.regions_merged", "count"),
    lower("mtm.regions_split", "count"),
    lower("manager.on_interval_s", "s"),
    lower("manager.on_interval.calls", "count"),
    lower("mtm.migration.us_per_page", "us"),
    lower("tiersim.pages_migrated", "count"),
    lower("tiersim.bytes_migrated", "bytes"),
    lower("tiersim.tlb_flushes", "count"),
    lower("tiersim.hint_faults", "count"),
    lower("mtm.promotions", "count"),
    lower("mtm.demotions", "count"),
    higher("mtm.migrations_async_clean", "count"),
    lower("mtm.migrations_switched_sync", "count"),
    lower("mtm.migrations_dropped", "count"),
    higher("mtm.async_clean_ratio", "ratio"),
    lower("sim.finish_s", "s"),
];

/// Per-layer metrics of the harness, the host and the tracing itself.
pub const RUN_LAYERS: [Metric; 6] = [
    higher("harness.run_cache.hits", "count"),
    lower("harness.run_cache.misses", "count"),
    lower("host.cpu_probe_s", "s"),
    lower("host.cpu_probe_min_s", "s"),
    lower("trace.overhead_frac", "ratio"),
    higher("trace.accounted_frac", "ratio"),
];

/// Name of the `harness.prewarm` metric for a quick-matrix label.
pub fn prewarm_metric(label: &str) -> String {
    format!("harness.prewarm.{label}_s")
}

/// Name of the `harness.exp` metric for an experiment id.
pub fn experiment_metric(id: &str) -> String {
    format!("harness.exp.{id}_s")
}

/// Every per-layer metric a traced run prints (each workload prints all
/// of them; a count a workload does not produce reads 0), as
/// `(name, unit, lower_is_better)`.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out: Vec<(String, &'static str, bool)> = SIM_LAYERS
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.lower_is_better))
        .collect();
    out.extend(
        PREWARM_LABELS
            .iter()
            .map(|l| (prewarm_metric(l), "s", true)),
    );
    out.extend(
        EXPERIMENT_IDS
            .iter()
            .map(|id| (experiment_metric(id), "s", true)),
    );
    out.extend(
        RUN_LAYERS
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.lower_is_better)),
    );
    out
}
