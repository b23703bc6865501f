//! Run descriptions and cached execution of the evaluation matrix.
//!
//! A [`RunSpec`] is the one description of a run: the resolved manager,
//! the workload, the options, the topology and the fault plan. Every
//! experiment builds its runs from one, and every harness machine comes
//! from `build_machine`. `env_knobs` is the one reader of every `MTM_*`
//! setting, once per process: `MTM_QUICK` / `MTM_SCALE` / `MTM_THREADS` /
//! `MTM_INTERVALS` / `MTM_INTERVAL_NS` are [`Opts::from_env`],
//! `MTM_ADMIT` / `MTM_FAULTS` / `MTM_FAULT_SEED` shape the spec,
//! `MTM_CHECK` arms each machine,
//! `MTM_TELEMETRY` turns on telemetry export and `MTM_JOBS` sizes the
//! [`crate::runpool`]. The simulator itself reads no environment.
//!
//! Runs are memoized in a process-wide **single-flight** cache keyed by
//! the whole spec: each key owns a `OnceLock`, so the first caller of a
//! spec executes the run in `get_or_init` while any concurrent caller of
//! the same spec blocks there until that one execution publishes its
//! report. Distinct specs execute fully in parallel. [`prewarm`] schedules a whole matrix of pairs onto the
//! [`crate::runpool`] worker pool up front, so experiments that later read
//! the same runs (Fig. 4/5, Tables 3/5/7, Fig. 7, ...) render from warm
//! cache hits.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use faultsim::FaultPlan;
use mtm::{AdmissionKind, MtmConfig, MtmManager};
use mtm_baselines::{build_baseline, hemem_pebs_config};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, MemoryManager, RunReport, Workload};
use tiersim::tier::{optane_four_tier, Topology};

use crate::opts::Opts;

/// Managers of the overall evaluation (Fig. 4 plus HeMem from the text).
pub const OVERALL_MANAGERS: [&str; 7] =
    ["first-touch", "hmc", "vanilla-autonuma", "autonuma", "autotiering", "hemem", "MTM"];

/// The six workloads of Table 2.
pub const WORKLOADS: [&str; 6] = ["GUPS", "VoltDB", "Cassandra", "BFS", "SSSP", "Spark"];

/// The run knobs that come from the environment.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EnvKnobs {
    pub(crate) opts: Opts,
    admission: AdmissionKind,
    faults: Option<FaultPlan>,
    fault_seed: u64,
    pub(crate) check: bool,
    pub(crate) telemetry: bool,
    /// `MTM_JOBS`, or `None` for one worker per core.
    pub(crate) jobs: Option<usize>,
}

impl EnvKnobs {
    /// Parses the knobs from `lookup` (a variable's value, `None` when
    /// unset). A malformed value is never silently run: it falls back to
    /// its default (`always`, flags off, no faults, the default seed, one
    /// job per core, the default options) and adds one
    /// `warning:` line to the returned list. So does each `MTM_*` name in
    /// `set` (the variables that are set) that no knob reads, so a
    /// retired or misspelled setting is never silently ignored.
    fn parse(set: &[String], lookup: impl Fn(&str) -> Option<String>) -> (EnvKnobs, Vec<String>) {
        let mut env = Reader { lookup, read: Vec::new(), warnings: Vec::new() };
        let admission = env.get("MTM_ADMIT", AdmissionKind::Always, |_, s| match s {
            "" => Ok(AdmissionKind::Always),
            _ => AdmissionKind::parse(s).ok_or(format!(
                "warning: MTM_ADMIT={s:?} is not a policy \
                 (always|pingpong|ratelimit|hotness-delta); using always"
            )),
        });
        let faults = env.get("MTM_FAULTS", None, |_, spec| match FaultPlan::parse(spec) {
            Ok(plan) => Ok((!plan.is_disabled()).then_some(plan)),
            Err(e) => Err(format!("warning: ignoring MTM_FAULTS={spec:?}: {e}")),
        });
        let fault_seed = env.get("MTM_FAULT_SEED", faultsim::DEFAULT_SEED, number);
        let flags = ["MTM_QUICK", "MTM_CHECK", "MTM_TELEMETRY"];
        let [quick, check, telemetry] = flags.map(|name| env.get(name, false, flag));
        let mut opts = if quick { Opts::quick() } else { Opts::default() };
        opts.scale = env.get("MTM_SCALE", opts.scale, number);
        opts.threads = env.get("MTM_THREADS", opts.threads, number);
        opts.intervals = env.get("MTM_INTERVALS", opts.intervals, number);
        opts.interval_ns = env.get("MTM_INTERVAL_NS", opts.interval_ns, number);
        let jobs = env.get("MTM_JOBS", None, |name, raw| match raw.parse() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("warning: ignoring {name}={raw:?} (expected a positive integer)")),
        });
        let knobs = EnvKnobs { opts, admission, faults, fault_seed, check, telemetry, jobs };
        for name in set {
            let known = env.read.contains(name) || TEST_ONLY_SETTINGS.contains(&name.as_str());
            if name.starts_with("MTM_") && !known {
                env.warnings.push(format!(
                    "warning: ignoring {name} (not a setting; README.md lists every MTM_* setting)"
                ));
            }
        }
        (knobs, env.warnings)
    }
}

/// `MTM_*` variables that tests read themselves, exempt from the
/// unknown-setting warning.
const TEST_ONLY_SETTINGS: &[&str] = &["MTM_BLESS"];

/// The environment being read: a variable lookup, the names read so far
/// and the warnings so far.
struct Reader<F> {
    lookup: F,
    read: Vec<String>,
    warnings: Vec<String>,
}

impl<F: Fn(&str) -> Option<String>> Reader<F> {
    /// Knob `name`: unset is `default`; a value `parse` rejects is
    /// `default` plus the `warning:` line `parse` returned. Records that a
    /// knob reads `name`.
    fn get<T>(&mut self, name: &str, default: T, parse: Parse<T>) -> T {
        self.read.push(name.to_string());
        let Some(raw) = (self.lookup)(name) else { return default };
        parse(name, &raw).unwrap_or_else(|warning| {
            self.warnings.push(warning);
            default
        })
    }
}

/// A knob's parser: the variable's name and value to the value, or to the
/// `warning:` line that rejects it.
type Parse<T> = fn(&str, &str) -> Result<T, String>;

/// A number knob; the warning names the type it expected.
fn number<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    let expected = std::any::type_name::<T>();
    raw.parse().map_err(|_| format!("warning: ignoring {name}={raw:?} (not a valid {expected})"))
}

/// An on/off knob: `1`/`true`/`on` or `0`/`false`/`off`/empty, trimmed
/// and case-insensitive.
fn flag(name: &str, raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "" | "0" | "false" | "off" => Ok(false),
        _ => Err(format!(
            "warning: ignoring {name}={raw:?} (expected 1/true/on or 0/false/off); staying off"
        )),
    }
}

/// The environment's knobs, read and warned about once per process.
pub(crate) fn env_knobs() -> &'static EnvKnobs {
    static KNOBS: OnceLock<EnvKnobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let set: Vec<String> =
            std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()).collect();
        let (knobs, warnings) = EnvKnobs::parse(&set, |name| std::env::var(name).ok());
        for w in warnings {
            eprintln!("{w}");
        }
        knobs
    })
}

/// The base fault seed (`MTM_FAULT_SEED`, or the default) the fault
/// sweeps derive their per-cell streams from.
pub fn fault_seed() -> u64 {
    env_knobs().fault_seed
}

/// The MTM configuration for the options: the paper defaults with the
/// scaled promotion budget and the `MTM_ADMIT` setting.
pub fn mtm_config(opts: &Opts) -> MtmConfig {
    MtmConfig {
        promote_bytes: opts.promote_budget(),
        admission: env_knobs().admission,
        ..MtmConfig::default()
    }
}

/// The manager of a run, resolved to plain values.
#[derive(Clone, Debug)]
pub enum ManagerSpec {
    /// MTM, or one of its ablations, with an explicit configuration.
    Mtm(MtmConfig),
    /// A baseline, by its factory name.
    Baseline(String),
}

impl ManagerSpec {
    /// Resolves a manager name, or `None` for an unknown one: `MTM` and
    /// `MTM:<ablation>` become an explicit configuration, every name the
    /// baseline factory knows stays a name.
    pub(crate) fn resolve(name: &str, opts: &Opts) -> Option<ManagerSpec> {
        let Some(rest) = name.strip_prefix("MTM") else {
            return build_baseline(name, 0).map(|_| ManagerSpec::Baseline(name.to_string()));
        };
        let mut cfg = mtm_config(opts);
        match rest {
            "" => {}
            ":w/o-AMR" => cfg.adaptive_regions = false,
            ":w/o-APS" => cfg.adaptive_sampling = false,
            ":w/o-OC" => {
                cfg.overhead_control = false;
                cfg.adaptive_regions = false;
            }
            ":w/o-PEBS" => cfg.pebs_assist = false,
            ":w/o-async" => cfg.async_migration = false,
            ":fast-first" => cfg.initial_placement = mtm::InitialPlacement::FastLocalFirst,
            _ => return None,
        }
        Some(ManagerSpec::Mtm(cfg))
    }

    /// The name the machine is configured for (`hmc` and `hemem` get
    /// their own machine features; MTM runs on the plain machine).
    pub(crate) fn name(&self) -> &str {
        match self {
            ManagerSpec::Mtm(_) => "MTM",
            ManagerSpec::Baseline(name) => name,
        }
    }

    /// Builds the manager for a machine with `topo`'s nodes.
    pub(crate) fn build(&self, opts: &Opts, topo: &Topology) -> Box<dyn MemoryManager> {
        match self {
            ManagerSpec::Mtm(cfg) => Box::new(MtmManager::new(cfg.clone(), topo.nodes as usize)),
            ManagerSpec::Baseline(name) => build_baseline(name, opts.promote_budget())
                .unwrap_or_else(|| panic!("unknown baseline {name:?}")),
        }
    }
}

/// Builds a manager by name, or `None` for an unknown name; `MTM` and
/// `MTM:<ablation>` build the core system, everything else resolves
/// through the baseline factory.
pub fn try_build_manager(name: &str, opts: &Opts, topo: &Topology) -> Option<Box<dyn MemoryManager>> {
    ManagerSpec::resolve(name, opts).map(|m| m.build(opts, topo))
}

/// Builds a manager by name; panics on an unknown name (use
/// [`try_build_manager`] to handle that case).
pub fn build_manager(name: &str, opts: &Opts, topo: &Topology) -> Box<dyn MemoryManager> {
    try_build_manager(name, opts, topo).unwrap_or_else(|| panic!("unknown manager {name:?}"))
}

/// The machine configuration a manager runs on: `opts`' threads and
/// interval length, Memory Mode caches for `hmc`, all-component PEBS for
/// `hemem`.
pub(crate) fn machine_config(manager: &str, opts: &Opts, topo: Topology) -> MachineConfig {
    let mut cfg = MachineConfig::new(topo, opts.threads);
    cfg.interval_ns = opts.interval_ns;
    cfg.hmc_mode = manager == "hmc";
    if manager == "hemem" {
        cfg.pebs = hemem_pebs_config(&cfg.topology);
    }
    cfg
}

/// Builds a machine armed with the environment's `MTM_CHECK`. This is
/// the harness's only `Machine::new`, so every run a harness binary makes
/// honours it.
pub(crate) fn build_machine(cfg: MachineConfig) -> Machine {
    let mut machine = Machine::new(cfg);
    machine.set_checking(env_knobs().check);
    machine
}

/// Builds the machine a manager runs on, without faults: Memory Mode
/// caches for `hmc`, all-component PEBS for `hemem`.
pub fn healthy_machine_for(manager: &str, opts: &Opts, topo: Topology) -> Machine {
    build_machine(machine_config(manager, opts, topo))
}

/// One run, described by plain values. Two specs that render the same
/// `Debug` text produce the same report, which is what the run cache
/// keys on.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The manager, resolved.
    pub manager: ManagerSpec,
    /// A Table 2 workload name.
    pub workload: String,
    /// Scale, threads, intervals and interval length.
    pub opts: Opts,
    /// The machine's tiers (the four-tier Optane system by default).
    pub topology: Topology,
    /// The fault plan and the run's own seed, or `None` for a healthy
    /// machine.
    pub faults: Option<(FaultPlan, u64)>,
}

impl RunSpec {
    /// The run of `manager` on `workload` on the four-tier machine, with
    /// the environment's admission and fault settings; `None` for
    /// an unknown manager or workload. The fault stream is derived from
    /// the requested manager name, so the schedule a run sees never
    /// depends on what else ran, or in which order.
    pub fn new(manager: &str, workload: &str, opts: &Opts) -> Option<RunSpec> {
        if !mtm_workloads::catalog().iter().any(|e| e.name == workload) {
            return None;
        }
        let knobs = env_knobs();
        Some(RunSpec {
            manager: ManagerSpec::resolve(manager, opts)?,
            workload: workload.to_string(),
            opts: *opts,
            topology: optane_four_tier(opts.scale),
            faults: knobs
                .faults
                .clone()
                .map(|plan| (plan, faultsim::derive_seed(knobs.fault_seed, manager))),
        })
    }

    /// The MTM configuration, for sweeps over its knobs. Panics on a
    /// baseline spec.
    pub fn mtm_mut(&mut self) -> &mut MtmConfig {
        match &mut self.manager {
            ManagerSpec::Mtm(cfg) => cfg,
            ManagerSpec::Baseline(name) => panic!("{name:?} is not an MTM run"),
        }
    }

    /// Builds the machine (faults installed), the manager and the
    /// workload, for callers that drive the run themselves.
    pub fn build(&self) -> (Machine, Box<dyn MemoryManager>, Box<dyn Workload>) {
        let opts = &self.opts;
        let mut machine = healthy_machine_for(self.manager.name(), opts, self.topology.clone());
        if let Some((plan, seed)) = &self.faults {
            machine.install_faults(plan.clone(), *seed);
        }
        let manager = self.manager.build(opts, &self.topology);
        let workload = mtm_workloads::build_paper_workload(&self.workload, opts.scale, opts.threads)
            .unwrap_or_else(|| panic!("unknown workload {:?}", self.workload));
        (machine, manager, workload)
    }

    /// Runs the spec to its report, bypassing the run cache.
    pub fn run(&self) -> RunReport {
        let (mut machine, mut manager, mut workload) = self.build();
        run_scenario(&mut machine, manager.as_mut(), workload.as_mut(), self.opts.intervals)
    }
}

// The [`RunCacheStats`] counters.
static MISSES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static COALESCED: AtomicU64 = AtomicU64::new(0);

/// Cache-effectiveness counters for the single-flight run cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCacheStats {
    /// Runs actually executed (cache misses).
    pub misses: u64,
    /// Calls answered from a completed run.
    pub hits: u64,
    /// Calls that blocked on a run another caller was already executing
    /// (the work the single-flight design deduplicates).
    pub coalesced: u64,
}

/// A snapshot of the process-wide run-cache counters.
pub fn run_cache_stats() -> RunCacheStats {
    RunCacheStats {
        misses: MISSES.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        coalesced: COALESCED.load(Ordering::Relaxed),
    }
}

/// Runs (or returns the cached result of) one pair on the default
/// topology. Several experiments share the same underlying runs; the
/// cache keeps `all` from re-running them. Panics on an unknown manager
/// or workload.
pub fn cached_run(manager: &str, workload: &str, opts: &Opts) -> Arc<RunReport> {
    let spec = RunSpec::new(manager, workload, opts)
        .unwrap_or_else(|| panic!("unknown manager {manager:?} or workload {workload:?}"));
    cached_run_traced(&spec).0
}

/// Runs (or returns the cached result of) one spec, and reports whether
/// *this* call executed the underlying run (`true` exactly once per
/// spec).
///
/// The cache is keyed by the spec's whole `Debug` rendering, so no field
/// can be left out of the key. It is single-flight: concurrent callers of
/// the same spec block until the one execution finishes, so a spec is
/// never run twice no matter how many threads ask for it. A run that
/// panics publishes nothing, so the next caller executes it afresh.
pub fn cached_run_traced(spec: &RunSpec) -> (Arc<RunReport>, bool) {
    type Slot = Arc<OnceLock<Arc<RunReport>>>;
    static CACHE: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());
    // The map lock is held only long enough to fetch the key's slot,
    // never across a run.
    let key = format!("{spec:?}");
    let slot = CACHE.lock().expect("run cache poisoned").entry(key).or_default().clone();
    if let Some(report) = slot.get() {
        HITS.fetch_add(1, Ordering::Relaxed);
        return (report.clone(), false);
    }
    let mut ran = false;
    let report = slot.get_or_init(|| {
        ran = true;
        MISSES.fetch_add(1, Ordering::Relaxed);
        let label = format!("{}/{}", spec.manager.name(), spec.workload);
        eprintln!("[run] {label}: started");
        // lint:allow(wall-clock): stderr progress timing only; never reaches reports
        let t0 = Instant::now();
        let report = Arc::new(spec.run());
        // Export telemetry before returning, which publishes the report:
        // the snapshot travels inside the Arc'd report, so coalesced
        // waiters and later cache hits observe the identical telemetry;
        // only the caller that runs the closure writes the file, once
        // per key.
        if env_knobs().telemetry {
            let dir = std::path::Path::new(crate::metrics::TELEMETRY_DIR);
            if let Err(e) = crate::metrics::emit_telemetry_into(dir, &report.telemetry) {
                eprintln!("warning: could not write telemetry for {label}: {e}");
            }
        }
        eprintln!(
            "[run] {}/{}: finished in {:.2}s",
            report.manager,
            spec.workload,
            t0.elapsed().as_secs_f64()
        );
        report
    });
    if !ran {
        COALESCED.fetch_add(1, Ordering::Relaxed);
    }
    (report.clone(), ran)
}

/// Schedules every `(manager, workload)` pair onto the worker pool and
/// blocks until all of them are in the cache. Duplicate pairs (and pairs
/// racing with other threads) are deduplicated by the single-flight
/// cache, so prewarming is always safe to call, from anywhere, with an
/// overlapping matrix.
pub fn prewarm(pairs: &[(&str, &str)], opts: &Opts) {
    let mut todo: Vec<(String, String)> = Vec::new();
    for &(m, w) in pairs {
        let pair = (m.to_string(), w.to_string());
        if !todo.contains(&pair) {
            todo.push(pair);
        }
    }
    if todo.is_empty() {
        return;
    }
    // lint:allow(wall-clock): stderr progress timing only; never reaches reports
    let t0 = Instant::now();
    let n = todo.len();
    let workers = crate::runpool::jobs().min(n);
    crate::runpool::map_parallel(todo, |(m, w)| {
        cached_run(&m, &w, opts);
    });
    eprintln!(
        "[prewarm] {n} pair(s) ready in {:.2}s on {workers} worker(s)",
        t0.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_names_resolve() {
        let opts = Opts::quick();
        let topo = optane_four_tier(opts.scale);
        let known = OVERALL_MANAGERS.into_iter().chain(["thermostat", "damon"]).chain([
            "MTM:w/o-AMR",
            "MTM:w/o-APS",
            "MTM:w/o-OC",
            "MTM:w/o-PEBS",
            "MTM:w/o-async",
            "MTM:fast-first",
        ]);
        let unknown = ["bogus", "MTM:bogus", "MTMx", ""];
        for (name, is_known) in known.map(|n| (n, true)).chain(unknown.map(|n| (n, false))) {
            let built = try_build_manager(name, &opts, &topo);
            assert_eq!(built.is_some(), is_known, "{name:?}");
            if let Some(m) = built {
                assert!(!m.name().is_empty(), "{name:?}");
            }
            assert_eq!(RunSpec::new(name, "GUPS", &opts).is_some(), is_known, "{name:?}");
        }
        for workload in WORKLOADS {
            assert!(RunSpec::new("MTM", workload, &opts).is_some(), "{workload:?}");
        }
        assert!(RunSpec::new("MTM", "bogus", &opts).is_none());
    }

    #[test]
    fn env_knobs_parse_every_spelling_and_warn_on_malformed_values() {
        // Every knob unset: the defaults, silently.
        let (default, warnings) = EnvKnobs::parse(&[], |_| None);
        assert!(warnings.is_empty(), "{warnings:?}");
        let want = EnvKnobs {
            opts: Opts::default(),
            admission: AdmissionKind::Always,
            faults: None,
            fault_seed: faultsim::DEFAULT_SEED,
            check: false,
            telemetry: false,
            jobs: None,
        };
        assert_eq!(default, want);
        type Edit = fn(&mut EnvKnobs);
        let keep: Edit = |_| {};
        let warn = |line: &str| Some(format!("warning: ignoring {line}"));
        let unknown = |name: &str| {
            warn(&format!("{name} (not a setting; README.md lists every MTM_* setting)"))
        };
        let bad_plan = FaultPlan::parse("busy=-1").expect_err("negative probability");
        let bad_admit = "warning: MTM_ADMIT=\"greedy\" is not a policy \
                         (always|pingpong|ratelimit|hotness-delta); using always";
        // (variable, value, expected change from the default, warning)
        let mut cases: Vec<(&str, &str, Edit, Option<String>)> = vec![
            ("MTM_ADMIT", "always", keep, None),
            ("MTM_ADMIT", "pingpong", |k| k.admission = AdmissionKind::PingPong, None),
            ("MTM_ADMIT", "ratelimit", |k| k.admission = AdmissionKind::RateLimit, None),
            ("MTM_ADMIT", "hotness-delta", |k| k.admission = AdmissionKind::HotnessDelta, None),
            ("MTM_ADMIT", "", keep, None),
            ("MTM_ADMIT", "greedy", keep, Some(bad_admit.into())),
            ("MTM_FAULTS", "busy=0.5", |k| k.faults = FaultPlan::parse("busy=0.5").ok(), None),
            ("MTM_FAULTS", "busy=0", keep, None),
            ("MTM_FAULTS", "  ", keep, None),
            ("MTM_FAULTS", "busy=-1", keep, warn(&format!("MTM_FAULTS=\"busy=-1\": {bad_plan}"))),
            ("MTM_FAULT_SEED", "42", |k| k.fault_seed = 42, None),
            ("MTM_FAULT_SEED", "-3", keep, warn("MTM_FAULT_SEED=\"-3\" (not a valid u64)")),
            ("MTM_RUN_WORKERS", "4", keep, unknown("MTM_RUN_WORKERS")),
            ("MTM_TENANTS", "2", keep, unknown("MTM_TENANTS")),
            ("MTM_SHADOW", "1", keep, unknown("MTM_SHADOW")),
            ("MTM_ARBITER", "static-equal", keep, unknown("MTM_ARBITER")),
            ("MTM_SCENARIO_SET", "KVDrift", keep, unknown("MTM_SCENARIO_SET")),
            ("MTM_SCENARIO_INTERVALS", "12", keep, unknown("MTM_SCENARIO_INTERVALS")),
            ("MTM_QUIK", "1", keep, unknown("MTM_QUIK")),
            ("MTM_BLESS", "1", keep, None),
            ("CARGO_TARGET_DIR", "target", keep, None),
            ("MTM_SCALE", "64", |k| k.opts.scale = 64, None),
            ("MTM_SCALE", "6 4", keep, warn("MTM_SCALE=\"6 4\" (not a valid u64)")),
            ("MTM_THREADS", "2", |k| k.opts.threads = 2, None),
            ("MTM_THREADS", "-2", keep, warn("MTM_THREADS=\"-2\" (not a valid usize)")),
            ("MTM_INTERVALS", "7", |k| k.opts.intervals = 7, None),
            ("MTM_INTERVALS", "", keep, warn("MTM_INTERVALS=\"\" (not a valid u64)")),
            ("MTM_INTERVAL_NS", "1e6", |k| k.opts.interval_ns = 1e6, None),
            ("MTM_INTERVAL_NS", "fast", keep, warn("MTM_INTERVAL_NS=\"fast\" (not a valid f64)")),
            ("MTM_JOBS", "4", |k| k.jobs = Some(4), None),
            ("MTM_JOBS", "1", |k| k.jobs = Some(1), None),
            ("MTM_JOBS", "0", keep, warn("MTM_JOBS=\"0\" (expected a positive integer)")),
            ("MTM_JOBS", "four", keep, warn("MTM_JOBS=\"four\" (expected a positive integer)")),
            ("MTM_JOBS", "", keep, warn("MTM_JOBS=\"\" (expected a positive integer)")),
        ];
        let flags: [(&str, Edit); 3] = [
            ("MTM_QUICK", |k| k.opts = Opts::quick()),
            ("MTM_CHECK", |k| k.check = true),
            ("MTM_TELEMETRY", |k| k.telemetry = true),
        ];
        for (var, set) in flags {
            for on in ["1", "true", "on", " TRUE ", "On"] {
                cases.push((var, on, set, None));
            }
            for off in ["", "0", "false", "off", " OFF "] {
                cases.push((var, off, keep, None));
            }
            let expected = "(expected 1/true/on or 0/false/off); staying off";
            cases.push((var, "yes", keep, warn(&format!("{var}=\"yes\" {expected}"))));
        }
        for (var, value, edit, warning) in cases {
            let set = [var.to_string()];
            let (knobs, warnings) =
                EnvKnobs::parse(&set, |name| (name == var).then(|| value.to_string()));
            let mut want = default.clone();
            edit(&mut want);
            assert_eq!(knobs, want, "{var}={value:?}");
            assert_eq!(warnings, Vec::from_iter(warning), "{var}={value:?}");
        }
    }

    #[test]
    fn cached_run_returns_same_instance() {
        let mut opts = Opts::quick();
        opts.intervals = 2;
        opts.scale = 1 << 14;
        let a = cached_run("first-touch", "GUPS", &opts);
        let b = cached_run("first-touch", "GUPS", &opts);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.total_ns > 0.0);
    }

    #[test]
    fn specs_differing_in_faults_or_admission_are_distinct_runs() {
        let mut opts = Opts::quick();
        opts.scale = 1 << 13;
        opts.threads = 2;
        opts.intervals = 6;
        opts.interval_ns = 0.75e6; // distinctive key component
        let healthy = RunSpec::new("MTM", "GUPS", &opts).expect("known pair");
        let mut faulty = healthy.clone();
        let plan = FaultPlan::parse("busy=0.5,allocfail=0.25").expect("valid spec");
        faulty.faults = Some((plan, 7));
        let mut admitted = healthy.clone();
        admitted.mtm_mut().admission = AdmissionKind::PingPong;
        let (a, ran_a) = cached_run_traced(&healthy);
        let (b, ran_b) = cached_run_traced(&faulty);
        let (c, ran_c) = cached_run_traced(&admitted);
        assert!(ran_a && ran_b && ran_c, "each spec is its own cache miss");
        assert_ne!(format!("{a:?}"), format!("{b:?}"), "faults changed nothing");
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "admission changed nothing");
        assert!(!cached_run_traced(&faulty).1, "a repeated spec is a hit");
    }
}
