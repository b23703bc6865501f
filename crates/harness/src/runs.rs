//! Run descriptions and cached execution of the evaluation matrix.
//!
//! A [`RunSpec`] is the one description of a run: the resolved manager,
//! the workload, the options, the topology and the fault plan. Every
//! experiment builds its runs from one, and [`RunSpec::new`] is the only
//! place the `MTM_ADMIT` / `MTM_SHADOW` / `MTM_FAULTS` / `MTM_FAULT_SEED`
//! knobs are read.
//!
//! Runs are memoized in a process-wide **single-flight** cache keyed by
//! the whole spec: the first caller of a spec executes the run while any
//! concurrent caller of the same spec blocks on a `Condvar` until that one
//! execution publishes its report. Distinct specs execute fully in
//! parallel. [`prewarm`] schedules a whole matrix of pairs onto the
//! [`crate::runpool`] worker pool up front, so experiments that later read
//! the same runs (Fig. 4/5, Tables 3/5/7, Fig. 7, ...) render from warm
//! cache hits.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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
struct EnvKnobs {
    admission: AdmissionKind,
    shadow: bool,
    faults: Option<FaultPlan>,
    fault_seed: u64,
}

/// Reads `MTM_ADMIT`, `MTM_SHADOW`, `MTM_FAULTS` and `MTM_FAULT_SEED`
/// once per process. A malformed value prints a `warning:` line — once —
/// and falls back to the default (`always`, shadow off, no faults, the
/// default seed) instead of silently running something the user did not
/// ask for. With all four unset every result is identical to a build
/// without the admission and fault planes.
fn env_knobs() -> &'static EnvKnobs {
    static KNOBS: OnceLock<EnvKnobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let admission = match std::env::var("MTM_ADMIT") {
            Ok(s) if !s.is_empty() => AdmissionKind::parse(&s).unwrap_or_else(|| {
                eprintln!(
                    "warning: MTM_ADMIT={s:?} is not a policy \
                     (always|pingpong|ratelimit|hotness-delta); using always"
                );
                AdmissionKind::Always
            }),
            _ => AdmissionKind::Always,
        };
        let shadow = match std::env::var("MTM_SHADOW").as_deref() {
            Ok("1") => true,
            Ok("") | Ok("0") | Err(_) => false,
            Ok(s) => {
                eprintln!("warning: MTM_SHADOW={s:?} is not 0 or 1; shadow mode stays off");
                false
            }
        };
        let faults = match std::env::var("MTM_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
                Ok(plan) => (!plan.is_disabled()).then_some(plan),
                Err(e) => {
                    eprintln!("warning: ignoring MTM_FAULTS={spec:?}: {e}");
                    None
                }
            },
            _ => None,
        };
        let fault_seed = match std::env::var("MTM_FAULT_SEED") {
            Ok(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("warning: ignoring MTM_FAULT_SEED={raw:?} (not a u64); using default");
                faultsim::DEFAULT_SEED
            }),
            Err(_) => faultsim::DEFAULT_SEED,
        };
        EnvKnobs { admission, shadow, faults, fault_seed }
    })
}

/// The base fault seed (`MTM_FAULT_SEED`, or the default) the fault
/// sweeps derive their per-cell streams from.
pub fn fault_seed() -> u64 {
    env_knobs().fault_seed
}

/// The MTM configuration for the options: the paper defaults with the
/// scaled promotion budget and the `MTM_ADMIT` / `MTM_SHADOW` settings.
pub fn mtm_config(opts: &Opts) -> MtmConfig {
    let knobs = env_knobs();
    MtmConfig {
        promote_bytes: opts.promote_budget(),
        admission: knobs.admission,
        shadow: knobs.shadow,
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

/// Builds the machine a manager runs on, without faults: Memory Mode
/// caches for `hmc`, all-component PEBS for `hemem`.
pub fn healthy_machine_for(manager: &str, opts: &Opts, topo: Topology) -> Machine {
    let mut cfg = MachineConfig::new(topo.clone(), opts.threads);
    cfg.interval_ns = opts.interval_ns;
    if manager == "hmc" {
        cfg.hmc_mode = true;
    }
    if manager == "hemem" {
        cfg.pebs = hemem_pebs_config(&topo);
    }
    Machine::new(cfg)
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
    /// the environment's admission, shadow and fault settings; `None` for
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

/// One cache entry. `Pending` while the owning caller executes the run,
/// `Ready` once the report is published, `Abandoned` if the owner
/// panicked (waiters then retry and one of them becomes the new owner).
enum SlotState {
    Pending,
    Ready(Arc<RunReport>),
    Abandoned,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot { state: Mutex::new(SlotState::Pending), cv: Condvar::new() }
    }
}

type Cache = Mutex<BTreeMap<String, Arc<Slot>>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

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

/// A snapshot of the process-wide run-cache counters (kept in the shared
/// observability registry, [`obs::shared`]).
pub fn run_cache_stats() -> RunCacheStats {
    let shared = obs::shared();
    RunCacheStats {
        misses: shared.get(obs::names::RUN_CACHE_MISSES),
        hits: shared.get(obs::names::RUN_CACHE_HITS),
        coalesced: shared.get(obs::names::RUN_CACHE_COALESCED),
    }
}

/// Marks the slot abandoned (and evicts it) if the owner unwinds before
/// publishing a report, so waiters wake up and retry instead of hanging.
struct OwnerGuard<'a> {
    key: &'a str,
    slot: &'a Arc<Slot>,
    published: bool,
}

impl Drop for OwnerGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        cache().lock().expect("run cache poisoned").remove(self.key);
        *self.slot.state.lock().expect("run slot poisoned") = SlotState::Abandoned;
        self.slot.cv.notify_all();
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
/// never run twice no matter how many threads ask for it.
pub fn cached_run_traced(spec: &RunSpec) -> (Arc<RunReport>, bool) {
    let key = format!("{spec:?}");
    loop {
        let (slot, owner) = {
            let mut map = cache().lock().expect("run cache poisoned");
            match map.entry(key.clone()) {
                Entry::Occupied(e) => (e.get().clone(), false),
                Entry::Vacant(v) => {
                    let slot = Arc::new(Slot::new());
                    v.insert(slot.clone());
                    (slot, true)
                }
            }
        };
        if owner {
            obs::shared().add(obs::names::RUN_CACHE_MISSES, 1);
            let label = format!("{}/{}", spec.manager.name(), spec.workload);
            eprintln!("[run] {label}: started");
            // lint:allow(wall-clock): stderr progress timing only; never reaches reports
            let t0 = Instant::now();
            let mut guard = OwnerGuard { key: &key, slot: &slot, published: false };
            let report = Arc::new(spec.run());
            // Export telemetry before publishing: the snapshot travels
            // inside the Arc'd report, so coalesced waiters and later
            // cache hits observe the identical telemetry; only the owner
            // writes the file, once per key.
            if crate::metrics::telemetry_enabled() {
                if let Err(e) = crate::metrics::emit_telemetry(&report.telemetry) {
                    eprintln!("warning: could not write telemetry for {label}: {e}");
                }
            }
            *slot.state.lock().expect("run slot poisoned") = SlotState::Ready(report.clone());
            guard.published = true;
            slot.cv.notify_all();
            eprintln!(
                "[run] {}/{}: finished in {:.2}s",
                report.manager,
                spec.workload,
                t0.elapsed().as_secs_f64()
            );
            return (report, true);
        }
        let mut state = slot.state.lock().expect("run slot poisoned");
        if let SlotState::Ready(r) = &*state {
            obs::shared().add(obs::names::RUN_CACHE_HITS, 1);
            return (r.clone(), false);
        }
        if matches!(*state, SlotState::Pending) {
            obs::shared().add(obs::names::RUN_CACHE_COALESCED, 1);
        }
        loop {
            match &*state {
                SlotState::Ready(r) => return (r.clone(), false),
                SlotState::Abandoned => break, // owner panicked; retry from the top
                SlotState::Pending => {
                    state = slot.cv.wait(state).expect("run slot poisoned");
                }
            }
        }
    }
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
