//! Multi-tenant sweep: N co-scheduled tenants under global arbitration.
//!
//! Each tenant is a full address space — its own page table, workload
//! (round-robin over [`MT_WORKLOADS`], seeded per tenant), fault stream and
//! recorder — holding a *quota* of every physical component. The cell
//! driver steps all tenants in lock-step, one profiling interval at a
//! time, and between intervals a global [`ArbiterPolicy`] re-splits the
//! fast-tier capacity, the migration bandwidth and the Eq. 1 profiling
//! budget from observed demand (the HM-Keeper direction; see DESIGN.md
//! §5g).
//!
//! The sweep reports per-tenant QoS against a *solo* reference — the
//! same tenant, same seed, same fault stream, alone on the whole machine
//! — so slowdowns measure contention and arbitration, never workload
//! noise. Like the resilience and admission sweeps, every cell draws
//! label-derived fault streams and runs lock-step serial inside the
//! cell, so the table is byte-identical for any `MTM_JOBS` setting.

use std::collections::BTreeMap;

use mtm::arbiter::{ArbiterKind, TenantDemand};
use mtm::MtmManager;
use tiersim::sim::{MemoryManager, RunReport, ScenarioProgress, Workload};
use tiersim::tenant::{jain_index, split_capacity, TenantId};
use tiersim::tier::{optane_four_tier, Topology};
use tiersim::Machine;

use crate::opts::Opts;
use crate::resilience::level_spec;
use crate::runs::healthy_machine_for;
use crate::tablefmt::{f, TextTable};

/// Tenant counts the sweep covers (overridable to one count via
/// `MTM_TENANTS`).
pub const TENANT_COUNTS: [usize; 3] = [2, 8, 32];

/// The three built-in arbiters (overridable to one via `MTM_ARBITER`).
pub const ARBITERS: [ArbiterKind; 3] =
    [ArbiterKind::StaticEqual, ArbiterKind::FootprintProportional, ArbiterKind::HotnessWeighted];

/// Fault levels the sweep crosses with the tenant/arbiter axes: the
/// resilience sweep's healthy reference and its severest level.
pub const MT_LEVELS: [&str; 2] = ["healthy", "heavy"];

/// The manager the sweep runs (the only one with an arbitration-aware
/// profiling/migration plane). The cell driver itself is
/// manager-agnostic — the N=1 differential tests drive every manager
/// through it.
pub const MT_MANAGER: &str = "MTM";

/// The workloads tenants round-robin over: the full Table 2 set. Every
/// entry keeps its footprint proportional to `1/scale` — VoltDB pins at
/// its 2-warehouse floor past `scale > 2500` but thins its per-warehouse
/// table densities to compensate (`TpccConfig::paper`) — so an
/// `n`-tenant cell's aggregate footprint matches a solo run's.
pub const MT_WORKLOADS: [&str; 6] = ["GUPS", "VoltDB", "Cassandra", "BFS", "SSSP", "Spark"];

/// Base seed tenant workload salts are derived from (per tenant *name*,
/// so a tenant's access stream is stable across cell shapes).
const TENANT_SALT_BASE: u64 = 0x7E60_A917;

/// One tenant of a cell: a stable name, a Table 2 workload, and the seed
/// salt that makes its access stream unique.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Stable tenant name (`t00`, `t01`, ...): telemetry file prefix and
    /// fault-stream label component.
    pub name: String,
    /// Workload name (round-robin over [`MT_WORKLOADS`]).
    pub workload: &'static str,
    /// Seed salt XORed into the workload's access-stream seed. Tenant 0
    /// keeps salt 0, so a 1-tenant cell replays the legacy single-tenant
    /// run bit-for-bit.
    pub salt: u64,
}

/// The tenant roster of an `n`-tenant cell.
pub fn tenant_specs(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let name = format!("t{i:02}");
            let salt =
                if i == 0 { 0 } else { faultsim::derive_seed(TENANT_SALT_BASE, &name) };
            TenantSpec { name, workload: MT_WORKLOADS[i % MT_WORKLOADS.len()], salt }
        })
        .collect()
}

/// Builds the manager instance serving one tenant. `MTM` gets the tenant
/// id stamped into its config (so migration candidates carry it);
/// baselines are tenant-blind and build through the ordinary factory.
pub fn build_tenant_manager(
    name: &str,
    tenant: TenantId,
    opts: &Opts,
    topo: &Topology,
) -> Box<dyn MemoryManager> {
    if name == "MTM" {
        let mut cfg = crate::runs::mtm_config(opts);
        cfg.tenant = tenant;
        return Box::new(MtmManager::new(cfg, topo.nodes as usize));
    }
    crate::runs::build_manager(name, opts, topo)
}

/// Usable bytes of component `c`: its capacity rounded down to whole
/// 2 MB frames, the total the per-tenant quotas partition.
fn usable_capacity(topo: &Topology, c: u16) -> u64 {
    topo.components[c as usize].capacity & !(tiersim::PAGE_SIZE_2M - 1)
}

/// One tenant of a [`CoTenancy`] run: a full address space plus the
/// arbitration state the driver keeps for it.
struct Tenant {
    /// Stable arrival id: the key of the tenant's demand row (the hotness
    /// arbiter's EMA follows it) and the id stamped into an MTM manager's
    /// config. Departures never renumber the survivors.
    id: TenantId,
    /// Externally-imposed weight multiplier (churn resize events rescale
    /// it); applied to the arbiter's demand-derived weight driver-side,
    /// so the arbiter API stays churn-free.
    weight: f64,
    machine: Machine,
    manager: Box<dyn MemoryManager>,
    workload: Box<dyn Workload>,
    /// `None` until the first interval the tenant takes part in.
    progress: Option<ScenarioProgress>,
    /// Cumulative accesses at the previous arbitration point.
    prev_accesses: u64,
}

impl Tenant {
    fn accesses_delta(&mut self) -> u64 {
        let total: u64 = self.machine.counters().all().iter().map(|c| c.total()).sum();
        let delta = total.saturating_sub(self.prev_accesses);
        self.prev_accesses = total;
        delta
    }

    fn into_report(mut self, sanitize: bool) -> RunReport {
        if sanitize {
            self.machine.verify_consistency("end of run");
        }
        let progress = self.progress.take().expect("tenant ran at least one interval");
        progress.finish(&mut self.machine, self.manager.as_mut(), self.workload.as_mut())
    }
}

/// The lock-step co-tenancy driver. Tenants hold a quota of every
/// physical component; before each interval a global arbiter re-splits
/// the components, the migration budget and the profiling share from
/// observed demand, then every tenant runs that interval in roster
/// order. Tenants may arrive, be reweighted and depart between steps.
/// The multi-tenant sweep ([`run_cell`]) and the scenario churn cell
/// both run on it.
pub(crate) struct CoTenancy {
    topo: Topology,
    policy: Box<dyn mtm::ArbiterPolicy>,
    promote_pool: u64,
    /// Arms every tenant machine's shadow-state sanitizer and the
    /// quota-partition census at each arbitration and interval boundary.
    sanitize: bool,
    tenants: Vec<Tenant>,
}

impl CoTenancy {
    /// An empty roster on `topo`. `checked` arms the sanitizer and the
    /// census regardless of `MTM_CHECK`.
    pub(crate) fn new(
        topo: Topology,
        policy: Box<dyn mtm::ArbiterPolicy>,
        promote_pool: u64,
        checked: bool,
    ) -> CoTenancy {
        let sanitize = checked || crate::runs::env_knobs().check;
        CoTenancy { topo, policy, promote_pool, sanitize, tenants: Vec::new() }
    }

    /// Appends a tenant to the roster. Its set-up runs at the next
    /// [`step`](Self::step), after arbitration granted it a quota.
    pub(crate) fn arrive(
        &mut self,
        id: TenantId,
        weight: f64,
        mut machine: Machine,
        manager: Box<dyn MemoryManager>,
        workload: Box<dyn Workload>,
    ) {
        if self.sanitize {
            machine.set_checking(true);
        }
        self.tenants.push(Tenant {
            id,
            weight,
            machine,
            manager,
            workload,
            progress: None,
            prev_accesses: 0,
        });
    }

    fn position(&self, id: TenantId) -> usize {
        self.tenants
            .iter()
            .position(|t| t.id == id)
            .unwrap_or_else(|| panic!("tenant {id} is not in the roster"))
    }

    /// Sets a tenant's weight multiplier from the next arbitration on.
    pub(crate) fn set_weight(&mut self, id: TenantId, weight: f64) {
        let i = self.position(id);
        self.tenants[i].weight = weight;
    }

    /// Removes a tenant and returns its finished report. Its capacity
    /// returns to the pool at the next arbitration.
    pub(crate) fn depart(&mut self, id: TenantId) -> RunReport {
        let i = self.position(id);
        self.tenants.remove(i).into_report(self.sanitize)
    }

    /// Runs interval `ivl`: arbitrate, start every tenant not yet
    /// started, then step each tenant one interval in roster order. An
    /// empty roster has nothing to arbitrate (and the hotness arbiter
    /// would forget every EMA).
    pub(crate) fn step(&mut self, ivl: u64) {
        if self.tenants.is_empty() {
            return;
        }
        self.arbitrate();
        for t in &mut self.tenants {
            if t.progress.is_none() {
                t.progress = Some(ScenarioProgress::start(
                    &mut t.machine,
                    t.manager.as_mut(),
                    t.workload.as_mut(),
                ));
            }
        }
        for t in &mut self.tenants {
            let progress = t.progress.as_mut().expect("started above");
            progress.step_interval(&mut t.machine, t.manager.as_mut(), t.workload.as_mut(), ivl);
        }
        if self.sanitize {
            self.verify_partition("multi-tenant interval boundary");
        }
    }

    /// Finishes every remaining tenant: `(id, report)` in roster order.
    pub(crate) fn into_reports(self) -> Vec<(TenantId, RunReport)> {
        let sanitize = self.sanitize;
        self.tenants.into_iter().map(|t| (t.id, t.into_report(sanitize))).collect()
    }

    fn used(&self, c: u16) -> Vec<u64> {
        self.tenants.iter().map(|t| t.machine.allocator(c).used()).collect()
    }

    /// Re-splits every physical component and the promotion-budget pool
    /// across the tenants from the arbiter's weights (times each tenant's
    /// multiplier), then installs the grants. Floors keep every tenant's
    /// current residency inside its new quota, so arbitration can deny
    /// future allocations but never strands a live frame. With one
    /// tenant every step is an exact identity (full quota, full budget,
    /// profile share 1.0).
    fn arbitrate(&mut self) {
        let dram: Vec<u16> = self.topo.dram_components();
        let demands: Vec<TenantDemand> = self
            .tenants
            .iter_mut()
            .map(|t| TenantDemand {
                tenant: t.id,
                // Before setup the VMAs are empty and `footprint()` is
                // zero; the declared footprint keeps the *initial* grant
                // demand-aware (after setup the two agree, so `max` is
                // the identity for every later round).
                footprint: t.workload.footprint().max(t.workload.declared_footprint()),
                fast_resident: dram.iter().map(|&c| t.machine.allocator(c).used()).sum(),
                accesses: t.accesses_delta(),
            })
            .collect();
        let mut weights = self.policy.weights(&demands);
        for (w, t) in weights.iter_mut().zip(&self.tenants) {
            *w *= t.weight;
        }
        // Footprint floors keep a skewed arbiter from starving a tenant
        // below its working set (a fatal placement failure); when no
        // floor binds — always at N=1 — the weights pass through
        // untouched.
        let components = self.topo.num_components() as u16;
        let total_capacity: u64 = (0..components).map(|c| usable_capacity(&self.topo, c)).sum();
        let weights = mtm::arbiter::floor_shares(&weights, &demands, total_capacity);
        let shares = mtm::arbiter::shares(&weights, self.promote_pool);
        for c in 0..components {
            let quotas =
                split_capacity(usable_capacity(&self.topo, c), &weights, &self.used(c));
            for (t, &q) in self.tenants.iter_mut().zip(&quotas) {
                t.machine.set_component_quota(c, q);
            }
        }
        for (t, s) in self.tenants.iter_mut().zip(&shares) {
            t.manager.set_share(*s);
        }
        if self.sanitize {
            self.verify_partition("multi-tenant arbitration");
        }
    }

    /// Verifies the machine-wide capacity partition and each tenant's
    /// census: per component, the installed per-tenant quotas sum to the
    /// usable capacity and nobody exceeds their grant.
    fn verify_partition(&self, context: &str) {
        for c in 0..self.topo.num_components() as u16 {
            let quotas: Vec<u64> =
                self.tenants.iter().map(|t| t.machine.allocator(c).capacity()).collect();
            mtm_check::assert_clean(
                context,
                mtm_check::check_quota_partition(
                    c,
                    &quotas,
                    &self.used(c),
                    usable_capacity(&self.topo, c),
                ),
            );
        }
    }
}

/// Runs one multi-tenant cell: `specs` tenants in lock-step under
/// `manager`, with `arbiter` re-splitting resources before every
/// interval. Every tenant arrives at interval 0 with weight 1.0 and none
/// departs. Returns one report per tenant, in tenant order.
///
/// `workload_scale` is explicit (the sweep uses `opts.scale * n` so each
/// tenant holds ~1/n of the aggregate footprint) so a *solo* reference —
/// one tenant, whole machine — runs the **same** workload through the
/// same code path. `checked` arms the shadow-state sanitizer and the
/// quota-partition census regardless of `MTM_CHECK`.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    manager: &str,
    specs: &[TenantSpec],
    workload_scale: u64,
    arbiter: ArbiterKind,
    level: &str,
    opts: &Opts,
    base_seed: u64,
    checked: bool,
) -> Vec<RunReport> {
    let topo = optane_four_tier(opts.scale);
    let fault_plan = level_spec(level, opts.intervals)
        .map(|spec| faultsim::FaultPlan::parse(&spec).expect("built-in level specs parse"));
    let mut cell = CoTenancy::new(topo.clone(), arbiter.build(), opts.promote_budget(), checked);
    for (i, spec) in specs.iter().enumerate() {
        let mut machine = healthy_machine_for(manager, opts, topo.clone());
        if let Some(plan) = &fault_plan {
            // The label binds the stream to the tenant *and* its
            // workload, never to the arbiter or the cell shape: two
            // tenants sharing a workload name still draw distinct
            // faults, and a tenant's stream survives axis filtering.
            let label = format!("mt/{level}/{}/{}", spec.name, spec.workload);
            machine.install_faults(plan.clone(), faultsim::derive_seed(base_seed, &label));
        }
        let id = i as TenantId;
        let manager = build_tenant_manager(manager, id, opts, &topo);
        let workload = mtm_workloads::build_paper_workload_seeded(
            spec.workload,
            workload_scale,
            opts.threads,
            spec.salt,
        )
        .unwrap_or_else(|| panic!("unknown workload {:?}", spec.workload));
        cell.arrive(id, 1.0, machine, manager, workload);
    }
    // The first step's grant comes before any VMA exists: demand is the
    // declared footprint, so setup-time placement already honors quotas.
    for ivl in 0..opts.intervals {
        cell.step(ivl);
    }
    cell.into_reports().into_iter().map(|(_, report)| report).collect()
}

/// Per-interval virtual nanoseconds per completed operation, the series
/// the p99 slowdown is computed over (also the scenario sweep's
/// transient-latency series).
pub(crate) fn interval_ns_per_op(r: &RunReport) -> Vec<f64> {
    let mut out = Vec::with_capacity(r.interval_ns.len());
    let mut prev = 0u64;
    for (i, &wall) in r.interval_ns.iter().enumerate() {
        let ops = r.ops_trace.get(i).copied().unwrap_or(prev);
        let delta = ops.saturating_sub(prev);
        prev = ops;
        out.push(if delta > 0 { wall / delta as f64 } else { f64::INFINITY });
    }
    out
}

/// Nearest-rank `q`-quantile of the finite entries (the smallest entry
/// with at least `q` of them at or below it); infinity when none are.
pub(crate) fn nearest_rank(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.retain(|x| x.is_finite());
    if xs.is_empty() {
        return f64::INFINITY;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite entries compare"));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Per-interval slowdown of `shared` against `solo` (elementwise ns/op
/// ratio), at the p99 nearest rank.
fn p99_slowdown(shared: &RunReport, solo: &RunReport) -> f64 {
    let s = interval_ns_per_op(shared);
    let b = interval_ns_per_op(solo);
    nearest_rank(s.iter().zip(&b).map(|(&a, &c)| a / c).collect(), 0.99)
}

/// Fraction of the machine's fast-tier (DRAM) bytes this tenant holds.
fn fast_share(r: &RunReport, topo: &Topology) -> f64 {
    let dram = topo.dram_components();
    let cap: u64 = dram.iter().map(|&c| topo.components[c as usize].capacity).sum();
    let held: u64 = dram.iter().map(|&c| r.residency[c as usize]).sum();
    if cap == 0 {
        return 0.0;
    }
    held as f64 / cap as f64
}

/// Renders the multi-tenant sweep over explicit axes (the env-driven
/// entry point is [`run`]).
pub fn render(opts: &Opts, counts: &[usize], arbiters: &[ArbiterKind]) -> String {
    let base_seed = crate::runs::fault_seed();
    let topo = optane_four_tier(opts.scale);

    // Solo references: each tenant alone on the whole machine, same
    // workload scale, same fault stream — keyed by (count, tenant,
    // level) because the workload scale tracks the cell's tenant count.
    let mut solo_keys: Vec<(usize, usize, usize)> = Vec::new();
    for &n in counts {
        for i in 0..n {
            for li in 0..MT_LEVELS.len() {
                solo_keys.push((n, i, li));
            }
        }
    }
    let solo_reports = crate::runpool::map_parallel(solo_keys.clone(), |(n, i, li)| {
        let spec = tenant_specs(n).swap_remove(i);
        run_cell(
            MT_MANAGER,
            &[spec],
            opts.scale * n as u64,
            ArbiterKind::StaticEqual,
            MT_LEVELS[li],
            opts,
            base_seed,
            false,
        )
        .pop()
        .expect("one tenant, one report")
    });
    let solo: BTreeMap<(usize, usize, usize), &RunReport> =
        solo_keys.iter().copied().zip(solo_reports.iter()).collect();

    // Shared cells: tenants × arbiters × fault levels.
    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for ni in 0..counts.len() {
        for ai in 0..arbiters.len() {
            for li in 0..MT_LEVELS.len() {
                cells.push((ni, ai, li));
            }
        }
    }
    let cell_reports = crate::runpool::map_parallel(cells.clone(), |(ni, ai, li)| {
        run_cell(
            MT_MANAGER,
            &tenant_specs(counts[ni]),
            opts.scale * counts[ni] as u64,
            arbiters[ai],
            MT_LEVELS[li],
            opts,
            base_seed,
            false,
        )
    });

    // Per-tenant telemetry export, serial and in cell order so the final
    // file set is deterministic for any worker count.
    if crate::runs::env_knobs().telemetry {
        let dir = std::path::Path::new(crate::metrics::TELEMETRY_DIR);
        for (ci, &(ni, _, _)) in cells.iter().enumerate() {
            let specs = tenant_specs(counts[ni]);
            for (spec, report) in specs.iter().zip(&cell_reports[ci]) {
                if let Err(e) =
                    crate::metrics::emit_telemetry_into(dir, Some(&spec.name), &report.telemetry)
                {
                    eprintln!(
                        "warning: could not write telemetry for {}/{}: {e}",
                        spec.name, spec.workload
                    );
                }
            }
        }
    }

    let mut summary = TextTable::new(&[
        "tenants", "arbiter", "faults", "jain", "mean-slow", "worst-p99", "fshare-min",
        "fshare-max",
    ]);
    let mut detail = TextTable::new(&[
        "tenants", "arbiter", "faults", "tenant", "workload", "ns/op", "slowdown", "p99-slow",
        "fast-share",
    ]);
    for (ci, &(ni, ai, li)) in cells.iter().enumerate() {
        let n = counts[ni];
        let specs = tenant_specs(n);
        let reports = &cell_reports[ci];
        let mut perf = Vec::with_capacity(n);
        let mut slowdowns = Vec::with_capacity(n);
        let mut p99s = Vec::with_capacity(n);
        let mut shares = Vec::with_capacity(n);
        for (i, r) in reports.iter().enumerate() {
            let base = solo[&(n, i, li)];
            let slowdown = r.ns_per_op() / base.ns_per_op();
            perf.push(base.ns_per_op() / r.ns_per_op());
            slowdowns.push(slowdown);
            p99s.push(p99_slowdown(r, base));
            shares.push(fast_share(r, &topo));
            detail.row(vec![
                n.to_string(),
                arbiters[ai].label().to_string(),
                MT_LEVELS[li].to_string(),
                specs[i].name.clone(),
                specs[i].workload.to_string(),
                f(r.ns_per_op()),
                format!("{}x", f(slowdown)),
                format!("{}x", f(p99s[i])),
                f(shares[i]),
            ]);
        }
        let mean_slow = slowdowns.iter().sum::<f64>() / n as f64;
        let worst_p99 = p99s.iter().copied().fold(0.0_f64, f64::max);
        let fmin = shares.iter().copied().fold(f64::INFINITY, f64::min);
        let fmax = shares.iter().copied().fold(0.0_f64, f64::max);
        summary.row(vec![
            n.to_string(),
            arbiters[ai].label().to_string(),
            MT_LEVELS[li].to_string(),
            f(jain_index(&perf)),
            format!("{}x", f(mean_slow)),
            format!("{}x", f(worst_p99)),
            f(fmin),
            f(fmax),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Multi-tenant arbitration ({MT_MANAGER}, {} intervals, seed {base_seed})\n\n",
        opts.intervals
    ));
    out.push_str(&summary.render());
    out.push('\n');
    out.push_str(&detail.render());
    out.push('\n');
    for &level in &MT_LEVELS[1..] {
        let spec = level_spec(level, opts.intervals).expect("non-healthy levels have a spec");
        out.push_str(&format!("{level:<7} = MTM_FAULTS=\"{spec}\"\n"));
    }
    out.push_str(
        "\nslowdown    ns/op vs the same tenant alone on the whole machine (same seed and faults)\n\
         p99-slow    99th-percentile (nearest-rank) of the per-interval ns/op ratio vs solo\n\
         jain        Jain fairness index (sum x)^2 / (n * sum x^2) over solo-normalized speeds x\n\
         fast-share  fraction of machine DRAM bytes the tenant holds at the end of the run\n",
    );
    out
}

/// Renders the sweep over the axes `MTM_TENANTS` and `MTM_ARBITER`
/// select. The flag is true when neither is set: the full-table shape the
/// committed `results/multitenant.txt` is generated with.
pub fn run(opts: &Opts) -> (String, bool) {
    let crate::runs::EnvKnobs { tenants, arbiters, .. } = crate::runs::env_knobs();
    (render(opts, &tenants.values, &arbiters.values), !tenants.set && !arbiters.set)
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    #[test]
    fn tenant_roster_is_stable_and_salted() {
        let specs = tenant_specs(8);
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].name, "t00");
        assert_eq!(specs[0].salt, 0, "tenant 0 replays the legacy stream");
        assert_eq!(specs[0].workload, "GUPS");
        assert_eq!(specs[1].workload, "VoltDB", "the full Table 2 set rotates");
        assert_eq!(specs[6].workload, "GUPS", "round-robin wraps after six");
        // Same workload name, distinct streams.
        assert_ne!(specs[6].salt, specs[0].salt);
        let again = tenant_specs(8);
        for (a, b) in specs.iter().zip(&again) {
            assert_eq!(a.salt, b.salt, "roster is a pure function of the index");
        }
    }

    #[test]
    fn nearest_rank_is_over_finite_entries() {
        let inf = f64::INFINITY;
        let cases: [(Vec<f64>, f64, f64); 8] = [
            ((1..=100).map(|i| i as f64).collect(), 0.99, 99.0),
            (vec![inf, 2.0], 0.99, 2.0),
            (vec![], 0.99, inf),
            (vec![inf], 0.99, inf),
            (vec![3.0, 1.0, 2.0], 0.5, 2.0),
            (vec![4.0, 1.0, 2.0, 3.0], 0.5, 2.0),
            (vec![inf, 5.0], 0.5, 5.0),
            (vec![], 0.5, inf),
        ];
        for (xs, q, want) in cases {
            assert_eq!(nearest_rank(xs.clone(), q), want, "q={q} over {xs:?}");
        }
    }

    /// Every arbitration's demand rows and the weights returned for them.
    type Log = Rc<RefCell<Vec<(Vec<TenantDemand>, Vec<f64>)>>>;

    /// Passes every call through to `inner`, logging it.
    struct Recording {
        inner: Box<dyn mtm::ArbiterPolicy>,
        log: Log,
    }

    impl mtm::ArbiterPolicy for Recording {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn weights(&mut self, demands: &[TenantDemand]) -> Vec<f64> {
            let w = self.inner.weights(demands);
            self.log.borrow_mut().push((demands.to_vec(), w.clone()));
            w
        }
    }

    #[test]
    fn departures_keep_survivor_ids_and_hotness_history() {
        let mut opts = Opts::quick();
        opts.scale = 1 << 14;
        opts.threads = 2;
        let topo = optane_four_tier(opts.scale);
        let log = Log::default();
        let policy = Recording { inner: ArbiterKind::HotnessWeighted.build(), log: log.clone() };
        let mut cell = CoTenancy::new(topo.clone(), Box::new(policy), opts.promote_budget(), false);
        for (i, spec) in tenant_specs(3).iter().enumerate() {
            let id = i as TenantId;
            let workload = mtm_workloads::build_paper_workload_seeded(
                spec.workload,
                opts.scale * 3,
                opts.threads,
                spec.salt,
            )
            .unwrap();
            cell.arrive(
                id,
                1.0,
                healthy_machine_for("MTM", &opts, topo.clone()),
                build_tenant_manager("MTM", id, &opts, &topo),
                workload,
            );
        }
        cell.step(0);
        cell.step(1);
        assert!(cell.depart(0).ops_completed > 0);
        cell.step(2);

        let log = log.borrow();
        let ids = |round: usize| log[round].0.iter().map(|d| d.tenant).collect::<Vec<_>>();
        assert_eq!(ids(1), vec![0, 1, 2]);
        assert_eq!(ids(2), vec![1, 2], "the first tenant's departure renumbered the rest");
        // Round 1 weights are each tenant's EMA after one interval (all
        // well above the 1.0 floor) and they differ, so a survivor fed a
        // neighbour's history would show.
        let (before, after) = (&log[1], &log[2]);
        assert!(before.1.iter().all(|&w| w > 1.0), "{:?}", before.1);
        assert_ne!(before.1[0], before.1[1]);
        assert_ne!(before.1[1], before.1[2]);
        // The survivors are the second and third arrivals, in that order.
        for (k, (d, &w)) in after.0.iter().zip(&after.1).enumerate() {
            let own = before.1[k + 1];
            assert_eq!(w, 0.5 * d.accesses as f64 + 0.5 * own, "arrival {} lost its EMA", k + 1);
        }
        let finished: Vec<TenantId> = cell.into_reports().into_iter().map(|(id, _)| id).collect();
        assert_eq!(finished, vec![1, 2]);
    }

    #[test]
    fn interval_series_uses_ops_deltas() {
        let mut r = quick_report();
        r.interval_ns = vec![100.0, 100.0];
        r.ops_trace = vec![10, 30];
        let s = interval_ns_per_op(&r);
        assert_eq!(s, vec![10.0, 5.0]);
    }

    fn quick_report() -> RunReport {
        let mut opts = Opts::quick();
        opts.scale = 1 << 14;
        opts.threads = 2;
        opts.intervals = 1;
        let specs = tenant_specs(1);
        run_cell(
            "first-touch",
            &specs,
            opts.scale,
            ArbiterKind::StaticEqual,
            "healthy",
            &opts,
            0,
            false,
        )
        .pop()
        .unwrap()
    }
}
