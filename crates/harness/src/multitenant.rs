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
//! cell, so the table is byte-identical for any `MTM_JOBS` /
//! `MTM_RUN_WORKERS` setting.

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

/// One tenant's in-flight run state inside a cell.
struct TenantRun {
    machine: Machine,
    manager: Box<dyn MemoryManager>,
    workload: Box<dyn Workload>,
    progress: Option<ScenarioProgress>,
    /// Cumulative accesses at the previous arbitration point.
    prev_accesses: u64,
}

impl TenantRun {
    fn accesses_delta(&mut self) -> u64 {
        let total: u64 = self.machine.counters().all().iter().map(|c| c.total()).sum();
        let delta = total.saturating_sub(self.prev_accesses);
        self.prev_accesses = total;
        delta
    }
}

/// Re-splits every physical component and the promotion-budget pool
/// across the tenants from the arbiter's weights, then installs the
/// grants. Floors keep every tenant's current residency inside its new
/// quota, so arbitration can deny future allocations but never strands a
/// live frame. With one tenant every step is an exact identity (full
/// quota, full budget, profile share 1.0).
fn arbitrate(
    policy: &mut dyn mtm::ArbiterPolicy,
    runs: &mut [TenantRun],
    topo: &Topology,
    promote_pool: u64,
    checked: bool,
) {
    let dram: Vec<u16> = topo.dram_components();
    let demands: Vec<TenantDemand> = runs
        .iter_mut()
        .enumerate()
        .map(|(i, r)| TenantDemand {
            tenant: i as TenantId,
            // Before setup the VMAs are empty and `footprint()` is zero;
            // the declared footprint keeps the *initial* grant
            // demand-aware (after setup the two agree, so `max` is the
            // identity for every later round).
            footprint: r.workload.footprint().max(r.workload.declared_footprint()),
            fast_resident: dram.iter().map(|&c| r.machine.allocator(c).used()).sum(),
            accesses: r.accesses_delta(),
        })
        .collect();
    // Footprint floors keep a skewed arbiter from starving a tenant
    // below its working set (a fatal placement failure); when no floor
    // binds — always at N=1 — the policy's weights pass through
    // untouched.
    let total_capacity: u64 = (0..topo.num_components())
        .map(|c| topo.components[c].capacity & !(tiersim::PAGE_SIZE_2M - 1))
        .sum();
    let weights =
        mtm::arbiter::floor_shares(&policy.weights(&demands), &demands, total_capacity);
    let shares = mtm::arbiter::shares(&weights, promote_pool);
    for c in 0..topo.num_components() as u16 {
        let capacity = topo.components[c as usize].capacity & !(tiersim::PAGE_SIZE_2M - 1);
        let floors: Vec<u64> = runs.iter().map(|r| r.machine.allocator(c).used()).collect();
        let quotas = split_capacity(capacity, &weights, &floors);
        for (r, &q) in runs.iter_mut().zip(&quotas) {
            r.machine.set_component_quota(c, q);
        }
        if checked {
            let used: Vec<u64> = runs.iter().map(|r| r.machine.allocator(c).used()).collect();
            mtm_check::assert_clean(
                "multi-tenant arbitration",
                mtm_check::check_quota_partition(c, &quotas, &used, capacity),
            );
        }
    }
    for (r, s) in runs.iter_mut().zip(&shares) {
        r.manager.set_share(*s);
    }
}

/// Verifies the machine-wide capacity partition and each tenant's census
/// after an interval round: per component, the per-tenant quotas sum to
/// the physical capacity and nobody exceeds their grant.
fn verify_partition(runs: &[TenantRun], topo: &Topology, context: &str) {
    for c in 0..topo.num_components() as u16 {
        let capacity = topo.components[c as usize].capacity & !(tiersim::PAGE_SIZE_2M - 1);
        let quotas: Vec<u64> = runs.iter().map(|r| r.machine.allocator(c).capacity()).collect();
        let used: Vec<u64> = runs.iter().map(|r| r.machine.allocator(c).used()).collect();
        mtm_check::assert_clean(
            context,
            mtm_check::check_quota_partition(c, &quotas, &used, capacity),
        );
    }
}

/// Runs one multi-tenant cell: `specs` tenants in lock-step under
/// `manager`, with `arbiter` re-splitting resources between intervals.
/// Returns one report per tenant, in tenant order.
///
/// `workload_scale` is explicit (the sweep uses `opts.scale * n` so each
/// tenant holds ~1/n of the aggregate footprint) so a *solo* reference —
/// one tenant, whole machine — runs the **same** workload through the
/// same code path. `run_workers` overrides the packet-engine worker
/// count (`None` keeps the `MTM_RUN_WORKERS` default); `checked` arms
/// the shadow-state sanitizer and the quota-partition census regardless
/// of `MTM_CHECK`.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    manager: &str,
    specs: &[TenantSpec],
    workload_scale: u64,
    arbiter: ArbiterKind,
    level: &str,
    opts: &Opts,
    base_seed: u64,
    run_workers: Option<usize>,
    checked: bool,
) -> Vec<RunReport> {
    let topo = optane_four_tier(opts.scale);
    let fault_plan = level_spec(level, opts.intervals)
        .map(|spec| faultsim::FaultPlan::parse(&spec).expect("built-in level specs parse"));
    let mut runs: Vec<TenantRun> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut machine = healthy_machine_for(manager, opts, topo.clone());
            if let Some(plan) = &fault_plan {
                // The label binds the stream to the tenant *and* its
                // workload, never to the arbiter or the cell shape: two
                // tenants sharing a workload name still draw distinct
                // faults, and a tenant's stream survives axis filtering.
                let label = format!("mt/{level}/{}/{}", spec.name, spec.workload);
                machine.install_faults(plan.clone(), faultsim::derive_seed(base_seed, &label));
            }
            if let Some(w) = run_workers {
                machine.set_run_workers(w);
            }
            if checked {
                machine.set_checking(true);
            }
            let manager = build_tenant_manager(manager, i as TenantId, opts, &topo);
            let workload = mtm_workloads::build_paper_workload_seeded(
                spec.workload,
                workload_scale,
                opts.threads,
                spec.salt,
            )
            .unwrap_or_else(|| panic!("unknown workload {:?}", spec.workload));
            TenantRun { machine, manager, workload, progress: None, prev_accesses: 0 }
        })
        .collect();

    let sanitize = checked || mtm_check::enabled();
    let mut policy = arbiter.build();
    // Initial grant, before any VMA exists: demand is the declared
    // footprint, so setup-time placement already honors the quotas.
    arbitrate(policy.as_mut(), &mut runs, &topo, opts.promote_budget(), sanitize);
    for r in &mut runs {
        r.progress =
            Some(ScenarioProgress::start(&mut r.machine, r.manager.as_mut(), r.workload.as_mut()));
    }
    for ivl in 0..opts.intervals {
        for r in &mut runs {
            let mut progress = r.progress.take().expect("progress live during the run");
            progress.step_interval(&mut r.machine, r.manager.as_mut(), r.workload.as_mut(), ivl);
            r.progress = Some(progress);
        }
        if sanitize {
            verify_partition(&runs, &topo, "multi-tenant interval boundary");
        }
        if ivl + 1 < opts.intervals {
            arbitrate(policy.as_mut(), &mut runs, &topo, opts.promote_budget(), sanitize);
        }
    }
    runs.into_iter()
        .map(|mut r| {
            if checked {
                r.machine.verify_consistency("end of run");
            }
            let progress = r.progress.take().expect("progress live at finish");
            progress.finish(&mut r.machine, r.manager.as_mut(), r.workload.as_mut())
        })
        .collect()
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

/// Nearest-rank p99 of the finite entries; infinity when none are.
pub(crate) fn p99(mut xs: Vec<f64>) -> f64 {
    xs.retain(|x| x.is_finite());
    if xs.is_empty() {
        return f64::INFINITY;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite entries compare"));
    let rank = ((0.99 * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Per-interval slowdown of `shared` against `solo` (elementwise ns/op
/// ratio), at the p99 nearest rank.
fn p99_slowdown(shared: &RunReport, solo: &RunReport) -> f64 {
    let s = interval_ns_per_op(shared);
    let b = interval_ns_per_op(solo);
    p99(s.iter().zip(&b).map(|(&a, &c)| a / c).collect())
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

/// The tenant counts and arbiters this invocation sweeps, from
/// `MTM_TENANTS` / `MTM_ARBITER`. Unset (or empty) keeps the full axes;
/// malformed values print a `warning:` line and keep the full axes
/// rather than silently running something else.
pub fn env_axes() -> (Vec<usize>, Vec<ArbiterKind>) {
    let counts = match std::env::var("MTM_TENANTS") {
        Ok(s) if !s.is_empty() => match s.parse::<usize>() {
            Ok(n) if n >= 1 => vec![n],
            _ => {
                eprintln!(
                    "warning: ignoring MTM_TENANTS={s:?} (expected a tenant count >= 1)"
                );
                TENANT_COUNTS.to_vec()
            }
        },
        _ => TENANT_COUNTS.to_vec(),
    };
    let arbiters = match std::env::var("MTM_ARBITER") {
        Ok(s) if !s.is_empty() => match ArbiterKind::parse(&s) {
            Some(k) => vec![k],
            None => {
                eprintln!(
                    "warning: MTM_ARBITER={s:?} is not an arbiter \
                     (static-equal|footprint-proportional|hotness-weighted); sweeping all"
                );
                ARBITERS.to_vec()
            }
        },
        _ => ARBITERS.to_vec(),
    };
    (counts, arbiters)
}

/// True when both sweep axes are unrestricted (the full-table shape the
/// committed `results/multitenant.txt` is generated with).
pub fn axes_unrestricted() -> bool {
    std::env::var("MTM_TENANTS").map_or(true, |s| s.is_empty())
        && std::env::var("MTM_ARBITER").map_or(true, |s| s.is_empty())
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
            None,
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
            None,
            false,
        )
    });

    // Per-tenant telemetry export, serial and in cell order so the final
    // file set is deterministic for any worker count.
    if crate::metrics::telemetry_enabled() {
        let dir = std::path::Path::new(crate::metrics::TELEMETRY_DIR);
        for (ci, &(ni, _, _)) in cells.iter().enumerate() {
            let specs = tenant_specs(counts[ni]);
            for (spec, report) in specs.iter().zip(&cell_reports[ci]) {
                if let Err(e) =
                    crate::metrics::emit_tenant_telemetry_into(dir, &spec.name, &report.telemetry)
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

/// Renders the sweep with the env-selected axes (`MTM_TENANTS`,
/// `MTM_ARBITER`).
pub fn run(opts: &Opts) -> String {
    let (counts, arbiters) = env_axes();
    render(opts, &counts, &arbiters)
}

#[cfg(test)]
mod tests {
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
    fn p99_is_nearest_rank_over_finite_entries() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(p99(xs), 99.0);
        assert_eq!(p99(vec![f64::INFINITY, 2.0]), 2.0);
        assert_eq!(p99(vec![]), f64::INFINITY);
        assert_eq!(p99(vec![f64::INFINITY]), f64::INFINITY);
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
            None,
            false,
        )
        .pop()
        .unwrap()
    }
}
