//! Scenario sweep: serving-style traffic generators and tenant churn.
//!
//! Batch workloads (Table 2) exercise steady-state placement; this sweep
//! exercises *phase transitions*. Three synthetic serving generators
//! (`mtm_scenario::Serving`) — a drifting zipfian KV store, a diurnal
//! load curve and a flash crowd — run under each manager, and the table
//! reports how fast placement restabilizes after each traffic shift:
//! intervals until migration traffic settles, migration bytes per phase,
//! and the p99 latency inflation inside the transient windows.
//!
//! A second cell drives the multi-tenant machinery through a
//! [`ChurnSchedule`]: tenants arrive mid-run, are resized, and depart,
//! with the global arbiter re-splitting capacity at every boundary. The
//! churn cell runs on the multi-tenant sweep's co-tenancy driver
//! (lock-step serial stepping, arbitration before every interval, the
//! quota-partition census under `MTM_CHECK`), so the table is
//! byte-identical for any `MTM_JOBS` / `MTM_CHECK` setting. Scenario
//! machines are always healthy — phase transitions, not faults, are the
//! subject — so the table is also independent of `MTM_FAULTS`.
//!
//! The sweep ends with an always-on checkpoint differential: the
//! MTM/KVDrift cell is checkpointed mid-run, resumed in fresh objects,
//! and the resumed report must match the straight-through run
//! byte-for-byte (DESIGN.md §5h).

use mtm::arbiter::ArbiterKind;
use mtm_scenario::{
    restore_checkpoint, save_checkpoint, ChurnEvent, ChurnSchedule, Serving, ServingConfig,
};
use tiersim::sim::{run_scenario, RunReport, ScenarioProgress};
use tiersim::tenant::TenantId;
use tiersim::tier::optane_four_tier;

use crate::multitenant::{build_tenant_manager, interval_ns_per_op, nearest_rank, CoTenancy};
use crate::opts::Opts;
use crate::runs::{build_manager, healthy_machine_for};
use crate::tablefmt::{f, TextTable};

/// The serving generators the sweep covers (overridable to one via
/// `MTM_SCENARIO_SET`).
pub const SCENARIO_GENERATORS: [&str; 3] = ["KVDrift", "Diurnal", "FlashCrowd"];

/// The managers each generator runs under: the overall sweep's tiering
/// systems minus the two static references (`hmc` is hardware-managed
/// and `vanilla-autonuma` differs from `autonuma` only in balancing
/// details invisible to phase metrics).
pub const SCENARIO_MANAGERS: [&str; 5] =
    ["first-touch", "autonuma", "autotiering", "hemem", "MTM"];

/// The arbiter the churn cell runs under.
pub const CHURN_ARBITER: ArbiterKind = ArbiterKind::HotnessWeighted;

/// Base seed churn-tenant workload salts are derived from (per tenant
/// name, like the multi-tenant sweep's `TENANT_SALT_BASE`).
const SCENARIO_SALT_BASE: u64 = 0x5C3A_11D0;

/// Builds the named generator's configuration for a run of `intervals`.
/// The schedules are derived from the run length so every shape shows
/// several phases at any `MTM_SCENARIO_INTERVALS`.
pub fn generator_config(
    name: &str,
    scale: u64,
    threads: usize,
    intervals: u64,
) -> Option<ServingConfig> {
    match name {
        "KVDrift" => Some(ServingConfig::kv_drift(scale, threads, (intervals / 6).max(2))),
        "Diurnal" => Some(ServingConfig::diurnal(scale, threads, (intervals / 3).max(4))),
        "FlashCrowd" => Some(ServingConfig::flash_crowd(scale, threads, intervals)),
        _ => None,
    }
}

/// The interval indices where a generator's traffic shape shifts: drift
/// rotations, diurnal half-periods (the load direction flips), and both
/// edges of the flash window. Interval 0 is never a boundary (there is
/// no "before" to restabilize from).
pub fn phase_boundaries(cfg: &ServingConfig, intervals: u64) -> Vec<u64> {
    let mut b = Vec::new();
    if cfg.drift_every > 0 {
        let mut t = cfg.drift_every;
        while t < intervals {
            b.push(t);
            t += cfg.drift_every;
        }
    }
    if cfg.diurnal_period > 1 {
        let half = (cfg.diurnal_period / 2).max(1);
        let mut t = half;
        while t < intervals {
            b.push(t);
            t += half;
        }
    }
    if cfg.flash_boost > 1.0 && cfg.flash_at > 0 {
        if cfg.flash_at < intervals {
            b.push(cfg.flash_at);
        }
        let end = cfg.flash_at + cfg.flash_len;
        if end < intervals {
            b.push(end);
        }
    }
    b.sort_unstable();
    b.dedup();
    b
}

/// Intervals after `boundary` until per-interval migration traffic falls
/// to `threshold` or below, capped at the phase length (`next` is the
/// next boundary, or the run length). A boundary the system never
/// recovers from inside its phase scores the full phase.
fn settle_time(migrated: &[u64], boundary: usize, next: usize, threshold: u64) -> u64 {
    for (k, &v) in migrated[boundary..next.min(migrated.len())].iter().enumerate() {
        if v <= threshold {
            return k as u64;
        }
    }
    next.saturating_sub(boundary) as u64
}

/// Phase metrics of one report: mean intervals-to-restabilize across
/// boundaries, mean migration bytes per phase, and the p99 ns/op inside
/// the transient windows over the median ns/op outside them.
struct PhaseMetrics {
    resettle: f64,
    phase_bytes: f64,
    transient_p99: f64,
}

fn phase_metrics(r: &RunReport, boundaries: &[u64], intervals: u64) -> PhaseMetrics {
    let migrated = &r.telemetry.series.migrated_bytes;
    let n = migrated.len().min(intervals as usize);
    // "Settled" means migration traffic at or below half the run's mean
    // per-interval volume: a burst-shaped series (quiet phases, spikes
    // at shifts) drops under this quickly once re-placement is done.
    let mean = if n > 0 { migrated[..n].iter().sum::<u64>() / n as u64 } else { 0 };
    let threshold = mean / 2;

    // Phase edges: 0, each boundary, run end.
    let mut edges: Vec<usize> = vec![0];
    edges.extend(boundaries.iter().map(|&b| b as usize).filter(|&b| b < n));
    edges.push(n);
    edges.dedup();

    let mut settles = Vec::new();
    let mut transient = vec![false; n];
    for w in edges.windows(2).skip(1) {
        let (b, next) = (w[0], w[1]);
        let s = settle_time(migrated, b, next, threshold);
        settles.push(s as f64);
        // The transient window covers at least the boundary interval.
        for slot in transient.iter_mut().take(next.min(b + (s as usize).max(1))).skip(b) {
            *slot = true;
        }
    }
    let phase_sums: Vec<f64> = edges
        .windows(2)
        .map(|w| migrated[w[0]..w[1]].iter().sum::<u64>() as f64)
        .collect();

    let ns_per_op = interval_ns_per_op(r);
    let (mut hot, mut calm) = (Vec::new(), Vec::new());
    for (i, &v) in ns_per_op.iter().take(n).enumerate() {
        if transient[i] {
            hot.push(v);
        } else {
            calm.push(v);
        }
    }
    let steady = nearest_rank(calm, 0.5);
    let transient_p99 = if settles.is_empty() || !steady.is_finite() {
        f64::NAN
    } else {
        nearest_rank(hot, 0.99) / steady
    };

    PhaseMetrics {
        resettle: if settles.is_empty() {
            f64::NAN
        } else {
            settles.iter().sum::<f64>() / settles.len() as f64
        },
        phase_bytes: if phase_sums.is_empty() {
            0.0
        } else {
            phase_sums.iter().sum::<f64>() / phase_sums.len() as f64
        },
        transient_p99,
    }
}

/// Runs one (generator, manager) cell on a healthy four-tier machine.
pub fn run_serving(generator: &str, manager: &str, opts: &Opts, intervals: u64) -> RunReport {
    let topo = optane_four_tier(opts.scale);
    let mut machine = healthy_machine_for(manager, opts, topo.clone());
    let mut mgr = build_manager(manager, opts, &topo);
    let cfg = generator_config(generator, opts.scale, opts.threads, intervals)
        .unwrap_or_else(|| panic!("unknown generator {generator:?}"));
    let mut wl = Serving::new(cfg);
    run_scenario(&mut machine, mgr.as_mut(), &mut wl, intervals)
}

/// One finished churn tenant: its lifetime and report.
pub struct ChurnOutcome {
    /// Stable tenant name.
    pub name: String,
    /// Generator name.
    pub workload: String,
    /// Arrival interval.
    pub arrived: u64,
    /// First interval *not* run (the depart boundary, or the run end).
    pub departed: u64,
    /// The tenant's run report.
    pub report: RunReport,
}

/// Runs the churn cell: the schedule's tenants under `manager` and
/// [`CHURN_ARBITER`], arriving, resizing and departing at interval
/// boundaries. Events apply *before* arbitration, so an arriving
/// tenant's setup already runs under an arbitrated grant and a departed
/// tenant's capacity returns to the pool the same boundary. Outcomes are
/// ordered by (arrival, schedule order).
pub fn run_churn_cell(
    manager: &str,
    schedule: &ChurnSchedule,
    opts: &Opts,
    intervals: u64,
) -> Vec<ChurnOutcome> {
    churn_cell(manager, schedule, opts, intervals, false)
}

/// [`run_churn_cell`]; `checked` arms the sanitizer and the
/// quota-partition census regardless of `MTM_CHECK`.
fn churn_cell(
    manager: &str,
    schedule: &ChurnSchedule,
    opts: &Opts,
    intervals: u64,
    checked: bool,
) -> Vec<ChurnOutcome> {
    let topo = optane_four_tier(opts.scale);
    // Half-footprint tenants: two residents fill the machine like one
    // solo run, leaving headroom the mid-run arrival competes for.
    let workload_scale = opts.scale * 2;
    let mut cell =
        CoTenancy::new(topo.clone(), CHURN_ARBITER.build(), opts.promote_budget(), checked);
    // (name, workload, arrival interval) of every arrival, indexed by the
    // tenant id it was given.
    let mut arrivals: Vec<(String, String, u64)> = Vec::new();
    let id_of = |arrivals: &[(String, String, u64)], name: &str| {
        arrivals
            .iter()
            .rposition(|a| a.0 == name)
            .unwrap_or_else(|| panic!("event for unknown tenant {name:?}")) as TenantId
    };
    // (id, first interval not run, report) of every finished tenant.
    let mut ended: Vec<(TenantId, u64, RunReport)> = Vec::new();

    for ivl in 0..intervals {
        for event in schedule.at(ivl) {
            match event {
                ChurnEvent::Arrive { name, workload, weight } => {
                    let mut cfg =
                        generator_config(workload, workload_scale, opts.threads, intervals)
                            .unwrap_or_else(|| panic!("unknown generator {workload:?}"));
                    cfg.seed ^= faultsim::derive_seed(SCENARIO_SALT_BASE, name);
                    let id = arrivals.len() as TenantId;
                    cell.arrive(
                        id,
                        *weight,
                        healthy_machine_for(manager, opts, topo.clone()),
                        build_tenant_manager(manager, id, opts, &topo),
                        Box::new(Serving::new(cfg)),
                    );
                    arrivals.push((name.clone(), workload.clone(), ivl));
                }
                ChurnEvent::Depart { name } => {
                    let id = id_of(&arrivals, name);
                    ended.push((id, ivl, cell.depart(id)));
                }
                ChurnEvent::Resize { name, weight } => {
                    cell.set_weight(id_of(&arrivals, name), *weight);
                }
            }
        }
        cell.step(ivl);
    }
    ended.extend(cell.into_reports().into_iter().map(|(id, report)| (id, intervals, report)));
    let mut done: Vec<ChurnOutcome> = ended
        .into_iter()
        .map(|(id, departed, report)| {
            let (name, workload, arrived) = arrivals[id as usize].clone();
            ChurnOutcome { name, workload, arrived, departed, report }
        })
        .collect();
    done.sort_by(|a, b| (a.arrived, &a.name).cmp(&(b.arrived, &b.name)));
    done
}

/// Checkpoints the MTM/KVDrift cell mid-run, resumes it in fresh
/// objects, and verifies the resumed report matches `straight`
/// byte-for-byte. Returns the summary line for the table footer.
fn checkpoint_differential(straight: &RunReport, opts: &Opts, intervals: u64) -> String {
    let stop_at = (intervals / 2).max(1);
    let topo = optane_four_tier(opts.scale);
    let build = || {
        let machine = healthy_machine_for("MTM", opts, topo.clone());
        let mgr = build_manager("MTM", opts, &topo);
        let cfg = generator_config("KVDrift", opts.scale, opts.threads, intervals)
            .expect("KVDrift is a generator");
        (machine, mgr, Serving::new(cfg))
    };
    let (mut m, mut mgr, mut wl) = build();
    let mut progress = ScenarioProgress::start(&mut m, mgr.as_mut(), &mut wl);
    for ivl in 0..stop_at {
        progress.step_interval(&mut m, mgr.as_mut(), &mut wl, ivl);
    }
    let blob = save_checkpoint(&m, mgr.as_ref(), &wl, &progress, stop_at)
        .expect("the MTM/KVDrift stack checkpoints");
    let (mut m, mut mgr, mut wl) = build();
    let (mut progress, next) = restore_checkpoint(&blob, &mut m, mgr.as_mut(), &mut wl)
        .expect("the checkpoint restores");
    for ivl in next..intervals {
        progress.step_interval(&mut m, mgr.as_mut(), &mut wl, ivl);
    }
    let resumed = progress.finish(&mut m, mgr.as_mut(), &mut wl);
    let fp = |r: &RunReport| format!("{r:?}\n{}", r.telemetry.to_json());
    assert_eq!(
        fp(&resumed),
        fp(straight),
        "resumed MTM/KVDrift run diverged from the straight-through run"
    );
    format!(
        "checkpoint   MTM/KVDrift saved at interval {stop_at} ({} bytes), resumed run \
         byte-identical\n",
        blob.len()
    )
}

/// Renders the scenario sweep over explicit axes (the env-driven entry
/// point is [`run`]).
pub fn render(opts: &Opts, generators: &[&str], churn: bool, intervals: u64) -> String {
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for gi in 0..generators.len() {
        for mi in 0..SCENARIO_MANAGERS.len() {
            cells.push((gi, mi));
        }
    }
    let reports = crate::runpool::map_parallel(cells.clone(), |(gi, mi)| {
        run_serving(generators[gi], SCENARIO_MANAGERS[mi], opts, intervals)
    });

    let mut serving = TextTable::new(&[
        "generator", "manager", "ns/op", "resettle", "phase-mig", "transient-p99",
    ]);
    for (ci, &(gi, mi)) in cells.iter().enumerate() {
        let r = &reports[ci];
        let cfg = generator_config(generators[gi], opts.scale, opts.threads, intervals)
            .expect("swept generators exist");
        let m = phase_metrics(r, &phase_boundaries(&cfg, intervals), intervals);
        serving.row(vec![
            generators[gi].to_string(),
            SCENARIO_MANAGERS[mi].to_string(),
            f(r.ns_per_op()),
            f(m.resettle),
            opts.paper_bytes(m.phase_bytes as u64),
            format!("{}x", f(m.transient_p99)),
        ]);
    }

    let mut out = format!("Scenario sweep ({intervals} intervals)\n\n");
    out.push_str(&serving.render());
    out.push('\n');

    if churn {
        let schedule = ChurnSchedule::serving_default(intervals);
        let outcomes = run_churn_cell("MTM", &schedule, opts, intervals);
        let mut table = TextTable::new(&[
            "tenant", "workload", "arrive", "depart", "intervals", "ns/op", "migrated",
        ]);
        for o in &outcomes {
            let migrated: u64 = o.report.telemetry.series.migrated_bytes.iter().sum();
            table.row(vec![
                o.name.clone(),
                o.workload.clone(),
                o.arrived.to_string(),
                if o.departed == intervals { "end".to_string() } else { o.departed.to_string() },
                (o.departed - o.arrived).to_string(),
                f(o.report.ns_per_op()),
                opts.paper_bytes(migrated),
            ]);
        }
        out.push_str(&format!(
            "Tenant churn (MTM, {} arbiter, {} scheduled events)\n\n",
            CHURN_ARBITER.label(),
            schedule.events().len()
        ));
        out.push_str(&table.render());
        out.push('\n');
    }

    if generators.contains(&"KVDrift") {
        let ci = cells
            .iter()
            .position(|&(gi, mi)| {
                generators[gi] == "KVDrift" && SCENARIO_MANAGERS[mi] == "MTM"
            })
            .expect("the MTM/KVDrift cell is in the sweep");
        out.push_str(&checkpoint_differential(&reports[ci], opts, intervals));
    }

    out.push_str(
        "\nresettle       mean intervals after a traffic shift until per-interval migration\n\
         \x20              falls to half the run mean or below\n\
         phase-mig      mean migration volume per phase, at paper scale\n\
         transient-p99  p99 ns/op inside the transient windows over the steady-state median\n",
    );
    out
}

/// Renders the sweep in the shape `MTM_SCENARIO_SET` and
/// `MTM_SCENARIO_INTERVALS` select. The flag is true when neither is set:
/// the full-table shape the committed `results/scenarios.txt` is
/// generated with.
pub fn run(opts: &Opts) -> (String, bool) {
    let crate::runs::EnvKnobs { scenario_set: set, scenario_intervals: len, .. } =
        crate::runs::env_knobs();
    let (generators, churn) = &set.values;
    let out = render(opts, generators, *churn, len.values.unwrap_or(opts.intervals));
    (out, !set.set && !len.set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_follow_the_generator_schedule() {
        let drift = generator_config("KVDrift", 1 << 12, 2, 24).unwrap();
        assert_eq!(phase_boundaries(&drift, 24), vec![4, 8, 12, 16, 20]);
        let flash = generator_config("FlashCrowd", 1 << 12, 2, 30).unwrap();
        assert_eq!(phase_boundaries(&flash, 30), vec![10, 15]);
        let diurnal = generator_config("Diurnal", 1 << 12, 2, 24).unwrap();
        assert_eq!(phase_boundaries(&diurnal, 24), vec![4, 8, 12, 16, 20]);
        assert!(generator_config("GUPS", 1 << 12, 2, 24).is_none());
    }

    #[test]
    fn settle_time_scans_to_the_phase_edge() {
        let m = [0, 9, 9, 4, 1, 9, 9, 9];
        assert_eq!(settle_time(&m, 1, 5, 4), 2, "first value at/below threshold");
        assert_eq!(settle_time(&m, 5, 8, 4), 3, "never settles: full phase");
        assert_eq!(settle_time(&m, 0, 5, 4), 0, "already settled");
    }

    #[test]
    fn churn_cell_runs_the_default_schedule() {
        let mut opts = Opts::quick();
        opts.scale = 1 << 14;
        opts.threads = 2;
        let intervals = 8;
        let outcomes =
            run_churn_cell("MTM", &ChurnSchedule::serving_default(intervals), &opts, intervals);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].name, "t00");
        assert_eq!(outcomes[0].arrived, 0);
        assert_eq!(outcomes[0].departed, intervals);
        let t02 = outcomes.iter().find(|o| o.name == "t02").expect("t02 churns");
        assert_eq!(t02.arrived, 2, "arrives at the quarter boundary");
        assert_eq!(t02.departed, 6, "departs at the three-quarter boundary");
        assert_eq!(t02.report.telemetry.series.migrated_bytes.len(), 4);
        assert!(t02.report.ops_completed > 0);
    }

    #[test]
    fn churn_cell_is_deterministic_across_calls() {
        let mut opts = Opts::quick();
        opts.scale = 1 << 14;
        opts.threads = 2;
        let schedule = ChurnSchedule::serving_default(6);
        let a = run_churn_cell("MTM", &schedule, &opts, 6);
        let b = run_churn_cell("MTM", &schedule, &opts, 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{:?}", x.report), format!("{:?}", y.report));
            assert_eq!(x.report.telemetry.to_json(), y.report.telemetry.to_json());
        }
    }

    #[test]
    fn checked_churn_cell_passes_the_census_and_matches_unchecked() {
        let mut opts = Opts::quick();
        opts.scale = 1 << 14;
        opts.threads = 2;
        let intervals = 8;
        let schedule = ChurnSchedule::serving_default(intervals);
        // `checked` arms every tenant's shadow-state sanitizer and the
        // quota-partition census at each arbitration and interval
        // boundary; any violation panics inside the cell.
        let plain = churn_cell("MTM", &schedule, &opts, intervals, false);
        let checked = churn_cell("MTM", &schedule, &opts, intervals, true);
        assert_eq!(plain.len(), checked.len());
        for (x, y) in plain.iter().zip(&checked) {
            assert_eq!(x.name, y.name);
            assert_eq!(format!("{:?}", x.report), format!("{:?}", y.report), "{}", x.name);
            assert_eq!(x.report.telemetry.to_json(), y.report.telemetry.to_json(), "{}", x.name);
        }
    }
}
