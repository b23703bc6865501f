//! Admission-control sweep: wasted migration traffic vs end-to-end
//! slowdown for every admission policy across the resilience fault
//! levels.
//!
//! Each cell runs MTM (the only manager with an admission plane) on one
//! workload with the policy and fault plan set in its [`RunSpec`],
//! overriding `MTM_ADMIT`/`MTM_FAULTS` (the policies and levels are the
//! experiment).
//! Like the resilience sweep, every cell draws its fault schedule from a
//! label-derived stream, so the table is byte-identical for any
//! `MTM_JOBS` value.

use mtm::AdmissionKind;
use tiersim::sim::RunReport;

use crate::opts::Opts;
use crate::resilience::{level_spec, LEVELS};
use crate::runs::RunSpec;
use crate::tablefmt::{f, TextTable};

/// The four built-in policies, legacy default first (it is the slowdown
/// baseline).
pub const POLICIES: [AdmissionKind; 4] = [
    AdmissionKind::Always,
    AdmissionKind::PingPong,
    AdmissionKind::RateLimit,
    AdmissionKind::HotnessDelta,
];

/// The workloads the sweep stresses: GUPS (uniformly hot,
/// migration-heavy) and BFS (skewed, bursty frontier).
pub const SWEEP_WORKLOADS: [&str; 2] = ["GUPS", "BFS"];

/// Runs one sweep cell; `run` maps it over the sweep.
fn run_cell(
    workload: &str,
    policy: AdmissionKind,
    level: &str,
    opts: &Opts,
    base_seed: u64,
) -> RunReport {
    let mut run = RunSpec::new("MTM", workload, opts)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
    run.mtm_mut().admission = policy;
    run.faults = level_spec(level, opts.intervals).map(|spec| {
        let plan = faultsim::FaultPlan::parse(&spec).expect("built-in level specs parse");
        // The label deliberately excludes the policy: every cell of a
        // workload/level pair replays the SAME fault trace, so column
        // differences come from admission decisions alone, never from
        // different fault dice.
        let label = format!("adm/{workload}/{level}");
        (plan, faultsim::derive_seed(base_seed, &label))
    });
    run.run()
}

/// Renders the admission sweep table.
pub fn run(opts: &Opts) -> String {
    let base_seed = crate::runs::fault_seed();
    // Cell order (and thus table order): workload, policy, level.
    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for wi in 0..SWEEP_WORKLOADS.len() {
        for pi in 0..POLICIES.len() {
            for li in 0..LEVELS.len() {
                cells.push((wi, pi, li));
            }
        }
    }
    let reports = crate::runpool::map_parallel(cells.clone(), |(wi, pi, li)| {
        run_cell(SWEEP_WORKLOADS[wi], POLICIES[pi], LEVELS[li], opts, base_seed)
    });
    let report = |wi: usize, pi: usize, li: usize| -> &RunReport {
        &reports[(wi * POLICIES.len() + pi) * LEVELS.len() + li]
    };

    let mut t = TextTable::new(&[
        "workload", "policy", "faults", "ns/op", "slowdown", "wasted-MB", "rejected", "rej-MB",
    ]);
    for &(wi, pi, li) in &cells {
        let r = report(wi, pi, li);
        let reg = &r.telemetry.registry;
        // The baseline every cell is judged against: the legacy pipeline
        // (always) on the same workload, healthy.
        let base = report(wi, 0, 0);
        let slowdown = if base.ns_per_op().is_finite() && base.ns_per_op() > 0.0 {
            format!("{}x", f(r.ns_per_op() / base.ns_per_op()))
        } else {
            "n/a".to_string()
        };
        let mb = |c: &str| f(reg.counter(c) as f64 / 1.0e6);
        t.row(vec![
            SWEEP_WORKLOADS[wi].to_string(),
            POLICIES[pi].label().to_string(),
            LEVELS[li].to_string(),
            f(r.ns_per_op()),
            slowdown,
            mb(obs::names::WASTED_MIGRATION_BYTES),
            reg.counter(obs::names::ADMIT_REJECTED).to_string(),
            mb(obs::names::ADMIT_REJECTED_BYTES),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Admission control (MTM, {} intervals, seed {base_seed})\n\n",
        opts.intervals
    ));
    out.push_str(&t.render());
    out.push('\n');
    for &level in &LEVELS[1..] {
        let spec = level_spec(level, opts.intervals).expect("non-healthy levels have a spec");
        out.push_str(&format!("{level:<7} = MTM_FAULTS=\"{spec}\"\n"));
    }
    out.push_str(
        "\nslowdown   vs the same workload's always healthy run (ns/op ratio)\n\
         wasted-MB  bytes migrated into ranges that had just migrated (ping-pong traffic)\n\
         rejected   candidate batches vetoed by the admission policy (rej-MB: their bytes)\n",
    );
    out
}
