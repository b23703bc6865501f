//! Differential and determinism tests for the multi-tenant cell driver.
//!
//! The load-bearing claim: a 1-tenant cell is the *same computation* as
//! the legacy single-tenant path — arbitration at N=1 grants the full
//! machine, the full migration budget and a profile share of exactly
//! 1.0, all bit-exact identities. The tests here pin that, plus the
//! determinism contract (`MTM_JOBS` / `MTM_RUN_WORKERS` never change a
//! byte) and tenant-stream independence for same-named workloads.

use mtm::arbiter::ArbiterKind;
use mtm_harness::multitenant::{render, run_cell, tenant_specs};
use mtm_harness::resilience::RESILIENCE_MANAGERS;
use mtm_harness::runs::RunSpec;
use mtm_harness::Opts;

/// Tiny but real run options (same idiom as the parallel tests), with a
/// distinctive interval_ns so cache keys never collide across binaries.
fn tiny(intervals: u64) -> Opts {
    let mut o = Opts::quick();
    o.scale = 1 << 13;
    o.threads = 2;
    o.intervals = intervals;
    o.interval_ns = 0.25e6 + intervals as f64;
    o
}

#[test]
fn single_tenant_cell_is_identical_to_the_legacy_path() {
    let opts = tiny(3);
    let specs = tenant_specs(1);
    for manager in RESILIENCE_MANAGERS {
        let legacy = RunSpec::new(manager, "GUPS", &opts).expect("known pair").run();
        let mt = run_cell(
            manager,
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
        .expect("one tenant, one report");
        assert_eq!(
            format!("{legacy:?}"),
            format!("{mt:?}"),
            "{manager}: 1-tenant cell diverges from run_scenario"
        );
        assert_eq!(
            legacy.telemetry.to_json(),
            mt.telemetry.to_json(),
            "{manager}: telemetry JSON diverges"
        );
    }
}

#[test]
fn single_tenant_identity_holds_for_every_arbiter() {
    let opts = tiny(2);
    let specs = tenant_specs(1);
    let legacy = RunSpec::new("MTM", "GUPS", &opts).expect("known pair").run();
    for arbiter in [
        ArbiterKind::StaticEqual,
        ArbiterKind::FootprintProportional,
        ArbiterKind::HotnessWeighted,
    ] {
        let mt = run_cell("MTM", &specs, opts.scale, arbiter, "healthy", &opts, 0, None, false)
            .pop()
            .unwrap();
        assert_eq!(
            format!("{legacy:?}"),
            format!("{mt:?}"),
            "{}: solo arbitration is not the identity",
            arbiter.label()
        );
    }
}

#[test]
fn multitenant_table_is_identical_for_any_jobs_count() {
    // Sequential on purpose: MTM_JOBS is process-global, and this is the
    // only test in this binary that touches it.
    let opts = tiny(2);
    let counts = [2usize];
    let arbiters = [ArbiterKind::HotnessWeighted];
    std::env::set_var("MTM_JOBS", "1");
    let serial = render(&opts, &counts, &arbiters);
    std::env::set_var("MTM_JOBS", "4");
    let parallel = render(&opts, &counts, &arbiters);
    std::env::remove_var("MTM_JOBS");
    assert_eq!(serial, parallel, "multitenant table depends on the worker count");
    assert!(serial.contains("hotness-weighted"));
}

#[test]
fn multitenant_cell_is_identical_for_any_run_worker_count() {
    let opts = tiny(2);
    let specs = tenant_specs(2);
    let one = run_cell(
        "MTM",
        &specs,
        opts.scale * 2,
        ArbiterKind::FootprintProportional,
        "heavy",
        &opts,
        7,
        Some(1),
        false,
    );
    let four = run_cell(
        "MTM",
        &specs,
        opts.scale * 2,
        ArbiterKind::FootprintProportional,
        "heavy",
        &opts,
        7,
        Some(4),
        false,
    );
    assert_eq!(
        format!("{one:?}"),
        format!("{four:?}"),
        "cell reports depend on MTM_RUN_WORKERS"
    );
}

#[test]
fn checked_cell_matches_unchecked_and_passes_census() {
    let opts = tiny(2);
    let specs = tenant_specs(2);
    let plain = run_cell(
        "MTM",
        &specs,
        opts.scale * 2,
        ArbiterKind::HotnessWeighted,
        "heavy",
        &opts,
        3,
        None,
        false,
    );
    // `checked` arms the shadow-state sanitizer and the per-tenant
    // quota-partition census; any violation panics inside run_cell.
    let checked = run_cell(
        "MTM",
        &specs,
        opts.scale * 2,
        ArbiterKind::HotnessWeighted,
        "heavy",
        &opts,
        3,
        None,
        true,
    );
    assert_eq!(format!("{plain:?}"), format!("{checked:?}"), "the sanitizer is read-only");
}

#[test]
fn same_named_workloads_draw_distinct_streams() {
    // t00 and t06 both run GUPS (round-robin wraps after six); their
    // workload salts and fault-stream labels must still differ, so the
    // two runs must not mirror each other.
    let opts = tiny(3);
    let roster = tenant_specs(7);
    let specs = vec![roster[0].clone(), roster[6].clone()];
    assert_eq!(specs[0].workload, specs[1].workload);
    let reports = run_cell(
        "MTM",
        &specs,
        opts.scale * 2,
        ArbiterKind::StaticEqual,
        "heavy",
        &opts,
        11,
        None,
        false,
    );
    assert_eq!(reports[0].workload, reports[1].workload);
    assert_ne!(
        reports[0].telemetry.to_json(),
        reports[1].telemetry.to_json(),
        "two tenants with the same workload name replayed the same access/fault stream"
    );
}
