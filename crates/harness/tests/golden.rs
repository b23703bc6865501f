//! Golden-report regression test: renders a small fixed (manager,
//! workload) matrix in quick mode and compares it byte-for-byte against
//! the checked-in fixture at `tests/golden/report.txt`.
//!
//! When an intentional behavior change shifts the numbers, regenerate
//! the fixture with:
//!
//! ```text
//! MTM_BLESS=1 cargo test -p mtm-harness --test golden
//! ```

use std::fmt::Write as _;
use std::path::Path;

use mtm_harness::runs::RunSpec;
use mtm_harness::tablefmt::TextTable;
use mtm_harness::Opts;
use tiersim::sim::RunReport;

const PAIRS: [(&str, &str); 3] = [("first-touch", "GUPS"), ("hemem", "GUPS"), ("MTM", "GUPS")];

fn tiny() -> Opts {
    let mut o = Opts::quick();
    o.scale = 1 << 13;
    o.threads = 2;
    o.intervals = 6;
    o
}

/// The report under test: throughput plus the decision telemetry that
/// rides along with each run, so a regression in either the simulation
/// or the instrumentation shifts a cell.
fn render() -> String {
    render_with(|m, w, o| spec(m, w, o).run())
}

fn spec(manager: &str, workload: &str, opts: &Opts) -> RunSpec {
    RunSpec::new(manager, workload, opts).expect("known pair")
}

fn render_with(run: impl Fn(&str, &str, &Opts) -> RunReport) -> String {
    let opts = tiny();
    let mut t = TextTable::new(&[
        "manager",
        "workload",
        "ops",
        "migrated bytes",
        "promotions",
        "demotions",
        "events",
    ]);
    for (m, w) in PAIRS {
        let r = run(m, w, &opts);
        let reg = &r.telemetry.registry;
        t.row(vec![
            m.to_string(),
            w.to_string(),
            r.ops_completed.to_string(),
            r.machine.bytes_migrated.to_string(),
            reg.counter(obs::names::PROMOTIONS).to_string(),
            reg.counter(obs::names::DEMOTIONS).to_string(),
            r.telemetry.events.len().to_string(),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "Golden quick-matrix report (scale=2^13, 2 threads, 6 intervals)").unwrap();
    out.push_str(&t.render());
    out
}

#[test]
fn report_matches_golden_fixture() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.txt");
    let got = render();
    if std::env::var("MTM_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed golden fixture {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nregenerate with MTM_BLESS=1 cargo test -p mtm-harness --test golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "report drifted from the golden fixture; if intended, regenerate with \
         MTM_BLESS=1 cargo test -p mtm-harness --test golden"
    );
}

/// Healthy-path guard for the fault subsystem: installing a disabled
/// plan (with a non-default seed) must reproduce the golden fixture byte
/// for byte. A disabled fault plane that consumed RNG draws, perturbed
/// bandwidth, or shifted telemetry would show up here as a fixture
/// mismatch.
#[test]
fn disabled_fault_plane_reproduces_the_golden_fixture() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.txt");
    let Ok(want) = std::fs::read_to_string(&path) else {
        // `report_matches_golden_fixture` owns the missing-fixture error.
        return;
    };
    let got = render_with(|m, w, o| {
        let mut run = spec(m, w, o);
        run.faults = Some((faultsim::FaultPlan::default(), 0xfee1_dead));
        run.run()
    });
    assert_eq!(got, want, "a disabled fault plane must not move a single byte of the report");
}

/// A faulty run is a pure function of (plan, seed): replaying the same
/// plan and seed yields identical throughput and identical fault/retry
/// telemetry, and the injections demonstrably fired.
#[test]
fn faulty_runs_replay_identically() {
    let opts = tiny();
    let plan = "busy=0.3,allocfail=0.2,droppebs=0.5,drophint=0.5";
    let run = || {
        let mut run = spec("hemem", "GUPS", &opts);
        run.faults = Some((faultsim::FaultPlan::parse(plan).unwrap(), 0xfee1_dead));
        run.run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.ops_completed, b.ops_completed);
    let injected = |r: &RunReport| {
        let reg = &r.telemetry.registry;
        reg.counter(obs::names::FAULT_PAGE_BUSY)
            + reg.counter(obs::names::FAULT_ALLOC_FAIL)
            + reg.counter(obs::names::FAULT_PEBS_LOST)
            + reg.counter(obs::names::FAULT_HINTS_LOST)
    };
    assert_eq!(injected(&a), injected(&b), "identical injection schedule");
    assert_eq!(
        a.telemetry.registry.counter(obs::names::MIGRATION_RETRIES),
        b.telemetry.registry.counter(obs::names::MIGRATION_RETRIES),
        "identical retry behavior"
    );
    assert!(injected(&a) > 0, "the plan actually injected faults");
}
