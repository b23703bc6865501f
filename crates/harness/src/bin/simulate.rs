//! `simulate` — run a custom (manager, workload) scenario from the
//! command line and print the full report.
//!
//! ```sh
//! cargo run --release -p mtm-harness --bin simulate -- \
//!     --manager MTM --workload Cassandra --scale 512 --intervals 60
//! ```
//!
//! Managers: `first-touch`, `hmc`, `vanilla-autonuma`, `autonuma`,
//! `autotiering`, `hemem`, `thermostat`, `damon`, `MTM`,
//! `MTM:w/o-{AMR,APS,OC,PEBS,async}`, `MTM:fast-first`.
//! Workloads: `GUPS`, `VoltDB`, `Cassandra`, `BFS`, `SSSP`, `Spark`.

use mtm_harness::runs::RunSpec;
use mtm_harness::Opts;
use tiersim::addr::fmt_bytes;
use tiersim::tier::two_tier;

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--manager M] [--workload W] [--scale N] [--threads N] \
         [--intervals N] [--interval-ns F] [--two-tier]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = Opts::from_env();
    let mut manager = "MTM".to_string();
    let mut workload = "GUPS".to_string();
    let mut use_two_tier = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--manager" => manager = val(&mut args),
            "--workload" => workload = val(&mut args),
            "--scale" => opts.scale = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--threads" => opts.threads = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--intervals" => opts.intervals = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--interval-ns" => opts.interval_ns = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--two-tier" => use_two_tier = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let Some(mut spec) = RunSpec::new(&manager, &workload, &opts) else {
        eprintln!("unknown manager {manager:?} or workload {workload:?}");
        usage();
    };
    if use_two_tier {
        spec.topology = two_tier(opts.scale);
    }
    let r = spec.run();
    let topo = &spec.topology;

    println!("manager      : {}", r.manager);
    println!("workload     : {} ({} footprint, paper-scale {})",
        r.workload, fmt_bytes(r.footprint), opts.paper_bytes(r.footprint));
    println!("intervals    : {} x {:.2} ms", opts.intervals, opts.interval_ns / 1e6);
    println!("ops          : {}", r.ops_completed);
    println!("ns/op        : {:.1} (steady {:.1})", r.ns_per_op(), r.ns_per_op_steady());
    println!(
        "time         : app {:.2} ms | profiling {:.2} ms | migration {:.2} ms",
        r.breakdown.app_ns / 1e6,
        r.breakdown.profiling_ns / 1e6,
        r.breakdown.migration_ns / 1e6
    );
    println!("migrated     : {} pages / {}", r.machine.pages_migrated, fmt_bytes(r.machine.bytes_migrated));
    println!("hot detected : {}", fmt_bytes(r.hot_bytes_identified));
    println!("metadata     : {}", fmt_bytes(r.metadata_bytes));
    println!("residency by tier (node-0 view):");
    for rank in 0..topo.num_components() {
        let c = topo.component_at_rank(0, rank);
        println!(
            "  tier {} {:6} : {:>10}  ({} accesses)",
            rank + 1,
            topo.components[c as usize].name,
            fmt_bytes(r.residency[c as usize]),
            r.component_counts[c as usize].total()
        );
    }
    if let Some(rs) = r.region_stats {
        println!(
            "regions      : avg {:.0} live, {:.1} merged + {:.1} split per interval",
            rs.avg_regions, rs.avg_merged, rs.avg_split
        );
    }
}
