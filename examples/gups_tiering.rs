//! GUPS under four page-management systems.
//!
//! Runs the paper's GUPS workload (20 % hot set taking 80 % of updates)
//! under first-touch NUMA, tiered-AutoNUMA, HeMem and MTM on the same
//! four-tier machine, and prints the steady-state time per update — a
//! miniature of the paper's Fig. 4.
//!
//! ```sh
//! cargo run --release --example gups_tiering
//! ```

use mtm_harness::runs::RunSpec;
use mtm_harness::Opts;

fn main() {
    let mut opts = Opts::quick();
    opts.scale = 1 << 12; // 1/4096 of the paper's machine: 128 MB GUPS table.
    opts.intervals = 30;
    opts.threads = 4;

    println!("GUPS, {} table, {} threads, {} intervals\n", "128MB", opts.threads, opts.intervals);
    println!("{:<22} {:>14} {:>14} {:>12}", "system", "ns/update", "steady ns/op", "vs first-touch");

    let mut base = None;
    for mgr in ["first-touch", "autonuma", "hemem", "MTM"] {
        let r = RunSpec::new(mgr, "GUPS", &opts).expect("known pair").run();
        let steady = r.ns_per_op_steady();
        let base_v = *base.get_or_insert(steady);
        println!(
            "{:<22} {:>14.1} {:>14.1} {:>11.2}x",
            r.manager,
            r.ns_per_op(),
            steady,
            steady / base_v
        );
    }
    println!("\nLower is better; MTM's adaptive profiling finds the hot set and");
    println!("promotes it to DRAM while first-touch strands most of it in PM.");
}
