//! Simulator hot-path microbenchmarks: per-access cost (reads, writes and
//! one whole round of GUPS, BFS or SSSP ticks, on the fast path and in
//! Memory Mode), PTE scanning and region relocation throughput of the
//! `tiersim` substrate itself, MTM's interval hooks on a running GUPS
//! machine, plus the parallel R-MAT generator that dominates
//! graph-workload set-up.

use mtm_baselines::hmc::MemoryMode;
use mtm_bench::Bench;
use mtm_harness::runs::{build_manager, healthy_machine_for};
use mtm_harness::Opts;
use mtm_workloads::graph::rmat;
use mtm_workloads::{Bfs, BfsConfig, Gups, GupsConfig, Sssp, SsspConfig};
use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::machine::{AccessKind, Machine, MachineConfig};
use tiersim::sim::{
    FirstTouchPolicy, MemoryManager, ScenarioProgress, SimEnv, Workload, ROUND_TICKS,
};
use tiersim::tier::optane_four_tier;

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::new(optane_four_tier(1 << 12), 4));
    let r = VaRange::from_len(VirtAddr(0), 64 * PAGE_SIZE_2M);
    m.mmap("bench", r, true);
    m.prefault_range(r, &[0, 1, 2, 3]).unwrap();
    m
}

/// A Memory Mode machine at the default scale, 1/256, so its two DRAM
/// caches hold the paper-sized tag array (768 MB of DRAM, one tag byte
/// per 64 B line).
fn memory_mode_machine() -> Machine {
    let mut cfg = MachineConfig::new(optane_four_tier(1 << 8), 4);
    cfg.hmc_mode = true;
    Machine::new(cfg)
}

/// Times one `round` of `workload` per iteration, the unit the interval
/// loop calls (`ROUND_TICKS` ticks on each of four threads, so the
/// throughput is ticks per second), on machine `m` under `manager`.
fn round_bench(
    b: &mut Bench,
    name: &str,
    mut m: Machine,
    manager: &mut dyn MemoryManager,
    mut workload: impl Workload,
) {
    workload.setup(&mut SimEnv { machine: &mut m, manager });
    b.iter_throughput(name, (ROUND_TICKS * 4) as u64, || {
        workload.round(&mut SimEnv { machine: &mut m, manager }, 4);
    });
}

/// [`round_bench`] on a first-touch machine at the quick scale.
fn first_touch_round_bench(b: &mut Bench, name: &str, workload: impl Workload) {
    let m = Machine::new(MachineConfig::new(optane_four_tier(1 << 12), 4));
    round_bench(b, name, m, &mut FirstTouchPolicy, workload);
}

/// Intervals [`mtm_interval_bench`] times per sample.
const HOOK_INTERVALS: u64 = 16;

/// MTM's hooks alone: a GUPS run under MTM (rotating hot band, as in the
/// `gups_mtm` benchmark workload, at 1/1024 of the paper's footprint) is
/// stepped through 32 intervals untimed, so regions, sample plan, hotness
/// and in-flight migrations are those of a running system; then each
/// sample runs every sub-interval hook and the interval hook for
/// [`HOOK_INTERVALS`] intervals with no accesses in between.
fn mtm_interval_bench(b: &mut Bench) {
    let opts = Opts { scale: 1 << 10, threads: 4, intervals: 32, interval_ns: 2.0e6, quick: false };
    let prepared = || {
        let topo = optane_four_tier(opts.scale);
        let mut m = healthy_machine_for("MTM", &opts, topo.clone());
        let mut mgr = build_manager("MTM", &opts, &topo);
        let mut cfg = GupsConfig::paper(opts.scale, opts.threads);
        cfg.rotate_every = Some(12);
        let mut w = Gups::new(cfg);
        let mut progress = ScenarioProgress::start(&mut m, mgr.as_mut(), &mut w);
        for ivl in 0..opts.intervals {
            progress.step_interval(&mut m, mgr.as_mut(), &mut w, ivl);
        }
        (m, mgr)
    };
    b.iter_batched("substrate/mtm_interval", prepared, |(mut m, mut mgr)| {
        for ivl in opts.intervals..opts.intervals + HOOK_INTERVALS {
            for k in 0..mgr.sub_intervals() {
                mgr.on_subinterval(&mut m, ivl, k);
            }
            mgr.on_interval(&mut m, ivl);
        }
        (m, mgr)
    });
}

fn main() {
    let mut b = Bench::new("substrate");

    let mut m = machine();
    let mut i = 0u64;
    b.iter_throughput("substrate/access_read", 1, || {
        i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
        let va = VirtAddr((i >> 33) % (64 * PAGE_SIZE_2M) & !63);
        m.access(0, va, AccessKind::Read)
    });

    // Writes also bump the frame version and charge the write-weighted
    // line bytes, which reads never reach.
    let mut m = machine();
    let mut i = 0u64;
    b.iter_throughput("substrate/access_write", 1, || {
        i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
        let va = VirtAddr((i >> 33) % (64 * PAGE_SIZE_2M) & !63);
        m.access(0, va, AccessKind::Write)
    });

    // Writes spread over 1024 huge pages. Each bumps its page's head frame
    // version; `access_write`'s 64 pages never reach the host cache
    // aliasing that many head versions 4 KB apart would cause.
    let spread = 1024 * PAGE_SIZE_2M;
    let mut m = Machine::new(MachineConfig::new(optane_four_tier(1 << 8), 4));
    let r = VaRange::from_len(VirtAddr(0), spread);
    m.mmap("bench", r, true);
    m.prefault_range(r, &[0, 1, 2, 3]).unwrap();
    let mut i = 0u64;
    b.iter_throughput("substrate/access_write_huge_spread", 1, || {
        i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
        let va = VirtAddr(((i >> 33) % spread) & !63);
        m.access(0, va, AccessKind::Write)
    });

    // Memory Mode reads and writes over 2 GB of PM, wider than the 768 MB
    // of DRAM cache in front of it, so hits and misses (with dirty
    // writebacks, for writes) mix at random.
    let hmc_benches = [
        ("substrate/hmc_access_read", AccessKind::Read),
        ("substrate/hmc_access_write", AccessKind::Write),
    ];
    for (name, kind) in hmc_benches {
        let mut m = memory_mode_machine();
        m.mmap("bench", r, true);
        m.prefault_range(r, &[2, 3]).unwrap();
        // One probe per 512 lines (512 tag bytes) faults in every page of
        // the tag array, so the samples time probes, not page zeroing.
        for va in (0..spread).step_by(512 * 64) {
            m.access(0, VirtAddr(va), kind);
        }
        let mut i = 0u64;
        b.iter_throughput(name, 1, || {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            let va = VirtAddr(((i >> 33) % spread) & !63);
            m.access(0, va, kind)
        });
    }

    // 32 ticks each: GUPS updates (compute, three reads, one write), BFS
    // and SSSP ticks (a bounded slice of one vertex's edges). The Memory
    // Mode round is the default-scale `hmc` GUPS run's.
    first_touch_round_bench(&mut b, "substrate/gups_round", Gups::new(GupsConfig::paper(1 << 12, 4)));
    first_touch_round_bench(&mut b, "substrate/bfs_round", Bfs::new(BfsConfig::paper(1 << 12, 4)));
    first_touch_round_bench(&mut b, "substrate/sssp_round", Sssp::new(SsspConfig::paper(1 << 12, 4)));
    round_bench(
        &mut b,
        "substrate/hmc_gups_round",
        memory_mode_machine(),
        &mut MemoryMode,
        Gups::new(GupsConfig::paper(1 << 8, 4)),
    );

    let mut m = machine();
    let mut i = 0u64;
    b.iter("substrate/pte_scan", || {
        i += PAGE_SIZE_4K;
        m.scan_page(VirtAddr(i % (64 * PAGE_SIZE_2M)))
    });

    mtm_interval_bench(&mut b);

    b.iter_batched("substrate/relocate_2mb", machine, |mut m| {
        let r = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        tiersim::migrate::relocate_range(&mut m, r, 3, 4, false)
    });

    // Uncached on purpose: `cached_rmat` would time one generation and
    // then a map lookup.
    let graph = BfsConfig::paper(4096, 4).graph;
    b.iter_throughput("substrate/rmat_quick", graph.edges, || rmat(graph));

    b.finish();
}
