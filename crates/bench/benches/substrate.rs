//! Simulator hot-path microbenchmarks: per-access cost (reads, writes and
//! one whole GUPS tick), PTE scanning and region relocation throughput of
//! the `tiersim` substrate itself, plus the parallel R-MAT generator that
//! dominates graph-workload set-up.

use mtm_bench::Bench;
use mtm_workloads::graph::rmat;
use mtm_workloads::{BfsConfig, Gups, GupsConfig};
use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::machine::{AccessKind, Machine, MachineConfig};
use tiersim::sim::{FirstTouchPolicy, SimEnv, Workload};
use tiersim::tier::optane_four_tier;

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::new(optane_four_tier(1 << 12), 4));
    let r = VaRange::from_len(VirtAddr(0), 64 * PAGE_SIZE_2M);
    m.mmap("bench", r, true);
    m.prefault_range(r, &[0, 1, 2, 3]).unwrap();
    m
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

    // One GUPS update (compute, three reads, one write) through the
    // `MemEnv` dispatch the interval loop uses, round-robin over threads.
    let scale = 1 << 12;
    let mut m = Machine::new(MachineConfig::new(optane_four_tier(scale), 4));
    let mut gups = Gups::new(GupsConfig::paper(scale, 4));
    let mut policy = FirstTouchPolicy;
    gups.setup(&mut SimEnv { machine: &mut m, manager: &mut policy });
    let mut tid = 0;
    b.iter("substrate/gups_tick", || {
        tid = (tid + 1) % 4;
        gups.tick(&mut SimEnv { machine: &mut m, manager: &mut policy }, tid);
    });

    let mut m = machine();
    let mut i = 0u64;
    b.iter("substrate/pte_scan", || {
        i += PAGE_SIZE_4K;
        m.scan_page(VirtAddr(i % (64 * PAGE_SIZE_2M)))
    });

    b.iter_batched("substrate/relocate_2mb", machine, |mut m| {
        let r = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        tiersim::migrate::relocate_range(&mut m, r, 3, 0, 4, false)
    });

    // Uncached on purpose: `cached_rmat` would time one generation and
    // then a map lookup.
    let graph = BfsConfig::paper(4096, 4).graph;
    b.iter_throughput("substrate/rmat_quick", graph.edges, || rmat(graph));

    b.finish();
}
