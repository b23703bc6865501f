//! Simulator hot-path microbenchmarks: per-access cost (reads, writes and
//! one whole GUPS, BFS or SSSP tick), PTE scanning and region relocation
//! throughput of the `tiersim` substrate itself, plus the parallel R-MAT
//! generator that dominates graph-workload set-up.

use mtm_bench::Bench;
use mtm_workloads::graph::rmat;
use mtm_workloads::{Bfs, BfsConfig, Gups, GupsConfig, Sssp, SsspConfig};
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

/// Times one `tick` of `workload` at a time, round-robin over four
/// threads, through the `MemEnv` dispatch the interval loop uses, on a
/// first-touch machine at the quick scale.
fn tick_bench(b: &mut Bench, name: &str, mut workload: impl Workload) {
    let scale = 1 << 12;
    let mut m = Machine::new(MachineConfig::new(optane_four_tier(scale), 4));
    let mut policy = FirstTouchPolicy;
    workload.setup(&mut SimEnv { machine: &mut m, manager: &mut policy });
    let mut tid = 0;
    b.iter(name, || {
        tid = (tid + 1) % 4;
        workload.tick(&mut SimEnv { machine: &mut m, manager: &mut policy }, tid);
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

    // One GUPS update (compute, three reads, one write), one BFS and one
    // SSSP tick (a bounded slice of one vertex's edges).
    tick_bench(&mut b, "substrate/gups_tick", Gups::new(GupsConfig::paper(1 << 12, 4)));
    tick_bench(&mut b, "substrate/bfs_tick", Bfs::new(BfsConfig::paper(1 << 12, 4)));
    tick_bench(&mut b, "substrate/sssp_tick", Sssp::new(SsspConfig::paper(1 << 12, 4)));

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
