//! Pins the access streams of the workloads. Each runs small through
//! `record_run`, and the FNV-1a digest of the MTMTRACE bytes must match
//! the value committed here. Host-side optimisations of a workload's
//! tick (prefetching, storage layout, branch-free selection) must leave
//! the simulated stream untouched; an edit that changes it fails this
//! test, and the new digest is then a deliberate, reviewed change. A
//! trace also embeds the machine's post-setup `save_state` blob, so a
//! change to that format, or to what set-up leaves in the measurement
//! state (clock, counters, PEBS), moves every digest here with the
//! stream itself unchanged; compare the bytes after the snapshot before
//! re-pinning.
//! The machine here runs unarmed, so its snapshot carries an empty
//! frame-version block (versions are the sanitizer's).

use mtm_scenario::trace::record_run;
use mtm_workloads::graph::RmatParams;
use mtm_workloads::{
    Bfs, BfsConfig, Gups, GupsConfig, HotsetMode, Sssp, SsspConfig, Terasort, TerasortConfig, Tpcc,
    TpccConfig, Ycsb, YcsbConfig,
};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{FirstTouchPolicy, Workload};
use tiersim::tier::tiny_two_tier;
use tiersim::PAGE_SIZE_2M;

const THREADS: usize = 2;
const INTERVALS: u64 = 4;
const GRAPH: RmatParams = RmatParams { vertices: 4096, edges: 32_768, seed: 0x5EED };

/// FNV-1a of the recorded trace, and its length in bytes.
fn trace_digest(workload: impl Workload) -> (u64, usize) {
    let mut cfg = MachineConfig::new(tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M), THREADS);
    cfg.interval_ns = 0.5e6;
    let (_, trace) = record_run(&mut Machine::new(cfg), &mut FirstTouchPolicy, workload, INTERVALS)
        .expect("recordable");
    (obs::wire::fnv1a(&trace), trace.len())
}

fn gups(mode: HotsetMode, rotate_every: Option<u64>) -> Gups {
    Gups::new(GupsConfig {
        table_bytes: 8 * PAGE_SIZE_2M,
        hot_frac: 0.2,
        hot_access_frac: 0.8,
        rotate_every,
        mode,
        threads: THREADS,
        cpu_ns_per_op: 200.0,
        seed: 7,
    })
}

#[test]
fn bfs_access_stream_is_pinned() {
    let bfs = Bfs::new(BfsConfig { graph: GRAPH, threads: THREADS, cpu_ns_per_op: 200.0, seed: 7 });
    assert_eq!(trace_digest(bfs), (0x0b40_3899_6d13_8708, 169_886));
}

#[test]
fn sssp_access_stream_is_pinned() {
    let sssp = Sssp::new(SsspConfig { graph: GRAPH, threads: THREADS, cpu_ns_per_op: 200.0, seed: 7 });
    assert_eq!(trace_digest(sssp), (0x5ae0_9f4b_99b9_e5d7, 172_403));
}

#[test]
fn gups_band_with_rotation_access_stream_is_pinned() {
    assert_eq!(trace_digest(gups(HotsetMode::Band, Some(1))), (0x235b_5c58_d7e1_19bb, 188_621));
}

#[test]
fn gups_gaussian_access_stream_is_pinned() {
    assert_eq!(trace_digest(gups(HotsetMode::Gaussian, None)), (0x31e3_0853_829a_8c7a, 188_621));
}

#[test]
fn ycsb_access_stream_is_pinned() {
    let mut cfg = YcsbConfig::paper(1 << 14, THREADS);
    cfg.cpu_ns_per_op = 200.0;
    assert_eq!(trace_digest(Ycsb::new(cfg)), (0xf1ff_bbaa_0867_6233, 188_489));
}

#[test]
fn tpcc_access_stream_is_pinned() {
    let mut cfg = TpccConfig::paper(1 << 12, THREADS);
    cfg.cpu_ns_per_op = 200.0;
    assert_eq!(trace_digest(Tpcc::new(cfg)), (0x747f_b2fd_d29b_22a0, 100_507));
}

#[test]
fn terasort_access_stream_is_pinned() {
    // 2048 records in 8 partitions: the four intervals finish one job
    // (sample, partition, sort, merge) and start partitioning the next.
    let cfg = TerasortConfig {
        input_bytes: 2048 * 100,
        partitions: 8,
        threads: THREADS,
        cpu_ns_per_op: 100.0,
        seed: 0x7E4A,
    };
    assert_eq!(trace_digest(Terasort::new(cfg)), (0x4e30_c669_8a0e_ca75, 165_082));
}
