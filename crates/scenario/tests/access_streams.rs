//! Pins the access streams of the graph workloads. BFS and SSSP run on a
//! small R-MAT graph through `record_run`, and the FNV-1a digest of the
//! MTMTRACE bytes must match the value committed here. Host-side
//! optimisations of `tick` (prefetching, storage layout) must leave the
//! simulated stream untouched; an edit that changes it fails this test,
//! and the new digest is then a deliberate, reviewed change.

use mtm_scenario::trace::record_run;
use mtm_workloads::graph::RmatParams;
use mtm_workloads::{Bfs, BfsConfig, Sssp, SsspConfig};
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

#[test]
fn bfs_access_stream_is_pinned() {
    let bfs = Bfs::new(BfsConfig { graph: GRAPH, threads: THREADS, cpu_ns_per_op: 200.0, seed: 7 });
    assert_eq!(trace_digest(bfs), (0x72b7_4228_5ddf_8e85, 171_960));
}

#[test]
fn sssp_access_stream_is_pinned() {
    let sssp = Sssp::new(SsspConfig { graph: GRAPH, threads: THREADS, cpu_ns_per_op: 200.0, seed: 7 });
    assert_eq!(trace_digest(sssp), (0x9731_5551_06db_cb85, 176_526));
}
