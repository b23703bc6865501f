//! Pins the access streams of the workloads. Each runs small under
//! [`Hashed`], which folds every access and compute charge of `setup`
//! and `tick`, with its thread, into an FNV-1a digest, plus the
//! workload's `ops_completed` at each interval end; the digest and the
//! number of operations folded must match the values committed here.
//! Host-side optimisations of a workload's tick (prefetching, storage
//! layout, branch-free selection) must leave the simulated stream
//! untouched; an edit that changes it fails this test, and the new digest
//! is then a deliberate, reviewed change. The machine is not hashed:
//! only what the workload issues is.

use mtm_workloads::graph::RmatParams;
use mtm_workloads::{
    Bfs, BfsConfig, Gups, GupsConfig, HotsetMode, Sssp, SsspConfig, Terasort, TerasortConfig, Tpcc,
    TpccConfig, Ycsb, YcsbConfig,
};
use tiersim::addr::{VaRange, VirtAddr};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{run_scenario, FirstTouchPolicy, MemEnv, Workload};
use tiersim::tier::tiny_two_tier;
use tiersim::PAGE_SIZE_2M;

const THREADS: usize = 2;
const INTERVALS: u64 = 4;
const GRAPH: RmatParams = RmatParams { vertices: 4096, edges: 32_768, seed: 0x5EED };

/// Operation tags folded ahead of each operation's operand.
const READ: u64 = 0;
const WRITE: u64 = 1;
const COMPUTE: u64 = 2;
const OPS: u64 = 3;

/// A running FNV-1a digest over little-endian `u64` words, and the
/// number of operations folded into it.
#[derive(Clone, Copy)]
struct Digest {
    hash: u64,
    ops: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest { hash: 0xcbf2_9ce4_8422_2325, ops: 0 }
    }

    fn fold(&mut self, words: [u64; 3]) {
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self.ops += 1;
    }
}

/// A [`MemEnv`] that forwards to the real environment and folds every
/// operation into the digest. `update` is left to the trait default, so
/// a read-modify-write folds as a read and then a write.
struct HashingEnv<'a> {
    env: &'a mut dyn MemEnv,
    digest: &'a mut Digest,
}

impl MemEnv for HashingEnv<'_> {
    fn read(&mut self, tid: usize, va: VirtAddr) {
        self.digest.fold([tid as u64, READ, va.0]);
        self.env.read(tid, va);
    }

    fn write(&mut self, tid: usize, va: VirtAddr) {
        self.digest.fold([tid as u64, WRITE, va.0]);
        self.env.write(tid, va);
    }

    fn compute(&mut self, tid: usize, ns: f64) {
        self.digest.fold([tid as u64, COMPUTE, ns.to_bits()]);
        self.env.compute(tid, ns);
    }

    fn machine(&mut self) -> &mut Machine {
        self.env.machine()
    }
}

/// Runs a workload unchanged while hashing its stream. It keeps the
/// provided `round`, which calls `tick` per tick, so every tick passes
/// through the hashing environment.
struct Hashed<W: Workload> {
    inner: W,
    digest: Digest,
}

impl<W: Workload> Workload for Hashed<W> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        self.inner.setup(&mut HashingEnv { env, digest: &mut self.digest });
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.inner.tick(&mut HashingEnv { env, digest: &mut self.digest }, tid);
    }

    fn footprint(&self) -> u64 {
        self.inner.footprint()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        self.inner.true_hot_ranges()
    }

    fn end_of_interval(&mut self, interval: u64) {
        self.inner.end_of_interval(interval);
        self.digest.fold([interval, OPS, self.inner.ops_completed()]);
    }

    fn ops_completed(&self) -> u64 {
        self.inner.ops_completed()
    }
}

/// The stream digest and operation count of a small run of `workload`.
fn stream_digest(workload: impl Workload) -> (u64, u64) {
    let mut cfg = MachineConfig::new(tiny_two_tier(16 * PAGE_SIZE_2M, 96 * PAGE_SIZE_2M), THREADS);
    cfg.interval_ns = 0.5e6;
    let mut hashed = Hashed { inner: workload, digest: Digest::new() };
    run_scenario(&mut Machine::new(cfg), &mut FirstTouchPolicy, &mut hashed, INTERVALS);
    (hashed.digest.hash, hashed.digest.ops)
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
    assert_eq!(stream_digest(bfs), (0x5445_6b9a_412b_407d, 39_535));
}

#[test]
fn sssp_access_stream_is_pinned() {
    let sssp = Sssp::new(SsspConfig { graph: GRAPH, threads: THREADS, cpu_ns_per_op: 200.0, seed: 7 });
    assert_eq!(stream_digest(sssp), (0x764d_76a3_fdb0_9c19, 40_894));
}

#[test]
fn gups_band_with_rotation_access_stream_is_pinned() {
    assert_eq!(stream_digest(gups(HotsetMode::Band, Some(1))), (0x0834_7f0e_cfa5_7f58, 33_614));
}

#[test]
fn gups_gaussian_access_stream_is_pinned() {
    assert_eq!(stream_digest(gups(HotsetMode::Gaussian, None)), (0x3fdf_fa8a_7468_b3ef, 33_614));
}

#[test]
fn ycsb_access_stream_is_pinned() {
    let mut cfg = YcsbConfig::paper(1 << 14, THREADS);
    cfg.cpu_ns_per_op = 200.0;
    assert_eq!(stream_digest(Ycsb::new(cfg)), (0x4b3d_baf1_4d3c_4e1a, 32_018));
}

#[test]
fn tpcc_access_stream_is_pinned() {
    let mut cfg = TpccConfig::paper(1 << 12, THREADS);
    cfg.cpu_ns_per_op = 200.0;
    assert_eq!(stream_digest(Tpcc::new(cfg)), (0x994b_8a5f_316b_7c2b, 22_758));
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
    assert_eq!(stream_digest(Terasort::new(cfg)), (0xcfab_8190_bb95_50ff, 40_215));
}
