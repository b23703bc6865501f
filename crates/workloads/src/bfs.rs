//! Parallel breadth-first search over an R-MAT graph (Table 2's BFS).
//!
//! The traversal is real: a host-side CSR is walked and every data
//! touch — offset lookups, adjacency-list streaming (one access per cache
//! line), visited-array probes, frontier pushes — is issued to the
//! simulated machine. When a traversal completes, it restarts from a new
//! source (the paper runs repeated parallel searches), using epoch stamps
//! so the visited array never needs clearing.

use std::collections::VecDeque;
use std::sync::Arc;

use tiersim::addr::{VaRange, VirtAddr};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

use crate::graph::{cached_rmat, Csr, RmatParams};
use crate::layout::{elem_addr, Layout};
use crate::rng::SplitMix64;

/// Simulated bytes per adjacency entry (vertex id + edge payload, as in
/// property graphs; sized so the paper's 525 GB footprint scales through).
const NEIGHBOR_BYTES: u64 = 24;
/// Simulated bytes per offsets entry.
const OFFSET_BYTES: u64 = 8;
/// Simulated bytes per visited stamp.
const VISITED_BYTES: u64 = 4;
/// Simulated bytes per frontier slot.
const FRONTIER_BYTES: u64 = 4;
/// Edges processed per tick: hubs in a power-law graph have adjacency
/// lists of hundreds of thousands of edges, and a real parallel BFS
/// shares that work; one tick handles a bounded slice.
const EDGE_BATCH: u64 = 64;

/// BFS configuration.
#[derive(Clone, Debug)]
pub struct BfsConfig {
    /// Graph shape.
    pub graph: RmatParams,
    /// Number of application threads.
    pub threads: usize,
    /// Compute time per settled vertex, ns (frontier management and
    /// per-edge work in a real graph framework).
    pub cpu_ns_per_op: f64,
    /// RNG seed for source selection.
    pub seed: u64,
}

impl BfsConfig {
    /// The paper's 0.9 B-vertex / 14 B-edge graph scaled by `scale`.
    pub fn paper(scale: u64, threads: usize) -> BfsConfig {
        BfsConfig {
            graph: RmatParams {
                vertices: ((900_000_000u64 / scale).max(4096)) as u32,
                edges: (14_000_000_000u64 / scale).max(65_536),
                seed: 0x6EA4,
            },
            threads,
            cpu_ns_per_op: 2_000.0,
            seed: 0xBF5,
        }
    }
}

/// The BFS workload.
pub struct Bfs {
    cfg: BfsConfig,
    graph: Arc<Csr>,
    offsets: VaRange,
    neighbors: VaRange,
    visited: VaRange,
    frontier_vma: VaRange,
    /// Epoch stamps standing in for the visited array's contents.
    stamps: Vec<u32>,
    epoch: u32,
    frontier: VecDeque<u32>,
    /// Slots of the simulated frontier ring, fixed at setup.
    frontier_slots: u64,
    /// Ring slots of the next pop and, `frontier.len()` after it, of the
    /// next push.
    head_slot: u64,
    tail_slot: u64,
    /// Vertex being expanded: `(vertex, next edge position, end)`.
    current: Option<(u32, u64, u64)>,
    rng: SplitMix64,
    settled: u64,
    traversals: u64,
}

impl Bfs {
    /// Creates a BFS instance over the (cached) graph.
    pub fn new(cfg: BfsConfig) -> Bfs {
        let graph = cached_rmat(cfg.graph);
        let stamps = vec![0u32; graph.vertices as usize];
        let rng = SplitMix64::new(cfg.seed);
        Bfs {
            cfg,
            graph,
            offsets: VaRange::from_len(VirtAddr(0), 0),
            neighbors: VaRange::from_len(VirtAddr(0), 0),
            visited: VaRange::from_len(VirtAddr(0), 0),
            frontier_vma: VaRange::from_len(VirtAddr(0), 0),
            stamps,
            epoch: 0,
            frontier: VecDeque::new(),
            frontier_slots: 0,
            head_slot: 0,
            tail_slot: 0,
            current: None,
            rng,
            settled: 0,
            traversals: 0,
        }
    }

    /// Number of completed traversals.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    fn start_traversal(&mut self) {
        self.epoch += 1;
        self.traversals += 1;
        // Pick a source with outgoing edges.
        let v = loop {
            let v = self.rng.below(self.graph.vertices as u64) as u32;
            if self.graph.degree(v) > 0 {
                break v;
            }
        };
        self.stamps[v as usize] = self.epoch;
        self.frontier.clear();
        self.frontier.push_back(v);
        self.tail_slot = self.next_slot(self.head_slot);
    }

    /// The frontier ring slot after `slot`.
    fn next_slot(&self, slot: u64) -> u64 {
        if slot + 1 == self.frontier_slots { 0 } else { slot + 1 }
    }

    fn visit_addr(&self, v: u32) -> VirtAddr {
        elem_addr(self.visited, v as u64, VISITED_BYTES)
    }

    /// One tick on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        let (u, lo, hi) = match self.current.take() {
            Some(cur) => cur,
            None => {
                let Some(u) = self.frontier.pop_front() else {
                    self.start_traversal();
                    return;
                };
                env.compute(tid, self.cfg.cpu_ns_per_op);
                // Pop charges a frontier read.
                env.read(tid, elem_addr(self.frontier_vma, self.head_slot, FRONTIER_BYTES));
                self.head_slot = self.next_slot(self.head_slot);
                self.graph.prefetch_ahead(&self.frontier);
                // Offset lookups (two 8-byte entries, usually one line).
                env.read(tid, elem_addr(self.offsets, u as u64, OFFSET_BYTES));
                env.read(tid, elem_addr(self.offsets, u as u64 + 1, OFFSET_BYTES));
                (u, self.graph.offsets[u as usize], self.graph.offsets[u as usize + 1])
            }
        };
        // Stream a bounded slice of the adjacency list: one access per
        // cache line, plus a visited probe per edge.
        let stop = (lo + EDGE_BATCH).min(hi);
        // The slice's stamp probes are random host loads; start them all
        // before the loop so they overlap instead of stalling one by one.
        for &v in &self.graph.neighbors[lo as usize..stop as usize] {
            crate::prefetch_read(self.stamps.as_ptr().wrapping_add(v as usize));
        }
        let mut line = u64::MAX;
        for pos in lo..stop {
            let byte = pos * NEIGHBOR_BYTES;
            if byte / 64 != line {
                line = byte / 64;
                env.read(tid, VirtAddr(self.neighbors.start.0 + line * 64));
            }
            let v = self.graph.neighbors[pos as usize];
            // Visited probe (random access).
            env.read(tid, self.visit_addr(v));
            if self.stamps[v as usize] != self.epoch {
                self.stamps[v as usize] = self.epoch;
                env.write(tid, self.visit_addr(v));
                env.write(tid, elem_addr(self.frontier_vma, self.tail_slot, FRONTIER_BYTES));
                self.tail_slot = self.next_slot(self.tail_slot);
                self.frontier.push_back(v);
            }
        }
        if stop < hi {
            self.current = Some((u, stop, hi));
        } else {
            self.settled += 1;
        }
    }
}

impl Workload for Bfs {
    fn name(&self) -> String {
        "BFS".into()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let v = self.graph.vertices as u64;
        let e = self.graph.edges();
        let mut layout = Layout::new();
        self.offsets = layout.add(env, "bfs.offsets", (v + 1) * OFFSET_BYTES, true);
        self.neighbors = layout.add(env, "bfs.neighbors", e * NEIGHBOR_BYTES, true);
        self.visited = layout.add(env, "bfs.visited", v * VISITED_BYTES, true);
        self.frontier_vma = layout.add(env, "bfs.frontier", (v * FRONTIER_BYTES).min(64 << 20), true);
        self.frontier_slots = self.frontier_vma.len() / FRONTIER_BYTES;
        let threads = self.cfg.threads.max(1);
        crate::layout::populate_interleaved(env, &[self.offsets, self.neighbors, self.visited, self.frontier_vma], threads);
        self.start_traversal();
        self.traversals = 0; // Setup's kick-off does not count.
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.step(t, tid));
    }

    fn footprint(&self) -> u64 {
        self.offsets.len() + self.neighbors.len() + self.visited.len() + self.frontier_vma.len()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        vec![self.offsets, self.visited]
    }

    fn ops_completed(&self) -> u64 {
        self.settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{Machine, MachineConfig};
    use tiersim::sim::{FirstTouchPolicy, SimEnv};
    use tiersim::tier::tiny_two_tier;

    fn bfs() -> (Bfs, Machine) {
        let cfg = BfsConfig {
            graph: RmatParams { vertices: 2048, edges: 16_384, seed: 9 },
            threads: 2,
            cpu_ns_per_op: 0.0,
            seed: 1,
        };
        let mut b = Bfs::new(cfg);
        let mut m = Machine::new(MachineConfig::new(
            tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M),
            2,
        ));
        {
            let mut mgr = FirstTouchPolicy;
            let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
            b.setup(&mut env);
        }
        (b, m)
    }

    #[test]
    fn traversal_settles_vertices() {
        let (mut b, mut m) = bfs();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        for i in 0..5_000 {
            b.tick(&mut env, i % 2);
        }
        assert!(b.ops_completed() > 1_000, "settled = {}", b.ops_completed());
        assert!(b.traversals() >= 1, "at least one restart happened");
    }

    #[test]
    fn traversal_is_exhaustive_within_component() {
        let (mut b, mut m) = bfs();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        // Run until the first traversal's frontier drains (no restart yet).
        let epoch = b.epoch;
        let mut ticks = 0u64;
        while !b.frontier.is_empty() && ticks < 1_000_000 {
            b.tick(&mut env, 0);
            ticks += 1;
        }
        // Every vertex reachable from the source carries the epoch stamp;
        // correctness proxy: the settled count equals stamped vertices.
        let stamped = b.stamps.iter().filter(|&&s| s == epoch).count() as u64;
        assert_eq!(stamped, b.settled, "settled exactly the reachable set");
    }

    #[test]
    fn footprint_matches_mapping() {
        let (b, m) = bfs();
        assert_eq!(m.page_table().mapped_bytes(), b.footprint());
    }
}
