//! Single-source shortest paths over an R-MAT graph (Table 2's SSSP).
//!
//! A queue-based label-correcting algorithm (Bellman-Ford with a FIFO and
//! re-insertion) walks the same CSR as BFS but additionally reads edge
//! weights and reads/updates a distance array, giving a heavier and more
//! write-leaning traversal than BFS while staying read-dominated overall.
//! Distances live host-side with epoch semantics; every touch is issued to
//! the simulated machine.

use std::collections::VecDeque;
use std::sync::Arc;

use tiersim::addr::{VaRange, VirtAddr};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

use crate::graph::{cached_rmat, Csr, RmatParams};
use crate::layout::{elem_addr, Layout};
use crate::rng::SplitMix64;

const NEIGHBOR_BYTES: u64 = 16;
const OFFSET_BYTES: u64 = 8;
const WEIGHT_BYTES: u64 = 16;
const DIST_BYTES: u64 = 8;
const QUEUE_BYTES: u64 = 4;
/// Edges relaxed per tick (hub adjacency lists are processed in slices).
const EDGE_BATCH: u64 = 64;

/// SSSP configuration.
#[derive(Clone, Debug)]
pub struct SsspConfig {
    /// Graph shape.
    pub graph: RmatParams,
    /// Number of application threads.
    pub threads: usize,
    /// Compute time per processed vertex, ns.
    pub cpu_ns_per_op: f64,
    /// RNG seed for source selection.
    pub seed: u64,
}

impl SsspConfig {
    /// The paper's 0.9 B-vertex / 14 B-edge graph scaled by `scale`.
    pub fn paper(scale: u64, threads: usize) -> SsspConfig {
        SsspConfig {
            graph: RmatParams {
                vertices: ((900_000_000u64 / scale).max(4096)) as u32,
                edges: (14_000_000_000u64 / scale).max(65_536),
                seed: 0x6EA4,
            },
            threads,
            cpu_ns_per_op: 2_000.0,
            seed: 0x555,
        }
    }
}

/// The SSSP workload.
pub struct Sssp {
    cfg: SsspConfig,
    graph: Arc<Csr>,
    offsets: VaRange,
    neighbors: VaRange,
    weights: VaRange,
    dist_vma: VaRange,
    queue_vma: VaRange,
    dist: Vec<u64>,
    epoch_of: Vec<u32>,
    in_queue: Vec<bool>,
    epoch: u32,
    queue: VecDeque<u32>,
    queue_head: u64,
    /// Vertex being relaxed: `(vertex, its distance, next pos, end)`.
    current: Option<(u32, u64, u64, u64)>,
    rng: SplitMix64,
    relaxed: u64,
    runs: u64,
}

impl Sssp {
    /// Creates an SSSP instance over the (cached) graph.
    ///
    /// Panics if the graph has no edge: every run starts from a vertex
    /// with an outgoing edge, and an edgeless graph has none to draw.
    pub fn new(cfg: SsspConfig) -> Sssp {
        let graph = cached_rmat(cfg.graph);
        assert!(
            graph.edges() > 0,
            "Sssp::new: the graph ({:?}) has no edge, so no run can start",
            cfg.graph
        );
        let v = graph.vertices as usize;
        let seed = cfg.seed;
        Sssp {
            cfg,
            graph,
            offsets: VaRange::from_len(VirtAddr(0), 0),
            neighbors: VaRange::from_len(VirtAddr(0), 0),
            weights: VaRange::from_len(VirtAddr(0), 0),
            dist_vma: VaRange::from_len(VirtAddr(0), 0),
            queue_vma: VaRange::from_len(VirtAddr(0), 0),
            dist: vec![u64::MAX; v],
            epoch_of: vec![0; v],
            in_queue: vec![false; v],
            epoch: 0,
            queue: VecDeque::new(),
            queue_head: 0,
            current: None,
            rng: SplitMix64::new(seed),
            relaxed: 0,
            runs: 0,
        }
    }

    /// Completed shortest-path computations.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Distance of `v` under the current epoch (`u64::MAX` = unreached).
    fn dist_of(&self, v: u32) -> u64 {
        if self.epoch_of[v as usize] == self.epoch {
            self.dist[v as usize]
        } else {
            u64::MAX
        }
    }

    fn set_dist(&mut self, v: u32, d: u64) {
        self.epoch_of[v as usize] = self.epoch;
        self.dist[v as usize] = d;
    }

    fn start_run(&mut self) {
        self.epoch += 1;
        self.runs += 1;
        self.in_queue.iter_mut().for_each(|b| *b = false);
        let source = loop {
            let v = self.rng.below(self.graph.vertices as u64) as u32;
            if self.graph.degree(v) > 0 {
                break v;
            }
        };
        self.set_dist(source, 0);
        self.queue.clear();
        self.queue.push_back(source);
        self.in_queue[source as usize] = true;
    }

    fn dist_addr(&self, v: u32) -> VirtAddr {
        elem_addr(self.dist_vma, v as u64, DIST_BYTES)
    }

    /// One tick on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        let (u, du, lo, hi) = match self.current.take() {
            Some(cur) => cur,
            None => {
                let Some(u) = self.queue.pop_front() else {
                    self.start_run();
                    return;
                };
                self.in_queue[u as usize] = false;
                env.compute(tid, self.cfg.cpu_ns_per_op);
                let slots = self.queue_vma.len() / QUEUE_BYTES;
                env.read(tid, elem_addr(self.queue_vma, self.queue_head % slots, QUEUE_BYTES));
                self.queue_head += 1;
                self.graph.prefetch_ahead(&self.queue);
                env.read(tid, elem_addr(self.offsets, u as u64, OFFSET_BYTES));
                env.read(tid, elem_addr(self.offsets, u as u64 + 1, OFFSET_BYTES));
                let du = self.dist_of(u);
                env.read(tid, self.dist_addr(u));
                if du == u64::MAX {
                    return;
                }
                (u, du, self.graph.offsets[u as usize], self.graph.offsets[u as usize + 1])
            }
        };
        let slots = self.queue_vma.len() / QUEUE_BYTES;
        let stop = (lo + EDGE_BATCH).min(hi);
        // The slice's per-vertex probes are random host loads; start them
        // all before the loop so they overlap instead of stalling one by one.
        for &v in &self.graph.neighbors[lo as usize..stop as usize] {
            let v = v as usize;
            crate::prefetch_read(self.epoch_of.as_ptr().wrapping_add(v));
            crate::prefetch_read(self.dist.as_ptr().wrapping_add(v));
            crate::prefetch_read(self.in_queue.as_ptr().wrapping_add(v));
        }
        let mut line = u64::MAX;
        for pos in lo..stop {
            let byte = pos * NEIGHBOR_BYTES;
            if byte / 64 != line {
                line = byte / 64;
                env.read(tid, VirtAddr(self.neighbors.start.0 + line * 64));
                env.read(tid, VirtAddr(self.weights.start.0 + pos * WEIGHT_BYTES));
            }
            let v = self.graph.neighbors[pos as usize];
            let w = Csr::weight_at(pos);
            let cand = du.saturating_add(w);
            env.read(tid, self.dist_addr(v));
            if cand < self.dist_of(v) {
                self.set_dist(v, cand);
                env.write(tid, self.dist_addr(v));
                self.relaxed += 1;
                if !self.in_queue[v as usize] {
                    self.in_queue[v as usize] = true;
                    let head = (self.queue_head + self.queue.len() as u64) % slots;
                    env.write(tid, elem_addr(self.queue_vma, head, QUEUE_BYTES));
                    self.queue.push_back(v);
                }
            }
        }
        if stop < hi {
            self.current = Some((u, du, stop, hi));
        }
    }
}

impl Workload for Sssp {
    fn name(&self) -> String {
        "SSSP".into()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let v = self.graph.vertices as u64;
        let e = self.graph.edges();
        let mut layout = Layout::new();
        self.offsets = layout.add(env, "sssp.offsets", (v + 1) * OFFSET_BYTES, true);
        self.neighbors = layout.add(env, "sssp.neighbors", e * NEIGHBOR_BYTES, true);
        self.weights = layout.add(env, "sssp.weights", e * WEIGHT_BYTES, true);
        self.dist_vma = layout.add(env, "sssp.dist", v * DIST_BYTES, true);
        self.queue_vma = layout.add(env, "sssp.queue", (v * QUEUE_BYTES).min(64 << 20), true);
        let threads = self.cfg.threads.max(1);
        crate::layout::populate_interleaved(env, &[self.offsets, self.neighbors, self.weights, self.dist_vma, self.queue_vma], threads);
        self.start_run();
        self.runs = 0; // Setup's kick-off does not count.
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.step(t, tid));
    }

    fn footprint(&self) -> u64 {
        self.offsets.len()
            + self.neighbors.len()
            + self.weights.len()
            + self.dist_vma.len()
            + self.queue_vma.len()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        vec![self.offsets, self.dist_vma]
    }

    fn ops_completed(&self) -> u64 {
        self.relaxed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{Machine, MachineConfig};
    use tiersim::sim::{FirstTouchPolicy, SimEnv};
    use tiersim::tier::tiny_two_tier;

    fn sssp() -> (Sssp, Machine) {
        let cfg = SsspConfig {
            graph: RmatParams { vertices: 1024, edges: 8_192, seed: 9 },
            threads: 2,
            cpu_ns_per_op: 0.0,
            seed: 2,
        };
        let mut s = Sssp::new(cfg);
        let mut m = Machine::new(MachineConfig::new(
            tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M),
            2,
        ));
        {
            let mut mgr = FirstTouchPolicy;
            let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
            s.setup(&mut env);
        }
        (s, m)
    }

    #[test]
    #[should_panic(expected = "has no edge")]
    fn an_edgeless_graph_is_rejected() {
        Sssp::new(SsspConfig {
            graph: RmatParams { vertices: 64, edges: 0, seed: 9 },
            threads: 1,
            cpu_ns_per_op: 0.0,
            seed: 1,
        });
    }

    #[test]
    fn relaxations_happen() {
        let (mut s, mut m) = sssp();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        for i in 0..5_000 {
            s.tick(&mut env, i % 2);
        }
        assert!(s.ops_completed() > 500, "relaxed = {}", s.ops_completed());
    }

    #[test]
    fn distances_satisfy_triangle_property() {
        let (mut s, mut m) = sssp();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        // Drain the first run completely.
        let mut ticks = 0u64;
        while !s.queue.is_empty() && ticks < 2_000_000 {
            s.tick(&mut env, 0);
            ticks += 1;
        }
        assert!(ticks < 2_000_000, "run converged");
        // Label-correcting fixpoint: no edge can still relax.
        let epoch = s.epoch;
        for u in 0..s.graph.vertices {
            if s.epoch_of[u as usize] != epoch || s.dist[u as usize] == u64::MAX {
                continue;
            }
            let lo = s.graph.offsets[u as usize];
            let hi = s.graph.offsets[u as usize + 1];
            for pos in lo..hi {
                let v = s.graph.neighbors[pos as usize];
                let w = Csr::weight_at(pos);
                assert!(
                    s.dist_of(v) <= s.dist[u as usize] + w,
                    "edge {u}->{v} still relaxable"
                );
            }
        }
    }

    #[test]
    fn footprint_matches_mapping() {
        let (s, m) = sssp();
        assert_eq!(m.page_table().mapped_bytes(), s.footprint());
        assert!(s.weights.len() >= 8_192 * WEIGHT_BYTES);
    }
}
