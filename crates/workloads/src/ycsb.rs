//! YCSB workload A over a partitioned row store (the Cassandra surrogate).
//!
//! Reproduces the access skeleton of Cassandra under YCSB's update-heavy
//! workload A (Table 2: 400 GB, 1:1 R/W): 1 KB rows addressed through a
//! hash index, with zipfian key popularity (theta = 0.99). Popularity is
//! permuted at *block* granularity — hot keys cluster into hot 256-row
//! blocks scattered across the key space, the partition-level locality a
//! real row store exhibits — so page-level hotness is skewed but not
//! trivially contiguous.

use tiersim::addr::{VaRange, VirtAddr};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

use crate::layout::{elem_addr, Layout};
use crate::rng::{scatter, SplitMix64, Zipfian};

const ROW_BYTES: u64 = 1024;
const INDEX_ENTRY: u64 = 16;
const ROWS_PER_BLOCK: u64 = 256;

/// YCSB configuration.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    /// Number of rows in the store.
    pub rows: u64,
    /// Zipfian skew parameter (YCSB default 0.99).
    pub theta: f64,
    /// Fraction of operations that are updates (workload A: 0.5).
    pub update_frac: f64,
    /// Number of application threads.
    pub threads: usize,
    /// Compute time per operation, ns (Cassandra's request path —
    /// serialization, memtable bookkeeping — dominates a single row op).
    pub cpu_ns_per_op: f64,
    /// RNG seed.
    pub seed: u64,
}

impl YcsbConfig {
    /// Selects a standard YCSB workload letter: `A` (update heavy,
    /// 50/50), `B` (read mostly, 95/5) or `C` (read only). The paper uses
    /// workload A; the others are provided for sensitivity studies.
    pub fn with_workload(mut self, letter: char) -> YcsbConfig {
        self.update_frac = match letter.to_ascii_uppercase() {
            'A' => 0.5,
            'B' => 0.05,
            'C' => 0.0,
            other => panic!("unsupported YCSB workload {other:?} (A, B or C)"),
        };
        self
    }

    /// The paper's configuration scaled by `scale`: ~400 GB of rows.
    pub fn paper(scale: u64, threads: usize) -> YcsbConfig {
        YcsbConfig {
            rows: (400u64 << 30) / scale / ROW_BYTES,
            theta: 0.99,
            update_frac: 0.5,
            threads,
            cpu_ns_per_op: 6_000.0,
            seed: 0xCA55,
        }
    }
}

/// The YCSB row-store workload.
pub struct Ycsb {
    cfg: YcsbConfig,
    index: VaRange,
    rows: VaRange,
    zipf: Zipfian,
    rngs: Vec<SplitMix64>,
    ops: u64,
}

impl Ycsb {
    /// Creates a YCSB instance (VMAs laid out in [`Workload::setup`]).
    pub fn new(cfg: YcsbConfig) -> Ycsb {
        assert!(cfg.rows >= ROWS_PER_BLOCK * 4, "too few rows");
        let zipf = Zipfian::new(cfg.rows, cfg.theta);
        let rngs = (0..cfg.threads.max(1))
            .map(|t| SplitMix64::new(cfg.seed ^ ((t as u64) << 17)))
            .collect();
        Ycsb {
            cfg,
            index: VaRange::from_len(VirtAddr(0), 0),
            rows: VaRange::from_len(VirtAddr(0), 0),
            zipf,
            rngs,
            ops: 0,
        }
    }

    /// Maps a popularity rank to a row id: blocks of 256 rows are permuted
    /// across the store, rows keep their in-block position.
    fn row_of_rank(&self, rank: u64) -> u64 {
        let blocks = self.cfg.rows / ROWS_PER_BLOCK;
        let block = scatter(rank / ROWS_PER_BLOCK, blocks, self.cfg.seed);
        block * ROWS_PER_BLOCK + rank % ROWS_PER_BLOCK
    }

    /// The hottest rows' blocks, for ground-truth checks.
    pub fn hot_blocks(&self, top_ranks: u64) -> Vec<u64> {
        let mut blocks: Vec<u64> =
            (0..top_ranks).map(|r| self.row_of_rank(r) / ROWS_PER_BLOCK).collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// One tick on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        env.compute(tid, self.cfg.cpu_ns_per_op);
        let rank = self.zipf.sample(&mut self.rngs[tid]);
        let row = self.row_of_rank(rank);
        // Hash-index probe.
        env.read(tid, elem_addr(self.index, row, INDEX_ENTRY));
        let addr = elem_addr(self.rows, row, ROW_BYTES);
        let is_update = self.rngs[tid].unit_f64() < self.cfg.update_frac;
        if is_update {
            // Read-modify-write of the row head.
            env.update(tid, addr);
        } else {
            // Read two cache lines of the row.
            env.read(tid, addr);
            env.read(tid, VirtAddr(addr.0 + 512));
        }
        self.ops += 1;
    }
}

impl Workload for Ycsb {
    fn name(&self) -> String {
        "Cassandra".into()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let mut layout = Layout::new();
        self.index = layout.add(env, "ycsb.index", self.cfg.rows * INDEX_ENTRY, true);
        self.rows = layout.add(env, "ycsb.rows", self.cfg.rows * ROW_BYTES, true);
        let threads = self.cfg.threads.max(1);
        crate::layout::populate_interleaved(env, &[self.index, self.rows], threads);
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.step(t, tid));
    }

    fn footprint(&self) -> u64 {
        self.index.len() + self.rows.len()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        // The index plus the blocks holding the top ~0.4 % of ranks.
        let mut out = vec![self.index];
        for block in self.hot_blocks(self.cfg.rows / 256) {
            out.push(VaRange::from_len(
                VirtAddr(self.rows.start.0 + block * ROWS_PER_BLOCK * ROW_BYTES),
                ROWS_PER_BLOCK * ROW_BYTES,
            ));
        }
        out
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{Machine, MachineConfig};
    use tiersim::sim::{FirstTouchPolicy, SimEnv};
    use tiersim::tier::tiny_two_tier;

    fn ycsb() -> (Ycsb, Machine) {
        let cfg = YcsbConfig {
            rows: 32 * 1024,
            theta: 0.99,
            update_frac: 0.5,
            threads: 2,
            cpu_ns_per_op: 0.0,
            seed: 5,
        };
        let mut y = Ycsb::new(cfg);
        let mut m = Machine::new(MachineConfig::new(
            tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M),
            2,
        ));
        {
            let mut mgr = FirstTouchPolicy;
            let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
            y.setup(&mut env);
        }
        (y, m)
    }

    #[test]
    fn setup_maps_index_and_rows() {
        let (y, m) = ycsb();
        assert_eq!(m.page_table().mapped_bytes(), y.footprint());
        assert!(y.rows.len() >= 32 * 1024 * ROW_BYTES);
    }

    #[test]
    fn accesses_are_skewed_by_block() {
        let (mut y, mut m) = ycsb();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        let mut block_counts = std::collections::HashMap::new();
        for i in 0..20_000 {
            let rank = y.zipf.sample(&mut y.rngs[i % 2]);
            let row = y.row_of_rank(rank);
            *block_counts.entry(row / ROWS_PER_BLOCK).or_insert(0u64) += 1;
            y.tick(&mut env, i % 2);
        }
        let mut counts: Vec<u64> = block_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top4: u64 = counts.iter().take(4).sum();
        assert!(
            top4 as f64 > 0.3 * total as f64,
            "top-4 blocks carry a large share (got {top4}/{total})"
        );
    }

    #[test]
    fn row_of_rank_is_a_bijection_per_block() {
        let (y, _m) = ycsb();
        let a = y.row_of_rank(0);
        let b = y.row_of_rank(1);
        assert_eq!(a / ROWS_PER_BLOCK, b / ROWS_PER_BLOCK, "adjacent ranks share a block");
        assert_ne!(a, b);
        assert!(y.row_of_rank(300) / ROWS_PER_BLOCK != a / ROWS_PER_BLOCK);
    }

    #[test]
    fn workload_letters_set_update_fraction() {
        let base = YcsbConfig::paper(1 << 14, 2);
        assert_eq!(base.clone().with_workload('A').update_frac, 0.5);
        assert_eq!(base.clone().with_workload('b').update_frac, 0.05);
        assert_eq!(base.clone().with_workload('C').update_frac, 0.0);
    }

    #[test]
    #[should_panic(expected = "unsupported YCSB workload")]
    fn unknown_workload_letter_panics() {
        let _ = YcsbConfig::paper(1 << 14, 2).with_workload('Z');
    }

    #[test]
    fn update_fraction_respected() {
        let (mut y, mut m) = ycsb();
        m.reset_measurement();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        for i in 0..10_000 {
            y.tick(&mut env, i % 2);
        }
        let counts = m.counters().all();
        let stores: u64 = counts.iter().map(|c| c.stores).sum();
        // ~50 % of 10 000 ops have exactly one store each.
        assert!((3_500..6_500).contains(&stores), "stores = {stores}");
    }
}
