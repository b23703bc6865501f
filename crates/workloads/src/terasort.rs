//! TeraSort-style multi-phase sort (the Spark surrogate, Table 2).
//!
//! Reproduces the phase structure of Spark TeraSort over 100-byte records:
//! a key-sampling pass, a partitioning (shuffle) pass that streams the
//! input and scatters records to partition buffers, a per-partition sort
//! phase whose working set is one partition at a time (small and hot), and
//! a merge/output pass. Phases cycle, giving the time-varying access
//! pattern that stresses profiling responsiveness.

use tiersim::addr::{VaRange, VirtAddr};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

use crate::layout::Layout;
use crate::rng::SplitMix64;

const RECORD_BYTES: u64 = 100;
/// Simulated accesses per record touch (100 B spans two cache lines).
const LINES_PER_RECORD: u64 = 2;

/// The phase the sort job is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Random sampling of input keys to pick partition boundaries.
    Sample,
    /// Sequential input scan scattering records to partition buffers.
    Partition,
    /// In-place sort of one partition at a time.
    Sort,
    /// Sequential merge of sorted partitions into the output.
    Merge,
}

/// TeraSort configuration.
#[derive(Clone, Debug)]
pub struct TerasortConfig {
    /// Input bytes (the job's data size; total footprint is ~3x this).
    pub input_bytes: u64,
    /// Number of partitions (Spark reduce tasks).
    pub partitions: u64,
    /// Number of application threads.
    pub threads: usize,
    /// Compute time per record touched, ns (Spark task overhead,
    /// serialization and comparison work).
    pub cpu_ns_per_op: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TerasortConfig {
    /// The paper's 350 GB footprint scaled by `scale` (input ~117 GB so
    /// input + shuffle + output reach 350 GB).
    pub fn paper(scale: u64, threads: usize) -> TerasortConfig {
        TerasortConfig {
            input_bytes: (350u64 << 30) / scale / 3,
            partitions: 64,
            threads,
            cpu_ns_per_op: 2_000.0,
            seed: 0x7E4A,
        }
    }
}

/// The TeraSort workload.
pub struct Terasort {
    cfg: TerasortConfig,
    input: VaRange,
    shuffle: VaRange,
    output: VaRange,
    phase: Phase,
    /// Sequential cursor (records) within the current phase.
    cursor: u64,
    /// Partition currently being sorted / merged.
    part: u64,
    /// Remaining sort touches for the current partition.
    sort_left: u64,
    rngs: Vec<SplitMix64>,
    records: u64,
    jobs: u64,
    ops: u64,
}

impl Terasort {
    /// Creates a TeraSort instance (VMAs laid out in [`Workload::setup`]).
    pub fn new(cfg: TerasortConfig) -> Terasort {
        let rngs = (0..cfg.threads.max(1))
            .map(|t| SplitMix64::new(cfg.seed ^ ((t as u64) << 40)))
            .collect();
        Terasort {
            cfg,
            input: VaRange::from_len(VirtAddr(0), 0),
            shuffle: VaRange::from_len(VirtAddr(0), 0),
            output: VaRange::from_len(VirtAddr(0), 0),
            phase: Phase::Sample,
            cursor: 0,
            part: 0,
            sort_left: 0,
            rngs,
            records: 0,
            jobs: 0,
            ops: 0,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Completed sort jobs.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    fn record_addr(&self, range: VaRange, record: u64) -> VirtAddr {
        VirtAddr(range.start.0 + (record % self.records) * RECORD_BYTES)
    }

    fn touch_record<E: MemEnv + ?Sized>(&self, env: &mut E, tid: usize, range: VaRange, record: u64, write: bool) {
        let base = self.record_addr(range, record);
        for line in 0..LINES_PER_RECORD {
            let a = VirtAddr(base.0 + line * 64);
            if write {
                env.write(tid, a);
            } else {
                env.read(tid, a);
            }
        }
    }

    fn partition_span(&self, part: u64) -> (u64, u64) {
        let per = self.records / self.cfg.partitions;
        (part * per, per)
    }

    fn advance_phase(&mut self) {
        self.cursor = 0;
        self.phase = match self.phase {
            Phase::Sample => Phase::Partition,
            Phase::Partition => {
                self.part = 0;
                let (_, per) = self.partition_span(0);
                self.sort_left = per * 2;
                Phase::Sort
            }
            Phase::Sort => {
                self.part = 0;
                Phase::Merge
            }
            Phase::Merge => {
                self.jobs += 1;
                Phase::Sample
            }
        };
    }

    /// One tick on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        env.compute(tid, self.cfg.cpu_ns_per_op);
        match self.phase {
            Phase::Sample => {
                // Random key probes over the input.
                for _ in 0..8 {
                    let r = self.rngs[tid].below(self.records);
                    env.read(tid, self.record_addr(self.input, r));
                }
                self.cursor += 8;
                if self.cursor >= self.records / 100 {
                    self.advance_phase();
                }
            }
            Phase::Partition => {
                // Stream input; scatter to the destination partition.
                for _ in 0..4 {
                    self.touch_record(env, tid, self.input, self.cursor, false);
                    let dest = self.rngs[tid].below(self.cfg.partitions);
                    let (start, per) = self.partition_span(dest);
                    let slot = start + self.rngs[tid].below(per.max(1));
                    self.touch_record(env, tid, self.shuffle, slot, true);
                    self.cursor += 1;
                    self.ops += 1;
                }
                if self.cursor >= self.records {
                    self.advance_phase();
                }
            }
            Phase::Sort => {
                // Random read-modify-writes inside the current partition.
                let (start, per) = self.partition_span(self.part);
                for _ in 0..4 {
                    let a = start + self.rngs[tid].below(per.max(1));
                    let b = start + self.rngs[tid].below(per.max(1));
                    self.touch_record(env, tid, self.shuffle, a, false);
                    self.touch_record(env, tid, self.shuffle, b, true);
                    self.ops += 1;
                }
                self.sort_left = self.sort_left.saturating_sub(4);
                if self.sort_left == 0 {
                    self.part += 1;
                    if self.part >= self.cfg.partitions {
                        self.advance_phase();
                    } else {
                        let (_, per) = self.partition_span(self.part);
                        self.sort_left = per * 2;
                    }
                }
            }
            Phase::Merge => {
                for _ in 0..4 {
                    self.touch_record(env, tid, self.shuffle, self.cursor, false);
                    self.touch_record(env, tid, self.output, self.cursor, true);
                    self.cursor += 1;
                    self.ops += 1;
                }
                if self.cursor >= self.records {
                    self.advance_phase();
                }
            }
        }
    }
}

impl Workload for Terasort {
    fn name(&self) -> String {
        "Spark".into()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let mut layout = Layout::new();
        self.input = layout.add(env, "tera.input", self.cfg.input_bytes, true);
        self.shuffle = layout.add(env, "tera.shuffle", self.cfg.input_bytes, true);
        self.output = layout.add(env, "tera.output", self.cfg.input_bytes, true);
        self.records = self.cfg.input_bytes / RECORD_BYTES;
        assert!(self.records >= self.cfg.partitions * 16, "too few records");
        let threads = self.cfg.threads.max(1);
        crate::layout::populate_interleaved(env, &[self.input, self.shuffle, self.output], threads);
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.step(t, tid));
    }

    fn footprint(&self) -> u64 {
        self.input.len() + self.shuffle.len() + self.output.len()
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

    fn tera() -> (Terasort, Machine) {
        let cfg = TerasortConfig {
            input_bytes: 4 * PAGE_SIZE_2M,
            partitions: 8,
            threads: 2,
            cpu_ns_per_op: 0.0,
            seed: 6,
        };
        let mut t = Terasort::new(cfg);
        let mut m = Machine::new(MachineConfig::new(
            tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M),
            2,
        ));
        {
            let mut mgr = FirstTouchPolicy;
            let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
            t.setup(&mut env);
        }
        (t, m)
    }

    #[test]
    fn phases_cycle_through_a_job() {
        let (mut t, mut m) = tera();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        let mut seen = vec![t.phase()];
        let mut guard = 0u64;
        while t.jobs() == 0 && guard < 5_000_000 {
            t.tick(&mut env, (guard % 2) as usize);
            if *seen.last().unwrap() != t.phase() {
                seen.push(t.phase());
            }
            guard += 1;
        }
        assert_eq!(t.jobs(), 1, "one job completed");
        assert_eq!(seen, vec![Phase::Sample, Phase::Partition, Phase::Sort, Phase::Merge, Phase::Sample]);
    }

    #[test]
    fn footprint_is_three_regions() {
        let (t, m) = tera();
        assert_eq!(t.footprint(), 3 * 4 * PAGE_SIZE_2M);
        assert_eq!(m.page_table().mapped_bytes(), t.footprint());
    }

    #[test]
    fn sort_phase_stays_inside_partition() {
        let (mut t, _m) = tera();
        t.records = t.cfg.input_bytes / RECORD_BYTES;
        let (start, per) = t.partition_span(3);
        assert_eq!(start, 3 * (t.records / 8));
        assert_eq!(per, t.records / 8);
    }
}
