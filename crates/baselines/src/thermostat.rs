//! Thermostat (ASPLOS '17): protection-fault-based profiling over fixed
//! 2 MB regions, for two tiers.
//!
//! Thermostat keeps every region at a fixed size, samples one random 4 KB
//! page per region per interval by removing its protection, and counts the
//! resulting protection faults as the hotness estimate — considerably more
//! expensive than a PTE scan (Sec. 9.3: "manipulating reserved bits in PTE
//! and counting protection faults ... is more expensive"). It allocates
//! everything in the fast tier and demotes regions classified cold;
//! regions that turn hot again are promoted back.

use std::collections::BTreeMap;

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_4K};
use tiersim::machine::Machine;
use tiersim::rng::SplitMix64;
use tiersim::sim::MemoryManager;
use tiersim::tier::ComponentId;

use crate::util::{migrate_sync, vma_chunks};

/// The Thermostat baseline.
pub struct Thermostat {
    chunks: Vec<VaRange>,
    /// Faults observed per chunk in the current interval window.
    chunk_faults: BTreeMap<u64, u32>,
    /// Consecutive cold intervals per chunk.
    cold_streak: BTreeMap<u64, u32>,
    /// Demote a chunk after this many cold intervals.
    cold_patience: u32,
    demote_budget: u64,
    fast: ComponentId,
    slow: ComponentId,
    rng: SplitMix64,
    hot_bytes_sum: u64,
    intervals: u64,
    /// Fraction of regions sampled each interval (1.0 = all, as in the
    /// original system; lower it to respect an overhead envelope).
    pub sample_fraction: f64,
}

impl Thermostat {
    /// Creates a Thermostat manager.
    pub fn new(demote_budget: u64) -> Thermostat {
        Thermostat {
            chunks: Vec::new(),
            chunk_faults: BTreeMap::new(),
            cold_streak: BTreeMap::new(),
            cold_patience: 2,
            demote_budget,
            fast: 0,
            slow: 1,
            rng: SplitMix64::new(0x7E57),
            hot_bytes_sum: 0,
            intervals: 0,
            sample_fraction: 1.0,
        }
    }
}

impl MemoryManager for Thermostat {
    fn name(&self) -> String {
        "Thermostat".into()
    }

    fn init(&mut self, m: &mut Machine) {
        let topo = m.topology();
        self.fast = topo.component_at_rank(0, 0);
        self.slow = topo
            .pm_components()
            .into_iter()
            .find(|&c| topo.components[c as usize].home_node == 0)
            .unwrap_or_else(|| topo.component_at_rank(0, topo.num_components() - 1));
        self.chunks = vma_chunks(m);
        // Arm the first interval's samples.
        self.arm_samples(m);
    }

    fn placement(&mut self, m: &Machine, tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        // All pages start in the fast tier (Thermostat's model).
        let mut order = vec![self.fast];
        order.extend(m.topology().view(m.node_of(tid)).iter().copied().filter(|&c| c != self.fast));
        order
    }

    fn on_interval(&mut self, m: &mut Machine, _interval: u64) {
        self.intervals += 1;
        // Collect this interval's protection faults.
        self.chunk_faults.clear();
        for f in m.drain_prot_faults() {
            *self.chunk_faults.entry(f.page.page_2m().0).or_insert(0) += 1;
        }
        // Sort: HashMap iteration order depends on the per-thread hasher
        // seed, and promotion order is behavior (free-space checks), so an
        // unsorted walk makes the whole run nondeterministic.
        let mut hot_chunks: Vec<u64> = self.chunk_faults.keys().copied().collect();
        hot_chunks.sort_unstable();
        self.hot_bytes_sum += self
            .chunk_faults
            .len() as u64
            * tiersim::addr::PAGE_SIZE_2M;

        // Promote hot chunks that were previously demoted.
        for &base in &hot_chunks {
            let va = VirtAddr(base);
            if m.component_of(va) == Some(self.slow) && m.allocator(self.fast).free() >= tiersim::addr::PAGE_SIZE_2M {
                migrate_sync(m, VaRange::from_len(va, tiersim::addr::PAGE_SIZE_2M), self.fast);
            }
            self.cold_streak.remove(&base);
        }

        // Demote chunks cold for `cold_patience` consecutive intervals.
        let mut budget = self.demote_budget;
        for chunk in self.chunks.clone() {
            if budget == 0 {
                break;
            }
            let base = chunk.start.0;
            if self.chunk_faults.contains_key(&base) {
                continue;
            }
            let streak = self.cold_streak.entry(base).or_insert(0);
            *streak += 1;
            if *streak >= self.cold_patience && m.component_of(chunk.start) == Some(self.fast) {
                let moved = migrate_sync(m, chunk, self.slow);
                budget = budget.saturating_sub(moved);
            }
        }
        self.arm_samples(m);
    }

    fn hot_bytes_identified(&self) -> u64 {
        self.hot_bytes_sum / self.intervals.max(1)
    }

    fn metadata_bytes(&self) -> u64 {
        (self.chunk_faults.len() + self.cold_streak.len()) as u64 * 12
    }
}

impl Thermostat {
    /// Chunks classified hot in the last interval (for profiling-quality
    /// studies, Fig. 1).
    pub fn hot_ranges(&self) -> Vec<VaRange> {
        let mut bases: Vec<u64> = self.chunk_faults.keys().copied().collect();
        bases.sort_unstable();
        bases
            .into_iter()
            .map(|base| VaRange::from_len(VirtAddr(base), tiersim::addr::PAGE_SIZE_2M))
            .collect()
    }

    /// Removes protection from one random 4 KB page per (sampled) region
    /// so the next interval's accesses fault and get counted.
    fn arm_samples(&mut self, m: &mut Machine) {
        for i in 0..self.chunks.len() {
            if self.sample_fraction < 1.0 && self.rng.unit_f64() > self.sample_fraction {
                continue;
            }
            let chunk = self.chunks[i];
            let pages = chunk.pages_4k();
            let page = VirtAddr(chunk.start.page_4k().0 + self.rng.below(pages) * PAGE_SIZE_4K);
            m.protect_page(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{AccessKind, MachineConfig};
    use tiersim::tier::two_tier;

    fn machine() -> Machine {
        let mut cfg = MachineConfig::new(two_tier(1 << 12), 1);
        cfg.interval_ns = 1.0e6;
        let mut m = Machine::new(cfg);
        let r = VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m
    }

    #[test]
    fn allocates_fast_first() {
        let mut m = machine();
        let mut t = Thermostat::new(PAGE_SIZE_2M);
        t.init(&mut m);
        let order = t.placement(&m, 0, VirtAddr(0));
        assert_eq!(order[0], 0);
    }

    #[test]
    fn cold_chunks_demote_after_patience() {
        let mut m = machine();
        m.prefault_range(VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M), &[0]).unwrap();
        let mut t = Thermostat::new(64 * PAGE_SIZE_2M);
        t.init(&mut m);
        // Two silent intervals: every chunk crosses the cold patience.
        t.on_interval(&mut m, 0);
        t.on_interval(&mut m, 1);
        assert_eq!(m.component_of(VirtAddr(0)), Some(1), "cold chunk demoted");
    }

    #[test]
    fn faulting_chunk_stays_and_returns() {
        let mut m = machine();
        m.prefault_range(VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M), &[0]).unwrap();
        let mut t = Thermostat::new(64 * PAGE_SIZE_2M);
        t.cold_patience = 1;
        t.init(&mut m);
        // Touch every page of chunk 0 so the sampled page faults for sure.
        let touch = |m: &mut Machine| {
            for page in VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M).iter_pages_4k() {
                m.access(0, page, AccessKind::Read);
            }
        };
        touch(&mut m);
        t.on_interval(&mut m, 0);
        assert_eq!(m.component_of(VirtAddr(0)), Some(0), "hot chunk kept fast");
        assert!(m.stats().prot_faults > 0, "profiling went through faults");
        // Let it go cold, demote, then heat it again: it promotes back.
        t.on_interval(&mut m, 1);
        assert_eq!(m.component_of(VirtAddr(0)), Some(1));
        touch(&mut m);
        t.on_interval(&mut m, 2);
        assert_eq!(m.component_of(VirtAddr(0)), Some(0), "reheated chunk promoted");
    }
}
