//! AutoTiering (ATC '21): flexible cross-tier migration with random
//! sampling and opportunistic promotion/demotion.
//!
//! Each interval AutoTiering randomly selects a window of the address
//! space (256 MB in the paper, scaled here to the same profiling-overhead
//! envelope) and scans its PTE accessed bits. Pages found accessed are
//! promoted *opportunistically*: to the fastest tier that happens to have
//! free space — there is no hotness ranking, which is exactly the weakness
//! the paper measures (Sec. 9.1: "random sampling and opportunistic
//! demotion, failing to effectively identify pages for migration"). Under
//! pressure it demotes randomly chosen resident chunks.

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_4K};
use tiersim::machine::Machine;
use tiersim::rng::SplitMix64;
use tiersim::sim::MemoryManager;
use tiersim::tier::ComponentId;

use crate::util::{migrate_sync, one_step_down, vma_chunks};

/// The AutoTiering baseline.
pub struct AutoTiering {
    chunks: Vec<VaRange>,
    promote_budget: u64,
    rng: SplitMix64,
    hot_bytes_sum: u64,
    intervals: u64,
    last_hot: Vec<VirtAddr>,
}

impl AutoTiering {
    /// Creates an AutoTiering manager with MTM's promotion rate limit.
    pub fn new(promote_budget: u64) -> AutoTiering {
        AutoTiering {
            chunks: Vec::new(),
            promote_budget,
            rng: SplitMix64::new(0xA070),
            hot_bytes_sum: 0,
            intervals: 0,
            last_hot: Vec::new(),
        }
    }

    /// Pages classified hot in the last interval (Fig. 1 probes).
    pub fn hot_ranges(&self) -> Vec<VaRange> {
        self.last_hot.iter().map(|&p| VaRange::from_len(p, PAGE_SIZE_4K)).collect()
    }

    /// Pages scanned per interval under the common ~5 % overhead envelope.
    fn scan_pages_per_interval(&self, m: &Machine) -> u64 {
        ((m.cfg.interval_ns * 0.05) / m.cfg.costs.one_scan_ns) as u64
    }
}

impl MemoryManager for AutoTiering {
    fn name(&self) -> String {
        "AutoTiering".into()
    }

    fn init(&mut self, m: &mut Machine) {
        self.chunks = vma_chunks(m);
    }

    fn placement(&mut self, m: &Machine, tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        m.topology().view(m.node_of(tid)).to_vec()
    }

    fn on_interval(&mut self, m: &mut Machine, _interval: u64) {
        self.intervals += 1;
        if self.chunks.is_empty() {
            return;
        }
        // Randomly sample a contiguous window of chunks and scan them.
        let mut to_scan = self.scan_pages_per_interval(m);
        let mut hot_pages: Vec<VirtAddr> = Vec::new();
        let mut chunk_i = self.rng.below(self.chunks.len() as u64) as usize;
        while to_scan > 0 {
            let chunk = self.chunks[chunk_i % self.chunks.len()];
            chunk_i += 1;
            for page in chunk.iter_pages_4k() {
                if to_scan == 0 {
                    break;
                }
                if let Some((accessed, _)) = m.scan_page(page) {
                    to_scan -= 1;
                    if accessed {
                        hot_pages.push(page);
                    }
                }
            }
        }
        self.hot_bytes_sum += hot_pages.len() as u64 * PAGE_SIZE_4K;
        self.last_hot = hot_pages.clone();

        // Coalesce contiguous hot pages into ranges: AutoTiering migrates
        // at page granularity, but batching contiguous pages into one
        // migration call is how any real implementation amortizes the
        // per-invocation cost.
        let mut runs: Vec<VaRange> = Vec::new();
        for &page in &hot_pages {
            match runs.last_mut() {
                Some(r) if r.end == page => r.end = VirtAddr(page.0 + PAGE_SIZE_4K),
                _ => runs.push(VaRange::from_len(page, PAGE_SIZE_4K)),
            }
        }

        // Opportunistic promotion: the fastest tier with space right now.
        let topo = m.topology().clone();
        let mut budget = self.promote_budget;
        for run in runs {
            if budget < PAGE_SIZE_4K {
                break;
            }
            let Some(cur) = m.component_of(run.start) else { continue };
            let node = 0; // AutoTiering keeps a single distance table.
            let cur_rank = topo.tier_rank(node, cur);
            let mut dest = None;
            for rank in 0..cur_rank {
                let c = topo.component_at_rank(node, rank);
                if m.allocator(c).free() >= run.len() {
                    dest = Some(c);
                    break;
                }
            }
            let Some(dest) = dest else {
                // Opportunistic demotion: push a random chunk out of the
                // fastest tier and retry next interval.
                let fast = topo.component_at_rank(node, 0);
                let start = self.rng.below(self.chunks.len() as u64) as usize;
                for off in 0..self.chunks.len() {
                    let chunk = self.chunks[(start + off) % self.chunks.len()];
                    if m.component_of(chunk.start) == Some(fast) {
                        if let Some(down) = one_step_down(m, fast, node) {
                            migrate_sync(m, chunk, down);
                        }
                        break;
                    }
                }
                continue;
            };
            // Truncate the run to the remaining rate-limit budget.
            let take = VaRange::from_len(run.start, run.len().min(budget & !(PAGE_SIZE_4K - 1)));
            if take.is_empty() {
                break;
            }
            let moved = migrate_sync(m, take, dest);
            budget = budget.saturating_sub(moved.max(PAGE_SIZE_4K));
        }
    }

    fn hot_bytes_identified(&self) -> u64 {
        self.hot_bytes_sum / self.intervals.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{AccessKind, MachineConfig};
    use tiersim::tier::optane_four_tier;

    fn machine() -> Machine {
        let mut cfg = MachineConfig::new(optane_four_tier(1 << 12), 2);
        cfg.interval_ns = 1.0e6;
        let mut m = Machine::new(cfg);
        let r = VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m.prefault_range(r, &[2]).unwrap();
        m
    }

    #[test]
    fn scans_sampled_window_and_promotes_accessed() {
        let mut m = machine();
        let mut at = AutoTiering::new(4 * PAGE_SIZE_2M);
        at.init(&mut m);
        // Touch every page so whatever window is sampled sees accesses.
        for chunk in at.chunks.clone() {
            for page in chunk.iter_pages_4k() {
                m.access(0, page, AccessKind::Read);
            }
        }
        at.on_interval(&mut m, 0);
        assert!(m.stats().pte_scans > 0);
        assert!(at.hot_bytes_identified() > 0);
        assert!(m.stats().pages_migrated > 0, "accessed pages were promoted");
        // Promotions land in the fastest tier (it has plenty of room).
        assert!(m.allocator(0).used() > 0);
    }

    #[test]
    fn respects_promotion_budget() {
        let mut m = machine();
        let budget = 16 * PAGE_SIZE_4K;
        let mut at = AutoTiering::new(budget);
        at.init(&mut m);
        for chunk in at.chunks.clone() {
            for page in chunk.iter_pages_4k() {
                m.access(0, page, AccessKind::Write);
            }
        }
        at.on_interval(&mut m, 0);
        assert!(m.stats().bytes_migrated <= budget + PAGE_SIZE_4K);
    }
}
