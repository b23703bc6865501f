//! Tiered-AutoNUMA: Linux NUMA-balancing-based memory tiering.
//!
//! Profiling is hint-fault driven: each interval a window of pages is
//! poisoned (`PROT_NONE`-style NUMA hints); pages that fault were
//! recently accessed. The *vanilla* variant requires a page to fault in
//! two separate intervals before it is promotion-eligible (Linux's
//! two-pass rule) and migrates strictly tier-by-tier with a same-socket
//! preference. The *patched* variant adds the two upstream patches the
//! paper evaluates: hot-page selection by hint-fault latency and automatic
//! hot-threshold adjustment to match the promotion rate limit.

use std::collections::BTreeMap;

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_4K};
use tiersim::machine::Machine;
use tiersim::sim::MemoryManager;
use tiersim::tier::ComponentId;

use crate::util::{migrate_sync, one_step_down, one_step_up, vma_chunks};

/// The tiered-AutoNUMA baseline (vanilla or patched).
pub struct AutoNuma {
    patched: bool,
    chunks: Vec<VaRange>,
    cursor_chunk: usize,
    cursor_page: u64,
    /// Patched: promote pages whose hint-fault latency is below this.
    hot_threshold_ns: f64,
    /// Promotion rate limit in bytes per interval (matched to MTM's).
    promote_budget: u64,
    /// Fault history: page -> intervals in which it faulted (vanilla's
    /// two-pass rule) and the interval of the last fault.
    fault_count: BTreeMap<u64, u32>,
    chunk_last_fault: BTreeMap<u64, u64>,
    hot_bytes_sum: u64,
    intervals: u64,
}

impl AutoNuma {
    /// Creates the vanilla variant.
    pub fn vanilla(promote_budget: u64) -> AutoNuma {
        AutoNuma::new(false, promote_budget)
    }

    /// Creates the patched variant (hot-page selection + auto threshold).
    pub fn patched(promote_budget: u64) -> AutoNuma {
        AutoNuma::new(true, promote_budget)
    }

    fn new(patched: bool, promote_budget: u64) -> AutoNuma {
        AutoNuma {
            patched,
            chunks: Vec::new(),
            cursor_chunk: 0,
            cursor_page: 0,
            hot_threshold_ns: f64::INFINITY,
            promote_budget,
            fault_count: BTreeMap::new(),
            chunk_last_fault: BTreeMap::new(),
            hot_bytes_sum: 0,
            intervals: 0,
        }
    }

    /// Number of pages to poison per interval so the profiling overhead
    /// tracks the same ~5 % constraint the other systems run under.
    fn scan_pages_per_interval(&self, m: &Machine) -> u64 {
        let per_page = m.cfg.costs.one_scan_ns + m.cfg.costs.hint_fault_ns();
        ((m.cfg.interval_ns * 0.05) / per_page) as u64
    }

    fn poison_window(&mut self, m: &mut Machine) {
        if self.chunks.is_empty() {
            return;
        }
        // A page-granular cursor sweeps the whole address space across
        // intervals, as Linux's task scan pointer does.
        let mut left = self.scan_pages_per_interval(m);
        let total_pages: u64 = self.chunks.iter().map(|c| c.pages_4k()).sum();
        let mut guard = total_pages.saturating_mul(2);
        while left > 0 && guard > 0 {
            guard -= 1;
            let chunk = self.chunks[self.cursor_chunk % self.chunks.len()];
            let pages = chunk.pages_4k();
            if self.cursor_page >= pages {
                self.cursor_chunk = (self.cursor_chunk + 1) % self.chunks.len();
                self.cursor_page = 0;
                continue;
            }
            let page = VirtAddr(chunk.start.page_4k().0 + self.cursor_page * PAGE_SIZE_4K);
            self.cursor_page += 1;
            if m.poison_page(page) {
                left -= 1;
            }
        }
    }

    fn demote_cold_chunk(&mut self, m: &mut Machine, from: ComponentId, node: u16, interval: u64) -> bool {
        // The coldest chunk resident on `from`: oldest (or absent) fault.
        let mut best: Option<(u64, VaRange)> = None;
        for &chunk in &self.chunks {
            if m.component_of(chunk.start) != Some(from) {
                continue;
            }
            let last = self.chunk_last_fault.get(&chunk.start.0).copied().unwrap_or(0);
            if last + 2 > interval {
                continue; // Recently faulted; keep.
            }
            if best.map(|(l, _)| last < l).unwrap_or(true) {
                best = Some((last, chunk));
            }
        }
        let Some((_, chunk)) = best else { return false };
        let Some(down) = one_step_down(m, from, node) else { return false };
        let moved = migrate_sync(m, chunk, down);
        if moved > 0 {
            m.obs_mut().reg.counter_add(obs::names::DEMOTIONS, 1);
            m.obs_mut().reg.counter_add(obs::names::DEMOTED_BYTES, moved);
            m.record_event(obs::EventKind::Demotion { bytes: moved, src: from, dst: down });
        }
        moved > 0
    }
}

impl MemoryManager for AutoNuma {
    fn name(&self) -> String {
        if self.patched { "Tiered-AutoNUMA".into() } else { "Vanilla Tiered-AutoNUMA".into() }
    }

    fn init(&mut self, m: &mut Machine) {
        self.chunks = vma_chunks(m);
        if self.patched {
            self.hot_threshold_ns = m.cfg.interval_ns;
        }
    }

    fn placement(&mut self, m: &Machine, tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        m.topology().view(m.node_of(tid)).to_vec()
    }

    fn on_interval(&mut self, m: &mut Machine, interval: u64) {
        self.intervals += 1;
        let faults = m.drain_hint_faults();
        // Classify candidates.
        let mut hot_pages: Vec<(VirtAddr, u16)> = Vec::new();
        for f in &faults {
            self.chunk_last_fault.insert(f.page.page_2m().0, interval);
            let count = self.fault_count.entry(f.page.0).or_insert(0);
            *count += 1;
            let eligible = if self.patched {
                f.latency_ns <= self.hot_threshold_ns
            } else {
                *count >= 2
            };
            if eligible {
                hot_pages.push((f.page, f.node));
            }
        }
        self.hot_bytes_sum += hot_pages.len() as u64 * PAGE_SIZE_4K;

        // Tier-by-tier promotion, same-socket preference, rate-limited.
        let mut budget = self.promote_budget;
        let mut promoted = 0u64;
        // Per (src, dst) pair: (pages, bytes), aggregated into one
        // telemetry event per pair per interval.
        let mut moves: std::collections::BTreeMap<(u16, u16), (u64, u64)> =
            std::collections::BTreeMap::new();
        for (page, node) in hot_pages {
            if budget < PAGE_SIZE_4K {
                break;
            }
            let Some(cur) = m.component_of(page) else { continue };
            let Some(dest) = one_step_up(m, cur, node) else { continue };
            let range = VaRange::from_len(page, PAGE_SIZE_4K);
            if m.allocator(dest).free() < PAGE_SIZE_4K
                && !self.demote_cold_chunk(m, dest, node, interval)
            {
                continue;
            }
            let moved = migrate_sync(m, range, dest);
            budget = budget.saturating_sub(moved.max(PAGE_SIZE_4K));
            promoted += moved;
            if moved > 0 {
                let e = moves.entry((cur, dest)).or_insert((0, 0));
                e.0 += 1;
                e.1 += moved;
            }
        }
        for (&(src, dst), &(pages, bytes)) in &moves {
            m.obs_mut().reg.counter_add(obs::names::PROMOTIONS, pages);
            m.obs_mut().reg.counter_add(obs::names::PROMOTED_BYTES, bytes);
            m.record_event(obs::EventKind::Promotion { bytes, src, dst });
        }
        // Patched: adjust the hot threshold to track the rate limit.
        if self.patched {
            if promoted >= self.promote_budget / 2 {
                self.hot_threshold_ns = (self.hot_threshold_ns * 0.8).max(m.cfg.costs.one_scan_ns);
            } else {
                self.hot_threshold_ns = (self.hot_threshold_ns * 1.25).min(10.0 * m.cfg.interval_ns);
            }
        }

        // Periodically forget stale fault history (Linux resets scan state).
        if interval % 16 == 15 {
            self.fault_count.clear();
        }
        self.poison_window(m);
    }

    fn hot_bytes_identified(&self) -> u64 {
        self.hot_bytes_sum / self.intervals.max(1)
    }

    fn metadata_bytes(&self) -> u64 {
        (self.fault_count.len() + self.chunk_last_fault.len()) as u64 * 16
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
        m.prefault_range(r, &[2]).unwrap(); // Start in local PM.
        m
    }

    #[test]
    fn poisons_scan_window_each_interval() {
        let mut m = machine();
        let mut an = AutoNuma::patched(PAGE_SIZE_2M);
        an.init(&mut m);
        an.on_interval(&mut m, 0);
        let expected = an.scan_pages_per_interval(&m);
        assert!(expected > 0);
        // Poisoned pages sit in the hint unit awaiting faults.
        assert!(m.stats().pte_scans == 0);
        assert!(m.breakdown().profiling_ns > 0.0);
    }

    #[test]
    fn vanilla_requires_two_faults() {
        let mut m = machine();
        let mut an = AutoNuma::vanilla(64 * PAGE_SIZE_4K);
        an.init(&mut m);
        an.on_interval(&mut m, 0); // Poisons the first window.
        let page = VirtAddr(0);
        m.access(0, page, AccessKind::Read); // First fault.
        an.on_interval(&mut m, 1);
        assert_eq!(m.component_of(page), Some(2), "one fault is not enough");
        // Second interval: poison again (cursor wrapped far; poison directly).
        m.poison_page(page);
        m.access(0, page, AccessKind::Read); // Second fault.
        an.on_interval(&mut m, 2);
        assert_eq!(m.component_of(page), Some(0), "two faults promote one tier up");
    }

    #[test]
    fn patched_promotes_fast_faults_one_step() {
        let mut m = machine();
        let mut an = AutoNuma::patched(64 * PAGE_SIZE_4K);
        an.init(&mut m);
        let page = VirtAddr(5 * PAGE_SIZE_2M);
        m.poison_page(page);
        m.access(0, page, AccessKind::Read);
        an.on_interval(&mut m, 0);
        // PM0 -> DRAM0 (same socket), not directly influenced by ranks.
        assert_eq!(m.component_of(page), Some(0));
        assert!(an.hot_bytes_identified() > 0);
    }

    #[test]
    fn threshold_relaxes_when_underpromoting() {
        let mut m = machine();
        let mut an = AutoNuma::patched(PAGE_SIZE_2M);
        an.init(&mut m);
        let before = an.hot_threshold_ns;
        an.on_interval(&mut m, 0); // No faults, nothing promoted.
        assert!(an.hot_threshold_ns > before * 1.2, "threshold widened");
    }
}

