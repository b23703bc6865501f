//! HeMem (SOSP '21): PEBS-only tiered memory management for two tiers.
//!
//! HeMem samples memory accesses with performance counters alone (no PTE
//! scans), accumulates per-page sample counts with periodic cooling, and
//! promotes pages whose count crosses a hot threshold into local DRAM,
//! demoting cold pages under memory pressure. It understands exactly two
//! tiers — local DRAM and local PM — which is why it cannot exploit the
//! remote tiers of a four-tier machine (Sec. 2.2, 9.6). Run it on a
//! machine whose PEBS monitors *all* components ([`hemem_pebs_config`]),
//! matching its use of both DRAM and NVM read events.

use std::collections::BTreeMap;

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::machine::Machine;
use tiersim::pebs::PebsConfig;
use tiersim::sim::MemoryManager;
use tiersim::tier::{ComponentId, Topology};

use crate::util::migrate_sync;

/// PEBS programming for HeMem: sample every component (DRAM + PM events).
pub fn hemem_pebs_config(topology: &Topology) -> PebsConfig {
    PebsConfig::with_components((0..topology.num_components() as u16).collect())
}

/// The HeMem baseline.
pub struct HeMem {
    /// Sample counts per 4 KB page (cooled periodically).
    counts: BTreeMap<u64, u32>,
    /// Promotion threshold in samples per interval window.
    hot_threshold: u32,
    /// Cool (halve) counts every this many intervals.
    cool_every: u64,
    /// DRAM fill watermark: demote when utilization exceeds this.
    watermark: f64,
    promote_budget: u64,
    dram: ComponentId,
    pm: ComponentId,
    hot_bytes_sum: u64,
    intervals: u64,
}

impl HeMem {
    /// Creates a HeMem manager for the local tiers of node 0.
    pub fn new(promote_budget: u64) -> HeMem {
        HeMem {
            counts: BTreeMap::new(),
            hot_threshold: 2,
            cool_every: 4,
            watermark: 0.95,
            promote_budget,
            dram: 0,
            pm: 1,
            hot_bytes_sum: 0,
            intervals: 0,
        }
    }
}

impl MemoryManager for HeMem {
    fn name(&self) -> String {
        "HeMem".into()
    }

    fn init(&mut self, m: &mut Machine) {
        // The two tiers HeMem manages: node 0's local DRAM and local PM.
        let topo = m.topology();
        self.dram = topo
            .dram_components()
            .into_iter()
            .find(|&c| topo.components[c as usize].home_node == 0)
            .expect("a local DRAM exists");
        self.pm = topo
            .pm_components()
            .into_iter()
            .find(|&c| topo.components[c as usize].home_node == 0)
            .unwrap_or(self.dram);
    }

    fn placement(&mut self, m: &Machine, _tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        // HeMem allocates DRAM until it runs out, then PM; remaining
        // components only as a last resort (it does not know about them).
        let mut order = vec![self.dram, self.pm];
        for c in 0..m.topology().num_components() as u16 {
            if c != self.dram && c != self.pm {
                order.push(c);
            }
        }
        order
    }

    fn on_interval(&mut self, m: &mut Machine, interval: u64) {
        self.intervals += 1;
        // Consume the full PEBS stream (HeMem's only signal).
        for s in m.drain_pebs() {
            *self.counts.entry(s.va.page_4k().0).or_insert(0) += 1;
        }
        // Identify hot pages.
        let mut hot: Vec<u64> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= self.hot_threshold)
            .map(|(&p, _)| p)
            .collect();
        hot.sort_unstable();
        self.hot_bytes_sum += hot.len() as u64 * PAGE_SIZE_4K;

        // Promote hot pages resident in PM into DRAM, rate-limited.
        let mut budget = self.promote_budget;
        let (mut promoted_bytes, mut promotions) = (0u64, 0u64);
        let (mut demoted_bytes, mut demotions) = (0u64, 0u64);
        for page in hot {
            if budget < PAGE_SIZE_4K {
                break;
            }
            let va = VirtAddr(page);
            if m.component_of(va) != Some(self.pm) {
                continue;
            }
            if m.allocator(self.dram).free() < PAGE_SIZE_2M {
                // Under pressure: demote the coldest known DRAM pages.
                let mut coldest: Vec<(u32, u64)> = self
                    .counts
                    .iter()
                    .filter(|&(&p, _)| m.component_of(VirtAddr(p)) == Some(self.dram))
                    .map(|(&p, &c)| (c, p))
                    .collect();
                coldest.sort_unstable();
                let mut freed = 0u64;
                for &(_, p) in coldest.iter().take(256) {
                    let moved =
                        migrate_sync(m, VaRange::from_len(VirtAddr(p), PAGE_SIZE_4K), self.pm);
                    if moved > 0 {
                        demoted_bytes += moved;
                        demotions += 1;
                    }
                    freed += moved;
                    if freed >= 64 * PAGE_SIZE_4K {
                        break;
                    }
                }
                if m.allocator(self.dram).free() < PAGE_SIZE_4K {
                    break;
                }
            }
            let moved = migrate_sync(m, VaRange::from_len(va, PAGE_SIZE_4K), self.dram);
            if moved > 0 {
                promoted_bytes += moved;
                promotions += 1;
            }
            budget = budget.saturating_sub(moved.max(PAGE_SIZE_4K));
        }

        // Watermark-driven background demotion of never-sampled pressure.
        if m.allocator(self.dram).utilization() > self.watermark {
            let mut coldest: Vec<(u32, u64)> = self
                .counts
                .iter()
                .filter(|&(&p, _)| m.component_of(VirtAddr(p)) == Some(self.dram))
                .map(|(&p, &c)| (c, p))
                .collect();
            coldest.sort_unstable();
            for &(_, p) in coldest.iter().take(64) {
                let moved = migrate_sync(m, VaRange::from_len(VirtAddr(p), PAGE_SIZE_4K), self.pm);
                if moved > 0 {
                    demoted_bytes += moved;
                    demotions += 1;
                }
            }
        }
        if promotions > 0 {
            m.obs_mut().reg.counter_add(obs::names::PROMOTIONS, promotions);
            m.obs_mut().reg.counter_add(obs::names::PROMOTED_BYTES, promoted_bytes);
            m.record_event(obs::EventKind::Promotion {
                bytes: promoted_bytes,
                src: self.pm,
                dst: self.dram,
            });
        }
        if demotions > 0 {
            m.obs_mut().reg.counter_add(obs::names::DEMOTIONS, demotions);
            m.obs_mut().reg.counter_add(obs::names::DEMOTED_BYTES, demoted_bytes);
            m.record_event(obs::EventKind::Demotion {
                bytes: demoted_bytes,
                src: self.dram,
                dst: self.pm,
            });
        }

        // Cooling.
        if interval % self.cool_every == self.cool_every - 1 {
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    fn hot_bytes_identified(&self) -> u64 {
        self.hot_bytes_sum / self.intervals.max(1)
    }

    fn metadata_bytes(&self) -> u64 {
        self.counts.len() as u64 * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::machine::{AccessKind, MachineConfig};
    use tiersim::tier::two_tier;

    fn machine() -> Machine {
        let topo = two_tier(1 << 12);
        let mut cfg = MachineConfig::new(topo.clone(), 1);
        cfg.pebs = hemem_pebs_config(&topo);
        cfg.pebs.period = 8; // Denser sampling for a small test.
        cfg.interval_ns = 1.0e6;
        let mut m = Machine::new(cfg);
        let r = VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m.prefault_range(r, &[1]).unwrap(); // All pages start in PM.
        m
    }

    #[test]
    fn pebs_hot_pages_promote_to_dram() {
        let mut m = machine();
        let mut h = HeMem::new(4 * PAGE_SIZE_2M);
        h.init(&mut m);
        // Hammer one page hard enough to cross the sample threshold.
        for _ in 0..64 {
            m.access(0, VirtAddr(0x5000), AccessKind::Read);
        }
        h.on_interval(&mut m, 0);
        assert_eq!(m.component_of(VirtAddr(0x5000)), Some(0), "hot page promoted");
        assert!(h.hot_bytes_identified() > 0);
    }

    #[test]
    fn cooling_decays_counts() {
        let mut m = machine();
        let mut h = HeMem::new(PAGE_SIZE_2M);
        h.init(&mut m);
        h.counts.insert(0x1000, 8);
        h.cool_every = 1;
        h.on_interval(&mut m, 0);
        assert_eq!(h.counts.get(&0x1000), Some(&4));
    }

    #[test]
    fn unsampled_pages_stay_put() {
        let mut m = machine();
        let mut h = HeMem::new(PAGE_SIZE_2M);
        h.init(&mut m);
        h.on_interval(&mut m, 0);
        assert_eq!(m.component_of(VirtAddr(0)), Some(1), "no samples, no movement");
    }
}
