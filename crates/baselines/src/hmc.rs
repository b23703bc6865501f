//! Hardware-managed memory caching (Optane Memory Mode).
//!
//! In Memory Mode only the PM capacity is visible to software; the DRAM in
//! front of each socket acts as a hardware-managed cache (modelled by
//! [`tiersim::cache::HwCache`] inside the machine). The manager therefore
//! just places every page in PM and lets the hardware do the rest. The
//! machine needs `MachineConfig::hmc_mode` set so the caches exist; the
//! harness's machine configuration (`mtm_harness::runs::machine_config`)
//! sets it for `hmc` runs.

use tiersim::machine::Machine;
use tiersim::sim::MemoryManager;
use tiersim::tier::ComponentId;
use tiersim::VirtAddr;

/// The Memory-Mode baseline ("HMC" in Fig. 4).
#[derive(Default)]
pub struct MemoryMode;

impl MemoryManager for MemoryMode {
    fn name(&self) -> String {
        "HMC (Memory Mode)".into()
    }

    fn placement(&mut self, m: &Machine, tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        // Only PM is addressable; prefer the local socket's PM.
        let topo = m.topology();
        let node = m.node_of(tid);
        let mut pm = topo.pm_components();
        pm.sort_by_key(|&c| topo.tier_rank(node, c));
        pm
    }

    fn on_interval(&mut self, _m: &mut Machine, _interval: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::{VaRange, PAGE_SIZE_2M};
    use tiersim::machine::{AccessKind, MachineConfig};
    use tiersim::tier::optane_four_tier;

    #[test]
    fn pages_land_in_pm_and_cache_serves_hits() {
        let mut cfg = MachineConfig::new(optane_four_tier(1 << 12), 2);
        cfg.hmc_mode = true;
        let mut m = Machine::new(cfg);
        m.mmap("a", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), false);
        let mut mm = MemoryMode;
        let order = mm.placement(&m, 0, VirtAddr(0));
        assert_eq!(order, vec![2, 3], "only PM components, local first");
        m.alloc_and_map(0, VirtAddr(0), &order).unwrap();
        assert_eq!(m.component_of(VirtAddr(0)), Some(2));
        m.access(0, VirtAddr(0), AccessKind::Read);
        m.access(0, VirtAddr(0), AccessKind::Read);
        let ratios = m.hmc_hit_ratios();
        let pm0 = ratios.iter().find(|&&(c, _)| c == 2).unwrap();
        assert!(pm0.1 > 0.0, "second access hits the DRAM cache");
    }
}
