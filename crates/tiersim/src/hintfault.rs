//! NUMA hint-fault machinery.
//!
//! Linux AutoNUMA periodically *poisons* PTEs (clears their present
//! protection) so the next access traps into the kernel, revealing which
//! CPU touched the page. Tiered-AutoNUMA's "hot page selection" patch uses
//! the *hint-fault latency* — the time between poisoning a PTE and the
//! fault — as a hotness signal (a short latency means the page was touched
//! soon after the scan). MTM itself turns the mechanism on once every 12
//! PTE scans to learn which node accesses a page (Sec. 6.2), amortizing the
//! 12x cost of a fault relative to a plain scan.

use std::collections::BTreeMap;

use crate::addr::VirtAddr;
use crate::tier::NodeId;

/// One captured hint fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HintFault {
    /// Base address of the faulting page.
    pub page: VirtAddr,
    /// Thread that faulted.
    pub tid: u32,
    /// CPU node the faulting thread runs on.
    pub node: NodeId,
    /// Nanoseconds between poisoning and the fault (the patch's hotness
    /// signal; smaller is hotter).
    pub latency_ns: f64,
}

/// Tracks poisoned pages and collects faults.
#[derive(Debug, Default)]
pub struct HintFaultUnit {
    /// Poison timestamps keyed by page base address (virtual ns).
    poisoned_at: BTreeMap<u64, f64>,
    faults: Vec<HintFault>,
    total_faults: u64,
    /// Largest number of simultaneously poisoned PTEs ever observed
    /// (telemetry: bounds the fault-storm a scan window can cause).
    poisoned_peak: usize,
}

impl HintFaultUnit {
    /// Creates an idle unit.
    pub fn new() -> HintFaultUnit {
        HintFaultUnit::default()
    }

    /// Records that `page` was poisoned at virtual time `now_ns`.
    pub fn poison(&mut self, page: VirtAddr, now_ns: f64) {
        self.poisoned_at.insert(page.0, now_ns);
        self.poisoned_peak = self.poisoned_peak.max(self.poisoned_at.len());
    }

    /// Number of pages currently poisoned.
    pub fn poisoned_count(&self) -> usize {
        self.poisoned_at.len()
    }

    /// Handles a fault on `page`, recording the access origin.
    pub fn fault(&mut self, page: VirtAddr, tid: u32, node: NodeId, now_ns: f64) {
        let at = self.poisoned_at.remove(&page.0).unwrap_or(now_ns);
        self.total_faults += 1;
        self.faults.push(HintFault { page, tid, node, latency_ns: (now_ns - at).max(0.0) });
    }

    /// Drains collected faults.
    pub fn drain(&mut self) -> Vec<HintFault> {
        std::mem::take(&mut self.faults)
    }

    /// Faults collected and not yet drained.
    pub fn pending(&self) -> usize {
        self.faults.len()
    }

    /// Total faults ever captured.
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Largest number of simultaneously poisoned PTEs ever observed.
    pub fn poisoned_peak(&self) -> usize {
        self.poisoned_peak
    }

    /// Zeroes the lifetime statistics (fault total, poison peak) without
    /// disturbing currently poisoned PTEs — used when measurement resets
    /// after workload setup.
    pub fn reset_stats(&mut self) {
        self.total_faults = 0;
        self.poisoned_peak = self.poisoned_at.len();
    }

    /// Serializes the unit's full state (poison map, undrained faults and
    /// lifetime statistics).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.poisoned_at.len() as u64);
        for (&page, &at) in &self.poisoned_at {
            w.u64(page);
            w.f64(at);
        }
        w.varint(self.faults.len() as u64);
        for f in &self.faults {
            w.u64(f.page.0);
            w.u32(f.tid);
            w.u16(f.node);
            w.f64(f.latency_ns);
        }
        w.varint(self.total_faults);
        w.varint(self.poisoned_peak as u64);
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_reports_latency() {
        let mut u = HintFaultUnit::new();
        u.poison(VirtAddr(0x1000), 100.0);
        assert_eq!(u.poisoned_count(), 1);
        u.fault(VirtAddr(0x1000), 3, 1, 250.0);
        let f = u.drain();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].latency_ns, 150.0);
        assert_eq!(f[0].node, 1);
        assert_eq!(u.poisoned_count(), 0);
    }

    #[test]
    fn unpoisoned_fault_has_zero_latency() {
        let mut u = HintFaultUnit::new();
        u.fault(VirtAddr(0x2000), 0, 0, 500.0);
        assert_eq!(u.drain()[0].latency_ns, 0.0);
    }
}
