//! Virtual-address-space layout helper for workload data structures.
//!
//! Each workload lays its arrays and tables out as separate VMAs with 2 MB
//! alignment and guard gaps, mirroring how a large-memory application's
//! mappings look to a profiler.

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::sim::MemEnv;

/// Base address of the first workload VMA.
pub const LAYOUT_BASE: u64 = 0x1000_0000;
/// Guard gap between consecutive VMAs.
pub const LAYOUT_GAP: u64 = 4 * PAGE_SIZE_2M;

/// Sequentially assigns VMA address ranges.
#[derive(Debug)]
pub struct Layout {
    cursor: u64,
}

impl Default for Layout {
    fn default() -> Layout {
        Layout::new()
    }
}

impl Layout {
    /// Starts a fresh layout at [`LAYOUT_BASE`].
    pub fn new() -> Layout {
        Layout { cursor: LAYOUT_BASE }
    }

    /// Reserves `bytes` (rounded up to 2 MB) and registers the VMA.
    pub fn add(&mut self, env: &mut dyn MemEnv, name: &str, bytes: u64, thp: bool) -> VaRange {
        let len = bytes.max(1).next_multiple_of(PAGE_SIZE_2M);
        let range = VaRange::from_len(VirtAddr(self.cursor), len);
        env.machine().mmap(name, range, thp);
        self.cursor += len + LAYOUT_GAP;
        range
    }
}

/// Populates every 4 KB page of all `ranges` as if by one write each,
/// cycling between the ranges page by page and between threads, so
/// first-touch placement interleaves the data structures instead of
/// handing whole tables to whichever tier fills first.
///
/// Each page's thread is hashed from its position in that order, but a
/// page whose mapping is [settled](tiersim::machine::Machine::settled_until)
/// is not written, nor is the rest of that mapping: those writes would
/// only charge measurement state, so this is valid only in
/// `Workload::setup`, before `reset_measurement`.
pub fn populate_interleaved(env: &mut dyn MemEnv, ranges: &[VaRange], threads: usize) {
    let firsts: Vec<VirtAddr> = ranges.iter().map(|r| r.start.page_4k()).collect();
    let pages: Vec<u64> = ranges.iter().zip(&firsts).map(|(r, f)| (r.end - *f).div_ceil(PAGE_SIZE_4K)).collect();
    // Per range, the index of the next page that has to be looked at.
    let mut next = vec![0u64; ranges.len()];
    let skips = !env.machine().keeps_every_write();
    let rounds = pages.iter().copied().max().unwrap_or(0);
    // Round `k` visits page `k` of each range that long; `n` counts the
    // visits before the current one.
    let (mut k, mut n) = (0u64, 0u64);
    while k < rounds {
        for i in (0..ranges.len()).filter(|&i| pages[i] > k) {
            if next[i] == k {
                let page = firsts[i] + k * PAGE_SIZE_4K;
                let settled = if skips { env.machine().settled_until(page) } else { None };
                next[i] = match settled {
                    Some(end) => (end - firsts[i]) / PAGE_SIZE_4K,
                    None => {
                        env.write(visit_thread(n, threads), page);
                        k + 1
                    }
                };
            }
            n += 1;
        }
        k += 1;
        if skips {
            // Jump to the next round with a page to look at, counting the
            // visits of the rounds in between.
            let to = (0..ranges.len()).filter(|&i| next[i] < pages[i]).map(|i| next[i]).min().unwrap_or(rounds);
            n += pages.iter().map(|&p| p.min(to) - p.min(k)).sum::<u64>();
            k = to;
        }
    }
}

/// The thread of the `n`th page visit, hashed: a sequential stride would
/// resonate with THP chunk boundaries (512 pages per huge page) and hand
/// every huge-page allocation to one thread.
fn visit_thread(n: u64, threads: usize) -> usize {
    let x = n.wrapping_mul(0x9e3779b97f4a7c15);
    ((x ^ (x >> 31)) % threads.max(1) as u64) as usize
}

/// Virtual address of element `idx` in an array of `elem` byte elements
/// based at `range.start`.
#[inline]
pub fn elem_addr(range: VaRange, idx: u64, elem: u64) -> VirtAddr {
    let off = idx * elem;
    debug_assert!(off + elem <= range.len(), "element {idx} out of range");
    VirtAddr(range.start.0 + off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::machine::{Machine, MachineConfig};
    use tiersim::sim::{FirstTouchPolicy, SimEnv};
    use tiersim::tier::tiny_two_tier;

    fn env_machine() -> Machine {
        Machine::new(MachineConfig::new(tiny_two_tier(8 * PAGE_SIZE_2M, 32 * PAGE_SIZE_2M), 1))
    }

    #[test]
    fn layout_assigns_disjoint_aligned_ranges() {
        let mut m = env_machine();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        let mut layout = Layout::new();
        let a = layout.add(&mut env, "a", 1000, false);
        let b = layout.add(&mut env, "b", 3 * PAGE_SIZE_2M + 1, true);
        assert!(a.start.is_2m_aligned() && b.start.is_2m_aligned());
        assert_eq!(a.len(), PAGE_SIZE_2M);
        assert_eq!(b.len(), 4 * PAGE_SIZE_2M);
        assert!(!a.overlaps(b));
        assert!(b.start.0 >= a.end.0 + LAYOUT_GAP);
    }

    #[test]
    fn populate_allocates_every_page() {
        let mut m = env_machine();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        let mut layout = Layout::new();
        let a = layout.add(&mut env, "a", PAGE_SIZE_2M, false);
        populate_interleaved(&mut env, &[a], 1);
        assert_eq!(m.page_table().mapped_bytes(), PAGE_SIZE_2M);
    }

    #[test]
    fn elem_addr_indexes_arrays() {
        let r = VaRange::from_len(VirtAddr(0x1000_0000), PAGE_SIZE_2M);
        assert_eq!(elem_addr(r, 0, 8).0, 0x1000_0000);
        assert_eq!(elem_addr(r, 10, 8).0, 0x1000_0050);
    }
}
