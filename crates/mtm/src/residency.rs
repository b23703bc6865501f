//! Helpers for asking where a region currently lives.

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_4K};
use tiersim::machine::Machine;
use tiersim::tier::ComponentId;

/// Component backing the majority of a region, probed cheaply.
///
/// Regions are migrated wholesale, so their pages are almost always
/// co-resident; probing a few positions is enough. Returns `None` when no
/// probe hits a mapped page. Equal votes go to the lowest component id, so
/// runs stay byte-for-byte reproducible.
pub fn majority_component(m: &Machine, range: VaRange) -> Option<ComponentId> {
    let len = range.len();
    let probes = [0u64, len / 2, len.saturating_sub(PAGE_SIZE_4K)]
        .map(|off| m.component_of(VirtAddr(range.start.0 + off)));
    let mut best: Option<(ComponentId, usize)> = None;
    for c in probes.iter().flatten().copied() {
        let votes = probes.iter().filter(|&&p| p == Some(c)).count();
        if best.is_none_or(|(b, v)| votes > v || votes == v && c < b) {
            best = Some((c, votes));
        }
    }
    best.map(|(c, _)| c)
}

/// Bytes of the region resident on each component (exact; walks the page
/// table). Used by the rate-limit admission policy, tests and reports,
/// not by the interval hooks of the default configuration.
pub fn residency_exact(m: &Machine, range: VaRange) -> Vec<(ComponentId, u64)> {
    let mut map = std::collections::BTreeMap::new();
    m.page_table().for_each_mapped_in(range, |_, pte, size| {
        *map.entry(pte.frame().component()).or_insert(0u64) += size.bytes();
    });
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::MachineConfig;
    use tiersim::tier::tiny_two_tier;

    #[test]
    fn majority_follows_placement() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.mmap("a", range, false);
        assert_eq!(majority_component(&m, range), None);
        m.prefault_range(range, &[1]).unwrap();
        assert_eq!(majority_component(&m, range), Some(1));
        let exact = residency_exact(&m, range);
        assert_eq!(exact, vec![(1, PAGE_SIZE_2M)]);
    }

    #[test]
    fn majority_ties_go_to_the_lowest_component_and_unmapped_probes_abstain() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        // Probes land on the first page, the middle page and the last page.
        let range = VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_4K);
        let (first, middle, last) =
            (VirtAddr(0), VirtAddr(2 * PAGE_SIZE_4K), VirtAddr(3 * PAGE_SIZE_4K));
        m.mmap("a", range, false);
        // One vote each for components 1 and 0, one unmapped probe: the
        // tie goes to component 0 whichever probe casts it.
        m.prefault_range(VaRange::from_len(first, PAGE_SIZE_4K), &[1]).unwrap();
        m.prefault_range(VaRange::from_len(last, PAGE_SIZE_4K), &[0]).unwrap();
        assert_eq!(majority_component(&m, range), Some(0));
        // Two votes beat one, even from the higher id.
        m.prefault_range(VaRange::from_len(middle, PAGE_SIZE_4K), &[1]).unwrap();
        assert_eq!(majority_component(&m, range), Some(1));
        // A single-page range probes one page three times.
        assert_eq!(majority_component(&m, VaRange::from_len(last, PAGE_SIZE_4K)), Some(0));
        // An unmapped range casts no vote at all.
        let hole = VaRange::from_len(VirtAddr(PAGE_SIZE_4K), PAGE_SIZE_4K);
        assert_eq!(majority_component(&m, hole), None);
    }
}
