//! Shared helpers for baseline managers.

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M};
use tiersim::machine::Machine;
use tiersim::tier::{ComponentId, NodeId};

/// All 2 MB-aligned chunks covering the registered VMAs, in address order.
pub fn vma_chunks(m: &Machine) -> Vec<VaRange> {
    let mut out = Vec::new();
    for vma in m.page_table().vmas() {
        let mut start = vma.range.start.page_2m();
        while start < vma.range.end {
            let end = VirtAddr((start.0 + PAGE_SIZE_2M).min(vma.range.end.0));
            out.push(VaRange::new(start.max(vma.range.start), end));
            start = VirtAddr(start.0 + PAGE_SIZE_2M);
        }
    }
    out
}

/// The same-socket DRAM component fronting `component` (promotion target
/// for one-step tier-by-tier policies), or the node-local DRAM when the
/// page is already in a DRAM.
pub fn one_step_up(m: &Machine, component: ComponentId, node: NodeId) -> Option<ComponentId> {
    let topo = m.topology();
    let rank = topo.tier_rank(node, component);
    if rank == 0 {
        return None;
    }
    match topo.components[component as usize].kind {
        tiersim::tier::MemKind::Pm => {
            // Prefer the same-socket DRAM (the single-socket swap Linux
            // tiering performs), falling back to one rank up.
            let home = topo.components[component as usize].home_node;
            topo.dram_components()
                .into_iter()
                .find(|&d| topo.components[d as usize].home_node == home)
                .or_else(|| Some(topo.component_at_rank(node, rank - 1)))
        }
        tiersim::tier::MemKind::Dram => Some(topo.component_at_rank(node, rank - 1)),
    }
}

/// The next tier down from `component` (demotion target), preferring the
/// same-socket PM.
pub fn one_step_down(m: &Machine, component: ComponentId, node: NodeId) -> Option<ComponentId> {
    let topo = m.topology();
    let rank = topo.tier_rank(node, component);
    if rank + 1 >= topo.num_components() {
        return None;
    }
    match topo.components[component as usize].kind {
        tiersim::tier::MemKind::Dram => {
            let home = topo.components[component as usize].home_node;
            topo.pm_components()
                .into_iter()
                .find(|&p| topo.components[p as usize].home_node == home)
                .or_else(|| Some(topo.component_at_rank(node, rank + 1)))
        }
        tiersim::tier::MemKind::Pm => Some(topo.component_at_rank(node, rank + 1)),
    }
}

/// Migrates `range` to `dst` synchronously, charging the full cost, and
/// returns the bytes moved (0 on failure — destination full, empty
/// range, or a transient fault that outlived the retry budget), as Linux
/// `migrate_pages()`-based baselines do. Transient failures are retried
/// with bounded exponential backoff, the backoff landing on the critical
/// path exactly like the failed `migrate_pages()` calls it models.
pub fn migrate_sync(m: &mut Machine, range: VaRange, dst: ComponentId) -> u64 {
    let (res, report) = tiersim::migrate::relocate_with_retry(
        m,
        range,
        dst,
        1,
        false,
        tiersim::migrate::RetryPolicy::default(),
    );
    if report.backoff_ns > 0.0 {
        m.charge_migration(report.backoff_ns);
    }
    match res {
        Ok(out) => {
            m.charge_migration(out.breakdown.total_ns());
            out.bytes
        }
        Err(e) => {
            if e.is_transient() {
                m.obs_mut().reg.counter_add(obs::names::MIGRATIONS_DROPPED_TRANSIENT, 1);
            }
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::machine::MachineConfig;
    use tiersim::tier::optane_four_tier;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::new(optane_four_tier(1 << 12), 2));
        m.mmap("a", VaRange::from_len(VirtAddr(0), 3 * PAGE_SIZE_2M), false);
        m.mmap("b", VaRange::from_len(VirtAddr(64 * PAGE_SIZE_2M), PAGE_SIZE_2M / 2), false);
        m
    }

    #[test]
    fn chunks_cover_vmas() {
        let m = machine();
        let chunks = vma_chunks(&m);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), PAGE_SIZE_2M);
        assert_eq!(chunks[3].len(), PAGE_SIZE_2M / 2, "partial tail chunk");
    }

    #[test]
    fn step_up_prefers_same_socket() {
        let m = machine();
        // PM0 (component 2, home 0) steps up to DRAM0 (component 0).
        assert_eq!(one_step_up(&m, 2, 0), Some(0));
        // PM1 (component 3, home 1) steps up to DRAM1 even from node 0.
        assert_eq!(one_step_up(&m, 3, 0), Some(1));
        // Remote DRAM steps to local DRAM.
        assert_eq!(one_step_up(&m, 1, 0), Some(0));
        // Fastest tier has no up.
        assert_eq!(one_step_up(&m, 0, 0), None);
    }

    #[test]
    fn step_down_prefers_same_socket() {
        let m = machine();
        assert_eq!(one_step_down(&m, 0, 0), Some(2), "DRAM0 demotes to PM0");
        assert_eq!(one_step_down(&m, 1, 0), Some(3), "DRAM1 demotes to PM1");
        assert_eq!(one_step_down(&m, 2, 0), Some(3), "PM0 demotes to the last rank");
        assert_eq!(one_step_down(&m, 3, 0), None, "bottom tier has no down");
    }
}
