//! The "fast promotion, slow demotion" migration policy (Sec. 6).
//!
//! Using the global view the profiler builds over *all* regions in *all*
//! tiers, the policy promotes the hottest regions directly to the fastest
//! tier — no tier-by-tier stepping — up to a fixed byte budget per
//! interval. Sec. 6.1 promotes from the highest buckets of a histogram
//! over the regions' EMA hotness (`WHI`) and demotes from the lowest; the
//! policy instead sorts every region by `(WHI, region index)` once per
//! interval. That order refines any bucketing of the WHI range: buckets
//! rise with WHI, so reading the list forwards visits the buckets
//! coldest-first, and reading it backwards, one run of equal WHI at a
//! time, visits them hottest-first. When the destination lacks space,
//! the coldest regions resident there are demoted one tier down (to the
//! next lower tier with capacity), and never past a region hotter than
//! the newcomer. The destination tier is chosen from the view of the node
//! that accesses the region most (multi-view, Sec. 6.2). Regions larger
//! than the budget are split at the budget boundary and promoted a slice
//! at a time, which also keeps regions aligned with their residency.

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M};
use tiersim::machine::Machine;
use tiersim::tier::{ComponentId, NodeId};

use crate::admission::{AdmissionPolicy, Candidate, MigrationKind, Verdict};
use crate::config::MtmConfig;
use crate::migration::MigrationEngine;
use crate::profiler::AdaptiveProfiler;
use crate::region::Region;
use crate::residency::majority_component;

/// Per-interval policy outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct PolicyStats {
    /// Regions selected for promotion this interval.
    pub promoted: u64,
    /// Bytes selected for promotion this interval.
    pub promoted_bytes: u64,
    /// Regions demoted to make space.
    pub demoted: u64,
    /// Bytes demoted.
    pub demoted_bytes: u64,
}

/// A snapshot of one region's policy-relevant state.
#[derive(Clone, Copy, Debug)]
struct Snapshot {
    range: VaRange,
    whi: f64,
    node: NodeId,
}

/// The policy's per-interval work buffers, kept across intervals so an
/// interval allocates nothing in steady state. None carries state from
/// one interval to the next.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    /// Every region as the interval began, by region index (the policy's
    /// own splits do not move these).
    snaps: Vec<Snapshot>,
    /// `(WHI, region index)` of every snapshot, ascending: the hotness
    /// order over `snaps`.
    order: Vec<(f64, usize)>,
}

impl PolicyScratch {
    /// Snapshots `regions` and sorts them by `(WHI, index)`, reusing the
    /// buffers.
    pub fn rank(&mut self, regions: &[Region]) {
        self.snaps.clear();
        self.snaps.extend(regions.iter().map(|r| Snapshot {
            range: r.range,
            whi: r.whi,
            node: r.home_node,
        }));
        self.order.clear();
        self.order.extend(regions.iter().enumerate().map(|(i, r)| (r.whi, i)));
        self.order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("whi is finite").then(a.1.cmp(&b.1))
        });
    }

    /// Indices of the ranked regions hottest first: WHI descending, equal
    /// WHI in index order.
    pub fn hottest(&self) -> impl Iterator<Item = usize> + '_ {
        let mut end = self.order.len();
        std::iter::from_fn(move || {
            let &(whi, _) = self.order[..end].last()?;
            let start = self.order[..end].iter().rposition(|e| e.0 != whi).map_or(0, |i| i + 1);
            let run = &self.order[start..end];
            end = start;
            Some(run)
        })
        .flatten()
        .map(|e| e.1)
    }

    /// Indices of the ranked regions coldest first: WHI ascending, equal
    /// WHI in index order.
    pub fn coldest(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().map(|e| e.1)
    }
}

/// The home-node confidence `cand`'s region had when the interval began.
/// Only the candidate's own slicing can have split it since, and a split
/// copies votes and home, so the region now covering its start still
/// gives the same value.
fn node_confidence(profiler: &AdaptiveProfiler, cand: &Snapshot) -> f64 {
    let list = profiler.region_list();
    let i = list.covering_index(cand.range.start).expect("a snapshot's region stays covered");
    list.regions()[i].home_confidence()
}

/// Effective free bytes on a component, accounting for space already
/// claimed by in-flight asynchronous migrations (incoming) and space they
/// will release (outgoing; the queue commits in order, so a demotion
/// queued first frees its space before the promotion behind it commits).
fn effective_free(m: &Machine, engine: &MigrationEngine, c: ComponentId) -> u64 {
    (m.allocator(c).free() + engine.outgoing_bytes(c)).saturating_sub(engine.reserved_bytes(c))
}

/// Books an admission veto: counters and ring event move together so the
/// sanitizer's counter/event pairing holds.
fn note_rejected(m: &mut Machine, bytes: u64, dst: ComponentId, reason: &'static str) {
    m.obs_mut().reg.counter_add(obs::names::ADMIT_REJECTED, 1);
    m.obs_mut().reg.counter_add(obs::names::ADMIT_REJECTED_BYTES, bytes);
    m.record_event(obs::EventKind::AdmissionRejected { bytes, dst, reason });
}

/// Demotes coldest-first regions resident on `target` until it has `need`
/// effective free bytes, moving each to the next lower tier (from `node`'s
/// view) with capacity. Never demotes a region at least as hot as the
/// newcomer. Returns whether the space was freed.
fn make_space(
    m: &mut Machine,
    engine: &mut MigrationEngine,
    admission: &mut dyn AdmissionPolicy,
    scratch: &PolicyScratch,
    target: ComponentId,
    node: NodeId,
    need: u64,
    incoming_whi: f64,
    hysteresis: f64,
    demote_budget: &mut u64,
    stats: &mut PolicyStats,
) -> bool {
    // Only a demotion changes the target's effective free space.
    let mut target_free = effective_free(m, engine, target);
    if target_free >= need {
        return true;
    }
    let target_rank = m.topology().tier_rank(node, target);
    let ranks = m.topology().view(node).len();
    for victim in scratch.coldest().map(|i| &scratch.snaps[i]) {
        if target_free >= need {
            return true;
        }
        // Hysteresis: only demote victims clearly colder than the
        // newcomer, so sampling noise between equally-warm regions does
        // not turn into permanent swap churn.
        if *demote_budget == 0 || victim.whi >= incoming_whi - hysteresis {
            return false;
        }
        if victim.range.len() > *demote_budget {
            continue; // Slow demotion: stay within the per-interval budget.
        }
        if engine.is_pending(victim.range) || engine.recently_migrated(victim.range) {
            continue;
        }
        if majority_component(m, victim.range) != Some(target) {
            continue;
        }
        // Slow demotion: one tier down, to the next lower tier with
        // enough capacity — never straight to the bottom. Demotions use
        // the same adaptive mechanism as promotions: cold pages are
        // rarely written in flight, so the copy stays off the critical
        // path.
        for rank in (target_rank + 1)..ranks {
            let down = m.topology().component_at_rank(node, rank);
            if effective_free(m, engine, down) >= victim.range.len() {
                let verdict = admission.admit(
                    m,
                    &Candidate {
                        range: victim.range,
                        src: target,
                        dst: down,
                        node,
                        kind: MigrationKind::Demotion,
                        whi: victim.whi,
                        victim_whi: None,
                    },
                );
                if let Verdict::Reject(reason) = verdict {
                    note_rejected(m, victim.range.len(), down, reason);
                    break; // Victim vetoed: leave it resident, try the next.
                }
                engine.migrate(m, victim.range, down);
                target_free = effective_free(m, engine, target);
                stats.demoted += 1;
                stats.demoted_bytes += victim.range.len();
                m.obs_mut().reg.counter_add(obs::names::DEMOTIONS, 1);
                m.obs_mut().reg.counter_add(obs::names::DEMOTED_BYTES, victim.range.len());
                m.record_event(obs::EventKind::Demotion {
                    bytes: victim.range.len(),
                    src: target,
                    dst: down,
                });
                *demote_budget = demote_budget.saturating_sub(victim.range.len());
                break;
            }
        }
    }
    target_free >= need
}

/// Runs one interval of the promotion/demotion policy. Every candidate
/// batch passes through `admission` before it reaches the engine; a
/// rejected batch is skipped without charging the migration budget.
/// `scratch` only lends its buffers.
pub fn promote_and_demote(
    m: &mut Machine,
    profiler: &mut AdaptiveProfiler,
    engine: &mut MigrationEngine,
    admission: &mut dyn AdmissionPolicy,
    cfg: &MtmConfig,
    scratch: &mut PolicyScratch,
) -> PolicyStats {
    let mut stats = PolicyStats::default();
    let regions = profiler.regions();
    if regions.is_empty() {
        return stats;
    }
    scratch.rank(regions);
    let scratch = &*scratch;
    let nodes = m.topology().nodes;
    let mut budget = cfg.promote_bytes;
    let mut demote_budget = cfg.promote_bytes * 2;
    // The promotion floor is relative to the observed hotness range so
    // sparse-density regimes (time compression) still promote; in the
    // saturated regime it equals 10% of num_scans as before.
    let max_whi = regions.iter().map(|r| r.whi).fold(0.0_f64, f64::max);
    // Eviction hysteresis: a quarter of the observed hotness range.
    let hysteresis = 0.25 * max_whi;

    for cand in scratch.hottest().map(|i| &scratch.snaps[i]) {
        if budget == 0 {
            break;
        }
        // Best effort: any region with observed activity may move into
        // *free* fast memory; only solidly hot regions (>= 0.5 max_whi,
        // gated at the make_space call) may evict residents. Entirely
        // dead regions end the hotness-ordered pass.
        if cand.whi <= 0.0 {
            break;
        }
        let node = cand.node.min(nodes - 1);
        if engine.is_pending(cand.range) {
            continue; // Already on its way; residency still shows the source.
        }
        let Some(cur) = majority_component(m, cand.range) else { continue };
        let cur_rank = m.topology().tier_rank(node, cur);
        if cur_rank == 0 {
            continue; // Already in the fastest tier from its users' view.
        }
        // Oversized regions are split at the budget boundary and promoted
        // a slice per interval.
        let mut mig_range = cand.range;
        if mig_range.len() > budget {
            let cut = VirtAddr(mig_range.start.0 + budget.max(PAGE_SIZE_2M));
            if profiler.split_region_for_migration(m, cut) {
                let idx = profiler
                    .region_list()
                    .covering_index(mig_range.start)
                    .expect("left slice exists");
                mig_range = profiler.regions()[idx].range;
            } else if mig_range.len() > 2 * cfg.promote_bytes {
                continue;
            }
        }
        // Fast promotion: the fastest tier first; fall toward the current
        // tier only if space truly cannot be made.
        let cur_kind = m.topology().components[cur as usize].kind;
        for dest_rank in 0..cur_rank {
            let dest = m.topology().component_at_rank(node, dest_rank);
            // A same-kind move (e.g. remote PM -> local PM) is a NUMA
            // locality optimization, not a tier promotion: it only pays
            // off for solidly hot regions whose accessing node is known
            // with confidence — otherwise attribution noise turns it into
            // endless lateral shuffling.
            if m.topology().components[dest as usize].kind == cur_kind
                && (node_confidence(profiler, cand) < 0.7 || cand.whi < 0.5 * max_whi)
            {
                continue;
            }
            // Filling free space is always fine; evicting residents is
            // reserved for solidly hot regions (top half of the observed
            // range) so warm-region sampling spikes do not cause churn.
            let may_evict = cand.whi >= 0.5 * max_whi;
            let free_enough = effective_free(m, engine, dest) >= mig_range.len();
            // Consult admission before any space is made: a veto must not
            // leave speculative demotions behind. When the move would
            // displace residents, the coldest region's hotness is the
            // eviction bar the candidate has to clear.
            let victim_whi =
                if free_enough { None } else { scratch.order.first().map(|&(whi, _)| whi) };
            let verdict = admission.admit(
                m,
                &Candidate {
                    range: mig_range,
                    src: cur,
                    dst: dest,
                    node,
                    kind: MigrationKind::Promotion,
                    whi: cand.whi,
                    victim_whi,
                },
            );
            if let Verdict::Reject(reason) = verdict {
                note_rejected(m, mig_range.len(), dest, reason);
                break; // Candidate vetoed outright: on to the next region.
            }
            let fits = free_enough
                || may_evict && make_space(
                    m,
                    engine,
                    admission,
                    scratch,
                    dest,
                    node,
                    mig_range.len(),
                    cand.whi,
                    hysteresis,
                    &mut demote_budget,
                    &mut stats,
                );
            if fits {
                engine.migrate(m, mig_range, dest);
                stats.promoted += 1;
                stats.promoted_bytes += mig_range.len();
                m.obs_mut().reg.counter_add(obs::names::PROMOTIONS, 1);
                m.obs_mut().reg.counter_add(obs::names::PROMOTED_BYTES, mig_range.len());
                m.record_event(obs::EventKind::Promotion {
                    bytes: mig_range.len(),
                    src: cur,
                    dst: dest,
                });
                budget = budget.saturating_sub(mig_range.len());
                break;
            }
        }
    }
    stats
}

/// Returns the placement order for a new page under MTM's initial
/// placement policy: local slow tier first (Table 4), falling back to
/// other slow tiers, then fast tiers.
pub fn slow_first_order(m: &Machine, node: NodeId) -> Vec<ComponentId> {
    let topo = m.topology();
    let view = topo.view(node);
    let mut slow: Vec<ComponentId> = Vec::new();
    let mut fast: Vec<ComponentId> = Vec::new();
    for &c in view {
        if topo.components[c as usize].kind == tiersim::tier::MemKind::Pm {
            slow.push(c);
        } else {
            fast.push(c);
        }
    }
    slow.into_iter().chain(fast).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::machine::MachineConfig;
    use tiersim::tier::tiny_two_tier;

    fn setup() -> (Machine, AdaptiveProfiler, MigrationEngine, MtmConfig) {
        let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 32 * PAGE_SIZE_2M);
        let mut mc = MachineConfig::new(topo, 1);
        mc.interval_ns = 1.0e6;
        let mut m = Machine::new(mc);
        let r = VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m.prefault_range(r, &[1]).unwrap(); // Everything starts slow.
        let mut cfg = MtmConfig::default();
        cfg.promote_bytes = 2 * PAGE_SIZE_2M;
        cfg.pebs_assist = false;
        let mut p = AdaptiveProfiler::new(cfg.clone(), 1);
        p.init(&mut m);
        let e = MigrationEngine::new(4, false); // Sync for determinism.
        (m, p, e, cfg)
    }

    fn set_whi(p: &mut AdaptiveProfiler, idx: usize, whi: f64) {
        p.regions_mut_for_test()[idx].whi = whi;
    }

    #[test]
    fn hottest_regions_promoted_to_fastest() {
        let (mut m, mut p, mut e, cfg) = setup();
        set_whi(&mut p, 3, 2.9);
        set_whi(&mut p, 5, 2.5);
        let stats = promote_and_demote(
            &mut m,
            &mut p,
            &mut e,
            &mut crate::admission::AlwaysAdmit,
            &cfg,
            &mut PolicyScratch::default(),
        );
        assert_eq!(stats.promoted, 2);
        assert_eq!(stats.promoted_bytes, 2 * PAGE_SIZE_2M);
        // Regions 3 and 5 now live on the fast component.
        assert_eq!(m.component_of(VirtAddr(3 * PAGE_SIZE_2M)), Some(0));
        assert_eq!(m.component_of(VirtAddr(5 * PAGE_SIZE_2M)), Some(0));
        // A cold region stayed slow.
        assert_eq!(m.component_of(VirtAddr(0)), Some(1));
    }

    #[test]
    fn promotion_respects_budget() {
        let (mut m, mut p, mut e, cfg) = setup();
        for i in 0..8 {
            set_whi(&mut p, i, 2.0 + i as f64 * 0.1);
        }
        let stats = promote_and_demote(
            &mut m,
            &mut p,
            &mut e,
            &mut crate::admission::AlwaysAdmit,
            &cfg,
            &mut PolicyScratch::default(),
        );
        assert_eq!(stats.promoted_bytes, cfg.promote_bytes);
    }

    #[test]
    fn cold_everything_promotes_nothing() {
        let (mut m, mut p, mut e, cfg) = setup();
        let stats = promote_and_demote(
            &mut m,
            &mut p,
            &mut e,
            &mut crate::admission::AlwaysAdmit,
            &cfg,
            &mut PolicyScratch::default(),
        );
        assert_eq!(stats.promoted, 0);
        assert_eq!(stats.demoted, 0);
    }

    #[test]
    fn oversized_region_is_split_and_sliced() {
        let (mut m, mut p, mut e, cfg) = setup();
        // Merge everything into one big region, then make it hot.
        for r in p.regions_mut_for_test() {
            r.evidence = 1;
        }
        let merged = {
            // Force-merge by setting all hotness equal and running a pass.
            for i in 0..p.regions().len() {
                set_whi(&mut p, i, 0.0);
            }
            p.merge_all_for_test();
            p.regions().len()
        };
        assert_eq!(merged, 1);
        set_whi(&mut p, 0, 2.9);
        let stats = promote_and_demote(
            &mut m,
            &mut p,
            &mut e,
            &mut crate::admission::AlwaysAdmit,
            &cfg,
            &mut PolicyScratch::default(),
        );
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.promoted_bytes, cfg.promote_bytes, "one budget-sized slice");
        assert!(p.regions().len() >= 2, "region split at the budget boundary");
        assert_eq!(m.component_of(VirtAddr(0)), Some(0));
        assert_eq!(m.component_of(VirtAddr(4 * PAGE_SIZE_2M)), Some(1));
    }

    #[test]
    fn full_fast_tier_triggers_demotion_of_colder_only() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 32 * PAGE_SIZE_2M);
        let mut mc = MachineConfig::new(topo, 1);
        mc.interval_ns = 1.0e6;
        let mut m = Machine::new(mc);
        let r = VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m.prefault_range(VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), &[0]).unwrap();
        m.prefault_range(VaRange::new(VirtAddr(2 * PAGE_SIZE_2M), r.end), &[1]).unwrap();
        let mut cfg = MtmConfig::default();
        cfg.promote_bytes = PAGE_SIZE_2M;
        cfg.pebs_assist = false;
        let mut p = AdaptiveProfiler::new(cfg.clone(), 1);
        p.init(&mut m);
        // Chunk 4 (slow) is hot; chunk 0 (fast) is cold, chunk 1 (fast) is
        // hotter than the candidate and must not be demoted.
        p.regions_mut_for_test()[4].whi = 2.5;
        p.regions_mut_for_test()[0].whi = 0.0;
        p.regions_mut_for_test()[1].whi = 2.9;
        let mut e = MigrationEngine::new(4, false);
        let stats = promote_and_demote(
            &mut m,
            &mut p,
            &mut e,
            &mut crate::admission::AlwaysAdmit,
            &cfg,
            &mut PolicyScratch::default(),
        );
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.demoted, 1);
        assert_eq!(m.component_of(VirtAddr(4 * PAGE_SIZE_2M)), Some(0), "hot promoted");
        assert_eq!(m.component_of(VirtAddr(PAGE_SIZE_2M)), Some(0), "hotter resident kept");
        assert_eq!(m.component_of(VirtAddr(0)), Some(1), "cold resident demoted");
    }

    fn ranked(whis: &[f64]) -> PolicyScratch {
        let regions: Vec<Region> = whis
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let range = VaRange::from_len(VirtAddr(i as u64 * PAGE_SIZE_2M), PAGE_SIZE_2M);
                let mut r = Region::new(range, 1);
                r.whi = w;
                r
            })
            .collect();
        let mut scratch = PolicyScratch::default();
        scratch.rank(&regions);
        scratch
    }

    #[test]
    fn hotness_order_is_global_with_ties_in_index_order() {
        let s = ranked(&[0.1, 2.8, 1.5, 2.9, 0.2]);
        assert_eq!(s.hottest().collect::<Vec<_>>(), vec![3, 1, 2, 4, 0]);
        assert_eq!(s.coldest().collect::<Vec<_>>(), vec![0, 4, 2, 1, 3]);
        let s = ranked(&[1.0, 2.0, 1.0, 0.0, 2.0, 1.0]);
        assert_eq!(s.hottest().collect::<Vec<_>>(), vec![1, 4, 0, 2, 5, 3]);
        assert_eq!(s.coldest().collect::<Vec<_>>(), vec![3, 0, 2, 5, 1, 4]);
        assert!(ranked(&[]).hottest().next().is_none());
    }

    #[test]
    fn hotness_order_matches_a_reference_sort() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        // Four WHI values over up to 64 regions, so ties are common.
        const WHIS: [f64; 4] = [0.0, 0.5, 1.5, 3.0];
        prop_check!(
            "hotness_order_matches_a_reference_sort",
            128,
            gen::vec_in(gen::usize_range(0, WHIS.len()), 0, 65),
            |picks| {
                let whis: Vec<f64> = picks.iter().map(|&k| WHIS[k]).collect();
                let s = ranked(&whis);
                let mut hot: Vec<usize> = (0..whis.len()).collect();
                hot.sort_by(|&a, &b| whis[b].partial_cmp(&whis[a]).unwrap().then(a.cmp(&b)));
                let mut cold: Vec<usize> = (0..whis.len()).collect();
                cold.sort_by(|&a, &b| whis[a].partial_cmp(&whis[b]).unwrap().then(a.cmp(&b)));
                prop_assert_eq!(s.hottest().collect::<Vec<_>>(), hot);
                prop_assert_eq!(s.coldest().collect::<Vec<_>>(), cold);
            }
        );
    }

    #[test]
    fn slow_first_order_places_pm_before_dram() {
        let (m, _p, _e, _cfg) = setup();
        let order = slow_first_order(&m, 0);
        assert_eq!(order, vec![1, 0], "PM first, DRAM as fallback");
    }
}
