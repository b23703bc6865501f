//! The adaptive memory profiler (Sec. 5).
//!
//! Each profiling interval the profiler scans a *planned* set of sampled
//! pages `num_scans` times (once per sub-interval), so a sample's count in
//! `[0, num_scans]` approximates its access frequency instead of a binary
//! accessed bit. At interval end it aggregates counts into per-region
//! hotness, merges/splits regions, enforces the profiling-overhead
//! constraint of Eq. 1 by rebalancing sample quotas (freed quota goes to
//! the top-variance regions), and plans the next interval's samples. On
//! the slowest tier, PEBS samples gate which regions are scanned at all
//! (Sec. 5.5). Every twelfth scanned page is additionally hint-poisoned so
//! faults attribute accesses to a CPU node (multi-view, Sec. 6.2).

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_4K};
use tiersim::frame::FrameSize;
use tiersim::machine::Machine;
use tiersim::page_table::PageTable;
use tiersim::rng::SplitMix64;

use crate::config::MtmConfig;
use crate::region::{Region, RegionList};
use crate::residency::majority_component;

/// One planned page sample.
#[derive(Clone, Copy, Debug)]
struct PlannedSample {
    page: VirtAddr,
    count: u32,
}

/// One region's sample counts over an interval (`n == 0`: no sample).
#[derive(Clone, Copy)]
struct Agg {
    sum: u64,
    n: u32,
    min: u32,
    max: u32,
}

impl Agg {
    const EMPTY: Agg = Agg { sum: 0, n: 0, min: u32::MAX, max: 0 };
}

/// Per-interval profiler statistics (feeding Tables 3, 5, 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfilerStats {
    /// Profiling intervals completed.
    pub intervals: u64,
    /// Cumulative regions merged.
    pub merged: u64,
    /// Cumulative regions split.
    pub split: u64,
    /// Sum over intervals of the live region count (for averaging).
    pub region_count_sum: u64,
    /// Sum over intervals of bytes classified hot (for averaging).
    pub hot_bytes_sum: u64,
    /// Total planned page samples over the run.
    pub samples_planned: u64,
    /// The most recent Eq. 1 sample budget.
    pub last_num_ps: u64,
}

/// The adaptive profiler.
pub struct AdaptiveProfiler {
    cfg: MtmConfig,
    regions: RegionList,
    plan: Vec<PlannedSample>,
    tau_m_now: f64,
    scan_tick: u64,
    rng: SplitMix64,
    stats: ProfilerStats,
    /// Per-interval work buffers, kept so the interval hook allocates
    /// nothing in steady state. None carries state between intervals.
    scratch: Scratch,
}

/// The profiler's reusable work buffers.
#[derive(Default)]
struct Scratch {
    /// One region's picked pages (`pick_pages`).
    picked: Vec<VirtAddr>,
    /// Per-region sample counts (`aggregate_counts`).
    agg: Vec<Agg>,
    /// Per-region "measured by scans this interval" (`aggregate_counts`).
    observed: Vec<bool>,
    /// Region indices in quota-trim order (`rebalance_quotas`).
    order: Vec<usize>,
}

impl AdaptiveProfiler {
    /// Creates a profiler for a machine with `nodes` CPU nodes.
    pub fn new(cfg: MtmConfig, nodes: usize) -> AdaptiveProfiler {
        let tau_m = cfg.tau_m;
        let seed = cfg.seed;
        AdaptiveProfiler {
            cfg,
            regions: RegionList::new(nodes),
            plan: Vec::new(),
            tau_m_now: tau_m,
            scan_tick: 0,
            rng: SplitMix64::new(seed),
            stats: ProfilerStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// The profiler's regions.
    pub fn regions(&self) -> &[Region] {
        self.regions.regions()
    }

    /// The underlying region list (for policy modules).
    pub fn region_list(&self) -> &RegionList {
        &self.regions
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProfilerStats {
        self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &MtmConfig {
        &self.cfg
    }

    /// Currently escalated merge threshold (Sec. 5.3).
    pub fn tau_m_now(&self) -> f64 {
        self.tau_m_now
    }

    /// Test/harness access to mutate region state directly.
    #[doc(hidden)]
    pub fn regions_mut_for_test(&mut self) -> &mut [Region] {
        self.regions.regions_mut()
    }

    /// Test helper: merges every adjacent pair regardless of hotness.
    #[doc(hidden)]
    pub fn merge_all_for_test(&mut self) {
        self.regions.merge_pass(f64::INFINITY, self.cfg.num_scans, |_, _| true);
    }

    /// Splits the region covering `at` at that address (huge-page
    /// aligned), for migration-driven splitting by the policy (Sec. 5.2:
    /// smaller regions avoid unnecessary data movement).
    pub fn split_region_for_migration(&mut self, m: &Machine, at: VirtAddr) -> bool {
        let mut mid = at.page_4k();
        if matches!(m.page_table().translate(mid), Some(t) if t.size == FrameSize::Huge2M) {
            mid = mid.page_2m();
        }
        let Some(idx) = self.regions.covering_index(mid) else { return false };
        self.regions.split_at(idx, mid)
    }

    /// Bootstraps regions from the page table (call once VMAs exist) and
    /// plans the first interval's samples.
    pub fn init(&mut self, m: &mut Machine) {
        self.regions.sync_valid_pdes(m.page_table());
        self.seed_initial_quotas();
        self.rebalance_quotas(self.num_ps(m));
        self.plan_next(m);
    }

    fn seed_initial_quotas(&mut self) {
        for r in self.regions.regions_mut() {
            r.quota = 1;
        }
    }

    /// Priming pass: clears the accessed bit of every planned sample a
    /// short window before the counted scan, so the counted scan answers
    /// "accessed within the last window" instead of "accessed since the
    /// distant past". This bounds the staleness of the accessed-bit signal
    /// the same way DAMON's check-then-reset sampling does, and is what
    /// lets a multi-scan count in `[0, num_scans]` resolve hotness instead
    /// of saturating (see DESIGN.md on time compression).
    pub fn prime_pass(&mut self, m: &mut Machine) {
        for s in &self.plan {
            // Priming only needs the clear; the accessed bit is not read.
            let _ = m.scan_page(s.page);
        }
    }

    /// Performs one counted scan pass over the planned samples (one of
    /// the `num_scans` checks per interval): in plan order, each slot's
    /// accessed bit is read and cleared in one page-table lookup, and the
    /// slot of every `hint_fault_every`-th scan (counted across passes)
    /// is hint-poisoned.
    ///
    /// Two plan slots can alias one mapping (samples land in the same
    /// huge page, or a region boundary repeats a page). The first scan of
    /// a mapping takes its accessed bit; later scans of it in the same
    /// pass read the bit already cleared, so an alias never counts twice.
    /// Poisoning leaves the accessed bit alone.
    pub fn scan_pass(&mut self, m: &mut Machine) {
        let every = self.cfg.hint_fault_every.max(1) as u64;
        // The next multiple of `every` the scan tick reaches.
        let mut poison_at = (self.scan_tick / every + 1) * every;
        for s in &mut self.plan {
            if let Some((true, _)) = m.scan_page(s.page) {
                s.count += 1;
            }
            self.scan_tick += 1;
            if self.scan_tick == poison_at {
                m.poison_page(s.page);
                poison_at += every;
            }
        }
    }

    /// Eq. 1: the total page-sample budget for one interval.
    pub fn num_ps(&self, m: &Machine) -> u64 {
        // The amortized hint-fault cost is folded into the per-scan cost:
        // one fault (12x a scan) every `hint_fault_every` scans.
        let costs = &m.cfg.costs;
        // Each counted check costs two PTE scans (priming clear + read).
        let eff_scan = 2.0 * costs.one_scan_ns
            + costs.hint_fault_ns() / self.cfg.hint_fault_every.max(1) as f64;
        let budget = m.cfg.interval_ns * self.cfg.overhead_target;
        ((budget / (eff_scan * self.cfg.num_scans as f64)) as u64).max(1)
    }

    /// Serializes the profiler's dynamic state (checkpoint support). No
    /// configuration is saved: it comes from the [`MtmConfig`] the
    /// profiler is rebuilt with.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        self.regions.save(w);
        w.varint(self.plan.len() as u64);
        for p in &self.plan {
            w.u64(p.page.0);
            w.varint(p.count as u64);
        }
        w.f64(self.tau_m_now);
        w.varint(self.scan_tick);
        w.u64(self.rng.state());
        let s = &self.stats;
        for v in [
            s.intervals,
            s.merged,
            s.split,
            s.region_count_sum,
            s.hot_bytes_sum,
            s.samples_planned,
            s.last_num_ps,
        ] {
            w.varint(v);
        }
    }

    /// Restores the dynamic state saved with [`AdaptiveProfiler::save`]
    /// into a profiler freshly built from the same configuration.
    pub fn load(&mut self, r: &mut obs::wire::Reader) -> Result<(), String> {
        self.regions = RegionList::load(r)?;
        let count = r.varint()? as usize;
        let mut plan = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let page = VirtAddr(r.u64()?);
            let count = r.varint()? as u32;
            plan.push(PlannedSample { page, count });
        }
        self.plan = plan;
        self.tau_m_now = r.f64()?;
        self.scan_tick = r.varint()?;
        self.rng = SplitMix64::from_state(r.u64()?);
        self.stats = ProfilerStats {
            intervals: r.varint()?,
            merged: r.varint()?,
            split: r.varint()?,
            region_count_sum: r.varint()?,
            hot_bytes_sum: r.varint()?,
            samples_planned: r.varint()?,
            last_num_ps: r.varint()?,
        };
        Ok(())
    }

    /// Finishes the interval: aggregates counts, reforms regions, enforces
    /// the overhead constraint, and plans the next interval.
    pub fn finish_interval(&mut self, m: &mut Machine) {
        self.stats.intervals += 1;
        self.attribute_hint_faults(m);
        self.mark_pebs_activity(m);
        self.aggregate_counts();
        self.classify_inactive_slowest(m);
        let zoom_splits = self.zoom_on_counter_hits();
        if zoom_splits > 0 {
            m.obs_mut().reg.counter_add(obs::names::PEBS_ZOOM_SPLITS, zoom_splits);
            m.record_event(obs::EventKind::PebsZoomSplit { splits: zoom_splits });
        }
        let num_ps = self.num_ps(m);
        self.stats.last_num_ps = num_ps;
        let formation_before = self.regions.stats();
        if self.cfg.adaptive_regions {
            let num_scans = self.cfg.num_scans;
            // Never merge regions living on different memory *kinds*
            // (DRAM vs PM): that would break the region <-> residency
            // alignment the policy relies on (a half-promoted area would
            // be re-selected). Same-kind components (e.g. the two PMs
            // under interleaved placement) may merge freely — migration
            // moves pages from any source.
            let topo = m.topology();
            let kind_of = |range: VaRange| {
                majority_component(m, range).map(|c| topo.components[c as usize].kind)
            };
            // A pair that does not merge hands its right region on as the
            // next pair's left, so the right region's kind is remembered;
            // only a region grown by a merge is probed again.
            let mut last = None;
            let freed = self.regions.merge_pass(self.tau_m_now, num_scans, |a, b| {
                let ka = match last {
                    Some((range, kind)) if range == a.range => kind,
                    _ => kind_of(a.range),
                };
                let kb = kind_of(b.range);
                last = Some((b.range, kb));
                ka == kb
            });
            let merged = self.regions.stats().merged - formation_before.merged;
            if merged > 0 {
                m.obs_mut().reg.counter_add(obs::names::REGIONS_MERGED, merged);
                m.record_event(obs::EventKind::RegionMerge { merged, freed_quota: freed });
            }
            if freed > 0 {
                m.obs_mut().reg.counter_add(obs::names::QUOTA_REDISTRIBUTIONS, 1);
                m.record_event(obs::EventKind::QuotaRedistributed { freed });
            }
            self.redistribute(freed);
            let pt = m.page_table();
            let tau_s = self.cfg.tau_s;
            self.regions.split_pass(tau_s, num_scans, |va| {
                matches!(pt.translate(va), Some(t) if t.size == FrameSize::Huge2M)
            });
            let split = self.regions.stats().split - formation_before.split;
            if split > 0 {
                m.obs_mut().reg.counter_add(obs::names::REGIONS_SPLIT, split);
                m.record_event(obs::EventKind::RegionSplit { split });
            }
        }
        self.regions.sync_valid_pdes(m.page_table());
        // Escalate tau_m while the region count exceeds the budget.
        if self.cfg.overhead_control && self.cfg.adaptive_regions {
            if self.regions.len() as u64 > num_ps {
                let step = (self.cfg.num_scans as f64 / 6.0).max(0.25);
                self.tau_m_now = (self.tau_m_now + step).min(self.cfg.num_scans as f64);
                m.obs_mut().reg.counter_add(obs::names::TAU_M_ESCALATIONS, 1);
                m.record_event(obs::EventKind::TauMEscalated {
                    tau_m: self.tau_m_now,
                    regions: self.regions.len() as u64,
                    budget: num_ps,
                });
            } else {
                self.tau_m_now = self.cfg.tau_m;
            }
        }
        self.rebalance_quotas(num_ps);
        self.plan_next(m);
        m.obs_mut().reg.gauge_set(obs::names::TAU_M_NOW, self.tau_m_now);
        m.obs_mut().reg.gauge_set(obs::names::REGION_COUNT, self.regions.len() as f64);
        m.obs_mut().reg.gauge_set(obs::names::LAST_NUM_PS, num_ps as f64);
        // Bookkeeping for Tables 3/7.
        let fs = self.regions.stats();
        self.stats.merged = fs.merged;
        self.stats.split = fs.split;
        self.stats.region_count_sum += self.regions.len() as u64;
        self.stats.hot_bytes_sum += self.hot_bytes();
    }

    fn attribute_hint_faults(&mut self, m: &mut Machine) {
        for fault in m.drain_hint_faults() {
            if let Some(i) = self.regions.covering_index(fault.page) {
                let votes = &mut self.regions.regions_mut()[i].node_votes;
                let n = fault.node as usize;
                if n < votes.len() {
                    votes[n] += 1;
                }
            }
        }
        for r in self.regions.regions_mut() {
            r.refresh_home();
        }
    }

    fn mark_pebs_activity(&mut self, m: &mut Machine) {
        let samples = m.drain_pebs();
        if !self.cfg.pebs_assist {
            return;
        }
        // Counters run for the first 10 % of the interval (Sec. 5.5).
        let window = 0.1 * m.cfg.interval_ns;
        for s in samples {
            if s.t_ns > window {
                continue;
            }
            if let Some(i) = self.regions.covering_index(s.va) {
                let r = &mut self.regions.regions_mut()[i];
                r.pebs_active = true;
                r.pebs_page = Some(s.va.page_4k());
            }
        }
    }

    /// Event-driven zooming (Sec. 5.5: "once a region is accessed, it is
    /// immediately subject to high-quality profiling"): a counter sample
    /// landing in a large, not-yet-hot region isolates the sampled 2 MB
    /// chunk as its own region so its hotness is measured undiluted —
    /// this is how sparse hot structures (a visited bitmap inside
    /// gigabytes of cold graph data) are found quickly.
    fn zoom_on_counter_hits(&mut self) -> u64 {
        if !self.cfg.pebs_assist || !self.cfg.adaptive_regions {
            return 0;
        }
        let hot_threshold = 0.5 * self.cfg.num_scans as f64;
        let mut splits = 0;
        let candidates: Vec<VirtAddr> = self
            .regions
            .regions()
            .iter()
            .filter(|r| {
                r.pebs_active && r.len() > 2 * tiersim::addr::PAGE_SIZE_2M && r.whi < hot_threshold
            })
            .filter_map(|r| r.pebs_page)
            .collect();
        for page in candidates {
            if splits >= 32 {
                break;
            }
            if self.regions.isolate_chunk(page) {
                splits += 1;
            }
        }
        splits
    }

    /// Event-driven cold classification (Sec. 5.5): a slowest-tier region
    /// the counters saw no access to during the whole interval is cold.
    fn classify_inactive_slowest(&mut self, m: &Machine) {
        if !self.cfg.pebs_assist {
            return;
        }
        let topo = m.topology();
        let observed = &self.scratch.observed;
        let alpha = self.cfg.alpha;
        for i in 0..self.regions.len() {
            let (range, node, active) = {
                let r = &self.regions.regions()[i];
                (r.range, r.home_node, r.pebs_active)
            };
            // A region the scans actually measured this interval keeps
            // that observation; counter silence only classifies regions
            // we have no better evidence about.
            if active || observed.get(i).copied().unwrap_or(false) {
                continue;
            }
            let node = node.min(topo.nodes - 1);
            let is_slowest = majority_component(m, range)
                .map(|c| topo.tier_rank(node, c) == topo.num_components() - 1)
                .unwrap_or(false);
            if is_slowest {
                let r = &mut self.regions.regions_mut()[i];
                r.observe(0.0, alpha);
                r.spread = 0.0;
                r.evidence = r.evidence.saturating_add(1);
            }
        }
    }

    /// Aggregates the interval's sample counts into per-region hotness,
    /// noting in `scratch.observed` which regions the scans measured.
    fn aggregate_counts(&mut self) {
        // Group planned samples by covering region.
        let n = self.regions.len();
        let agg = &mut self.scratch.agg;
        agg.clear();
        agg.resize(n, Agg::EMPTY);
        for s in &self.plan {
            let Some(i) = self.regions.covering_index(s.page) else { continue };
            let e = &mut agg[i];
            e.sum += s.count as u64;
            e.n += 1;
            e.min = e.min.min(s.count);
            e.max = e.max.max(s.count);
        }
        let alpha = self.cfg.alpha;
        let observed = &mut self.scratch.observed;
        observed.clear();
        observed.resize(n, false);
        for (i, a) in agg.iter().enumerate() {
            if a.n > 0 {
                let hi = a.sum as f64 / a.n as f64;
                let r = &mut self.regions.regions_mut()[i];
                r.observe(hi, alpha);
                r.spread = (a.max - a.min) as f64;
                r.sample_max = a.max as f64;
                r.evidence = r.evidence.saturating_add(1);
                observed[i] = true;
            }
        }
        self.plan.clear();
    }

    fn redistribute(&mut self, freed: u64) {
        if freed == 0 || self.regions.is_empty() {
            return;
        }
        if self.cfg.adaptive_sampling {
            // Give the freed quota to the regions with the largest hotness
            // variance over the last two intervals (top five, Sec. 5.2).
            let slots = self.cfg.top_variance_slots.max(1);
            // The first `slots` regions by variance, descending, ties in
            // address order: the prefix a stable sort would give.
            let regions = self.regions.regions();
            let top = &mut self.scratch.order;
            top.clear();
            for (i, r) in regions.iter().enumerate() {
                let at_least = |t: &usize| {
                    let v = regions[*t].variance;
                    v.partial_cmp(&r.variance).expect("variance is finite").is_ge()
                };
                // A full list whose last entry is at least as high keeps
                // this region out (ties keep the earlier region).
                if top.len() == slots && top.last().is_some_and(at_least) {
                    continue;
                }
                let at = top.partition_point(at_least);
                top.insert(at, i);
                top.truncate(slots);
            }
            let share = (freed / top.len() as u64).max(1);
            let mut left = freed;
            for &i in top.iter() {
                let take = share.min(left);
                self.regions.regions_mut()[i].quota += take as u32;
                left -= take;
                if left == 0 {
                    break;
                }
            }
        } else {
            // Ablation: spread freed quota uniformly at random.
            let n = self.regions.len() as u64;
            for _ in 0..freed {
                let i = self.rng.below(n) as usize;
                self.regions.regions_mut()[i].quota += 1;
            }
        }
    }

    /// Rebalances quotas so the total equals the Eq. 1 budget (when
    /// overhead control is on) while every region keeps at least one.
    fn rebalance_quotas(&mut self, num_ps: u64) {
        let n = self.regions.len() as u64;
        if n == 0 {
            return;
        }
        if !self.cfg.overhead_control {
            // Ablation "w/o OC": every region keeps at least one sample and
            // nothing is trimmed, so the scan count tracks the region count
            // instead of the Eq. 1 budget.
            return;
        }
        let target = num_ps.max(n);
        let total = self.regions.total_quota();
        if total > target {
            // Trim from the lowest-variance regions first (ties in address
            // order, as a stable sort gives). Only regions above the
            // one-sample floor can give any.
            let regions = self.regions.regions();
            let idx = &mut self.scratch.order;
            idx.clear();
            idx.extend((0..regions.len()).filter(|&i| regions[i].quota > 1));
            idx.sort_unstable_by(|&a, &b| {
                let ord = regions[a].variance.partial_cmp(&regions[b].variance);
                ord.expect("variance is finite").then(a.cmp(&b))
            });
            let mut excess = total - target;
            for &i in idx.iter() {
                if excess == 0 {
                    break;
                }
                let q = self.regions.regions()[i].quota;
                let take = (q as u64 - 1).min(excess);
                self.regions.regions_mut()[i].quota = q - take as u32;
                excess -= take;
            }
        } else if total < target {
            self.redistribute(target - total);
        }
    }

    /// Chooses the sampled pages for the next interval.
    fn plan_next(&mut self, m: &Machine) {
        let topo = m.topology();
        let pt = m.page_table();
        let pebs_assist = self.cfg.pebs_assist;
        let picked = &mut self.scratch.picked;
        self.plan.clear();
        for i in 0..self.regions.len() {
            let (range, quota, node, active, pebs_page) = {
                let r = &self.regions.regions()[i];
                (r.range, r.quota, r.home_node, r.pebs_active, r.pebs_page)
            };
            // Without counter gating the tier does not matter.
            let is_slowest = pebs_assist
                && majority_component(m, range).is_some_and(|c| {
                    topo.tier_rank(node.min(topo.nodes - 1), c) == topo.num_components() - 1
                });
            if is_slowest {
                // Counter-gated: regions the counters saw accesses in are
                // "subject to high-quality profiling" (Sec. 5.5) — the
                // captured page plus the region's quota of samples; silent
                // regions are not scanned at all.
                if active {
                    // Normalize the captured address to its mapping base
                    // so a huge PTE is scanned once, not twice.
                    let captured = pebs_page.map(|p| match pt.translate(p) {
                        Some(t) if t.size == FrameSize::Huge2M => p.page_2m(),
                        _ => p.page_4k(),
                    });
                    if let Some(page) = captured {
                        self.plan.push(PlannedSample { page, count: 0 });
                    }
                    pick_pages(&mut self.rng, pt, range, quota, picked);
                    for &page in picked.iter() {
                        if Some(page) != captured {
                            self.plan.push(PlannedSample { page, count: 0 });
                        }
                    }
                }
            } else {
                pick_pages(&mut self.rng, pt, range, quota, picked);
                self.plan.extend(picked.iter().map(|&page| PlannedSample { page, count: 0 }));
            }
            let r = &mut self.regions.regions_mut()[i];
            r.pebs_active = false;
        }
        self.stats.samples_planned += self.plan.len() as u64;
    }

    /// Bytes covered by regions currently classified hot (EMA at or above
    /// half the maximum hotness).
    pub fn hot_bytes(&self) -> u64 {
        let threshold = self.cfg.num_scans as f64 / 2.0;
        self.regions
            .regions()
            .iter()
            .filter(|r| r.whi >= threshold)
            .map(|r| r.len())
            .sum()
    }

    /// Ranges currently classified at least `threshold` hot (for recall /
    /// accuracy studies, Fig. 1).
    pub fn hot_ranges_above(&self, threshold: f64) -> Vec<VaRange> {
        self.regions
            .regions()
            .iter()
            .filter(|r| r.whi >= threshold)
            .map(|r| r.range)
            .collect()
    }


    /// Metadata footprint estimate in bytes (Table 5): region records plus
    /// the sample plan and histogram bookkeeping.
    pub fn metadata_bytes(&self) -> u64 {
        const REGION_RECORD: u64 = 144;
        const PLAN_RECORD: u64 = 24;
        self.regions.len() as u64 * REGION_RECORD + self.plan.len() as u64 * PLAN_RECORD
    }
}

/// Picks up to `quota` distinct mapped page bases within `range` into
/// `out` by random probing; a probe landing in a huge mapping samples the
/// huge page itself (Sec. 5.4).
fn pick_pages(
    rng: &mut SplitMix64,
    pt: &PageTable,
    range: VaRange,
    quota: u32,
    out: &mut Vec<VirtAddr>,
) {
    out.clear();
    let pages_in_range = range.len() / PAGE_SIZE_4K;
    if pages_in_range == 0 || quota == 0 {
        return;
    }
    let want = quota.min(pages_in_range as u32) as usize;
    let mut attempts = 0;
    while out.len() < want && attempts < want * 4 {
        attempts += 1;
        let off = rng.below(pages_in_range) * PAGE_SIZE_4K;
        let va = VirtAddr(range.start.0 + off);
        let page = match pt.translate(va) {
            Some(t) if t.size == FrameSize::Huge2M => va.page_2m(),
            Some(_) => va.page_4k(),
            None => continue,
        };
        if !out.contains(&page) {
            out.push(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{AccessKind, MachineConfig};
    use tiersim::tier::tiny_two_tier;

    fn machine_with_mapping(chunks: u64) -> Machine {
        let topo = tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 1);
        cfg.interval_ns = 1.0e6;
        let mut m = Machine::new(cfg);
        let range = VaRange::from_len(VirtAddr(0), chunks * PAGE_SIZE_2M);
        m.mmap("a", range, false);
        m.prefault_range(range, &[0]).unwrap();
        m
    }

    fn profiler(m: &mut Machine) -> AdaptiveProfiler {
        let mut cfg = MtmConfig::default();
        cfg.pebs_assist = false;
        let mut p = AdaptiveProfiler::new(cfg, 1);
        p.init(m);
        p
    }

    #[test]
    fn init_forms_one_region_per_chunk() {
        let mut m = machine_with_mapping(8);
        let p = profiler(&mut m);
        assert_eq!(p.regions().len(), 8);
        assert!(p.regions().iter().all(|r| r.len() == PAGE_SIZE_2M));
    }

    #[test]
    fn hot_region_gains_hotness_over_intervals() {
        let mut m = machine_with_mapping(4);
        let mut p = profiler(&mut m);
        // Interval loop: touch chunk 0 heavily before every scan pass.
        for _ in 0..4 {
            for _k in 0..p.cfg.num_scans {
                for page in 0..512u64 {
                    m.access(0, VirtAddr(page * PAGE_SIZE_4K), AccessKind::Read);
                }
                p.scan_pass(&mut m);
            }
            p.finish_interval(&mut m);
        }
        let hot = p
            .regions()
            .iter()
            .find(|r| r.range.contains(VirtAddr(0)))
            .expect("region covering chunk 0");
        assert!(hot.whi > 1.0, "hot chunk whi = {}", hot.whi);
        // An untouched chunk stays cold.
        let cold = p
            .regions()
            .iter()
            .find(|r| r.range.contains(VirtAddr(3 * PAGE_SIZE_2M)))
            .expect("cold region");
        assert!(cold.whi < 0.5, "cold chunk whi = {}", cold.whi);
    }

    #[test]
    fn quota_total_tracks_eq1_budget() {
        let mut m = machine_with_mapping(8);
        let mut p = profiler(&mut m);
        for _ in 0..3 {
            for _k in 0..p.cfg.num_scans {
                p.scan_pass(&mut m);
            }
            p.finish_interval(&mut m);
        }
        let num_ps = p.num_ps(&m);
        let total = p.region_list().total_quota();
        assert_eq!(total, num_ps.max(p.regions().len() as u64), "budget respected");
    }

    #[test]
    fn profiling_cost_respects_overhead_target() {
        let mut m = machine_with_mapping(8);
        let mut p = profiler(&mut m);
        // Two intervals of pure profiling.
        for _ in 0..2 {
            for _k in 0..p.cfg.num_scans {
                p.scan_pass(&mut m);
            }
            p.finish_interval(&mut m);
        }
        let profiling = m.breakdown().profiling_ns;
        let budget = 2.0 * m.cfg.interval_ns * p.cfg.overhead_target;
        assert!(
            profiling <= budget * 1.5,
            "profiling {profiling} within ~1.5x of budget {budget}"
        );
    }

    #[test]
    fn similar_neighbours_merge() {
        let mut m = machine_with_mapping(8);
        let mut p = profiler(&mut m);
        // No accesses at all: all regions equally cold, so they merge.
        for _ in 0..3 {
            for _k in 0..p.cfg.num_scans {
                p.scan_pass(&mut m);
            }
            p.finish_interval(&mut m);
        }
        assert!(p.regions().len() < 8, "cold regions merged ({} left)", p.regions().len());
        assert!(p.stats().merged > 0);
    }

    #[test]
    fn divergent_region_splits() {
        let mut m = machine_with_mapping(2);
        let mut p = profiler(&mut m);
        // First merge the two chunks into one region (both cold).
        for _ in 0..2 {
            for _k in 0..p.cfg.num_scans {
                p.scan_pass(&mut m);
            }
            p.finish_interval(&mut m);
        }
        assert_eq!(p.regions().len(), 1);
        // Give the merged region a large quota so samples land on both
        // sides, then heat only the first half before every scan.
        p.regions.regions_mut()[0].quota = 64;
        p.plan_next_public_for_test(&mut m);
        for _ in 0..3 {
            for _k in 0..p.cfg.num_scans {
                for page in 0..256u64 {
                    m.access(0, VirtAddr(page * PAGE_SIZE_4K), AccessKind::Read);
                }
                p.scan_pass(&mut m);
            }
            p.finish_interval(&mut m);
            if p.regions().len() > 1 {
                break;
            }
            // Keep quota high for the next try.
            for r in p.regions.regions_mut() {
                r.quota = r.quota.max(32);
            }
            p.plan_next_public_for_test(&mut m);
        }
        assert!(p.regions().len() >= 2, "hot/cold split happened");
        assert!(p.stats().split > 0);
    }

    #[test]
    fn hot_ranges_reflect_threshold() {
        let mut m = machine_with_mapping(2);
        let mut p = profiler(&mut m);
        p.regions.regions_mut()[0].whi = 2.5;
        p.regions.regions_mut()[1].whi = 0.1;
        assert_eq!(p.hot_ranges_above(1.5).len(), 1);
        assert_eq!(p.hot_bytes(), PAGE_SIZE_2M);
    }

    #[test]
    fn metadata_footprint_is_small() {
        let mut m = machine_with_mapping(16);
        let p = profiler(&mut m);
        // 16 regions of metadata against 32 MB mapped: well under 0.1 %.
        assert!(p.metadata_bytes() < 16 * 1024);
    }

    /// A two-phase reference for the scan pass: every slot's accessed bit
    /// is read first, then clears, counts, charges and poisoning are
    /// applied in plan order, with a seen-set keyed by mapping so two
    /// slots aliasing one mapping count it once.
    fn two_phase_scan(p: &mut AdaptiveProfiler, m: &mut Machine) {
        let every = p.cfg.hint_fault_every.max(1) as u64;
        let pt = m.page_table();
        let pre: Vec<_> =
            p.plan.iter().map(|s| pt.translate(s.page).map(|t| (t.pte.accessed(), t.size))).collect();
        let mut seen = std::collections::BTreeSet::new();
        for (s, pre) in p.plan.iter_mut().zip(pre) {
            if let Some((accessed, size)) = pre {
                if m.scan_page(s.page).is_some() {
                    let key = match size {
                        FrameSize::Huge2M => s.page.page_2m().0,
                        FrameSize::Base4K => s.page.page_4k().0,
                    };
                    if seen.insert(key) && accessed {
                        s.count += 1;
                    }
                }
            }
            p.scan_tick += 1;
            if p.scan_tick.is_multiple_of(every) {
                m.poison_page(s.page);
            }
        }
    }

    #[test]
    fn single_pass_scan_matches_the_two_phase_reference() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        // Slots name pages of a 4 MB THP area and a 4 MB base-page area
        // with holes: a small page pool, so plans repeat pages, sample one
        // huge page at several offsets, and hit unmapped slots.
        let page_of = |i: u64| {
            let (area, page) = (i % 2, i / 2 % 12);
            VirtAddr(area * 4 * PAGE_SIZE_2M + page * 85 * PAGE_SIZE_4K)
        };
        prop_check!(
            "single_pass_scan_matches_the_two_phase_reference",
            64,
            (
                gen::vec_in(gen::u64_range(0, 48), 1, 40),
                gen::vec_in(gen::u64_range(0, 48), 0, 40),
                gen::u32_range(1, 13),
                gen::u64_range(0, 40),
                gen::u64_range(1, 4),
            ),
            |(slots, touches, every, tick, passes)| {
                let run = |single: bool| {
                    let topo = tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M);
                    let mut m = Machine::new(MachineConfig::new(topo, 1));
                    let thp = VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M);
                    let base = VaRange::from_len(VirtAddr(4 * PAGE_SIZE_2M), 2 * PAGE_SIZE_2M);
                    m.mmap("thp", thp, true);
                    m.mmap("base", base, false);
                    m.prefault_range(thp, &[0]).unwrap();
                    // Every third base page stays unmapped.
                    for page in base.iter_pages_4k().step_by(3) {
                        m.prefault_range(VaRange::from_len(page, PAGE_SIZE_4K), &[1]).unwrap();
                    }
                    let cfg = MtmConfig { hint_fault_every: *every, ..MtmConfig::default() };
                    let mut p = AdaptiveProfiler::new(cfg, 1);
                    p.scan_tick = *tick;
                    let sample = |&i: &u64| PlannedSample { page: page_of(i), count: 0 };
                    p.plan = slots.iter().map(sample).collect();
                    for pass in 0..*passes {
                        // Accesses between passes set bits again and take
                        // the hint faults earlier passes armed.
                        for &i in touches.iter().skip(pass as usize) {
                            m.access(0, page_of(i), AccessKind::Read);
                        }
                        if single {
                            p.scan_pass(&mut m);
                        } else {
                            two_phase_scan(&mut p, &mut m);
                        }
                    }
                    let counts: Vec<u32> = p.plan.iter().map(|s| s.count).collect();
                    let pt = m.page_table();
                    let ptes: Vec<_> = (0..48).map(|i| pt.translate(page_of(i))).collect();
                    let faults: Vec<_> =
                        m.drain_hint_faults().iter().map(|f| (f.page, f.tid)).collect();
                    let profiling = m.breakdown().profiling_ns.to_bits();
                    (counts, p.scan_tick, m.stats().pte_scans, profiling, ptes, faults)
                };
                prop_assert_eq!(run(true), run(false));
            }
        );
    }

    impl AdaptiveProfiler {
        /// Test-only: re-plan with current quotas.
        pub fn plan_next_public_for_test(&mut self, m: &mut Machine) {
            self.plan_next(m);
        }
    }
}
