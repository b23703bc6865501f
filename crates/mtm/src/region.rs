//! Memory regions: formation, merging, and splitting (Sec. 5.1, 5.4).
//!
//! A region is a contiguous virtual range profiled as a unit. Regions start
//! as one per valid last-level PDE (2 MB), then merge when adjacent regions
//! show similar hotness (difference below `tau_m`) and split when the
//! samples inside one region disagree (spread above `tau_s`). Splits are
//! huge-page-aware: a split point falling inside a huge mapping is moved to
//! the huge-page boundary so one huge page is never profiled by two regions.

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::page_table::PageTable;

/// One profiled memory region.
#[derive(Clone, Debug)]
pub struct Region {
    /// Virtual range covered.
    pub range: VaRange,
    /// Page-sample quota for the next profiling interval.
    pub quota: u32,
    /// Hotness indication of the most recent interval (average scan count
    /// over sampled pages, in `[0, num_scans]`).
    pub hi: f64,
    /// Hotness indication of the interval before.
    pub prev_hi: f64,
    /// Exponential moving average of hotness (Eq. 2).
    pub whi: f64,
    /// `|hi - prev_hi|`: the variance signal driving quota redistribution.
    pub variance: f64,
    /// Max-min scan-count spread across this region's samples in the most
    /// recent interval (the split signal).
    pub spread: f64,
    /// Largest single-sample scan count in the most recent interval.
    pub sample_max: f64,
    /// Per-node access attribution votes from hint faults (multi-view).
    pub node_votes: Vec<u32>,
    /// Sticky home-node assignment derived from the votes: reassigned
    /// only when another node clearly dominates (2x the votes), so
    /// near-50/50 shared regions do not ping-pong between per-socket
    /// destinations on sampling noise.
    pub home_node: u16,
    /// Whether PEBS saw an access in this region in the current interval.
    pub pebs_active: bool,
    /// Most recent PEBS-captured page in this region, used as the sample
    /// page for slowest-tier profiling (Sec. 5.5).
    pub pebs_page: Option<VirtAddr>,
    /// Number of intervals that produced direct evidence about this
    /// region (scan samples, or counters confirming inactivity). Regions
    /// without evidence are never merged away.
    pub evidence: u32,
}

impl Region {
    /// Creates a cold region over `range` with one sample of quota.
    pub fn new(range: VaRange, nodes: usize) -> Region {
        Region {
            range,
            quota: 1,
            hi: 0.0,
            prev_hi: 0.0,
            whi: 0.0,
            variance: 0.0,
            spread: 0.0,
            sample_max: 0.0,
            node_votes: vec![0; nodes],
            home_node: 0,
            pebs_active: false,
            pebs_page: None,
            evidence: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.range.len()
    }

    /// True if the region covers no bytes (never constructed normally).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The node with the most attributed accesses (lowest index wins
    /// ties, so an unknown region defaults to node 0).
    pub fn dominant_node(&self) -> u16 {
        let mut best = 0usize;
        for (i, &v) in self.node_votes.iter().enumerate() {
            if v > self.node_votes[best] {
                best = i;
            }
        }
        best as u16
    }

    /// Fraction of attribution votes belonging to the home node (0 when
    /// nothing is known).
    pub fn home_confidence(&self) -> f64 {
        let total: u32 = self.node_votes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.node_votes[self.home_node as usize] as f64 / total as f64
    }

    /// Updates the sticky home node: switch only on a clear (2x) majority.
    pub fn refresh_home(&mut self) {
        let best = self.dominant_node() as usize;
        let cur = self.home_node as usize;
        if best != cur && self.node_votes[best] > 2 * self.node_votes[cur].max(1) {
            self.home_node = best as u16;
        }
    }

    /// Updates the EMA after a new `hi` observation (Eq. 2).
    pub fn observe(&mut self, hi: f64, alpha: f64) {
        self.prev_hi = self.hi;
        self.hi = hi;
        self.variance = (self.hi - self.prev_hi).abs();
        self.whi = alpha * hi + (1.0 - alpha) * self.whi;
    }
}

/// Counters for Table 7.
#[derive(Clone, Copy, Debug, Default)]
pub struct FormationStats {
    /// Regions merged over the lifetime.
    pub merged: u64,
    /// Regions split over the lifetime.
    pub split: u64,
}

/// The ordered, disjoint set of regions.
#[derive(Debug, Default)]
pub struct RegionList {
    regions: Vec<Region>,
    stats: FormationStats,
    nodes: usize,
    /// The split pass's output buffer, kept between passes so a pass
    /// allocates nothing; always empty outside a pass.
    spare: Vec<Region>,
}

impl RegionList {
    /// Creates an empty list for a machine with `nodes` CPU nodes.
    pub fn new(nodes: usize) -> RegionList {
        RegionList {
            regions: Vec::new(),
            stats: FormationStats::default(),
            nodes: nodes.max(1),
            spare: Vec::new(),
        }
    }

    /// The regions in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Mutable access to the regions (kept address-ordered by callers).
    pub fn regions_mut(&mut self) -> &mut [Region] {
        &mut self.regions
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no regions exist yet.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Lifetime merge/split counters.
    pub fn stats(&self) -> FormationStats {
        self.stats
    }

    /// Sum of sample quotas.
    pub fn total_quota(&self) -> u64 {
        self.regions.iter().map(|r| r.quota as u64).sum()
    }

    /// Incorporates newly valid 2 MB PDE bases: any base not covered by an
    /// existing region becomes a new region ("whenever a last-level PDE is
    /// set as valid, the corresponding memory region is subject to
    /// profiling"). Returns how many regions were added.
    pub fn sync_pde_bases(&mut self, bases: &[VirtAddr]) -> usize {
        let mut added = 0;
        for &base in bases {
            if self.covering_index(base).is_none() {
                let range = VaRange::from_len(base, PAGE_SIZE_2M);
                let at = self.regions.partition_point(|r| r.range.start < base);
                self.regions.insert(at, Region::new(range, self.nodes));
                added += 1;
            }
        }
        debug_assert!(self.is_well_formed());
        added
    }

    /// [`RegionList::sync_pde_bases`] over the page table's valid PDEs.
    /// A valid PDE lacks a region only if its base falls in a gap between
    /// regions, so one walk over the gaps, asking the page table for the
    /// first valid PDE at or above each, confirms coverage without
    /// collecting the bases; only an uncovered PDE pays for the full sync.
    pub fn sync_valid_pdes(&mut self, pt: &PageTable) -> usize {
        let mut gap_start = VirtAddr(0);
        let mut uncovered = false;
        for r in &self.regions {
            if r.range.start > gap_start
                && pt.valid_pdes_from(gap_start).next().is_some_and(|base| base < r.range.start)
            {
                uncovered = true;
                break;
            }
            gap_start = r.range.end;
        }
        if uncovered || pt.valid_pdes_from(gap_start).next().is_some() {
            self.sync_pde_bases(&pt.valid_pde_bases())
        } else {
            0
        }
    }

    /// Index of the region containing `va`, if any.
    pub fn covering_index(&self, va: VirtAddr) -> Option<usize> {
        let idx = self.regions.partition_point(|r| r.range.end.0 <= va.0);
        (idx < self.regions.len() && self.regions[idx].range.contains(va)).then_some(idx)
    }

    /// Merges adjacent region pairs whose most-recent hotness differs by
    /// less than the effective merge threshold. Returns the freed sample
    /// quota (to be redistributed by the caller).
    ///
    /// The effective threshold is `tau_m` rescaled to the pair's observed
    /// hotness range: `max(tau_m * pair_max / num_scans, 0.15 * tau_m)`.
    /// When scan counts saturate toward `num_scans` (the regime the
    /// paper's absolute `tau_m` assumes) this reduces to plain `tau_m`;
    /// under time compression, where hot counts stay below saturation,
    /// the threshold shrinks proportionally so hot and cold regions do
    /// not merge (see DESIGN.md).
    pub fn merge_pass(
        &mut self,
        tau_m: f64,
        num_scans: u32,
        mut can_merge: impl FnMut(&Region, &Region) -> bool,
    ) -> u64 {
        let mut freed = 0u64;
        let mut merged = 0u64;
        // Compacts in place: `regions[..kept]` is the output so far, and
        // the merged-away regions collect behind it until the truncate.
        let mut kept = 0;
        for i in 0..self.regions.len() {
            if kept > 0 {
                let (out, rest) = self.regions.split_at_mut(i);
                let prev = &mut out[kept - 1];
                let region = &rest[0];
                if prev.range.end == region.range.start
                    && prev.evidence > 0
                    && region.evidence > 0
                    && (prev.hi - region.hi).abs()
                        < (tau_m * prev.hi.max(region.hi) / num_scans.max(1) as f64)
                            .max(0.15 * tau_m)
                    && can_merge(prev, region)
                {
                    // Merge `region` into `prev`.
                    let a_len = prev.len() as f64;
                    let b_len = region.len() as f64;
                    let w = a_len / (a_len + b_len);
                    prev.hi = prev.hi * w + region.hi * (1.0 - w);
                    prev.prev_hi = prev.prev_hi * w + region.prev_hi * (1.0 - w);
                    prev.whi = prev.whi * w + region.whi * (1.0 - w);
                    prev.variance = prev.variance.max(region.variance);
                    prev.spread = prev.spread.max(region.spread);
                    prev.sample_max = prev.sample_max.max(region.sample_max);
                    prev.pebs_active |= region.pebs_active;
                    prev.pebs_page = prev.pebs_page.or(region.pebs_page);
                    prev.evidence = prev.evidence.min(region.evidence);
                    for (a, b) in prev.node_votes.iter_mut().zip(&region.node_votes) {
                        *a += b;
                    }
                    // The home of the larger constituent wins.
                    if region.len() > prev.len() {
                        prev.home_node = region.home_node;
                    }
                    // "The combined total of page samples from both regions
                    // is halved, under the constraint that the new region
                    // has at least one sample."
                    let combined = prev.quota + region.quota;
                    let kept_quota = (combined / 2).max(1);
                    freed += (combined - kept_quota) as u64;
                    prev.quota = kept_quota;
                    prev.range = VaRange::new(prev.range.start, region.range.end);
                    merged += 1;
                    continue;
                }
            }
            if kept != i {
                self.regions.swap(kept, i);
            }
            kept += 1;
        }
        self.regions.truncate(kept);
        self.stats.merged += merged;
        debug_assert!(self.is_well_formed());
        freed
    }

    /// Splits every region whose sample spread exceeds the effective split
    /// threshold into two halves, keeping the split point off huge-page
    /// interiors via `is_huge_at`. Quotas split evenly (minimum one each
    /// side). Like [`RegionList::merge_pass`], the threshold is `tau_s`
    /// rescaled to the region's observed scan-count range.
    pub fn split_pass(
        &mut self,
        tau_s: f64,
        num_scans: u32,
        mut is_huge_at: impl FnMut(VirtAddr) -> bool,
    ) -> u64 {
        let mut added_quota = 0u64;
        let mut out = std::mem::take(&mut self.spare);
        out.reserve(self.regions.len());
        for region in self.regions.drain(..) {
            let tau_s_eff = (tau_s * region.sample_max / num_scans.max(1) as f64).max(0.15 * tau_s);
            if region.spread <= tau_s_eff || region.len() < 2 * PAGE_SIZE_4K {
                out.push(region);
                continue;
            }
            // Candidate midpoint, page-aligned.
            let mut mid = VirtAddr((region.range.start.0 + region.len() / 2) & !(PAGE_SIZE_4K - 1));
            if is_huge_at(mid) {
                // Move to the huge-page boundary (Sec. 5.4).
                mid = mid.page_2m();
            }
            if mid <= region.range.start || mid >= region.range.end {
                out.push(region);
                continue;
            }
            let q_left = (region.quota / 2).max(1);
            let q_right = (region.quota - region.quota / 2).max(1);
            added_quota += (q_left + q_right).saturating_sub(region.quota) as u64;
            let mut left = region.clone();
            left.range = VaRange::new(region.range.start, mid);
            left.quota = q_left;
            left.spread = 0.0;
            let mut right = region;
            right.range = VaRange::new(mid, right.range.end);
            right.quota = q_right;
            right.spread = 0.0;
            out.push(left);
            out.push(right);
            self.stats.split += 1;
        }
        self.spare = std::mem::replace(&mut self.regions, out);
        debug_assert!(self.is_well_formed());
        added_quota
    }

    /// Splits the region at `idx` at address `mid` (exclusive end of the
    /// left half), cloning metadata and dividing the quota. Returns
    /// `false` (and does nothing) if `mid` does not fall strictly inside
    /// the region. Used by the policy for migration-driven splits of
    /// regions larger than the per-interval budget.
    pub fn split_at(&mut self, idx: usize, mid: VirtAddr) -> bool {
        let region = &self.regions[idx];
        if mid <= region.range.start || mid >= region.range.end {
            return false;
        }
        let mut left = region.clone();
        let mut right = region.clone();
        left.range = VaRange::new(region.range.start, mid);
        right.range = VaRange::new(mid, region.range.end);
        left.quota = (region.quota / 2).max(1);
        right.quota = (region.quota - region.quota / 2).max(1);
        self.regions[idx] = left;
        self.regions.insert(idx + 1, right);
        self.stats.split += 1;
        debug_assert!(self.is_well_formed());
        true
    }

    /// Isolates the 2 MB-aligned chunk containing `page` as its own
    /// region (splitting its container once or twice). Returns `true` if
    /// any split happened. Used for event-driven zooming: a counter
    /// sample inside a large cold region pinpoints where profiling
    /// should focus (Sec. 5.5).
    pub fn isolate_chunk(&mut self, page: VirtAddr) -> bool {
        let Some(idx) = self.covering_index(page) else { return false };
        let chunk_start = page.page_2m().max(self.regions[idx].range.start);
        let chunk_end =
            VirtAddr(page.page_2m().0 + PAGE_SIZE_2M).min(self.regions[idx].range.end);
        let mut split_any = false;
        if self.split_at(idx, chunk_start) {
            split_any = true;
        }
        if let Some(i2) = self.covering_index(page) {
            if self.split_at(i2, chunk_end) {
                split_any = true;
            }
        }
        if split_any {
            if let Some(i3) = self.covering_index(page) {
                // The isolated chunk is a fresh hypothesis: strip its
                // inherited evidence so it cannot merge away before being
                // profiled once.
                self.regions[i3].evidence = 0;
                self.regions[i3].quota = self.regions[i3].quota.max(1);
            }
        }
        split_any
    }

    /// Checks ordering and disjointness (debug assertions and tests).
    pub fn is_well_formed(&self) -> bool {
        self.regions.windows(2).all(|w| w[0].range.end <= w[1].range.start)
            && self.regions.iter().all(|r| !r.is_empty() && r.quota >= 1)
    }

    /// Serializes the region set and formation counters (checkpoint
    /// support).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.nodes as u64);
        w.varint(self.stats.merged);
        w.varint(self.stats.split);
        w.varint(self.regions.len() as u64);
        for r in &self.regions {
            r.range.save(w);
            w.u32(r.quota);
            w.f64(r.hi);
            w.f64(r.prev_hi);
            w.f64(r.whi);
            w.f64(r.variance);
            w.f64(r.spread);
            w.f64(r.sample_max);
            w.varint(r.node_votes.len() as u64);
            for &v in &r.node_votes {
                w.u32(v);
            }
            w.u16(r.home_node);
            w.bool(r.pebs_active);
            match r.pebs_page {
                Some(p) => {
                    w.bool(true);
                    w.u64(p.0);
                }
                None => w.bool(false),
            }
            w.u32(r.evidence);
        }
    }

    /// Restores a list saved with [`RegionList::save`].
    pub fn load(r: &mut obs::wire::Reader) -> Result<RegionList, String> {
        let nodes = r.varint()? as usize;
        let stats = FormationStats { merged: r.varint()?, split: r.varint()? };
        let count = r.varint()? as usize;
        let mut regions = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let range = VaRange::load(r)?;
            let quota = r.u32()?;
            let hi = r.f64()?;
            let prev_hi = r.f64()?;
            let whi = r.f64()?;
            let variance = r.f64()?;
            let spread = r.f64()?;
            let sample_max = r.f64()?;
            let votes = r.varint()? as usize;
            let mut node_votes = Vec::with_capacity(votes.min(1024));
            for _ in 0..votes {
                node_votes.push(r.u32()?);
            }
            let home_node = r.u16()?;
            let pebs_active = r.bool()?;
            let pebs_page = if r.bool()? { Some(VirtAddr(r.u64()?)) } else { None };
            let evidence = r.u32()?;
            regions.push(Region {
                range,
                quota,
                hi,
                prev_hi,
                whi,
                variance,
                spread,
                sample_max,
                node_votes,
                home_node,
                pebs_active,
                pebs_page,
                evidence,
            });
        }
        let list = RegionList { regions, stats, nodes, spare: Vec::new() };
        if !list.is_well_formed() {
            return Err("restored region list is malformed".to_string());
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::frame::FrameSize;

    fn bases(chunks: &[u64]) -> Vec<VirtAddr> {
        chunks.iter().map(|&c| VirtAddr(c * PAGE_SIZE_2M)).collect()
    }

    fn evidence_all(list: &mut RegionList) {
        for r in list.regions_mut() {
            r.evidence = 1;
        }
    }

    #[test]
    fn sync_creates_one_region_per_pde() {
        let mut list = RegionList::new(2);
        assert_eq!(list.sync_pde_bases(&bases(&[0, 1, 5])), 3);
        assert_eq!(list.len(), 3);
        assert_eq!(list.sync_pde_bases(&bases(&[0, 1, 5])), 0, "idempotent");
        assert_eq!(list.sync_pde_bases(&bases(&[2])), 1);
        assert!(list.is_well_formed());
    }

    #[test]
    fn coverage_walk_matches_the_full_sync() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        use tiersim::addr::PhysAddr;
        use tiersim::pte::Pte;
        // Ops over 160 PDE slots (crossing bitmap words): 0 maps a huge
        // page, 1 maps a base page, 2 unmaps what is there, 3 syncs both
        // lists and compares, 4 merges every adjacent pair, 5 splits every
        // region (off the 2 MB grid for base-page areas).
        prop_check!(
            "coverage_walk_matches_the_full_sync",
            128,
            gen::vec_in((gen::u8_range(0, 6), gen::u64_range(0, 160)), 1, 64),
            |ops| {
                let mut pt = PageTable::new();
                let mut walk = RegionList::new(1);
                let mut full = RegionList::new(1);
                for &(op, pde) in ops.iter().chain([(3, 0)].iter()) {
                    let base = VirtAddr(pde * PAGE_SIZE_2M);
                    let off = (pde * 7 % 512) * PAGE_SIZE_4K;
                    let slot_empty = pt.valid_pdes_from(base).next() != Some(base);
                    let huge = matches!(pt.translate(base), Some(t) if t.size == FrameSize::Huge2M);
                    match op {
                        0 if slot_empty => {
                            pt.map_2m(base, Pte::map(PhysAddr::new(0, 0), true));
                        }
                        1 if !huge && pt.translate(base + off).is_none() => {
                            pt.map_4k(base + off, Pte::map(PhysAddr::new(0, off), false));
                        }
                        2 => {
                            let _ = pt.unmap(base);
                            let _ = pt.unmap(base + off);
                        }
                        3 => {
                            let added = walk.sync_valid_pdes(&pt);
                            prop_assert_eq!(added, full.sync_pde_bases(&pt.valid_pde_bases()));
                            let ranges = |l: &RegionList| {
                                l.regions().iter().map(|r| r.range).collect::<Vec<_>>()
                            };
                            prop_assert_eq!(ranges(&walk), ranges(&full));
                        }
                        4 => {
                            for list in [&mut walk, &mut full] {
                                evidence_all(list);
                                list.merge_pass(f64::INFINITY, 3, |_, _| true);
                            }
                        }
                        5 => {
                            for list in [&mut walk, &mut full] {
                                for r in list.regions_mut() {
                                    r.spread = 3.0;
                                }
                                list.split_pass(1.0, 3, |_| false);
                            }
                        }
                        _ => {}
                    }
                }
            }
        );
    }

    #[test]
    fn covering_index_finds_region() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0, 4]));
        assert_eq!(list.covering_index(VirtAddr(100)), Some(0));
        assert_eq!(list.covering_index(VirtAddr(4 * PAGE_SIZE_2M + 5)), Some(1));
        assert_eq!(list.covering_index(VirtAddr(2 * PAGE_SIZE_2M)), None);
    }

    #[test]
    fn merge_requires_adjacency_and_similarity() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0, 1, 3]));
        list.regions_mut()[0].hi = 1.0;
        list.regions_mut()[1].hi = 1.2;
        list.regions_mut()[2].hi = 1.0;
        evidence_all(&mut list);
        let freed = list.merge_pass(0.5, 3, |_, _| true);
        // Regions 0 and 1 merge (adjacent, similar); region at chunk 3 is
        // not adjacent and stays.
        assert_eq!(list.len(), 2);
        assert_eq!(list.regions()[0].len(), 2 * PAGE_SIZE_2M);
        assert_eq!(freed, 1, "two quotas of 1 halve to 1, freeing 1");
        assert_eq!(list.stats().merged, 1);
    }

    #[test]
    fn merge_respects_tau_m() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0, 1]));
        list.regions_mut()[0].hi = 0.0;
        list.regions_mut()[1].hi = 2.0;
        evidence_all(&mut list);
        list.merge_pass(1.0, 3, |_, _| true);
        assert_eq!(list.len(), 2, "hotness gap above tau_m blocks the merge");
    }

    #[test]
    fn merged_hotness_is_size_weighted() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0, 1, 2]));
        list.regions_mut()[0].hi = 3.0;
        list.regions_mut()[1].hi = 3.0;
        evidence_all(&mut list);
        list.merge_pass(0.5, 3, |_, _| true);
        // First two merged into a 4 MB region with hi = 3.
        list.regions_mut()[1].hi = 3.0; // chunk 2 (unchanged size 2 MB).
        list.regions_mut()[0].whi = 2.0;
        list.regions_mut()[1].whi = 0.5;
        evidence_all(&mut list);
        list.merge_pass(0.5, 3, |_, _| true);
        assert_eq!(list.len(), 1);
        let whi = list.regions()[0].whi;
        assert!((whi - (2.0 * 2.0 / 3.0 + 0.5 / 3.0)).abs() < 1e-9, "whi = {whi}");
    }

    #[test]
    fn split_halves_region_and_quota() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0, 1]));
        evidence_all(&mut list);
        list.merge_pass(10.0, 3, |_, _| true); // Force one 4 MB region.
        list.regions_mut()[0].spread = 3.0;
        list.regions_mut()[0].quota = 4;
        let added = list.split_pass(2.0, 3, |_| false);
        assert_eq!(added, 0);
        assert_eq!(list.len(), 2);
        assert_eq!(list.regions()[0].len(), PAGE_SIZE_2M);
        assert_eq!(list.regions()[0].quota, 2);
        assert_eq!(list.regions()[1].quota, 2);
        assert_eq!(list.stats().split, 1);
    }

    #[test]
    fn split_point_avoids_huge_interior() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0, 1, 2]));
        evidence_all(&mut list);
        list.merge_pass(10.0, 3, |_, _| true); // One 6 MB region.
        assert_eq!(list.len(), 1);
        list.regions_mut()[0].spread = 3.0;
        // Claim everything is huge-mapped: midpoint (3 MB) moves down to
        // the 2 MB boundary.
        list.split_pass(1.0, 3, |_| true);
        assert_eq!(list.len(), 2);
        assert_eq!(list.regions()[0].len(), PAGE_SIZE_2M);
        assert_eq!(list.regions()[1].len(), 2 * PAGE_SIZE_2M);
        assert!(list.regions()[0].range.end.is_2m_aligned());
    }

    #[test]
    fn split_skips_tiny_or_degenerate() {
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[0]));
        list.regions_mut()[0].range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_4K);
        list.regions_mut()[0].spread = 5.0;
        list.split_pass(1.0, 3, |_| false);
        assert_eq!(list.len(), 1, "single page cannot split");
        // Degenerate: huge adjustment pushes mid to region start.
        let mut list = RegionList::new(1);
        list.sync_pde_bases(&bases(&[4]));
        list.regions_mut()[0].spread = 5.0;
        list.split_pass(1.0, 3, |_| true);
        assert_eq!(list.len(), 1, "huge-aligned mid at start blocks split");
    }

    #[test]
    fn observe_updates_ema_and_variance() {
        let mut r = Region::new(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), 2);
        r.observe(2.0, 0.5);
        assert!((r.whi - 1.0).abs() < 1e-9);
        assert!((r.variance - 2.0).abs() < 1e-9);
        r.observe(1.0, 0.5);
        assert!((r.whi - 1.0).abs() < 1e-9);
        assert!((r.variance - 1.0).abs() < 1e-9);
        assert_eq!(r.prev_hi, 2.0);
    }

    #[test]
    fn dominant_node_breaks_toward_first() {
        let mut r = Region::new(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), 2);
        assert_eq!(r.dominant_node(), 0);
        r.node_votes[1] = 5;
        assert_eq!(r.dominant_node(), 1);
        r.node_votes[0] = 9;
        assert_eq!(r.dominant_node(), 0);
    }
}
