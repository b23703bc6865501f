//! Page-migration primitives and the Linux `move_pages()` baseline.
//!
//! [`relocate_range`] is the mechanism-neutral core: it moves every mapped
//! page of a virtual range to a destination component, performing the four
//! steps of Sec. 7.1 — (1) allocate destination frames (including zeroing
//! cost), (2) unmap/invalidate, (3) copy, (4) remap — plus moving the
//! region's page-table pages. It *returns* the per-step cost breakdown and
//! lets the caller decide which steps land on the critical path: the Linux
//! `move_pages()` wrapper charges everything synchronously, while MTM's
//! `move_memory_regions()` (in the `mtm` crate) overlaps steps 1 and 3 with
//! application execution.

use crate::addr::{VaRange, PAGE_SIZE_4K};
use crate::frame::{FrameSize, OutOfMemory};
use crate::machine::Machine;
use crate::tier::{ComponentId, NodeId};

/// Per-step migration costs in virtual nanoseconds (Fig. 3 / Fig. 11).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepBreakdown {
    /// Allocating (and zeroing) new pages in the target component.
    pub alloc_ns: f64,
    /// Unmapping the source pages (PTE invalidation).
    pub unmap_ns: f64,
    /// Copying page contents.
    pub copy_ns: f64,
    /// Mapping the new pages (PTE update).
    pub remap_ns: f64,
    /// Moving the corresponding page-table pages.
    pub pt_ns: f64,
    /// Dirtiness-tracking overhead (arming + faults), MTM only.
    pub track_ns: f64,
}

impl StepBreakdown {
    /// Sum of all steps.
    pub fn total_ns(&self) -> f64 {
        self.alloc_ns + self.unmap_ns + self.copy_ns + self.remap_ns + self.pt_ns + self.track_ns
    }

    /// Adds another breakdown step-wise.
    pub fn add(&mut self, other: StepBreakdown) {
        self.alloc_ns += other.alloc_ns;
        self.unmap_ns += other.unmap_ns;
        self.copy_ns += other.copy_ns;
        self.remap_ns += other.remap_ns;
        self.pt_ns += other.pt_ns;
        self.track_ns += other.track_ns;
    }
}

/// Result of a successful range relocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrateOutcome {
    /// Pages moved (huge pages count once).
    pub pages: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Bytes (of `bytes`) remapped from a clean shadow copy with zero
    /// copy traffic (Nomad non-exclusive mode; always 0 otherwise).
    pub shadow_hit_bytes: u64,
    /// Per-step costs (not yet charged to any clock bucket).
    pub breakdown: StepBreakdown,
}

/// Errors from migration primitives.
///
/// `#[non_exhaustive]` because the fault model grows: downstream crates
/// must keep a wildcard arm, and new transient failure classes then land
/// without breaking them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MigrateError {
    /// The destination cannot hold the pages being moved.
    NoSpace(OutOfMemory),
    /// The range contains no mapped pages.
    NothingMapped,
    /// A page in the range is transiently busy/pinned (injected fault);
    /// retrying later may succeed.
    PageBusy,
    /// Destination allocation failed transiently (injected fault);
    /// retrying later may succeed.
    TransientAllocFail,
}

impl MigrateError {
    /// True for failures that a bounded retry may recover from.
    pub fn is_transient(&self) -> bool {
        matches!(self, MigrateError::PageBusy | MigrateError::TransientAllocFail)
    }
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::NoSpace(oom) => write!(f, "migration failed: {oom}"),
            MigrateError::NothingMapped => write!(f, "migration failed: no mapped pages in range"),
            MigrateError::PageBusy => write!(f, "migration failed: page transiently busy/pinned"),
            MigrateError::TransientAllocFail => {
                write!(f, "migration failed: transient destination allocation failure")
            }
        }
    }
}

impl std::error::Error for MigrateError {}

/// Sustained single-thread page-copy bandwidth, GB/s.
const SINGLE_THREAD_COPY_GBPS: f64 = 6.0;

/// Effective copy bandwidth (bytes/ns) between two components as seen from
/// `node`, with `copy_threads` parallel copy threads.
///
/// A single kernel copy thread cannot saturate a fast link; parallel copy
/// (Nimble, MTM helpers) scales until the slower of the two links caps it.
pub fn copy_bandwidth(m: &Machine, node: NodeId, src: ComponentId, dst: ComponentId, copy_threads: u32) -> f64 {
    let topo = m.topology();
    let link_cap = topo.link(node, src).bytes_per_ns().min(topo.link(node, dst).bytes_per_ns());
    let bw = link_cap.min(SINGLE_THREAD_COPY_GBPS * copy_threads.max(1) as f64);
    // An installed fault plan can degrade copy bandwidth in interval
    // windows. The factor is exactly 1.0 outside every window, so the
    // multiplication is an IEEE no-op on the healthy path.
    bw * m.faults.bw_factor(m.clock.intervals())
}

/// The CPU node from which copying `src` -> `dst` is fastest.
///
/// Migration helper threads are kernel threads and can be scheduled on
/// whichever socket maximizes copy throughput (MTM pins them at the
/// highest priority, Sec. 7.2); page-migration costs therefore use the
/// best placement rather than the requesting thread's socket.
pub fn best_copy_node(m: &Machine, src: ComponentId, dst: ComponentId) -> NodeId {
    let topo = m.topology();
    (0..topo.nodes)
        .max_by(|&a, &b| {
            let ba = copy_bandwidth(m, a, src, dst, 1);
            let bb = copy_bandwidth(m, b, src, dst, 1);
            ba.total_cmp(&bb)
        })
        .unwrap_or(0)
}

/// Cost to copy `bytes` from `src` to `dst` (latency + bandwidth term).
pub fn copy_cost_ns(
    m: &Machine,
    node: NodeId,
    src: ComponentId,
    dst: ComponentId,
    bytes: u64,
    copy_threads: u32,
) -> f64 {
    let topo = m.topology();
    let pages = bytes.div_ceil(PAGE_SIZE_4K);
    let lat = (topo.link(node, src).latency_ns + topo.link(node, dst).latency_ns) * pages as f64
        / copy_threads.max(1) as f64;
    lat + bytes as f64 / copy_bandwidth(m, node, src, dst, copy_threads)
}

/// Cost to allocate and zero `bytes` of destination pages.
pub fn alloc_cost_ns(m: &Machine, node: NodeId, dst: ComponentId, bytes: u64) -> f64 {
    let pages = bytes.div_ceil(PAGE_SIZE_4K) as f64;
    let zero = bytes as f64 / m.topology().link(node, dst).bytes_per_ns().min(12.0);
    m.cfg.costs.migrate_alloc_page_ns * pages + zero
}

/// One fused read-only sweep of `range`: the ordered move set (every
/// mapped page, ascending) plus the capacity demand (pages of each size
/// not already on `dst`).
fn collect_move_set(
    m: &Machine,
    range: VaRange,
    dst: ComponentId,
) -> (Vec<(crate::addr::VirtAddr, FrameSize)>, u64, u64) {
    let mut pages = Vec::new();
    let (mut need_4k, mut need_2m) = (0u64, 0u64);
    m.page_table().for_each_mapped_in(range, |va, pte, size| {
        pages.push((va, size));
        if pte.frame().component() != dst {
            match size {
                FrameSize::Base4K => need_4k += 1,
                FrameSize::Huge2M => need_2m += 1,
            }
        }
    });
    (pages, need_4k, need_2m)
}

/// Allocates a destination frame for one page, splitting a huge mapping to
/// base pages when the destination has the bytes but no contiguous huge
/// frame (the THP-split fallback Linux performs under fragmentation).
///
/// Returns the frame and the (possibly downgraded) mapping size, or
/// `None` when even base allocation fails.
fn alloc_dst_frame(
    m: &mut Machine,
    va: crate::addr::VirtAddr,
    size: FrameSize,
    dst: ComponentId,
) -> Option<(crate::addr::PhysAddr, FrameSize)> {
    if let Ok(frame) = m.allocators[dst as usize].alloc(size) {
        return Some((frame, size));
    }
    if size == FrameSize::Huge2M {
        // Split the source THP and retry at base granularity.
        if m.pt.split_huge(va) {
            if let Ok(frame) = m.allocators[dst as usize].alloc(FrameSize::Base4K) {
                return Some((frame, FrameSize::Base4K));
            }
        }
    }
    None
}

/// Moves every mapped page in `range` that is not already on `dst` to
/// `dst`, splitting huge mappings first if `split_huge`.
///
/// Performs all four `move_pages()` steps, computing their costs, but does
/// **not** charge the machine clock — callers charge the returned breakdown
/// to the buckets their mechanism exposes on the critical path. Frame
/// versions are copied so tests can verify no update is lost.
///
/// With the sanitizer armed ([`Machine::set_checking`]) every call is
/// bracketed by shadow snapshots: a success must have moved exactly
/// `out.bytes` onto `dst` without creating or losing pages; a transient
/// abort must leave the range structurally untouched; a non-transient
/// failure may have split huge mappings but must not have moved a byte.
pub fn relocate_range(
    m: &mut Machine,
    range: VaRange,
    dst: ComponentId,
    node: NodeId,
    copy_threads: u32,
    split_huge: bool,
) -> Result<MigrateOutcome, MigrateError> {
    if !m.checking() {
        return relocate_range_inner(m, range, dst, node, copy_threads, split_huge);
    }
    let pre = m.shadow_of(range);
    let result = relocate_range_inner(m, range, dst, node, copy_threads, split_huge);
    let post = m.shadow_of(range);
    let mut violations = Vec::new();
    match &result {
        Ok(out) => {
            if post.total_bytes() != pre.total_bytes() {
                violations.push(format!(
                    "bytes not conserved: {} B mapped in range before vs {} B after",
                    pre.total_bytes(),
                    post.total_bytes()
                ));
            }
            let gained = post.bytes_on(dst).wrapping_sub(pre.bytes_on(dst));
            if gained != out.bytes {
                violations.push(format!(
                    "destination gain mismatch: component {dst} gained {gained} B but the outcome reports {} B moved",
                    out.bytes
                ));
            }
        }
        Err(e) if e.is_transient() => {
            // The fault gate fires before any mutation: the pre-image
            // must be intact down to mapping granularity.
            violations.extend(pre.diff(&post));
        }
        Err(_) => {
            // NoSpace/NothingMapped may legitimately have split huge
            // mappings (a placement-neutral granularity change) but must
            // not have moved a byte between components.
            violations.extend(pre.placement_diff(&post));
        }
    }
    // Cheap global invariant on every call: total allocator occupancy
    // must equal the page-table census plus retained shadow bytes (a
    // leaked or double-freed frame shows up here immediately; the full
    // per-component census runs at interval boundaries).
    let used: u64 = (0..m.topology().num_components() as u16)
        .map(|c| m.allocator(c).used())
        .sum();
    let mapped = m.page_table().mapped_bytes();
    let shadow = m.shadow_total_bytes();
    if used != mapped + shadow {
        violations.push(format!(
            "occupancy drift: allocators hold {used} B but the page table maps {mapped} B (+{shadow} B shadow)"
        ));
    }
    if !violations.is_empty() {
        let context = match &result {
            Ok(_) => format!("relocate_range commit (range {range:?} -> component {dst})"),
            Err(e) => format!("relocate_range abort ({e}; range {range:?} -> component {dst})"),
        };
        mtm_check::fail(&context, &violations);
    }
    result
}

/// The unchecked four-step move loop behind [`relocate_range`].
fn relocate_range_inner(
    m: &mut Machine,
    range: VaRange,
    dst: ComponentId,
    // Requesting node: its tier view classifies promotions vs demotions
    // for shadow-copy retention; copy threads are placed by
    // `best_copy_node` independently of it.
    node: NodeId,
    copy_threads: u32,
    split_huge: bool,
) -> Result<MigrateOutcome, MigrateError> {
    // Fault-injection gate. A transient failure aborts the attempt before
    // any state is touched, so a failed migration is transactional:
    // nothing moved, nothing to roll back (Nomad-style abort semantics
    // come for free to every caller).
    if m.faults.is_active() {
        if m.faults.page_busy() {
            m.recorder.reg.counter_add(obs::names::FAULT_PAGE_BUSY, 1);
            return Err(MigrateError::PageBusy);
        }
        if m.faults.alloc_fail() {
            m.recorder.reg.counter_add(obs::names::FAULT_ALLOC_FAIL, 1);
            return Err(MigrateError::TransientAllocFail);
        }
    }
    if split_huge {
        for base in range.iter_pages_2m() {
            if matches!(m.pt.translate(base), Some(t) if t.size == FrameSize::Huge2M) {
                m.pt.split_huge(base);
            }
        }
    }
    let (pages, need_4k, need_2m) = collect_move_set(m, range, dst);
    if need_4k > 0 || need_2m > 0 {
        let need_bytes = need_4k * PAGE_SIZE_4K + need_2m * crate::addr::PAGE_SIZE_2M;
        // In shadow mode some of the demand may be met by reusing clean
        // retained frames (no allocation), and retained frames not about
        // to be reused are reclaimable free space.
        let need_alloc = if m.shadow_mode() {
            need_bytes.saturating_sub(m.shadow_match_bytes(range, dst))
        } else {
            need_bytes
        };
        if m.shadow_mode() && m.allocators[dst as usize].free() < need_alloc {
            m.reclaim_shadow_space(dst, need_alloc, range);
        }
        if m.allocators[dst as usize].free() < need_alloc {
            return Err(MigrateError::NoSpace(OutOfMemory {
                component: dst,
                size: if need_2m > 0 { FrameSize::Huge2M } else { FrameSize::Base4K },
            }));
        }
    }
    if pages.is_empty() {
        return Err(MigrateError::NothingMapped);
    }
    let shadow_mode = m.shadow_mode();
    let costs = m.cfg.costs.clone();
    let mut out = MigrateOutcome::default();
    let mut any_moved = false;
    // Frames retained as shadow copies on demotion, grouped by the source
    // component they stay allocated on.
    let mut retained: std::collections::BTreeMap<
        ComponentId,
        Vec<(crate::addr::VirtAddr, crate::addr::PhysAddr, FrameSize)>,
    > = std::collections::BTreeMap::new();
    let mut queue: std::collections::VecDeque<(crate::addr::VirtAddr, FrameSize)> = pages.into();
    while let Some((va, size)) = queue.pop_front() {
        // `mapped_pages` ran moments ago, but a defensive miss here must
        // not panic mid-transaction: skipping the page leaves it exactly
        // where it was, which every caller already handles.
        let Some(src) = m.component_of(va) else {
            continue;
        };
        if src == dst {
            continue;
        }
        // Shadow fast path: a clean retained copy on the destination lets
        // the page repromote by remapping alone — no allocation, no copy.
        let shadow_frame =
            if shadow_mode { m.take_shadow_page(va, dst, size) } else { None };
        let (new_frame, eff_size) = match shadow_frame {
            Some(frame) => (frame, size),
            None => {
                // Step 1: allocate (+ zero) the destination frame,
                // splitting the THP when the destination lacks a
                // contiguous huge frame.
                let Some((new_frame, eff_size)) = alloc_dst_frame(m, va, size, dst) else {
                    continue;
                };
                if eff_size != size {
                    // The huge mapping was split: queue the sibling base
                    // pages that fall inside the requested range (the
                    // rest stay put).
                    for off in
                        (PAGE_SIZE_4K..crate::addr::PAGE_SIZE_2M).step_by(PAGE_SIZE_4K as usize)
                    {
                        let sibling = crate::addr::VirtAddr(va.0 + off);
                        if range.contains(sibling) {
                            queue.push_back((sibling, FrameSize::Base4K));
                        }
                    }
                }
                out.breakdown.alloc_ns +=
                    alloc_cost_ns(m, best_copy_node(m, dst, dst), dst, eff_size.bytes());
                (new_frame, eff_size)
            }
        };
        let bytes = eff_size.bytes();
        // Step 2: unmap / invalidate. A miss here would leak the frame
        // allocated (or consumed from the shadow pool) above, so return
        // it before skipping the page.
        let Some((old_pte, old_size)) = m.pt.unmap(va) else {
            m.allocators[dst as usize].free_frame(new_frame, eff_size);
            continue;
        };
        debug_assert_eq!(old_size, eff_size, "split (if any) happened before unmap");
        out.breakdown.unmap_ns += costs.migrate_unmap_page_ns;
        // Step 3: copy contents (versions stand in for data). A shadow
        // hit copies nothing over the interconnect — the retained frame
        // already holds the bytes — but the version bookkeeping still
        // follows the page so no write is ever lost.
        m.versions.move_range(old_pte.frame(), new_frame, (bytes / PAGE_SIZE_4K) as usize);
        if shadow_frame.is_none() {
            let copy_node = best_copy_node(m, src, dst);
            out.breakdown.copy_ns += copy_cost_ns(m, copy_node, src, dst, bytes, copy_threads);
        }
        // Step 4: remap.
        let new_pte = old_pte.with_frame(new_frame);
        match eff_size {
            FrameSize::Huge2M => m.pt.map_2m(va, new_pte),
            FrameSize::Base4K => m.pt.map_4k(va, new_pte),
        }
        out.breakdown.remap_ns += costs.migrate_remap_page_ns;
        // On a demotion (the destination is slower than the source in the
        // requesting node's tier view) shadow mode retains the source
        // frame instead of freeing it, so a clean repromotion can reuse
        // it with zero copy bytes.
        let topo = m.topology();
        let demotion = shadow_mode && topo.tier_rank(node, src) < topo.tier_rank(node, dst);
        if demotion {
            retained.entry(src).or_default().push((va, old_pte.frame(), eff_size));
        } else {
            m.allocators[src as usize].free_frame(old_pte.frame(), eff_size);
        }
        out.pages += 1;
        out.bytes += bytes;
        if shadow_frame.is_some() {
            out.shadow_hit_bytes += bytes;
        }
        any_moved = true;
    }
    if !any_moved {
        return Err(MigrateError::NothingMapped);
    }
    if shadow_mode {
        // Pages of this range moved: any surviving shadow entry that
        // overlaps it is no longer paired with a watched mapping (its
        // tracking bits died with the unmap), so drop it before
        // registering the fresh retained copies.
        m.invalidate_shadows_overlapping(range);
        for (src, pages) in retained {
            m.register_shadow(range, src, pages);
        }
        if out.shadow_hit_bytes > 0 {
            m.recorder.reg.counter_add(obs::names::SHADOW_HITS, 1);
            m.recorder.reg.counter_add(obs::names::SHADOW_HIT_BYTES, out.shadow_hit_bytes);
            m.record_event(obs::EventKind::ShadowHit { bytes: out.shadow_hit_bytes, dst });
        }
    }
    // Moving the page-table pages costs one unit per 2 MB region's worth
    // of pages; pro-rate for smaller moves so per-page migrators are not
    // overcharged.
    out.breakdown.pt_ns +=
        costs.migrate_pt_region_ns * (out.bytes as f64 / crate::addr::PAGE_SIZE_2M as f64).max(0.01);
    m.stats.pages_migrated += out.pages;
    m.stats.bytes_migrated += out.bytes;
    m.recorder.reg.counter_add(obs::names::MIGRATIONS, 1);
    m.recorder.reg.observe(obs::names::MIGRATION_BYTES, out.bytes);
    Ok(out)
}

/// Bounded retry with exponential backoff for transient migration
/// failures.
///
/// `max_attempts` counts *total* tries (so 1 disables retrying). Between
/// attempt `i` and `i + 1` the caller is charged
/// `min(base_backoff_ns << (i-1), max_backoff_ns)` of virtual migration
/// time — the cost of the failed kernel call plus the sleep a real retry
/// loop would take. The doubling is exact integer arithmetic (not
/// `f64::powi`), so the backoff sequence is bit-identical on every
/// platform and rounding mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, virtual ns.
    pub base_backoff_ns: u64,
    /// Upper bound on a single backoff step, virtual ns.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_backoff_ns: 20_000, max_backoff_ns: 500_000 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Backoff charged after failed attempt number `attempt` (1-based),
    /// as exact integer doubling capped at `max_backoff_ns`. Saturates
    /// instead of overflowing, so huge attempt numbers pin at the cap.
    pub fn backoff_step_ns(&self, attempt: u32) -> u64 {
        let doublings = attempt.saturating_sub(1);
        let step = if doublings >= 64 {
            u64::MAX
        } else {
            self.base_backoff_ns.saturating_mul(1u64 << doublings)
        };
        step.min(self.max_backoff_ns)
    }

    /// [`RetryPolicy::backoff_step_ns`] in the `f64` domain the clock
    /// charges in. Steps are capped at `max_backoff_ns`, far below
    /// 2^53, so the conversion is exact.
    pub fn backoff_ns(&self, attempt: u32) -> f64 {
        self.backoff_step_ns(attempt) as f64
    }

    /// Worst-case total backoff a single migration can accumulate,
    /// summed in attempt order (the same order the retry loop charges).
    pub fn max_total_backoff_ns(&self) -> f64 {
        (1..self.max_attempts).map(|a| self.backoff_ns(a)).sum()
    }
}

/// What a [`relocate_with_retry`] call went through, success or not.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetryReport {
    /// Attempts made (1 = first try succeeded or failed permanently).
    pub attempts: u32,
    /// Retries after transient failures (`attempts - 1` unless a
    /// permanent error cut the loop short).
    pub retries: u32,
    /// Total virtual backoff accumulated. The caller decides which clock
    /// bucket it lands on (sync callers charge it to migration).
    pub backoff_ns: f64,
}

/// [`relocate_range`] wrapped in bounded retry with exponential backoff.
///
/// Transient errors ([`MigrateError::is_transient`]) are retried up to
/// `policy.max_attempts` total tries; permanent errors return
/// immediately. The accumulated backoff is **not** charged to the machine
/// clock here — it is reported so each caller can put it on the right
/// critical path — but retry counters and the backoff histogram are
/// recorded.
pub fn relocate_with_retry(
    m: &mut Machine,
    range: VaRange,
    dst: ComponentId,
    node: NodeId,
    copy_threads: u32,
    split_huge: bool,
    policy: RetryPolicy,
) -> (Result<MigrateOutcome, MigrateError>, RetryReport) {
    let mut report = RetryReport::default();
    let max_attempts = policy.max_attempts.max(1);
    loop {
        report.attempts += 1;
        match relocate_range(m, range, dst, node, copy_threads, split_huge) {
            Ok(out) => {
                if report.retries > 0 {
                    m.recorder.reg.observe(obs::names::RETRY_BACKOFF_NS, report.backoff_ns as u64);
                    let kind = obs::EventKind::MigrationRetried {
                        retries: report.retries as u64,
                        backoff_ns: report.backoff_ns as u64,
                    };
                    m.record_event(kind);
                }
                return (Ok(out), report);
            }
            Err(e) if e.is_transient() && report.attempts < max_attempts => {
                report.retries += 1;
                report.backoff_ns += policy.backoff_ns(report.attempts);
                m.recorder.reg.counter_add(obs::names::MIGRATION_RETRIES, 1);
            }
            Err(e) => return (Err(e), report),
        }
    }
}

/// The Linux `move_pages()` baseline: sequential 4 KB migration with every
/// step exposed on the critical path.
///
/// Huge mappings are split to 4 KB first (the syscall operates on base
/// pages). Charges the full cost to the machine's migration bucket and
/// returns the outcome.
pub fn move_pages_linux(
    m: &mut Machine,
    range: VaRange,
    dst: ComponentId,
    node: NodeId,
) -> Result<MigrateOutcome, MigrateError> {
    let out = relocate_range(m, range, dst, node, 1, true)?;
    m.charge_migration(out.breakdown.total_ns());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{VirtAddr, PAGE_SIZE_2M};
    use crate::machine::{AccessKind, MachineConfig};
    use crate::tier::tiny_two_tier;

    fn machine() -> Machine {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("a", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
        m
    }

    #[test]
    fn relocation_moves_pages_and_preserves_versions() {
        let mut m = machine();
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[0]).unwrap();
        m.access(0, VirtAddr(0x1000), AccessKind::Write);
        m.access(0, VirtAddr(0x1000), AccessKind::Write);
        let out = relocate_range(&mut m, range, 1, 0, 1, false).unwrap();
        assert_eq!(out.pages, 512);
        assert_eq!(out.bytes, PAGE_SIZE_2M);
        assert_eq!(m.component_of(VirtAddr(0x1000)), Some(1));
        // The moved frame carries the two writes.
        let t = m.page_table().translate(VirtAddr(0x1000)).unwrap();
        assert_eq!(m.versions.get(t.pte.frame()), 2);
        // Source space is reclaimed.
        assert_eq!(m.allocator(0).used(), 0);
        assert_eq!(m.allocator(1).used(), PAGE_SIZE_2M);
    }

    #[test]
    fn huge_mapping_moves_whole() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("thp", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), true);
        m.prefault_range(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), &[0]).unwrap();
        let out = relocate_range(&mut m, VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), 1, 0, 1, false).unwrap();
        assert_eq!(out.pages, 1, "huge page moved as one unit");
        let t = m.page_table().translate(VirtAddr(0)).unwrap();
        assert!(t.pte.huge());
        assert_eq!(t.pte.frame().component(), 1);
    }

    #[test]
    fn move_pages_splits_huge_and_charges() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("thp", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), true);
        m.prefault_range(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), &[0]).unwrap();
        let out = move_pages_linux(&mut m, VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), 1, 0).unwrap();
        assert_eq!(out.pages, 512, "THP split into base pages");
        assert!(m.breakdown().migration_ns > 0.0);
        assert_eq!(m.breakdown().migration_ns, out.breakdown.total_ns());
    }

    #[test]
    fn relocation_rejects_when_destination_full() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 2 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("a", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
        m.prefault_range(VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M), &[0]).unwrap();
        let err = relocate_range(&mut m, VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M), 1, 0, 1, false);
        assert!(matches!(err, Err(MigrateError::NoSpace(_))));
        // Nothing was moved.
        assert_eq!(m.allocator(1).used(), 0);
        assert_eq!(m.stats().pages_migrated, 0);
    }

    #[test]
    fn already_resident_pages_are_skipped() {
        let mut m = machine();
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[1]).unwrap();
        let err = relocate_range(&mut m, range, 1, 0, 1, false);
        assert!(matches!(err, Err(MigrateError::NothingMapped)), "no page needed moving");
    }

    #[test]
    fn thp_splits_when_destination_lacks_huge_frames() {
        // Destination has bytes free only as scattered 4 KB frames.
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 2 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("thp", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), true);
        m.prefault_range(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), &[0]).unwrap();
        // Fragment the destination: allocate one 4 KB frame from each of
        // its two blocks, then free one block's worth minus a page.
        let a = m.allocators_mut_for_test(1).alloc(FrameSize::Base4K).unwrap();
        let _b = m.allocators_mut_for_test(1).alloc(FrameSize::Huge2M).unwrap();
        m.allocators_mut_for_test(1).free_frame(a, FrameSize::Base4K);
        // No huge frame is available (one block is carved, one is taken),
        // but 4 KB frames are: the huge mapping must split and move.
        let out = relocate_range(&mut m, VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), 1, 0, 1, false)
            .unwrap();
        assert_eq!(out.pages, 512, "moved as base pages after the split");
        let t = m.page_table().translate(VirtAddr(0)).unwrap();
        assert_eq!(t.size, FrameSize::Base4K);
        assert_eq!(t.pte.frame().component(), 1);
    }

    #[test]
    fn parallel_copy_is_faster() {
        let m = machine();
        let one = copy_cost_ns(&m, 0, 0, 1, PAGE_SIZE_2M, 1);
        let four = copy_cost_ns(&m, 0, 0, 1, PAGE_SIZE_2M, 4);
        assert!(four < one, "parallel copy reduces cost ({four} !< {one})");
    }

    #[test]
    fn slow_link_caps_copy_bandwidth() {
        let m = machine();
        // Slow tier link is 5 GB/s; even 8 threads cannot exceed it.
        let bw = copy_bandwidth(&m, 0, 0, 1, 8);
        assert!((bw - 5.0).abs() < 1e-9);
    }

    #[test]
    fn default_backoff_sequence_is_pinned() {
        // The default policy's charged sequence: 20 µs, 40 µs, 80 µs …
        // capped at 500 µs. Committed goldens depend on these exact
        // values, so pin them.
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_step_ns(1), 20_000);
        assert_eq!(p.backoff_step_ns(2), 40_000);
        assert_eq!(p.backoff_step_ns(3), 80_000);
        assert_eq!(p.backoff_step_ns(6), 500_000, "capped at max_backoff_ns");
        assert_eq!(p.backoff_step_ns(u32::MAX), 500_000, "doubling saturates, never wraps");
        assert_eq!(p.max_total_backoff_ns(), 140_000.0);
    }

    #[test]
    fn migrate_error_display_and_error_trait() {
        let busy = MigrateError::PageBusy;
        let alloc = MigrateError::TransientAllocFail;
        let mapped = MigrateError::NothingMapped;
        assert_eq!(busy.to_string(), "migration failed: page transiently busy/pinned");
        assert_eq!(
            alloc.to_string(),
            "migration failed: transient destination allocation failure"
        );
        assert_eq!(mapped.to_string(), "migration failed: no mapped pages in range");
        assert!(busy.is_transient() && alloc.is_transient());
        assert!(!mapped.is_transient());
        // The enum is a real std error: it coerces to `dyn Error` and the
        // trait's Display passthrough matches.
        let boxed: Box<dyn std::error::Error> = Box::new(busy);
        assert_eq!(boxed.to_string(), busy.to_string());
    }

    /// A seed whose first `page_busy` roll fires and whose second does
    /// not, so a retry test has exactly one deterministic failure.
    fn seed_with_one_busy_then_clear(plan: &faultsim::FaultPlan) -> u64 {
        (0..10_000u64)
            .find(|&s| {
                let mut probe = faultsim::FaultState::new(plan.clone(), s);
                probe.page_busy() && !probe.page_busy()
            })
            .expect("some seed fails once then clears")
    }

    #[test]
    fn injected_fault_is_transactional_and_retry_recovers() {
        let plan = faultsim::FaultPlan::parse("busy=0.5").unwrap();
        let seed = seed_with_one_busy_then_clear(&plan);
        let mut m = machine();
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[0]).unwrap();
        m.install_faults(plan, seed);
        let policy = RetryPolicy::default();
        let (res, report) = relocate_with_retry(&mut m, range, 1, 0, 1, false, policy);
        let out = res.expect("second attempt succeeds");
        assert_eq!(out.pages, 512);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.retries, 1);
        assert_eq!(report.backoff_ns, policy.backoff_ns(1));
        // The failed attempt was transactional: no leaked destination
        // frames, exactly one region's worth ends up resident.
        assert_eq!(m.allocator(1).used(), PAGE_SIZE_2M);
        assert_eq!(m.allocator(0).used(), 0);
        assert_eq!(m.recorder.reg.counter(obs::names::MIGRATION_RETRIES), 1);
        assert_eq!(m.recorder.reg.counter(obs::names::FAULT_PAGE_BUSY), 1);
    }

    #[test]
    fn retry_exhaustion_respects_attempt_bound() {
        let plan = faultsim::FaultPlan::parse("busy=1").unwrap();
        let mut m = machine();
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[0]).unwrap();
        m.install_faults(plan, 7);
        let policy = RetryPolicy::default();
        let (res, report) = relocate_with_retry(&mut m, range, 1, 0, 1, false, policy);
        assert!(matches!(res, Err(MigrateError::PageBusy)));
        assert_eq!(report.attempts, policy.max_attempts);
        assert_eq!(report.retries, policy.max_attempts - 1);
        assert_eq!(report.backoff_ns, policy.max_total_backoff_ns());
        // All attempts aborted before touching the machine.
        assert_eq!(m.allocator(1).used(), 0);
        assert_eq!(m.stats().pages_migrated, 0);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 2 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("a", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
        m.prefault_range(VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M), &[0]).unwrap();
        let (res, report) = relocate_with_retry(
            &mut m,
            VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M),
            1,
            0,
            1,
            false,
            RetryPolicy::default(),
        );
        assert!(matches!(res, Err(MigrateError::NoSpace(_))));
        assert_eq!(report.attempts, 1, "NoSpace is permanent: no retry");
        assert_eq!(report.retries, 0);
        assert_eq!(report.backoff_ns, 0.0);
    }

    #[test]
    fn thp_split_fallback_survives_a_transient_failure() {
        // The fragmented-destination THP scenario, now with one injected
        // transient failure in front: the retry must still find the
        // split-and-move fallback.
        let plan = faultsim::FaultPlan::parse("busy=0.5").unwrap();
        let seed = seed_with_one_busy_then_clear(&plan);
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 2 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("thp", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), true);
        m.prefault_range(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), &[0]).unwrap();
        let a = m.allocators_mut_for_test(1).alloc(FrameSize::Base4K).unwrap();
        let _b = m.allocators_mut_for_test(1).alloc(FrameSize::Huge2M).unwrap();
        m.allocators_mut_for_test(1).free_frame(a, FrameSize::Base4K);
        m.install_faults(plan, seed);
        let (res, report) = relocate_with_retry(
            &mut m,
            VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M),
            1,
            0,
            1,
            false,
            RetryPolicy::default(),
        );
        let out = res.expect("retry then split-and-move");
        assert_eq!(report.retries, 1);
        assert_eq!(out.pages, 512, "moved as base pages after the split");
        let t = m.page_table().translate(VirtAddr(0)).unwrap();
        assert_eq!(t.size, FrameSize::Base4K);
        assert_eq!(t.pte.frame().component(), 1);
    }

    #[test]
    fn shadow_demotion_retains_and_clean_rehit_copies_nothing() {
        let mut m = machine();
        m.set_checking(true);
        m.set_shadow_mode(true);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[0]).unwrap();
        // Demote: the source frames stay allocated as a shadow copy.
        let out = relocate_range(&mut m, range, 1, 0, 1, false).unwrap();
        assert_eq!(out.bytes, PAGE_SIZE_2M);
        assert_eq!(out.shadow_hit_bytes, 0);
        assert_eq!(m.component_of(VirtAddr(0)), Some(1));
        assert_eq!(m.shadow_bytes(0), PAGE_SIZE_2M, "demoted frames retained on fast tier");
        assert_eq!(m.allocator(0).used(), PAGE_SIZE_2M);
        assert_eq!(m.shadow_entries(), 1);
        // Repromote without any intervening write: the clean shadow copy
        // is remapped with zero allocation and zero copy traffic.
        let back = relocate_range(&mut m, range, 0, 0, 1, false).unwrap();
        assert_eq!(back.bytes, PAGE_SIZE_2M);
        assert_eq!(back.shadow_hit_bytes, PAGE_SIZE_2M);
        assert_eq!(back.breakdown.copy_ns, 0.0, "no bytes crossed the interconnect");
        assert_eq!(back.breakdown.alloc_ns, 0.0, "no frame was allocated");
        assert!(back.breakdown.remap_ns > 0.0, "remapping is still charged");
        assert_eq!(m.component_of(VirtAddr(0)), Some(0));
        assert_eq!(m.shadow_total_bytes(), 0, "consumed entry is gone");
        assert_eq!(m.allocator(1).used(), 0, "slow-tier copy was freed");
        assert_eq!(m.recorder.reg.counter(obs::names::SHADOW_HITS), 1);
        assert_eq!(m.recorder.reg.counter(obs::names::SHADOW_HIT_BYTES), PAGE_SIZE_2M);
    }

    #[test]
    fn shadow_write_after_demotion_invalidates_the_copy() {
        let mut m = machine();
        m.set_checking(true);
        m.set_shadow_mode(true);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[0]).unwrap();
        relocate_range(&mut m, range, 1, 0, 1, false).unwrap();
        // A write to the demoted page makes the retained copy stale.
        m.access(0, VirtAddr(0x1000), AccessKind::Write);
        let back = relocate_range(&mut m, range, 0, 0, 1, false).unwrap();
        assert_eq!(back.shadow_hit_bytes, 0, "stale copy must not be reused");
        assert!(back.breakdown.copy_ns > 0.0, "a real copy was paid for");
        assert_eq!(m.shadow_total_bytes(), 0, "stale entry was dropped");
        assert_eq!(m.component_of(VirtAddr(0x1000)), Some(0));
        // The write that landed while demoted travelled with the page.
        let t = m.page_table().translate(VirtAddr(0x1000)).unwrap();
        assert_eq!(m.versions.get(t.pte.frame()), 1);
        assert_eq!(m.recorder.reg.counter(obs::names::SHADOW_INVALIDATIONS), 1);
        assert_eq!(m.allocator(1).used(), 0);
        assert_eq!(m.allocator(0).used(), PAGE_SIZE_2M);
    }

    #[test]
    fn shadow_space_is_reclaimed_under_allocation_pressure() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.set_checking(true);
        m.set_shadow_mode(true);
        m.mmap("a", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
        let a = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        let b = VaRange::from_len(VirtAddr(PAGE_SIZE_2M), PAGE_SIZE_2M);
        let c = VaRange::from_len(VirtAddr(2 * PAGE_SIZE_2M), PAGE_SIZE_2M);
        m.prefault_range(a, &[0]).unwrap();
        m.prefault_range(b, &[1]).unwrap();
        m.prefault_range(c, &[1]).unwrap();
        // Demote `a`: its fast-tier frames linger as a shadow copy.
        relocate_range(&mut m, a, 1, 0, 1, false).unwrap();
        assert_eq!(m.shadow_bytes(0), PAGE_SIZE_2M);
        // Promote `b`: fits in the remaining free space, shadow survives.
        relocate_range(&mut m, b, 0, 0, 1, false).unwrap();
        assert_eq!(m.shadow_bytes(0), PAGE_SIZE_2M);
        assert_eq!(m.allocator(0).free(), 0);
        // Promote `c`: the fast tier is exhausted, so shadow space is
        // reclaimed to make room instead of failing with NoSpace.
        relocate_range(&mut m, c, 0, 0, 1, false).unwrap();
        assert_eq!(m.shadow_total_bytes(), 0, "shadow yielded to live data");
        assert_eq!(m.component_of(VirtAddr(2 * PAGE_SIZE_2M)), Some(0));
        assert_eq!(m.allocator(0).used(), 2 * PAGE_SIZE_2M);
    }

    #[test]
    fn shadow_huge_page_roundtrip_reuses_the_retained_frame() {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.set_checking(true);
        m.set_shadow_mode(true);
        m.mmap("thp", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), true);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        m.prefault_range(range, &[0]).unwrap();
        relocate_range(&mut m, range, 1, 0, 1, false).unwrap();
        assert_eq!(m.shadow_bytes(0), PAGE_SIZE_2M);
        let back = relocate_range(&mut m, range, 0, 0, 1, false).unwrap();
        assert_eq!(back.pages, 1, "huge page rehit as one unit");
        assert_eq!(back.shadow_hit_bytes, PAGE_SIZE_2M);
        let t = m.page_table().translate(VirtAddr(0)).unwrap();
        assert!(t.pte.huge());
        assert_eq!(t.pte.frame().component(), 0);
    }
}
