//! Shadow-state sanitizer for the simulated machine (`MTM_CHECK=1`).
//!
//! Migration bugs in a tiered-memory simulator are silent: a lost page, a
//! leaked frame or a double-counted byte skews a report without crashing
//! anything, and the scattered regression tests only catch the failure
//! modes someone already imagined. This crate is the runtime analogue of
//! Miri's interpreter checks and HeMem's debug accounting: a dependency-
//! free shadow model of "which virtual page lives on which frame of which
//! tier" plus census checks that the authoritative structures (page table,
//! per-component frame allocators, observability counters and event ring)
//! agree with each other.
//!
//! The sanitizer is **observation-only**. It never touches the virtual
//! clock, any counter or any RNG, so a checked run produces byte-identical
//! reports to an unchecked one — it can only panic, with a structured
//! diff of shadow vs. actual state, when an invariant is broken.
//!
//! `tiersim::Machine` owns the hooks (see `Machine::verify_consistency`);
//! this crate holds the model and the verdicts so the logic stays testable
//! without a machine. Nothing here reads the environment: a machine is
//! armed with `Machine::set_checking`, which the harness calls under
//! `MTM_CHECK=1`.

use std::collections::BTreeMap;

/// Shadow record of one mapped page: where the page table says it lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowPage {
    /// Memory component (tier) backing the page.
    pub component: u16,
    /// Frame offset within the component.
    pub frame_offset: u64,
    /// Mapping granularity in bytes (4 KB or 2 MB).
    pub bytes: u64,
}

/// A snapshot of the mapped state of an address range: virtual page base
/// -> shadow record. Ordered so diffs and censuses are deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShadowState {
    /// Mapped pages keyed by virtual base address.
    pub pages: BTreeMap<u64, ShadowPage>,
}

impl ShadowState {
    /// An empty snapshot.
    pub fn new() -> ShadowState {
        ShadowState::default()
    }

    /// Records one mapped page.
    pub fn insert(&mut self, va: u64, page: ShadowPage) {
        self.pages.insert(va, page);
    }

    /// Total mapped bytes in the snapshot.
    pub fn total_bytes(&self) -> u64 {
        self.pages.values().map(|p| p.bytes).sum()
    }

    /// Mapped bytes resident on `component`.
    pub fn bytes_on(&self, component: u16) -> u64 {
        self.pages.values().filter(|p| p.component == component).map(|p| p.bytes).sum()
    }

    /// Mapped bytes per component, ordered by component id.
    pub fn bytes_by_component(&self) -> BTreeMap<u16, u64> {
        let mut out = BTreeMap::new();
        for p in self.pages.values() {
            *out.entry(p.component).or_insert(0) += p.bytes;
        }
        out
    }

    /// Structural diff against a later snapshot of the same range: one
    /// line per page that appeared, vanished, or changed placement or
    /// granularity. Empty iff the two snapshots are identical.
    pub fn diff(&self, after: &ShadowState) -> Vec<String> {
        let mut out = Vec::new();
        for (&va, pre) in &self.pages {
            match after.pages.get(&va) {
                None => out.push(format!(
                    "page {va:#x}: mapped before (component {}, frame {:#x}, {} B) but gone after",
                    pre.component, pre.frame_offset, pre.bytes
                )),
                Some(post) if post != pre => out.push(format!(
                    "page {va:#x}: component {} frame {:#x} ({} B) -> component {} frame {:#x} ({} B)",
                    pre.component, pre.frame_offset, pre.bytes,
                    post.component, post.frame_offset, post.bytes
                )),
                Some(_) => {}
            }
        }
        for (&va, post) in &after.pages {
            if !self.pages.contains_key(&va) {
                out.push(format!(
                    "page {va:#x}: unmapped before but mapped after (component {}, frame {:#x}, {} B)",
                    post.component, post.frame_offset, post.bytes
                ));
            }
        }
        out
    }

    /// Placement diff: per-component byte totals only. Insensitive to THP
    /// splits (which change granularity but move no bytes), so it is the
    /// right invariant for aborts that may legitimately have split a
    /// mapping before failing.
    pub fn placement_diff(&self, after: &ShadowState) -> Vec<String> {
        let pre = self.bytes_by_component();
        let post = after.bytes_by_component();
        let mut out = Vec::new();
        let components: std::collections::BTreeSet<u16> =
            pre.keys().chain(post.keys()).copied().collect();
        for c in components {
            let a = pre.get(&c).copied().unwrap_or(0);
            let b = post.get(&c).copied().unwrap_or(0);
            if a != b {
                out.push(format!("component {c}: {a} B mapped before vs {b} B after"));
            }
        }
        out
    }
}

/// One component's occupancy as seen by the two authorities that must
/// agree: the page-table census and the frame allocator.
#[derive(Clone, Copy, Debug)]
pub struct CensusRow {
    /// Component id.
    pub component: u16,
    /// Bytes mapped onto this component per the page-table walk.
    pub mapped_bytes: u64,
    /// Bytes the component's allocator reports as allocated.
    pub allocator_used: u64,
    /// The allocator's capacity.
    pub capacity: u64,
}

/// Verifies tier occupancy: every component's allocator-used bytes must
/// equal the frame-map census, and neither may exceed capacity.
pub fn check_census(rows: &[CensusRow]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if r.mapped_bytes != r.allocator_used {
            out.push(format!(
                "component {} occupancy drift: page-table census maps {} B but allocator reports {} B used ({} B capacity)",
                r.component, r.mapped_bytes, r.allocator_used, r.capacity
            ));
        }
        if r.allocator_used > r.capacity {
            out.push(format!(
                "component {} over capacity: {} B used of {} B",
                r.component, r.allocator_used, r.capacity
            ));
        }
    }
    out
}

/// Verifies that no physical frame backs two live mappings: `spans` is
/// one `(component, frame_start, frame_end, va)` entry per mapped page.
/// Sorted sweep; overlap means a page was duplicated or a frame leaked
/// back into the allocator while still mapped.
pub fn check_frame_overlap(spans: &mut Vec<(u16, u64, u64, u64)>) -> Vec<String> {
    spans.sort_unstable();
    let mut out = Vec::new();
    for w in spans.windows(2) {
        let (c0, s0, e0, va0) = w[0];
        let (c1, s1, _e1, va1) = w[1];
        if c0 == c1 && s1 < e0 {
            out.push(format!(
                "frame overlap on component {c0}: va {va0:#x} holds [{s0:#x}, {e0:#x}) and va {va1:#x} starts at {s1:#x}"
            ));
        }
    }
    out
}

/// One counter that must agree with the number of matching events in the
/// bounded ring. When the ring never overflowed the relation is exact;
/// once events were shed the retained count is only a lower bound.
#[derive(Clone, Copy, Debug)]
pub struct CounterEventPair {
    /// Counter name (for the violation message).
    pub name: &'static str,
    /// The counter's value.
    pub counter: u64,
    /// Matching events retained in the ring.
    pub events: u64,
}

/// Verifies counter/ring consistency given how many events the ring shed.
pub fn check_counter_events(pairs: &[CounterEventPair], ring_dropped: u64) -> Vec<String> {
    let mut out = Vec::new();
    for p in pairs {
        let consistent = if ring_dropped == 0 { p.counter == p.events } else { p.counter >= p.events };
        if !consistent {
            out.push(format!(
                "counter/ring drift for {}: counter={} vs {} ring event(s) (ring dropped {})",
                p.name, p.counter, p.events, ring_dropped
            ));
        }
    }
    out
}

/// Panics with a structured report of every violation. `context` names
/// the check point (e.g. `relocate_range commit`, `interval boundary`).
pub fn fail(context: &str, violations: &[String]) -> ! {
    let mut msg = format!(
        "MTM_CHECK violation at {context}: {} invariant(s) broken\n",
        violations.len()
    );
    for v in violations {
        msg.push_str("  - ");
        msg.push_str(v);
        msg.push('\n');
    }
    // lint:allow(panic-path): aborting on a broken invariant is this crate's entire contract
    panic!("{msg}");
}

/// Panics via [`fail`] iff `violations` is non-empty.
pub fn assert_clean(context: &str, violations: Vec<String>) {
    if !violations.is_empty() {
        fail(context, &violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(component: u16, frame_offset: u64, bytes: u64) -> ShadowPage {
        ShadowPage { component, frame_offset, bytes }
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let mut a = ShadowState::new();
        a.insert(0x1000, page(0, 0x4000, 4096));
        let b = a.clone();
        assert!(a.diff(&b).is_empty());
        assert!(a.placement_diff(&b).is_empty());
    }

    #[test]
    fn moved_page_shows_in_diff() {
        let mut a = ShadowState::new();
        a.insert(0x1000, page(0, 0x4000, 4096));
        let mut b = ShadowState::new();
        b.insert(0x1000, page(1, 0x0, 4096));
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("component 0") && d[0].contains("component 1"), "{d:?}");
        let p = a.placement_diff(&b);
        assert_eq!(p.len(), 2, "both components' totals changed: {p:?}");
    }

    #[test]
    fn lost_and_duplicated_pages_show_in_diff() {
        let mut a = ShadowState::new();
        a.insert(0x1000, page(0, 0x4000, 4096));
        let mut b = ShadowState::new();
        b.insert(0x2000, page(0, 0x5000, 4096));
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|l| l.contains("gone after")));
        assert!(d.iter().any(|l| l.contains("unmapped before")));
    }

    #[test]
    fn split_is_placement_neutral() {
        // 2 MB huge page vs the same bytes as 512 base pages: structural
        // diff fires, placement diff must not.
        let mut huge = ShadowState::new();
        huge.insert(0, page(2, 0, 2 << 20));
        let mut split = ShadowState::new();
        for i in 0..512u64 {
            split.insert(i * 4096, page(2, i * 4096, 4096));
        }
        assert!(!huge.diff(&split).is_empty());
        assert!(huge.placement_diff(&split).is_empty());
        assert_eq!(huge.total_bytes(), split.total_bytes());
        assert_eq!(huge.bytes_on(2), split.bytes_on(2));
    }

    #[test]
    fn census_catches_drift_and_overflow() {
        let ok = CensusRow { component: 0, mapped_bytes: 8192, allocator_used: 8192, capacity: 1 << 21 };
        assert!(check_census(&[ok]).is_empty());
        let drift = CensusRow { component: 1, mapped_bytes: 4096, allocator_used: 8192, capacity: 1 << 21 };
        let v = check_census(&[drift]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("occupancy drift"), "{v:?}");
        let over = CensusRow { component: 2, mapped_bytes: 1 << 22, allocator_used: 1 << 22, capacity: 1 << 21 };
        assert!(check_census(&[over]).iter().any(|l| l.contains("over capacity")));
    }

    #[test]
    fn overlap_detected_within_component_only() {
        let mut clean = vec![(0u16, 0u64, 4096u64, 0u64), (0, 4096, 8192, 0x1000), (1, 0, 4096, 0x2000)];
        assert!(check_frame_overlap(&mut clean).is_empty());
        let mut dup = vec![(0u16, 0u64, 4096u64, 0u64), (0, 0, 4096, 0x9000)];
        let v = check_frame_overlap(&mut dup);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("frame overlap"), "{v:?}");
        // Same offsets on different components do not overlap.
        let mut cross = vec![(0u16, 0u64, 4096u64, 0u64), (1, 0, 4096, 0x1000)];
        assert!(check_frame_overlap(&mut cross).is_empty());
    }

    #[test]
    fn counter_ring_exact_until_ring_drops() {
        let pair = CounterEventPair { name: "x", counter: 3, events: 2 };
        assert_eq!(check_counter_events(&[pair], 0).len(), 1);
        // With shed history the counter may exceed the retained events...
        assert!(check_counter_events(&[pair], 5).is_empty());
        // ...but never undershoot them.
        let under = CounterEventPair { name: "y", counter: 1, events: 2 };
        assert_eq!(check_counter_events(&[under], 5).len(), 1);
    }

    #[test]
    fn fail_panics_with_structured_report() {
        let err = std::panic::catch_unwind(|| {
            fail("unit test", &["component 0 occupancy drift: 1 vs 2".to_string()]);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic payload is a String");
        assert!(msg.contains("MTM_CHECK violation at unit test"), "{msg}");
        assert!(msg.contains("1 invariant(s) broken"), "{msg}");
        assert!(msg.contains("occupancy drift"), "{msg}");
    }

    #[test]
    fn assert_clean_is_silent_on_empty() {
        assert_clean("unit test", Vec::new());
    }
}
