//! Per-component access counters (the simulated "Intel PCM" view).
//!
//! Counts application loads and stores per memory component, excluding
//! traffic generated by page migration — the methodology the paper uses for
//! Table 6 ("exclude memory accesses caused by page migration").

/// Access counters for every memory component.
///
/// The per-access path does one increment: `counts[component]` holds
/// `[loads, stores]` indexed by `is_write`. Window counts are derived as
/// `total - snapshot`, where the snapshot is the totals at the last
/// [`Counters::reset_window`] — exact in integers, so a window reads the
/// same as a separately incremented counter would.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    counts: Vec<[u64; 2]>,
    /// Totals at the last window reset.
    snapshot: Vec<[u64; 2]>,
}

/// A snapshot of one component's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentCounts {
    /// Number of load accesses.
    pub loads: u64,
    /// Number of store accesses.
    pub stores: u64,
}

impl ComponentCounts {
    /// Loads plus stores.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }
}

impl Counters {
    /// Creates counters for `components` memory components.
    pub fn new(components: usize) -> Counters {
        Counters { counts: vec![[0; 2]; components], snapshot: vec![[0; 2]; components] }
    }

    /// Records one application access.
    #[inline]
    pub fn record(&mut self, component: u16, is_write: bool) {
        self.counts[component as usize][is_write as usize] += 1;
    }

    /// Cumulative counts for one component.
    pub fn component(&self, component: u16) -> ComponentCounts {
        let [loads, stores] = self.counts[component as usize];
        ComponentCounts { loads, stores }
    }

    /// Cumulative counts for all components.
    pub fn all(&self) -> Vec<ComponentCounts> {
        self.counts.iter().map(|&[loads, stores]| ComponentCounts { loads, stores }).collect()
    }

    /// Total accesses across all components.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&[l, s]| l + s).sum()
    }

    /// Counts accumulated since the last [`Counters::reset_window`].
    pub fn window(&self, component: u16) -> ComponentCounts {
        let c = component as usize;
        let ([loads, stores], [l0, s0]) = (self.counts[c], self.snapshot[c]);
        ComponentCounts { loads: loads - l0, stores: stores - s0 }
    }

    /// Restarts the window at the current totals (totals are unaffected).
    pub fn reset_window(&mut self) {
        self.snapshot.copy_from_slice(&self.counts);
    }

    /// Serializes the counters: component count,
    /// then loads, stores, window loads and window stores per component
    /// (the window values derived from the snapshot).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.counts.len() as u64);
        for field in 0..2 {
            for c in &self.counts {
                w.varint(c[field]);
            }
        }
        for field in 0..2 {
            for (c, s) in self.counts.iter().zip(&self.snapshot) {
                w.varint(c[field] - s[field]);
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_kind() {
        let mut c = Counters::new(2);
        c.record(0, false);
        c.record(0, true);
        c.record(1, true);
        assert_eq!(c.component(0), ComponentCounts { loads: 1, stores: 1 });
        assert_eq!(c.component(1), ComponentCounts { loads: 0, stores: 1 });
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn window_resets_independently() {
        let mut c = Counters::new(1);
        c.record(0, false);
        c.reset_window();
        c.record(0, false);
        assert_eq!(c.window(0).loads, 1);
        assert_eq!(c.component(0).loads, 2);
    }
}
