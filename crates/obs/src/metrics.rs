//! Static-registry metrics: counters, gauges, log-scaled histograms and
//! virtual-time span timers.
//!
//! Metric names are `&'static str` constants declared once in [`names`],
//! so the set of metrics is closed at compile time and every emitter and
//! consumer agrees on spelling. Values live in a per-run [`Registry`]
//! (deterministic, keyed by a `BTreeMap` so snapshots serialize in a
//! stable order); nothing here is process-wide.

use std::collections::BTreeMap;

/// Every metric name used across the workspace, in one place.
pub mod names {
    // -- per-run counters: simulated machine ----------------------------
    /// First-touch allocation faults.
    pub const ALLOC_FAULTS: &str = "alloc_faults";
    /// NUMA hint faults taken.
    pub const HINT_FAULTS: &str = "hint_faults";
    /// Protection faults (HMC front-buffer style managers).
    pub const PROT_FAULTS: &str = "prot_faults";
    /// Write-protection faults (async-migration dirty tracking).
    pub const WP_FAULTS: &str = "wp_faults";
    /// PTE accessed-bit scans performed.
    pub const PTE_SCANS: &str = "pte_scans";
    /// TLB shootdowns issued.
    pub const TLB_FLUSHES: &str = "tlb_flushes";
    /// Pages moved between components (huge pages count once).
    pub const PAGES_MIGRATED: &str = "pages_migrated";
    /// Bytes moved between components.
    pub const BYTES_MIGRATED: &str = "bytes_migrated";
    /// Successful `relocate_range` calls.
    pub const MIGRATIONS: &str = "migrations";
    /// PEBS samples taken by the sampling unit (buffered or dropped).
    pub const PEBS_SAMPLES_TAKEN: &str = "pebs_samples_taken";
    /// PEBS samples lost to buffer overflow.
    pub const PEBS_SAMPLES_DROPPED: &str = "pebs_samples_dropped";
    /// PEBS samples delivered to a consumer via drain.
    pub const PEBS_SAMPLES_DRAINED: &str = "pebs_samples_drained";
    /// Hint-fault records delivered to a consumer via drain.
    pub const HINT_FAULTS_DRAINED: &str = "hint_faults_drained";

    // -- per-run counters: profiler / policy / migration decisions ------
    /// Regions merged away by the merge pass.
    pub const REGIONS_MERGED: &str = "regions_merged";
    /// Regions created by the split pass.
    pub const REGIONS_SPLIT: &str = "regions_split";
    /// Intervals in which τm was escalated above its configured base.
    pub const TAU_M_ESCALATIONS: &str = "tau_m_escalations";
    /// Quota redistributions after merges freed sampling budget.
    pub const QUOTA_REDISTRIBUTIONS: &str = "quota_redistributions";
    /// Region splits forced by counter-assisted (PEBS) zooming.
    pub const PEBS_ZOOM_SPLITS: &str = "pebs_zoom_splits";
    /// Promotion migrations issued by a policy.
    pub const PROMOTIONS: &str = "promotions";
    /// Bytes promoted toward faster tiers.
    pub const PROMOTED_BYTES: &str = "promoted_bytes";
    /// Demotion migrations issued by a policy.
    pub const DEMOTIONS: &str = "demotions";
    /// Bytes demoted toward slower tiers.
    pub const DEMOTED_BYTES: &str = "demoted_bytes";
    /// Async migrations that completed without a dirtying write.
    pub const ASYNC_CLEAN: &str = "migrations_async_clean";
    /// Async migrations switched to a synchronous re-copy by a write.
    pub const SWITCHED_SYNC: &str = "migrations_switched_sync";
    /// Migrations executed synchronously from the start.
    pub const SYNC_DIRECT: &str = "migrations_sync_direct";
    /// Migrations dropped (no space, empty range, lost watch).
    pub const MIGRATIONS_DROPPED: &str = "migrations_dropped";

    // -- per-run counters: fault injection & resilience ------------------
    /// Migration attempts failed with an injected transient page-busy.
    pub const FAULT_PAGE_BUSY: &str = "fault_page_busy_injected";
    /// Migration attempts failed with an injected transient alloc failure.
    pub const FAULT_ALLOC_FAIL: &str = "fault_alloc_fail_injected";
    /// PEBS samples lost to injected drain drops.
    pub const FAULT_PEBS_LOST: &str = "fault_pebs_samples_lost";
    /// Hint-fault records lost to injected drain drops.
    pub const FAULT_HINTS_LOST: &str = "fault_hint_faults_lost";
    /// Migration attempts re-issued after a transient failure.
    pub const MIGRATION_RETRIES: &str = "migration_retries";
    /// Async migrations aborted transactionally and re-enqueued.
    pub const MIGRATION_ABORTS: &str = "migrations_aborted";
    /// Sync migrations downgraded to async after retry exhaustion.
    pub const MIGRATION_DEFERRALS: &str = "migrations_deferred";
    /// Migrations dropped after exhausting every resilience mechanism.
    pub const MIGRATIONS_DROPPED_TRANSIENT: &str = "migrations_dropped_transient";

    // -- per-run counters: admission control ----------------------------
    /// Candidate batches rejected by the admission policy.
    pub const ADMIT_REJECTED: &str = "admit_rejected";
    /// Bytes in candidate batches rejected by the admission policy.
    pub const ADMIT_REJECTED_BYTES: &str = "admit_rejected_bytes";
    /// Bytes copied for pages that had bounced between tiers recently.
    pub const WASTED_MIGRATION_BYTES: &str = "wasted_migration_bytes";

    // -- per-run gauges --------------------------------------------------
    /// τm at the end of the run (after any escalation/reset).
    pub const TAU_M_NOW: &str = "tau_m_now";
    /// Region count at the end of the run.
    pub const REGION_COUNT: &str = "region_count";
    /// Planned samples (num_ps, Eq. 1) for the last interval.
    pub const LAST_NUM_PS: &str = "last_num_ps";
    /// Peak number of simultaneously poisoned hint-fault PTEs.
    pub const HINT_POISONED_PEAK: &str = "hint_poisoned_peak";

    // -- per-run histograms ----------------------------------------------
    /// Bytes per successful range relocation.
    pub const MIGRATION_BYTES: &str = "migration_bytes";
    /// Samples per PEBS drain.
    pub const PEBS_DRAIN_BATCH: &str = "pebs_drain_batch";
    /// Records per hint-fault drain.
    pub const HINT_DRAIN_BATCH: &str = "hint_drain_batch";
    /// Virtual ns of backoff charged per retried migration.
    pub const RETRY_BACKOFF_NS: &str = "retry_backoff_ns";
    /// Virtual ns of profiling work per manager interval hook.
    pub const SPAN_PROFILE_NS: &str = "span_profile_ns";
    /// Virtual ns of migration work per manager interval hook.
    pub const SPAN_MIGRATE_NS: &str = "span_migrate_ns";
}

/// A log-scaled histogram over `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `b > 0` holds values in
/// `[2^(b-1), 2^b)` — the same power-of-two bucketing style as the bench
/// harness's latency statistics, but accumulated online.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(v: u64) -> usize {
        match v {
            0 => 0,
            _ => v.ilog2() as usize + 1,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Occupied buckets as `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Serializes the raw accumulator state (buckets verbatim, including
    /// the `u64::MAX` empty-min sentinel) into `w`.
    pub fn save(&self, w: &mut crate::wire::Writer) {
        for &b in &self.buckets {
            w.varint(b);
        }
        w.varint(self.count);
        w.varint(self.sum);
        w.u64(self.min);
        w.u64(self.max);
    }

}

/// A deterministic per-run metrics registry.
///
/// All maps are `BTreeMap<&'static str, _>`: iteration (and therefore
/// JSON serialization) order is the lexicographic name order, independent
/// of insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `v` to the monotonic counter `name`.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().observe(v);
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// True if nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Serializes the registry (names included) into `w`.
    pub fn save(&self, w: &mut crate::wire::Writer) {
        w.varint(self.counters.len() as u64);
        for (&k, &v) in &self.counters {
            w.str(k);
            w.varint(v);
        }
        w.varint(self.gauges.len() as u64);
        for (&k, &v) in &self.gauges {
            w.str(k);
            w.f64(v);
        }
        w.varint(self.hists.len() as u64);
        for (&k, h) in &self.hists {
            w.str(k);
            h.save(w);
        }
    }

}

/// Measures a span of *virtual* time.
///
/// The caller supplies the clock reading at start and stop (typically
/// `Machine::elapsed_ns()`, i.e. `tiersim::clock` virtual nanoseconds);
/// the timer itself never reads a wall clock, so spans are deterministic
/// and instrumentation cannot perturb simulated results.
#[derive(Clone, Copy, Debug)]
pub struct SpanTimer {
    start_ns: f64,
}

impl SpanTimer {
    /// Opens a span at virtual time `now_ns`.
    pub fn start(now_ns: f64) -> SpanTimer {
        SpanTimer { start_ns: now_ns }
    }

    /// Closes the span at virtual time `now_ns`, recording the elapsed
    /// virtual nanoseconds into histogram `hist`. Returns the elapsed ns.
    pub fn stop(self, reg: &mut Registry, hist: &'static str, now_ns: f64) -> f64 {
        let elapsed = (now_ns - self.start_ns).max(0.0);
        reg.observe(hist, elapsed as u64);
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = LogHistogram::new();
        assert_eq!(h.min(), 0);
        for v in [5u64, 0, 700, 5] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 710);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 700);
        // 0 -> bucket 0; 5,5 -> bucket 3; 700 -> bucket 10.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (3, 2), (10, 1)]);
    }

    #[test]
    fn registry_is_insertion_order_independent() {
        let mut a = Registry::new();
        a.counter_add(names::MIGRATIONS, 1);
        a.counter_add(names::ALLOC_FAULTS, 2);
        let mut b = Registry::new();
        b.counter_add(names::ALLOC_FAULTS, 2);
        b.counter_add(names::MIGRATIONS, 1);
        assert_eq!(a, b);
        let keys: Vec<_> = a.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![names::ALLOC_FAULTS, names::MIGRATIONS]);
    }

    #[test]
    fn span_timer_charges_virtual_time() {
        let mut reg = Registry::new();
        let t = SpanTimer::start(1000.0);
        let elapsed = t.stop(&mut reg, names::SPAN_PROFILE_NS, 1600.0);
        assert_eq!(elapsed, 600.0);
        let h = reg.hist(names::SPAN_PROFILE_NS).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 600);
        // A span can never go backwards even if the clock reading does.
        let t = SpanTimer::start(1000.0);
        assert_eq!(t.stop(&mut reg, names::SPAN_PROFILE_NS, 900.0), 0.0);
    }
}
