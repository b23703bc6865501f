//! FNV-1a-64 digest of a run's simulated statistics.
//!
//! A host-time optimisation must leave every simulated number unchanged,
//! so each sample's report is folded into one 64-bit value and compared:
//! against the committed default-seed digest, and across all samples of
//! a run. Telemetry (decision events, histograms) is left out; it is an
//! observation channel, not a result.

use tiersim::clock::TimeBreakdown;
use tiersim::sim::RunReport;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a-64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by its bit pattern, so any ulp of drift shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn breakdown(h: &mut Fnv, b: &TimeBreakdown) {
    h.f64(b.app_ns);
    h.f64(b.profiling_ns);
    h.f64(b.migration_ns);
}

/// Digest of every simulated statistic in `r` (all fields but telemetry).
pub(crate) fn report_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::default();
    h.bytes(r.manager.as_bytes());
    h.bytes(r.workload.as_bytes());
    breakdown(&mut h, &r.breakdown);
    h.f64(r.total_ns);
    for c in &r.component_counts {
        h.u64(c.loads);
        h.u64(c.stores);
    }
    for window in &r.window_counts {
        h.u64(window.len() as u64);
        for c in window {
            h.u64(c.loads);
            h.u64(c.stores);
        }
    }
    for &ns in &r.interval_ns {
        h.f64(ns);
    }
    for &ops in &r.ops_trace {
        h.u64(ops);
    }
    for b in &r.breakdown_trace {
        breakdown(&mut h, b);
    }
    for &bytes in &r.residency {
        h.u64(bytes);
    }
    let m = &r.machine;
    for v in [
        m.alloc_faults,
        m.hint_faults,
        m.prot_faults,
        m.wp_faults,
        m.pte_scans,
        m.tlb_flushes,
        m.pages_migrated,
        m.bytes_migrated,
    ] {
        h.u64(v);
    }
    h.u64(r.hot_bytes_identified);
    h.u64(r.metadata_bytes);
    if let Some(s) = &r.region_stats {
        h.u64(s.intervals);
        h.f64(s.avg_merged);
        h.f64(s.avg_split);
        h.f64(s.avg_regions);
    }
    h.u64(r.ops_completed);
    h.u64(r.footprint);
    h.finish()
}
