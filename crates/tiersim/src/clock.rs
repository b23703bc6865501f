//! Virtual-time accounting.
//!
//! The simulator advances a virtual clock instead of measuring wall time.
//! Application accesses are charged with a roofline-style model evaluated
//! per profiling interval: every thread accumulates latency cost for the
//! accesses it issued, every (node, component) link accumulates the bytes
//! it transferred, and the interval's wall time is
//!
//! ```text
//! max( max_thread(latency_sum), max_link(bytes / bandwidth) )
//! ```
//!
//! which captures both latency-bound and bandwidth-bound execution (e.g. 24
//! threads hammering the 1 GB/s remote-PM link become bandwidth-bound, the
//! effect behind the paper's Fig. 12). Profiling work and the critical-path
//! part of migration are charged to separate buckets, which the harness
//! reports as the paper's Fig. 5 breakdown.

use crate::tier::Topology;

/// Time spent in each activity class, in virtual nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Application execution (access latency + bandwidth stalls).
    pub app_ns: f64,
    /// Memory profiling (PTE scans, PEBS drain, hint faults).
    pub profiling_ns: f64,
    /// Page migration exposed on the critical path.
    pub migration_ns: f64,
}

impl TimeBreakdown {
    /// Total virtual time across all buckets.
    pub fn total_ns(&self) -> f64 {
        self.app_ns + self.profiling_ns + self.migration_ns
    }
}

/// Precomputed access-charge constants of one (node, component) link —
/// the division-free fast path of the roofline cost model. The machine
/// derives every entry from its configuration at construction with
/// exactly the arithmetic the per-access path used to perform inline, so
/// charging from the table is bit-identical to recomputing; the config
/// must not change latency/bandwidth/`mlp` after `Machine::new`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChargeSpec {
    /// `link.latency_ns / cfg.mlp`.
    pub(crate) lat_ns: f64,
    /// `CACHE_LINE as f64 * link.write_cost_factor()` — the roofline
    /// byte charge of one written line on this link, and of one dirty
    /// line a Memory Mode miss writes back to this PM component.
    pub(crate) write_bytes: f64,
    /// `dram latency / cfg.mlp` for the PM component's Memory Mode hit
    /// path (served by the fronting DRAM); 0.0 outside Memory Mode.
    pub(crate) hmc_hit_lat_ns: f64,
    /// `(dram latency + this link's latency) / cfg.mlp` for the PM
    /// component's Memory Mode miss path (tag check in the fronting
    /// DRAM serializes before the PM access); 0.0 outside Memory Mode.
    pub(crate) hmc_miss_lat_ns: f64,
}

/// One (node, component) link: its charge constants next to the bytes it
/// moved in the open interval, so an access finds both with one index.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Link {
    pub(crate) charge: ChargeSpec,
    pub(crate) bytes: f64,
}

/// The machine clock: per-interval accumulators plus committed totals.
#[derive(Debug)]
pub struct Clock {
    threads: usize,
    nodes: usize,
    components: usize,
    /// Latency cost accumulated by each thread in the open interval.
    pub(crate) thread_ns: Vec<f64>,
    /// Every link, indexed `node * components + component`.
    pub(crate) links: Vec<Link>,
    /// Committed virtual time.
    breakdown: TimeBreakdown,
    intervals_committed: u64,
}

impl Clock {
    /// Creates a clock for `threads` application threads on a topology,
    /// with one charge spec per link.
    pub(crate) fn new(threads: usize, topo: &Topology, charges: Vec<ChargeSpec>) -> Clock {
        let nodes = topo.nodes as usize;
        let components = topo.num_components();
        assert_eq!(charges.len(), nodes * components, "one charge spec per link");
        Clock {
            threads,
            nodes,
            components,
            thread_ns: vec![0.0; threads],
            links: charges.into_iter().map(|charge| Link { charge, bytes: 0.0 }).collect(),
            breakdown: TimeBreakdown::default(),
            intervals_committed: 0,
        }
    }

    /// Zeroes the accumulators and committed totals.
    pub(crate) fn reset(&mut self) {
        self.thread_ns.fill(0.0);
        self.links.iter_mut().for_each(|l| l.bytes = 0.0);
        self.breakdown = TimeBreakdown::default();
        self.intervals_committed = 0;
    }

    /// Charges one access: `lat_ns` of latency to `tid`, `bytes` across the
    /// `(node, component)` link.
    #[inline]
    pub fn charge_access(&mut self, tid: usize, lat_ns: f64, node: u16, component: u16, bytes: f64) {
        self.thread_ns[tid] += lat_ns;
        self.links[node as usize * self.components + component as usize].bytes += bytes;
    }

    /// Charges latency to `tid` alone, moving no bytes over any link.
    #[inline]
    pub fn charge_thread(&mut self, tid: usize, lat_ns: f64) {
        self.thread_ns[tid] += lat_ns;
    }

    /// Wall time of the open interval so far, under the roofline model.
    pub fn open_interval_ns(&self, topo: &Topology) -> f64 {
        let lat = self.thread_ns.iter().copied().fold(0.0_f64, f64::max);
        let mut bw = 0.0_f64;
        for node in 0..self.nodes {
            for comp in 0..self.components {
                let bytes = self.links[node * self.components + comp].bytes;
                if bytes > 0.0 {
                    let spec = topo.link(node as u16, comp as u16);
                    bw = bw.max(bytes / spec.bytes_per_ns());
                }
            }
        }
        lat.max(bw)
    }

    /// Closes the open interval, adding its wall time to the application
    /// bucket, and returns that wall time.
    pub fn commit_interval(&mut self, topo: &Topology) -> f64 {
        let elapsed = self.open_interval_ns(topo);
        self.breakdown.app_ns += elapsed;
        self.thread_ns.fill(0.0);
        self.links.iter_mut().for_each(|l| l.bytes = 0.0);
        self.intervals_committed += 1;
        elapsed
    }

    /// Charges profiling work (serialized onto the timeline).
    #[inline]
    pub fn charge_profiling(&mut self, ns: f64) {
        self.breakdown.profiling_ns += ns;
    }

    /// Charges migration work exposed on the critical path.
    #[inline]
    pub fn charge_migration(&mut self, ns: f64) {
        self.breakdown.migration_ns += ns;
    }

    /// Committed virtual time plus the open interval estimate.
    pub fn now_ns(&self, topo: &Topology) -> f64 {
        self.breakdown.total_ns() + self.open_interval_ns(topo)
    }

    /// Committed time breakdown (open interval excluded).
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Number of intervals committed so far.
    pub fn intervals(&self) -> u64 {
        self.intervals_committed
    }

    /// Number of application threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Latency clock of one thread within the open interval.
    #[inline]
    pub fn thread_ns(&self, tid: usize) -> f64 {
        self.thread_ns[tid]
    }

    /// Serializes the clock's dynamic state (accumulators as exact f64
    /// bit patterns).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.thread_ns.len() as u64);
        for &t in &self.thread_ns {
            w.f64(t);
        }
        w.varint(self.links.len() as u64);
        for l in &self.links {
            w.f64(l.bytes);
        }
        w.f64(self.breakdown.app_ns);
        w.f64(self.breakdown.profiling_ns);
        w.f64(self.breakdown.migration_ns);
        w.u64(self.intervals_committed);
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::{tiny_two_tier, Topology};

    /// A clock whose charge specs are all zero (the tests charge
    /// explicit amounts).
    fn clock(threads: usize, topo: &Topology) -> Clock {
        let links = topo.nodes as usize * topo.num_components();
        Clock::new(threads, topo, vec![ChargeSpec::default(); links])
    }

    #[test]
    fn latency_bound_interval() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = clock(2, &topo);
        clock.charge_access(0, 100.0, 0, 0, 64.0);
        clock.charge_access(0, 100.0, 0, 0, 64.0);
        clock.charge_access(1, 50.0, 0, 0, 64.0);
        // Thread 0 accumulated 200 ns; bandwidth cost is 192/50 ≈ 3.8 ns.
        let t = clock.open_interval_ns(&topo);
        assert!((t - 200.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_bound_interval() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = clock(4, &topo);
        // Slow tier: 5 GB/s => 5 bytes/ns. 1 MB across it = 209715.2 ns.
        for tid in 0..4 {
            clock.charge_access(tid, 10.0, 0, 1, 262144.0);
        }
        let t = clock.open_interval_ns(&topo);
        assert!((t - 1048576.0 / 5.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn commit_resets_accumulators() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = clock(1, &topo);
        clock.charge_access(0, 500.0, 0, 0, 64.0);
        let e = clock.commit_interval(&topo);
        assert_eq!(e, 500.0);
        assert_eq!(clock.open_interval_ns(&topo), 0.0);
        assert_eq!(clock.breakdown().app_ns, 500.0);
        assert_eq!(clock.intervals(), 1);
    }

    #[test]
    fn buckets_accumulate_independently() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = clock(1, &topo);
        clock.charge_profiling(10.0);
        clock.charge_migration(20.0);
        clock.charge_access(0, 30.0, 0, 0, 64.0);
        clock.commit_interval(&topo);
        let b = clock.breakdown();
        assert_eq!(b.profiling_ns, 10.0);
        assert_eq!(b.migration_ns, 20.0);
        assert_eq!(b.app_ns, 30.0);
        assert_eq!(b.total_ns(), 60.0);
    }
}
