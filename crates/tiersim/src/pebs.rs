//! Simulated processor event-based sampling (PEBS).
//!
//! Models Intel PEBS as the paper uses it (Sec. 8): the hardware takes one
//! sample out of every `period` (default 200) memory accesses that hit a
//! monitored component class, and deposits `(virtual address, thread,
//! component, interval-relative time)` records into a bounded buffer. MTM's
//! counter-assisted scan uses only the samples from the first 10 % of an
//! interval (`MEM_LOAD_RETIRED.LOCAL_PMM` / `REMOTE_PMM`, i.e. PM
//! components); HeMem consumes the full stream including DRAM events.

use crate::addr::VirtAddr;
use crate::tier::ComponentId;

/// One PEBS record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PebsSample {
    /// Virtual address of the sampled access.
    pub va: VirtAddr,
    /// Thread that issued the access.
    pub tid: u32,
    /// Memory component the access was served from.
    pub component: ComponentId,
    /// True if the sampled access was a store.
    pub is_write: bool,
    /// The issuing thread's latency-clock value within the open interval,
    /// in nanoseconds; lets consumers window samples (e.g. "first 10 %").
    pub t_ns: f64,
}

/// Which accesses the counter hardware is programmed to sample.
#[derive(Clone, Debug)]
pub struct PebsConfig {
    /// Take one sample out of every `period` qualifying accesses.
    pub period: u64,
    /// Components whose accesses qualify (e.g. the PM components).
    pub monitored: Vec<ComponentId>,
    /// Maximum buffered samples before overflow drops records.
    pub buffer_cap: usize,
}

impl PebsConfig {
    /// The paper's production configuration: period 200 over the given
    /// components, 64 Ki-record buffer.
    pub fn with_components(monitored: Vec<ComponentId>) -> PebsConfig {
        PebsConfig { period: 200, monitored, buffer_cap: 64 * 1024 }
    }
}

/// The sampling unit.
#[derive(Debug)]
pub struct Pebs {
    period: u64,
    monitored_mask: u64,
    buffer_cap: usize,
    countdown: u64,
    buffer: Vec<PebsSample>,
    dropped: u64,
    taken: u64,
    /// Samples taken per component id (telemetry; component ids fit the
    /// monitored mask, i.e. < 64).
    by_component: [u64; 64],
}

impl Pebs {
    /// Creates a sampler from a configuration.
    pub fn new(cfg: &PebsConfig) -> Pebs {
        assert!(cfg.period >= 1);
        let mut mask = 0u64;
        for &c in &cfg.monitored {
            assert!((c as usize) < 64, "component id fits the mask");
            mask |= 1 << c;
        }
        Pebs {
            period: cfg.period,
            monitored_mask: mask,
            buffer_cap: cfg.buffer_cap,
            countdown: cfg.period,
            buffer: Vec::new(),
            dropped: 0,
            taken: 0,
            by_component: [0; 64],
        }
    }

    /// Offers one access to the sampler; records it if the countdown fires.
    ///
    /// Which component an access hits is data-dependent, so the monitored
    /// test is arithmetic, not a branch: an unmonitored access subtracts
    /// 0 from the countdown. That is exact because the countdown is never
    /// 0 between calls (it restarts at `period >= 1` when it fires, and
    /// [`Pebs::load`] rejects 0), so an unmonitored access never fires.
    /// The one branch left is taken once per `period` monitored accesses.
    #[inline]
    pub fn observe(&mut self, va: VirtAddr, tid: u32, component: ComponentId, is_write: bool, t_ns: f64) {
        self.countdown -= (self.monitored_mask >> component) & 1;
        if self.countdown > 0 {
            return;
        }
        self.countdown = self.period;
        self.taken += 1;
        self.by_component[component as usize] += 1;
        if self.buffer.len() >= self.buffer_cap {
            self.dropped += 1;
            return;
        }
        self.buffer.push(PebsSample { va, tid, component, is_write, t_ns });
    }

    /// Drains the buffered samples.
    pub fn drain(&mut self) -> Vec<PebsSample> {
        std::mem::take(&mut self.buffer)
    }

    /// Number of buffered samples awaiting a drain.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Samples dropped to buffer overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total samples taken (buffered or dropped).
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Serializes the sampler's dynamic state (programming — period, mask,
    /// cap — comes from config at rebuild and is not saved).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.u64(self.countdown);
        w.varint(self.buffer.len() as u64);
        for s in &self.buffer {
            w.u64(s.va.0);
            w.u32(s.tid);
            w.u16(s.component);
            w.bool(s.is_write);
            w.f64(s.t_ns);
        }
        w.varint(self.dropped);
        w.varint(self.taken);
        for &n in &self.by_component {
            w.varint(n);
        }
    }

    /// Restores state saved with [`Pebs::save`] into a freshly configured
    /// sampler.
    pub fn load(&mut self, r: &mut obs::wire::Reader) -> Result<(), String> {
        self.countdown = r.u64()?;
        if self.countdown == 0 || self.countdown > self.period {
            return Err(format!("pebs: countdown {} outside 1..={}", self.countdown, self.period));
        }
        let n = r.varint()? as usize;
        self.buffer = Vec::with_capacity(n.min(self.buffer_cap));
        for _ in 0..n {
            self.buffer.push(PebsSample {
                va: VirtAddr(r.u64()?),
                tid: r.u32()?,
                component: r.u16()?,
                is_write: r.bool()?,
                t_ns: r.f64()?,
            });
        }
        self.dropped = r.varint()?;
        self.taken = r.varint()?;
        for slot in self.by_component.iter_mut() {
            *slot = r.varint()?;
        }
        Ok(())
    }

    /// Samples taken per component, as `(component, count)` pairs for
    /// every component that produced at least one sample, ascending.
    pub fn component_counts(&self) -> Vec<(ComponentId, u64)> {
        self.by_component
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(c, &n)| (c as ComponentId, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(period: u64) -> Pebs {
        Pebs::new(&PebsConfig { period, monitored: vec![1], buffer_cap: 8 })
    }

    #[test]
    fn samples_one_in_period() {
        let mut p = sampler(4);
        for i in 0..16u64 {
            p.observe(VirtAddr(i * 64), 0, 1, false, i as f64);
        }
        let s = p.drain();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].va, VirtAddr(3 * 64));
    }

    #[test]
    fn unmonitored_components_ignored() {
        let mut p = sampler(1);
        p.observe(VirtAddr(0), 0, 0, false, 0.0);
        assert_eq!(p.pending(), 0);
        p.observe(VirtAddr(0), 0, 1, true, 0.0);
        assert_eq!(p.pending(), 1);
        assert!(p.drain()[0].is_write);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut p = sampler(1);
        for i in 0..20u64 {
            p.observe(VirtAddr(i), 0, 1, false, 0.0);
        }
        assert_eq!(p.pending(), 8);
        assert_eq!(p.dropped(), 12);
        assert_eq!(p.taken(), 20);
    }

    /// Branch-free `observe` takes exactly the samples the branching
    /// form does, over streams mixing monitored and unmonitored
    /// components.
    #[test]
    fn prop_branch_free_observe_matches_branching_reference() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        /// The sampler as it was written with a branch on the component.
        struct Reference {
            period: u64,
            mask: u64,
            countdown: u64,
            samples: Vec<PebsSample>,
        }
        impl Reference {
            fn observe(&mut self, va: VirtAddr, tid: u32, component: ComponentId, is_write: bool, t_ns: f64) {
                if self.mask & (1 << component) == 0 {
                    return;
                }
                self.countdown -= 1;
                if self.countdown > 0 {
                    return;
                }
                self.countdown = self.period;
                self.samples.push(PebsSample { va, tid, component, is_write, t_ns });
            }
        }
        for period in [1, 3, 200] {
            prop_check!(
                "branch_free_observe_matches_branching_reference",
                32,
                (gen::u64_range(0, 1 << 8), gen::vec_in((gen::u16_range(0, 8), gen::u64_range(0, 1 << 30)), 0, 2000)),
                |(mask_bits, accesses)| {
                    let monitored: Vec<ComponentId> = (0..8).filter(|c| mask_bits >> c & 1 == 1).collect();
                    let mut fast = Pebs::new(&PebsConfig { period, monitored, buffer_cap: usize::MAX });
                    let mut slow = Reference { period, mask: *mask_bits, countdown: period, samples: Vec::new() };
                    for (i, &(c, va)) in accesses.iter().enumerate() {
                        let (tid, is_write, t) = ((i % 3) as u32, i % 4 == 0, i as f64);
                        fast.observe(VirtAddr(va), tid, c, is_write, t);
                        slow.observe(VirtAddr(va), tid, c, is_write, t);
                    }
                    prop_assert_eq!(fast.countdown, slow.countdown, "period {period}");
                    prop_assert_eq!(fast.taken(), slow.samples.len() as u64, "period {period}");
                    prop_assert_eq!(fast.drain(), slow.samples, "period {period}");
                }
            );
        }
    }

    #[test]
    fn load_rejects_a_countdown_outside_the_period() {
        for bad in [0, 5] {
            let mut w = obs::wire::Writer::new();
            let mut p = sampler(4);
            p.countdown = bad;
            p.save(&mut w);
            let bytes = w.into_bytes();
            let mut fresh = sampler(4);
            assert!(fresh.load(&mut obs::wire::Reader::new(&bytes)).is_err(), "countdown {bad}");
        }
    }

    #[test]
    fn drain_empties_buffer() {
        let mut p = sampler(1);
        p.observe(VirtAddr(1), 2, 1, false, 5.0);
        let s = p.drain();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].tid, 2);
        assert_eq!(p.pending(), 0);
    }
}
