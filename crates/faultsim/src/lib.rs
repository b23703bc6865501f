//! Deterministic fault-injection plane for the simulated tiered-memory
//! machine.
//!
//! Real tiered-memory stacks lose migrations to pinned/busy pages,
//! transient allocation failure, and bandwidth collapse, and lose
//! profiling samples to ring-buffer overruns. This crate models those
//! failure classes as a seed-driven *plan* the simulator consults on
//! every migration attempt, PEBS/hint drain, and bandwidth computation:
//!
//! - [`FaultPlan`] — what to inject (parsed from `MTM_FAULTS`, see
//!   [`plan`] for the spec grammar).
//! - [`FaultState`] — a plan bound to a SplitMix64 stream plus injection
//!   counters. All randomness comes from this one stream, so a run is
//!   byte-reproducible from `(plan, seed)` alone, independent of how many
//!   harness jobs execute concurrently.
//!
//! The disabled state ([`FaultState::disabled`]) answers every query
//! with "no fault" **without consuming random numbers or doing float
//! math**, so a healthy run with this crate wired in is bit-identical to
//! one without it.
//!
//! The crate is intentionally dependency-free: it sits below `tiersim`
//! in the workspace graph so the machine itself can own a `FaultState`.

pub mod plan;
pub mod rng;

pub use plan::{BwWindow, FaultPlan, DEFAULT_SEED};
pub use rng::{derive_seed, SplitMix64};

/// Counters of what was actually injected, for reports and telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Migration attempts failed with `PageBusy`.
    pub page_busy: u64,
    /// Migration attempts failed with `TransientAllocFail`.
    pub alloc_fail: u64,
    /// PEBS samples dropped on drain.
    pub pebs_dropped: u64,
    /// Hint-fault records dropped on drain.
    pub hints_dropped: u64,
}

impl FaultStats {
    /// Total injections of any kind.
    pub fn total(&self) -> u64 {
        self.page_busy + self.alloc_fail + self.pebs_dropped + self.hints_dropped
    }
}

/// A fault plan bound to its random stream and injection counters.
///
/// One `FaultState` belongs to one simulated machine; queries mutate the
/// stream, so the order of queries (which is deterministic inside a run)
/// fully determines the schedule.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    seed: u64,
    rng: SplitMix64,
    stats: FaultStats,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::disabled()
    }
}

impl FaultState {
    /// A state that never injects anything and never consumes randomness.
    pub fn disabled() -> FaultState {
        FaultState::new(FaultPlan::default(), DEFAULT_SEED)
    }

    /// Binds `plan` to a fresh SplitMix64 stream seeded with `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultState {
        FaultState { plan, seed, rng: SplitMix64::new(seed), stats: FaultStats::default() }
    }

    /// True when at least one fault class can fire.
    pub fn is_active(&self) -> bool {
        !self.plan.is_disabled()
    }

    /// The plan this state draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The seed the stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Rewinds the stream to its initial position and clears the
    /// counters (used when a machine resets its measurement epoch so the
    /// measured run sees the same schedule as a fresh machine would).
    pub fn reset(&mut self) {
        self.rng = SplitMix64::new(self.seed);
        self.stats = FaultStats::default();
    }

    #[inline]
    fn roll(&mut self, p: f64) -> bool {
        // p == 0 must not consume randomness: the healthy path has to be
        // byte-identical whether or not a (partially) disabled plan is
        // installed.
        p > 0.0 && self.rng.unit_f64() < p
    }

    /// Should this migration attempt fail with a transient page-busy?
    pub fn page_busy(&mut self) -> bool {
        let hit = self.roll(self.plan.page_busy);
        self.stats.page_busy += hit as u64;
        hit
    }

    /// Should this migration attempt fail with a transient allocation
    /// failure on the destination component?
    pub fn alloc_fail(&mut self) -> bool {
        let hit = self.roll(self.plan.alloc_fail);
        self.stats.alloc_fail += hit as u64;
        hit
    }

    /// Should this drained PEBS sample be lost?
    pub fn drop_pebs(&mut self) -> bool {
        let hit = self.roll(self.plan.drop_pebs);
        self.stats.pebs_dropped += hit as u64;
        hit
    }

    /// Should this drained hint-fault record be lost?
    pub fn drop_hint(&mut self) -> bool {
        let hit = self.roll(self.plan.drop_hint);
        self.stats.hints_dropped += hit as u64;
        hit
    }

    /// Copy-bandwidth multiplier at `interval` (pure; consumes nothing).
    /// Exactly 1.0 when no window covers the interval.
    pub fn bw_factor(&self, interval: u64) -> f64 {
        if self.plan.bw_windows.is_empty() {
            1.0
        } else {
            self.plan.bw_factor(interval)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_plan() -> FaultPlan {
        FaultPlan::parse("busy=0.5,allocfail=0.3,droppebs=0.4,drophint=0.2,bw=0.25@2..5").unwrap()
    }

    /// Replays `n` mixed queries and returns the outcome schedule.
    fn schedule(state: &mut FaultState, n: usize) -> Vec<(bool, bool, bool, bool)> {
        (0..n)
            .map(|_| (state.page_busy(), state.alloc_fail(), state.drop_pebs(), state.drop_hint()))
            .collect()
    }

    #[test]
    fn disabled_state_never_fires_and_never_consumes() {
        let mut s = FaultState::disabled();
        let rng_before = s.rng.clone();
        for _ in 0..64 {
            assert!(!s.page_busy());
            assert!(!s.alloc_fail());
            assert!(!s.drop_pebs());
            assert!(!s.drop_hint());
            assert_eq!(s.bw_factor(3), 1.0);
        }
        assert_eq!(s.rng, rng_before, "disabled queries must not advance the stream");
        assert_eq!(s.stats(), FaultStats::default());
        assert!(!s.is_active());
    }

    #[test]
    fn partially_disabled_classes_do_not_consume() {
        // With only `busy` active, the busy schedule must be identical to
        // a plan that *also* enables droppebs=0 etc. — i.e. zero-p rolls
        // must not advance the stream.
        let mut only_busy = FaultState::new(FaultPlan::parse("busy=0.5").unwrap(), 42);
        let mut mixed = FaultState::new(FaultPlan::parse("busy=0.5").unwrap(), 42);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..128 {
            a.push(only_busy.page_busy());
            b.push(mixed.page_busy());
            // These are all p=0 on this plan and must be free.
            assert!(!mixed.alloc_fail() && !mixed.drop_pebs() && !mixed.drop_hint());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultState::new(heavy_plan(), 7);
        let mut b = FaultState::new(heavy_plan(), 7);
        assert_eq!(schedule(&mut a, 256), schedule(&mut b, 256));
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "heavy plan should inject something in 256 rolls");
    }

    #[test]
    fn different_seed_different_schedule() {
        let mut a = FaultState::new(heavy_plan(), 7);
        let mut b = FaultState::new(heavy_plan(), 8);
        assert_ne!(schedule(&mut a, 256), schedule(&mut b, 256));
    }

    #[test]
    fn reset_rewinds_the_stream() {
        let mut s = FaultState::new(heavy_plan(), 11);
        let first = schedule(&mut s, 64);
        s.reset();
        assert_eq!(s.stats(), FaultStats::default());
        assert_eq!(schedule(&mut s, 64), first);
    }

    #[test]
    fn bw_factor_follows_windows() {
        let s = FaultState::new(heavy_plan(), 1);
        assert_eq!(s.bw_factor(0), 1.0);
        assert_eq!(s.bw_factor(2), 0.25);
        assert_eq!(s.bw_factor(4), 0.25);
        assert_eq!(s.bw_factor(5), 1.0);
    }

    #[test]
    fn stats_count_each_class() {
        let mut s = FaultState::new(FaultPlan::parse("busy=1,droppebs=1").unwrap(), 3);
        for _ in 0..5 {
            assert!(s.page_busy());
            assert!(s.drop_pebs());
            assert!(!s.alloc_fail());
        }
        let st = s.stats();
        assert_eq!(st.page_busy, 5);
        assert_eq!(st.pebs_dropped, 5);
        assert_eq!(st.alloc_fail, 0);
        assert_eq!(st.total(), 10);
    }
}
