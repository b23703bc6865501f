//! Admission control for candidate migrations (ROADMAP item 3).
//!
//! The migration layer decides *how* to move pages (sync/async hybrid);
//! the policies here decide *whether* a candidate batch is worth admitting
//! at all, in the spirit of TierBPF's in-kernel policy hooks. Each policy
//! is consulted once per candidate batch right before
//! [`MigrationEngine::migrate`](crate::migration::MigrationEngine::migrate)
//! and must be fully deterministic: verdicts may depend only on the
//! candidate stream and the machine's virtual state, never on wall-clock
//! time, entropy or worker count.

use tiersim::addr::VaRange;
use tiersim::machine::Machine;
use tiersim::migrate::copy_bandwidth;
use tiersim::tier::{ComponentId, NodeId};

use crate::config::MtmConfig;

/// Which direction a candidate moves in the requesting node's tier view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationKind {
    /// Toward a faster tier.
    Promotion,
    /// Toward a slower tier (eviction to make space).
    Demotion,
}

/// One candidate batch, as the policy layer sees it before admission.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The virtual range to move.
    pub range: VaRange,
    /// Majority source component.
    pub src: ComponentId,
    /// Destination component.
    pub dst: ComponentId,
    /// Requesting node (its view classified the move).
    pub node: NodeId,
    /// Promotion or demotion.
    pub kind: MigrationKind,
    /// The candidate's weighted hotness index.
    pub whi: f64,
    /// Hotness of the coldest resident that would be evicted to make
    /// space, when admission would trigger an eviction (`None` when the
    /// destination has free space).
    pub victim_whi: Option<f64>,
}

/// An admission decision. A rejection carries a stable reason label used
/// in counters and ring events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Let the migration through.
    Admit,
    /// Veto it (label names the vetoing policy).
    Reject(&'static str),
}

/// A pluggable admission policy. Implementations keep all state in
/// deterministic containers (`BTreeMap`, `Vec`) keyed on virtual
/// addresses and intervals.
pub trait AdmissionPolicy {
    /// Stable policy name (matches the `MTM_ADMIT` selector).
    fn name(&self) -> &'static str;

    /// Advances the policy's interval clock (called once per profiling
    /// interval, before any candidate of that interval).
    fn note_interval(&mut self, _interval: u64) {}

    /// Decides whether `c` may reach the migration engine.
    fn admit(&mut self, m: &Machine, c: &Candidate) -> Verdict;
}

/// The legacy default: every candidate is admitted. With this policy the
/// pipeline is byte-identical to a build without the admission plane.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn name(&self) -> &'static str {
        "always"
    }

    fn admit(&mut self, _m: &Machine, _c: &Candidate) -> Verdict {
        Verdict::Admit
    }
}

/// Reject ranges that already migrated [`PINGPONG_MAX_BOUNCES`] or more
/// times within the last [`PINGPONG_WINDOW`] intervals. Catches pages
/// bouncing between tiers faster than they earn their keep — the dominant
/// waste under bandwidth-degradation fault windows.
#[derive(Clone, Debug, Default)]
pub struct PingPongFilter {
    /// Admitted migrations keyed by range start: (range end, interval).
    seen: std::collections::BTreeMap<u64, Vec<(u64, u64)>>,
    now: u64,
}

/// Admissions overlapping a candidate within the window before it counts
/// as ping-pong.
pub const PINGPONG_MAX_BOUNCES: u64 = 2;

/// How many intervals of history the ping-pong filter considers. Matches
/// the migration engine's cooldown horizon: long enough to catch a
/// demote-promote-demote cycle, short enough that a range whose hotness
/// genuinely changed earns a fresh start within a quick run.
pub const PINGPONG_WINDOW: u64 = 4;

impl AdmissionPolicy for PingPongFilter {
    fn name(&self) -> &'static str {
        "pingpong"
    }

    fn note_interval(&mut self, interval: u64) {
        self.now = interval;
        // Prune entries that fell out of the window so the ring stays
        // bounded by the migration rate, not the run length.
        self.seen.retain(|_, hits| {
            hits.retain(|&(_, at)| at + PINGPONG_WINDOW > interval);
            !hits.is_empty()
        });
    }

    fn admit(&mut self, _m: &Machine, c: &Candidate) -> Verdict {
        // Demotions are recorded (they are half of every bounce cycle)
        // but never vetoed: blocking an eviction would starve the
        // capacity management promotions depend on. Only the re-promotion
        // side of a bounce is cut off.
        let bounces: u64 = self
            .seen
            .range(..c.range.end.0)
            .flat_map(|(_, hits)| hits.iter())
            .filter(|&&(end, at)| end > c.range.start.0 && at + PINGPONG_WINDOW > self.now)
            .count() as u64;
        if c.kind == MigrationKind::Promotion && bounces >= PINGPONG_MAX_BOUNCES {
            return Verdict::Reject("pingpong");
        }
        self.seen
            .entry(c.range.start.0)
            .or_default()
            .push((c.range.end.0, self.now));
        Verdict::Admit
    }
}

/// Burst allowance of the rate limiter, in intervals worth of measured
/// copy bandwidth. Generous on purpose: the startup placement burst (one
/// large wave of promotions while the working set sorts itself into
/// tiers) must pass, while a sustained migration storm — or a
/// fault-window bandwidth collapse shrinking the refill — still binds.
pub const RATELIMIT_BURST_INTERVALS: f64 = 16.0;

/// Per-destination token bucket fed by the *measured* copy bandwidth
/// between the candidate's source and destination. When a faultsim
/// bandwidth-degradation window throttles `copy_bandwidth`, the refill
/// rate drops with it and admission backs off instead of queueing copies
/// the interconnect cannot absorb.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    copy_threads: u32,
    /// Bucket per destination component: (tokens in bytes, last refill
    /// interval). Buckets start full on first use.
    buckets: std::collections::BTreeMap<ComponentId, (f64, u64)>,
    now: u64,
}

impl RateLimiter {
    /// Creates a limiter refilling at the bandwidth `copy_threads` helper
    /// threads achieve.
    pub fn new(copy_threads: u32) -> RateLimiter {
        RateLimiter { copy_threads, buckets: std::collections::BTreeMap::new(), now: 0 }
    }
}

impl AdmissionPolicy for RateLimiter {
    fn name(&self) -> &'static str {
        "ratelimit"
    }

    fn note_interval(&mut self, interval: u64) {
        self.now = interval;
    }

    fn admit(&mut self, m: &Machine, c: &Candidate) -> Verdict {
        // Demotions pass freely: they free the contended fast tier, their
        // destination link is rarely the bottleneck, and vetoing an
        // eviction would starve the capacity management that promotions
        // depend on. Only promotions consume tokens.
        if c.kind == MigrationKind::Demotion {
            return Verdict::Admit;
        }
        // GB/s equals bytes/ns, so one interval refills bw * interval_ns
        // bytes. The measurement already reflects any active fault window.
        let bw = copy_bandwidth(m, c.node, c.src, c.dst, self.copy_threads);
        let per_interval = bw * m.cfg.interval_ns;
        let cap = RATELIMIT_BURST_INTERVALS * per_interval;
        let (tokens, last) = self.buckets.entry(c.dst).or_insert((cap, self.now));
        if self.now > *last {
            *tokens = (*tokens + (self.now - *last) as f64 * per_interval).min(cap);
            *last = self.now;
        }
        // Charge what will actually cross the link: pages of the range
        // already resident on the destination cost nothing, so a
        // partially promoted range is not over-billed its full length.
        let need: u64 = crate::residency::residency_exact(m, c.range)
            .into_iter()
            .filter(|&(comp, _)| comp != c.dst)
            .map(|(_, b)| b)
            .sum();
        if *tokens < need as f64 {
            // Free-space fills drain the bucket but are never vetoed:
            // they displace nobody, so deferring them saves no demotion
            // traffic — the copy itself is the only cost, and a dry
            // bucket then gates the displacement promotions that would
            // each drag an eviction copy along.
            if c.victim_whi.is_none() {
                *tokens = 0.0;
                return Verdict::Admit;
            }
            return Verdict::Reject("ratelimit");
        }
        *tokens -= need as f64;
        Verdict::Admit
    }
}

/// A promotion must be hotter than the victim it evicts by this factor.
pub const HOTNESS_DELTA_RATIO: f64 = 1.5;

/// Admit promotions only when the candidate is clearly hotter than the
/// eviction victim. Filling free space and demotions always pass: only
/// displacement has to justify itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotnessDelta;

impl AdmissionPolicy for HotnessDelta {
    fn name(&self) -> &'static str {
        "hotness-delta"
    }

    fn admit(&mut self, _m: &Machine, c: &Candidate) -> Verdict {
        if c.kind == MigrationKind::Demotion {
            return Verdict::Admit;
        }
        match c.victim_whi {
            None => Verdict::Admit,
            Some(v) if c.whi > v * HOTNESS_DELTA_RATIO => Verdict::Admit,
            Some(_) => Verdict::Reject("hotness-delta"),
        }
    }
}

/// Which built-in policy to construct (the `MTM_ADMIT` selector).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdmissionKind {
    /// [`AlwaysAdmit`] — the legacy pipeline, byte-identical results.
    #[default]
    Always,
    /// [`PingPongFilter`].
    PingPong,
    /// [`RateLimiter`].
    RateLimit,
    /// [`HotnessDelta`].
    HotnessDelta,
}

impl AdmissionKind {
    /// Parses an `MTM_ADMIT` value.
    pub fn parse(s: &str) -> Option<AdmissionKind> {
        match s {
            "always" => Some(AdmissionKind::Always),
            "pingpong" => Some(AdmissionKind::PingPong),
            "ratelimit" => Some(AdmissionKind::RateLimit),
            "hotness-delta" => Some(AdmissionKind::HotnessDelta),
            _ => None,
        }
    }

    /// The selector string this kind parses from.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionKind::Always => "always",
            AdmissionKind::PingPong => "pingpong",
            AdmissionKind::RateLimit => "ratelimit",
            AdmissionKind::HotnessDelta => "hotness-delta",
        }
    }

    /// Constructs the policy (the rate limiter reads `cfg.copy_threads`).
    pub fn build(&self, cfg: &MtmConfig) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionKind::Always => Box::new(AlwaysAdmit),
            AdmissionKind::PingPong => Box::new(PingPongFilter::default()),
            AdmissionKind::RateLimit => Box::new(RateLimiter::new(cfg.copy_threads)),
            AdmissionKind::HotnessDelta => Box::new(HotnessDelta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::{VirtAddr, PAGE_SIZE_2M};
    use tiersim::machine::MachineConfig;
    use tiersim::tier::tiny_two_tier;

    fn machine() -> Machine {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
        let mut mc = MachineConfig::new(topo, 1);
        mc.interval_ns = 1.0e6;
        Machine::new(mc)
    }

    fn cand(start: u64, kind: MigrationKind) -> Candidate {
        Candidate {
            range: VaRange::from_len(VirtAddr(start), PAGE_SIZE_2M),
            src: if kind == MigrationKind::Promotion { 1 } else { 0 },
            dst: if kind == MigrationKind::Promotion { 0 } else { 1 },
            node: 0,
            kind,
            whi: 2.0,
            victim_whi: None,
        }
    }

    #[test]
    fn always_admits_everything() {
        let m = machine();
        let mut p = AlwaysAdmit;
        for i in 0..10 {
            let c = cand(i * PAGE_SIZE_2M, MigrationKind::Promotion);
            assert_eq!(p.admit(&m, &c), Verdict::Admit);
        }
    }

    #[test]
    fn pingpong_rejects_bouncing_range_then_forgets() {
        let m = machine();
        let mut p = PingPongFilter::default();
        p.note_interval(1);
        let c = cand(0, MigrationKind::Promotion);
        assert_eq!(p.admit(&m, &c), Verdict::Admit);
        let back = cand(0, MigrationKind::Demotion);
        assert_eq!(p.admit(&m, &back), Verdict::Admit);
        // Third move of the same range inside the window: ping-pong.
        assert_eq!(p.admit(&m, &c), Verdict::Reject("pingpong"));
        // The demotion side is recorded but never vetoed — blocking an
        // eviction would starve capacity management.
        assert_eq!(p.admit(&m, &back), Verdict::Admit);
        // A disjoint range is unaffected.
        let other = cand(4 * PAGE_SIZE_2M, MigrationKind::Promotion);
        assert_eq!(p.admit(&m, &other), Verdict::Admit);
        // Once the window passes, the range earns a fresh start.
        p.note_interval(1 + PINGPONG_WINDOW);
        assert_eq!(p.admit(&m, &c), Verdict::Admit);
    }

    #[test]
    fn pingpong_counts_overlaps_not_exact_matches() {
        let m = machine();
        let mut p = PingPongFilter::default();
        p.note_interval(1);
        // Two admitted moves of halves overlapping the big range — a
        // re-split region's halves count against the merged whole.
        let lo = Candidate {
            range: VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M),
            ..cand(0, MigrationKind::Promotion)
        };
        let hi = Candidate {
            range: VaRange::from_len(VirtAddr(PAGE_SIZE_2M), PAGE_SIZE_2M),
            ..cand(0, MigrationKind::Promotion)
        };
        assert_eq!(p.admit(&m, &lo), Verdict::Admit);
        assert_eq!(p.admit(&m, &hi), Verdict::Admit);
        let big = Candidate {
            range: VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M),
            ..cand(0, MigrationKind::Promotion)
        };
        assert_eq!(p.admit(&m, &big), Verdict::Reject("pingpong"));
    }

    #[test]
    fn ratelimit_throttles_to_measured_bandwidth() {
        // The limiter charges resident bytes (residency_exact), so the
        // candidate ranges must actually live on the slow tier: map and
        // prefault 44 pages on component 1 (the promotion source).
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M);
        let mut mc = MachineConfig::new(topo, 1);
        mc.interval_ns = 1.0e6;
        let mut m = Machine::new(mc);
        let all = VaRange::from_len(VirtAddr(0), 44 * PAGE_SIZE_2M);
        m.mmap("r", all, false);
        m.prefault_range(all, &[1]).unwrap();
        let mut p = RateLimiter::new(4);
        p.note_interval(0);
        // Only displacement promotions (a victim to evict) can be vetoed.
        let disp = |i: u64| Candidate {
            range: VaRange::from_len(VirtAddr(i * PAGE_SIZE_2M), PAGE_SIZE_2M),
            victim_whi: Some(0.5),
            ..cand(0, MigrationKind::Promotion)
        };
        // Slow link: 5 GB/s * 1 ms interval = 5 MB/interval, 80 MB burst
        // (16 intervals). Thirty-eight 2 MiB promotions (79.7 MB) drain
        // the bucket below one page; the thirty-ninth must wait.
        for i in 0..38 {
            assert_eq!(p.admit(&m, &disp(i)), Verdict::Admit, "burst capacity admits #{i}");
        }
        assert_eq!(p.admit(&m, &disp(38)), Verdict::Reject("ratelimit"));
        // Demotions never consume tokens, even with the bucket drained.
        assert_eq!(p.admit(&m, &cand(0, MigrationKind::Demotion)), Verdict::Admit);
        // A free-space fill is admitted on a dry bucket — it displaces
        // nobody — but it zeroes the remaining tokens.
        assert_eq!(p.admit(&m, &cand(39 * PAGE_SIZE_2M, MigrationKind::Promotion)), Verdict::Admit);
        // One interval refills one interval's worth (5 MB): two more fit.
        p.note_interval(1);
        for i in [38, 40] {
            assert_eq!(p.admit(&m, &disp(i)), Verdict::Admit, "refilled bucket admits #{i}");
        }
        assert_eq!(p.admit(&m, &disp(41)), Verdict::Reject("ratelimit"));
    }

    #[test]
    fn hotness_delta_gates_displacement_only() {
        let m = machine();
        let mut p = HotnessDelta;
        // Free-space fill: no victim, always admitted.
        assert_eq!(p.admit(&m, &cand(0, MigrationKind::Promotion)), Verdict::Admit);
        // Demotions always pass.
        assert_eq!(p.admit(&m, &cand(0, MigrationKind::Demotion)), Verdict::Admit);
        // Displacing a victim requires a clear hotness margin.
        let mut c = cand(0, MigrationKind::Promotion);
        c.whi = 2.0;
        c.victim_whi = Some(1.5);
        assert_eq!(p.admit(&m, &c), Verdict::Reject("hotness-delta"), "2.0 < 1.5 * 1.5");
        c.victim_whi = Some(1.0);
        assert_eq!(p.admit(&m, &c), Verdict::Admit, "2.0 > 1.0 * 1.5");
    }

    #[test]
    fn kind_roundtrips_through_parse_and_label() {
        for kind in [
            AdmissionKind::Always,
            AdmissionKind::PingPong,
            AdmissionKind::RateLimit,
            AdmissionKind::HotnessDelta,
        ] {
            assert_eq!(AdmissionKind::parse(kind.label()), Some(kind));
            let built = kind.build(&MtmConfig::default());
            assert_eq!(built.name(), kind.label());
        }
        assert_eq!(AdmissionKind::parse("bogus"), None);
        assert_eq!(AdmissionKind::default(), AdmissionKind::Always);
    }
}
