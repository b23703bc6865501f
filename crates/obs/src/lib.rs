//! Observability core for the MTM workspace.
//!
//! The paper's claims are statements about *where time and bandwidth go* —
//! profiling overhead vs. the 5 % target (Eq. 1), migration critical path
//! vs. async copy, per-tier traffic — so the simulator and every manager
//! need a machine-readable account of what they decided each interval.
//! This crate provides that substrate with zero dependencies:
//!
//! * [`metrics`] — a static-name registry of monotonic counters, gauges
//!   and log-scaled histograms, plus [`SpanTimer`]s that charge *virtual*
//!   time read from `tiersim::clock`, so instrumentation never perturbs
//!   simulated results;
//! * [`ring`] — a bounded ring buffer of typed decision events (region
//!   split/merge, τm escalation, promotion/demotion batches, sync-vs-async
//!   migration fallbacks, ...), each stamped with the interval number and
//!   virtual time;
//! * [`snapshot`] — [`RunTelemetry`], the per-run export (final counters +
//!   event ring + per-interval series) serialized to deterministic JSON;
//! * [`json`] — the hand-rolled writer/parser keeping serialization and
//!   validation hermetic;
//! * [`wire`] — the byte encoding the simulator's state digest hashes.
//!
//! Recording is deliberately *per run*: a [`Recorder`] lives inside each
//! simulated machine, so telemetry flows through the harness's
//! single-flight run cache unchanged and is byte-identical for any
//! `MTM_JOBS` value. The crate holds no process-wide state.

pub mod json;
pub mod metrics;
pub mod ring;
pub mod snapshot;
pub mod wire;

pub use metrics::{names, LogHistogram, Registry, SpanTimer};
pub use ring::{Event, EventKind, EventRing};
pub use snapshot::{IntervalSeries, RunTelemetry};

/// Per-run recording state: one metrics registry plus one event ring.
///
/// Owned by the simulated machine; reset together with its measurement
/// state so warm-up never leaks into a run's telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recorder {
    /// Counters, gauges and histograms for this run.
    pub reg: Registry,
    /// Typed decision events for this run.
    pub ring: EventRing,
}

impl Recorder {
    /// Creates an empty recorder with the default ring capacity.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Records one decision event stamped with `interval` and virtual
    /// time `t_ns`. Never touches any clock or RNG.
    pub fn record(&mut self, interval: u64, t_ns: f64, kind: EventKind) {
        self.ring.push(Event { interval, t_ns, kind });
    }

    /// Serializes the recorder (registry plus event ring) into `w`.
    pub fn save(&self, w: &mut wire::Writer) {
        self.reg.save(w);
        self.ring.save(w);
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_events_and_metrics() {
        let mut r = Recorder::new();
        r.record(3, 1500.0, EventKind::RegionSplit { split: 2 });
        r.reg.counter_add(names::MIGRATIONS, 1);
        assert_eq!(r.ring.len(), 1);
        assert_eq!(r.reg.counter(names::MIGRATIONS), 1);
        let ev = r.ring.iter().next().unwrap();
        assert_eq!(ev.interval, 3);
        assert_eq!(ev.kind, EventKind::RegionSplit { split: 2 });
    }
}
