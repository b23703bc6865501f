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
//!   validation hermetic.
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

    /// Restores a recorder saved with [`Recorder::save`].
    pub fn load(r: &mut wire::Reader) -> Result<Recorder, String> {
        Ok(Recorder { reg: Registry::load(r)?, ring: EventRing::load(r)? })
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

    #[test]
    fn recorder_round_trips_through_wire() {
        let mut r = Recorder::new();
        r.record(1, 10.0, EventKind::RegionMerge { merged: 4, freed_quota: 8 });
        r.record(2, 20.5, EventKind::MigrationDropped { reason: "nospace" });
        r.record(
            3,
            40.25,
            EventKind::AdmissionRejected { bytes: 1 << 21, dst: 2, reason: "pingpong" },
        );
        r.reg.counter_add(names::MIGRATIONS, 5);
        r.reg.gauge_set(names::TAU_M_NOW, 1.5);
        r.reg.observe(names::MIGRATION_BYTES, 4096);
        r.reg.observe(names::MIGRATION_BYTES, 0);

        let mut w = wire::Writer::new();
        r.save(&mut w);
        let bytes = w.into_bytes();
        let mut reader = wire::Reader::new(&bytes);
        let back = Recorder::load(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, r);

        // Saving the restored recorder reproduces identical bytes.
        let mut w2 = wire::Writer::new();
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }
}
