//! Bounded ring buffer of typed decision events.
//!
//! Every entry records *what a manager decided* in one interval — not raw
//! samples — so a full run's decision history fits in a fixed budget. On
//! overflow the oldest events are overwritten and counted, never silently
//! lost: a snapshot always reports how much history was shed.

use std::collections::VecDeque;

use crate::json;

/// Component identifier as recorded in events (mirrors
/// `tiersim::tier::ComponentId` without depending on it).
pub type ComponentId = u16;

/// A typed decision event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// The merge pass collapsed `merged` regions, freeing `freed_quota`
    /// sampling quota.
    RegionMerge { merged: u64, freed_quota: u64 },
    /// The split pass created `split` new regions.
    RegionSplit { split: u64 },
    /// τm escalated because the region count exceeded the Eq. 1 sampling
    /// budget.
    TauMEscalated { tau_m: f64, regions: u64, budget: u64 },
    /// Sampling quota freed by merges was redistributed to high-variance
    /// regions.
    QuotaRedistributed { freed: u64 },
    /// Counter-assisted (PEBS) zooming isolated hot chunks out of larger
    /// regions.
    PebsZoomSplit { splits: u64 },
    /// A policy promoted `bytes` from component `src` to `dst`.
    Promotion { bytes: u64, src: ComponentId, dst: ComponentId },
    /// A policy demoted `bytes` from component `src` to `dst`.
    Demotion { bytes: u64, src: ComponentId, dst: ComponentId },
    /// An async migration resolved cleanly off the critical path.
    AsyncClean { bytes: u64, dst: ComponentId },
    /// An async migration was dirtied in flight and re-copied
    /// synchronously on the critical path.
    SwitchedSync { bytes: u64, dst: ComponentId },
    /// A migration executed synchronously from the start.
    SyncDirect { bytes: u64, dst: ComponentId },
    /// A requested migration was dropped (`reason`: "nospace", "empty" or
    /// "lost-watch").
    MigrationDropped { reason: &'static str },
    /// A migration succeeded only after `retries` transient failures,
    /// spending `backoff_ns` of virtual time backing off.
    MigrationRetried { retries: u64, backoff_ns: u64 },
    /// An in-flight async migration hit a transient fault, aborted
    /// transactionally (nothing moved) and was re-enqueued.
    MigrationAborted { bytes: u64, dst: ComponentId },
    /// A synchronous migration exhausted its retry budget and was
    /// downgraded to an asynchronous attempt (graceful degradation).
    MigrationDeferred { bytes: u64, dst: ComponentId },
    /// The admission policy rejected a candidate batch before it reached
    /// the migration engine (`reason` names the policy that vetoed it).
    AdmissionRejected { bytes: u64, dst: ComponentId, reason: &'static str },
}

impl EventKind {
    /// Stable machine-readable name of this event type.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RegionMerge { .. } => "region_merge",
            EventKind::RegionSplit { .. } => "region_split",
            EventKind::TauMEscalated { .. } => "tau_m_escalated",
            EventKind::QuotaRedistributed { .. } => "quota_redistributed",
            EventKind::PebsZoomSplit { .. } => "pebs_zoom_split",
            EventKind::Promotion { .. } => "promotion",
            EventKind::Demotion { .. } => "demotion",
            EventKind::AsyncClean { .. } => "async_clean",
            EventKind::SwitchedSync { .. } => "switched_sync",
            EventKind::SyncDirect { .. } => "sync_direct",
            EventKind::MigrationDropped { .. } => "migration_dropped",
            EventKind::MigrationRetried { .. } => "migration_retried",
            EventKind::MigrationAborted { .. } => "migration_aborted",
            EventKind::MigrationDeferred { .. } => "migration_deferred",
            EventKind::AdmissionRejected { .. } => "admission_rejected",
        }
    }

    /// Serializes this kind as a stable tag byte plus its payload.
    pub fn save(&self, w: &mut crate::wire::Writer) {
        match *self {
            EventKind::RegionMerge { merged, freed_quota } => {
                w.u8(0);
                w.varint(merged);
                w.varint(freed_quota);
            }
            EventKind::RegionSplit { split } => {
                w.u8(1);
                w.varint(split);
            }
            EventKind::TauMEscalated { tau_m, regions, budget } => {
                w.u8(2);
                w.f64(tau_m);
                w.varint(regions);
                w.varint(budget);
            }
            EventKind::QuotaRedistributed { freed } => {
                w.u8(3);
                w.varint(freed);
            }
            EventKind::PebsZoomSplit { splits } => {
                w.u8(4);
                w.varint(splits);
            }
            EventKind::Promotion { bytes, src, dst } => {
                w.u8(5);
                w.varint(bytes);
                w.u16(src);
                w.u16(dst);
            }
            EventKind::Demotion { bytes, src, dst } => {
                w.u8(6);
                w.varint(bytes);
                w.u16(src);
                w.u16(dst);
            }
            EventKind::AsyncClean { bytes, dst } => {
                w.u8(7);
                w.varint(bytes);
                w.u16(dst);
            }
            EventKind::SwitchedSync { bytes, dst } => {
                w.u8(8);
                w.varint(bytes);
                w.u16(dst);
            }
            EventKind::SyncDirect { bytes, dst } => {
                w.u8(9);
                w.varint(bytes);
                w.u16(dst);
            }
            EventKind::MigrationDropped { reason } => {
                w.u8(10);
                w.str(reason);
            }
            EventKind::MigrationRetried { retries, backoff_ns } => {
                w.u8(11);
                w.varint(retries);
                w.varint(backoff_ns);
            }
            EventKind::MigrationAborted { bytes, dst } => {
                w.u8(12);
                w.varint(bytes);
                w.u16(dst);
            }
            EventKind::MigrationDeferred { bytes, dst } => {
                w.u8(13);
                w.varint(bytes);
                w.u16(dst);
            }
            EventKind::AdmissionRejected { bytes, dst, reason } => {
                w.u8(14);
                w.varint(bytes);
                w.u16(dst);
                w.str(reason);
            }
        }
    }

    /// Appends this kind's payload fields as JSON object members
    /// (`,"k":v` ...) to `out`.
    fn write_json_fields(&self, out: &mut String) {
        let mut u = |k: &str, v: u64| {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        };
        match *self {
            EventKind::RegionMerge { merged, freed_quota } => {
                u("merged", merged);
                u("freed_quota", freed_quota);
            }
            EventKind::RegionSplit { split } => u("split", split),
            EventKind::TauMEscalated { tau_m, regions, budget } => {
                u("regions", regions);
                u("budget", budget);
                out.push_str(",\"tau_m\":");
                json::write_f64(tau_m, out);
            }
            EventKind::QuotaRedistributed { freed } => u("freed", freed),
            EventKind::PebsZoomSplit { splits } => u("splits", splits),
            EventKind::Promotion { bytes, src, dst } | EventKind::Demotion { bytes, src, dst } => {
                u("bytes", bytes);
                u("src", src as u64);
                u("dst", dst as u64);
            }
            EventKind::AsyncClean { bytes, dst }
            | EventKind::SwitchedSync { bytes, dst }
            | EventKind::SyncDirect { bytes, dst } => {
                u("bytes", bytes);
                u("dst", dst as u64);
            }
            EventKind::MigrationDropped { reason } => {
                out.push_str(",\"reason\":");
                json::write_str(reason, out);
            }
            EventKind::MigrationRetried { retries, backoff_ns } => {
                u("retries", retries);
                u("backoff_ns", backoff_ns);
            }
            EventKind::MigrationAborted { bytes, dst }
            | EventKind::MigrationDeferred { bytes, dst } => {
                u("bytes", bytes);
                u("dst", dst as u64);
            }
            EventKind::AdmissionRejected { bytes, dst, reason } => {
                u("bytes", bytes);
                u("dst", dst as u64);
                out.push_str(",\"reason\":");
                json::write_str(reason, out);
            }
        }
    }
}

/// One recorded event, stamped with the profiling interval it happened in
/// (intervals committed so far) and the virtual time on the machine clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Profiling intervals committed when the event was recorded.
    pub interval: u64,
    /// Virtual nanoseconds on the machine clock.
    pub t_ns: f64,
    /// What was decided.
    pub kind: EventKind,
}

impl Event {
    /// Serializes this event as one JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"interval\":");
        out.push_str(&self.interval.to_string());
        out.push_str(",\"t_ns\":");
        json::write_f64(self.t_ns, out);
        out.push_str(",\"kind\":");
        json::write_str(self.kind.label(), out);
        self.kind.write_json_fields(out);
        out.push('}');
    }
}

/// Default event capacity: enough for every decision of a quick run and
/// the recent history of a full one.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The bounded event log. Oldest events are overwritten on overflow.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRing {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Default for EventRing {
    fn default() -> EventRing {
        EventRing::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EventRing {
    /// Creates a ring holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> EventRing {
        assert!(cap >= 1);
        EventRing { cap, events: VecDeque::new(), dropped: 0 }
    }

    /// Appends an event, shedding the oldest one when full.
    pub fn push(&mut self, ev: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event was ever pushed (and none dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the retained events into a `Vec`, oldest first.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events).into()
    }

    /// Serializes the ring (capacity, drop count and retained events).
    pub fn save(&self, w: &mut crate::wire::Writer) {
        w.varint(self.cap as u64);
        w.varint(self.dropped);
        w.varint(self.events.len() as u64);
        for ev in &self.events {
            w.varint(ev.interval);
            w.f64(ev.t_ns);
            ev.kind.save(w);
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event { interval: i, t_ns: i as f64 * 10.0, kind: EventKind::RegionSplit { split: i } }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = EventRing::with_capacity(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.iter().map(|e| e.interval).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn event_serializes_with_label_and_fields() {
        let mut out = String::new();
        Event {
            interval: 7,
            t_ns: 1234.5,
            kind: EventKind::Promotion { bytes: 4096, src: 2, dst: 0 },
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"interval\":7,\"t_ns\":1234.5,\"kind\":\"promotion\",\
             \"bytes\":4096,\"src\":2,\"dst\":0}"
        );
    }

    #[test]
    fn every_kind_has_a_distinct_label() {
        let kinds = [
            EventKind::RegionMerge { merged: 1, freed_quota: 1 },
            EventKind::RegionSplit { split: 1 },
            EventKind::TauMEscalated { tau_m: 1.5, regions: 9, budget: 4 },
            EventKind::QuotaRedistributed { freed: 2 },
            EventKind::PebsZoomSplit { splits: 1 },
            EventKind::Promotion { bytes: 1, src: 1, dst: 0 },
            EventKind::Demotion { bytes: 1, src: 0, dst: 1 },
            EventKind::AsyncClean { bytes: 1, dst: 0 },
            EventKind::SwitchedSync { bytes: 1, dst: 0 },
            EventKind::SyncDirect { bytes: 1, dst: 0 },
            EventKind::MigrationDropped { reason: "nospace" },
            EventKind::MigrationRetried { retries: 2, backoff_ns: 40_000 },
            EventKind::MigrationAborted { bytes: 1, dst: 0 },
            EventKind::MigrationDeferred { bytes: 1, dst: 1 },
            EventKind::AdmissionRejected { bytes: 1, dst: 0, reason: "pingpong" },
        ];
        let mut labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }
}
