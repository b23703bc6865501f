//! Per-run telemetry snapshots and their JSON export.
//!
//! A [`RunTelemetry`] is assembled once per simulated run from the
//! machine's [`crate::Recorder`] plus the per-interval series the driver
//! collects, travels inside the run report through the harness's
//! single-flight cache, and serializes to one deterministic JSON document
//! under `results/telemetry/` when `MTM_TELEMETRY=1`.

use crate::json;
use crate::metrics::Registry;
use crate::ring::Event;

/// Top-level keys every serialized telemetry document carries, in order.
/// `scripts/verify.sh` (via the harness `telemetry_check` bin) validates
/// emitted files against this list.
pub const REQUIRED_KEYS: [&str; 8] = [
    "manager",
    "workload",
    "counters",
    "gauges",
    "histograms",
    "events",
    "events_dropped",
    "series",
];

/// Per-interval time series sampled by the scenario driver.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSeries {
    /// Wall-clock (virtual) length of each interval, application time.
    pub wall_ns: Vec<f64>,
    /// Profiling overhead as a percentage of each interval's total
    /// virtual time (app + profiling + migration).
    pub overhead_pct: Vec<f64>,
    /// Bytes migrated during each interval.
    pub migrated_bytes: Vec<u64>,
    /// Used bytes per memory component at the end of each interval.
    pub occupancy: Vec<Vec<u64>>,
}

impl IntervalSeries {
    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.wall_ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.wall_ns.is_empty()
    }

}

/// Everything observable about one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTelemetry {
    /// Manager name (as reported by the manager itself).
    pub manager: String,
    /// Workload name.
    pub workload: String,
    /// Final counter/gauge/histogram values.
    pub registry: Registry,
    /// Retained decision events, oldest first.
    pub events: Vec<Event>,
    /// Events shed by the bounded ring.
    pub events_dropped: u64,
    /// Per-interval series.
    pub series: IntervalSeries,
}

impl RunTelemetry {
    /// Serializes the snapshot as one deterministic JSON document
    /// (trailing newline included, ready to write to disk).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"manager\": ");
        json::write_str(&self.manager, &mut out);
        out.push_str(",\n  \"workload\": ");
        json::write_str(&self.workload, &mut out);

        out.push_str(",\n  \"counters\": {");
        for (i, (name, v)) in self.registry.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(name, &mut out);
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.registry.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(name, &mut out);
            out.push_str(": ");
            json::write_f64(v, &mut out);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.registry.hists().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(name, &mut out);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            ));
            for (j, (bucket, count)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{bucket}, {count}]"));
            }
            out.push_str("]}");
        }

        out.push_str("\n  },\n  \"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            ev.write_json(&mut out);
        }
        out.push_str("\n  ],\n  \"events_dropped\": ");
        out.push_str(&self.events_dropped.to_string());

        out.push_str(",\n  \"series\": {\n    \"wall_ns\": ");
        write_f64_array(&self.series.wall_ns, &mut out);
        out.push_str(",\n    \"overhead_pct\": ");
        write_f64_array(&self.series.overhead_pct, &mut out);
        out.push_str(",\n    \"migrated_bytes\": ");
        write_u64_array(&self.series.migrated_bytes, &mut out);
        out.push_str(",\n    \"occupancy\": [");
        for (i, snap) in self.series.occupancy.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_u64_array(snap, &mut out);
        }
        out.push_str("]\n  }\n}\n");
        out
    }
}

fn write_f64_array(vals: &[f64], out: &mut String) {
    out.push('[');
    for (i, &v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_f64(v, out);
    }
    out.push(']');
}

fn write_u64_array(vals: &[u64], out: &mut String) {
    out.push('[');
    for (i, &v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;
    use crate::ring::EventKind;

    fn sample() -> RunTelemetry {
        let mut reg = Registry::new();
        reg.counter_add(names::PROMOTIONS, 2);
        reg.gauge_set(names::TAU_M_NOW, 1.25);
        reg.observe(names::MIGRATION_BYTES, 1 << 21);
        RunTelemetry {
            manager: "MTM".into(),
            workload: "GUPS".into(),
            registry: reg,
            events: vec![Event {
                interval: 1,
                t_ns: 2.5e6,
                kind: EventKind::AsyncClean { bytes: 1 << 21, dst: 0 },
            }],
            events_dropped: 0,
            series: IntervalSeries {
                wall_ns: vec![1.0e6, 1.1e6],
                overhead_pct: vec![4.2, 3.9],
                migrated_bytes: vec![0, 1 << 21],
                occupancy: vec![vec![100, 200], vec![300, 0]],
            },
        }
    }

    #[test]
    fn json_has_all_required_keys_and_parses() {
        let doc = sample().to_json();
        let v = json::parse(&doc).expect("valid JSON");
        for key in REQUIRED_KEYS {
            assert!(v.get(key).is_some(), "missing top-level key {key:?}");
        }
        assert_eq!(v.get("manager").unwrap().as_str(), Some("MTM"));
        assert_eq!(
            v.get("counters").unwrap().get(names::PROMOTIONS).unwrap().as_num(),
            Some(2.0)
        );
        assert_eq!(v.get("events").unwrap().as_arr().unwrap().len(), 1);
        let occ = v.get("series").unwrap().get("occupancy").unwrap().as_arr().unwrap();
        assert_eq!(occ.len(), 2);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn empty_telemetry_still_serializes_validly() {
        let doc = RunTelemetry::default().to_json();
        let v = json::parse(&doc).expect("valid JSON");
        for key in REQUIRED_KEYS {
            assert!(v.get(key).is_some(), "missing top-level key {key:?}");
        }
    }
}
