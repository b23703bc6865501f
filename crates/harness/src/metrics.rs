//! Profiling-quality metrics: recall and accuracy over address ranges,
//! plus telemetry collection and export for cached runs.
//!
//! Fig. 1 of the paper scores a profiler by *recall* (bytes of truly hot
//! pages it detected / bytes of truly hot pages) and *accuracy* (bytes of
//! truly hot pages it detected / bytes it detected). Both reduce to the
//! intersection size of two sets of virtual ranges.
//!
//! The telemetry half serializes each run's [`obs::RunTelemetry`] to
//! `results/telemetry/<manager>_<workload>.json` when `MTM_TELEMETRY=1`;
//! with the variable unset nothing is written and the text reports are
//! byte-identical to an uninstrumented build.

use std::path::{Path, PathBuf};

use tiersim::addr::VaRange;

/// Default directory telemetry JSON is written under.
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// Makes a manager/workload name filesystem-safe (`MTM-w/o-AMR` contains
/// a path separator; `MTM:fast-first` a drive separator on Windows).
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            '/' | '\\' | ':' | ' ' => '-',
            _ => c,
        })
        .collect()
}

/// The file a run's telemetry lands in under `dir`:
/// `<manager>_<workload>.json`, or `<tenant>_<manager>_<workload>.json`
/// for one tenant of a shared machine. The tenant prefix keeps two
/// tenants running the same named workload from clobbering each other's
/// snapshot.
pub fn telemetry_path(dir: &Path, tenant: Option<&str>, manager: &str, workload: &str) -> PathBuf {
    let run = format!("{}_{}.json", sanitize_name(manager), sanitize_name(workload));
    dir.join(match tenant {
        Some(tenant) => format!("{}_{run}", sanitize_name(tenant)),
        None => run,
    })
}

/// Serializes one run's (or one tenant's) telemetry as JSON under `dir`,
/// creating the directory as needed. Returns the path written.
pub fn emit_telemetry_into(
    dir: &Path,
    tenant: Option<&str>,
    t: &obs::RunTelemetry,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = telemetry_path(dir, tenant, &t.manager, &t.workload);
    std::fs::write(&path, t.to_json())?;
    Ok(path)
}

/// Merges the registries of several runs (counters and histograms sum,
/// gauges keep their maxima) into one matrix-wide summary registry.
pub fn merge_registries<'a>(runs: impl IntoIterator<Item = &'a obs::RunTelemetry>) -> obs::Registry {
    let mut merged = obs::Registry::default();
    for t in runs {
        merged.merge_from(&t.registry);
    }
    merged
}

/// Normalizes a range set: sorted, merged, no overlaps.
pub fn normalize(mut ranges: Vec<VaRange>) -> Vec<VaRange> {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<VaRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(prev) if r.start <= prev.end => {
                prev.end = prev.end.max(r.end);
            }
            _ => out.push(r),
        }
    }
    out
}

/// Total bytes covered by a (possibly overlapping) range set.
pub fn total_bytes(ranges: &[VaRange]) -> u64 {
    normalize(ranges.to_vec()).iter().map(|r| r.len()).sum()
}

/// Bytes in the intersection of two range sets.
pub fn intersection_bytes(a: &[VaRange], b: &[VaRange]) -> u64 {
    let a = normalize(a.to_vec());
    let b = normalize(b.to_vec());
    let (mut i, mut j) = (0, 0);
    let mut total = 0u64;
    while i < a.len() && j < b.len() {
        let lo = a[i].start.max(b[j].start);
        let hi = a[i].end.min(b[j].end);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Recall and accuracy of `detected` against `truth`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// Correctly detected / truly hot.
    pub recall: f64,
    /// Correctly detected / detected.
    pub accuracy: f64,
}

/// Computes profiling quality.
pub fn quality(detected: &[VaRange], truth: &[VaRange]) -> Quality {
    let hit = intersection_bytes(detected, truth) as f64;
    let truth_bytes = total_bytes(truth) as f64;
    let detected_bytes = total_bytes(detected) as f64;
    Quality {
        recall: if truth_bytes > 0.0 { hit / truth_bytes } else { 0.0 },
        accuracy: if detected_bytes > 0.0 { hit / detected_bytes } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::VirtAddr;

    fn r(a: u64, b: u64) -> VaRange {
        VaRange::new(VirtAddr(a), VirtAddr(b))
    }

    #[test]
    fn normalize_merges_overlaps() {
        let n = normalize(vec![r(10, 20), r(0, 5), r(15, 30), r(5, 5)]);
        assert_eq!(n, vec![r(0, 5), r(10, 30)]);
        assert_eq!(total_bytes(&[r(10, 20), r(15, 30)]), 20);
    }

    #[test]
    fn intersection_counts_overlap_only() {
        assert_eq!(intersection_bytes(&[r(0, 10)], &[r(5, 15)]), 5);
        assert_eq!(intersection_bytes(&[r(0, 10)], &[r(10, 20)]), 0);
        assert_eq!(intersection_bytes(&[r(0, 10), r(20, 30)], &[r(5, 25)]), 10);
    }

    #[test]
    fn sanitize_makes_names_path_safe() {
        assert_eq!(sanitize_name("MTM-w/o-AMR"), "MTM-w-o-AMR");
        assert_eq!(sanitize_name("MTM:fast-first"), "MTM-fast-first");
        assert_eq!(sanitize_name("Vanilla Tiered-AutoNUMA"), "Vanilla-Tiered-AutoNUMA");
        assert_eq!(sanitize_name("GUPS"), "GUPS");
    }

    #[test]
    fn emit_telemetry_writes_parseable_json() {
        let mut t = obs::RunTelemetry::default();
        t.manager = "MTM-w/o-OC".into();
        t.workload = "GUPS".into();
        t.registry.counter_add(obs::names::PROMOTIONS, 3);
        let dir = std::env::temp_dir()
            .join(format!("mtm-telemetry-test-{}-emit", std::process::id()));
        let path = emit_telemetry_into(&dir, None, &t).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "MTM-w-o-OC_GUPS.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = obs::json::parse(&text).unwrap();
        for key in obs::snapshot::REQUIRED_KEYS {
            assert!(json.get(key).is_some(), "missing key {key:?}");
        }
        assert_eq!(
            json.get("counters").and_then(|c| c.get(obs::names::PROMOTIONS)).and_then(|v| v.as_num()),
            Some(3.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_telemetry_files_are_disjoint_per_tenant() {
        let dir = Path::new("results/telemetry");
        let a = telemetry_path(dir, Some("t00"), "MTM", "GUPS");
        let b = telemetry_path(dir, Some("t01"), "MTM", "GUPS");
        assert_ne!(a, b, "same workload, different tenants, different files");
        assert_eq!(a.file_name().unwrap().to_str().unwrap(), "t00_MTM_GUPS.json");
        // The legacy two-part name never collides with a tenant name.
        let legacy = telemetry_path(dir, None, "MTM", "GUPS");
        assert_eq!(legacy.file_name().unwrap().to_str().unwrap(), "MTM_GUPS.json");
        assert_ne!(a, legacy);
    }

    #[test]
    fn merge_registries_sums_counters() {
        let mut a = obs::RunTelemetry::default();
        a.registry.counter_add(obs::names::PROMOTIONS, 2);
        a.registry.gauge_set(obs::names::REGION_COUNT, 5.0);
        let mut b = obs::RunTelemetry::default();
        b.registry.counter_add(obs::names::PROMOTIONS, 3);
        b.registry.gauge_set(obs::names::REGION_COUNT, 9.0);
        let merged = merge_registries([&a, &b]);
        assert_eq!(merged.counter(obs::names::PROMOTIONS), 5);
        assert_eq!(merged.gauge(obs::names::REGION_COUNT), Some(9.0));
    }

    #[test]
    fn quality_perfect_and_partial() {
        let truth = vec![r(0, 100)];
        let q = quality(&[r(0, 100)], &truth);
        assert_eq!(q, Quality { recall: 1.0, accuracy: 1.0 });
        let q = quality(&[r(0, 50), r(100, 150)], &truth);
        assert!((q.recall - 0.5).abs() < 1e-9);
        assert!((q.accuracy - 0.5).abs() < 1e-9);
        let q = quality(&[], &truth);
        assert_eq!(q, Quality { recall: 0.0, accuracy: 0.0 });
    }
}
