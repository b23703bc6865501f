//! JSON report emission, so BENCH trajectories can be compared across
//! PRs without parsing console output.
//!
//! No serde in a hermetic workspace: the schema is flat and the writer
//! is ~40 lines of `format!`. One file per suite at
//! `results/bench_<suite>.json`, overwritten on every run.

use std::io::Write;
use std::path::PathBuf;

use crate::runner::{BenchConfig, BenchResult};

/// Workspace-root `results/` directory (benches run with the package
/// directory as cwd, so relative paths would land in `crates/bench`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Writes `results/bench_<suite>.json`; returns the path written.
pub fn write_json(
    suite: &str,
    config: &BenchConfig,
    results: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let dir = dir.canonicalize().unwrap_or(dir);
    let path = dir.join(format!("bench_{suite}.json"));
    let mut out = std::fs::File::create(&path)?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"suite\": {},", json_str(suite))?;
    writeln!(out, "  \"quick\": {},", config.quick)?;
    writeln!(out, "  \"warmup\": {},", config.warmup)?;
    writeln!(out, "  \"samples_per_bench\": {},", config.samples)?;
    writeln!(out, "  \"benches\": [")?;
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let s = &r.stats;
        let throughput = match (r.elems_per_iter, r.elems_per_sec()) {
            (Some(elems), Some(eps)) => {
                format!(", \"elems_per_iter\": {}, \"elems_per_sec\": {}", elems, json_num(eps))
            }
            _ => String::new(),
        };
        writeln!(
            out,
            "    {{\"name\": {}, \"batch\": {}, \"samples\": {}, \
             \"mean_ns\": {}, \"p50_ns\": {}, \"q1_ns\": {}, \"q3_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"stddev_ns\": {}{}}}{comma}",
            json_str(&r.name),
            r.batch,
            s.samples,
            json_num(s.mean_ns),
            json_num(s.p50_ns),
            json_num(s.q1_ns),
            json_num(s.q3_ns),
            json_num(s.min_ns),
            json_num(s.max_ns),
            json_num(s.stddev_ns),
            throughput,
        )?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(path)
}

/// Escapes a string for JSON embedding.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a finite JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;

    #[test]
    fn escapes_strings() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn non_finite_numbers_are_sanitized() {
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_num(f64::INFINITY), "0.0");
        assert_eq!(json_num(1.5), "1.500");
    }

    #[test]
    fn report_round_trips_structurally() {
        let config = BenchConfig { warmup: 0, samples: 2, quick: true };
        let results = vec![
            BenchResult {
                name: "fast".into(),
                batch: 1024,
                elems_per_iter: Some(1),
                stats: Stats::from_ns(&[10.0, 12.0]),
            },
            BenchResult {
                name: "slow/variant".into(),
                batch: 1,
                elems_per_iter: None,
                stats: Stats::from_ns(&[2.0e6, 2.1e6]),
            },
        ];
        let path = write_json("selftest", &config, &results).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"suite\": \"selftest\""));
        assert!(text.contains("\"name\": \"fast\""));
        assert!(text.contains("\"q1_ns\": 10.000, \"q3_ns\": 12.000"));
        assert!(text.contains("\"elems_per_sec\""));
        assert!(text.contains("\"name\": \"slow/variant\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        std::fs::remove_file(path).unwrap();
    }
}
