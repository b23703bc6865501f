//! O1: the obs metric-name audit.
//!
//! Every counter/gauge/histogram name must be declared exactly once in
//! `obs::names` (`crates/obs/src/metrics.rs`), be unique, and match
//! `[a-z0-9_]+`; every booking call (`counter_add`, `gauge_set` and
//! `observe`) must go through a declared const, not
//! a raw string literal — a typo'd literal silently forks a new series —
//! and every declared const must actually be booked somewhere, or the
//! dashboardable surface drifts from the code.

use crate::{annotation_reason, has_ident, is_test_path, strip_code, test_mask, Finding, Rule};
use std::collections::BTreeMap;

/// Where the metric-name constants live.
const NAMES_FILE: &str = "crates/obs/src/metrics.rs";

/// One `pub const NAME: &str = "value";` declaration in `obs::names`.
#[derive(Clone, Debug)]
pub struct NameDecl {
    /// Const identifier (`PAGES_MIGRATED`).
    pub ident: String,
    /// The metric name string (`pages_migrated`).
    pub value: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// Parses the `pub mod names { ... }` block of the metrics file into its
/// const declarations, returning the declarations and the 1-based line
/// span of the block (for excluding it from usage counting).
pub fn parse_names(src: &str) -> (Vec<NameDecl>, std::ops::Range<usize>) {
    let stripped = strip_code(src);
    let mut decls = Vec::new();
    let mut region = 0..0;
    let mut depth = 0i64;
    let mut inside = false;
    for (idx, (raw, strip)) in src.lines().zip(stripped.lines()).enumerate() {
        if !inside && strip.contains("pub mod names") {
            inside = true;
            region.start = idx + 1;
        }
        if inside {
            for c in strip.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            let t = raw.trim_start();
            if let Some(rest) = t.strip_prefix("pub const ") {
                if let Some((ident, tail)) = rest.split_once(':') {
                    if tail.contains("&str") {
                        if let Some(open) = raw.find('"') {
                            if let Some(len) = raw[open + 1..].find('"') {
                                decls.push(NameDecl {
                                    ident: ident.trim().to_string(),
                                    value: raw[open + 1..open + 1 + len].to_string(),
                                    line: idx + 1,
                                });
                            }
                        }
                    }
                }
            }
            if depth <= 0 && idx + 1 > region.start {
                region.end = idx + 1;
                break;
            }
        }
    }
    (decls, region)
}

/// Booking calls whose first argument must be a declared const.
const BOOKING_CALLS: &[&str] = &["counter_add(", "gauge_set(", ".observe("];

/// Runs the audit over the whole workspace's sources.
pub fn audit(files: &[(String, String)]) -> Vec<Finding> {
    let Some((_, metrics_src)) = files.iter().find(|(rel, _)| rel == NAMES_FILE) else {
        return Vec::new();
    };
    let (decls, region) = parse_names(metrics_src);
    let mut findings = Vec::new();

    // Declarations: unique values, closed charset.
    let mut first_by_value: BTreeMap<&str, &NameDecl> = BTreeMap::new();
    for d in &decls {
        if d.value.is_empty()
            || !d.value.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            findings.push(Finding {
                path: NAMES_FILE.to_string(),
                line: d.line,
                rule: Rule::ObsName,
                message: format!("metric name \"{}\" must match [a-z0-9_]+", d.value),
            });
        }
        if let Some(prev) = first_by_value.get(d.value.as_str()) {
            findings.push(Finding {
                path: NAMES_FILE.to_string(),
                line: d.line,
                rule: Rule::ObsName,
                message: format!(
                    "duplicate metric name \"{}\" (first declared as {} at line {})",
                    d.value, prev.ident, prev.line
                ),
            });
        } else {
            first_by_value.insert(&d.value, d);
        }
    }

    // Usage sweep + raw-literal bookings.
    let mut used: BTreeMap<&str, bool> = decls.iter().map(|d| (d.ident.as_str(), false)).collect();
    for (rel, src) in files {
        if is_test_path(rel) || !rel.ends_with(".rs") {
            continue;
        }
        let stripped = strip_code(src);
        let stripped_lines: Vec<&str> = stripped.lines().collect();
        let raw_lines: Vec<&str> = src.lines().collect();
        let mask = test_mask(&stripped_lines);
        let names_decl_region = if rel == NAMES_FILE { region.clone() } else { 0..0 };
        for (idx, line) in stripped_lines.iter().enumerate() {
            let in_decls = names_decl_region.contains(&(idx + 1));
            // Const usages count anywhere outside the declaration block
            // (tests included: a name booked only from tests is still a
            // deliberate registration).
            if !in_decls {
                for d in &decls {
                    if has_ident(line, &d.ident) {
                        used.insert(d.ident.as_str(), true);
                    }
                }
            }
            if mask[idx] || in_decls {
                continue;
            }
            // Raw string literals at booking call sites. strip_code is
            // 1:1 on byte positions, so an index found in the stripped
            // line addresses the same spot in the raw line.
            let mut sites: Vec<usize> = Vec::new();
            for pat in BOOKING_CALLS {
                let mut start = 0;
                while let Some(p) = line[start..].find(pat) {
                    sites.push(start + p + pat.len());
                    start += p + pat.len();
                }
            }
            for at in sites {
                let raw = raw_lines.get(idx).copied().unwrap_or("");
                // On lines holding multi-byte chars (math in comments)
                // the stripped offset may not be a raw char boundary;
                // those lines cannot host a literal booking anyway.
                let Some(rest) = raw.get(at..) else { continue };
                let rest = rest.trim_start();
                if let Some(lit) = rest.strip_prefix('"') {
                    let name: String = lit.chars().take_while(|&c| c != '"').collect();
                    if matches!(
                        annotation_reason(&raw_lines, idx, Rule::ObsName.slug()),
                        Some(r) if !r.is_empty()
                    ) {
                        continue;
                    }
                    findings.push(Finding {
                        path: rel.clone(),
                        line: idx + 1,
                        rule: Rule::ObsName,
                        message: format!(
                            "metric booked with raw literal \"{name}\"; declare it in obs::names so a typo cannot fork a new series"
                        ),
                    });
                }
            }
        }
    }

    // Dead names.
    for d in &decls {
        if !used.get(d.ident.as_str()).copied().unwrap_or(true) {
            findings.push(Finding {
                path: NAMES_FILE.to_string(),
                line: d.line,
                rule: Rule::ObsName,
                message: format!(
                    "metric {} (\"{}\") is declared but never booked anywhere",
                    d.ident, d.value
                ),
            });
        }
    }

    findings
}
