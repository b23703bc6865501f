//! The overall evaluation matrix (Sec. 9.1): every manager on every
//! workload. Fig. 4 (normalized runtime), Fig. 5 (time breakdown), Table 3
//! (hot volume / fast-tier accesses), Table 5 (MTM memory overhead) and
//! Table 7 (region statistics) all read from these shared, cached runs.

use tiersim::tier::optane_four_tier;

use crate::opts::Opts;
use crate::runs::{cached_run, prewarm, OVERALL_MANAGERS, WORKLOADS};
use crate::tablefmt::{dur, f, TextTable};

/// The cross product of managers and workloads, for [`prewarm`].
pub fn matrix(managers: &[&'static str], workloads: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    let mut pairs = Vec::with_capacity(managers.len() * workloads.len());
    for &m in managers {
        for &w in workloads {
            pairs.push((m, w));
        }
    }
    pairs
}

/// Fig. 4: overall performance normalized to first-touch NUMA.
pub fn fig4(opts: &Opts) -> String {
    prewarm(&matrix(&OVERALL_MANAGERS, &WORKLOADS), opts);
    let mut headers = vec!["workload"];
    headers.extend(OVERALL_MANAGERS);
    let mut table = TextTable::new(&headers);
    let mut ln_sums = vec![0.0f64; OVERALL_MANAGERS.len()];
    for wl in WORKLOADS {
        let base = cached_run("first-touch", wl, opts).ns_per_op_steady();
        let mut row = vec![wl.to_string()];
        for (i, mgr) in OVERALL_MANAGERS.iter().enumerate() {
            let t = cached_run(mgr, wl, opts).ns_per_op_steady();
            let norm = t / base;
            ln_sums[i] += norm.ln();
            row.push(f(norm));
        }
        table.row(row);
    }
    let mut mean_row = vec!["geo-mean".to_string()];
    for s in &ln_sums {
        mean_row.push(f((s / WORKLOADS.len() as f64).exp()));
    }
    table.row(mean_row);
    format!(
        "Fig. 4 — Overall performance (time per unit of work, normalized to first-touch NUMA; lower is better)\n\n{}",
        table.render()
    )
}

/// Fig. 5: execution-time breakdown (application / profiling / migration)
/// for the four systems that use all tiers.
pub fn fig5(opts: &Opts) -> String {
    const MANAGERS: [&str; 4] = ["first-touch", "autonuma", "autotiering", "MTM"];
    prewarm(&matrix(&MANAGERS, &WORKLOADS), opts);
    let mut table =
        TextTable::new(&["workload", "system", "app", "profiling", "migration", "total"]);
    for wl in WORKLOADS {
        // Normalize every system to the same amount of work (1M ops).
        for mgr in MANAGERS {
            let r = cached_run(mgr, wl, opts);
            let (b, ops) = r.steady();
            if ops == 0 {
                // A zero-op steady window would make the per-1M-op scale
                // factor meaningless; report the row explicitly as n/a
                // rather than printing garbage.
                eprintln!(
                    "warning: fig5 {mgr}/{wl}: no operations completed in the steady window; reporting n/a"
                );
                table.row(vec![
                    wl.to_string(),
                    r.manager.clone(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                ]);
                continue;
            }
            let k = 1e6 / ops as f64;
            table.row(vec![
                wl.to_string(),
                r.manager.clone(),
                dur(b.app_ns * k),
                dur(b.profiling_ns * k),
                dur(b.migration_ns * k),
                dur(b.total_ns() * k),
            ]);
        }
    }
    format!(
        "Fig. 5 — Breakdown of execution time per 1M operations of work (profiling stays within the 5% constraint)\n\n{}",
        table.render()
    )
}

/// Table 3: hot-page volume identified and fast-tier accesses.
pub fn table3(opts: &Opts) -> String {
    const MANAGERS: [&str; 3] = ["vanilla-autonuma", "autonuma", "MTM"];
    prewarm(&matrix(&MANAGERS, &WORKLOADS), opts);
    let topo = optane_four_tier(opts.scale);
    let mut table = TextTable::new(&[
        "workload",
        "system",
        "hot volume identified (paper scale)",
        "fast-tier accesses (M)",
    ]);
    for wl in WORKLOADS {
        for mgr in MANAGERS {
            let r = cached_run(mgr, wl, opts);
            let fast = r.accesses_at_rank(&topo, 0, 0);
            table.row(vec![
                wl.to_string(),
                r.manager.clone(),
                opts.paper_bytes(r.hot_bytes_identified),
                f(fast as f64 / 1e6),
            ]);
        }
    }
    format!(
        "Table 3 — Hot pages identified and fast-tier accesses (vanilla vs patched tiered-AutoNUMA vs MTM)\n\n{}",
        table.render()
    )
}

/// Table 5: MTM's metadata memory overhead per workload.
pub fn table5(opts: &Opts) -> String {
    prewarm(&matrix(&["MTM"], &WORKLOADS), opts);
    let mut table = TextTable::new(&[
        "workload",
        "memory overhead (sim)",
        "workload memory (sim)",
        "workload memory (paper scale)",
        "overhead %",
    ]);
    for wl in WORKLOADS {
        let r = cached_run("MTM", wl, opts);
        let pct = 100.0 * r.metadata_bytes as f64 / r.footprint.max(1) as f64;
        table.row(vec![
            wl.to_string(),
            tiersim::addr::fmt_bytes(r.metadata_bytes),
            tiersim::addr::fmt_bytes(r.footprint),
            opts.paper_bytes(r.footprint),
            format!("{pct:.4}"),
        ]);
    }
    format!("Table 5 — Extra memory used by MTM for memory management\n\n{}", table.render())
}

/// Table 7: statistics of region formation under MTM.
pub fn table7(opts: &Opts) -> String {
    prewarm(&matrix(&["MTM"], &WORKLOADS), opts);
    let mut table = TextTable::new(&[
        "workload",
        "# of PI",
        "avg # MR merged / PI",
        "avg # MR split / PI",
        "avg # MR in a PI",
    ]);
    for wl in WORKLOADS {
        let r = cached_run("MTM", wl, opts);
        let rs = r.region_stats.expect("MTM reports region stats");
        table.row(vec![
            wl.to_string(),
            rs.intervals.to_string(),
            f(rs.avg_merged),
            f(rs.avg_split),
            f(rs.avg_regions),
        ]);
    }
    format!("Table 7 — Statistics of forming memory regions using MTM\n\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Opts {
        let mut o = Opts::quick();
        o.scale = 1 << 13;
        o.intervals = 3;
        o.threads = 2;
        o
    }

    #[test]
    fn fig4_normalizes_to_first_touch() {
        let s = fig4(&tiny());
        assert!(s.contains("GUPS"));
        assert!(s.contains("MTM"));
        // First-touch normalizes to itself: first data column is 1.00.
        let line = s.lines().find(|l| l.starts_with("GUPS")).unwrap();
        assert!(line.split_whitespace().nth(1).unwrap().starts_with("1.0"));
        // The summary row is a true geometric mean; first-touch's is
        // exactly 1.00 (geo-mean of all-ones), which the old arithmetic
        // "geo-mean-ish (avg)" row also satisfied but mislabeled.
        let mean = s.lines().find(|l| l.starts_with("geo-mean")).unwrap();
        assert!(!mean.contains("avg"));
        assert!(mean.split_whitespace().nth(1).unwrap().starts_with("1.0"));
    }

    #[test]
    fn breakdown_and_tables_render() {
        let o = tiny();
        assert!(fig5(&o).contains("profiling"));
        assert!(table3(&o).contains("fast-tier"));
        assert!(table5(&o).contains("overhead"));
        assert!(table7(&o).contains("avg # MR"));
    }
}
