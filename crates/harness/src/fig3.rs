//! Fig. 3: cost breakdown of migrating one 2 MB region from the fastest
//! to the slowest tier — Linux `move_pages()` vs MTM's
//! `move_memory_regions()`.

use mtm::migration::move_memory_regions_once;
use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M};
use tiersim::machine::Machine;
use tiersim::migrate::{move_pages_linux, StepBreakdown};
use tiersim::tier::optane_four_tier;

use crate::opts::Opts;
use crate::runs::healthy_machine_for;
use crate::tablefmt::{dur, TextTable};

/// A one-thread plain machine (no manager runs on it) with `bytes` at VA
/// 0 prefaulted in tier 1: the start of every migration microbenchmark.
pub(crate) fn prefaulted(opts: &Opts, bytes: u64) -> (Machine, VaRange) {
    let one = Opts { threads: 1, ..*opts };
    let mut m = healthy_machine_for("first-touch", &one, optane_four_tier(opts.scale));
    let range = VaRange::from_len(VirtAddr(0), bytes);
    m.mmap("region", range, false);
    m.prefault_range(range, &[0]).unwrap();
    (m, range)
}

/// Measured breakdowns for the two mechanisms.
pub struct Fig3Data {
    /// `move_pages()` step costs (all on the critical path).
    pub move_pages: StepBreakdown,
    /// `move_memory_regions()` step costs (full work).
    pub mmr: StepBreakdown,
    /// `move_memory_regions()` critical-path cost (copy/alloc off-path).
    pub mmr_critical: f64,
}

/// Runs the microbenchmark.
pub fn measure(opts: &Opts) -> Fig3Data {
    // Tier 1 (DRAM0) -> tier 4 (PM1) from node 0's view.
    let (mut m, range) = prefaulted(opts, PAGE_SIZE_2M);
    let mp = move_pages_linux(&mut m, range, 3, 0).expect("move_pages succeeds");
    let (mut m, range) = prefaulted(opts, PAGE_SIZE_2M);
    let (mmr, critical) =
        move_memory_regions_once(&mut m, range, 3, 0, 4, false).expect("mmr succeeds");
    Fig3Data { move_pages: mp.breakdown, mmr: mmr.breakdown, mmr_critical: critical }
}

/// Renders Fig. 3.
pub fn run(opts: &Opts) -> String {
    let d = measure(opts);
    let mut table = TextTable::new(&[
        "step",
        "move_pages()",
        "move_memory_regions() (critical path)",
    ]);
    let row = |name: &str, a: f64, b: f64| vec![name.to_string(), dur(a), dur(b)];
    table.row(row("allocate new pages", d.move_pages.alloc_ns, 0.0));
    table.row(row("unmap + invalidate", d.move_pages.unmap_ns, d.mmr.unmap_ns));
    table.row(row("copy pages", d.move_pages.copy_ns, 0.0));
    table.row(row("remap new pages", d.move_pages.remap_ns, d.mmr.remap_ns));
    table.row(row("move page-table pages", d.move_pages.pt_ns, d.mmr.pt_ns));
    table.row(row("dirtiness tracking", 0.0, d.mmr.track_ns));
    let mp_total = d.move_pages.total_ns();
    table.row(row("TOTAL (critical path)", mp_total, d.mmr_critical));
    let speedup = mp_total / d.mmr_critical;
    let copy_share = d.move_pages.copy_ns / mp_total;
    format!(
        "Fig. 3 — Breakdown for migrating a 2 MB region, tier 1 -> tier 4\n\n{}\ncopy share of move_pages(): {:.0}%   move_memory_regions() critical-path speedup: {:.2}x\n(paper: copying ~40% of total; 4.37x faster excluding async copy/alloc)\n",
        table.render(),
        copy_share * 100.0,
        speedup
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmr_critical_path_is_much_cheaper() {
        let d = measure(&Opts::quick());
        assert!(d.move_pages.copy_ns > 0.0);
        let speedup = d.move_pages.total_ns() / d.mmr_critical;
        assert!(speedup > 2.0, "speedup = {speedup:.2}");
        // The copy dominates move_pages, as the paper's Fig. 3 shows.
        assert!(d.move_pages.copy_ns / d.move_pages.total_ns() > 0.25);
    }

    #[test]
    fn report_mentions_speedup() {
        let s = run(&Opts::quick());
        assert!(s.contains("speedup"));
        assert!(s.contains("move_pages()"));
    }
}
