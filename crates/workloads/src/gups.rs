//! GUPS: random-update benchmark with a configurable hot set.
//!
//! Mirrors the paper's use of GUPS (Table 2, Figs. 1, 6, 12): a large table
//! receives read-modify-write updates at random locations; a fraction of
//! the footprint is a *hot set* receiving most of the accesses. The
//! workload also maintains the two small hot data objects of Fig. 6 — the
//! indexes used to access the hot set ("A") and the hot-set information
//! ("B") — alongside the hot set itself ("C"). The hot band can rotate
//! periodically to create the temporal variance the paper's profilers are
//! judged on, or per-page hotness can follow a Gaussian (Sec. 3).

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_4K};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

use crate::layout::{elem_addr, Layout};
use crate::rng::{cut, SplitMix64};

/// How page hotness is distributed over the table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HotsetMode {
    /// A contiguous band of `hot_frac` of the table takes
    /// `hot_access_frac` of all updates.
    Band,
    /// Per-update target pages drawn from a Gaussian centred mid-table
    /// with standard deviation `hot_frac / 2` of the table (Sec. 3's
    /// "page hotness of GUPS follows a Gaussian distribution").
    Gaussian,
}

/// GUPS configuration.
#[derive(Clone, Debug)]
pub struct GupsConfig {
    /// Table size in bytes (simulated scale).
    pub table_bytes: u64,
    /// Fraction of the table that is hot (paper: 0.2).
    pub hot_frac: f64,
    /// Fraction of updates that hit the hot set (paper: 0.8).
    pub hot_access_frac: f64,
    /// Rotate the hot band every this many profiling intervals.
    pub rotate_every: Option<u64>,
    /// Hotness shape.
    pub mode: HotsetMode,
    /// Number of application threads (for per-thread generators).
    pub threads: usize,
    /// Application compute time per update, ns (the paper's GUPS is
    /// application-limited: each thread performs 1M updates per phase,
    /// i.e. hundreds of thousands of updates per second system-wide).
    pub cpu_ns_per_op: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GupsConfig {
    /// The paper's configuration scaled by `scale`: a 512 GB table, 20 %
    /// hot set, 80 % of accesses to it.
    pub fn paper(scale: u64, threads: usize) -> GupsConfig {
        GupsConfig {
            table_bytes: (512u64 << 30) / scale,
            hot_frac: 0.2,
            hot_access_frac: 0.8,
            rotate_every: None,
            mode: HotsetMode::Band,
            threads,
            cpu_ns_per_op: 800.0,
            seed: 0xC0FFEE,
        }
    }
}

/// The band generator's constants, fixed until the band moves: a round
/// computes them once for all its ticks.
struct Band {
    /// `cut(hot_access_frac)`, the hot/cold coin's integer threshold.
    hot_cut: u64,
    start: u64,
    len: u64,
    /// `(table length - len).max(1)`.
    cold_len: u64,
}

/// The GUPS workload.
pub struct Gups {
    cfg: GupsConfig,
    /// Object A: indexes used to access the hot set.
    index: VaRange,
    /// Object B: hot-set information (current band bounds etc.).
    hotinfo: VaRange,
    /// The table; object C is the hot band inside it.
    table: VaRange,
    band_start: u64,
    band_len: u64,
    rngs: Vec<SplitMix64>,
    band_rng: SplitMix64,
    ops: u64,
}

impl Gups {
    /// Creates a GUPS instance (VMAs are laid out in [`Workload::setup`]).
    pub fn new(cfg: GupsConfig) -> Gups {
        assert!(cfg.table_bytes >= 8 * PAGE_SIZE_4K, "table too small");
        assert!((0.0..1.0).contains(&cfg.hot_frac) && cfg.hot_frac > 0.0);
        let rngs = (0..cfg.threads.max(1)).map(|t| SplitMix64::new(cfg.seed ^ (t as u64) << 32)).collect();
        let band_rng = SplitMix64::new(cfg.seed.wrapping_mul(31));
        Gups {
            cfg,
            index: VaRange::from_len(VirtAddr(0), 0),
            hotinfo: VaRange::from_len(VirtAddr(0), 0),
            table: VaRange::from_len(VirtAddr(0), 0),
            band_start: 0,
            band_len: 0,
            rngs,
            band_rng,
            ops: 0,
        }
    }

    /// Current hot-band range within the table (object C).
    pub fn hot_band(&self) -> VaRange {
        VaRange::from_len(VirtAddr(self.table.start.0 + self.band_start), self.band_len)
    }

    /// The index object (A).
    pub fn index_range(&self) -> VaRange {
        self.index
    }

    /// The hot-set-information object (B).
    pub fn hotinfo_range(&self) -> VaRange {
        self.hotinfo
    }

    /// The table VMA.
    pub fn table_range(&self) -> VaRange {
        self.table
    }

    /// The band generator's constants, `None` in Gaussian mode.
    fn band(&self) -> Option<Band> {
        (self.cfg.mode == HotsetMode::Band).then(|| Band {
            hot_cut: cut(self.cfg.hot_access_frac),
            start: self.band_start,
            len: self.band_len,
            cold_len: (self.table.len() - self.band_len).max(1),
        })
    }

    /// Byte offset of the next update's target within the table. The
    /// band path is inlined into every tick; the Gaussian one is not.
    #[inline(always)]
    fn pick_target(&mut self, band: Option<&Band>, tid: usize) -> u64 {
        let Some(b) = band else {
            return self.gaussian_target(tid);
        };
        let rng = &mut self.rngs[tid];
        // A hot update is `start + r` with `r` below `len`; a cold one is
        // uniform over the cold remainder, `r` below `cold_len`, shifted
        // past the band when it lands at or after its start. The 80/20
        // coin is random, so a branch on it would mispredict about one
        // update in five: `hot` is an all-ones or all-zeros mask that
        // selects the bound and the offset instead. The coin compares the
        // draw's 53-bit mantissa with `hot_cut`, which is exactly
        // `unit_f64() < hot_access_frac`.
        let hot = 0u64.wrapping_sub(((rng.next_u64() >> 11) < b.hot_cut) as u64);
        let r = rng.below(b.len & hot | b.cold_len & !hot);
        let past_band = 0u64.wrapping_sub((r >= b.start) as u64);
        r + (b.start & hot | b.len & past_band & !hot)
    }

    #[inline(never)]
    fn gaussian_target(&mut self, tid: usize) -> u64 {
        let rng = &mut self.rngs[tid];
        let pages = self.table.len() / PAGE_SIZE_4K;
        let sigma = (pages as f64 * self.cfg.hot_frac / 2.0).max(1.0);
        let centre = pages as f64 / 2.0;
        let mut p = centre + sigma * rng.gaussian();
        if p < 0.0 || p >= pages as f64 {
            p = rng.below(pages) as f64;
        }
        (p as u64) * PAGE_SIZE_4K + rng.below(PAGE_SIZE_4K / 8) * 8
    }

    fn rotate_band(&mut self) {
        let len = self.table.len();
        let step = (len / 16).max(PAGE_SIZE_4K);
        let max_start = len - self.band_len;
        self.band_start = (self.band_start + step + self.band_rng.below(step)) % max_start.max(1);
        // Align the band to pages so ground truth is page-granular.
        self.band_start &= !(PAGE_SIZE_4K - 1);
    }

    /// One tick on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    #[inline(always)]
    fn step<E: MemEnv + ?Sized>(&mut self, band: Option<&Band>, env: &mut E, tid: usize) {
        env.compute(tid, self.cfg.cpu_ns_per_op);
        let target_off = self.pick_target(band, tid);
        let rng = &mut self.rngs[tid];
        // Object A: read the index slot for this update.
        let slots = self.index.len() / 8;
        let a = elem_addr(self.index, rng.below(slots), 8);
        env.read(tid, a);
        // Object B: consult hot-set information.
        env.read(tid, VirtAddr(self.hotinfo.start.0 + rng.below(self.hotinfo.len() / 8) * 8));
        // Object C / table: read-modify-write the target element.
        env.update(tid, VirtAddr(self.table.start.0 + (target_off & !7)));
        self.ops += 1;
    }
}

impl Workload for Gups {
    fn name(&self) -> String {
        "GUPS".into()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let mut layout = Layout::new();
        let index_bytes = (self.cfg.table_bytes / 512).max(PAGE_SIZE_4K);
        self.index = layout.add(env, "gups.index", index_bytes, true);
        self.hotinfo = layout.add(env, "gups.hotinfo", PAGE_SIZE_4K, true);
        self.table = layout.add(env, "gups.table", self.cfg.table_bytes, true);
        self.band_len =
            (((self.table.len() as f64 * self.cfg.hot_frac) as u64) & !(PAGE_SIZE_4K - 1)).max(PAGE_SIZE_4K);
        // The hot set is a random selection of the footprint (Sec. 9.3);
        // start the band mid-table so no placement policy gets it into
        // fast memory for free.
        self.band_start = (self.table.len() / 2) & !(PAGE_SIZE_4K - 1);
        // Touch everything so placement is decided by the active manager.
        let threads = self.cfg.threads;
        crate::layout::populate_interleaved(
            env,
            &[self.index, self.hotinfo, self.table],
            threads,
        );
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        let band = self.band();
        self.step(band.as_ref(), env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        let band = self.band();
        round_ticks(env, threads, |t, tid| self.step(band.as_ref(), t, tid));
    }

    fn footprint(&self) -> u64 {
        self.index.len() + self.hotinfo.len() + self.table.len()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        match self.cfg.mode {
            HotsetMode::Band => vec![self.index, self.hotinfo, self.hot_band()],
            HotsetMode::Gaussian => {
                // Central +/- sigma band holds ~68 % of accesses.
                let len = self.table.len();
                let sigma = (len as f64 * self.cfg.hot_frac / 2.0) as u64;
                let centre = len / 2;
                let start = (self.table.start.0 + centre.saturating_sub(sigma)) & !(PAGE_SIZE_4K - 1);
                vec![self.index, self.hotinfo, VaRange::from_len(VirtAddr(start), 2 * sigma)]
            }
        }
    }

    fn end_of_interval(&mut self, interval: u64) {
        if let Some(every) = self.cfg.rotate_every {
            if (interval + 1) % every == 0 {
                self.rotate_band();
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{Machine, MachineConfig};
    use tiersim::sim::{FirstTouchPolicy, SimEnv};
    use tiersim::tier::tiny_two_tier;

    fn small_cfg() -> GupsConfig {
        GupsConfig {
            table_bytes: 8 * PAGE_SIZE_2M,
            hot_frac: 0.2,
            hot_access_frac: 0.8,
            rotate_every: Some(2),
            mode: HotsetMode::Band,
            threads: 2,
            cpu_ns_per_op: 0.0,
            seed: 7,
        }
    }

    fn run_setup(g: &mut Gups) -> Machine {
        let mut m =
            Machine::new(MachineConfig::new(tiny_two_tier(64 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M), 2));
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        g.setup(&mut env);
        m
    }

    #[test]
    fn setup_maps_whole_footprint() {
        let mut g = Gups::new(small_cfg());
        let m = run_setup(&mut g);
        assert_eq!(m.page_table().mapped_bytes(), g.footprint());
        assert!(g.footprint() > 8 * PAGE_SIZE_2M);
    }

    #[test]
    fn setup_writes_each_mapping_it_creates_once() {
        // Population skips settled mappings, so the counters hold one
        // write per mapping, not one per 4 KB page (5,120 here).
        let mut g = Gups::new(small_cfg());
        let m = run_setup(&mut g);
        let mut mappings = 0;
        for v in m.page_table().vmas() {
            m.page_table().for_each_mapped_in(v.range, |_, _, _| mappings += 1);
        }
        let counts = m.counters().all();
        assert_eq!(counts.iter().map(|c| c.loads).sum::<u64>(), 0);
        assert_eq!(counts.iter().map(|c| c.stores).sum::<u64>(), mappings);
        assert_eq!(m.stats().alloc_faults, mappings);
        assert_eq!(mappings, 10, "two index/hot-info huge pages and eight table ones");
    }

    #[test]
    fn updates_favour_hot_band() {
        let mut g = Gups::new(small_cfg());
        let mut m = run_setup(&mut g);
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        let band = g.hot_band();
        let mut hot = 0;
        let n = 20_000;
        for i in 0..n {
            let before = g.ops;
            g.tick(&mut env, i % 2);
            assert_eq!(g.ops, before + 1);
            let t = g.pick_target(g.band().as_ref(), i % 2);
            if band.contains(VirtAddr(g.table_range().start.0 + t)) {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!((0.72..0.88).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn rotation_moves_band() {
        let mut g = Gups::new(small_cfg());
        let _m = run_setup(&mut g);
        let before = g.hot_band();
        g.end_of_interval(0); // Interval 0: no rotation ((0+1) % 2 != 0).
        assert_eq!(g.hot_band(), before);
        g.end_of_interval(1);
        assert_ne!(g.hot_band(), before, "band rotated after the configured period");
        assert_eq!(g.hot_band().len(), before.len());
    }

    #[test]
    fn gaussian_mode_targets_centre() {
        let mut cfg = small_cfg();
        cfg.mode = HotsetMode::Gaussian;
        let mut g = Gups::new(cfg);
        let _m = run_setup(&mut g);
        let len = g.table_range().len();
        let mut central = 0;
        let n = 20_000;
        for _ in 0..n {
            let t = g.pick_target(g.band().as_ref(), 0);
            assert!(t < len);
            if (t as f64 - len as f64 / 2.0).abs() < len as f64 * 0.2 {
                central += 1;
            }
        }
        // +/- 2 sigma covers ~95 % of draws.
        assert!(central as f64 > 0.85 * n as f64, "central = {central}");
    }

    #[test]
    fn true_hot_ranges_cover_objects() {
        let mut g = Gups::new(small_cfg());
        let _m = run_setup(&mut g);
        let hot = g.true_hot_ranges();
        assert_eq!(hot.len(), 3);
        assert_eq!(hot[0], g.index_range());
        assert_eq!(hot[2], g.hot_band());
    }
}
