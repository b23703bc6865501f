//! Population writes only the pages whose mapping is not yet settled
//! (`layout::populate_interleaved`). These tests hold it to the per-page
//! loop it replaced, which wrote every 4 KB page: each paper workload,
//! on each kind of machine, must end set-up with the same page table,
//! allocators and PTE flags (and, on the machines that keep every write,
//! the same whole machine), and must then run to the same report.

use mtm::{MtmConfig, MtmManager};
use mtm_baselines::first_touch::FirstTouch;
use mtm_baselines::hmc::MemoryMode;
use mtm_workloads::layout::populate_interleaved;
use tiersim::addr::{VaRange, VirtAddr};
use tiersim::frame::FrameSize;
use tiersim::machine::{AccessKind, AccessResult, Machine, MachineConfig};
use tiersim::sim::{run_scenario, FirstTouchPolicy, MemEnv, MemoryManager, RunReport, SimEnv, Workload};
use tiersim::tier::{optane_four_tier, tiny_two_tier};
use tiersim::PAGE_SIZE_2M;

const SCALE: u64 = 4096;
const THREADS: usize = 4;
const INTERVALS: u64 = 2;

/// The per-page loop `populate_interleaved` replaced, kept as its
/// oracle: one write to every 4 KB page of `ranges`, cycling between the
/// ranges page by page, each on the thread hashed from its position.
fn populate_per_page(env: &mut dyn MemEnv, ranges: &[VaRange], threads: usize) {
    let mut iters: Vec<_> = ranges.iter().map(|r| r.iter_pages_4k()).collect();
    let mut live = iters.len();
    let mut n = 0u64;
    while live > 0 {
        live = 0;
        for it in &mut iters {
            if let Some(page) = it.next() {
                let mut x = n.wrapping_mul(0x9e3779b97f4a7c15);
                x ^= x >> 31;
                env.write((x % threads.max(1) as u64) as usize, page);
                n += 1;
                live += 1;
            }
        }
    }
}

/// The page table and every allocator, serialized.
fn mappings(m: &Machine) -> Vec<u8> {
    let mut w = obs::wire::Writer::new();
    m.page_table().save(&mut w);
    for c in 0..m.topology().num_components() as u16 {
        m.allocator(c).save(&mut w);
    }
    w.into_bytes()
}

/// A paper workload whose set-up either runs as written or populates
/// through [`populate_per_page`], and which keeps what the machine held
/// when set-up ended: its [`mappings`] and its whole state digest.
struct Probe {
    inner: Box<dyn Workload>,
    per_page: bool,
    after_setup: Option<(Vec<u8>, u64)>,
}

impl Workload for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        if self.per_page {
            // Every paper workload populates all of its VMAs, in layout
            // order. Its own set-up, on a scratch machine, fixes its
            // layout and state; the oracle then maps and writes the
            // same VMAs here.
            let mut scratch = Machine::new(MachineConfig::new(optane_four_tier(SCALE), THREADS));
            self.inner.setup(&mut SimEnv { machine: &mut scratch, manager: &mut FirstTouchPolicy });
            let vmas = scratch.page_table().vmas().to_vec();
            for v in &vmas {
                env.machine().mmap(&v.name, v.range, v.thp);
            }
            let ranges: Vec<VaRange> = vmas.iter().map(|v| v.range).collect();
            populate_per_page(env, &ranges, THREADS);
        } else {
            self.inner.setup(env);
        }
        let m = env.machine();
        self.after_setup = Some((mappings(m), m.state_digest()));
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.inner.tick(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        self.inner.round(env, threads);
    }

    fn footprint(&self) -> u64 {
        self.inner.footprint()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        self.inner.true_hot_ranges()
    }

    fn end_of_interval(&mut self, interval: u64) {
        self.inner.end_of_interval(interval);
    }

    fn ops_completed(&self) -> u64 {
        self.inner.ops_completed()
    }
}

/// The kinds of machine population must be exact on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    FirstTouch,
    Mtm,
    /// Memory Mode (`hmc`): its DRAM caches' tags outlive the reset.
    MemoryMode,
    /// MTM with the sanitizer armed: frame versions outlive the reset.
    Armed,
    /// First touch with the heatmap on.
    Heatmap,
}

impl Kind {
    const ALL: [Kind; 5] = [Kind::FirstTouch, Kind::Mtm, Kind::MemoryMode, Kind::Armed, Kind::Heatmap];

    /// Whether every access of this machine takes the general path, so
    /// population must issue every write the per-page loop did.
    fn keeps_every_write(self) -> bool {
        matches!(self, Kind::MemoryMode | Kind::Armed | Kind::Heatmap)
    }

    fn build(self) -> (Machine, Box<dyn MemoryManager>) {
        let mut cfg = MachineConfig::new(optane_four_tier(SCALE), THREADS);
        cfg.interval_ns = 1.0e6;
        cfg.hmc_mode = self == Kind::MemoryMode;
        cfg.track_heat = self == Kind::Heatmap;
        let mut m = Machine::new(cfg);
        m.set_checking(self == Kind::Armed);
        let nodes = m.topology().nodes as usize;
        let mgr: Box<dyn MemoryManager> = match self {
            Kind::FirstTouch | Kind::Heatmap => Box::new(FirstTouch),
            Kind::Mtm | Kind::Armed => Box::new(MtmManager::new(MtmConfig::default(), nodes)),
            Kind::MemoryMode => Box::new(MemoryMode),
        };
        (m, mgr)
    }
}

/// Runs `workload` on a fresh machine of `kind`; returns its report's
/// fingerprint and what the machine held when set-up ended.
fn run(workload: &str, kind: Kind, per_page: bool) -> (String, (Vec<u8>, u64)) {
    let (mut m, mut mgr) = kind.build();
    let inner = mtm_workloads::build_paper_workload(workload, SCALE, THREADS).expect("paper workload");
    let mut probe = Probe { inner, per_page, after_setup: None };
    let r: RunReport = run_scenario(&mut m, mgr.as_mut(), &mut probe, INTERVALS);
    (format!("{r:?}\n{}", r.telemetry.to_json()), probe.after_setup.expect("set-up ran"))
}

fn check_matches_per_page(workload: &str) {
    for kind in Kind::ALL {
        let (report, (maps, state)) = run(workload, kind, false);
        let (want_report, (want_maps, want_state)) = run(workload, kind, true);
        assert!(maps == want_maps, "{workload} on {kind:?}: mappings after set-up differ");
        if kind.keeps_every_write() {
            assert_eq!(state, want_state, "{workload} on {kind:?}: machine after set-up differs");
        }
        assert_eq!(report, want_report, "{workload} on {kind:?}: report differs");
    }
}

#[test]
fn gups_population_matches_per_page_writes() {
    check_matches_per_page("GUPS");
}

#[test]
fn voltdb_population_matches_per_page_writes() {
    check_matches_per_page("VoltDB");
}

#[test]
fn cassandra_population_matches_per_page_writes() {
    check_matches_per_page("Cassandra");
}

#[test]
fn bfs_population_matches_per_page_writes() {
    check_matches_per_page("BFS");
}

#[test]
fn sssp_population_matches_per_page_writes() {
    check_matches_per_page("SSSP");
}

#[test]
fn spark_population_matches_per_page_writes() {
    check_matches_per_page("Spark");
}

/// A two-tier machine whose fast tier holds two whole 2 MB blocks and
/// otherwise only scattered free 4 KB frames, with a THP VMA `a` of
/// eight huge pages and a non-THP VMA `b`. The fourth huge page of `a`
/// is already split into 4 KB mappings, every other one of them
/// unmapped; the sixth is mapped and written, then poisoned for a hint
/// fault, so it is not settled though ACCESSED and DIRTY.
fn fragmented() -> (Machine, [VaRange; 2]) {
    let mut m = Machine::new(MachineConfig::new(tiny_two_tier(8 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M), 2));
    let fast = m.allocators_mut_for_test(0);
    let frames: Vec<_> = (0..6 * 512).map(|_| fast.alloc(FrameSize::Base4K).expect("fits")).collect();
    for frame in frames.into_iter().step_by(2) {
        fast.free_frame(frame, FrameSize::Base4K);
    }
    let a = VaRange::from_len(VirtAddr(0x4000_0000), 8 * PAGE_SIZE_2M);
    let b = VaRange::from_len(VirtAddr(0x8000_0000), PAGE_SIZE_2M);
    m.mmap("a", a, true);
    m.mmap("b", b, false);
    let split = VaRange::from_len(a.start + 3 * PAGE_SIZE_2M, PAGE_SIZE_2M);
    m.prefault_range(split, &[1]).expect("slow tier has room");
    assert!(m.page_table_mut().split_huge(split.start));
    for page in split.iter_pages_4k().step_by(2) {
        m.page_table_mut().unmap(page).expect("mapped");
    }
    let poisoned = a.start + 5 * PAGE_SIZE_2M;
    m.prefault_range(VaRange::from_len(poisoned, PAGE_SIZE_2M), &[1]).expect("slow tier has room");
    assert_eq!(m.access(0, poisoned, AccessKind::Write), AccessResult::Ok);
    assert!(m.poison_page(poisoned));
    (m, [a, b])
}

#[test]
fn population_falls_back_to_4k_mappings_like_per_page_writes() {
    let (mut got, ranges) = fragmented();
    populate_interleaved(&mut SimEnv { machine: &mut got, manager: &mut FirstTouchPolicy }, &ranges, 2);
    let (mut want, _) = fragmented();
    populate_per_page(&mut SimEnv { machine: &mut want, manager: &mut FirstTouchPolicy }, &ranges, 2);
    assert!(mappings(&got) == mappings(&want), "mappings differ from per-page writes");
    assert_eq!(got.stats().hint_faults, 1, "the poisoned huge page took its fault");
    // The case is what it claims: `a` got huge pages in both tiers and
    // 4 KB pages in the fast tier partway through.
    let mut seen = Vec::new();
    got.page_table().for_each_mapped_in(ranges[0], |_, pte, size| seen.push((size, pte.frame().component())));
    for want in [(FrameSize::Huge2M, 0), (FrameSize::Huge2M, 1), (FrameSize::Base4K, 0), (FrameSize::Base4K, 1)] {
        assert!(seen.contains(&want), "no {want:?} mapping in `a`");
    }
    assert_eq!(got.page_table().mapped_bytes(), 9 * PAGE_SIZE_2M);
}
