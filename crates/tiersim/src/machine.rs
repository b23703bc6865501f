//! The simulated multi-tiered machine.
//!
//! A [`Machine`] owns the topology, the page table, per-component frame
//! allocators, the virtual clock, performance counters, the PEBS sampler,
//! the hint-fault unit, and (in Memory-Mode) the hardware DRAM caches. Every
//! simulated memory access goes through [`Machine::access`], which sets PTE
//! accessed/dirty bits, fires hint and protection faults, feeds PEBS, and
//! charges virtual time — the same signal surface the paper's profilers
//! consume on real hardware.

use std::collections::BTreeMap;

use crate::addr::{VaRange, VirtAddr, CACHE_LINE, PAGE_SIZE_2M};
use crate::cache::HwCache;
use crate::clock::{Clock, TimeBreakdown};
use crate::counters::Counters;
use crate::frame::{FrameAllocator, FrameSize, OutOfMemory, VersionStore};
use crate::hintfault::HintFaultUnit;
use crate::page_table::PageTable;
use crate::pebs::{Pebs, PebsConfig};
use crate::pte::{Pte, PTE_NUMA_POISON, PTE_PROT_NONE, PTE_WRITE_TRACK};
use crate::tier::{ComponentId, NodeId, Topology};

/// Whether an access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Outcome of [`Machine::access`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessResult {
    /// The access completed.
    Ok,
    /// No mapping covers the address; the caller must place the page and
    /// retry (the simulator's demand-paging fault).
    Unmapped,
}

/// A protection fault captured for a `PROT_NONE` page (Thermostat's
/// profiling signal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtFault {
    /// Base address of the faulting page.
    pub page: VirtAddr,
    /// Faulting thread.
    pub tid: u32,
    /// True if the faulting access was a write.
    pub is_write: bool,
}

/// A region armed for write tracking during an asynchronous migration.
#[derive(Clone, Copy, Debug)]
struct WatchEntry {
    range: VaRange,
    dirty: bool,
    id: u64,
}

/// A retained demotion copy (Nomad-style non-exclusive migration): the
/// source-tier frames a demoted range used to occupy, kept allocated so a
/// clean repromotion can reuse them with zero copy traffic. A write watch
/// over the (now slower-tier) mapping invalidates the copy on the first
/// write, via the same machinery async migration uses.
#[derive(Clone, Debug)]
struct ShadowEntry {
    /// Demoted virtual range the copy mirrors.
    range: VaRange,
    /// Component holding the retained frames (the demotion source).
    component: ComponentId,
    /// Write watch armed over the demoted range; dirty means stale.
    watch_id: u64,
    /// Retained frames, one record per page at demotion time.
    pages: Vec<(VirtAddr, crate::addr::PhysAddr, FrameSize)>,
    /// Total retained bytes (sum of page sizes).
    bytes: u64,
}

/// Per-event and per-operation cost constants, in virtual nanoseconds.
///
/// Defaults are calibrated for the default simulation scale (see
/// `DESIGN.md`): one PTE scan is cheap, a hint fault costs 12x a scan
/// (Sec. 6.2), and a write-protection fault during migration costs ~40 µs
/// (Sec. 9.5).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cost of scanning (read + clear) one PTE.
    pub one_scan_ns: f64,
    /// Hint-fault cost as a multiple of `one_scan_ns`.
    pub hint_fault_mult: f64,
    /// Cost of one TLB shootdown.
    pub tlb_flush_ns: f64,
    /// Cost of a demand-paging (allocation) fault.
    pub page_fault_ns: f64,
    /// Cost of handling one write-protection fault during async migration.
    pub wp_fault_ns: f64,
    /// Cost of a protection fault used by Thermostat-style profiling.
    pub prot_fault_ns: f64,
    /// Cost to allocate one destination page during migration.
    pub migrate_alloc_page_ns: f64,
    /// Cost to unmap (invalidate PTE of) one page during migration.
    pub migrate_unmap_page_ns: f64,
    /// Cost to remap one page during migration.
    pub migrate_remap_page_ns: f64,
    /// Cost to move the page-table pages of one region.
    pub migrate_pt_region_ns: f64,
    /// Cost charged per drained PEBS sample.
    pub pebs_sample_ns: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            one_scan_ns: 60.0,
            hint_fault_mult: 12.0,
            tlb_flush_ns: 2_000.0,
            page_fault_ns: 1_500.0,
            wp_fault_ns: 40_000.0,
            prot_fault_ns: 3_000.0,
            migrate_alloc_page_ns: 250.0,
            migrate_unmap_page_ns: 150.0,
            migrate_remap_page_ns: 150.0,
            migrate_pt_region_ns: 1_200.0,
            pebs_sample_ns: 15.0,
        }
    }
}

impl CostModel {
    /// Cost of one hint fault.
    pub fn hint_fault_ns(&self) -> f64 {
        self.one_scan_ns * self.hint_fault_mult
    }
}

/// Configuration of a simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Memory topology.
    pub topology: Topology,
    /// Number of application threads.
    pub threads: usize,
    /// CPU node each thread is pinned to (`thread_node[tid]`).
    pub thread_node: Vec<NodeId>,
    /// Memory-level-parallelism factor: effective per-access latency is
    /// `link latency / mlp`. Defaults to 1: the paper's workloads chase
    /// pointers and random indices (dependent loads), which out-of-order
    /// cores cannot overlap.
    pub mlp: f64,
    /// Cost constants.
    pub costs: CostModel,
    /// PEBS programming.
    pub pebs: PebsConfig,
    /// Profiling-interval length used by interval-relative consumers.
    pub interval_ns: f64,
    /// Run the DRAM components as hardware caches of PM (Memory Mode).
    pub hmc_mode: bool,
    /// Track a 2 MB-granularity access heatmap (for Fig. 6 style plots).
    pub track_heat: bool,
}

impl MachineConfig {
    /// A sane default configuration over `topology`: `threads` threads
    /// pinned round-robin across nodes, PEBS monitoring the PM components.
    pub fn new(topology: Topology, threads: usize) -> MachineConfig {
        let nodes = topology.nodes;
        let pebs = PebsConfig::with_components(topology.pm_components());
        MachineConfig {
            topology,
            threads,
            thread_node: (0..threads).map(|t| (t as u16) % nodes).collect(),
            mlp: 1.0,
            costs: CostModel::default(),
            pebs,
            interval_ns: 10.0e6,
            hmc_mode: false,
            track_heat: false,
        }
    }

    /// Pins all threads to one node (the paper's Table 6 setting).
    pub fn pin_all_to(mut self, node: NodeId) -> MachineConfig {
        self.thread_node = vec![node; self.threads];
        self
    }
}

/// Aggregate machine statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineStats {
    /// Demand-paging faults served.
    pub alloc_faults: u64,
    /// Hint faults served.
    pub hint_faults: u64,
    /// Protection faults served.
    pub prot_faults: u64,
    /// Write-protection (async-migration tracking) faults served.
    pub wp_faults: u64,
    /// PTE scans performed.
    pub pte_scans: u64,
    /// TLB flushes performed.
    pub tlb_flushes: u64,
    /// Pages migrated (any mechanism).
    pub pages_migrated: u64,
    /// Bytes migrated (any mechanism).
    pub bytes_migrated: u64,
}

/// Precomputed per-(node, component) access-charge constants — the
/// division-free fast path of the roofline cost model. Every entry is
/// derived from [`MachineConfig`] at construction with exactly the
/// arithmetic the per-access path used to perform inline, so charging
/// from the table is bit-identical to recomputing; the config must not
/// change latency/bandwidth/`mlp` after [`Machine::new`]. The same holds
/// for `hmc_mode` and `track_heat`, which [`Machine::new`] folds into the
/// cached gate that sends every access down the general path
/// (`Machine::access` debug-asserts the gate still matches).
#[derive(Clone, Copy, Debug)]
struct ChargeSpec {
    /// `link.latency_ns / cfg.mlp`.
    lat_ns: f64,
    /// `CACHE_LINE as f64 * link.write_cost_factor()` — the roofline
    /// byte charge of one written line on this link.
    write_bytes: f64,
    /// `link.write_cost_factor()` (Memory Mode writeback charging).
    wcf: f64,
    /// `(dram latency + this link's latency) / cfg.mlp` for the PM
    /// component's Memory Mode miss path (tag check in the fronting
    /// DRAM serializes before the PM access); 0.0 outside Memory Mode.
    hmc_miss_lat_ns: f64,
}

/// The simulated machine.
pub struct Machine {
    /// Machine configuration (public for read access by policies).
    pub cfg: MachineConfig,
    pub(crate) pt: PageTable,
    pub(crate) allocators: Vec<FrameAllocator>,
    pub(crate) clock: Clock,
    pub(crate) counters: Counters,
    pub(crate) pebs: Pebs,
    pub(crate) hints: HintFaultUnit,
    pub(crate) versions: VersionStore,
    pub(crate) stats: MachineStats,
    prot_faults: Vec<ProtFault>,
    watches: Vec<WatchEntry>,
    watch_bounds: Option<VaRange>,
    next_watch_id: u64,
    /// Whether demotions retain shadow copies (Nomad non-exclusive mode).
    shadow_mode: bool,
    /// Live shadow copies, oldest first.
    shadows: Vec<ShadowEntry>,
    /// Per-(node, component) charge table, indexed
    /// `node * num_components + component` (see [`ChargeSpec`]).
    charge: Vec<ChargeSpec>,
    /// `cfg.hmc_mode || cfg.track_heat`, cached at construction: every
    /// access of such a machine takes the general path.
    always_general: bool,
    /// DRAM cache per PM component id (Memory Mode only).
    hmc_caches: BTreeMap<ComponentId, HwCache>,
    /// PM component -> fronting DRAM component (Memory Mode).
    hmc_front: BTreeMap<ComponentId, ComponentId>,
    /// Access heatmap, dense-indexed by 2 MB chunk (`va >> 21`); zero
    /// entries mean "never touched" and are skipped on snapshot.
    heat: Vec<u64>,
    /// Worker count for packetized intra-run sweeps, snapshotted from
    /// `MTM_RUN_WORKERS` at construction (see [`crate::engine`]).
    run_workers: usize,
    /// Per-run observability recorder. Recording never touches the clock
    /// or any RNG, so instrumentation cannot perturb simulated results.
    pub(crate) recorder: obs::Recorder,
    /// Fault-injection plane. Disabled by default: every query answers
    /// "no fault" without consuming randomness, so a healthy run is
    /// byte-identical to one built before this field existed.
    pub(crate) faults: faultsim::FaultState,
    /// Whether the `MTM_CHECK` shadow-state sanitizer is armed. The
    /// sanitizer only reads state and panics on violation — it never
    /// touches the clock, counters or any RNG, so a checked run is
    /// byte-identical to an unchecked one.
    checking: bool,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Machine {
        assert_eq!(cfg.thread_node.len(), cfg.threads, "one pin per thread");
        let allocators = (0..cfg.topology.num_components() as u16)
            .map(|c| FrameAllocator::new(c, cfg.topology.components[c as usize].capacity))
            .collect();
        let clock = Clock::new(cfg.threads, &cfg.topology);
        let counters = Counters::new(cfg.topology.num_components());
        let pebs = Pebs::new(&cfg.pebs);
        let mut hmc_caches = BTreeMap::new();
        let mut hmc_front = BTreeMap::new();
        if cfg.hmc_mode {
            for pm in cfg.topology.pm_components() {
                let home = cfg.topology.components[pm as usize].home_node;
                let dram = cfg
                    .topology
                    .dram_components()
                    .into_iter()
                    .find(|&d| cfg.topology.components[d as usize].home_node == home)
                    .expect("each PM has a same-socket DRAM to act as its cache");
                let cap = cfg.topology.components[dram as usize].capacity;
                hmc_caches.insert(pm, HwCache::new(cap));
                hmc_front.insert(pm, dram);
            }
        }
        let components = cfg.topology.num_components();
        let mut charge = Vec::with_capacity(cfg.topology.nodes as usize * components);
        for node in 0..cfg.topology.nodes {
            for comp in 0..components as u16 {
                let link = cfg.topology.link(node, comp);
                let hmc_miss_lat_ns = match hmc_front.get(&comp) {
                    Some(&dram) => {
                        let dram_link = cfg.topology.link(node, dram);
                        (dram_link.latency_ns + link.latency_ns) / cfg.mlp
                    }
                    None => 0.0,
                };
                charge.push(ChargeSpec {
                    lat_ns: link.latency_ns / cfg.mlp,
                    write_bytes: CACHE_LINE as f64 * link.write_cost_factor(),
                    wcf: link.write_cost_factor(),
                    hmc_miss_lat_ns,
                });
            }
        }
        let always_general = cfg.hmc_mode || cfg.track_heat;
        Machine {
            cfg,
            pt: PageTable::new(),
            allocators,
            clock,
            counters,
            pebs,
            hints: HintFaultUnit::new(),
            versions: VersionStore::new(),
            stats: MachineStats::default(),
            prot_faults: Vec::new(),
            watches: Vec::new(),
            watch_bounds: None,
            next_watch_id: 1,
            shadow_mode: false,
            shadows: Vec::new(),
            charge,
            always_general,
            hmc_caches,
            hmc_front,
            heat: Vec::new(),
            run_workers: crate::engine::workers(),
            recorder: obs::Recorder::new(),
            faults: faultsim::FaultState::disabled(),
            checking: mtm_check::enabled(),
        }
    }

    /// Installs a fault-injection plan drawn from `seed`. The previous
    /// plane (if any) is replaced wholesale; its stream restarts on the
    /// next [`Machine::reset_measurement`].
    pub fn install_faults(&mut self, plan: faultsim::FaultPlan, seed: u64) {
        self.faults = faultsim::FaultState::new(plan, seed);
    }

    /// The fault-injection plane (read-only).
    #[inline]
    pub fn faults(&self) -> &faultsim::FaultState {
        &self.faults
    }

    /// Injection counters accumulated so far.
    pub fn fault_stats(&self) -> faultsim::FaultStats {
        self.faults.stats()
    }

    /// The machine topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// The page table (read-only).
    #[inline]
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// Mutable page table access (for VMA registration and tests).
    #[inline]
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.pt
    }

    /// Aggregate statistics.
    #[inline]
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Performance counters.
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable counters (for window resets).
    #[inline]
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// The frame allocator of one component.
    #[inline]
    pub fn allocator(&self, component: ComponentId) -> &FrameAllocator {
        &self.allocators[component as usize]
    }

    /// Resizes one component's managed capacity — a multi-tenant *quota*
    /// carved from the physical component by a global arbiter. Rounded
    /// down to whole 2 MB blocks and clamped so it never drops below the
    /// bytes currently allocated (see [`FrameAllocator::set_capacity`]).
    /// Returns the effective capacity.
    pub fn set_component_quota(&mut self, component: ComponentId, bytes: u64) -> u64 {
        self.allocators[component as usize].set_capacity(bytes)
    }

    /// Mutable allocator access for tests that set up fragmentation.
    ///
    /// Mutating an allocator behind the page table's back (allocating
    /// frames that are never mapped) breaks the occupancy==census
    /// invariant by design, so taking this handle disarms the sanitizer
    /// for the rest of the machine's life.
    #[doc(hidden)]
    pub fn allocators_mut_for_test(&mut self, component: ComponentId) -> &mut FrameAllocator {
        self.checking = false;
        &mut self.allocators[component as usize]
    }

    /// CPU node a thread is pinned to.
    #[inline]
    pub fn node_of(&self, tid: usize) -> NodeId {
        self.cfg.thread_node[tid]
    }

    /// Approximate current virtual time as seen by `tid` (committed time
    /// plus the thread's open-interval latency clock).
    #[inline]
    pub fn approx_now_ns(&self, tid: usize) -> f64 {
        self.clock.breakdown().total_ns() + self.clock.thread_ns(tid)
    }

    /// Committed time breakdown.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.clock.breakdown()
    }

    /// Total committed virtual time.
    pub fn elapsed_ns(&self) -> f64 {
        self.clock.breakdown().total_ns()
    }

    /// The per-run observability recorder.
    #[inline]
    pub fn obs(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// Mutable access to the per-run observability recorder.
    #[inline]
    pub fn obs_mut(&mut self) -> &mut obs::Recorder {
        &mut self.recorder
    }

    /// Records a decision event, stamping it with the number of committed
    /// profiling intervals and the committed virtual time.
    pub fn record_event(&mut self, kind: obs::EventKind) {
        let interval = self.clock.intervals();
        let t_ns = self.clock.breakdown().total_ns();
        self.recorder.record(interval, t_ns, kind);
    }

    /// Registers a VMA (see [`PageTable::mmap`]).
    pub fn mmap(&mut self, name: &str, range: VaRange, thp: bool) {
        self.pt.mmap(name, range, thp);
    }

    /// Charges pure compute time to a thread (application think time
    /// between memory accesses — real workloads are not load-latency
    /// machines; see DESIGN.md on access-density calibration). Compute
    /// moves no bytes, so no link is charged.
    #[inline]
    pub fn compute(&mut self, tid: usize, ns: f64) {
        self.clock.charge_thread(tid, ns);
    }

    /// Issues one application access.
    ///
    /// Returns [`AccessResult::Unmapped`] if no mapping covers `va`; the
    /// caller (normally the [`crate::sim`] driver) places the page via the
    /// active manager's policy and retries.
    ///
    /// This is the fast path: a mapped page with no fault flag set, on a
    /// machine without Memory Mode or a heatmap, costs `touch`, a version
    /// bump on writes, the counters, PEBS and one charge. Everything else
    /// goes to the out-of-line general path (`Machine::access_general`).
    /// Forced inline: with a plain `#[inline]` the compiler left it an
    /// out-of-line call from `SimEnv::do_access`, which cost ~12 % of
    /// `sim_maccess_per_s` on both GUPS benchmark workloads.
    #[inline(always)]
    pub fn access(&mut self, tid: usize, va: VirtAddr, kind: AccessKind) -> AccessResult {
        debug_assert_eq!(
            self.always_general,
            self.cfg.hmc_mode || self.cfg.track_heat,
            "cfg.hmc_mode/cfg.track_heat changed after Machine::new"
        );
        let is_write = kind == AccessKind::Write;
        // `touch` sets ACCESSED (and DIRTY on writes) in the PTE and the
        // packed side metadata together, and hands back the pre-access
        // flag word the fault gate reads.
        let Some((pre, size)) = self.pt.touch(va, is_write) else {
            return AccessResult::Unmapped;
        };
        if self.always_general || pre.0 & (PTE_NUMA_POISON | PTE_PROT_NONE | PTE_WRITE_TRACK) != 0 {
            return self.access_general(tid, va, is_write, pre, size);
        }
        let frame = pre.frame();
        let component = frame.component();
        if is_write {
            self.versions.bump(frame_page_base(frame));
        }
        let node = self.cfg.thread_node[tid];
        let t_ns = self.clock.thread_ns(tid);
        self.counters.record(component, is_write);
        self.pebs.observe(va, tid as u32, component, is_write, t_ns);
        let spec = self.charge[node as usize * self.cfg.topology.num_components() + component as usize];
        // The roofline uses a read-bandwidth denominator; writes count as
        // more bytes where write bandwidth is lower.
        let bytes = if is_write { spec.write_bytes } else { CACHE_LINE as f64 };
        self.clock.charge_access(tid, spec.lat_ns, node, component, bytes);
        AccessResult::Ok
    }

    /// The general access path, for accesses whose pre-access PTE carries
    /// a fault flag (hint poison, protection, write tracking) and for
    /// every access of a Memory Mode or heat-tracking machine. `pre` and
    /// `size` are what `touch` returned.
    #[cold]
    #[inline(never)]
    fn access_general(
        &mut self,
        tid: usize,
        va: VirtAddr,
        is_write: bool,
        pre: Pte,
        size: FrameSize,
    ) -> AccessResult {
        let mut extra_ns = 0.0;
        let flags = pre.0;
        let frame = pre.frame();
        let component = frame.component();

        // Rare-path fault handling, gated on the pre-access flag word.
        if flags & (PTE_NUMA_POISON | PTE_PROT_NONE | PTE_WRITE_TRACK) != 0 {
            if flags & PTE_NUMA_POISON != 0 {
                self.pt.clear_flags(va, PTE_NUMA_POISON);
                let node = self.cfg.thread_node[tid];
                let page = va.page_4k();
                let now = self.approx_now_ns(tid);
                self.hints.fault(page, tid as u32, node, now);
                self.stats.hint_faults += 1;
                extra_ns += self.cfg.costs.hint_fault_ns();
            }
            if flags & PTE_PROT_NONE != 0 {
                // Count once, then restore protection (Thermostat clears the
                // trap after the first hit of the interval).
                self.pt.clear_flags(va, PTE_PROT_NONE);
                self.prot_faults.push(ProtFault { page: va.page_4k(), tid: tid as u32, is_write });
                self.stats.prot_faults += 1;
                extra_ns += self.cfg.costs.prot_fault_ns;
            }
            if is_write && flags & PTE_WRITE_TRACK != 0 {
                extra_ns += self.handle_wp_fault(va);
            }
        }

        if is_write {
            self.versions.bump(frame_page_base(frame));
        }
        if self.cfg.track_heat {
            let chunk = (va.0 >> 21) as usize;
            if chunk >= self.heat.len() {
                self.heat.resize((chunk + 1).next_power_of_two(), 0);
            }
            self.heat[chunk] += 1;
        }
        let node = self.cfg.thread_node[tid];
        let charge_base = node as usize * self.cfg.topology.num_components();

        // Cost: either through the hardware cache (Memory Mode) or direct.
        // All latency/byte constants come from the precomputed charge
        // table — no division on the per-access path.
        if !self.hmc_caches.is_empty() {
            if let Some(cache) = self.hmc_caches.get_mut(&component) {
                let t_ns = self.clock.thread_ns(tid);
                let dram = self.hmc_front[&component];
                // Probe at cache-line granularity: the accessed line's
                // physical address, not the page base.
                let page_span = match size {
                    FrameSize::Huge2M => PAGE_SIZE_2M,
                    FrameSize::Base4K => crate::addr::PAGE_SIZE_4K,
                };
                let line_pa = crate::addr::PhysAddr::new(
                    frame.component(),
                    frame.offset() + (va.0 & (page_span - 1)),
                );
                let probe = cache.access(line_pa, is_write);
                if probe.hit {
                    // A cache hit is served by (and counted against) DRAM.
                    self.counters.record(dram, is_write);
                    self.pebs.observe(va, tid as u32, dram, is_write, t_ns);
                    let lat = self.charge[charge_base + dram as usize].lat_ns + extra_ns;
                    self.clock.charge_access(tid, lat, node, dram, CACHE_LINE as f64);
                } else {
                    self.counters.record(component, is_write);
                    self.pebs.observe(va, tid as u32, component, is_write, t_ns);
                    // Memory Mode misses are serial: the tag check in DRAM
                    // happens before the PM access can start.
                    let spec = self.charge[charge_base + component as usize];
                    let lat = spec.hmc_miss_lat_ns + extra_ns;
                    let pm_bytes =
                        probe.fill_bytes as f64 + probe.writeback_bytes as f64 * spec.wcf;
                    self.clock.charge_access(tid, lat, node, component, pm_bytes);
                    self.clock.charge_access(tid, 0.0, node, dram, probe.fill_bytes as f64);
                }
                return AccessResult::Ok;
            }
        }
        let t_ns = self.clock.thread_ns(tid);
        self.counters.record(component, is_write);
        self.pebs.observe(va, tid as u32, component, is_write, t_ns);
        let spec = self.charge[charge_base + component as usize];
        let lat = spec.lat_ns + extra_ns;
        // The roofline uses a read-bandwidth denominator; writes count as
        // more bytes where write bandwidth is lower.
        let bytes = if is_write { spec.write_bytes } else { CACHE_LINE as f64 };
        self.clock.charge_access(tid, lat, node, component, bytes);
        AccessResult::Ok
    }

    fn handle_wp_fault(&mut self, va: VirtAddr) -> f64 {
        // Every watch covering the written page observes the write:
        // overlapping watches (a shadow-invalidation watch under an async
        // migration watch, say) must not mask each other.
        let mut any = false;
        for w in self.watches.iter_mut().filter(|w| w.range.contains(va)) {
            w.dirty = true;
            any = true;
        }
        if !any {
            // Stale tracking bit with no armed watch; just clear it.
            if let Some((pte, _)) = self.pt.pte_mut(va) {
                pte.clear(PTE_WRITE_TRACK);
            }
            return 0.0;
        }
        // First write detected: tracking turns off for every region whose
        // watch is now dirty — except where a still-clean watch overlaps
        // and needs its bits armed.
        let dirty_ranges: Vec<VaRange> =
            self.watches.iter().filter(|w| w.dirty).map(|w| w.range).collect();
        let watches = &self.watches;
        for range in dirty_ranges {
            self.pt.for_each_mapped(range, |pva, pte, _| {
                if !watches.iter().any(|w| !w.dirty && w.range.contains(pva)) {
                    pte.clear(PTE_WRITE_TRACK);
                }
            });
        }
        self.stats.wp_faults += 1;
        self.cfg.costs.wp_fault_ns
    }

    /// Allocates and maps the page covering `va`, trying components in
    /// `order`, honouring THP for eligible 2 MB chunks.
    ///
    /// Returns the chosen component. Charges a demand-paging fault to the
    /// faulting thread.
    pub fn alloc_and_map(
        &mut self,
        tid: usize,
        va: VirtAddr,
        order: &[ComponentId],
    ) -> Result<ComponentId, OutOfMemory> {
        self.alloc_and_map_inner(tid, va, order, true)
    }

    fn alloc_and_map_inner(
        &mut self,
        tid: usize,
        va: VirtAddr,
        order: &[ComponentId],
        charge: bool,
    ) -> Result<ComponentId, OutOfMemory> {
        let huge_base = va.page_2m();
        let want_huge = match self.pt.vma_of(va) {
            Some(vma) => {
                vma.thp
                    && vma.range.contains(huge_base)
                    && vma.range.contains(VirtAddr(huge_base.0 + PAGE_SIZE_2M - 1))
                    && self.pt.translate(huge_base).is_none()
                    && self.pt.mapped_page_count(VaRange::from_len(huge_base, PAGE_SIZE_2M)) == 0
            }
            None => false,
        };
        let size = if want_huge { FrameSize::Huge2M } else { FrameSize::Base4K };
        let mut chosen = None;
        for &c in order {
            if self.allocators[c as usize].can_alloc(size) {
                chosen = Some(c);
                break;
            }
        }
        let Some(c) = chosen else {
            return Err(OutOfMemory { component: order.last().copied().unwrap_or(0), size });
        };
        let frame = self.allocators[c as usize].alloc(size).expect("can_alloc checked");
        match size {
            FrameSize::Huge2M => self.pt.map_2m(huge_base, Pte::map(frame, true)),
            FrameSize::Base4K => self.pt.map_4k(va.page_4k(), Pte::map(frame, false)),
        }
        if charge {
            self.stats.alloc_faults += 1;
            let node = self.cfg.thread_node[tid];
            self.clock.charge_access(tid, self.cfg.costs.page_fault_ns, node, c, 0.0);
        }
        Ok(c)
    }

    /// Maps an address range ahead of time (setup helper), charging nothing.
    pub fn prefault_range(&mut self, range: VaRange, order: &[ComponentId]) -> Result<(), OutOfMemory> {
        let mut va = range.start.page_4k();
        while va < range.end {
            if self.pt.translate(va).is_none() {
                self.alloc_and_map_quiet(va, order)?;
            }
            // Skip to the end of whatever mapping now covers `va`.
            let step = match self.pt.translate(va) {
                Some(t) if t.size == FrameSize::Huge2M => PAGE_SIZE_2M - (va.0 - va.page_2m().0),
                _ => crate::addr::PAGE_SIZE_4K,
            };
            va += step;
        }
        Ok(())
    }

    fn alloc_and_map_quiet(&mut self, va: VirtAddr, order: &[ComponentId]) -> Result<(), OutOfMemory> {
        self.alloc_and_map_inner(0, va, order, false)?;
        Ok(())
    }

    /// Scans one PTE: reads and clears its ACCESSED bit, charging one scan.
    ///
    /// Returns `None` if the page is unmapped, otherwise whether the bit was
    /// set and whether the mapping is huge.
    pub fn scan_page(&mut self, va: VirtAddr) -> Option<(bool, bool)> {
        let (accessed, size) = self.pt.scan_page_at(va)?;
        let huge = size == FrameSize::Huge2M;
        self.stats.pte_scans += 1;
        self.clock.charge_profiling(self.cfg.costs.one_scan_ns);
        Some((accessed, huge))
    }

    /// Clears the ACCESSED bit of the page covering `va` without reading
    /// it, charging one scan — the apply half of a packetized scan pass
    /// whose read half already sampled the bit from the packed side
    /// metadata ([`PageTable::accessed_at`]). Returns whether the page
    /// was mapped (unmapped pages cost nothing, as in
    /// [`Machine::scan_page`]).
    pub fn scan_page_clear(&mut self, va: VirtAddr) -> bool {
        if self.pt.clear_accessed_at(va).is_none() {
            return false;
        }
        self.stats.pte_scans += 1;
        self.clock.charge_profiling(self.cfg.costs.one_scan_ns);
        true
    }

    /// Reads the ACCESSED bit without clearing or charging (test helper).
    pub fn peek_accessed(&self, va: VirtAddr) -> Option<bool> {
        self.pt.translate(va).map(|t| t.pte.accessed())
    }

    /// Poisons the page covering `va` for a NUMA hint fault, charging one
    /// scan's worth of profiling time.
    pub fn poison_page(&mut self, va: VirtAddr) -> bool {
        let now = self.clock.breakdown().total_ns();
        let Some((pte, _)) = self.pt.pte_mut(va) else { return false };
        pte.set(PTE_NUMA_POISON);
        self.hints.poison(va.page_4k(), now);
        self.clock.charge_profiling(self.cfg.costs.one_scan_ns);
        true
    }

    /// Removes protection from the page covering `va` (Thermostat-style
    /// fault-based profiling), charging one scan.
    pub fn protect_page(&mut self, va: VirtAddr) -> bool {
        let Some((pte, _)) = self.pt.pte_mut(va) else { return false };
        pte.set(PTE_PROT_NONE);
        self.clock.charge_profiling(self.cfg.costs.one_scan_ns);
        true
    }

    /// Drains captured protection faults.
    pub fn drain_prot_faults(&mut self) -> Vec<ProtFault> {
        std::mem::take(&mut self.prot_faults)
    }

    /// Drains captured hint faults. An active fault plan may lose records
    /// on the way out (the kernel's fault queue overran).
    pub fn drain_hint_faults(&mut self) -> Vec<crate::hintfault::HintFault> {
        let mut faults = self.hints.drain();
        if self.faults.is_active() && !faults.is_empty() {
            let before = faults.len();
            faults.retain(|_| !self.faults.drop_hint());
            let lost = (before - faults.len()) as u64;
            if lost > 0 {
                self.recorder.reg.counter_add(obs::names::FAULT_HINTS_LOST, lost);
            }
        }
        if !faults.is_empty() {
            self.recorder.reg.counter_add(obs::names::HINT_FAULTS_DRAINED, faults.len() as u64);
            self.recorder.reg.observe(obs::names::HINT_DRAIN_BATCH, faults.len() as u64);
        }
        faults
    }

    /// Version counter of a physical frame (bumped on every simulated
    /// write; copied by migration). Lets tests prove no write is lost.
    pub fn frame_version(&self, frame: crate::addr::PhysAddr) -> u64 {
        self.versions.get(frame)
    }

    /// PEBS sampler statistics: `(samples taken, dropped, pending)`.
    pub fn pebs_stats(&self) -> (u64, u64, usize) {
        (self.pebs.taken(), self.pebs.dropped(), self.pebs.pending())
    }

    /// PEBS samples taken per component (see [`crate::pebs::Pebs::component_counts`]).
    pub fn pebs_component_counts(&self) -> Vec<(ComponentId, u64)> {
        self.pebs.component_counts()
    }

    /// Largest number of simultaneously poisoned hint-fault PTEs.
    pub fn hint_poisoned_peak(&self) -> usize {
        self.hints.poisoned_peak()
    }

    /// Drains PEBS samples, charging the per-sample processing cost to
    /// profiling. An active fault plan may drop samples before they reach
    /// the consumer (ring-buffer overrun); dropped samples cost nothing
    /// because they were never processed.
    pub fn drain_pebs(&mut self) -> Vec<crate::pebs::PebsSample> {
        let mut samples = self.pebs.drain();
        if self.faults.is_active() && !samples.is_empty() {
            let before = samples.len();
            samples.retain(|_| !self.faults.drop_pebs());
            let lost = (before - samples.len()) as u64;
            if lost > 0 {
                self.recorder.reg.counter_add(obs::names::FAULT_PEBS_LOST, lost);
            }
        }
        self.clock.charge_profiling(samples.len() as f64 * self.cfg.costs.pebs_sample_ns);
        if !samples.is_empty() {
            self.recorder.reg.counter_add(obs::names::PEBS_SAMPLES_DRAINED, samples.len() as u64);
            self.recorder.reg.observe(obs::names::PEBS_DRAIN_BATCH, samples.len() as u64);
        }
        samples
    }

    /// Arms write tracking over `range` for an asynchronous migration.
    ///
    /// Sets the reserved write-track bit on every mapped page in the range
    /// and performs one TLB flush (Sec. 7.2: "flushes TLB for once").
    /// Returns a watch id to pass to [`Machine::take_watch`].
    pub fn arm_write_watch(&mut self, range: VaRange) -> u64 {
        self.pt.for_each_mapped(range, |_, pte, _| pte.set(PTE_WRITE_TRACK));
        self.clock.charge_migration(self.cfg.costs.tlb_flush_ns);
        self.stats.tlb_flushes += 1;
        let id = self.next_watch_id;
        self.next_watch_id += 1;
        self.watches.push(WatchEntry { range, dirty: false, id });
        self.watch_bounds = Some(match self.watch_bounds {
            None => range,
            Some(b) => VaRange::new(b.start.min(range.start), b.end.max(range.end)),
        });
        id
    }

    /// Disarms a watch and reports whether a write was observed while armed.
    pub fn take_watch(&mut self, id: u64) -> bool {
        let Some(idx) = self.watches.iter().position(|w| w.id == id) else {
            return false;
        };
        let w = self.watches.swap_remove(idx);
        if !w.dirty {
            // Tracking bits are still set; clear them, except where
            // another still-clean watch overlaps and needs them armed.
            let watches = &self.watches;
            self.pt.for_each_mapped(w.range, |pva, pte, _| {
                if !watches.iter().any(|o| !o.dirty && o.range.contains(pva)) {
                    pte.clear(PTE_WRITE_TRACK);
                }
            });
        }
        if self.watches.is_empty() {
            self.watch_bounds = None;
        }
        w.dirty
    }

    /// Whether watch `id` has observed a write, without disarming it.
    /// `None` when no such watch is armed.
    pub fn watch_dirty(&self, id: u64) -> Option<bool> {
        self.watches.iter().find(|w| w.id == id).map(|w| w.dirty)
    }

    /// Number of armed write watches (regression-test hook: drop paths
    /// must leave no watch behind).
    pub fn active_watches(&self) -> usize {
        self.watches.len()
    }

    /// Closes the current profiling interval on the clock, returning its
    /// wall time.
    pub fn commit_interval(&mut self) -> f64 {
        let dt = self.clock.commit_interval(&self.cfg.topology);
        if self.checking {
            self.verify_consistency("interval boundary");
        }
        dt
    }

    /// Wall time accumulated in the open interval so far.
    pub fn open_interval_ns(&self) -> f64 {
        self.clock.open_interval_ns(&self.cfg.topology)
    }

    /// Charges profiling time directly (manager bookkeeping).
    pub fn charge_profiling(&mut self, ns: f64) {
        self.clock.charge_profiling(ns);
    }

    /// Charges critical-path migration time directly.
    pub fn charge_migration(&mut self, ns: f64) {
        self.clock.charge_migration(ns);
    }

    /// Zeroes all time, counters and event statistics (used after
    /// workload setup so reports exclude initialization).
    pub fn reset_measurement(&mut self) {
        self.clock = Clock::new(self.cfg.threads, &self.cfg.topology);
        self.counters = Counters::new(self.cfg.topology.num_components());
        self.heat.clear();
        self.stats = MachineStats::default();
        self.pebs = Pebs::new(&self.cfg.pebs);
        self.prot_faults.clear();
        self.hints.reset_stats();
        self.recorder = obs::Recorder::new();
        // Rewind the injection stream so the measured run sees the same
        // fault schedule a fresh machine would.
        self.faults.reset();
    }

    /// The 2 MB-granularity access heatmap (empty unless `track_heat`).
    /// Ascending by address (dense indexing keeps it sorted for free).
    pub fn heat_snapshot(&self) -> Vec<(VirtAddr, u64)> {
        self.heat
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(chunk, &n)| (VirtAddr((chunk as u64) << 21), n))
            .collect()
    }

    /// Worker count used by packetized intra-run sweeps.
    #[inline]
    pub fn run_workers(&self) -> usize {
        self.run_workers
    }

    /// Overrides the packet worker count for this machine (tests pin it
    /// programmatically instead of racing on `MTM_RUN_WORKERS`).
    pub fn set_run_workers(&mut self, workers: usize) {
        self.run_workers = workers.max(1);
    }

    /// Component currently backing the page at `va`, if mapped.
    pub fn component_of(&self, va: VirtAddr) -> Option<ComponentId> {
        self.pt.translate(va).map(|t| t.pte.frame().component())
    }

    /// Bytes resident per component.
    pub fn residency(&self) -> Vec<u64> {
        self.allocators.iter().map(|a| a.used()).collect()
    }

    // ---------------------------------------------------------------
    // Nomad-style non-exclusive (shadow-copy) demotion support. With the
    // mode off (the default) no shadow state ever exists and every path
    // below is dead, so behavior is bit-identical to a machine built
    // before the mode existed.

    /// Whether demotions retain a shadow copy in the source tier.
    #[inline]
    pub fn shadow_mode(&self) -> bool {
        self.shadow_mode
    }

    /// Enables or disables shadow-copy retention on demotion.
    pub fn set_shadow_mode(&mut self, on: bool) {
        self.shadow_mode = on;
    }

    /// Bytes retained as shadow copies on `component`.
    pub fn shadow_bytes(&self, component: ComponentId) -> u64 {
        self.shadows.iter().filter(|e| e.component == component).map(|e| e.bytes).sum()
    }

    /// Total shadow bytes across all components.
    pub fn shadow_total_bytes(&self) -> u64 {
        self.shadows.iter().map(|e| e.bytes).sum()
    }

    /// Number of live shadow entries (test hook).
    pub fn shadow_entries(&self) -> usize {
        self.shadows.len()
    }

    /// Registers a shadow copy for a just-demoted `range`: the retained
    /// source-tier frames in `pages`. The invalidation watch is armed
    /// here — after the remap — so the tracking bits land on the new
    /// (slower-tier) mappings.
    pub(crate) fn register_shadow(
        &mut self,
        range: VaRange,
        component: ComponentId,
        pages: Vec<(VirtAddr, crate::addr::PhysAddr, FrameSize)>,
    ) {
        debug_assert!(self.shadow_mode && !pages.is_empty());
        let bytes = pages.iter().map(|&(_, _, s)| s.bytes()).sum();
        let watch_id = self.arm_write_watch(range);
        self.shadows.push(ShadowEntry { range, component, watch_id, pages, bytes });
    }

    /// Clean shadow bytes that pages of `range` could repromote onto
    /// `dst` without copying: exact `(va, granularity)` matches under a
    /// clean watch, counting only pages that currently live elsewhere.
    pub(crate) fn shadow_match_bytes(&self, range: VaRange, dst: ComponentId) -> u64 {
        let mut total = 0;
        for e in &self.shadows {
            if e.component != dst
                || !e.range.overlaps(range)
                || self.watch_dirty(e.watch_id) != Some(false)
            {
                continue;
            }
            for &(va, _, size) in &e.pages {
                if !range.contains(va) {
                    continue;
                }
                if let Some(t) = self.pt.translate(va) {
                    if t.size == size && t.pte.frame().component() != dst {
                        total += size.bytes();
                    }
                }
            }
        }
        total
    }

    /// Consumes the retained frame for `va` if a clean shadow copy on
    /// `dst` holds one at exactly `size` granularity. A dirty entry found
    /// on the way is invalidated wholesale (frames freed, watch disarmed)
    /// instead of being reused.
    pub(crate) fn take_shadow_page(
        &mut self,
        va: VirtAddr,
        dst: ComponentId,
        size: FrameSize,
    ) -> Option<crate::addr::PhysAddr> {
        let mut idx = 0;
        while idx < self.shadows.len() {
            let e = &self.shadows[idx];
            if e.component != dst || !e.range.contains(va) {
                idx += 1;
                continue;
            }
            if self.watch_dirty(e.watch_id) != Some(false) {
                // Stale copy: a write landed since the demotion.
                self.invalidate_shadow_at(idx);
                continue;
            }
            let e = &mut self.shadows[idx];
            if let Some(p) = e.pages.iter().position(|&(pva, _, psz)| pva == va && psz == size) {
                let (_, frame, psz) = e.pages.swap_remove(p);
                e.bytes -= psz.bytes();
                if e.pages.is_empty() {
                    let watch_id = e.watch_id;
                    self.shadows.remove(idx);
                    self.take_watch(watch_id);
                }
                return Some(frame);
            }
            idx += 1;
        }
        None
    }

    /// Invalidates every shadow entry overlapping `range`, on any
    /// component: the pages moved, so a retained copy is no longer paired
    /// with a watched mapping and could go stale silently.
    pub(crate) fn invalidate_shadows_overlapping(&mut self, range: VaRange) {
        let mut idx = 0;
        while idx < self.shadows.len() {
            if self.shadows[idx].range.overlaps(range) {
                self.invalidate_shadow_at(idx);
            } else {
                idx += 1;
            }
        }
    }

    /// Reclaims shadow frames on `dst` (oldest entry first) until `need`
    /// bytes are free or no eligible entry remains. Entries overlapping
    /// `keep` are skipped: they may be about to satisfy shadow hits for
    /// the relocation requesting the space.
    pub(crate) fn reclaim_shadow_space(&mut self, dst: ComponentId, need: u64, keep: VaRange) {
        let mut idx = 0;
        while idx < self.shadows.len() {
            if self.allocators[dst as usize].free() >= need {
                return;
            }
            let e = &self.shadows[idx];
            if e.component == dst && !e.range.overlaps(keep) {
                self.invalidate_shadow_at(idx);
            } else {
                idx += 1;
            }
        }
    }

    /// Frees every frame of shadow entry `idx`, disarms its watch, counts
    /// one invalidation and removes the entry.
    fn invalidate_shadow_at(&mut self, idx: usize) {
        let e = self.shadows.remove(idx);
        for &(_, frame, size) in &e.pages {
            self.allocators[e.component as usize].free_frame(frame, size);
        }
        self.take_watch(e.watch_id);
        self.recorder.reg.counter_add(obs::names::SHADOW_INVALIDATIONS, 1);
    }

    // ---------------------------------------------------------------
    // Checkpoint support: full dynamic-state serialization. The machine
    // is rebuilt from its configuration at restore time (`Machine::new`)
    // and `load_state` then overwrites every piece of dynamic state, so
    // derived structures (the charge table, PEBS programming, packed
    // side metadata) re-derive from config + restored state instead of
    // being stored. `run_workers` and `checking` are deliberately *not*
    // part of the state: they are environment-derived execution knobs
    // that must not alter simulated results, and a checkpoint written
    // under one knob setting must restore under any other.

    /// Digest of every configuration parameter that shapes simulated
    /// state. A checkpoint written under one configuration refuses to
    /// load under another: silently restoring dynamic state onto a
    /// machine with different capacities or costs would diverge.
    pub fn config_digest(&self) -> u64 {
        let mut w = obs::wire::Writer::new();
        let t = &self.cfg.topology;
        w.varint(t.components.len() as u64);
        for c in &t.components {
            w.str(&c.name);
            w.u8(match c.kind {
                crate::tier::MemKind::Dram => 0,
                crate::tier::MemKind::Pm => 1,
            });
            w.u16(c.home_node);
            w.u64(c.capacity);
        }
        w.u16(t.nodes);
        for row in &t.links {
            for l in row {
                w.f64(l.latency_ns);
                w.f64(l.bandwidth_gbps);
                w.f64(l.write_bandwidth_gbps);
            }
        }
        w.varint(self.cfg.threads as u64);
        for &n in &self.cfg.thread_node {
            w.u16(n);
        }
        w.f64(self.cfg.mlp);
        let c = &self.cfg.costs;
        for v in [
            c.one_scan_ns,
            c.hint_fault_mult,
            c.tlb_flush_ns,
            c.page_fault_ns,
            c.wp_fault_ns,
            c.prot_fault_ns,
            c.migrate_alloc_page_ns,
            c.migrate_unmap_page_ns,
            c.migrate_remap_page_ns,
            c.migrate_pt_region_ns,
            c.pebs_sample_ns,
        ] {
            w.f64(v);
        }
        w.u64(self.cfg.pebs.period);
        w.varint(self.cfg.pebs.monitored.len() as u64);
        for &m in &self.cfg.pebs.monitored {
            w.u16(m);
        }
        w.varint(self.cfg.pebs.buffer_cap as u64);
        w.f64(self.cfg.interval_ns);
        w.bool(self.cfg.hmc_mode);
        w.bool(self.cfg.track_heat);
        obs::wire::fnv1a(&w.into_bytes())
    }

    /// Serializes the machine's complete dynamic state (page table,
    /// allocators, clock, counters, samplers, watches, shadow copies,
    /// statistics and the observability recorder) into a self-describing
    /// blob restorable with [`Machine::load_state`].
    ///
    /// Returns an error in Memory Mode (hardware-cache tag state is not
    /// checkpointable) and while a fault-injection plan is active (the
    /// injection stream's position is owned by the plan, not the
    /// machine).
    pub fn save_state(&self) -> Result<Vec<u8>, String> {
        if self.cfg.hmc_mode {
            return Err("checkpoint: Memory Mode (hmc_mode) machines are not checkpointable \
                        (hardware DRAM-cache tag state is opaque)"
                .to_string());
        }
        if self.faults.is_active() {
            return Err("checkpoint: machines with an active fault-injection plan are not \
                        checkpointable (the injection stream is owned by the plan)"
                .to_string());
        }
        let mut w = obs::wire::Writer::new();
        w.u64(self.config_digest());
        self.pt.save(&mut w);
        w.varint(self.allocators.len() as u64);
        for a in &self.allocators {
            a.save(&mut w);
        }
        self.clock.save(&mut w);
        self.counters.save(&mut w);
        self.pebs.save(&mut w);
        self.hints.save(&mut w);
        self.versions.save(&mut w);
        let s = &self.stats;
        for v in [
            s.alloc_faults,
            s.hint_faults,
            s.prot_faults,
            s.wp_faults,
            s.pte_scans,
            s.tlb_flushes,
            s.pages_migrated,
            s.bytes_migrated,
        ] {
            w.varint(v);
        }
        w.varint(self.prot_faults.len() as u64);
        for f in &self.prot_faults {
            w.u64(f.page.0);
            w.u32(f.tid);
            w.bool(f.is_write);
        }
        w.varint(self.watches.len() as u64);
        for watch in &self.watches {
            w.u64(watch.range.start.0);
            w.u64(watch.range.end.0);
            w.bool(watch.dirty);
            w.u64(watch.id);
        }
        match self.watch_bounds {
            Some(b) => {
                w.bool(true);
                w.u64(b.start.0);
                w.u64(b.end.0);
            }
            None => w.bool(false),
        }
        w.u64(self.next_watch_id);
        w.bool(self.shadow_mode);
        w.varint(self.shadows.len() as u64);
        for e in &self.shadows {
            w.u64(e.range.start.0);
            w.u64(e.range.end.0);
            w.u16(e.component);
            w.u64(e.watch_id);
            w.varint(e.pages.len() as u64);
            for &(va, frame, size) in &e.pages {
                w.u64(va.0);
                w.u16(frame.component());
                w.u64(frame.offset());
                w.bool(size == FrameSize::Huge2M);
            }
        }
        w.varint(self.heat.len() as u64);
        for &h in &self.heat {
            w.varint(h);
        }
        self.recorder.save(&mut w);
        Ok(w.into_bytes())
    }

    /// Restores dynamic state captured by [`Machine::save_state`] into
    /// this machine, which must be freshly built (`Machine::new`) from a
    /// configuration whose [`Machine::config_digest`] matches the one
    /// embedded in the blob.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.cfg.hmc_mode {
            return Err("checkpoint: cannot restore into a Memory Mode machine".to_string());
        }
        let mut r = obs::wire::Reader::new(bytes);
        let digest = r.u64()?;
        if digest != self.config_digest() {
            return Err(format!(
                "checkpoint: config digest mismatch (saved {:#018x}, this machine {:#018x})",
                digest,
                self.config_digest()
            ));
        }
        self.pt = PageTable::load(&mut r)?;
        let n = r.varint()? as usize;
        if n != self.allocators.len() {
            return Err(format!(
                "checkpoint: allocator count mismatch (saved {n}, have {})",
                self.allocators.len()
            ));
        }
        for a in self.allocators.iter_mut() {
            a.load(&mut r)?;
        }
        self.clock.load(&mut r)?;
        self.counters.load(&mut r)?;
        self.pebs.load(&mut r)?;
        self.hints = HintFaultUnit::load(&mut r)?;
        self.versions = VersionStore::load(&mut r)?;
        self.stats = MachineStats {
            alloc_faults: r.varint()?,
            hint_faults: r.varint()?,
            prot_faults: r.varint()?,
            wp_faults: r.varint()?,
            pte_scans: r.varint()?,
            tlb_flushes: r.varint()?,
            pages_migrated: r.varint()?,
            bytes_migrated: r.varint()?,
        };
        self.prot_faults.clear();
        for _ in 0..r.varint()? {
            self.prot_faults.push(ProtFault {
                page: VirtAddr(r.u64()?),
                tid: r.u32()?,
                is_write: r.bool()?,
            });
        }
        self.watches.clear();
        for _ in 0..r.varint()? {
            self.watches.push(WatchEntry {
                range: VaRange::new(VirtAddr(r.u64()?), VirtAddr(r.u64()?)),
                dirty: r.bool()?,
                id: r.u64()?,
            });
        }
        self.watch_bounds = if r.bool()? {
            Some(VaRange::new(VirtAddr(r.u64()?), VirtAddr(r.u64()?)))
        } else {
            None
        };
        self.next_watch_id = r.u64()?;
        self.shadow_mode = r.bool()?;
        self.shadows.clear();
        for _ in 0..r.varint()? {
            let range = VaRange::new(VirtAddr(r.u64()?), VirtAddr(r.u64()?));
            let component = r.u16()?;
            let watch_id = r.u64()?;
            let mut pages = Vec::new();
            for _ in 0..r.varint()? {
                let va = VirtAddr(r.u64()?);
                let fc = r.u16()?;
                let off = r.u64()?;
                let size = if r.bool()? { FrameSize::Huge2M } else { FrameSize::Base4K };
                pages.push((va, crate::addr::PhysAddr::new(fc, off), size));
            }
            let bytes = pages.iter().map(|&(_, _, s)| s.bytes()).sum();
            self.shadows.push(ShadowEntry { range, component, watch_id, pages, bytes });
        }
        let heat_len = r.varint()? as usize;
        self.heat.clear();
        self.heat.reserve(heat_len);
        for _ in 0..heat_len {
            self.heat.push(r.varint()?);
        }
        self.recorder = obs::Recorder::load(&mut r)?;
        self.faults = faultsim::FaultState::disabled();
        r.finish()?;
        if self.checking {
            self.verify_consistency("checkpoint restore");
        }
        Ok(())
    }

    /// Hardware-cache hit ratio per PM component (Memory Mode only).
    pub fn hmc_hit_ratios(&self) -> Vec<(ComponentId, f64)> {
        let mut v: Vec<(ComponentId, f64)> =
            self.hmc_caches.iter().map(|(&c, cache)| (c, cache.hit_ratio())).collect();
        v.sort_by_key(|&(c, _)| c);
        v
    }

    // ---------------------------------------------------------------
    // MTM_CHECK shadow-state sanitizer (see crates/check and DESIGN.md
    // §5d). Everything below is read-only with respect to simulated
    // state: it can panic, never perturb.

    /// True when the shadow-state sanitizer is armed for this machine.
    /// Initialized from `MTM_CHECK=1` in the process environment; tests
    /// toggle it programmatically with [`Machine::set_checking`] so they
    /// never race on environment variables.
    #[inline]
    pub fn checking(&self) -> bool {
        self.checking
    }

    /// Arms or disarms the shadow-state sanitizer.
    pub fn set_checking(&mut self, on: bool) {
        self.checking = on;
    }

    /// Shadow snapshot of the mapped state of `range`: virtual page base
    /// -> (component, frame offset, bytes), exactly as the page table
    /// reports it.
    pub fn shadow_of(&self, range: VaRange) -> mtm_check::ShadowState {
        let mut s = mtm_check::ShadowState::new();
        self.pt.for_each_mapped_in(range, |va, pte, size| {
            s.insert(
                va.0,
                mtm_check::ShadowPage {
                    component: pte.frame().component(),
                    frame_offset: pte.frame().offset(),
                    bytes: size.bytes(),
                },
            );
        });
        s
    }

    /// Full-machine invariant check. Verifies, from one sorted walk of
    /// the page table:
    ///
    /// - every mapped PTE points at a frame of an existing component, and
    ///   no two live mappings share (overlap) a frame;
    /// - per-component occupancy: the page-table census equals the frame
    ///   allocator's `used()`, and neither exceeds capacity;
    /// - obs migration counters are consistent with the retained ring
    ///   events (exact while the bounded ring has dropped nothing).
    ///
    /// Panics with a structured violation report; returns silently when
    /// every invariant holds.
    pub fn verify_consistency(&self, context: &str) {
        let mut violations = Vec::new();
        let ncomp = self.allocators.len();
        let mut mapped = vec![0u64; ncomp];
        let mut spans: Vec<(u16, u64, u64, u64)> = Vec::new();
        // Census as work packets: one packet per 1 GB directory group,
        // reduced in index order, so the packetized walk visits pages in
        // exactly the ascending order `for_each_mapped_all` would.
        let packets = crate::engine::map_chunks(
            self.run_workers,
            self.pt.dir_count(),
            1,
            |dirs| {
                let mut mapped = vec![0u64; ncomp];
                let mut spans: Vec<(u16, u64, u64, u64)> = Vec::new();
                let mut violations = Vec::new();
                for di in dirs {
                    self.pt.for_each_mapped_in_dir(di, |va, pte, size| {
                        let frame = pte.frame();
                        let c = frame.component();
                        if (c as usize) < ncomp {
                            mapped[c as usize] += size.bytes();
                        } else {
                            violations.push(format!(
                                "page {:#x} maps component {c} but the machine has {ncomp} component(s)",
                                va.0
                            ));
                        }
                        spans.push((c, frame.offset(), frame.offset() + size.bytes(), va.0));
                    });
                }
                (mapped, spans, violations)
            },
        );
        for (pm, ps, pv) in packets {
            for (c, b) in pm.into_iter().enumerate() {
                mapped[c] += b;
            }
            spans.extend(ps);
            violations.extend(pv);
        }
        // Cross-check the packed side metadata against the PTE bits (the
        // source of truth): any drift means a scan path bypassed the
        // touch/scan accessors.
        violations.extend(self.pt.check_side_metadata());
        // Shadow copies occupy allocator space without backing a mapping:
        // census them separately, and feed their frame spans into the
        // overlap sweep — a shadow frame aliasing a live mapping (or
        // another shadow) means a frame was reused while still retained.
        let mut shadow = vec![0u64; ncomp];
        for e in &self.shadows {
            let mut entry_bytes = 0;
            for &(va, frame, size) in &e.pages {
                let c = frame.component();
                if (c as usize) < ncomp {
                    shadow[c as usize] += size.bytes();
                } else {
                    violations.push(format!(
                        "shadow frame for page {:#x} names component {c} but the machine has {ncomp} component(s)",
                        va.0
                    ));
                }
                if c != e.component {
                    violations.push(format!(
                        "shadow entry over {:?} books component {} but holds a frame on component {c}",
                        e.range, e.component
                    ));
                }
                spans.push((c, frame.offset(), frame.offset() + size.bytes(), va.0));
                entry_bytes += size.bytes();
            }
            if entry_bytes != e.bytes {
                violations.push(format!(
                    "shadow entry over {:?} books {} B but holds {} B of frames",
                    e.range, e.bytes, entry_bytes
                ));
            }
            if self.watch_dirty(e.watch_id).is_none() {
                violations.push(format!(
                    "shadow entry over {:?} has no armed invalidation watch (id {})",
                    e.range, e.watch_id
                ));
            }
        }
        let rows: Vec<mtm_check::CensusRow> = self
            .allocators
            .iter()
            .enumerate()
            .map(|(c, a)| mtm_check::CensusRow {
                component: c as u16,
                mapped_bytes: mapped[c],
                shadow_bytes: shadow[c],
                allocator_used: a.used(),
                capacity: a.capacity(),
            })
            .collect();
        violations.extend(mtm_check::check_census(&rows));
        violations.extend(mtm_check::check_frame_overlap(&mut spans));

        let ring = &self.recorder.ring;
        let count_of = |label: &str| ring.iter().filter(|e| e.kind.label() == label).count() as u64;
        let reg = &self.recorder.reg;
        let pairs: Vec<mtm_check::CounterEventPair> = [
            (obs::names::ASYNC_CLEAN, "async_clean"),
            (obs::names::SWITCHED_SYNC, "switched_sync"),
            (obs::names::SYNC_DIRECT, "sync_direct"),
            (obs::names::MIGRATIONS_DROPPED, "migration_dropped"),
            (obs::names::MIGRATION_ABORTS, "migration_aborted"),
            (obs::names::MIGRATION_DEFERRALS, "migration_deferred"),
            (obs::names::SHADOW_HITS, "shadow_hit"),
            (obs::names::ADMIT_REJECTED, "admission_rejected"),
        ]
        .iter()
        .map(|&(name, label)| mtm_check::CounterEventPair {
            name,
            counter: reg.counter(name),
            events: count_of(label),
        })
        .collect();
        violations.extend(mtm_check::check_counter_events(&pairs, ring.dropped()));
        // Retries: one MigrationRetried event summarizes all retries of an
        // eventually-successful call, and calls that exhaust their budget
        // record no event at all — so the counter is a lower-bounded sum,
        // never exactly the event count.
        let retried_in_ring: u64 = ring
            .iter()
            .map(|e| match e.kind {
                obs::EventKind::MigrationRetried { retries, .. } => retries,
                _ => 0,
            })
            .sum();
        if reg.counter(obs::names::MIGRATION_RETRIES) < retried_in_ring {
            violations.push(format!(
                "counter/ring drift for {}: counter={} but retained migration_retried events sum to {}",
                obs::names::MIGRATION_RETRIES,
                reg.counter(obs::names::MIGRATION_RETRIES),
                retried_in_ring
            ));
        }
        mtm_check::assert_clean(context, violations);
    }
}

/// Rounds a frame address down to its 4 KB base for version bookkeeping.
fn frame_page_base(frame: crate::addr::PhysAddr) -> crate::addr::PhysAddr {
    crate::addr::PhysAddr::new(frame.component(), frame.offset() & !(crate::addr::PAGE_SIZE_4K - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::tiny_two_tier;

    impl Machine {
        /// `access` as a single function, before the fast/general split:
        /// the oracle the split path must match bit for bit.
        fn access_reference(&mut self, tid: usize, va: VirtAddr, kind: AccessKind) -> AccessResult {
            let is_write = kind == AccessKind::Write;
            let Some((pre, _size)) = self.pt.touch(va, is_write) else {
                return AccessResult::Unmapped;
            };
            let mut extra_ns = 0.0;
            let flags = pre.0;
            let frame = pre.frame();
            let component = frame.component();

            if flags & (PTE_NUMA_POISON | PTE_PROT_NONE | PTE_WRITE_TRACK) != 0 {
                if flags & PTE_NUMA_POISON != 0 {
                    self.pt.clear_flags(va, PTE_NUMA_POISON);
                    let node = self.cfg.thread_node[tid];
                    let page = va.page_4k();
                    let now = self.approx_now_ns(tid);
                    self.hints.fault(page, tid as u32, node, now);
                    self.stats.hint_faults += 1;
                    extra_ns += self.cfg.costs.hint_fault_ns();
                }
                if flags & PTE_PROT_NONE != 0 {
                    self.pt.clear_flags(va, PTE_PROT_NONE);
                    self.prot_faults.push(ProtFault { page: va.page_4k(), tid: tid as u32, is_write });
                    self.stats.prot_faults += 1;
                    extra_ns += self.cfg.costs.prot_fault_ns;
                }
                if is_write && flags & PTE_WRITE_TRACK != 0 {
                    extra_ns += self.handle_wp_fault(va);
                }
            }

            if is_write {
                self.versions.bump(frame_page_base(frame));
            }
            if self.cfg.track_heat {
                let chunk = (va.0 >> 21) as usize;
                if chunk >= self.heat.len() {
                    self.heat.resize((chunk + 1).next_power_of_two(), 0);
                }
                self.heat[chunk] += 1;
            }
            let node = self.cfg.thread_node[tid];
            let charge_base = node as usize * self.cfg.topology.num_components();

            if !self.hmc_caches.is_empty() {
                if let Some(cache) = self.hmc_caches.get_mut(&component) {
                    let t_ns = self.clock.thread_ns(tid);
                    let dram = self.hmc_front[&component];
                    let page_span = match _size {
                        FrameSize::Huge2M => PAGE_SIZE_2M,
                        FrameSize::Base4K => crate::addr::PAGE_SIZE_4K,
                    };
                    let line_pa = crate::addr::PhysAddr::new(
                        frame.component(),
                        frame.offset() + (va.0 & (page_span - 1)),
                    );
                    let probe = cache.access(line_pa, is_write);
                    if probe.hit {
                        self.counters.record(dram, is_write);
                        self.pebs.observe(va, tid as u32, dram, is_write, t_ns);
                        let lat = self.charge[charge_base + dram as usize].lat_ns + extra_ns;
                        self.clock.charge_access(tid, lat, node, dram, CACHE_LINE as f64);
                    } else {
                        self.counters.record(component, is_write);
                        self.pebs.observe(va, tid as u32, component, is_write, t_ns);
                        let spec = self.charge[charge_base + component as usize];
                        let lat = spec.hmc_miss_lat_ns + extra_ns;
                        let pm_bytes =
                            probe.fill_bytes as f64 + probe.writeback_bytes as f64 * spec.wcf;
                        self.clock.charge_access(tid, lat, node, component, pm_bytes);
                        self.clock.charge_access(tid, 0.0, node, dram, probe.fill_bytes as f64);
                    }
                    return AccessResult::Ok;
                }
            }
            let t_ns = self.clock.thread_ns(tid);
            self.counters.record(component, is_write);
            self.pebs.observe(va, tid as u32, component, is_write, t_ns);
            let spec = self.charge[charge_base + component as usize];
            let lat = spec.lat_ns + extra_ns;
            let bytes = if is_write { spec.write_bytes } else { CACHE_LINE as f64 };
            self.clock.charge_access(tid, lat, node, component, bytes);
            AccessResult::Ok
        }

        /// `compute` before it stopped charging zero bytes to link
        /// (node, 0).
        fn compute_reference(&mut self, tid: usize, ns: f64) {
            let node = self.cfg.thread_node[tid];
            self.clock.charge_access(tid, ns, node, 0, 0.0);
        }
    }

    /// Every piece of state an access can change, serialized: PTE and
    /// side-metadata bits, clock accumulators as f64 bit patterns,
    /// counter totals and windows, PEBS buffer and countdown, hint-fault
    /// queue, frame versions, statistics, protection faults, heatmap and
    /// Memory Mode hit ratios.
    fn fingerprint(m: &Machine) -> Vec<u8> {
        let mut w = obs::wire::Writer::new();
        m.pt.save(&mut w);
        m.clock.save(&mut w);
        m.counters.save(&mut w);
        m.pebs.save(&mut w);
        m.hints.save(&mut w);
        m.versions.save(&mut w);
        w.str(&format!("{:?} {:?}", m.stats, m.prot_faults));
        for (va, n) in m.heat_snapshot() {
            w.u64(va.0);
            w.varint(n);
        }
        for (c, ratio) in m.hmc_hit_ratios() {
            w.u16(c);
            w.f64(ratio);
        }
        w.into_bytes()
    }

    #[test]
    fn prop_split_access_matches_reference() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        // Memory Mode x heatmap x THP, then a stream of
        // (op, page, line, tid) steps over 48 pages in three 2 MB chunks,
        // so pages repeat and the fault flags get hit.
        prop_check!(
            "split_access_matches_reference",
            48,
            (
                gen::u8_range(0, 8),
                gen::vec_in(
                    (
                        gen::u8_range(0, 14),
                        gen::u64_range(0, 48),
                        gen::u64_range(0, 64),
                        gen::usize_range(0, 2),
                    ),
                    1,
                    200,
                ),
            ),
            |(mode, ops)| {
                let build = || {
                    let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
                    let mut cfg = MachineConfig::new(topo, 2);
                    cfg.hmc_mode = mode & 1 != 0;
                    cfg.track_heat = mode & 2 != 0;
                    cfg.pebs.period = 3;
                    cfg.pebs.buffer_cap = 16;
                    let mut m = Machine::new(cfg);
                    m.mmap("prop", VaRange::from_len(VirtAddr(0), 3 * PAGE_SIZE_2M), mode & 4 != 0);
                    m
                };
                let (mut fast, mut reference) = (build(), build());
                let mut watches = Vec::new();
                for (step, &(op, page, line, tid)) in ops.iter().enumerate() {
                    let va = VirtAddr((page % 3) * PAGE_SIZE_2M + (page / 3) * 4096 + line * 64);
                    match op {
                        0..=7 => {
                            let kind = if op < 5 { AccessKind::Read } else { AccessKind::Write };
                            let a = fast.access(tid, va, kind);
                            let b = reference.access_reference(tid, va, kind);
                            prop_assert_eq!(a, b, "step {step}");
                            if a == AccessResult::Unmapped {
                                // Demand fault: place, then retry.
                                let order: &[ComponentId] = if page % 2 == 0 { &[0, 1] } else { &[1, 0] };
                                let ca = fast.alloc_and_map(tid, va, order);
                                let cb = reference.alloc_and_map(tid, va, order);
                                prop_assert_eq!(ca, cb, "step {step}");
                                prop_assert_eq!(fast.access(tid, va, kind), AccessResult::Ok);
                                prop_assert_eq!(reference.access_reference(tid, va, kind), AccessResult::Ok);
                            }
                        }
                        8 => {
                            let ns = (line * 7) as f64 + 0.25;
                            fast.compute(tid, ns);
                            reference.compute_reference(tid, ns);
                        }
                        9 => prop_assert_eq!(fast.poison_page(va), reference.poison_page(va)),
                        10 => prop_assert_eq!(fast.protect_page(va), reference.protect_page(va)),
                        11 => {
                            let range = VaRange::from_len(va.page_2m(), PAGE_SIZE_2M);
                            let id = fast.arm_write_watch(range);
                            prop_assert_eq!(reference.arm_write_watch(range), id);
                            watches.push(id);
                        }
                        12 => {
                            if !watches.is_empty() {
                                let id = watches.remove(line as usize % watches.len());
                                prop_assert_eq!(fast.take_watch(id), reference.take_watch(id));
                            }
                        }
                        _ => {
                            prop_assert_eq!(
                                fast.commit_interval().to_bits(),
                                reference.commit_interval().to_bits()
                            );
                            fast.counters_mut().reset_window();
                            reference.counters_mut().reset_window();
                        }
                    }
                    prop_assert_eq!(fingerprint(&fast), fingerprint(&reference), "step {step} op {op}");
                }
                for &id in &watches {
                    prop_assert_eq!(fast.watch_dirty(id), reference.watch_dirty(id));
                }
                prop_assert_eq!(fast.drain_pebs(), reference.drain_pebs());
                prop_assert_eq!(fast.drain_hint_faults(), reference.drain_hint_faults());
                prop_assert_eq!(fast.drain_prot_faults(), reference.drain_prot_faults());
                prop_assert_eq!(fast.open_interval_ns().to_bits(), reference.open_interval_ns().to_bits());
            }
        );
    }

    fn machine() -> Machine {
        let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 2);
        cfg.mlp = 1.0;
        let mut m = Machine::new(cfg);
        m.mmap("test", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
        m
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = machine();
        assert_eq!(m.access(0, VirtAddr(0x1000), AccessKind::Read), AccessResult::Unmapped);
        m.alloc_and_map(0, VirtAddr(0x1000), &[0, 1]).unwrap();
        assert_eq!(m.access(0, VirtAddr(0x1000), AccessKind::Read), AccessResult::Ok);
        assert_eq!(m.stats().alloc_faults, 1);
    }

    #[test]
    fn access_sets_bits_and_counters() {
        let mut m = machine();
        let va = VirtAddr(0x3000);
        m.alloc_and_map(0, va, &[0]).unwrap();
        m.access(0, va, AccessKind::Write);
        assert!(m.peek_accessed(va).unwrap());
        assert_eq!(m.counters().component(0).stores, 1);
        let (accessed, huge) = m.scan_page(va).unwrap();
        assert!(accessed && !huge);
        assert!(!m.peek_accessed(va).unwrap(), "scan clears the bit");
        assert_eq!(m.stats().pte_scans, 1);
    }

    #[test]
    fn thp_allocates_huge_frames() {
        let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 4 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("thp", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), true);
        m.alloc_and_map(0, VirtAddr(0x1234), &[0]).unwrap();
        let t = m.page_table().translate(VirtAddr(0x1234)).unwrap();
        assert_eq!(t.size, FrameSize::Huge2M);
        assert_eq!(m.allocator(0).used(), PAGE_SIZE_2M);
    }

    #[test]
    fn allocation_falls_through_full_components() {
        let topo = tiny_two_tier(PAGE_SIZE_2M, 4 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        m.mmap("a", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), true);
        m.alloc_and_map(0, VirtAddr(0), &[0, 1]).unwrap();
        let c = m.alloc_and_map(0, VirtAddr(PAGE_SIZE_2M), &[0, 1]).unwrap();
        assert_eq!(c, 1, "fast component full; spilled to slow");
    }

    #[test]
    fn hint_fault_captured_on_poisoned_access() {
        let mut m = machine();
        let va = VirtAddr(0x5000);
        m.alloc_and_map(1, va, &[0]).unwrap();
        assert!(m.poison_page(va));
        m.access(1, va, AccessKind::Read);
        let faults = m.drain_hint_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].page, va.page_4k());
        assert_eq!(m.stats().hint_faults, 1);
        // Poison cleared: no further fault.
        m.access(1, va, AccessKind::Read);
        assert!(m.drain_hint_faults().is_empty());
    }

    #[test]
    fn prot_fault_counts_once() {
        let mut m = machine();
        let va = VirtAddr(0x7000);
        m.alloc_and_map(0, va, &[0]).unwrap();
        m.protect_page(va);
        m.access(0, va, AccessKind::Write);
        m.access(0, va, AccessKind::Write);
        let faults = m.drain_prot_faults();
        assert_eq!(faults.len(), 1);
        assert!(faults[0].is_write);
    }

    #[test]
    fn write_watch_detects_first_write_only() {
        let mut m = machine();
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        for p in 0..4u64 {
            m.alloc_and_map(0, VirtAddr(p * 4096), &[0]).unwrap();
        }
        let id = m.arm_write_watch(range);
        let wp_before = m.stats().wp_faults;
        m.access(0, VirtAddr(0x1000), AccessKind::Read);
        assert_eq!(m.stats().wp_faults, wp_before, "reads do not trip the watch");
        m.access(0, VirtAddr(0x2000), AccessKind::Write);
        m.access(0, VirtAddr(0x3000), AccessKind::Write);
        assert_eq!(m.stats().wp_faults, 1, "tracking disarms after the first write");
        assert!(m.take_watch(id));
    }

    #[test]
    fn clean_watch_reports_clean() {
        let mut m = machine();
        m.alloc_and_map(0, VirtAddr(0), &[0]).unwrap();
        let id = m.arm_write_watch(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M));
        m.access(0, VirtAddr(0), AccessKind::Read);
        assert!(!m.take_watch(id));
    }

    #[test]
    fn prefault_is_free() {
        let mut m = machine();
        m.prefault_range(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), &[1]).unwrap();
        assert_eq!(m.stats().alloc_faults, 0);
        assert_eq!(m.component_of(VirtAddr(0x1000)), Some(1));
        assert_eq!(m.elapsed_ns(), 0.0);
    }

    #[test]
    fn hmc_mode_routes_through_cache() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 1);
        cfg.hmc_mode = true;
        cfg.mlp = 1.0;
        let mut m = Machine::new(cfg);
        m.mmap("a", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), false);
        m.alloc_and_map(0, VirtAddr(0), &[1]).unwrap();
        m.access(0, VirtAddr(0), AccessKind::Read); // Miss.
        m.access(0, VirtAddr(0), AccessKind::Read); // Hit.
        let ratios = m.hmc_hit_ratios();
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn save_state_round_trips_and_resumes_identically() {
        let build = || {
            let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
            let mut cfg = MachineConfig::new(topo, 2);
            cfg.pebs.period = 2;
            cfg.track_heat = true;
            cfg.mlp = 1.0;
            Machine::new(cfg)
        };
        let mut m = build();
        m.mmap("test", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
        for p in 0..6u64 {
            m.alloc_and_map(0, VirtAddr(p * 4096), &[0, 1]).unwrap();
        }
        m.poison_page(VirtAddr(0x2000));
        m.protect_page(VirtAddr(0x3000));
        let watch = m.arm_write_watch(VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M));
        for i in 0..32u64 {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            m.access((i % 2) as usize, VirtAddr((i % 6) * 4096), kind);
        }
        m.record_event(obs::EventKind::Promotion { bytes: 4096, src: 1, dst: 0 });
        let blob = m.save_state().unwrap();

        let mut n = build();
        n.load_state(&blob).unwrap();
        assert_eq!(n.save_state().unwrap(), blob, "restored state re-saves byte-identically");
        assert_eq!(n.stats().alloc_faults, m.stats().alloc_faults);
        assert_eq!(n.elapsed_ns(), m.elapsed_ns());
        assert_eq!(n.watch_dirty(watch), m.watch_dirty(watch));

        // Both machines must now evolve in lockstep.
        for i in 0..16u64 {
            m.access(0, VirtAddr((i % 6) * 4096), AccessKind::Write);
            n.access(0, VirtAddr((i % 6) * 4096), AccessKind::Write);
        }
        assert_eq!(m.commit_interval(), n.commit_interval());
        assert_eq!(m.drain_pebs(), n.drain_pebs());
        assert_eq!(m.drain_hint_faults(), n.drain_hint_faults());
        assert_eq!(m.drain_prot_faults(), n.drain_prot_faults());
        assert_eq!(m.save_state().unwrap(), n.save_state().unwrap());
    }

    #[test]
    fn load_state_rejects_config_mismatch() {
        let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let m = Machine::new(MachineConfig::new(topo, 2));
        let blob = m.save_state().unwrap();
        let other = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut n = Machine::new(MachineConfig::new(other, 2));
        let err = n.load_state(&blob).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn save_state_refuses_memory_mode() {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 1);
        cfg.hmc_mode = true;
        let m = Machine::new(cfg);
        assert!(m.save_state().unwrap_err().contains("Memory Mode"));
    }

    #[test]
    fn pebs_samples_slow_tier_only() {
        let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 1);
        cfg.pebs.period = 1;
        let mut m = Machine::new(cfg);
        m.mmap("a", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), false);
        m.alloc_and_map(0, VirtAddr(0), &[0]).unwrap();
        m.alloc_and_map(0, VirtAddr(PAGE_SIZE_2M), &[1]).unwrap();
        m.access(0, VirtAddr(0), AccessKind::Read);
        m.access(0, VirtAddr(PAGE_SIZE_2M), AccessKind::Read);
        let samples = m.drain_pebs();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].component, 1);
    }
}
