//! The simulated multi-tiered machine.
//!
//! A [`Machine`] owns the topology, the page table, per-component frame
//! allocators, the virtual clock, performance counters, the PEBS sampler,
//! the hint-fault unit, and (in Memory-Mode) the hardware DRAM caches. Every
//! simulated memory access goes through [`Machine::access`], which sets PTE
//! accessed/dirty bits, fires hint and protection faults, feeds PEBS, and
//! charges virtual time — the same signal surface the paper's profilers
//! consume on real hardware.

use crate::addr::{VaRange, VirtAddr, CACHE_LINE, PAGE_SIZE_2M};
use crate::cache::HwCache;
use crate::clock::{ChargeSpec, Clock, TimeBreakdown};
use crate::counters::Counters;
use crate::frame::{FrameAllocator, FrameSize, OutOfMemory, VersionStore};
use crate::hintfault::HintFaultUnit;
use crate::page_table::PageTable;
use crate::pebs::{Pebs, PebsConfig};
use crate::pte::{
    Pte, PTE_ACCESSED, PTE_DIRTY, PTE_NUMA_POISON, PTE_PRESENT, PTE_PROT_NONE, PTE_WRITE_TRACK,
};
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

/// The PTE flags whose access takes a fault (hint poison, protection,
/// write tracking).
const FAULT_BITS: u64 = PTE_NUMA_POISON | PTE_PROT_NONE | PTE_WRITE_TRACK;

/// One thread's state for a tick, held in locals: its row of the link
/// table and its open-interval latency clock. [`Machine::lane`] opens it
/// from the clock and [`Machine::park`] writes the clock back.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lane {
    pub(crate) tid: usize,
    /// `node * components` for the thread's node.
    row: usize,
    pub(crate) t_ns: f64,
}

/// A PM component's Memory Mode DRAM cache and the DRAM component that
/// holds it.
#[derive(Debug)]
struct CachedPm {
    cache: HwCache,
    dram: ComponentId,
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
    /// `slow_mask(&cfg, checking)`: the PTE flags that send an access
    /// off the inlined fast path.
    slow: u64,
    /// Memory Mode cache per component id: `Some` for each PM component
    /// of a Memory Mode machine, `None` otherwise (empty outside Memory
    /// Mode).
    hmc: Vec<Option<CachedPm>>,
    /// Access heatmap, dense-indexed by 2 MB chunk (`va >> 21`); zero
    /// entries mean "never touched" and are skipped on snapshot.
    heat: Vec<u64>,
    /// Per-run observability recorder. Recording never touches the clock
    /// or any RNG, so instrumentation cannot perturb simulated results.
    pub(crate) recorder: obs::Recorder,
    /// Fault-injection plane. Disabled by default: every query answers
    /// "no fault" without consuming randomness, so a healthy run is
    /// byte-identical to one built before this field existed.
    pub(crate) faults: faultsim::FaultState,
    /// Whether the shadow-state sanitizer is armed; off until
    /// [`Machine::set_checking`]. The sanitizer only reads state and
    /// panics on violation — it never touches the clock, counters or any
    /// RNG, so a checked run is byte-identical to an unchecked one.
    checking: bool,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Machine {
        assert_eq!(cfg.thread_node.len(), cfg.threads, "one pin per thread");
        let allocators = (0..cfg.topology.num_components() as u16)
            .map(|c| FrameAllocator::new(c, cfg.topology.components[c as usize].capacity))
            .collect();
        let counters = Counters::new(cfg.topology.num_components());
        let pebs = Pebs::new(&cfg.pebs);
        let components = cfg.topology.num_components();
        let mut hmc: Vec<Option<CachedPm>> = Vec::new();
        if cfg.hmc_mode {
            hmc.resize_with(components, || None);
            for pm in cfg.topology.pm_components() {
                let home = cfg.topology.components[pm as usize].home_node;
                let dram = cfg
                    .topology
                    .dram_components()
                    .into_iter()
                    .find(|&d| cfg.topology.components[d as usize].home_node == home)
                    .expect("each PM has a same-socket DRAM to act as its cache");
                let cache = HwCache::new(
                    cfg.topology.components[dram as usize].capacity,
                    cfg.topology.components[pm as usize].capacity,
                );
                hmc[pm as usize] = Some(CachedPm { cache, dram });
            }
        }
        let mut charge = Vec::with_capacity(cfg.topology.nodes as usize * components);
        for node in 0..cfg.topology.nodes {
            for comp in 0..components as u16 {
                let link = cfg.topology.link(node, comp);
                let (hmc_hit_lat_ns, hmc_miss_lat_ns) = match hmc.get(comp as usize) {
                    Some(Some(c)) => {
                        let dram_link = cfg.topology.link(node, c.dram);
                        (
                            dram_link.latency_ns / cfg.mlp,
                            (dram_link.latency_ns + link.latency_ns) / cfg.mlp,
                        )
                    }
                    _ => (0.0, 0.0),
                };
                charge.push(ChargeSpec {
                    lat_ns: link.latency_ns / cfg.mlp,
                    write_bytes: CACHE_LINE as f64 * link.write_cost_factor(),
                    hmc_hit_lat_ns,
                    hmc_miss_lat_ns,
                });
            }
        }
        let clock = Clock::new(cfg.threads, &cfg.topology, charge);
        let slow = slow_mask(&cfg, false);
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
            slow,
            hmc,
            heat: Vec::new(),
            recorder: obs::Recorder::new(),
            faults: faultsim::FaultState::disabled(),
            checking: false,
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

    /// Mutable allocator access for tests that set up fragmentation.
    ///
    /// Mutating an allocator behind the page table's back (allocating
    /// frames that are never mapped) breaks the occupancy==census
    /// invariant by design, so taking this handle disarms the sanitizer
    /// for the rest of the machine's life.
    #[doc(hidden)]
    pub fn allocators_mut_for_test(&mut self, component: ComponentId) -> &mut FrameAllocator {
        self.set_checking(false);
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
    #[inline]
    pub fn access(&mut self, tid: usize, va: VirtAddr, kind: AccessKind) -> AccessResult {
        let mut lane = self.lane(tid);
        let r = self.lane_access(&mut lane, va, kind);
        self.park(&lane);
        r
    }

    /// Opens thread `tid`'s [`Lane`] from the clock.
    #[inline(always)]
    pub(crate) fn lane(&self, tid: usize) -> Lane {
        let row = self.cfg.thread_node[tid] as usize * self.cfg.topology.num_components();
        Lane { tid, row, t_ns: self.clock.thread_ns[tid] }
    }

    /// Writes a lane's clock back to the machine clock.
    #[inline(always)]
    pub(crate) fn park(&mut self, lane: &Lane) {
        self.clock.thread_ns[lane.tid] = lane.t_ns;
    }

    /// Re-reads a lane's clock after something else charged it.
    #[inline(always)]
    pub(crate) fn resume(&self, lane: &mut Lane) {
        lane.t_ns = self.clock.thread_ns[lane.tid];
    }

    /// One access on an open lane: the simulator's fast path.
    ///
    /// A mapped page none of whose flags is in the slow mask costs
    /// `touch`, the counters, PEBS and one charge. One test of the
    /// pre-access flag word against the mask sends everything else (a
    /// fault flag, Memory Mode, a heatmap, the armed sanitizer) to the
    /// out-of-line `access_general`, with the lane parked around it. It
    /// is inlined at every simulated access of every workload, so it is
    /// kept small.
    #[inline(always)]
    pub(crate) fn lane_access(&mut self, lane: &mut Lane, va: VirtAddr, kind: AccessKind) -> AccessResult {
        debug_assert_eq!(self.slow, slow_mask(&self.cfg, self.checking), "cfg changed after Machine::new");
        let is_write = kind == AccessKind::Write;
        // `touch` sets ACCESSED (and DIRTY on writes) and hands back the
        // pre-access flag word.
        let Some((pre, size)) = self.pt.touch(va, is_write) else {
            return AccessResult::Unmapped;
        };
        if pre.0 & self.slow != 0 {
            std::hint::cold_path();
            self.park(lane);
            self.access_general(lane.tid, va, is_write, pre, size);
            self.resume(lane);
            return AccessResult::Ok;
        }
        self.charge_lane(lane, va, is_write, pre.frame().component());
        AccessResult::Ok
    }

    /// A read of `va` and then a write of it on an open lane, with one
    /// page walk: the same state as `lane_access` with `Read` and then
    /// `Write`. An entry with a slow-mask flag takes the two accesses
    /// through [`Machine::access`], out of line.
    #[inline(always)]
    pub(crate) fn lane_update(&mut self, lane: &mut Lane, va: VirtAddr) -> AccessResult {
        let Some((pte, _)) = self.pt.pte_mut(va) else {
            return AccessResult::Unmapped;
        };
        let pre = *pte;
        if pre.0 & self.slow != 0 {
            std::hint::cold_path();
            self.park(lane);
            self.update_general(lane.tid, va);
            self.resume(lane);
            return AccessResult::Ok;
        }
        if pre.0 & (PTE_ACCESSED | PTE_DIRTY) != PTE_ACCESSED | PTE_DIRTY {
            pte.set(PTE_ACCESSED | PTE_DIRTY);
        }
        let component = pre.frame().component();
        self.charge_lane(lane, va, false, component);
        self.charge_lane(lane, va, true, component);
        AccessResult::Ok
    }

    #[cold]
    #[inline(never)]
    fn update_general(&mut self, tid: usize, va: VirtAddr) {
        self.access(tid, va, AccessKind::Read);
        self.access(tid, va, AccessKind::Write);
    }

    /// Charges one fast-path access: the counters, PEBS (stamped with the
    /// lane's clock before the charge), then the link's latency to the
    /// lane and its bytes to the link, through one index.
    #[inline(always)]
    fn charge_lane(&mut self, lane: &mut Lane, va: VirtAddr, is_write: bool, component: ComponentId) {
        self.counters.record(component, is_write);
        self.pebs.observe(va, lane.tid as u32, component, is_write, lane.t_ns);
        let link = &mut self.clock.links[lane.row + component as usize];
        lane.t_ns += link.charge.lat_ns;
        // The roofline uses a read-bandwidth denominator; writes count as
        // more bytes where write bandwidth is lower.
        link.bytes += if is_write { link.charge.write_bytes } else { CACHE_LINE as f64 };
    }

    /// Charges one access of a Memory Mode machine, `extra_ns` of fault
    /// handling included: through the PM component's DRAM cache, or
    /// straight to a component that has none.
    #[inline]
    fn charge_cached(
        &mut self,
        tid: usize,
        va: VirtAddr,
        is_write: bool,
        frame: crate::addr::PhysAddr,
        size: FrameSize,
        extra_ns: f64,
    ) {
        let component = frame.component();
        let Some(Some(cached)) = self.hmc.get_mut(component as usize) else {
            self.charge_direct(tid, va, is_write, component, extra_ns);
            return;
        };
        // Probe at cache-line granularity: the accessed line's physical
        // address, not the page base.
        let page_mask = match size {
            FrameSize::Huge2M => PAGE_SIZE_2M - 1,
            FrameSize::Base4K => crate::addr::PAGE_SIZE_4K - 1,
        };
        let line_pa =
            crate::addr::PhysAddr::new(component, frame.offset() + (va.0 & page_mask));
        let probe = cached.cache.access(line_pa, is_write);
        let dram = cached.dram;
        let node = self.cfg.thread_node[tid];
        let t_ns = self.clock.thread_ns(tid);
        let spec = self.clock.links[node as usize * self.cfg.topology.num_components() + component as usize].charge;
        if probe.hit {
            // A cache hit is served by (and counted against) DRAM.
            self.counters.record(dram, is_write);
            self.pebs.observe(va, tid as u32, dram, is_write, t_ns);
            let lat = spec.hmc_hit_lat_ns + extra_ns;
            self.clock.charge_access(tid, lat, node, dram, CACHE_LINE as f64);
        } else {
            self.counters.record(component, is_write);
            self.pebs.observe(va, tid as u32, component, is_write, t_ns);
            // Memory Mode misses are serial: the tag check in DRAM happens
            // before the PM access can start.
            let lat = spec.hmc_miss_lat_ns + extra_ns;
            let writeback = if probe.writeback_bytes != 0 { spec.write_bytes } else { 0.0 };
            self.clock.charge_access(tid, lat, node, component, CACHE_LINE as f64 + writeback);
            self.clock.charge_access(tid, 0.0, node, dram, CACHE_LINE as f64);
        }
    }

    /// Charges one access straight to `component`, `extra_ns` of fault
    /// handling included: the general path's copy of `charge_lane`, and
    /// bit-identical to it at `extra_ns == 0.0` (`x + 0.0 == x`).
    fn charge_direct(
        &mut self,
        tid: usize,
        va: VirtAddr,
        is_write: bool,
        component: ComponentId,
        extra_ns: f64,
    ) {
        let node = self.cfg.thread_node[tid];
        let t_ns = self.clock.thread_ns(tid);
        self.counters.record(component, is_write);
        self.pebs.observe(va, tid as u32, component, is_write, t_ns);
        let spec = self.clock.links[node as usize * self.cfg.topology.num_components() + component as usize].charge;
        let lat = spec.lat_ns + extra_ns;
        // The roofline uses a read-bandwidth denominator; writes count as
        // more bytes where write bandwidth is lower.
        let bytes = if is_write { spec.write_bytes } else { CACHE_LINE as f64 };
        self.clock.charge_access(tid, lat, node, component, bytes);
    }

    /// The general access path, for accesses whose pre-access PTE carries
    /// a fault flag (hint poison, protection, write tracking) and for
    /// every access of a Memory Mode, heat-tracking or sanitizer-armed
    /// machine. `pre` and `size` are what `touch` returned. It handles the
    /// fault flags, the frame versions of an armed machine and the
    /// heatmap, then charges as the machine's mode does.
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

        // Rare-path fault handling, gated on the pre-access flag word.
        if flags & FAULT_BITS != 0 {
            // A hint fault and a protection fault each count once: disarm
            // both traps (Thermostat clears the trap after the first hit
            // of the interval).
            if let Some((pte, _)) = self.pt.pte_mut(va) {
                pte.clear(PTE_NUMA_POISON | PTE_PROT_NONE);
            }
            if flags & PTE_NUMA_POISON != 0 {
                let node = self.cfg.thread_node[tid];
                let page = va.page_4k();
                let now = self.approx_now_ns(tid);
                self.hints.fault(page, tid as u32, node, now);
                self.stats.hint_faults += 1;
                extra_ns += self.cfg.costs.hint_fault_ns();
            }
            if flags & PTE_PROT_NONE != 0 {
                self.prot_faults.push(ProtFault { page: va.page_4k(), tid: tid as u32, is_write });
                self.stats.prot_faults += 1;
                extra_ns += self.cfg.costs.prot_fault_ns;
            }
            if is_write && flags & PTE_WRITE_TRACK != 0 {
                extra_ns += self.handle_wp_fault(va);
            }
        }

        if is_write && self.checking {
            self.versions.bump(frame_page_base(frame));
        }
        if self.cfg.track_heat {
            let chunk = (va.0 >> 21) as usize;
            if chunk >= self.heat.len() {
                self.heat.resize((chunk + 1).next_power_of_two(), 0);
            }
            self.heat[chunk] += 1;
        }
        // All latency/byte constants come from the precomputed charge
        // table — no division on the per-access path. Outside Memory Mode
        // no component has a cache and this charges directly.
        self.charge_cached(tid, va, is_write, frame, size, extra_ns);
        AccessResult::Ok
    }

    fn handle_wp_fault(&mut self, va: VirtAddr) -> f64 {
        // Every watch covering the written page observes the write:
        // nothing keeps two armed watches disjoint (a caller may arm one
        // over a range another still covers), and overlapping watches
        // must not mask each other.
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
                    && self.pt.pde_vacant(huge_base)
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
            va = self.pt.translate(va).map_or(va + crate::addr::PAGE_SIZE_4K, |t| t.end(va));
        }
        Ok(())
    }

    /// The end of the mapping covering `va` if it is settled: mapped,
    /// ACCESSED and DIRTY, with no slow-mask flag, so a write there only
    /// charges what [`Machine::reset_measurement`] discards (never, on a
    /// machine that [keeps every write](Machine::keeps_every_write)).
    pub fn settled_until(&self, va: VirtAddr) -> Option<VirtAddr> {
        let t = self.pt.translate(va)?;
        let done = PTE_ACCESSED | PTE_DIRTY;
        (t.pte.0 & (done | self.slow) == done).then(|| t.end(va))
    }

    /// Whether every write takes the general path (Memory Mode, a
    /// heatmap, the armed sanitizer), so no mapping is ever settled.
    pub fn keeps_every_write(&self) -> bool {
        self.slow & PTE_PRESENT != 0
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

    /// Version counter of a physical frame: the number of simulated
    /// writes to it, carried along by migration, so tests can prove no
    /// write is lost. It counts only while the sanitizer is armed
    /// ([`Machine::set_checking`]): an unarmed machine keeps no versions,
    /// and this reads 0 for every frame it wrote.
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
        self.clock.reset();
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

    /// Component currently backing the page at `va`, if mapped.
    pub fn component_of(&self, va: VirtAddr) -> Option<ComponentId> {
        self.pt.translate(va).map(|t| t.pte.frame().component())
    }

    /// Bytes resident per component.
    pub fn residency(&self) -> Vec<u64> {
        self.allocators.iter().map(|a| a.used()).collect()
    }

    // ---------------------------------------------------------------
    // Checkpoint support: full dynamic-state serialization. The machine
    // is rebuilt from its configuration at restore time (`Machine::new`)
    // and `load_state` then overwrites every piece of dynamic state, so
    // derived structures (the charge table, PEBS programming, packed
    // side metadata) re-derive from config + restored state instead of
    // being stored. `checking` is deliberately *not* part of the state:
    // it is a caller-set execution knob that must not alter simulated
    // results, and a checkpoint written under one setting restores under
    // the other.

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

    /// Digest of the fault plan and its seed. A checkpoint of a machine
    /// with an active plan carries it, and loads only onto a machine
    /// with the same plan and seed installed.
    fn fault_digest(&self) -> u64 {
        let mut w = obs::wire::Writer::new();
        let p = self.faults.plan();
        for v in [p.page_busy, p.alloc_fail, p.drop_pebs, p.drop_hint] {
            w.f64(v);
        }
        w.varint(p.bw_windows.len() as u64);
        for b in &p.bw_windows {
            w.f64(b.factor);
            w.u64(b.from);
            w.u64(b.until);
        }
        w.u64(self.faults.seed());
        obs::wire::fnv1a(&w.into_bytes())
    }

    /// Serializes the machine's complete dynamic state (page table,
    /// allocators, clock, counters, samplers, watches, statistics and the
    /// observability recorder) into a self-describing blob restorable
    /// with [`Machine::load_state`].
    ///
    /// A Memory Mode machine also writes each PM component's DRAM-cache
    /// lines and counters, and a machine with an active fault plan
    /// appends its fault stream (a digest of plan and seed, the stream
    /// position and the injection counters); other machines' blobs do
    /// not change.
    pub fn save_state(&self) -> Vec<u8> {
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
            watch.range.save(&mut w);
            w.bool(watch.dirty);
            w.u64(watch.id);
        }
        match self.watch_bounds {
            Some(b) => {
                w.bool(true);
                b.save(&mut w);
            }
            None => w.bool(false),
        }
        w.u64(self.next_watch_id);
        w.varint(self.heat.len() as u64);
        for &h in &self.heat {
            w.varint(h);
        }
        for cached in self.hmc.iter().flatten() {
            cached.cache.save(&mut w);
        }
        self.recorder.save(&mut w);
        if self.faults.is_active() {
            w.u64(self.fault_digest());
            w.u64(self.faults.stream_state());
            let f = self.faults.stats();
            for v in [f.page_busy, f.alloc_fail, f.pebs_dropped, f.hints_dropped] {
                w.varint(v);
            }
        }
        w.into_bytes()
    }

    /// Restores dynamic state captured by [`Machine::save_state`] into
    /// this machine, which must be freshly built (`Machine::new`) from a
    /// configuration whose [`Machine::config_digest`] matches the one
    /// embedded in the blob, with the saved machine's fault plan and seed
    /// installed (or none, if it had none).
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
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
                range: VaRange::load(&mut r)?,
                dirty: r.bool()?,
                id: r.u64()?,
            });
        }
        self.watch_bounds = if r.bool()? {
            Some(VaRange::load(&mut r)?)
        } else {
            None
        };
        self.next_watch_id = r.u64()?;
        let heat_len = r.varint()? as usize;
        self.heat.clear();
        self.heat.reserve(heat_len);
        for _ in 0..heat_len {
            self.heat.push(r.varint()?);
        }
        // The digest pinned `hmc_mode` and the topology, so the caches
        // `Machine::new` built are the ones that were saved.
        for cached in self.hmc.iter_mut().flatten() {
            cached.cache.load(&mut r)?;
        }
        self.recorder = obs::Recorder::load(&mut r)?;
        if self.faults.is_active() {
            let digest = r.u64()?;
            if digest != self.fault_digest() {
                return Err(format!(
                    "checkpoint: fault plan/seed digest mismatch (saved {digest:#018x}, \
                     this machine {:#018x})",
                    self.fault_digest()
                ));
            }
            let state = r.u64()?;
            let stats = faultsim::FaultStats {
                page_busy: r.varint()?,
                alloc_fail: r.varint()?,
                pebs_dropped: r.varint()?,
                hints_dropped: r.varint()?,
            };
            self.faults.resume_at(state, stats);
        } else if r.remaining() > 0 {
            return Err("checkpoint: the blob carries a fault stream but this machine has no \
                        fault plan installed"
                .to_string());
        }
        r.finish()?;
        if self.checking {
            self.verify_consistency("checkpoint restore");
        }
        Ok(())
    }

    /// Hardware-cache hit ratio per PM component (Memory Mode only).
    pub fn hmc_hit_ratios(&self) -> Vec<(ComponentId, f64)> {
        self.hmc
            .iter()
            .enumerate()
            .filter_map(|(c, cached)| Some((c as ComponentId, cached.as_ref()?.cache.hit_ratio())))
            .collect()
    }

    // ---------------------------------------------------------------
    // MTM_CHECK shadow-state sanitizer (see crates/check and DESIGN.md
    // §5d). Everything below is read-only with respect to simulated
    // state: it can panic, never perturb.

    /// True when the shadow-state sanitizer is armed for this machine:
    /// off at construction, armed with [`Machine::set_checking`] (the
    /// harness does so under `MTM_CHECK=1`).
    #[inline]
    pub fn checking(&self) -> bool {
        self.checking
    }

    /// Arms or disarms the shadow-state sanitizer. An armed machine takes
    /// every access through the general path, which also keeps the frame
    /// versions ([`Machine::frame_version`]); disarming drops them, since
    /// writes and migrations after it would leave them stale.
    pub fn set_checking(&mut self, on: bool) {
        self.checking = on;
        self.slow = slow_mask(&self.cfg, on);
        if !on {
            self.versions = VersionStore::new();
        }
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
        self.pt.for_each_mapped_in(crate::page_table::USER_SPACE, |va, pte, size| {
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
        // Cross-check the packed side metadata against the PTEs and slots
        // (the source of truth): any drift means a path changed PRESENT or
        // a slot without its bitmap.
        violations.extend(self.pt.check_side_metadata());
        let rows: Vec<mtm_check::CensusRow> = self
            .allocators
            .iter()
            .enumerate()
            .map(|(c, a)| mtm_check::CensusRow {
                component: c as u16,
                mapped_bytes: mapped[c],
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

/// The PTE flags that send an access off the inlined fast path:
/// [`FAULT_BITS`], plus `PTE_PRESENT`, which every mapped entry has, on a
/// machine with Memory Mode, a heatmap or the sanitizer armed, all of
/// whose accesses take the general path.
fn slow_mask(cfg: &MachineConfig, checking: bool) -> u64 {
    let general = cfg.hmc_mode || cfg.track_heat || checking;
    FAULT_BITS | if general { PTE_PRESENT } else { 0 }
}

/// Rounds a frame address down to its 4 KB base for version bookkeeping.
fn frame_page_base(frame: crate::addr::PhysAddr) -> crate::addr::PhysAddr {
    crate::addr::PhysAddr::new(frame.component(), frame.offset() & !(crate::addr::PAGE_SIZE_4K - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::reference::WordTagCache;
    use crate::tier::tiny_two_tier;

    impl Machine {
        /// `access` as a single function, before the fast/general split,
        /// the lanes and the one-byte Memory Mode tags: the oracle the
        /// split path must match bit for bit. Memory Mode probes go to `oracle`, one
        /// word-tag cache per component (`None` where the machine has
        /// none), instead of the machine's own caches.
        fn access_reference(
            &mut self,
            oracle: &mut [Option<WordTagCache>],
            tid: usize,
            va: VirtAddr,
            kind: AccessKind,
        ) -> AccessResult {
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
                    if let Some((pte, _)) = self.pt.pte_mut(va) {
                        pte.clear(PTE_NUMA_POISON);
                    }
                    let node = self.cfg.thread_node[tid];
                    let page = va.page_4k();
                    let now = self.approx_now_ns(tid);
                    self.hints.fault(page, tid as u32, node, now);
                    self.stats.hint_faults += 1;
                    extra_ns += self.cfg.costs.hint_fault_ns();
                }
                if flags & PTE_PROT_NONE != 0 {
                    if let Some((pte, _)) = self.pt.pte_mut(va) {
                        pte.clear(PTE_PROT_NONE);
                    }
                    self.prot_faults.push(ProtFault { page: va.page_4k(), tid: tid as u32, is_write });
                    self.stats.prot_faults += 1;
                    extra_ns += self.cfg.costs.prot_fault_ns;
                }
                if is_write && flags & PTE_WRITE_TRACK != 0 {
                    extra_ns += self.handle_wp_fault(va);
                }
            }

            if is_write && self.checking {
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

            if let Some(Some(cache)) = oracle.get_mut(component as usize) {
                let t_ns = self.clock.thread_ns(tid);
                let dram = self.hmc[component as usize].as_ref().expect("cached PM").dram;
                let link = self.cfg.topology.link(node, component);
                let dram_link = self.cfg.topology.link(node, dram);
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
                    let lat = self.clock.links[charge_base + dram as usize].charge.lat_ns + extra_ns;
                    self.clock.charge_access(tid, lat, node, dram, CACHE_LINE as f64);
                } else {
                    self.counters.record(component, is_write);
                    self.pebs.observe(va, tid as u32, component, is_write, t_ns);
                    let lat = (dram_link.latency_ns + link.latency_ns) / self.cfg.mlp + extra_ns;
                    let pm_bytes = probe.fill_bytes as f64
                        + probe.writeback_bytes as f64 * link.write_cost_factor();
                    self.clock.charge_access(tid, lat, node, component, pm_bytes);
                    self.clock.charge_access(tid, 0.0, node, dram, probe.fill_bytes as f64);
                }
                return AccessResult::Ok;
            }
            let t_ns = self.clock.thread_ns(tid);
            self.counters.record(component, is_write);
            self.pebs.observe(va, tid as u32, component, is_write, t_ns);
            let spec = self.clock.links[charge_base + component as usize].charge;
            let lat = spec.lat_ns + extra_ns;
            let bytes = if is_write { spec.write_bytes } else { CACHE_LINE as f64 };
            self.clock.charge_access(tid, lat, node, component, bytes);
            AccessResult::Ok
        }

        /// A read and then a write of `va` with one page walk, as
        /// `TickEnv::update` issues them.
        pub(crate) fn update(&mut self, tid: usize, va: VirtAddr) -> AccessResult {
            let mut lane = self.lane(tid);
            let r = self.lane_update(&mut lane, va);
            self.park(&lane);
            r
        }

        /// `compute` before it stopped charging zero bytes to link
        /// (node, 0).
        fn compute_reference(&mut self, tid: usize, ns: f64) {
            let node = self.cfg.thread_node[tid];
            self.clock.charge_access(tid, ns, node, 0, 0.0);
        }
    }

    /// The oracle caches of a reference machine: a word-tag cache for
    /// each component the machine caches.
    fn oracle_caches(m: &Machine) -> Vec<Option<WordTagCache>> {
        let oracle = |c: &CachedPm| WordTagCache::new(c.cache.sets() as u64 * CACHE_LINE);
        m.hmc.iter().map(|c| c.as_ref().map(oracle)).collect()
    }

    /// Per-cache `(component, hits, misses, writebacks)` of a machine.
    fn cache_counters(m: &Machine) -> Vec<(usize, u64, u64, u64)> {
        m.hmc
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = &c.as_ref()?.cache;
                Some((i, c.hits(), c.misses(), c.writebacks()))
            })
            .collect()
    }

    /// [`cache_counters`] of a reference machine's oracle caches.
    fn oracle_counters(oracle: &[Option<WordTagCache>]) -> Vec<(usize, u64, u64, u64)> {
        oracle
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c.hits, c.misses, c.writebacks)))
            .collect()
    }

    /// Every piece of state an access can change, serialized: PTE bits,
    /// clock accumulators as f64 bit patterns,
    /// counter totals and windows, PEBS buffer and countdown, hint-fault
    /// queue, frame versions, statistics, protection faults, heatmap and
    /// each Memory Mode cache's hits, misses and writebacks (`caches`,
    /// from [`cache_counters`] or [`oracle_counters`]).
    fn fingerprint(m: &Machine, caches: &[(usize, u64, u64, u64)]) -> Vec<u8> {
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
        for &(c, hits, misses, writebacks) in caches {
            w.varint(c as u64);
            w.varint(hits);
            w.varint(misses);
            w.varint(writebacks);
        }
        w.into_bytes()
    }

    #[test]
    fn prop_split_access_matches_reference() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        // Memory Mode x heatmap x THP x armed sanitizer, then a stream of
        // (op, page, line, tid) steps over 48 pages in three 2 MB chunks,
        // so pages repeat and the fault flags get hit. An update must
        // match the reference's read and then write.
        prop_check!(
            "split_access_matches_reference",
            48,
            (
                gen::u8_range(0, 16),
                gen::vec_in(
                    (
                        gen::u8_range(0, 16),
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
                    m.set_checking(mode & 8 != 0);
                    m
                };
                let (mut fast, mut reference) = (build(), build());
                let mut oracle = oracle_caches(&reference);
                let mut watches = Vec::new();
                for (step, &(op, page, line, tid)) in ops.iter().enumerate() {
                    let va = VirtAddr((page % 3) * PAGE_SIZE_2M + (page / 3) * 4096 + line * 64);
                    match op {
                        0..=7 => {
                            let kind = if op < 5 { AccessKind::Read } else { AccessKind::Write };
                            let a = fast.access(tid, va, kind);
                            let b = reference.access_reference(&mut oracle, tid, va, kind);
                            prop_assert_eq!(a, b, "step {step}");
                            if a == AccessResult::Unmapped {
                                // Demand fault: place, then retry.
                                let order: &[ComponentId] = if page % 2 == 0 { &[0, 1] } else { &[1, 0] };
                                let ca = fast.alloc_and_map(tid, va, order);
                                let cb = reference.alloc_and_map(tid, va, order);
                                prop_assert_eq!(ca, cb, "step {step}");
                                prop_assert_eq!(fast.access(tid, va, kind), AccessResult::Ok);
                                prop_assert_eq!(
                                    reference.access_reference(&mut oracle, tid, va, kind),
                                    AccessResult::Ok
                                );
                            }
                        }
                        14 | 15 => {
                            let a = fast.update(tid, va);
                            let b = reference.access_reference(&mut oracle, tid, va, AccessKind::Read);
                            prop_assert_eq!(a, b, "step {step}");
                            if a == AccessResult::Unmapped {
                                let ca = fast.alloc_and_map(tid, va, &[0, 1]);
                                prop_assert_eq!(ca, reference.alloc_and_map(tid, va, &[0, 1]), "step {step}");
                                prop_assert_eq!(fast.update(tid, va), AccessResult::Ok);
                                let r = reference.access_reference(&mut oracle, tid, va, AccessKind::Read);
                                prop_assert_eq!(r, AccessResult::Ok);
                            }
                            let w = reference.access_reference(&mut oracle, tid, va, AccessKind::Write);
                            prop_assert_eq!(w, AccessResult::Ok);
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
                    prop_assert_eq!(
                        fingerprint(&fast, &cache_counters(&fast)),
                        fingerprint(&reference, &oracle_counters(&oracle)),
                        "step {step} op {op}"
                    );
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
        let accessed = |m: &Machine| m.page_table().translate(va).unwrap().pte.accessed();
        assert!(accessed(&m));
        assert_eq!(m.counters().component(0).stores, 1);
        let (was, huge) = m.scan_page(va).unwrap();
        assert!(was && !huge);
        assert!(!accessed(&m), "scan clears the bit");
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
        let blob = m.save_state();

        let mut n = build();
        n.load_state(&blob).unwrap();
        assert_eq!(n.save_state(), blob, "restored state re-saves byte-identically");
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
        assert_eq!(m.save_state(), n.save_state());
    }

    #[test]
    fn load_state_rejects_config_mismatch() {
        let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let m = Machine::new(MachineConfig::new(topo, 2));
        let blob = m.save_state();
        let other = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut n = Machine::new(MachineConfig::new(other, 2));
        let err = n.load_state(&blob).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn load_state_rejects_allocator_used_over_capacity() {
        let build = || {
            let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
            Machine::new(MachineConfig::new(topo, 1))
        };
        let mut m = build();
        m.mmap("a", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), false);
        m.alloc_and_map(0, VirtAddr(0), &[0]).unwrap();
        let mut blob = m.save_state();
        // Patch component 0's `used` (a little-endian u64 inside its
        // allocator record) to more than the component holds.
        let mut w = obs::wire::Writer::new();
        m.allocators[0].save(&mut w);
        let record = w.into_bytes();
        let used = m.allocator(0).used().to_le_bytes();
        let at = blob.windows(record.len()).position(|win| win == record).expect("record")
            + record.windows(8).position(|win| win == used).expect("used");
        blob[at..at + 8].copy_from_slice(&(5 * PAGE_SIZE_2M).to_le_bytes());
        let err = build().load_state(&blob).unwrap_err();
        assert!(err.contains("over its"), "{err}");
    }

    #[test]
    fn load_state_rejects_next_fresh_block_beyond_capacity() {
        let build = || {
            let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
            Machine::new(MachineConfig::new(topo, 1))
        };
        let mut m = build();
        m.mmap("a", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), true);
        m.alloc_and_map(0, VirtAddr(0), &[0]).unwrap();
        let mut blob = m.save_state();
        // Component 0's record is its id (u16), `used` (u64), then
        // `next_fresh_block` (u64): patch the last to 100 blocks.
        let mut w = obs::wire::Writer::new();
        m.allocators[0].save(&mut w);
        let record = w.into_bytes();
        let at = blob.windows(record.len()).position(|win| win == record).expect("record") + 2 + 8;
        assert_eq!(blob[at..at + 8], PAGE_SIZE_2M.to_le_bytes(), "one block carved");
        blob[at..at + 8].copy_from_slice(&(100 * PAGE_SIZE_2M).to_le_bytes());
        let err = build().load_state(&blob).unwrap_err();
        assert!(err.contains("next fresh block"), "{err}");
    }

    /// A fresh Memory Mode machine on the two-tier topology (8 PM blocks
    /// per DRAM line).
    fn memory_mode_machine() -> Machine {
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 2);
        cfg.hmc_mode = true;
        Machine::new(cfg)
    }

    /// Issues steps `from..from + n` of a read/write stream that hits,
    /// misses and writes back, mapping pages into PM on demand.
    fn drive_memory_mode(m: &mut Machine, from: u64, n: u64) {
        for i in from..from + n {
            // Six huge pages (three pairs aliasing in the 4 MB cache),
            // 1024 lines each.
            let x = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) >> 40;
            let va = VirtAddr((x % 6) * PAGE_SIZE_2M + (x >> 8) % 1024 * 64);
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            if m.access((i % 2) as usize, va, kind) == AccessResult::Unmapped {
                m.alloc_and_map((i % 2) as usize, va, &[1]).unwrap();
                m.access((i % 2) as usize, va, kind);
            }
        }
    }

    #[test]
    fn memory_mode_save_state_resumes_identically() {
        let mut m = memory_mode_machine();
        m.mmap("a", VaRange::from_len(VirtAddr(0), 6 * PAGE_SIZE_2M), true);
        drive_memory_mode(&mut m, 0, 4000);
        let blob = m.save_state();
        let wb = cache_counters(&m);
        assert!(wb.iter().all(|&(_, h, mi, w)| h > 0 && mi > 0 && w > 0), "{wb:?}");

        let mut n = memory_mode_machine();
        n.load_state(&blob).unwrap();
        assert_eq!(n.save_state(), blob, "restored state re-saves byte-identically");
        assert_eq!(cache_counters(&n), cache_counters(&m));
        drive_memory_mode(&mut m, 4000, 4000);
        drive_memory_mode(&mut n, 4000, 4000);
        assert_eq!(m.commit_interval().to_bits(), n.commit_interval().to_bits());
        assert_eq!(cache_counters(&n), cache_counters(&m));
        assert_eq!(m.save_state(), n.save_state());
    }

    #[test]
    fn memory_mode_load_state_rejects_short_and_foreign_blobs() {
        let mut m = memory_mode_machine();
        m.mmap("a", VaRange::from_len(VirtAddr(0), 6 * PAGE_SIZE_2M), true);
        drive_memory_mode(&mut m, 0, 500);
        let blob = m.save_state();
        // Cut anywhere, including inside the cache lines: always `Err`.
        for cut in (0..blob.len()).step_by(97).chain([blob.len() - 1]) {
            assert!(memory_mode_machine().load_state(&blob[..cut]).is_err(), "cut at {cut}");
        }
        // A plain machine's blob does not restore into Memory Mode:
        // `hmc_mode` is part of the config digest.
        let topo = tiny_two_tier(2 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let plain = Machine::new(MachineConfig::new(topo, 2));
        let err = memory_mode_machine().load_state(&plain.save_state()).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn memory_mode_tags_are_one_byte_per_dram_line() {
        // The default scale: 1/256 of the paper machine, 768 MB of DRAM
        // in front of 6 GB of PM. `vec![0; n]` leaves the pages untouched,
        // so building it costs no resident memory until probes land.
        let topo = crate::tier::optane_four_tier(256);
        let dram: u64 =
            topo.dram_components().iter().map(|&d| topo.components[d as usize].capacity).sum();
        let mut cfg = MachineConfig::new(topo, 8);
        cfg.hmc_mode = true;
        let m = Machine::new(cfg);
        let tags: usize = m.hmc.iter().flatten().map(|c| c.cache.tag_bytes()).sum();
        assert_eq!(tags as u64, dram / CACHE_LINE, "one tag byte per 64 B DRAM line");
        assert!(tags <= 13 << 20, "{tags} B of Memory Mode tags at the default scale");
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
