//! The MTM daemon: the user-space service gluing profiling, policy, and
//! migration together (Sec. 8).
//!
//! In the paper the kernel module scans PTEs while a user-space daemon
//! reads the shared profiling table, makes migration decisions, and calls
//! `move_memory_regions()`. Here [`MtmManager`] plays both roles behind
//! the [`tiersim::sim::MemoryManager`] interface: sub-interval hooks run
//! the kernel module's scan passes, the interval hook runs the daemon's
//! decide-and-migrate step.

use tiersim::addr::VirtAddr;
use tiersim::machine::Machine;
use tiersim::sim::{MemoryManager, RegionStats};
use tiersim::tier::ComponentId;

use crate::admission::{AdmissionKind, AdmissionPolicy};
use crate::config::{InitialPlacement, MtmConfig};
use crate::migration::{MigrationEngine, MigrationStats};
use crate::policy::{promote_and_demote, slow_first_order, PolicyScratch, PolicyStats};
use crate::profiler::AdaptiveProfiler;

/// The complete MTM page-management system.
pub struct MtmManager {
    cfg: MtmConfig,
    profiler: AdaptiveProfiler,
    engine: MigrationEngine,
    admission: Box<dyn AdmissionPolicy>,
    policy_totals: PolicyStats,
    policy_scratch: PolicyScratch,
}

impl MtmManager {
    /// Creates an MTM manager for a machine with `nodes` CPU nodes.
    pub fn new(cfg: MtmConfig, nodes: usize) -> MtmManager {
        let profiler = AdaptiveProfiler::new(cfg.clone(), nodes);
        let engine = MigrationEngine::new(cfg.copy_threads, cfg.async_migration);
        let admission = cfg.admission.build(&cfg);
        MtmManager {
            cfg,
            profiler,
            engine,
            admission,
            policy_totals: PolicyStats::default(),
            policy_scratch: PolicyScratch::default(),
        }
    }

    /// The profiler (for experiment probes).
    pub fn profiler(&self) -> &AdaptiveProfiler {
        &self.profiler
    }

    /// Mutable profiler access for tests that seed region state.
    #[doc(hidden)]
    pub fn profiler_mut_for_test(&mut self) -> &mut AdaptiveProfiler {
        &mut self.profiler
    }

    /// Cumulative policy statistics.
    pub fn policy_totals(&self) -> PolicyStats {
        self.policy_totals
    }

    /// Migration-mechanism statistics.
    pub fn migration_stats(&self) -> MigrationStats {
        self.engine.stats()
    }

    /// The configuration in use.
    pub fn config(&self) -> &MtmConfig {
        &self.cfg
    }
}

impl MemoryManager for MtmManager {
    fn name(&self) -> String {
        let mut name = "MTM".to_string();
        if !self.cfg.overhead_control {
            // The OC ablation also disables region adaptation (the paper
            // sets tau_m = tau_s = 0 there); report it as one knob.
            name.push_str("-w/o-OC");
        } else if !self.cfg.adaptive_regions {
            name.push_str("-w/o-AMR");
        }
        if !self.cfg.adaptive_sampling {
            name.push_str("-w/o-APS");
        }
        if !self.cfg.pebs_assist {
            name.push_str("-w/o-PEBS");
        }
        if !self.cfg.async_migration {
            name.push_str("-w/o-async");
        }
        name
    }

    fn init(&mut self, m: &mut Machine) {
        self.profiler.init(m);
    }

    fn placement(&mut self, m: &Machine, tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
        let node = m.node_of(tid);
        match self.cfg.initial_placement {
            InitialPlacement::SlowLocalFirst => slow_first_order(m, node),
            InitialPlacement::FastLocalFirst => m.topology().view(node).to_vec(),
        }
    }

    fn sub_intervals(&self) -> u32 {
        // Eight slots per scan: the priming clear lands one slot before
        // each counted check, giving a short (interval/8/num_scans-wide)
        // observation window per check.
        self.cfg.num_scans.max(1) * 8
    }

    fn on_subinterval(&mut self, m: &mut Machine, _interval: u64, k: u32) {
        // Commit last interval's asynchronous copies early: the in-flight
        // window approximates the real copy duration (a fraction of the
        // interval), not a whole interval — otherwise every region looks
        // write-dirtied by the time it commits.
        if k == 1 {
            self.engine.resolve_pending(m);
        }
        let group = 8;
        if k % group == group - 1 {
            self.profiler.prime_pass(m);
        } else if k % group == 0 {
            self.profiler.scan_pass(m);
        }
    }

    fn on_interval(&mut self, m: &mut Machine, interval: u64) {
        self.engine.note_interval(interval);
        self.admission.note_interval(interval);
        // Commit asynchronous migrations started last interval first, so
        // residency is current when the profiler re-plans.
        let mig_span = obs::SpanTimer::start(m.elapsed_ns());
        self.engine.resolve_pending(m);
        let now = m.elapsed_ns();
        mig_span.stop(&mut m.obs_mut().reg, obs::names::SPAN_MIGRATE_NS, now);
        let prof_span = obs::SpanTimer::start(m.elapsed_ns());
        self.profiler.finish_interval(m);
        let now = m.elapsed_ns();
        prof_span.stop(&mut m.obs_mut().reg, obs::names::SPAN_PROFILE_NS, now);
        let stats = promote_and_demote(
            m,
            &mut self.profiler,
            &mut self.engine,
            self.admission.as_mut(),
            &self.cfg,
            &mut self.policy_scratch,
        );
        self.policy_totals.promoted += stats.promoted;
        self.policy_totals.promoted_bytes += stats.promoted_bytes;
        self.policy_totals.demoted += stats.demoted;
        self.policy_totals.demoted_bytes += stats.demoted_bytes;
    }

    fn hot_bytes_identified(&self) -> u64 {
        let s = self.profiler.stats();
        s.hot_bytes_sum / s.intervals.max(1)
    }

    fn metadata_bytes(&self) -> u64 {
        self.profiler.metadata_bytes()
    }

    fn region_stats(&self) -> Option<RegionStats> {
        let s = self.profiler.stats();
        let n = s.intervals.max(1) as f64;
        Some(RegionStats {
            intervals: s.intervals,
            avg_merged: s.merged as f64 / n,
            avg_split: s.split as f64 / n,
            avg_regions: s.region_count_sum as f64 / n,
        })
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // Stateful admission policies (ping-pong filter, rate limiter)
        // hold private history that is not serialized; a manager using
        // one is not checkpointable.
        match self.cfg.admission {
            AdmissionKind::Always | AdmissionKind::HotnessDelta => {}
            AdmissionKind::PingPong | AdmissionKind::RateLimit => return None,
        }
        let mut w = obs::wire::Writer::new();
        w.u64(config_digest(&self.cfg));
        self.profiler.save(&mut w);
        self.engine.save(&mut w);
        let t = &self.policy_totals;
        for v in [t.promoted, t.promoted_bytes, t.demoted, t.demoted_bytes] {
            w.varint(v);
        }
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = obs::wire::Reader::new(bytes);
        let digest = r.u64()?;
        let ours = config_digest(&self.cfg);
        if digest != ours {
            return Err(format!(
                "checkpoint: MTM config digest mismatch (saved {digest:#018x}, this manager \
                 {ours:#018x}): thresholds, budgets, ablations or admission policy differ"
            ));
        }
        self.profiler.load(&mut r)?;
        self.engine.load(&mut r)?;
        self.policy_totals = PolicyStats {
            promoted: r.varint()?,
            promoted_bytes: r.varint()?,
            demoted: r.varint()?,
            demoted_bytes: r.varint()?,
        };
        r.finish()
    }
}

/// Digest of the whole [`MtmConfig`] (its `Debug` text, the run cache's
/// key idiom). A manager checkpoint restores only into a manager built
/// from the same configuration; any other would resume a different run.
fn config_digest(cfg: &MtmConfig) -> u64 {
    obs::wire::fnv1a(format!("{cfg:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::{VaRange, PAGE_SIZE_2M};
    use tiersim::machine::MachineConfig;
    use tiersim::sim::{run_scenario, MemEnv, ScenarioProgress, Workload};
    use tiersim::tier::tiny_two_tier;

    /// A workload hammering the first quarter of its footprint.
    struct HotQuarter {
        range: VaRange,
        rng: tiersim::rng::SplitMix64,
        ops: u64,
    }

    impl Workload for HotQuarter {
        fn name(&self) -> String {
            "hot-quarter".into()
        }

        fn setup(&mut self, env: &mut dyn MemEnv) {
            env.machine().mmap("hq", self.range, false);
            for page in self.range.iter_pages_4k() {
                env.write(0, page);
            }
        }

        fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
            let len = self.range.len();
            let target = if self.rng.unit_f64() < 0.9 {
                self.rng.below(len / 4)
            } else {
                len / 4 + self.rng.below(3 * len / 4)
            };
            env.read(tid, VirtAddr(self.range.start.0 + target));
            self.ops += 1;
        }

        fn footprint(&self) -> u64 {
            self.range.len()
        }

        fn ops_completed(&self) -> u64 {
            self.ops
        }
    }

    fn workload() -> HotQuarter {
        HotQuarter {
            range: VaRange::from_len(VirtAddr(0), 16 * PAGE_SIZE_2M),
            rng: tiersim::rng::SplitMix64::new(77),
            ops: 0,
        }
    }

    fn machine() -> Machine {
        let topo = tiny_two_tier(6 * PAGE_SIZE_2M, 64 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 2);
        cfg.interval_ns = 0.5e6;
        Machine::new(cfg)
    }

    #[test]
    fn mtm_places_new_pages_slow_first() {
        let mut m = machine();
        let mut mgr = MtmManager::new(MtmConfig::default(), 1);
        let mut wl = workload();
        let report = run_scenario(&mut m, &mut mgr, &mut wl, 1);
        // All pages were first-touched into the slow component (modulo
        // later promotions of at most the per-interval budget).
        assert!(report.residency[1] > report.residency[0]);
    }

    #[test]
    fn mtm_promotes_hot_quarter_over_time() {
        let mut m = machine();
        let mut cfg = MtmConfig::default();
        cfg.promote_bytes = 2 * PAGE_SIZE_2M;
        let mut mgr = MtmManager::new(cfg, 1);
        let mut wl = workload();
        let report = run_scenario(&mut m, &mut mgr, &mut wl, 20);
        // The hot quarter (4 chunks) migrated toward the fast component.
        assert!(
            report.residency[0] >= 3 * PAGE_SIZE_2M,
            "fast residency = {} bytes",
            report.residency[0]
        );
        assert!(mgr.policy_totals().promoted >= 2);
        // Fast-component accesses dominate by the end.
        let last = report.window_counts.last().unwrap();
        assert!(
            last[0].total() > last[1].total(),
            "fast tier serves most accesses at the end: {last:?}"
        );
    }

    #[test]
    fn mtm_beats_no_migration_on_skewed_workload() {
        let mut m1 = machine();
        let mut mgr1 = MtmManager::new(MtmConfig::default(), 1);
        let mut wl1 = workload();
        let with_mtm = run_scenario(&mut m1, &mut mgr1, &mut wl1, 20);

        // Same accesses, placement fixed in the slow tier (no migration).
        struct SlowOnly;
        impl MemoryManager for SlowOnly {
            fn name(&self) -> String {
                "slow-only".into()
            }
            fn placement(&mut self, _m: &Machine, _tid: usize, _va: VirtAddr) -> Vec<ComponentId> {
                vec![1]
            }
            fn on_interval(&mut self, _m: &mut Machine, _i: u64) {}
        }
        let mut m2 = machine();
        let mut wl2 = workload();
        let static_slow = run_scenario(&mut m2, &mut SlowOnly, &mut wl2, 20);

        let mtm_rate = with_mtm.ops_per_second();
        let slow_rate = static_slow.ops_per_second();
        assert!(
            mtm_rate > slow_rate * 1.2,
            "MTM {mtm_rate:.0} ops/s vs slow-only {slow_rate:.0} ops/s"
        );
    }

    #[test]
    fn num_ps_matches_eq1_closed_form() {
        let m = machine();
        let cfg = MtmConfig::default();
        let mgr = MtmManager::new(cfg.clone(), 1);
        // Eq. 1: num_ps = interval_ns * target / (eff_scan * num_scans),
        // eff_scan = 2*one_scan + hint_fault/hint_fault_every.
        let eff_scan = 2.0 * m.cfg.costs.one_scan_ns
            + m.cfg.costs.hint_fault_ns() / cfg.hint_fault_every as f64;
        let want = ((m.cfg.interval_ns * cfg.overhead_target)
            / (eff_scan * cfg.num_scans as f64)) as u64;
        assert_eq!(mgr.profiler().num_ps(&m), want.max(1));
    }

    /// A machine/workload wide enough that the initial one-region-per-PDE
    /// count exceeds the Eq. 1 sample budget, forcing tau_m escalation.
    fn wide_setup() -> (Machine, HotQuarter) {
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 160 * PAGE_SIZE_2M);
        let mut cfg = MachineConfig::new(topo, 2);
        cfg.interval_ns = 0.5e6;
        let m = Machine::new(cfg);
        let wl = HotQuarter {
            range: VaRange::from_len(VirtAddr(0), 128 * PAGE_SIZE_2M),
            rng: tiersim::rng::SplitMix64::new(99),
            ops: 0,
        };
        (m, wl)
    }

    /// A machine with 128 one-PDE regions and an alternating hot/cold
    /// access pattern applied through real prime/scan passes, so adjacent
    /// regions end the interval with scan counts 3 vs 0 — too far apart
    /// to merge at the default tau_m.
    fn wide_profiled_interval() -> (Machine, MtmManager) {
        use tiersim::machine::AccessKind;
        let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 160 * PAGE_SIZE_2M);
        let mut mcfg = MachineConfig::new(topo, 2);
        mcfg.interval_ns = 0.5e6;
        let mut m = Machine::new(mcfg);
        let r = VaRange::from_len(VirtAddr(0), 128 * PAGE_SIZE_2M);
        m.mmap("wide", r, false);
        m.prefault_range(r, &[1]).unwrap();
        // Disable the PEBS assist so every region is scanned uncondition-
        // ally (with it on, slowest-tier scans are counter-gated and the
        // unaccessed regions would be classified cold and merge away).
        let mut cfg = MtmConfig::default();
        cfg.pebs_assist = false;
        let mut mgr = MtmManager::new(cfg, 1);
        MemoryManager::init(&mut mgr, &mut m);
        assert_eq!(mgr.profiler().regions().len(), 128);
        let num_scans = mgr.config().num_scans;
        for _ in 0..num_scans {
            mgr.profiler_mut_for_test().prime_pass(&mut m);
            // Touch every page of every even chunk so whichever page the
            // plan sampled in those regions sees its accessed bit set.
            for chunk in (0..128u64).step_by(2) {
                let base = chunk * PAGE_SIZE_2M;
                for page in 0..(PAGE_SIZE_2M / tiersim::addr::PAGE_SIZE_4K) {
                    m.access(
                        0,
                        VirtAddr(base + page * tiersim::addr::PAGE_SIZE_4K),
                        AccessKind::Read,
                    );
                }
            }
            mgr.profiler_mut_for_test().scan_pass(&mut m);
        }
        (m, mgr)
    }

    #[test]
    fn escalation_engages_when_regions_exceed_budget() {
        let (mut m, mut mgr) = wide_profiled_interval();
        let tau_m_default = MtmConfig::default().tau_m;
        let num_ps = mgr.profiler().num_ps(&m);
        assert!(num_ps < 128, "128 regions exceed the Eq. 1 budget ({num_ps})");
        mgr.profiler_mut_for_test().finish_interval(&mut m);
        // The alternating hotness blocks merging, so the control loop
        // must escalate tau_m and record the decision.
        assert!(mgr.profiler().tau_m_now() > tau_m_default, "tau_m escalated");
        assert_eq!(m.obs().reg.counter(obs::names::TAU_M_ESCALATIONS), 1);
        let escalations: Vec<_> = m
            .obs()
            .ring
            .iter()
            .filter_map(|e| match e.kind {
                obs::EventKind::TauMEscalated { tau_m, regions, budget } => {
                    Some((tau_m, regions, budget))
                }
                _ => None,
            })
            .collect();
        assert_eq!(escalations.len(), 1);
        let (tau_m, regions, budget) = escalations[0];
        assert!(tau_m > tau_m_default);
        assert_eq!(budget, num_ps);
        assert!(regions > budget, "escalated only while over budget");
    }

    #[test]
    fn per_interval_overhead_respects_target_after_escalation() {
        let (mut m, mut wl) = wide_setup();
        let cfg = MtmConfig::default();
        let target = cfg.overhead_target;
        let mut mgr = MtmManager::new(cfg, 1);
        let report = run_scenario(&mut m, &mut mgr, &mut wl, 12);
        // The 128 initial regions exceed the budget, so region merging
        // must have engaged and brought the count down.
        assert!(report.telemetry.registry.counter(obs::names::REGIONS_MERGED) > 0);
        let num_ps = mgr.profiler().stats().last_num_ps;
        assert!((mgr.profiler().regions().len() as u64) <= num_ps);
        // Once the control loop converged, per-interval profiling time
        // must track the 5% target; allow 1.5x slack for quantization
        // (whole scan passes) and the amortized hint-fault cost.
        let bt = &report.breakdown_trace;
        assert!(bt.len() >= 8);
        for w in bt.windows(2).skip(bt.len() - 5) {
            let prof = w[1].profiling_ns - w[0].profiling_ns;
            let wall = w[1].total_ns() - w[0].total_ns();
            assert!(wall > 0.0);
            let frac = prof / wall;
            assert!(
                frac <= 1.5 * target,
                "late-interval profiling fraction {frac:.4} exceeds 1.5x target {target}"
            );
        }
        // The per-interval overhead series in the telemetry snapshot
        // agrees with the breakdown trace.
        let series = &report.telemetry.series;
        assert_eq!(series.overhead_pct.len(), bt.len());
        let last = *series.overhead_pct.last().unwrap();
        assert!(last <= 150.0 * target, "series overhead {last:.2}% within bound");
    }

    #[test]
    fn tau_m_resets_once_region_count_fits() {
        // A small footprint (16 regions < num_ps ~ 46) never escalates:
        // tau_m stays at its configured value the whole run.
        let mut m = machine();
        let cfg = MtmConfig::default();
        let tau_m = cfg.tau_m;
        let mut mgr = MtmManager::new(cfg, 1);
        let mut wl = workload();
        let report = run_scenario(&mut m, &mut mgr, &mut wl, 8);
        assert_eq!(report.telemetry.registry.counter(obs::names::TAU_M_ESCALATIONS), 0);
        assert_eq!(mgr.profiler().tau_m_now(), tau_m);

        // After an escalation, bringing the region count back under the
        // budget snaps tau_m back to the configured value rather than
        // leaving it escalated.
        let (mut m, mut mgr) = wide_profiled_interval();
        mgr.profiler_mut_for_test().finish_interval(&mut m);
        assert!(mgr.profiler().tau_m_now() > tau_m);
        mgr.profiler_mut_for_test().merge_all_for_test();
        mgr.profiler_mut_for_test().finish_interval(&mut m);
        assert_eq!(mgr.profiler().tau_m_now(), tau_m, "tau_m reset after convergence");
    }

    #[test]
    fn ablation_names_are_distinct() {
        let mut cfg = MtmConfig::default();
        cfg.adaptive_regions = false;
        assert_eq!(MtmManager::new(cfg, 1).name(), "MTM-w/o-AMR");
        let mut cfg = MtmConfig::default();
        cfg.async_migration = false;
        assert_eq!(MtmManager::new(cfg, 1).name(), "MTM-w/o-async");
        let mut cfg = MtmConfig::default();
        cfg.overhead_control = false;
        cfg.adaptive_regions = false;
        assert_eq!(MtmManager::new(cfg, 1).name(), "MTM-w/o-OC");
        assert_eq!(MtmManager::new(MtmConfig::default(), 1).name(), "MTM");
    }

    #[test]
    fn region_stats_reported() {
        let mut m = machine();
        let mut mgr = MtmManager::new(MtmConfig::default(), 1);
        let mut wl = workload();
        run_scenario(&mut m, &mut mgr, &mut wl, 5);
        let rs = mgr.region_stats().unwrap();
        assert_eq!(rs.intervals, 5);
        assert!(rs.avg_regions >= 1.0);
        assert!(mgr.metadata_bytes() > 0);
    }

    #[test]
    fn manager_checkpoint_round_trips_and_resumes_identically() {
        // Run a scenario mid-way, checkpoint manager + machine + progress,
        // restore into fresh objects, then continue both sides in
        // lockstep: every interval's wall time (carried in the progress
        // bytes) and the final serialized states must agree bit-for-bit.
        let mut m_a = machine();
        let mut mgr_a = MtmManager::new(MtmConfig::default(), 1);
        let mut wl_a = workload();
        let mut prog_a = ScenarioProgress::start(&mut m_a, &mut mgr_a, &mut wl_a);
        for ivl in 0..8 {
            prog_a.step_interval(&mut m_a, &mut mgr_a, &mut wl_a, ivl);
        }
        let mgr_blob = mgr_a.save_state().expect("default MTM config is checkpointable");
        let machine_blob = m_a.save_state();
        let progress_bytes = |p: &ScenarioProgress| {
            let mut w = obs::wire::Writer::new();
            p.save(&mut w);
            w.into_bytes()
        };
        let prog_blob = progress_bytes(&prog_a);
        let mut prog_b = ScenarioProgress::load(&mut obs::wire::Reader::new(&prog_blob))
            .expect("progress restores");

        let mut m_b = machine();
        m_b.load_state(&machine_blob).expect("machine restores");
        let mut mgr_b = MtmManager::new(MtmConfig::default(), 1);
        mgr_b.load_state(&mgr_blob).expect("manager restores");
        assert_eq!(mgr_b.save_state().unwrap(), mgr_blob, "re-save is byte-identical");
        let mut wl_b = HotQuarter {
            range: wl_a.range,
            rng: tiersim::rng::SplitMix64::from_state(wl_a.rng.state()),
            ops: wl_a.ops,
        };

        for ivl in 8..16 {
            prog_a.step_interval(&mut m_a, &mut mgr_a, &mut wl_a, ivl);
            prog_b.step_interval(&mut m_b, &mut mgr_b, &mut wl_b, ivl);
            assert_eq!(progress_bytes(&prog_a), progress_bytes(&prog_b), "interval {ivl}");
        }
        assert_eq!(wl_a.ops, wl_b.ops);
        assert_eq!(mgr_a.save_state().unwrap(), mgr_b.save_state().unwrap());
        assert_eq!(m_a.save_state(), m_b.save_state());
    }

    #[test]
    fn stateful_admission_refuses_checkpoint() {
        let mut cfg = MtmConfig::default();
        cfg.admission = crate::admission::AdmissionKind::PingPong;
        let mgr = MtmManager::new(cfg, 1);
        assert!(mgr.save_state().is_none());
    }

    #[test]
    fn load_state_rejects_admission_mismatch() {
        let mut cfg = MtmConfig::default();
        cfg.admission = crate::admission::AdmissionKind::HotnessDelta;
        let donor = MtmManager::new(cfg, 1);
        let blob = donor.save_state().unwrap();
        let mut mgr = MtmManager::new(MtmConfig::default(), 1);
        let err = mgr.load_state(&blob).unwrap_err();
        assert!(err.contains("config digest mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn load_state_rejects_any_config_mismatch() {
        // Same admission policy, different thresholds and budget: the
        // resumed run would diverge, so the restore must refuse.
        let mut m = machine();
        let mut donor = MtmManager::new(MtmConfig::default(), 1);
        run_scenario(&mut m, &mut donor, &mut workload(), 3);
        let blob = donor.save_state().unwrap();
        let mut cfg = MtmConfig::default();
        cfg.alpha = 0.9;
        cfg.promote_bytes /= 4;
        let err = MtmManager::new(cfg, 1).load_state(&blob).unwrap_err();
        assert!(err.contains("config digest mismatch"), "unexpected error: {err}");
        // The same configuration still restores.
        MtmManager::new(MtmConfig::default(), 1).load_state(&blob).expect("same config restores");
    }
}

