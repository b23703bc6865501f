//! MTM configuration (Secs. 5-7 of the paper) including ablation switches.

/// Initial page-placement policy (Table 4 studies both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialPlacement {
    /// Allocate new pages in the local *slow* tier first (MTM's default:
    /// "MTM initially allocates pages in a local slow memory tier").
    SlowLocalFirst,
    /// First-touch: allocate in the local fast tier first.
    FastLocalFirst,
}

/// Full MTM configuration.
#[derive(Clone, Debug)]
pub struct MtmConfig {
    /// Profiling-overhead constraint as a fraction of execution time
    /// (paper default 5 %).
    pub overhead_target: f64,
    /// PTE scans per sampled page per profiling interval (paper: 3).
    pub num_scans: u32,
    /// Merge threshold `tau_m`; regions whose hotness differs by less
    /// merge (paper default `num_scans / 3`).
    pub tau_m: f64,
    /// Split threshold `tau_s`; regions whose in-region sample spread
    /// exceeds it split (paper default `2 * num_scans / 3`).
    pub tau_s: f64,
    /// EMA weight `alpha` of Eq. 2 (paper default 0.5).
    pub alpha: f64,
    /// Bytes promoted per migration interval (paper: 200 MB; scale it
    /// with the footprint scale).
    pub promote_bytes: u64,
    /// Number of highest-variance regions receiving freed sample quota
    /// (paper: 5).
    pub top_variance_slots: usize,
    /// Turn on a hint fault once every this many PTE scans to attribute
    /// accesses to a node (paper: 12).
    pub hint_fault_every: u32,
    /// Helper threads for asynchronous page copy.
    pub copy_threads: u32,
    /// Initial placement policy.
    pub initial_placement: InitialPlacement,
    /// Ablation: adaptive memory regions (merge/split). Fig. 7 "w/o AMR".
    pub adaptive_regions: bool,
    /// Ablation: adaptive page sampling (variance-guided quota
    /// redistribution). Fig. 7 "w/o APS" distributes randomly.
    pub adaptive_sampling: bool,
    /// Ablation: profiling overhead control (Eq. 1 cap). Fig. 7 "w/o OC"
    /// samples every region regardless of the constraint.
    pub overhead_control: bool,
    /// Ablation: performance-counter-assisted scan on the slowest tier.
    /// Fig. 7 "w/o PEBS".
    pub pebs_assist: bool,
    /// Ablation: asynchronous page copy. Fig. 7 "w/o async migration"
    /// charges the full copy on the critical path.
    pub async_migration: bool,
    /// Admission policy consulted before every candidate migration
    /// (`MTM_ADMIT`; `Always` reproduces the legacy pipeline exactly).
    pub admission: crate::admission::AdmissionKind,
    /// RNG seed for page sampling.
    pub seed: u64,
}

impl Default for MtmConfig {
    fn default() -> MtmConfig {
        let num_scans = 3;
        MtmConfig {
            overhead_target: 0.05,
            num_scans,
            tau_m: num_scans as f64 / 3.0,
            tau_s: 2.0 * num_scans as f64 / 3.0,
            alpha: 0.5,
            promote_bytes: 16 << 20,
            top_variance_slots: 5,
            hint_fault_every: 12,
            copy_threads: 4,
            initial_placement: InitialPlacement::SlowLocalFirst,
            adaptive_regions: true,
            adaptive_sampling: true,
            overhead_control: true,
            pebs_assist: true,
            async_migration: true,
            admission: crate::admission::AdmissionKind::Always,
            seed: 0x171717,
        }
    }
}

impl MtmConfig {
    /// Scales the paper's 200 MB/interval promotion budget by `scale`.
    ///
    /// The budget is additionally inflated 16x because simulated runs
    /// last ~120 intervals instead of the paper's ~1000 — this keeps the
    /// ratio of promotion budget to DRAM fill time intact (see DESIGN.md
    /// §6) — with a floor of four 2 MB regions per interval.
    pub fn with_paper_promote_budget(mut self, scale: u64) -> MtmConfig {
        self.promote_bytes = ((200u64 << 20) * 16 / scale).max(4 << 21);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MtmConfig::default();
        assert_eq!(c.overhead_target, 0.05);
        assert_eq!(c.num_scans, 3);
        assert!((c.tau_m - 1.0).abs() < 1e-9);
        assert!((c.tau_s - 2.0).abs() < 1e-9);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.top_variance_slots, 5);
        assert_eq!(c.hint_fault_every, 12);
        assert_eq!(c.initial_placement, InitialPlacement::SlowLocalFirst);
        assert!(c.adaptive_regions && c.adaptive_sampling && c.overhead_control);
    }

    #[test]
    fn promote_budget_scales_with_floor() {
        let c = MtmConfig::default().with_paper_promote_budget(1);
        assert_eq!(c.promote_bytes, (200u64 << 20) * 16);
        let tiny = MtmConfig::default().with_paper_promote_budget(1 << 30);
        assert_eq!(tiny.promote_bytes, 4 << 21);
    }
}
