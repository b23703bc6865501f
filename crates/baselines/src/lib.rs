//! `mtm-baselines` — the page-management systems MTM is evaluated against
//! (Sec. 9 "Baselines"): first-touch NUMA, hardware-managed caching
//! (Optane Memory Mode), vanilla and patched tiered-AutoNUMA, AutoTiering,
//! HeMem, Thermostat, the DAMON profiler, and the Nimble / `move_pages()`
//! migration mechanisms (the latter two live in `tiersim::migrate` and
//! `mtm::migration`).

pub mod autonuma;
pub mod autotiering;
pub mod damon;
pub mod first_touch;
pub mod hemem;
pub mod hmc;
pub mod thermostat;
pub mod util;

pub use autonuma::AutoNuma;
pub use autotiering::AutoTiering;
pub use damon::{Damon, DamonConfig};
pub use first_touch::FirstTouch;
pub use hemem::{hemem_pebs_config, HeMem};
pub use hmc::MemoryMode;
pub use thermostat::Thermostat;

use tiersim::sim::MemoryManager;

/// Builds a baseline manager by its paper name.
///
/// Names: `first-touch`, `hmc`, `vanilla-autonuma`, `autonuma`,
/// `autotiering`, `hemem`, `thermostat`, `damon`. `promote_budget` is the
/// per-interval migration rate limit shared with MTM (the paper sets both
/// to 200 MB per interval). Returns `None` for an unknown name.
pub fn build_baseline(name: &str, promote_budget: u64) -> Option<Box<dyn MemoryManager>> {
    Some(match name {
        "first-touch" => Box::new(FirstTouch),
        "hmc" => Box::new(MemoryMode),
        "vanilla-autonuma" => Box::new(AutoNuma::vanilla(promote_budget)),
        "autonuma" => Box::new(AutoNuma::patched(promote_budget)),
        "autotiering" => Box::new(AutoTiering::new(promote_budget)),
        "hemem" => Box::new(HeMem::new(promote_budget)),
        "thermostat" => Box::new(Thermostat::new(promote_budget)),
        "damon" => Box::new(Damon::new(DamonConfig::default())),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_knows_all_names() {
        for name in
            ["first-touch", "hmc", "vanilla-autonuma", "autonuma", "autotiering", "hemem", "thermostat", "damon"]
        {
            assert!(build_baseline(name, 1 << 20).is_some(), "missing {name}");
        }
        assert!(build_baseline("bogus", 0).is_none());
    }
}
