//! `mtm` — reproduction of MTM: Rethinking Memory Profiling and Migration
//! for Multi-Tiered Large Memory (EuroSys '24).
//!
//! The crate implements the paper's three contributions over the
//! [`tiersim`] substrate:
//!
//! 1. **Adaptive memory profiling** (Sec. 5): multi-scan PTE sampling with
//!    the overhead constraint of Eq. 1, variance-guided sample-quota
//!    redistribution, huge-page-aware region merge/split, and
//!    performance-counter-assisted scanning of the slowest tier.
//! 2. **Fast promotion / slow demotion** (Sec. 6): a global EMA hotness
//!    order over all regions in all tiers promotes the hottest regions directly
//!    to the fastest tier and demotes step-by-step, with multi-view-aware
//!    destinations.
//! 3. **Adaptive migration** (Sec. 7): `move_memory_regions()`, an
//!    asynchronous helper-thread page copy with write tracking that
//!    switches to a synchronous copy on the first write.
//!
//! [`MtmManager`] packages all three behind [`tiersim::sim::MemoryManager`].
//!
//! # Examples
//!
//! ```
//! use mtm::{MtmConfig, MtmManager};
//! use tiersim::machine::{Machine, MachineConfig};
//! use tiersim::tier::optane_four_tier;
//!
//! let topo = optane_four_tier(1024);
//! let nodes = topo.nodes as usize;
//! let machine = Machine::new(MachineConfig::new(topo, 8));
//! let manager = MtmManager::new(MtmConfig::default(), nodes);
//! # let _ = (machine, manager);
//! ```

pub mod admission;
pub mod config;
pub mod daemon;
pub mod migration;
pub mod policy;
pub mod profiler;
pub mod region;
pub mod residency;

pub use admission::{AdmissionKind, AdmissionPolicy, Candidate, MigrationKind, Verdict};
pub use config::{InitialPlacement, MtmConfig};
pub use daemon::MtmManager;
pub use migration::{move_memory_regions_once, nimble_move, MigrationEngine};
pub use profiler::AdaptiveProfiler;
pub use region::{Region, RegionList};
