//! `tiersim` — a simulated multi-tiered large-memory machine.
//!
//! This crate is the hardware/kernel substrate for the MTM reproduction
//! (EuroSys '24): a software model of a two-socket, four-component Optane
//! machine with page tables, PTE accessed/dirty bits, PEBS-style sampling,
//! NUMA hint faults, hardware-managed DRAM caching (Memory Mode), migration
//! primitives, and a virtual-time cost model. Memory-management policies
//! (MTM itself and every baseline) are built on the [`sim::MemoryManager`]
//! trait and observe exactly the signals the paper's systems observe on
//! real hardware.
//!
//! # Examples
//!
//! ```
//! use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M};
//! use tiersim::machine::{AccessKind, Machine, MachineConfig};
//! use tiersim::tier::tiny_two_tier;
//!
//! let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
//! let mut m = Machine::new(MachineConfig::new(topo, 1));
//! m.mmap("heap", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), false);
//! m.alloc_and_map(0, VirtAddr(0x1000), &[0, 1]).unwrap();
//! m.access(0, VirtAddr(0x1000), AccessKind::Write);
//! assert_eq!(m.counters().component(0).stores, 1);
//! ```

pub mod addr;
pub mod cache;
pub mod clock;
pub mod counters;
pub mod engine;
pub mod frame;
pub mod hintfault;
pub mod machine;
pub mod migrate;
pub mod page_table;
pub mod pebs;
pub mod pte;
pub mod rng;
pub mod sim;
pub mod tier;

pub use addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
pub use machine::{AccessKind, AccessResult, Machine, MachineConfig};
pub use sim::{run_scenario, MemEnv, MemoryManager, RunReport, ScenarioProgress, Share, Workload};
pub use tier::{optane_four_tier, two_tier, ComponentId, NodeId, Topology};
