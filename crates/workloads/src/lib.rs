//! `mtm-workloads` — the six large-memory workloads of the MTM evaluation.
//!
//! Each workload implements [`tiersim::sim::Workload`], generating a
//! realistic access stream against the simulated machine (Table 2 of the
//! paper): GUPS (random updates with a hot set), a TPC-C-style in-memory
//! database (VoltDB surrogate), a YCSB-A row store (Cassandra surrogate),
//! BFS and SSSP over an R-MAT graph, and a TeraSort-style multi-phase sort
//! (Spark surrogate). Footprints are the paper's sizes divided by a
//! configurable scale; capacity *ratios* against the tier sizes are
//! preserved because the topology is scaled by the same factor.

pub mod bfs;
pub mod graph;
pub mod gups;
pub mod layout;
pub mod rng;
pub mod sssp;
pub mod terasort;
pub mod tpcc;
pub mod ycsb;

pub use bfs::{Bfs, BfsConfig};
pub use gups::{Gups, GupsConfig, HotsetMode};
pub use sssp::{Sssp, SsspConfig};
pub use terasort::{Terasort, TerasortConfig};
pub use tpcc::{Tpcc, TpccConfig};
pub use ycsb::{Ycsb, YcsbConfig};

use tiersim::sim::Workload;

/// Asks the host CPU to start loading the cache line at `p`, so a later
/// random read of it overlaps with other work instead of stalling. A pure
/// hint: nothing reads the loaded value, so it cannot change what a
/// workload computes or accesses. `p` may dangle; a prefetch never faults.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache hierarchy. It reads no
    // memory the program can observe and does not fault on any address,
    // valid or not, and SSE is part of the x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A catalog entry describing one evaluation workload (Table 2).
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// Workload name as the paper prints it.
    pub name: &'static str,
    /// Short description (Table 2's wording, abbreviated).
    pub description: &'static str,
    /// Paper-scale memory footprint in bytes.
    pub paper_bytes: u64,
    /// Read/write character as the paper reports it.
    pub rw: &'static str,
}

/// The paper's Table 2 inventory.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "GUPS",
            description: "random updates to memory locations",
            paper_bytes: 512 << 30,
            rw: "1:1",
        },
        CatalogEntry {
            name: "VoltDB",
            description: "in-memory database running TPC-C (5K warehouses)",
            paper_bytes: 300 << 30,
            rw: "1:1",
        },
        CatalogEntry {
            name: "Cassandra",
            description: "partitioned row store under YCSB workload A",
            paper_bytes: 400 << 30,
            rw: "1:1",
        },
        CatalogEntry {
            name: "BFS",
            description: "parallel graph traversal (0.9B nodes, 14B edges)",
            paper_bytes: 525 << 30,
            rw: "read-only",
        },
        CatalogEntry {
            name: "SSSP",
            description: "shortest path search (0.9B nodes, 14B edges)",
            paper_bytes: 525 << 30,
            rw: "read-only",
        },
        CatalogEntry {
            name: "Spark",
            description: "TeraSort benchmark",
            paper_bytes: 350 << 30,
            rw: "1:1",
        },
    ]
}

/// Builds one of the six paper workloads by name, scaled by `scale`.
///
/// Names match the paper: `GUPS`, `VoltDB`, `Cassandra`, `BFS`, `SSSP`,
/// `Spark`. Returns `None` for an unknown name.
pub fn build_paper_workload(name: &str, scale: u64, threads: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "GUPS" => Box::new(Gups::new(GupsConfig::paper(scale, threads))),
        "VoltDB" => Box::new(Tpcc::new(TpccConfig::paper(scale, threads))),
        "Cassandra" => Box::new(Ycsb::new(YcsbConfig::paper(scale, threads))),
        "BFS" => Box::new(Bfs::new(BfsConfig::paper(scale, threads))),
        "SSSP" => Box::new(Sssp::new(SsspConfig::paper(scale, threads))),
        "Spark" => Box::new(Terasort::new(TerasortConfig::paper(scale, threads))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lists_six_workloads() {
        let c = catalog();
        assert_eq!(c.len(), 6);
        assert_eq!(c[0].name, "GUPS");
        assert_eq!(c[3].rw, "read-only");
    }

    #[test]
    fn builder_knows_every_catalog_name() {
        for entry in catalog() {
            let wl = build_paper_workload(entry.name, 1 << 14, 2);
            assert!(wl.is_some(), "missing builder for {}", entry.name);
            assert_eq!(wl.unwrap().name(), entry.name);
        }
        assert!(build_paper_workload("nope", 1024, 2).is_none());
    }
}
