//! Memory components, tiers, and the machine topology.
//!
//! A *memory component* is one physical pool of memory (a DRAM DIMM set or a
//! PM module set attached to one socket). What the paper calls a *tier* is a
//! component ranked by its distance from a given CPU node: the same component
//! is tier 1 for the local socket and tier 2 (or worse) for a remote socket.
//! This is the paper's "multi-view of tiered memory" (Sec. 6.2). The default
//! view used in reports is node 0's view, matching Table 1 of the paper.


/// Index of a memory component (also used as a physical "node" id in Linux
/// terms: CPU-attached DRAM or a CPU-less PM node).
pub type ComponentId = u16;

/// Most memory components a topology may have. Per-component sets are
/// `u64` bitmasks indexed by [`ComponentId`] (the PEBS monitored set),
/// so a component id must stay below 64.
pub const MAX_COMPONENTS: usize = 64;

/// Index of a CPU node (socket).
pub type NodeId = u16;

/// The kind of memory technology backing a component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemKind {
    /// CPU-attached DRAM.
    Dram,
    /// High-capacity persistent memory (Optane DC PM in the paper).
    Pm,
}

/// One memory component with its capacity and home socket.
#[derive(Clone, Debug)]
pub struct Component {
    /// Human-readable name used in reports (e.g. `"DRAM0"`).
    pub name: String,
    /// Memory technology of the component.
    pub kind: MemKind,
    /// Socket the component is attached to.
    pub home_node: NodeId,
    /// Capacity in bytes (already divided by the simulation scale).
    pub capacity: u64,
}

/// Latency and bandwidth of one (CPU node, component) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Load-to-use latency in nanoseconds.
    pub latency_ns: f64,
    /// Sustainable read bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Sustainable write bandwidth in GB/s. PM sustains far fewer writes
    /// than reads (roughly a quarter on Optane); DRAM is symmetric, and
    /// the remote-PM link is interconnect-bound in both directions.
    pub write_bandwidth_gbps: f64,
}

impl LinkSpec {
    /// A link with symmetric read/write bandwidth.
    pub fn symmetric(latency_ns: f64, bandwidth_gbps: f64) -> LinkSpec {
        LinkSpec { latency_ns, bandwidth_gbps, write_bandwidth_gbps: bandwidth_gbps }
    }

    /// Read bandwidth converted to bytes per nanosecond.
    #[inline]
    pub fn bytes_per_ns(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// How many read-equivalent bytes one written byte consumes on this
    /// link (the roofline uses a single read-bandwidth denominator).
    #[inline]
    pub fn write_cost_factor(&self) -> f64 {
        self.bandwidth_gbps / self.write_bandwidth_gbps.max(1e-9)
    }
}

/// The full machine topology: components plus the per-node distance matrix.
#[derive(Clone, Debug)]
pub struct Topology {
    /// All memory components, indexed by [`ComponentId`].
    pub components: Vec<Component>,
    /// Number of CPU nodes (sockets).
    pub nodes: u16,
    /// `links[node][component]` describes access cost from `node` to
    /// `component`.
    pub links: Vec<Vec<LinkSpec>>,
    /// Per-node tier order: `views[node]` lists component ids sorted from
    /// fastest (tier 1) to slowest, as seen from `node`.
    pub views: Vec<Vec<ComponentId>>,
}

impl Topology {
    /// Builds a topology from components and a link matrix, deriving the
    /// per-node tier views by sorting components by latency. Panics on
    /// more than [`MAX_COMPONENTS`] components.
    pub fn new(components: Vec<Component>, nodes: u16, links: Vec<Vec<LinkSpec>>) -> Topology {
        assert!(
            components.len() <= MAX_COMPONENTS,
            "{} memory components; at most {MAX_COMPONENTS} fit a component mask",
            components.len()
        );
        assert_eq!(links.len(), nodes as usize, "one link row per node");
        for row in &links {
            assert_eq!(row.len(), components.len(), "one link per component");
        }
        let mut views = Vec::with_capacity(nodes as usize);
        for node in 0..nodes as usize {
            let mut order: Vec<ComponentId> = (0..components.len() as u16).collect();
            order.sort_by(|&a, &b| {
                links[node][a as usize]
                    .latency_ns
                    .partial_cmp(&links[node][b as usize].latency_ns)
                    .expect("latency is finite")
            });
            views.push(order);
        }
        Topology { components, nodes, links, views }
    }

    /// Number of memory components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Access cost spec from `node` to `component`.
    #[inline]
    pub fn link(&self, node: NodeId, component: ComponentId) -> LinkSpec {
        self.links[node as usize][component as usize]
    }

    /// Component ids ordered fastest-to-slowest from `node`'s view.
    #[inline]
    pub fn view(&self, node: NodeId) -> &[ComponentId] {
        &self.views[node as usize]
    }

    /// The tier rank (0 = fastest) of `component` as seen from `node`.
    pub fn tier_rank(&self, node: NodeId, component: ComponentId) -> usize {
        self.views[node as usize]
            .iter()
            .position(|&c| c == component)
            // lint:allow(panic-path): Topology construction puts every component in every node's view; a rankless component is a config bug worth aborting on
            .expect("component present in every view")
    }

    /// Component at tier rank `rank` (0 = fastest) from `node`'s view.
    #[inline]
    pub fn component_at_rank(&self, node: NodeId, rank: usize) -> ComponentId {
        self.views[node as usize][rank]
    }

    /// Total capacity over all components, in bytes.
    pub fn total_capacity(&self) -> u64 {
        self.components.iter().map(|c| c.capacity).sum()
    }

    /// Ids of all DRAM components.
    pub fn dram_components(&self) -> Vec<ComponentId> {
        (0..self.components.len() as u16)
            .filter(|&c| self.components[c as usize].kind == MemKind::Dram)
            .collect()
    }

    /// Ids of all PM components (the "slow" tiers PEBS events cover).
    pub fn pm_components(&self) -> Vec<ComponentId> {
        (0..self.components.len() as u16)
            .filter(|&c| self.components[c as usize].kind == MemKind::Pm)
            .collect()
    }

    /// The slowest component from `node`'s view.
    pub fn slowest_from(&self, node: NodeId) -> ComponentId {
        *self.views[node as usize].last().expect("non-empty topology")
    }
}

/// Paper-scale capacities of the Optane testbed (Table 1 hardware): 96 GB
/// DRAM and 756 GB PM per socket.
pub const PAPER_DRAM_PER_SOCKET: u64 = 96 * (1 << 30);
/// Paper-scale PM capacity per socket.
pub const PAPER_PM_PER_SOCKET: u64 = 756 * (1 << 30);

/// Builds the paper's two-socket, four-component Optane topology (Table 1).
///
/// Capacities are divided by `scale` so multi-hundred-GB experiments can be
/// simulated with proportionally smaller footprints. `scale = 1` reproduces
/// the paper-scale capacities.
///
/// From node 0's view the four tiers match Table 1:
///
/// | tier | component | latency | bandwidth |
/// |------|-----------|---------|-----------|
/// | 1    | local DRAM  | 90 ns  | 95 GB/s |
/// | 2    | remote DRAM | 145 ns | 35 GB/s |
/// | 3    | local PM    | 275 ns | 35 GB/s |
/// | 4    | remote PM   | 340 ns | 1 GB/s  |
pub fn optane_four_tier(scale: u64) -> Topology {
    assert!(scale >= 1, "scale must be at least 1");
    let dram = PAPER_DRAM_PER_SOCKET / scale;
    let pm = PAPER_PM_PER_SOCKET / scale;
    let components = vec![
        Component { name: "DRAM0".into(), kind: MemKind::Dram, home_node: 0, capacity: dram },
        Component { name: "DRAM1".into(), kind: MemKind::Dram, home_node: 1, capacity: dram },
        Component { name: "PM0".into(), kind: MemKind::Pm, home_node: 0, capacity: pm },
        Component { name: "PM1".into(), kind: MemKind::Pm, home_node: 1, capacity: pm },
    ];
    let local_dram = LinkSpec::symmetric(90.0, 95.0);
    let remote_dram = LinkSpec::symmetric(145.0, 35.0);
    let local_pm = LinkSpec { latency_ns: 275.0, bandwidth_gbps: 35.0, write_bandwidth_gbps: 9.0 };
    let remote_pm = LinkSpec::symmetric(340.0, 1.0);
    let links = vec![
        vec![local_dram, remote_dram, local_pm, remote_pm],
        vec![remote_dram, local_dram, remote_pm, local_pm],
    ];
    Topology::new(components, 2, links)
}

/// Builds a single-socket, two-tier topology (one DRAM + one PM component),
/// the setting of the paper's Sec. 9.6 HeMem comparison.
pub fn two_tier(scale: u64) -> Topology {
    assert!(scale >= 1, "scale must be at least 1");
    let components = vec![
        Component {
            name: "DRAM0".into(),
            kind: MemKind::Dram,
            home_node: 0,
            capacity: PAPER_DRAM_PER_SOCKET / scale,
        },
        Component {
            name: "PM0".into(),
            kind: MemKind::Pm,
            home_node: 0,
            capacity: PAPER_PM_PER_SOCKET / scale,
        },
    ];
    let links = vec![vec![
        LinkSpec::symmetric(90.0, 95.0),
        LinkSpec { latency_ns: 275.0, bandwidth_gbps: 35.0, write_bandwidth_gbps: 9.0 },
    ]];
    Topology::new(components, 1, links)
}

/// A small synthetic topology for unit tests: two tiny tiers on one node.
pub fn tiny_two_tier(fast_capacity: u64, slow_capacity: u64) -> Topology {
    let components = vec![
        Component { name: "fast".into(), kind: MemKind::Dram, home_node: 0, capacity: fast_capacity },
        Component { name: "slow".into(), kind: MemKind::Pm, home_node: 0, capacity: slow_capacity },
    ];
    let links = vec![vec![
        LinkSpec::symmetric(100.0, 50.0),
        LinkSpec::symmetric(300.0, 5.0),
    ]];
    Topology::new(components, 1, links)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_topology(n: usize) -> Topology {
        let components = (0..n)
            .map(|i| Component { name: format!("c{i}"), kind: MemKind::Pm, home_node: 0, capacity: 1 << 30 })
            .collect();
        let links = vec![(0..n).map(|i| LinkSpec::symmetric(100.0 + i as f64, 10.0)).collect()];
        Topology::new(components, 1, links)
    }

    #[test]
    fn topology_holds_up_to_max_components() {
        let t = flat_topology(MAX_COMPONENTS);
        assert_eq!(t.num_components(), MAX_COMPONENTS);
        assert_eq!(t.view(0)[MAX_COMPONENTS - 1] as usize, MAX_COMPONENTS - 1);
    }

    #[test]
    #[should_panic(expected = "at most 64 fit a component mask")]
    fn topology_rejects_more_than_max_components() {
        flat_topology(MAX_COMPONENTS + 1);
    }

    #[test]
    fn optane_views_match_table1() {
        let t = optane_four_tier(1);
        // Node 0: DRAM0, DRAM1, PM0, PM1.
        assert_eq!(t.view(0), &[0, 1, 2, 3]);
        // Node 1 view mirrors: DRAM1, DRAM0, PM1, PM0.
        assert_eq!(t.view(1), &[1, 0, 3, 2]);
        assert_eq!(t.link(0, 0).latency_ns, 90.0);
        assert_eq!(t.link(0, 3).bandwidth_gbps, 1.0);
        assert_eq!(t.slowest_from(0), 3);
        assert_eq!(t.slowest_from(1), 2);
    }

    #[test]
    fn tier_ranks() {
        let t = optane_four_tier(1);
        assert_eq!(t.tier_rank(0, 0), 0);
        assert_eq!(t.tier_rank(0, 2), 2);
        assert_eq!(t.tier_rank(1, 2), 3);
        assert_eq!(t.component_at_rank(0, 3), 3);
    }

    #[test]
    fn scaling_divides_capacity() {
        let t = optane_four_tier(1024);
        assert_eq!(t.components[0].capacity, PAPER_DRAM_PER_SOCKET / 1024);
        assert_eq!(t.total_capacity(), 2 * (PAPER_DRAM_PER_SOCKET + PAPER_PM_PER_SOCKET) / 1024);
    }

    #[test]
    fn kind_partitions() {
        let t = optane_four_tier(1);
        assert_eq!(t.dram_components(), vec![0, 1]);
        assert_eq!(t.pm_components(), vec![2, 3]);
    }

    #[test]
    fn two_tier_is_single_view() {
        let t = two_tier(64);
        assert_eq!(t.nodes, 1);
        assert_eq!(t.view(0), &[0, 1]);
    }
}
