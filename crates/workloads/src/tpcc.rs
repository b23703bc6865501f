//! TPC-C-style in-memory database workload (the VoltDB surrogate).
//!
//! Reproduces the access skeleton of VoltDB running TPC-C with thousands of
//! warehouses (Table 2: 300 GB, 1:1 R/W): tiny, very hot warehouse and
//! district rows; a shared hot item table; large customer and stock tables
//! with NURand-style skew; and an order log receiving sequential appends
//! with reads concentrated near the head. Each thread has a home warehouse
//! it mostly serves (TPC-C terminals), with a fraction of remote-warehouse
//! transactions.

use tiersim::addr::{VaRange, VirtAddr};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

use crate::layout::{elem_addr, Layout};
use crate::rng::{SplitMix64, Zipfian};

const WAREHOUSE_ROW: u64 = 128;
const DISTRICT_ROW: u64 = 128;
const DISTRICTS_PER_WH: u64 = 10;
const CUSTOMER_ROW: u64 = 1024;
const CUSTOMERS_PER_DISTRICT: u64 = 3_000;
const STOCK_ROW: u64 = 320;
const ITEMS: u64 = 100_000;
const ITEM_ROW: u64 = 80;
const STOCK_PER_WH: u64 = ITEMS;
const ORDER_LINE: u64 = 64;

/// TPC-C configuration.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Customer rows per district (the TPC-C spec's 3 000; thinned below
    /// the warehouse floor so the footprint keeps tracking `1/scale`).
    pub customers_per_district: u64,
    /// Stock rows per warehouse (the spec's 100 000; thinned like the
    /// customer table).
    pub stock_per_wh: u64,
    /// Item-table rows (the spec's fixed 100 000). The item table is not
    /// per-warehouse, so without thinning its 8 MB would stop tracking
    /// `1/scale` like the tier capacities do; below the warehouse floor
    /// it shrinks with the same rule as the stock table.
    pub items: u64,
    /// Number of application threads.
    pub threads: usize,
    /// Fraction of transactions against a non-home warehouse.
    pub remote_frac: f64,
    /// Compute time per transaction, ns (SQL execution, logging, locking
    /// — VoltDB runs tens of thousands of TPC-C transactions per second).
    pub cpu_ns_per_op: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpccConfig {
    /// The paper's configuration scaled by `scale`: 5 K warehouses
    /// (~300 GB) at scale 1. TPC-C needs at least two warehouses (remote
    /// transactions must have somewhere to go), so past `scale > 2500`
    /// the warehouse count pins at 2 and the customer, stock, and item
    /// *densities* shrink instead — the footprint stays proportional to
    /// `1/scale` at every scale, as the tier capacities of
    /// `optane_four_tier(scale)` do, so the working set keeps its paper
    /// ratio to the fast tier. A pure floor froze it at ~142 MB, ~3× the
    /// DRAM of a quick-scale (1/4096) machine.
    pub fn paper(scale: u64, threads: usize) -> TpccConfig {
        let warehouses = (5_000 / scale).max(2);
        let thin = |rows: u64, floor: u64| {
            if 5_000 / scale >= 2 {
                rows
            } else {
                (rows * 5_000 / (warehouses * scale)).max(floor)
            }
        };
        TpccConfig {
            warehouses,
            customers_per_district: thin(CUSTOMERS_PER_DISTRICT, 30),
            stock_per_wh: thin(STOCK_PER_WH, 1_000),
            items: thin(ITEMS, 1_000),
            threads,
            remote_frac: 0.1,
            cpu_ns_per_op: 25_000.0,
            seed: 0x7C0C,
        }
    }
}

/// The TPC-C workload.
pub struct Tpcc {
    cfg: TpccConfig,
    items: VaRange,
    warehouse: VaRange,
    district: VaRange,
    customer: VaRange,
    stock: VaRange,
    orderlog: VaRange,
    order_head: u64,
    cust_skew: Zipfian,
    stock_skew: Zipfian,
    item_skew: Zipfian,
    rngs: Vec<SplitMix64>,
    ops: u64,
}

impl Tpcc {
    /// Creates a TPC-C instance (VMAs laid out in [`Workload::setup`]).
    pub fn new(cfg: TpccConfig) -> Tpcc {
        let rngs = (0..cfg.threads.max(1))
            .map(|t| SplitMix64::new(cfg.seed ^ ((t as u64) << 24)))
            .collect();
        Tpcc {
            cust_skew: Zipfian::new(cfg.customers_per_district, 0.6),
            stock_skew: Zipfian::new(cfg.stock_per_wh, 0.6),
            item_skew: Zipfian::new(cfg.items, 0.8),
            cfg,
            items: VaRange::from_len(VirtAddr(0), 0),
            warehouse: VaRange::from_len(VirtAddr(0), 0),
            district: VaRange::from_len(VirtAddr(0), 0),
            customer: VaRange::from_len(VirtAddr(0), 0),
            stock: VaRange::from_len(VirtAddr(0), 0),
            orderlog: VaRange::from_len(VirtAddr(0), 0),
            order_head: 0,
            rngs,
            ops: 0,
        }
    }

    fn pick_warehouse(&mut self, tid: usize) -> u64 {
        let w = self.cfg.warehouses;
        let home = (tid as u64) % w;
        let rng = &mut self.rngs[tid];
        if rng.unit_f64() < self.cfg.remote_frac {
            rng.below(w)
        } else {
            home
        }
    }

    fn customer_addr(&self, wh: u64, district: u64, cust: u64) -> VirtAddr {
        let idx = (wh * DISTRICTS_PER_WH + district) * self.cfg.customers_per_district + cust;
        elem_addr(self.customer, idx, CUSTOMER_ROW)
    }

    fn stock_addr(&self, wh: u64, item: u64) -> VirtAddr {
        elem_addr(self.stock, wh * self.cfg.stock_per_wh + item, STOCK_ROW)
    }

    fn new_order<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        let wh = self.pick_warehouse(tid);
        let district = self.rngs[tid].below(DISTRICTS_PER_WH);
        // Warehouse row read; district row read + D_NEXT_O_ID update.
        env.read(tid, elem_addr(self.warehouse, wh, WAREHOUSE_ROW));
        let d = elem_addr(self.district, wh * DISTRICTS_PER_WH + district, DISTRICT_ROW);
        env.update(tid, d);
        // Customer lookup (NURand-style skew).
        let cust = self.cust_skew.sample(&mut self.rngs[tid]);
        env.read(tid, self.customer_addr(wh, district, cust));
        // Order lines: ten items.
        for _ in 0..10 {
            let item = self.item_skew.sample(&mut self.rngs[tid]);
            env.read(tid, elem_addr(self.items, item, ITEM_ROW));
            let sk_item = self.stock_skew.sample(&mut self.rngs[tid]);
            let s = self.stock_addr(wh, sk_item);
            env.update(tid, s);
            // Append the order line to the log (ring).
            let slot = self.order_head % (self.orderlog.len() / ORDER_LINE);
            env.write(tid, elem_addr(self.orderlog, slot, ORDER_LINE));
            self.order_head += 1;
        }
    }

    fn payment<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        let wh = self.pick_warehouse(tid);
        let district = self.rngs[tid].below(DISTRICTS_PER_WH);
        let w = elem_addr(self.warehouse, wh, WAREHOUSE_ROW);
        env.update(tid, w);
        let d = elem_addr(self.district, wh * DISTRICTS_PER_WH + district, DISTRICT_ROW);
        env.update(tid, d);
        let cust = self.cust_skew.sample(&mut self.rngs[tid]);
        let c = self.customer_addr(wh, district, cust);
        env.update(tid, c);
    }

    fn order_status<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        // Read a handful of recent order lines near the log head.
        let slots = self.orderlog.len() / ORDER_LINE;
        let rng = &mut self.rngs[tid];
        let back = rng.below(256.min(slots));
        let base = (self.order_head + slots - back) % slots;
        for k in 0..5 {
            env.read(tid, elem_addr(self.orderlog, (base + k) % slots, ORDER_LINE));
        }
    }

    /// One tick on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        env.compute(tid, self.cfg.cpu_ns_per_op);
        let dice = self.rngs[tid].unit_f64();
        if dice < 0.45 {
            self.new_order(env, tid);
        } else if dice < 0.88 {
            self.payment(env, tid);
        } else {
            self.order_status(env, tid);
        }
        self.ops += 1;
    }
}

impl Workload for Tpcc {
    fn name(&self) -> String {
        "VoltDB".into()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let w = self.cfg.warehouses;
        let mut layout = Layout::new();
        self.items = layout.add(env, "tpcc.item", self.cfg.items * ITEM_ROW, true);
        self.warehouse = layout.add(env, "tpcc.warehouse", w * WAREHOUSE_ROW, true);
        self.district = layout.add(env, "tpcc.district", w * DISTRICTS_PER_WH * DISTRICT_ROW, true);
        self.customer = layout.add(
            env,
            "tpcc.customer",
            w * DISTRICTS_PER_WH * self.cfg.customers_per_district * CUSTOMER_ROW,
            true,
        );
        self.stock =
            layout.add(env, "tpcc.stock", w * self.cfg.stock_per_wh * STOCK_ROW, true);
        let log_bytes = (self.stock.len() / 8).max(ORDER_LINE * 1024);
        self.orderlog = layout.add(env, "tpcc.orderlog", log_bytes, true);
        let threads = self.cfg.threads.max(1);
        crate::layout::populate_interleaved(env, &[self.items, self.warehouse, self.district, self.customer, self.stock, self.orderlog], threads);
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.step(t, tid));
    }

    fn footprint(&self) -> u64 {
        self.items.len()
            + self.warehouse.len()
            + self.district.len()
            + self.customer.len()
            + self.stock.len()
            + self.orderlog.len()
    }

    fn true_hot_ranges(&self) -> Vec<VaRange> {
        vec![self.items, self.warehouse, self.district]
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::PAGE_SIZE_2M;
    use tiersim::machine::{Machine, MachineConfig};
    use tiersim::sim::{FirstTouchPolicy, SimEnv};
    use tiersim::tier::tiny_two_tier;

    fn tpcc() -> (Tpcc, Machine) {
        let cfg = TpccConfig {
            warehouses: 2,
            customers_per_district: CUSTOMERS_PER_DISTRICT,
            stock_per_wh: STOCK_PER_WH,
            items: ITEMS,
            threads: 2,
            remote_frac: 0.1,
            cpu_ns_per_op: 0.0,
            seed: 3,
        };
        let mut t = Tpcc::new(cfg);
        let mut m = Machine::new(MachineConfig::new(
            tiny_two_tier(128 * PAGE_SIZE_2M, 128 * PAGE_SIZE_2M),
            2,
        ));
        {
            let mut mgr = FirstTouchPolicy;
            let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
            t.setup(&mut env);
        }
        (t, m)
    }

    #[test]
    fn setup_sizes_tables() {
        let (t, m) = tpcc();
        // Stock dominates: 2 warehouses x 100K x 320 B = 64 MB.
        assert!(t.footprint() > 64 << 20);
        assert_eq!(m.page_table().mapped_bytes(), t.footprint());
    }

    #[test]
    fn transactions_mix_reads_and_writes() {
        let (mut t, mut m) = tpcc();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        for i in 0..2_000 {
            t.tick(&mut env, i % 2);
        }
        assert_eq!(t.ops_completed(), 2_000);
        let counts = env.machine().counters().all();
        let loads: u64 = counts.iter().map(|c| c.loads).sum();
        let stores: u64 = counts.iter().map(|c| c.stores).sum();
        // Roughly 1:1 R/W as in Table 2 (1.14 here). The counters also
        // hold set-up's writes, one per mapping it created: 71 huge pages
        // beside the mix's ~45 K accesses.
        assert!(stores > 0 && loads > 0);
        let ratio = loads as f64 / stores as f64;
        assert!((0.4..4.0).contains(&ratio), "R/W ratio {ratio}");
    }

    #[test]
    fn order_log_wraps() {
        let (mut t, mut m) = tpcc();
        let mut mgr = FirstTouchPolicy;
        let mut env = SimEnv { machine: &mut m, manager: &mut mgr };
        let slots = t.orderlog.len() / ORDER_LINE;
        for i in 0..(slots / 5) as usize {
            t.new_order(&mut env, i % 2);
        }
        assert!(t.order_head > slots, "head advanced past one lap");
    }

    #[test]
    fn paper_scaling_thins_density_below_the_warehouse_floor() {
        // Above the floor: spec densities, warehouses track scale.
        let big = TpccConfig::paper(256, 2);
        assert_eq!(big.warehouses, 19);
        assert_eq!(big.customers_per_district, CUSTOMERS_PER_DISTRICT);
        assert_eq!(big.stock_per_wh, STOCK_PER_WH);
        assert_eq!(big.items, ITEMS);
        // Below the floor: two warehouses, thinner tables — the dominant
        // tables keep shrinking with scale instead of freezing.
        let small = TpccConfig::paper(4096, 2);
        assert_eq!(small.warehouses, 2);
        assert!(small.customers_per_district < CUSTOMERS_PER_DISTRICT);
        assert!(small.stock_per_wh < STOCK_PER_WH);
        assert!(small.items < ITEMS, "the shared item table thins too");
        let smaller = TpccConfig::paper(8192, 2);
        assert!(
            smaller.stock_per_wh < small.stock_per_wh,
            "footprint keeps tracking 1/scale past the floor"
        );
        let dominant = |c: &TpccConfig| {
            c.warehouses
                * (DISTRICTS_PER_WH * c.customers_per_district * CUSTOMER_ROW
                    + c.stock_per_wh * STOCK_ROW)
        };
        let ratio = dominant(&small) as f64 / dominant(&smaller) as f64;
        assert!((1.5..2.5).contains(&ratio), "halving again roughly halves bytes: {ratio}");
    }

    #[test]
    fn hot_ranges_are_small_tables() {
        let (t, _m) = tpcc();
        let hot = t.true_hot_ranges();
        let hot_bytes: u64 = hot.iter().map(|r| r.len()).sum();
        assert!(hot_bytes * 4 < t.footprint(), "hot set is a small fraction");
    }
}
