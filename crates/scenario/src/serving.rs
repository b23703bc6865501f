//! Synthetic serving-style traffic generators.
//!
//! Batch workloads (Table 2) hold one working set for the whole run;
//! serving systems do not. These generators model the three traffic
//! shapes a tiering policy struggles with: a zipfian KV store whose hot
//! set *drifts* on a schedule, a *diurnal* load curve (think time swings
//! through a day cycle), and a *flash crowd* (a sharp transient request
//! spike). All modulation is piecewise-linear — no transcendentals — so
//! the stream is bit-reproducible everywhere.

use mtm_workloads::layout::{Layout, LAYOUT_BASE};
use mtm_workloads::rng::{scatter, SplitMix64, Zipfian};
use obs::wire::{Reader, Writer};
use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M};
use tiersim::sim::{round_ticks, MemEnv, SimEnv, Workload};

/// Bytes per stored value (one cache-line-ish record per key, padded).
const VAL_BYTES: u64 = 256;

/// Serving-generator configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Report/display name (doubles as the sweep row label).
    pub label: String,
    /// Number of keys in the store.
    pub keys: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// Fraction of operations that are reads.
    pub read_frac: f64,
    /// Number of application threads.
    pub threads: usize,
    /// Base think time per request, ns.
    pub cpu_ns_per_op: f64,
    /// Rotate the hot set every this many intervals (0 = static).
    pub drift_every: u64,
    /// Ranks the popularity permutation rotates by per drift step.
    pub drift_step: u64,
    /// Diurnal period in intervals (0 = flat load).
    pub diurnal_period: u64,
    /// Diurnal amplitude in (0, 1): think time swings by this factor
    /// around the base (peak load = shortest think time).
    pub diurnal_amp: f64,
    /// First interval of the flash crowd (0 = never).
    pub flash_at: u64,
    /// Flash-crowd length in intervals.
    pub flash_len: u64,
    /// Think-time divisor during the flash crowd (request-rate boost).
    pub flash_boost: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ServingConfig {
    fn base(label: &str, scale: u64, threads: usize) -> ServingConfig {
        ServingConfig {
            label: label.to_string(),
            // ~256 GB of values at scale 1 (4/3x the four-tier machine's
            // 192 GB of DRAM), proportional below: the store always
            // spills past the fast tier, so the hot set's placement is
            // the manager's problem, not a foregone conclusion.
            keys: ((256u64 << 30) / scale / VAL_BYTES).max(4096),
            theta: 0.99,
            read_frac: 0.95,
            threads,
            cpu_ns_per_op: 2_000.0,
            drift_every: 0,
            drift_step: 0,
            diurnal_period: 0,
            diurnal_amp: 0.0,
            flash_at: 0,
            flash_len: 0,
            flash_boost: 1.0,
            seed: 0x5E21,
        }
    }

    /// Zipfian KV traffic whose hot set rotates every `drift_every`
    /// intervals — the phase-transition probe.
    pub fn kv_drift(scale: u64, threads: usize, drift_every: u64) -> ServingConfig {
        let mut cfg = ServingConfig::base("KVDrift", scale, threads);
        cfg.drift_every = drift_every.max(1);
        cfg.drift_step = (cfg.keys / 8).max(1);
        cfg
    }

    /// Steady hot set under a diurnal load curve (one day = `period`
    /// intervals, load swinging +-50%).
    pub fn diurnal(scale: u64, threads: usize, period: u64) -> ServingConfig {
        let mut cfg = ServingConfig::base("Diurnal", scale, threads);
        cfg.diurnal_period = period.max(2);
        cfg.diurnal_amp = 0.5;
        cfg
    }

    /// Steady traffic with one sharp flash crowd (4x request rate) in
    /// the middle third of a `total_intervals`-long run.
    pub fn flash_crowd(scale: u64, threads: usize, total_intervals: u64) -> ServingConfig {
        let mut cfg = ServingConfig::base("FlashCrowd", scale, threads);
        cfg.flash_at = (total_intervals / 3).max(1);
        cfg.flash_len = (total_intervals / 6).max(1);
        cfg.flash_boost = 4.0;
        cfg
    }
}

/// The serving-store workload over one KV VMA.
pub struct Serving {
    cfg: ServingConfig,
    zipf: Zipfian,
    rngs: Vec<SplitMix64>,
    /// Current popularity-permutation rotation (hot-set drift state).
    rotation: u64,
    /// Intervals completed.
    interval: u64,
    /// Current think-time multiplier (diurnal/flash modulation).
    think_mul: f64,
    ops: u64,
}

impl Serving {
    /// Creates a generator (the VMA is laid out in [`Workload::setup`]).
    pub fn new(cfg: ServingConfig) -> Serving {
        assert!(cfg.keys >= 4096, "too few keys");
        let zipf = Zipfian::new(cfg.keys, cfg.theta);
        let rngs = (0..cfg.threads.max(1))
            .map(|t| SplitMix64::new(cfg.seed ^ ((t as u64) << 17)))
            .collect();
        let think_mul = think_multiplier(&cfg, 0);
        Serving { cfg, zipf, rngs, rotation: 0, interval: 0, think_mul, ops: 0 }
    }

    /// The KV VMA, derivable without the machine: the store is the
    /// layout's single, first mapping. Checkpoint restore rebuilds the
    /// mapping through the machine snapshot, never through `setup`, so
    /// the address math must not depend on having run it.
    fn vma(&self) -> VaRange {
        let len = (self.cfg.keys * VAL_BYTES).next_multiple_of(PAGE_SIZE_2M);
        VaRange::from_len(VirtAddr(LAYOUT_BASE), len)
    }

    /// One request on thread `tid` (see [`Workload::tick`]), generic over
    /// the environment so [`Workload::round`] issues its accesses as
    /// static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        let base = self.vma().start.0;
        let rng = &mut self.rngs[tid];
        let rank = self.zipf.sample(rng);
        // The rotation shifts which stored key each popularity rank maps
        // to: after a drift step the hottest ranks land on fresh, cold
        // pages — exactly the phase transition the sweep measures.
        let key = scatter(rank.wrapping_add(self.rotation), self.cfg.keys, self.cfg.seed);
        let va = VirtAddr(base + key * VAL_BYTES);
        if rng.unit_f64() < self.cfg.read_frac {
            env.read(tid, va);
        } else {
            env.write(tid, va);
        }
        if self.cfg.cpu_ns_per_op > 0.0 {
            env.compute(tid, self.cfg.cpu_ns_per_op * self.think_mul);
        }
        self.ops += 1;
    }
}

/// Piecewise-linear think-time multiplier at `interval`: a triangle
/// diurnal wave (load peaks mid-period, so think time bottoms there)
/// divided by the flash boost inside the flash window.
fn think_multiplier(cfg: &ServingConfig, interval: u64) -> f64 {
    let mut m = 1.0;
    if cfg.diurnal_period > 1 {
        let period = cfg.diurnal_period;
        let phase = interval % period;
        let half = period / 2;
        let tri = if phase <= half {
            phase as f64 / half.max(1) as f64
        } else {
            (period - phase) as f64 / (period - half).max(1) as f64
        };
        m *= 1.0 + cfg.diurnal_amp * (1.0 - 2.0 * tri);
    }
    if cfg.flash_boost > 1.0
        && cfg.flash_at > 0
        && interval >= cfg.flash_at
        && interval < cfg.flash_at + cfg.flash_len
    {
        m /= cfg.flash_boost;
    }
    m.max(0.01)
}

impl Workload for Serving {
    fn name(&self) -> String {
        self.cfg.label.clone()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        let mut layout = Layout::new();
        let vma = layout.add(env, "serving.kv", self.cfg.keys * VAL_BYTES, true);
        assert_eq!(vma, self.vma(), "layout drifted from the derived VMA");
        mtm_workloads::layout::populate_interleaved(env, &[vma], self.cfg.threads.max(1));
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(threads, |tid| self.step(env, tid));
    }

    fn footprint(&self) -> u64 {
        self.cfg.keys * VAL_BYTES
    }

    fn end_of_interval(&mut self, interval: u64) {
        self.interval = interval + 1;
        if self.cfg.drift_every > 0 && self.interval % self.cfg.drift_every == 0 {
            self.rotation = self.rotation.wrapping_add(self.cfg.drift_step);
        }
        self.think_mul = think_multiplier(&self.cfg, self.interval);
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        w.varint(self.rotation);
        w.varint(self.interval);
        w.f64(self.think_mul);
        w.varint(self.ops);
        w.varint(self.rngs.len() as u64);
        for rng in &self.rngs {
            w.u64(rng.state());
        }
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        self.rotation = r.varint()?;
        self.interval = r.varint()?;
        self.think_mul = r.f64()?;
        self.ops = r.varint()?;
        let n = r.varint()? as usize;
        if n != self.rngs.len() {
            return Err(format!(
                "checkpoint has {n} RNG streams, this generator has {}",
                self.rngs.len()
            ));
        }
        for rng in &mut self.rngs {
            *rng = SplitMix64::from_state(r.u64()?);
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingEnv {
        machine: tiersim::machine::Machine,
        reads: u64,
        writes: u64,
        compute_ns: f64,
    }

    impl MemEnv for CountingEnv {
        fn read(&mut self, _tid: usize, _va: VirtAddr) {
            self.reads += 1;
        }
        fn write(&mut self, _tid: usize, _va: VirtAddr) {
            self.writes += 1;
        }
        fn compute(&mut self, _tid: usize, ns: f64) {
            self.compute_ns += ns;
        }
        fn machine(&mut self) -> &mut tiersim::machine::Machine {
            &mut self.machine
        }
    }

    fn env() -> CountingEnv {
        let topo = tiersim::tier::tiny_two_tier(32 * PAGE_SIZE_2M, 128 * PAGE_SIZE_2M);
        CountingEnv {
            machine: tiersim::machine::Machine::new(tiersim::machine::MachineConfig::new(topo, 2)),
            reads: 0,
            writes: 0,
            compute_ns: 0.0,
        }
    }

    #[test]
    fn drift_rotates_on_schedule_only() {
        let mut s = Serving::new(ServingConfig::kv_drift(1 << 14, 2, 4));
        let step = s.cfg.drift_step;
        for ivl in 0..3 {
            s.end_of_interval(ivl);
        }
        assert_eq!(s.rotation, 0, "no drift before the schedule");
        s.end_of_interval(3);
        assert_eq!(s.rotation, step, "drift at the boundary");
        for ivl in 4..8 {
            s.end_of_interval(ivl);
        }
        assert_eq!(s.rotation, 2 * step);
    }

    #[test]
    fn diurnal_multiplier_is_triangle_shaped() {
        let cfg = ServingConfig::diurnal(1 << 14, 2, 8);
        let at = |i| think_multiplier(&cfg, i);
        assert_eq!(at(0), 1.5, "night: slowest request rate");
        assert_eq!(at(4), 0.5, "peak: fastest");
        assert_eq!(at(8), 1.5, "periodic");
        assert!(at(2) > at(3), "monotone down toward the peak");
    }

    #[test]
    fn flash_window_boosts_rate_transiently() {
        let cfg = ServingConfig::flash_crowd(1 << 14, 2, 30);
        assert_eq!(think_multiplier(&cfg, cfg.flash_at - 1), 1.0);
        assert_eq!(think_multiplier(&cfg, cfg.flash_at), 0.25);
        assert_eq!(think_multiplier(&cfg, cfg.flash_at + cfg.flash_len), 1.0);
    }

    #[test]
    fn checkpoint_round_trip_resumes_stream_exactly() {
        let mut a = Serving::new(ServingConfig::kv_drift(1 << 14, 2, 4));
        let mut e = env();
        for ivl in 0..4 {
            for _ in 0..200 {
                a.tick(&mut e, 0);
                a.tick(&mut e, 1);
            }
            a.end_of_interval(ivl);
        }
        let blob = a.save_state().unwrap();
        let mut b = Serving::new(ServingConfig::kv_drift(1 << 14, 2, 4));
        b.load_state(&blob).unwrap();
        assert_eq!(b.save_state().unwrap(), blob, "re-save is byte-identical");
        let (mut ea, mut eb) = (env(), env());
        for _ in 0..500 {
            a.tick(&mut ea, 0);
            b.tick(&mut eb, 0);
        }
        assert_eq!(a.ops, b.ops);
        assert_eq!(ea.reads, eb.reads);
        assert_eq!(ea.writes, eb.writes);
        assert_eq!(ea.compute_ns.to_bits(), eb.compute_ns.to_bits());
        assert_eq!(a.save_state().unwrap(), b.save_state().unwrap());
    }

    #[test]
    fn rng_stream_count_mismatch_is_rejected() {
        let a = Serving::new(ServingConfig::kv_drift(1 << 14, 2, 4));
        let blob = a.save_state().unwrap();
        let mut b = Serving::new(ServingConfig::kv_drift(1 << 14, 4, 4));
        assert!(b.load_state(&blob).is_err());
    }
}
