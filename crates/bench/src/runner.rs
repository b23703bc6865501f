//! The bench runner: warmup, auto-batched timing, and sample collection.
//!
//! Replaces the external `criterion` harness with the minimal loop the
//! repo needs: each bench runs `warmup` untimed batches followed by
//! `samples` timed batches on `std::time::Instant`, where the batch
//! size is auto-calibrated so one batch runs long enough to be timeable
//! (cheap simulator hot-paths get large batches, multi-second figure
//! reproductions run one iteration per sample). Each bench prints one
//! summary line as it finishes; `finish()` prints the suite footer.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{fmt_ns, Stats};

/// A batch must run at least this long for `Instant` noise to vanish.
const TARGET_BATCH_NS: f64 = 2.0e6;

/// Cap on auto-calibrated batch size.
const MAX_BATCH: u64 = 1 << 24;

/// Runner configuration, derived from argv.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed warmup batches per bench.
    pub warmup: u32,
    /// Timed batches (samples) per bench.
    pub samples: u32,
    /// Quick mode: single sample, no warmup — catches bit-rot in CI
    /// without paying for statistics.
    pub quick: bool,
}

impl BenchConfig {
    /// Reads configuration from argv: `--quick` (after
    /// `cargo bench -p mtm-bench --`) takes one sample and no warmup,
    /// otherwise ten samples after two warmup batches. Other arguments
    /// (such as the filters cargo forwards) are ignored.
    pub fn from_args() -> BenchConfig {
        if std::env::args().any(|a| a == "--quick") {
            BenchConfig { warmup: 0, samples: 1, quick: true }
        } else {
            BenchConfig { warmup: 2, samples: 10, quick: false }
        }
    }
}

/// One measured bench within a suite.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Bench name (criterion-style `group/name` labels welcome).
    pub name: String,
    /// Iterations per timed sample (1 unless auto-batching kicked in).
    pub batch: u64,
    /// Elements processed per iteration, when throughput is meaningful.
    pub elems_per_iter: Option<u64>,
    /// Per-iteration timing statistics.
    pub stats: Stats,
}

impl BenchResult {
    /// Elements per second at the mean iteration time, if declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.elems_per_iter.map(|e| e as f64 * 1e9 / self.stats.mean_ns)
    }
}

/// A bench suite: accumulates and prints results.
pub struct Bench {
    suite: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Starts a suite named after the bench target (e.g. `"substrate"`).
    pub fn new(suite: &str) -> Bench {
        Bench::with_config(suite, BenchConfig::from_args())
    }

    /// Starts a suite with an explicit configuration (used by tests).
    pub fn with_config(suite: &str, config: BenchConfig) -> Bench {
        println!(
            "bench suite '{suite}': {} sample(s), {} warmup batch(es){}",
            config.samples,
            config.warmup,
            if config.quick { " [quick]" } else { "" },
        );
        Bench { suite: suite.to_string(), config, results: Vec::new() }
    }

    /// Times `f`, auto-batching cheap routines up to `MAX_BATCH`
    /// iterations per sample.
    pub fn iter<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        self.run(name, None, f)
    }

    /// Like [`Bench::iter`], declaring `elems` processed per iteration
    /// so the report can show throughput.
    pub fn iter_throughput<T, F: FnMut() -> T>(&mut self, name: &str, elems: u64, f: F) {
        self.run(name, Some(elems), f)
    }

    /// Times `routine` against a fresh untimed `setup()` product per
    /// sample — for routines that consume or mutate their input (the
    /// criterion `iter_batched` pattern). Never batched.
    pub fn iter_batched<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        for _ in 0..self.config.warmup.min(1) {
            black_box(routine(setup()));
        }
        let mut samples = Vec::with_capacity(self.config.samples as usize);
        for _ in 0..self.config.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            samples.push(start.elapsed().as_secs_f64() * 1e9);
        }
        self.record(name, 1, None, &samples);
    }

    fn run<T, F: FnMut() -> T>(&mut self, name: &str, elems: Option<u64>, mut f: F) {
        // Calibrate: one untimed-in-spirit invocation tells us whether
        // the routine needs batching to outlast timer noise.
        let start = Instant::now();
        black_box(f());
        let once_ns = (start.elapsed().as_secs_f64() * 1e9).max(1.0);
        let mut batch = if once_ns >= TARGET_BATCH_NS {
            1
        } else {
            ((TARGET_BATCH_NS / once_ns) as u64).clamp(1, MAX_BATCH)
        };
        if batch > 1 {
            // Second calibration round: the first call is cold (page
            // faults, icache) and understates the routine's speed.
            let per_iter = (Self::time_batch(&mut f, batch) / batch as f64).max(0.1);
            batch = ((TARGET_BATCH_NS / per_iter) as u64).clamp(1, MAX_BATCH);
        }
        for _ in 0..self.config.warmup {
            Self::time_batch(&mut f, batch);
        }
        let mut samples = Vec::with_capacity(self.config.samples as usize);
        for _ in 0..self.config.samples {
            samples.push(Self::time_batch(&mut f, batch) / batch as f64);
        }
        self.record(name, batch, elems, &samples);
    }

    fn time_batch<T, F: FnMut() -> T>(f: &mut F, batch: u64) -> f64 {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        start.elapsed().as_secs_f64() * 1e9
    }

    fn record(&mut self, name: &str, batch: u64, elems_per_iter: Option<u64>, samples: &[f64]) {
        let result = BenchResult {
            name: name.to_string(),
            batch,
            elems_per_iter,
            stats: Stats::from_ns(samples),
        };
        let s = &result.stats;
        let throughput = result
            .elems_per_sec()
            .map(|eps| format!("  ({:.2} M elem/s)", eps / 1e6))
            .unwrap_or_default();
        println!(
            "  {name:<40} mean {:>10}  p50 {:>10}  min {:>10}  ±{}{throughput}",
            fmt_ns(s.mean_ns),
            fmt_ns(s.p50_ns),
            fmt_ns(s.min_ns),
            fmt_ns(s.stddev_ns),
        );
        self.results.push(result);
    }

    /// Accumulated results (mainly for tests).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the suite footer.
    pub fn finish(self) {
        println!("bench suite '{}': {} benches", self.suite, self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> BenchConfig {
        BenchConfig { warmup: 0, samples: 3, quick: true }
    }

    #[test]
    fn cheap_routines_get_batched() {
        let mut b = Bench::with_config("test", test_config());
        let mut x = 0u64;
        b.iter("spin", || {
            x = x.wrapping_add(1);
            x
        });
        let r = &b.results()[0];
        assert!(r.batch > 1, "ns-scale routine batched (batch={})", r.batch);
        assert_eq!(r.stats.samples, 3);
    }

    #[test]
    fn slow_routines_run_unbatched() {
        let mut b = Bench::with_config("test", test_config());
        b.iter("sleep", || std::thread::sleep(std::time::Duration::from_millis(3)));
        let r = &b.results()[0];
        assert_eq!(r.batch, 1);
        assert!(r.stats.min_ns >= 3.0e6, "sleep shows up in timing");
    }

    #[test]
    fn batched_setup_is_not_timed() {
        let mut b = Bench::with_config("test", test_config());
        b.iter_batched(
            "consume",
            || vec![1u8; 1024],
            |v| v.into_iter().map(u64::from).sum::<u64>(),
        );
        assert_eq!(b.results()[0].batch, 1);
    }

    #[test]
    fn throughput_is_derived_from_mean() {
        let mut b = Bench::with_config("test", test_config());
        b.iter_throughput("elems", 4, || std::hint::black_box(2u64 + 2));
        let r = &b.results()[0];
        let eps = r.elems_per_sec().unwrap();
        assert!((eps - 4.0 * 1e9 / r.stats.mean_ns).abs() < 1e-6);
    }
}
