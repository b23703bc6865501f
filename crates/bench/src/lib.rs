//! `mtm-bench` — in-repo microbenchmark harness plus the simulator
//! hot-path bench.
//!
//! The harness (see [`runner`], [`stats`]) replaces `criterion` so the
//! workspace builds with zero external dependencies: warmup + N timed
//! samples over `std::time::Instant`, auto-batching for
//! nanosecond-scale routines, and a mean/p50/min/stddev line per bench
//! on stdout.
//!
//! The one bench target, `substrate`, times the simulator's hot paths
//! (access, round, scan, migrate, R-MAT generation). Run it with
//! `cargo bench -p mtm-bench`; add `-- --quick` for a single-sample
//! bit-rot check. End-to-end and per-experiment timings come from
//! `mtmbench`, which also links [`Stats`].

pub mod runner;
pub mod stats;

pub use runner::{Bench, BenchConfig, BenchResult};
pub use stats::Stats;
