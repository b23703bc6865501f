//! Host-side measurement: the wall clock, peak memory, a cache-noise
//! probe, and the provenance stamped into every summary.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The benchmark's single wall-clock source.
pub(crate) fn now() -> Instant {
    // lint:allow(wall-clock): the benchmark times the simulator from outside; no reading reaches a report
    Instant::now()
}

/// Seconds elapsed since `t`.
pub(crate) fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `VmHWM` (peak resident set) in MB from a `/proc/<pid>/status` text.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MB.
pub(crate) fn own_peak_rss_mb() -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Peak resident set in MB of process `pid`, while it is alive.
pub(crate) fn peak_rss_mb_of(pid: u32) -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Iterations of the CPU probe's dependent multiply-rotate chain.
const CPU_PROBE_ITERS: u64 = 1 << 25;

/// Seconds the CPU probe takes on a quiet host (the best of 200 probes on
/// a 2-vCPU Xeon VM). Timings are normalized to this speed; the value
/// only scales them, so it must never change.
pub const CPU_PROBE_REFERENCE_S: f64 = 0.0562;

/// Times a fixed chain of dependent integer operations, in seconds.
///
/// On a shared host the speed of one core drifts by tens of percent over
/// minutes (frequency and sibling-thread contention). That drift slows a
/// pure ALU loop as much as it slows a simulator sample, so the sample
/// time divided by the probe time measured just before it is steady
/// where either alone is not. The probe is code of the benchmark, so no
/// change to the simulator can move it.
pub fn cpu_probe() -> f64 {
    let t = now();
    let mut x = 1u64;
    for i in 0..black_box(CPU_PROBE_ITERS) {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ i;
    }
    black_box(x);
    secs_since(t)
}

/// What produced a summary: commit, toolchain and host parallelism.
#[derive(Clone, Debug)]
pub(crate) struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Host CPUs available to this process.
    pub nproc: usize,
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// Collects the provenance of this host and of the checkout at `root`.
    /// Git may not look above `root`: a checkout that is not a repository
    /// reports `unknown`, never the commit of an enclosing one.
    pub(crate) fn collect(root: &Path) -> Provenance {
        let mut git = Command::new("git");
        git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
        if let Some(parent) = root.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
        Provenance {
            git_rev: first_line_of(&mut git),
            rustc: first_line_of(Command::new("rustc").arg("-V")),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}
