//! The parent process: spawns one sample process at a time, checks each
//! one's output, and reports the run's metrics.
//!
//! Every child is preceded by a [`cpu_probe`]. Reported timings are the
//! run's best (or, for set-up, median) raw sample scaled by
//! [`CPU_PROBE_REFERENCE_S`] over the run's median probe, which removes
//! most of the host's speed drift between runs. Scaling each sample by
//! its own probe instead would let the best-of pick the samples whose
//! probe happened to be slow. The raw statistics stay in the summary.
//!
//! Standard output ends with two JSON lines: a summary (raw statistics of
//! every end-to-end metric, the speed factor, and what produced them)
//! and, last, the result object `{"correct", "attempted", "failed",
//! "metrics"}`. A human-readable table goes to standard error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mtm_bench::Stats;

use crate::host::{cpu_probe, now, peak_rss_mb_of, secs_since, Provenance, CPU_PROBE_REFERENCE_S};
use crate::sample::{self, quick_pairs, PairSpec, Sample};
use crate::{
    per_layer, BenchWorkload, Metric, END_TO_END, PEAK_RSS_MB, SETUP_S, SIM_MACCESS_PER_S,
    WALL_S,
};

/// Rounds a run takes at least, whatever `--seconds` says, so the
/// cross-sample digest check always compares two samples.
const MIN_ROUNDS: usize = 2;
/// A run whose probe median exceeds its minimum by more than this is
/// flagged noisy.
const NOISY_PROBE_SPREAD: f64 = 0.10;
/// Digest key of the quick matrix, which does not depend on the seed.
const QUICK_MATRIX: &str = "quick_matrix";

/// The repository checkout the benchmark was built in.
fn repo_root() -> PathBuf {
    let pkg = Path::new(env!("CARGO_MANIFEST_DIR"));
    pkg.parent().unwrap_or(pkg).to_path_buf()
}

/// The committed default-seed digests.
pub fn digests_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.txt")
}

/// Parses `digests.txt`: `<key> <16 hex digits>` lines, `#` comments.
pub fn parse_digests(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((
                it.next()?.to_string(),
                u64::from_str_radix(it.next()?, 16).ok()?,
            ))
        })
        .collect()
}

/// Scales a raw value of a metric in `unit` to the reference CPU speed:
/// times shrink by `speed`, rates grow by it, anything else is kept.
fn normalize(unit: &str, raw: f64, speed: f64) -> f64 {
    match unit {
        "s" | "ns" | "us" | "ns/access" => raw * speed,
        "Maccess/s" => raw / speed,
        _ => raw,
    }
}

/// A run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload measured.
    pub workload: BenchWorkload,
    /// Input seed; 0 is the paper configuration.
    pub seed: u64,
    /// Measurement time budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one child process produced.
struct Outcome {
    /// CPU probe time just before the spawn.
    probe_s: f64,
    /// Spawn to exit, as the parent saw it.
    wall_s: f64,
    /// The child's `key value` lines.
    values: BTreeMap<String, String>,
    /// The child's standard error.
    stderr: String,
    /// Peak RSS polled by the parent (MB), for children that do not
    /// report their own.
    polled_rss_mb: f64,
    failure: Option<String>,
}

impl Outcome {
    fn failed(why: String) -> Outcome {
        Outcome {
            probe_s: f64::NAN,
            wall_s: 0.0,
            values: BTreeMap::new(),
            stderr: String::new(),
            polled_rss_mb: 0.0,
            failure: Some(why),
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    fn digest(&self) -> Option<u64> {
        u64::from_str_radix(self.values.get("digest")?, 16).ok()
    }
}

/// A command with every `MTM_*` variable removed, so the child runs with
/// program defaults whatever the caller's environment holds.
fn scrubbed(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MTM_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Probes the CPU, then runs `cmd` to completion, timing it from spawn
/// to exit. With `poll_rss` a helper thread samples the child's `VmHWM`
/// every 10 ms.
fn run_child(cmd: &mut Command, poll_rss: bool) -> Outcome {
    cmd.stdin(Stdio::null()).stderr(Stdio::piped());
    let probe_s = cpu_probe();
    let t = now();
    let child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return Outcome::failed(format!("spawn failed: {e}")),
    };
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (output, wall_s, polled_rss_mb) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0.0f64;
            // Relaxed: the flag publishes no other data.
            while poll_rss && !done.load(Ordering::Relaxed) {
                if let Some(mb) = peak_rss_mb_of(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let output = child.wait_with_output();
        let wall_s = secs_since(t);
        done.store(true, Ordering::Relaxed);
        (output, wall_s, poller.join().unwrap_or(0.0))
    });
    let output = match output {
        Ok(o) => o,
        Err(e) => return Outcome::failed(format!("wait failed: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let values = stdout
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect();
    let failure = if !output.status.success() {
        Some(format!(
            "exited with {}: {}",
            output.status,
            stderr.trim_end()
        ))
    } else {
        stderr
            .lines()
            .find(|l| l.contains("warning:"))
            .map(|l| format!("printed {l:?}"))
    };
    Outcome {
        probe_s,
        wall_s,
        values,
        stderr,
        polled_rss_mb,
        failure,
    }
}

/// Spawns this binary in child mode.
fn self_child(kind: &str, wl: BenchWorkload, seed: u64, traced: bool) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return Outcome::failed(format!("cannot locate own executable: {e}")),
    };
    let mut cmd = scrubbed(&exe);
    cmd.args([
        "child",
        kind,
        wl.name(),
        &seed.to_string(),
        if traced { "1" } else { "0" },
    ]);
    cmd.stdout(Stdio::piped());
    run_child(&mut cmd, false)
}

/// Target directory cargo builds into, as this process sees it.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Builds the repository's `all` binary (release) and returns its path.
fn build_all(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mtm-harness",
            "--bin",
            "all",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the all binary failed ({status})"));
    }
    let bin = target_dir(root).join("release").join("all");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built all binary not found at {}", bin.display()))
    }
}

/// The number of runs `all` executed, from its closing
/// `... run cache: <n> executed, ...` line on standard error.
pub fn runs_executed(stderr: &str) -> Option<usize> {
    let (_, rest) = stderr.lines().find_map(|l| l.split_once("run cache: "))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Runs `MTM_QUICK=1 all` in a scratch directory (its results are
/// written relative to the working directory) and compares the
/// `results/ALL.txt` it writes with `expected`. `all` must also have
/// executed exactly the runs of [`quick_pairs`], which the serial matrix
/// reports `setup_s` and `sim_maccess_per_s` over.
fn run_all(bin: &Path, work: &Path, expected: &str) -> Outcome {
    let _ = std::fs::remove_dir_all(work);
    if let Err(e) = std::fs::create_dir_all(work) {
        return Outcome::failed(format!("cannot create {}: {e}", work.display()));
    }
    let mut cmd = scrubbed(bin);
    cmd.env("MTM_QUICK", "1")
        .current_dir(work)
        .stdout(Stdio::null());
    let mut out = run_child(&mut cmd, true);
    if out.failure.is_none() {
        match std::fs::read_to_string(work.join("results").join("ALL.txt")) {
            Ok(got) if got == expected => {}
            Ok(_) => out.failure = Some("results/ALL.txt differs from the committed one".into()),
            Err(e) => out.failure = Some(format!("no results/ALL.txt written: {e}")),
        }
    }
    if out.failure.is_none() {
        let want = quick_pairs().len();
        match runs_executed(&out.stderr) {
            Some(n) if n == want => {}
            Some(n) => {
                out.failure = Some(format!(
                    "all executed {n} runs, the serial matrix has {want} pairs"
                ))
            }
            None => out.failure = Some("all printed no run-cache count".into()),
        }
    }
    let _ = std::fs::remove_dir_all(work);
    out
}

/// Statistics of `samples`; `None` when there are none.
fn stats_of(samples: &[f64]) -> Option<Stats> {
    (!samples.is_empty()).then(|| Stats::from_ns(samples))
}

/// How a metric's raw value is chosen from its samples (`Stats` is
/// unit-free despite its field names). Host noise only ever slows a
/// sample down, so timings report the best sample; set-up time and
/// memory report the median.
pub fn reported(m: &Metric, s: &Stats) -> f64 {
    if *m == SETUP_S || *m == PEAK_RSS_MB {
        s.p50_ns
    } else if m.lower_is_better {
        s.min_ns
    } else {
        s.max_ns
    }
}

/// Checks digests and tallies failures across a run.
struct Checker {
    expected: Option<u64>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records one child; returns whether it passed every check.
    fn check(&mut self, out: &Outcome, has_digest: bool) -> bool {
        self.attempted += 1;
        let mut failure = out.failure.clone();
        if failure.is_none() && has_digest {
            match out.digest() {
                None => failure = Some("printed no digest".into()),
                Some(d) => {
                    let want = self.expected.or(self.first);
                    self.first.get_or_insert(d);
                    if let Some(w) = want.filter(|&w| w != d) {
                        failure = Some(format!("digest {d:016x} != expected {w:016x}"));
                    }
                }
            }
        }
        match failure {
            None => true,
            Some(f) => {
                self.fail(f);
                false
            }
        }
    }
}

fn json_f64(v: f64) -> String {
    let mut out = String::new();
    obs::json::write_f64(v, &mut out);
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    obs::json::write_str(s, &mut out);
    out
}

/// Runs one benchmark invocation and prints its result; returns whether
/// every sample passed.
pub fn run(cfg: &Config) -> Result<bool, String> {
    let root = repo_root();
    let wl = cfg.workload;
    let committed = std::fs::read_to_string(digests_path())
        .map(|t| parse_digests(&t))
        .map_err(|e| format!("cannot read {}: {e}", digests_path().display()))?;
    let digest_key = if wl == BenchWorkload::QuickAll {
        Some(QUICK_MATRIX)
    } else {
        (cfg.seed == 0).then_some(wl.name())
    };
    let expected = match digest_key {
        Some(k) => Some(
            *committed
                .get(k)
                .ok_or_else(|| format!("no committed digest for {k}; run --bless"))?,
        ),
        None => None,
    };
    let quick = if wl == BenchWorkload::QuickAll {
        let all_txt = std::fs::read_to_string(root.join("results").join("ALL.txt"))
            .map_err(|e| format!("cannot read the committed results/ALL.txt: {e}"))?;
        Some((build_all(&root)?, all_txt))
    } else {
        None
    };
    let work = target_dir(&root)
        .join("mtmbench-work")
        .join(format!("all-{}", std::process::id()));
    let kind = if quick.is_some() { "matrix" } else { "pair" };

    let mut checker = Checker {
        expected,
        first: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // Raw per-sample values of each end-to-end metric.
    let mut e2e: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut probes = Vec::new();
    // Timed work of untraced and traced simulation children, for the
    // tracing overhead.
    let mut untraced_work_s = Vec::new();
    let mut traced_work_s = Vec::new();
    // Fastest traced simulation child, for the per-layer metrics.
    let mut best_traced: Option<Outcome> = None;
    let mut jobs = String::from("unknown");
    let mut run_workers = String::from("unknown");

    let started = now();
    // The harness layer is the same for every workload; each traced run
    // measures it once, inside the run's time budget.
    let harness = cfg
        .trace
        .then(|| self_child("harness", wl, cfg.seed, false));
    if let Some(h) = &harness {
        probes.push(h.probe_s);
    }
    let harness = harness.filter(|h| checker.check(h, false));
    let mut rounds = 0usize;
    loop {
        let round_start = now();

        // Untraced sample: the end-to-end metrics.
        let sim = self_child(kind, wl, cfg.seed, false);
        probes.push(sim.probe_s);
        if checker.check(&sim, true) {
            e2e.entry(SETUP_S.name)
                .or_default()
                .push(sim.get("setup_s"));
            e2e.entry(SIM_MACCESS_PER_S.name)
                .or_default()
                .push(sim.get("maccess_per_s"));
            untraced_work_s.push(sim.get("work_s"));
            jobs = sim.values.get("jobs").cloned().unwrap_or(jobs);
            run_workers = sim
                .values
                .get("run_workers")
                .cloned()
                .unwrap_or(run_workers);
            if quick.is_none() {
                e2e.entry(WALL_S.name).or_default().push(sim.wall_s);
                e2e.entry(PEAK_RSS_MB.name)
                    .or_default()
                    .push(sim.get("peak_rss_mb"));
            }
        }
        if let Some((bin, all_txt)) = &quick {
            let all = run_all(bin, &work, all_txt);
            probes.push(all.probe_s);
            if checker.check(&all, false) {
                e2e.entry(WALL_S.name).or_default().push(all.wall_s);
                e2e.entry(PEAK_RSS_MB.name)
                    .or_default()
                    .push(all.polled_rss_mb);
            }
        }

        // Traced sample: the per-layer metrics and the tracing overhead.
        if cfg.trace {
            let traced = self_child(kind, wl, cfg.seed, true);
            probes.push(traced.probe_s);
            if checker.check(&traced, true) {
                traced_work_s.push(traced.get("work_s"));
                if best_traced
                    .as_ref()
                    .is_none_or(|b| traced.wall_s < b.wall_s)
                {
                    best_traced = Some(traced);
                }
            }
        }

        rounds += 1;
        if rounds >= MIN_ROUNDS && secs_since(started) + secs_since(round_start) > cfg.seconds {
            break;
        }
    }

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if cfg.trace {
        for out in [&best_traced, &harness].into_iter().flatten() {
            for (k, v) in &out.values {
                if let Ok(v) = v.parse::<f64>() {
                    layers.insert(k.clone(), v);
                }
            }
        }
        if let Some(t) = &best_traced {
            layers.insert("trace.accounted_frac".into(), t.get("work_s") / t.wall_s);
        }
        if let (Some(u), Some(t)) = (stats_of(&untraced_work_s), stats_of(&traced_work_s)) {
            layers.insert("trace.overhead_frac".into(), t.min_ns / u.min_ns - 1.0);
        }
    }

    probes.retain(|p| p.is_finite());
    let probe = stats_of(&probes);
    let speed = probe.map_or(1.0, |p| CPU_PROBE_REFERENCE_S / p.p50_ns);
    let noisy = probe.is_some_and(|p| p.p50_ns / p.min_ns - 1.0 > NOISY_PROBE_SPREAD);
    let stats: Vec<(&Metric, Stats)> = END_TO_END
        .iter()
        .filter_map(|m| Some((m, stats_of(e2e.get(m.name)?)?)))
        .collect();
    let metrics: Vec<(String, &'static str, f64)> = if cfg.trace {
        if let Some(p) = probe {
            layers.insert("host.cpu_probe_s".into(), p.p50_ns);
            layers.insert("host.cpu_probe_min_s".into(), p.min_ns);
        }
        per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let raw = layers.get(&name).copied().unwrap_or(0.0);
                // The probe measures the host itself, so it stays raw.
                let v = if name.starts_with("host.") {
                    raw
                } else {
                    normalize(unit, raw, speed)
                };
                (name, unit, v)
            })
            .collect()
    } else {
        stats
            .iter()
            .map(|(m, s)| {
                (
                    m.name.to_string(),
                    m.unit,
                    normalize(m.unit, reported(m, s), speed),
                )
            })
            .collect()
    };
    let prov = Provenance::collect(&root);
    let correct = checker.failed == 0 && (cfg.trace || stats.len() == END_TO_END.len());

    // Human-readable report.
    eprintln!(
        "mtmbench {} seed={} trace={} rounds={rounds} in {:.1}s (nproc {}, jobs {jobs}, run workers {run_workers})",
        wl.name(),
        cfg.seed,
        u8::from(cfg.trace),
        secs_since(started),
        prov.nproc
    );
    if let Some(p) = &probe {
        eprintln!(
            "  cpu probe: median {:.4}s min {:.4}s, so timings x {speed:.4} (reference {CPU_PROBE_REFERENCE_S}s){}",
            p.p50_ns,
            p.min_ns,
            if noisy { "  NOISY: host speed varied during the run" } else { "" }
        );
    }
    for (m, s) in &stats {
        eprintln!(
            "  {:<18} {:>10.4} {:<10} raw: min {:.4} median {:.4} mean {:.4} max {:.4} sd {:.4}, n={}",
            m.name,
            normalize(m.unit, reported(m, s), speed),
            m.unit,
            s.min_ns,
            s.p50_ns,
            s.mean_ns,
            s.max_ns,
            s.stddev_ns,
            s.samples
        );
    }
    if cfg.trace {
        for (name, unit, v) in &metrics {
            eprintln!("  {name:<36} {v:>16.6} {unit}");
        }
    }
    for f in &checker.failures {
        eprintln!("  FAILED: {f}");
    }

    // Summary line, then the result line.
    let mut summary = String::new();
    let _ = write!(
        summary,
        "{{\"mtmbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rounds\": {rounds}, \"git_rev\": {}, \"rustc\": {}, \"nproc\": {}, \"jobs\": {}, \
         \"run_workers\": {}, \"cpu_probe_median_s\": {}, \"cpu_probe_min_s\": {}, \"speed_factor\": {}, \
         \"noisy\": {noisy}, \"raw\": {{",
        json_str(wl.name()),
        cfg.seed,
        json_f64(cfg.seconds),
        cfg.trace,
        json_str(&prov.git_rev),
        json_str(&prov.rustc),
        prov.nproc,
        json_str(&jobs),
        json_str(&run_workers),
        json_f64(probe.map_or(f64::NAN, |p| p.p50_ns)),
        json_f64(probe.map_or(f64::NAN, |p| p.min_ns)),
        json_f64(speed),
    );
    for (i, (m, s)) in stats.iter().enumerate() {
        let _ = write!(
            summary,
            "{}{}: {{\"unit\": {}, \"min\": {}, \"median\": {}, \"mean\": {}, \"max\": {}, \"stddev\": {}, \"n\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(m.name),
            json_str(m.unit),
            json_f64(s.min_ns),
            json_f64(s.p50_ns),
            json_f64(s.mean_ns),
            json_f64(s.max_ns),
            json_f64(s.stddev_ns),
            s.samples
        );
    }
    summary.push_str("}}}");
    println!("{summary}");

    let mut result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.attempted, checker.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let _ = write!(
            result,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_f64(*v),
            json_str(unit)
        );
    }
    result.push_str("}}");
    println!("{result}");
    Ok(correct)
}

/// Child mode: runs one sample in this process and prints `key value`
/// lines for the parent.
pub fn child(kind: &str, wl: BenchWorkload, seed: u64, traced: bool) -> Result<(), String> {
    let sample: Sample = match kind {
        "pair" => {
            let spec = PairSpec::bench(wl).ok_or("quick_all has no pair size")?;
            sample::pair(wl, spec, seed, traced)?
        }
        "matrix" => sample::matrix(traced)?,
        "harness" => {
            let expected = std::fs::read_to_string(repo_root().join("results").join("ALL.txt"))
                .map_err(|e| format!("cannot read the committed results/ALL.txt: {e}"))?;
            let e = sample::harness(&expected);
            if !e.output_matches {
                return Err("the rendered experiments differ from results/ALL.txt".into());
            }
            // The matrix ran each of its pairs once; any further run is
            // one an experiment needed and the matrix lacks.
            if e.cache_misses != quick_pairs().len() as u64 {
                return Err(format!(
                    "the experiments executed {} runs, the quick matrix has {} pairs",
                    e.cache_misses,
                    quick_pairs().len()
                ));
            }
            for (label, secs) in &e.per_label {
                println!("{} {secs}", crate::prewarm_metric(label));
            }
            for (id, secs) in &e.per_id {
                println!("{} {secs}", crate::experiment_metric(id));
            }
            println!("harness.run_cache.hits {}", e.cache_hits);
            println!("harness.run_cache.misses {}", e.cache_misses);
            return Ok(());
        }
        other => return Err(format!("unknown child kind {other:?}")),
    };
    println!("setup_s {}", sample.phases.setup_s());
    println!("work_s {}", sample.phases.total_s());
    println!("maccess_per_s {}", sample.maccess_per_s());
    println!("digest {:016x}", sample.digest);
    println!(
        "peak_rss_mb {}",
        crate::host::own_peak_rss_mb().unwrap_or(0.0)
    );
    println!("jobs {}", mtm_harness::runpool::jobs());
    println!("run_workers {}", tiersim::engine::workers());
    if traced {
        for (name, v) in sample.layer_metrics() {
            println!("{name} {v}");
        }
    }
    Ok(())
}

/// Rewrites the committed digests from one seed-0 sample of every
/// digest-bearing workload.
pub fn bless() -> Result<(), String> {
    let mut text = String::from(
        "# FNV-1a-64 digests of the simulated statistics (mtmbench --bless rewrites this file).\n\
         # Pair workloads: at --seed 0. quick_matrix: the quick_all matrix, seed-independent.\n",
    );
    for wl in BenchWorkload::ALL {
        let (key, kind) = if wl == BenchWorkload::QuickAll {
            (QUICK_MATRIX, "matrix")
        } else {
            (wl.name(), "pair")
        };
        let out = self_child(kind, wl, 0, false);
        if let Some(f) = &out.failure {
            return Err(format!("{key}: {f}"));
        }
        let d = out
            .digest()
            .ok_or_else(|| format!("{key}: printed no digest"))?;
        let _ = writeln!(text, "{key} {d:016x}");
        eprintln!("{key} {d:016x}");
    }
    std::fs::write(digests_path(), text)
        .map_err(|e| format!("cannot write {}: {e}", digests_path().display()))
}
