//! `mtmbench` command line.
//!
//! ```text
//! mtmbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! mtmbench --bless
//! ```
//!
//! Workloads: `quick_all`, `gups_mtm`, `gups_first_touch`, `bfs_mtm`.
//! `--bless` rewrites `mtmbench/digests.txt` from one seed-0 sample of
//! each workload. The runner re-executes this binary as
//! `mtmbench child <kind> <workload> <seed> <0|1>` for every sample.

use std::process::ExitCode;

use mtmbench::runner::{self, Config};
use mtmbench::BenchWorkload;

const USAGE: &str = "usage: mtmbench --workload <quick_all|gups_mtm|gups_first_touch|bfs_mtm> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       mtmbench --bless";

fn parse_config(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: BenchWorkload::GupsMtm,
        seed: 0,
        seconds: 25.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    BenchWorkload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value:?}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn child(args: &[String]) -> Result<(), String> {
    let [kind, wl, seed, traced] = args else {
        return Err("child takes <kind> <workload> <seed> <0|1>".into());
    };
    let wl = BenchWorkload::parse(wl).ok_or_else(|| format!("unknown workload {wl:?}"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    runner::child(kind, wl, seed, traced == "1")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MTM_")
            && args.first().map(String::as_str) != Some("child")
        {
            eprintln!(
                "note: {} is removed from every sample's environment",
                key.to_string_lossy()
            );
        }
    }
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]).map(|()| true),
        Some("--bless") if args.len() == 1 => runner::bless().map(|()| true),
        _ => match parse_config(&args) {
            Ok(cfg) => runner::run(&cfg),
            Err(e) => {
                eprintln!("mtmbench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mtmbench: {e}");
            ExitCode::FAILURE
        }
    }
}
