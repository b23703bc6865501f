//! `mtm-harness` — regenerates every table and figure of the MTM paper's
//! evaluation (Sec. 9) on the simulated machine.
//!
//! Each experiment is addressable by its paper id (`fig1`..`fig12`,
//! `table1`..`table7`) through [`run_experiment`], and has a matching
//! binary (`cargo run --release -p mtm-harness --bin fig4`). The `all`
//! binary runs everything and writes the reports under `results/`.

pub mod admission;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod metrics;
pub mod opts;
pub mod overall;
pub mod resilience;
pub mod runpool;
pub mod runs;
pub mod tablefmt;
pub mod tables;

pub use opts::Opts;

/// One experiment of the evaluation.
pub struct Experiment {
    /// Paper id (e.g. `fig4`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Runner.
    pub run: fn(&Opts) -> String,
}

/// The full experiment registry, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment { id: "table1", title: "Hardware overview", run: tables::table1 },
        Experiment { id: "table2", title: "Workloads for evaluation", run: tables::table2 },
        Experiment { id: "fig1", title: "Profiling recall/accuracy over time", run: fig1::run },
        Experiment { id: "fig3", title: "Migration mechanism breakdown", run: fig3::run },
        Experiment { id: "fig4", title: "Overall performance", run: overall::fig4 },
        Experiment { id: "table3", title: "Hot pages identified / fast-tier accesses", run: overall::table3 },
        Experiment { id: "table4", title: "GUPS vs initial placement", run: tables::table4 },
        Experiment { id: "fig5", title: "Execution time breakdown", run: overall::fig5 },
        Experiment { id: "table5", title: "MTM memory overhead", run: overall::table5 },
        Experiment { id: "table6", title: "Per-tier access counts (VoltDB)", run: tables::table6 },
        Experiment { id: "table7", title: "Region formation statistics", run: overall::table7 },
        Experiment { id: "fig6", title: "GUPS heatmap, DAMON vs MTM", run: fig6::run },
        Experiment { id: "fig7", title: "Ablations (AMR/APS/OC/PEBS/async)", run: fig7::run },
        Experiment { id: "fig8", title: "Profiling overhead target sweep", run: fig8::run },
        Experiment { id: "fig9", title: "tau_m / tau_s sensitivity", run: fig9::run },
        Experiment { id: "fig10", title: "alpha sensitivity", run: fig10::run },
        Experiment { id: "fig11", title: "Migration microbenchmark", run: fig11::run },
        Experiment { id: "fig12", title: "Two-tier HM vs HeMem", run: fig12::run },
    ]
}

/// Runs one experiment by id; `None` if the id is unknown.
pub fn run_experiment(id: &str, opts: &Opts) -> Option<String> {
    experiments().into_iter().find(|e| e.id == id).map(|e| (e.run)(opts))
}

/// Runs an experiment, prints it, and writes it under `results/`.
pub fn run_and_save(id: &str) {
    let opts = Opts::from_env();
    let out = run_experiment(id, &opts)
        .unwrap_or_else(|| panic!("unknown experiment {id:?}"));
    println!("{out}");
    if let Err(e) = save_result(id, &out) {
        eprintln!("warning: could not save results/{id}.txt: {e}");
    }
}

/// Writes a report under `results/<id>.txt`.
pub fn save_result(id: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/{id}.txt"), content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = experiments().iter().map(|e| e.id).collect();
        for want in
            ["fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]
        {
            assert!(ids.contains(&want), "missing {want}");
        }
        for want in ["table1", "table2", "table3", "table4", "table5", "table6", "table7"] {
            assert!(ids.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", &Opts::quick()).is_none());
    }
}
