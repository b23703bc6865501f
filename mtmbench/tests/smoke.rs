//! Smoke test: the benchmark's pair workloads at tiny sizes, its
//! statistics and its digest, and its agreement with `BENCHMARK.json`.
//! Run with `cargo test --manifest-path mtmbench/Cargo.toml`.

use mtm_bench::Stats;
use obs::json::Json;

use mtmbench::digest::Fnv;
use mtmbench::host::vm_hwm_mb;
use mtmbench::runner::{parse_digests, reported, runs_executed};
use mtmbench::sample::{self, PairSpec};
use mtmbench::{
    per_layer, BenchWorkload, END_TO_END, PEAK_RSS_MB, SETUP_S, SIM_LAYERS, SIM_MACCESS_PER_S,
    WALL_S,
};

fn tiny(wl: BenchWorkload) -> PairSpec {
    match wl {
        BenchWorkload::BfsMtm => PairSpec {
            scale: 1 << 16,
            intervals: 8,
        },
        _ => PairSpec {
            scale: 1 << 14,
            intervals: 8,
        },
    }
}

#[test]
fn pair_workloads_repeat_and_report_every_layer() {
    let sample_layers: Vec<&str> = SIM_LAYERS.iter().map(|m| m.name).collect();
    for wl in [
        BenchWorkload::GupsMtm,
        BenchWorkload::GupsFirstTouch,
        BenchWorkload::BfsMtm,
    ] {
        let plain = sample::pair(wl, tiny(wl), 7, false).expect("untraced sample runs");
        let traced = sample::pair(wl, tiny(wl), 7, true).expect("traced sample runs");
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing changed the simulation",
            wl.name()
        );
        assert_eq!(plain.counts, traced.counts, "{}", wl.name());
        assert!(
            plain.counts.accesses > 0 && plain.maccess_per_s() > 0.0,
            "{}",
            wl.name()
        );
        assert!(plain.phases.setup_s() > 0.0, "{}", wl.name());

        let names: Vec<&str> = traced.layer_metrics().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, sample_layers, "{}", wl.name());
        let h = &traced.phases.hooks;
        assert_eq!(h.init.calls, 1, "{}", wl.name());
        assert_eq!(h.on_interval.calls, 8, "{}", wl.name());
        assert!(traced.phases.tick_loop_s() > 0.0, "{}", wl.name());

        let c = &plain.counts;
        if wl == BenchWorkload::GupsFirstTouch {
            assert_eq!(
                (c.pte_scans, c.pages_migrated, c.promotions),
                (0, 0, 0),
                "the bypass control profiles"
            );
        } else {
            assert!(c.pte_scans > 0, "{}: MTM never scanned", wl.name());
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let wl = BenchWorkload::GupsMtm;
    let a = sample::pair(wl, tiny(wl), 0, false).expect("sample runs");
    let b = sample::pair(wl, tiny(wl), 1, false).expect("sample runs");
    assert_ne!(a.digest, b.digest);
}

#[test]
fn quick_all_is_not_a_pair_workload() {
    assert!(PairSpec::bench(BenchWorkload::QuickAll).is_none());
    assert!(sample::pair(
        BenchWorkload::QuickAll,
        tiny(BenchWorkload::GupsMtm),
        0,
        false
    )
    .is_err());
}

#[test]
fn timings_report_the_best_sample_and_setup_and_memory_the_median() {
    let s = Stats::from_ns(&[4.0, 1.0, 3.0, 2.0, 5.0, 6.0]);
    assert_eq!(reported(&WALL_S, &s), 1.0);
    assert_eq!(reported(&SIM_MACCESS_PER_S, &s), 6.0);
    // The lower middle of an even count: a value some sample measured.
    assert_eq!(reported(&SETUP_S, &s), 3.0);
    assert_eq!(reported(&PEAK_RSS_MB, &s), 3.0);
}

#[test]
fn all_run_count_is_read_from_its_summary_line() {
    let stderr = "running with Opts { .. }\n==> fig1 (x)\n    done in 0.1s\n\
                  all experiments done in 1.2s — run cache: 48 executed, 215 hits, 0 coalesced\n";
    assert_eq!(runs_executed(stderr), Some(48));
    assert_eq!(runs_executed("==> fig1 (x)\n"), None);
}

#[test]
fn fnv1a_matches_reference_vectors() {
    let digest = |s: &str| {
        let mut h = Fnv::default();
        h.bytes(s.as_bytes());
        h.finish()
    };
    assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn committed_digests_cover_every_workload() {
    let text = std::fs::read_to_string(mtmbench::runner::digests_path())
        .expect("digests.txt is committed");
    let digests = parse_digests(&text);
    for key in ["quick_matrix", "gups_mtm", "gups_first_touch", "bfs_mtm"] {
        assert!(digests.contains_key(key), "no digest for {key}");
    }
    assert_eq!(
        parse_digests("# c\nx 00000000000000ff\nbad zz\n").get("x"),
        Some(&255)
    );
}

#[test]
fn peak_rss_is_read_from_proc_status() {
    assert_eq!(
        vm_hwm_mb("Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t 1 kB\n"),
        Some(2.0)
    );
    assert_eq!(vm_hwm_mb("Name:\tzombie\n"), None);
}

/// `(name, unit, better)` of every entry in one `BENCHMARK.json` list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect()
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
    let better = |lower: bool| if lower { "lower" } else { "higher" }.to_string();

    let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
    let want: Vec<String> = BenchWorkload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, want);

    let want: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                better(m.lower_is_better),
            )
        })
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), want);

    let want: Vec<_> = per_layer()
        .into_iter()
        .map(|(name, unit, lower)| (name, unit.to_string(), better(lower)))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), want);
}

#[test]
fn catalogue_matches_the_harness() {
    let ids: Vec<&str> = mtm_harness::experiments().iter().map(|e| e.id).collect();
    assert_eq!(ids, mtmbench::EXPERIMENT_IDS);
    let mut labels: Vec<&str> = Vec::new();
    for (m, _) in sample::quick_pairs() {
        let label = sample::prewarm_label(m);
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    assert_eq!(labels, mtmbench::PREWARM_LABELS);
}
