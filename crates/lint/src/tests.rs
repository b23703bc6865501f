//! Per-rule fixture tests: each rule has at least one caught-violation
//! fixture and one allowed fixture, including tricky tokens hidden in
//! strings and comments that must NOT trip the scanner.

use super::*;

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- strip

#[test]
fn strip_blanks_comments_and_strings_preserving_lines() {
    let src = "let a = 1; // HashMap in a comment\nlet s = \"Instant::now()\";\n";
    let out = strip_code(src);
    assert_eq!(out.lines().count(), src.lines().count());
    assert!(!out.contains("HashMap"));
    assert!(!out.contains("Instant"));
    assert!(out.contains("let a = 1;"));
    // A line continuation inside a string keeps its newline.
    let src = "let s = \"a \\\n   b\";\nlet b = b\"c \\\n d\";\nlet t = 1;\n";
    let out = strip_code(src);
    assert_eq!(out.lines().count(), 5, "{out:?}");
    assert_eq!(out.lines().nth(4), Some("let t = 1;"), "{out:?}");
}

#[test]
fn strip_handles_raw_strings_and_nested_block_comments() {
    let src = r##"let x = r#"HashMap " inside raw"#; /* outer /* SystemTime::now */ still */ let y = 2;"##;
    let out = strip_code(src);
    assert!(!out.contains("HashMap"));
    assert!(!out.contains("SystemTime"));
    assert!(out.contains("let y = 2;"));
}

#[test]
fn strip_tells_lifetimes_from_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; q }";
    let out = strip_code(src);
    // The quote char literal must not open a string that swallows the rest.
    assert!(out.contains("q }"), "{out:?}");
    assert!(out.contains("<'a>"), "lifetimes survive: {out:?}");
}

#[test]
fn strip_handles_byte_and_hashed_raw_strings() {
    let src = r####"let a = b"HashSet\""; let b = br##"thread_rng "# "##; let c = 3;"####;
    let out = strip_code(src);
    assert!(!out.contains("HashSet"));
    assert!(!out.contains("thread_rng"));
    assert!(out.contains("let c = 3;"), "{out:?}");
}

// ------------------------------------------------------------------- D1

#[test]
fn d1_catches_wall_clock_reads() {
    let f = scan_source("crates/harness/src/lib.rs", "let t = std::time::Instant::now();\n");
    assert_eq!(rules_of(&f), vec![Rule::WallClock]);
    let f = scan_source("crates/obs/src/lib.rs", "let t = SystemTime::now();\n");
    assert_eq!(rules_of(&f), vec![Rule::WallClock]);
}

#[test]
fn d1_allows_bench_crate_comments_strings_and_annotated_lines() {
    assert!(scan_source("crates/bench/src/lib.rs", "let t = Instant::now();\n").is_empty());
    assert!(scan_source("crates/mtm/src/lib.rs", "// Instant::now() is banned here\n").is_empty());
    assert!(scan_source("crates/mtm/src/lib.rs", "let s = \"Instant::now()\";\n").is_empty());
    let annotated =
        "let t = Instant::now(); // lint:allow(wall-clock): stderr progress timing only\n";
    assert!(scan_source("crates/harness/src/lib.rs", annotated).is_empty());
}

#[test]
fn d1_annotation_without_reason_is_itself_a_finding() {
    let f = scan_source(
        "crates/harness/src/lib.rs",
        "let t = Instant::now(); // lint:allow(wall-clock):\n",
    );
    assert_eq!(rules_of(&f), vec![Rule::WallClock]);
    assert!(f[0].message.contains("missing its justification"), "{}", f[0].message);
}

// ------------------------------------------------------------------- D2

#[test]
fn d2_catches_unordered_maps_in_decision_crates_only() {
    let src = "use std::collections::HashMap;\n";
    for path in [
        "crates/mtm/src/daemon.rs",
        "crates/baselines/src/hemem.rs",
        "crates/harness/src/runs.rs",
        "crates/tiersim/src/machine.rs",
        "crates/obs/src/metrics.rs",
        "crates/scenario/src/trace.rs",
    ] {
        assert_eq!(rules_of(&scan_source(path, src)), vec![Rule::UnorderedMap], "{path}");
    }
    // Out-of-scope crates may use HashMap freely.
    assert!(scan_source("crates/workloads/src/gups.rs", src).is_empty());
    assert!(scan_source("crates/lint/src/lib.rs", src).is_empty());
}

#[test]
fn d2_respects_annotations_and_ident_boundaries() {
    let annotated = "// lint:allow(unordered-map): deterministic hasher, iteration never escapes\nuse std::collections::HashMap;\n";
    assert!(scan_source("crates/tiersim/src/page_table.rs", annotated).is_empty());
    // `MyHashMapLike` is not the ident `HashMap`.
    assert!(scan_source("crates/mtm/src/lib.rs", "struct MyHashMapLike;\n").is_empty());
    let f = scan_source("crates/mtm/src/lib.rs", "let s: HashSet<u64> = HashSet::new();\n");
    assert_eq!(rules_of(&f), vec![Rule::UnorderedMap]);
}

#[test]
fn d2_exempts_cfg_test_modules() {
    let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { let _: HashMap<u8, u8> = HashMap::new(); }\n}\n";
    assert!(scan_source("crates/tiersim/src/frame.rs", src).is_empty());
    // ...but code after the test module is back in scope.
    let tail = format!("{src}use std::collections::HashMap;\n");
    assert_eq!(rules_of(&scan_source("crates/tiersim/src/frame.rs", &tail)), vec![Rule::UnorderedMap]);
}

// ------------------------------------------------------------------- D3

#[test]
fn d3_catches_entropy_sources_everywhere() {
    for src in [
        "let mut rng = thread_rng();\n",
        "let r = OsRng;\n",
        "let x = rand::random::<u64>();\n",
        "let s = std::collections::hash_map::RandomState::new();\n",
    ] {
        let f = scan_source("crates/workloads/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::Entropy], "{src}");
    }
}

#[test]
fn d3_allows_seeded_prngs_and_mentions_in_prose() {
    assert!(scan_source("crates/workloads/src/lib.rs", "let x = splitmix64(seed);\n").is_empty());
    assert!(scan_source("crates/mtm/src/lib.rs", "// unlike thread_rng, this is seeded\n").is_empty());
    // `operand::` is not the `rand::` path.
    assert!(scan_source("crates/mtm/src/lib.rs", "let y = operand::width();\n").is_empty());
}

/// The admission plane makes per-batch migration decisions, so its module
/// must sit inside both the D2 (ordered collections) and D3 (entropy)
/// scopes: a policy iterating a `HashMap` or drawing entropy would break
/// the byte-identical-reports contract for `results/admission.txt`.
#[test]
fn admission_policy_module_is_in_determinism_scope() {
    let f = scan_source("crates/mtm/src/admission.rs", "use std::collections::HashMap;\n");
    assert_eq!(rules_of(&f), vec![Rule::UnorderedMap]);
    let f = scan_source("crates/mtm/src/admission.rs", "let mut rng = thread_rng();\n");
    assert_eq!(rules_of(&f), vec![Rule::Entropy]);
    // The BTreeMap state the built-in policies actually keep is clean.
    let good = "use std::collections::BTreeMap;\nstruct P { seen: BTreeMap<u64, u64> }\n";
    assert!(scan_source("crates/mtm/src/admission.rs", good).is_empty());
    // The harness sweep that renders the figure is equally in scope.
    let f = scan_source("crates/harness/src/admission.rs", "use std::collections::HashSet;\n");
    assert_eq!(rules_of(&f), vec![Rule::UnorderedMap]);
}

/// The multi-tenant arbitration plane re-splits machine resources every
/// interval, so both its policy module and the harness sweep driver must
/// sit inside the D1–D3 determinism scopes: a `HashMap`-iterating
/// arbiter or an entropy-drawing cell driver would break the
/// byte-identical contract for `results/multitenant.txt`.
#[test]
fn arbiter_and_multitenant_modules_are_in_determinism_scope() {
    for module in ["crates/mtm/src/arbiter.rs", "crates/harness/src/multitenant.rs"] {
        let f = scan_source(module, "use std::collections::HashMap;\n");
        assert_eq!(rules_of(&f), vec![Rule::UnorderedMap], "{module} escaped D2");
        let f = scan_source(module, "let mut rng = thread_rng();\n");
        assert_eq!(rules_of(&f), vec![Rule::Entropy], "{module} escaped D3");
        let f = scan_source(module, "let t0 = std::time::Instant::now();\n");
        assert_eq!(rules_of(&f), vec![Rule::WallClock], "{module} escaped D1");
        // The BTreeMap state the hotness arbiter actually keeps is clean.
        let good = "use std::collections::BTreeMap;\nstruct A { ema: BTreeMap<u16, f64> }\n";
        assert!(scan_source(module, good).is_empty(), "{module} false positive");
    }
}

// ------------------------------------------------------------------- D4

#[test]
fn d4_catches_exhaustive_public_error_enums() {
    let f = scan_source("crates/tiersim/src/lib.rs", "pub enum AllocError {\n    NoSpace,\n}\n");
    assert_eq!(rules_of(&f), vec![Rule::NonExhaustiveError]);
    assert!(f[0].message.contains("AllocError"));
}

#[test]
fn d4_allows_attributed_private_and_non_error_enums() {
    let good = "#[non_exhaustive]\n#[derive(Debug)]\npub enum MigrateError {\n    NoSpace,\n}\n";
    assert!(scan_source("crates/tiersim/src/lib.rs", good).is_empty());
    assert!(scan_source("crates/tiersim/src/lib.rs", "enum InnerError { A }\n").is_empty());
    assert!(scan_source("crates/tiersim/src/lib.rs", "pub enum Tier { Fast, Slow }\n").is_empty());
}

// ------------------------------------------------------------------- D9

#[test]
fn d9_catches_env_reads_outside_the_settings_reader() {
    let read = "let v = std::env::var(\"X\");\nlet o = env::var_os(\"X\");\nfor _ in std::env::vars() {}\nfor _ in env::vars_os() {}\n";
    for path in ["crates/tiersim/src/engine.rs", "crates/check/src/lib.rs", "src/lib.rs", "crates/bench/src/runner.rs",
        "crates/harness/src/runpool.rs", "crates/harness/src/opts.rs", "crates/harness/src/bin/debug_mtm.rs"]
    {
        assert_eq!(rules_of(&scan_source(path, read)), vec![Rule::EnvRead; 4], "{path}");
    }
    for path in ["crates/harness/src/runs.rs", "crates/proptest-lite/src/runner.rs", "crates/lint/src/bin/lint.rs",
        "mtmbench/src/runner.rs", "examples/quickstart.rs", "crates/tiersim/tests/t.rs", "crates/harness/tests/golden.rs"]
    {
        assert!(scan_source(path, read).is_empty(), "{path}");
    }
    let fine = "// lint:allow(env-read): reports the knob\nlet v = std::env::var(\"W\");\n/// `std::env::var(\"X\")`\nlet s = \"env::var(\";\nlet a = std::env::args();\n#[cfg(test)]\nmod t {\n    fn f() { std::env::var(\"X\"); }\n}\n";
    assert!(scan_source("crates/tiersim/src/engine.rs", fine).is_empty());
}

// ------------------------------------------------------------------- U1

#[test]
fn u1_catches_unsafe_without_a_safety_comment() {
    let src = "fn f(b: &[u8]) -> u8 {\n    unsafe { *b.get_unchecked(0) }\n}\nunsafe fn g() {}\n\
               // Sound, really.\nunsafe impl Send for X {}\n";
    let f = scan_source("crates/workloads/src/lib.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::UnsafeSafety; 3]);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), vec![2, 4, 6]);
}

#[test]
fn u1_accepts_safety_comments_above_and_ignores_non_code() {
    let fine = "fn f(b: &[u8]) -> u8 {\n    // SAFETY: `b` is non-empty.\n    unsafe { *b.get_unchecked(0) }\n}\n\
                #[cfg(target_arch = \"x86_64\")]\n// SAFETY: a hint; it reads nothing the program sees\n\
                // and never faults.\nunsafe { hint() }\n\
                // SAFETY: the caller checked the features.\n#[inline]\nunsafe fn g() {}\n\
                #![deny(unsafe_code)]\nlet s = \"unsafe {\";\n/// `unsafe` in prose\n\
                #[cfg(test)]\nmod t {\n    fn h() { unsafe { x() } }\n}\n";
    assert!(scan_source("crates/workloads/src/lib.rs", fine).is_empty());
    // A SAFETY comment separated from the block by code does not count,
    // and neither does one below it.
    let far = "// SAFETY: stale\nlet x = 1;\nunsafe { y() }\n// SAFETY: too late\n";
    assert_eq!(rules_of(&scan_source("crates/obs/src/json.rs", far)), vec![Rule::UnsafeSafety]);
    // Only `src/`: integration tests and benches are test code.
    let bare = "unsafe { y() }\n";
    for path in ["tests/hermetic.rs", "crates/bench/benches/overall.rs", "build.rs"] {
        assert!(scan_source(path, bare).is_empty(), "{path}");
    }
}

// ------------------------------------------------------------------- H1

#[test]
fn h1_catches_registry_git_and_patch_sources() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nrand = \"0.8\"\nobs = { path = \"../obs\" }\n";
    let f = hermetic::check_manifest_text("crates/x/Cargo.toml", manifest);
    assert_eq!(rules_of(&f), vec![Rule::HermeticDep]);
    assert_eq!(f[0].line, 5);
    assert!(f[0].message.contains("`rand`"), "{}", f[0].message);

    let git = "[dependencies]\nfoo = { git = \"https://example.com/foo\" }\n";
    let f = hermetic::check_manifest_text("Cargo.toml", git);
    assert!(f.iter().any(|x| x.message.contains("git dependencies")), "{f:?}");

    let patch = "[patch.crates-io]\nfoo = { path = \"vendor/foo\" }\n";
    let f = hermetic::check_manifest_text("Cargo.toml", patch);
    assert!(f.iter().any(|x| x.message.contains("[patch]")), "{f:?}");
}

#[test]
fn h1_allows_path_and_workspace_dependencies() {
    let manifest = "[dependencies]\nobs = { path = \"../obs\" }\ntiersim.workspace = true\nmtm = { workspace = true }\n\n[dependencies.faultsim]\npath = \"../faultsim\"\n\n[dev-dependencies]\nproptest-lite = { workspace = true }\n";
    assert!(hermetic::check_manifest_text("crates/x/Cargo.toml", manifest).is_empty());
    // Commented-out registry deps are not findings.
    let commented = "[dependencies]\n# rand = \"0.8\"\n";
    assert!(hermetic::check_manifest_text("Cargo.toml", commented).is_empty());
}

// -------------------------------------------------------------- helpers

#[test]
fn allowlist_parses_and_filters() {
    let allows = parse_allowlist(
        "# VersionStore map is never iterated\nallow unordered-map crates/tiersim/src/frame.rs  # reason\n\n",
    )
    .expect("valid allowlist");
    assert_eq!(allows.len(), 1);
    let findings = vec![
        Finding {
            path: "crates/tiersim/src/frame.rs".into(),
            line: 1,
            rule: Rule::UnorderedMap,
            message: "x".into(),
        },
        Finding {
            path: "crates/tiersim/src/frame.rs".into(),
            line: 2,
            rule: Rule::WallClock,
            message: "y".into(),
        },
        Finding {
            path: "crates/mtm/src/daemon.rs".into(),
            line: 3,
            rule: Rule::UnorderedMap,
            message: "z".into(),
        },
    ];
    let kept = apply_allowlist(findings, &allows);
    // Only the matching (slug, path) pair is suppressed.
    assert_eq!(kept.len(), 2);
    assert!(kept.iter().all(|f| !(f.rule == Rule::UnorderedMap
        && f.path.contains("frame.rs"))));
}

#[test]
fn allowlist_rejects_malformed_lines() {
    assert!(parse_allowlist("deny entropy crates/x\n").is_err());
    assert!(parse_allowlist("allow unordered-map\n").is_err());
    assert!(parse_allowlist("allow unordered-map path stray-token\n").is_err());
}

#[test]
fn findings_display_as_file_line_rule_message() {
    let f = Finding {
        path: "crates/mtm/src/daemon.rs".into(),
        line: 42,
        rule: Rule::UnorderedMap,
        message: "HashMap in a report/decision crate".into(),
    };
    assert_eq!(
        f.to_string(),
        "crates/mtm/src/daemon.rs:42: D2/unordered-map: HashMap in a report/decision crate"
    );
}

#[test]
fn integration_test_paths_are_wholly_exempt() {
    let src = "fn helper() { let _ = Instant::now(); Some(1).unwrap(); }\n";
    assert!(scan_source("tests/hermetic.rs", src).is_empty());
    assert!(scan_source("crates/tiersim/tests/sanitizer.rs", src).is_empty());
    assert!(scan_source("crates/bench/benches/micro.rs", src).is_empty());
}

#[test]
fn h1_manifest_glob_covers_the_scenario_crate() {
    // The member glob discovers new crates from the filesystem; pin the
    // newest one so a future restructuring can't silently drop it (and
    // its path-only dependency policy) from the H1 scan.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let manifests = hermetic::workspace_manifests(&root).expect("manifest enumeration");
    assert!(
        manifests.iter().any(|m| m.ends_with("crates/scenario/Cargo.toml")),
        "crates/scenario/Cargo.toml missing from the H1 scan"
    );
}

// -------------------------------------------------------------- semantic

/// Drives the full textual+semantic pipeline over in-memory sources.
fn semantic(files: &[(&str, &str)], toml: &str) -> Vec<Finding> {
    let files: Vec<(String, String)> =
        files.iter().map(|(r, s)| (r.to_string(), s.to_string())).collect();
    let allows = parse_allowlist(toml).expect("valid allowlist");
    run_on_files(&files, &allows, Vec::new()).0
}

#[test]
fn d6_catches_cross_crate_entropy_laundering() {
    // The textual D3 finding is silenced by a lint.toml *path* allow, so
    // only the reachability rule can see the laundering.
    let util = "pub fn jitter() -> u64 { rand::random::<u64>() }\n";
    let harness = "pub fn run_cell() -> u64 { mtm_util::jitter() }\n";
    let f = semantic(
        &[("crates/util/src/lib.rs", util), ("crates/harness/src/lib.rs", harness)],
        "allow entropy crates/util/\n",
    );
    assert_eq!(rules_of(&f), vec![Rule::DeterminismTaint], "{f:?}");
    assert!(f[0].message.contains("run_cell -> jitter"), "{}", f[0].message);
}

#[test]
fn d6_defers_to_a_surviving_textual_finding() {
    // Without the path allow the textual D3 finding survives, and D6
    // must not double-report the same line.
    let util = "pub fn jitter() -> u64 { rand::random::<u64>() }\n";
    let harness = "pub fn run_cell() -> u64 { mtm_util::jitter() }\n";
    let f = semantic(
        &[("crates/util/src/lib.rs", util), ("crates/harness/src/lib.rs", harness)],
        "",
    );
    assert_eq!(rules_of(&f), vec![Rule::Entropy], "{f:?}");
}

#[test]
fn d6_respects_a_justified_line_allow_on_the_source() {
    // A line-level allow means the author looked at that exact line; it
    // suppresses both the textual rule and the fact D6 would ride on.
    let util = "pub fn jitter() -> u64 {\n    // lint:allow(entropy): fixture; jitter feeds a log label only\n    rand::random::<u64>()\n}\n";
    let harness = "pub fn run_cell() -> u64 { mtm_util::jitter() }\n";
    let f = semantic(
        &[("crates/util/src/lib.rs", util), ("crates/harness/src/lib.rs", harness)],
        "",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d6_ignores_unreachable_sources() {
    // A source in a fn nothing in an ordered crate calls is out of every
    // decision path (its own crate is unordered), so D6 stays quiet.
    let util = "pub fn jitter() -> u64 { rand::random::<u64>() }\n";
    let f = semantic(&[("crates/util/src/lib.rs", util)], "allow entropy crates/util/\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d7_flags_a_lock_order_inversion() {
    let src = "use std::sync::Mutex;\n\
               pub struct M { pub table: Mutex<u64>, pub stats: Mutex<u64> }\n\
               pub fn step(m: &M) -> u64 {\n\
                   let t = m.table.lock().expect(\"t\");\n\
                   let s = m.stats.lock().expect(\"s\");\n\
                   *t + *s\n\
               }\n\
               pub fn report(m: &M) -> u64 {\n\
                   let s = m.stats.lock().expect(\"s\");\n\
                   let t = m.table.lock().expect(\"t\");\n\
                   *t - *s\n\
               }\n";
    let f = semantic(&[("crates/tiersim/src/machine.rs", src)], "");
    assert_eq!(rules_of(&f), vec![Rule::LockOrder], "{f:?}");
    assert!(f[0].message.contains("table") && f[0].message.contains("stats"), "{}", f[0].message);
}

#[test]
fn d7_accepts_a_consistent_order_and_dropped_guards() {
    // Same locks, same order everywhere: acyclic, no finding.
    let consistent = "use std::sync::Mutex;\n\
               pub struct M { pub table: Mutex<u64>, pub stats: Mutex<u64> }\n\
               pub fn step(m: &M) { let t = m.table.lock().expect(\"t\"); let s = m.stats.lock().expect(\"s\"); let _ = (*t, *s); }\n\
               pub fn report(m: &M) { let t = m.table.lock().expect(\"t\"); let s = m.stats.lock().expect(\"s\"); let _ = (*t, *s); }\n";
    assert!(semantic(&[("crates/tiersim/src/machine.rs", consistent)], "").is_empty());
    // An explicit drop releases the first lock before the second is
    // taken, so the inverted pair creates no held->acquired edge.
    let dropped = "use std::sync::Mutex;\n\
               pub struct M { pub table: Mutex<u64>, pub stats: Mutex<u64> }\n\
               pub fn step(m: &M) { let t = m.table.lock().expect(\"t\"); drop(t); let s = m.stats.lock().expect(\"s\"); let _ = *s; }\n\
               pub fn report(m: &M) { let s = m.stats.lock().expect(\"s\"); drop(s); let t = m.table.lock().expect(\"t\"); let _ = *t; }\n";
    assert!(semantic(&[("crates/tiersim/src/machine.rs", dropped)], "").is_empty());
}

#[test]
fn d8_closes_over_the_relocation_root() {
    // The unwrap hides one hop below the root, in a file that is not a
    // root file.
    let src = "pub fn relocate_range(n: u64) -> u64 { helper(n) }\n\
               fn helper(n: u64) -> u64 { n.checked_add(1).unwrap() }\n";
    let f = semantic(&[("crates/tiersim/src/engine.rs", src)], "");
    assert_eq!(rules_of(&f), vec![Rule::PanicPath], "{f:?}");
    assert!(f[0].message.contains("relocate_range -> helper"), "{}", f[0].message);
}

#[test]
fn d8_roots_every_fn_of_the_migration_files() {
    // Each non-test fn of the migration files is a root whatever its
    // name, so every site the retired textual D5 rule flagged there is a
    // D8 finding.
    let src = "fn unmap_one(m: &mut M, va: u64) -> u64 {\n\
                   let x = m.pt.unmap(va).expect(\"page mapped\");\n\
                   let y = m.q.pop().unwrap();\n\
                   x + y\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t() { None::<u8>.unwrap(); }\n\
               }\n";
    for rel in ["crates/tiersim/src/migrate.rs", "crates/mtm/src/migration.rs"] {
        let f = semantic(&[(rel, src)], "");
        assert_eq!(rules_of(&f), vec![Rule::PanicPath, Rule::PanicPath], "{rel}: {f:?}");
        assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 3], "{rel}");
    }
    // The same tokens anywhere else are fine.
    assert!(semantic(&[("crates/tiersim/src/machine.rs", src)], "").is_empty());
}

#[test]
fn d8_does_not_match_the_unwrap_or_family() {
    let src = "fn f(opt: Option<u64>, r: Result<u64, u64>) -> u64 {\n\
                   let x = opt.unwrap_or(0);\n\
                   let y = opt.unwrap_or_else(|| 1);\n\
                   let z = r.expect_err(\"must fail\");\n\
                   x + y + z\n\
               }\n";
    assert!(semantic(&[("crates/tiersim/src/migrate.rs", src)], "").is_empty());
}

#[test]
fn d8_ignores_panics_outside_the_closure_and_honors_allows() {
    // Same unwrap, but nothing transactional calls the helper.
    let unreached = "pub fn relocate_range(n: u64) -> u64 { n }\n\
               fn helper(n: u64) -> u64 { n.checked_add(1).unwrap() }\n";
    assert!(semantic(&[("crates/tiersim/src/engine.rs", unreached)], "").is_empty());
    // A justified line allow on the panic site silences the closure.
    let allowed = "pub fn relocate_range(n: u64) -> u64 { helper(n) }\n\
               fn helper(n: u64) -> u64 {\n\
                   // lint:allow(panic-path): fixture; overflow is a config bug worth aborting on\n\
                   n.checked_add(1).unwrap()\n\
               }\n";
    assert!(semantic(&[("crates/tiersim/src/engine.rs", allowed)], "").is_empty());
}

#[test]
fn o1_audits_names_and_bookings() {
    let metrics = "pub mod names {\n\
                       pub const GOOD: &str = \"good_total\";\n\
                       pub const DEAD: &str = \"dead_total\";\n\
                   }\n\
                   pub fn counter_add(_n: &str, _v: u64) {}\n\
                   pub fn book() { counter_add(names::GOOD, 1); counter_add(\"raw_name\", 1); }\n";
    let f = semantic(&[("crates/obs/src/metrics.rs", metrics)], "");
    assert_eq!(rules_of(&f), vec![Rule::ObsName, Rule::ObsName], "{f:?}");
    assert!(f.iter().any(|x| x.message.contains("DEAD")), "{f:?}");
    assert!(f.iter().any(|x| x.message.contains("raw_name")), "{f:?}");
}

#[test]
fn l1_rejects_unknown_slugs_in_annotations_and_toml() {
    // Assembled at runtime so the self-scan does not see the typo'd
    // slug in this file's own source.
    let typo = format!("// lint:allow(wall-cl{}k): typo\n", "o");
    let f = scan_bad_allows("crates/mtm/src/lib.rs", &typo);
    assert_eq!(rules_of(&f), vec![Rule::BadAllow]);
    assert!(f[0].message.contains("wall-clok"), "{}", f[0].message);
    assert!(scan_bad_allows("crates/mtm/src/lib.rs", "// lint:allow(wall-clock): fine\n")
        .is_empty());
    let allows =
        vec![Allow { slug: "no-such-rule".into(), path_substr: "crates/".into(), line: 3 }];
    let f = validate_allowlist(&allows);
    assert_eq!(rules_of(&f), vec![Rule::BadAllow]);
    assert_eq!(f[0].line, 3);
}

#[test]
fn findings_serialize_to_stable_json() {
    let f = Finding {
        path: "crates/a/src/lib.rs".into(),
        line: 3,
        rule: Rule::LockOrder,
        message: "cycle \"x\"\\path".into(),
    };
    assert_eq!(
        f.to_json(),
        r#"{"path":"crates/a/src/lib.rs","line":3,"code":"D7","slug":"lock-order","message":"cycle \"x\"\\path"}"#
    );
}

// --------------------------------------------------------------- corpus

fn fixture_root(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

#[test]
fn the_seeded_corpus_matches_its_golden_findings() {
    let dir = fixture_root("corpus");
    let findings = run(&dir).expect("corpus lint run");
    let got = findings.iter().map(|f| format!("{f}\n")).collect::<String>();
    let want = std::fs::read_to_string(dir.join("expected.txt")).expect("golden file");
    assert_eq!(got, want, "corpus findings drifted from expected.txt");
    // Every semantic rule demonstrably catches its seeded violation.
    for rule in [Rule::DeterminismTaint, Rule::LockOrder, Rule::PanicPath, Rule::ObsName, Rule::BadAllow] {
        assert!(findings.iter().any(|f| f.rule == rule), "corpus misses {rule:?}");
    }
}

#[test]
fn the_clean_fixture_twin_has_zero_findings() {
    let findings = run(&fixture_root("clean")).expect("clean lint run");
    assert!(
        findings.is_empty(),
        "clean twin has findings:\n  {}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n  ")
    );
}

// ------------------------------------------------------------- property

/// Builds one noisy source from atom codes: per atom, a fn whose body
/// holds brace/string/comment noise plus a unique marker call, wrapped
/// in a module for even atoms, with a nested fn for atom 4. Returns the
/// source and each expected fn's marker ident.
fn build_noisy_source(atoms: &[u8]) -> (String, std::collections::BTreeMap<String, String>) {
    let mut src = String::new();
    let mut expected = std::collections::BTreeMap::new();
    for (i, &a) in atoms.iter().enumerate() {
        let noise = match a % 7 {
            0 => "// ghost_marker } { fn fake() {\n".to_string(),
            1 => "/* outer /* ghost_marker } */ fn fake2() { */\n".to_string(),
            2 => "let s = \"ghost_marker } { \\\" fn fake3() {\";\n".to_string(),
            3 => "let r = r#\"ghost_marker } { \" fn fake4() {\"#;\n".to_string(),
            4 => "{ let inner_block = 1; }\n".to_string(),
            5 => "let c = '}'; let q = '\\'';\n".to_string(),
            _ => "let l: &'static str = \"x\";\n".to_string(),
        };
        let marker = format!("marker_{i}");
        let mut item = format!("fn f{i}() {{\n{noise}    {marker}();\n}}\n");
        if a % 7 == 4 {
            item = format!(
                "fn f{i}() {{\n    fn inner{i}() {{ marker_inner_{i}(); }}\n{noise}    {marker}();\n}}\n"
            );
            expected.insert(format!("inner{i}"), format!("marker_inner_{i}"));
        }
        if a % 2 == 0 {
            item = format!("mod m{i} {{\n{item}}}\n");
        }
        src.push_str(&item);
        expected.insert(format!("f{i}"), marker);
    }
    (src, expected)
}

#[test]
fn parser_attributes_bodies_correctly_under_random_nesting() {
    use proptest_lite::{gen, prop_check};
    prop_check!("parser_round_trip", 64, gen::vec_in(gen::u8_range(0, 14), 1, 12), |atoms| {
        let (src, expected) = build_noisy_source(atoms);
        let pf = parse::parse_file("crates/mtm/src/generated.rs", &src);
        let names: std::collections::BTreeSet<String> =
            pf.fns.iter().map(|f| f.name.clone()).collect();
        let want: std::collections::BTreeSet<String> = expected.keys().cloned().collect();
        proptest_lite::prop_assert_eq!(&names, &want, "fn set mismatch for:\n{src}");
        for f in &pf.fns {
            let mut body: Vec<&str> = Vec::new();
            for k in f.body.clone() {
                if f.nested.iter().any(|r| r.contains(&k)) {
                    continue;
                }
                body.push(pf.toks[k].text.as_str());
            }
            let marker = &expected[&f.name];
            proptest_lite::prop_assert!(
                body.contains(&marker.as_str()),
                "fn {} lost its marker in:\n{src}",
                f.name
            );
            // Nothing from a string or comment may surface as a token,
            // and no other fn's marker may leak into this body.
            proptest_lite::prop_assert!(
                !body.contains(&"ghost_marker"),
                "string/comment text leaked into fn {} of:\n{src}",
                f.name
            );
            for (other, m) in &expected {
                if other != &f.name {
                    proptest_lite::prop_assert!(
                        !body.contains(&m.as_str()),
                        "fn {other}'s marker mis-attributed to fn {} in:\n{src}",
                        f.name
                    );
                }
            }
        }
    });
}

#[test]
fn the_workspace_itself_is_lint_clean() {
    // The real tree must stay at zero findings — the same gate verify.sh
    // applies, enforced from the test suite so `cargo test` catches a
    // regression without running the binary.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let findings = run(&root).expect("lint run succeeds");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n  {}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n  ")
    );
}
