//! Every Rust source file the prose docs cite by a backticked path must
//! exist. A reference is a path from the repository root
//! (`crates/tiersim/src/sim.rs`), a trailing part of one
//! (`harness/src/runs.rs`) or a bare file name (`sim.rs`); a trailing
//! part or a bare name must name exactly one file, so a reader can find
//! it. Deleting or renaming a cited file fails this test until the doc
//! is updated.

use std::path::{Path, PathBuf};

/// The documents checked, relative to the repository root.
const DOCS: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, as a `/`-separated path relative to
/// `root`, skipping build output and version control.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                rust_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            out.push(rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/"));
        }
    }
}

/// The backticked `.rs` paths in `text`: each `` `…​.rs` `` whose content
/// is one path of letters, digits, `_`, `.`, `/` and `-` (a placeholder
/// such as `<id>.rs` or a path broken across lines is not a reference).
fn references(text: &str) -> Vec<&str> {
    let mut refs = Vec::new();
    for (end, _) in text.match_indices(".rs`") {
        let Some(open) = text[..end].rfind('`') else { continue };
        let path = &text[open + 1..end + 3];
        let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
        if path.len() > 3 && !path.ends_with("/.rs") && path.chars().all(is_path_char) {
            refs.push(path);
        }
    }
    refs
}

/// How many files `reference` could mean: the file at that path from
/// the root, else every file whose path ends with it.
fn matches(files: &[String], reference: &str) -> usize {
    if files.iter().any(|f| f == reference) {
        return 1;
    }
    let suffix = format!("/{reference}");
    files.iter().filter(|f| f.ends_with(&suffix)).count()
}

#[test]
fn backticked_rust_paths_in_the_docs_name_one_file() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root, &root, &mut files);
    let (mut checked, mut bad) = (0, Vec::new());
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        for reference in references(&text) {
            checked += 1;
            match matches(&files, reference) {
                1 => {}
                0 => bad.push(format!("{doc}: `{reference}` names no file")),
                n => bad.push(format!("{doc}: `{reference}` could be any of {n} files")),
            }
        }
    }
    assert!(bad.is_empty(), "stale source references:\n  {}", bad.join("\n  "));
    assert!(checked >= 20, "found only {checked} references; is the scan broken?");
}

#[test]
fn references_are_whole_backticked_paths() {
    let text = "see `crates/a/src/b.rs`, `sim.rs`'s loop, `<id>.rs`, `a b.rs`, ```rust\nfn x() {}\n``` and `x.rs`";
    assert_eq!(references(text), ["crates/a/src/b.rs", "sim.rs", "x.rs"]);
    let files = ["crates/a/src/b.rs".to_string(), "crates/c/src/b.rs".to_string()];
    assert_eq!(matches(&files, "crates/a/src/b.rs"), 1);
    assert_eq!(matches(&files, "a/src/b.rs"), 1);
    assert_eq!(matches(&files, "b.rs"), 2);
    assert_eq!(matches(&files, "src/c.rs"), 0);
}
