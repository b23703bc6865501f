//! Corpus tiersim crate root.

pub mod engine;
pub mod machine;
pub mod migrate;

/// Reads its worker count straight from the environment: a D9 finding.
pub fn workers() -> usize {
    std::env::var("CORPUS_WORKERS").map_or(1, |v| v.len())
}
