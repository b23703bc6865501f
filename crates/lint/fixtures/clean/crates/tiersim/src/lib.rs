//! Clean twin tiersim crate root.

pub mod engine;
pub mod machine;
pub mod migrate;

/// Takes its worker count as a value; the harness reads the environment.
pub fn workers(raw: Option<&str>) -> usize {
    raw.map_or(1, str::len)
}
