//! Deterministic random-number generator shared across the workspace.
//!
//! The one SplitMix64 lives in `faultsim`, the lowest crate in the
//! graph; this re-export keeps `tiersim::rng::SplitMix64` the path every
//! crate above the simulator imports.

pub use faultsim::rng::SplitMix64;
