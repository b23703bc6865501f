//! Whole-run differential tests of the simulator; the library is empty.
//!
//! The tests under `tests/` drive complete scenarios and compare them:
//! `access_streams.rs` pins each workload's access stream by hash,
//! `round_matches_tick.rs` holds every workload's `round` to its `tick`,
//! and `populate.rs` holds set-up's per-mapping population to the
//! per-page loop. Whole machines compare through
//! `tiersim::machine::Machine::state_digest`.
