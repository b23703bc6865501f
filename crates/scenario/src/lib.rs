//! Trace and checkpoint engine for long-horizon runs (DESIGN.md §5h).
//!
//! Two pieces sharing the [`tiersim::sim::Workload`] trait:
//!
//! - [`trace`]: record any workload's access stream to a compact,
//!   versioned binary trace and replay it bit-identically — the recorded
//!   run and the replayed run produce byte-identical reports.
//! - [`checkpoint`]: whole-simulation checkpoints (machine + manager +
//!   workload + driver progress) so long-horizon runs stop and resume
//!   with bit-identical continuation. A paper workload checkpoints by
//!   being replayed from its trace ([`TraceReplayer`]).

pub mod checkpoint;
pub mod trace;

pub use checkpoint::{restore_checkpoint, save_checkpoint};
pub use trace::{record_run, TraceRecorder, TraceReplayer};
