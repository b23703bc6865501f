//! Whole-simulation checkpoints: stop a run at an interval boundary,
//! serialize everything, resume later with bit-identical continuation.
//!
//! A checkpoint composes four blobs — machine, manager, workload, and
//! the driver's [`ScenarioProgress`] — plus the index of the next
//! interval to run. Restore rebuilds each object from its *configuration*
//! (the caller constructs them exactly as for a fresh run, but skips
//! `setup`/`init`) and then loads the dynamic state on top; the machine
//! blob carries a config digest, so restoring onto a differently-shaped
//! machine fails loudly instead of diverging. The invariant — proved by
//! the differential tests — is that `resume(save(run_to(k)), k..n)`
//! equals `run_to(n)` byte-for-byte in reports and telemetry.

use obs::wire::{Reader, Writer};
use tiersim::machine::Machine;
use tiersim::sim::{MemoryManager, ScenarioProgress, Workload};

/// Magic bytes opening every checkpoint (also the version marker).
pub const CKPT_MAGIC: &[u8; 8] = b"MTMCKPT1";

/// Serializes a paused run. `next_interval` is the first interval the
/// resumed run will execute. Fails when the manager or workload has no
/// checkpoint support. A Memory Mode machine checkpoints its DRAM-cache
/// tags with the rest, and a machine with a fault plan its fault stream.
pub fn save_checkpoint(
    machine: &Machine,
    manager: &dyn MemoryManager,
    workload: &dyn Workload,
    progress: &ScenarioProgress,
    next_interval: u64,
) -> Result<Vec<u8>, String> {
    let manager_blob = manager
        .save_state()
        .ok_or_else(|| format!("manager {:?} does not support checkpointing", manager.name()))?;
    let workload_blob = workload
        .save_state()
        .ok_or_else(|| format!("workload {:?} does not support checkpointing", workload.name()))?;
    let mut w = Writer::new();
    w.u64(u64::from_le_bytes(*CKPT_MAGIC));
    w.str(&manager.name());
    w.str(&workload.name());
    w.varint(next_interval);
    w.bytes(&machine.save_state());
    w.bytes(&manager_blob);
    w.bytes(&workload_blob);
    progress.save(&mut w);
    Ok(w.into_bytes())
}

/// Restores a checkpoint into freshly built (not set up, not
/// initialized) machine / manager / workload objects of the same
/// configuration. Returns the restored driver progress and the next
/// interval to run; the caller continues with
/// [`ScenarioProgress::step_interval`] from there and finishes normally.
pub fn restore_checkpoint(
    bytes: &[u8],
    machine: &mut Machine,
    manager: &mut dyn MemoryManager,
    workload: &mut dyn Workload,
) -> Result<(ScenarioProgress, u64), String> {
    let mut r = Reader::new(bytes);
    if r.u64()? != u64::from_le_bytes(*CKPT_MAGIC) {
        return Err("not an MTMCKPT1 checkpoint (bad magic)".to_string());
    }
    let manager_name = r.str()?;
    if manager_name != manager.name() {
        return Err(format!(
            "checkpoint was taken under manager {:?}, not {:?}",
            manager_name,
            manager.name()
        ));
    }
    let workload_name = r.str()?;
    if workload_name != workload.name() {
        return Err(format!(
            "checkpoint was taken under workload {:?}, not {:?}",
            workload_name,
            workload.name()
        ));
    }
    let next_interval = r.varint()?;
    machine.load_state(r.bytes()?)?;
    manager.load_state(r.bytes()?)?;
    workload.load_state(r.bytes()?)?;
    let progress = ScenarioProgress::load(&mut r)?;
    r.finish()?;
    Ok((progress, next_interval))
}
