//! Deterministic page-access trace record and replay.
//!
//! [`TraceRecorder`] wraps any [`Workload`] and records every access its
//! ticks issue; [`TraceReplayer`] is itself a [`Workload`] that replays
//! the stream. Because the driver's tick order is deterministic (fixed
//! round-robin inside [`tiersim::sim::ScenarioProgress::step_interval`])
//! the trace stores one flat record per tick — no thread ids, no
//! timestamps — and the replayed run is bit-identical to the recorded
//! one: same machine config, same manager, byte-identical reports.
//!
//! ## Format (`MTMTRACE`, version 1)
//!
//! Header: magic, version, recorded workload name, footprint, and an
//! embedded machine snapshot captured at the end of the recorded
//! workload's `setup` (before the manager ran `init`). Replay restores
//! the snapshot instead of re-running setup, so populate-time placement
//! is carried over exactly.
//!
//! Body: per tick, a varint record count, the records, then a varint
//! ops-completed delta. Records delta-encode virtual addresses from the
//! previous access (zigzag varint) and run-length-collapse constant-
//! stride runs (sequential scans shrink to a few bytes per page run).

use obs::wire::{Reader, Writer};
use tiersim::addr::VirtAddr;
use tiersim::machine::Machine;
use tiersim::sim::{round_ticks, run_scenario, MemEnv, MemoryManager, RunReport, SimEnv, Workload};

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: &[u8; 8] = b"MTMTRACE";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 1;

/// Per-tick record tags (stable wire values).
const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_COMPUTE: u8 = 2;
const TAG_RUN: u8 = 3;

/// One recorded memory operation.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TraceOp {
    Read(u64),
    Write(u64),
    Compute(f64),
}

/// One decoded trace operation, as [`TraceReplayer`] holds it. A
/// recorded run stays compressed, so decoding takes memory in proportion
/// to the trace's bytes, not to the accesses its runs expand into.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ReplayOp {
    /// `count` accesses of one kind: the first at `va`, each next one
    /// `stride` bytes (wrapping) past the previous. A single access has
    /// `count` 1.
    Access { write: bool, va: u64, stride: u64, count: u64 },
    Compute(f64),
}

/// A [`MemEnv`] shim that forwards to the real environment while
/// appending every operation to the tick buffer.
struct RecordingEnv<'a> {
    env: &'a mut dyn MemEnv,
    ops: &'a mut Vec<TraceOp>,
}

impl<'a> MemEnv for RecordingEnv<'a> {
    fn read(&mut self, tid: usize, va: VirtAddr) {
        self.ops.push(TraceOp::Read(va.0));
        self.env.read(tid, va);
    }

    fn write(&mut self, tid: usize, va: VirtAddr) {
        self.ops.push(TraceOp::Write(va.0));
        self.env.write(tid, va);
    }

    fn compute(&mut self, tid: usize, ns: f64) {
        self.ops.push(TraceOp::Compute(ns));
        self.env.compute(tid, ns);
    }

    fn machine(&mut self) -> &mut Machine {
        // Direct machine access during a tick is not replayable (its
        // effects are not in the op stream); Table 2 workloads only use
        // it in `setup`, which the snapshot covers.
        self.env.machine()
    }
}

/// Records a workload's access stream while running it unchanged.
///
/// The wrapper is transparent: a run through the recorder is
/// bit-identical to a run of the bare workload (same name, same
/// accesses, same reports). Call [`TraceRecorder::into_trace`] after the
/// run to serialize the trace.
pub struct TraceRecorder<W: Workload> {
    inner: W,
    snapshot: Option<Vec<u8>>,
    body: Writer,
    ticks: u64,
    last_va: u64,
    last_ops: u64,
    buf: Vec<TraceOp>,
}

impl<W: Workload> TraceRecorder<W> {
    /// Wraps `inner` for recording.
    pub fn new(inner: W) -> TraceRecorder<W> {
        TraceRecorder {
            inner,
            snapshot: None,
            body: Writer::new(),
            ticks: 0,
            last_va: 0,
            last_ops: 0,
            buf: Vec::new(),
        }
    }

    /// Serializes the recorded trace. Fails when setup never ran.
    pub fn into_trace(self) -> Result<Vec<u8>, String> {
        let snapshot = self.snapshot.ok_or("nothing recorded: setup never ran")?;
        let mut w = Writer::new();
        w.u64(u64::from_le_bytes(*TRACE_MAGIC));
        w.u32(TRACE_VERSION);
        w.str(&self.inner.name());
        w.varint(self.inner.footprint());
        w.bytes(&snapshot);
        w.varint(self.ticks);
        w.bytes(&self.body.into_bytes());
        Ok(w.into_bytes())
    }

    /// Encodes one tick's operations with delta + run-length compression.
    fn encode_tick(&mut self) {
        // Count wire records first (runs of >= 3 same-kind, same-delta
        // accesses collapse into one record).
        let mut deltas = Vec::with_capacity(self.buf.len());
        let mut va_cursor = self.last_va;
        for op in &self.buf {
            match *op {
                TraceOp::Read(va) | TraceOp::Write(va) => {
                    deltas.push(va.wrapping_sub(va_cursor) as i64);
                    va_cursor = va;
                }
                TraceOp::Compute(_) => deltas.push(0),
            }
        }
        let same = |a: &TraceOp, b: &TraceOp| {
            matches!(
                (a, b),
                (TraceOp::Read(_), TraceOp::Read(_)) | (TraceOp::Write(_), TraceOp::Write(_))
            )
        };
        let mut records: Vec<(usize, usize)> = Vec::new(); // (start, len)
        let mut i = 0;
        while i < self.buf.len() {
            let mut j = i + 1;
            if !matches!(self.buf[i], TraceOp::Compute(_)) {
                while j < self.buf.len()
                    && same(&self.buf[i], &self.buf[j])
                    && deltas[j] == deltas[i]
                {
                    j += 1;
                }
            }
            if j - i < 3 {
                j = i + 1;
            }
            records.push((i, j - i));
            i = j;
        }
        self.body.varint(records.len() as u64);
        for &(start, len) in &records {
            match self.buf[start] {
                TraceOp::Compute(ns) => {
                    self.body.u8(TAG_COMPUTE);
                    self.body.f64(ns);
                }
                TraceOp::Read(_) | TraceOp::Write(_) if len >= 3 => {
                    let kind =
                        if matches!(self.buf[start], TraceOp::Read(_)) { TAG_READ } else { TAG_WRITE };
                    self.body.u8(TAG_RUN);
                    self.body.u8(kind);
                    self.body.zigzag(deltas[start]);
                    self.body.varint(len as u64);
                }
                TraceOp::Read(_) => {
                    self.body.u8(TAG_READ);
                    self.body.zigzag(deltas[start]);
                }
                TraceOp::Write(_) => {
                    self.body.u8(TAG_WRITE);
                    self.body.zigzag(deltas[start]);
                }
            }
        }
        self.last_va = va_cursor;
        let ops = self.inner.ops_completed();
        self.body.varint(ops - self.last_ops);
        self.last_ops = ops;
        self.ticks += 1;
    }
}

/// Keeps the provided `round`, which calls `tick` per tick: the trace
/// stores one record per tick, so every tick must pass through the
/// recording environment.
impl<W: Workload> Workload for TraceRecorder<W> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        self.inner.setup(env);
        self.snapshot = Some(env.machine().save_state());
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.buf.clear();
        let mut renv = RecordingEnv { env, ops: &mut self.buf };
        self.inner.tick(&mut renv, tid);
        self.encode_tick();
    }

    fn footprint(&self) -> u64 {
        self.inner.footprint()
    }

    fn true_hot_ranges(&self) -> Vec<tiersim::addr::VaRange> {
        self.inner.true_hot_ranges()
    }

    fn end_of_interval(&mut self, interval: u64) {
        self.inner.end_of_interval(interval);
    }

    fn ops_completed(&self) -> u64 {
        self.inner.ops_completed()
    }
}

/// A decoded trace, replayable as a [`Workload`].
///
/// `setup` restores the embedded machine snapshot instead of re-running
/// the recorded workload's population phase; `tick` re-issues the
/// recorded operations in order. Ground-truth hot ranges are not carried
/// in the trace ([`Workload::true_hot_ranges`] returns empty — only the
/// fig1 accuracy experiment consumes them, never run reports).
pub struct TraceReplayer {
    name: String,
    footprint: u64,
    snapshot: Vec<u8>,
    ticks: Vec<(Vec<ReplayOp>, u64)>,
    cursor: usize,
    ops: u64,
}

impl TraceReplayer {
    /// Decodes a trace serialized by [`TraceRecorder::into_trace`].
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceReplayer, String> {
        let mut r = Reader::new(bytes);
        if r.u64()? != u64::from_le_bytes(*TRACE_MAGIC) {
            return Err("not an MTMTRACE file (bad magic)".to_string());
        }
        let version = r.u32()?;
        if version != TRACE_VERSION {
            return Err(format!(
                "unsupported trace version {version} (this build reads {TRACE_VERSION})"
            ));
        }
        let name = r.str()?;
        let footprint = r.varint()?;
        let snapshot = r.bytes()?.to_vec();
        let tick_count = r.varint()? as usize;
        let body = r.bytes()?;
        r.finish()?;

        // Every tick and every record takes at least two bytes, which
        // bounds the up-front reservations by the input's size.
        let mut b = Reader::new(body);
        let mut ticks = Vec::with_capacity(tick_count.min(body.len() / 2));
        let mut va_cursor = 0u64;
        let access = |write, va| ReplayOp::Access { write, va, stride: 0, count: 1 };
        for _ in 0..tick_count {
            let records = b.varint()? as usize;
            let mut ops = Vec::with_capacity(records.min(b.remaining() / 2));
            for _ in 0..records {
                match b.u8()? {
                    TAG_READ => {
                        va_cursor = va_cursor.wrapping_add(b.zigzag()? as u64);
                        ops.push(access(false, va_cursor));
                    }
                    TAG_WRITE => {
                        va_cursor = va_cursor.wrapping_add(b.zigzag()? as u64);
                        ops.push(access(true, va_cursor));
                    }
                    TAG_COMPUTE => ops.push(ReplayOp::Compute(b.f64()?)),
                    TAG_RUN => {
                        let write = match b.u8()? {
                            TAG_READ => false,
                            TAG_WRITE => true,
                            other => return Err(format!("bad run kind {other} in trace")),
                        };
                        let stride = b.zigzag()? as u64;
                        let count = b.varint()?;
                        let va = va_cursor.wrapping_add(stride);
                        va_cursor = va_cursor.wrapping_add(stride.wrapping_mul(count));
                        ops.push(ReplayOp::Access { write, va, stride, count });
                    }
                    other => return Err(format!("bad record tag {other} in trace")),
                }
            }
            let ops_delta = b.varint()?;
            ticks.push((ops, ops_delta));
        }
        b.finish()?;
        Ok(TraceReplayer { name, footprint, snapshot, ticks, cursor: 0, ops: 0 })
    }

    /// Number of recorded ticks.
    pub fn tick_count(&self) -> usize {
        self.ticks.len()
    }

    /// Re-issues recorded tick `self.cursor` on thread `tid` (see
    /// [`Workload::tick`]), generic over the environment so
    /// [`Workload::round`] issues its accesses as static calls.
    fn step<E: MemEnv + ?Sized>(&mut self, env: &mut E, tid: usize) {
        let Some((ops, delta)) = self.ticks.get(self.cursor) else {
            panic!(
                "trace exhausted after {} ticks: replay ran longer than the recorded run",
                self.ticks.len()
            );
        };
        for op in ops {
            match *op {
                ReplayOp::Access { write, mut va, stride, count } => {
                    for _ in 0..count {
                        if write {
                            env.write(tid, VirtAddr(va));
                        } else {
                            env.read(tid, VirtAddr(va));
                        }
                        va = va.wrapping_add(stride);
                    }
                }
                ReplayOp::Compute(ns) => env.compute(tid, ns),
            }
        }
        self.ops += delta;
        self.cursor += 1;
    }
}

impl Workload for TraceReplayer {
    fn name(&self) -> String {
        // The recorded name, verbatim: a replayed run's report must be
        // byte-identical to the live run's.
        self.name.clone()
    }

    fn setup(&mut self, env: &mut dyn MemEnv) {
        env.machine()
            .load_state(&self.snapshot)
            .unwrap_or_else(|e| panic!("trace snapshot does not fit this machine: {e}"));
    }

    fn tick(&mut self, env: &mut dyn MemEnv, tid: usize) {
        self.step(env, tid);
    }

    fn round(&mut self, env: &mut SimEnv<'_>, threads: usize) {
        round_ticks(env, threads, |t, tid| self.step(t, tid));
    }

    fn footprint(&self) -> u64 {
        self.footprint
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        w.varint(self.cursor as u64);
        w.varint(self.ops);
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let cursor = r.varint()? as usize;
        if cursor > self.ticks.len() {
            return Err(format!(
                "checkpoint cursor {cursor} exceeds trace length {}",
                self.ticks.len()
            ));
        }
        self.cursor = cursor;
        self.ops = r.varint()?;
        r.finish()
    }
}

/// Runs `workload` under `manager` for `intervals`, recording its access
/// stream. Returns the (unchanged) run report and the serialized trace.
pub fn record_run<W: Workload>(
    machine: &mut Machine,
    manager: &mut dyn MemoryManager,
    workload: W,
    intervals: u64,
) -> Result<(RunReport, Vec<u8>), String> {
    let mut recorder = TraceRecorder::new(workload);
    let report = run_scenario(machine, manager, &mut recorder, intervals);
    Ok((report, recorder.into_trace()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace whose one tick is a single read run of `count` accesses,
    /// 64 bytes apart. `claimed_ticks` is the header's tick count.
    fn run_trace(count: u64, claimed_ticks: u64) -> Vec<u8> {
        let mut body = Writer::new();
        body.varint(1);
        body.u8(TAG_RUN);
        body.u8(TAG_READ);
        body.zigzag(64);
        body.varint(count);
        body.varint(0);
        let mut w = Writer::new();
        w.u64(u64::from_le_bytes(*TRACE_MAGIC));
        w.u32(TRACE_VERSION);
        w.str("x");
        w.varint(0);
        w.bytes(&[]);
        w.varint(claimed_ticks);
        w.bytes(&body.into_bytes());
        w.into_bytes()
    }

    #[test]
    fn an_amplified_run_is_rejected_without_expanding_it() {
        // 28 bytes claiming two ticks but holding one, whose run expands
        // to 4,194,304 accesses: an eager decoder builds all of them
        // before it finds the missing tick.
        let bytes = run_trace(1 << 22, 2);
        assert_eq!(bytes.len(), 28);
        let Err(err) = TraceReplayer::from_bytes(&bytes) else { panic!("truncated trace accepted") };
        assert!(err.contains("truncated"), "unexpected error: {err}");
    }

    #[test]
    fn runs_decode_in_memory_proportional_to_the_input() {
        // A count of 2^40 would abort an eager decoder on allocation.
        for count in [1 << 22, 1 << 40] {
            let replayer = TraceReplayer::from_bytes(&run_trace(count, 1)).expect("well-formed trace");
            assert_eq!(replayer.tick_count(), 1);
            assert_eq!(
                replayer.ticks[0].0,
                vec![ReplayOp::Access { write: false, va: 64, stride: 64, count }]
            );
        }
    }
}
