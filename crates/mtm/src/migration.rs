//! `move_memory_regions()`: the adaptive (async/sync hybrid) migration
//! mechanism of Sec. 7.
//!
//! The asynchronous path arms write tracking over the region (reserved PTE
//! bit + one TLB flush), lets helper threads copy pages while the
//! application keeps running, and commits the remap at the next interval.
//! Only unmap/remap/page-table moves — and the write-tracking overhead —
//! land on the critical path. If any page of the region is written while
//! the copy is in flight, the mechanism switches to a synchronous copy:
//! the copy cost is paid once more, on the critical path, exactly like the
//! paper's re-copy on dirtiness.

use tiersim::addr::VaRange;
use tiersim::machine::Machine;
use tiersim::migrate::{
    best_copy_node, copy_cost_ns, relocate_range, relocate_with_retry, MigrateError,
    MigrateOutcome, RetryPolicy,
};
use tiersim::tier::ComponentId;

/// How many intervals a migrated range is left alone.
const COOLDOWN_INTERVALS: u64 = 6;

/// Total tries an async migration gets across commit attempts: a commit
/// that keeps failing transiently is aborted and re-enqueued (Nomad-style
/// transactional copy) at most this many times before being dropped.
const MAX_ASYNC_ATTEMPTS: u32 = 3;

/// A migration started asynchronously, awaiting commit.
#[derive(Clone, Copy, Debug)]
struct PendingAsync {
    range: VaRange,
    src: Option<ComponentId>,
    dst: ComponentId,
    watch_id: u64,
    /// Commit attempts so far (0 for a freshly queued migration).
    attempts: u32,
    /// Exact bytes this migration will land on `dst` — pages of the range
    /// not already resident there, from a residency walk at enqueue time.
    /// `range.len()` over-counts whenever the range straddles components
    /// or partially sits on the destination already.
    inbound: u64,
    /// Bytes charged to the enqueue ledger for this entry. Carried
    /// unchanged across abort re-enqueues so the conservation invariant
    /// (enqueued == pending + committed + dropped) holds by construction
    /// instead of double-counting across the abort boundary.
    ledger: u64,
    /// The range overlapped a recently migrated range when it was
    /// requested: committing this entry is ping-pong traffic.
    bounce: bool,
}

/// Mechanism statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationStats {
    /// Regions migrated asynchronously without a dirty write.
    pub async_clean: u64,
    /// Async migrations that switched to a synchronous copy on a write.
    pub switched_sync: u64,
    /// Migrations run synchronously from the start.
    pub sync_direct: u64,
    /// Migrations dropped because the destination filled meanwhile.
    pub dropped: u64,
    /// Drops due to a full destination.
    pub dropped_nospace: u64,
    /// Drops because no page in the range still needed moving.
    pub dropped_empty: u64,
    /// Drops after exhausting retry, deferral and re-enqueue budgets.
    pub dropped_transient: u64,
    /// Attempts re-issued after a transient failure (retry/backoff).
    pub retried: u64,
    /// Async commits aborted transactionally and re-enqueued.
    pub aborted: u64,
    /// Sync migrations downgraded to async after retry exhaustion.
    pub deferred: u64,
    /// Total bytes migrated by this engine.
    pub bytes: u64,
    /// Ledger: exact bytes charged when entries joined the async queue.
    pub enqueued_bytes: u64,
    /// Ledger: bytes settled as committed when their entry left the queue.
    pub committed_bytes: u64,
    /// Ledger: bytes settled as dropped when their entry left the queue.
    pub dropped_bytes: u64,
}

/// The migration engine owned by the MTM daemon.
#[derive(Debug)]
pub struct MigrationEngine {
    copy_threads: u32,
    async_enabled: bool,
    pending: Vec<PendingAsync>,
    stats: MigrationStats,
    retry: RetryPolicy,
    /// Recently migrated ranges with the interval they were queued in.
    history: std::collections::VecDeque<(u64, VaRange)>,
    now_interval: u64,
}

impl MigrationEngine {
    /// Creates an engine with the default retry/backoff policy.
    pub fn new(copy_threads: u32, async_enabled: bool) -> MigrationEngine {
        MigrationEngine {
            copy_threads,
            async_enabled,
            pending: Vec::new(),
            stats: MigrationStats::default(),
            retry: RetryPolicy::default(),
            history: std::collections::VecDeque::new(),
            now_interval: 0,
        }
    }

    /// Advances the engine's interval clock and expires old history.
    pub fn note_interval(&mut self, interval: u64) {
        self.now_interval = interval;
        while let Some(&(at, _)) = self.history.front() {
            if at + COOLDOWN_INTERVALS < interval {
                self.history.pop_front();
            } else {
                break;
            }
        }
    }

    /// True if `range` overlaps a migration from the last few intervals —
    /// the policy leaves such ranges alone (cooldown against ping-pong).
    pub fn recently_migrated(&self, range: VaRange) -> bool {
        self.history.iter().any(|&(_, r)| r.overlaps(range))
    }

    /// Statistics so far.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Bytes already committed (by pending migrations) against `component`
    /// — space the policy must treat as reserved. Deliberately the whole
    /// range length, an upper bound: capacity decisions stay conservative
    /// (a page that turns out to be resident already simply frees slack at
    /// commit time). The *exact* figures from the enqueue-time residency
    /// walk live in the byte ledger ([`MigrationStats::enqueued_bytes`]),
    /// which has to balance, not bound.
    pub fn reserved_bytes(&self, component: ComponentId) -> u64 {
        self.pending.iter().filter(|p| p.dst == component).map(|p| p.range.len()).sum()
    }

    /// Bytes that pending migrations will free on `component` (their
    /// majority source). Pending demotions make room for promotions queued
    /// after them, since the queue commits in order. Range-length based,
    /// like [`MigrationEngine::reserved_bytes`].
    pub fn outgoing_bytes(&self, component: ComponentId) -> u64 {
        self.pending
            .iter()
            .filter(|p| p.src == Some(component))
            .map(|p| p.range.len())
            .sum()
    }

    /// Ledger bytes still sitting in the queue. The engine maintains
    /// `enqueued_bytes == pending_ledger_bytes() + committed_bytes +
    /// dropped_bytes` across arbitrary enqueue/abort/commit/drop
    /// sequences.
    pub fn pending_ledger_bytes(&self) -> u64 {
        self.pending.iter().map(|p| p.ledger).sum()
    }

    /// Number of in-flight asynchronous migrations.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True if `range` overlaps a migration that is already in flight —
    /// the policy must not select it again (its residency still shows the
    /// source until the commit).
    pub fn is_pending(&self, range: VaRange) -> bool {
        self.pending.iter().any(|p| p.range.overlaps(range))
    }

    /// Serializes the engine's dynamic state (checkpoint support). The
    /// retry policy and the copy-thread/async configuration are not
    /// saved: they come from [`crate::MtmConfig`] when the engine is
    /// rebuilt at restore time.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.pending.len() as u64);
        for p in &self.pending {
            p.range.save(w);
            match p.src {
                Some(c) => {
                    w.bool(true);
                    w.u16(c);
                }
                None => w.bool(false),
            }
            w.u16(p.dst);
            w.u64(p.watch_id);
            w.u32(p.attempts);
            w.varint(p.inbound);
            w.varint(p.ledger);
            w.bool(p.bounce);
        }
        let s = &self.stats;
        for v in [
            s.async_clean,
            s.switched_sync,
            s.sync_direct,
            s.dropped,
            s.dropped_nospace,
            s.dropped_empty,
            s.dropped_transient,
            s.retried,
            s.aborted,
            s.deferred,
            s.bytes,
            s.enqueued_bytes,
            s.committed_bytes,
            s.dropped_bytes,
        ] {
            w.varint(v);
        }
        w.varint(self.history.len() as u64);
        for &(at, range) in &self.history {
            w.varint(at);
            range.save(w);
        }
        w.varint(self.now_interval);
    }

    /// Restores the dynamic state saved with [`MigrationEngine::save`]
    /// into an engine freshly built from the same configuration.
    pub fn load(&mut self, r: &mut obs::wire::Reader) -> Result<(), String> {
        let count = r.varint()? as usize;
        let mut pending = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let range = VaRange::load(r)?;
            let src = if r.bool()? { Some(r.u16()?) } else { None };
            pending.push(PendingAsync {
                range,
                src,
                dst: r.u16()?,
                watch_id: r.u64()?,
                attempts: r.u32()?,
                inbound: r.varint()?,
                ledger: r.varint()?,
                bounce: r.bool()?,
            });
        }
        self.pending = pending;
        self.stats = MigrationStats {
            async_clean: r.varint()?,
            switched_sync: r.varint()?,
            sync_direct: r.varint()?,
            dropped: r.varint()?,
            dropped_nospace: r.varint()?,
            dropped_empty: r.varint()?,
            dropped_transient: r.varint()?,
            retried: r.varint()?,
            aborted: r.varint()?,
            deferred: r.varint()?,
            bytes: r.varint()?,
            enqueued_bytes: r.varint()?,
            committed_bytes: r.varint()?,
            dropped_bytes: r.varint()?,
        };
        self.history.clear();
        for _ in 0..r.varint()? {
            let at = r.varint()?;
            let range = VaRange::load(r)?;
            self.history.push_back((at, range));
        }
        self.now_interval = r.varint()?;
        Ok(())
    }

    /// Starts migrating `range` to `dst`.
    ///
    /// With async enabled this arms write tracking and defers the move to
    /// the next [`MigrationEngine::resolve_pending`]; otherwise the region
    /// moves immediately with the full cost on the critical path.
    pub fn migrate(&mut self, m: &mut Machine, range: VaRange, dst: ComponentId) {
        // Ping-pong detection must run before this request joins the
        // history, or every migration would trivially "bounce" off itself.
        let bounce = self.recently_migrated(range);
        self.history.push_back((self.now_interval, range));
        if self.async_enabled {
            self.enqueue_async(m, range, dst, 0, bounce, None);
        } else {
            let (res, report) =
                relocate_with_retry(m, range, dst, self.copy_threads, false, self.retry);
            self.stats.retried += report.retries as u64;
            match res {
                Ok(out) => {
                    m.charge_migration(out.breakdown.total_ns() + report.backoff_ns);
                    self.stats.sync_direct += 1;
                    self.stats.bytes += out.bytes;
                    m.obs_mut().reg.counter_add(obs::names::SYNC_DIRECT, 1);
                    m.record_event(obs::EventKind::SyncDirect { bytes: out.bytes, dst });
                    if bounce {
                        m.obs_mut().reg.counter_add(obs::names::WASTED_MIGRATION_BYTES, out.bytes);
                    }
                }
                Err(e) if e.is_transient() => {
                    // Graceful degradation: the retry budget is spent, so
                    // instead of dropping the work, downgrade to an
                    // asynchronous attempt committed at a later interval.
                    m.charge_migration(report.backoff_ns);
                    self.stats.deferred += 1;
                    m.obs_mut().reg.counter_add(obs::names::MIGRATION_DEFERRALS, 1);
                    m.record_event(obs::EventKind::MigrationDeferred { bytes: range.len(), dst });
                    self.enqueue_async(m, range, dst, 1, bounce, None);
                }
                Err(e) => {
                    m.charge_migration(report.backoff_ns);
                    self.drop_migration(m, e, 0);
                }
            }
        }
    }

    /// Arms write tracking and queues an asynchronous migration.
    ///
    /// `carried_ledger` is `None` for a migration entering the queue for
    /// the first time (its exact inbound bytes are charged to the enqueue
    /// ledger) and `Some` for an abort re-enqueue, which carries its
    /// original charge forward instead of charging again.
    fn enqueue_async(
        &mut self,
        m: &mut Machine,
        range: VaRange,
        dst: ComponentId,
        attempts: u32,
        bounce: bool,
        carried_ledger: Option<u64>,
    ) {
        let src = crate::residency::majority_component(m, range);
        let mut inbound = 0;
        m.page_table().for_each_mapped_in(range, |_, pte, size| {
            if pte.frame().component() != dst {
                inbound += size.bytes();
            }
        });
        let ledger = carried_ledger.unwrap_or(inbound);
        if carried_ledger.is_none() {
            self.stats.enqueued_bytes += ledger;
        }
        let watch_id = m.arm_write_watch(range);
        self.pending.push(PendingAsync {
            range,
            src,
            dst,
            watch_id,
            attempts,
            inbound,
            ledger,
            bounce,
        });
    }

    /// Records a permanently dropped migration. `ledger_bytes` settles the
    /// queue ledger for entries that were pending (0 for sync-path drops,
    /// which never joined the queue).
    fn drop_migration(&mut self, m: &mut Machine, e: MigrateError, ledger_bytes: u64) {
        self.stats.dropped += 1;
        self.stats.dropped_bytes += ledger_bytes;
        match e {
            MigrateError::NoSpace(_) => self.stats.dropped_nospace += 1,
            MigrateError::NothingMapped => self.stats.dropped_empty += 1,
            _ if e.is_transient() => self.stats.dropped_transient += 1,
            _ => {}
        }
        m.obs_mut().reg.counter_add(obs::names::MIGRATIONS_DROPPED, 1);
        if e.is_transient() {
            m.obs_mut().reg.counter_add(obs::names::MIGRATIONS_DROPPED_TRANSIENT, 1);
        }
        m.record_event(obs::EventKind::MigrationDropped { reason: drop_reason(e) });
    }

    /// Commits every pending asynchronous migration (call at the start of
    /// each interval hook). Clean regions pay only unmap/remap/page-table
    /// cost; dirtied regions additionally pay one synchronous copy.
    pub fn resolve_pending(&mut self, m: &mut Machine) {
        for p in std::mem::take(&mut self.pending) {
            let dirty = m.take_watch(p.watch_id);
            let (res, report) =
                relocate_with_retry(m, p.range, p.dst, self.copy_threads, false, self.retry);
            self.stats.retried += report.retries as u64;
            m.charge_migration(report.backoff_ns);
            match res {
                Ok(out) => {
                    let b = out.breakdown;
                    let mut critical = b.unmap_ns + b.remap_ns + b.pt_ns;
                    if dirty {
                        // Switched to the synchronous copy: the exposed
                        // re-copy runs with minimal parallelism (the main
                        // thread plus one helper; the wp-fault cost was
                        // already charged).
                        let src = p.src.unwrap_or(p.dst);
                        let n = best_copy_node(m, src, p.dst);
                        critical += copy_cost_ns(m, n, src, p.dst, out.bytes, 2);
                        self.stats.switched_sync += 1;
                        m.obs_mut().reg.counter_add(obs::names::SWITCHED_SYNC, 1);
                        m.record_event(obs::EventKind::SwitchedSync { bytes: out.bytes, dst: p.dst });
                    } else {
                        self.stats.async_clean += 1;
                        m.obs_mut().reg.counter_add(obs::names::ASYNC_CLEAN, 1);
                        m.record_event(obs::EventKind::AsyncClean { bytes: out.bytes, dst: p.dst });
                    }
                    m.charge_migration(critical);
                    self.stats.bytes += out.bytes;
                    self.stats.committed_bytes += p.ledger;
                    if p.bounce {
                        m.obs_mut().reg.counter_add(obs::names::WASTED_MIGRATION_BYTES, out.bytes);
                    }
                }
                Err(e) if e.is_transient() && p.attempts + 1 < MAX_ASYNC_ATTEMPTS => {
                    // Nomad-style transactional abort: nothing moved (the
                    // fault gate fires before any mutation), so the copy
                    // is simply abandoned and the migration re-enqueued
                    // for the next commit point with fresh write tracking.
                    // The re-enqueue carries the entry's original ledger
                    // charge so bytes are not double-counted across the
                    // abort boundary.
                    self.stats.aborted += 1;
                    m.obs_mut().reg.counter_add(obs::names::MIGRATION_ABORTS, 1);
                    m.record_event(obs::EventKind::MigrationAborted {
                        bytes: p.inbound,
                        dst: p.dst,
                    });
                    self.enqueue_async(m, p.range, p.dst, p.attempts + 1, p.bounce, Some(p.ledger));
                }
                Err(e) => self.drop_migration(m, e, p.ledger),
            }
        }
        // With the sanitizer armed, every commit point re-verifies the
        // whole machine: the async queue is the one place where watches,
        // retries, aborts and deferrals interleave.
        if m.checking() {
            m.verify_consistency("resolve_pending commit");
        }
    }
}

/// Telemetry label for a migration drop cause.
fn drop_reason(e: MigrateError) -> &'static str {
    match e {
        MigrateError::NoSpace(_) => "nospace",
        MigrateError::NothingMapped => "empty",
        MigrateError::PageBusy => "page-busy",
        MigrateError::TransientAllocFail => "alloc-fail",
        _ => "other",
    }
}

/// One-shot `move_memory_regions()` for micro-benchmarks (Figs. 3 and 11):
/// migrates `range` to `dst` and reports the full step breakdown plus the
/// critical-path portion, under an access pattern that did (or did not)
/// write the region during the asynchronous copy.
pub fn move_memory_regions_once(
    m: &mut Machine,
    range: VaRange,
    dst: ComponentId,
    copy_threads: u32,
    written_during_copy: bool,
) -> Result<(MigrateOutcome, f64), MigrateError> {
    let watch_id = m.arm_write_watch(range);
    let src = crate::residency::majority_component(m, range);
    let mut out = match relocate_range(m, range, dst, copy_threads, false) {
        Ok(out) => out,
        Err(e) => {
            let _ = m.take_watch(watch_id);
            return Err(e);
        }
    };
    let dirty_cost = if written_during_copy { m.cfg.costs.wp_fault_ns } else { 0.0 };
    out.breakdown.track_ns += m.cfg.costs.tlb_flush_ns + dirty_cost;
    let _ = m.take_watch(watch_id);
    let b = out.breakdown;
    let mut critical = b.unmap_ns + b.remap_ns + b.pt_ns + b.track_ns;
    if written_during_copy {
        // The exposed synchronous re-copy runs with minimal parallelism.
        let src = src.unwrap_or(dst);
        let n = best_copy_node(m, src, dst);
        critical += copy_cost_ns(m, n, src, dst, out.bytes, 2);
    }
    m.charge_migration(critical);
    Ok((out, critical))
}

/// The Nimble baseline mechanism: fully synchronous like `move_pages()`
/// but with multi-threaded parallel copy and no THP splitting.
pub fn nimble_move(
    m: &mut Machine,
    range: VaRange,
    dst: ComponentId,
    copy_threads: u32,
) -> Result<MigrateOutcome, MigrateError> {
    let out = relocate_range(m, range, dst, copy_threads, false)?;
    m.charge_migration(out.breakdown.total_ns());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::{VirtAddr, PAGE_SIZE_2M};
    use tiersim::machine::{AccessKind, MachineConfig};
    use tiersim::tier::tiny_two_tier;

    fn machine() -> Machine {
        let topo = tiny_two_tier(16 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        let r = VaRange::from_len(VirtAddr(0), 4 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m.prefault_range(r, &[0]).unwrap();
        m
    }

    #[test]
    fn async_clean_path_defers_and_commits() {
        let mut m = machine();
        let mut e = MigrationEngine::new(4, true);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        e.migrate(&mut m, range, 1);
        assert_eq!(e.in_flight(), 1);
        assert_eq!(e.reserved_bytes(1), PAGE_SIZE_2M);
        // Page still on the source while the copy is in flight.
        assert_eq!(m.component_of(VirtAddr(0)), Some(0));
        let migration_before = m.breakdown().migration_ns;
        e.resolve_pending(&mut m);
        assert_eq!(m.component_of(VirtAddr(0)), Some(1));
        assert_eq!(e.stats().async_clean, 1);
        assert_eq!(e.stats().switched_sync, 0);
        let exposed = m.breakdown().migration_ns - migration_before;
        // The exposed cost excludes the copy: it must be far below a full
        // synchronous move of 2 MB over a 5 GB/s link (> 400 us).
        assert!(exposed < 200_000.0, "exposed = {exposed}");
    }

    #[test]
    fn write_during_flight_switches_to_sync() {
        let mut m = machine();
        let mut e = MigrationEngine::new(4, true);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        e.migrate(&mut m, range, 1);
        // The application writes the region while the copy is in flight.
        m.access(0, VirtAddr(0x3000), AccessKind::Write);
        e.resolve_pending(&mut m);
        assert_eq!(e.stats().switched_sync, 1);
        assert_eq!(e.stats().async_clean, 0);
        // The copy cost landed on the critical path.
        assert!(m.breakdown().migration_ns > 300_000.0);
    }

    #[test]
    fn sync_mode_moves_immediately() {
        let mut m = machine();
        let mut e = MigrationEngine::new(4, false);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        e.migrate(&mut m, range, 1);
        assert_eq!(m.component_of(VirtAddr(0)), Some(1));
        assert_eq!(e.stats().sync_direct, 1);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn full_destination_drops_pending() {
        let topo = tiny_two_tier(16 * PAGE_SIZE_2M, 4 * PAGE_SIZE_2M);
        let mut m = Machine::new(MachineConfig::new(topo, 1));
        let r = VaRange::from_len(VirtAddr(0), 6 * PAGE_SIZE_2M);
        m.mmap("a", r, false);
        m.prefault_range(r, &[0]).unwrap();
        let mut e = MigrationEngine::new(4, true);
        e.migrate(&mut m, VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), 1);
        e.migrate(&mut m, VaRange::from_len(VirtAddr(2 * PAGE_SIZE_2M), 2 * PAGE_SIZE_2M), 1);
        e.migrate(&mut m, VaRange::from_len(VirtAddr(4 * PAGE_SIZE_2M), 2 * PAGE_SIZE_2M), 1);
        e.resolve_pending(&mut m);
        assert_eq!(e.stats().dropped, 1, "third region cannot fit");
        assert_eq!(e.stats().async_clean, 2);
        // Every drop path disarms its write watch: a leaked watch would
        // keep taxing writes (and pin tracking bits) for the whole run.
        assert_eq!(m.active_watches(), 0, "no watch survives the commit point");
        // The queue ledger settled every entry exactly once.
        let s = e.stats();
        assert_eq!(s.enqueued_bytes, 6 * PAGE_SIZE_2M);
        assert_eq!(s.committed_bytes, 4 * PAGE_SIZE_2M);
        assert_eq!(s.dropped_bytes, 2 * PAGE_SIZE_2M);
        assert_eq!(e.pending_ledger_bytes(), 0);
    }

    #[test]
    fn ledger_is_exact_while_capacity_reservation_stays_an_upper_bound() {
        let mut m = machine();
        // Second half of the range is already resident on the destination:
        // only the first half will actually land there.
        let lo = VaRange::from_len(VirtAddr(4 * PAGE_SIZE_2M), PAGE_SIZE_2M);
        let hi = VaRange::from_len(VirtAddr(5 * PAGE_SIZE_2M), PAGE_SIZE_2M);
        m.mmap("b", VaRange { start: lo.start, end: hi.end }, false);
        m.prefault_range(lo, &[0]).unwrap();
        m.prefault_range(hi, &[1]).unwrap();
        let mut e = MigrationEngine::new(4, true);
        e.migrate(&mut m, VaRange { start: lo.start, end: hi.end }, 1);
        // Capacity reservation is deliberately the whole range length (a
        // conservative upper bound for admission decisions)...
        assert_eq!(e.reserved_bytes(1), 2 * PAGE_SIZE_2M);
        // ...while the byte ledger charges exactly what will move.
        assert_eq!(e.stats().enqueued_bytes, PAGE_SIZE_2M, "only the half not already there");
        assert_eq!(e.pending_ledger_bytes(), PAGE_SIZE_2M);
        e.resolve_pending(&mut m);
        assert_eq!(e.stats().committed_bytes, PAGE_SIZE_2M);
        assert_eq!(e.stats().bytes, PAGE_SIZE_2M);
        assert_eq!(e.pending_ledger_bytes(), 0);
    }

    #[test]
    fn abort_reenqueue_does_not_double_count_the_ledger() {
        let plan = faultsim::FaultPlan::parse("busy=1").unwrap();
        let mut m = machine();
        let mut e = MigrationEngine::new(4, true);
        let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
        e.migrate(&mut m, range, 1);
        assert_eq!(e.stats().enqueued_bytes, PAGE_SIZE_2M);
        m.install_faults(plan, 7);
        // Every commit attempt fails: abort + re-enqueue, then a final
        // transient drop once MAX_ASYNC_ATTEMPTS is exhausted.
        for _ in 0..4 {
            e.resolve_pending(&mut m);
            let s = e.stats();
            assert_eq!(
                s.enqueued_bytes,
                e.pending_ledger_bytes() + s.committed_bytes + s.dropped_bytes,
                "conservation must hold across every abort boundary"
            );
        }
        let s = e.stats();
        assert_eq!(s.enqueued_bytes, PAGE_SIZE_2M, "charged once, not per attempt");
        assert_eq!(s.dropped_bytes, PAGE_SIZE_2M);
        assert_eq!(s.committed_bytes, 0);
        assert!(s.aborted >= 1);
        assert_eq!(e.in_flight(), 0);
        assert_eq!(m.active_watches(), 0, "aborts and drops both disarm watches");
    }

    #[test]
    fn microbench_breakdown_async_vs_dirty() {
        let mut m = machine();
        let (clean, crit_clean) = move_memory_regions_once(
            &mut m,
            VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M),
            1,
            4,
            false,
        )
        .unwrap();
        let (dirty, crit_dirty) = move_memory_regions_once(
            &mut m,
            VaRange::from_len(VirtAddr(PAGE_SIZE_2M), PAGE_SIZE_2M),
            1,
            4,
            true,
        )
        .unwrap();
        assert!(crit_clean < clean.breakdown.total_ns(), "async hides copy+alloc");
        assert!(crit_dirty > crit_clean, "dirty path pays the copy");
        assert!(dirty.breakdown.track_ns > clean.breakdown.track_ns);
    }

    #[test]
    fn nimble_charges_everything() {
        let mut m = machine();
        let out =
            nimble_move(&mut m, VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), 1, 4).unwrap();
        assert_eq!(m.breakdown().migration_ns, out.breakdown.total_ns());
    }
}
