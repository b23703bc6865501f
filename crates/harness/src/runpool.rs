//! A dependency-free parallel executor for independent evaluation runs.
//!
//! The evaluation matrix is embarrassingly parallel: every `(manager,
//! workload, opts)` run owns its `Machine`, seeded RNG and manager, so
//! runs can execute on any thread in any order and still produce
//! bit-identical reports. [`map_parallel`] exploits that on the
//! simulator's ordered parallel map ([`tiersim::engine::map_items`]),
//! with results returned in item order so callers stay deterministic.
//!
//! The worker count defaults to `available_parallelism`; `MTM_JOBS`
//! (read with the other settings in `runs::env_knobs`) sets it, and
//! `MTM_JOBS=1` forces the serial path (useful for timing comparisons
//! and for byte-identical-output checks against the parallel path).
//! Tests pick a count with [`override_jobs`] instead.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The [`override_jobs`] count, or 0 for none.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of workers to use: the [`override_jobs`] count when one is
/// set, else `MTM_JOBS`, else `available_parallelism`. An explicit count
/// wins even above the core count — the runs are simulation work, so
/// oversubscription is harmless and this keeps the parallel code path
/// testable on small machines. Always at least 1.
pub fn jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::Relaxed) {
        0 => crate::runs::env_knobs().jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }),
        n => n,
    }
}

/// Sets the worker count for the whole process (at least 1), ahead of
/// `MTM_JOBS`; `None` clears it.
pub fn override_jobs(n: Option<usize>) {
    JOBS_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Maps `f` over `items` on up to [`jobs`] worker threads and returns
/// the results in item order. With one worker (or one item) the items run
/// inline on the calling thread, in order — the exact serial behavior.
///
/// A panicking call propagates its panic to the caller once every worker
/// has stopped.
pub fn map_parallel<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    tiersim::engine::map_items(jobs(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_keep_task_order() {
        let out = map_parallel((0..64).collect(), |i: u64| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = map_parallel((0..100).collect::<Vec<u32>>(), |_| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn heterogeneous_boxed_jobs_run() {
        let a = 7u64;
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            vec![Box::new(|| 1), Box::new(move || a), Box::new(|| 40 + 2)];
        assert_eq!(map_parallel(jobs, |job| job()), vec![1, 7, 42]);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<u8> = map_parallel(Vec::new(), |x: u8| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn the_override_sets_jobs_until_cleared() {
        let table = jobs();
        override_jobs(Some(table + 3));
        assert_eq!(jobs(), table + 3);
        override_jobs(Some(0));
        assert_eq!(jobs(), 1);
        override_jobs(None);
        assert_eq!(jobs(), table);
    }
}
