//! A dependency-free parallel executor for independent evaluation runs.
//!
//! The evaluation matrix is embarrassingly parallel: every `(manager,
//! workload, opts)` run owns its `Machine`, seeded RNG and manager, so
//! runs can execute on any thread in any order and still produce
//! bit-identical reports. [`map_parallel`] exploits that on the same
//! scoped-thread pool the simulator's packet engine uses
//! ([`tiersim::engine::map_chunks`]), one item per packet, with results
//! returned in item order so callers stay deterministic.
//!
//! The worker count defaults to `available_parallelism` and is overridden
//! by the `MTM_JOBS` environment variable when set; `MTM_JOBS=1` forces
//! the serial path (useful for timing comparisons and for
//! byte-identical-output checks against the parallel path).

use std::sync::Mutex;

/// Number of workers to use: `available_parallelism` by default, or
/// exactly `MTM_JOBS` when that environment variable is set (an explicit
/// job count wins even above the core count — the runs are simulation
/// work, so oversubscription is harmless and this keeps the parallel
/// code path testable on small machines). Always at least 1. An
/// unparsable `MTM_JOBS` is ignored with a `warning:` line on stderr.
pub fn jobs() -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match std::env::var("MTM_JOBS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring MTM_JOBS={raw:?} (expected a positive integer)");
                hw
            }
        },
        Err(_) => hw,
    }
}

/// Maps `f` over `items` on up to [`jobs`] worker threads and returns
/// the results in item order. With one worker (or one item) the items run
/// inline on the calling thread, in order — the exact serial behavior.
///
/// A panicking call propagates its panic to the caller after all workers
/// have stopped picking up new items.
pub fn map_parallel<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    tiersim::engine::map_chunks(jobs(), slots.len(), 1, |r| {
        let item = slots[r.start].lock().expect("item slot poisoned").take();
        f(item.expect("each item is taken once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
}
