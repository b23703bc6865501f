//! Deterministic ordered parallel map.
//!
//! [`map_items`] hands each item of a `Vec` to exactly one worker of a
//! small `std::thread::scope` pool and returns the results **in item
//! order**. Because every call of the mapped function is a pure function
//! of its item and shared read-only state, and the results come back in
//! a fixed order, the output is byte-identical for any worker count. The
//! harness's `runpool` maps whole runs over it, on a pool sized by
//! `MTM_JOBS` or the host's parallelism. R-MAT graph generation fills
//! its per-worker edge stores and builds its CSR buckets with it on the
//! host's parallelism alone (`available_parallelism`; deliberately no knob, since the graph
//! does not depend on the worker count).
//!
//! Nothing inside a run uses it: the profiler scan, move-set collection
//! and sanitizer census walk the page table serially on the run's own
//! thread (DESIGN.md §5e).

use std::sync::Mutex;

/// Host threads one simulated run uses: always 1, since every sweep
/// inside a run is serial. It reads no environment and is kept because
/// benchmark tooling prints it with each sample.
pub fn workers() -> usize {
    1
}

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results **in item order**. Each item moves to exactly one worker,
/// which takes the next item from a shared queue whenever it is free.
/// With one worker or one item the items run inline on the calling
/// thread, in order: the exact serial behavior.
///
/// `f` must be a pure function of its item and shared read-only state:
/// items run concurrently in arbitrary order, so any other side effect
/// would break the byte-identical-across-worker-counts guarantee. A
/// caller whose items share work through an atomic, as the R-MAT
/// generator's workers share packets, must itself make what it builds
/// from the results independent of which item did what. A
/// panic in `f` reaches the caller, with its own payload, once every
/// worker has stopped.
pub fn map_items<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let threads = workers.min(items.len());
    // Each item is queued with its own output slot, so a worker writes
    // its result in place and allocates nothing of its own. A result
    // buffer that a worker grew after an item ran would sit above the
    // item's freed temporaries in the worker's malloc arena and keep
    // them resident (+0.5 MB peak RSS on the `bfs_mtm` R-MAT build).
    let mut outs: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let queue = Mutex::new(items.into_iter().zip(outs.iter_mut()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    // A statement of its own, so the guard drops before
                    // `f` runs: no lock is held across an item.
                    let next = queue.lock().expect("item queue poisoned").next();
                    let Some((item, out)) = next else { break };
                    *out = Some(f(item));
                })
            })
            .collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    // Every slot is filled: the queue was drained, and a panic in any
    // worker was re-raised above.
    outs.into_iter().map(|t| t.expect("every item was mapped")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_keep_item_order() {
        for workers in [1, 2, 4, 7] {
            let out = map_items(workers, (0..100).collect(), |i: usize| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn every_item_is_mapped_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = map_items(4, (0..333u64).collect(), |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.iter().sum::<u64>(), 333 * 332 / 2);
        assert_eq!(hits.load(Ordering::Relaxed), 333);
    }

    #[test]
    fn no_items_yield_no_results() {
        let out: Vec<usize> = map_items(4, Vec::<usize>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map_items(3, (0..20).collect(), |i: u32| {
                assert!(i != 13, "item {i} refuses");
                i
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("item 13 refuses"), "the caller sees the item's own panic");
    }
}
