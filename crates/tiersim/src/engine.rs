//! Deterministic work-packet executor.
//!
//! [`map_chunks`] splits an index range into contiguous packets, pulls
//! them from a shared atomic counter on a small `std::thread::scope`
//! pool, and returns the results **in packet order**. Because every
//! packet is a pure function of shared read-only state and the reduction
//! order is fixed, the output is byte-identical for any worker count.
//! The harness's `runpool` maps whole runs over it, on a pool sized by
//! `MTM_JOBS` or the host's parallelism. R-MAT graph generation builds
//! its edge list and CSR with it on the host's parallelism alone
//! (`available_parallelism`; deliberately no knob, since the graph does
//! not depend on the worker count).
//!
//! Nothing inside a run uses it: the profiler scan, move-set collection
//! and sanitizer census walk the page table serially on the run's own
//! thread (DESIGN.md §5e).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Host threads one simulated run uses: always 1, since every sweep
/// inside a run is serial. It reads no environment and is kept because
/// benchmark tooling prints it with each sample.
pub fn workers() -> usize {
    1
}

/// Splits `0..len` into `chunk`-sized packets, maps each through `f` (on
/// up to `workers` threads), and returns the per-packet results **in
/// packet order** — the deterministic ordered reduction every caller
/// relies on. With one worker or one packet the packets run inline on
/// the calling thread, in order: the exact serial behavior.
///
/// `f` must be a pure function of shared read-only state: packets run
/// concurrently in arbitrary order, so any side effect would break the
/// byte-identical-across-worker-counts guarantee.
pub fn map_chunks<T, F>(workers: usize, len: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    let bounds = |ci: usize| (ci * chunk)..((ci + 1) * chunk).min(len);
    if workers <= 1 || n_chunks <= 1 {
        return (0..n_chunks).map(|ci| f(bounds(ci))).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_chunks) {
            scope.spawn(|| loop {
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= n_chunks {
                    break;
                }
                let out = f(bounds(ci));
                // lint:allow(panic-path): each chunk index is claimed exactly once, so no other worker can poison this slot's lock
                *slots[ci].lock().expect("packet slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        // lint:allow(panic-path): thread::scope re-raises worker panics before this line can run with an unfilled or poisoned slot
        .map(|s| s.into_inner().expect("packet slot poisoned").expect("worker filled every packet"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn packet_results_keep_index_order() {
        for workers in [1, 2, 4, 7] {
            let out = map_chunks(workers, 100, 7, |r| r.clone());
            let flat: Vec<usize> = out.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn every_index_is_mapped_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = map_chunks(4, 333, 10, |r| {
            hits.fetch_add(r.len() as u64, Ordering::Relaxed);
            r.len()
        });
        assert_eq!(out.iter().sum::<usize>(), 333);
        assert_eq!(hits.load(Ordering::Relaxed), 333);
    }

    #[test]
    fn empty_input_yields_no_packets() {
        let out: Vec<usize> = map_chunks(4, 0, 8, |r| r.len());
        assert!(out.is_empty());
    }
}
