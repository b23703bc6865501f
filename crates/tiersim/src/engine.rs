//! Deterministic intra-run work-packet executor.
//!
//! The per-run interval loop has three phases — access simulation,
//! profiling scan, migration batch — and the latter two contain read-only
//! sweeps over the page table (sampling accessed bits, collecting a
//! migration move-set, taking the sanitizer census). This module executes
//! such sweeps as *work packets*: contiguous index chunks pulled from a
//! shared atomic counter by a small `std::thread::scope` pool (the
//! harness's `runpool` maps whole runs over it too), with results
//! reduced **in packet order**. Because every packet is a pure function
//! of shared read-only state and the reduction order is fixed, the output
//! is byte-identical for any worker count — `MTM_RUN_WORKERS=1` and `=8`
//! must (and do) produce the same `results/ALL.txt`.
//!
//! The worker count comes from `MTM_RUN_WORKERS` (default 1: packets are
//! fine-grained and the harness's outer `MTM_JOBS` pool already owns the
//! cores; raising it helps single-run workflows like `bin/simulate` on
//! big machines). [`crate::machine::Machine`] snapshots the value at
//! construction and exposes `set_run_workers` so tests can pin a count
//! programmatically without racing on the process environment.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Worker count from `MTM_RUN_WORKERS`, read once per process. Always at
/// least 1; an unparsable value is ignored with a `warning:` line on
/// stderr (the verify gates grep for exactly that prefix).
pub fn workers() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("MTM_RUN_WORKERS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "warning: ignoring MTM_RUN_WORKERS={raw:?} (expected a positive integer)"
                );
                1
            }
        },
        Err(_) => 1,
    })
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

/// Maps `f` over `items` in `chunk`-sized packets and concatenates the
/// results in item order. Convenience wrapper over [`map_chunks`] for
/// element-wise read phases (e.g. sampling one accessed bit per planned
/// scan slot).
pub fn map_items<I, T, F>(workers: usize, items: &[I], chunk: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let parts = map_chunks(workers, items.len(), chunk, |r| {
        items[r].iter().map(&f).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for p in parts {
        out.extend(p);
    }
    out
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
    fn map_items_matches_serial_for_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for workers in [1, 2, 3, 8, 32] {
            let par = map_items(workers, &items, 16, |&x| x.wrapping_mul(x));
            assert_eq!(par, serial, "workers={workers}");
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
        let none: Vec<u8> = map_items(4, &[] as &[u8], 8, |&b| b);
        assert!(none.is_empty());
    }

    #[test]
    fn workers_is_at_least_one() {
        assert!(workers() >= 1);
    }
}
