//! Synthetic power-law graph generation (R-MAT) and CSR storage.
//!
//! The paper's BFS and SSSP run on a 0.9 B-node / 14 B-edge graph (Table
//! 2). We generate R-MAT graphs with the same average degree and traverse
//! them for real, so the simulated access stream has genuine graph-
//! traversal structure (hub pages hot, neighbor lists streamed). Generated
//! graphs are cached per-process because several experiments traverse the
//! same graph under different managers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use tiersim::engine::map_chunks;

use crate::rng::SplitMix64;

/// A graph in compressed-sparse-row form.
#[derive(Debug)]
pub struct Csr {
    /// Number of vertices.
    pub vertices: u32,
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    pub offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    pub neighbors: Vec<u32>,
}

impl Csr {
    /// Number of directed edges.
    pub fn edges(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// The adjacency list of `v`.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Pipelines the host loads of the next two vertices a traversal
    /// will expand, `queue[0]` and `queue[1]`. The offsets of `queue[0]`
    /// were requested one pop earlier, so reading them is usually a hit
    /// and locates its adjacency list, whose first line is requested
    /// now, together with the offsets of `queue[1]`.
    #[inline]
    pub(crate) fn prefetch_ahead(&self, queue: &VecDeque<u32>) {
        let mut ahead = queue.iter();
        if let Some(&next) = ahead.next() {
            let start = self.offsets[next as usize] as usize;
            crate::prefetch_read(self.neighbors.as_ptr().wrapping_add(start));
        }
        if let Some(&after) = ahead.next() {
            crate::prefetch_read(self.offsets.as_ptr().wrapping_add(after as usize));
        }
    }

    /// Deterministic pseudo-weight of the edge at position `pos` in
    /// `neighbors`, in `[1, 256]` (SSSP edge weights without storing them).
    pub fn weight_at(pos: u64) -> u64 {
        let mut x = pos.wrapping_mul(0x9e3779b97f4a7c15);
        x ^= x >> 33;
        (x % 256) + 1
    }
}

/// R-MAT parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Number of vertices (rounded up to a power of two internally).
    pub vertices: u32,
    /// Number of directed edges to generate.
    pub edges: u64,
    /// RNG seed.
    pub seed: u64,
}

/// R-MAT quadrant probabilities: the canonical (0.57, 0.19, 0.19, 0.05)
/// split (the fourth quadrant takes the remainder).
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// Edges per work packet: about a million RNG draws at paper-scale depths,
/// small enough to balance across workers, large enough to amortize the
/// per-packet allocation.
const CHUNK_EDGES: usize = 1 << 16;

/// The integer cut `ceil(t · 2⁵³)`. `unit_f64()` is exactly `m · 2⁻⁵³`
/// with `m = next_u64() >> 11`, so `unit_f64() < t` holds exactly when
/// `m < cut(t)`: the float compare becomes an integer one.
fn cut(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// The three quadrant cuts of one R-MAT level, from the same f64
/// expressions (`A`, `A + B`, `A + B + C`) a float compare would use.
#[derive(Clone, Copy)]
struct Cuts {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Cuts {
    fn new() -> Cuts {
        Cuts { a: cut(A), ab: cut(A + B), abc: cut(A + B + C) }
    }
}

/// Draws one edge's raw coordinates on the `2^levels` grid, consuming
/// exactly `levels` draws, top bit first. Branchless: per level the
/// `src` bit is `m ≥ K_{A+B}` and the `dst` bit is
/// `K_A ≤ m < K_{A+B}` or `m ≥ K_{A+B+C}`.
#[inline]
fn raw_edge(rng: &mut SplitMix64, levels: u32, cuts: Cuts) -> (u32, u32) {
    let (mut src, mut dst) = (0u32, 0u32);
    for _ in 0..levels {
        let m = rng.next_u64() >> 11;
        let src_bit = m >= cuts.ab;
        src = src << 1 | src_bit as u32;
        dst = dst << 1 | ((m >= cuts.a) & !src_bit | (m >= cuts.abc)) as u32;
    }
    (src, dst)
}

/// Folds a raw coordinate on the `2^levels` grid onto `[0, n)`:
/// `raw · n / 2^levels`, computed in u64 so `levels == 32` (any
/// `n > 2³¹`) needs no `1u32 << 32`.
fn fold(raw: u32, n: u32, levels: u32) -> u32 {
    ((raw as u64 * n as u64) >> levels) as u32
}

/// Generates an R-MAT graph with the canonical (0.57, 0.19, 0.19, 0.05)
/// partition probabilities, producing a skewed (power-law-ish) degree
/// distribution.
///
/// Edge `i` is a pure function of `(seed, i)`: it consumes draws
/// `i·levels .. (i+1)·levels` of `SplitMix64::new(seed)`, reached
/// directly with [`SplitMix64::at`]. Edges are generated in packets on
/// all host cores and scattered into CSR in edge order, so the graph is
/// identical for any core count — the worker count is deliberately not a
/// knob.
pub fn rmat(params: RmatParams) -> Csr {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    rmat_on(params, workers, CHUNK_EDGES)
}

/// [`rmat`] on `workers` threads with `chunk`-edge packets; the result
/// does not depend on either.
fn rmat_on(params: RmatParams, workers: usize, chunk: usize) -> Csr {
    let n = params.vertices.max(2);
    let levels = 32 - (n - 1).leading_zeros();
    let cuts = Cuts::new();
    let packets = map_chunks(workers, params.edges as usize, chunk, |r| {
        let mut rng = SplitMix64::at(params.seed, r.start as u64 * levels as u64);
        r.map(|_| {
            let (src, dst) = raw_edge(&mut rng, levels, cuts);
            (fold(src, n, levels), fold(dst, n, levels))
        })
        .collect::<Vec<(u32, u32)>>()
    });
    // Prefix sum of degrees, then scatter into CSR without sorting. The
    // scatter walks packets in edge order (each source's neighbors keep
    // generation order) and frees each packet once scattered instead of
    // concatenating them, so peak memory holds one edge list, not two.
    let mut offsets = vec![0u64; n as usize + 1];
    for &(src, _) in packets.iter().flatten() {
        offsets[src as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0u32; params.edges as usize];
    for packet in packets {
        for (src, dst) in packet {
            let at = &mut cursor[src as usize];
            neighbors[*at as usize] = dst;
            *at += 1;
        }
    }
    Csr { vertices: n, offsets, neighbors }
}

/// Returns a process-wide cached graph for the given parameters.
///
/// The cache is single-flight and parallel-run friendly: the map lock is
/// held only long enough to fetch the per-key slot, never across graph
/// generation, so concurrent runs generating *different* graphs proceed
/// in parallel while concurrent requests for the *same* graph block on
/// one generation (via `OnceLock::get_or_init`) instead of duplicating
/// it. Callers get their own `Arc` clone; no lock is held across a run.
pub fn cached_rmat(params: RmatParams) -> Arc<Csr> {
    type Slot = Arc<OnceLock<Arc<Csr>>>;
    static CACHE: OnceLock<Mutex<BTreeMap<(u32, u64, u64), Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = (params.vertices, params.edges, params.seed);
    let slot: Slot = {
        let mut guard = cache.lock().expect("graph cache poisoned");
        guard.entry(key).or_default().clone()
    };
    slot.get_or_init(|| Arc::new(rmat(params))).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        rmat(RmatParams { vertices: 1024, edges: 16_384, seed: 42 })
    }

    /// The serial float-and-branch generator `rmat` replaced: one stream
    /// of `unit_f64()` draws and a three-way compare per level. Kept as
    /// the oracle the counter-based generator must match bit for bit.
    fn rmat_reference(params: RmatParams) -> Csr {
        let n = params.vertices.max(2);
        let levels = 32 - (n - 1).leading_zeros();
        let side = 1u32 << levels;
        let mut rng = SplitMix64::new(params.seed);
        let mut degree = vec![0u64; n as usize + 1];
        let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(params.edges as usize);
        for _ in 0..params.edges {
            let (mut src, mut dst) = (0u32, 0u32);
            for level in (0..levels).rev() {
                let r = rng.unit_f64();
                let bit = 1u32 << level;
                if r < A {
                    // Top-left quadrant: no bits set.
                } else if r < A + B {
                    dst |= bit;
                } else if r < A + B + C {
                    src |= bit;
                } else {
                    src |= bit;
                    dst |= bit;
                }
            }
            let src = (src as u64 * n as u64 / side as u64) as u32;
            let dst = (dst as u64 * n as u64 / side as u64) as u32;
            degree[src as usize + 1] += 1;
            edge_list.push((src, dst));
        }
        let mut offsets = degree;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; params.edges as usize];
        for (src, dst) in edge_list {
            let at = cursor[src as usize];
            neighbors[at as usize] = dst;
            cursor[src as usize] += 1;
        }
        Csr { vertices: n, offsets, neighbors }
    }

    /// FNV-1a-64 over `offsets` then `neighbors`, little-endian.
    fn digest(g: &Csr) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let offsets = g.offsets.iter().flat_map(|o| o.to_le_bytes());
        let neighbors = g.neighbors.iter().flat_map(|v| v.to_le_bytes());
        for b in offsets.chain(neighbors) {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    }

    /// `Err` naming both digests when the graphs differ.
    fn same_csr(got: &Csr, want: &Csr) -> Result<(), String> {
        if got.vertices == want.vertices
            && got.offsets == want.offsets
            && got.neighbors == want.neighbors
        {
            return Ok(());
        }
        Err(format!("CSR digest {:016x} != reference {:016x}", digest(got), digest(want)))
    }

    #[test]
    fn paper_seed_graph_digest_is_pinned() {
        // Digest of the serial float-and-branch generator's output, taken
        // before it was replaced: the CSR must never change.
        let p = RmatParams { vertices: 65_536, edges: 1 << 20, seed: 0x6EA4 };
        assert_eq!(digest(&rmat(p)), 0xeee01878d82c7879);
        assert_eq!(digest(&rmat_reference(p)), 0xeee01878d82c7879);
    }

    #[test]
    fn prop_matches_reference_at_any_worker_count() {
        use proptest_lite::{gen, prop_check};
        // Small packets so even a few thousand edges span many packets
        // and the multi-worker runs really interleave.
        prop_check!(
            "rmat_matches_reference",
            12,
            (
                gen::u32_range(2, 100_001),
                gen::u64_range(0, 60_001),
                gen::u64_range(0, u64::MAX),
                gen::usize_range(1, 4_096),
            ),
            |&(vertices, edges, seed, chunk)| {
                let p = RmatParams { vertices, edges, seed };
                let want = rmat_reference(p);
                for workers in [1, 2, 3, 7] {
                    if let Err(e) = same_csr(&rmat_on(p, workers, chunk), &want) {
                        return Err(format!("workers={workers} chunk={chunk}: {e}"));
                    }
                }
            }
        );
    }

    #[test]
    fn matches_reference_at_boundary_vertex_counts() {
        // Powers of two, their neighbors and the minimum (2; 0 and 1 clamp
        // to it), which a uniform draw over 2..=100_000 rarely hits.
        for vertices in [0, 1, 2, 3, 4, 5, 1023, 1024, 1025, 65_536, 65_537, 100_000] {
            let p = RmatParams { vertices, edges: 5_000, seed: vertices as u64 ^ 0x5EED };
            let want = rmat_reference(p);
            for workers in [1, 2, 3, 7] {
                let got = rmat_on(p, workers, 333);
                assert_eq!(same_csr(&got, &want), Ok(()), "vertices={vertices} workers={workers}");
            }
        }
    }

    #[test]
    fn integer_cuts_agree_with_float_compares() {
        // (K−1)·2⁻⁵³ < T ≤ K·2⁻⁵³ means every 53-bit mantissa m satisfies
        // m·2⁻⁵³ < T exactly when m < K.
        let ulp = 1.0 / (1u64 << 53) as f64;
        for t in [A, A + B, A + B + C] {
            let k = cut(t);
            assert!(((k - 1) as f64 * ulp) < t, "cut {k} too high for {t}");
            assert!(t <= k as f64 * ulp, "cut {k} too low for {t}");
            for m in k - 2..k + 2 {
                assert_eq!(m as f64 * ulp < t, m < k, "m={m} t={t}");
            }
        }
    }

    #[test]
    fn fold_is_exact_up_to_u32_max() {
        for n in [2u32, (1 << 31) + 1, u32::MAX] {
            let levels = 32 - (n - 1).leading_zeros();
            let top = ((1u64 << levels) - 1) as u32;
            for raw in [0, 1, top / 3, top / 2, top - 1, top] {
                let want = (raw as u128 * n as u128 / (1u128 << levels)) as u32;
                let got = fold(raw, n, levels);
                assert_eq!(got, want, "raw={raw} n={n}");
                assert!(got < n, "raw={raw} n={n} folded to {got}");
            }
        }
    }

    #[test]
    fn zero_edges_gives_an_empty_well_formed_csr() {
        // No packets at all: map_chunks returns inline on the calling
        // thread, whatever the worker count.
        let g = rmat_on(RmatParams { vertices: 1000, edges: 0, seed: 3 }, 7, CHUNK_EDGES);
        assert_eq!(g.vertices, 1000);
        assert_eq!(g.offsets, vec![0u64; 1001]);
        assert!(g.neighbors.is_empty());
        assert_eq!(g.edges(), 0);
    }

    #[test]
    fn csr_is_well_formed() {
        let g = small();
        assert_eq!(g.vertices, 1024);
        assert_eq!(g.edges(), 16_384);
        assert_eq!(g.offsets.len(), 1025);
        assert_eq!(*g.offsets.last().unwrap(), 16_384);
        // Offsets are monotone.
        for w in g.offsets.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // All neighbors in range.
        assert!(g.neighbors.iter().all(|&v| v < 1024));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = small();
        let mut degrees: Vec<u64> = (0..g.vertices).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = degrees.iter().sum();
        let top: u64 = degrees.iter().take(g.vertices as usize / 20).sum();
        assert!(
            top as f64 > 0.25 * total as f64,
            "top 5 % of vertices hold a large edge share ({top}/{total})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);
    }

    #[test]
    fn cache_returns_same_instance() {
        let p = RmatParams { vertices: 256, edges: 1024, seed: 1 };
        let a = cached_rmat(p);
        let b = cached_rmat(p);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_is_single_flight_under_contention() {
        let p = RmatParams { vertices: 512, edges: 4096, seed: 99 };
        let handles: Vec<_> =
            (0..8).map(|_| std::thread::spawn(move || cached_rmat(p))).collect();
        let first = cached_rmat(p);
        for h in handles {
            assert!(Arc::ptr_eq(&h.join().expect("no panic"), &first));
        }
    }

    #[test]
    fn weights_are_bounded_and_stable() {
        for pos in 0..1000u64 {
            let w = Csr::weight_at(pos);
            assert!((1..=256).contains(&w));
            assert_eq!(w, Csr::weight_at(pos));
        }
    }
}
