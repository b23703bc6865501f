//! Synthetic power-law graph generation (R-MAT) and CSR storage.
//!
//! The paper's BFS and SSSP run on a 0.9 B-node / 14 B-edge graph (Table
//! 2). We generate R-MAT graphs with the same average degree and traverse
//! them for real, so the simulated access stream has genuine graph-
//! traversal structure (hub pages hot, neighbor lists streamed). Generated
//! graphs are cached per-process because several experiments traverse the
//! same graph under different managers.

use std::collections::{BTreeMap, VecDeque};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tiersim::engine::map_items;

use crate::rng::{cut, SplitMix64};

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
/// small enough to balance across workers, large enough to amortize each
/// packet's per-bucket bookkeeping.
const CHUNK_EDGES: usize = 1 << 16;

/// Edges one call of the lane kernel generates: eight independent
/// SplitMix64 streams, one 512-bit register of states.
const LANES: usize = 8;

/// The CSR build splits sources into `2^BUCKET_SPLIT_BITS` buckets by
/// their top bits, so one bucket's cursors and the lines it is writing
/// stay cache-resident and the skewed first bucket (≈0.76⁶ of the edges)
/// is small enough to balance across workers.
const BUCKET_SPLIT_BITS: u32 = 6;

/// Widest source bucket, in bits: a bucket-local source is a `u16`.
const MAX_BUCKET_BITS: u32 = 16;

/// The three quadrant cuts of one R-MAT level, from the same f64
/// expressions (`A`, `A + B`, `A + B + C`) a float compare would use,
/// shifted left by 11 so they compare against the raw draw `z`:
/// `m = z >> 11 ≥ K` exactly when `z ≥ K << 11`, because every cut is
/// below `2⁵³`.
#[derive(Clone, Copy)]
struct Cuts {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Cuts {
    fn new() -> Cuts {
        let raw = |t: f64| {
            let k = cut(t);
            debug_assert!(k < 1 << 53, "cut {k} of {t} does not fit a draw");
            k << 11
        };
        Cuts { a: raw(A), ab: raw(A + B), abc: raw(A + B + C) }
    }
}

/// Everything that fixes one graph's edges: edge `i` is a pure function
/// of `(grid, i)`.
#[derive(Clone, Copy)]
struct Grid {
    seed: u64,
    /// Vertex count, at least 2.
    n: u32,
    /// `ceil(log2 n)`: draws per edge.
    levels: u32,
    cuts: Cuts,
}

impl Grid {
    fn new(params: RmatParams) -> Grid {
        let n = params.vertices.max(2);
        Grid { seed: params.seed, n, levels: 32 - (n - 1).leading_zeros(), cuts: Cuts::new() }
    }
}

/// The lane kernel: edges `first .. first + LANES`, each from its own
/// `levels` draws, top level first. Per level the quadrant index
/// `q = [z ≥ K_A] + [z ≥ K_{A+B}] + [z ≥ K_{A+B+C}]` (A, B, C, D = 0..3)
/// holds the `src` bit as `q >> 1` and the `dst` bit as `q & 1`; it is
/// appended to one accumulator per lane, so lane `l`'s result carries
/// the raw `src` coordinate in its odd bits and `dst` in its even bits
/// (see [`raw_src_dst`]). One accumulator rather than a `src` and a
/// `dst` one: with two, the portable compilation's eight lanes spill
/// registers and run slower than a one-edge-at-a-time loop. Plain loops
/// over the lanes, which the compiler vectorizes; always inlined so each
/// compilation of [`fill`] gets its own copy.
#[inline(always)]
fn lane_kernel(grid: Grid, first: u64) -> [u64; LANES] {
    let levels = grid.levels as u64;
    let mut lanes: [SplitMix64; LANES] =
        std::array::from_fn(|l| SplitMix64::at(grid.seed, (first + l as u64) * levels));
    let mut quadrants = [0u64; LANES];
    for _ in 0..grid.levels {
        for l in 0..LANES {
            let z = lanes[l].next_u64();
            let q = (z >= grid.cuts.a) as u64
                + (z >= grid.cuts.ab) as u64
                + (z >= grid.cuts.abc) as u64;
            quadrants[l] = quadrants[l] << 2 | q;
        }
    }
    quadrants
}

/// Gathers the even bits of `x` into a u32.
#[inline(always)]
fn even_bits(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) as u32
}

/// Splits a lane's interleaved quadrant digits into the raw `(src, dst)`
/// coordinates on the `2^levels` grid.
#[inline(always)]
fn raw_src_dst(quadrants: u64) -> (u32, u32) {
    (even_bits(quadrants >> 1), even_bits(quadrants))
}

/// Folds a raw coordinate on the `2^levels` grid onto `[0, n)`:
/// `raw · n / 2^levels`, computed in u64 so `levels == 32` (any
/// `n > 2³¹`) needs no `1u32 << 32`.
#[inline(always)]
fn fold(raw: u32, n: u32, levels: u32) -> u32 {
    ((raw as u64 * n as u64) >> levels) as u32
}

/// The folded endpoints of edges `first .. first + LANES`. Explicit
/// loops, not `array::map`, so nothing leaves the calling compilation.
#[inline(always)]
fn block(grid: Grid, first: u64) -> ([u32; LANES], [u32; LANES]) {
    let quadrants = lane_kernel(grid, first);
    let (mut src, mut dst) = ([0u32; LANES], [0u32; LANES]);
    for l in 0..LANES {
        let (s, d) = raw_src_dst(quadrants[l]);
        src[l] = fold(s, grid.n, grid.levels);
        dst[l] = fold(d, grid.n, grid.levels);
    }
    (src, dst)
}

/// Writes the endpoints of edges `first .. first + src.len()` into `src`
/// and `dst`, a block of [`LANES`] at a time. The last partial block
/// runs the kernel on a padded block and drops the extra lanes.
#[inline(always)]
fn fill(grid: Grid, first: u64, src: &mut [u32], dst: &mut [u32]) {
    let mut src_blocks = src.chunks_exact_mut(LANES);
    let mut dst_blocks = dst.chunks_exact_mut(LANES);
    let mut next = first;
    for (src, dst) in (&mut src_blocks).zip(&mut dst_blocks) {
        let (s, d) = block(grid, next);
        src.copy_from_slice(&s);
        dst.copy_from_slice(&d);
        next += LANES as u64;
    }
    let (src, dst) = (src_blocks.into_remainder(), dst_blocks.into_remainder());
    if !src.is_empty() {
        let (s, d) = block(grid, next);
        src.copy_from_slice(&s[..src.len()]);
        dst.copy_from_slice(&d[..dst.len()]);
    }
}

/// [`fill`] with AVX-512, where the lanes' 64-bit multiplies become
/// `vpmullq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fill_avx512(grid: Grid, first: u64, src: &mut [u32], dst: &mut [u32]) {
    fill(grid, first, src, dst)
}

/// Whether this host runs [`fill_avx512`].
#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_detected() -> bool {
    false
}

/// Which compilation of the lane kernel generates the edges. The edges
/// are the same under both; only the speed differs, so the host's
/// features pick it, not a setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    Portable,
    Avx512,
}

impl Kernel {
    /// The fastest compilation this host runs.
    fn detect() -> Kernel {
        if avx512_detected() {
            Kernel::Avx512
        } else {
            Kernel::Portable
        }
    }

    /// [`fill`] in this compilation (the portable one when the host
    /// lacks AVX-512).
    fn fill(self, grid: Grid, first: u64, src: &mut [u32], dst: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Avx512 && avx512_detected() {
            // SAFETY: `fill_avx512` needs exactly the features just
            // detected on this host; its body is safe code.
            return unsafe { fill_avx512(grid, first, src, dst) };
        }
        fill(grid, first, src, dst)
    }
}

/// Source buckets of the CSR build: bucket `b` holds sources
/// `b << shift .. (b + 1) << shift`, at most `2^16` of them.
#[derive(Clone, Copy)]
struct Buckets {
    shift: u32,
    count: usize,
}

impl Buckets {
    fn new(grid: Grid) -> Buckets {
        let shift = grid.levels.saturating_sub(BUCKET_SPLIT_BITS).min(MAX_BUCKET_BITS);
        Buckets { shift, count: ((grid.n - 1) >> shift) as usize + 1 }
    }

    fn of(self, src: u32) -> usize {
        (src >> self.shift) as usize
    }

    /// The sources of bucket `b`, clipped to `[0, n)`.
    fn sources(self, b: usize, n: u32) -> Range<usize> {
        (b << self.shift)..((b + 1) << self.shift).min(n as usize)
    }
}

/// One worker's edges of one source bucket, stored as a bucket-local
/// source and a destination (6 B per edge): the edges of each packet the
/// worker generated, in the order it took them, its `k`-th packet ending
/// at `ends[k]`.
#[derive(Default)]
struct Store {
    local_src: Vec<u16>,
    dst: Vec<u32>,
    ends: Vec<usize>,
}

impl Store {
    /// The bucket's edges of the worker's `k`-th packet, as parallel
    /// (local source, destination) slices.
    fn segment(&self, k: usize) -> (&[u16], &[u32]) {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        let r = start..self.ends[k];
        (&self.local_src[r.clone()], &self.dst[r])
    }
}

/// A store's unwritten tail, reserved for one packet's edges.
struct Tail<'a> {
    local_src: &'a mut [MaybeUninit<u16>],
    dst: &'a mut [MaybeUninit<u32>],
    written: usize,
}

/// One generation worker: takes packets of `chunk` edges out of `edges`
/// from `next` until none is left and appends each packet's edges, in
/// edge order, to its store of their source bucket. Returns the stores
/// and the packets it took, in order. One pair of endpoint buffers serves
/// every packet; `share` packets is the guess that sizes the stores.
fn generate(
    kernel: Kernel,
    grid: Grid,
    buckets: Buckets,
    edges: usize,
    chunk: usize,
    next: &AtomicUsize,
    share: usize,
) -> (Vec<Store>, Vec<usize>) {
    let mut stores: Vec<Store> =
        std::iter::repeat_with(Store::default).take(buckets.count).collect();
    let mut taken = Vec::new();
    let (mut src, mut dst) = (vec![0u32; chunk.min(edges)], vec![0u32; chunk.min(edges)]);
    let mut counts = vec![0usize; buckets.count];
    let local = (1u32 << buckets.shift) - 1;
    loop {
        // Relaxed: the counter only hands out distinct packet numbers.
        let packet = next.fetch_add(1, Ordering::Relaxed);
        let first = packet * chunk;
        if first >= edges {
            return (stores, taken);
        }
        taken.push(packet);
        let len = chunk.min(edges - first);
        let (src, dst) = (&mut src[..len], &mut dst[..len]);
        kernel.fill(grid, first as u64, src, dst);
        counts.fill(0);
        for &s in src.iter() {
            counts[buckets.of(s)] += 1;
        }
        let mut tails: Vec<Tail> = stores
            .iter_mut()
            .zip(&counts)
            .map(|(store, &n)| {
                // The first packet's share sizes the store for the worker's
                // expected packets, so a large store seldom regrows.
                let n = if store.ends.is_empty() { n * share } else { n };
                store.local_src.reserve(n);
                store.dst.reserve(n);
                let (local_src, dst) =
                    (store.local_src.spare_capacity_mut(), store.dst.spare_capacity_mut());
                Tail { local_src, dst, written: 0 }
            })
            .collect();
        for (&s, &d) in src.iter().zip(dst.iter()) {
            let tail = &mut tails[buckets.of(s)];
            tail.local_src[tail.written].write((s & local) as u16);
            tail.dst[tail.written].write(d);
            tail.written += 1;
        }
        for (n, tail) in counts.iter_mut().zip(tails) {
            *n = tail.written;
        }
        for (store, &n) in stores.iter_mut().zip(&counts) {
            let len = store.dst.len() + n;
            // SAFETY: the scatter above initialised the first `n` slots
            // past each vector's length, and `reserve` made them capacity.
            unsafe {
                store.local_src.set_len(len);
                store.dst.set_len(len);
            }
            store.ends.push(len);
        }
    }
}

/// A graph's edges split by source bucket: `by_bucket[b]` holds bucket
/// `b`'s store of each worker, and packet `p`'s edges are segment
/// `owner[p].1` of worker `owner[p].0`'s stores.
struct Split {
    by_bucket: Vec<Vec<Store>>,
    owner: Vec<(usize, usize)>,
}

/// Generates `edges` edges in `chunk`-edge packets on `workers` threads
/// into per-bucket stores. Workers take packets from a shared counter, so
/// one the host slows down holds up no other; which worker took which
/// packet changes from run to run, but `owner` records it, so the CSR
/// built from the split does not.
fn split_edges(
    kernel: Kernel,
    grid: Grid,
    buckets: Buckets,
    edges: usize,
    chunk: usize,
    workers: usize,
) -> Split {
    let packets = edges.div_ceil(chunk);
    let share = packets.div_ceil(workers);
    let next = AtomicUsize::new(0);
    let per_worker = map_items(workers, vec![(); workers], |()| {
        generate(kernel, grid, buckets, edges, chunk, &next, share)
    });
    let mut owner = vec![(0, 0); packets];
    let mut by_bucket: Vec<Vec<Store>> =
        std::iter::repeat_with(|| Vec::with_capacity(workers)).take(buckets.count).collect();
    for (w, (stores, taken)) in per_worker.into_iter().enumerate() {
        for (k, &packet) in taken.iter().enumerate() {
            owner[packet] = (w, k);
        }
        for (bucket, store) in by_bucket.iter_mut().zip(stores) {
            bucket.push(store);
        }
    }
    Split { by_bucket, owner }
}

/// One source bucket's share of the CSR and the stores that hold its
/// edges, one per worker: `offsets` are the ends of its sources' lists
/// (global `offsets[lo + 1 ..= hi]`), `neighbors` its lists, whose first
/// edge is global edge `base`.
struct BucketBuild<'a> {
    stores: Vec<Store>,
    base: u64,
    offsets: &'a mut [u64],
    neighbors: &'a mut [u32],
}

impl BucketBuild<'_> {
    /// Counts the bucket's degrees into `offsets` (which arrive zeroed),
    /// turns them into list starts and scatters its edges with each start
    /// as the source's cursor, walking the packets in order through
    /// `owner` so each source keeps its neighbors in edge order; every
    /// cursor ends at its list's end. The stores are freed on return.
    fn build(self, owner: &[(usize, usize)]) {
        for store in &self.stores {
            for &s in &store.local_src {
                self.offsets[s as usize] += 1;
            }
        }
        let mut end = 0;
        for offset in self.offsets.iter_mut() {
            let degree = *offset;
            *offset = end;
            end += degree;
        }
        for &(w, k) in owner {
            let (srcs, dsts) = self.stores[w].segment(k);
            for (&s, &d) in srcs.iter().zip(dsts) {
                let at = &mut self.offsets[s as usize];
                self.neighbors[*at as usize] = d;
                *at += 1;
            }
        }
        for offset in self.offsets.iter_mut() {
            *offset += self.base;
        }
    }
}

/// Generates an R-MAT graph with the canonical (0.57, 0.19, 0.19, 0.05)
/// partition probabilities, producing a skewed (power-law-ish) degree
/// distribution.
///
/// Edge `i` is a pure function of `(seed, i)`: it consumes draws
/// `i·levels .. (i+1)·levels` of `SplitMix64::new(seed)`, reached
/// directly with [`SplitMix64::at`]. Edges are generated in packets on
/// all host cores, eight at a time by a kernel compiled for the host's
/// vector width, and each source bucket is then built on its own from its
/// edges in packet order, so the graph is identical for any core count
/// or host — the worker count is deliberately not a knob.
pub fn rmat(params: RmatParams) -> Csr {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    rmat_on(params, workers, CHUNK_EDGES, Kernel::detect())
}

/// [`rmat`] on `workers` threads with `chunk`-edge packets and the
/// `kernel` compilation; the result depends on none of them.
fn rmat_on(params: RmatParams, workers: usize, chunk: usize, kernel: Kernel) -> Csr {
    let grid = Grid::new(params);
    let buckets = Buckets::new(grid);
    let edges = params.edges as usize;
    let workers = workers.clamp(1, edges.div_ceil(chunk).max(1));
    build_csr(grid, buckets, workers, split_edges(kernel, grid, buckets, edges, chunk, workers))
}

/// Builds the CSR of `split` on `workers` threads: each bucket is built
/// from its stores, largest first, and its stores are freed as soon as it
/// is done, so the peak is the stores plus the buckets in flight, not
/// every edge twice.
fn build_csr(grid: Grid, buckets: Buckets, workers: usize, split: Split) -> Csr {
    let Split { by_bucket, owner } = split;
    let edges = by_bucket.iter().flatten().map(|store| store.dst.len()).sum();
    // Both arrays are sized up front from the bucket totals; each bucket
    // then fills only its own disjoint slices of them.
    let mut offsets = vec![0u64; grid.n as usize + 1];
    let mut neighbors = vec![0u32; edges];
    let mut builds = Vec::with_capacity(buckets.count);
    let (mut offsets_rest, mut neighbors_rest) = (&mut offsets[1..], &mut neighbors[..]);
    let mut base = 0u64;
    for (b, stores) in by_bucket.into_iter().enumerate() {
        let total: usize = stores.iter().map(|store| store.dst.len()).sum();
        let (offsets, rest) =
            std::mem::take(&mut offsets_rest).split_at_mut(buckets.sources(b, grid.n).len());
        offsets_rest = rest;
        let (neighbors, rest) = std::mem::take(&mut neighbors_rest).split_at_mut(total);
        neighbors_rest = rest;
        builds.push(BucketBuild { stores, base, offsets, neighbors });
        base += total as u64;
    }
    builds.sort_by_key(|build| std::cmp::Reverse(build.neighbors.len()));
    map_items(workers, builds, |build| build.build(&owner));
    Csr { vertices: grid.n, offsets, neighbors }
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
    static CACHE: Mutex<BTreeMap<(u32, u64, u64), Slot>> = Mutex::new(BTreeMap::new());
    let key = (params.vertices, params.edges, params.seed);
    let slot = CACHE.lock().expect("graph cache poisoned").entry(key).or_default().clone();
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

    /// Every compilation of the lane kernel this host runs, portable
    /// first; prints which ones a test is about to check.
    fn kernels(test: &str) -> Vec<Kernel> {
        let mut out = vec![Kernel::Portable];
        if Kernel::detect() == Kernel::Avx512 {
            out.push(Kernel::Avx512);
        }
        println!("{test}: checking kernels {out:?}");
        out
    }

    #[test]
    fn paper_seed_graph_digest_is_pinned() {
        // Digest of the serial float-and-branch generator's output, taken
        // before it was replaced: the CSR must never change.
        let p = RmatParams { vertices: 65_536, edges: 1 << 20, seed: 0x6EA4 };
        assert_eq!(digest(&rmat(p)), 0xeee01878d82c7879);
        assert_eq!(digest(&rmat_reference(p)), 0xeee01878d82c7879);
        for kernel in kernels("paper_seed_graph_digest_is_pinned") {
            let g = rmat_on(p, 2, CHUNK_EDGES, kernel);
            assert_eq!(digest(&g), 0xeee01878d82c7879, "{kernel:?}");
        }
    }

    #[test]
    fn prop_matches_reference_at_any_worker_count() {
        use proptest_lite::{gen, prop_check};
        let kernels = kernels("prop_matches_reference_at_any_worker_count");
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
                for &kernel in &kernels {
                    for workers in [1, 2, 3, 7] {
                        if let Err(e) = same_csr(&rmat_on(p, workers, chunk, kernel), &want) {
                            return Err(format!("{kernel:?} workers={workers} chunk={chunk}: {e}"));
                        }
                    }
                }
            }
        );
    }

    #[test]
    fn matches_reference_at_boundary_vertex_counts() {
        // Powers of two, their neighbors and the minimum (2; 0 and 1 clamp
        // to it), which a uniform draw over 2..=100_000 rarely hits. A
        // count of 2^k ± 1 leaves the last source bucket one vertex long
        // or one short.
        let kernels = kernels("matches_reference_at_boundary_vertex_counts");
        let counts = [0, 1, 2, 3, 4, 5, 1023, 1024, 1025, 65_535, 65_536, 65_537, 100_000, 131_073];
        for vertices in counts {
            let p = RmatParams { vertices, edges: 5_000, seed: vertices as u64 ^ 0x5EED };
            let want = rmat_reference(p);
            for &kernel in &kernels {
                for workers in [1, 2, 3, 7] {
                    let got = rmat_on(p, workers, 333, kernel);
                    let at = format!("vertices={vertices} {kernel:?} workers={workers}");
                    assert_eq!(same_csr(&got, &want), Ok(()), "{at}");
                }
            }
        }
    }

    #[test]
    fn padded_tail_blocks_match_reference() {
        // Packet sizes that are not a multiple of the lane count, so
        // every packet ends in a padded kernel block, and edge counts
        // that leave the last packet short.
        for kernel in kernels("padded_tail_blocks_match_reference") {
            for (chunk, edges) in [(1, 37), (7, 200), (9, 1_001), (15, 4_099), (333, 8_001)] {
                let p = RmatParams { vertices: 3_000, edges, seed: chunk as u64 };
                let got = rmat_on(p, 2, chunk, kernel);
                let at = format!("{kernel:?} chunk={chunk} edges={edges}");
                assert_eq!(same_csr(&got, &rmat_reference(p)), Ok(()), "{at}");
            }
        }
    }

    #[test]
    fn empty_source_buckets_match_reference() {
        // 40 edges over 64 buckets: most buckets get no edge at all, so
        // their offset runs are flat and their neighbor slices empty.
        let p = RmatParams { vertices: 100_000, edges: 40, seed: 11 };
        let want = rmat_reference(p);
        let buckets = Buckets::new(Grid::new(p));
        let empty = (0..buckets.count)
            .filter(|&b| {
                let r = buckets.sources(b, want.vertices);
                want.offsets[r.start] == want.offsets[r.end]
            })
            .count();
        assert!(empty > 0, "no empty bucket among {}", buckets.count);
        for kernel in kernels("empty_source_buckets_match_reference") {
            for workers in [1, 3] {
                let got = rmat_on(p, workers, 16, kernel);
                assert_eq!(same_csr(&got, &want), Ok(()), "{kernel:?} workers={workers}");
            }
        }
    }

    #[test]
    fn packet_and_worker_edge_cases_match_reference() {
        // (what, vertices, edges, chunk): more workers than packets, a
        // single packet, and one-edge packets, which leave every store
        // with one segment per packet of its worker.
        let cases = [
            ("more workers than packets", 5_000, 700, 333),
            ("one packet", 5_000, 300, 333),
            ("one packet, exactly full", 2_048, 512, 512),
            ("one-edge packets", 3_000, 97, 1),
        ];
        let kernels = kernels("packet_and_worker_edge_cases_match_reference");
        for (what, vertices, edges, chunk) in cases {
            let p = RmatParams { vertices, edges, seed: edges ^ 0xED6E };
            let want = rmat_reference(p);
            for &kernel in &kernels {
                for workers in [1, 2, 3, 7] {
                    let got = rmat_on(p, workers, chunk, kernel);
                    let at = format!("{what}: {kernel:?} workers={workers} chunk={chunk}");
                    assert_eq!(same_csr(&got, &want), Ok(()), "{at}");
                }
            }
        }
    }

    #[test]
    fn a_bucket_some_worker_never_stores_matches_reference() {
        // Few edges over many buckets: a bucket holding one edge has it in
        // one worker's store and none in the others', whichever worker
        // took which packet, so the build meets empty stores beside full
        // ones.
        let p = RmatParams { vertices: 100_000, edges: 120, seed: 5 };
        let grid = Grid::new(p);
        let buckets = Buckets::new(grid);
        let want = rmat_reference(p);
        for kernel in kernels("a_bucket_some_worker_never_stores_matches_reference") {
            let split = split_edges(kernel, grid, buckets, 120, 16, 3);
            let lopsided = split.by_bucket.iter().any(|stores| {
                let sizes: Vec<usize> = stores.iter().map(|store| store.dst.len()).collect();
                sizes.contains(&0) && sizes.iter().any(|&n| n > 0)
            });
            assert!(lopsided, "every bucket is empty or in every worker's stores");
            let got = build_csr(grid, buckets, 3, split);
            assert_eq!(same_csr(&got, &want), Ok(()), "{kernel:?}");
        }
    }

    #[test]
    fn buckets_are_at_most_u16_wide_and_cover_every_source() {
        for n in [2u32, 3, 64, 65, 65_537, 439_453, 900_000_000, u32::MAX] {
            let grid = Grid::new(RmatParams { vertices: n, edges: 0, seed: 0 });
            let buckets = Buckets::new(grid);
            assert!(buckets.shift <= MAX_BUCKET_BITS, "n={n}");
            assert_eq!(buckets.sources(0, n).start, 0);
            assert_eq!(buckets.sources(buckets.count - 1, n).end, n as usize);
            assert_eq!(buckets.of(n - 1), buckets.count - 1, "n={n}");
            for b in 1..buckets.count.min(70) {
                assert_eq!(buckets.sources(b - 1, n).end, buckets.sources(b, n).start);
            }
        }
    }

    #[test]
    fn kernels_match_float_compares_at_every_depth() {
        // Up to 32 levels, where the interleaved quadrant digits fill all
        // 64 accumulator bits: deeper than any graph the oracle can build.
        for kernel in kernels("kernels_match_float_compares_at_every_depth") {
            for n in [2u32, 3, 1 << 20, (1 << 31) + 1, u32::MAX] {
                let grid = Grid::new(RmatParams { vertices: n, edges: 0, seed: n as u64 });
                for first in [0u64, 8, 1_000_003] {
                    let (mut src, mut dst) = ([0u32; 13], [0u32; 13]);
                    kernel.fill(grid, first, &mut src, &mut dst);
                    for (i, (&s, &d)) in src.iter().zip(&dst).enumerate() {
                        let k = (first + i as u64) * grid.levels as u64;
                        let mut rng = SplitMix64::at(grid.seed, k);
                        let (mut want_s, mut want_d) = (0u32, 0u32);
                        for _ in 0..grid.levels {
                            let r = rng.unit_f64();
                            want_s = want_s << 1 | (r >= A + B) as u32;
                            want_d = want_d << 1 | ((A..A + B).contains(&r) || r >= A + B + C) as u32;
                        }
                        let want = (fold(want_s, n, grid.levels), fold(want_d, n, grid.levels));
                        assert_eq!((s, d), want, "{kernel:?} n={n} edge={}", first + i as u64);
                    }
                }
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
        // No packets at all: map_items returns inline on the calling
        // thread, whatever the worker count.
        for kernel in kernels("zero_edges_gives_an_empty_well_formed_csr") {
            let p = RmatParams { vertices: 1000, edges: 0, seed: 3 };
            let g = rmat_on(p, 7, CHUNK_EDGES, kernel);
            assert_eq!(g.vertices, 1000);
            assert_eq!(g.offsets, vec![0u64; 1001]);
            assert!(g.neighbors.is_empty());
            assert_eq!(g.edges(), 0);
        }
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
