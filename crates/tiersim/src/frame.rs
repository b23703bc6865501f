//! Per-component physical frame allocators.
//!
//! Frames carry no data: workloads keep their own state and the simulator
//! only tracks placement. Each frame does carry a *version* counter, bumped
//! on every simulated write, which lets tests prove that a migration
//! protocol loses no update (the copied version must match the source
//! version when the migration commits).

use crate::addr::{PhysAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use crate::tier::ComponentId;

/// Allocation granularity of a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameSize {
    /// 4 KB base frame.
    Base4K,
    /// 2 MB huge frame.
    Huge2M,
}

impl FrameSize {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            FrameSize::Base4K => PAGE_SIZE_4K,
            FrameSize::Huge2M => PAGE_SIZE_2M,
        }
    }
}

/// Allocator for one memory component.
///
/// Internally the component is carved into 2 MB blocks. A huge frame takes a
/// whole block; 4 KB frames are sub-allocated from blocks dedicated to base
/// pages. Blocks freed in either mode return to the shared free list, so
/// space moves freely between huge and base usage.
#[derive(Debug)]
pub struct FrameAllocator {
    component: ComponentId,
    capacity: u64,
    used: u64,
    /// 2 MB block offsets never yet carved.
    next_fresh_block: u64,
    /// Recycled whole 2 MB blocks.
    free_blocks: Vec<u64>,
    /// Recycled 4 KB frames.
    free_small: Vec<u64>,
    /// Current partially-carved block for 4 KB frames: (base, next offset).
    small_cursor: Option<(u64, u64)>,
}

/// Error returned when a component is out of space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Component that could not satisfy the allocation.
    pub component: ComponentId,
    /// Requested frame size.
    pub size: FrameSize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "component {} out of memory for {:?} frame", self.component, self.size)
    }
}

impl std::error::Error for OutOfMemory {}

impl FrameAllocator {
    /// Creates an allocator managing `capacity` bytes of `component`.
    ///
    /// The capacity is rounded down to a whole number of 2 MB blocks.
    pub fn new(component: ComponentId, capacity: u64) -> FrameAllocator {
        FrameAllocator {
            component,
            capacity: capacity & !(PAGE_SIZE_2M - 1),
            used: 0,
            next_fresh_block: 0,
            free_blocks: Vec::new(),
            free_small: Vec::new(),
            small_cursor: None,
        }
    }

    /// Component this allocator serves.
    #[inline]
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// Total managed bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.used as f64 / self.capacity as f64
    }

    /// True if a frame of `size` can be allocated right now.
    pub fn can_alloc(&self, size: FrameSize) -> bool {
        match size {
            FrameSize::Huge2M => self.block_available(),
            FrameSize::Base4K => {
                !self.free_small.is_empty()
                    || self.small_cursor.is_some()
                    || self.block_available()
            }
        }
    }

    fn block_available(&self) -> bool {
        !self.free_blocks.is_empty() || self.next_fresh_block + PAGE_SIZE_2M <= self.capacity
    }

    fn take_block(&mut self) -> Option<u64> {
        if let Some(b) = self.free_blocks.pop() {
            return Some(b);
        }
        if self.next_fresh_block + PAGE_SIZE_2M <= self.capacity {
            let b = self.next_fresh_block;
            self.next_fresh_block += PAGE_SIZE_2M;
            return Some(b);
        }
        None
    }

    /// Allocates one frame of the given size.
    pub fn alloc(&mut self, size: FrameSize) -> Result<PhysAddr, OutOfMemory> {
        let oom = OutOfMemory { component: self.component, size };
        match size {
            FrameSize::Huge2M => {
                let block = self.take_block().ok_or(oom)?;
                self.used += PAGE_SIZE_2M;
                Ok(PhysAddr::new(self.component, block))
            }
            FrameSize::Base4K => {
                if let Some(off) = self.free_small.pop() {
                    self.used += PAGE_SIZE_4K;
                    return Ok(PhysAddr::new(self.component, off));
                }
                let (base, off) = match self.small_cursor {
                    Some(cur) => cur,
                    None => (self.take_block().ok_or(oom)?, 0),
                };
                let frame = base + off;
                let next = off + PAGE_SIZE_4K;
                self.small_cursor = if next < PAGE_SIZE_2M { Some((base, next)) } else { None };
                self.used += PAGE_SIZE_4K;
                Ok(PhysAddr::new(self.component, frame))
            }
        }
    }

    /// Serializes the allocator's dynamic state. Free-list order is kept
    /// verbatim: future allocations pop from these lists, so a resumed run
    /// hands out the same frames in the same order as the original. The
    /// capacity is configuration, not state: the machine blob's config
    /// digest pins it.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.u16(self.component);
        w.u64(self.used);
        w.u64(self.next_fresh_block);
        w.varint(self.free_blocks.len() as u64);
        for &b in &self.free_blocks {
            w.u64(b);
        }
        w.varint(self.free_small.len() as u64);
        for &f in &self.free_small {
            w.u64(f);
        }
        match self.small_cursor {
            Some((base, off)) => {
                w.bool(true);
                w.u64(base);
                w.u64(off);
            }
            None => w.bool(false),
        }
    }

    /// Restores state saved with [`FrameAllocator::save`] into this
    /// allocator, which keeps its configured capacity. The component id
    /// must match, and the saved occupancy must fit the capacity. The
    /// carved range (`0..next_fresh_block`) must be whole blocks within
    /// the capacity, and every free block, free 4 KB frame and the
    /// cursor must be an aligned offset inside it.
    pub fn load(&mut self, r: &mut obs::wire::Reader) -> Result<(), String> {
        let component = r.u16()?;
        if component != self.component {
            return Err(format!(
                "frame allocator: component mismatch (saved {component}, have {})",
                self.component
            ));
        }
        let used = r.u64()?;
        if used > self.capacity {
            return Err(format!(
                "frame allocator: component {component} saved {used} B used, over its {} B capacity",
                self.capacity
            ));
        }
        let next_fresh_block = r.u64()?;
        if next_fresh_block > self.capacity || next_fresh_block % PAGE_SIZE_2M != 0 {
            return Err(format!(
                "frame allocator: component {component} saved next fresh block {next_fresh_block:#x}, \
                 not a 2 MB block within its {} B capacity",
                self.capacity
            ));
        }
        let carved = |what: &str, offset: u64, align: u64| {
            if offset < next_fresh_block && offset % align == 0 {
                Ok(offset)
            } else {
                Err(format!(
                    "frame allocator: component {component} saved {what} {offset:#x}, \
                     misaligned or beyond the carved {next_fresh_block:#x} B"
                ))
            }
        };
        let free_blocks = (0..r.varint()?)
            .map(|_| carved("free block", r.u64()?, PAGE_SIZE_2M))
            .collect::<Result<_, _>>()?;
        let free_small = (0..r.varint()?)
            .map(|_| carved("free 4 KB frame", r.u64()?, PAGE_SIZE_4K))
            .collect::<Result<_, _>>()?;
        let small_cursor = if r.bool()? {
            let base = carved("cursor block", r.u64()?, PAGE_SIZE_2M)?;
            let off = r.u64()?;
            if off >= PAGE_SIZE_2M || off % PAGE_SIZE_4K != 0 {
                return Err(format!(
                    "frame allocator: component {component} saved cursor offset {off:#x}, \
                     misaligned or beyond its 2 MB block"
                ));
            }
            Some((base, off))
        } else {
            None
        };
        self.used = used;
        self.next_fresh_block = next_fresh_block;
        self.free_blocks = free_blocks;
        self.free_small = free_small;
        self.small_cursor = small_cursor;
        Ok(())
    }

    /// Frees a previously allocated frame.
    ///
    /// Freed huge frames return to the shared block list; freed base frames
    /// go to the small free list (blocks are not coalesced, which is a fair
    /// model of fragmentation under mixed page sizes).
    pub fn free_frame(&mut self, frame: PhysAddr, size: FrameSize) {
        debug_assert_eq!(frame.component(), self.component, "frame belongs to this component");
        match size {
            FrameSize::Huge2M => {
                debug_assert_eq!(frame.offset() % PAGE_SIZE_2M, 0);
                self.free_blocks.push(frame.offset());
                self.used -= PAGE_SIZE_2M;
            }
            FrameSize::Base4K => {
                debug_assert_eq!(frame.offset() % PAGE_SIZE_4K, 0);
                self.free_small.push(frame.offset());
                self.used -= PAGE_SIZE_4K;
            }
        }
    }
}

/// Per-frame version store used to validate migration correctness.
///
/// Every simulated write bumps the version of the written 4 KB frame. A
/// migration mechanism copies versions from source to destination frames;
/// if the application writes the source after the copy, the destination is
/// stale and the mechanism must re-copy (or have switched to a synchronous
/// copy). Tests assert the committed destination version equals the final
/// source version.
///
/// Versions live in dense per-component vectors indexed by frame number
/// (`offset >> 12`): physical offsets are allocator-bounded and contiguous
/// from zero, so a vector with lazy power-of-two growth replaces a hash
/// map on the simulated-write hot path (one bump per write). Every write
/// to a huge page bumps its 2 MB-aligned *head* frame, and in one flat
/// vector those heads sit 4 KB apart — a stride that folds a huge-page
/// working set into a few host cache sets. So head versions live in a
/// second, dense vector indexed by `frame >> 9`, and their flat slots
/// stay zero. The split is a storage permutation only: `get`, `move_range`
/// and `save` see one logical vector per component.
#[derive(Default, Debug)]
pub struct VersionStore {
    comps: Vec<CompVersions>,
}

/// Frames per 2 MB block; every `HEAD_STRIDE`-th frame number is a head.
const HEAD_STRIDE: usize = (PAGE_SIZE_2M / PAGE_SIZE_4K) as usize;

/// One component's versions: `flat` by frame number (its logical length
/// is `flat.len()`; head slots unused and zero), `heads` by block number,
/// one per started block of `flat`.
#[derive(Default, Debug)]
struct CompVersions {
    flat: Vec<u64>,
    heads: Vec<u64>,
}

impl CompVersions {
    #[inline]
    fn get(&self, i: usize) -> u64 {
        if i.is_multiple_of(HEAD_STRIDE) {
            self.heads.get(i / HEAD_STRIDE).copied().unwrap_or(0)
        } else {
            self.flat.get(i).copied().unwrap_or(0)
        }
    }

    /// The slot of frame `i`, which must be below the logical length.
    #[inline]
    fn slot(&mut self, i: usize) -> &mut u64 {
        if i.is_multiple_of(HEAD_STRIDE) {
            &mut self.heads[i / HEAD_STRIDE]
        } else {
            &mut self.flat[i]
        }
    }

    /// Grows the logical length to cover frame `i`, by power-of-two steps.
    fn grow_to(&mut self, i: usize) {
        if i >= self.flat.len() {
            self.flat.resize((i + 1).next_power_of_two(), 0);
            self.heads.resize(self.flat.len().div_ceil(HEAD_STRIDE), 0);
        }
    }
}

/// Offsets `k < frames` for which `base + k` is a head frame.
fn heads_in(base: usize, frames: usize) -> impl Iterator<Item = usize> {
    (base.next_multiple_of(HEAD_STRIDE) - base..frames).step_by(HEAD_STRIDE)
}

impl VersionStore {
    /// Creates an empty store.
    pub fn new() -> VersionStore {
        VersionStore::default()
    }

    #[inline]
    fn frame_index(frame: PhysAddr) -> (usize, usize) {
        (frame.component() as usize, (frame.offset() >> 12) as usize)
    }

    /// Current version of a frame (0 if never written).
    #[inline]
    pub fn get(&self, frame: PhysAddr) -> u64 {
        let (c, i) = Self::frame_index(frame);
        self.comps.get(c).map_or(0, |v| v.get(i))
    }

    /// The slot of `frame`, growing its component to cover it.
    fn grown_slot(&mut self, frame: PhysAddr) -> &mut u64 {
        let (c, i) = Self::frame_index(frame);
        if c >= self.comps.len() {
            self.comps.resize_with(c + 1, CompVersions::default);
        }
        let v = &mut self.comps[c];
        v.grow_to(i);
        v.slot(i)
    }

    /// Records a write to a frame, bumping its version. A frame already
    /// inside its component's vector (every write after the first to a
    /// frame region) skips the growth check.
    #[inline]
    pub fn bump(&mut self, frame: PhysAddr) {
        let (c, i) = Self::frame_index(frame);
        match self.comps.get_mut(c) {
            Some(v) if i < v.flat.len() => *v.slot(i) += 1,
            _ => self.bump_grow(frame),
        }
    }

    #[cold]
    #[inline(never)]
    fn bump_grow(&mut self, frame: PhysAddr) {
        *self.grown_slot(frame) += 1;
    }

    /// Moves the versions of `frames` consecutive 4 KB frames from `src`
    /// to `dst` and zeroes the source, as a page migration does — the same
    /// result as copying each frame's version and then forgetting the
    /// source frame, but as one slice copy and one zero-fill, with one
    /// growth check for the destination. The ranges must not overlap.
    pub fn move_range(&mut self, src: PhysAddr, dst: PhysAddr, frames: usize) {
        if frames == 0 {
            return;
        }
        let (sc, si) = Self::frame_index(src);
        let (dc, di) = Self::frame_index(dst);
        debug_assert!(sc != dc || si + frames <= di || di + frames <= si, "overlapping move");
        // Grow the destination exactly as a frame-by-frame copy would:
        // its last frame's slot decides the final length.
        self.grown_slot(PhysAddr::new(dst.component(), dst.offset() + (frames as u64 - 1) * PAGE_SIZE_4K));
        // Flat slots first. Source frames past the end of their vector
        // were never written.
        let avail = self.comps.get(sc).map_or(0, |v| v.flat.len().saturating_sub(si)).min(frames);
        if sc == dc {
            let v = &mut self.comps[dc].flat;
            if avail > 0 {
                v.copy_within(si..si + avail, di);
                v[si..si + avail].fill(0);
            }
            v[di + avail..di + frames].fill(0);
        } else {
            let mut d = std::mem::take(&mut self.comps[dc].flat);
            if avail > 0 {
                let s = &mut self.comps[sc].flat[si..si + avail];
                d[di..di + avail].copy_from_slice(s);
                s.fill(0);
            }
            d[di + avail..di + frames].fill(0);
            self.comps[dc].flat = d;
        }
        // A source head's version goes to its destination frame, head or
        // not; its zero flat slot was copied there above.
        for k in heads_in(si, frames) {
            let v = self
                .comps
                .get_mut(sc)
                .and_then(|v| v.heads.get_mut((si + k) / HEAD_STRIDE))
                .map_or(0, std::mem::take);
            *self.comps[dc].slot(di + k) = v;
        }
        // A destination head fed by a non-head frame got that version in
        // its flat slot above; lift it into the head.
        let d = &mut self.comps[dc];
        for k in heads_in(di, frames) {
            if !(si + k).is_multiple_of(HEAD_STRIDE) {
                d.heads[(di + k) / HEAD_STRIDE] = std::mem::take(&mut d.flat[di + k]);
            }
        }
    }

    /// Serializes all per-frame versions as one logical vector per
    /// component, including any trailing zeros from power-of-two growth —
    /// load reproduces the exact growth state.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.comps.len() as u64);
        for comp in &self.comps {
            w.varint(comp.flat.len() as u64);
            for (&head, block) in comp.heads.iter().zip(comp.flat.chunks(HEAD_STRIDE)) {
                w.varint(head);
                for &v in &block[1..] {
                    w.varint(v);
                }
            }
        }
    }

    /// Restores a store saved with [`VersionStore::save`]. A frame count
    /// the rest of the input cannot hold (every version takes at least
    /// one byte) is an error, not an allocation.
    pub fn load(r: &mut obs::wire::Reader) -> Result<VersionStore, String> {
        let mut comps = Vec::new();
        for _ in 0..r.varint()? {
            let n = r.varint()?;
            if n > r.remaining() as u64 {
                return Err(format!("version store: {n} frames but {} bytes left", r.remaining()));
            }
            let n = n as usize;
            let mut comp = CompVersions {
                flat: Vec::with_capacity(n),
                heads: Vec::with_capacity(n.div_ceil(HEAD_STRIDE)),
            };
            for i in 0..n {
                let v = r.varint()?;
                if i.is_multiple_of(HEAD_STRIDE) {
                    comp.heads.push(v);
                    comp.flat.push(0);
                } else {
                    comp.flat.push(v);
                }
            }
            comps.push(comp);
        }
        Ok(VersionStore { comps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_allocation_exhausts_capacity() {
        let mut a = FrameAllocator::new(0, 4 * PAGE_SIZE_2M);
        let mut frames = Vec::new();
        for _ in 0..4 {
            frames.push(a.alloc(FrameSize::Huge2M).unwrap());
        }
        assert!(a.alloc(FrameSize::Huge2M).is_err());
        assert_eq!(a.used(), 4 * PAGE_SIZE_2M);
        a.free_frame(frames[0], FrameSize::Huge2M);
        assert!(a.alloc(FrameSize::Huge2M).is_ok());
    }

    #[test]
    fn small_frames_carve_blocks() {
        let mut a = FrameAllocator::new(1, PAGE_SIZE_2M);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512 {
            let f = a.alloc(FrameSize::Base4K).unwrap();
            assert!(seen.insert(f), "no double allocation");
        }
        assert!(a.alloc(FrameSize::Base4K).is_err());
        assert_eq!(a.free(), 0);
    }

    #[test]
    fn freed_small_frames_recycle() {
        let mut a = FrameAllocator::new(0, PAGE_SIZE_2M);
        let f = a.alloc(FrameSize::Base4K).unwrap();
        a.free_frame(f, FrameSize::Base4K);
        assert_eq!(a.used(), 0);
        let g = a.alloc(FrameSize::Base4K).unwrap();
        assert_eq!(f, g, "recycled frame reused");
    }

    #[test]
    fn mixed_sizes_share_capacity() {
        let mut a = FrameAllocator::new(0, 2 * PAGE_SIZE_2M);
        let h = a.alloc(FrameSize::Huge2M).unwrap();
        let _s = a.alloc(FrameSize::Base4K).unwrap();
        // Second huge block is taken by the small cursor.
        assert!(a.alloc(FrameSize::Huge2M).is_err());
        a.free_frame(h, FrameSize::Huge2M);
        assert!(a.alloc(FrameSize::Huge2M).is_ok());
    }

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let a = FrameAllocator::new(0, PAGE_SIZE_2M + 12345);
        assert_eq!(a.capacity(), PAGE_SIZE_2M);
    }

    /// The flat layout `VersionStore` had before head frames moved to a
    /// dense vector: one vector per component indexed by frame number.
    /// Kept as the oracle for the dense layout.
    #[derive(Clone, Default, Debug, PartialEq)]
    struct FlatVersions {
        comps: Vec<Vec<u64>>,
    }

    impl FlatVersions {
        fn get(&self, frame: PhysAddr) -> u64 {
            let (c, i) = VersionStore::frame_index(frame);
            self.comps.get(c).and_then(|v| v.get(i)).copied().unwrap_or(0)
        }

        fn slot(&mut self, frame: PhysAddr) -> &mut u64 {
            let (c, i) = VersionStore::frame_index(frame);
            if c >= self.comps.len() {
                self.comps.resize_with(c + 1, Vec::new);
            }
            let v = &mut self.comps[c];
            if i >= v.len() {
                v.resize((i + 1).next_power_of_two(), 0);
            }
            &mut v[i]
        }

        fn bump(&mut self, frame: PhysAddr) {
            *self.slot(frame) += 1;
        }

        /// Copies the version from `src` to `dst`, as a data copy would.
        fn copy(&mut self, src: PhysAddr, dst: PhysAddr) {
            let v = self.get(src);
            *self.slot(dst) = v;
        }

        /// Drops bookkeeping for a freed frame.
        fn forget(&mut self, frame: PhysAddr) {
            let (c, i) = VersionStore::frame_index(frame);
            if let Some(slot) = self.comps.get_mut(c).and_then(|v| v.get_mut(i)) {
                *slot = 0;
            }
        }

        /// One copy and one forget per frame.
        fn move_range(&mut self, src: PhysAddr, dst: PhysAddr, frames: usize) {
            for f in 0..frames as u64 {
                let s = PhysAddr::new(src.component(), src.offset() + f * PAGE_SIZE_4K);
                self.copy(s, PhysAddr::new(dst.component(), dst.offset() + f * PAGE_SIZE_4K));
                self.forget(s);
            }
        }

        fn save(&self, w: &mut obs::wire::Writer) {
            w.varint(self.comps.len() as u64);
            for comp in &self.comps {
                w.varint(comp.len() as u64);
                for &v in comp {
                    w.varint(v);
                }
            }
        }
    }

    fn saved(save: impl FnOnce(&mut obs::wire::Writer)) -> Vec<u8> {
        let mut w = obs::wire::Writer::new();
        save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn version_store_tracks_writes() {
        let mut v = VersionStore::new();
        let a = PhysAddr::new(0, 0x1000);
        let b = PhysAddr::new(1, 0x2000);
        assert_eq!(v.get(a), 0);
        v.bump(a);
        v.bump(a);
        v.move_range(a, b, 1);
        assert_eq!((v.get(a), v.get(b)), (0, 2));
        v.bump(a);
        assert_ne!(v.get(a), v.get(b), "stale copy detectable");
    }

    #[test]
    fn move_range_matches_frame_by_frame_copy_and_forget() {
        // Sources straddling the end of their vector, fresh and grown
        // destinations, same- and cross-component moves, and head frames
        // landing on non-head frames and back.
        let cases = [
            (0, 0, 1, 0x40_0000, 512),
            (1, 0x3000, 0, 0x200_0000, 9),
            (0, 0x1000, 0, 0x9000, 5),
            (0, 0x1ff000, 1, 0x5000, 1030),
            (1, 0, 1, 0x60_0000 - 0x3000, 700),
        ];
        for (sc, so, dc, dof, frames) in cases {
            let mut fast = VersionStore::new();
            let mut slow = FlatVersions::default();
            let mut bump = |f: PhysAddr| {
                fast.bump(f);
                slow.bump(f);
            };
            for k in 0..6u64 {
                for _ in 0..=k {
                    bump(PhysAddr::new(sc, so + k * 2 * PAGE_SIZE_4K));
                }
            }
            bump(PhysAddr::new(sc, so.next_multiple_of(PAGE_SIZE_2M)));
            bump(PhysAddr::new(dc, dof + PAGE_SIZE_4K));
            bump(PhysAddr::new(dc, dof.next_multiple_of(PAGE_SIZE_2M)));
            fast.move_range(PhysAddr::new(sc, so), PhysAddr::new(dc, dof), frames);
            slow.move_range(PhysAddr::new(sc, so), PhysAddr::new(dc, dof), frames);
            assert_eq!(saved(|w| fast.save(w)), saved(|w| slow.save(w)), "src {sc}:{so:#x} dst {dc}:{dof:#x} x{frames}");
        }
    }

    #[test]
    fn prop_dense_heads_match_flat_layout() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        // Frames live in two components, up to six 2 MB blocks each; a
        // third of the generated frames are forced onto block heads.
        const SPAN: u64 = 6 * HEAD_STRIDE as u64;
        fn frame(comp: u64, pick: u64, seed: u64) -> PhysAddr {
            let f = if seed.is_multiple_of(3) { (pick % 6) * HEAD_STRIDE as u64 } else { pick % SPAN };
            PhysAddr::new((comp % 2) as u16, f * PAGE_SIZE_4K)
        }
        prop_check!(
            "dense_heads_match_flat_layout",
            64,
            gen::vec_in(
                (gen::u8_range(0, 7), gen::u64_range(0, 1 << 20), gen::u64_range(0, 1 << 20), gen::u64_range(0, 1 << 20)),
                1,
                120,
            ),
            |ops| {
                let mut dense = VersionStore::new();
                let mut flat = FlatVersions::default();
                for (step, &(op, a, b, c)) in ops.iter().enumerate() {
                    let mut touched = Vec::new();
                    match op {
                        0..=2 => {
                            let f = frame(a, b, c);
                            dense.bump(f);
                            flat.bump(f);
                            touched.push((f, 1));
                        }
                        3..=5 => {
                            // 4 KB, whole 2 MB and arbitrary-length moves;
                            // sources may lie past the end of their vector.
                            let (src, dst, frames) = match op {
                                3 => (frame(a, b, c), frame(b, c, a), 1),
                                4 => {
                                    let block = |x: u64| PhysAddr::new((x % 2) as u16, (x / 2 % 7) * PAGE_SIZE_2M);
                                    (block(a), block(b), HEAD_STRIDE)
                                }
                                _ => (frame(a, b, c), frame(b, c, a), 1 + (c % 1100) as usize),
                            };
                            let (s, d) = (src.offset() / PAGE_SIZE_4K, dst.offset() / PAGE_SIZE_4K);
                            let len = frames as u64;
                            if src.component() == dst.component() && s < d + len && d < s + len {
                                continue;
                            }
                            dense.move_range(src, dst, frames);
                            flat.move_range(src, dst, frames);
                            touched.extend([(src, frames), (dst, frames)]);
                        }
                        _ => {
                            let bytes = saved(|w| dense.save(w));
                            prop_assert_eq!(&bytes, &saved(|w| flat.save(w)), "step {step}: save");
                            let mut r = obs::wire::Reader::new(&bytes);
                            dense = VersionStore::load(&mut r).expect("saved store loads");
                            prop_assert_eq!(r.remaining(), 0);
                        }
                    }
                    for (start, frames) in touched {
                        for k in 0..frames as u64 {
                            let f = PhysAddr::new(start.component(), start.offset() + k * PAGE_SIZE_4K);
                            prop_assert_eq!(dense.get(f), flat.get(f), "step {step}: frame {f:?}");
                        }
                    }
                }
                prop_assert_eq!(saved(|w| dense.save(w)), saved(|w| flat.save(w)), "final save");
            }
        );
    }

    /// An allocator record for component 0 of a 4-block allocator, with
    /// nothing in use.
    fn allocator_record(
        next_fresh: u64,
        blocks: &[u64],
        small: &[u64],
        cursor: Option<(u64, u64)>,
    ) -> Vec<u8> {
        saved(|w| {
            w.u16(0);
            w.u64(0);
            w.u64(next_fresh);
            w.varint(blocks.len() as u64);
            blocks.iter().for_each(|&b| w.u64(b));
            w.varint(small.len() as u64);
            small.iter().for_each(|&f| w.u64(f));
            w.bool(cursor.is_some());
            if let Some((base, off)) = cursor {
                w.u64(base);
                w.u64(off);
            }
        })
    }

    fn load_record(bytes: &[u8]) -> Result<FrameAllocator, String> {
        let mut a = FrameAllocator::new(0, 4 * PAGE_SIZE_2M);
        a.load(&mut obs::wire::Reader::new(bytes))?;
        Ok(a)
    }

    #[test]
    fn allocator_load_round_trips_a_mixed_state() {
        let mut a = FrameAllocator::new(0, 4 * PAGE_SIZE_2M);
        let huge = a.alloc(FrameSize::Huge2M).unwrap();
        let small: Vec<PhysAddr> = (0..3).map(|_| a.alloc(FrameSize::Base4K).unwrap()).collect();
        a.alloc(FrameSize::Huge2M).unwrap();
        a.free_frame(huge, FrameSize::Huge2M);
        a.free_frame(small[1], FrameSize::Base4K);
        let bytes = saved(|w| a.save(w));
        let b = load_record(&bytes).expect("a saved state loads");
        assert_eq!(saved(|w| b.save(w)), bytes);
        // A full component: the carved range is the whole capacity.
        let full = allocator_record(4 * PAGE_SIZE_2M, &[3 * PAGE_SIZE_2M], &[0x1000], None);
        assert!(load_record(&full).is_ok());
    }

    #[test]
    fn allocator_load_rejects_impossible_offsets() {
        let block = PAGE_SIZE_2M;
        let cases = [
            ("next fresh block beyond capacity", allocator_record(100 * block, &[], &[], None)),
            ("next fresh block misaligned", allocator_record(block + PAGE_SIZE_4K, &[], &[], None)),
            ("free block misaligned", allocator_record(2 * block, &[PAGE_SIZE_4K], &[], None)),
            ("free block never carved", allocator_record(2 * block, &[2 * block], &[], None)),
            ("free 4 KB frame misaligned", allocator_record(block, &[], &[0x800], None)),
            ("free 4 KB frame never carved", allocator_record(block, &[], &[block], None)),
            ("cursor block misaligned", allocator_record(block, &[], &[], Some((0x1000, 0x1000)))),
            ("cursor block never carved", allocator_record(block, &[], &[], Some((block, 0x1000)))),
            ("cursor offset misaligned", allocator_record(block, &[], &[], Some((0, 0x10)))),
            ("cursor offset beyond its block", allocator_record(block, &[], &[], Some((0, block)))),
        ];
        for (what, bytes) in cases {
            let err = load_record(&bytes).map(|_| ()).expect_err(what);
            assert!(err.contains("component 0"), "{what}: {err}");
        }
    }

    #[test]
    fn version_store_load_rejects_impossible_frame_count() {
        // One component claiming 2^40 frames in a 7-byte body: the count
        // must be refused before anything is reserved for it.
        let bytes = saved(|w| {
            w.varint(1);
            w.varint(1 << 40);
        });
        assert_eq!(bytes.len(), 7);
        let err = VersionStore::load(&mut obs::wire::Reader::new(&bytes)).unwrap_err();
        assert!(err.contains("frames"), "{err}");
    }
}
