//! Software radix page table with VMAs, 4 KB PTEs, 2 MB huge mappings and
//! packed side metadata.
//!
//! The table stores one entry per valid last-level page-directory slot
//! (2 MB of virtual space): either a single huge-page PTE or a leaf table of
//! 512 base PTEs. Profilers form their initial memory regions from the set
//! of valid last-level PDEs, exactly as MTM does (Sec. 5.1).
//!
//! # Layout
//!
//! One dense level replaces the old hashed PD index: a flat vector of PDE
//! slots indexed by `va >> 21` directly, paired with a global occupancy
//! bitmap (one bit per slot). Flat indexing makes the per-access lookup a
//! *single* dependent load for a huge page (one more for a leaf table), and
//! — because walks iterate indexes in ascending order — every walker yields
//! strictly ascending virtual addresses *by construction*, where a hashed
//! map would rely on the "every escaping walk sorts its keys" convention.
//! The vector grows to the highest mapped PDE, so its footprint is
//! proportional to the workload's address-space extent (16 bytes per 2 MB
//! of virtual span), not to the 47-bit address space.
//!
//! # Packed side metadata
//!
//! Each leaf table carries one 512-bit bitmap (`[u64; 8]`) mirroring its
//! PTEs' PRESENT bits, and the table keeps a global occupancy bitmap over
//! its slots. Walks sweep these words with `trailing_zeros` instead of
//! probing 512 PTEs, and [`PageTable::translate`] tests one bit. Every
//! other flag, ACCESSED and DIRTY included, lives in the PTE alone, so
//! [`PageTable::pte_mut`] and a [`PageTable::for_each_mapped`] callback may
//! change any of them; only PRESENT is reserved to the map/unmap/split
//! operations, which keep the bitmaps in step. The `MTM_CHECK` sanitizer
//! re-derives both bitmaps from the PTEs and the slots
//! ([`PageTable::check_side_metadata`]) and panics on drift.

use crate::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K, PTES_PER_PD};
use crate::frame::FrameSize;
use crate::pte::{Pte, PTE_ACCESSED, PTE_DIRTY};

/// Base PTEs per leaf table (one 2 MB last-level slot).
const LEAF_PTES: usize = 512;
/// 64-bit words per 512-bit leaf bitmap.
const WORDS: usize = LEAF_PTES / 64;

/// Virtual addresses must fit x86-64 canonical user space.
const VA_LIMIT: u64 = 1 << 47;

/// The whole user address space: the range of a whole-table walk.
pub const USER_SPACE: VaRange = VaRange { start: VirtAddr(0), end: VirtAddr(VA_LIMIT) };

/// Calls `f` for every set bit index in `words` within `[lo, hi]`
/// (inclusive), ascending — the word-at-a-time sweep behind every walker.
/// `hi` may point past the last word; the sweep clamps to the slice.
#[inline]
fn for_set_bits(words: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if words.is_empty() {
        return;
    }
    let lo_w = lo >> 6;
    let hi_w = (hi >> 6).min(words.len() - 1);
    if lo_w > hi_w {
        return;
    }
    for w in lo_w..=hi_w {
        let mut word = words[w];
        if w == lo_w {
            word &= !0u64 << (lo & 63);
        }
        if w == hi >> 6 {
            let r = hi & 63;
            if r < 63 {
                word &= (1u64 << (r + 1)) - 1;
            }
        }
        while word != 0 {
            f((w << 6) | word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

#[inline]
fn test_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 == 1
}

/// A leaf table of 512 base PTEs plus its packed side metadata.
struct Leaf {
    ptes: [Pte; LEAF_PTES],
    /// Bit `i` mirrors `ptes[i].present()`.
    present: [u64; WORDS],
}

impl Leaf {
    fn empty() -> Box<Leaf> {
        Box::new(Leaf { ptes: [Pte::EMPTY; LEAF_PTES], present: [0; WORDS] })
    }

    /// True when no PTE is present (prune check; 8 word ORs, not 512 probes).
    #[inline]
    fn is_empty(&self) -> bool {
        self.present.iter().all(|&w| w == 0)
    }

    /// Installs `pte` at `i` and marks it present.
    #[inline]
    fn install(&mut self, i: usize, pte: Pte) {
        self.ptes[i] = pte;
        set_bit(&mut self.present, i);
    }

    /// Removes the PTE at `i` and marks it absent.
    #[inline]
    fn remove(&mut self, i: usize) {
        self.ptes[i] = Pte::EMPTY;
        clear_bit(&mut self.present, i);
    }
}

/// One valid last-level page-directory entry.
enum PdEntry {
    /// The 2 MB span is mapped by a single huge-page PTE.
    Huge(Pte),
    /// The span is mapped by a leaf table of 512 base PTEs.
    Table(Box<Leaf>),
}

/// A virtual memory area registered by a workload.
#[derive(Clone, Debug)]
pub struct Vma {
    /// Name used in reports and heatmaps (e.g. `"hotset"`).
    pub name: String,
    /// Address range covered by the VMA.
    pub range: VaRange,
    /// Whether transparent huge pages are enabled (`madvise(MADV_HUGEPAGE)`).
    pub thp: bool,
}

/// The per-process page table plus the VMA list.
#[derive(Default)]
pub struct PageTable {
    /// Flat last-level directory: slot `pde` covers `[pde << 21, (pde+1) << 21)`.
    slots: Vec<Option<PdEntry>>,
    /// Bit `pde` set iff `slots[pde]` is `Some`.
    occupied: Vec<u64>,
    vmas: Vec<Vma>,
    mapped_bytes: u64,
}

/// Result of translating a virtual address.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Translation {
    /// The covering PTE (copied out).
    pub pte: Pte,
    /// Granularity of the mapping.
    pub size: FrameSize,
}

impl Translation {
    /// The first address past this mapping, for an address `va` it covers.
    pub(crate) fn end(&self, va: VirtAddr) -> VirtAddr {
        VirtAddr((va.0 & !(self.size.bytes() - 1)) + self.size.bytes())
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Registers a VMA. Ranges must be 4 KB aligned and non-overlapping.
    pub fn mmap(&mut self, name: &str, range: VaRange, thp: bool) {
        assert!(range.start.is_4k_aligned() && range.end.is_4k_aligned(), "VMA must be page-aligned");
        assert!(range.end.0 <= VA_LIMIT, "VMA beyond 47-bit user address space");
        assert!(
            !self.vmas.iter().any(|v| v.range.overlaps(range)),
            "VMA {range:?} overlaps an existing mapping"
        );
        self.vmas.push(Vma { name: name.to_string(), range, thp });
        self.vmas.sort_by_key(|v| v.range.start);
    }

    /// The registered VMAs in address order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Finds the VMA containing `va`.
    pub fn vma_of(&self, va: VirtAddr) -> Option<&Vma> {
        let idx = self.vmas.partition_point(|v| v.range.end.0 <= va.0);
        self.vmas.get(idx).filter(|v| v.range.contains(va))
    }

    /// Total bytes currently mapped.
    #[inline]
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// True when no mapping of either size covers any part of the 2 MB
    /// span holding `va` (an empty leaf table is pruned, so a vacant
    /// slot is exactly an unmapped span).
    #[inline]
    pub fn pde_vacant(&self, va: VirtAddr) -> bool {
        self.entry(va.pde_index()).is_none()
    }

    #[inline]
    fn entry(&self, pde: u64) -> Option<&PdEntry> {
        self.slots.get(pde as usize)?.as_ref()
    }

    #[inline]
    fn entry_mut(&mut self, pde: u64) -> Option<&mut PdEntry> {
        self.slots.get_mut(pde as usize)?.as_mut()
    }

    /// Inserts `entry` at `pde`'s slot, which must be vacant. Grows the
    /// slot vector (and its occupancy bitmap) up to the new high PDE.
    fn insert_entry(&mut self, pde: u64, entry: PdEntry) {
        debug_assert!(pde < (VA_LIMIT >> 21), "address beyond 47-bit user space");
        let i = pde as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
            self.occupied.resize(self.slots.len().div_ceil(64), 0);
        }
        debug_assert!(self.slots[i].is_none(), "slot must be vacant");
        self.slots[i] = Some(entry);
        set_bit(&mut self.occupied, i);
    }

    /// Removes `pde`'s slot (which must be occupied).
    fn remove_entry(&mut self, pde: u64) {
        let i = pde as usize;
        debug_assert!(self.slots[i].is_some(), "slot occupied");
        self.slots[i] = None;
        clear_bit(&mut self.occupied, i);
    }

    /// Looks up the mapping covering `va` without touching flag bits.
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        match self.entry(va.pde_index())? {
            PdEntry::Huge(pte) if pte.present() => {
                Some(Translation { pte: *pte, size: FrameSize::Huge2M })
            }
            PdEntry::Table(leaf) => {
                let i = va.pte_index();
                test_bit(&leaf.present, i)
                    .then(|| Translation { pte: leaf.ptes[i], size: FrameSize::Base4K })
            }
            _ => None,
        }
    }

    /// Records an access to the page covering `va`: sets ACCESSED (and
    /// DIRTY on a write) in its PTE, and returns the **pre-access** PTE
    /// (whose POISON/PROT/TRACK flags the machine's rare-path fault
    /// handling gates on) with the mapping size.
    #[inline]
    pub fn touch(&mut self, va: VirtAddr, is_write: bool) -> Option<(Pte, FrameSize)> {
        let (pte, size) = self.pte_mut(va)?;
        let pre = *pte;
        let want = PTE_ACCESSED | if is_write { PTE_DIRTY } else { 0 };
        // Skip the read-modify-write when the bits already stick (the
        // common case for a hot page between scan passes).
        if pre.0 & want != want {
            pte.set(want);
        }
        Some((pre, size))
    }

    /// Reads **and clears** the ACCESSED bit of the page covering `va`.
    /// Returns the old bit and the mapping size.
    #[inline]
    pub fn scan_page_at(&mut self, va: VirtAddr) -> Option<(bool, FrameSize)> {
        let (pte, size) = self.pte_mut(va)?;
        Some((pte.take_accessed(), size))
    }

    /// Mutable access to the PTE covering `va`, with its mapping size.
    /// Any flag but PRESENT may change through it (see the module docs
    /// on side metadata).
    #[inline]
    pub fn pte_mut(&mut self, va: VirtAddr) -> Option<(&mut Pte, FrameSize)> {
        match self.slots.get_mut(va.pde_index() as usize)?.as_mut()? {
            PdEntry::Huge(pte) if pte.present() => Some((pte, FrameSize::Huge2M)),
            PdEntry::Table(leaf) => {
                let i = va.pte_index();
                test_bit(&leaf.present, i).then(move || (&mut leaf.ptes[i], FrameSize::Base4K))
            }
            _ => None,
        }
    }

    /// Installs a 4 KB mapping at `va` (must not already be mapped).
    pub fn map_4k(&mut self, va: VirtAddr, pte: Pte) {
        debug_assert!(pte.present() && !pte.huge());
        assert!(va.0 < VA_LIMIT, "address beyond 47-bit user space");
        let pde = va.pde_index();
        if self.entry(pde).is_none() {
            self.insert_entry(pde, PdEntry::Table(Leaf::empty()));
        }
        // lint:allow(panic-path): the slot was inserted two lines up; a miss here is table corruption
        match self.entry_mut(pde).expect("slot just ensured") {
            PdEntry::Table(leaf) => {
                let i = va.pte_index();
                assert!(!test_bit(&leaf.present, i), "double map at {va:?}");
                leaf.install(i, pte);
            }
            // lint:allow(panic-path): mapping over a live huge page is a double-map; aborting beats silent PTE clobbering
            PdEntry::Huge(_) => panic!("4K map inside huge mapping at {va:?}"),
        }
        self.mapped_bytes += PAGE_SIZE_4K;
    }

    /// Installs a 2 MB huge mapping at `va` (must be 2 MB aligned and empty).
    pub fn map_2m(&mut self, va: VirtAddr, pte: Pte) {
        debug_assert!(pte.present() && pte.huge());
        assert!(va.is_2m_aligned(), "huge mapping must be 2 MB aligned");
        assert!(va.0 < VA_LIMIT, "address beyond 47-bit user space");
        let pde = va.pde_index();
        assert!(self.entry(pde).is_none(), "double map at {va:?}");
        self.insert_entry(pde, PdEntry::Huge(pte));
        self.mapped_bytes += PAGE_SIZE_2M;
    }

    /// Removes the mapping covering `va`, returning the old PTE and size.
    pub fn unmap(&mut self, va: VirtAddr) -> Option<(Pte, FrameSize)> {
        let pde = va.pde_index();
        match self.entry_mut(pde)? {
            PdEntry::Huge(pte) => {
                let old = *pte;
                self.remove_entry(pde);
                self.mapped_bytes -= PAGE_SIZE_2M;
                Some((old, FrameSize::Huge2M))
            }
            PdEntry::Table(leaf) => {
                let i = va.pte_index();
                if !test_bit(&leaf.present, i) {
                    return None;
                }
                let old = leaf.ptes[i];
                leaf.remove(i);
                let prune = leaf.is_empty();
                self.mapped_bytes -= PAGE_SIZE_4K;
                if prune {
                    self.remove_entry(pde);
                }
                Some((old, FrameSize::Base4K))
            }
        }
    }

    /// Visits every mapped page whose base address lies in `range`.
    ///
    /// The callback receives the page base address, a mutable PTE reference
    /// and the mapping size. Huge pages are visited once (at their 2 MB
    /// base) if that base is inside the range. Pages are visited in
    /// ascending address order. The callback must not clear PRESENT (see
    /// the module docs on side metadata).
    pub fn for_each_mapped(
        &mut self,
        range: VaRange,
        mut f: impl FnMut(VirtAddr, &mut Pte, FrameSize),
    ) {
        if range.is_empty() || self.slots.is_empty() {
            return;
        }
        let first_pde = range.start.pde_index() as usize;
        let last_pde = ((range.end.0 - 1) >> 21) as usize;
        let PageTable { slots, occupied, .. } = self;
        for_set_bits(occupied, first_pde, last_pde, |pde| {
            let base = VirtAddr((pde as u64) << 21);
            // lint:allow(panic-path): occupied-bitmap/slot coherence is a structural invariant of every mutation path
            match slots[pde].as_mut().expect("occupied bit implies slot") {
                PdEntry::Huge(pte) => {
                    if pte.present() && range.contains(base) {
                        f(base, pte, FrameSize::Huge2M);
                    }
                }
                PdEntry::Table(leaf) => {
                    for_set_bits(&leaf.present, 0, LEAF_PTES - 1, |i| {
                        let va = base + (i as u64) * PAGE_SIZE_4K;
                        if range.contains(va) {
                            f(va, &mut leaf.ptes[i], FrameSize::Base4K);
                        }
                    });
                }
            }
        });
    }

    /// Read-only variant of [`PageTable::for_each_mapped`]: visits every
    /// mapped page in `range` without touching PTE flag bits, in strictly
    /// ascending address order, which falls out of dense index iteration
    /// (no sorting, no hasher bucket order). [`USER_SPACE`] walks the
    /// whole table. Used by the `MTM_CHECK` sanitizer, checkpoints and
    /// read-only sweeps, which must observe without perturbing.
    pub fn for_each_mapped_in(
        &self,
        range: VaRange,
        mut f: impl FnMut(VirtAddr, Pte, FrameSize),
    ) {
        if range.is_empty() || self.slots.is_empty() {
            return;
        }
        let first_pde = range.start.pde_index() as usize;
        let last_pde = ((range.end.0 - 1) >> 21) as usize;
        #[cfg(debug_assertions)]
        let mut last: Option<u64> = None;
        let mut visit = |va: VirtAddr, pte: Pte, size: FrameSize| {
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    last.map_or(true, |l| l < va.0),
                    "page-table walk must yield strictly ascending VAs"
                );
                last = Some(va.0);
            }
            f(va, pte, size);
        };
        for_set_bits(&self.occupied, first_pde, last_pde, |pde| {
            let base = VirtAddr((pde as u64) << 21);
            // lint:allow(panic-path): occupied-bitmap/slot coherence is a structural invariant of every mutation path
            match self.slots[pde].as_ref().expect("occupied bit implies slot") {
                PdEntry::Huge(pte) => {
                    if pte.present() && range.contains(base) {
                        visit(base, *pte, FrameSize::Huge2M);
                    }
                }
                PdEntry::Table(leaf) => {
                    for_set_bits(&leaf.present, 0, LEAF_PTES - 1, |i| {
                        let va = base + (i as u64) * PAGE_SIZE_4K;
                        if range.contains(va) {
                            visit(va, leaf.ptes[i], FrameSize::Base4K);
                        }
                    });
                }
            }
        });
    }

    /// Base virtual addresses of all valid last-level PDEs, sorted.
    ///
    /// These are the default memory regions profilers start from.
    pub fn valid_pde_bases(&self) -> Vec<VirtAddr> {
        let v: Vec<VirtAddr> = self.valid_pdes_from(VirtAddr(0)).collect();
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "PDE bases ascend by construction");
        v
    }

    /// The walk behind [`PageTable::valid_pde_bases`], without collecting,
    /// from `from` on: yields the base address of each valid last-level
    /// PDE at or above `from`, ascending, straight from the occupancy
    /// bitmap.
    pub fn valid_pdes_from(&self, from: VirtAddr) -> impl Iterator<Item = VirtAddr> + '_ {
        let first = from.0.div_ceil(PAGE_SIZE_2M) as usize;
        let first_word = first >> 6;
        self.occupied.iter().enumerate().skip(first_word).flat_map(move |(w, &word)| {
            let mut word = if w == first_word { word & !0u64 << (first & 63) } else { word };
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let pde = ((w as u64) << 6) | word.trailing_zeros() as u64;
                    word &= word - 1;
                    VirtAddr(pde << 21)
                })
            })
        })
    }

    /// Splits the huge mapping covering `va` into 512 base mappings that all
    /// point into the same (now logically fragmented) huge frame.
    ///
    /// Mirrors THP splitting in Linux: the physical frame stays where it is;
    /// the mapping granularity drops to 4 KB so individual subpages can be
    /// migrated. Returns `false` if `va` is not covered by a huge mapping.
    pub fn split_huge(&mut self, va: VirtAddr) -> bool {
        let pde = va.pde_index();
        let Some(entry) = self.entry_mut(pde) else { return false };
        let PdEntry::Huge(huge) = entry else { return false };
        let huge = *huge;
        let base_frame = huge.frame();
        let mut leaf = Leaf::empty();
        for i in 0..LEAF_PTES {
            let frame = crate::addr::PhysAddr::new(
                base_frame.component(),
                base_frame.offset() + (i as u64) * PAGE_SIZE_4K,
            );
            let mut p = Pte::map(frame, false);
            // Carry over A/D state so profiling history is not lost.
            p.0 |= huge.0 & (PTE_ACCESSED | PTE_DIRTY);
            leaf.ptes[i] = p;
        }
        leaf.present = [!0u64; WORDS];
        // lint:allow(panic-path): the same pde matched Huge above; a miss here is table corruption
        *self.entry_mut(pde).expect("entry just matched") = PdEntry::Table(leaf);
        // 2 MB was mapped before and after; `mapped_bytes` is unchanged
        // (512 * 4 KB == 2 MB).
        debug_assert_eq!(PTES_PER_PD * PAGE_SIZE_4K, PAGE_SIZE_2M);
        true
    }

    /// Serializes the table: VMAs plus every mapped page as
    /// `(delta-encoded page number, size, raw PTE word)`. Walk order is
    /// ascending by construction, so the encoding is canonical — two equal
    /// tables serialize to identical bytes.
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.vmas.len() as u64);
        for vma in &self.vmas {
            w.str(&vma.name);
            vma.range.save(w);
            w.bool(vma.thp);
        }
        let mut pages = 0u64;
        self.for_each_mapped_in(USER_SPACE, |_, _, _| pages += 1);
        w.varint(pages);
        let mut prev = 0u64;
        self.for_each_mapped_in(USER_SPACE, |va, pte, size| {
            let pn = va.0 >> 12;
            w.varint(pn - prev);
            prev = pn;
            w.bool(size == FrameSize::Huge2M);
            w.u64(pte.0);
        });
    }

    /// Errors unless a mapping of the given size can be installed at `va`
    /// (the conditions `map_2m` and `map_4k` assert), so restore rejects
    /// a corrupted page list instead of panicking.
    fn check_vacant(&self, va: VirtAddr, huge: bool) -> Result<(), String> {
        if huge && !va.is_2m_aligned() {
            return Err(format!("page table: huge mapping at unaligned {va:?}"));
        }
        match self.entry(va.pde_index()) {
            None => Ok(()),
            Some(PdEntry::Table(leaf)) if !huge && !test_bit(&leaf.present, va.pte_index()) => Ok(()),
            Some(_) => Err(format!("page table: double map at {va:?}")),
        }
    }

    /// Restores a table saved with [`PageTable::save`]. Mapped bytes,
    /// PDE occupancy and the present bitmaps are re-derived from the
    /// installed PTEs (the source of truth), so the result passes
    /// [`PageTable::check_side_metadata`] by construction.
    pub fn load(r: &mut obs::wire::Reader) -> Result<PageTable, String> {
        let mut pt = PageTable::new();
        for _ in 0..r.varint()? {
            let name = r.str()?;
            let range = VaRange::load(r)?;
            let thp = r.bool()?;
            if range.end.0 > VA_LIMIT || !range.start.is_4k_aligned() || !range.end.is_4k_aligned() {
                return Err(format!("page table: invalid VMA range {range:?}"));
            }
            if pt.vmas.iter().any(|v| v.range.overlaps(range)) {
                return Err(format!("page table: VMA {range:?} overlaps another"));
            }
            pt.mmap(&name, range, thp);
        }
        let pages = r.varint()?;
        let mut prev = 0u64;
        for _ in 0..pages {
            let pn = prev
                .checked_add(r.varint()?)
                .filter(|&pn| pn < VA_LIMIT >> 12)
                .ok_or("page table: page number beyond 47-bit user space")?;
            prev = pn;
            let huge = r.bool()?;
            let pte = Pte(r.u64()?);
            let va = VirtAddr(pn << 12);
            pt.check_vacant(va, huge)?;
            if huge {
                if !pte.present() || !pte.huge() {
                    return Err(format!("page table: bad huge PTE {:#x} at {va:?}", pte.0));
                }
                pt.map_2m(va, pte);
            } else {
                if !pte.present() || pte.huge() {
                    return Err(format!("page table: bad base PTE {:#x} at {va:?}", pte.0));
                }
                pt.map_4k(va, pte);
            }
        }
        Ok(pt)
    }

    /// Re-derives every packed-metadata word from the PTEs and the slots
    /// (the source of truth) and reports mismatches — the `MTM_CHECK`
    /// sanitizer's side-metadata cross-check. Returns human-readable
    /// violations; empty means every `present` word and occupancy bit is
    /// consistent and no occupancy bit lies past the slot vector.
    pub fn check_side_metadata(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.occupied.len() != self.slots.len().div_ceil(64) {
            v.push(format!(
                "occupancy bitmap has {} words but {} slots need {}",
                self.occupied.len(),
                self.slots.len(),
                self.slots.len().div_ceil(64)
            ));
        }
        let mut pdes = 0usize;
        for (pde, slot) in self.slots.iter().enumerate() {
            let occupied = test_bit(&self.occupied, pde);
            if occupied != slot.is_some() {
                v.push(format!(
                    "pde {pde}: occupancy bit {occupied} but slot present {}",
                    slot.is_some()
                ));
            }
            pdes += slot.is_some() as usize;
            let base = (pde as u64) << 21;
            let Some(PdEntry::Table(leaf)) = slot.as_ref() else { continue };
            let mut present = [0u64; WORDS];
            for (i, pte) in leaf.ptes.iter().enumerate() {
                if pte.present() {
                    set_bit(&mut present, i);
                }
            }
            for (w, (&got, want)) in leaf.present.iter().zip(present).enumerate() {
                if got != want {
                    v.push(format!(
                        "pde base {base:#x} present word {w}: metadata {got:#018x} but PTEs say {want:#018x}"
                    ));
                }
            }
        }
        let pop: usize = self.occupied.iter().map(|w| w.count_ones() as usize).sum();
        if pop != pdes {
            v.push(format!(
                "occupancy bitmap has {pop} set bits but {pdes} occupied slots (stray bits past the slot vector)"
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    fn pte4k(c: u16, off: u64) -> Pte {
        Pte::map(PhysAddr::new(c, off), false)
    }

    #[test]
    fn map_translate_unmap_4k() {
        let mut pt = PageTable::new();
        let va = VirtAddr(0x40_0000);
        pt.map_4k(va, pte4k(1, 0x1000));
        let t = pt.translate(va).unwrap();
        assert_eq!(t.size, FrameSize::Base4K);
        assert_eq!(t.pte.frame(), PhysAddr::new(1, 0x1000));
        assert_eq!(pt.mapped_bytes(), PAGE_SIZE_4K);
        let (old, size) = pt.unmap(va).unwrap();
        assert_eq!(size, FrameSize::Base4K);
        assert_eq!(old.frame(), PhysAddr::new(1, 0x1000));
        assert!(pt.translate(va).is_none());
        assert!(pt.pde_vacant(va), "empty leaf tables are pruned");
        assert!(pt.check_side_metadata().is_empty());
    }

    #[test]
    fn huge_mapping_covers_span() {
        let mut pt = PageTable::new();
        let base = VirtAddr(4 * PAGE_SIZE_2M);
        pt.map_2m(base, Pte::map(PhysAddr::new(2, 0), true));
        for off in [0u64, 4096, PAGE_SIZE_2M - 1] {
            let t = pt.translate(VirtAddr(base.0 + off)).unwrap();
            assert_eq!(t.size, FrameSize::Huge2M);
        }
        assert!(pt.translate(VirtAddr(base.0 + PAGE_SIZE_2M)).is_none());
    }

    #[test]
    fn for_each_mapped_respects_range() {
        let mut pt = PageTable::new();
        for i in 0..4u64 {
            pt.map_4k(VirtAddr(i * PAGE_SIZE_4K), pte4k(0, i * PAGE_SIZE_4K));
        }
        let r = VaRange::from_len(VirtAddr(PAGE_SIZE_4K), 2 * PAGE_SIZE_4K);
        let mut seen = Vec::new();
        pt.for_each_mapped(r, |va, _, _| seen.push(va.0 / PAGE_SIZE_4K));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn vma_lookup() {
        let mut pt = PageTable::new();
        pt.mmap("a", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), true);
        pt.mmap("b", VaRange::from_len(VirtAddr(16 * PAGE_SIZE_2M), PAGE_SIZE_2M), false);
        assert_eq!(pt.vma_of(VirtAddr(100)).unwrap().name, "a");
        assert_eq!(pt.vma_of(VirtAddr(16 * PAGE_SIZE_2M + 5)).unwrap().name, "b");
        assert!(pt.vma_of(VirtAddr(8 * PAGE_SIZE_2M)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn vma_overlap_rejected() {
        let mut pt = PageTable::new();
        pt.mmap("a", VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M), true);
        pt.mmap("b", VaRange::from_len(VirtAddr(PAGE_SIZE_4K), PAGE_SIZE_2M), true);
    }

    #[test]
    fn split_huge_preserves_frames_and_flags() {
        let mut pt = PageTable::new();
        let base = VirtAddr(0);
        let mut huge = Pte::map(PhysAddr::new(3, 0x20_0000), true);
        huge.set(crate::pte::PTE_ACCESSED);
        pt.map_2m(base, huge);
        assert!(pt.split_huge(VirtAddr(12345)));
        let t = pt.translate(VirtAddr(5 * PAGE_SIZE_4K)).unwrap();
        assert_eq!(t.size, FrameSize::Base4K);
        assert_eq!(t.pte.frame(), PhysAddr::new(3, 0x20_0000 + 5 * PAGE_SIZE_4K));
        assert!(t.pte.accessed(), "A bit carried to subpages");
        assert_eq!(pt.mapped_bytes(), PAGE_SIZE_2M);
        assert!(pt.check_side_metadata().is_empty(), "split marks every subpage present");
    }

    #[test]
    fn valid_pde_bases_sorted() {
        let mut pt = PageTable::new();
        pt.map_2m(VirtAddr(6 * PAGE_SIZE_2M), Pte::map(PhysAddr::new(0, 0), true));
        pt.map_4k(VirtAddr(PAGE_SIZE_2M), pte4k(0, 0x1000));
        let bases = pt.valid_pde_bases();
        assert_eq!(bases, vec![VirtAddr(PAGE_SIZE_2M), VirtAddr(6 * PAGE_SIZE_2M)]);
        // Bases past the first bitmap word, and a pruned slot, walk too.
        pt.map_4k(VirtAddr(130 * PAGE_SIZE_2M), pte4k(0, 0x2000));
        pt.unmap(VirtAddr(PAGE_SIZE_2M)).unwrap();
        let bases = pt.valid_pde_bases();
        assert_eq!(bases, vec![VirtAddr(6 * PAGE_SIZE_2M), VirtAddr(130 * PAGE_SIZE_2M)]);
        // A walk from inside or at a PDE starts at the first base at or
        // above that address.
        let from = |va: u64| pt.valid_pdes_from(VirtAddr(va)).collect::<Vec<_>>();
        assert_eq!(from(0), bases);
        assert_eq!(from(6 * PAGE_SIZE_2M), bases);
        assert_eq!(from(6 * PAGE_SIZE_2M + 1), vec![VirtAddr(130 * PAGE_SIZE_2M)]);
        assert_eq!(from(129 * PAGE_SIZE_2M + PAGE_SIZE_4K), vec![VirtAddr(130 * PAGE_SIZE_2M)]);
        assert!(from(131 * PAGE_SIZE_2M).is_empty());
        assert!(from(1 << 46).is_empty(), "past the table's end");
    }

    /// The ACCESSED bit and size of the page covering `va`, from its PTE.
    fn accessed(pt: &PageTable, va: VirtAddr) -> Option<(bool, FrameSize)> {
        pt.translate(va).map(|t| (t.pte.accessed(), t.size))
    }

    #[test]
    fn touch_and_scan_keep_side_metadata_in_sync() {
        let mut pt = PageTable::new();
        let va = VirtAddr(3 * PAGE_SIZE_4K);
        pt.map_4k(va, pte4k(0, 0x4000));
        assert_eq!(accessed(&pt, va), Some((false, FrameSize::Base4K)));
        let (pre, size) = pt.touch(va, true).unwrap();
        assert!(!pre.accessed(), "touch returns the pre-access PTE");
        assert_eq!(size, FrameSize::Base4K);
        assert_eq!(accessed(&pt, va), Some((true, FrameSize::Base4K)));
        assert!(pt.translate(va).unwrap().pte.dirty());
        assert!(pt.check_side_metadata().is_empty());
        let (was, _) = pt.scan_page_at(va).unwrap();
        assert!(was);
        assert_eq!(accessed(&pt, va), Some((false, FrameSize::Base4K)));
        assert!(!pt.translate(va).unwrap().pte.accessed(), "scan clears the PTE bit too");
        assert!(pt.check_side_metadata().is_empty());
    }

    #[test]
    fn remap_with_history_syncs_bitmaps() {
        // A migration remap installs a PTE that already carries A/D.
        let mut pt = PageTable::new();
        let va = VirtAddr(0);
        let mut pte = pte4k(0, 0);
        pte.set(PTE_ACCESSED | PTE_DIRTY);
        pt.map_4k(va, pte);
        assert_eq!(accessed(&pt, va), Some((true, FrameSize::Base4K)));
        assert!(pt.check_side_metadata().is_empty());
        pt.unmap(va).unwrap();
        assert!(pt.check_side_metadata().is_empty());
    }

    #[test]
    fn walks_cross_gigabyte_boundaries_in_order() {
        let mut pt = PageTable::new();
        // One page in each of the first, second and fourth GB of virtual
        // space.
        let gb = 1u64 << 30;
        for (i, base) in [0u64, gb, 3 * gb].iter().enumerate() {
            pt.map_4k(VirtAddr(base + PAGE_SIZE_4K), pte4k(0, (i as u64) * PAGE_SIZE_4K));
        }
        let walk = |range| {
            let mut seen = Vec::new();
            pt.for_each_mapped_in(range, |va, _, _| seen.push(va.0));
            seen
        };
        let all = vec![PAGE_SIZE_4K, gb + PAGE_SIZE_4K, 3 * gb + PAGE_SIZE_4K];
        assert_eq!(walk(USER_SPACE), all);
        assert_eq!(walk(VaRange::new(VirtAddr(0), VirtAddr(4 * gb))), all);
        assert_eq!(walk(VaRange::new(VirtAddr(2 * PAGE_SIZE_4K), VirtAddr(3 * gb))), &all[1..2]);
        assert_eq!(pt.valid_pde_bases().len(), 3);
    }

    #[test]
    fn save_load_round_trips_canonically() {
        let mut pt = PageTable::new();
        pt.mmap("heap", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), true);
        pt.map_2m(VirtAddr(0), Pte::map(PhysAddr::new(2, 0x20_0000), true));
        let mut dirty = pte4k(0, 0x3000);
        dirty.set(PTE_ACCESSED | PTE_DIRTY);
        pt.map_4k(VirtAddr(3 * PAGE_SIZE_2M), dirty);
        pt.map_4k(VirtAddr(3 * PAGE_SIZE_2M + PAGE_SIZE_4K), pte4k(1, 0x5000));
        pt.touch(VirtAddr(4096), true);

        let mut w = obs::wire::Writer::new();
        pt.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = obs::wire::Reader::new(&bytes);
        let back = PageTable::load(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.mapped_bytes(), pt.mapped_bytes());
        assert_eq!(back.valid_pde_bases(), pt.valid_pde_bases());
        assert_eq!(back.vmas().len(), 1);
        assert!(back.check_side_metadata().is_empty());
        let mut orig = Vec::new();
        pt.for_each_mapped_in(USER_SPACE, |va, pte, size| orig.push((va, pte, size)));
        let mut loaded = Vec::new();
        back.for_each_mapped_in(USER_SPACE, |va, pte, size| loaded.push((va, pte, size)));
        assert_eq!(orig, loaded);
        // Canonical: re-saving reproduces identical bytes.
        let mut w2 = obs::wire::Writer::new();
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn accessed_and_dirty_set_through_pte_mut_are_seen() {
        let mut pt = PageTable::new();
        let base_va = VirtAddr(5 * PAGE_SIZE_4K);
        let huge_va = VirtAddr(2 * PAGE_SIZE_2M);
        pt.map_4k(base_va, pte4k(0, 0));
        pt.map_2m(huge_va, Pte::map(PhysAddr::new(1, 0), true));
        for (va, size) in [(base_va, FrameSize::Base4K), (huge_va, FrameSize::Huge2M)] {
            pt.pte_mut(va).unwrap().0.set(PTE_ACCESSED | PTE_DIRTY);
            assert!(pt.check_side_metadata().is_empty(), "A/D live in the PTE alone");
            assert_eq!(pt.scan_page_at(va), Some((true, size)));
            assert_eq!(pt.scan_page_at(va), Some((false, size)), "the scan cleared it");
            assert!(pt.translate(va).unwrap().pte.dirty());
        }
    }

    #[test]
    fn side_metadata_check_catches_drift() {
        let mut pt = PageTable::new();
        let va = VirtAddr(PAGE_SIZE_4K);
        pt.map_4k(va, pte4k(0, 0));
        // Clear PRESENT behind the present bitmap's back.
        pt.pte_mut(va).unwrap().0.clear(crate::pte::PTE_PRESENT);
        let v = pt.check_side_metadata();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("present word 0"), "{v:?}");
        pt.pte_mut(va).unwrap().0.set(crate::pte::PTE_PRESENT);
        assert!(pt.check_side_metadata().is_empty());
        // Drop the slot's occupancy bit: the slot and the popcount both
        // disagree with the bitmap.
        clear_bit(&mut pt.occupied, 0);
        let v = pt.check_side_metadata();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("pde 0: occupancy bit false"), "{v:?}");
        assert!(v[1].contains("0 set bits but 1 occupied slots"), "{v:?}");
    }
}
