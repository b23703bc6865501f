//! Virtual and physical address newtypes and page-size constants.
//!
//! All simulated addresses are plain `u64` values wrapped in newtypes so the
//! type system keeps virtual and physical spaces apart. The simulated machine
//! uses the x86-64 layout the paper assumes: 4 KB base pages and 2 MB huge
//! pages, where one last-level page-directory entry (PDE) spans 2 MB.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of a base page in bytes (4 KB).
pub const PAGE_SIZE_4K: u64 = 4096;
/// Size of a huge page in bytes (2 MB), also the span of a last-level PDE.
pub const PAGE_SIZE_2M: u64 = 2 * 1024 * 1024;
/// Number of base pages per huge page / last-level PDE (512).
pub const PTES_PER_PD: u64 = PAGE_SIZE_2M / PAGE_SIZE_4K;
/// Bytes touched by one simulated memory access (a cache line).
pub const CACHE_LINE: u64 = 64;

/// A virtual address in the simulated process address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical address in a simulated memory component.
///
/// The top 16 bits carry the memory-component (tier) index; the low 48 bits
/// are the byte offset within that component.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl VirtAddr {
    /// Returns the address rounded down to a 4 KB page boundary.
    #[inline]
    pub fn page_4k(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE_4K - 1))
    }

    /// Returns the address rounded down to a 2 MB boundary.
    #[inline]
    pub fn page_2m(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE_2M - 1))
    }

    /// Index of the last-level PDE covering this address (address / 2 MB).
    #[inline]
    pub fn pde_index(self) -> u64 {
        self.0 >> 21
    }

    /// Index of the 4 KB PTE within its PDE (0..512).
    #[inline]
    pub fn pte_index(self) -> usize {
        ((self.0 >> 12) & (PTES_PER_PD - 1)) as usize
    }

    /// True if the address is aligned to a 2 MB boundary.
    #[inline]
    pub fn is_2m_aligned(self) -> bool {
        self.0 & (PAGE_SIZE_2M - 1) == 0
    }

    /// True if the address is aligned to a 4 KB boundary.
    #[inline]
    pub fn is_4k_aligned(self) -> bool {
        self.0 & (PAGE_SIZE_4K - 1) == 0
    }

    /// Rounds up to the next 2 MB boundary (identity if already aligned).
    #[inline]
    pub fn align_up_2m(self) -> VirtAddr {
        VirtAddr(self.0.checked_add(PAGE_SIZE_2M - 1).expect("address overflow") & !(PAGE_SIZE_2M - 1))
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtAddr {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#x})", self.0)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA(tier={}, off={:#x})", self.component(), self.offset())
    }
}

impl PhysAddr {
    /// Builds a physical address from a component index and byte offset.
    #[inline]
    pub fn new(component: u16, offset: u64) -> PhysAddr {
        debug_assert!(offset < 1 << 48, "offset exceeds 48 bits");
        PhysAddr(((component as u64) << 48) | offset)
    }

    /// Memory-component (tier) index this address lives in.
    #[inline]
    pub fn component(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// Byte offset within the memory component.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

/// A half-open range `[start, end)` of virtual addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaRange {
    /// Inclusive start address.
    pub start: VirtAddr,
    /// Exclusive end address.
    pub end: VirtAddr,
}

impl VaRange {
    /// Builds a range; panics if `end < start`.
    pub fn new(start: VirtAddr, end: VirtAddr) -> VaRange {
        assert!(end >= start, "inverted range");
        VaRange { start, end }
    }

    /// Writes the range as two `u64` bounds (checkpoint support).
    pub fn save(self, w: &mut obs::wire::Writer) {
        w.u64(self.start.0);
        w.u64(self.end.0);
    }

    /// Reads a range written by [`VaRange::save`]. Errors on an inverted
    /// range, where [`VaRange::new`] would panic.
    pub fn load(r: &mut obs::wire::Reader) -> Result<VaRange, String> {
        let (start, end) = (r.u64()?, r.u64()?);
        if end < start {
            return Err(format!("inverted range {start:#x}..{end:#x}"));
        }
        Ok(VaRange { start: VirtAddr(start), end: VirtAddr(end) })
    }

    /// Builds a range from a start address and a length in bytes.
    pub fn from_len(start: VirtAddr, len: u64) -> VaRange {
        VaRange { start, end: start + len }
    }

    /// Length of the range in bytes.
    #[inline]
    pub fn len(self) -> u64 {
        self.end - self.start
    }

    /// True if the range is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// True if `addr` lies within the range.
    #[inline]
    pub fn contains(self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// True if the two ranges share at least one byte.
    #[inline]
    pub fn overlaps(self, other: VaRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Number of 4 KB pages fully or partially covered by the range.
    pub fn pages_4k(self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let first = self.start.page_4k().0;
        let last = (self.end.0 + PAGE_SIZE_4K - 1) & !(PAGE_SIZE_4K - 1);
        (last - first) / PAGE_SIZE_4K
    }

    /// Iterates over the 4 KB page base addresses covered by the range.
    pub fn iter_pages_4k(self) -> impl Iterator<Item = VirtAddr> {
        let first = self.start.page_4k().0;
        let end = self.end.0;
        (first..end).step_by(PAGE_SIZE_4K as usize).map(VirtAddr)
    }

    /// Iterates over the 2 MB chunk base addresses covered by the range.
    pub fn iter_pages_2m(self) -> impl Iterator<Item = VirtAddr> {
        let first = self.start.page_2m().0;
        let end = self.end.0;
        (first..end).step_by(PAGE_SIZE_2M as usize).map(VirtAddr)
    }
}

impl fmt::Debug for VaRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start.0, self.end.0)
    }
}

/// Formats a byte count with a binary-unit suffix for reports.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_rounding() {
        let a = VirtAddr(0x2345_6789);
        assert_eq!(a.page_4k().0, 0x2345_6000);
        assert_eq!(a.page_2m().0, 0x2340_0000);
        assert_eq!(a.pde_index(), 0x2345_6789 >> 21);
        assert!(!a.is_2m_aligned());
        assert!(VirtAddr(0x0060_0000).is_2m_aligned());
    }

    #[test]
    fn align_up() {
        assert_eq!(VirtAddr(0).align_up_2m().0, 0);
        assert_eq!(VirtAddr(1).align_up_2m().0, PAGE_SIZE_2M);
        assert_eq!(VirtAddr(PAGE_SIZE_2M).align_up_2m().0, PAGE_SIZE_2M);
    }

    #[test]
    fn pte_index_cycles() {
        assert_eq!(VirtAddr(0).pte_index(), 0);
        assert_eq!(VirtAddr(PAGE_SIZE_4K).pte_index(), 1);
        assert_eq!(VirtAddr(PAGE_SIZE_2M - PAGE_SIZE_4K).pte_index(), 511);
        assert_eq!(VirtAddr(PAGE_SIZE_2M).pte_index(), 0);
    }

    #[test]
    fn phys_addr_packing() {
        let pa = PhysAddr::new(3, 0xdead_beef);
        assert_eq!(pa.component(), 3);
        assert_eq!(pa.offset(), 0xdead_beef);
    }

    #[test]
    fn range_page_iteration() {
        let r = VaRange::from_len(VirtAddr(PAGE_SIZE_4K / 2), PAGE_SIZE_4K);
        // Straddles two pages.
        assert_eq!(r.pages_4k(), 2);
        let pages: Vec<_> = r.iter_pages_4k().collect();
        assert_eq!(pages, vec![VirtAddr(0), VirtAddr(PAGE_SIZE_4K)]);
    }

    #[test]
    fn range_overlap() {
        let a = VaRange::from_len(VirtAddr(0), 100);
        let b = VaRange::from_len(VirtAddr(50), 100);
        let c = VaRange::from_len(VirtAddr(100), 100);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        assert!(a.contains(VirtAddr(99)));
        assert!(!a.contains(VirtAddr(100)));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
    }
}
