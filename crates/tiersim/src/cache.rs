//! Hardware-managed DRAM cache (Optane Memory Mode).
//!
//! In Memory Mode the DRAM in front of each socket's PM becomes a
//! direct-mapped, write-back hardware cache and only the PM capacity is
//! visible to software. The model operates at cache-line (64 B) block
//! granularity: a miss fetches the block from PM, and evicting a dirty
//! block writes it back — the *write amplification* the paper blames for
//! HMC's losses (Sec. 9.1: "HMC incurs write amplification when cache
//! misses occur").
//!
//! Tag state is one byte per DRAM line. A PM block `b` maps to set
//! `b % sets`; the blocks sharing a set differ only in their *alias*
//! `b / sets`, which is all the line has to remember. The backing PM is
//! at most 64 times the DRAM in front of it (the paper's machine is
//! 756:96, 8 aliases), so the alias fits the byte's upper six bits.

use crate::addr::{PhysAddr, CACHE_LINE};

/// Result of a cache probe, with the PM traffic it generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// True if the block was present.
    pub hit: bool,
    /// Bytes fetched from PM (block fill on miss).
    pub fill_bytes: u64,
    /// Bytes written back to PM (dirty eviction).
    pub writeback_bytes: u64,
}

/// Line layout: VALID and DIRTY in the two low bits, the alias
/// (`block_no / sets`) in the upper six. A zero byte is an empty line.
const LINE_VALID: u8 = 1;
const LINE_DIRTY: u8 = 2;
const LINE_ALIAS_SHIFT: u32 = 2;
/// Most aliases a one-byte line can tell apart.
const MAX_ALIASES: u64 = 1 << (8 - LINE_ALIAS_SHIFT);
const BLOCK_SHIFT: u32 = CACHE_LINE.trailing_zeros();

/// A direct-mapped write-back cache of one PM component.
#[derive(Debug)]
pub struct HwCache {
    lines: Vec<u8>,
    /// `ceil(2^64 / sets)`, the reciprocal that turns `block_no / sets`
    /// into one `u128` multiply (Lemire's fastdiv). Meaningful only when
    /// `magic_exact`.
    magic: u64,
    /// Whether the reciprocal divides every block of the backing PM
    /// exactly; otherwise the probe falls back to a hardware divide.
    magic_exact: bool,
    /// `ceil(backing blocks / sets)`: how many PM blocks share a set.
    aliases: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl HwCache {
    /// Creates a cache of `capacity` bytes of DRAM in front of `backing`
    /// bytes of PM, with cache-line (64 B) blocks, the granularity of
    /// Optane Memory Mode's DRAM cache.
    ///
    /// # Panics
    ///
    /// If more than 64 PM blocks share a set (the PM is more than 64 times
    /// the DRAM), the most aliases a one-byte line can tell apart.
    pub fn new(capacity: u64, backing: u64) -> HwCache {
        let sets = (capacity / CACHE_LINE).max(1);
        let aliases = (backing / CACHE_LINE).div_ceil(sets).max(1);
        assert!(
            aliases <= MAX_ALIASES,
            "Memory Mode: {backing} B of PM behind {capacity} B of DRAM is {aliases} aliases \
             per line; a one-byte tag holds at most {MAX_ALIASES}"
        );
        // With `magic * sets == 2^64 + r`, the fastdiv quotient of `b` is
        // `b / sets + (b % sets + b * r / 2^64) / sets`, so it is exact
        // whenever `b * r < 2^64` for every block `b` the cache can see.
        // One set has no 64-bit reciprocal; it takes the divide (by 1).
        let (magic, magic_exact) = if sets > 1 {
            let magic = u64::MAX / sets + 1;
            let r = magic as u128 * sets as u128 - (1u128 << 64);
            let max_block = (aliases * sets - 1) as u128;
            (magic, max_block * r < 1u128 << 64)
        } else {
            (0, false)
        };
        HwCache {
            lines: vec![0; sets as usize],
            magic,
            magic_exact,
            aliases,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Splits a PM block number into its set and alias. The quotient
    /// comes from the reciprocal when that is exact and from a divide
    /// otherwise; debug builds check it against the divide on every probe.
    #[inline]
    fn locate(&self, block_no: u64) -> (usize, u8) {
        let sets = self.lines.len() as u64;
        let alias = if self.magic_exact {
            ((self.magic as u128 * block_no as u128) >> 64) as u64
        } else {
            block_no / sets
        };
        debug_assert_eq!(alias, block_no / sets);
        debug_assert!(alias < self.aliases, "PM block {block_no} beyond the cache's backing");
        ((block_no - alias * sets) as usize, alias as u8)
    }

    /// Probes the cache for an access to PM address `pa`, reporting the
    /// PM traffic it generated.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr, is_write: bool) -> CacheAccess {
        let (set, alias) = self.locate(pa.offset() >> BLOCK_SHIFT);
        let line = &mut self.lines[set];
        let tagged = (alias << LINE_ALIAS_SHIFT) | LINE_VALID;
        if *line | LINE_DIRTY == tagged | LINE_DIRTY {
            self.hits += 1;
            if is_write {
                *line |= LINE_DIRTY;
            }
            return CacheAccess { hit: true, fill_bytes: 0, writeback_bytes: 0 };
        }
        // Miss: possibly write back the victim, then fill.
        self.misses += 1;
        let writeback_bytes = if *line & (LINE_VALID | LINE_DIRTY) == LINE_VALID | LINE_DIRTY {
            self.writebacks += 1;
            CACHE_LINE
        } else {
            0
        };
        *line = tagged | if is_write { LINE_DIRTY } else { 0 };
        CacheAccess { hit: false, fill_bytes: CACHE_LINE, writeback_bytes }
    }

    /// Number of sets (DRAM lines).
    #[cfg(test)]
    pub(crate) fn sets(&self) -> usize {
        self.lines.len()
    }

    /// Bytes of tag state.
    #[cfg(test)]
    pub(crate) fn tag_bytes(&self) -> usize {
        std::mem::size_of_val(self.lines.as_slice())
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative dirty evictions.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Hit ratio over the cache's lifetime, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Serializes the lines (length-prefixed: the prefix is the set
    /// count) and the three counters.
    pub(crate) fn save(&self, w: &mut obs::wire::Writer) {
        w.bytes(&self.lines);
        w.varint(self.hits);
        w.varint(self.misses);
        w.varint(self.writebacks);
    }

}

/// The cache as it was before one-byte lines: one `u64` word per set
/// holding the whole block number as the tag. Kept as the oracle the
/// one-byte cache must match probe for probe.
#[cfg(test)]
pub(crate) mod reference {
    use super::{CacheAccess, PhysAddr, CACHE_LINE};

    const LINE_VALID: u64 = 1;
    const LINE_DIRTY: u64 = 2;
    const LINE_TAG_SHIFT: u32 = 2;

    /// A direct-mapped write-back cache with full block-number tags.
    pub struct WordTagCache {
        sets: Vec<u64>,
        pub hits: u64,
        pub misses: u64,
        pub writebacks: u64,
    }

    impl WordTagCache {
        /// A cache of `capacity` bytes with 64 B blocks.
        pub fn new(capacity: u64) -> WordTagCache {
            let n = (capacity / CACHE_LINE).max(1) as usize;
            WordTagCache { sets: vec![0; n], hits: 0, misses: 0, writebacks: 0 }
        }

        /// Probes for an access to PM address `pa`.
        pub fn access(&mut self, pa: PhysAddr, is_write: bool) -> CacheAccess {
            let block_no = pa.offset() / CACHE_LINE;
            let set = (block_no % self.sets.len() as u64) as usize;
            let line = &mut self.sets[set];
            let tagged = (block_no << LINE_TAG_SHIFT) | LINE_VALID;
            if *line | LINE_DIRTY == tagged | LINE_DIRTY {
                self.hits += 1;
                if is_write {
                    *line |= LINE_DIRTY;
                }
                return CacheAccess { hit: true, fill_bytes: 0, writeback_bytes: 0 };
            }
            self.misses += 1;
            let writeback_bytes = if *line & (LINE_VALID | LINE_DIRTY) == LINE_VALID | LINE_DIRTY {
                self.writebacks += 1;
                CACHE_LINE
            } else {
                0
            };
            *line = tagged | if is_write { LINE_DIRTY } else { 0 };
            CacheAccess { hit: false, fill_bytes: CACHE_LINE, writeback_bytes }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::WordTagCache;
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = HwCache::new(16 * CACHE_LINE, 128 * CACHE_LINE);
        let pa = PhysAddr::new(2, 3 * CACHE_LINE);
        let first = c.access(pa, false);
        assert!(!first.hit);
        assert_eq!(first.fill_bytes, CACHE_LINE);
        let second = c.access(pa, false);
        assert!(second.hit);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn conflict_eviction_writes_back_dirty() {
        let mut c = HwCache::new(2 * CACHE_LINE, 16 * CACHE_LINE);
        let a = PhysAddr::new(2, 0);
        // Same set as `a` in a 2-set cache (block 2 maps to set 0).
        let b = PhysAddr::new(2, 2 * CACHE_LINE);
        c.access(a, true);
        let evict = c.access(b, false);
        assert!(!evict.hit);
        assert_eq!(evict.writeback_bytes, CACHE_LINE, "dirty victim written back");
        assert_eq!(c.writebacks(), 1);
        // Clean eviction has no writeback.
        let back = c.access(a, false);
        assert_eq!(back.writeback_bytes, 0);
    }

    #[test]
    fn writes_mark_dirty_on_hit() {
        let mut c = HwCache::new(2 * CACHE_LINE, 16 * CACHE_LINE);
        let a = PhysAddr::new(2, 0);
        let b = PhysAddr::new(2, 2 * CACHE_LINE);
        c.access(a, false);
        c.access(a, true); // Hit that dirties the line.
        let evict = c.access(b, false);
        assert_eq!(evict.writeback_bytes, CACHE_LINE);
    }

    #[test]
    #[should_panic(expected = "one-byte tag")]
    fn more_aliases_than_a_byte_holds_is_refused() {
        HwCache::new(4 * CACHE_LINE, 4 * (MAX_ALIASES + 1) * CACHE_LINE);
    }

    #[test]
    fn reciprocal_quotient_is_exact_on_every_backing_block() {
        // Set counts around powers of two and odd ones, each with its
        // maximal alias span; the reciprocal must agree with the divide
        // on every block (also checked by `locate`'s debug assertion).
        for sets in [1u64, 2, 3, 5, 7, 12, 63, 64, 65, 96, 1000, 4095] {
            let c = HwCache::new(sets * CACHE_LINE, MAX_ALIASES * sets * CACHE_LINE);
            assert_eq!(c.magic_exact, sets > 1, "{sets} sets");
            for b in 0..MAX_ALIASES * sets {
                assert_eq!(c.locate(b), ((b % sets) as usize, (b / sets) as u8), "block {b}");
            }
        }
    }

    #[test]
    fn prop_one_byte_tags_match_word_tags() {
        use proptest_lite::{gen, prop_assert_eq, prop_check};
        // A few sets (odd and even counts) with up to the full alias span
        // behind them; each step names a set and an alias, so every alias
        // of a set gets hit and evicted. `divide` forces the fallback.
        prop_check!(
            "one_byte_tags_match_word_tags",
            64,
            (
                gen::u64_range(1, 9),
                gen::u64_range(1, MAX_ALIASES + 1),
                gen::u8_range(0, 2),
                gen::vec_in(
                    (gen::u64_range(0, 9), gen::u64_range(0, MAX_ALIASES), gen::u8_range(0, 2)),
                    1,
                    400,
                ),
            ),
            |(sets, aliases, divide, steps)| {
                let (sets, aliases) = (*sets, *aliases);
                let mut fast = HwCache::new(sets * CACHE_LINE, aliases * sets * CACHE_LINE);
                if *divide == 1 {
                    fast.magic_exact = false;
                }
                let mut oracle = WordTagCache::new(sets * CACHE_LINE);
                for (i, &(set, alias, write)) in steps.iter().enumerate() {
                    let block = (alias % aliases) * sets + set % sets;
                    let pa = PhysAddr::new(2, block * CACHE_LINE + (i as u64 % CACHE_LINE));
                    let is_write = write == 1;
                    prop_assert_eq!(fast.access(pa, is_write), oracle.access(pa, is_write), "step {i}");
                }
                prop_assert_eq!(
                    (fast.hits(), fast.misses(), fast.writebacks()),
                    (oracle.hits, oracle.misses, oracle.writebacks)
                );
            }
        );
    }
}
