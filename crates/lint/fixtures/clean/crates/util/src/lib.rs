//! Clean twin of the corpus helper crate: the jitter is a pure
//! function of the caller's seed, so no rule has anything to say.

/// Deterministic "jitter" derived from the seed (SplitMix64 finalizer).
pub fn jitter(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reads the first byte without a bounds check, saying why that is sound.
pub fn first_byte(b: &[u8]) -> u8 {
    if b.is_empty() {
        return 0;
    }
    // SAFETY: `b` is non-empty, so index 0 is in bounds.
    unsafe { *b.get_unchecked(0) }
}
