//! Corpus helper crate: not an ordered crate itself, so only the
//! semantic rules can see what decision paths launder through it.

/// Draws "jitter" from ambient entropy. The textual D3 finding on the
/// draw is suppressed by the `lint.toml` path allow, so only D6 can
/// catch the decision paths that call this.
pub fn jitter() -> u64 {
    let r = rand::random::<u64>();
    r ^ 1
}

/// Carries a misspelled allow slug that L1 must reject.
pub fn quiet() -> u64 {
    7 // lint:allow(wall-clok): misspelled slug for the L1 fixture
}

/// Reads the first byte without a bounds check and without saying why
/// that is sound, which U1 must flag.
pub fn first_byte(b: &[u8]) -> u8 {
    if b.is_empty() {
        return 0;
    }
    unsafe { *b.get_unchecked(0) }
}
