//! Corpus relocation engine: the D8 closure root.

/// Transactional relocation root; must be panic-free transitively.
pub fn relocate_range(n: u64) -> u64 {
    copy_step(n)
}

/// One hop below the root, hiding an unwrap from the textual rules
/// (this file is not a D8 root file).
fn copy_step(n: u64) -> u64 {
    n.checked_add(1).unwrap()
}
