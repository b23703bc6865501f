//! Clean twin migration path: every fn handles its None arm.

/// Returns `None` instead of unwrapping.
pub fn unmap_one(slots: &mut Vec<u64>, at: usize) -> Option<u64> {
    let page = slots.get(at).copied()?;
    Some(page + slots.pop()?)
}
