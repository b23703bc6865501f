//! Corpus migration path: every non-test fn of this file is a D8 root,
//! so the sites the retired textual D5 rule flagged are D8 findings.

/// Not a named root; rooted because of the file it lives in.
pub fn unmap_one(slots: &mut Vec<u64>, at: usize) -> u64 {
    let page = slots.get(at).copied().expect("page mapped");
    page + slots.pop().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(Some(1u64).unwrap(), 1);
    }
}
