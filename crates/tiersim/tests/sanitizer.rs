//! Integration tests for the `MTM_CHECK` shadow-state sanitizer: a clean
//! machine verifies silently, deliberate frame-state corruption produces
//! the structured panic, and the `relocate_range` checking wrapper passes
//! on a healthy migration.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::migrate::relocate_range;
use tiersim::tier::tiny_two_tier;

fn machine() -> Machine {
    let topo = tiny_two_tier(4 * PAGE_SIZE_2M, 16 * PAGE_SIZE_2M);
    let mut cfg = MachineConfig::new(topo, 2);
    cfg.mlp = 1.0;
    let mut m = Machine::new(cfg);
    m.mmap("sanitizer", VaRange::from_len(VirtAddr(0), 8 * PAGE_SIZE_2M), false);
    m
}

/// Runs `f` and returns the panic payload as a `String`, asserting that it
/// panicked at all.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a sanitizer panic");
    if let Some(s) = err.downcast_ref::<String>() {
        return s.clone();
    }
    if let Some(s) = err.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    panic!("panic payload was not a string");
}

#[test]
fn healthy_machine_verifies_silently() {
    let mut m = machine();
    for p in 0..16u64 {
        m.alloc_and_map(0, VirtAddr(p * PAGE_SIZE_4K), &[0, 1]).unwrap();
    }
    m.set_checking(true);
    m.verify_consistency("healthy test machine");
}

#[test]
fn leaked_frame_panics_with_structured_diff() {
    let mut m = machine();
    let va = VirtAddr(0x1000);
    m.alloc_and_map(0, va, &[0]).unwrap();
    // Corrupt: drop the mapping but leave the frame allocated. Occupancy
    // (census) now disagrees with the page table.
    m.page_table_mut().unmap(va).unwrap();
    m.set_checking(true);
    let msg = panic_message(|| m.verify_consistency("leaked frame"));
    assert!(msg.contains("MTM_CHECK violation at leaked frame"), "message was: {msg}");
    assert!(msg.contains("invariant(s) broken"), "message was: {msg}");
    assert!(msg.contains("  - "), "expected a structured violation list, got: {msg}");
}

#[test]
fn double_mapped_frame_panics() {
    let mut m = machine();
    let va1 = VirtAddr(0x4000);
    m.alloc_and_map(0, va1, &[0]).unwrap();
    let t = m.page_table().translate(va1).unwrap();
    // Corrupt: alias a second VA onto the same physical frame. The frame
    // census (mapped bytes > allocator-used bytes) and the overlap sweep
    // both trip.
    let va2 = VirtAddr(0x9000);
    m.page_table_mut().map_4k(va2, t.pte);
    m.set_checking(true);
    let msg = panic_message(|| m.verify_consistency("aliased frame"));
    assert!(msg.contains("MTM_CHECK violation at aliased frame"), "message was: {msg}");
}

#[test]
fn allocator_mutation_for_tests_disarms_checking() {
    let mut m = machine();
    m.set_checking(true);
    // Tests that reach behind the page table are allowed to break the
    // occupancy==census invariant; the accessor disarms checking so the
    // next interval boundary does not fire.
    let _ = m.allocators_mut_for_test(0);
    assert!(!m.checking());
}

#[test]
fn checked_relocate_passes_and_machine_stays_consistent() {
    let mut m = machine();
    for p in 0..32u64 {
        m.alloc_and_map(0, VirtAddr(p * PAGE_SIZE_4K), &[0]).unwrap();
    }
    m.set_checking(true);
    let range = VaRange::from_len(VirtAddr(0), 32 * PAGE_SIZE_4K);
    let out = relocate_range(&mut m, range, 1, 4, true).unwrap();
    assert_eq!(out.bytes, 32 * PAGE_SIZE_4K);
    assert_eq!(m.allocator(1).used(), 32 * PAGE_SIZE_4K);
    m.verify_consistency("after checked relocate");
}
