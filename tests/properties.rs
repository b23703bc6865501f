//! Property-based tests over the core data structures and invariants,
//! run on the in-repo `proptest-lite` harness (see that crate's docs for
//! seed replay: failures print a `PROPTEST_LITE_SEED` to rerun with).

use mtm::region::{Region, RegionList};
use mtm_harness::metrics::{intersection_bytes, normalize, quality, total_bytes};
use proptest_lite::{gen, prop_assert, prop_assert_eq, prop_check};
use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use tiersim::frame::{FrameAllocator, FrameSize};
use tiersim::machine::{AccessKind, Machine, MachineConfig};
use tiersim::migrate::{relocate_with_retry, RetryPolicy};
use tiersim::tier::tiny_two_tier;

fn region_list(chunks: u64) -> RegionList {
    let mut list = RegionList::new(2);
    let bases: Vec<VirtAddr> = (0..chunks).map(|c| VirtAddr(c * PAGE_SIZE_2M)).collect();
    list.sync_pde_bases(&bases);
    list
}

/// Arbitrary sequences of observations, merges and splits keep the
/// region list sorted, disjoint and quota-positive, and never change
/// the total bytes covered.
#[test]
fn region_list_stays_well_formed() {
    prop_check!(
        "region_list_stays_well_formed",
        64,
        (
            gen::vec(gen::f64_range(0.0, 3.0), 16),
            gen::vec(gen::f64_range(0.0, 3.0), 16),
            gen::vec(gen::u8_range(0, 3), 12),
        ),
        |(his, spreads, ops)| {
            let mut list = region_list(16);
            let covered: u64 = list.regions().iter().map(Region::len).sum();
            for (r, (&hi, &spread)) in list.regions_mut().iter_mut().zip(his.iter().zip(spreads)) {
                r.observe(hi, 0.5);
                r.spread = spread;
                r.sample_max = spread.max(hi);
                r.evidence = 1;
            }
            for op in ops {
                match op {
                    0 => {
                        list.merge_pass(1.0, 3, |_, _| true);
                    }
                    1 => {
                        list.split_pass(2.0, 3, |_| false);
                    }
                    _ => {
                        list.split_pass(0.5, 3, |_| true);
                    }
                }
                prop_assert!(list.is_well_formed());
                let now: u64 = list.regions().iter().map(Region::len).sum();
                prop_assert_eq!(now, covered, "coverage is preserved");
            }
        }
    );
}

/// The region EMA (Eq. 2) stays inside the envelope of its observations,
/// and the WHI sequence the policy reads hottest-first over a set of
/// regions does not depend on the order the regions were observed in
/// within one interval.
#[test]
fn ema_bounded_and_histogram_order_insensitive() {
    prop_check!(
        "ema_bounded_and_histogram_order_insensitive",
        64,
        (
            gen::vec_in(gen::f64_range(0.0, 8.0), 1, 16),
            gen::f64_range(0.05, 1.0),
            gen::u64_range(0, 15),
        ),
        |(his, alpha, rot)| {
            let alpha = *alpha;
            // EMA envelope: starting from whi = 0, every update keeps the
            // EMA within [0, max observation so far].
            let mut list = region_list(1);
            let mut max_seen = 0.0f64;
            for &hi in his {
                list.regions_mut()[0].observe(hi, alpha);
                max_seen = max_seen.max(hi);
                let whi = list.regions()[0].whi;
                prop_assert!(
                    (0.0..=max_seen + 1e-12).contains(&whi),
                    "whi {whi} escaped [0, {max_seen}]"
                );
            }
            // Hotness-order insensitivity: each region observes one hi
            // this interval; rotating which region got which observation
            // must not change the WHI sequence read hottest-first.
            let n = his.len() as u64;
            let mut a = region_list(n);
            let mut b = region_list(n);
            for (i, r) in a.regions_mut().iter_mut().enumerate() {
                r.observe(his[i], alpha);
            }
            let rot = (*rot as usize) % his.len();
            for (i, r) in b.regions_mut().iter_mut().enumerate() {
                r.observe(his[(i + rot) % his.len()], alpha);
            }
            let hottest_whis = |list: &RegionList| {
                let mut order = mtm::policy::PolicyScratch::default();
                order.rank(list.regions());
                order.hottest().map(|i| list.regions()[i].whi.to_bits()).collect::<Vec<_>>()
            };
            prop_assert_eq!(
                hottest_whis(&a),
                hottest_whis(&b),
                "hottest-first WHI sequence is order-insensitive"
            );
        }
    );
}

/// Merge/split round-trips preserve total address-range coverage with
/// no overlap, and every region boundary stays 2 MB-aligned.
#[test]
fn merge_split_round_trips_keep_coverage_and_alignment() {
    prop_check!(
        "merge_split_round_trips_keep_coverage_and_alignment",
        64,
        (gen::vec(gen::f64_range(0.0, 3.0), 24), gen::u8_range(1, 4)),
        |(his, rounds)| {
            let mut list = region_list(24);
            let covered: u64 = list.regions().iter().map(Region::len).sum();
            for (r, &hi) in list.regions_mut().iter_mut().zip(his) {
                r.observe(hi, 0.5);
                r.spread = hi;
                r.sample_max = hi;
                r.evidence = 1;
            }
            for _ in 0..*rounds {
                list.merge_pass(f64::INFINITY, 3, |_, _| true);
                for r in list.regions_mut() {
                    r.evidence = 1;
                }
                list.split_pass(0.5, 3, |_| true);
                prop_assert!(list.is_well_formed(), "sorted, disjoint, quota-positive");
                let now: u64 = list.regions().iter().map(Region::len).sum();
                prop_assert_eq!(now, covered, "round-trip preserves coverage");
                for r in list.regions() {
                    prop_assert_eq!(r.range.start.0 % PAGE_SIZE_2M, 0, "2 MB-aligned start");
                    prop_assert_eq!(r.range.end.0 % PAGE_SIZE_2M, 0, "2 MB-aligned end");
                }
            }
        }
    );
}

/// Merging frees exactly the quota difference; splitting adds at most
/// one per split; every region keeps at least one sample.
#[test]
fn quota_accounting_balances() {
    prop_check!(
        "quota_accounting_balances",
        64,
        gen::vec(gen::u32_range(1, 16), 12),
        |quotas| {
            let mut list = region_list(12);
            for (r, &q) in list.regions_mut().iter_mut().zip(quotas) {
                r.quota = q;
                r.evidence = 1;
            }
            let before = list.total_quota();
            let freed = list.merge_pass(f64::INFINITY, 3, |_, _| true);
            let after = list.total_quota();
            prop_assert_eq!(after + freed, before, "no samples are lost by merging");
            prop_assert!(list.regions().iter().all(|r| r.quota >= 1));
        }
    );
}

/// The frame allocator never double-allocates and its accounting is
/// exact under arbitrary alloc/free interleavings.
#[test]
fn frame_allocator_is_sound() {
    prop_check!(
        "frame_allocator_is_sound",
        64,
        gen::vec((gen::u8_range(0, 2), gen::u8_range(0, 2)), 64),
        |ops| {
            let mut alloc = FrameAllocator::new(0, 16 * PAGE_SIZE_2M);
            let mut live: Vec<(tiersim::addr::PhysAddr, FrameSize)> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for &(op, size) in ops {
                let size = if size == 0 { FrameSize::Base4K } else { FrameSize::Huge2M };
                if op == 0 {
                    if let Ok(frame) = alloc.alloc(size) {
                        prop_assert!(seen.insert(frame), "no double allocation of {frame:?}");
                        live.push((frame, size));
                    }
                } else if let Some((frame, size)) = live.pop() {
                    alloc.free_frame(frame, size);
                    seen.remove(&frame);
                }
                let live_bytes: u64 = live.iter().map(|&(_, s)| s.bytes()).sum();
                prop_assert_eq!(alloc.used(), live_bytes, "accounting matches live set");
            }
        }
    );
}

/// Range-set metrics behave like set measures: intersection is
/// symmetric, bounded by both totals, and self-quality is perfect.
#[test]
fn range_metrics_are_measure_like() {
    prop_check!(
        "range_metrics_are_measure_like",
        64,
        (
            gen::vec_in((gen::u64_range(0, 64), gen::u64_range(1, 16)), 1, 8),
            gen::vec_in((gen::u64_range(0, 64), gen::u64_range(1, 16)), 1, 8),
        ),
        |(a, b)| {
            let mk = |v: &Vec<(u64, u64)>| -> Vec<VaRange> {
                v.iter()
                    .map(|&(s, l)| VaRange::from_len(VirtAddr(s * PAGE_SIZE_4K), l * PAGE_SIZE_4K))
                    .collect()
            };
            let (ra, rb) = (mk(a), mk(b));
            let i1 = intersection_bytes(&ra, &rb);
            let i2 = intersection_bytes(&rb, &ra);
            prop_assert_eq!(i1, i2, "intersection is symmetric");
            prop_assert!(i1 <= total_bytes(&ra));
            prop_assert!(i1 <= total_bytes(&rb));
            let q = quality(&ra, &ra);
            prop_assert!((q.recall - 1.0).abs() < 1e-9);
            prop_assert!((q.accuracy - 1.0).abs() < 1e-9);
            // Normalization is idempotent.
            let n = normalize(ra.clone());
            prop_assert_eq!(normalize(n.clone()), n);
        }
    );
}

/// Relocating a range preserves frame versions (no lost writes) and
/// machine-wide byte accounting.
#[test]
fn migration_preserves_data_and_accounting() {
    prop_check!(
        "migration_preserves_data_and_accounting",
        64,
        (gen::vec_in(gen::u64_range(0, 512), 1, 32), gen::u16_range(0, 2)),
        |(writes, dst)| {
            let dst = *dst;
            let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
            let mut m = Machine::new(MachineConfig::new(topo, 1));
            // Frame versions are the sanitizer's: only an armed machine
            // counts them.
            m.set_checking(true);
            let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
            m.mmap("p", range, false);
            m.prefault_range(range, &[1 - dst]).unwrap();
            // Apply writes and remember per-page counts.
            let mut counts = std::collections::HashMap::new();
            for w in writes {
                let va = VirtAddr(w * PAGE_SIZE_4K);
                m.access(0, va, AccessKind::Write);
                *counts.entry(va).or_insert(0u64) += 1;
            }
            let mapped_before = m.page_table().mapped_bytes();
            let used_before: u64 = m.residency().iter().sum();
            let _ = tiersim::migrate::relocate_range(&mut m, range, dst, 2, false).unwrap();
            prop_assert_eq!(m.page_table().mapped_bytes(), mapped_before);
            prop_assert_eq!(m.residency().iter().sum::<u64>(), used_before);
            for (va, count) in counts {
                let t = m.page_table().translate(va).unwrap();
                prop_assert_eq!(t.pte.frame().component(), dst);
                prop_assert_eq!(m.frame_version(t.pte.frame()), count, "writes survived the move");
            }
        }
    );
}

/// A fault plan replays identically for the same seed: the decision
/// sequence, the stats, and a post-`reset` replay all match, whatever
/// the probabilities or the interleaving of fault classes.
#[test]
fn fault_plan_replay_is_deterministic() {
    prop_check!(
        "fault_plan_replay_is_deterministic",
        64,
        (
            gen::u64_range(0, 1 << 48),
            gen::f64_range(0.0, 1.0),
            gen::f64_range(0.0, 1.0),
            gen::f64_range(0.0, 1.0),
            gen::f64_range(0.0, 1.0),
            gen::vec_in(gen::u8_range(0, 3), 1, 64),
        ),
        |(seed, busy, allocfail, droppebs, drophint, ops)| {
            let spec =
                format!("busy={busy},allocfail={allocfail},droppebs={droppebs},drophint={drophint}");
            let plan = faultsim::FaultPlan::parse(&spec).unwrap();
            let mut a = faultsim::FaultState::new(plan.clone(), *seed);
            let mut b = faultsim::FaultState::new(plan, *seed);
            let run = |st: &mut faultsim::FaultState| -> Vec<bool> {
                ops.iter()
                    .map(|&op| match op {
                        0 => st.page_busy(),
                        1 => st.alloc_fail(),
                        2 => st.drop_pebs(),
                        _ => st.drop_hint(),
                    })
                    .collect()
            };
            let ra = run(&mut a);
            let rb = run(&mut b);
            prop_assert_eq!(&ra, &rb, "same seed, same decisions");
            prop_assert_eq!(a.stats(), b.stats());
            a.reset();
            prop_assert_eq!(a.stats().total(), 0, "reset clears the stats");
            let replay = run(&mut a);
            prop_assert_eq!(replay, ra, "reset rewinds to an identical stream");
        }
    );
}

/// Bounded retry never exceeds its attempt budget, its accumulated
/// backoff never exceeds the policy's worst case, and only injected
/// transient errors can make it fail — for any fault probability, seed
/// and attempt bound.
#[test]
fn retry_never_exceeds_attempt_bound() {
    prop_check!(
        "retry_never_exceeds_attempt_bound",
        48,
        (gen::f64_range(0.0, 1.0), gen::u64_range(0, 10_000), gen::u8_range(1, 6)),
        |(busy, seed, max_attempts)| {
            let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
            let mut m = Machine::new(MachineConfig::new(topo, 1));
            let range = VaRange::from_len(VirtAddr(0), PAGE_SIZE_2M);
            m.mmap("p", range, false);
            m.prefault_range(range, &[0]).unwrap();
            let plan = faultsim::FaultPlan::parse(&format!("busy={busy},allocfail=0.2")).unwrap();
            m.install_faults(plan, *seed);
            let policy =
                RetryPolicy { max_attempts: *max_attempts as u32, ..RetryPolicy::default() };
            let (res, report) = relocate_with_retry(&mut m, range, 1, 1, false, policy);
            prop_assert!(report.attempts >= 1 && report.attempts <= policy.max_attempts);
            prop_assert_eq!(report.retries, report.attempts - 1);
            prop_assert!(report.backoff_ns <= policy.max_total_backoff_ns() + 1e-9);
            // The accumulated backoff must be BIT-identical to the serial
            // sum of the exact integer-doubling steps — backoff comes from
            // u64 doubling, not `f64::powi`, so no platform or rounding
            // mode can produce a different sequence.
            let mut expected_backoff = 0.0f64;
            for attempt in 1..report.attempts {
                expected_backoff += policy.backoff_ns(attempt);
            }
            prop_assert_eq!(
                report.backoff_ns.to_bits(),
                expected_backoff.to_bits(),
                "backoff sequence is bit-identical to the integer-doubling reference"
            );
            match res {
                Ok(out) => prop_assert_eq!(out.pages, 512),
                Err(e) => {
                    prop_assert!(e.is_transient(), "only injected transients can fail here")
                }
            }
        }
    );
}

/// The page table's packed side metadata (per-leaf `present` bitmaps and
/// the PDE occupancy bitmap) always agrees with the PTEs and slots — the
/// source of truth — after arbitrary interleavings of accesses, scans,
/// huge-page splits, relocations and measurement resets.
/// `check_side_metadata` re-derives every bitmap word from the PTEs and
/// slots, so an empty report IS the agreement.
#[test]
fn side_metadata_agrees_with_pte_bits() {
    prop_check!(
        "side_metadata_agrees_with_pte_bits",
        48,
        (gen::u64_range(0, 10_000), gen::vec_in(gen::u8_range(0, 5), 1, 48)),
        |(seed, ops)| {
            let topo = tiny_two_tier(8 * PAGE_SIZE_2M, 8 * PAGE_SIZE_2M);
            let mut m = Machine::new(MachineConfig::new(topo, 1));
            // One base-page VMA and one THP VMA, so scans and relocations
            // exercise both leaf bitmaps and huge entries (including the
            // split path under a fragmented destination).
            m.mmap("base", VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), false);
            let thp_at = 4 * PAGE_SIZE_2M;
            m.mmap("thp", VaRange::from_len(VirtAddr(thp_at), 2 * PAGE_SIZE_2M), true);
            m.prefault_range(VaRange::from_len(VirtAddr(0), 2 * PAGE_SIZE_2M), &[0]).unwrap();
            m.prefault_range(VaRange::from_len(VirtAddr(thp_at), 2 * PAGE_SIZE_2M), &[0]).unwrap();
            let mut rng = tiersim::rng::SplitMix64::new(*seed);
            for &op in ops {
                // Half the addresses land in the base VMA, half in the THP
                // VMA (the hole between them exercises unmapped paths).
                let va = VirtAddr(rng.below(6 * PAGE_SIZE_2M)).page_4k();
                match op {
                    0 => {
                        let _ = m.access(0, va, AccessKind::Read);
                    }
                    1 => {
                        let _ = m.access(0, va, AccessKind::Write);
                    }
                    2 | 3 => {
                        let _ = m.scan_page(va);
                    }
                    4 => {
                        let range = VaRange::from_len(va.page_2m(), PAGE_SIZE_2M);
                        let dst = (rng.below(2)) as u16;
                        let split = rng.below(2) == 0;
                        let _ = tiersim::migrate::relocate_range(&mut m, range, dst, 1, split);
                    }
                    _ => m.reset_measurement(),
                }
                let violations = m.page_table().check_side_metadata();
                prop_assert!(violations.is_empty(), "packed side metadata drifted from the PTEs");
            }
        }
    );
}

/// The retry backoff sequence is exact integer doubling capped at the
/// policy max: platform-exact for any base, cap and attempt number, with
/// an exact `u64 -> f64` conversion (steps are capped far below 2^53).
#[test]
fn backoff_sequence_is_exact_integer_doubling() {
    prop_check!(
        "backoff_sequence_is_exact_integer_doubling",
        64,
        (gen::u64_range(1, 1 << 40), gen::u64_range(1, 1 << 45), gen::u8_range(1, 40)),
        |(base, max, attempts)| {
            let policy =
                RetryPolicy { max_attempts: 8, base_backoff_ns: *base, max_backoff_ns: *max };
            let mut reference = *base;
            for attempt in 1..=(*attempts as u32) {
                let step = policy.backoff_step_ns(attempt);
                prop_assert_eq!(step, reference.min(*max), "exact doubling, capped");
                prop_assert_eq!(
                    policy.backoff_ns(attempt).to_bits(),
                    (step as f64).to_bits(),
                    "f64 view is the exact conversion of the integer step"
                );
                reference = reference.saturating_mul(2);
            }
            // Monotone non-decreasing in the attempt number.
            for attempt in 1..(*attempts as u32) {
                prop_assert!(policy.backoff_step_ns(attempt + 1) >= policy.backoff_step_ns(attempt));
            }
        }
    );
}

/// The async-migration queue ledger is conserved after every operation:
/// bytes charged at enqueue time always equal the bytes still pending
/// plus the bytes settled as committed or dropped — for arbitrary
/// interleavings of enqueues, dirtying writes and commit rounds, under
/// arbitrary transient-fault pressure (busy pages force the
/// abort/re-enqueue path, alloc failures the retry path, and the small
/// destination the full-drop path).
#[test]
fn async_queue_ledger_is_conserved() {
    prop_check!(
        "async_queue_ledger_is_conserved",
        48,
        (
            gen::u64_range(0, 10_000),
            gen::f64_range(0.0, 1.0),
            gen::f64_range(0.0, 0.5),
            gen::vec_in((gen::u8_range(0, 3), gen::u64_range(0, 5)), 1, 48),
        ),
        |(seed, busy, allocfail, ops)| {
            let topo = tiny_two_tier(16 * PAGE_SIZE_2M, 4 * PAGE_SIZE_2M);
            let mut m = Machine::new(MachineConfig::new(topo, 1));
            let r = VaRange::from_len(VirtAddr(0), 6 * PAGE_SIZE_2M);
            m.mmap("a", r, false);
            m.prefault_range(r, &[0]).unwrap();
            let plan =
                faultsim::FaultPlan::parse(&format!("busy={busy},allocfail={allocfail}")).unwrap();
            m.install_faults(plan, *seed);
            let mut e = mtm::MigrationEngine::new(2, true);
            let mut interval = 0u64;
            for &(op, page) in ops {
                let range = VaRange::from_len(VirtAddr(page * PAGE_SIZE_2M), PAGE_SIZE_2M);
                match op {
                    0 => e.migrate(&mut m, range, 1),
                    1 => e.migrate(&mut m, range, 0),
                    2 => {
                        m.access(0, range.start, AccessKind::Write);
                    }
                    _ => {
                        interval += 1;
                        e.note_interval(interval);
                        e.resolve_pending(&mut m);
                    }
                }
                let s = e.stats();
                prop_assert_eq!(
                    s.enqueued_bytes,
                    e.pending_ledger_bytes() + s.committed_bytes + s.dropped_bytes,
                    "conservation must hold after every operation"
                );
            }
            // Drain: each entry settles within MAX_ASYNC_ATTEMPTS commit
            // rounds, so a few more resolve all of them — and every settled
            // entry must have disarmed its write watch.
            for _ in 0..8 {
                interval += 1;
                e.note_interval(interval);
                e.resolve_pending(&mut m);
            }
            let s = e.stats();
            prop_assert_eq!(e.in_flight(), 0, "the queue drains");
            prop_assert_eq!(e.pending_ledger_bytes(), 0);
            prop_assert_eq!(s.enqueued_bytes, s.committed_bytes + s.dropped_bytes);
            prop_assert_eq!(m.active_watches(), 0, "no settled entry leaks its watch");
        }
    );
}

/// An MTM run with any admission policy, under a fault plan, passes the
/// shadow-state sanitizer and reports the same bytes checked as
/// unchecked: admission verdicts are a pure function of the deterministic
/// machine state, and checking only observes it.
#[test]
fn admission_decisions_pass_the_sanitizer_under_faults() {
    use mtm::{AdmissionKind, MtmConfig, MtmManager};
    use tiersim::sim::{run_scenario, Workload};
    use tiersim::tier::optane_four_tier;

    let run = |kind: AdmissionKind, checked: bool| {
        let scale = 1u64 << 13;
        let topo = optane_four_tier(scale);
        let mut m = Machine::new(MachineConfig::new(topo.clone(), 2));
        let plan = faultsim::FaultPlan::parse("busy=0.2,allocfail=0.1").unwrap();
        m.install_faults(plan, faultsim::derive_seed(11, kind.label()));
        m.set_checking(checked);
        let mut cfg = MtmConfig::default();
        cfg.admission = kind;
        let mut mgr = MtmManager::new(cfg, topo.nodes as usize);
        let mut wl: Box<dyn Workload> =
            mtm_workloads::build_paper_workload("GUPS", scale, 2).unwrap();
        let report = run_scenario(&mut m, &mut mgr, wl.as_mut(), 2);
        if checked {
            m.verify_consistency("end of run");
        }
        report
    };
    for kind in [
        AdmissionKind::Always,
        AdmissionKind::PingPong,
        AdmissionKind::RateLimit,
        AdmissionKind::HotnessDelta,
    ] {
        let plain = run(kind, false);
        let checked = run(kind, true);
        assert_eq!(
            format!("{plain:?}"),
            format!("{checked:?}"),
            "{}: the checked report differs from the unchecked one",
            kind.label()
        );
    }
}

/// The zipfian sampler is always in range and monotonically favours
/// low ranks in aggregate.
#[test]
fn zipfian_is_bounded_and_skewed() {
    prop_check!(
        "zipfian_is_bounded_and_skewed",
        64,
        gen::u64_range(0, 1000),
        |&seed| {
            let z = mtm_workloads::rng::Zipfian::new(10_000, 0.99);
            let mut rng = tiersim::rng::SplitMix64::new(seed);
            let mut low = 0u64;
            for _ in 0..512 {
                let r = z.sample(&mut rng);
                prop_assert!(r < 10_000);
                if r < 100 {
                    low += 1;
                }
            }
            prop_assert!(low > 64, "top-1% ranks draw a large share (got {low}/512)");
        }
    );
}
