//! The EMA-hotness histogram driving migration selection (Sec. 6.1).
//!
//! MTM buckets the exponential moving average (`WHI`) of every region and
//! promotes regions from the highest buckets / demotes from the lowest.
//! The histogram is rebuilt each interval in place (a few thousand
//! regions at most) and keeps selection O(regions log regions).

use crate::region::Region;

/// A bucketed view over region hotness.
///
/// Buckets rise with WHI, so one list sorted by `(WHI, index)` holds
/// them back to back: the coldest-first order reads it forwards, the
/// hottest-first order reads it backwards a run of equal WHI at a time.
#[derive(Debug, Default)]
pub struct HotnessHistogram {
    /// `(WHI, region index)` of every region, ascending.
    sorted: Vec<(f64, usize)>,
    n_buckets: usize,
    max_value: f64,
}

impl HotnessHistogram {
    /// Builds a histogram of `regions` with `n_buckets` buckets over
    /// `[0, max_value]` (`max_value` is `num_scans`, the largest possible
    /// hotness indication).
    pub fn build(regions: &[Region], n_buckets: usize, max_value: f64) -> HotnessHistogram {
        let mut h = HotnessHistogram::default();
        h.rebuild(regions, n_buckets, max_value);
        h
    }

    /// [`HotnessHistogram::build`] in place, reusing this histogram's
    /// storage.
    pub fn rebuild(&mut self, regions: &[Region], n_buckets: usize, max_value: f64) {
        assert!(n_buckets >= 2);
        assert!(max_value > 0.0);
        self.n_buckets = n_buckets;
        self.max_value = max_value;
        self.sorted.clear();
        self.sorted.extend(regions.iter().enumerate().map(|(i, r)| (r.whi, i)));
        self.sorted.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("whi is finite").then(a.1.cmp(&b.1))
        });
    }

    /// The bucket index a WHI value falls into.
    pub fn bucket_of(&self, whi: f64) -> usize {
        let frac = (whi / self.max_value).clamp(0.0, 1.0);
        ((frac * self.n_buckets as f64) as usize).min(self.n_buckets - 1)
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Region count per bucket (coldest first).
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_buckets];
        for &(whi, _) in &self.sorted {
            counts[self.bucket_of(whi)] += 1;
        }
        counts
    }

    /// Region indices from the hottest bucket downwards, by WHI
    /// descending within each bucket (equal WHI in index order).
    pub fn hottest(&self) -> impl Iterator<Item = usize> + '_ {
        let mut end = self.sorted.len();
        std::iter::from_fn(move || {
            let &(whi, _) = self.sorted[..end].last()?;
            let start = self.sorted[..end].iter().rposition(|e| e.0 != whi).map_or(0, |i| i + 1);
            let run = &self.sorted[start..end];
            end = start;
            Some(run)
        })
        .flatten()
        .map(|e| e.1)
    }

    /// Region indices from the coldest bucket upwards, by WHI ascending
    /// within each bucket (equal WHI in index order).
    pub fn coldest(&self) -> impl Iterator<Item = usize> + '_ {
        self.sorted.iter().map(|e| e.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim::addr::{VaRange, VirtAddr, PAGE_SIZE_2M};

    fn regions(whis: &[f64]) -> Vec<Region> {
        whis.iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut r = Region::new(
                    VaRange::from_len(VirtAddr(i as u64 * PAGE_SIZE_2M), PAGE_SIZE_2M),
                    1,
                );
                r.whi = w;
                r
            })
            .collect()
    }

    #[test]
    fn bucketing_covers_range() {
        let rs = regions(&[0.0, 1.4, 2.9, 3.0]);
        let h = HotnessHistogram::build(&rs, 3, 3.0);
        assert_eq!(h.counts(), vec![1, 1, 2]);
        assert_eq!(h.bucket_of(0.0), 0);
        assert_eq!(h.bucket_of(3.0), 2, "max value clamps into the top bucket");
        assert_eq!(h.bucket_of(99.0), 2);
    }

    #[test]
    fn hottest_first_orders_globally() {
        let rs = regions(&[0.1, 2.8, 1.5, 2.9, 0.2]);
        let h = HotnessHistogram::build(&rs, 4, 3.0);
        assert_eq!(h.hottest().collect::<Vec<_>>(), vec![3, 1, 2, 4, 0]);
        assert_eq!(h.coldest().collect::<Vec<_>>(), vec![0, 4, 2, 1, 3]);
    }

    #[test]
    fn equal_hotness_keeps_index_order_both_ways() {
        let rs = regions(&[1.0, 2.0, 1.0, 0.0, 2.0, 1.0]);
        let mut h = HotnessHistogram::build(&[], 4, 3.0);
        h.rebuild(&rs, 4, 3.0);
        assert_eq!(h.hottest().collect::<Vec<_>>(), vec![1, 4, 0, 2, 5, 3]);
        assert_eq!(h.coldest().collect::<Vec<_>>(), vec![3, 0, 2, 5, 1, 4]);
    }

    #[test]
    fn empty_region_set_is_fine() {
        let h = HotnessHistogram::build(&[], 4, 3.0);
        assert!(h.hottest().next().is_none());
        assert_eq!(h.counts(), vec![0, 0, 0, 0]);
    }
}
