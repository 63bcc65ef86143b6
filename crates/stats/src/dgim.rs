//! DGIM exponential histograms: approximate counts over sliding windows.
//!
//! Implements the bucket-merging scheme of Datar, Gionis, Indyk & Motwani,
//! *Maintaining stream statistics over sliding windows* (SIAM J. Comput.
//! 2002) — the paper's reference \[27\] for statistics maintenance. Each
//! arrival is a "1"; the histogram answers "how many arrivals occurred in
//! the last `W` milliseconds" with bounded relative error using
//! `O(r · log n)` buckets.
//!
//! With at most `r` buckets per size (and hence at least `r − 1` per
//! smaller size class once a larger class exists), the estimate's
//! relative error is at most
//! `max_j 2^{j−1} / (1 + (r−1)(2^j − 1)) = 1/r`, attained when the
//! oldest bucket has size 2; asymptotically (large buckets) the error
//! approaches the textbook `1/(2(r−1))`.

use std::collections::VecDeque;

use acep_types::Timestamp;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Number of arrivals merged into this bucket (a power of two).
    size: u64,
    /// Timestamp of the most recent arrival in the bucket.
    ts: Timestamp,
}

/// Approximate sliding-window counter.
#[derive(Debug, Clone)]
pub struct ExponentialHistogram {
    window: Timestamp,
    /// Maximum number of buckets allowed per size class before merging.
    max_per_size: usize,
    /// Buckets ordered oldest → newest.
    buckets: VecDeque<Bucket>,
    /// Sum of all bucket sizes.
    total: u64,
}

impl ExponentialHistogram {
    /// Creates a histogram over a `window`-ms sliding window allowing at
    /// most `max_per_size` buckets per size class (must be ≥ 2; higher
    /// values mean lower error and more memory).
    pub fn new(window: Timestamp, max_per_size: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(max_per_size >= 2, "need at least two buckets per size");
        Self {
            window,
            max_per_size,
            buckets: VecDeque::new(),
            total: 0,
        }
    }

    /// Creates a histogram with relative error at most `eps`.
    pub fn with_relative_error(window: Timestamp, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        let r = (1.0 / eps).ceil() as usize;
        Self::new(window, r.max(2))
    }

    /// The window length in milliseconds.
    pub fn window(&self) -> Timestamp {
        self.window
    }

    /// Worst-case relative error of [`count`](Self::count).
    pub fn error_bound(&self) -> f64 {
        1.0 / self.max_per_size as f64
    }

    /// Number of buckets currently held (for memory accounting).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket list as `(size, newest-arrival ts)` pairs, oldest
    /// bucket first — together with the construction parameters this is
    /// the histogram's complete state. Used by checkpointing.
    pub fn export_buckets(&self) -> Vec<(u64, Timestamp)> {
        self.buckets.iter().map(|b| (b.size, b.ts)).collect()
    }

    /// Replaces the bucket list with one captured by
    /// [`export_buckets`](Self::export_buckets); the running total is
    /// recomputed. Fails if a size is not a power of two, a size grows
    /// toward the newest bucket, or the timestamps are decreasing — no
    /// sequence of inserts produces such a list.
    pub fn import_buckets(&mut self, buckets: &[(u64, Timestamp)]) -> Result<(), &'static str> {
        let (mut prev_size, mut prev_ts) = (u64::MAX, 0);
        let mut total = 0u64;
        for &(size, ts) in buckets {
            if !size.is_power_of_two() {
                return Err("dgim bucket size is not a power of two");
            }
            if size > prev_size {
                return Err("dgim bucket sizes grow toward the newest bucket");
            }
            if ts < prev_ts {
                return Err("dgim bucket timestamps decrease");
            }
            (prev_size, prev_ts) = (size, ts);
            total = total
                .checked_add(size)
                .ok_or("dgim bucket total overflows")?;
        }
        self.buckets = buckets
            .iter()
            .map(|&(size, ts)| Bucket { size, ts })
            .collect();
        self.total = total;
        Ok(())
    }

    /// Records an arrival at `ts`. Timestamps must be non-decreasing.
    pub fn insert(&mut self, ts: Timestamp) {
        debug_assert!(
            self.buckets.back().is_none_or(|b| b.ts <= ts),
            "timestamps must be non-decreasing"
        );
        self.expire(ts);
        self.buckets.push_back(Bucket { size: 1, ts });
        self.total += 1;
        self.merge_cascade();
    }

    /// Estimates the number of arrivals in `(now − window, now]`.
    pub fn count(&mut self, now: Timestamp) -> u64 {
        self.expire(now);
        match self.buckets.front() {
            None => 0,
            Some(oldest) => self.total - oldest.size / 2,
        }
    }

    /// Drops buckets whose most recent arrival left the window. Nothing
    /// expires before a full window has elapsed, so arrivals at `ts = 0`
    /// leave only once `now > window`.
    fn expire(&mut self, now: Timestamp) {
        let Some(cutoff) = now.checked_sub(self.window) else {
            return;
        };
        while let Some(front) = self.buckets.front().filter(|b| b.ts <= cutoff) {
            self.total -= front.size;
            self.buckets.pop_front();
        }
    }

    /// Restores the ≤ `max_per_size` buckets-per-size invariant by
    /// merging the two oldest buckets of any overfull size class.
    ///
    /// Sizes are non-increasing toward the back, so each size class is a
    /// contiguous run ending where the next-smaller class starts. The
    /// walk starts with the size-1 run at the back and moves one run
    /// toward the front per merge: O(r) per insert for `r` =
    /// `max_per_size`, not a rescan of every bucket per size.
    fn merge_cascade(&mut self) {
        let (mut size, mut end) = (1u64, self.buckets.len());
        loop {
            let mut start = end;
            while start > 0 && self.buckets[start - 1].size == size {
                start -= 1;
            }
            if end - start <= self.max_per_size {
                return;
            }
            // Merge the two oldest buckets of this size; the merged one
            // is the newest of the next size class.
            let newer_ts = self.buckets[start + 1].ts;
            self.buckets[start].size *= 2;
            self.buckets[start].ts = newer_ts;
            self.buckets.remove(start + 1);
            (size, end) = (size * 2, start + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The earlier cascade, kept as the reference: rescans every bucket
    /// once per size class.
    fn reference_merge_cascade(buckets: &mut VecDeque<Bucket>, max_per_size: usize) {
        let mut size = 1u64;
        loop {
            let mut count = 0usize;
            let mut first_idx = None;
            for (i, b) in buckets.iter().enumerate() {
                if b.size == size {
                    first_idx.get_or_insert(i);
                    count += 1;
                }
            }
            if count <= max_per_size {
                break;
            }
            let i = first_idx.expect("count > 0 implies a first index");
            let newer_ts = buckets[i + 1].ts;
            buckets[i].size *= 2;
            buckets[i].ts = newer_ts;
            buckets.remove(i + 1);
            size *= 2;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every insert, the run-walking cascade leaves exactly the
        /// buckets the full rescan leaves, through expiries and at every
        /// `max_per_size`.
        #[test]
        fn run_walk_equals_the_full_rescan(
            gaps in prop::collection::vec(0u64..40, 1..600),
            window in 1u64..400,
            max_per_size in 2usize..10,
        ) {
            let mut h = ExponentialHistogram::new(window, max_per_size);
            let mut reference = ExponentialHistogram::new(window, max_per_size);
            let mut ts = 0;
            for gap in gaps {
                ts += gap;
                h.insert(ts);
                reference.expire(ts);
                reference.buckets.push_back(Bucket { size: 1, ts });
                reference.total += 1;
                reference_merge_cascade(&mut reference.buckets, max_per_size);
                prop_assert_eq!(h.export_buckets(), reference.export_buckets());
                prop_assert_eq!(h.count(ts), reference.count(ts));
            }
        }
    }

    #[test]
    fn import_refuses_sizes_growing_toward_the_newest() {
        let mut h = ExponentialHistogram::new(100, 2);
        assert!(h.import_buckets(&[(2, 1), (1, 2), (1, 3)]).is_ok());
        assert!(h.import_buckets(&[(1, 1), (2, 2)]).is_err());
    }

    #[test]
    fn exact_when_few_events() {
        let mut h = ExponentialHistogram::new(100, 4);
        for ts in [1, 2, 3] {
            h.insert(ts);
        }
        assert_eq!(h.count(3), 3);
    }

    #[test]
    fn expiry_removes_old_arrivals() {
        let mut h = ExponentialHistogram::new(100, 4);
        h.insert(0);
        h.insert(50);
        assert_eq!(h.count(50), 2);
        // At t = 150, the arrival at t = 0 has left the (50, 150] window.
        assert!(h.count(150) <= 1);
        // At t = 200 everything is gone.
        assert_eq!(h.count(200), 0);
    }

    #[test]
    fn merging_keeps_bucket_count_logarithmic() {
        let mut h = ExponentialHistogram::new(1_000_000, 2);
        for ts in 0..10_000u64 {
            h.insert(ts);
        }
        // 2 buckets per size, sizes up to ~2^13 → well under 40 buckets.
        assert!(h.num_buckets() < 40, "got {} buckets", h.num_buckets());
    }

    #[test]
    fn error_bound_holds_on_dense_stream() {
        let mut h = ExponentialHistogram::new(1_000, 8);
        let bound = h.error_bound();
        for ts in 0..50_000u64 {
            h.insert(ts);
            if ts % 997 == 0 && ts > 2_000 {
                let exact = 1_000.min(ts + 1); // one arrival per ms
                let est = h.count(ts);
                let rel = (est as f64 - exact as f64).abs() / exact as f64;
                assert!(
                    rel <= bound + 1e-9,
                    "ts={ts} est={est} exact={exact} rel={rel} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn estimate_tracks_exact_during_window_fill() {
        // No expiry happens here (window 10 s > 1 s of arrivals), so the
        // exact count is ts + 1; the estimate must stay within the bound.
        let mut h = ExponentialHistogram::new(10_000, 4);
        let bound = h.error_bound();
        for ts in 0..1_000u64 {
            h.insert(ts);
            let exact = (ts + 1) as f64;
            let est = h.count(ts) as f64;
            assert!(
                (est - exact).abs() / exact <= bound + 1e-9,
                "ts={ts} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn with_relative_error_sets_bound() {
        let h = ExponentialHistogram::with_relative_error(100, 0.05);
        assert!(h.error_bound() <= 0.05);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        ExponentialHistogram::new(0, 4);
    }

    #[test]
    fn empty_histogram_counts_zero() {
        let mut h = ExponentialHistogram::new(100, 4);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.count(1_000_000), 0);
    }
}
