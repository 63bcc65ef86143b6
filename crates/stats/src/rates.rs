//! Arrival-rate estimation over sliding windows.

use std::collections::VecDeque;

use acep_types::Timestamp;

use crate::dgim::ExponentialHistogram;

/// A sliding-window arrival-rate estimator for one event type.
pub trait RateEstimator {
    /// Records an arrival at `ts` (non-decreasing).
    fn observe(&mut self, ts: Timestamp);
    /// Estimated arrival rate in events/second as of `now`.
    fn rate_per_sec(&mut self, now: Timestamp) -> f64;
}

/// DGIM-backed approximate rate estimator (logarithmic memory).
#[derive(Debug, Clone)]
pub struct DgimRateEstimator {
    hist: ExponentialHistogram,
    window: Timestamp,
    first_ts: Option<Timestamp>,
}

impl DgimRateEstimator {
    /// Creates an estimator over a `window`-ms sliding window with the
    /// given DGIM buckets-per-size parameter.
    pub fn new(window: Timestamp, max_per_size: usize) -> Self {
        Self {
            hist: ExponentialHistogram::new(window, max_per_size),
            window,
            first_ts: None,
        }
    }

    /// Sets the warm-up anchor to `ts` unless an arrival already set it.
    /// A counter fed only some of a type's arrivals is anchored at the
    /// type's first arrival, so it normalises by the same elapsed span as
    /// the type's own estimator and the two rates divide into a fraction
    /// of counts.
    pub fn anchor(&mut self, ts: Timestamp) {
        self.first_ts.get_or_insert(ts);
    }

    /// Captures the estimator's state — the histogram's buckets and
    /// the warm-up anchor — for checkpointing.
    pub fn export_state(&self) -> (Vec<(u64, Timestamp)>, Option<Timestamp>) {
        (self.hist.export_buckets(), self.first_ts)
    }

    /// Restores state captured by [`export_state`](Self::export_state)
    /// into an estimator built with the same configuration.
    pub fn import_state(
        &mut self,
        buckets: &[(u64, Timestamp)],
        first_ts: Option<Timestamp>,
    ) -> Result<(), &'static str> {
        self.hist.import_buckets(buckets)?;
        self.first_ts = first_ts;
        Ok(())
    }
}

impl RateEstimator for DgimRateEstimator {
    fn observe(&mut self, ts: Timestamp) {
        self.anchor(ts);
        self.hist.insert(ts);
    }

    fn rate_per_sec(&mut self, now: Timestamp) -> f64 {
        let count = self.hist.count(now) as f64;
        let effective = effective_window(self.window, self.first_ts, now);
        if effective == 0 {
            0.0
        } else {
            count / (effective as f64 / 1_000.0)
        }
    }
}

/// Exact rate estimator storing every in-window timestamp. Used as the
/// ground-truth reference in tests and for small windows.
#[derive(Debug, Clone, Default)]
pub struct ExactRateEstimator {
    times: VecDeque<Timestamp>,
    window: Timestamp,
    first_ts: Option<Timestamp>,
}

impl ExactRateEstimator {
    /// Creates an exact estimator over a `window`-ms sliding window.
    pub fn new(window: Timestamp) -> Self {
        Self {
            times: VecDeque::new(),
            window,
            first_ts: None,
        }
    }

    /// Sets the warm-up anchor to `ts` unless an arrival already set it.
    /// A counter fed only some of a type's arrivals is anchored at the
    /// type's first arrival, so it normalises by the same elapsed span as
    /// the type's own estimator and the two rates divide into a fraction
    /// of counts.
    pub fn anchor(&mut self, ts: Timestamp) {
        self.first_ts.get_or_insert(ts);
    }

    /// Captures the estimator's state — the retained timestamps (oldest
    /// first) and the warm-up anchor — for checkpointing.
    pub fn export_state(&self) -> (Vec<Timestamp>, Option<Timestamp>) {
        (self.times.iter().copied().collect(), self.first_ts)
    }

    /// Restores state captured by [`export_state`](Self::export_state)
    /// into an estimator built with the same configuration.
    pub fn import_state(
        &mut self,
        times: Vec<Timestamp>,
        first_ts: Option<Timestamp>,
    ) -> Result<(), &'static str> {
        if times.windows(2).any(|w| w[1] < w[0]) {
            return Err("rate timestamps decrease");
        }
        self.times = times.into();
        self.first_ts = first_ts;
        Ok(())
    }
}

impl RateEstimator for ExactRateEstimator {
    fn observe(&mut self, ts: Timestamp) {
        self.anchor(ts);
        self.times.push_back(ts);
    }

    fn rate_per_sec(&mut self, now: Timestamp) -> f64 {
        let cutoff = now.saturating_sub(self.window);
        while let Some(&front) = self.times.front() {
            if front <= cutoff && now >= self.window {
                self.times.pop_front();
            } else {
                break;
            }
        }
        let effective = effective_window(self.window, self.first_ts, now);
        if effective == 0 {
            0.0
        } else {
            self.times.len() as f64 / (effective as f64 / 1_000.0)
        }
    }
}

/// During stream warm-up (before a full window has elapsed since the
/// first observation), rates are normalized by the elapsed span instead
/// of the full window, so early estimates are unbiased.
fn effective_window(window: Timestamp, first_ts: Option<Timestamp>, now: Timestamp) -> Timestamp {
    match first_ts {
        None => 0,
        Some(first) => window.min(now.saturating_sub(first).max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_rate_is_recovered() {
        // One event every 10 ms → 100 events/s.
        let mut dgim = DgimRateEstimator::new(5_000, 8);
        let mut exact = ExactRateEstimator::new(5_000);
        for i in 0..2_000u64 {
            dgim.observe(i * 10);
            exact.observe(i * 10);
        }
        let now = 1_999 * 10;
        let r_exact = exact.rate_per_sec(now);
        let r_dgim = dgim.rate_per_sec(now);
        assert!((r_exact - 100.0).abs() < 1.0, "exact={r_exact}");
        assert!((r_dgim - 100.0).abs() < 10.0, "dgim={r_dgim}");
    }

    #[test]
    fn rate_tracks_a_change() {
        let mut est = ExactRateEstimator::new(1_000);
        // 10 ev/s for 2 s, then 100 ev/s for 2 s.
        let mut ts = 0;
        for _ in 0..20 {
            est.observe(ts);
            ts += 100;
        }
        assert!((est.rate_per_sec(ts) - 10.0).abs() < 2.0);
        for _ in 0..200 {
            est.observe(ts);
            ts += 10;
        }
        assert!((est.rate_per_sec(ts) - 100.0).abs() < 5.0);
    }

    #[test]
    fn warm_up_is_unbiased() {
        let mut est = ExactRateEstimator::new(60_000);
        // 50 events in the first 500 ms of a 60 s window: the naive
        // estimate (50 / 60 s) would be ~0.8 ev/s; the true rate is 100.
        for i in 0..50u64 {
            est.observe(i * 10);
        }
        let r = est.rate_per_sec(500);
        assert!((r - 100.0).abs() < 10.0, "warm-up rate {r}");
    }

    #[test]
    fn empty_estimator_reports_zero() {
        let mut est = DgimRateEstimator::new(1_000, 4);
        assert_eq!(est.rate_per_sec(0), 0.0);
        assert_eq!(est.rate_per_sec(10_000), 0.0);
    }

    #[test]
    fn dgim_approximates_exact_within_bound() {
        let mut dgim = DgimRateEstimator::new(2_000, 8);
        let mut exact = ExactRateEstimator::new(2_000);
        // Bursty stream: alternating fast and slow phases.
        let mut ts = 0u64;
        for phase in 0..10 {
            let gap = if phase % 2 == 0 { 1 } else { 20 };
            for _ in 0..500 {
                ts += gap;
                dgim.observe(ts);
                exact.observe(ts);
            }
            let (rd, re) = (dgim.rate_per_sec(ts), exact.rate_per_sec(ts));
            if re > 0.0 {
                let rel = (rd - re).abs() / re;
                assert!(rel < 0.15, "phase {phase}: dgim={rd} exact={re}");
            }
        }
    }
}
