//! Dataset models and the merged multi-type stream generator.

use std::sync::Arc;

use acep_types::{Event, EventTypeId, Timestamp, Value};
use rand::rngs::StdRng;

use crate::sampling::exp_interarrival_ms;

/// A synthetic dataset: per-type arrival-rate dynamics plus attribute
/// distributions. Implementations reproduce the *statistical profile*
/// the paper reports for its two real datasets (see the crate docs for
/// what each generator substitutes).
pub trait DatasetModel {
    /// Number of event types the model emits.
    fn num_types(&self) -> usize;

    /// Attribute names shared by all event types of this dataset.
    fn attr_names(&self) -> &'static [&'static str];

    /// Initial per-type arrival rates (events/second).
    fn initial_rates(&mut self, rng: &mut StdRng) -> Vec<f64>;

    /// Stream time of the next rate-dynamics change after `now`.
    fn next_change(&self, now: Timestamp) -> Timestamp;

    /// Applies the dynamics change at `now`, mutating `rates`.
    fn apply_change(&mut self, rng: &mut StdRng, now: Timestamp, rates: &mut [f64]);

    /// Generates the attribute tuple for an event of type `type_idx`.
    fn attributes(&mut self, rng: &mut StdRng, type_idx: usize, ts: Timestamp) -> Vec<Value>;
}

/// Merges independent per-type Poisson processes into one timestamp-
/// ordered event stream, resampling arrivals whenever the model shifts
/// its rates.
pub struct StreamGenerator<M: DatasetModel> {
    model: M,
    rng: StdRng,
    rates: Vec<f64>,
    /// Next pending arrival per type (ms, as f64 for sub-ms precision).
    next_arrival: Vec<f64>,
    next_change: Timestamp,
    seq: u64,
}

impl<M: DatasetModel> StreamGenerator<M> {
    /// Creates a generator with its own seeded RNG.
    pub fn new(mut model: M, mut rng: StdRng) -> Self {
        let rates = model.initial_rates(&mut rng);
        assert_eq!(rates.len(), model.num_types());
        let next_arrival = rates
            .iter()
            .map(|&r| exp_interarrival_ms(&mut rng, r))
            .collect();
        let next_change = model.next_change(0);
        Self {
            model,
            rng,
            rates,
            next_arrival,
            next_change,
            seq: 0,
        }
    }

    /// Current per-type rates (events/second).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Collects the next `n` events into a vector.
    pub fn take_events(&mut self, n: usize) -> Vec<Arc<Event>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.next() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }
}

impl<M: DatasetModel> Iterator for StreamGenerator<M> {
    type Item = Arc<Event>;

    fn next(&mut self) -> Option<Arc<Event>> {
        // Earliest pending arrival across types.
        let (mut type_idx, mut ts) = (0, f64::INFINITY);
        for (i, &t) in self.next_arrival.iter().enumerate() {
            if t < ts {
                ts = t;
                type_idx = i;
            }
        }
        // Apply any rate changes that precede it, resampling all pending
        // arrivals from the changed rates (a rare type whose rate jumps
        // must not stay silent for its old expected gap).
        while (self.next_change as f64) <= ts {
            let change_at = self.next_change;
            self.model
                .apply_change(&mut self.rng, change_at, &mut self.rates);
            for (i, slot) in self.next_arrival.iter_mut().enumerate() {
                *slot = change_at as f64 + exp_interarrival_ms(&mut self.rng, self.rates[i]);
            }
            self.next_change = self.model.next_change(change_at);
            let (mut ti, mut t) = (0, f64::INFINITY);
            for (i, &x) in self.next_arrival.iter().enumerate() {
                if x < t {
                    t = x;
                    ti = i;
                }
            }
            type_idx = ti;
            ts = t;
        }

        let timestamp = ts as Timestamp;
        self.next_arrival[type_idx] = ts + exp_interarrival_ms(&mut self.rng, self.rates[type_idx]);
        let attrs = self.model.attributes(&mut self.rng, type_idx, timestamp);
        let ev = Event::new(EventTypeId(type_idx as u32), timestamp, self.seq, attrs);
        self.seq += 1;
        Some(ev)
    }
}

/// Sanity helper for tests and calibration: empirical per-type rates of
/// an event slice (events/second).
pub fn empirical_rates(events: &[Arc<Event>], num_types: usize) -> Vec<f64> {
    if events.is_empty() {
        return vec![0.0; num_types];
    }
    let span_ms = (events.last().unwrap().timestamp - events[0].timestamp).max(1) as f64;
    let mut counts = vec![0u64; num_types];
    for e in events {
        counts[e.type_id.index()] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / (span_ms / 1_000.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Two-type model: constant rates 100 and 10 ev/s.
    struct Fixed;

    impl DatasetModel for Fixed {
        fn num_types(&self) -> usize {
            2
        }
        fn attr_names(&self) -> &'static [&'static str] {
            &["x"]
        }
        fn initial_rates(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![100.0, 10.0]
        }
        fn next_change(&self, _now: Timestamp) -> Timestamp {
            Timestamp::MAX
        }
        fn apply_change(&mut self, _rng: &mut StdRng, _now: Timestamp, _rates: &mut [f64]) {}
        fn attributes(&mut self, rng: &mut StdRng, _type_idx: usize, _ts: Timestamp) -> Vec<Value> {
            vec![Value::Int(rng.gen_range(0..100))]
        }
    }

    #[test]
    fn stream_is_timestamp_ordered_with_unique_seqs() {
        let mut g = StreamGenerator::new(Fixed, StdRng::seed_from_u64(1));
        let events = g.take_events(5_000);
        assert_eq!(events.len(), 5_000);
        for w in events.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn empirical_rates_match_model() {
        let mut g = StreamGenerator::new(Fixed, StdRng::seed_from_u64(2));
        let events = g.take_events(20_000);
        let rates = empirical_rates(&events, 2);
        assert!((rates[0] - 100.0).abs() < 5.0, "r0 {}", rates[0]);
        assert!((rates[1] - 10.0).abs() < 2.0, "r1 {}", rates[1]);
    }

    /// A model whose two types swap rates at t = 10 000 ms.
    struct Swap {
        swapped: bool,
    }

    impl DatasetModel for Swap {
        fn num_types(&self) -> usize {
            2
        }
        fn attr_names(&self) -> &'static [&'static str] {
            &["x"]
        }
        fn initial_rates(&mut self, _rng: &mut StdRng) -> Vec<f64> {
            vec![100.0, 5.0]
        }
        fn next_change(&self, now: Timestamp) -> Timestamp {
            if now < 10_000 {
                10_000
            } else {
                Timestamp::MAX
            }
        }
        fn apply_change(&mut self, _rng: &mut StdRng, _now: Timestamp, rates: &mut [f64]) {
            rates.swap(0, 1);
            self.swapped = true;
        }
        fn attributes(&mut self, _rng: &mut StdRng, _t: usize, _ts: Timestamp) -> Vec<Value> {
            vec![Value::Int(0)]
        }
    }

    #[test]
    fn rate_changes_take_effect() {
        let mut g = StreamGenerator::new(Swap { swapped: false }, StdRng::seed_from_u64(3));
        let events = g.take_events(40_000);
        let before: Vec<_> = events
            .iter()
            .filter(|e| e.timestamp < 10_000)
            .cloned()
            .collect();
        let after: Vec<_> = events
            .iter()
            .filter(|e| e.timestamp >= 10_000)
            .cloned()
            .collect();
        let rb = empirical_rates(&before, 2);
        let ra = empirical_rates(&after, 2);
        assert!(rb[0] > 10.0 * rb[1], "before: {rb:?}");
        assert!(ra[1] > 10.0 * ra[0], "after: {ra:?}");
    }
}
