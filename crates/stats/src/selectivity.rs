//! Pair selectivity estimation from event samples.
//!
//! The selectivity `sel_{i,j}` (`i ≠ j`) of the paper's cost model is the
//! success probability of the conjunction of predicates between slots `i`
//! and `j`. It is estimated by evaluating those predicates over the cross
//! product of recent-event samples of the two types — a sampling analogue
//! of the histogram techniques the paper cites, chosen because it works
//! for arbitrary predicates, not just single-attribute ranges. Unary
//! selectivities `sel_{i,i}` need no pairing and are counted over the
//! whole rate window by the [`collector`](crate::collector) instead.

use acep_types::Programs;

use crate::sample::EventSample;

/// Estimates predicate selectivities from [`EventSample`]s.
#[derive(Debug, Clone)]
pub struct SelectivityEstimator {
    /// Upper bound on evaluated pairs per estimate (the cross product is
    /// strided down to roughly this many pairs).
    max_pairs: usize,
}

impl Default for SelectivityEstimator {
    fn default() -> Self {
        Self::new(256)
    }
}

impl SelectivityEstimator {
    /// Creates an estimator evaluating at most `max_pairs` event pairs
    /// per selectivity estimate.
    pub fn new(max_pairs: usize) -> Self {
        assert!(max_pairs > 0, "max_pairs must be positive");
        Self { max_pairs }
    }

    /// Estimates the selectivity of the compiled conjunction `group` of
    /// `conds` over the frame `(event of sample a, event of sample b)`.
    ///
    /// Returns `1.0` when a sample is empty or the group holds no
    /// condition (an uninformative estimate must not skew the cost
    /// model). When both slots share an event type `a` and `b` are the
    /// same sample; an event is never paired with itself — the engine
    /// cannot join it with itself either.
    pub fn pair(&self, conds: &Programs, group: usize, a: &EventSample, b: &EventSample) -> f64 {
        if conds.group_is_empty(group) || a.is_empty() || b.is_empty() {
            return 1.0;
        }
        let total_pairs = a.len() * b.len();
        // Stride both samples so that the evaluated grid is ≤ max_pairs.
        let shrink = ((total_pairs as f64 / self.max_pairs as f64).sqrt()).ceil() as usize;
        let stride = shrink.max(1);
        let mut tested = 0u32;
        let mut passed = 0u32;
        for ea in (0..a.len()).step_by(stride).map(|i| a.get(i)) {
            for eb in (0..b.len()).step_by(stride).map(|i| b.get(i)) {
                if eb.seq != ea.seq {
                    tested += 1;
                    passed += u32::from(conds.holds_pair(group, ea, eb));
                }
            }
        }
        if tested == 0 {
            1.0
        } else {
            passed as f64 / tested as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::{attr, constant, Event, EventTypeId, Predicate, Value, VarId};
    use std::sync::Arc;

    /// Events of `type_id` carrying `values`, with stream-unique `seq`s.
    fn sample_of(values: &[i64], type_id: u32) -> EventSample {
        let mut s = EventSample::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            s.push(Arc::new(Event {
                type_id: EventTypeId(type_id),
                timestamp: i as u64,
                seq: type_id as u64 * 1_000 + i as u64,
                attrs: vec![Value::Int(v)],
            }));
        }
        s
    }

    /// `preds` compiled as group 0 over the frame `(v0, v1)`.
    fn compiled(preds: &[Predicate]) -> Programs {
        let mut conds = Programs::default();
        conds.push_group(preds, &[VarId(0), VarId(1)]);
        conds
    }

    #[test]
    fn half_selectivity_for_less_than_on_uniform_values() {
        let a = sample_of(&(0..20).collect::<Vec<_>>(), 0);
        let b = sample_of(&(0..20).collect::<Vec<_>>(), 1);
        let est = SelectivityEstimator::new(1_000);
        let sel = est.pair(&compiled(&[attr(0, 0).lt(attr(1, 0))]), 0, &a, &b);
        // 190 of 400 ordered pairs satisfy a < b.
        assert!((sel - 0.475).abs() < 1e-9, "sel={sel}");
    }

    #[test]
    fn zero_and_one_selectivity_extremes() {
        let a = sample_of(&[1, 2, 3], 0);
        let b = sample_of(&[10, 20], 1);
        let est = SelectivityEstimator::default();
        let lt = compiled(&[attr(0, 0).lt(attr(1, 0))]);
        let gt = compiled(&[attr(0, 0).gt(attr(1, 0))]);
        assert_eq!(est.pair(&lt, 0, &a, &b), 1.0);
        assert_eq!(est.pair(&gt, 0, &a, &b), 0.0);
    }

    #[test]
    fn empty_sample_or_group_yields_neutral_estimate() {
        let a = sample_of(&[1], 0);
        let b = EventSample::new(4);
        let est = SelectivityEstimator::default();
        assert_eq!(
            est.pair(&compiled(&[attr(0, 0).lt(attr(1, 0))]), 0, &a, &b),
            1.0
        );
        assert_eq!(est.pair(&compiled(&[]), 0, &a, &a), 1.0);
    }

    #[test]
    fn conjunction_of_predicates_multiplies_down() {
        let a = sample_of(&(0..10).collect::<Vec<_>>(), 0);
        let b = sample_of(&(0..10).collect::<Vec<_>>(), 1);
        let p1 = attr(0, 0).lt(attr(1, 0));
        let p2 = attr(1, 0).gt(constant(5));
        let est = SelectivityEstimator::new(1_000);
        let sel_both = est.pair(&compiled(&[p1.clone(), p2]), 0, &a, &b);
        let sel_one = est.pair(&compiled(&[p1]), 0, &a, &b);
        assert!(sel_both < sel_one);
    }

    #[test]
    fn striding_caps_work() {
        // 100×100 = 10 000 pairs capped to ~100: estimate stays close.
        let vals: Vec<i64> = (0..100).collect();
        let a = sample_of(&vals, 0);
        let b = sample_of(&vals, 1);
        let est = SelectivityEstimator::new(100);
        let sel = est.pair(&compiled(&[attr(0, 0).lt(attr(1, 0))]), 0, &a, &b);
        assert!((sel - 0.5).abs() < 0.1, "sel={sel}");
    }

    #[test]
    fn same_sample_on_both_sides_never_pairs_an_event_with_itself() {
        // Two slots of one type draw from one sample. Over 4 distinct
        // values 6 of the 12 joinable pairs satisfy a < b; counting the
        // 4 self-pairs (never true for <) would read 6/16.
        let s = sample_of(&[1, 2, 3, 4], 0);
        let est = SelectivityEstimator::new(1_000);
        assert_eq!(
            est.pair(&compiled(&[attr(0, 0).lt(attr(1, 0))]), 0, &s, &s),
            0.5
        );
        // ... and a.x == b.x holds for no joinable pair, not for 4/16.
        assert_eq!(
            est.pair(&compiled(&[attr(0, 0).eq(attr(1, 0))]), 0, &s, &s),
            0.0
        );
        // A one-event sample has no joinable pair: neutral.
        let one = sample_of(&[1], 0);
        assert_eq!(
            est.pair(&compiled(&[attr(0, 0).lt(attr(1, 0))]), 0, &one, &one),
            1.0
        );
    }
}
