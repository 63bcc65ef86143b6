//! The statistics collector: per-type rate estimators plus per-branch
//! selectivity estimation, producing [`StatSnapshot`]s on demand.
//!
//! The two kinds of selectivity are estimated differently:
//!
//! * `sel_{i,i}` (slot `i`'s unary conditions) is *counted*: every slot
//!   with a unary condition owns a second rate estimator, of the same
//!   kind and window as the per-type ones, fed only by the arrivals of
//!   its type that pass the condition. The selectivity is that count over
//!   all arrivals of the type in the same window — an estimate over every
//!   in-window event, not over a handful of recent ones, so the planner's
//!   ranking of slots by `r_i · sel_{i,i}` does not flip on sampling
//!   noise. Types with no unary condition pay nothing for it.
//! * `sel_{i,j}` for `i ≠ j` is *sampled*: the pair conditions are run
//!   over the cross product of the two types' [`EventSample`]s.

use std::sync::Arc;

use acep_types::{CanonicalPattern, Event, EventTypeId, Programs, Timestamp};

use crate::rates::{DgimRateEstimator, ExactRateEstimator, RateEstimator};
use crate::sample::EventSample;
use crate::selectivity::SelectivityEstimator;
use crate::snapshot::StatSnapshot;

/// Configuration of the statistics component.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Sliding window (ms) over which rates are estimated. Independent of
    /// the pattern's match window.
    pub window_ms: Timestamp,
    /// DGIM buckets-per-size parameter (error ≤ 1/(2(r−1))).
    pub dgim_max_per_size: usize,
    /// Events retained per type for sampling pair selectivities
    /// (`sel_{i,j}`, `i ≠ j`). Unary selectivities are counted over the
    /// rate window instead and do not read the sample.
    pub sample_capacity: usize,
    /// Maximum event pairs evaluated per selectivity estimate.
    pub max_pairs: usize,
    /// Use the exact ring-buffer rate estimator instead of DGIM (more
    /// memory, zero approximation error). Used in tests.
    pub exact_rates: bool,
}

impl Default for StatsConfig {
    fn default() -> Self {
        Self {
            window_ms: 10_000,
            dgim_max_per_size: 8,
            sample_capacity: 16,
            max_pairs: 256,
            exact_rates: false,
        }
    }
}

enum RateImpl {
    Dgim(DgimRateEstimator),
    Exact(ExactRateEstimator),
}

impl RateImpl {
    fn anchor(&mut self, ts: Timestamp) {
        match self {
            RateImpl::Dgim(e) => e.anchor(ts),
            RateImpl::Exact(e) => e.anchor(ts),
        }
    }
}

impl RateEstimator for RateImpl {
    fn observe(&mut self, ts: Timestamp) {
        match self {
            RateImpl::Dgim(e) => e.observe(ts),
            RateImpl::Exact(e) => e.observe(ts),
        }
    }

    fn rate_per_sec(&mut self, now: Timestamp) -> f64 {
        match self {
            RateImpl::Dgim(e) => e.rate_per_sec(now),
            RateImpl::Exact(e) => e.rate_per_sec(now),
        }
    }
}

/// Precompiled statistics spec for one sub-pattern branch.
struct BranchSpec {
    slot_types: Vec<EventTypeId>,
    /// The branch's unary and pairwise conditions, compiled once: one
    /// group per slot pair `i <= j` in row-major order — the unary
    /// conditions of `i` over the frame `(event of i)` when `i == j`,
    /// else those between `i` and `j` over `(event of i, event of j)`.
    conds: Programs,
    /// Per slot: the index in [`StatisticsCollector::rates`] of the
    /// estimator counting the slot's passing arrivals, `None` when the
    /// slot has no unary condition.
    passing: Vec<Option<usize>>,
}

/// A unary-conditioned slot fed by one event type: an arrival that
/// passes group `group` of branch `branch`'s conditions is counted into
/// estimator `rate`.
struct UnaryCounter {
    branch: usize,
    group: usize,
    rate: usize,
}

/// Continuously re-estimates the monitored statistics of a pattern — the
/// paper's "dedicated component \[that\] calculates up-to-date estimates
/// of the statistics" (Fig. 2).
pub struct StatisticsCollector {
    /// One estimator per event type (type index order), then one per
    /// unary-conditioned branch slot (branch, then slot order).
    rates: Vec<RateImpl>,
    samples: Vec<EventSample>,
    /// Per type: the unary-conditioned slots its arrivals are checked
    /// against. Empty for a type no unary condition reads.
    unary_counters: Vec<Vec<UnaryCounter>>,
    branches: Vec<BranchSpec>,
    estimator: SelectivityEstimator,
    events_observed: u64,
}

impl StatisticsCollector {
    /// Creates a collector for `num_types` registered event types and the
    /// given pattern.
    pub fn new(num_types: usize, pattern: &CanonicalPattern, config: &StatsConfig) -> Self {
        let new_rate = || {
            if config.exact_rates {
                RateImpl::Exact(ExactRateEstimator::new(config.window_ms))
            } else {
                RateImpl::Dgim(DgimRateEstimator::new(
                    config.window_ms,
                    config.dgim_max_per_size,
                ))
            }
        };
        let mut rates: Vec<RateImpl> = (0..num_types).map(|_| new_rate()).collect();
        let samples = (0..num_types)
            .map(|_| EventSample::new(config.sample_capacity))
            .collect();
        let mut unary_counters: Vec<Vec<UnaryCounter>> =
            (0..num_types).map(|_| Vec::new()).collect();

        let mut branches = Vec::with_capacity(pattern.branches.len());
        for (branch, b) in pattern.branches.iter().enumerate() {
            let slot_types: Vec<EventTypeId> = b.slots.iter().map(|s| s.event_type).collect();
            let mut conds = Programs::default();
            let mut passing = vec![None; b.n()];
            for i in 0..b.n() {
                for j in i..b.n() {
                    let frame = [b.slots[i].var, b.slots[j].var];
                    if i == j {
                        let unary = b.unary_conditions(i).map(|c| &c.predicate);
                        let group = conds.push_group(unary, &frame[..1]);
                        let counters = unary_counters.get_mut(slot_types[i].index());
                        if let Some(counters) = counters.filter(|_| !conds.group_is_empty(group)) {
                            passing[i] = Some(rates.len());
                            counters.push(UnaryCounter {
                                branch,
                                group,
                                rate: rates.len(),
                            });
                            rates.push(new_rate());
                        }
                    } else {
                        let between = b.binary_conditions(i, j).map(|c| &c.predicate);
                        conds.push_group(between, &frame);
                    }
                }
            }
            branches.push(BranchSpec {
                slot_types,
                conds,
                passing,
            });
        }

        Self {
            rates,
            samples,
            unary_counters,
            branches,
            estimator: SelectivityEstimator::new(config.max_pairs),
            events_observed: 0,
        }
    }

    /// Number of pattern branches covered.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Total events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.events_observed
    }

    /// Feeds one event into the rate estimators and samples, and counts
    /// it for every unary-conditioned slot of its type whose condition it
    /// passes.
    pub fn observe(&mut self, ev: &Arc<Event>) {
        self.events_observed += 1;
        let idx = ev.type_id.index();
        let Some(counters) = self.unary_counters.get(idx) else {
            return;
        };
        self.rates[idx].observe(ev.timestamp);
        self.samples[idx].push(Arc::clone(ev));
        for c in counters {
            let passing = &mut self.rates[c.rate];
            // Same warm-up anchor as the type's estimator, so the two
            // rates divide into a fraction of in-window counts.
            passing.anchor(ev.timestamp);
            if self.branches[c.branch].conds.holds_pair(c.group, ev, ev) {
                passing.observe(ev.timestamp);
            }
        }
    }

    /// Produces the current statistics snapshot for branch `b`.
    pub fn snapshot_branch(&mut self, b: usize, now: Timestamp) -> StatSnapshot {
        let spec = &self.branches[b];
        let n = spec.slot_types.len();
        let mut snap = StatSnapshot::uniform(n);
        for (i, t) in spec.slot_types.iter().enumerate() {
            let rate = self.rates[t.index()].rate_per_sec(now);
            snap.set_rate(i, rate);
            if let Some(passing) = spec.passing[i] {
                let sel = if rate > 0.0 {
                    (self.rates[passing].rate_per_sec(now) / rate).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                snap.set_sel(i, i, sel);
            }
        }
        let sample = |slot: usize| &self.samples[spec.slot_types[slot].index()];
        let pairs = (0..n).flat_map(|i| (i..n).map(move |j| (i, j)));
        for (group, (i, j)) in pairs.enumerate() {
            if i != j {
                let sel = self
                    .estimator
                    .pair(&spec.conds, group, sample(i), sample(j));
                snap.set_sel(i, j, sel);
            }
        }
        snap
    }

    /// Produces the current snapshot for branch `b` behind an `Arc`, so
    /// one estimation pass can be handed to several consumers — the
    /// decision function `D`, the invariant recorder, and observability
    /// surfaces — without cloning the rate/selectivity matrices. A
    /// shard-scoped collector shared by many keyed engines publishes its
    /// snapshots this way.
    pub fn shared_snapshot_branch(&mut self, b: usize, now: Timestamp) -> SharedSnapshot {
        Arc::new(self.snapshot_branch(b, now))
    }

    /// Produces snapshots for all branches.
    pub fn snapshots(&mut self, now: Timestamp) -> Vec<StatSnapshot> {
        (0..self.branches.len())
            .map(|b| self.snapshot_branch(b, now))
            .collect()
    }

    /// Captures the collector's complete mutable state for
    /// checkpointing. Branch specs and the selectivity estimator are
    /// derived from the pattern and configuration, so a collector
    /// rebuilt from the same template plus this state produces
    /// bit-identical snapshots — which keeps a recovered run's plan
    /// trajectory (and with it lazy-plan emission times) deterministic.
    pub fn export_state(&self) -> CollectorState {
        CollectorState {
            events_observed: self.events_observed,
            rates: self
                .rates
                .iter()
                .map(|r| match r {
                    RateImpl::Exact(e) => {
                        let (times, first_ts) = e.export_state();
                        RateState::Exact { times, first_ts }
                    }
                    RateImpl::Dgim(e) => {
                        let (buckets, first_ts) = e.export_state();
                        RateState::Dgim { buckets, first_ts }
                    }
                })
                .collect(),
            samples: self
                .samples
                .iter()
                .map(|s| s.iter().cloned().collect())
                .collect(),
        }
    }

    /// Restores state captured by [`export_state`](Self::export_state)
    /// into a collector built from the same pattern and configuration.
    /// Fails if the state's shape (per-type vector lengths, estimator
    /// kinds, sample sizes) does not match this collector's.
    pub fn import_state(&mut self, state: CollectorState) -> Result<(), &'static str> {
        if state.rates.len() != self.rates.len() {
            return Err("collector rate-estimator count mismatch");
        }
        if state.samples.len() != self.samples.len() {
            return Err("collector sample count mismatch");
        }
        for (rate, rec) in self.rates.iter_mut().zip(state.rates) {
            match (rate, rec) {
                (RateImpl::Exact(e), RateState::Exact { times, first_ts }) => {
                    e.import_state(times, first_ts)?;
                }
                (RateImpl::Dgim(e), RateState::Dgim { buckets, first_ts }) => {
                    e.import_state(&buckets, first_ts)?;
                }
                _ => return Err("rate-estimator kind mismatch"),
            }
        }
        for (sample, events) in self.samples.iter_mut().zip(state.samples) {
            sample.import_events(events)?;
        }
        self.events_observed = state.events_observed;
        Ok(())
    }
}

/// One rate estimator's state inside a [`CollectorState`].
#[derive(Debug, Clone)]
pub enum RateState {
    /// Exact ring buffer: retained in-window timestamps (oldest first)
    /// and the warm-up anchor.
    Exact {
        /// Retained arrival timestamps, oldest first.
        times: Vec<Timestamp>,
        /// Timestamp of the first observation ever.
        first_ts: Option<Timestamp>,
    },
    /// DGIM histogram: `(bucket size, newest-arrival ts)` pairs (oldest
    /// bucket first) and the warm-up anchor.
    Dgim {
        /// Bucket list, oldest bucket first.
        buckets: Vec<(u64, Timestamp)>,
        /// Timestamp of the first observation ever.
        first_ts: Option<Timestamp>,
    },
}

/// The complete mutable state of a [`StatisticsCollector`] — what
/// [`export_state`](StatisticsCollector::export_state) captures and
/// [`import_state`](StatisticsCollector::import_state) restores.
#[derive(Debug, Clone)]
pub struct CollectorState {
    /// Total events observed.
    pub events_observed: u64,
    /// Rate-estimator state: one per type (type index order), then one
    /// per unary-conditioned branch slot (branch, then slot order).
    pub rates: Vec<RateState>,
    /// Per-type sampled events (oldest first), type index order.
    pub samples: Vec<Vec<Arc<Event>>>,
}

/// A [`StatSnapshot`] behind an `Arc`: the shareable form produced by
/// [`StatisticsCollector::shared_snapshot_branch`]. Snapshots are
/// immutable once taken, so sharing is always safe.
pub type SharedSnapshot = Arc<StatSnapshot>;

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::{attr, constant, Pattern, PatternExpr, Value};

    fn pattern_ab() -> Pattern {
        Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(EventTypeId(0)),
                PatternExpr::prim(EventTypeId(1)),
            ]))
            .condition(attr(0, 0).lt(attr(1, 0)))
            .window(1_000)
            .build()
            .unwrap()
    }

    fn ev(type_id: u32, ts: u64, seq: u64, v: i64) -> Arc<Event> {
        Event::new(EventTypeId(type_id), ts, seq, vec![Value::Int(v)])
    }

    #[test]
    fn rates_reflect_arrival_frequencies() {
        let p = pattern_ab();
        let cfg = StatsConfig {
            exact_rates: true,
            window_ms: 1_000,
            ..StatsConfig::default()
        };
        let mut c = StatisticsCollector::new(2, p.canonical(), &cfg);
        // Type 0 at 100 ev/s, type 1 at 10 ev/s over one second.
        let mut seq = 0;
        for i in 0..100u64 {
            c.observe(&ev(0, i * 10, seq, 1));
            seq += 1;
        }
        for i in 0..10u64 {
            c.observe(&ev(1, i * 100, seq, 2));
            seq += 1;
        }
        let snap = c.snapshot_branch(0, 1_000);
        assert!((snap.rate(0) - 100.0).abs() < 5.0, "r0={}", snap.rate(0));
        assert!((snap.rate(1) - 10.0).abs() < 2.0, "r1={}", snap.rate(1));
        assert_eq!(c.events_observed(), 110);
    }

    #[test]
    fn selectivity_estimated_from_samples() {
        let p = pattern_ab();
        let cfg = StatsConfig {
            exact_rates: true,
            sample_capacity: 16,
            ..StatsConfig::default()
        };
        let mut c = StatisticsCollector::new(2, p.canonical(), &cfg);
        // Type-0 values all 50, type-1 values 0..16 → sel(a.x < b.x) = 0.
        for i in 0..16u64 {
            c.observe(&ev(0, i, i, 50));
            c.observe(&ev(1, i, 100 + i, i as i64));
        }
        let snap = c.snapshot_branch(0, 16);
        assert_eq!(snap.sel(0, 1), 0.0);
        // Flip: type-1 values all 100 → sel = 1.
        for i in 0..16u64 {
            c.observe(&ev(1, 20 + i, 200 + i, 100));
        }
        let snap = c.snapshot_branch(0, 36);
        assert_eq!(snap.sel(0, 1), 1.0);
    }

    #[test]
    fn pairs_without_conditions_stay_neutral() {
        let p = Pattern::sequence("s", &[EventTypeId(0), EventTypeId(1)], 1_000);
        let mut c = StatisticsCollector::new(2, p.canonical(), &StatsConfig::default());
        for i in 0..10u64 {
            c.observe(&ev(0, i, i, 1));
        }
        let snap = c.snapshot_branch(0, 10);
        assert_eq!(snap.sel(0, 1), 1.0);
        assert_eq!(snap.sel(0, 0), 1.0);
    }

    #[test]
    fn snapshots_cover_all_branches() {
        let p = Pattern::builder("or")
            .expr(PatternExpr::or([
                PatternExpr::seq([
                    PatternExpr::prim(EventTypeId(0)),
                    PatternExpr::prim(EventTypeId(1)),
                ]),
                PatternExpr::seq([
                    PatternExpr::prim(EventTypeId(2)),
                    PatternExpr::prim(EventTypeId(3)),
                ]),
            ]))
            .window(1_000)
            .build()
            .unwrap();
        let mut c = StatisticsCollector::new(4, p.canonical(), &StatsConfig::default());
        assert_eq!(c.num_branches(), 2);
        let snaps = c.snapshots(0);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].n(), 2);
    }

    /// `SEQ(T0, T1) WHERE T1.x > 0`: slot 1 carries a unary condition,
    /// slot 0 none.
    fn pattern_unary() -> Pattern {
        Pattern::builder("u")
            .expr(PatternExpr::seq([
                PatternExpr::prim(EventTypeId(0)),
                PatternExpr::prim(EventTypeId(1)),
            ]))
            .condition(attr(1, 0).gt(constant(0)))
            .window(1_000)
            .build()
            .unwrap()
    }

    #[test]
    fn counted_unary_selectivity_is_the_exact_in_window_fraction() {
        // A T1 every 10 ms: none passes for the first 2 s, then one in
        // four does. The 1 s window slides across the change; the 10 s
        // one is still warming up, where the estimate is only right if
        // both counters are anchored at the type's first arrival.
        let events: Vec<_> = (0..400u64)
            .map(|i| {
                let v = if i >= 200 && i % 4 == 0 { 1 } else { -1 };
                ev(1, i * 10, i, v)
            })
            .collect();
        for window_ms in [1_000, 10_000] {
            let cfg = StatsConfig {
                exact_rates: true,
                window_ms,
                ..StatsConfig::default()
            };
            let mut c = StatisticsCollector::new(2, pattern_unary().canonical(), &cfg);
            let mut fed = 0;
            for now in [1_500, 2_500, 3_000, 3_990] {
                while events.get(fed).is_some_and(|e| e.timestamp <= now) {
                    c.observe(&events[fed]);
                    fed += 1;
                }
                let in_window: Vec<_> = events[..fed]
                    .iter()
                    .filter(|e| e.timestamp + window_ms > now)
                    .collect();
                let passing = in_window
                    .iter()
                    .filter(|e| e.attrs[0] == Value::Int(1))
                    .count();
                let want = passing as f64 / in_window.len() as f64;
                let sel = c.snapshot_branch(0, now).sel(1, 1);
                assert!(
                    (sel - want).abs() < 1e-12,
                    "window {window_ms}, now {now}: {sel} vs {want}"
                );
            }
        }
    }

    #[test]
    fn counted_selectivity_sees_the_whole_window_not_the_newest_events() {
        // 1000 T1 arrivals, ~40 % passing — but the 16 newest all fail,
        // which is all a 16-event sample would have seen (0.0).
        let mut c =
            StatisticsCollector::new(2, pattern_unary().canonical(), &StatsConfig::default());
        for i in 0..1_000u64 {
            let v = if i < 984 && i % 5 < 2 { 1 } else { -1 };
            c.observe(&ev(1, i, i, v));
        }
        let sel = c.snapshot_branch(0, 1_000).sel(1, 1);
        assert!((sel - 0.4).abs() < 0.05, "sel={sel}");
    }

    #[test]
    fn unconditioned_slot_reads_one_and_dgim_never_exceeds_one() {
        let mut c =
            StatisticsCollector::new(2, pattern_unary().canonical(), &StatsConfig::default());
        // One T1 in 20 fails: the two DGIM histograms merge buckets at
        // different points, so their estimates could cross without the
        // clamp.
        for i in 0..20_000u64 {
            let v = if i % 20 == 7 { -1 } else { 1 };
            c.observe(&ev((i % 3 == 0) as u32, i * 3, i, v));
            if i % 97 == 0 {
                let snap = c.snapshot_branch(0, i * 3);
                assert_eq!(snap.sel(0, 0), 1.0);
                let sel = snap.sel(1, 1);
                assert!((0.0..=1.0).contains(&sel), "i={i}: sel={sel}");
            }
        }
        // Nothing of the type arrived yet: neutral.
        let mut fresh =
            StatisticsCollector::new(2, pattern_unary().canonical(), &StatsConfig::default());
        fresh.observe(&ev(0, 5, 0, 1));
        assert_eq!(fresh.snapshot_branch(0, 5).sel(1, 1), 1.0);
    }

    #[test]
    fn export_import_round_trip_keeps_unary_counters() {
        for exact_rates in [false, true] {
            let cfg = StatsConfig {
                exact_rates,
                window_ms: 500,
                ..StatsConfig::default()
            };
            let p = pattern_unary();
            let events: Vec<_> = (0..600u64)
                .map(|i| ev((i % 2) as u32, i * 2, i, (i % 7) as i64 - 3))
                .collect();
            let mut a = StatisticsCollector::new(2, p.canonical(), &cfg);
            for e in &events[..300] {
                a.observe(e);
            }
            let state = a.export_state();
            // Per-type estimators, then the one unary slot.
            assert_eq!(state.rates.len(), 3);
            let mut b = StatisticsCollector::new(2, p.canonical(), &cfg);
            b.import_state(state.clone()).unwrap();
            assert_eq!(a.snapshot_branch(0, 600), b.snapshot_branch(0, 600));
            for e in &events[300..] {
                a.observe(e);
                b.observe(e);
            }
            assert_eq!(a.snapshot_branch(0, 1_200), b.snapshot_branch(0, 1_200));
            // A state without the unary counter (written before unary
            // selectivities were counted) is refused, not misread.
            let mut short = state;
            short.rates.truncate(2);
            let mut c = StatisticsCollector::new(2, p.canonical(), &cfg);
            assert_eq!(
                c.import_state(short).unwrap_err(),
                "collector rate-estimator count mismatch"
            );
        }
    }
}
