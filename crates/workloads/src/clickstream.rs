//! Clickstream-funnel adversarial workload: a deep sequential funnel
//! with heavy negation and pathological per-source lateness.
//!
//! Each user walks a five-step purchase funnel
//! `landing → browse → cart → address → checkout` (types `T0..T4`);
//! at every step they may abandon instead, emitting the `T5` abandon
//! event. The query ([`ClickstreamConfig::pattern`]) is the deepest
//! shape in the suite — a 5-slot `SEQ` with *two* unconditional
//! negations of the abandon type, one interior (between browse and
//! cart) and one trailing (after checkout):
//!
//! ```text
//! SEQ(T0, T1, ¬T5, T2, T3, T4, ¬T5)  within window
//! ```
//!
//! The trailing negation means no match can be emitted before the
//! watermark passes the checkout's deadline, so finalization is
//! entirely watermark-driven — and [`clickstream_tagged`] makes the
//! watermark itself adversarial: deliveries are tagged with a
//! [`SourceId`] derived from the user, and each source lags the wall
//! clock by a constant staircase up to
//! [`ClickstreamConfig::max_lateness`]. Per-source substreams stay
//! perfectly ordered (the per-source watermark contract) while the
//! merged arrival order is skewed far beyond any reasonable merged
//! bound.
//!
//! Users run several sessions back to back with think-time gaps shorter
//! than the window, so a session's steps interleave with the previous
//! session's tail. Under skip-till-any the funnel steps of different
//! sessions cross-combine; skip-till-next keeps only gap-free walks and
//! strict contiguity almost none — the selection-policy axis.
//!
//! Events carry `[Value::Int(score), Value::Int(user)]` (trailing
//! attribute = partition key, as in [`crate::partition`]); the score
//! ascends with the funnel step so the pattern's chain conditions hold
//! within a session.

use std::sync::Arc;

use acep_types::{attr, Event, EventTypeId, Pattern, PatternExpr, SourceId, Timestamp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::partition::{merge_streams, mix_seed};

/// Number of positive funnel steps (`T0..T4`).
pub const FUNNEL_DEPTH: usize = 5;

/// Event type of the abandon event (negated twice by the pattern).
pub const ABANDON_TYPE: u32 = FUNNEL_DEPTH as u32;

/// Shape of the clickstream-funnel workload.
#[derive(Debug, Clone)]
pub struct ClickstreamConfig {
    /// Distinct users (partition keys).
    pub users: u64,
    /// Funnel sessions each user attempts.
    pub sessions_per_user: usize,
    /// Per-step probability of abandoning the funnel.
    pub drop_off: f64,
    /// Delivery sources for [`clickstream_tagged`].
    pub lateness_sources: u32,
    /// Lag (ms) of the slowest source — the staircase top.
    pub max_lateness: Timestamp,
    /// Match window (ms) of [`ClickstreamConfig::pattern`].
    pub window_ms: Timestamp,
    /// RNG seed — the stream is a pure function of the config.
    pub seed: u64,
}

impl Default for ClickstreamConfig {
    fn default() -> Self {
        Self {
            users: 20_000,
            sessions_per_user: 3,
            drop_off: 0.25,
            lateness_sources: 4,
            max_lateness: 30_000,
            window_ms: 10_000,
            seed: 7,
        }
    }
}

impl ClickstreamConfig {
    /// Event types used by the generator (funnel steps + abandon).
    pub const NUM_TYPES: usize = FUNNEL_DEPTH + 1;

    /// The funnel query: `SEQ(T0, T1, ¬T5, T2, T3, T4, ¬T5)` with
    /// ascending scores between consecutive steps, within the window.
    /// Both negations are unconditional: any abandon between browse and
    /// cart, or after checkout, kills the match.
    pub fn pattern(&self) -> Pattern {
        let abandon = EventTypeId(ABANDON_TYPE);
        let items = vec![
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::neg(PatternExpr::prim(abandon)),
            PatternExpr::prim(EventTypeId(2)),
            PatternExpr::prim(EventTypeId(3)),
            PatternExpr::prim(EventTypeId(4)),
            PatternExpr::neg(PatternExpr::prim(abandon)),
        ];
        // Vars: T0=0, T1=1, ¬T5=2, T2=3, T3=4, T4=5, ¬T5=6.
        let mut b = Pattern::builder("click/funnel5")
            .expr(PatternExpr::seq(items))
            .window(self.window_ms);
        for (prev, next) in [(0u32, 1u32), (1, 3), (3, 4), (4, 5)] {
            b = b.condition(attr(prev, 0).lt(attr(next, 0)));
        }
        b.build().expect("clickstream pattern is valid")
    }
}

/// One user's event stream: sessions back to back, each walking the
/// funnel until completion or abandonment. Timestamps ascend; `seq` is
/// a per-user placeholder renumbered by the global merge.
fn user_stream(config: &ClickstreamConfig, user: u64) -> Vec<Arc<Event>> {
    let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, user));
    let mut out = Vec::new();
    let mut ts: Timestamp = 1 + rng.gen_range(0..5_000);
    let push = |out: &mut Vec<Arc<Event>>, tid: u32, ts: Timestamp, score: i64| {
        out.push(Event::new(
            EventTypeId(tid),
            ts,
            out.len() as u64,
            vec![Value::Int(score), Value::Int(user as i64)],
        ));
    };
    for _ in 0..config.sessions_per_user {
        for step in 0..FUNNEL_DEPTH {
            // Scores ascend strictly with the step, so the pattern's
            // chain conditions hold inside one session.
            let score = (step as i64) * 10 + rng.gen_range(0..5);
            push(&mut out, step as u32, ts, score);
            ts += rng.gen_range(50..500);
            if step + 1 < FUNNEL_DEPTH && rng.gen_range(0.0..1.0) < config.drop_off {
                push(&mut out, ABANDON_TYPE, ts, 0);
                ts += rng.gen_range(50..500);
                break;
            }
        }
        // Think time between sessions — often shorter than the window,
        // so consecutive sessions overlap inside it.
        ts += rng.gen_range(2_000..8_000);
    }
    out
}

/// Generates the merged, in-order clickstream described by `config`.
pub fn clickstream(config: &ClickstreamConfig) -> Vec<Arc<Event>> {
    let streams: Vec<Vec<Arc<Event>>> = (0..config.users.max(1))
        .map(|u| user_stream(config, u))
        .collect();
    merge_streams(streams)
}

/// Delivery schedule with pathological per-source lateness.
///
/// Each event is tagged with `SourceId(user % lateness_sources)` and
/// delayed by that source's constant staircase lag — source 0 delivers
/// on time, the last source [`ClickstreamConfig::max_lateness`] ms
/// late. The stable sort on delivery time keeps every per-source
/// substream internally ordered, so per-source watermarks tolerate the
/// skew while any merged bound smaller than the staircase would drop
/// the slow sources' events wholesale.
pub fn clickstream_tagged(config: &ClickstreamConfig) -> Vec<(SourceId, Arc<Event>)> {
    let sources = config.lateness_sources.max(1);
    let step = config.max_lateness / u64::from(sources.max(2) - 1).max(1);
    let mut delivery: Vec<(Timestamp, SourceId, Arc<Event>)> = clickstream(config)
        .into_iter()
        .map(|ev| {
            let user = match ev.attrs.last() {
                Some(Value::Int(k)) => *k as u64,
                _ => unreachable!("clickstream events carry a trailing key"),
            };
            let src = (user % u64::from(sources)) as u32;
            (ev.timestamp + u64::from(src) * step, SourceId(src), ev)
        })
        .collect();
    delivery.sort_by_key(|(at, _, _)| *at);
    delivery.into_iter().map(|(_, src, ev)| (src, ev)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> ClickstreamConfig {
        ClickstreamConfig {
            users: 64,
            sessions_per_user: 3,
            ..ClickstreamConfig::default()
        }
    }

    #[test]
    fn merged_stream_is_ordered_and_deterministic() {
        let cfg = small();
        let a = clickstream(&cfg);
        let b = clickstream(&cfg);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
            assert!(w[0].seq < w[1].seq);
        }
        assert!(
            a.len() >= 64 * 3 * 2,
            "each session emits at least 2 events"
        );
    }

    #[test]
    fn funnel_emits_all_types_including_abandons() {
        let events = clickstream(&small());
        let mut per_type: HashMap<u32, usize> = HashMap::new();
        for ev in &events {
            *per_type.entry(ev.type_id.0).or_default() += 1;
        }
        for tid in 0..ClickstreamConfig::NUM_TYPES as u32 {
            assert!(
                per_type.get(&tid).copied().unwrap_or(0) > 0,
                "type {tid} missing"
            );
        }
        // drop_off thins each successive step.
        assert!(per_type[&0] > per_type[&(FUNNEL_DEPTH as u32 - 1)]);
    }

    #[test]
    fn tagged_delivery_keeps_sources_internally_ordered() {
        let cfg = small();
        let tagged = clickstream_tagged(&cfg);
        assert_eq!(tagged.len(), clickstream(&cfg).len());
        let mut last_per_source: HashMap<u32, (u64, u64)> = HashMap::new();
        let mut max_merged_regression = 0i64;
        let mut max_delivered = 0u64;
        for (src, ev) in &tagged {
            let key = (ev.timestamp, ev.seq);
            if let Some(prev) = last_per_source.insert(src.0, key) {
                assert!(prev <= key, "source {src} substream out of order");
            }
            max_merged_regression =
                max_merged_regression.max(max_delivered as i64 - ev.timestamp as i64);
            max_delivered = max_delivered.max(ev.timestamp);
        }
        assert!(last_per_source.len() > 1, "expected multiple sources");
        // The merged view is skewed by roughly the staircase top.
        assert!(
            max_merged_regression >= cfg.max_lateness as i64 / 2,
            "merged disorder {max_merged_regression} too tame"
        );
    }

    #[test]
    fn pattern_has_deep_seq_with_two_negations() {
        let p = ClickstreamConfig::default().pattern();
        let b = &p.canonical().branches[0];
        assert_eq!(b.n(), FUNNEL_DEPTH);
        assert_eq!(b.negated.len(), 2);
        assert!(
            b.negated.iter().any(|n| n.before_slot.is_none()),
            "one negation trails"
        );
        assert!(b
            .negated
            .iter()
            .all(|n| n.event_type == EventTypeId(ABANDON_TYPE)));
    }
}
