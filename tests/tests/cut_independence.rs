//! Batch cut points are an operational artifact, never a semantic one.
//!
//! The runtime's producer ships a shard's batch whenever that shard's
//! ring is empty, so where a stream is cut into worker messages depends
//! on how the caller chunks its pushes *and on timing*. This suite pins
//! that none of it shows: the same keyed stream pushed one event per
//! call, in random chunk sizes, and in one call yields — at W = 1, 2, 4,
//! in order and under event-time reordering — exactly what a run with
//! fixed cuts (a barrier after every 512-event chunk) yields:
//!
//! * the same match multiset,
//! * the same emission order within every (key, query),
//! * the same dense per-shard emit numbering (what a
//!   [`DedupSink`](acep_stream::DedupSink) frontier relies on: a replay
//!   after recovery is cut differently from the run that crashed),
//! * the same `total_events` and `late_dropped`.

use std::collections::BTreeMap;
use std::sync::Arc;

use acep_core::{AdaptiveConfig, PolicyKind};
use acep_engine::MatchKey;
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_stream::{
    CollectingSink, DisorderConfig, LastAttrKeyExtractor, PatternSet, ShardedRuntime, SourceId,
    StreamConfig,
};
use acep_types::{mix64, Event, EventTypeId, Pattern, PatternExpr, Value};
use acep_workloads::{source_skew_tagged, DatasetKind, PatternSetKind, Scenario};
use proptest::prelude::*;

const NUM_KEYS: u64 = 5;
const EVENTS_PER_KEY: usize = 400;
/// Per-source disorder bound (each simulated source is internally
/// sorted, so any positive bound satisfies the contract).
const BOUND: u64 = 192;
/// Inter-source skew of the tagged delivery, far beyond `BOUND`.
const MAX_SKEW: u64 = 6_000;

fn adaptive_config(planner: PlannerKind, policy: PolicyKind) -> AdaptiveConfig {
    AdaptiveConfig {
        planner,
        policy,
        control_interval: 32,
        control_interval_ms: None,
        warmup_events: 128,
        min_improvement: 0.0,
        migration_stagger: 0,
        stats: StatsConfig {
            window_ms: 2_000,
            exact_rates: true,
            sample_capacity: 16,
            max_pairs: 100,
            ..StatsConfig::default()
        },
    }
}

/// One plan kind each; the negation and lazy-chain queries hold
/// matches for a deadline, so where the engines' clock stops matters.
fn queries(scenario: &Scenario) -> PatternSet {
    let mut set = PatternSet::new(scenario.num_types());
    set.register(
        "stocks/seq3-greedy-invariant",
        scenario.pattern(PatternSetKind::Sequence, 3),
        adaptive_config(
            PlannerKind::Greedy,
            PolicyKind::invariant_with_distance(0.1),
        ),
    )
    .unwrap();
    set.register(
        "stocks/neg3-zstream-unconditional",
        scenario.pattern(PatternSetKind::Negation, 3),
        adaptive_config(PlannerKind::ZStream, PolicyKind::Unconditional),
    )
    .unwrap();
    set.register(
        "stocks/seq3-lazychain-unconditional",
        scenario.pattern(PatternSetKind::Sequence, 3),
        adaptive_config(PlannerKind::LazyChain, PolicyKind::Unconditional),
    )
    .unwrap();
    set
}

/// A stream built to make clock stops count: `SEQ(T0, T1, ¬T2)` within
/// 1 s over three keys, in bursts of 40 events (~600 ms) 700 ms apart.
/// Every engine leaves a burst holding several matches for deadlines
/// that fall into the silence after it, interleaved with the other
/// keys' — so a stop of the engines' clock at a batch boundary, rather
/// than at a place the stream decides, would reorder emissions.
fn bursty_trailing_negation(seed: u64) -> (PatternSet, Vec<Arc<Event>>) {
    let t = EventTypeId;
    let pattern = Pattern::builder("trailing-neg")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::neg(PatternExpr::prim(t(2))),
        ]))
        .window(1_000)
        .build()
        .unwrap();
    let mut set = PatternSet::new(3);
    set.register("trailing-neg", pattern, AdaptiveConfig::default())
        .unwrap();
    let mut draw = mix64(seed);
    let mut next = |modulus: u64| {
        draw = mix64(draw);
        draw % modulus
    };
    let mut ts = 0;
    let events = (0..1_200u64)
        .map(|seq| {
            ts += if seq % 40 == 0 { 700 } else { next(30) };
            let ty = match next(16) {
                0 => 2,
                n => n as u32 % 2,
            };
            Event::new(t(ty), ts, seq, vec![Value::Int(next(3) as i64)])
        })
        .collect();
    (set, events)
}

/// How a run hands the stream to the runtime.
#[derive(Debug, Clone, Copy)]
enum Cuts {
    /// 512-event chunks with a `flush()` after each: every message
    /// boundary is fixed by the caller, none by timing.
    Fixed,
    /// One `push_from` per event.
    PerEvent,
    /// `push_tagged` in chunks of 1..=`max` events, sizes drawn from
    /// `seed`.
    Random { seed: u64, max: usize },
    /// One `push_tagged` for the whole stream.
    Whole,
}

/// Everything a cut may not move.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Sorted (query, key, match identity).
    multiset: Vec<(u32, u64, MatchKey)>,
    /// Match identities per (key, query), in the order the sink saw
    /// them.
    per_key_order: BTreeMap<(u64, u32), Vec<MatchKey>>,
    /// (shard, emit) → match: the per-shard emission numbering.
    numbering: BTreeMap<(usize, u64), (u32, u64, MatchKey)>,
    total_events: u64,
    late_dropped: u64,
}

fn run(
    set: &PatternSet,
    events: &[(SourceId, Arc<Event>)],
    shards: usize,
    disorder: DisorderConfig,
    cuts: Cuts,
) -> Outcome {
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards,
            // Small enough that a busy worker is also sent full
            // batches, and the producer meets backpressure.
            channel_capacity: 2,
            max_batch: 64,
            disorder,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    match cuts {
        Cuts::Fixed => {
            for chunk in events.chunks(512) {
                runtime.push_tagged(chunk);
                runtime.flush();
            }
        }
        Cuts::PerEvent => {
            for (source, ev) in events {
                runtime.push_from(*source, ev);
            }
        }
        Cuts::Random { seed, max } => {
            let mut rest = events;
            let mut draw = seed;
            while !rest.is_empty() {
                draw = mix64(draw);
                let size = 1 + draw as usize % max;
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                runtime.push_tagged(chunk);
                rest = tail;
            }
        }
        Cuts::Whole => runtime.push_tagged(events),
    }
    let stats = runtime.finish();

    let mut outcome = Outcome {
        multiset: Vec::new(),
        per_key_order: BTreeMap::new(),
        numbering: BTreeMap::new(),
        total_events: stats.total_events(),
        late_dropped: stats.total_late_dropped(),
    };
    for m in sink.drain() {
        let line = (m.query.0, m.key, m.matched.key());
        outcome
            .per_key_order
            .entry((m.key, m.query.0))
            .or_default()
            .push(line.2.clone());
        let clash = outcome.numbering.insert((m.shard, m.emit), line.clone());
        assert!(clash.is_none(), "emit numbers are unique per shard");
        outcome.multiset.push(line);
    }
    outcome.multiset.sort();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_cut_points_do_not_show(
        (chunk_seed, max_chunk, skew_seed) in (0u64..1_000_000, 2usize..300, 0u64..1_000),
    ) {
        let scenario = Scenario::new(DatasetKind::Stocks);
        let set = queries(&scenario);
        let events = scenario.keyed_events(NUM_KEYS, EVENTS_PER_KEY);
        let in_order: Vec<(SourceId, Arc<Event>)> = events
            .iter()
            .map(|ev| (SourceId::MERGED, Arc::clone(ev)))
            .collect();
        let skewed = source_skew_tagged(&events, 3, MAX_SKEW, skew_seed);
        let (bursty_set, bursty_events) = bursty_trailing_negation(skew_seed);
        let bursty: Vec<(SourceId, Arc<Event>)> = bursty_events
            .iter()
            .map(|ev| (SourceId::MERGED, Arc::clone(ev)))
            .collect();
        let deliveries = [
            ("in-order", &set, &in_order, DisorderConfig::in_order()),
            // Sources never idle: no event is late, releases trail the
            // slowest source.
            ("per-source", &set, &skewed, DisorderConfig::per_source(BOUND, 2 * MAX_SKEW)),
            // Sorted input behind a merged bound: every arrival moves
            // the watermark, in steps far finer than the silences.
            ("bursty-bounded", &bursty_set, &bursty, DisorderConfig::bounded(BOUND)),
            // The same skew under a merged bound it exceeds: laggards'
            // events are late, so `late_dropped` is a live number.
            ("merged-lossy", &set, &skewed, DisorderConfig::bounded(BOUND)),
        ];
        for (name, set, delivery, disorder) in deliveries {
            let mut across_w: Option<Vec<(u32, u64, MatchKey)>> = None;
            for shards in [1usize, 2, 4] {
                let fixed = run(set, delivery, shards, disorder, Cuts::Fixed);
                prop_assert!(!fixed.multiset.is_empty(), "{name}: the workload must match");
                prop_assert_eq!(fixed.total_events + fixed.late_dropped, delivery.len() as u64);
                if name == "merged-lossy" {
                    prop_assert!(fixed.late_dropped > 0, "the lossy delivery must drop");
                } else {
                    prop_assert_eq!(fixed.late_dropped, 0);
                    // Late drops depend on shard-local watermarks, so
                    // only the lossless deliveries are W-invariant.
                    let reference = across_w.get_or_insert_with(|| fixed.multiset.clone());
                    prop_assert_eq!(&fixed.multiset, &*reference, "{}: W={}", name, shards);
                }
                for cuts in [
                    Cuts::PerEvent,
                    Cuts::Random { seed: chunk_seed, max: max_chunk },
                    Cuts::Whole,
                ] {
                    let cut = run(set, delivery, shards, disorder, cuts);
                    prop_assert_eq!(
                        &cut, &fixed,
                        "{}, W={}: {:?} diverged from the fixed-cut run", name, shards, cuts
                    );
                }
            }
        }
    }
}
