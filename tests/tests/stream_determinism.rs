//! Shard-count invariance of the `acep-stream` runtime.
//!
//! The runtime's headline guarantee: on the same keyed input, the match
//! multiset is identical for every worker count, and identical to what
//! direct per-key [`AdaptiveCep`] runs produce. Parallelism must be an
//! operational knob, never a semantic one.

use std::sync::Arc;

use acep_core::{AdaptiveCep, AdaptiveConfig, PolicyKind};
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_stream::{
    CollectingSink, LastAttrKeyExtractor, PatternSet, QueryId, ShardedRuntime, StreamConfig,
};
use acep_types::{Event, SelectionPolicy};
use acep_workloads::{events_for_key, DatasetKind, PatternSetKind, Scenario};

const NUM_KEYS: u64 = 6;
const EVENTS_PER_KEY: usize = 2_000;

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

/// Two queries with deliberately different planners and policies, so
/// per-query configuration is exercised end to end.
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
        "stocks/seq4-zstream-unconditional",
        scenario.pattern(PatternSetKind::Sequence, 4),
        adaptive_config(PlannerKind::ZStream, PolicyKind::Unconditional),
    )
    .unwrap();
    set
}

/// One canonical line per match: (query, key, match identity).
fn run_sharded(
    set: &PatternSet,
    events: &[Arc<Event>],
    shards: usize,
) -> (
    Vec<(u32, u64, acep_engine::MatchKey)>,
    acep_stream::RuntimeStats,
) {
    run_sharded_policy(set, events, shards, None)
}

/// Same, with every query forced under one selection policy.
fn run_sharded_policy(
    set: &PatternSet,
    events: &[Arc<Event>],
    shards: usize,
    policy_override: Option<SelectionPolicy>,
) -> (
    Vec<(u32, u64, acep_engine::MatchKey)>,
    acep_stream::RuntimeStats,
) {
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards,
            channel_capacity: 4,
            max_batch: 512,
            policy_override,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    // Push in several batches to exercise chunked ingestion.
    for chunk in events.chunks(1_000) {
        runtime.push_batch(chunk);
    }
    let stats = runtime.finish();
    let mut lines: Vec<(u32, u64, acep_engine::MatchKey)> = sink
        .drain()
        .into_iter()
        .map(|m| (m.query.0, m.key, m.matched.key()))
        .collect();
    lines.sort();
    (lines, stats)
}

#[test]
fn sharded_runs_are_shard_count_invariant() {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let events = scenario.keyed_events(NUM_KEYS, EVENTS_PER_KEY);
    let set = queries(&scenario);

    let (w1, s1) = run_sharded(&set, &events, 1);
    let (w2, s2) = run_sharded(&set, &events, 2);
    let (w4, s4) = run_sharded(&set, &events, 4);

    assert!(!w1.is_empty(), "the workload must produce matches");
    assert_eq!(w1, w2, "W=2 must match W=1 exactly");
    assert_eq!(w1, w4, "W=4 must match W=1 exactly");

    for stats in [&s1, &s2, &s4] {
        assert_eq!(stats.total_events(), events.len() as u64);
        assert_eq!(stats.total_keys(), NUM_KEYS as usize);
        assert_eq!(stats.total_matches(), w1.len() as u64);
    }
    assert_eq!(s1.shards.len(), 1);
    assert_eq!(s4.shards.len(), 4);
    // The hash spreads 6 keys over 4 shards: no shard may own all keys.
    assert!(s4.shards.iter().all(|s| s.keys < NUM_KEYS as usize));

    // The ingestion rings' protocol accounting must be consistent at
    // every worker count: a side is only ever woken by a claim of an
    // intent it published (+1 covers the close handshake's final
    // claim), and the occupancy high-water can never exceed the ring.
    for stats in [&s1, &s2, &s4] {
        for s in &stats.shards {
            let r = &s.ring;
            assert!(r.capacity.is_power_of_two(), "shard {}: {r:?}", s.shard);
            assert!(
                r.producer_wakes <= r.producer_parks + 1,
                "shard {}: producer wakes without parks: {r:?}",
                s.shard
            );
            assert!(
                r.consumer_wakes <= r.consumer_parks + 1,
                "shard {}: consumer wakes without parks: {r:?}",
                s.shard
            );
            assert!(
                r.occupancy_high_water <= r.capacity,
                "shard {}: occupancy above capacity: {r:?}",
                s.shard
            );
            assert!(
                s.batches == 0 || r.occupancy_high_water > 0,
                "shard {}: batches flowed but occupancy never rose: {r:?}",
                s.shard
            );
        }
    }
}

/// Regression test for the producer-side batching barrier contract:
/// events routed while their shard's ring was non-empty stay assembled
/// on the producer side, so `flush()` (and `stats()`, and watermarks)
/// must ship those in-flight batches *before* signalling the barrier —
/// otherwise the barrier acknowledges a prefix the workers never saw.
#[test]
fn flush_ships_producer_side_pending_batches() {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let events = scenario.keyed_events(NUM_KEYS, 200);
    let set = queries(&scenario);
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards: 2,
            // Far above the event count: nothing ever fills a batch.
            // What a push finds an empty ring for ships with the push;
            // whatever it had to hold, only the barrier's drain ships.
            max_batch: 1 << 20,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    runtime.push_batch(&events);
    runtime.flush();
    let after_flush = runtime.stats();
    assert_eq!(
        after_flush.total_events(),
        events.len() as u64,
        "flush must drain producer-side pending batches before the barrier"
    );
    let flushed_matches = sink.drain().len() as u64;
    assert_eq!(
        flushed_matches,
        after_flush.total_matches(),
        "every match detectable from the flushed prefix reaches the sink"
    );
    assert!(flushed_matches > 0, "the workload must produce matches");

    // A stats() barrier alone must also ship pending batches.
    runtime.push_batch(&events[..100]);
    let after_stats = runtime.stats();
    assert_eq!(after_stats.total_events(), events.len() as u64 + 100);
    runtime.finish();
}

/// The selection-policy matrix rides the same invariants: under every
/// policy the match multiset is identical for W = 1/2/4, the default
/// (no override) equals an explicit skip-till-any override, and across
/// policies the multisets respect the containment lattice
/// strict ⊆ next ⊆ any (each policy is a pure filter on the
/// skip-till-any match set).
#[test]
fn policy_matrix_is_shard_count_invariant_and_nested() {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let events = scenario.keyed_events(NUM_KEYS, EVENTS_PER_KEY);
    let set = queries(&scenario);

    let mut per_policy = Vec::new();
    for policy in SelectionPolicy::ALL {
        let (w1, _) = run_sharded_policy(&set, &events, 1, Some(policy));
        let (w2, _) = run_sharded_policy(&set, &events, 2, Some(policy));
        let (w4, _) = run_sharded_policy(&set, &events, 4, Some(policy));
        assert_eq!(w1, w2, "{policy}: W=2 must match W=1 exactly");
        assert_eq!(w1, w4, "{policy}: W=4 must match W=1 exactly");
        per_policy.push(w1);
    }
    let [any, next, strict]: [Vec<_>; 3] = per_policy.try_into().expect("three policies");

    let (default_run, _) = run_sharded(&set, &events, 2);
    assert_eq!(
        any, default_run,
        "skip-till-any override must be bit-identical to the default"
    );
    assert!(!any.is_empty(), "the workload must produce matches");

    let is_subset = |sub: &[(u32, u64, acep_engine::MatchKey)],
                     sup: &[(u32, u64, acep_engine::MatchKey)]| {
        sub.iter().all(|line| sup.binary_search(line).is_ok())
    };
    assert!(is_subset(&strict, &next), "strict ⊄ next");
    assert!(is_subset(&next, &any), "next ⊄ any");
}

#[test]
fn sharded_runs_equal_direct_per_key_engines() {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let events = scenario.keyed_events(NUM_KEYS, EVENTS_PER_KEY);
    let set = queries(&scenario);

    let (sharded, _) = run_sharded(&set, &events, 4);

    // Reference: one plain AdaptiveCep per (key, query) over that key's
    // substream, exactly as a user would run without acep-stream.
    let mut direct: Vec<(u32, u64, acep_engine::MatchKey)> = Vec::new();
    for key in 0..NUM_KEYS {
        let substream = events_for_key(&events, key);
        assert_eq!(substream.len(), EVENTS_PER_KEY);
        for (qid, spec) in set.iter() {
            let mut engine =
                AdaptiveCep::new(&spec.pattern, set.num_types(), spec.config.clone()).unwrap();
            let mut out = Vec::new();
            for ev in &substream {
                engine.on_event(ev, &mut out);
            }
            engine.finish(&mut out);
            direct.extend(out.iter().map(|m| (qid.0, key, m.key())));
        }
    }
    direct.sort();
    assert_eq!(
        sharded, direct,
        "sharded multiset must equal direct per-key engine runs"
    );
}

#[test]
fn per_query_stats_are_shard_count_invariant() {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let events = scenario.keyed_events(3, 1_000);
    let set = queries(&scenario);
    let (_, s1) = run_sharded(&set, &events, 1);
    let (_, s4) = run_sharded(&set, &events, 4);
    for q in 0..set.len() as u32 {
        let a = s1.query(QueryId(q));
        let b = s4.query(QueryId(q));
        // Evaluation stats — engine-visible event counts, matches,
        // engine instances — depend only on per-key substreams, never
        // on shard placement.
        assert_eq!(a, b, "query {q} stats diverged between W=1 and W=4");

        // Adaptation runs per (shard, query) controller, so its
        // decision/planning counters are shard-*dependent* by design.
        // What stays invariant: every relevant event is observed by
        // exactly one controller, so the observed totals agree.
        let a1 = s1.adaptation(QueryId(q));
        let a4 = s4.adaptation(QueryId(q));
        assert_eq!(
            a1.events, a4.events,
            "query {q}: each relevant event must be observed exactly once"
        );
        assert_eq!(
            a1.events, a.events,
            "controller and engines see the same stream"
        );
        // The workload is long enough that the W=1 controller (and at
        // least one W=4 controller — shards without keys never warm up)
        // deploys its initial optimization.
        assert!(a1.plan_epoch >= 1);
        assert!(a4.plan_epoch >= 1);
    }
}
