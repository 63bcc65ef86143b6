//! Shard-count invariance of the `acep-stream` runtime.
//!
//! The runtime's headline guarantee: on the same keyed input, the match
//! multiset is identical for every worker count, and identical to what
//! direct per-key [`AdaptiveCep`] runs produce. Parallelism must be an
//! operational knob, never a semantic one.
//!
//! The adversarial scenarios (IoT fleet, clickstream funnel, the
//! skew-shifting `scale_keys` stream) also pin their end-of-run state
//! counts here ([`SCENARIO_GOLDEN`]) and the lazy plan's partial-match
//! collapse.

use std::sync::Arc;

use acep_core::{AdaptiveCep, AdaptiveConfig, PolicyKind};
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_stream::{
    CollectingSink, DisorderConfig, LastAttrKeyExtractor, PatternSet, QueryId, ShardedRuntime,
    SourceId, StreamConfig,
};
use acep_types::{Event, EventTypeId, Pattern, PatternExpr, SelectionPolicy, Value};
use acep_workloads::{
    clickstream_tagged, events_for_key, iot_fleet, ClickstreamConfig, DatasetKind, IotConfig,
    PatternSetKind, Scenario,
};

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
    let delivered = merged(events.to_vec());
    run_tagged(set, &delivered, DisorderConfig::in_order(), shards, None)
}

/// Same, over a source-tagged delivery under `disorder`, with every
/// query forced under `policy_override` if set.
fn run_tagged(
    set: &PatternSet,
    delivered: &[(SourceId, Arc<Event>)],
    disorder: DisorderConfig,
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
            disorder,
            policy_override,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    // Push in several batches to exercise chunked ingestion.
    for chunk in delivered.chunks(1_000) {
        runtime.push_tagged(chunk);
    }
    let stats = runtime.finish();
    assert_eq!(
        stats.total_late_dropped(),
        0,
        "the delivery respects its contract"
    );
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
            assert_eq!(s.max_reorder_depth, 0, "passthrough buffers nothing");
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

/// The adaptive configuration of the scenario inputs: `planner` under
/// the invariant policy at d = 0.1, defaults otherwise.
fn scenario_config(planner: PlannerKind) -> AdaptiveConfig {
    AdaptiveConfig {
        planner,
        policy: PolicyKind::invariant_with_distance(0.1),
        ..AdaptiveConfig::default()
    }
}

fn scenario_query(
    name: &str,
    pattern: Pattern,
    num_types: usize,
    planner: PlannerKind,
) -> PatternSet {
    let mut set = PatternSet::new(num_types);
    set.register(name, pattern, scenario_config(planner))
        .unwrap();
    set
}

fn merged(events: Vec<Arc<Event>>) -> Vec<(SourceId, Arc<Event>)> {
    events
        .into_iter()
        .map(|ev| (SourceId::MERGED, ev))
        .collect()
}

/// The IoT-fleet input: 2 000 devices with Zipf traffic and correlated
/// bursts, 20 000 events, in order.
fn iot_input() -> (IotConfig, Vec<(SourceId, Arc<Event>)>) {
    let iot = IotConfig {
        devices: 2_000,
        events: 20_000,
        ..IotConfig::default()
    };
    let events = merged(iot_fleet(&iot));
    (iot, events)
}

/// The clickstream input: the funnel of 300 users, each source lagging
/// by a constant staircase up to 30 s, under per-source watermarks
/// with bound 256 (every source substream is perfectly ordered).
fn click_input() -> (PatternSet, Vec<(SourceId, Arc<Event>)>, DisorderConfig) {
    let click = ClickstreamConfig {
        users: 300,
        ..ClickstreamConfig::default()
    };
    let set = scenario_query(
        "click/funnel5",
        click.pattern(),
        ClickstreamConfig::NUM_TYPES,
        PlannerKind::Greedy,
    );
    let disorder = DisorderConfig::per_source(256, 2 * click.max_lateness);
    (set, clickstream_tagged(&click), disorder)
}

/// The selection-policy matrix rides the same invariants, on three
/// inputs: the stocks queries, the IoT-fleet stream and the clickstream
/// funnel (deep `SEQ` with two negations, delivered per source). On
/// each, under every policy the match multiset is identical across
/// worker counts, the default (no override) equals an explicit
/// skip-till-any override, and across policies the multisets respect
/// the containment lattice strict ⊆ next ⊆ any (each policy is a pure
/// filter on the skip-till-any match set). The IoT stream under a
/// forced lazy-chain plan lands exactly on its `any` multiset.
///
/// The clickstream runs at W = 1/2 only: at W = 4 one shard's first
/// arrival comes from a fast source, so older events of a lagging
/// source routed to that shard fall behind the per-source discovery
/// anchor (`reorder.rs`, "phantom source") and 3 of them drop as late,
/// whatever the idle timeout. That is a known W-dependence of the
/// per-source watermark, not a property of this test.
#[test]
fn policy_matrix_is_shard_count_invariant_and_nested() {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let (iot, iot_events) = iot_input();
    let iot_set =
        |planner| scenario_query("iot/seq3", iot.pattern(), IotConfig::NUM_TYPES, planner);
    let (click_set, click_events, click_disorder) = click_input();
    let in_order = DisorderConfig::in_order();
    let inputs = [
        (
            "stocks",
            queries(&scenario),
            merged(scenario.keyed_events(NUM_KEYS, EVENTS_PER_KEY)),
            in_order,
            &[1, 2, 4][..],
        ),
        (
            "iot",
            iot_set(PlannerKind::Greedy),
            iot_events,
            in_order,
            &[1, 2, 4][..],
        ),
        (
            "click",
            click_set,
            click_events,
            click_disorder,
            &[1, 2][..],
        ),
    ];

    let is_subset = |sub: &[(u32, u64, acep_engine::MatchKey)],
                     sup: &[(u32, u64, acep_engine::MatchKey)]| {
        sub.iter().all(|line| sup.binary_search(line).is_ok())
    };
    for (name, set, delivered, disorder, workers) in &inputs {
        let mut per_policy = Vec::new();
        for policy in SelectionPolicy::ALL {
            let (w1, _) = run_tagged(set, delivered, *disorder, 1, Some(policy));
            for &w in &workers[1..] {
                let (lines, _) = run_tagged(set, delivered, *disorder, w, Some(policy));
                assert_eq!(lines, w1, "{name}/{policy}: W={w} must match W=1 exactly");
            }
            per_policy.push(w1);
        }
        let [any, next, strict]: [Vec<_>; 3] = per_policy.try_into().expect("three policies");

        let (default_run, _) = run_tagged(set, delivered, *disorder, 2, None);
        assert_eq!(
            any, default_run,
            "{name}: skip-till-any override must be bit-identical to the default"
        );
        assert!(!any.is_empty(), "{name}: the workload must produce matches");
        assert!(is_subset(&strict, &next), "{name}: strict ⊄ next");
        assert!(is_subset(&next, &any), "{name}: next ⊄ any");

        if *name == "iot" {
            let (lazy_run, _) = run_tagged(
                &iot_set(PlannerKind::LazyChain),
                delivered,
                *disorder,
                2,
                None,
            );
            assert_eq!(
                lazy_run, any,
                "iot: the lazy plan under the default policy must equal the any multiset"
            );
        }
    }
}

/// The `scale_keys` stream: `keys` round-robin partition keys whose
/// global type skew (T0 frequent / T2 rare over 3 types) flips halfway
/// through — the minimal stream that forces every shard controller
/// through warmup, initial optimization, and one skew-shift re-plan
/// while key cardinality stresses per-key instantiation. The type
/// cycle modulus (53) is prime so it never divides a round-robin key
/// count: every key's subsequence walks all residues, sees all three
/// types, and — within [`SCALE_WINDOW_MS`] — completes real matches.
fn skew_shift_keyed(keys: u64, events_per_key: usize) -> Vec<Arc<Event>> {
    let total = keys as usize * events_per_key;
    (0..total)
        .map(|i| {
            let flipped = i >= total / 2;
            let tid = match i % 53 {
                0 if flipped => 0,
                0 => 2,
                r if r % 5 == 0 => 1,
                _ if flipped => 2,
                _ => 0,
            };
            let key = i as u64 % keys;
            Event::new(
                EventTypeId(tid),
                3 * (i as u64 + 1),
                i as u64,
                vec![Value::Int((i % 7) as i64 - 3), Value::Int(key as i64)],
            )
        })
        .collect()
}

/// Keys × events per key of the `scale_keys` stream.
const SCALE_KEYS: u64 = 2_000;
const SCALE_EVENTS_PER_KEY: usize = 12;

/// Match window of the `scale_keys` queries. Consecutive events of one
/// key are `3 × keys` ms apart (round-robin at 3 ms/event), so the
/// window must span several per-key gaps for joins to happen at all.
const SCALE_WINDOW_MS: u64 = 200_000;

/// Two 3-type queries (`SEQ` and `AND`) over the `scale_keys` stream,
/// so every key hosts two engines from one shared controller pair per
/// shard.
fn scale_pattern_set(planner: PlannerKind) -> PatternSet {
    let types = [EventTypeId(0), EventTypeId(1), EventTypeId(2)];
    let mut set = scenario_query(
        "scale/seq3",
        Pattern::sequence("seq3", &types, SCALE_WINDOW_MS),
        3,
        planner,
    );
    set.register(
        "scale/and3",
        Pattern::builder("and3")
            .expr(PatternExpr::and(types.map(PatternExpr::prim)))
            .window(SCALE_WINDOW_MS)
            .build()
            .unwrap(),
        scenario_config(planner),
    )
    .unwrap();
    set
}

/// `(row, matches, partials_live, buffered_events)` of the adversarial
/// scenarios at W = 2, read at the end of each run. All three are
/// deterministic for a fixed stream and shard count (batch cuts vary
/// run to run; per-key order and the controllers' decision points do
/// not), so a changed cell is a behaviour change — in what is detected,
/// how many partial matches the executors keep, or how many events the
/// lazy plan buffers. Rows: the `scale_keys` stream under the greedy
/// and the lazy-chain planner; the IoT stream under each policy and
/// under a forced lazy plan with its own policy; the clickstream under
/// each policy. Regenerate with `ACEP_PRINT_GOLDEN=1 cargo test -p
/// acep-integration-tests --test stream_determinism golden --
/// --nocapture` after an intentional change.
const SCENARIO_GOLDEN: &[(&str, u64, usize, usize)] = &[
    ("scale_keys", 154020, 96897, 109372),
    ("scale_keys_lazy", 154020, 0, 109372),
    ("scale_iot_any", 77643, 503, 3262),
    ("scale_iot_next", 3806, 503, 3262),
    ("scale_iot_strict", 176, 435, 3262),
    ("scale_iot_lazy", 77643, 0, 3703),
    ("scale_click_any", 636, 1246, 1914),
    ("scale_click_next", 270, 1238, 1914),
    ("scale_click_strict", 181, 857, 1914),
];

#[test]
fn scenario_state_counts_match_golden() {
    let row = |name, set: &PatternSet, delivered: &[_], disorder, policy| {
        let (_, stats) = run_tagged(set, delivered, disorder, 2, policy);
        (
            name,
            stats.total_matches(),
            stats.total_partials_live(),
            stats.total_buffered_events(),
        )
    };
    let in_order = DisorderConfig::in_order();
    let keys = merged(skew_shift_keyed(SCALE_KEYS, SCALE_EVENTS_PER_KEY));
    let (iot, iot_events) = iot_input();
    let iot_set =
        |planner| scenario_query("iot/seq3", iot.pattern(), IotConfig::NUM_TYPES, planner);
    let (click_set, click_events, click_disorder) = click_input();
    let [any, next, strict] = SelectionPolicy::ALL.map(Some);

    let eager = iot_set(PlannerKind::Greedy);
    let rows = [
        row(
            "scale_keys",
            &scale_pattern_set(PlannerKind::Greedy),
            &keys,
            in_order,
            None,
        ),
        row(
            "scale_keys_lazy",
            &scale_pattern_set(PlannerKind::LazyChain),
            &keys,
            in_order,
            None,
        ),
        row("scale_iot_any", &eager, &iot_events, in_order, any),
        row("scale_iot_next", &eager, &iot_events, in_order, next),
        row("scale_iot_strict", &eager, &iot_events, in_order, strict),
        row(
            "scale_iot_lazy",
            &iot_set(PlannerKind::LazyChain),
            &iot_events,
            in_order,
            None,
        ),
        row(
            "scale_click_any",
            &click_set,
            &click_events,
            click_disorder,
            any,
        ),
        row(
            "scale_click_next",
            &click_set,
            &click_events,
            click_disorder,
            next,
        ),
        row(
            "scale_click_strict",
            &click_set,
            &click_events,
            click_disorder,
            strict,
        ),
    ];
    if std::env::var("ACEP_PRINT_GOLDEN").is_ok() {
        for (name, matches, partials, buffered) in &rows {
            println!("    (\"{name}\", {matches}, {partials}, {buffered}),");
        }
        return;
    }
    assert_eq!(rows, SCENARIO_GOLDEN, "scenario state counts drifted");
}

/// The lazy-plan acceptance gate on the `scale_keys` workload: forcing
/// the lazy-chain planner must cut the live partial-match store at
/// least five-fold against the eager greedy plan, while the match
/// multiset stays bit-identical — laziness is a memory trade, never a
/// semantics change.
#[test]
fn lazy_plan_collapses_partials_on_scale_workload() {
    let delivered = merged(skew_shift_keyed(SCALE_KEYS, SCALE_EVENTS_PER_KEY));
    let run = |planner| {
        let set = scale_pattern_set(planner);
        let (lines, stats) = run_tagged(&set, &delivered, DisorderConfig::in_order(), 2, None);
        (stats.total_partials_live(), lines)
    };
    let (eager_partials, eager_lines) = run(PlannerKind::Greedy);
    let (lazy_partials, lazy_lines) = run(PlannerKind::LazyChain);
    assert!(
        !eager_lines.is_empty(),
        "the scale workload must complete matches"
    );
    assert_eq!(
        lazy_lines, eager_lines,
        "the plan kind must not change the match multiset"
    );
    assert!(
        eager_partials >= 5 * lazy_partials.max(1),
        "lazy chain must collapse partials at least 5x: eager {eager_partials}, lazy {lazy_partials}"
    );
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
