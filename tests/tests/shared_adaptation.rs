//! Behavior of the shared adaptation plane in the sharded runtime:
//! per-(shard, query) controllers, lazy epoch-tagged engine migration,
//! cold-key plan adoption, and idle-key generation retirement.
//!
//! Complements `controller_equivalence` (single-key golden equivalence
//! with the pre-refactor per-key adaptation) and `stream_determinism`
//! (shard-count invariance of the match multiset).

use std::sync::Arc;

use acep_core::{AdaptiveConfig, PolicyKind};
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_stream::{
    CollectingSink, CountingSink, LastAttrKeyExtractor, PatternSet, QueryId, ShardedRuntime,
    StreamConfig,
};
use acep_types::{attr, Event, EventTypeId, Pattern, PatternExpr, Value};
use acep_workloads::{iot_fleet, IotConfig};

fn t(i: u32) -> EventTypeId {
    EventTypeId(i)
}

/// An event carrying `key` as the trailing attribute
/// (`LastAttrKeyExtractor` convention).
fn kev(tid: u32, ts: u64, seq: u64, key: u64) -> Arc<Event> {
    Event::new(t(tid), ts, seq, vec![Value::Int(0), Value::Int(key as i64)])
}

fn config(control_interval: u64, warmup_events: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        planner: PlannerKind::Greedy,
        policy: PolicyKind::invariant_with_distance(0.0),
        control_interval,
        control_interval_ms: None,
        warmup_events,
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

/// Type 0 frequent, type 1 rare, one key: drives the controller's
/// initial optimization off the uniform plan (epoch 1).
fn skewed_key_stream(key: u64, n: usize, ts0: u64, seq0: u64) -> Vec<Arc<Event>> {
    let mut events = Vec::new();
    for i in 0..n {
        let ts = ts0 + 10 * i as u64;
        let seq = seq0 + 2 * i as u64;
        events.push(kev(0, ts, seq, key));
        if i % 10 == 0 {
            events.push(kev(1, ts + 1, seq + 1, key));
        }
    }
    events
}

/// A single-shard runtime hosting SEQ(T0, T1) with a huge match window,
/// so superseded generations stay owed long past the stream's end —
/// unless the idle-retirement sweep reclaims them.
fn single_shard_seq2(window: u64) -> (PatternSet, ShardedRuntime, Arc<CollectingSink>) {
    let mut set = PatternSet::new(2);
    set.register(
        "seq2",
        Pattern::sequence("seq2", &[t(0), t(1)], window),
        config(16, 64),
    )
    .unwrap();
    let sink = Arc::new(CollectingSink::new());
    let runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards: 1,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    (set, runtime, sink)
}

/// An idle key's superseded executor generation is reclaimed by the
/// control-step retirement sweep, without the key receiving another
/// event.
#[test]
fn idle_key_generation_retires_without_a_new_event() {
    // Window far larger than phase 1's event-time span: key A's own
    // events can never retire its superseded generation.
    let (_, mut runtime, _) = single_shard_seq2(100_000);

    // Phase 1: key A only. The skew moves the plan off uniform at the
    // first control step past warmup; A's next event migrates its
    // engine (lossless replace → 2 live generations).
    runtime.push_batch(&skewed_key_stream(7, 200, 0, 0));
    let mid = runtime.stats();
    assert_eq!(mid.total_engines_live(), 1);
    assert_eq!(
        mid.adaptation(QueryId(0)).plan_epoch,
        1,
        "initial optimization must deploy off the uniform plan"
    );
    assert!(
        mid.total_generations_live() > mid.total_engines_live(),
        "the migrated engine must still carry its superseded generation \
         (generations {} vs engines {})",
        mid.total_generations_live(),
        mid.total_engines_live(),
    );

    // Phase 2: key B only, far in the future — past A's replace time
    // plus the window, so A's old generation is provably owed nothing.
    // A receives no events; B's control steps drive the bounded sweep.
    runtime.push_batch(&skewed_key_stream(8, 150, 150_000, 10_000));
    let end = runtime.stats();
    assert_eq!(end.total_engines_live(), 2);
    assert_eq!(
        end.total_generations_live(),
        end.total_engines_live(),
        "the idle key's superseded generation must be swept"
    );
    // The sweep retires generations; it must not have deployed anything
    // (B's skew matches A's, so the plan stays put).
    assert_eq!(end.adaptation(QueryId(0)).plan_epoch, 1);
    runtime.finish();
}

/// A key whose first event arrives after the controller re-planned
/// starts directly on the adapted plan: exactly one new generation
/// appears (no migration debt, no per-key warmup) and the plan epoch
/// does not move.
#[test]
fn cold_key_adopts_adapted_plan_at_first_event() {
    let (_, mut runtime, _) = single_shard_seq2(1_000);

    // Hot key drives the controller past warmup and off uniform.
    runtime.push_batch(&skewed_key_stream(1, 200, 0, 0));
    let before = runtime.stats();
    assert_eq!(before.adaptation(QueryId(0)).plan_epoch, 1);
    let engines_before = before.total_engines_live();
    let generations_before = before.total_generations_live();

    // First event of a brand-new key.
    runtime.push(&kev(0, 10_000, 50_000, 42));
    let after = runtime.stats();
    assert_eq!(after.total_engines_live(), engines_before + 1);
    assert_eq!(
        after.total_generations_live(),
        generations_before + 1,
        "a cold key must be born on the current plan — a second \
         generation would mean it started on the uniform plan and \
         migrated"
    );
    assert_eq!(
        after.adaptation(QueryId(0)).plan_epoch,
        1,
        "instantiating a cold key must not re-plan"
    );
    assert_eq!(
        after.adaptation(QueryId(0)).planner_invocations,
        before.adaptation(QueryId(0)).planner_invocations,
        "instantiating a cold key must not invoke the planner"
    );
    runtime.finish();
}

/// 10k keys × 2 queries with a mid-stream skew shift: adaptation cost
/// is bounded by control steps per controller — at most `num_queries`
/// planner invocations per shard per control step, independent of key
/// cardinality — while every key still gets its own engine.
#[test]
fn skew_shift_replans_per_controller_not_per_key() {
    const KEYS: u64 = 10_000;
    const PER_KEY: usize = 10;
    const INTERVAL: u64 = 64;
    let total = KEYS as usize * PER_KEY;

    // Round-robin keys; the global type skew (T0 frequent / T2 rare)
    // flips halfway through. The cycle modulus is prime (co-prime with
    // any round-robin key count), so every key sees all three types.
    let mut events = Vec::with_capacity(total);
    let mut ts = 0u64;
    for i in 0..total {
        let key = i as u64 % KEYS;
        ts += 3;
        let phase2 = i >= total / 2;
        let r = i % 53;
        let tid = if r == 0 {
            if phase2 {
                0
            } else {
                2
            }
        } else if r % 5 == 0 {
            1
        } else if phase2 {
            2
        } else {
            0
        };
        events.push(kev(tid, ts, i as u64, key));
    }

    let mut set = PatternSet::new(3);
    let seq = set
        .register(
            "seq3",
            Pattern::sequence("seq3", &[t(0), t(1), t(2)], 1_000),
            config(INTERVAL, 256),
        )
        .unwrap();
    let and = set
        .register(
            "and3",
            Pattern::builder("and3")
                .expr(PatternExpr::and([
                    PatternExpr::prim(t(0)),
                    PatternExpr::prim(t(1)),
                    PatternExpr::prim(t(2)),
                ]))
                .condition(attr(0, 0).eq(attr(1, 0)))
                .window(1_000)
                .build()
                .unwrap(),
            config(INTERVAL, 256),
        )
        .unwrap();

    let sink = Arc::new(CountingSink::new(set.len()));
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards: 2,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    for chunk in events.chunks(8_192) {
        runtime.push_batch(chunk);
    }
    let stats = runtime.finish();

    assert_eq!(stats.total_events(), total as u64);
    assert_eq!(stats.total_keys(), KEYS as usize);
    // Both queries reference all three types, so every key hosts both
    // engines — per-key memory is engines + partials, nothing else.
    assert_eq!(stats.total_engines_live(), 2 * KEYS as usize);

    let mut total_planner = 0;
    for shard in &stats.shards {
        assert_eq!(shard.adaptation.len(), set.len());
        for a in &shard.adaptation {
            // ≤ 1 planner invocation per (shard, query) control step:
            // the adaptation-cost pin the controller split exists for.
            let steps = a.events / INTERVAL + 1;
            assert!(
                a.planner_invocations <= steps,
                "shard {}: {} planner invocations for at most {} control steps",
                shard.shard,
                a.planner_invocations,
                steps,
            );
            assert!(a.planner_invocations <= a.decision_evals + 1);
            total_planner += a.planner_invocations;
        }
    }
    // Cardinality independence: nowhere near one invocation per key.
    assert!(
        total_planner < KEYS / 10,
        "{total_planner} planner invocations across {KEYS} keys — adaptation \
         cost must not scale with key cardinality"
    );
    // The skew shift actually adapted: every controller deployed at
    // least its initial optimization, and the runtime re-planned after
    // the flip.
    for q in [seq, and] {
        let a = stats.adaptation(q);
        assert!(
            a.plan_epoch >= stats.shards.len() as u64,
            "query {q}: every shard controller deploys at least once (epoch sum {})",
            a.plan_epoch
        );
        assert!(a.events > 0);
    }
    assert!(
        stats.total_adaptation().plan_replacements > 0,
        "the mid-stream skew shift must trigger at least one re-plan"
    );
}

/// `SEQ(T0, T1 spike, T2) WHERE T1.reading > 0` on the stationary IoT
/// fleet: the lazy planner ranks T1 (rate ≈ 0.3 × selectivity 5/11)
/// against T2 (rate ≈ 0.1), a gap of ≈ 1.3× — well outside the
/// invariant distance 0.1 once the unary selectivity is counted over the
/// statistics window, but not when it is read off a 16-event sample
/// (σ ≈ 0.12 on 0.45), which flipped the trigger slot on noise: 185
/// replacements and 245 triggers on this stream.
#[test]
fn stationary_unary_selectivity_does_not_flap() {
    let iot = IotConfig {
        devices: 2_000,
        events: 40_000,
        ..IotConfig::default()
    };
    let mut set = PatternSet::new(IotConfig::NUM_TYPES);
    let q = set
        .register(
            "iot/seq3",
            iot.pattern(),
            AdaptiveConfig {
                planner: PlannerKind::LazyChain,
                policy: PolicyKind::invariant_with_distance(0.1),
                ..AdaptiveConfig::default()
            },
        )
        .unwrap();
    let sink = Arc::new(CountingSink::new(set.len()));
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards: 1,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    for chunk in iot_fleet(&iot).chunks(4_096) {
        runtime.push_batch(chunk);
    }
    let a = runtime.finish().adaptation(q);
    assert!(a.decision_evals > 0, "the controller never ran");
    assert!(
        a.plan_replacements <= 2 && a.reopt_triggers <= 10,
        "{} replacements and {} triggers on a stationary stream",
        a.plan_replacements,
        a.reopt_triggers
    );
}
