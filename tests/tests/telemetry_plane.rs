//! End-to-end pins of the telemetry plane.
//!
//! Three contracts, each tied to an invariant the rest of the suite
//! already pins by other means:
//!
//! 1. **Audit fidelity.** The [`AuditLog`] reconstructed from drained
//!    [`TelemetryEvent`] records must reproduce the *exact* deployed
//!    plan trajectory that the `controller_equivalence` golden table
//!    pins by polling `plan(b)` after every event — same FNV digest,
//!    same replacement count — while additionally carrying the
//!    evidence (snapshot hash, before/after costs) the poll-based
//!    digest cannot see.
//! 2. **Migration accounting.** On a sharded skew-shift run, the audit
//!    trail's migration bursts must sum to the independently counted
//!    `replace_epoch` calls (`RuntimeStats::total_key_migrations`,
//!    summed from the engines themselves, not from telemetry).
//! 3. **Observer effect: none.** Telemetry off, on, and on-with-
//!    profiling must produce bit-identical match multisets, and the
//!    disabled runtime must expose no hub at all.

use std::sync::Arc;

use acep_core::{AdaptiveConfig, EngineTemplate, PolicyKind};
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_stream::{
    AttrKeyExtractor, AuditLog, CollectingSink, DisorderConfig, PatternSet, ShardedRuntime,
    SourceId, StreamConfig, TelemetryConfig,
};
use acep_telemetry::{fnv_fold, fnv_start, ShardRecorder};
use acep_types::{
    attr, constant, Event, EventTypeId, Pattern, PatternExpr, SpscRing, Timestamp, Value,
};

const WINDOW: Timestamp = 500;

fn t(i: u32) -> EventTypeId {
    EventTypeId(i)
}

fn config() -> AdaptiveConfig {
    AdaptiveConfig {
        planner: PlannerKind::Greedy,
        policy: PolicyKind::invariant_with_distance(0.0),
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

// ---------------------------------------------------------------------
// Part 1: audit trail vs the `controller_equivalence` golden rows.
// Patterns, stream, config and digest recipe are copied verbatim from
// that test (single key, seed 1, greedy planner, invariant policy);
// the golden numbers below are that table's rows.
// ---------------------------------------------------------------------

/// SEQ(T0, T1, T2) WHERE a.x < c.x WITHIN 500.
fn seq_pattern() -> Pattern {
    Pattern::builder("ce-seq")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 0).lt(attr(2, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, T1, ~T2) WITHIN 500 — trailing negation, deadline-driven.
fn trailing_neg_pattern() -> Pattern {
    Pattern::builder("ce-negt")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::neg(PatternExpr::prim(t(2))),
        ]))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, T1* b, T2) WHERE b.x > 0 WITHIN 500.
fn kleene_pattern() -> Pattern {
    Pattern::builder("ce-kleene")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::kleene(PatternExpr::prim(t(1))),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(1, 0).gt(constant(0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// The `controller_equivalence` shifting stream: single key, three
/// types, rate profile flips halfway so the invariant policy re-plans.
fn shifting_stream(n: usize, seed: u64) -> Vec<Arc<Event>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut events = Vec::new();
    let mut ts = 0u64;
    let mut seq = 0u64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = ((state >> 20) % 10) as i64 - 4;
        let (frequent, rare) = if i < n / 2 { (0, 2) } else { (2, 0) };
        ts += 5 + (state >> 45) % 4;
        events.push(Event::new(t(frequent), ts, seq, vec![Value::Int(x)]));
        seq += 1;
        if i % 5 == 0 {
            events.push(Event::new(t(1), ts + 1, seq, vec![Value::Int(x)]));
            seq += 1;
        }
        if i % 25 == 0 {
            events.push(Event::new(t(rare), ts + 2, seq, vec![Value::Int(x)]));
            seq += 1;
        }
    }
    events
}

/// Digest of the sorted match-key multiset (the golden recipe).
fn match_hash(out: &[acep_engine::Match]) -> u64 {
    let mut keys: Vec<String> = out.iter().map(|m| m.key().to_string()).collect();
    keys.sort();
    let mut h = fnv_start();
    for k in &keys {
        h = fnv_fold(h, k.as_bytes());
        h = fnv_fold(h, b";");
    }
    h
}

/// Golden rows for `(pattern, greedy, invariant, seed 1)` from
/// `controller_equivalence`: `(matches, match_hash, trajectory_hash,
/// plan_replacements)`.
const GOLDEN: &[(&str, usize, u64, u64, u64)] = &[
    ("seq", 27915, 0x99B3F20F1F8BAF9B, 0xDA12FF993AFCF6CD, 8),
    ("negt", 1394, 0x75C4C3E0BB5540A4, 0x02A793E3D623BB5E, 1),
    ("kleene", 6794, 0xA95F5283C17E6500, 0x509CB42C91E8C8DA, 3),
];

/// The audit trail must let us *reconstruct* the trajectory digest the
/// golden table pins by polling `plan(b)` after every event: fold the
/// initial plans, then each recorded [`Deployment`] as `(event index,
/// branch, plan)`. A controller records `at_event` as its event count
/// *after* observing the triggering event, so the golden's 0-based
/// index is `at_event - 1`.
///
/// [`Deployment`]: acep_stream::TelemetryEvent::Deployment
#[test]
fn audit_trail_reconstructs_the_golden_plan_trajectory() {
    let events = shifting_stream(1_500, 1);
    for &(name, want_matches, want_mh, want_th, want_reps) in GOLDEN {
        let pattern = match name {
            "seq" => seq_pattern(),
            "negt" => trailing_neg_pattern(),
            _ => kleene_pattern(),
        };
        let template = EngineTemplate::new(&pattern, 3, config()).unwrap();
        let mut controller = template.controller();
        let ring = Arc::new(SpscRing::new(1 << 14));
        let recorder = ShardRecorder::new(Arc::clone(&ring), Arc::default());
        controller.set_recorder(recorder.clone(), 7);

        // Rendered plans before any event — the digest's prefix.
        let nb = controller.num_branches();
        let mut last: Vec<String> = (0..nb)
            .map(|b| format!("{:?}", controller.plan(b)))
            .collect();

        let mut engine = controller.new_engine();
        let mut out = Vec::new();
        for ev in &events {
            controller.observe(ev);
            engine.on_event(&controller, ev, &mut out);
        }
        engine.finish(&mut out);
        assert_eq!(out.len(), want_matches, "{name}: match count");
        assert_eq!(match_hash(&out), want_mh, "{name}: match multiset");
        assert_eq!(
            controller.stats().plan_replacements,
            want_reps,
            "{name}: replacement count"
        );
        assert_eq!(recorder.dropped(), 0, "{name}: ring sized for the run");

        let tagged: Vec<_> = std::iter::from_fn(|| ring.pop())
            .map(|ev| (0usize, ev))
            .collect();
        let audit = AuditLog::from_events(&tagged);
        let traj = audit
            .trajectory(0, 7)
            .expect("the controller adapted, so a trajectory exists");
        assert!(traj.control_steps > 0, "{name}: control steps recorded");
        assert!(
            traj.replans >= want_reps,
            "{name}: every deployment came from a recorded re-plan decision"
        );
        // Deployments = the golden replacements plus at most one
        // initial (warmup) optimization per branch.
        let deployments = traj.transitions.len() as u64;
        assert!(
            (want_reps..=want_reps + nb as u64).contains(&deployments),
            "{name}: {deployments} deployments vs {want_reps} replacements"
        );

        // Reconstruct the golden digest from the audit trail alone.
        let mut th = fnv_start();
        for p in &last {
            th = fnv_fold(th, p.as_bytes());
        }
        let mut prev_at = 0;
        for tr in &traj.transitions {
            assert!(tr.at_event >= prev_at, "{name}: transitions in order");
            prev_at = tr.at_event;
            assert!(
                tr.cost_after <= tr.cost_before,
                "{name}: deployed a worse plan at event {}",
                tr.at_event
            );
            let b = tr.branch as usize;
            if *tr.plan != last[b] {
                th = fnv_fold(th, &(tr.at_event - 1).to_le_bytes());
                th = fnv_fold(th, &(tr.branch as u64).to_le_bytes());
                th = fnv_fold(th, tr.plan.as_bytes());
                last[b] = tr.plan.to_string();
            }
        }
        assert_eq!(
            th, want_th,
            "{name}: audit trail diverged from the golden plan trajectory"
        );
    }
}

// ---------------------------------------------------------------------
// Part 2 + 3: sharded deployment storm and the no-observer-effect pin.
// ---------------------------------------------------------------------

const STORM_KEYS: u64 = 16;

/// Multi-key variant of the shifting stream: same rate flip, partition
/// key in attribute 0, payload in attribute 1, so every shard's
/// controllers re-plan mid-stream and ripple migrations across keys.
fn storm_stream(n: usize, seed: u64) -> Vec<Arc<Event>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut events = Vec::new();
    let mut ts = 0u64;
    let mut seq = 0u64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = ((state >> 20) % 10) as i64 - 4;
        let key = ((state >> 33) % STORM_KEYS) as i64;
        let (frequent, rare) = if i < n / 2 { (0, 2) } else { (2, 0) };
        ts += 5 + (state >> 45) % 4;
        events.push(Event::new(
            t(frequent),
            ts,
            seq,
            vec![Value::Int(key), Value::Int(x)],
        ));
        seq += 1;
        if i % 5 == 0 {
            events.push(Event::new(
                t(1),
                ts + 1,
                seq,
                vec![Value::Int(key), Value::Int(x)],
            ));
            seq += 1;
        }
        if i % 25 == 0 {
            events.push(Event::new(
                t(rare),
                ts + 2,
                seq,
                vec![Value::Int(key), Value::Int(x)],
            ));
            seq += 1;
        }
    }
    events
}

/// SEQ(T0, T1, T2) WHERE a.x < c.x, keyed — payload is attribute 1.
fn storm_seq_pattern() -> Pattern {
    Pattern::builder("storm-seq")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 1).lt(attr(2, 1)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, T1* b, T2) WHERE b.x > 0, keyed — payload is attribute 1.
fn storm_kleene_pattern() -> Pattern {
    Pattern::builder("storm-kleene")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::kleene(PatternExpr::prim(t(1))),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(1, 1).gt(constant(0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

struct StormRun {
    stats: acep_stream::RuntimeStats,
    /// Sorted `(query, key, match-key)` strings — the match multiset.
    matches: Vec<String>,
    audit: Option<AuditLog>,
    /// Records drained from the hub after `finish`.
    hub_events: usize,
    hub_dropped: u64,
    had_hub: bool,
}

fn run_storm(telemetry: Option<TelemetryConfig>) -> StormRun {
    run_storm_on(2, telemetry)
}

fn run_storm_on(shards: usize, telemetry: Option<TelemetryConfig>) -> StormRun {
    let events = storm_stream(4_000, 1);
    let mut set = PatternSet::new(3);
    set.register("storm-seq", storm_seq_pattern(), config())
        .unwrap();
    set.register("storm-kleene", storm_kleene_pattern(), config())
        .unwrap();
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(AttrKeyExtractor { attr: 0 }),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards,
            telemetry,
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let hub = runtime.telemetry().cloned();
    for chunk in events.chunks(257) {
        runtime.push_batch(chunk);
    }
    let stats = runtime.finish();
    let mut matches: Vec<String> = sink
        .drain()
        .iter()
        .map(|m| format!("{}|{}|{}", m.query, m.key, m.matched.key()))
        .collect();
    matches.sort();
    StormRun {
        stats,
        matches,
        audit: hub.as_ref().map(|h| h.audit()),
        hub_events: hub.as_ref().map_or(0, |h| h.events().len()),
        hub_dropped: hub.as_ref().map_or(0, |h| h.dropped()),
        had_hub: hub.is_some(),
    }
}

/// The deployment storm: a skew shift on a sharded multi-key run makes
/// every shard's controllers re-deploy, and each deployment ripples a
/// migration burst across that shard's live keys. The audit trail's
/// burst accounting must agree *exactly* with the engines' own
/// `replace_epoch` counters, which reach `RuntimeStats` through an
/// entirely separate path (summed from `KeyedEngine::replacements` at
/// snapshot time, not from telemetry records).
#[test]
fn deployment_storm_bursts_match_independent_replacement_counts() {
    let run = run_storm(Some(TelemetryConfig {
        ring_capacity: 1 << 16,
        profile_every: 0,
    }));
    assert!(run.had_hub, "telemetry on exposes the hub");
    assert_eq!(run.hub_dropped, 0, "ring sized for the whole run");
    assert_eq!(run.stats.total_telemetry_dropped(), 0);

    let audit = run.audit.expect("hub present");
    let migrations = run.stats.total_key_migrations();
    assert!(
        migrations > 0,
        "the skew shift must actually trigger a migration storm"
    );
    assert_eq!(
        audit.total_migrations(),
        migrations,
        "audit trail vs engine replace_epoch counters"
    );
    let bursts = audit.migration_bursts();
    assert_eq!(
        bursts.sum,
        u128::from(migrations),
        "burst histogram sums to the independent count"
    );
    let deployments: usize = audit
        .trajectories()
        .iter()
        .map(|t| t.transitions.len())
        .sum();
    assert!(deployments > 0, "controllers deployed new plans");
    assert!(
        bursts.count as usize >= deployments,
        "one burst sample per deployment"
    );
    // With a never-full ring every migration is attributable to a
    // recorded deployment.
    for t in audit.trajectories() {
        assert_eq!(
            t.unattributed_migrations, 0,
            "shard {} query {}: lossless capture attributes everything",
            t.shard, t.query
        );
    }
    // Per-query attribution agrees with the per-query rollup.
    for q in 0..2u32 {
        let from_audit: u64 = audit
            .trajectories()
            .iter()
            .filter(|t| t.query == q)
            .map(|t| t.migrations)
            .sum();
        assert_eq!(
            from_audit,
            run.stats.key_migrations(acep_stream::QueryId(q)),
            "query {q} migration attribution"
        );
    }

    // The exporters cover the storm's counters under stable names.
    let reg = run.stats.telemetry_snapshot();
    let prom = reg.to_prometheus();
    assert!(prom.contains("acep_key_migrations_total"));
    assert!(prom.contains("acep_plan_replacements_total"));
    let json = reg.to_json();
    assert!(json.contains("\"schema\":\"acep-telemetry-v1\""));
}

/// Telemetry must never change what the system computes: off, on, and
/// on-with-profiling runs produce bit-identical match multisets, and
/// the disabled runtime exposes no hub (zero records exist to drain).
#[test]
fn telemetry_is_invisible_to_the_match_multiset() {
    let off = run_storm(None);
    assert!(!off.had_hub, "telemetry None spawns no hub and no rings");
    assert!(off.audit.is_none());
    assert_eq!(off.stats.total_telemetry_dropped(), 0);
    assert!(off.stats.profile().is_none(), "no profiling when off");
    assert!(!off.matches.is_empty(), "the workload produces matches");

    let on = run_storm(Some(TelemetryConfig::default()));
    let profiled = run_storm(Some(TelemetryConfig::with_profiling(1)));
    assert_eq!(off.matches, on.matches, "telemetry on changed matches");
    assert_eq!(
        off.matches, profiled.matches,
        "profiling spans changed matches"
    );
    assert_eq!(off.stats.total_events(), on.stats.total_events());

    // Profiling every batch must actually sample spans and shapes.
    let profile = profiled
        .stats
        .profile()
        .expect("profile_every=1 samples every batch");
    assert!(profile.batch_events.count > 0);
    assert!(profile.stage_evaluate_us.count > 0);
    assert!(
        on.stats.profile().is_none(),
        "profile_every=0 keeps spans off"
    );
}

/// A full telemetry ring drops and counts, end to end: a W = 1
/// in-order run (no reorder buffer, so no batch-cut-dependent stall
/// records) over a 2-slot ring, polled only after `finish`, must leave
/// the matches untouched, report one loss figure through both the hub
/// and the stats snapshot (the shard's one drop counter), and account
/// for every record a lossless run of the same stream produces.
#[test]
fn full_telemetry_ring_drops_and_counts_every_lost_record() {
    let off = run_storm_on(1, None);
    let lossless = run_storm_on(
        1,
        Some(TelemetryConfig {
            ring_capacity: 1 << 16,
            ..TelemetryConfig::default()
        }),
    );
    let lossy = run_storm_on(
        1,
        Some(TelemetryConfig {
            ring_capacity: 2,
            ..TelemetryConfig::default()
        }),
    );
    assert_eq!(lossy.matches, off.matches, "a full ring changed matches");
    assert_eq!(lossless.hub_dropped, 0, "ring sized for the whole run");
    assert!(lossy.hub_dropped > 0, "a 2-slot ring must overflow");
    assert_eq!(
        lossy.hub_dropped,
        lossy.stats.total_telemetry_dropped(),
        "hub and stats read the same counter"
    );
    assert_eq!(
        lossy.hub_events as u64 + lossy.hub_dropped,
        lossless.hub_events as u64,
        "every record is either drained or counted as dropped"
    );
}

// ---------------------------------------------------------------------
// Part 4: event-time telemetry — evictions attributed per source,
// watermark stalls, per-source watermark surfacing.
// ---------------------------------------------------------------------

/// A silent-but-active source pins the per-source watermark while a
/// fast source floods a tiny reorder buffer: every capacity eviction
/// must be recorded and attributed to the source that delivered the
/// evicted event, the stalled watermark must be reported, and the
/// stats snapshot must surface both sources' high-water marks.
#[test]
fn evictions_and_stalls_are_attributed_per_source() {
    let fast = SourceId(1);
    let silent = SourceId(2);
    let mut set = PatternSet::new(2);
    let pair = Pattern::sequence("pair", &[t(0), t(1)], 1_000);
    set.register("pair", pair, AdaptiveConfig::default())
        .unwrap();
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(AttrKeyExtractor { attr: 0 }),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards: 1,
            // Large idle timeout: the silent source stays *active* and
            // holds the watermark down while the fast source floods.
            disorder: DisorderConfig::per_source(10, 1_000_000).with_max_buffered(4),
            telemetry: Some(TelemetryConfig::default()),
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let hub = runtime.telemetry().cloned().expect("telemetry on");

    // Register the silent source, then flood from the fast one in
    // many small batches so the stalled watermark spans whole batches.
    // The flush forces the registration out as its own worker batch
    // (producer-side assembly would otherwise merge it into the first
    // flood batch): the worker must observe at least one batch that
    // ends with events held and the watermark unmoved.
    runtime.push_batch_from(silent, &[Event::new(t(0), 1, 0, vec![Value::Int(0)])]);
    runtime.flush();
    let mut seq = 1u64;
    for i in 0..12u64 {
        let batch: Vec<_> = (0..4)
            .map(|j| {
                let ev = Event::new(
                    t((seq % 2) as u32),
                    100 + i * 40 + j * 10,
                    seq,
                    vec![Value::Int(0)],
                );
                seq += 1;
                ev
            })
            .collect();
        runtime.push_batch_from(fast, &batch);
        runtime.flush();
    }
    let stats = runtime.finish();

    let overflow = stats.total_reorder_overflow();
    assert!(overflow > 0, "the flood must overflow the 4-slot buffer");
    let by_source = stats.total_reorder_overflow_by_source();
    let attributed: u64 = by_source.iter().map(|&(_, n)| n).sum();
    assert_eq!(attributed, overflow, "every eviction is attributed");
    assert!(
        by_source
            .iter()
            .any(|&(s, n)| s == fast && n >= overflow - 1),
        "the flooding source owns (almost) every eviction: {by_source:?}"
    );

    let audit = hub.audit();
    assert_eq!(
        audit.evictions(),
        overflow,
        "one eviction record per force-released event"
    );
    assert!(
        audit.stalls() > 0,
        "the pinned watermark must be reported as stalled"
    );

    let shard = &stats.shards[0];
    let wm: Vec<_> = shard.source_watermarks.iter().map(|w| w.source).collect();
    assert!(wm.contains(&fast) && wm.contains(&silent), "{wm:?}");
    for w in &shard.source_watermarks {
        if w.source == silent {
            assert_eq!(w.max_seen, 1);
            assert!(!w.idle, "huge idle timeout keeps the silent source active");
        }
    }
}
