//! Checkpoint/recovery contracts of the sharded runtime.
//!
//! The recovery contract under test: for a [`CheckpointLog`] whose
//! latest manifest records `events_ingested = n`, rebuilding the
//! runtime from the log ([`ShardedRuntime::recover`]) and re-ingesting
//! the source stream from event `n` onward yields — after sink-side
//! deduplication against the observed emit frontier ([`DedupSink`]) —
//! exactly the match multiset of the uninterrupted run, at every
//! worker count. On top of that end-to-end property this suite pins:
//!
//! * the `acep-checkpoint-v2` **wire format** against a committed
//!   golden byte image (regenerate with `ACEP_REGEN_GOLDENS=1`),
//! * **incrementality** — a second checkpoint with no new traffic
//!   re-encodes structure but not event payloads, so it is strictly
//!   smaller, and recovery folds the frame chain across checkpoints,
//! * **watermark restoration** — per-source watermark state survives
//!   recovery without regressing, including a source that was idle at
//!   checkpoint time,
//! * **panic containment** — a worker panic poisons one shard; the
//!   other shards' matches and statistics stay retrievable through the
//!   `try_*` barriers,
//! * **migration staggering** — `AdaptiveConfig::migration_stagger`
//!   spreads post-deployment lazy migrations without changing the
//!   match multiset, visible in [`AuditLog::migration_bursts`],
//! * **telemetry** — checkpoint bytes and restore latency surface as
//!   [`TelemetryEvent::Checkpoint`]/[`Restore`] records in the audit
//!   log,
//! * **hostile input** — a shard frame with a valid checksum but a
//!   truncated, bit-flipped or lying payload fails to decode without
//!   panicking, and a corrupt length prefix cannot make recovery
//!   reserve memory out of proportion to the frame.
//!
//! [`AuditLog::migration_bursts`]: acep_stream::AuditLog::migration_bursts
//! [`TelemetryEvent::Checkpoint`]: acep_stream::TelemetryEvent::Checkpoint
//! [`Restore`]: acep_stream::TelemetryEvent::Restore

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use acep_checkpoint::{
    BranchCtlRec, BufferRec, CheckpointError, CollectorRec, ControllerRec, CountersRec, EventRec,
    ExecutorRec, FinalizerRec, GenerationRec, KeyStateRec, KeyedEngineRec, LazyExecRec, Manifest,
    MigratingRec, OrderExecRec, PartialRec, PendingRec, RateRec, ReorderRec, ShardCheckpoint,
    StatsRec, TreeExecRec, ValueRec,
};
use acep_core::{AdaptiveConfig, PolicyKind};
use acep_engine::MatchKey;
use acep_integration_tests::heap::{peak_bytes, Counting};
use acep_plan::{EvalPlan, LazyPlan, OrderPlan, PlannerKind, TreeNode, TreePlan};
use acep_stats::StatsConfig;
use acep_stream::{
    AttrKeyExtractor, CheckpointLog, CollectingSink, DedupSink, DisorderConfig,
    LastAttrKeyExtractor, LateEvent, MatchSink, PatternSet, QueryId, ShardedRuntime, SourceId,
    StreamConfig, TaggedMatch, TelemetryConfig,
};
use acep_types::{attr, mix64, Event, EventTypeId, Pattern, PatternExpr, Value};
use acep_workloads::{DatasetKind, PatternSetKind, Scenario};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NUM_KEYS: u64 = 5;
const EVENTS_PER_KEY: usize = 700;

fn t(i: u32) -> EventTypeId {
    EventTypeId(i)
}

fn adaptive_config(planner: PlannerKind, policy: PolicyKind, stagger: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        planner,
        policy,
        control_interval: 32,
        control_interval_ms: None,
        warmup_events: 128,
        min_improvement: 0.0,
        migration_stagger: stagger,
        stats: StatsConfig {
            window_ms: 2_000,
            exact_rates: true,
            sample_capacity: 16,
            max_pairs: 100,
            ..StatsConfig::default()
        },
    }
}

/// The `stream_determinism` two-query workload: one greedy order-based
/// query and one ZStream tree-based query over the stocks scenario, so
/// checkpoints carry both executor families.
fn queries(scenario: &Scenario) -> PatternSet {
    let mut set = PatternSet::new(scenario.num_types());
    set.register(
        "stocks/seq3-greedy-invariant",
        scenario.pattern(PatternSetKind::Sequence, 3),
        adaptive_config(
            PlannerKind::Greedy,
            PolicyKind::invariant_with_distance(0.1),
            0,
        ),
    )
    .unwrap();
    set.register(
        "stocks/neg3-zstream-unconditional",
        scenario.pattern(PatternSetKind::Negation, 3),
        adaptive_config(PlannerKind::ZStream, PolicyKind::Unconditional, 0),
    )
    .unwrap();
    set
}

fn stream() -> Vec<Arc<Event>> {
    Scenario::new(DatasetKind::Stocks).keyed_events(NUM_KEYS, EVENTS_PER_KEY)
}

fn config(shards: usize) -> StreamConfig {
    StreamConfig {
        shards,
        channel_capacity: 4,
        max_batch: 512,
        ..StreamConfig::default()
    }
}

/// One canonical line per match — the multiset under comparison.
fn canonical(matches: Vec<TaggedMatch>) -> Vec<(u32, u64, MatchKey)> {
    let mut lines: Vec<(u32, u64, MatchKey)> = matches
        .into_iter()
        .map(|m| (m.query.0, m.key, m.matched.key()))
        .collect();
    lines.sort();
    lines
}

/// The uninterrupted run: the reference multiset and per-query match
/// counts recovery must reproduce.
fn run_uninterrupted(
    set: &PatternSet,
    events: &[Arc<Event>],
    shards: usize,
) -> (Vec<(u32, u64, MatchKey)>, Vec<u64>) {
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        config(shards),
    )
    .unwrap();
    for chunk in events.chunks(1_000) {
        runtime.push_batch(chunk);
    }
    let stats = runtime.finish();
    let matches = (0..set.len() as u32)
        .map(|q| stats.query(QueryId(q)).matches)
        .collect();
    (canonical(sink.drain()), matches)
}

/// The tentpole end-to-end contract: ingest a prefix, checkpoint,
/// ingest further (so the sink holds matches *beyond* the manifest
/// frontier), crash, recover from the log, replay the suffix through a
/// frontier-seeded [`DedupSink`] — and the delivered multiset is
/// exactly the uninterrupted run's, at W = 1, 2, and 4.
#[test]
fn recovery_replays_to_the_uninterrupted_match_multiset() {
    let events = stream();
    let set = queries(&Scenario::new(DatasetKind::Stocks));
    let cut_checkpoint = events.len() * 3 / 5;
    let cut_crash = events.len() * 4 / 5;
    /// Events in the partial batches around the checkpoint.
    const PARTIAL: usize = 37;

    for shards in [1usize, 2, 4] {
        let (reference, ref_matches) = run_uninterrupted(&set, &events, shards);
        assert!(!reference.is_empty(), "workload must produce matches");

        // First incarnation: deliver through a zero-frontier DedupSink
        // so the observed frontier (what downstream actually consumed)
        // is tracked alongside the durable sink.
        let inner = Arc::new(CollectingSink::new());
        let dedup = Arc::new(DedupSink::new(
            Arc::clone(&inner) as Arc<dyn MatchSink>,
            shards,
        ));
        let mut log = CheckpointLog::new();
        let mut runtime = ShardedRuntime::new(
            &set,
            Arc::new(LastAttrKeyExtractor),
            Arc::clone(&dedup) as _,
            config(shards),
        )
        .unwrap();
        // The checkpoint is taken right behind a partial batch the
        // push itself shipped (every ring was empty), and the run then
        // continues with another one — so the original run's batches
        // are cut where the replay's never are.
        for chunk in events[..cut_checkpoint - PARTIAL].chunks(1_000) {
            runtime.push_batch(chunk);
        }
        let quiet = runtime.stats().total_ships();
        runtime.push_batch(&events[cut_checkpoint - PARTIAL..cut_checkpoint]);
        let cp = runtime.checkpoint(&mut log).expect("healthy checkpoint");
        assert!(cp.bytes > 0, "shard frames must carry state");
        assert_eq!(runtime.events_ingested(), cut_checkpoint as u64);
        // Keep running past the checkpoint, then crash: the sink now
        // holds matches the checkpoint knows nothing about.
        runtime.push_batch(&events[cut_checkpoint..cut_checkpoint + PARTIAL]);
        let shipped = runtime.stats().total_ships();
        assert!(
            shipped.idle >= quiet.idle + 2,
            "both partial batches left with their push: {quiet:?} -> {shipped:?}"
        );
        assert_eq!(
            (shipped.full, shipped.barrier),
            (quiet.full, quiet.barrier),
            "neither barrier found anything left to ship"
        );
        for chunk in events[cut_checkpoint + PARTIAL..cut_crash].chunks(1_000) {
            runtime.push_batch(chunk);
        }
        runtime.flush();
        let observed = dedup.frontier();
        drop(runtime); // crash: no finish, in-flight state discarded

        // Second incarnation: rebuild from the log, dedup against the
        // frontier downstream observed, replay the suffix.
        let dedup2 = Arc::new(DedupSink::with_frontier(
            Arc::clone(&inner) as Arc<dyn MatchSink>,
            observed.clone(),
        ));
        let (mut recovered, report) = ShardedRuntime::recover(
            &set,
            Arc::new(LastAttrKeyExtractor),
            Arc::clone(&dedup2) as _,
            config(shards),
            &log,
        )
        .expect("recovery from a sealed checkpoint");
        assert_eq!(report.checkpoint_id, cp.checkpoint_id);
        assert_eq!(report.events_ingested, cut_checkpoint as u64);
        assert_eq!(report.emit_frontier.len(), shards);
        for (shard, (manifest, seen)) in report.emit_frontier.iter().zip(&observed).enumerate() {
            assert!(
                manifest <= seen,
                "shard {shard}: the post-checkpoint run advanced the \
                 observed frontier past the manifest ({manifest} > {seen})"
            );
        }
        for chunk in events[report.events_ingested as usize..].chunks(1_000) {
            recovered.push_batch(chunk);
        }
        assert_eq!(recovered.events_ingested(), events.len() as u64);
        let stats = recovered.finish();

        assert_eq!(
            canonical(inner.drain()),
            reference,
            "recovered multiset diverged at W={shards}"
        );
        assert!(
            dedup2.dropped() > 0,
            "the replayed checkpoint-to-crash window must contain \
             suppressed duplicates (W={shards})"
        );
        // Restored per-engine counters make the final per-query match
        // counts indistinguishable from the uninterrupted run's.
        for (q, expected) in ref_matches.iter().enumerate() {
            assert_eq!(
                stats.query(QueryId(q as u32)).matches,
                *expected,
                "query {q} match counter diverged at W={shards}"
            );
        }
    }
}

/// The recovery contract extends to the deferred executor: a
/// lazy-chain query checkpointed mid-stream — with unfired triggers
/// and populated slot buffers in flight — recovers and replays to the
/// uninterrupted run's multiset. The decoded shard frames must carry
/// actual [`ExecutorRec::Lazy`] generations, so the round trip
/// exercises the lazy wire records, not an eager fallback.
#[test]
fn lazy_executors_survive_a_mid_stream_checkpoint() {
    let events = stream();
    let scenario = Scenario::new(DatasetKind::Stocks);
    let mut set = PatternSet::new(scenario.num_types());
    set.register(
        "stocks/seq3-lazychain-unconditional",
        scenario.pattern(PatternSetKind::Sequence, 3),
        adaptive_config(PlannerKind::LazyChain, PolicyKind::Unconditional, 0),
    )
    .unwrap();
    let shards = 2;
    let (reference, ref_matches) = run_uninterrupted(&set, &events, shards);
    assert!(!reference.is_empty(), "the lazy workload must match");

    let cut = events.len() * 3 / 5;
    let inner = Arc::new(CollectingSink::new());
    let dedup = Arc::new(DedupSink::new(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        shards,
    ));
    let mut log = CheckpointLog::new();
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&dedup) as _,
        config(shards),
    )
    .unwrap();
    for chunk in events[..cut].chunks(1_000) {
        runtime.push_batch(chunk);
    }
    let cp = runtime.checkpoint(&mut log).unwrap();
    let observed = dedup.frontier();
    drop(runtime);

    let mut lazy_gens = 0usize;
    let mut buffered = 0usize;
    for shard in 0..shards as u32 {
        let (decoded, _, _) = log.recover_shard(cp.checkpoint_id, shard).unwrap();
        for key in &decoded.keys {
            for engine in key.engines.iter().flatten() {
                for branch in &engine.branches {
                    for g in &branch.gens {
                        if let ExecutorRec::Lazy(rec) = &g.exec {
                            assert!(matches!(g.plan, EvalPlan::Lazy(_)));
                            lazy_gens += 1;
                            buffered += rec.buffers.iter().map(|b| b.seqs.len()).sum::<usize>();
                        }
                    }
                }
            }
        }
    }
    assert!(lazy_gens > 0, "no lazy executor reached the checkpoint");
    assert!(buffered > 0, "lazy slot buffers must carry in-flight state");

    let dedup2 = Arc::new(DedupSink::with_frontier(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        observed,
    ));
    let (mut recovered, report) = ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&dedup2) as _,
        config(shards),
        &log,
    )
    .expect("lazy executor state must restore");
    for chunk in events[report.events_ingested as usize..].chunks(1_000) {
        recovered.push_batch(chunk);
    }
    let stats = recovered.finish();
    assert_eq!(
        canonical(inner.drain()),
        reference,
        "lazy recovery diverged from the uninterrupted run"
    );
    for (q, expected) in ref_matches.iter().enumerate() {
        assert_eq!(
            stats.query(QueryId(q as u32)).matches,
            *expected,
            "query {q} match counter diverged across lazy recovery"
        );
    }
}

/// Keyed `SEQ(T0, T1, T2)` traffic (60 / 30 / 10 %) whose T1 values
/// pass `T1.x > 0` one time in ten until event `flip`, then nine in ten:
/// the lazy planner's trigger moves from T1 to T2 once the counted
/// unary selectivity crosses over.
fn unary_flip_stream(n: usize, flip: usize) -> Vec<Arc<Event>> {
    let mut state = 7u64;
    let mut ts = 0u64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tid = match (state >> 33) % 10 {
                0..=5 => 0,
                6..=8 => 1,
                _ => 2,
            };
            let pass_in_ten = if i < flip { 1 } else { 9 };
            let x = if (state >> 40) % 10 < pass_in_ten {
                1
            } else {
                -1
            };
            ts += 1 + (state >> 50) % 3;
            let key = ((state >> 20) % 8) as i64;
            Event::new(t(tid), ts, i as u64, vec![Value::Int(x), Value::Int(key)])
        })
        .collect()
}

/// The counted unary selectivity is checkpointed with the rest of the
/// controller: a unary-conditioned lazy-chain query under the invariant
/// policy, crashed between the checkpoint and a mid-stream shift of its
/// condition's pass rate, recovers to the uninterrupted multiset *and*
/// re-plans exactly where, and on the same statistics, the
/// uninterrupted run did.
#[test]
fn unary_conditioned_lazy_query_recovers_its_plan_trajectory() {
    const SHARDS: usize = 2;
    let n = 12_000;
    let events = unary_flip_stream(n, n * 7 / 10);
    let pattern = Pattern::builder("unary-seq3")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(1, 0).gt(acep_types::constant(0)))
        .window(100)
        .build()
        .unwrap();
    let mut set = PatternSet::new(3);
    let q = set
        .register(
            "unary-seq3",
            pattern,
            adaptive_config(
                PlannerKind::LazyChain,
                PolicyKind::invariant_with_distance(0.1),
                0,
            ),
        )
        .unwrap();
    let telemetry_config = || StreamConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..config(SHARDS)
    };
    // Each (shard) trajectory as comparable tuples: the deploying
    // controller's event count, the statistics it decided on, the plan.
    let transitions = |audit: &acep_stream::AuditLog| -> Vec<Vec<(u64, u64, u64, String)>> {
        (0..SHARDS)
            .map(|shard| {
                audit.trajectory(shard, q.0).map_or(Vec::new(), |tr| {
                    tr.transitions
                        .iter()
                        .map(|t| {
                            (
                                t.plan_epoch,
                                t.at_event,
                                t.snapshot_hash,
                                t.plan.to_string(),
                            )
                        })
                        .collect()
                })
            })
            .collect()
    };

    // Uninterrupted reference.
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        telemetry_config(),
    )
    .unwrap();
    let hub = runtime.telemetry().cloned().unwrap();
    for chunk in events.chunks(1_000) {
        runtime.push_batch(chunk);
    }
    let ref_stats = runtime.finish();
    assert_eq!(hub.dropped(), 0, "ring sized for the whole run");
    let reference = canonical(sink.drain());
    let ref_transitions = transitions(&hub.audit());
    assert!(!reference.is_empty());

    // Checkpoint at 3/5, crash at 4/5 — the pass-rate shift at 7/10
    // falls inside the replayed suffix.
    let cut = n * 3 / 5;
    let inner = Arc::new(CollectingSink::new());
    let dedup = Arc::new(DedupSink::new(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        SHARDS,
    ));
    let mut log = CheckpointLog::new();
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&dedup) as _,
        config(SHARDS),
    )
    .unwrap();
    for chunk in events[..cut].chunks(1_000) {
        runtime.push_batch(chunk);
    }
    runtime.checkpoint(&mut log).unwrap();
    runtime.push_batch(&events[cut..n * 4 / 5]);
    runtime.flush();
    let observed = dedup.frontier();
    drop(runtime);

    let dedup2 = Arc::new(DedupSink::with_frontier(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        observed,
    ));
    let (mut recovered, report) = ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&dedup2) as _,
        telemetry_config(),
        &log,
    )
    .unwrap();
    let hub2 = recovered.telemetry().cloned().unwrap();
    for chunk in events[report.events_ingested as usize..].chunks(1_000) {
        recovered.push_batch(chunk);
    }
    let stats = recovered.finish();
    assert_eq!(
        canonical(inner.drain()),
        reference,
        "recovered multiset diverged"
    );

    // Every deployment after the checkpoint is replayed bit for bit.
    let replayed = transitions(&hub2.audit());
    assert!(
        replayed.iter().any(|tr| !tr.is_empty()),
        "the pass-rate shift after the checkpoint must re-plan"
    );
    for (shard, (got, want)) in replayed.iter().zip(&ref_transitions).enumerate() {
        assert!(
            want.ends_with(got),
            "shard {shard}: recovered trajectory {got:?} is not the tail of {want:?}"
        );
    }
    let (a, b) = (ref_stats.adaptation(q), stats.adaptation(q));
    assert_eq!(
        (a.decision_evals, a.plan_replacements, a.plan_epoch),
        (b.decision_evals, b.plan_replacements, b.plan_epoch),
        "adaptation counters diverged across recovery"
    );
    // Armed invariants are not checkpointed (`QueryController::export_rec`):
    // each shard's first control step after recovery re-plans once, to
    // the plan it already runs.
    assert!(b.reopt_triggers <= a.reopt_triggers + SHARDS as u64);
}

/// Incrementality: a second checkpoint with no traffic in between
/// re-encodes structure but not the event payloads the first already
/// persisted, so its frames are strictly smaller — and recovery from
/// the newest manifest folds the frame chain back together.
#[test]
fn a_second_checkpoint_is_incremental_and_recoverable() {
    let events = stream();
    let set = queries(&Scenario::new(DatasetKind::Stocks));
    let cut = events.len() / 2;
    let shards = 2;

    let (reference, _) = run_uninterrupted(&set, &events, shards);
    let inner = Arc::new(CollectingSink::new());
    let dedup = Arc::new(DedupSink::new(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        shards,
    ));
    let mut log = CheckpointLog::new();
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&dedup) as _,
        config(shards),
    )
    .unwrap();
    for chunk in events[..cut].chunks(1_000) {
        runtime.push_batch(chunk);
    }
    let cp1 = runtime.checkpoint(&mut log).unwrap();
    let cp2 = runtime.checkpoint(&mut log).unwrap();
    assert!(cp2.checkpoint_id > cp1.checkpoint_id);
    assert!(
        cp2.bytes < cp1.bytes,
        "no new traffic: the delta frame must shed the event payloads \
         ({} vs {})",
        cp2.bytes,
        cp1.bytes
    );
    let manifest = log.latest_manifest().unwrap().expect("sealed");
    assert_eq!(manifest.checkpoint_id, cp2.checkpoint_id);
    let observed = dedup.frontier();
    drop(runtime);

    let dedup2 = Arc::new(DedupSink::with_frontier(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        observed,
    ));
    let (mut recovered, report) = ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&dedup2) as _,
        config(shards),
        &log,
    )
    .expect("recovery folds cp1's event tables into cp2's frame");
    assert_eq!(report.checkpoint_id, cp2.checkpoint_id);
    for chunk in events[report.events_ingested as usize..].chunks(1_000) {
        recovered.push_batch(chunk);
    }
    recovered.finish();
    assert_eq!(canonical(inner.drain()), reference);
}

/// Recovery refuses a mismatched worker count: the shard hash pins
/// keys to W, so resuming at a different W would silently misroute.
#[test]
fn recovery_rejects_a_mismatched_shard_count() {
    let events = stream();
    let set = queries(&Scenario::new(DatasetKind::Stocks));
    let sink = Arc::new(CollectingSink::new());
    let mut log = CheckpointLog::new();
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        config(2),
    )
    .unwrap();
    runtime.push_batch(&events[..1_000]);
    runtime.checkpoint(&mut log).unwrap();
    drop(runtime);

    let err = ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        config(4),
        &log,
    )
    .err()
    .expect("W=4 recovery of a W=2 checkpoint must fail");
    assert!(
        err.to_string().contains("2 shards"),
        "unhelpful error: {err}"
    );

    // An empty log is equally unrecoverable.
    let empty = CheckpointLog::new();
    assert!(ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        config(2),
        &empty,
    )
    .is_err());
}

// ---------------------------------------------------------------------
// Golden wire format.
// ---------------------------------------------------------------------

/// A hand-built checkpoint exercising every record type and all three
/// executor families with fixed, wall-clock-free values — the byte
/// image it encodes to *is* the `acep-checkpoint-v2` format.
fn golden_checkpoint() -> ShardCheckpoint {
    let order_plan = EvalPlan::Order(OrderPlan::new(vec![2, 0, 1]));
    let lazy_plan = EvalPlan::Lazy(LazyPlan::new(vec![1, 2, 0]));
    let tree_plan = EvalPlan::Tree(TreePlan {
        nodes: vec![
            TreeNode::Leaf { slot: 0 },
            TreeNode::Leaf { slot: 1 },
            TreeNode::Internal { left: 0, right: 1 },
        ],
        root: 2,
    });
    let finalizer = FinalizerRec {
        neg: vec![BufferRec { seqs: vec![2] }],
        kleene: vec![BufferRec { seqs: vec![] }],
        seen: Some(vec![1, 2]),
        pending: vec![PendingRec {
            events: vec![Some(1), None, Some(2)],
            min_ts: 100,
            max_ts: 220,
            kleene_sets: vec![vec![2], vec![]],
            deadline: 1_220,
        }],
        comparisons: 9,
    };
    let order_exec = ExecutorRec::Order(OrderExecRec {
        buffers: vec![BufferRec { seqs: vec![1] }, BufferRec { seqs: vec![] }],
        levels: vec![vec![PartialRec {
            slots: vec![(0, 1), (2, 2)],
            min_ts: 100,
            max_ts: 220,
            bound: 3,
        }]],
        finalizer: finalizer.clone(),
        comparisons: 5,
        events_since_sweep: 3,
    });
    let tree_exec = ExecutorRec::Tree(TreeExecRec {
        store: vec![
            vec![PartialRec {
                slots: vec![(1, 2)],
                min_ts: 220,
                max_ts: 220,
                bound: 1,
            }],
            vec![],
        ],
        finalizer: finalizer.clone(),
        comparisons: 7,
        events_since_sweep: 1,
    });
    let lazy_exec = ExecutorRec::Lazy(LazyExecRec {
        buffers: vec![
            BufferRec { seqs: vec![2] },
            BufferRec { seqs: vec![] },
            BufferRec { seqs: vec![1] },
        ],
        triggers: vec![2],
        finalizer,
        comparisons: 3,
        events_since_sweep: 2,
    });
    ShardCheckpoint {
        shard: 0,
        counters: CountersRec {
            events: 10,
            batches: 4,
            late_dropped: 1,
            late_routed: 2,
            engine_time: 220,
            max_event_ts: 230,
            finalize_visits: 6,
            stall_batches: 1,
            prev_watermark: 180,
            emit_seq: 12,
        },
        reorder: Some(ReorderRec {
            watermark: 180,
            max_seen: 230,
            first_seen: Some(100),
            sources: vec![(0, 230), (7, 140)],
            heap: vec![(225, 0, 1), (230, 7, 2)],
            max_depth: 5,
            overflow: 1,
            overflow_by_source: vec![(7, 1)],
        }),
        controllers: vec![
            ControllerRec {
                branches: vec![BranchCtlRec {
                    plan: order_plan.clone(),
                    epoch: 3,
                    initialized: true,
                }],
                stats: StatsRec {
                    events: 10,
                    decision_evals: 4,
                    reopt_triggers: 2,
                    planner_invocations: 2,
                    plan_replacements: 1,
                    plan_epoch: 3,
                    decision_time_us: 55,
                    planning_time_us: 340,
                },
                last_deploy_event: 7,
                collector: CollectorRec {
                    events_observed: 10,
                    rates: vec![
                        RateRec::Exact {
                            times: vec![100, 220],
                            first_ts: Some(100),
                        },
                        RateRec::Dgim {
                            buckets: vec![(2, 140), (1, 230)],
                            first_ts: Some(100),
                        },
                        RateRec::Exact {
                            times: vec![],
                            first_ts: None,
                        },
                    ],
                    samples: vec![vec![1], vec![2], vec![]],
                },
                last_step_ts: 220,
            },
            ControllerRec {
                branches: vec![BranchCtlRec {
                    plan: tree_plan.clone(),
                    epoch: 1,
                    initialized: false,
                }],
                stats: StatsRec {
                    events: 10,
                    decision_evals: 0,
                    reopt_triggers: 0,
                    planner_invocations: 1,
                    plan_replacements: 0,
                    plan_epoch: 1,
                    decision_time_us: 0,
                    planning_time_us: 120,
                },
                last_deploy_event: 0,
                collector: CollectorRec {
                    events_observed: 0,
                    rates: vec![],
                    samples: vec![],
                },
                last_step_ts: 0,
            },
        ],
        keys: vec![KeyStateRec {
            key: 42,
            engines: vec![
                Some(KeyedEngineRec {
                    branches: vec![MigratingRec {
                        gens: vec![
                            GenerationRec {
                                plan: order_plan,
                                start: 100,
                                exec: order_exec,
                            },
                            GenerationRec {
                                plan: tree_plan,
                                start: 220,
                                exec: tree_exec,
                            },
                            GenerationRec {
                                plan: lazy_plan,
                                start: 230,
                                exec: lazy_exec,
                            },
                        ],
                        replacements: 2,
                        plan_epoch: 3,
                        retired_comparisons: 11,
                    }],
                    last_ts: 220,
                    events: 8,
                    matches: 2,
                }),
                None,
            ],
        }],
        retire_cursor: 1,
        events: vec![
            EventRec {
                type_id: 0,
                timestamp: 100,
                seq: 1,
                attrs: vec![ValueRec::Int(-7), ValueRec::Float(2.5)],
            },
            EventRec {
                type_id: 2,
                timestamp: 220,
                seq: 2,
                attrs: vec![ValueRec::Bool(true), ValueRec::Str("acep".into())],
            },
        ],
    }
}

/// Pins the `acep-checkpoint-v2` byte image: a fixed synthetic
/// checkpoint (every record type, all three plan families, all four
/// value kinds) framed into a log must encode to exactly the committed
/// golden bytes, and decode back to itself. Any codec change that
/// shifts a byte is a wire-format break and must bump the version
/// magic instead. Regenerate deliberately with `ACEP_REGEN_GOLDENS=1`.
#[test]
fn golden_wire_format_v2_is_stable() {
    let checkpoint = golden_checkpoint();
    let mut log = CheckpointLog::new();
    let id = log.next_checkpoint_id();
    log.append_shard(id, 0, &checkpoint.to_bytes());
    log.append_manifest(&Manifest {
        checkpoint_id: id,
        shards: 1,
        events_ingested: 123,
        emit_frontier: vec![12],
    });

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/acep_checkpoint_v2.bin");
    if std::env::var_os("ACEP_REGEN_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, log.as_bytes()).unwrap();
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden image {} ({e}); generate it with \
             ACEP_REGEN_GOLDENS=1 and commit the file",
            path.display()
        )
    });
    assert_eq!(
        log.as_bytes(),
        golden.as_slice(),
        "acep-checkpoint-v2 byte image changed — this is a wire-format \
         break; introduce a v3 magic instead of regenerating"
    );

    // The image must also survive the full read path.
    let reread = CheckpointLog::from_bytes(golden).expect("golden log parses");
    let manifest = reread.latest_manifest().unwrap().expect("sealed");
    assert_eq!(manifest.events_ingested, 123);
    assert_eq!(manifest.emit_frontier, vec![12]);
    let (decoded, events, _) = reread.recover_shard(id, 0).expect("shard frame");
    assert_eq!(decoded, checkpoint, "decode(encode(x)) != x");
    assert_eq!(events.get(1).unwrap().timestamp, 100);
    assert_eq!(events.get(2).unwrap().attrs[1], Value::Str("acep".into()));
}

// ---------------------------------------------------------------------
// Hostile input.
// ---------------------------------------------------------------------

/// Frames `payload` as shard 0 of checkpoint 1 under a valid checksum,
/// then parses the log and recovers the shard.
fn recover_framed(payload: &[u8]) -> Result<ShardCheckpoint, CheckpointError> {
    let mut log = CheckpointLog::new();
    log.append_shard(1, 0, payload);
    let log = CheckpointLog::from_bytes(log.as_bytes().to_vec())?;
    log.recover_shard(1, 0).map(|(cp, _, _)| cp)
}

/// The checksum guards against bit rot, not against a writer that framed
/// garbage: every strict prefix of the golden shard payload must fail to
/// decode, and every single-byte flip must decode to an error or to some
/// checkpoint — never panic.
#[test]
fn truncated_and_flipped_payloads_fail_cleanly() {
    let payload = golden_checkpoint().to_bytes();
    assert_eq!(recover_framed(&payload), Ok(golden_checkpoint()));
    for cut in 0..payload.len() {
        assert!(
            recover_framed(&payload[..cut]).is_err(),
            "a {cut}-byte prefix decoded"
        );
    }
    for i in 0..payload.len() {
        let mut flipped = payload.clone();
        flipped[i] ^= 0xFF;
        let _ = recover_framed(&flipped);
    }
}

/// A length prefix may claim as many elements as bytes remain, but the
/// decoder must not reserve that many elements' worth of memory up
/// front: a ~1 MiB shard payload whose key count claims one key per
/// remaining byte (32 bytes of `KeyStateRec` each) must fail within 4×
/// the payload's size of peak heap.
#[test]
fn a_lying_length_prefix_cannot_reserve_a_multiple_of_the_frame() {
    const BODY: usize = 1 << 20;
    let empty = ShardCheckpoint {
        shard: 0,
        counters: CountersRec::default(),
        reorder: None,
        controllers: vec![],
        keys: vec![],
        retire_cursor: 0,
        events: vec![],
    };
    // The payload ends in the key count, the retirement cursor and the
    // event count, all zero; keep what precedes the key count.
    let mut payload = empty.to_bytes();
    assert!(payload.ends_with(&[0; 24]));
    payload.truncate(payload.len() - 24);
    payload.extend_from_slice(&(BODY as u64).to_le_bytes());
    payload.resize(payload.len() + BODY, 0xFF);

    let mut log = CheckpointLog::new();
    log.append_shard(1, 0, &payload);
    let bytes = log.as_bytes().to_vec();
    let (result, peak) = peak_bytes(|| {
        CheckpointLog::from_bytes(bytes).and_then(|log| log.recover_shard(1, 0).map(|_| ()))
    });
    assert!(result.is_err(), "a lying key count decoded");
    assert!(
        peak <= 4 * payload.len() as isize,
        "decoding a {}-byte payload peaked at {peak} heap bytes",
        payload.len()
    );
}

// ---------------------------------------------------------------------
// Watermark restoration with an idle source.
// ---------------------------------------------------------------------

/// Per-source watermark state survives recovery — including a source
/// that went idle *before* the checkpoint. The restored shard's
/// watermark equals the pre-crash one (the restore-time monotonicity
/// assertion in the reorder buffer holds), post-recovery punctuation
/// (`flush_until`) works, and the end-to-end multiset and late
/// accounting equal the uninterrupted run's.
#[test]
fn per_source_watermarks_survive_recovery_with_an_idle_source() {
    const BOUND: u64 = 50;
    const IDLE_TIMEOUT: u64 = 500;
    let pattern = Pattern::builder("pair")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
        ]))
        .condition(attr(0, 1).lt(attr(1, 1)))
        .window(1_000)
        .build()
        .unwrap();
    let mut set = PatternSet::new(2);
    set.register(
        "pair",
        pattern,
        adaptive_config(PlannerKind::Greedy, PolicyKind::Static, 0),
    )
    .unwrap();

    // Source 1 speaks briefly, then stays silent for the rest of the
    // stream; source 0 carries the bulk. At the checkpoint cut, source
    // 1 is idle and the shard watermark has moved past its high-water
    // mark via the idle timeout.
    let mut tagged: Vec<(SourceId, Arc<Event>)> = Vec::new();
    for i in 0..1_200u64 {
        let ts = 10 * i;
        let key = i % 3;
        let ev = Event::new(
            t((i % 2) as u32),
            ts,
            i,
            vec![Value::Int(key as i64), Value::Int((i % 7) as i64 - 3)],
        );
        let source = if i < 40 && i % 4 == 0 {
            SourceId(1)
        } else {
            SourceId(0)
        };
        tagged.push((source, ev));
    }
    let disorder = DisorderConfig::per_source(BOUND, IDLE_TIMEOUT);
    let stream_config = || StreamConfig {
        shards: 2,
        channel_capacity: 4,
        max_batch: 256,
        disorder,
        ..StreamConfig::default()
    };
    let run_reference = || {
        let sink = Arc::new(CollectingSink::new());
        let mut runtime = ShardedRuntime::new(
            &set,
            Arc::new(AttrKeyExtractor { attr: 0 }),
            Arc::clone(&sink) as _,
            stream_config(),
        )
        .unwrap();
        for chunk in tagged.chunks(300) {
            runtime.push_tagged(chunk);
        }
        let stats = runtime.finish();
        (canonical(sink.drain()), stats.total_late_dropped())
    };
    let (reference, ref_late) = run_reference();
    assert!(!reference.is_empty(), "the pair workload must match");

    let cut = tagged.len() / 2;
    let inner = Arc::new(CollectingSink::new());
    let dedup = Arc::new(DedupSink::new(Arc::clone(&inner) as Arc<dyn MatchSink>, 2));
    let mut log = CheckpointLog::new();
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(AttrKeyExtractor { attr: 0 }),
        Arc::clone(&dedup) as _,
        stream_config(),
    )
    .unwrap();
    for chunk in tagged[..cut].chunks(300) {
        runtime.push_tagged(chunk);
    }
    let before = runtime.stats();
    assert!(
        before.shards.iter().any(|s| s.watermark.is_some()),
        "the cut must land after watermarks formed"
    );
    runtime.checkpoint(&mut log).unwrap();
    let observed = dedup.frontier();
    drop(runtime);

    let dedup2 = Arc::new(DedupSink::with_frontier(
        Arc::clone(&inner) as Arc<dyn MatchSink>,
        observed,
    ));
    let (mut recovered, report) = ShardedRuntime::recover(
        &set,
        Arc::new(AttrKeyExtractor { attr: 0 }),
        Arc::clone(&dedup2) as _,
        stream_config(),
        &log,
    )
    .expect("per-source reorder state must restore");
    // The restored watermarks are exactly the checkpointed ones — the
    // idle source must not have dragged them backwards.
    let after = recovered.stats();
    for (shard, (b, a)) in before.shards.iter().zip(&after.shards).enumerate() {
        assert_eq!(
            b.watermark, a.watermark,
            "shard {shard} watermark changed across recovery"
        );
        assert_eq!(
            b.source_watermarks, a.source_watermarks,
            "shard {shard} per-source state changed across recovery"
        );
    }
    // Post-recovery punctuation must keep working on the restored
    // state (a regressed watermark would make this release stale).
    let mid = tagged[cut].1.timestamp;
    recovered.flush_until(mid);
    for chunk in tagged[report.events_ingested as usize..].chunks(300) {
        recovered.push_tagged(chunk);
    }
    let stats = recovered.finish();
    assert_eq!(canonical(inner.drain()), reference);
    assert_eq!(
        stats.total_late_dropped(),
        ref_late,
        "late accounting diverged across recovery"
    );
}

// ---------------------------------------------------------------------
// Panic containment.
// ---------------------------------------------------------------------

/// Delegates to the previously installed hook except for the panics
/// this suite provokes on purpose, which would otherwise spam stderr.
fn silence_expected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
                .unwrap_or("");
            if !msg.starts_with("poison pill") {
                default(info);
            }
        }));
    });
}

/// A sink that panics on the first match of one key — simulating a
/// worker-side defect on a single shard — and collects everything
/// else.
struct PoisonPillSink {
    inner: CollectingSink,
    pill: u64,
    fired: AtomicBool,
}

impl PoisonPillSink {
    fn new(pill: u64) -> Self {
        Self {
            inner: CollectingSink::new(),
            pill,
            fired: AtomicBool::new(false),
        }
    }
}

impl MatchSink for PoisonPillSink {
    fn on_match(&self, m: TaggedMatch) {
        self.on_batch(vec![m]);
    }

    fn on_batch(&self, ms: Vec<TaggedMatch>) {
        if ms.iter().any(|m| m.key == self.pill) {
            self.fired.store(true, Ordering::Relaxed);
            panic!("poison pill for key {}", self.pill);
        }
        self.inner.on_batch(ms);
    }

    fn on_late(&self, late: LateEvent) {
        self.inner.on_late(late);
    }
}

/// A worker panic is contained to its shard: the poisoned shard
/// surfaces as [`ShardFailed`](acep_stream::ShardFailed) on every
/// `try_*` barrier — with the panic payload and the correct shard
/// index — while the other shards keep processing, their matches keep
/// reaching the sink, and their statistics stay retrievable.
#[test]
fn a_worker_panic_poisons_one_shard_and_spares_the_rest() {
    silence_expected_panics();
    const SHARDS: usize = 4;
    let events = stream();
    let set = queries(&Scenario::new(DatasetKind::Stocks));
    let (reference, _) = run_uninterrupted(&set, &events, SHARDS);
    let pill = reference[0].1;
    let expected_shard = mix64(pill) as usize % SHARDS;

    let sink = Arc::new(PoisonPillSink::new(pill));
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        config(SHARDS),
    )
    .unwrap();
    // Ingestion survives the mid-stream panic: the poisoned worker
    // keeps draining (and discarding) its ring, so producers are never
    // stranded on a dead consumer.
    for chunk in events.chunks(1_000) {
        runtime.push_batch(chunk);
    }
    let failed = runtime.try_flush().expect_err("the pill must fire");
    assert!(sink.fired.load(Ordering::Relaxed));
    assert_eq!(failed.shard, expected_shard);
    assert!(
        failed.payload.contains("poison pill"),
        "payload lost: {}",
        failed.payload
    );

    // Stats: one shard's numbers are gone, the other three's survive.
    let stats_err = runtime.try_stats().expect_err("still poisoned");
    assert_eq!(stats_err.shard, expected_shard);
    assert_eq!(stats_err.partial.len(), SHARDS - 1);
    assert!(
        stats_err.partial.iter().map(|s| s.events).sum::<u64>() > 0,
        "healthy shards kept processing"
    );

    // Matches from healthy shards were delivered throughout.
    let delivered = sink.inner.drain();
    assert!(!delivered.is_empty());
    assert!(
        delivered.iter().any(|m| m.shard != expected_shard),
        "healthy shards' matches must reach the sink"
    );

    let finish_err = runtime.try_finish().expect_err("finish reports it too");
    assert_eq!(finish_err.shard, expected_shard);
    assert_eq!(finish_err.partial.len(), SHARDS - 1);
}

// ---------------------------------------------------------------------
// Migration staggering.
// ---------------------------------------------------------------------

const STORM_KEYS: u64 = 16;

/// A rate-flip stream across many keys (the `telemetry_plane` storm):
/// mid-stream the frequent and rare types swap, so every shard's
/// controllers re-deploy and ripple migrations across their live keys.
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

fn storm_run(stagger: u64) -> (Vec<(u32, u64, MatchKey)>, acep_stream::AuditLog, u64) {
    let events = storm_stream(4_000, 1);
    let pattern = Pattern::builder("storm-seq")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 1).lt(attr(2, 1)))
        .window(500)
        .build()
        .unwrap();
    let mut set = PatternSet::new(3);
    set.register(
        "storm-seq",
        pattern,
        adaptive_config(
            PlannerKind::Greedy,
            PolicyKind::invariant_with_distance(0.0),
            stagger,
        ),
    )
    .unwrap();
    let sink = Arc::new(CollectingSink::new());
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(AttrKeyExtractor { attr: 0 }),
        Arc::clone(&sink) as _,
        StreamConfig {
            shards: 2,
            telemetry: Some(TelemetryConfig::default()),
            ..StreamConfig::default()
        },
    )
    .unwrap();
    let hub = runtime.telemetry().cloned().expect("telemetry on");
    for chunk in events.chunks(257) {
        runtime.push_batch(chunk);
    }
    let stats = runtime.finish();
    assert_eq!(hub.dropped(), 0, "ring sized for the whole run");
    (
        canonical(sink.drain()),
        hub.audit(),
        stats.total_key_migrations(),
    )
}

/// `migration_stagger` spreads post-deployment lazy migrations across
/// the following events by key hash instead of migrating every live
/// key in one burst — without changing the match multiset. With the
/// stagger window far longer than the remaining stream, almost no key
/// comes due before end-of-stream, so the audit trail's migration
/// bursts shrink to a fraction of the immediate-migration run's.
#[test]
fn migration_stagger_flattens_bursts_without_changing_matches() {
    let (immediate_lines, immediate_audit, immediate_migrations) = storm_run(0);
    assert!(
        immediate_migrations > 0,
        "the rate flip must trigger a migration storm"
    );
    assert_eq!(
        immediate_audit.total_migrations(),
        immediate_migrations,
        "audit trail vs engine counters"
    );

    let (staggered_lines, staggered_audit, staggered_migrations) = storm_run(u64::MAX);
    assert_eq!(
        staggered_lines, immediate_lines,
        "staggering may delay migrations, never change matches"
    );
    assert!(
        staggered_migrations < immediate_migrations,
        "an effectively infinite stagger must leave keys unmigrated at \
         end of stream ({staggered_migrations} vs {immediate_migrations})"
    );
    let immediate_bursts = immediate_audit.migration_bursts();
    let staggered_bursts = staggered_audit.migration_bursts();
    assert!(
        staggered_bursts.max < immediate_bursts.max,
        "per-deployment bursts must flatten ({} vs {})",
        staggered_bursts.max,
        immediate_bursts.max
    );
    assert_eq!(
        staggered_audit.total_migrations(),
        staggered_migrations,
        "staggered migrations stay attributed in the audit trail"
    );
}

// ---------------------------------------------------------------------
// Checkpoint/restore telemetry.
// ---------------------------------------------------------------------

/// Checkpoint cadence and cost surface in the telemetry plane: each
/// barrier records one `Checkpoint` event per shard (bytes + micros),
/// and each recovery records one `Restore` per shard, rolled up into
/// the audit log's counters and histograms.
#[test]
fn checkpoint_and_restore_costs_surface_in_telemetry() {
    const SHARDS: usize = 2;
    let events = stream();
    let set = queries(&Scenario::new(DatasetKind::Stocks));
    let telemetry_config = || StreamConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..config(SHARDS)
    };
    let sink = Arc::new(CollectingSink::new());
    let mut log = CheckpointLog::new();
    let mut runtime = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        telemetry_config(),
    )
    .unwrap();
    let hub = runtime.telemetry().cloned().unwrap();
    runtime.push_batch(&events[..1_200]);
    let cp1 = runtime.checkpoint(&mut log).unwrap();
    runtime.push_batch(&events[1_200..2_400]);
    runtime.checkpoint(&mut log).unwrap();
    let audit = hub.audit();
    assert_eq!(audit.checkpoints(), 2 * SHARDS as u64);
    let bytes = audit.checkpoint_bytes();
    assert_eq!(bytes.count, 2 * SHARDS as u64);
    assert!(
        bytes.sum >= u128::from(cp1.bytes),
        "recorded frame bytes must cover what the log accepted"
    );
    drop(runtime);

    let (mut recovered, report) = ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::clone(&sink) as _,
        telemetry_config(),
        &log,
    )
    .unwrap();
    let hub2 = recovered.telemetry().cloned().unwrap();
    recovered.flush();
    let audit2 = hub2.audit();
    assert_eq!(audit2.restores(), SHARDS as u64);
    assert_eq!(audit2.restore_micros().count, SHARDS as u64);
    assert!(
        audit2.checkpoint_bytes().count == 0,
        "the recovered incarnation has not checkpointed yet"
    );
    assert_eq!(report.events_ingested, 2_400);
    recovered.push_batch(&events[2_400..]);
    recovered.finish();
}
