//! Staged replay and isolated layer loops: the per-layer half of the
//! trace that needs no spans inside the program.
//!
//! The staged replay is a single-thread pipeline composed from the
//! layers' public functions — the same calls the shard worker makes,
//! in the same order — run over the `(timestamp, seq)`-sorted stream in
//! `CHUNK`-event blocks. The stateless stages take one timer per block;
//! the controller and the keyed engine are interleaved per event, as in
//! the worker (an engine must see each deployment when it happens, or
//! whole runs of re-plans collapse into one migration per block), so
//! they are timed per event with the clock cost subtracted. The
//! isolated loops time one layer function each on the workload's own
//! pattern and events.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use acep_core::{EngineTemplate, InvariantSet, KeyedEngine, QueryController, SelectionStrategy};
use acep_engine::{Match, RelevanceIndex};
use acep_plan::{CollectingRecorder, Planner};
use acep_stats::{StatisticsCollector, StatsConfig};
use acep_stream::{CountingSink, MatchSink, QueryId, SpscRing, TaggedMatch};
use acep_types::{Event, EventTypeId, ShardBatch};

use crate::workloads::{Workload, CHUNK};

/// Per-stage busy time of one staged replay, in ns per event.
#[derive(Debug, Default)]
pub struct StagedOut {
    pub extract_ns: f64,
    pub batch_ns: f64,
    pub relevance_ns: f64,
    pub controller_ns: f64,
    pub keyed_ns: f64,
    pub sink_ns: f64,
    /// Exact comparison count over every keyed engine at end of stream.
    pub comparisons: u64,
    pub matches: u64,
}

impl StagedOut {
    /// Stages the runtime runs on the ingesting thread.
    pub fn producer_ns(&self) -> f64 {
        self.extract_ns + self.batch_ns
    }

    /// Stages the runtime runs on the shard worker.
    pub fn worker_ns(&self) -> f64 {
        self.relevance_ns + self.controller_ns + self.keyed_ns + self.sink_ns
    }
}

pub fn staged_replay(w: &Workload, timer_ns: f64) -> StagedOut {
    let templates: Vec<EngineTemplate> = w
        .queries
        .iter()
        .map(|(_, p)| {
            EngineTemplate::new(p, w.num_types, w.adaptive_config(w.policy))
                .expect("workload pattern compiles")
        })
        .collect();
    let relevance = RelevanceIndex::build(w.num_types, templates.iter().map(|t| t.relevance()));
    let mut controllers: Vec<QueryController> = templates.iter().map(|t| t.controller()).collect();
    let mut engines: HashMap<u64, Vec<Option<KeyedEngine>>> = HashMap::new();
    let extractor = w.extractor();
    let sink = CountingSink::new(templates.len());

    // The engines must see the sorted stream (the reorder stage's job
    // in the runtime, bypassed here).
    let mut sorted: Vec<_> = w.events.iter().collect();
    sorted.sort_by_key(|(_, ev)| (ev.timestamp, ev.seq));

    let mut batch = ShardBatch::with_target(CHUNK);
    let mut keys: Vec<u64> = Vec::with_capacity(CHUNK);
    let mut type_col: Vec<EventTypeId> = Vec::with_capacity(CHUNK);
    let mut mask_col: Vec<(bool, u64)> = Vec::with_capacity(CHUNK);
    let mut scratch: Vec<Match> = Vec::new();
    let mut tagged: Vec<TaggedMatch> = Vec::new();
    let mut emit = 0u64;
    let mut ns = [0u128; 4];
    let mut interleaved_ns = [0u128; 2];
    let mut interleaved_calls = 0u64;
    let mut timed = |slot: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        ns[slot] += t.elapsed().as_nanos();
    };

    for block in sorted.chunks(CHUNK) {
        timed(0, &mut || {
            keys.clear();
            keys.extend(block.iter().map(|(_, ev)| extractor.shard_key(ev)));
        });
        let mut routed = Vec::new();
        timed(1, &mut || {
            for ((source, ev), key) in block.iter().zip(&keys) {
                batch.push(*key, *source, Arc::clone(ev));
            }
            routed = batch.take();
        });
        timed(2, &mut || {
            type_col.clear();
            type_col.extend(routed.iter().map(|r| r.event.type_id));
            relevance.prefilter(&type_col, &mut mask_col);
        });
        for (r, (any, mask)) in routed.iter().zip(&mask_col) {
            if !*any {
                continue;
            }
            let slots = engines
                .entry(r.key)
                .or_insert_with(|| (0..controllers.len()).map(|_| None).collect());
            for (q, c) in controllers.iter_mut().enumerate() {
                if mask & (1 << q) == 0 {
                    continue;
                }
                let t0 = Instant::now();
                c.observe(&r.event);
                let t1 = Instant::now();
                let engine = slots[q].get_or_insert_with(|| c.new_engine_for(r.key));
                engine.on_event(c, &r.event, &mut scratch);
                let t2 = Instant::now();
                interleaved_ns[0] += (t1 - t0).as_nanos();
                interleaved_ns[1] += (t2 - t1).as_nanos();
                interleaved_calls += 1;
                for matched in scratch.drain(..) {
                    emit += 1;
                    tagged.push(TaggedMatch {
                        query: QueryId(q as u32),
                        key: r.key,
                        shard: 0,
                        emit,
                        matched,
                    });
                }
            }
        }
        timed(3, &mut || sink.on_batch(std::mem::take(&mut tagged)));
    }

    let comparisons = engines
        .values()
        .flatten()
        .flatten()
        .map(KeyedEngine::comparisons)
        .sum();
    // End of stream, outside the per-stage clocks: flush what the
    // engines still hold so the match count is comparable with the
    // reference.
    let mut flushed = 0u64;
    for engine in engines.values_mut().flatten().flatten() {
        engine.finish(&mut scratch);
        flushed += scratch.len() as u64;
        scratch.clear();
    }
    let per_event = |total: f64| total / w.events.len().max(1) as f64;
    let clock = timer_ns * interleaved_calls as f64;
    StagedOut {
        extract_ns: per_event(ns[0] as f64),
        batch_ns: per_event(ns[1] as f64),
        relevance_ns: per_event(ns[2] as f64),
        controller_ns: per_event((interleaved_ns[0] as f64 - clock).max(0.0)),
        keyed_ns: per_event((interleaved_ns[1] as f64 - clock).max(0.0)),
        sink_ns: per_event(ns[3] as f64),
        comparisons,
        matches: sink.total() + flushed,
    }
}

/// ns per message through an `SpscRing` with one producer and one
/// consumer thread — the runtime's only cross-thread hand-off.
pub fn ring_ns_per_msg() -> f64 {
    const MESSAGES: u64 = 100_000;
    let ring = Arc::new(SpscRing::<u64>::new(8));
    let consumer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(v) = ring.recv() {
                sum = sum.wrapping_add(v);
            }
            ring.consumer_exited();
            sum
        })
    };
    let start = Instant::now();
    for i in 0..MESSAGES {
        ring.push(i);
    }
    ring.close();
    let sum = consumer.join().expect("ring consumer thread");
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sum);
    ns / MESSAGES as f64
}

/// Isolated timings of the adaptation layers on the workload's first
/// query.
#[derive(Debug, Default)]
pub struct IsolatedOut {
    pub stats_observe_ns: f64,
    pub stats_snapshot_us: f64,
    pub plan_generate_us: f64,
    pub invariant_check_ns: f64,
}

pub fn isolated_loops(w: &Workload) -> IsolatedOut {
    let pattern = w.queries[0].1.canonical();
    let sub = &pattern.branches[0];
    let events: Vec<&Arc<Event>> = w.events.iter().map(|(_, ev)| ev).take(200_000).collect();
    let now = events.last().map_or(0, |ev| ev.timestamp);

    let mut collector = StatisticsCollector::new(w.num_types, pattern, &StatsConfig::default());
    let start = Instant::now();
    for ev in &events {
        collector.observe(ev);
    }
    let stats_observe_ns = start.elapsed().as_nanos() as f64 / events.len().max(1) as f64;

    const SNAPSHOTS: u32 = 2_000;
    let start = Instant::now();
    for _ in 0..SNAPSHOTS {
        std::hint::black_box(collector.snapshot_branch(0, now));
    }
    let stats_snapshot_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(SNAPSHOTS);
    let snapshot = collector.snapshot_branch(0, now);

    const PLANS: u32 = 2_000;
    let planner = Planner::new(w.planner);
    let start = Instant::now();
    for _ in 0..PLANS {
        let mut rec = CollectingRecorder::new();
        std::hint::black_box(planner.generate(sub, &snapshot, &mut rec));
    }
    let plan_generate_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(PLANS);

    let mut rec = CollectingRecorder::new();
    planner.generate(sub, &snapshot, &mut rec);
    let invariants = InvariantSet::build(
        &rec.into_condition_sets(),
        &snapshot,
        SelectionStrategy::Tightest,
        1,
        0.1,
    );
    const CHECKS: u32 = 1_000_000;
    let start = Instant::now();
    for _ in 0..CHECKS {
        std::hint::black_box(invariants.first_violated(std::hint::black_box(&snapshot)));
    }
    let invariant_check_ns = start.elapsed().as_nanos() as f64 / f64::from(CHECKS);

    IsolatedOut {
        stats_observe_ns,
        stats_snapshot_us,
        plan_generate_us,
        invariant_check_ns,
    }
}
