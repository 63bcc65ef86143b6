//! The worker owning one shard of the key space.
//!
//! A worker is a plain thread draining its lock-free SPSC ring (see
//! [`acep_types::ring`]): the producer side already extracted
//! partition keys, tagged sources, and assembled shard-local batches,
//! so the worker's loop starts at evaluation, not routing. It owns the
//! shard's **adaptation plane** — one
//! [`QueryController`] per registered query (statistics collector,
//! decision function `D`, planner `A`, plan epochs) — and its
//! **evaluation plane**: a `HashMap<key, Vec<Option<KeyedEngine>>>`
//! with one slot per query, instantiated lazily from the query's
//! controller when a key first receives a relevant event. Every
//! relevant event is observed by its query's controller exactly once
//! (cross-key statistics: cold keys inherit what hot keys taught the
//! estimators), then evaluated by the one engine of its (key, query).
//! A control step that deploys a new plan only bumps the controller's
//! plan epoch; engines rebuild + migrate lazily on their next event, so
//! a re-plan costs at most one planner invocation per query per control
//! step — independent of how many keys are live.
//!
//! **Batched relevance pre-filtering.** Events of types no query
//! references cannot affect any match set, and events relevant to only
//! some queries must not touch the others. Instead of consulting every
//! template per event, the worker extracts each batch's hot attribute
//! column (the type discriminators) and classifies the whole batch in
//! one pass over the packed [`RelevanceIndex`] — per event it then has
//! a precomputed query bitmask: `mask == 0` skips the key map entirely,
//! and engine dispatch iterates set bits rather than scanning
//! templates. Hosting many narrow queries over one wide stream stays
//! cheap, and the per-event cost of irrelevant events is one table
//! load.
//!
//! With a non-passthrough [`DisorderConfig`], an event-time
//! [`ReorderBuffer`] sits between the ring and the engines: events
//! are released to the per-(key, query) engines in `(timestamp, seq)`
//! order once the shard watermark passes them, and late arrivals are
//! dropped or routed to the sink per the configured
//! [`LatenessPolicy`](acep_types::LatenessPolicy). The shard watermark
//! also *drives* the engines: the worker keeps a min-heap of
//! `(deadline, key, query)` over engines whose finalizer holds a match
//! pending a trailing-negation/Kleene deadline, and whenever the
//! watermark advances it pops exactly the due entries and advances
//! those engines' stream clocks ([`KeyedEngine::advance_time`]). A
//! watermark advance over a shard with nothing pending is O(1) — no
//! per-engine sweep — and matches still emit as soon as the watermark
//! proves their deadline passed: up to `bound` ms of event time earlier
//! than waiting for the next engine-visible event, and independent of
//! whether the pending match's own key ever receives another event.
//!
//! Superseded executor generations of keys that stopped receiving
//! events are reclaimed by an **idle-retirement sweep** piggy-backed on
//! the controllers' control steps: each step advances a bounded cursor
//! over the shard's keys (budgeted, so the hot path never stalls on key
//! cardinality) and retires any generation whose ownership range the
//! stream has provably left behind — an idle key's memory returns to
//! one generation per branch without the key ever receiving another
//! event.
//!
//! With a passthrough config the buffer is absent and ingestion is the
//! same hot path as before the event-time layer existed (punctuation
//! still advances the engines' clocks — the promise "no event before
//! `ts` remains" is meaningful in arrival time too).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use acep_checkpoint::{CountersRec, EventMap, EventTable, KeyStateRec, ShardCheckpoint};
use acep_core::{EngineTemplate, KeyedEngine, QueryController};
use acep_engine::{Match, RelevanceIndex};
use acep_telemetry::{Histogram, TelemetryEvent};
use acep_types::faultpoint::{self, FaultPoint};
use acep_types::{
    DisorderConfig, Event, EventTypeId, LatenessPolicy, RoutedEvent, SourceId, SpscRing, Timestamp,
};

use crate::registry::QueryId;
use crate::reorder::{Offer, ReorderBuffer};
use crate::sink::{LateEvent, MatchSink, TaggedMatch};
use crate::stats::{QueryStats, ShardStats, ShipStats};
use crate::telemetry::WorkerTelemetry;

/// Keys visited per control step by the idle-retirement sweep. Bounds
/// the housekeeping piggy-backed on the hot path; the cursor wraps, so
/// every key is reached within `live_keys / BUDGET` control steps.
const RETIRE_BUDGET: usize = 32;

/// Control messages from the runtime to one worker.
///
/// Replies carry `Result<_, String>`: a worker whose evaluation code
/// panicked is *poisoned* — it survives as a drain loop that discards
/// data messages and answers every barrier with `Err(panic payload)`,
/// so one shard's failure surfaces as an error on the next barrier
/// instead of a process abort, and healthy shards keep running.
pub(crate) enum ToWorker {
    /// A producer-assembled shard-local batch, in ingest order.
    Batch(Vec<RoutedEvent>),
    /// Punctuation: advance the shard's event-time watermark to at
    /// least the given timestamp, releasing buffered events and
    /// driving engine finalization deadlines.
    Watermark(Timestamp),
    /// Acknowledge once every prior message is processed.
    Flush(Sender<Result<(), String>>),
    /// Reply with a stats snapshot (processing continues).
    Stats(Sender<Result<ShardStats, String>>),
    /// Serialize the shard's full recoverable state, replying with the
    /// encoded [`ShardCheckpoint`] frame and the shard's emit frontier
    /// (last emission number handed to the sink). Processing continues.
    Checkpoint(Sender<Result<(Vec<u8>, u64), String>>),
    /// Release the reorder buffer, flush engine state (end-of-stream
    /// matches), reply with final stats, and exit.
    Finish(Sender<Result<ShardStats, String>>),
}

/// One live engine plus the deadline currently representing it in the
/// shard's pending-deadline heap (`None` = not enqueued).
pub(crate) struct EngineSlot {
    engine: KeyedEngine,
    queued_deadline: Option<Timestamp>,
}

/// Per-key engine instances, one slot per registered query.
type KeyEngines = Vec<Option<EngineSlot>>;

/// Heap entry: `Reverse((deadline, key, query))` — a min-heap ordered
/// by deadline, tie-broken by (key, query) for deterministic sweeps.
type DeadlineEntry = Reverse<(Timestamp, u64, u32)>;

/// Marks the ring's consumer as gone on *any* worker exit — clean
/// `Finish`, channel close, or panic — so a producer parked on a full
/// ring fails loudly instead of sleeping forever.
struct ConsumerExit(Arc<SpscRing<ToWorker>>);

impl Drop for ConsumerExit {
    fn drop(&mut self) {
        self.0.consumer_exited();
    }
}

pub(crate) struct ShardWorker {
    shard: usize,
    templates: Arc<[EngineTemplate]>,
    /// The shard's adaptation plane: one controller per query, shared
    /// by every keyed engine of that query on this shard.
    controllers: Vec<QueryController>,
    /// Packed per-type query bitmasks: the batched relevance
    /// pre-filter (see module docs).
    relevance: RelevanceIndex,
    sink: Arc<dyn MatchSink>,
    /// The worker's end of the shard's SPSC ring.
    ring: Arc<SpscRing<ToWorker>>,
    keys: HashMap<u64, KeyEngines>,
    /// Keys in first-seen order — the deterministic iteration domain of
    /// the idle-retirement cursor (keys are never removed).
    key_order: Vec<u64>,
    /// Next position of the idle-retirement sweep in `key_order`.
    retire_cursor: usize,
    /// Event-time reordering stage; `None` = in-order passthrough.
    reorder: Option<ReorderBuffer>,
    lateness: LatenessPolicy,
    events: u64,
    batches: u64,
    late_dropped: u64,
    late_routed: u64,
    /// Last stream time driven into the engines (watermark or
    /// punctuation); engines are only advanced forward.
    engine_time: Timestamp,
    /// Largest event timestamp processed so far. Events reach the
    /// engines in `(timestamp, seq)` order (trusted input in
    /// passthrough mode, watermark-released otherwise), so this is a
    /// valid "no earlier event remains" horizon for the retirement
    /// sweep even on shards that never see a watermark.
    max_event_ts: Timestamp,
    /// Min-heap of `(deadline, key, query)` over engines with matches
    /// pending a trailing-negation/Kleene deadline. A watermark advance
    /// pops only the entries it proves due — with nothing pending it is
    /// O(1) instead of a sweep over every live engine. Entries may be
    /// stale (the pending match emitted or was invalidated by an
    /// event); `EngineSlot::queued_deadline` arbitrates on pop.
    deadlines: BinaryHeap<DeadlineEntry>,
    /// Engines visited by watermark-driven finalization (stats).
    finalize_visits: u64,
    /// Emission-latency distribution of deadline-held matches (ms past
    /// the finalization deadline, whether the proof was the key's next
    /// event or a watermark advance). End-of-stream flushes are
    /// excluded — they force matches out regardless of time.
    emission_latency: Histogram,
    /// Per-shard telemetry state: event recorder + sampled profiling
    /// (no-op unless `StreamConfig::telemetry` enabled it).
    telemetry: WorkerTelemetry,
    /// Consecutive batches that ended with events buffered but the
    /// watermark unmoved — a stall: something (an idle-but-not-yet-idle
    /// source, a phantom grace) is holding the release back. Reported
    /// at power-of-two counts so a long stall logs O(log n) records.
    stall_batches: u64,
    /// Watermark at the end of the previous batch (stall detection).
    prev_watermark: Timestamp,
    /// Reused buffer of watermark-released events awaiting processing.
    released: Vec<(u64, Arc<Event>)>,
    /// Watermark values the buffered arrivals of the message in flight
    /// stepped through, ascending, not yet driven into the engines.
    /// Replayed between the released events by `drain_and_process`, so
    /// the engines' clock stops wherever it would have stopped had
    /// every event arrived as its own message — which makes emission a
    /// function of the shard's ingest sequence and not of where the
    /// producer happened to cut its batches.
    clock_stops: Vec<Timestamp>,
    /// Reused type-discriminator column of the batch in flight (the
    /// pre-filter's input).
    type_col: Vec<EventTypeId>,
    /// Reused per-event relevance verdicts `(any, mask)` of the batch
    /// in flight (the pre-filter's output).
    mask_col: Vec<(bool, u64)>,
    /// Reused per-event match buffer.
    scratch: Vec<Match>,
    /// Matches of the batch in flight, delivered to the sink per batch.
    pending: Vec<TaggedMatch>,
    /// Dense per-shard emission counter: the `emit` number stamped on
    /// the next match is `emit_seq + 1`. Checkpointed as the shard's
    /// emit frontier (sink-side exactly-once dedup, see
    /// [`TaggedMatch::emit`]).
    emit_seq: u64,
    /// Event seqs already persisted by an earlier checkpoint frame of
    /// this incarnation — the incremental baseline: the next frame's
    /// event table only carries seqs not in here.
    logged_seqs: HashSet<u64>,
    /// Panic payload of the evaluation panic that poisoned this worker
    /// (`None` = healthy). See [`ToWorker`].
    poisoned: Option<String>,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        templates: Arc<[EngineTemplate]>,
        sink: Arc<dyn MatchSink>,
        disorder: DisorderConfig,
        telemetry: WorkerTelemetry,
        ring: Arc<SpscRing<ToWorker>>,
    ) -> Self {
        let mut reorder = if disorder.is_passthrough() {
            None
        } else {
            Some(ReorderBuffer::new(disorder.strategy, disorder.max_buffered))
        };
        let mut controllers: Vec<QueryController> =
            templates.iter().map(EngineTemplate::controller).collect();
        if let Some(rec) = telemetry.recorder() {
            for (qi, controller) in controllers.iter_mut().enumerate() {
                controller.set_recorder(rec.clone(), qi as u32);
            }
            if let Some(buffer) = &mut reorder {
                buffer.set_eviction_tracking(true);
            }
        }
        let num_types = templates.first().map_or(0, |t| t.relevance().len());
        let relevance = RelevanceIndex::build(num_types, templates.iter().map(|t| t.relevance()));
        Self {
            shard,
            templates,
            controllers,
            relevance,
            sink,
            ring,
            keys: HashMap::new(),
            key_order: Vec::new(),
            retire_cursor: 0,
            reorder,
            lateness: disorder.lateness,
            events: 0,
            batches: 0,
            late_dropped: 0,
            late_routed: 0,
            engine_time: 0,
            max_event_ts: 0,
            deadlines: BinaryHeap::new(),
            finalize_visits: 0,
            emission_latency: Histogram::new(),
            telemetry,
            stall_batches: 0,
            prev_watermark: 0,
            released: Vec::new(),
            clock_stops: Vec::new(),
            type_col: Vec::new(),
            mask_col: Vec::new(),
            scratch: Vec::new(),
            pending: Vec::new(),
            emit_seq: 0,
            logged_seqs: HashSet::new(),
            poisoned: None,
        }
    }

    /// Rebuilds a worker from a checkpoint frame: counters, controller
    /// plans/epochs, every (key, query) engine (in checkpointed
    /// first-seen order, so the retirement cursor stays meaningful),
    /// the reorder buffer, and the emit frontier. The deadline heap is
    /// re-derived from the restored engines' pending finalizations.
    /// `bytes_read` is the checkpoint-log footprint that produced
    /// `rec` + `events` (telemetry only).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_checkpoint(
        shard: usize,
        templates: Arc<[EngineTemplate]>,
        sink: Arc<dyn MatchSink>,
        disorder: DisorderConfig,
        telemetry: WorkerTelemetry,
        ring: Arc<SpscRing<ToWorker>>,
        rec: &ShardCheckpoint,
        events: &EventMap,
        bytes_read: u64,
    ) -> Result<Self, String> {
        let start = Instant::now();
        let mut worker = Self::new(shard, templates, sink, disorder, telemetry, ring);
        if rec.shard as usize != shard {
            return Err(format!(
                "checkpoint frame of shard {} cannot restore shard {shard}",
                rec.shard
            ));
        }
        if rec.controllers.len() != worker.controllers.len() {
            return Err(format!(
                "checkpoint has {} queries but the runtime registered {}",
                rec.controllers.len(),
                worker.controllers.len()
            ));
        }
        for (controller, crec) in worker.controllers.iter_mut().zip(&rec.controllers) {
            controller
                .import_rec(crec, events)
                .map_err(|e| e.to_string())?;
        }
        match (worker.reorder.is_some(), &rec.reorder) {
            (true, Some(rrec)) => {
                let mut restored =
                    ReorderBuffer::restore(disorder.strategy, disorder.max_buffered, rrec, events)
                        .map_err(|e| e.to_string())?;
                if worker.telemetry.recorder().is_some() {
                    restored.set_eviction_tracking(true);
                }
                worker.reorder = Some(restored);
            }
            (false, None) => {}
            (true, None) => {
                return Err("disorder config expects reorder state the checkpoint lacks".into())
            }
            (false, Some(_)) => {
                return Err(
                    "checkpoint has reorder state but the disorder config is passthrough".into(),
                )
            }
        }
        for krec in &rec.keys {
            if krec.engines.len() != worker.templates.len() {
                return Err(format!(
                    "key {} has {} engine slots but the runtime registered {} queries",
                    krec.key,
                    krec.engines.len(),
                    worker.templates.len()
                ));
            }
            let mut engines: KeyEngines = Vec::with_capacity(krec.engines.len());
            for (qi, erec) in krec.engines.iter().enumerate() {
                engines.push(match erec {
                    None => None,
                    Some(erec) => {
                        let engine =
                            KeyedEngine::restore(&worker.controllers[qi], krec.key, erec, events)
                                .map_err(|e| e.to_string())?;
                        let queued = engine.min_pending_deadline();
                        if let Some(d) = queued {
                            worker.deadlines.push(Reverse((d, krec.key, qi as u32)));
                        }
                        Some(EngineSlot {
                            engine,
                            queued_deadline: queued,
                        })
                    }
                });
            }
            worker.key_order.push(krec.key);
            worker.keys.insert(krec.key, engines);
        }
        let c = &rec.counters;
        worker.events = c.events;
        worker.batches = c.batches;
        worker.late_dropped = c.late_dropped;
        worker.late_routed = c.late_routed;
        worker.engine_time = c.engine_time;
        worker.max_event_ts = c.max_event_ts;
        worker.finalize_visits = c.finalize_visits;
        worker.stall_batches = c.stall_batches;
        worker.prev_watermark = c.prev_watermark;
        worker.emit_seq = c.emit_seq;
        worker.retire_cursor = rec.retire_cursor as usize;
        worker.logged_seqs = events.seqs().collect();
        if worker.telemetry.enabled() {
            worker.telemetry.record(TelemetryEvent::Restore {
                bytes: bytes_read,
                micros: start.elapsed().as_micros() as u64,
            });
        }
        Ok(worker)
    }

    /// The worker loop: drain ring messages until `Finish` (or until
    /// the runtime is dropped and the ring closes).
    ///
    /// Every message is handled under `catch_unwind`: a panic in
    /// evaluation code poisons *this* worker only. A poisoned worker
    /// keeps draining its ring — discarding data messages, answering
    /// every barrier with `Err(panic payload)` — so producers never
    /// park on a dead consumer and the failure surfaces as a typed
    /// error on the runtime's next barrier, not a process abort.
    pub(crate) fn run(mut self) {
        let ring = Arc::clone(&self.ring);
        let _exit = ConsumerExit(Arc::clone(&ring));
        while let Some(msg) = ring.recv() {
            if let Some(payload) = self.poisoned.clone() {
                if Self::refuse(msg, &payload) {
                    break;
                }
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| self.handle(msg))) {
                Ok(true) => break,
                Ok(false) => {}
                Err(panic) => self.poisoned = Some(panic_message(panic)),
            }
        }
    }

    /// Handles one healthy-path message; `true` = exit the loop.
    fn handle(&mut self, msg: ToWorker) -> bool {
        match msg {
            ToWorker::Batch(events) => {
                self.on_batch(&events);
                false
            }
            ToWorker::Watermark(ts) => {
                self.on_watermark(ts);
                false
            }
            ToWorker::Flush(ack) => {
                let _ = ack.send(Ok(()));
                false
            }
            ToWorker::Stats(reply) => {
                let _ = reply.send(Ok(self.stats()));
                false
            }
            ToWorker::Checkpoint(reply) => {
                let frame = self.export_checkpoint();
                let _ = reply.send(Ok(frame));
                false
            }
            ToWorker::Finish(reply) => {
                self.finish();
                let _ = reply.send(Ok(self.stats()));
                true
            }
        }
    }

    /// The poisoned drain: discards data messages, answers barriers
    /// with the panic payload; `true` = exit the loop (`Finish`).
    fn refuse(msg: ToWorker, payload: &str) -> bool {
        match msg {
            ToWorker::Batch(_) | ToWorker::Watermark(_) => false,
            ToWorker::Flush(ack) => {
                let _ = ack.send(Err(payload.to_string()));
                false
            }
            ToWorker::Stats(reply) => {
                let _ = reply.send(Err(payload.to_string()));
                false
            }
            ToWorker::Checkpoint(reply) => {
                let _ = reply.send(Err(payload.to_string()));
                false
            }
            ToWorker::Finish(reply) => {
                let _ = reply.send(Err(payload.to_string()));
                true
            }
        }
    }

    /// Serializes the shard's recoverable state into one incremental
    /// [`ShardCheckpoint`] frame (events already persisted by an
    /// earlier frame of this incarnation are omitted; recovery folds
    /// the per-shard frame chain back together). Returns the encoded
    /// frame and the shard's emit frontier.
    fn export_checkpoint(&mut self) -> (Vec<u8>, u64) {
        let start = Instant::now();
        let mut table = EventTable::new();
        let reorder = self.reorder.as_ref().map(|b| b.export_rec(&mut table));
        let controllers = self
            .controllers
            .iter()
            .map(|c| c.export_rec(&mut table))
            .collect();
        let mut keys = Vec::with_capacity(self.key_order.len());
        for &key in &self.key_order {
            let engines = &self.keys[&key];
            keys.push(KeyStateRec {
                key,
                engines: engines
                    .iter()
                    .map(|slot| slot.as_ref().map(|s| s.engine.export_rec(&mut table)))
                    .collect(),
            });
        }
        let events = table.into_delta(&self.logged_seqs);
        self.logged_seqs.extend(events.iter().map(|r| r.seq));
        let checkpoint = ShardCheckpoint {
            shard: self.shard as u32,
            counters: CountersRec {
                events: self.events,
                batches: self.batches,
                late_dropped: self.late_dropped,
                late_routed: self.late_routed,
                engine_time: self.engine_time,
                max_event_ts: self.max_event_ts,
                finalize_visits: self.finalize_visits,
                stall_batches: self.stall_batches,
                prev_watermark: self.prev_watermark,
                emit_seq: self.emit_seq,
            },
            reorder,
            controllers,
            keys,
            retire_cursor: self.retire_cursor as u64,
            events,
        };
        let bytes = checkpoint.to_bytes();
        if self.telemetry.enabled() {
            self.telemetry.record(TelemetryEvent::Checkpoint {
                bytes: bytes.len() as u64,
                micros: start.elapsed().as_micros() as u64,
                events: self.events,
            });
        }
        (bytes, self.emit_seq)
    }

    /// Classifies a column of type discriminators into per-event
    /// relevance verdicts (`mask_col`), one packed-table pass.
    fn prefilter(&mut self) {
        self.relevance.prefilter(&self.type_col, &mut self.mask_col);
    }

    fn on_batch(&mut self, events: &[RoutedEvent]) {
        self.batches += 1;
        self.telemetry.begin_batch();
        // Hot path: in-order streams never touch the buffer. The batch
        // is classified in one columnar pass, then dispatched.
        if self.reorder.is_none() {
            let t = self.telemetry.timer();
            self.type_col.clear();
            self.type_col.extend(events.iter().map(|r| r.event.type_id));
            self.prefilter();
            for (i, r) in events.iter().enumerate() {
                let (any, mask) = self.mask_col[i];
                self.process_one(r.key, &r.event, any, mask);
            }
            self.telemetry.stage_evaluate(t);
            let t = self.telemetry.timer();
            self.deliver();
            self.telemetry.stage_finalize(t);
            self.finish_batch_profile(events.len());
            return;
        }
        let t = self.telemetry.timer();
        for r in events {
            let buffer = self.reorder.as_mut().expect("non-passthrough shard");
            let before = buffer.watermark();
            let verdict = buffer.offer(r.key, r.source, &r.event);
            let watermark = buffer.watermark();
            if watermark != before {
                self.clock_stops.push(watermark);
            }
            if verdict == Offer::Late {
                self.on_late(r.key, r.source, &r.event, watermark);
            } else if buffer.over_capacity() {
                // Enforce the memory cap per event, not per batch, so
                // the configured depth is a hard limit. The eviction
                // moves the watermark, and the engines follow it here
                // as they would at the end of a one-event message.
                let watermark = self.drain_and_process(false);
                self.advance_engines(watermark);
            }
        }
        self.telemetry.stage_ingest(t);
        self.release(false);
        self.observe_stall();
        self.finish_batch_profile(events.len());
    }

    /// Watermark-stall detection, run at the end of each buffered
    /// batch: events held but the watermark unmoved means releases are
    /// blocked on some source's progress. Reported at power-of-two
    /// streak lengths.
    fn observe_stall(&mut self) {
        let Some(buffer) = &self.reorder else { return };
        let depth = buffer.depth();
        let watermark = buffer.watermark();
        if depth > 0 && watermark == self.prev_watermark {
            self.stall_batches += 1;
            if self.telemetry.enabled() && self.stall_batches.is_power_of_two() {
                self.telemetry.record(TelemetryEvent::WatermarkStall {
                    watermark,
                    depth,
                    blocking: buffer.blocking_source(),
                });
            }
        } else {
            self.stall_batches = 0;
        }
        self.prev_watermark = watermark;
    }

    /// On profiled batches, records the batch shape and samples the
    /// shard's arena occupancy (live partials vs allocated nodes).
    fn finish_batch_profile(&mut self, events: usize) {
        if !self.telemetry.profiling() {
            return;
        }
        let depth = self.reorder.as_ref().map_or(0, ReorderBuffer::depth);
        self.telemetry.batch_shape(events, depth);
        let mut live = 0;
        let mut nodes = 0;
        for engines in self.keys.values() {
            for slot in engines.iter().flatten() {
                live += slot.engine.partial_count();
                nodes += slot.engine.arena_nodes();
            }
        }
        self.telemetry.sample_arena(live, nodes);
    }

    fn on_watermark(&mut self, ts: Timestamp) {
        match &mut self.reorder {
            Some(buffer) => {
                buffer.advance_to(ts);
                self.release(false);
            }
            // Passthrough shards hold no buffer, but the punctuation
            // promise — no event before `ts` remains — still lets
            // pending finalizations emit.
            None => self.advance_engines(ts),
        }
    }

    fn on_late(&mut self, key: u64, source: SourceId, ev: &Arc<Event>, watermark: Timestamp) {
        match self.lateness {
            LatenessPolicy::Drop => self.late_dropped += 1,
            LatenessPolicy::Route => {
                self.late_routed += 1;
                self.sink.on_late(LateEvent {
                    key,
                    source,
                    shard: self.shard,
                    watermark,
                    event: Arc::clone(ev),
                });
            }
        }
    }

    /// Pops buffered events — those the watermark released, or (at end
    /// of stream) everything — runs them through the engines, and
    /// drives the engines' stream clocks up to the watermark.
    fn release(&mut self, all: bool) {
        let watermark = self.drain_and_process(all);
        let t = self.telemetry.timer();
        // Watermark-driven finalization: deadlines are evaluated
        // against the shard watermark, not engine-visible event time.
        // At end of stream `finish` flushes everything anyway.
        if !all {
            self.advance_engines(watermark);
        }
        self.deliver();
        self.telemetry.stage_finalize(t);
    }

    /// Drains the reorder buffer (watermark-released or everything)
    /// through the engines, returning the buffer's watermark. Does not
    /// advance engine clocks or deliver to the sink — callers on the
    /// per-event path amortize those over the batch. Released events
    /// are classified in the same columnar pass as the passthrough
    /// path before dispatch.
    fn drain_and_process(&mut self, all: bool) -> Timestamp {
        let mut released = std::mem::take(&mut self.released);
        released.clear();
        let mut watermark = 0;
        let t = self.telemetry.timer();
        if let Some(buffer) = &mut self.reorder {
            if all {
                buffer.drain_all(&mut released);
            } else {
                buffer.drain_ready(&mut released);
            }
            watermark = buffer.watermark();
        }
        self.telemetry.stage_reorder(t);
        if self.telemetry.enabled() {
            if let Some(buffer) = &mut self.reorder {
                for &(source, timestamp) in buffer.evictions() {
                    self.telemetry.record(TelemetryEvent::ReorderEviction {
                        source,
                        timestamp,
                        watermark,
                    });
                }
                buffer.clear_evictions();
            }
        }
        let t = self.telemetry.timer();
        self.type_col.clear();
        self.type_col
            .extend(released.iter().map(|(_, ev)| ev.type_id));
        self.prefilter();
        let mut stops = std::mem::take(&mut self.clock_stops);
        let mut next_stop = 0;
        for (i, (key, ev)) in released.iter().enumerate() {
            let (any, mask) = self.mask_col[i];
            // The watermarks the arrivals stepped through, in their
            // place: a watermark `w` released exactly the events before
            // it, so it sits ahead of the first event at or after `w`.
            while stops.get(next_stop).is_some_and(|&w| w <= ev.timestamp) {
                self.advance_engines(stops[next_stop]);
                next_stop += 1;
            }
            // Fire deadlines the released stream itself proves passed
            // BEFORE this event runs: releases come in `(ts, seq)`
            // order, so `ev.timestamp` is a watermark over everything
            // still to come. Together with the replayed stops this pins
            // every deadline-held emission to a position in the
            // per-shard ingest sequence — batch boundaries (which load
            // and a crash can cut anywhere) do not decide where
            // finalizations land between on-event emissions, so a
            // recovered replay reproduces the exact per-shard emit
            // numbering the sink's dedup line needs.
            self.advance_engines(ev.timestamp);
            self.process_one(*key, ev, any, mask);
        }
        for &w in &stops[next_stop..] {
            self.advance_engines(w);
        }
        stops.clear();
        self.clock_stops = stops;
        self.telemetry.stage_evaluate(t);
        self.released = released;
        watermark
    }

    /// Runs one in-order event through the shard's controllers and the
    /// per-(key, query) engines. `any`/`mask` are the event's
    /// precomputed relevance verdict (see [`RelevanceIndex`]): `!any`
    /// events cost nothing past this check, and dispatch consults the
    /// mask bit instead of the templates. Wide hosts (> 64 queries)
    /// fall back to the template scan — the mask word only covers the
    /// first 64.
    fn process_one(&mut self, key: u64, ev: &Arc<Event>, any: bool, mask: u64) {
        faultpoint::hit(FaultPoint::MidBatch);
        self.events += 1;
        // Keys whose events no query ever references must not pin a
        // map entry: memory stays bounded by keys hosting engines.
        if !any {
            return;
        }
        self.max_event_ts = self.max_event_ts.max(ev.timestamp);
        let wide = self.relevance.wide();
        let engines = self.keys.entry(key).or_insert_with(|| {
            self.key_order.push(key);
            self.templates.iter().map(|_| None).collect()
        });
        let mut stepped = false;
        for (qi, slot) in engines.iter_mut().enumerate() {
            let relevant = if wide {
                self.templates[qi].is_relevant(ev.type_id)
            } else {
                mask & (1u64 << qi) != 0
            };
            if !relevant {
                continue;
            }
            // The controller sees every relevant event of the shard
            // exactly once — cross-key statistics — and may run a
            // control step (deployments bump its plan epoch; no engine
            // is touched here).
            let controller = &mut self.controllers[qi];
            stepped |= controller.observe(ev);
            let slot = slot.get_or_insert_with(|| EngineSlot {
                engine: controller.new_engine_for(key),
                queued_deadline: None,
            });
            let recording = self.telemetry.enabled();
            let reps_before = if recording {
                slot.engine.replacements()
            } else {
                0
            };
            slot.engine.on_event(controller, ev, &mut self.scratch);
            if recording {
                let replaced = slot.engine.replacements() - reps_before;
                if replaced > 0 {
                    // The engine just chased the controller's deployed
                    // epoch: a lazy per-key migration.
                    self.telemetry.record(TelemetryEvent::KeyMigration {
                        query: qi as u32,
                        key,
                        replaced: replaced as u32,
                        plan_epoch: controller.stats().plan_epoch,
                    });
                }
            }
            // Deadline-held matches proven by this event (the key's
            // own stream passed the deadline): their wait is emission
            // latency just as much as a watermark release is.
            for m in &self.scratch {
                if m.deadline > 0 {
                    self.emission_latency
                        .record(m.detected_at.saturating_sub(m.deadline));
                }
            }
            // Index the engine by its earliest pending deadline so the
            // watermark sweep can find it without visiting every key.
            // Re-index on ANY change — not just decreases. If the min
            // deadline grew (the event emitted or discarded what the
            // live heap entry stood for), a kept stale-smaller entry
            // would still match `queued_deadline` and visit the engine
            // early in the flush order, while a checkpoint-restored
            // worker derives the true min and visits it later: emit
            // numbering would diverge across recovery and break the
            // sink's exactly-once dedup line.
            let next = slot.engine.min_pending_deadline();
            if next != slot.queued_deadline {
                slot.queued_deadline = next;
                if let Some(d) = next {
                    self.deadlines.push(Reverse((d, key, qi as u32)));
                }
            }
            drain_tagged(
                &mut self.scratch,
                &mut self.pending,
                &mut self.emit_seq,
                QueryId(qi as u32),
                key,
                self.shard,
            );
        }
        if stepped {
            self.retire_idle();
        }
    }

    /// Bounded idle-key housekeeping, piggy-backed on control steps:
    /// advances a wrapping cursor over the shard's keys and, for every
    /// visited engine still carrying a superseded generation, advances
    /// its stream clock to the shard's proven horizon — emitting any
    /// overdue pending matches and retiring generations whose ownership
    /// range has fully expired. A key that stopped receiving events
    /// thus returns to one generation per branch without a new event.
    fn retire_idle(&mut self) {
        if self.key_order.is_empty() {
            return;
        }
        let now = self.max_event_ts.max(self.engine_time);
        let budget = RETIRE_BUDGET.min(self.key_order.len());
        for _ in 0..budget {
            let key = self.key_order[self.retire_cursor % self.key_order.len()];
            self.retire_cursor = (self.retire_cursor + 1) % self.key_order.len();
            let engines = self.keys.get_mut(&key).expect("key_order tracks keys");
            for (qi, slot) in engines.iter_mut().enumerate() {
                let Some(slot) = slot else { continue };
                let gens_before = slot.engine.generations();
                if gens_before <= self.controllers[qi].num_branches() {
                    continue;
                }
                slot.engine.advance_time(now, &mut self.scratch);
                let gens_after = slot.engine.generations();
                if self.telemetry.enabled() && gens_after < gens_before {
                    self.telemetry.record(TelemetryEvent::GenerationRetirement {
                        query: qi as u32,
                        key,
                        retired: (gens_before - gens_after) as u32,
                    });
                }
                for m in &self.scratch {
                    self.emission_latency
                        .record(m.detected_at.saturating_sub(m.deadline));
                }
                // Re-index only if the advance moved the pending
                // deadline (emitted or discarded what the live heap
                // entry stood for) — an unchanged deadline keeps its
                // existing entry, else every sweep revolution would
                // push a duplicate.
                let next = slot.engine.min_pending_deadline();
                if next != slot.queued_deadline {
                    slot.queued_deadline = next;
                    if let Some(d) = next {
                        self.deadlines.push(Reverse((d, key, qi as u32)));
                    }
                }
                drain_tagged(
                    &mut self.scratch,
                    &mut self.pending,
                    &mut self.emit_seq,
                    QueryId(qi as u32),
                    key,
                    self.shard,
                );
            }
        }
    }

    /// Advances the shard's engine clock to `to` (monotone), emitting
    /// matches whose finalization deadline the watermark proved passed.
    /// Only engines indexed in the pending-deadline heap with a due
    /// deadline are visited — with nothing pending this is O(1) — and
    /// pops come in `(deadline, key, query)` order, so emission order
    /// within the shard is deterministic.
    fn advance_engines(&mut self, to: Timestamp) {
        if to <= self.engine_time {
            return;
        }
        faultpoint::hit(FaultPoint::MidFinalize);
        self.engine_time = to;
        // `flush_ready` emits deadlines strictly below the clock, so an
        // entry at `to` stays queued for a later advance.
        while let Some(&Reverse((deadline, key, qi))) = self.deadlines.peek() {
            if deadline >= to {
                break;
            }
            self.deadlines.pop();
            let Some(Some(slot)) = self.keys.get_mut(&key).map(|e| &mut e[qi as usize]) else {
                continue;
            };
            if slot.queued_deadline != Some(deadline) {
                // Stale entry: the engine was re-indexed under a newer
                // (smaller) deadline; that entry will visit it.
                continue;
            }
            let gens_before = self.telemetry.enabled().then(|| slot.engine.generations());
            slot.engine.advance_time(to, &mut self.scratch);
            self.finalize_visits += 1;
            if let Some(before) = gens_before {
                let after = slot.engine.generations();
                if after < before {
                    self.telemetry.record(TelemetryEvent::GenerationRetirement {
                        query: qi,
                        key,
                        retired: (before - after) as u32,
                    });
                }
            }
            for m in &self.scratch {
                self.emission_latency
                    .record(m.detected_at.saturating_sub(m.deadline));
            }
            // Re-index under the next pending deadline, if any.
            slot.queued_deadline = slot.engine.min_pending_deadline();
            if let Some(d) = slot.queued_deadline {
                self.deadlines.push(Reverse((d, key, qi)));
            }
            drain_tagged(
                &mut self.scratch,
                &mut self.pending,
                &mut self.emit_seq,
                QueryId(qi),
                key,
                self.shard,
            );
        }
        self.deliver();
    }

    /// Ships the pending matches of the message in flight to the sink.
    fn deliver(&mut self) {
        if !self.pending.is_empty() {
            self.sink.on_batch(std::mem::take(&mut self.pending));
        }
    }

    /// End-of-stream: release everything still held by the reorder
    /// buffer (the watermark jumps to infinity), then flush pending
    /// partial state of every engine, in deterministic (key, query)
    /// order.
    fn finish(&mut self) {
        self.release(true);
        let mut keys: Vec<u64> = self.keys.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let engines = self.keys.get_mut(&key).expect("key just listed");
            for (qi, slot) in engines.iter_mut().enumerate() {
                if let Some(slot) = slot {
                    slot.engine.finish(&mut self.scratch);
                    drain_tagged(
                        &mut self.scratch,
                        &mut self.pending,
                        &mut self.emit_seq,
                        QueryId(qi as u32),
                        key,
                        self.shard,
                    );
                }
            }
        }
        self.deliver();
    }

    fn stats(&self) -> ShardStats {
        let mut per_query = vec![QueryStats::default(); self.templates.len()];
        let mut key_migrations = vec![0u64; self.templates.len()];
        let mut generations_live = 0;
        let mut partials_live = 0;
        let mut buffered_events = 0;
        for engines in self.keys.values() {
            for (qi, slot) in engines.iter().enumerate() {
                if let Some(slot) = slot {
                    per_query[qi].absorb(&slot.engine);
                    key_migrations[qi] += slot.engine.replacements();
                    generations_live += slot.engine.generations();
                    partials_live += slot.engine.partial_count();
                    buffered_events += slot.engine.buffered_events();
                }
            }
        }
        ShardStats {
            shard: self.shard,
            events: self.events,
            batches: self.batches,
            keys: self.keys.len(),
            engines_live: per_query.iter().map(|q| q.engines).sum(),
            generations_live,
            partials_live,
            buffered_events,
            late_dropped: self.late_dropped,
            late_routed: self.late_routed,
            reorder_depth: self.reorder.as_ref().map_or(0, ReorderBuffer::depth),
            max_reorder_depth: self.reorder.as_ref().map_or(0, ReorderBuffer::max_depth),
            reorder_overflow: self.reorder.as_ref().map_or(0, ReorderBuffer::overflow),
            reorder_overflow_by_source: self
                .reorder
                .as_ref()
                .map_or_else(Vec::new, |b| b.overflow_by_source().to_vec()),
            watermark: self.reorder.as_ref().map(ReorderBuffer::watermark),
            source_watermarks: self
                .reorder
                .as_ref()
                .map_or_else(Vec::new, ReorderBuffer::source_watermarks),
            phantom_anchor: self
                .reorder
                .as_ref()
                .and_then(ReorderBuffer::phantom_anchor),
            phantom_active: self
                .reorder
                .as_ref()
                .is_some_and(ReorderBuffer::phantom_active),
            finalize_visits: self.finalize_visits,
            emission_latency: self.emission_latency.clone(),
            per_query,
            adaptation: self.controllers.iter().map(|c| c.stats().clone()).collect(),
            key_migrations,
            telemetry_dropped: self.telemetry.dropped(),
            ring: self.ring.stats(),
            // Counted by the producer; the collecting barrier fills it.
            ships: ShipStats::default(),
            profile: self.telemetry.profile_snapshot(),
        }
    }
}

/// Moves the per-event match buffer into the pending batch, stamping
/// each match with the shard's next dense emission number. Replay after
/// recovery re-derives identical emission numbers (matches only leave
/// at message boundaries, and emission within a message is
/// deterministic), which is what makes the emit frontier an exact
/// dedup line.
fn drain_tagged(
    scratch: &mut Vec<Match>,
    pending: &mut Vec<TaggedMatch>,
    emit_seq: &mut u64,
    query: QueryId,
    key: u64,
    shard: usize,
) {
    for matched in scratch.drain(..) {
        *emit_seq += 1;
        pending.push(TaggedMatch {
            query,
            key,
            shard,
            emit: *emit_seq,
            matched,
        });
    }
}

/// Renders a caught panic payload (`&str` / `String` cover every panic
/// the runtime itself raises, including armed faultpoints).
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}
