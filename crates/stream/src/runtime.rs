//! The sharded runtime: ingestion, routing, and lifecycle.
//!
//! Ingestion is a true multicore data plane: the ingesting thread does
//! all routing work — key extraction, source tagging, shard hashing,
//! batch assembly ([`ShardBatch`]) — and hands each worker ready-to-run
//! shard-local batches over a lock-free SPSC ring ([`SpscRing`]), one
//! per shard. Workers never
//! contend with the producer (or each other) on a lock; backpressure is
//! the ring's spin-then-park protocol, whose park/wake accounting
//! surfaces in [`ShardStats::ring`](crate::stats::ShardStats::ring).
//!
//! Batches are **self-clocking**: every `push*` call ends by shipping
//! each shard's in-flight batch whose ring is empty at that moment, and
//! keeps assembling the others up to
//! [`max_batch`](StreamConfig::max_batch). An empty ring means the
//! worker has nothing queued, so events held back for it would only
//! wait; a non-empty ring means the worker is busy, and the batch grows
//! by itself for as long as that lasts. Batch size therefore follows
//! the load — one push call's worth below saturation, `max_batch` at
//! saturation — and why each batch left is counted in
//! [`ShardStats::ships`](crate::stats::ShardStats::ships). The emptiness
//! test is racy only towards "not empty" (the consumer can pop between
//! the two loads), i.e. towards holding. What remains held is bounded
//! by the caller: events routed while a ring was non-empty wait for the
//! next `push*` call or barrier — there is no timer — and
//! [`flush`](ShardedRuntime::flush) is the explicit bound.
//!
//! Every ingestion entry point takes `&mut self`: the single-producer
//! half of each ring's SPSC contract is enforced statically. To ingest
//! from several threads, partition upstream and give each thread its
//! own runtime — or funnel through one ingest thread (the design point:
//! one fast producer feeding W workers).

use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use acep_checkpoint::{CheckpointLog, EventMap, Manifest, ShardCheckpoint};
use acep_core::EngineTemplate;
use acep_types::{
    AcepError, DisorderConfig, Event, KeyExtractor, SelectionPolicy, ShardBatch, SourceId,
    SpscRing, Timestamp,
};

use crate::registry::PatternSet;
use crate::shard::{ShardWorker, ToWorker};
use crate::sink::MatchSink;
use crate::stats::{RuntimeStats, ShardStats, ShipStats};
use crate::telemetry::{build_plane, TelemetryConfig, TelemetryHub};

/// Reply a barrier records for a worker that died without sending its
/// panic payload (thread killed, reply channel dropped mid-handling).
const DIED_SILENTLY: &str = "worker exited without reporting a panic";

/// A shard worker's evaluation code panicked: the failed shard is
/// poisoned (its data is discarded, its barriers answer with the panic
/// payload) while the remaining shards keep running — their statistics
/// and matches stay retrievable, and `partial` carries whatever the
/// failing barrier already collected from them.
#[derive(Debug)]
pub struct ShardFailed {
    /// The first failed shard the barrier encountered.
    pub shard: usize,
    /// The panic payload (armed faultpoints panic with
    /// `"faultpoint: <name>"`).
    pub payload: String,
    /// Stats the barrier collected from healthy shards before
    /// returning, when the barrier collects stats (empty for flush and
    /// checkpoint barriers).
    pub partial: Vec<ShardStats>,
}

impl fmt::Display for ShardFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard worker {} failed: {}", self.shard, self.payload)
    }
}

impl std::error::Error for ShardFailed {}

/// What [`ShardedRuntime::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The sealed checkpoint's id in the log.
    pub checkpoint_id: u64,
    /// Total payload bytes of the shard frames appended (excluding
    /// framing and the manifest).
    pub bytes: u64,
}

/// What [`ShardedRuntime::recover`] restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint the runtime resumed from (the log's newest sealed
    /// one).
    pub checkpoint_id: u64,
    /// Events the checkpointed run had ingested when the barrier fired.
    /// The caller owns replay: re-ingest its event sequence starting at
    /// this offset — matches the original run already delivered are
    /// suppressed by seeding a [`DedupSink`](crate::DedupSink) with
    /// `emit_frontier`.
    pub events_ingested: u64,
    /// Per-shard emit frontier at the checkpoint (the manifest's):
    /// matches with [`emit`](crate::TaggedMatch::emit) at or below this
    /// were already delivered pre-crash.
    pub emit_frontier: Vec<u64>,
}

/// Configuration of a [`ShardedRuntime`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of worker shards (W). Partition keys are hashed across
    /// shards; the match multiset is identical for every W.
    pub shards: usize,
    /// Control messages buffered per shard ring (rounded up to a power
    /// of two, minimum 2). When a shard falls behind, ingestion blocks
    /// on its full ring — bounded-memory backpressure (spin-then-park;
    /// see [`ShardStats::ring`](crate::stats::ShardStats::ring)) rather
    /// than unbounded queueing.
    pub channel_capacity: usize,
    /// Producer-side batch cap: the most events a shard's in-flight
    /// [`ShardBatch`] holds before it ships regardless of what its
    /// worker is doing. It is a cap, not a fill target: a batch ships
    /// earlier — at the end of the `push*` call that finds the shard's
    /// ring empty, or ahead of any barrier
    /// ([`flush`](ShardedRuntime::flush), watermarks, stats,
    /// checkpoint, finish) — so it is only reached while the worker
    /// stays busy, which is when large batches pay (see the module
    /// docs).
    pub max_batch: usize,
    /// Event-time disorder tolerated at ingestion. The default
    /// (`bound == 0`) declares the stream in-order and compiles to a
    /// strict passthrough — the reordering stage does not exist and the
    /// hot path is unchanged. A positive bound `D` buffers events per
    /// shard and releases them in `(timestamp, seq)` order behind the
    /// shard watermark (see [`crate`] docs).
    pub disorder: DisorderConfig,
    /// Telemetry plane, and its only switch: `None` (the default)
    /// spawns no telemetry rings and no recorders — the hot path only
    /// ever tests a `None`. `Some` enables structured
    /// adaptation/event-time records (drained via
    /// [`ShardedRuntime::telemetry`]) and, when
    /// [`TelemetryConfig::profile_every`] > 0, sampled per-stage
    /// profiling.
    pub telemetry: Option<TelemetryConfig>,
    /// When set, every registered query runs under this selection
    /// policy instead of its pattern's own — the knob benchmarks and
    /// policy-matrix tests use to sweep one pattern set across
    /// semantics. `None` (the default) respects each
    /// [`Pattern::policy`](acep_types::Pattern::policy).
    pub policy_override: Option<SelectionPolicy>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            channel_capacity: 8,
            max_batch: 4_096,
            disorder: DisorderConfig::in_order(),
            telemetry: None,
            policy_override: None,
        }
    }
}

struct WorkerHandle {
    ring: Arc<SpscRing<ToWorker>>,
    handle: JoinHandle<()>,
}

/// A sharded, batched, multi-pattern streaming runtime.
///
/// See the [crate docs](crate) for the sharding model and its ordering
/// and determinism guarantees. Construction compiles every registered
/// query once ([`EngineTemplate`]); per-key engines are instantiated
/// lazily inside the workers as keys appear.
///
/// Ingestion (`push*`, watermarks, barriers) takes `&mut self`: the
/// runtime is a **single-producer** front-end to its workers' SPSC
/// rings, enforced statically (see module docs).
pub struct ShardedRuntime {
    workers: Vec<WorkerHandle>,
    /// Per-shard batches under producer-side assembly. Events persist
    /// here across `push*` calls only while their shard's ring is
    /// non-empty (see the module docs), and never more than `max_batch`
    /// of them.
    pending: Vec<ShardBatch>,
    /// The shards whose `pending` batch is non-empty, each once, so the
    /// end-of-push ship test costs O(shards with pending) and not O(W).
    assembling: Vec<usize>,
    /// Per-shard ship-reason counts (see [`ShipStats`]).
    ships: Vec<ShipStats>,
    extractor: Arc<dyn KeyExtractor>,
    num_queries: usize,
    telemetry: Option<Arc<TelemetryHub>>,
    /// Events routed so far (all sources). Recorded in each
    /// checkpoint's manifest so recovery can tell the caller where its
    /// replay suffix starts.
    events_ingested: u64,
}

impl ShardedRuntime {
    /// Builds the runtime and spawns its worker threads.
    pub fn new(
        set: &PatternSet,
        extractor: Arc<dyn KeyExtractor>,
        sink: Arc<dyn MatchSink>,
        config: StreamConfig,
    ) -> Result<Self, AcepError> {
        Self::build(set, extractor, sink, config, None)
    }

    /// Rebuilds a runtime from the newest sealed checkpoint in `log`,
    /// returning it with a [`RecoveryReport`].
    ///
    /// The caller must pass the same pattern set and an equivalent
    /// config as the checkpointing run — `shards` in particular is
    /// load-bearing (the shard hash pins keys to W) and is validated
    /// against the manifest. Recovery restores runtime state only; the
    /// event stream itself is the caller's durable input, so to resume,
    /// re-ingest the event sequence from
    /// [`events_ingested`](RecoveryReport::events_ingested) onward.
    /// With the sink wrapped in a
    /// [`DedupSink`](crate::DedupSink) seeded from
    /// [`emit_frontier`](RecoveryReport::emit_frontier), the recovered
    /// run's total delivered match multiset is exactly the
    /// uninterrupted run's.
    pub fn recover(
        set: &PatternSet,
        extractor: Arc<dyn KeyExtractor>,
        sink: Arc<dyn MatchSink>,
        config: StreamConfig,
        log: &CheckpointLog,
    ) -> Result<(Self, RecoveryReport), AcepError> {
        let manifest = log
            .latest_manifest()
            .map_err(|e| AcepError::Recovery(e.to_string()))?
            .ok_or_else(|| AcepError::Recovery("the log holds no sealed checkpoint".into()))?;
        if manifest.shards as usize != config.shards {
            return Err(AcepError::Recovery(format!(
                "checkpoint was taken with {} shards but the config requests {}",
                manifest.shards, config.shards
            )));
        }
        let mut frames = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            frames.push(
                log.recover_shard(manifest.checkpoint_id, shard as u32)
                    .map_err(|e| AcepError::Recovery(format!("shard {shard}: {e}")))?,
            );
        }
        let mut runtime = Self::build(set, extractor, sink, config, Some(&frames))?;
        runtime.events_ingested = manifest.events_ingested;
        let report = RecoveryReport {
            checkpoint_id: manifest.checkpoint_id,
            events_ingested: manifest.events_ingested,
            emit_frontier: manifest.emit_frontier,
        };
        Ok((runtime, report))
    }

    fn build(
        set: &PatternSet,
        extractor: Arc<dyn KeyExtractor>,
        sink: Arc<dyn MatchSink>,
        config: StreamConfig,
        restore: Option<&[(ShardCheckpoint, EventMap, u64)]>,
    ) -> Result<Self, AcepError> {
        if config.shards == 0 {
            return Err(AcepError::InvalidConfig("shards must be positive".into()));
        }
        if config.max_batch == 0 {
            return Err(AcepError::InvalidConfig(
                "max_batch must be positive".into(),
            ));
        }
        if set.is_empty() {
            return Err(AcepError::InvalidConfig(
                "a runtime needs at least one registered query".into(),
            ));
        }
        let templates: Vec<EngineTemplate> = set
            .iter()
            .map(|(_, q)| match config.policy_override {
                Some(policy) => EngineTemplate::new(
                    &q.pattern.clone().with_policy(policy),
                    set.num_types(),
                    q.config.clone(),
                ),
                None => EngineTemplate::new(&q.pattern, set.num_types(), q.config.clone()),
            })
            .collect::<Result<_, _>>()?;
        let templates: Arc<[EngineTemplate]> = templates.into();

        let (hub, worker_telemetry) = build_plane(config.telemetry.as_ref(), config.shards);
        let mut workers: Vec<WorkerHandle> = Vec::with_capacity(config.shards);
        for (shard, telemetry) in worker_telemetry.into_iter().enumerate() {
            let ring = Arc::new(SpscRing::new(config.channel_capacity.max(2)));
            let worker = match restore {
                None => ShardWorker::new(
                    shard,
                    Arc::clone(&templates),
                    Arc::clone(&sink),
                    config.disorder,
                    telemetry,
                    Arc::clone(&ring),
                ),
                Some(frames) => {
                    let (rec, events, bytes) = &frames[shard];
                    match ShardWorker::from_checkpoint(
                        shard,
                        Arc::clone(&templates),
                        Arc::clone(&sink),
                        config.disorder,
                        telemetry,
                        Arc::clone(&ring),
                        rec,
                        events,
                        *bytes,
                    ) {
                        Ok(worker) => worker,
                        Err(e) => {
                            // Unpark the shards already spawned before
                            // surfacing the failure.
                            for w in workers.drain(..) {
                                w.ring.close();
                                let _ = w.handle.join();
                            }
                            return Err(AcepError::Recovery(e));
                        }
                    }
                }
            };
            let handle = std::thread::Builder::new()
                .name(format!("acep-shard-{shard}"))
                .spawn(move || worker.run())
                .expect("spawning a shard worker thread");
            workers.push(WorkerHandle { ring, handle });
        }
        let pending = (0..workers.len())
            .map(|_| ShardBatch::with_cap(config.max_batch))
            .collect();
        Ok(Self {
            assembling: Vec::with_capacity(workers.len()),
            ships: vec![ShipStats::default(); workers.len()],
            workers,
            pending,
            extractor,
            num_queries: set.len(),
            telemetry: hub,
            events_ingested: 0,
        })
    }

    /// The telemetry collector hub, when `config.telemetry` enabled
    /// it; `None` otherwise. Clone the `Arc` to keep polling — or
    /// reconstruct the audit log — after [`finish`](Self::finish)
    /// consumed the runtime.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.telemetry.as_ref()
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Number of hosted queries.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// The shard a partition key is pinned to. SplitMix64-mixed so
    /// near-contiguous key spaces still spread evenly.
    fn shard_of(&self, key: u64) -> usize {
        acep_types::mix64(key) as usize % self.workers.len()
    }

    /// Ingests one event (convenience wrapper over [`push_batch`]).
    ///
    /// [`push_batch`]: Self::push_batch
    pub fn push(&mut self, ev: &Arc<Event>) {
        self.push_batch(std::slice::from_ref(ev));
    }

    /// Ingests one event from a declared source
    /// (see [`push_batch_from`](Self::push_batch_from)).
    pub fn push_from(&mut self, source: SourceId, ev: &Arc<Event>) {
        self.push_batch_from(source, std::slice::from_ref(ev));
    }

    /// Ingests a batch attributed to [`SourceId::MERGED`]: events are
    /// routed into their shards' in-flight batches by partition key
    /// (extracted here, on the producer side), preserving the input
    /// order *within every key*. A batch ships when it reaches
    /// `max_batch`, and at the end of this call if its shard's ring is
    /// empty — so events pushed into an idle runtime reach their worker
    /// without a barrier. Events for a shard whose worker still has a
    /// message queued stay assembled until the next `push*` call or
    /// barrier. Blocks when a shard's ring is full (backpressure).
    pub fn push_batch(&mut self, events: &[Arc<Event>]) {
        self.route(events.iter().map(|ev| (SourceId::MERGED, ev)));
    }

    /// Ingests a batch attributed to one ingestion `source` — a
    /// producer, broker partition, sensor… Under
    /// [`WatermarkStrategy::PerSource`](acep_types::WatermarkStrategy)
    /// each shard tracks the sources' high-water timestamps separately
    /// and its watermark follows the slowest non-idle one, so a small
    /// per-source disorder bound tolerates arbitrarily large skew
    /// *between* sources. Under a `Merged` strategy the source is
    /// ignored.
    pub fn push_batch_from(&mut self, source: SourceId, events: &[Arc<Event>]) {
        self.route(events.iter().map(|ev| (source, ev)));
    }

    /// Ingests an interleaving of several sources in one call, each
    /// event tagged with its source.
    pub fn push_tagged(&mut self, events: &[(SourceId, Arc<Event>)]) {
        self.route(events.iter().map(|(s, ev)| (*s, ev)));
    }

    /// Routes source-tagged events into the per-shard in-flight batches
    /// (see [`push_batch`](Self::push_batch) for the ordering
    /// contract), shipping each batch as it reaches the cap and, once
    /// everything is routed, each batch whose worker has nothing
    /// queued.
    fn route<'a>(&mut self, events: impl Iterator<Item = (SourceId, &'a Arc<Event>)>) {
        for (source, ev) in events {
            // The key travels with the event so workers never re-run
            // the extractor (it may hash string attributes).
            let key = self.extractor.shard_key(ev);
            let shard = self.shard_of(key);
            self.events_ingested += 1;
            let batch = &mut self.pending[shard];
            if batch.is_empty() {
                self.assembling.push(shard);
            }
            if batch.push(key, source, Arc::clone(ev)) {
                self.assembling.retain(|&s| s != shard);
                self.ship(shard);
                self.ships[shard].full += 1;
            }
        }
        // Self-clocking: an empty ring means the worker has nothing
        // queued, so what is assembled for it leaves now. `is_empty`
        // can only err towards "not empty" (the worker pops between its
        // two loads), which holds the batch until the next call.
        let mut assembling = std::mem::take(&mut self.assembling);
        assembling.retain(|&shard| {
            let idle = self.workers[shard].ring.is_empty();
            if idle {
                self.ship(shard);
                self.ships[shard].idle += 1;
            }
            !idle
        });
        self.assembling = assembling;
    }

    /// The runtime's position in the caller's event sequence: events
    /// routed so far, resuming from the manifest's offset after
    /// [`recover`](Self::recover). Each checkpoint's manifest records
    /// this as the replay point.
    pub fn events_ingested(&self) -> u64 {
        self.events_ingested
    }

    /// Ships shard `shard`'s in-flight (non-empty) batch to its worker.
    fn ship(&mut self, shard: usize) {
        let events = self.pending[shard].take();
        self.send(shard, ToWorker::Batch(events));
    }

    /// Ships every shard's in-flight batch. Every control message
    /// (watermark, flush, stats, checkpoint, finish) must be preceded
    /// by this: events pushed before a barrier must reach their worker
    /// before the barrier's message, or the barrier would acknowledge a
    /// prefix it never saw.
    fn drain_pending(&mut self) {
        while let Some(shard) = self.assembling.pop() {
            self.ship(shard);
            self.ships[shard].barrier += 1;
        }
    }

    /// Attaches the producer-side ship counts to a worker's snapshot.
    fn with_ships(&self, mut stats: ShardStats) -> ShardStats {
        stats.ships = self.ships[stats.shard];
        stats
    }

    /// Punctuation: advances the event-time watermark of every shard to
    /// at least `ts`, releasing buffered events up to it. Use this when
    /// the source *knows* completeness (e.g. a Kafka partition's
    /// committed offset time) ahead of the heuristic
    /// `max_seen - bound`: events arriving later with
    /// `timestamp < ts` become late. Watermarks are monotone — a lower
    /// `ts` than a previously announced one is a no-op. On an in-order
    /// (passthrough) runtime nothing is buffered, but the punctuation
    /// still advances every engine's stream clock, releasing matches
    /// pending a trailing-negation/Kleene deadline before `ts`.
    pub fn advance_watermark(&mut self, ts: Timestamp) {
        self.drain_pending();
        for shard in 0..self.workers.len() {
            self.send(shard, ToWorker::Watermark(ts));
        }
    }

    /// Barrier: returns once every worker has processed every event
    /// pushed before this call — including events still assembling in
    /// producer-side batches, which are shipped first. After `flush`,
    /// all matches detectable from the ingested prefix have reached the
    /// sink.
    ///
    /// With a non-zero disorder bound, events still held by a shard's
    /// reordering buffer are *not* forced out — they await their
    /// watermark (or [`finish`](Self::finish), which releases
    /// everything; or [`flush_until`](Self::flush_until), which
    /// releases a watermark-proven prefix). Forcing them here would
    /// break delivery-order independence for events the watermark has
    /// not yet cleared.
    pub fn flush(&mut self) {
        if let Err(e) = self.try_flush() {
            panic!(
                "shard worker {} died before acknowledging the flush: {}",
                e.shard, e.payload
            );
        }
    }

    /// [`flush`](Self::flush) that surfaces a poisoned shard as
    /// [`ShardFailed`] instead of panicking — the barrier on which a
    /// contained worker panic (see [`ShardFailed`]) becomes observable.
    /// Healthy shards have still processed everything pushed before
    /// this call.
    pub fn try_flush(&mut self) -> Result<(), ShardFailed> {
        self.drain_pending();
        let acks: Vec<_> = (0..self.workers.len())
            .map(|shard| {
                let (ack_tx, ack_rx) = mpsc::channel();
                self.send(shard, ToWorker::Flush(ack_tx));
                ack_rx
            })
            .collect();
        let mut failure: Option<(usize, String)> = None;
        for (shard, ack) in acks.into_iter().enumerate() {
            // A worker dying mid-flush must not let the caller believe
            // the barrier held — but keep collecting the other acks so
            // every shard is quiesced when this returns.
            let result = match ack.recv() {
                Ok(Ok(())) => continue,
                Ok(Err(payload)) => payload,
                Err(_) => DIED_SILENTLY.to_string(),
            };
            failure.get_or_insert((shard, result));
        }
        match failure {
            None => Ok(()),
            Some((shard, payload)) => Err(ShardFailed {
                shard,
                payload,
                partial: Vec::new(),
            }),
        }
    }

    /// Punctuation **and** barrier: advances every shard's watermark to
    /// at least `ts` and returns once the effects are visible at the
    /// sink. Afterwards every event with `timestamp < ts` pushed before
    /// this call has been released in order and processed, and every
    /// match whose finalization deadline precedes `ts` has been
    /// emitted.
    ///
    /// With a heuristic-free config (`bounded(u64::MAX)` or
    /// `per_source` with `idle_timeout == u64::MAX`) the converse also
    /// holds — events at or after `ts` stay buffered, untouched —
    /// making this the exactly-once window-emission hook: punctuate
    /// the window boundary, then read the sink knowing the window's
    /// match set is complete and nothing of the next window leaked
    /// out. Under a heuristic strategy the watermark may already have
    /// run past `ts` on its own, so `ts` is a lower bound on what has
    /// emitted, not an upper one.
    pub fn flush_until(&mut self, ts: Timestamp) {
        self.advance_watermark(ts);
        self.flush();
    }

    /// Consistent per-shard/per-query statistics snapshot. Implies a
    /// [`flush`](Self::flush)-equivalent barrier (the snapshot is taken
    /// after all previously pushed events, including any still
    /// assembling in producer-side batches).
    pub fn stats(&mut self) -> RuntimeStats {
        match self.try_stats() {
            Ok(stats) => stats,
            Err(e) => panic!(
                "shard worker {} died before replying with stats: {}",
                e.shard, e.payload
            ),
        }
    }

    /// [`stats`](Self::stats) that surfaces a poisoned shard as
    /// [`ShardFailed`] instead of panicking. On failure,
    /// [`partial`](ShardFailed::partial) carries the healthy shards'
    /// snapshots — a contained panic loses one shard's numbers, not the
    /// run's.
    pub fn try_stats(&mut self) -> Result<RuntimeStats, ShardFailed> {
        self.drain_pending();
        let replies: Vec<_> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, ToWorker::Stats(tx));
                rx
            })
            .collect();
        let mut shards = Vec::with_capacity(replies.len());
        let mut failure: Option<(usize, String)> = None;
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(Ok(stats)) => shards.push(self.with_ships(stats)),
                Ok(Err(payload)) => {
                    failure.get_or_insert((shard, payload));
                }
                Err(_) => {
                    failure.get_or_insert((shard, DIED_SILENTLY.to_string()));
                }
            }
        }
        match failure {
            None => Ok(RuntimeStats { shards }),
            Some((shard, payload)) => Err(ShardFailed {
                shard,
                payload,
                partial: shards,
            }),
        }
    }

    /// Checkpoint barrier: quiesces every shard (in-flight producer
    /// batches ship first, and a shard's reply implies it processed
    /// every prior message), serializes each shard's full recoverable
    /// state, and appends one incremental frame per shard plus a
    /// sealing manifest to `log`. The manifest records
    /// [`events_ingested`](Self::events_ingested) — the caller's replay
    /// offset — and the per-shard emit frontier for sink-side dedup.
    ///
    /// Incremental: events already persisted for a shard by an earlier
    /// checkpoint *into the same log by this runtime incarnation* are
    /// not re-encoded; recovery folds the frame chain. A crash while
    /// appending leaves an unsealed (manifest-less) checkpoint, which
    /// recovery ignores in favor of the previous sealed one.
    ///
    /// On [`ShardFailed`] nothing is appended to `log` — a poisoned
    /// shard cannot checkpoint, and partial checkpoints without their
    /// manifest would only be dead weight.
    pub fn checkpoint(&mut self, log: &mut CheckpointLog) -> Result<CheckpointStats, ShardFailed> {
        self.drain_pending();
        let replies: Vec<_> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, ToWorker::Checkpoint(tx));
                rx
            })
            .collect();
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(replies.len());
        let mut emit_frontier = vec![0u64; replies.len()];
        let mut failure: Option<(usize, String)> = None;
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(Ok((bytes, emit))) => {
                    emit_frontier[shard] = emit;
                    frames.push(bytes);
                }
                Ok(Err(payload)) => {
                    failure.get_or_insert((shard, payload));
                }
                Err(_) => {
                    failure.get_or_insert((shard, DIED_SILENTLY.to_string()));
                }
            }
        }
        if let Some((shard, payload)) = failure {
            return Err(ShardFailed {
                shard,
                payload,
                partial: Vec::new(),
            });
        }
        let checkpoint_id = log.next_checkpoint_id();
        let mut bytes = 0u64;
        for (shard, frame) in frames.iter().enumerate() {
            bytes += frame.len() as u64;
            log.append_shard(checkpoint_id, shard as u32, frame);
        }
        log.append_manifest(&Manifest {
            checkpoint_id,
            shards: self.workers.len() as u32,
            events_ingested: self.events_ingested,
            emit_frontier,
        });
        Ok(CheckpointStats {
            checkpoint_id,
            bytes,
        })
    }

    /// Ends the stream: ships the in-flight producer batches, drains
    /// every shard (including events still held by reordering buffers —
    /// the watermark jumps to infinity), flushes end-of-stream matches
    /// from all engines to the sink, joins the workers, and returns the
    /// final statistics.
    pub fn finish(self) -> RuntimeStats {
        match self.try_finish() {
            Ok(stats) => stats,
            Err(e) => panic!(
                "shard worker {} died before finishing its keys: {}",
                e.shard, e.payload
            ),
        }
    }

    /// [`finish`](Self::finish) that surfaces a poisoned shard as
    /// [`ShardFailed`] instead of panicking. Healthy shards still drain
    /// their buffers, flush end-of-stream matches to the sink, and
    /// report final stats (via [`partial`](ShardFailed::partial));
    /// returning partial stats as if complete would silently truncate
    /// the stream, so the failure stays an error. Workers are joined
    /// either way.
    pub fn try_finish(mut self) -> Result<RuntimeStats, ShardFailed> {
        self.drain_pending();
        let replies: Vec<_> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, ToWorker::Finish(tx));
                rx
            })
            .collect();
        let mut shards = Vec::with_capacity(replies.len());
        let mut failure: Option<(usize, String)> = None;
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(Ok(stats)) => shards.push(self.with_ships(stats)),
                Ok(Err(payload)) => {
                    failure.get_or_insert((shard, payload));
                }
                Err(_) => {
                    failure.get_or_insert((shard, DIED_SILENTLY.to_string()));
                }
            }
        }
        for (shard, w) in self.workers.drain(..).enumerate() {
            w.ring.close();
            if w.handle.join().is_err() {
                failure.get_or_insert((shard, "worker panicked during shutdown".to_string()));
            }
        }
        match failure {
            None => Ok(RuntimeStats { shards }),
            Some((shard, payload)) => Err(ShardFailed {
                shard,
                payload,
                partial: shards,
            }),
        }
    }

    fn send(&self, shard: usize, msg: ToWorker) {
        // A dead consumer means the worker thread panicked; surface
        // that on the runtime thread instead of parking forever on a
        // ring nobody drains.
        let ring = &self.workers[shard].ring;
        if ring.is_consumer_gone() {
            panic!("shard worker {shard} terminated unexpectedly");
        }
        ring.push(msg);
    }
}

impl Drop for ShardedRuntime {
    /// Dropping without [`finish`](Self::finish) tears the workers down
    /// without flushing end-of-stream matches (or the in-flight
    /// producer batches).
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            w.ring.close();
            let _ = w.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;
    use std::time::Duration;

    use acep_core::AdaptiveConfig;
    use acep_types::{AttrKeyExtractor, EventTypeId, Pattern, Value};

    use super::*;
    use crate::sink::TaggedMatch;

    /// How long a test waits for a worker before calling the event
    /// stuck. Generous: only a hang ever waits it out.
    const PATIENCE: Duration = Duration::from_secs(60);

    /// Reports the size of every `on_batch` call to the test thread,
    /// then holds the worker inside the call for as long as the gate's
    /// sender is alive.
    struct ProbeSink {
        seen: Mutex<Sender<usize>>,
        gate: Mutex<Receiver<()>>,
    }

    impl MatchSink for ProbeSink {
        fn on_match(&self, m: TaggedMatch) {
            self.on_batch(vec![m]);
        }

        fn on_batch(&self, ms: Vec<TaggedMatch>) {
            let _ = self.seen.lock().unwrap().send(ms.len());
            // `Err` = the test dropped the gate: open for good.
            let _ = self.gate.lock().unwrap().recv();
        }
    }

    /// A runtime over `SEQ(T0, T1)` per user, its sink's report channel
    /// and the gate (drop it to let the sink return).
    fn probe_runtime(config: StreamConfig) -> (ShardedRuntime, Receiver<usize>, Sender<()>) {
        let mut set = PatternSet::new(2);
        let pair = Pattern::sequence("pair", &[EventTypeId(0), EventTypeId(1)], 1_000_000);
        set.register("pair", pair, AdaptiveConfig::default())
            .unwrap();
        let (seen_tx, seen_rx) = channel();
        let (gate_tx, gate_rx) = channel();
        let sink = Arc::new(ProbeSink {
            seen: Mutex::new(seen_tx),
            gate: Mutex::new(gate_rx),
        });
        let runtime =
            ShardedRuntime::new(&set, Arc::new(AttrKeyExtractor { attr: 0 }), sink, config)
                .unwrap();
        (runtime, seen_rx, gate_tx)
    }

    fn event(ty: u32, user: i64, seq: u64) -> Arc<Event> {
        Event::new(EventTypeId(ty), seq, seq, vec![Value::Int(user)])
    }

    /// Waits until the sink has reported `matches` matches.
    fn await_matches(seen: &Receiver<usize>, matches: usize) {
        let mut got = 0;
        while got < matches {
            got += seen
                .recv_timeout(PATIENCE)
                .expect("a pushed event reaches the sink without a barrier");
        }
        assert_eq!(got, matches);
    }

    /// One event, then one small chunk, pushed into an idle runtime
    /// reach the sink with no barrier call: the ring is empty, so the
    /// push itself ships them.
    #[test]
    fn events_pushed_into_an_idle_runtime_need_no_barrier() {
        const USERS: i64 = 8;
        for shards in [1, 4] {
            let (mut runtime, seen, gate) = probe_runtime(StreamConfig {
                shards,
                ..StreamConfig::default()
            });
            drop(gate);
            let opens: Vec<_> = (0..USERS).map(|u| event(0, u, u as u64)).collect();
            runtime.push_batch(&opens);
            runtime.flush();

            runtime.push(&event(1, 0, 100));
            await_matches(&seen, 1);
            // The match arrived, so user 0's worker has popped that
            // message: every ring is empty again.
            let closes: Vec<_> = (1..USERS).map(|u| event(1, u, 100 + u as u64)).collect();
            runtime.push_batch(&closes);
            await_matches(&seen, USERS as usize - 1);

            let stats = runtime.finish();
            let ships = stats.total_ships();
            assert_eq!(
                (ships.full, ships.barrier),
                (0, 0),
                "W={shards}: every batch left because its ring was empty: {ships:?}"
            );
            let batches: u64 = stats.shards.iter().map(|s| s.batches).sum();
            assert_eq!(ships.idle, batches, "W={shards}: one message per ship");
            assert!(ships.idle >= 3, "W={shards}: three pushes shipped");
            assert_eq!(stats.total_events(), 2 * USERS as u64);
        }
    }

    /// The converse: while the worker is stuck (here inside the sink)
    /// and its ring holds a message, pushes keep assembling and only
    /// full `max_batch` batches ship; producer-side pending never
    /// exceeds `max_batch`, the ring never exceeds `channel_capacity`,
    /// and everything drains once the worker moves again.
    #[test]
    fn a_busy_worker_is_sent_only_full_batches() {
        const MAX_BATCH: usize = 8;
        const CAPACITY: usize = 4;
        let (mut runtime, seen, gate) = probe_runtime(StreamConfig {
            shards: 1,
            channel_capacity: CAPACITY,
            max_batch: MAX_BATCH,
            ..StreamConfig::default()
        });
        let mut seq = 0u64;
        let mut filler = |n: usize| -> Vec<Arc<Event>> {
            (0..n)
                .map(|_| {
                    seq += 1;
                    event(0, 1_000 + seq as i64, 1_000 + seq)
                })
                .collect()
        };
        let check = |runtime: &ShardedRuntime, pending: usize, queued: usize, ships: [u64; 3]| {
            assert_eq!(runtime.pending[0].len(), pending, "producer-side pending");
            assert!(runtime.pending[0].len() < MAX_BATCH);
            assert_eq!(runtime.workers[0].ring.len(), queued, "ring occupancy");
            assert!(queued <= CAPACITY);
            let s = runtime.ships[0];
            assert_eq!([s.full, s.idle, s.barrier], ships, "full/idle/barrier");
        };

        runtime.push(&event(0, 0, 0));
        runtime.flush();
        runtime.push(&event(1, 0, 1));
        await_matches(&seen, 1);
        // The worker now sits inside the sink, its ring empty.
        check(&runtime, 0, 0, [0, 2, 0]);

        runtime.push_batch(&filler(1));
        check(&runtime, 0, 1, [0, 3, 0]);
        for held in 1..=3 {
            runtime.push_batch(&filler(1));
            check(&runtime, held, 1, [0, 3, 0]);
        }
        runtime.push_batch(&filler(5));
        check(&runtime, 0, 2, [1, 3, 0]);
        runtime.push_batch(&filler(2 * MAX_BATCH));
        check(&runtime, 0, 4, [3, 3, 0]);
        runtime.push_batch(&filler(MAX_BATCH - 1));
        check(&runtime, MAX_BATCH - 1, 4, [3, 3, 0]);

        drop(gate);
        runtime.flush();
        check(&runtime, 0, 0, [3, 3, 1]);
        let stats = runtime.finish();
        assert_eq!(stats.total_events(), 2 + 1 + 3 + 5 + 16 + 7);
        let ring = stats.shards[0].ring;
        assert_eq!(ring.occupancy_high_water, CAPACITY);
        assert_eq!(stats.shards[0].ships.total(), stats.shards[0].batches);
    }
}
