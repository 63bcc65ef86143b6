//! # acep-stream — sharded multi-pattern streaming runtime
//!
//! Scales the single-pattern, single-threaded [`AdaptiveCep`] loop of
//! `acep-core` to a production-shaped deployment: **many patterns**,
//! evaluated **per partition key**, across **W parallel worker shards**,
//! fed by **producer-partitioned batches over lock-free SPSC rings**.
//!
//! ## Sharding model
//!
//! Incoming events are mapped to a 64-bit *partition key* by a
//! user-supplied [`KeyExtractor`] (stock symbol, road segment, user id,
//! …) **on the ingesting thread**, which also tags sources and
//! assembles per-shard [`ShardBatch`](acep_types::ShardBatch)es —
//! workers receive ready-to-run shard-local batches over one bounded
//! lock-free [`SpscRing`] per shard (spin-then-park backpressure; see
//! [`acep_types::ring`] and [`ShardStats::ring`]), so the only
//! cross-thread hand-off on the hot path is the ring's head/tail
//! publication.
//! Batches are self-clocking: a `push*` call ships every batch whose
//! shard has an empty ring, and a batch only grows — up to
//! [`StreamConfig::max_batch`] — while its worker still has a message
//! queued. Detection latency below saturation is therefore service
//! time, not batch fill time, and at saturation batches are as large
//! as ever (see [`runtime`] and [`ShardStats::ships`]).
//! Ingestion entry points take `&mut self` — the single-producer half
//! of the rings' SPSC contract is a compile-time fact, not a runtime
//! check. Keys are hashed onto `W` worker threads; each worker owns one
//! [`QueryController`](acep_core::QueryController) per query — the
//! shard's shared adaptation plane — and one lazily-instantiated
//! [`KeyedEngine`](acep_core::KeyedEngine) per `(key, query)` pair,
//! stamped from the controller so new keys start on the currently
//! adapted plan. Patterns are compiled exactly once into per-query
//! [`EngineTemplate`](acep_core::EngineTemplate)s and registered up
//! front in a [`PatternSet`], each under its own [`QueryId`] and with
//! its own [`AdaptiveConfig`](acep_core::AdaptiveConfig).
//!
//! ```text
//!                    ┌────────────────────── ShardedRuntime ──┐
//!  push_batch(&[e])  │   ┌─ shard 0: controllers [Q0, Q1, …] │
//!  ── key = extract ─┼──▶│            { key ↦ [engine Q0,    │──▶ MatchSink
//!     hash(key) % W  │   │                     engine Q1] }  │    (tagged
//!   ship: ring empty │   ├─ shard 1: …                       │     matches)
//!    or max_batch    │   └─ shard W-1: …                     │
//!                    └────────────────────────────────────────┘
//! ```
//!
//! ## Ordering and determinism guarantees
//!
//! * **Per-key total order.** All events of one key land on one shard
//!   and are processed in ingest order; each `(key, query)` engine sees
//!   exactly the subsequence it would see in a single-threaded per-key
//!   run.
//! * **No cross-key order.** Workers run concurrently; matches of
//!   different keys reach the [`MatchSink`] in nondeterministic
//!   interleaving. Consumers needing global order must sort on match
//!   timestamps downstream.
//! * **Shard-count independence.** The match *multiset* (and every
//!   per-key match sequence) is identical for every `W` — verified by
//!   the `stream_determinism` integration test, which checks `W = 4`
//!   against `W = 1` and against direct per-key [`AdaptiveCep`] runs.
//! * **Windows and flushes.** Time windows are evaluated on event
//!   timestamps within each key's substream, so window expiry needs no
//!   cross-shard coordination. [`ShardedRuntime::flush`] is a barrier
//!   (all pushed events processed, their matches delivered);
//!   [`ShardedRuntime::finish`] additionally flushes end-of-stream
//!   state from every engine, exactly like [`AdaptiveCep::finish`].
//!
//! ## Event time and out-of-order ingestion
//!
//! By default the runtime is an **arrival-time** system: it trusts the
//! input to be sorted by `(timestamp, seq)` and forwards events to the
//! engines untouched. A non-passthrough [`DisorderConfig`] in
//! [`StreamConfig`] switches ingestion to **event time**: each shard
//! holds arriving events in a reordering buffer (a min-heap on
//! `(timestamp, seq)`) and releases them to its engines only once the
//! shard *watermark* has strictly passed their timestamp. The
//! watermark follows the configured [`WatermarkStrategy`]:
//! `Merged(D)` derives `max_seen - D` from the merged arrivals;
//! `PerSource { bound, idle_timeout }` tracks `max_seen` per declared
//! [`SourceId`] (see [`ShardedRuntime::push_batch_from`]) and follows
//! the slowest
//! non-idle source, so a small per-source bound tolerates arbitrarily
//! large *inter*-source skew. As long as the delivery respects the
//! strategy's contract, the engines see exactly the sorted stream, so
//! the match multiset is **delivery-order independent** — verified by
//! the `order_invariance` integration test. Events that do arrive
//! behind the watermark are *late*: [`LatenessPolicy::Drop`] counts
//! them in [`ShardStats::late_dropped`], [`LatenessPolicy::Route`]
//! hands them to [`MatchSink::on_late`].
//!
//! The watermark does more than release buffered events: it **drives
//! finalization**. Matches held for a trailing-negation or
//! trailing-Kleene deadline emit as soon as the shard watermark proves
//! the deadline passed, instead of waiting for the next engine-visible
//! event of their own key. Watermarks can be advanced explicitly via
//! [`ShardedRuntime::advance_watermark`] (punctuation) — with
//! `bound == u64::MAX` that is the *only* way they advance — and
//! [`ShardedRuntime::flush_until`] combines punctuation with a barrier
//! for exactly-once window emission. A
//! [`max_buffered`](acep_types::DisorderConfig::max_buffered) cap
//! bounds the buffer, force-releasing the oldest events on overflow
//! ([`ShardStats::reorder_overflow`]), so worst-case memory is
//! explicit. A passthrough config (`Merged(0)`, the default) compiles
//! to the unbuffered hot path — it pays nothing for the event-time
//! machinery (the `reorder_overhead` bench checks this against
//! `scale_shards`).
//!
//! ## Adaptation is per (shard, query), evaluation is per key
//!
//! The paper's detection-adaptation loop adapts *per pattern*, and so
//! does this runtime: each shard hosts one
//! [`QueryController`](acep_core::QueryController) per query —
//! statistics collector, decision function `D`, planner `A` — observing
//! every relevant event of the shard once. Per-key state is a lean
//! [`KeyedEngine`](acep_core::KeyedEngine): branch executors only, no
//! collector, no planner, no policy, so per-key memory is the
//! partial-match state and nothing else. A deployment bumps the
//! controller's *plan epoch*; engines rebuild and migrate losslessly on
//! their next event (cold keys instantiate directly on the adapted
//! plan), making the cost of a re-plan independent of key cardinality.
//! Controllers are shard-local — there is still no cross-shard
//! synchronization on the hot path. Events whose type a query never
//! references are not routed to that query (or its controller) at all;
//! they cannot affect its match set. Per-shard controllers mean
//! adaptation *statistics* (unlike the match multiset and the
//! evaluation stats) depend on the shard count — see
//! [`ShardStats::adaptation`].
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use acep_core::AdaptiveConfig;
//! use acep_stream::{CollectingSink, PatternSet, ShardedRuntime, StreamConfig};
//! use acep_types::{AttrKeyExtractor, Event, EventTypeId, Pattern, Value};
//!
//! // One query: SEQ(T0, T1) within 1 s, per user id (attribute 0).
//! let mut set = PatternSet::new(2);
//! let seq = Pattern::sequence("pair", &[EventTypeId(0), EventTypeId(1)], 1_000);
//! let q = set.register("pair", seq, AdaptiveConfig::default()).unwrap();
//!
//! let sink = Arc::new(CollectingSink::new());
//! let mut runtime = ShardedRuntime::new(
//!     &set,
//!     Arc::new(AttrKeyExtractor { attr: 0 }),
//!     Arc::clone(&sink) as _,
//!     StreamConfig { shards: 2, ..StreamConfig::default() },
//! )
//! .unwrap();
//!
//! // Users 7 and 8 both emit T0 then T1 inside the window.
//! let mut events = Vec::new();
//! for (i, (ty, user)) in [(0, 7), (0, 8), (1, 7), (1, 8)].into_iter().enumerate() {
//!     events.push(Event::new(
//!         EventTypeId(ty),
//!         100 * i as u64,
//!         i as u64,
//!         vec![Value::Int(user)],
//!     ));
//! }
//! runtime.push_batch(&events);
//! let stats = runtime.finish();
//!
//! assert_eq!(stats.total_events(), 4);
//! assert_eq!(stats.query(q).matches, 2, "one match per user");
//! assert_eq!(sink.drain().len(), 2);
//! ```

pub mod registry;
mod reorder;
pub mod runtime;
mod shard;
pub mod sink;
pub mod stats;
pub mod telemetry;

pub use registry::{PatternSet, QueryId, QuerySpec};
pub use runtime::{CheckpointStats, RecoveryReport, ShardFailed, ShardedRuntime, StreamConfig};
pub use sink::{CollectingSink, CountingSink, DedupSink, LateEvent, MatchSink, TaggedMatch};

/// Checkpoint/recovery plumbing, re-exported so hosts can drive
/// [`ShardedRuntime::checkpoint`]/[`ShardedRuntime::recover`] without
/// naming the `acep-checkpoint` crate.
pub use acep_checkpoint::{CheckpointError, CheckpointLog, Manifest};

/// Fault-injection registry (test builds only): arm a named
/// [`FaultPoint`](acep_types::faultpoint::FaultPoint) to kill a worker
/// mid-operation and exercise the recovery path.
#[cfg(feature = "fault-injection")]
pub use acep_types::faultpoint;
pub use stats::{QueryStats, RuntimeStats, ShardProfile, ShardStats, SourceWatermark};
pub use telemetry::{TelemetryConfig, TelemetryHub};

// Re-exported so runtime users need not depend on `acep-types` or
// `acep-core` for the common extractors, the event-time configuration,
// the shard ring, and the adaptation-stats rollups — or on
// `acep-telemetry` for the histogram / audit / exporter surface the
// stats snapshot exposes.
pub use acep_core::{AdaptationStats, AdaptiveCep};
pub use acep_telemetry::{
    AuditLog, Histogram, MetricsRegistry, PlanTransition, QueryTrajectory, TelemetryEvent,
};
pub use acep_types::{
    AttrKeyExtractor, DisorderConfig, KeyExtractor, LastAttrKeyExtractor, LatenessPolicy,
    RingStats, SourceId, SpscRing, WatermarkStrategy,
};

/// Compile-time guarantees: controllers, engines and templates cross
/// thread boundaries, sinks and extractors are shared.
#[allow(dead_code)]
fn assert_thread_bounds() {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    send::<acep_core::AdaptiveCep>();
    send::<acep_core::QueryController>();
    send::<acep_core::KeyedEngine>();
    send_sync::<acep_core::EngineTemplate>();
    send_sync::<CollectingSink>();
    send_sync::<CountingSink>();
    send_sync::<LastAttrKeyExtractor>();
}
