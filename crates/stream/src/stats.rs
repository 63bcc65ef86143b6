//! Observability snapshots of a running sharded runtime.
//!
//! Two planes roll up separately, mirroring the runtime's split:
//!
//! * **Evaluation** ([`QueryStats`]) — per-key [`KeyedEngine`] counters
//!   (instances, events, matches), aggregated per query. These depend
//!   only on each key's substream, so they are invariant under the
//!   shard count and the delivery order (within the disorder contract).
//! * **Adaptation** ([`AdaptationStats`]) —
//!   the per-(shard, query) controllers' decision/planning counters and
//!   plan epochs. These are a property of *shard-scoped* statistics:
//!   re-sharding moves events between controllers, so adaptation
//!   counters are reported per shard and summed, never expected to be
//!   shard-count invariant.
//!
//! Snapshots are taken *on* the worker thread (via a control message),
//! so they are always internally consistent with the events processed
//! so far.
//!
//! Distributions (emission latency, control-step wall time, the sampled
//! [`ShardProfile`] stage spans) are log₂-bucketed
//! [`Histogram`]s — p50/p90/p99/max at power-of-two resolution, exact
//! count/min/max/sum. [`RuntimeStats::telemetry_snapshot`] flattens a
//! whole snapshot into a [`MetricsRegistry`] with stable,
//! golden-tested metric names for the Prometheus / JSON exporters.

use acep_core::{AdaptationStats, KeyedEngine};
use acep_telemetry::{Histogram, MetricsRegistry};
use acep_types::{RingStats, SourceId, Timestamp};

use crate::registry::QueryId;

/// Rollup of every keyed engine instance of one query (within one
/// shard, or merged across shards).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Engine instances (= partition keys with ≥ 1 relevant event).
    pub engines: usize,
    /// Events routed into engines of this query.
    pub events: u64,
    /// Matches emitted.
    pub matches: u64,
}

impl QueryStats {
    /// Folds one keyed engine's counters into the rollup.
    pub fn absorb(&mut self, engine: &KeyedEngine) {
        self.engines += 1;
        self.events += engine.events();
        self.matches += engine.matches();
    }

    /// Merges another rollup (e.g. the same query from another shard).
    pub fn merge(&mut self, other: &QueryStats) {
        self.engines += other.engines;
        self.events += other.events;
        self.matches += other.matches;
    }
}

/// Progress of one ingestion source on one shard, under a
/// [`PerSource`](acep_types::WatermarkStrategy::PerSource) watermark
/// strategy (empty under `Merged`, where sources are not tracked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceWatermark {
    /// The source.
    pub source: SourceId,
    /// Largest event timestamp this source ingested on this shard.
    pub max_seen: Timestamp,
    /// Whether the source currently counts as idle (trails the shard's
    /// global maximum by more than `idle_timeout`) and is therefore
    /// excluded from the watermark minimum.
    pub idle: bool,
}

/// Sampled per-stage profile of one shard (or merged across shards):
/// wall-time spans of the worker's four pipeline stages plus
/// batch-shape and arena-occupancy distributions, measured on every Nth
/// batch per [`TelemetryConfig::profile_every`](crate::TelemetryConfig).
///
/// All values are from *sampled* batches only — distributions, not
/// totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Events routed into the shard per sampled batch.
    pub batch_events: Histogram,
    /// Reorder-buffer depth after each sampled batch's release.
    pub reorder_depth: Histogram,
    /// Live partial matches across the shard's engines at sample time.
    pub arena_live: Histogram,
    /// Allocated arena binding nodes (live + garbage awaiting
    /// compaction) at sample time.
    pub arena_nodes: Histogram,
    /// Ingest span (routing + reorder offers / passthrough evaluation),
    /// µs per sampled batch.
    pub stage_ingest_us: Histogram,
    /// Reorder span (watermark-release drain), µs per sampled batch.
    pub stage_reorder_us: Histogram,
    /// Evaluate span (controllers + engines over released events), µs
    /// per sampled batch.
    pub stage_evaluate_us: Histogram,
    /// Finalize span (deadline sweep + sink delivery), µs per sampled
    /// batch.
    pub stage_finalize_us: Histogram,
}

impl ShardProfile {
    /// Merges another profile (e.g. from another shard).
    pub fn merge(&mut self, other: &ShardProfile) {
        self.batch_events.merge(&other.batch_events);
        self.reorder_depth.merge(&other.reorder_depth);
        self.arena_live.merge(&other.arena_live);
        self.arena_nodes.merge(&other.arena_nodes);
        self.stage_ingest_us.merge(&other.stage_ingest_us);
        self.stage_reorder_us.merge(&other.stage_reorder_us);
        self.stage_evaluate_us.merge(&other.stage_evaluate_us);
        self.stage_finalize_us.merge(&other.stage_finalize_us);
    }
}

/// Why producer-side batches left for one shard's worker, counted on
/// the ingesting thread — one count per shipped batch.
///
/// `full + idle + barrier` is the number of batches the producer
/// shipped, so `events / total()` is the mean batch size. Below
/// saturation nearly every ship is `idle` (the worker had nothing
/// queued, so holding the events would only add latency); at saturation
/// the ring is never empty and every ship is `full`. The counts belong
/// to the producer of this runtime incarnation: they restart at zero
/// after [`recover`](crate::ShardedRuntime::recover), unlike
/// [`ShardStats::batches`], which the worker checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipStats {
    /// Batches shipped because they reached
    /// [`max_batch`](crate::StreamConfig::max_batch) — the worker was
    /// busy for as long as the batch took to fill.
    pub full: u64,
    /// Batches shipped at the end of a `push*` call because the shard's
    /// ring was empty.
    pub idle: u64,
    /// Batches shipped by a barrier (flush, stats, watermark,
    /// checkpoint, finish) ahead of its control message.
    pub barrier: u64,
}

impl ShipStats {
    /// Batches shipped for any reason.
    pub fn total(&self) -> u64 {
        self.full + self.idle + self.barrier
    }

    /// Adds another shard's counts into this one.
    pub fn merge(&mut self, other: &ShipStats) {
        self.full += other.full;
        self.idle += other.idle;
        self.barrier += other.barrier;
    }
}

/// Snapshot of one worker shard.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events routed to this shard (before per-query relevance routing).
    pub events: u64,
    /// Ingest batches processed.
    pub batches: u64,
    /// Distinct partition keys hosting at least one engine (keys whose
    /// events are relevant to no query are processed but not retained).
    pub keys: usize,
    /// Live keyed-engine instances across all queries — the shard's
    /// per-key footprint is `engines_live` engines plus
    /// `partials_live` partial-match nodes; adaptation state does not
    /// scale with it.
    pub engines_live: usize,
    /// Live executor generations across all engines. Equal to the live
    /// branch count when no migration is in flight; the excess is
    /// superseded generations awaiting retirement (next event of their
    /// key, or the idle-retirement sweep).
    pub generations_live: usize,
    /// Stored partial matches across all engines and generations (the
    /// bytes-ish memory proxy reported by the `scale_keys` bench).
    pub partials_live: usize,
    /// Events held in executor history buffers across all engines and
    /// generations — the lazy executor's primary stored state (its
    /// slot buffers), reported next to `partials_live` so the lazy
    /// memory trade (few partials, more buffered events) is visible.
    pub buffered_events: usize,
    /// Events dropped as late (behind the shard watermark) under
    /// [`LatenessPolicy::Drop`](acep_types::LatenessPolicy::Drop). Late
    /// events are never counted in `events`.
    pub late_dropped: u64,
    /// Late events routed to the sink's late channel under
    /// [`LatenessPolicy::Route`](acep_types::LatenessPolicy::Route).
    pub late_routed: u64,
    /// Events currently held in the reordering buffer (gauge; `0` both
    /// in passthrough mode and after `finish`).
    pub reorder_depth: usize,
    /// High-water mark of the reordering buffer depth. With a
    /// [`max_buffered`](acep_types::DisorderConfig::max_buffered) cap
    /// this never exceeds the cap by more than one (the arriving event
    /// that triggers eviction) — the explicit worst-case memory of
    /// event-time ingestion.
    pub max_reorder_depth: usize,
    /// Events force-released by the reordering buffer's capacity cap
    /// before their watermark (each advances the watermark past its
    /// timestamp; stragglers behind it count as late).
    pub reorder_overflow: u64,
    /// `reorder_overflow` attributed to the source that sent each
    /// force-released event (empty until the first overflow).
    pub reorder_overflow_by_source: Vec<(SourceId, u64)>,
    /// The shard's event-time watermark (`None` in passthrough mode).
    pub watermark: Option<Timestamp>,
    /// Per-source progress under a `PerSource` watermark strategy:
    /// each discovered source's `max_seen` and idle verdict. Empty
    /// under `Merged` and in passthrough mode.
    pub source_watermarks: Vec<SourceWatermark>,
    /// Anchor of the phantom source covering not-yet-discovered
    /// sources: the first timestamp this shard ever ingested (`None`
    /// before any event or in passthrough mode).
    pub phantom_anchor: Option<Timestamp>,
    /// Whether the phantom source still holds the watermark back (its
    /// discovery grace has not lapsed; `PerSource` only).
    pub phantom_active: bool,
    /// Engines visited by watermark-driven finalization sweeps — pops
    /// of the shard's deadline heap, and nothing else. The shard
    /// indexes engines by their minimum pending deadline, so this
    /// counts only engines that had (or recently had) a match pending —
    /// a watermark advance over a shard with nothing pending does zero
    /// per-engine work and leaves this untouched. A key that keeps
    /// receiving events finalizes its held matches inside its own
    /// `on_event` before any watermark reaches them, so on hot keys
    /// this reads 0 while matches are being finalized all the time:
    /// 0 means "no watermark-driven visits", not "nothing finalized".
    pub finalize_visits: u64,
    /// Emission latency of deadline-held matches (`detected_at -
    /// deadline`, ms of event time), log₂-bucketed. Covers matches
    /// proven by the key's own later events as well as watermark-driven
    /// finalizations; end-of-stream flushes are excluded.
    pub emission_latency: Histogram,
    /// Per-query evaluation rollups, indexed by [`QueryId`]
    /// (shard-count invariant; see module docs).
    pub per_query: Vec<QueryStats>,
    /// Per-query adaptation counters of this shard's controllers,
    /// indexed by [`QueryId`]. `adaptation[q].plan_epoch` is the
    /// controller's current total deployment count — the epoch lazily
    /// migrating engines converge to.
    pub adaptation: Vec<AdaptationStats>,
    /// Per-query count of lazy per-key plan migrations
    /// (`replace_epoch` splices) performed by this shard's engines,
    /// indexed by [`QueryId`]. Shard-scoped like `adaptation`: where
    /// keys land decides which controller's deployments they chase.
    pub key_migrations: Vec<u64>,
    /// Telemetry records dropped by this shard's telemetry ring (full
    /// ring = bounded loss; the hot path never blocks on
    /// observability).
    pub telemetry_dropped: u64,
    /// The shard's ingestion-ring accounting: capacity, park/wake
    /// counts of the backpressure protocol, and the occupancy
    /// high-water mark. Invariants (`wakes ≤ parks + 1` per side,
    /// `occupancy_high_water ≤ capacity`) are pinned by the
    /// `stream_determinism` integration test.
    pub ring: RingStats,
    /// Why the producer shipped this shard's batches when it did (see
    /// [`ShipStats`]). Counted on the ingesting thread and attached to
    /// the worker's snapshot by the barrier that collected it.
    pub ships: ShipStats,
    /// Sampled per-stage profile, when
    /// [`TelemetryConfig::profile_every`](crate::TelemetryConfig) > 0.
    pub profile: Option<Box<ShardProfile>>,
}

/// Snapshot of the whole runtime: one [`ShardStats`] per worker.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl RuntimeStats {
    /// Events ingested across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Matches emitted across all shards and queries.
    pub fn total_matches(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.per_query)
            .map(|q| q.matches)
            .sum()
    }

    /// Distinct partition keys across all shards (keys never span
    /// shards, so the per-shard counts add up).
    pub fn total_keys(&self) -> usize {
        self.shards.iter().map(|s| s.keys).sum()
    }

    /// Live keyed-engine instances across all shards.
    pub fn total_engines_live(&self) -> usize {
        self.shards.iter().map(|s| s.engines_live).sum()
    }

    /// Live executor generations across all shards.
    pub fn total_generations_live(&self) -> usize {
        self.shards.iter().map(|s| s.generations_live).sum()
    }

    /// Stored partial matches across all shards.
    pub fn total_partials_live(&self) -> usize {
        self.shards.iter().map(|s| s.partials_live).sum()
    }

    /// Events held in executor history buffers across all shards.
    pub fn total_buffered_events(&self) -> usize {
        self.shards.iter().map(|s| s.buffered_events).sum()
    }

    /// Late events dropped across all shards.
    pub fn total_late_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.late_dropped).sum()
    }

    /// Late events routed to the sink across all shards.
    pub fn total_late_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.late_routed).sum()
    }

    /// Events currently held in reordering buffers across all shards.
    pub fn total_reorder_depth(&self) -> usize {
        self.shards.iter().map(|s| s.reorder_depth).sum()
    }

    /// Events force-released by reorder capacity caps across all
    /// shards.
    pub fn total_reorder_overflow(&self) -> u64 {
        self.shards.iter().map(|s| s.reorder_overflow).sum()
    }

    /// Reorder-overflow evictions attributed per source, merged across
    /// shards and sorted by source.
    pub fn total_reorder_overflow_by_source(&self) -> Vec<(SourceId, u64)> {
        let mut merged: Vec<(SourceId, u64)> = Vec::new();
        for &(source, n) in self
            .shards
            .iter()
            .flat_map(|s| &s.reorder_overflow_by_source)
        {
            match merged.iter_mut().find(|(s, _)| *s == source) {
                Some((_, total)) => *total += n,
                None => merged.push((source, n)),
            }
        }
        merged.sort_unstable();
        merged
    }

    /// Engines visited by watermark-driven finalization sweeps across
    /// all shards.
    pub fn total_finalize_visits(&self) -> u64 {
        self.shards.iter().map(|s| s.finalize_visits).sum()
    }

    /// Lazy per-key plan migrations across all shards and queries.
    pub fn total_key_migrations(&self) -> u64 {
        self.shards.iter().flat_map(|s| &s.key_migrations).sum()
    }

    /// Lazy per-key plan migrations of one query summed across shards.
    pub fn key_migrations(&self, id: QueryId) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.key_migrations.get(id.index()))
            .sum()
    }

    /// Producer-side batch ships by reason, summed across shards
    /// (`total_events() / total_ships().total()` is the mean batch
    /// size).
    pub fn total_ships(&self) -> ShipStats {
        let mut total = ShipStats::default();
        for s in &self.shards {
            total.merge(&s.ships);
        }
        total
    }

    /// Telemetry records dropped by ring overflow across all shards.
    pub fn total_telemetry_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.telemetry_dropped).sum()
    }

    /// Emission latency of deadline-held matches, merged across all
    /// shards.
    pub fn emission_latency(&self) -> Histogram {
        let mut merged = Histogram::new();
        for s in &self.shards {
            merged.merge(&s.emission_latency);
        }
        merged
    }

    /// The sampled per-stage profile merged across all shards, or
    /// `None` when profiling was off everywhere.
    pub fn profile(&self) -> Option<ShardProfile> {
        let mut merged: Option<ShardProfile> = None;
        for p in self.shards.iter().filter_map(|s| s.profile.as_deref()) {
            merged.get_or_insert_with(ShardProfile::default).merge(p);
        }
        merged
    }

    /// The evaluation rollup of one query merged across all shards.
    pub fn query(&self, id: QueryId) -> QueryStats {
        let mut merged = QueryStats::default();
        for shard in &self.shards {
            if let Some(q) = shard.per_query.get(id.index()) {
                merged.merge(q);
            }
        }
        merged
    }

    /// The adaptation counters of one query summed across its per-shard
    /// controllers. `plan_epoch` sums too: it is the total number of
    /// deployments runtime-wide, not a single controller's epoch.
    pub fn adaptation(&self, id: QueryId) -> AdaptationStats {
        let mut merged = AdaptationStats::default();
        for shard in &self.shards {
            if let Some(a) = shard.adaptation.get(id.index()) {
                merged.merge(a);
            }
        }
        merged
    }

    /// Adaptation counters summed across every query and shard.
    pub fn total_adaptation(&self) -> AdaptationStats {
        let mut merged = AdaptationStats::default();
        for a in self.shards.iter().flat_map(|s| &s.adaptation) {
            merged.merge(a);
        }
        merged
    }

    /// Queries the snapshot covers (maximum per-query vector length
    /// over shards; normally identical on every shard).
    fn num_queries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.per_query.len().max(s.adaptation.len()))
            .max()
            .unwrap_or(0)
    }

    /// Flattens the snapshot into a [`MetricsRegistry`] — the export
    /// surface for the Prometheus text format
    /// ([`MetricsRegistry::to_prometheus`]) and the JSON snapshot
    /// ([`MetricsRegistry::to_json`]). Metric names and label sets are
    /// stable and golden-tested:
    ///
    /// * per shard (`{shard=…}`): `acep_events_total`,
    ///   `acep_batches_total`, `acep_keys`, `acep_engines_live`,
    ///   `acep_generations_live`, `acep_partials_live`,
    ///   `acep_buffered_events`,
    ///   `acep_late_dropped_total`, `acep_late_routed_total`,
    ///   `acep_reorder_depth`, `acep_reorder_depth_max`,
    ///   `acep_reorder_overflow_total`, `acep_watermark_ms`,
    ///   `acep_finalize_visits_total`, `acep_telemetry_dropped_total`,
    ///   `acep_ring_capacity`, `acep_ring_producer_parks_total`,
    ///   `acep_ring_producer_wakes_total`,
    ///   `acep_ring_consumer_parks_total`,
    ///   `acep_ring_consumer_wakes_total`,
    ///   `acep_ring_occupancy_high_water`
    /// * per (shard, reason) with `reason` ∈ `full`/`idle`/`barrier`:
    ///   `acep_batch_ships_total`
    /// * per (shard, source): `acep_reorder_overflow_by_source_total`,
    ///   `acep_source_watermark_ms`, `acep_source_idle`
    /// * merged: `acep_emission_latency_ms` (histogram), and when
    ///   profiling was sampled the `acep_batch_events`,
    ///   `acep_profile_reorder_depth`, `acep_arena_live`,
    ///   `acep_arena_nodes` and `acep_stage_{ingest,reorder,evaluate,
    ///   finalize}_us` histograms
    /// * per query (`{query=…}`): `acep_query_events_total`,
    ///   `acep_query_matches_total`, `acep_query_engines`,
    ///   `acep_key_migrations_total`, `acep_decision_evals_total`,
    ///   `acep_reopt_triggers_total`, `acep_planner_invocations_total`,
    ///   `acep_plan_replacements_total`, `acep_plan_epoch`,
    ///   `acep_control_step_us` (histogram)
    pub fn telemetry_snapshot(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for s in &self.shards {
            let l = |v: &ShardStats| vec![("shard", v.shard.to_string())];
            reg.counter(
                "acep_events_total",
                "Events routed to the shard",
                l(s),
                s.events,
            );
            reg.counter(
                "acep_batches_total",
                "Ingest batches processed",
                l(s),
                s.batches,
            );
            reg.gauge(
                "acep_keys",
                "Distinct partition keys hosting engines",
                l(s),
                s.keys as f64,
            );
            reg.gauge(
                "acep_engines_live",
                "Live keyed-engine instances",
                l(s),
                s.engines_live as f64,
            );
            reg.gauge(
                "acep_generations_live",
                "Live executor generations (excess over branches = pending retirements)",
                l(s),
                s.generations_live as f64,
            );
            reg.gauge(
                "acep_partials_live",
                "Stored partial matches",
                l(s),
                s.partials_live as f64,
            );
            reg.gauge(
                "acep_buffered_events",
                "Events held in executor history buffers (lazy slot buffers)",
                l(s),
                s.buffered_events as f64,
            );
            reg.counter(
                "acep_late_dropped_total",
                "Late events dropped",
                l(s),
                s.late_dropped,
            );
            reg.counter(
                "acep_late_routed_total",
                "Late events routed to the sink's late channel",
                l(s),
                s.late_routed,
            );
            reg.gauge(
                "acep_reorder_depth",
                "Events held in the reorder buffer",
                l(s),
                s.reorder_depth as f64,
            );
            reg.gauge(
                "acep_reorder_depth_max",
                "High-water mark of the reorder buffer depth",
                l(s),
                s.max_reorder_depth as f64,
            );
            reg.counter(
                "acep_reorder_overflow_total",
                "Events force-released by the reorder capacity cap",
                l(s),
                s.reorder_overflow,
            );
            for &(source, n) in &s.reorder_overflow_by_source {
                reg.counter(
                    "acep_reorder_overflow_by_source_total",
                    "Reorder capacity evictions attributed to the sending source",
                    vec![
                        ("shard", s.shard.to_string()),
                        ("source", source.0.to_string()),
                    ],
                    n,
                );
            }
            if let Some(wm) = s.watermark {
                reg.gauge(
                    "acep_watermark_ms",
                    "Shard event-time watermark",
                    l(s),
                    wm as f64,
                );
            }
            for sw in &s.source_watermarks {
                let sl = || {
                    vec![
                        ("shard", s.shard.to_string()),
                        ("source", sw.source.0.to_string()),
                    ]
                };
                reg.gauge(
                    "acep_source_watermark_ms",
                    "Largest event timestamp ingested from the source",
                    sl(),
                    sw.max_seen as f64,
                );
                reg.gauge(
                    "acep_source_idle",
                    "Whether the source is idle (1) and excluded from the watermark",
                    sl(),
                    u64::from(sw.idle) as f64,
                );
            }
            reg.counter(
                "acep_finalize_visits_total",
                "Engines visited by watermark finalization sweeps",
                l(s),
                s.finalize_visits,
            );
            reg.counter(
                "acep_telemetry_dropped_total",
                "Telemetry records dropped by ring overflow",
                l(s),
                s.telemetry_dropped,
            );
            reg.gauge(
                "acep_ring_capacity",
                "Ingestion-ring capacity in messages",
                l(s),
                s.ring.capacity as f64,
            );
            reg.counter(
                "acep_ring_producer_parks_total",
                "Times ingestion published park intent on a full ring",
                l(s),
                s.ring.producer_parks,
            );
            reg.counter(
                "acep_ring_producer_wakes_total",
                "Times the worker claimed a producer park intent",
                l(s),
                s.ring.producer_wakes,
            );
            reg.counter(
                "acep_ring_consumer_parks_total",
                "Times the worker published park intent on an empty ring",
                l(s),
                s.ring.consumer_parks,
            );
            reg.counter(
                "acep_ring_consumer_wakes_total",
                "Times ingestion claimed a worker park intent",
                l(s),
                s.ring.consumer_wakes,
            );
            reg.gauge(
                "acep_ring_occupancy_high_water",
                "Most ring messages ever queued at once",
                l(s),
                s.ring.occupancy_high_water as f64,
            );
            for (reason, n) in [
                ("full", s.ships.full),
                ("idle", s.ships.idle),
                ("barrier", s.ships.barrier),
            ] {
                reg.counter(
                    "acep_batch_ships_total",
                    "Producer-side batches shipped, by why they left when they did",
                    vec![
                        ("shard", s.shard.to_string()),
                        ("reason", reason.to_string()),
                    ],
                    n,
                );
            }
        }
        reg.histogram(
            "acep_emission_latency_ms",
            "Emission latency of deadline-held matches (detected_at - deadline)",
            vec![],
            self.emission_latency(),
        );
        for q in 0..self.num_queries() {
            let id = QueryId(q as u32);
            let ql = || vec![("query", q.to_string())];
            let qs = self.query(id);
            let a = self.adaptation(id);
            reg.counter(
                "acep_query_events_total",
                "Events routed into the query's engines",
                ql(),
                qs.events,
            );
            reg.counter(
                "acep_query_matches_total",
                "Matches emitted by the query",
                ql(),
                qs.matches,
            );
            reg.gauge(
                "acep_query_engines",
                "Live engine instances of the query",
                ql(),
                qs.engines as f64,
            );
            reg.counter(
                "acep_key_migrations_total",
                "Lazy per-key plan migrations (replace_epoch splices)",
                ql(),
                self.key_migrations(id),
            );
            reg.counter(
                "acep_decision_evals_total",
                "Decision-function evaluations",
                ql(),
                a.decision_evals,
            );
            reg.counter(
                "acep_reopt_triggers_total",
                "Times the decision function fired",
                ql(),
                a.reopt_triggers,
            );
            reg.counter(
                "acep_planner_invocations_total",
                "Re-planning invocations",
                ql(),
                a.planner_invocations,
            );
            reg.counter(
                "acep_plan_replacements_total",
                "Plans actually replaced",
                ql(),
                a.plan_replacements,
            );
            reg.gauge(
                "acep_plan_epoch",
                "Total plan deployments summed across the query's controllers",
                ql(),
                a.plan_epoch as f64,
            );
            reg.histogram(
                "acep_control_step_us",
                "Whole-control-step wall time (snapshot + decision + planning)",
                ql(),
                a.control_step_us.clone(),
            );
        }
        if let Some(p) = self.profile() {
            reg.histogram(
                "acep_batch_events",
                "Events per sampled batch",
                vec![],
                p.batch_events,
            );
            reg.histogram(
                "acep_profile_reorder_depth",
                "Reorder depth after each sampled batch",
                vec![],
                p.reorder_depth,
            );
            reg.histogram(
                "acep_arena_live",
                "Live partial matches at sample time",
                vec![],
                p.arena_live,
            );
            reg.histogram(
                "acep_arena_nodes",
                "Allocated arena binding nodes at sample time",
                vec![],
                p.arena_nodes,
            );
            reg.histogram(
                "acep_stage_ingest_us",
                "Ingest span per sampled batch",
                vec![],
                p.stage_ingest_us,
            );
            reg.histogram(
                "acep_stage_reorder_us",
                "Reorder span per sampled batch",
                vec![],
                p.stage_reorder_us,
            );
            reg.histogram(
                "acep_stage_evaluate_us",
                "Evaluate span per sampled batch",
                vec![],
                p.stage_evaluate_us,
            );
            reg.histogram(
                "acep_stage_finalize_us",
                "Finalize span per sampled batch",
                vec![],
                p.stage_finalize_us,
            );
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(samples: &[Timestamp]) -> Histogram {
        let mut l = Histogram::new();
        for &s in samples {
            l.record(s);
        }
        l
    }

    fn query_stats(matches: u64) -> QueryStats {
        QueryStats {
            engines: 1,
            events: 10 * matches,
            matches,
        }
    }

    fn adaptation(replacements: u64, epoch: u64) -> AdaptationStats {
        AdaptationStats {
            events: 100,
            decision_evals: 4,
            reopt_triggers: 2,
            planner_invocations: 2,
            plan_replacements: replacements,
            plan_epoch: epoch,
            ..AdaptationStats::default()
        }
    }

    fn sample_stats() -> RuntimeStats {
        RuntimeStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    events: 100,
                    batches: 2,
                    keys: 3,
                    engines_live: 6,
                    generations_live: 7,
                    partials_live: 40,
                    buffered_events: 25,
                    late_dropped: 4,
                    late_routed: 1,
                    reorder_depth: 2,
                    max_reorder_depth: 8,
                    reorder_overflow: 2,
                    reorder_overflow_by_source: vec![(SourceId(1), 2)],
                    watermark: Some(900),
                    source_watermarks: vec![SourceWatermark {
                        source: SourceId(1),
                        max_seen: 950,
                        idle: false,
                    }],
                    phantom_anchor: Some(10),
                    phantom_active: false,
                    finalize_visits: 3,
                    emission_latency: latency(&[5, 9]),
                    per_query: vec![query_stats(5), query_stats(2)],
                    adaptation: vec![adaptation(1, 2), adaptation(0, 1)],
                    key_migrations: vec![3, 0],
                    telemetry_dropped: 1,
                    ring: RingStats {
                        capacity: 8,
                        producer_parks: 5,
                        producer_wakes: 4,
                        consumer_parks: 7,
                        consumer_wakes: 7,
                        occupancy_high_water: 6,
                    },
                    ships: ShipStats {
                        full: 1,
                        idle: 1,
                        barrier: 0,
                    },
                    profile: Some(Box::new(ShardProfile {
                        batch_events: latency(&[50]),
                        ..ShardProfile::default()
                    })),
                },
                ShardStats {
                    shard: 1,
                    events: 60,
                    batches: 1,
                    keys: 2,
                    engines_live: 4,
                    generations_live: 4,
                    partials_live: 10,
                    buffered_events: 5,
                    late_dropped: 1,
                    late_routed: 0,
                    reorder_depth: 3,
                    max_reorder_depth: 3,
                    reorder_overflow: 1,
                    reorder_overflow_by_source: vec![(SourceId(0), 1), (SourceId(1), 0)],
                    watermark: Some(880),
                    source_watermarks: Vec::new(),
                    phantom_anchor: Some(12),
                    phantom_active: true,
                    finalize_visits: 1,
                    emission_latency: latency(&[1]),
                    per_query: vec![query_stats(1), query_stats(4)],
                    adaptation: vec![adaptation(0, 1), adaptation(2, 3)],
                    key_migrations: vec![1, 2],
                    telemetry_dropped: 0,
                    ring: RingStats {
                        capacity: 8,
                        producer_parks: 0,
                        producer_wakes: 0,
                        consumer_parks: 2,
                        consumer_wakes: 1,
                        occupancy_high_water: 3,
                    },
                    ships: ShipStats {
                        full: 0,
                        idle: 0,
                        barrier: 1,
                    },
                    profile: Some(Box::new(ShardProfile {
                        batch_events: latency(&[60]),
                        ..ShardProfile::default()
                    })),
                },
            ],
        }
    }

    #[test]
    fn runtime_rollups_sum_across_shards() {
        let stats = sample_stats();
        assert_eq!(stats.total_events(), 160);
        assert_eq!(stats.total_matches(), 12);
        assert_eq!(stats.total_keys(), 5);
        assert_eq!(stats.total_engines_live(), 10);
        assert_eq!(stats.total_generations_live(), 11);
        assert_eq!(stats.total_partials_live(), 50);
        assert_eq!(stats.total_buffered_events(), 30);
        assert_eq!(stats.total_late_dropped(), 5);
        assert_eq!(stats.total_late_routed(), 1);
        assert_eq!(stats.total_reorder_depth(), 5);
        assert_eq!(stats.total_reorder_overflow(), 3);
        assert_eq!(
            stats.total_reorder_overflow_by_source(),
            vec![(SourceId(0), 1), (SourceId(1), 2)]
        );
        assert_eq!(stats.total_finalize_visits(), 4);
        assert_eq!(stats.total_key_migrations(), 6);
        assert_eq!(stats.key_migrations(QueryId(0)), 4);
        assert_eq!(stats.key_migrations(QueryId(1)), 2);
        assert_eq!(stats.total_telemetry_dropped(), 1);
        let ships = stats.total_ships();
        assert_eq!((ships.full, ships.idle, ships.barrier), (1, 1, 1));
        assert_eq!(ships.total(), 3);
        let lat = stats.emission_latency();
        assert_eq!((lat.count, lat.min, lat.max), (3, 1, 9));
        assert!((lat.mean().unwrap() - 5.0).abs() < 1e-9);
        let prof = stats.profile().expect("both shards profiled");
        assert_eq!(prof.batch_events.count, 2);
        assert_eq!((prof.batch_events.min, prof.batch_events.max), (50, 60));
        let q0 = stats.query(QueryId(0));
        assert_eq!(q0.matches, 6);
        assert_eq!(q0.engines, 2);
        let a0 = stats.adaptation(QueryId(0));
        assert_eq!(a0.plan_replacements, 1);
        assert_eq!(a0.plan_epoch, 3, "epochs sum across controllers");
        let a1 = stats.adaptation(QueryId(1));
        assert_eq!(a1.plan_replacements, 2);
        assert_eq!(stats.total_adaptation().plan_epoch, 7);
        assert_eq!(stats.total_adaptation().events, 400);
        assert_eq!(stats.query(QueryId(9)), QueryStats::default());
        assert_eq!(stats.adaptation(QueryId(9)), AdaptationStats::default());
    }

    #[test]
    fn profile_is_none_when_no_shard_sampled() {
        let mut stats = sample_stats();
        for s in &mut stats.shards {
            s.profile = None;
        }
        assert!(stats.profile().is_none());
    }

    #[test]
    fn telemetry_snapshot_uses_the_stable_metric_names() {
        let stats = sample_stats();
        let reg = stats.telemetry_snapshot();
        let text = reg.to_prometheus();
        for name in [
            "acep_events_total{shard=\"0\"} 100",
            "acep_events_total{shard=\"1\"} 60",
            "acep_batches_total{shard=\"0\"} 2",
            "acep_keys{shard=\"0\"} 3",
            "acep_engines_live{shard=\"1\"} 4",
            "acep_generations_live{shard=\"0\"} 7",
            "acep_partials_live{shard=\"0\"} 40",
            "acep_buffered_events{shard=\"0\"} 25",
            "acep_buffered_events{shard=\"1\"} 5",
            "acep_late_dropped_total{shard=\"0\"} 4",
            "acep_late_routed_total{shard=\"0\"} 1",
            "acep_reorder_depth{shard=\"1\"} 3",
            "acep_reorder_depth_max{shard=\"0\"} 8",
            "acep_reorder_overflow_total{shard=\"0\"} 2",
            "acep_reorder_overflow_by_source_total{shard=\"0\",source=\"1\"} 2",
            "acep_watermark_ms{shard=\"0\"} 900",
            "acep_source_watermark_ms{shard=\"0\",source=\"1\"} 950",
            "acep_source_idle{shard=\"0\",source=\"1\"} 0",
            "acep_finalize_visits_total{shard=\"0\"} 3",
            "acep_telemetry_dropped_total{shard=\"0\"} 1",
            "acep_ring_capacity{shard=\"0\"} 8",
            "acep_ring_producer_parks_total{shard=\"0\"} 5",
            "acep_ring_producer_wakes_total{shard=\"0\"} 4",
            "acep_ring_consumer_parks_total{shard=\"1\"} 2",
            "acep_ring_consumer_wakes_total{shard=\"1\"} 1",
            "acep_ring_occupancy_high_water{shard=\"0\"} 6",
            "acep_batch_ships_total{shard=\"0\",reason=\"idle\"} 1",
            "acep_batch_ships_total{shard=\"1\",reason=\"barrier\"} 1",
            "acep_emission_latency_ms_count 3",
            "acep_query_events_total{query=\"0\"} 60",
            "acep_query_matches_total{query=\"0\"} 6",
            "acep_query_engines{query=\"1\"} 2",
            "acep_key_migrations_total{query=\"0\"} 4",
            "acep_decision_evals_total{query=\"0\"} 8",
            "acep_reopt_triggers_total{query=\"0\"} 4",
            "acep_planner_invocations_total{query=\"0\"} 4",
            "acep_plan_replacements_total{query=\"1\"} 2",
            "acep_plan_epoch{query=\"0\"} 3",
            "acep_control_step_us_count{query=\"0\"} 0",
            "acep_batch_events_count 2",
        ] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
        // JSON carries the same samples under the versioned schema.
        let json = reg.to_json();
        assert!(json.starts_with("{\"schema\":\"acep-telemetry-v1\""));
        assert!(json.contains("\"name\":\"acep_emission_latency_ms\""));
    }
}
