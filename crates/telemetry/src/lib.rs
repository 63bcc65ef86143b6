//! # acep-telemetry — the runtime's telemetry plane
//!
//! Observability primitives for the adaptive CEP runtime, built around
//! one rule: **telemetry must never change the system it observes**.
//! Every piece is either allocation-free on the per-event path or runs
//! at control-step / collection cadence:
//!
//! * [`Histogram`] — mergeable log₂-bucketed distributions
//!   (p50/p90/p99/max at power-of-two resolution); recording is a few
//!   integer ops.
//! * [`TelemetryEvent`] — structured records of the adaptation loop
//!   (control steps, re-plan decisions with before/after cost
//!   estimates and the triggering snapshot hash, deployments, per-key
//!   migrations, generation retirements) and the event-time machinery
//!   (reorder evictions, watermark stalls).
//! * [`ShardRecorder`] — the producer handle of one shard's
//!   [`SpscRing`](acep_types::SpscRing) (the same lock-free ring that
//!   carries ingestion batches). It offers each record with `try_push`
//!   and, on a full ring, **drops and counts** it instead of blocking
//!   the hot path. Hot paths hold an `Option<ShardRecorder>`: telemetry
//!   off is a `None` test.
//! * [`MetricsRegistry`] — an on-demand metrics snapshot (counters,
//!   gauges, histograms with stable names and labels) with two
//!   exporters: Prometheus text format and a JSON snapshot.
//! * [`AuditLog`] — folds drained records into per-(shard, query)
//!   plan trajectories: every [`PlanTransition`] carries the evidence
//!   that justified it and the per-key migration burst it caused.
//!
//! The crate is dependency-light (only `acep-types`) so any layer —
//! core controllers, stream workers, benches — can record into it
//! without cycles.

mod audit;
mod event;
mod hist;
mod recorder;
mod registry;

pub use audit::{AuditLog, PlanTransition, QueryTrajectory};
pub use event::{fnv_fold, fnv_start, snapshot_hash, ReplanOutcome, TelemetryEvent};
pub use hist::{bucket_bound, bucket_of, Histogram, NUM_BUCKETS};
pub use recorder::ShardRecorder;
pub use registry::{Metric, MetricValue, MetricsRegistry};
