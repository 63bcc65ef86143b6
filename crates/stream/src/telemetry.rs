//! Runtime-side telemetry plumbing: configuration, the per-worker
//! recording state, and the collector hub.
//!
//! Two gates, from coarse to fine:
//!
//! 1. **Runtime** — [`StreamConfig::telemetry`]: `None` (the default)
//!    spawns no rings and no recorders, so the hot path only ever
//!    tests a `None` option.
//! 2. **Sampling** — [`TelemetryConfig::profile_every`]: per-stage
//!    wall-clock spans (ingest → reorder → evaluate → finalize) are
//!    measured on every Nth batch only, because `Instant::now` twice
//!    per stage per batch is the one cost that could show up at high
//!    event rates. `0` disables spans while keeping event records.
//!
//! Structured [`TelemetryEvent`] records flow worker → collector over
//! one lock-free [`SpscRing`] per shard — the ring type that also
//! carries ingestion batches, here driven through its non-blocking
//! `try_push`. The [`TelemetryHub`] drains them on demand
//! ([`poll`](TelemetryHub::poll)) and folds them into the
//! [`AuditLog`]. A full ring drops records and counts the loss in the
//! shard's one drop counter, read by both [`TelemetryHub::dropped`]
//! and [`ShardStats::telemetry_dropped`] — the hot path never blocks
//! on observability.
//!
//! [`ShardStats::telemetry_dropped`]: crate::ShardStats#structfield.telemetry_dropped
//!
//! [`StreamConfig::telemetry`]: crate::StreamConfig#structfield.telemetry

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acep_telemetry::{AuditLog, ShardRecorder, TelemetryEvent};
use acep_types::SpscRing;

use crate::stats::ShardProfile;

/// Runtime telemetry knobs (see [`StreamConfig::telemetry`]).
///
/// [`StreamConfig::telemetry`]: crate::StreamConfig#structfield.telemetry
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Capacity of each shard's telemetry ring (rounded up to a power
    /// of two). Sized for the burst between two
    /// [`poll`](TelemetryHub::poll)s: deployments, migrations and
    /// stalls are rare, so the default comfortably covers minutes of
    /// adaptation churn; overflow drops records with accounting.
    pub ring_capacity: usize,
    /// Measure per-stage wall-clock spans and batch-shape histograms
    /// on every Nth batch (`0` = never). Sampling bounds the
    /// `Instant::now` cost; the sampled distributions land in
    /// [`ShardStats::profile`](crate::ShardStats#structfield.profile).
    pub profile_every: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 8_192,
            profile_every: 0,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry with per-stage profiling sampled every `n` batches.
    pub fn with_profiling(n: u32) -> Self {
        Self {
            profile_every: n,
            ..Self::default()
        }
    }
}

/// The collector side of the telemetry plane: owns every shard's event
/// ring, drains them on demand, and accumulates the drained records
/// for audit reconstruction. Obtained from
/// [`ShardedRuntime::telemetry`](crate::ShardedRuntime::telemetry);
/// clone the `Arc` before [`finish`](crate::ShardedRuntime::finish) to
/// audit a completed run.
#[derive(Debug)]
pub struct TelemetryHub {
    /// Per shard: the ring the collector drains and the drop counter
    /// that shard's recorder bumps.
    shards: Vec<(Arc<SpscRing<TelemetryEvent>>, Arc<AtomicU64>)>,
    drained: Mutex<Vec<(usize, TelemetryEvent)>>,
}

impl TelemetryHub {
    /// Drains every shard ring into the hub's accumulated log,
    /// returning how many records were moved. Safe to call
    /// concurrently (drains are serialized internally) and while the
    /// runtime is still processing.
    pub fn poll(&self) -> usize {
        let mut drained = self.drained.lock().unwrap();
        let before = drained.len();
        for (shard, (ring, _)) in self.shards.iter().enumerate() {
            drained.extend(std::iter::from_fn(|| ring.pop()).map(|ev| (shard, ev)));
        }
        drained.len() - before
    }

    /// Polls, then returns a copy of every record accumulated so far,
    /// each tagged with its shard.
    pub fn events(&self) -> Vec<(usize, TelemetryEvent)> {
        self.poll();
        self.drained.lock().unwrap().clone()
    }

    /// Polls, then reconstructs the adaptation audit log from every
    /// record seen so far.
    pub fn audit(&self) -> AuditLog {
        self.poll();
        AuditLog::from_events(&self.drained.lock().unwrap())
    }

    /// Records dropped across every shard ring (full ring = bounded
    /// loss, never a blocked worker).
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|(_, dropped)| dropped.load(Ordering::Relaxed))
            .sum()
    }
}

/// Builds the telemetry plane for `shards` workers: the shared hub
/// (when enabled) plus one [`WorkerTelemetry`] per shard to move onto
/// its thread.
pub(crate) fn build_plane(
    config: Option<&TelemetryConfig>,
    shards: usize,
) -> (Option<Arc<TelemetryHub>>, Vec<WorkerTelemetry>) {
    match config {
        Some(tc) => {
            let shards: Vec<_> = (0..shards)
                .map(|_| (Arc::new(SpscRing::new(tc.ring_capacity)), Arc::default()))
                .collect();
            let workers = shards
                .iter()
                .map(|(ring, dropped)| {
                    let rec = ShardRecorder::new(Arc::clone(ring), Arc::clone(dropped));
                    WorkerTelemetry::new(rec, tc.profile_every)
                })
                .collect();
            let drained = Mutex::new(Vec::new());
            (Some(Arc::new(TelemetryHub { shards, drained })), workers)
        }
        None => (
            None,
            (0..shards).map(|_| WorkerTelemetry::disabled()).collect(),
        ),
    }
}

/// Per-worker telemetry state: the shard's recorder handle plus the
/// sampled profiling histograms. Lives on the worker thread; all
/// methods are safe to call unconditionally — with telemetry disabled
/// they reduce to a `None` test.
pub(crate) struct WorkerTelemetry {
    rec: Option<ShardRecorder>,
    profile: Option<Box<ShardProfile>>,
    profile_every: u32,
    batches: u32,
    profiling_batch: bool,
}

impl WorkerTelemetry {
    pub(crate) fn disabled() -> Self {
        Self {
            rec: None,
            profile: None,
            profile_every: 0,
            batches: 0,
            profiling_batch: false,
        }
    }

    fn new(rec: ShardRecorder, profile_every: u32) -> Self {
        Self {
            rec: Some(rec),
            profile: (profile_every > 0).then(Box::default),
            profile_every,
            batches: 0,
            profiling_batch: false,
        }
    }

    /// Whether event records go anywhere.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The shard's recorder (for handing clones to controllers).
    pub(crate) fn recorder(&self) -> Option<&ShardRecorder> {
        self.rec.as_ref()
    }

    /// Submits one record (drop-with-accounting when the ring is
    /// full).
    #[inline]
    pub(crate) fn record(&self, ev: TelemetryEvent) {
        if let Some(r) = &self.rec {
            r.record(ev);
        }
    }

    /// Records dropped by this shard's ring.
    pub(crate) fn dropped(&self) -> u64 {
        self.rec.as_ref().map_or(0, ShardRecorder::dropped)
    }

    /// Starts a batch: decides whether this one is profiled. Returns
    /// the decision (also available as [`profiling`](Self::profiling)).
    #[allow(clippy::manual_is_multiple_of)] // `%` keeps the 1.82 MSRV
    #[inline]
    pub(crate) fn begin_batch(&mut self) -> bool {
        self.profiling_batch = if self.profile.is_some() {
            self.batches = self.batches.wrapping_add(1);
            self.batches % self.profile_every == 0
        } else {
            false
        };
        self.profiling_batch
    }

    /// Whether the batch in flight is being profiled.
    #[inline]
    pub(crate) fn profiling(&self) -> bool {
        self.profiling_batch
    }

    /// A stage timer for the batch in flight (`None` unless profiled).
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        if self.profiling_batch {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn stage(
        &mut self,
        t: Option<Instant>,
        pick: fn(&mut ShardProfile) -> &mut acep_telemetry::Histogram,
    ) {
        if let (Some(t), Some(p)) = (t, self.profile.as_deref_mut()) {
            pick(p).record(t.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
    }

    /// Closes the ingest span (routing + reorder offers).
    pub(crate) fn stage_ingest(&mut self, t: Option<Instant>) {
        self.stage(t, |p| &mut p.stage_ingest_us);
    }

    /// Closes the reorder span (watermark-release drain).
    pub(crate) fn stage_reorder(&mut self, t: Option<Instant>) {
        self.stage(t, |p| &mut p.stage_reorder_us);
    }

    /// Closes the evaluate span (controllers + engines).
    pub(crate) fn stage_evaluate(&mut self, t: Option<Instant>) {
        self.stage(t, |p| &mut p.stage_evaluate_us);
    }

    /// Closes the finalize span (deadline sweep + sink delivery).
    pub(crate) fn stage_finalize(&mut self, t: Option<Instant>) {
        self.stage(t, |p| &mut p.stage_finalize_us);
    }

    /// Records the profiled batch's shape (events routed in, reorder
    /// depth after release).
    pub(crate) fn batch_shape(&mut self, events: usize, depth: usize) {
        if !self.profiling_batch {
            return;
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.batch_events.record(events as u64);
            p.reorder_depth.record(depth as u64);
        }
    }

    /// Records an arena sample (live partials vs allocated nodes),
    /// taken on profiled batches.
    pub(crate) fn sample_arena(&mut self, live: usize, nodes: usize) {
        if let Some(p) = self.profile.as_deref_mut() {
            p.arena_live.record(live as u64);
            p.arena_nodes.record(nodes as u64);
        }
    }

    /// The sampled profiling histograms, for stats snapshots.
    pub(crate) fn profile_snapshot(&self) -> Option<Box<ShardProfile>> {
        self.profile.clone()
    }
}
