//! The per-key evaluation half: [`KeyedEngine`].
//!
//! A keyed engine is everything a partition key actually needs of the
//! adaptive runtime: one `MigratingExecutor` chain per pattern branch,
//! plus the epoch tags that tie each chain to its
//! [`QueryController`]'s deployed
//! plan. There is **no** statistics collector, no planner and no policy
//! in here — per-key memory is the executors' partial-match state, and
//! nothing else scales with key cardinality.
//!
//! Migration is lazy: when the controller has deployed a newer plan
//! (its branch epoch is ahead of the executor's tag), the engine
//! rebuilds the branch executor from the controller's current plan on
//! its next event and splices it in through the lossless generation
//! protocol — ownership of in-flight matches stays with the plan that
//! saw their first event. A key that never receives another event never
//! pays for the re-plan; a key created after it starts directly on the
//! new plan.

use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, KeyedEngineRec};
use acep_engine::{Match, MigratingExecutor, SharedSeen};
use acep_types::{mix64, Event, Timestamp};

use crate::controller::QueryController;

/// Per-key evaluation state of one query: branch executors only. See
/// the [module docs](self).
pub struct KeyedEngine {
    branches: Vec<MigratingExecutor>,
    /// The partition key this engine evaluates, as routed by the host.
    /// Only used to derive the deterministic per-key migration-stagger
    /// offset — a single-key host passes `0`.
    key: u64,
    /// Timestamp of the last event this engine processed — the
    /// ownership boundary for lazy migrations: the previous generation
    /// saw every event up to and including `last_ts`, so it keeps every
    /// match starting there.
    last_ts: Timestamp,
    events: u64,
    matches: u64,
}

impl KeyedEngine {
    /// Builds an engine running `controller`'s current plans at the
    /// current epochs (no migration debt). Single-key convenience for
    /// [`from_controller_keyed`](Self::from_controller_keyed) with
    /// key 0.
    pub(crate) fn from_controller(controller: &QueryController) -> Self {
        Self::from_controller_keyed(controller, 0)
    }

    /// Builds the engine for partition `key` running `controller`'s
    /// current plans at the current epochs (no migration debt).
    pub(crate) fn from_controller_keyed(controller: &QueryController, key: u64) -> Self {
        let mut branches: Vec<MigratingExecutor> = (0..controller.num_branches())
            .map(|b| {
                MigratingExecutor::with_epoch(
                    controller.branch_window(b),
                    controller.build_branch_executor(b),
                    controller.epoch(b),
                    controller.plan(b).clone(),
                )
            })
            .collect();
        Self::share_seen_ring(controller, &mut branches);
        Self {
            branches,
            key,
            last_ts: 0,
            events: 0,
            matches: 0,
        }
    }

    /// Points every branch's restrictive-policy finalizer at one shared
    /// per-key seen-event ring: every branch observes the identical
    /// event sequence, so the private rings were redundant copies. New
    /// generations spliced in by later migrations inherit the ring
    /// through the finalizer-history handoff. The local handle is
    /// dropped deliberately — a permanently idle sharer would pin the
    /// ring's prune cutoff at zero. Only a restrictive policy's
    /// finalizer keeps a ring, so without one no ring is built.
    fn share_seen_ring(controller: &QueryController, branches: &mut [MigratingExecutor]) {
        let restrictive = |b| controller.branch_ctx(b).policy.is_restrictive();
        if !(0..branches.len()).any(restrictive) {
            return;
        }
        let ring = SharedSeen::new();
        for b in branches {
            b.share_seen(&ring);
        }
    }

    /// Processes one event, appending matches to `out`. First settles
    /// any pending plan migration: branches whose epoch tag trails the
    /// controller's are rebuilt on the controller's current plan —
    /// skipping intermediate epochs — and spliced in with ownership
    /// starting after `last_ts`, so the retiring generation keeps every
    /// match it alone saw the start of.
    ///
    /// With [`migration_stagger`](crate::AdaptiveConfig::migration_stagger)
    /// set, a trailing branch additionally waits until the controller
    /// has observed this key's deterministic share of the stagger
    /// window since the deployment — spreading the rebuild burst of a
    /// deployment over the next `migration_stagger` events instead of
    /// the next event per key. Deferral never changes the match set:
    /// the old plan keeps evaluating, and the migration protocol is
    /// lossless whenever it finally runs.
    pub fn on_event(
        &mut self,
        controller: &QueryController,
        ev: &Arc<Event>,
        out: &mut Vec<Match>,
    ) {
        debug_assert_eq!(self.branches.len(), controller.num_branches());
        let before = out.len();
        let stagger = controller.config().migration_stagger;
        for (b, exec) in self.branches.iter_mut().enumerate() {
            let target = controller.epoch(b);
            if exec.plan_epoch() != target {
                let due = stagger == 0
                    || controller.events_since_deployment() >= mix64(self.key ^ target) % stagger;
                if due {
                    exec.replace_epoch(
                        controller.build_branch_executor(b),
                        self.last_ts,
                        target,
                        controller.plan(b).clone(),
                    );
                }
            }
            exec.on_event(ev, out);
        }
        self.last_ts = ev.timestamp;
        self.events += 1;
        self.matches += (out.len() - before) as u64;
    }

    /// Advances stream time to `now` without an event (see
    /// `Executor::advance_time`): pending finalizations past their
    /// deadline emit, and generations whose ownership range has fully
    /// expired retire. Does not migrate plans — migration waits for the
    /// next event, keeping watermark sweeps O(pending work).
    pub fn advance_time(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        let before = out.len();
        for exec in &mut self.branches {
            exec.advance_time(now, out);
        }
        self.matches += (out.len() - before) as u64;
    }

    /// Flushes pending matches at end of stream.
    pub fn finish(&mut self, out: &mut Vec<Match>) {
        let before = out.len();
        for exec in &mut self.branches {
            exec.finish(out);
        }
        self.matches += (out.len() - before) as u64;
    }

    /// Events processed by this engine.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Matches emitted by this engine.
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// The plan epoch branch `b`'s executor chain currently runs.
    pub fn plan_epoch(&self, b: usize) -> u64 {
        self.branches[b].plan_epoch()
    }

    /// Live executor generations across branches (`num_branches` = no
    /// migration in progress anywhere).
    pub fn generations(&self) -> usize {
        self.branches
            .iter()
            .map(MigratingExecutor::active_generations)
            .sum()
    }

    /// Plan replacements performed by this engine so far.
    pub fn replacements(&self) -> u64 {
        self.branches
            .iter()
            .map(MigratingExecutor::replacements)
            .sum()
    }

    /// Stored partial matches across branches and generations.
    pub fn partial_count(&self) -> usize {
        self.branches
            .iter()
            .map(MigratingExecutor::partial_count)
            .sum()
    }

    /// Allocated arena binding nodes across branches and generations
    /// (live + garbage awaiting compaction).
    pub fn arena_nodes(&self) -> usize {
        self.branches
            .iter()
            .map(MigratingExecutor::arena_nodes)
            .sum()
    }

    /// Events held in per-position history buffers across branches and
    /// generations (the lazy executor's primary stored state).
    pub fn buffered_events(&self) -> usize {
        self.branches
            .iter()
            .map(MigratingExecutor::buffered_events)
            .sum()
    }

    /// Join/predicate comparisons across branches.
    pub fn comparisons(&self) -> u64 {
        self.branches
            .iter()
            .map(MigratingExecutor::comparisons)
            .sum()
    }

    /// Earliest pending finalization deadline across branches, or
    /// `None` when [`advance_time`](Self::advance_time) is guaranteed
    /// to emit nothing (see `MigratingExecutor::min_pending_deadline`).
    pub fn min_pending_deadline(&self) -> Option<Timestamp> {
        self.branches
            .iter()
            .filter_map(MigratingExecutor::min_pending_deadline)
            .min()
    }

    /// Serializes this engine's full recoverable state — every branch's
    /// migrating-executor chain plus the stream clock and counters —
    /// interning referenced events into `table`.
    /// [`restore`](Self::restore) inverts this.
    pub fn export_rec(&self, table: &mut EventTable) -> KeyedEngineRec {
        KeyedEngineRec {
            branches: self.branches.iter().map(|b| b.export_rec(table)).collect(),
            last_ts: self.last_ts,
            events: self.events,
            matches: self.matches,
        }
    }

    /// Rebuilds the engine for partition `key` from a checkpoint
    /// record. `controller` must be templated from the same pattern the
    /// exporting engine ran (branch contexts are taken from it; plans
    /// ride in the record, one per surviving generation).
    pub fn restore(
        controller: &QueryController,
        key: u64,
        rec: &KeyedEngineRec,
        events: &EventMap,
    ) -> Result<Self, CheckpointError> {
        if rec.branches.len() != controller.num_branches() {
            return Err(CheckpointError::BadValue("keyed engine branch count"));
        }
        let mut branches = Vec::with_capacity(rec.branches.len());
        for (b, br) in rec.branches.iter().enumerate() {
            branches.push(MigratingExecutor::restore(
                controller.branch_ctx(b),
                br,
                events,
            )?);
        }
        // Restored finalizers come back with private rings (the record
        // holds each one's contents); re-share them — the merge is
        // idempotent, so the shared ring ends up with exactly the union.
        Self::share_seen_ring(controller, &mut branches);
        Ok(Self {
            branches,
            key,
            last_ts: rec.last_ts,
            events: rec.events,
            matches: rec.matches,
        })
    }
}
