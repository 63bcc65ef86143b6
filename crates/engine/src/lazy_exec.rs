//! The lazy-chain executor: buffered slots, trigger-driven chain
//! construction.
//!
//! Where the order executor stores a partial match for every viable
//! prefix combination, this executor stores almost no partial state at
//! all. Events are only inserted into per-join-position history buffers
//! (stream-ordered [`EventBuffer`]s, so chain construction scans only
//! each buffer's time-feasible slice, as the order executor's cascade
//! does); the arrival of an instance of the plan's *trigger slot*
//! (`order[0]`, the statistically rarest effective type) is a
//! *trigger*. Once every event
//! that could join it has arrived, the executor constructs all chains
//! seeded on the trigger by extending through the buffered slots in
//! ascending-frequency plan order, and hands completed combinations to
//! the shared [`Finalizer`]. When the trigger slot is the last join slot
//! of a sequence, that is at once: everything it joins precedes it. Any
//! other trigger is *deferred* — held in a queue until its window closes.
//! Live state is therefore `O(buffered events + pending triggers)`
//! instead of `O(partial-match prefixes)` — the memory-vs-latency trade
//! of the paper's reference \[36\], exposed here as a third plan family
//! the adaptive controller can deploy and migrate to and from.
//!
//! # Retention and ordering invariants
//!
//! A deferred trigger stamped `τ` fires at the first event or watermark
//! with stream time strictly after `τ + W`. Every invariant below
//! follows from one rule: **deferred triggers fire before the finalizer
//! observes the current event**, so no history can be pruned between a
//! trigger becoming ready and its chains being built.
//!
//! * Slot buffers retain `2W` of stream time: any unfired trigger at
//!   prune time `t` has `τ + W ≥ t`, and its chain members lie in
//!   `[τ − W, τ + W] ⊆ [t − 2W, ∞)`.
//! * The finalizer's negation/Kleene history also retains `2W` (via
//!   [`Finalizer::with_history_retention`]): candidates reach down to
//!   `max_ts − W ≥ τ − W ≥ t − 2W`.
//! * The restrictive-policy seen ring's standard `now − 2W` cutoff is
//!   already sufficient for the same reason — no change needed.
//! * Admission time. A deferred trigger's chains are admitted at stream
//!   time past its window (`finalization_deadline ≤ min_ts + W ≤ τ + W <
//!   now`), so they emit immediately. A trigger on a sequence's last
//!   join slot is admitted at its own arrival, after it is buffered and
//!   the finalizer has observed it: its chain members precede it in
//!   `(ts, seq)` order and sit in the slot buffers, negated and Kleene
//!   candidates between join slots sit in the finalizer's history, and a
//!   trailing negation or Kleene slot holds the match in the finalizer's
//!   pending queue until `min_ts + W`, as under the eager executors.
//!   [`partial_count`](Executor::partial_count) is the deferred trigger
//!   count plus that queue.
//!
//! Each match is generated exactly once: a chain binds `order[0]` to a
//! unique trigger event, and `compatible` rejects a candidate already
//! bound in the chain. Emission (admission checks, selection-policy
//! validation, negation, Kleene collection) reuses the identical
//! [`Finalizer`] and `compatible` machinery as the eager executors, so
//! the emitted match multiset is bit-identical — only a deferred
//! trigger's `detected_at` moves to the window close, which the match key
//! deliberately excludes.

use std::collections::VecDeque;
use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, ExecutorRec, LazyExecRec};
use acep_plan::LazyPlan;
use acep_types::{Event, SubKind, Timestamp};

use crate::buffer::EventBuffer;
use crate::context::ExecContext;
use crate::executor::Executor;
use crate::finalize::{Completed, Finalizer, FinalizerHistory};
use crate::matches::Match;
use crate::order_exec::extend_from_history;
use crate::partial::{Partial, PartialStore};
use crate::selection::SharedSeen;

/// How many events between expiry sweeps of quiet slot buffers.
const SWEEP_INTERVAL: u32 = 256;

/// A deferred rare-slot arrival. Fires (chains are constructed) once
/// stream time strictly exceeds `deadline`.
#[derive(Debug)]
struct Trigger {
    ev: Arc<Event>,
    /// `ev.timestamp + W` (saturating): the last stream time at which a
    /// joining event may still arrive.
    deadline: Timestamp,
}

/// Lazy-chain executor for one sub-pattern.
pub struct LazyExecutor {
    ctx: Arc<ExecContext>,
    /// Slot indices in ascending-frequency order (Kleene slots excluded
    /// — they are resolved by the finalizer).
    join_order: Vec<usize>,
    /// Event history per join position, retaining `2W` of stream time.
    buffers: Vec<EventBuffer>,
    /// Unfired deferred triggers in arrival order. In-order delivery
    /// makes their deadlines nondecreasing, so readiness is a pop-front
    /// scan.
    triggers: VecDeque<Trigger>,
    /// The trigger slot is the last join slot of a sequence: triggers
    /// fire on arrival instead of being deferred.
    fire_on_arrival: bool,
    /// Transient chain-construction scratch, cleared after every fire
    /// batch — nothing lives here between events.
    store: PartialStore,
    /// Reused depth-first work stack of `(partial, depth)` items.
    stack: Vec<(Partial, usize)>,
    /// Reused scratch of join positions served by the current event.
    positions_scratch: Vec<usize>,
    finalizer: Finalizer,
    comparisons: u64,
    events_since_sweep: u32,
}

impl LazyExecutor {
    /// Creates an executor following `plan` for the compiled sub-pattern
    /// `ctx`.
    pub fn new(ctx: Arc<ExecContext>, plan: &LazyPlan) -> Self {
        assert_eq!(plan.n(), ctx.n, "plan size must match the sub-pattern");
        let join_order: Vec<usize> = plan
            .order
            .iter()
            .copied()
            .filter(|&s| !ctx.kleene[s])
            .collect();
        let m = join_order.len();
        debug_assert!(m >= 1, "ExecContext guarantees a non-Kleene slot");
        let retention = ctx.window.saturating_mul(2);
        let fire_on_arrival =
            ctx.kind == SubKind::Sequence && ctx.next_join_slot(join_order[0]).is_none();
        Self {
            finalizer: Finalizer::with_history_retention(Arc::clone(&ctx), retention),
            ctx,
            buffers: (0..m).map(|_| EventBuffer::new(retention)).collect(),
            triggers: VecDeque::new(),
            fire_on_arrival,
            store: PartialStore::new(),
            stack: Vec::new(),
            positions_scratch: Vec::new(),
            join_order,
            comparisons: 0,
            events_since_sweep: 0,
        }
    }

    /// Number of join levels (non-Kleene slots).
    pub fn depth(&self) -> usize {
        self.join_order.len()
    }

    /// Rebuilds an executor from a checkpoint record. The plan must be
    /// the one the exporting executor ran: buffer indices in the record
    /// are positions in the plan's join order, and trigger deadlines are
    /// recomputed from the trigger events' timestamps.
    pub fn restore(
        ctx: Arc<ExecContext>,
        plan: &LazyPlan,
        rec: &LazyExecRec,
        events: &EventMap,
    ) -> Result<Self, CheckpointError> {
        let mut exec = Self::new(ctx, plan);
        if rec.buffers.len() != exec.buffers.len() {
            return Err(CheckpointError::BadValue("lazy executor shape"));
        }
        for (buf, rec) in exec.buffers.iter_mut().zip(&rec.buffers) {
            buf.import_rec(rec, events)?;
        }
        for &seq in &rec.triggers {
            let ev = events.get(seq)?;
            let deadline = exec.ctx.window_end(ev.timestamp);
            exec.triggers.push_back(Trigger { ev, deadline });
        }
        exec.finalizer.import_rec(&rec.finalizer, events)?;
        exec.comparisons = rec.comparisons;
        exec.events_since_sweep = rec.events_since_sweep as u32;
        Ok(exec)
    }

    fn sweep(&mut self, now: Timestamp) {
        for buf in &mut self.buffers {
            buf.expire(now);
        }
    }

    /// Fires every trigger whose deadline strictly precedes `now`,
    /// admitting completed chains at stream time `now`.
    fn fire_ready(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        let mut fired = false;
        while self.triggers.front().is_some_and(|t| t.deadline < now) {
            let t = self.triggers.pop_front().expect("front checked");
            self.fire(&t.ev, now, out);
            fired = true;
        }
        if fired {
            self.store.clear();
        }
    }

    /// Constructs every chain seeded on the trigger event, extending
    /// through the buffered positions in plan order (depth-first, in
    /// buffer order — the enumeration order of the eager cascade).
    fn fire(&mut self, ev: &Arc<Event>, now: Timestamp, out: &mut Vec<Match>) {
        let m = self.join_order.len();
        debug_assert!(self.stack.is_empty());
        let seed = Partial::seed(&mut self.store, self.join_order[0], Arc::clone(ev));
        self.stack.push((seed, 1));
        while let Some((partial, depth)) = self.stack.pop() {
            if depth == m {
                let completed = Completed::from_partial(&self.store, &partial, self.ctx.n);
                self.finalizer.admit(completed, now, out);
                continue;
            }
            self.comparisons += extend_from_history(
                &self.ctx,
                &self.join_order,
                depth,
                partial,
                &self.buffers[depth],
                self.finalizer.seen().as_deref(),
                &mut self.store,
                &mut self.stack,
            );
        }
    }
}

impl Executor for LazyExecutor {
    fn on_event(&mut self, ev: &Arc<Event>, out: &mut Vec<Match>) {
        let now = ev.timestamp;
        // Fire before the finalizer observes (and prunes history for)
        // the current event — see the module-level invariants.
        self.fire_ready(now, out);
        self.finalizer.observe(ev, out);
        self.events_since_sweep += 1;
        if self.events_since_sweep >= SWEEP_INTERVAL {
            self.events_since_sweep = 0;
            self.sweep(now);
        }
        // An event type may serve several join positions (reusable
        // scratch — no per-event allocation).
        let mut positions = std::mem::take(&mut self.positions_scratch);
        positions.clear();
        for (pos, &slot) in self.join_order.iter().enumerate() {
            if self.ctx.slot_types[slot] == ev.type_id {
                positions.push(pos);
            }
        }
        let mut fire_now = false;
        if positions.first() == Some(&0) {
            self.comparisons += 1;
            if self.ctx.unary_ok(self.join_order[0], ev) {
                if self.fire_on_arrival {
                    fire_now = true;
                } else {
                    self.triggers.push_back(Trigger {
                        ev: Arc::clone(ev),
                        deadline: self.ctx.window_end(now),
                    });
                }
            }
        }
        for &pos in &positions {
            self.buffers[pos].push(Arc::clone(ev));
        }
        self.positions_scratch = positions;
        // Everything a last-slot trigger joins is buffered by now.
        if fire_now {
            self.fire(ev, now, out);
            self.store.clear();
        }
    }

    fn advance_time(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        self.fire_ready(now, out);
        self.finalizer.flush_ready(now, out);
    }

    fn finish(&mut self, out: &mut Vec<Match>) {
        // End of stream: fire the remaining triggers in arrival order.
        // Admitting at each trigger's own deadline keeps finalization
        // deadlines in the past so everything emits immediately.
        let remaining = std::mem::take(&mut self.triggers);
        for t in &remaining {
            self.fire(&t.ev, t.deadline, out);
        }
        if !remaining.is_empty() {
            self.store.clear();
        }
        self.finalizer.finish(out);
    }

    fn export_history(&self) -> FinalizerHistory {
        self.finalizer.export_history()
    }

    fn import_history(&mut self, history: FinalizerHistory) {
        self.finalizer.import_history(history);
    }

    fn partial_count(&self) -> usize {
        self.triggers.len() + self.finalizer.pending_count()
    }

    fn buffered_events(&self) -> usize {
        self.buffers.iter().map(EventBuffer::len).sum()
    }

    fn share_seen(&mut self, shared: &SharedSeen) {
        self.finalizer.share_seen(shared);
    }

    fn arena_nodes(&self) -> usize {
        self.store.len()
    }

    fn comparisons(&self) -> u64 {
        self.comparisons + self.finalizer.comparisons()
    }

    fn min_pending_deadline(&self) -> Option<Timestamp> {
        let trigger = self.triggers.front().map(|t| t.deadline);
        match (trigger, self.finalizer.min_pending_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn export_rec(&self, table: &mut EventTable) -> ExecutorRec {
        ExecutorRec::Lazy(LazyExecRec {
            buffers: self.buffers.iter().map(|b| b.export_rec(table)).collect(),
            triggers: self.triggers.iter().map(|t| table.intern(&t.ev)).collect(),
            finalizer: self.finalizer.export_rec(table),
            comparisons: self.comparisons,
            events_since_sweep: self.events_since_sweep as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order_exec::OrderExecutor;
    use acep_plan::OrderPlan;
    use acep_types::{attr, EventTypeId, Pattern, PatternExpr, SelectionPolicy, Value};

    fn t(i: u32) -> EventTypeId {
        EventTypeId(i)
    }

    fn ev(tid: u32, ts: u64, seq: u64, v: i64) -> Arc<Event> {
        Event::new(t(tid), ts, seq, vec![Value::Int(v)])
    }

    fn run(exec: &mut dyn Executor, events: &[Arc<Event>]) -> Vec<Match> {
        let mut out = Vec::new();
        for e in events {
            exec.on_event(e, &mut out);
        }
        exec.finish(&mut out);
        out
    }

    fn sorted_keys(matches: &[Match]) -> Vec<crate::matches::MatchKey> {
        let mut keys: Vec<_> = matches.iter().map(Match::key).collect();
        keys.sort();
        keys
    }

    fn seq_abc() -> Pattern {
        Pattern::sequence("p", &[t(0), t(1), t(2)], 100)
    }

    #[test]
    fn detects_sequence_after_window_close() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![1, 2, 0]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        // The trigger (B at ts 20) is not the sequence's last slot: a
        // later C could still join it, so it waits for its window to
        // close.
        assert!(out.is_empty());
        assert_eq!(exec.partial_count(), 1);
        assert_eq!(exec.min_pending_deadline(), Some(120));
        exec.on_event(&ev(9, 121, 3, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].min_ts, 10);
        assert_eq!(out[0].max_ts, 30);
        assert_eq!(exec.partial_count(), 0);
        assert_eq!(exec.min_pending_deadline(), None);
    }

    #[test]
    fn advance_time_fires_ready_triggers() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![1, 2, 0]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        exec.advance_time(120, &mut out);
        assert!(out.is_empty(), "deadline 120 not strictly passed");
        exec.advance_time(121, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn last_slot_trigger_of_a_sequence_fires_on_arrival() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![2, 1, 0]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        // C is the last slot: everything it joins already arrived.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].detected_at, 30);
        assert_eq!(exec.partial_count(), 0);
        assert_eq!(exec.min_pending_deadline(), None);
        exec.finish(&mut out);
        assert_eq!(out.len(), 1, "nothing left to fire");

        // The same trigger slot of a conjunction keeps the window-close
        // rule: a later A or B could still join it.
        let p = Pattern::conjunction("p", &[t(0), t(1), t(2)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![2, 1, 0]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        assert!(out.is_empty());
        assert_eq!(exec.min_pending_deadline(), Some(130));
        exec.advance_time(131, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn on_arrival_match_with_trailing_negation_waits_for_its_deadline() {
        // SEQ(A, B, ~C) under [B, A]: B is the last join slot, so its
        // chains are built on arrival, but a C up to min_ts + W may still
        // cancel the match — the finalizer holds it until then.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
                PatternExpr::neg(PatternExpr::prim(t(2))),
            ]))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let plan = LazyPlan::new(vec![1, 0]);
        for cancelled in [false, true] {
            let mut exec = LazyExecutor::new(Arc::clone(&ctx), &plan);
            let mut out = Vec::new();
            exec.on_event(&ev(0, 10, 0, 0), &mut out);
            exec.on_event(&ev(1, 20, 1, 0), &mut out);
            assert!(out.is_empty());
            assert_eq!(exec.partial_count(), 1, "held in the finalizer");
            assert_eq!(exec.min_pending_deadline(), Some(110));
            if cancelled {
                exec.on_event(&ev(2, 50, 2, 0), &mut out);
            }
            exec.advance_time(110, &mut out);
            assert!(out.is_empty(), "deadline 110 not strictly passed");
            exec.advance_time(111, &mut out);
            if cancelled {
                assert!(out.is_empty());
            } else {
                assert_eq!(out.len(), 1);
                assert_eq!((out[0].detected_at, out[0].deadline), (111, 110));
            }
            assert_eq!(exec.partial_count(), 0);
        }
    }

    #[test]
    fn an_unbounded_window_defers_triggers_to_the_end() {
        // WITHIN u64::MAX: a deferred trigger's window never closes, so
        // its chains are built at `finish`, not at a wrapped-around
        // deadline.
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], u64::MAX);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![1, 2, 0]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        exec.on_event(&ev(9, 1 << 62, 3, 0), &mut out);
        assert!(out.is_empty());
        assert_eq!(exec.min_pending_deadline(), Some(u64::MAX));
        exec.finish(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn finish_fires_remaining_triggers() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![2, 1, 0]));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn matches_eager_multiset_on_skewed_stream() {
        // The lazy executor's reason to exist: same matches, far fewer
        // stored partials when the trigger type is rare.
        let p = seq_abc();
        let mut events = Vec::new();
        let mut seq = 0;
        for i in 0..200u64 {
            events.push(ev(0, i * 10, seq, 0));
            seq += 1;
            if i % 10 == 0 {
                events.push(ev(1, i * 10 + 1, seq, 0));
                seq += 1;
            }
            if i % 40 == 0 {
                events.push(ev(2, i * 10 + 2, seq, 0));
                seq += 1;
            }
        }
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut eager = OrderExecutor::new(Arc::clone(&ctx), &OrderPlan::identity(3));
        let mut lazy = LazyExecutor::new(Arc::clone(&ctx), &LazyPlan::new(vec![2, 1, 0]));
        let mut eager_peak = 0usize;
        let mut lazy_peak = 0usize;
        let mut m1 = Vec::new();
        let mut m2 = Vec::new();
        for e in &events {
            eager.on_event(e, &mut m1);
            lazy.on_event(e, &mut m2);
            eager_peak = eager_peak.max(eager.partial_count());
            lazy_peak = lazy_peak.max(lazy.partial_count());
        }
        eager.finish(&mut m1);
        lazy.finish(&mut m2);
        assert_eq!(sorted_keys(&m1), sorted_keys(&m2));
        assert!(!m1.is_empty());
        assert!(
            lazy_peak * 5 <= eager_peak,
            "lazy peak {lazy_peak} should be ≥5× below eager peak {eager_peak}"
        );
    }

    #[test]
    fn predicates_and_window_are_enforced() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
            ]))
            .condition(attr(0, 0).eq(attr(1, 0)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![1, 0]));
        let matches = run(
            &mut exec,
            &[
                ev(0, 10, 0, 7),
                ev(0, 11, 1, 8),
                ev(0, 300, 2, 7), // out of window for the B below
                ev(1, 320, 3, 7),
            ],
        );
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].event_of(acep_types::VarId(0)).unwrap().seq, 2);
    }

    #[test]
    fn trigger_unary_predicate_filters_registration() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
            ]))
            .condition(attr(0, 0).gt(acep_types::constant(0)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![0, 1]));
        let mut out = Vec::new();
        exec.on_event(&ev(1, 10, 0, 0), &mut out);
        exec.on_event(&ev(0, 20, 1, -5), &mut out); // fails A.x > 0
        assert_eq!(exec.partial_count(), 0, "disqualified trigger not stored");
        exec.on_event(&ev(0, 30, 2, 5), &mut out);
        assert_eq!(exec.partial_count(), 1);
    }

    #[test]
    fn conjunction_joins_across_arrival_orders() {
        let p = Pattern::conjunction("p", &[t(0), t(1), t(2)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![2, 0, 1]));
        let matches = run(
            &mut exec,
            &[ev(1, 10, 0, 0), ev(2, 15, 1, 0), ev(0, 20, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn same_type_in_two_slots_requires_distinct_events() {
        let p = Pattern::conjunction("p", &[t(0), t(0)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::identity(2));
        let matches = run(&mut exec, &[ev(0, 10, 0, 0), ev(0, 20, 1, 0)]);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn kleene_and_negation_flow_through_the_finalizer() {
        // SEQ(A, B*, C) and SEQ(A, ~B, C) under the lazy plan [C, A].
        let kp = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&kp.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![2, 1, 0]));
        assert_eq!(exec.depth(), 2);
        let matches = run(
            &mut exec,
            &[
                ev(0, 10, 0, 0),
                ev(1, 15, 1, 0),
                ev(1, 20, 2, 0),
                ev(2, 30, 3, 0),
            ],
        );
        assert_eq!(matches.len(), 1);
        let set = &matches[0]
            .bindings
            .iter()
            .find(|(v, _)| v.0 == 1)
            .unwrap()
            .1;
        assert_eq!(set.len(), 2);

        let np = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::neg(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .window(100)
            .build()
            .unwrap();
        let nctx = ExecContext::compile(&np.canonical().branches[0]).unwrap();
        let mut blocked = LazyExecutor::new(Arc::clone(&nctx), &LazyPlan::identity(2));
        let matches = run(
            &mut blocked,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert!(matches.is_empty());
        let mut open = LazyExecutor::new(nctx, &LazyPlan::identity(2));
        let matches = run(&mut open, &[ev(0, 10, 0, 0), ev(2, 30, 2, 0)]);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn restrictive_policy_matches_eager_multiset() {
        for policy in [
            SelectionPolicy::StrictContiguity,
            SelectionPolicy::SkipTillNext,
        ] {
            let p = seq_abc().with_policy(policy);
            let ctx =
                ExecContext::compile_with_policy(&p.canonical().branches[0], p.policy).unwrap();
            let events = [
                ev(0, 10, 0, 0),
                ev(0, 12, 1, 0),
                ev(1, 20, 2, 0),
                ev(5, 25, 3, 0), // foreign interposer
                ev(1, 28, 4, 0),
                ev(2, 30, 5, 0),
                ev(2, 150, 6, 0),
            ];
            let mut eager = OrderExecutor::new(Arc::clone(&ctx), &OrderPlan::identity(3));
            let mut lazy = LazyExecutor::new(Arc::clone(&ctx), &LazyPlan::new(vec![2, 1, 0]));
            let m1 = run(&mut eager, &events);
            let m2 = run(&mut lazy, &events);
            assert_eq!(sorted_keys(&m1), sorted_keys(&m2), "policy {policy:?}");
        }
    }

    #[test]
    fn big_time_gap_does_not_lose_buffered_history() {
        // The trigger's chains survive a stream gap far larger than the
        // window: firing happens before the gap event is observed.
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = LazyExecutor::new(ctx, &LazyPlan::new(vec![2, 1, 0]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        exec.on_event(&ev(9, 1_000_000, 3, 0), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn checkpoint_round_trip_preserves_behavior() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let plan = LazyPlan::new(vec![1, 2, 0]);
        let mut exec = LazyExecutor::new(Arc::clone(&ctx), &plan);
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        exec.on_event(&ev(2, 30, 2, 0), &mut out);
        assert!(out.is_empty());

        let mut table = EventTable::new();
        let rec = exec.export_rec(&mut table);
        let mut events = EventMap::new();
        for r in table.into_records() {
            events.insert(&r);
        }
        let ExecutorRec::Lazy(rec) = rec else {
            panic!("lazy executor must export a lazy record");
        };
        let mut restored = LazyExecutor::restore(ctx, &plan, &rec, &events).unwrap();
        assert_eq!(restored.partial_count(), exec.partial_count());
        assert_eq!(restored.buffered_events(), exec.buffered_events());
        assert_eq!(restored.min_pending_deadline(), exec.min_pending_deadline());

        let mut a = Vec::new();
        let mut b = Vec::new();
        exec.on_event(&ev(9, 121, 3, 0), &mut a);
        restored.on_event(&ev(9, 121, 3, 0), &mut b);
        assert_eq!(sorted_keys(&a), sorted_keys(&b));
        assert_eq!(a.len(), 1);
    }
}
