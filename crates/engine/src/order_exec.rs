//! The order-based (lazy-NFA) executor.
//!
//! Implements the lazy evaluation principle of the paper's reference
//! \[36\] (Fig. 1(b)): events are buffered per plan position, partial
//! matches are *opened* only by events of the first type in the plan
//! order, and deeper positions are filled either from history (when the
//! partial is created) or by later arrivals (when they extend stored
//! partials). The number of stored partials per level is exactly what the
//! paper's order cost model counts, so plan quality directly drives
//! per-event work.
//!
//! Partials live in a per-executor [`PartialStore`] arena: extending a
//! stored partial pushes one binding node instead of cloning an n-slot
//! vector, and sibling extensions of the same partial share its chain.
//! The cascade runs on an explicit reusable stack (depth-first, in
//! buffer order — the same order the recursive seed implementation
//! produced), so the per-event hot path performs no `Vec` allocations.
//!
//! Extending a partial at plan position `d` is one join step: the new
//! slot `order[d]` onto the bound slots `order[..d]`. Its step masks
//! ([`ExecContext::order_step`]) are computed once per position — per
//! arriving event in `process_at`, per popped partial in the cascade —
//! and [`compatible`] tests only the bound slots they name: identity
//! against slots of the candidate's type, `SEQ` order against the bound
//! slots next to the new one, conditions against linked slots. Its chain
//! walk stops once every masked slot has been seen.
//!
//! A cascade step reads a position's buffer — stream-ordered by
//! construction ([`EventBuffer`]) — only over the slice its time bounds
//! allow (`scan_span`: the window around the partial, cut at the `SEQ`
//! neighbours the step's order mask names). Every buffered event is
//! still charged to `comparisons()`; those outside the slice fail on
//! time alone, which debug builds assert.

use std::sync::Arc;

use acep_checkpoint::{
    BufferRec, CheckpointError, EventMap, EventTable, ExecutorRec, OrderExecRec,
};
use acep_plan::OrderPlan;
use acep_types::faultpoint::{self, FaultPoint};
use acep_types::{Event, Timestamp};

use crate::buffer::{stream_key, EventBuffer, KeySpan};
use crate::context::{ExecContext, StepMasks};
use crate::executor::Executor;
use crate::finalize::{Completed, Finalizer, FinalizerHistory};
use crate::matches::Match;
use crate::partial::{Partial, PartialStore};
use crate::selection::{prune_extension, SeenLog};

/// How many events between full expiry sweeps of untouched levels.
const SWEEP_INTERVAL: u32 = 256;

/// Order-plan executor for one sub-pattern.
pub struct OrderExecutor {
    ctx: Arc<ExecContext>,
    /// Slot indices in processing order (Kleene slots excluded — they are
    /// resolved by the finalizer).
    join_order: Vec<usize>,
    /// Event history per join position.
    buffers: Vec<EventBuffer>,
    /// `levels[d]` holds partials with positions `0..=d` bound.
    /// The final depth is not stored (completions go to the finalizer).
    levels: Vec<Vec<Partial>>,
    /// Shared match buffer backing every stored partial.
    store: PartialStore,
    /// Reused depth-first work stack of `(partial, depth)` items.
    cascade_stack: Vec<(Partial, usize)>,
    /// Reused scratch of join positions served by the current event.
    positions_scratch: Vec<usize>,
    finalizer: Finalizer,
    comparisons: u64,
    events_since_sweep: u32,
}

impl OrderExecutor {
    /// Creates an executor following `plan` for the compiled sub-pattern
    /// `ctx`.
    pub fn new(ctx: Arc<ExecContext>, plan: &OrderPlan) -> Self {
        assert_eq!(plan.n(), ctx.n, "plan size must match the sub-pattern");
        let join_order: Vec<usize> = plan
            .order
            .iter()
            .copied()
            .filter(|&s| !ctx.kleene[s])
            .collect();
        let m = join_order.len();
        debug_assert!(m >= 1, "ExecContext guarantees a non-Kleene slot");
        let window = ctx.window;
        Self {
            finalizer: Finalizer::new(Arc::clone(&ctx)),
            ctx,
            buffers: (0..m).map(|_| EventBuffer::new(window)).collect(),
            levels: vec![Vec::new(); m.saturating_sub(1)],
            store: PartialStore::new(),
            cascade_stack: Vec::new(),
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
    /// the one the exporting executor ran: buffer/level indices in the
    /// record are positions in the plan's join order.
    pub fn restore(
        ctx: Arc<ExecContext>,
        plan: &OrderPlan,
        rec: &OrderExecRec,
        events: &EventMap,
    ) -> Result<Self, CheckpointError> {
        let mut exec = Self::new(ctx, plan);
        if rec.buffers.len() != exec.buffers.len() || rec.levels.len() != exec.levels.len() {
            return Err(CheckpointError::BadValue("order executor shape"));
        }
        for (buf, rec) in exec.buffers.iter_mut().zip(&rec.buffers) {
            for &seq in &rec.seqs {
                buf.push(events.get(seq)?);
            }
        }
        for (level, recs) in exec.levels.iter_mut().zip(&rec.levels) {
            for p in recs {
                level.push(Partial::restore_rec(&mut exec.store, p, events)?);
            }
        }
        exec.finalizer.import_rec(&rec.finalizer, events)?;
        exec.comparisons = rec.comparisons;
        exec.events_since_sweep = rec.events_since_sweep as u32;
        Ok(exec)
    }

    fn sweep(&mut self, now: Timestamp) {
        faultpoint::hit(FaultPoint::MidCompaction);
        let window = self.ctx.window;
        for level in &mut self.levels {
            level.retain(|p| !p.expired(now, window));
        }
        for buf in &mut self.buffers {
            buf.expire(now);
        }
        if self.store.should_compact() {
            let levels = &mut self.levels;
            self.store.compact(|mark| {
                for level in levels.iter_mut() {
                    for p in level.iter_mut() {
                        mark(p);
                    }
                }
            });
        }
    }

    /// Handles `ev` arriving at join position `pos`.
    fn process_at(&mut self, pos: usize, ev: &Arc<Event>, now: Timestamp, out: &mut Vec<Match>) {
        let slot = self.join_order[pos];
        if pos == 0 {
            self.comparisons += 1;
            if self.ctx.unary_ok(slot, ev) {
                let seed = Partial::seed(&mut self.store, slot, Arc::clone(ev));
                self.cascade_stack.push((seed, 1));
                self.run_cascade(now, out);
            }
        } else {
            let window = self.ctx.window;
            self.levels[pos - 1].retain(|p| !p.expired(now, window));
            let step = self.ctx.order_step(&self.join_order, pos);
            // Extensions go straight onto the cascade stack (reversed, so
            // the depth-first drain visits them in stored-partial order).
            let depth_before = self.cascade_stack.len();
            for i in 0..self.levels[pos - 1].len() {
                let pm = self.levels[pos - 1][i];
                self.comparisons += 1;
                if compatible(
                    &self.ctx,
                    &self.store,
                    &pm,
                    slot,
                    ev,
                    &step,
                    self.finalizer.seen().as_deref(),
                ) {
                    let ext = pm.extend(&mut self.store, slot, Arc::clone(ev));
                    self.cascade_stack.push((ext, pos + 1));
                }
            }
            self.cascade_stack[depth_before..].reverse();
            self.run_cascade(now, out);
        }
    }

    /// Drains the cascade stack: each popped partial of depth `d` is
    /// stored at its level and greedily extended with already-buffered
    /// events of position `d` (complete combinations go to the
    /// finalizer). Equivalent to the recursive cascade, without the
    /// per-call extension vectors.
    fn run_cascade(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        let m = self.join_order.len();
        while let Some((partial, depth)) = self.cascade_stack.pop() {
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
                &mut self.cascade_stack,
            );
            self.levels[depth - 1].push(partial);
        }
    }
}

impl Executor for OrderExecutor {
    fn on_event(&mut self, ev: &Arc<Event>, out: &mut Vec<Match>) {
        let now = ev.timestamp;
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
        for &pos in &positions {
            self.process_at(pos, ev, now, out);
        }
        // Buffer only after processing so an event never joins itself.
        for &pos in &positions {
            self.buffers[pos].push(Arc::clone(ev));
        }
        self.positions_scratch = positions;
    }

    fn advance_time(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        self.finalizer.flush_ready(now, out);
    }

    fn finish(&mut self, out: &mut Vec<Match>) {
        self.finalizer.finish(out);
    }

    fn export_history(&self) -> FinalizerHistory {
        self.finalizer.export_history()
    }

    fn import_history(&mut self, history: FinalizerHistory) {
        self.finalizer.import_history(history);
    }

    fn partial_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum::<usize>() + self.finalizer.pending_count()
    }

    fn buffered_events(&self) -> usize {
        self.buffers.iter().map(EventBuffer::len).sum()
    }

    fn share_seen(&mut self, shared: &crate::selection::SharedSeen) {
        self.finalizer.share_seen(shared);
    }

    fn arena_nodes(&self) -> usize {
        self.store.len()
    }

    fn comparisons(&self) -> u64 {
        self.comparisons + self.finalizer.comparisons()
    }

    fn min_pending_deadline(&self) -> Option<Timestamp> {
        self.finalizer.min_pending_deadline()
    }

    fn export_rec(&self, table: &mut EventTable) -> ExecutorRec {
        ExecutorRec::Order(OrderExecRec {
            buffers: self
                .buffers
                .iter()
                .map(|b| BufferRec {
                    seqs: b.iter().map(|e| table.intern(e)).collect(),
                })
                .collect(),
            levels: self
                .levels
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|p| p.export_rec(&self.store, table))
                        .collect()
                })
                .collect(),
            finalizer: self.finalizer.export_rec(table),
            comparisons: self.comparisons,
            events_since_sweep: self.events_since_sweep as u64,
        })
    }
}

/// One cascade step over history: extends `partial`, which binds
/// `order[..depth]`, at slot `order[depth]` with every event of `buf`
/// that passes [`compatible`], and pushes the extensions onto `stack`
/// (at `depth + 1`) so that the depth-first drain pops them in buffer
/// order. Only the slice of `buf` inside [`scan_span`] is tested — the
/// events outside it fail on time alone (asserted in debug builds).
/// Returns the candidates considered, the whole buffer: the unit
/// `comparisons()` charges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_from_history(
    ctx: &ExecContext,
    order: &[usize],
    depth: usize,
    partial: Partial,
    buf: &EventBuffer,
    seen: Option<&SeenLog>,
    store: &mut PartialStore,
    stack: &mut Vec<(Partial, usize)>,
) -> u64 {
    if buf.is_empty() {
        return 0;
    }
    let slot = order[depth];
    let step = ctx.order_step(order, depth);
    let joins = |store: &PartialStore, ev: &Arc<Event>| {
        compatible(ctx, store, &partial, slot, ev, &step, seen)
    };
    let range = buf.slice(&scan_span(ctx, store, &partial, slot, &step));
    buf.debug_assert_sound(&range, |ev| joins(store, ev));
    let stacked = stack.len();
    for ev in buf.range(range) {
        if joins(store, ev) {
            stack.push((partial.extend(store, slot, Arc::clone(ev)), depth + 1));
        }
    }
    stack[stacked..].reverse();
    buf.len() as u64
}

/// The keys a buffered event needs to extend `partial` at `slot` under
/// `step` — the temporal part of [`compatible`]: inside the window around
/// the partial's time range, and on the right side of each bound
/// neighbour `step.order` names (strictly after one that precedes `slot`
/// in the pattern, strictly before one that follows it). One chain walk,
/// stopping once every neighbour was seen.
pub(crate) fn scan_span(
    ctx: &ExecContext,
    store: &PartialStore,
    partial: &Partial,
    slot: usize,
    step: &StepMasks,
) -> KeySpan {
    let mut span = ctx.window_span(partial.min_ts, partial.max_ts);
    let mut left = step.order;
    if left != 0 {
        for (t, b) in partial.chain(store) {
            let bit = 1 << t;
            if left & bit == 0 {
                continue;
            }
            span = if t < slot {
                span.after(stream_key(b))
            } else {
                span.before(stream_key(b))
            };
            left &= !bit;
            if left == 0 {
                break;
            }
        }
    }
    span
}

/// Full compatibility check for extending `partial` with `ev` at `slot`,
/// testing only the bound slots `step` names (the step's masks,
/// [`ExecContext::order_step`]). `seen` (present only under restrictive
/// selection policies) enables conservative policy pruning of the
/// extension cascade. This is the unit the engines' `comparisons()`
/// counter counts.
#[inline]
pub fn compatible(
    ctx: &ExecContext,
    store: &PartialStore,
    partial: &Partial,
    slot: usize,
    ev: &Arc<Event>,
    step: &StepMasks,
    seen: Option<&SeenLog>,
) -> bool {
    // Window span.
    let min_ts = partial.min_ts.min(ev.timestamp);
    let max_ts = partial.max_ts.max(ev.timestamp);
    if max_ts - min_ts > ctx.window || !ctx.unary_ok(slot, ev) {
        return false;
    }
    // One walk over the chain, stopping once every masked slot has been
    // seen: against each, the candidate is not the bound event, respects
    // the temporal order and satisfies the pair conditions.
    let mut left = step.any();
    if left != 0 {
        for (t, b) in partial.chain(store) {
            let bit = 1 << t;
            if left & bit == 0 {
                continue;
            }
            if (step.identity & bit != 0 && b.seq == ev.seq)
                || (step.order & bit != 0 && !ExecContext::ordered(slot, ev, t, b))
                || (step.cond & bit != 0 && !ctx.pair_ok(slot, ev, t, b))
            {
                return false;
            }
            left &= !bit;
            if left == 0 {
                break;
            }
        }
    }
    // Selection-policy pruning: drop extensions every completion of
    // which would fail emit-time validation.
    !seen.is_some_and(|seen| prune_extension(ctx, seen, store, partial, slot, ev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::build_executor;
    use acep_plan::{EvalPlan, LazyPlan};
    use acep_types::{attr, EventTypeId, Pattern, PatternExpr, Value};

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

    fn seq_abc() -> Pattern {
        Pattern::sequence("p", &[t(0), t(1), t(2)], 100)
    }

    #[test]
    fn detects_sequence_in_declaration_order_plan() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].min_ts, 10);
        assert_eq!(matches[0].max_ts, 30);
    }

    #[test]
    fn reversed_plan_finds_the_same_match() {
        // Lazy plan [C, B, A]: the match is only assembled when C's
        // arrival lets the executor scan the history of B and A.
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::new(vec![2, 1, 0]));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn temporal_order_is_enforced() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
        // B arrives before A → no match.
        let matches = run(
            &mut exec,
            &[ev(1, 10, 0, 0), ev(0, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert!(matches.is_empty());
    }

    #[test]
    fn window_is_enforced() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 111, 2, 0)],
        );
        assert!(matches.is_empty(), "span 101 > window 100");
    }

    #[test]
    fn skip_till_any_match_semantics() {
        // Two As and two Bs before one C → 4 matches.
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
        let matches = run(
            &mut exec,
            &[
                ev(0, 10, 0, 0),
                ev(0, 11, 1, 0),
                ev(1, 20, 2, 0),
                ev(1, 21, 3, 0),
                ev(2, 30, 4, 0),
            ],
        );
        assert_eq!(matches.len(), 4);
        // All match keys distinct.
        let mut keys: Vec<_> = matches.iter().map(Match::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn predicates_filter_joins() {
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
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(2));
        let matches = run(
            &mut exec,
            &[
                ev(0, 10, 0, 7),
                ev(0, 11, 1, 8),
                ev(1, 20, 2, 7), // matches seq 0 only
            ],
        );
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].event_of(acep_types::VarId(0)).unwrap().seq, 0);
    }

    #[test]
    fn conjunction_matches_any_arrival_order() {
        let p = Pattern::conjunction("p", &[t(0), t(1), t(2)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::new(vec![2, 0, 1]));
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
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(2));
        // A single A must not match (would need the same event twice);
        // two As produce the two orderings — which are the same event
        // *set* in different slots, both valid under AND.
        let matches = run(&mut exec, &[ev(0, 10, 0, 0), ev(0, 20, 1, 0)]);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn plan_order_changes_work_not_results() {
        // Skewed stream: plan starting with the rare type stores fewer
        // partials but finds the identical match set.
        let p = seq_abc();
        let mut events = Vec::new();
        let mut seq = 0;
        for i in 0..200u64 {
            events.push(ev(0, i * 10, seq, 0)); // frequent A
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
        let mut lazy = OrderExecutor::new(Arc::clone(&ctx), &OrderPlan::new(vec![2, 1, 0]));
        let m1 = run(&mut eager, &events);
        let m2 = run(&mut lazy, &events);
        let mut k1: Vec<_> = m1.iter().map(Match::key).collect();
        let mut k2: Vec<_> = m2.iter().map(Match::key).collect();
        k1.sort();
        k2.sort();
        assert_eq!(k1, k2);
        assert!(!k1.is_empty());
        // The lazy plan should have done less join work on this skew.
        assert!(
            lazy.comparisons() < eager.comparisons(),
            "lazy {} vs eager {}",
            lazy.comparisons(),
            eager.comparisons()
        );
    }

    #[test]
    fn kleene_slot_is_skipped_in_joins_and_filled_at_emission() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
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
        let kleene_set = &matches[0]
            .bindings
            .iter()
            .find(|(v, _)| v.0 == 1)
            .unwrap()
            .1;
        assert_eq!(kleene_set.len(), 2);
    }

    #[test]
    fn negation_blocks_via_finalizer() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::neg(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(Arc::clone(&ctx), &OrderPlan::identity(2));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert!(matches.is_empty());
        // Without the B, the match appears.
        let mut exec2 = OrderExecutor::new(ctx, &OrderPlan::identity(2));
        let matches = run(&mut exec2, &[ev(0, 10, 0, 0), ev(2, 30, 2, 0)]);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn partial_count_reflects_stored_state() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(0, 11, 1, 0), &mut out);
        assert_eq!(exec.partial_count(), 2);
        exec.on_event(&ev(1, 20, 2, 0), &mut out);
        // Two (A,B) partials joined the two As.
        assert_eq!(exec.partial_count(), 4);
    }

    #[test]
    fn stragglers_are_placed_in_stream_order() {
        // SEQ(A, B, C) WHERE a.x < c.x. Ten events stamped 10 arrive
        // with decreasing seq, so each one precedes, in stream order,
        // everything delivered before it; then three in order at 30 and
        // one straggler stamped 20. Every history is kept in stream order
        // whatever the arrival order, so the time-bounded scans find
        // exactly what the sorted feed finds.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
                PatternExpr::prim(t(2)),
            ]))
            .condition(attr(0, 0).lt(attr(2, 0)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut feed: Vec<Arc<Event>> = (0..10u64)
            .rev()
            .map(|seq| ev((seq % 3) as u32, 10, seq, (seq * 7 % 5) as i64))
            .collect();
        feed.extend([ev(2, 30, 20, 4), ev(1, 30, 21, 0), ev(2, 30, 22, 9)]);
        feed.push(ev(1, 20, 15, 0));
        let mut sorted = feed.clone();
        sorted.sort_by_key(|e| (e.timestamp, e.seq));
        // Lazy plans whose trigger is deferred to its window close; a
        // trigger firing on arrival cannot see a later straggler.
        for plan in [
            EvalPlan::Order(OrderPlan::identity(3)),
            EvalPlan::Order(OrderPlan::new(vec![2, 1, 0])),
            EvalPlan::Order(OrderPlan::new(vec![1, 0, 2])),
            EvalPlan::Lazy(LazyPlan::identity(3)),
            EvalPlan::Lazy(LazyPlan::new(vec![1, 2, 0])),
        ] {
            let keys = |events: &[Arc<Event>]| {
                let mut exec = build_executor(Arc::clone(&ctx), &plan);
                let mut keys: Vec<_> = run(&mut *exec, events).iter().map(Match::key).collect();
                keys.sort();
                keys
            };
            let want = keys(&sorted);
            assert!(want.len() > 10, "{plan:?}: {} matches", want.len());
            assert_eq!(keys(&feed), want, "{plan:?}");
        }
    }

    #[test]
    fn deep_extension_shares_chains_in_the_arena() {
        // One A followed by many Bs: every (A,B) partial shares the A
        // seed node, so the slab holds 1 + k nodes, not 2k.
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = OrderExecutor::new(ctx, &OrderPlan::identity(3));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        for i in 0..10u64 {
            exec.on_event(&ev(1, 11 + i, 1 + i, 0), &mut out);
        }
        assert_eq!(exec.partial_count(), 11, "1 seed + 10 (A,B) partials");
        assert_eq!(exec.store.len(), 11, "chains share the seed node");
    }
}
