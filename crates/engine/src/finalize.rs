//! Match finalization: negation guards and Kleene-closure sets.
//!
//! Completed positive join combinations are *admitted* here rather than
//! emitted directly. The finalizer:
//!
//! * rejects matches invalidated by a negated event already seen;
//! * holds matches whose negation scope or Kleene collection window
//!   extends into the future (e.g. a trailing `~D` in `SEQ(A, C, ~D)`)
//!   in a pending queue until their deadline (`min_ts + W`) passes,
//!   invalidating/extending them as further events arrive;
//! * attaches the maximal set of qualifying events to each Kleene slot
//!   (SASE+-style "ALL" semantics, see the README's match semantics);
//! * evaluates conditions spanning three or more variables.
//!
//! Admission is where arena-backed partials are *materialized*: a
//! [`Completed`] owns its per-slot event vector, so pending matches
//! survive level sweeps, arena compaction, and plan migration without
//! pinning executor state. The finalizer also tracks its minimum
//! pending deadline ([`Finalizer::min_pending_deadline`]) so the
//! streaming layer's watermark sweep can skip engines with nothing to
//! emit.
//!
//! Because negated and Kleene events are plain history (not partial
//! matches), their buffers can be exported and re-imported when a new
//! evaluation plan is deployed, so mid-migration matches keep correct
//! negation semantics (see `migration`).

use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, FinalizerRec, PendingRec};
use acep_types::{Event, SubKind, Timestamp};

use crate::buffer::{stream_key, EventBuffer, KeySpan};
use crate::context::{ExecContext, NegGuard};
use crate::matches::Match;
use crate::selection::{self, SeenRef, SharedSeen};

/// Event history needed by negation/Kleene finalization; transferable
/// between plan generations.
#[derive(Debug, Clone)]
pub struct FinalizerHistory {
    /// One buffer per negation guard.
    pub neg: Vec<EventBuffer>,
    /// One buffer per Kleene slot.
    pub kleene: Vec<EventBuffer>,
    /// Engine-delivered event log for restrictive selection policies
    /// (`None` under the default skip-till-any). A handle to the per-key
    /// shared ring: cloning on export registers the importing generation
    /// as a sharer, so migration transfers the log without copying it
    /// and a fresh generation can validate matches whose leading members
    /// (e.g. a leading Kleene set) predate deployment.
    pub seen: Option<SharedSeen>,
}

/// A completed positive join combination, materialized out of the
/// executor's arena (see module docs).
#[derive(Debug, Clone)]
pub struct Completed {
    /// Bound events by slot index (`None` = Kleene slot).
    pub events: Vec<Option<Arc<Event>>>,
    /// Minimum timestamp over bound events.
    pub min_ts: Timestamp,
    /// Maximum timestamp over bound events.
    pub max_ts: Timestamp,
}

impl Completed {
    /// Materializes a completed arena-backed partial (`n` = slot count
    /// of the sub-pattern).
    pub fn from_partial(
        store: &crate::partial::PartialStore,
        p: &crate::partial::Partial,
        n: usize,
    ) -> Self {
        Self {
            events: p.materialize(store, n),
            min_ts: p.min_ts,
            max_ts: p.max_ts,
        }
    }
}

/// A completed positive combination awaiting its finalization deadline.
#[derive(Debug)]
struct PendingMatch {
    completed: Completed,
    /// Collected Kleene events, parallel to `ctx.kleene_slots`.
    kleene_sets: Vec<Vec<Arc<Event>>>,
    /// Last stream time at which an event may still affect this match.
    deadline: Timestamp,
}

/// The finalization stage shared by both executors.
#[derive(Debug)]
pub struct Finalizer {
    ctx: Arc<ExecContext>,
    history: FinalizerHistory,
    pending: Vec<PendingMatch>,
    /// Cached minimum over `pending[..].deadline` (`None` when empty).
    min_deadline: Option<Timestamp>,
    /// Retention span of the neg/Kleene history buffers. `W` for eager
    /// executors (candidates are scanned on admission, which trails an
    /// event by at most one window). The lazy executor passes `2W`: it
    /// admits a trigger's combinations up to `W` after the trigger, so
    /// candidates reach up to `2W` behind the admitting event.
    retention: Timestamp,
    comparisons: u64,
}

impl Finalizer {
    /// Creates a finalizer for the given compiled sub-pattern with the
    /// default (eager-executor) history retention of one window.
    pub fn new(ctx: Arc<ExecContext>) -> Self {
        let window = ctx.window;
        Self::with_history_retention(ctx, window)
    }

    /// Creates a finalizer whose neg/Kleene history buffers retain
    /// `retention` of stream time (see the `retention` field).
    pub fn with_history_retention(ctx: Arc<ExecContext>, retention: Timestamp) -> Self {
        let history = FinalizerHistory {
            neg: ctx
                .negated
                .iter()
                .map(|_| EventBuffer::new(retention))
                .collect(),
            kleene: ctx
                .kleene_slots
                .iter()
                .map(|_| EventBuffer::new(retention))
                .collect(),
            seen: ctx.policy.is_restrictive().then(SharedSeen::new),
        };
        Self {
            ctx,
            history,
            pending: Vec::new(),
            min_deadline: None,
            retention,
            comparisons: 0,
        }
    }

    /// Candidates the finalizer considered (part of the engine's work
    /// metric): one per general condition, per buffered negation or
    /// Kleene candidate of an admission, and per pending match an
    /// arriving negated or Kleene event meets. A buffered candidate
    /// outside the admission's time bounds is charged without being
    /// tested.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of matches currently pending finalization.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Earliest deadline among pending matches — the next stream time
    /// at which advancing this engine's clock could emit something.
    /// `None` means `advance_time` is a guaranteed no-op.
    pub fn min_pending_deadline(&self) -> Option<Timestamp> {
        self.min_deadline
    }

    fn recompute_min_deadline(&mut self) {
        self.min_deadline = self.pending.iter().map(|pm| pm.deadline).min();
    }

    /// Exports the negation/Kleene history (for plan migration).
    pub fn export_history(&self) -> FinalizerHistory {
        self.history.clone()
    }

    /// Imports history exported from a previous plan's finalizer. The
    /// neg/Kleene buffers are rebuilt by re-pushing at *this*
    /// finalizer's retention — the exporter may retain a different span
    /// (eager `W` vs lazy `2W`), and an importing lazy finalizer must
    /// not inherit an eager buffer's shorter expiry going forward.
    pub fn import_history(&mut self, history: FinalizerHistory) {
        debug_assert_eq!(history.neg.len(), self.history.neg.len());
        debug_assert_eq!(history.kleene.len(), self.history.kleene.len());
        debug_assert_eq!(history.seen.is_some(), self.history.seen.is_some());
        let rebuild = |src: &EventBuffer| {
            let mut buf = EventBuffer::new(self.retention);
            for ev in src.iter() {
                buf.push(Arc::clone(ev));
            }
            buf
        };
        self.history.neg = history.neg.iter().map(rebuild).collect();
        self.history.kleene = history.kleene.iter().map(rebuild).collect();
        if let Some(imported) = history.seen {
            // Adopt the exporter's shared ring (the handle is already a
            // registered sharer); our own fresh ring deregisters on drop.
            self.history.seen = Some(imported);
        }
    }

    /// Joins the given per-key shared seen ring, merging anything this
    /// finalizer's private ring already holds (restored checkpoints).
    /// No-op under skip-till-any or when already on the same ring.
    pub fn share_seen(&mut self, shared: &SharedSeen) {
        let Some(own) = self.history.seen.take() else {
            return;
        };
        if own.same_ring(shared) {
            self.history.seen = Some(own);
            return;
        }
        let handle = shared.clone();
        for ev in own.read().iter() {
            handle.push(Arc::clone(ev));
        }
        self.history.seen = Some(handle);
    }

    /// The engine-delivered event log (restrictive policies only).
    pub fn seen(&self) -> Option<SeenRef<'_>> {
        self.history.seen.as_ref().map(SharedSeen::read)
    }

    /// Serializes the full finalizer state (history buffers, seen log,
    /// pending matches) into a checkpoint record, interning every
    /// referenced event into `table`.
    pub fn export_rec(&self, table: &mut EventTable) -> FinalizerRec {
        let mut pending = Vec::with_capacity(self.pending.len());
        for pm in &self.pending {
            pending.push(PendingRec {
                events: pm
                    .completed
                    .events
                    .iter()
                    .map(|o| o.as_ref().map(|e| table.intern(e)))
                    .collect(),
                min_ts: pm.completed.min_ts,
                max_ts: pm.completed.max_ts,
                kleene_sets: pm
                    .kleene_sets
                    .iter()
                    .map(|set| set.iter().map(|e| table.intern(e)).collect())
                    .collect(),
                deadline: pm.deadline,
            });
        }
        FinalizerRec {
            neg: self
                .history
                .neg
                .iter()
                .map(|b| b.export_rec(table))
                .collect(),
            kleene: self
                .history
                .kleene
                .iter()
                .map(|b| b.export_rec(table))
                .collect(),
            seen: self
                .history
                .seen
                .as_ref()
                .map(|s| s.read().iter().map(|e| table.intern(e)).collect()),
            pending,
            comparisons: self.comparisons,
        }
    }

    /// Restores state exported by [`export_rec`](Self::export_rec) into
    /// a freshly constructed finalizer for the same compiled
    /// sub-pattern. Buffers are rebuilt by replaying pushes in stream
    /// order — the same operations that built the originals — so
    /// retention is reproduced exactly.
    pub fn import_rec(
        &mut self,
        rec: &FinalizerRec,
        events: &EventMap,
    ) -> Result<(), CheckpointError> {
        if rec.neg.len() != self.history.neg.len()
            || rec.kleene.len() != self.history.kleene.len()
            || rec.seen.is_some() != self.history.seen.is_some()
        {
            return Err(CheckpointError::BadValue("finalizer shape"));
        }
        let buffers = self.history.neg.iter_mut().chain(&mut self.history.kleene);
        for (buf, rec) in buffers.zip(rec.neg.iter().chain(&rec.kleene)) {
            buf.import_rec(rec, events)?;
        }
        if let (Some(ring), Some(seqs)) = (self.history.seen.as_ref(), rec.seen.as_ref()) {
            // A restored finalizer starts on its own private (empty)
            // ring; the host re-shares per key after restore, merging
            // these entries idempotently.
            for &seq in seqs {
                ring.push(events.get(seq)?);
            }
        }
        self.pending.clear();
        for pm in &rec.pending {
            if pm.events.len() != self.ctx.n || pm.kleene_sets.len() != self.ctx.kleene_slots.len()
            {
                return Err(CheckpointError::BadValue("pending match shape"));
            }
            let mut bound = Vec::with_capacity(pm.events.len());
            for slot in &pm.events {
                bound.push(match slot {
                    Some(seq) => Some(events.get(*seq)?),
                    None => None,
                });
            }
            let mut kleene_sets = Vec::with_capacity(pm.kleene_sets.len());
            for set in &pm.kleene_sets {
                let mut restored = Vec::with_capacity(set.len());
                for &seq in set {
                    restored.push(events.get(seq)?);
                }
                kleene_sets.push(restored);
            }
            self.pending.push(PendingMatch {
                completed: Completed {
                    events: bound,
                    min_ts: pm.min_ts,
                    max_ts: pm.max_ts,
                },
                kleene_sets,
                deadline: pm.deadline,
            });
        }
        self.comparisons = rec.comparisons;
        self.recompute_min_deadline();
        Ok(())
    }

    /// Feeds one event: updates history, invalidates/extends pending
    /// matches, and emits matches whose deadline has passed.
    pub fn observe(&mut self, ev: &Arc<Event>, out: &mut Vec<Match>) {
        let now = ev.timestamp;
        // Restrictive policies log every delivered event. Retention must
        // keep anything a pending or future match could inspect: future
        // admissions have `min_ts ≥ now − W` and members (including
        // leading Kleene events) reach at most `W` before a match's
        // `min_ts`, hence the two cutoff terms.
        if let Some(seen) = self.history.seen.as_ref() {
            seen.push(Arc::clone(ev));
            let mut cutoff = now.saturating_sub(self.ctx.window.saturating_mul(2));
            if let Some(floor) = self.pending.iter().map(|pm| pm.completed.min_ts).min() {
                cutoff = cutoff.min(floor.saturating_sub(self.ctx.window));
            }
            seen.prune(cutoff);
        }
        // Negated events: record and test pending matches.
        let mut invalidated = false;
        for (gi, guard) in self.ctx.negated.iter().enumerate() {
            if guard.event_type == ev.type_id {
                self.history.neg[gi].push(Arc::clone(ev));
                let ctx = &self.ctx;
                let mut comparisons = 0u64;
                let before = self.pending.len();
                self.pending.retain(|pm| {
                    comparisons += 1;
                    !neg_invalidates(ctx, guard, &pm.completed, ev)
                });
                self.comparisons += comparisons;
                invalidated |= self.pending.len() != before;
            }
        }
        if invalidated {
            self.recompute_min_deadline();
        }
        // Kleene events: record and extend pending matches.
        for (ki, &slot) in self.ctx.kleene_slots.iter().enumerate() {
            if self.ctx.slot_types[slot] == ev.type_id {
                self.history.kleene[ki].push(Arc::clone(ev));
                let ctx = Arc::clone(&self.ctx);
                for pm in &mut self.pending {
                    self.comparisons += 1;
                    if kleene_compatible(&ctx, slot, &pm.completed, ev) {
                        pm.kleene_sets[ki].push(Arc::clone(ev));
                    }
                }
            }
        }
        self.flush_ready(now, out);
    }

    /// Admits a completed positive combination observed at stream time
    /// `now`. Emits immediately when possible, otherwise parks it in the
    /// pending queue.
    ///
    /// The negation and Kleene histories are scanned only over the
    /// slice of each buffer that the candidate's temporal scope allows
    /// (`neg_span`, `kleene_span`); the rest is charged to
    /// [`comparisons`](Self::comparisons) untested, as the full scan
    /// would have counted it.
    pub fn admit(&mut self, completed: Completed, now: Timestamp, out: &mut Vec<Match>) {
        // Conditions over 3+ variables.
        for group in self.ctx.general_groups() {
            self.comparisons += 1;
            if !self.ctx.slots_ok(group, &completed.events, None) {
                return;
            }
        }
        // Past negated events. Nothing before the slice can invalidate,
        // so an invalidator at slice position `i` ends the scan where a
        // full scan would have: after `start + i + 1` candidates.
        for (gi, guard) in self.ctx.negated.iter().enumerate() {
            let buf = &self.history.neg[gi];
            let invalidates = |ev: &Arc<Event>| neg_invalidates(&self.ctx, guard, &completed, ev);
            let scope = buf.slice(&neg_span(&self.ctx, guard, &completed));
            buf.debug_assert_sound(&scope, invalidates);
            if let Some(i) = buf.range(scope.clone()).position(invalidates) {
                self.comparisons += (scope.start + i + 1) as u64;
                return;
            }
            self.comparisons += buf.len() as u64;
        }
        // Past Kleene candidates.
        let mut kleene_sets: Vec<Vec<Arc<Event>>> = Vec::with_capacity(self.ctx.kleene_slots.len());
        for (ki, &slot) in self.ctx.kleene_slots.iter().enumerate() {
            let buf = &self.history.kleene[ki];
            let joins = |ev: &&Arc<Event>| kleene_compatible(&self.ctx, slot, &completed, ev);
            let scope = buf.slice(&kleene_span(&self.ctx, slot, &completed));
            buf.debug_assert_sound(&scope, |ev| joins(&ev));
            self.comparisons += buf.len() as u64;
            kleene_sets.push(buf.range(scope).filter(joins).cloned().collect());
        }

        let deadline = self.finalization_deadline(&completed);
        if deadline <= now {
            self.emit(completed, kleene_sets, deadline, now, out);
        } else {
            self.min_deadline = Some(self.min_deadline.map_or(deadline, |m| m.min(deadline)));
            self.pending.push(PendingMatch {
                completed,
                kleene_sets,
                deadline,
            });
        }
    }

    /// Emits pending matches whose deadline strictly precedes `now`
    /// (events carrying `ts == deadline` may still arrive while
    /// `now == deadline`).
    pub fn flush_ready(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        if self.min_deadline.is_none_or(|m| m >= now) {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].deadline < now {
                let pm = self.pending.swap_remove(i);
                self.emit(pm.completed, pm.kleene_sets, pm.deadline, now, out);
            } else {
                i += 1;
            }
        }
        self.recompute_min_deadline();
    }

    /// Flushes everything at end of stream.
    pub fn finish(&mut self, out: &mut Vec<Match>) {
        let pending = std::mem::take(&mut self.pending);
        self.min_deadline = None;
        for pm in pending {
            let at = pm.deadline;
            self.emit(pm.completed, pm.kleene_sets, pm.deadline, at, out);
        }
    }

    /// Latest stream time at which an event may still invalidate or
    /// extend a match built on `completed`.
    fn finalization_deadline(&self, completed: &Completed) -> Timestamp {
        let window_end = self.ctx.window_end(completed.min_ts);
        let mut deadline = 0;
        for guard in &self.ctx.negated {
            let open = !matches!(
                (self.ctx.kind, guard.before_slot),
                (SubKind::Sequence, Some(_))
            );
            if open {
                deadline = deadline.max(window_end);
            }
        }
        for &slot in &self.ctx.kleene_slots {
            let open = match self.ctx.kind {
                SubKind::Sequence => self.ctx.next_join_slot(slot).is_none(),
                SubKind::Conjunction => true,
            };
            if open {
                deadline = deadline.max(window_end);
            }
        }
        deadline
    }

    fn emit(
        &mut self,
        mut completed: Completed,
        kleene_sets: Vec<Vec<Arc<Event>>>,
        deadline: Timestamp,
        now: Timestamp,
        out: &mut Vec<Match>,
    ) {
        // Kleene closure requires at least one occurrence.
        if kleene_sets.iter().any(|s| s.is_empty()) {
            return;
        }
        // Restrictive selection policies filter here — emit-time is the
        // single point of truth, so every plan emits the same multiset.
        if let Some(seen) = self.history.seen.as_ref() {
            if !selection::validate(&self.ctx, &completed, &kleene_sets, &seen.read()) {
                return;
            }
        }
        let mut bindings = Vec::with_capacity(self.ctx.n);
        for &slot in &self.ctx.join_slots {
            let ev = completed.events[slot]
                .take()
                .expect("admitted combination binds every join slot");
            bindings.push((self.ctx.vars[slot], vec![ev]));
        }
        for (&slot, set) in self.ctx.kleene_slots.iter().zip(kleene_sets) {
            bindings.push((self.ctx.vars[slot], set));
        }
        out.push(Match {
            bindings,
            min_ts: completed.min_ts,
            max_ts: completed.max_ts,
            detected_at: now,
            deadline,
        });
    }
}

/// The event bound at join slot `s` of a completed combination.
fn bound(completed: &Completed, s: usize) -> &Arc<Event> {
    completed.events[s].as_ref().expect("bound join slot")
}

/// The keys a negated event needs to fall in `guard`'s temporal scope
/// for a match on `completed` — the scope test of [`neg_invalidates`]:
/// after the `after_slot` anchor, else from the window start; before
/// the `before_slot` anchor, else up to the window end. (The anchors lie
/// inside the window, so starting from the window span and cutting it at
/// the anchors gives the same keys.)
fn neg_span(ctx: &ExecContext, guard: &NegGuard, completed: &Completed) -> KeySpan {
    let mut span = ctx.window_span(completed.min_ts, completed.max_ts);
    if let Some(s) = guard.after_slot {
        span = span.after(stream_key(bound(completed, s)));
    }
    if let Some(s) = guard.before_slot {
        span = span.before(stream_key(bound(completed, s)));
    }
    span
}

/// The keys a Kleene candidate at `slot` needs for a match on
/// `completed` — the temporal test of [`kleene_compatible`]: inside the
/// window and, in a sequence, strictly between the neighbouring join
/// slots' events.
fn kleene_span(ctx: &ExecContext, slot: usize, completed: &Completed) -> KeySpan {
    let mut span = ctx.window_span(completed.min_ts, completed.max_ts);
    if ctx.kind == SubKind::Sequence {
        if let Some(prev) = ctx.prev_join_slot(slot) {
            span = span.after(stream_key(bound(completed, prev)));
        }
        if let Some(next) = ctx.next_join_slot(slot) {
            span = span.before(stream_key(bound(completed, next)));
        }
    }
    span
}

/// Does negated event `ev` invalidate a match built on `completed`?
fn neg_invalidates(
    ctx: &ExecContext,
    guard: &NegGuard,
    completed: &Completed,
    ev: &Arc<Event>,
) -> bool {
    // Temporal scope.
    match guard.after_slot {
        Some(s) => {
            if !ExecContext::before(bound(completed, s), ev) {
                return false;
            }
        }
        None => {
            if ev.timestamp < ctx.window_start(completed.max_ts) {
                return false;
            }
        }
    }
    match guard.before_slot {
        Some(s) => {
            if !ExecContext::before(ev, bound(completed, s)) {
                return false;
            }
        }
        None => {
            if ev.timestamp > ctx.window_end(completed.min_ts) {
                return false;
            }
        }
    }
    // Conditions involving the negated variable.
    ctx.slots_ok(guard.conds, &completed.events, Some(ev))
}

/// Is `ev` a qualifying member of the Kleene set at `slot` for a match
/// built on `completed`?
fn kleene_compatible(
    ctx: &ExecContext,
    slot: usize,
    completed: &Completed,
    ev: &Arc<Event>,
) -> bool {
    // Window span.
    if ev.timestamp > ctx.window_end(completed.min_ts)
        || ev.timestamp < ctx.window_start(completed.max_ts)
    {
        return false;
    }
    let at = |js: usize| bound(completed, js);
    // Temporal position for sequences.
    if ctx.kind == SubKind::Sequence
        && (ctx
            .prev_join_slot(slot)
            .is_some_and(|prev| !ExecContext::before(at(prev), ev))
            || ctx
                .next_join_slot(slot)
                .is_some_and(|next| !ExecContext::before(ev, at(next))))
    {
        return false;
    }
    // One pass over the bound join events: the same event instance
    // cannot double as a join event, and the pairwise conditions with
    // each must hold.
    ctx.unary_ok(slot, ev)
        && ctx
            .join_slots
            .iter()
            .all(|&js| at(js).seq != ev.seq && ctx.pair_ok(slot, ev, js, at(js)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::{Partial, PartialStore};
    use acep_types::{attr, EventTypeId, Pattern, PatternExpr, Value};

    fn t(i: u32) -> EventTypeId {
        EventTypeId(i)
    }

    fn ev(tid: u32, ts: u64, seq: u64, v: i64) -> Arc<Event> {
        Event::new(t(tid), ts, seq, vec![Value::Int(v)])
    }

    fn ctx_for(p: &Pattern) -> Arc<ExecContext> {
        ExecContext::compile(&p.canonical().branches[0]).unwrap()
    }

    /// Builds a materialized combination binding `(slot, event)` pairs.
    fn completed(ctx: &ExecContext, bindings: &[(usize, Arc<Event>)]) -> Completed {
        let mut store = PartialStore::new();
        let (slot0, ev0) = bindings.first().expect("at least one binding");
        let mut p = Partial::seed(&mut store, *slot0, Arc::clone(ev0));
        for (slot, ev) in &bindings[1..] {
            p = p.extend(&mut store, *slot, Arc::clone(ev));
        }
        Completed::from_partial(&store, &p, ctx.n)
    }

    /// SEQ(A, ~B, C) with B.x = A.x.
    fn neg_pattern() -> Pattern {
        Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::neg(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .condition(attr(1, 0).eq(attr(0, 0)))
            .window(100)
            .build()
            .unwrap()
    }

    fn positive_completed(ctx: &ExecContext, a: Arc<Event>, c: Arc<Event>) -> Completed {
        completed(ctx, &[(0, a), (1, c)])
    }

    #[test]
    fn interior_negation_blocks_match() {
        let p = neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        let a = ev(0, 10, 0, 7);
        // Matching B (same x) between A and C.
        f.observe(&ev(1, 20, 1, 7), &mut out);
        let c = ev(2, 30, 2, 0);
        f.admit(positive_completed(&ctx, a, c), 30, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn interior_negation_ignores_non_matching_b() {
        let p = neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        let a = ev(0, 10, 0, 7);
        // B with a different x does not invalidate.
        f.observe(&ev(1, 20, 1, 99), &mut out);
        // B outside the (A, C) span does not invalidate.
        f.observe(&ev(1, 5, 3, 7), &mut out);
        let c = ev(2, 30, 2, 0);
        f.admit(positive_completed(&ctx, a, c), 30, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].min_ts, 10);
    }

    /// SEQ(A, C, ~D): trailing negation delays finalization.
    fn trailing_neg_pattern() -> Pattern {
        Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(2)),
                PatternExpr::neg(PatternExpr::prim(t(3))),
            ]))
            .window(100)
            .build()
            .unwrap()
    }

    #[test]
    fn trailing_negation_waits_for_window_close() {
        let p = trailing_neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        let a = ev(0, 10, 0, 0);
        let c = ev(2, 30, 1, 0);
        f.admit(positive_completed(&ctx, a, c), 30, &mut out);
        assert!(out.is_empty(), "must wait until min_ts + W = 110");
        assert_eq!(f.pending_count(), 1);
        assert_eq!(f.min_pending_deadline(), Some(110));
        // An unrelated event at ts 111 releases the match.
        f.observe(&ev(5, 111, 2, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.pending_count(), 0);
        assert_eq!(f.min_pending_deadline(), None);
        // The released match records its finalization deadline.
        assert_eq!(out[0].deadline, 110);
        assert_eq!(out[0].detected_at, 111);
    }

    #[test]
    fn trailing_negation_invalidates_pending() {
        let p = trailing_neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        let a = ev(0, 10, 0, 0);
        let c = ev(2, 30, 1, 0);
        f.admit(positive_completed(&ctx, a, c), 30, &mut out);
        assert_eq!(f.min_pending_deadline(), Some(110));
        // D arrives after C within the window → invalidates.
        f.observe(&ev(3, 50, 2, 0), &mut out);
        assert_eq!(f.min_pending_deadline(), None);
        f.observe(&ev(5, 200, 3, 0), &mut out);
        assert!(out.is_empty());
        assert_eq!(f.pending_count(), 0);
    }

    #[test]
    fn an_unbounded_window_holds_a_trailing_negation_to_the_end() {
        // SEQ(A, C, ~D) WITHIN u64::MAX: the window never closes, so the
        // match stays pending until `finish`, and a D arriving at any
        // later time still invalidates it.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(2)),
                PatternExpr::neg(PatternExpr::prim(t(3))),
            ]))
            .window(u64::MAX)
            .build()
            .unwrap();
        let ctx = ctx_for(&p);
        for vetoed in [false, true] {
            let mut f = Finalizer::new(Arc::clone(&ctx));
            let mut out = Vec::new();
            f.admit(
                positive_completed(&ctx, ev(0, 10, 0, 0), ev(2, 30, 1, 0)),
                30,
                &mut out,
            );
            assert_eq!(f.min_pending_deadline(), Some(u64::MAX));
            f.observe(&ev(5, 1 << 60, 2, 0), &mut out);
            if vetoed {
                f.observe(&ev(3, 1 << 61, 3, 0), &mut out);
            }
            assert!(out.is_empty(), "held while the window is open");
            f.finish(&mut out);
            assert_eq!(out.len(), usize::from(!vetoed));
        }
    }

    #[test]
    fn trailing_negation_after_window_is_harmless() {
        let p = trailing_neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        f.admit(
            positive_completed(&ctx, ev(0, 10, 0, 0), ev(2, 30, 1, 0)),
            30,
            &mut out,
        );
        // D at ts 111 > min_ts + W = 110 cannot invalidate; it also
        // releases the pending match.
        f.observe(&ev(3, 111, 2, 0), &mut out);
        assert_eq!(out.len(), 1);
    }

    /// SEQ(A, B*, C) with B.x > 0.
    fn kleene_pattern() -> Pattern {
        Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .condition(attr(1, 0).gt(acep_types::constant(0)))
            .window(100)
            .build()
            .unwrap()
    }

    #[test]
    fn kleene_collects_maximal_qualifying_set() {
        let p = kleene_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        f.observe(&ev(1, 15, 10, 5), &mut out); // qualifies
        f.observe(&ev(1, 20, 11, -1), &mut out); // fails unary pred
        f.observe(&ev(1, 25, 12, 3), &mut out); // qualifies
        f.observe(&ev(1, 5, 13, 9), &mut out); // before A → out of scope
        let c = completed(&ctx, &[(0, ev(0, 10, 0, 0)), (2, ev(2, 30, 1, 0))]);
        f.admit(c, 30, &mut out);
        assert_eq!(out.len(), 1);
        let kleene_binding = out[0]
            .bindings
            .iter()
            .find(|(v, _)| *v == acep_types::VarId(1))
            .unwrap();
        let mut seqs: Vec<u64> = kleene_binding.1.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![10, 12]);
    }

    #[test]
    fn kleene_requires_at_least_one_event() {
        let p = kleene_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        let c = completed(&ctx, &[(0, ev(0, 10, 0, 0)), (2, ev(2, 30, 1, 0))]);
        f.admit(c, 30, &mut out);
        assert!(out.is_empty(), "Kleene closure means one *or more*");
    }

    /// SEQ(A, C, B*): trailing Kleene accumulates until window close.
    #[test]
    fn trailing_kleene_accumulates_future_events() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(2)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
            ]))
            .window(100)
            .build()
            .unwrap();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        let c = completed(&ctx, &[(0, ev(0, 10, 0, 0)), (1, ev(2, 30, 1, 0))]);
        f.admit(c, 30, &mut out);
        assert_eq!(f.pending_count(), 1);
        f.observe(&ev(1, 50, 2, 0), &mut out); // collected
        f.observe(&ev(1, 90, 3, 0), &mut out); // collected
        f.observe(&ev(9, 200, 4, 0), &mut out); // releases
        assert_eq!(out.len(), 1);
        let set = &out[0].bindings.iter().find(|(v, _)| v.0 == 2).unwrap().1;
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn finish_flushes_pending() {
        let p = trailing_neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        f.admit(
            positive_completed(&ctx, ev(0, 10, 0, 0), ev(2, 30, 1, 0)),
            30,
            &mut out,
        );
        assert!(out.is_empty());
        f.finish(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.min_pending_deadline(), None);
    }

    #[test]
    fn history_export_import_round_trip() {
        let p = neg_pattern();
        let ctx = ctx_for(&p);
        let mut f1 = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        f1.observe(&ev(1, 20, 1, 7), &mut out);
        // A second finalizer importing f1's history sees the old B.
        let mut f2 = Finalizer::new(Arc::clone(&ctx));
        f2.import_history(f1.export_history());
        f2.admit(
            positive_completed(&ctx, ev(0, 10, 0, 7), ev(2, 30, 2, 0)),
            30,
            &mut out,
        );
        assert!(out.is_empty(), "imported history must carry the negation");
    }

    #[test]
    fn min_deadline_tracks_earliest_pending() {
        let p = trailing_neg_pattern();
        let ctx = ctx_for(&p);
        let mut f = Finalizer::new(Arc::clone(&ctx));
        let mut out = Vec::new();
        f.admit(
            positive_completed(&ctx, ev(0, 40, 0, 0), ev(2, 50, 1, 0)),
            50,
            &mut out,
        );
        f.admit(
            positive_completed(&ctx, ev(0, 10, 2, 0), ev(2, 55, 3, 0)),
            55,
            &mut out,
        );
        assert_eq!(f.min_pending_deadline(), Some(110));
        // Flushing past the earliest leaves the later one.
        f.flush_ready(120, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.min_pending_deadline(), Some(140));
    }
}
