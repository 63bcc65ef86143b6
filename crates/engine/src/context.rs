//! Compiled execution context: a [`SubPattern`] preprocessed for the hot
//! path.
//!
//! Compilation lowers every condition of the branch **once** into one
//! [`Programs`] table (see [`acep_types::program`]) — a flat op vector
//! plus an offset table, with variables resolved to frame positions and
//! attributes to indices. Its groups, in order:
//!
//! * `slot` (`0..n`) — the unary conditions of a slot, over the frame
//!   `(candidate)`;
//! * `n + lo * n + hi` for `lo < hi` — the conditions between two
//!   positive slots, over the frame `(event at lo, event at hi)`; one
//!   program serves both join directions ([`ExecContext::pair_ok`]
//!   orients the two events);
//! * one group per condition over 3+ variables
//!   ([`ExecContext::general_groups`]) and one per negation guard
//!   ([`NegGuard::conds`]), over the slot-indexed frame of a completed
//!   combination with the negated candidate at position `n` — the only
//!   conditions that need more than the two events they compare.
//!
//! Everything that tests a condition — the three executors' join
//! helpers, the finalizer, the selection-policy filters — goes through
//! the methods below, so there is exactly one evaluator. The table is
//! all an `ExecContext` keeps of the predicates, which matters wherever
//! engines (hence contexts) are built per partition key: context bytes
//! are multiplied by the key count.
//!
//! # Step masks: which cross pairs a join step tests
//!
//! A join step binds new slots (one slot for the order and lazy
//! executors, a subtree's slot set on the tree executor's new side)
//! onto a partial whose bound slots are already mutually consistent.
//! Of the cross pairs, [`ExecContext::step_masks`] keeps only those
//! that can fail, as three bitmasks of bound slots:
//!
//! * **identity** — only slots of the same event type. A slot binds
//!   only events of its type, so slots of different types can never
//!   hold one event;
//! * **order** — `SEQ` only, and only the bound slots next to a new one
//!   in the pattern order of the union. Both sides are ordered by
//!   construction and [`ExecContext::before`] is a strict total order,
//!   so if every adjacent cross pair is in order, transitivity orders
//!   the whole union;
//! * **condition** — only slots whose pair group holds a condition.
//!
//! Every skipped test would have passed, so a step decides exactly what
//! testing all pairs decided. Masks are `u64`s computed per step from
//! the slot types and the table, outside the executors' inner loops and
//! with no per-context or per-key storage; that is why a branch may
//! have at most 64 positive slots.

use std::ops::Range;
use std::sync::Arc;

use acep_types::{
    AcepError, CondVars, Event, EventTypeId, PairGroup, Programs, SelectionPolicy, SubKind,
    SubPattern, Timestamp, VarId,
};

use crate::buffer::KeySpan;

/// Most positive slots a branch may have: step masks are `u64`
/// bitmasks of slot indices (module docs).
pub(crate) const MAX_SLOTS: usize = 64;

/// The bound slots one join step has to test a new slot against, as
/// bitmasks of slot indices (module docs: step masks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepMasks {
    /// Bound slots of a new slot's event type: the candidate must not
    /// be the event already bound there.
    pub identity: u64,
    /// `SEQ` only: bound slots next to a new slot in the union's
    /// pattern order, whose temporal order must be checked.
    pub order: u64,
    /// Bound slots that a condition links to a new slot.
    pub cond: u64,
}

impl StepMasks {
    /// Every bound slot with at least one test.
    #[inline]
    pub fn any(&self) -> u64 {
        self.identity | self.order | self.cond
    }
}

/// Bitmask of the slot indices in `slots` (each below [`MAX_SLOTS`]).
#[inline]
fn slot_mask(slots: &[usize]) -> u64 {
    slots.iter().fold(0, |mask, &s| mask | 1 << s)
}

/// The set bits of `mask`, lowest first.
#[inline]
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// A negated-event guard compiled for execution.
#[derive(Debug, Clone)]
pub struct NegGuard {
    /// Event type that must be absent.
    pub event_type: EventTypeId,
    /// Positive slot that must precede the negated event (`None` =
    /// bounded by the window start).
    pub after_slot: Option<usize>,
    /// Positive slot that must follow it (`None` = bounded by the window
    /// end; such guards delay match finalization).
    pub before_slot: Option<usize>,
    /// Program group of the conditions involving the negated variable
    /// (and possibly positive variables); the negated event only
    /// invalidates a match if all of them hold
    /// ([`ExecContext::slots_ok`]).
    pub conds: usize,
}

/// Preprocessed sub-pattern shared by the executors.
#[derive(Debug)]
pub struct ExecContext {
    /// Sequence or conjunction.
    pub kind: SubKind,
    /// Number of positive slots.
    pub n: usize,
    /// Event type of each slot.
    pub slot_types: Vec<EventTypeId>,
    /// Kleene flag per slot.
    pub kleene: Vec<bool>,
    /// Pattern variable of each slot.
    pub vars: Vec<VarId>,
    /// Match window (ms).
    pub window: Timestamp,
    /// Every condition of the branch, compiled (group layout: module
    /// docs).
    conds: Programs,
    /// Groups of the conditions over 3+ positive variables, checked on
    /// complete matches.
    general: Range<usize>,
    /// Negated-event guards.
    pub negated: Vec<NegGuard>,
    /// Slot indices that participate in joins (non-Kleene).
    pub join_slots: Vec<usize>,
    /// Slot indices under Kleene closure.
    pub kleene_slots: Vec<usize>,
    /// Selection policy (match semantics). Restrictive policies are
    /// enforced at finalization (see [`crate::selection`]); the default
    /// `SkipTillAny` adds no bookkeeping.
    pub policy: SelectionPolicy,
}

impl ExecContext {
    /// Compiles a sub-pattern under the default skip-till-any-match
    /// policy. Fails when the sub-pattern uses features outside the
    /// engine's scope (every slot under Kleene closure, or predicates
    /// between two Kleene variables).
    pub fn compile(sub: &SubPattern) -> Result<Arc<Self>, AcepError> {
        Self::compile_with_policy(sub, SelectionPolicy::SkipTillAny)
    }

    /// Compiles a sub-pattern under an explicit selection policy.
    pub fn compile_with_policy(
        sub: &SubPattern,
        policy: SelectionPolicy,
    ) -> Result<Arc<Self>, AcepError> {
        let n = sub.n();
        if n > MAX_SLOTS {
            return Err(AcepError::InvalidPattern(format!(
                "at most {MAX_SLOTS} positive slots per branch are supported, got {n}"
            )));
        }
        let slot_types: Vec<EventTypeId> = sub.slots.iter().map(|s| s.event_type).collect();
        let kleene: Vec<bool> = sub.slots.iter().map(|s| s.kleene).collect();
        let vars: Vec<VarId> = sub.slots.iter().map(|s| s.var).collect();

        let join_slots: Vec<usize> = (0..n).filter(|&i| !kleene[i]).collect();
        let kleene_slots: Vec<usize> = (0..n).filter(|&i| kleene[i]).collect();
        if join_slots.is_empty() {
            return Err(AcepError::InvalidPattern(
                "at least one slot must not be under Kleene closure".into(),
            ));
        }

        let mut conds = Programs::default();
        for i in 0..n {
            conds.push_group(sub.unary_conditions(i).map(|c| &c.predicate), &vars[i..=i]);
        }
        for lo in 0..n {
            for hi in 0..n {
                if lo < hi && kleene[lo] && kleene[hi] && sub.pair_has_condition(lo, hi) {
                    return Err(AcepError::InvalidPattern(
                        "predicates between two Kleene variables are not supported".into(),
                    ));
                }
                // Only `lo < hi` carries conditions (the rest stay empty
                // so that `pair_index` indexes directly), and only those
                // between two positive slots: a condition touching a
                // negated var goes to its guard below.
                let between = (lo < hi).then(|| sub.binary_conditions(lo, hi));
                let between = between.into_iter().flatten().map(|c| &c.predicate);
                conds.push_group(between, &[vars[lo], vars[hi]]);
            }
        }
        let is_negated = |v: &VarId| sub.negated.iter().any(|ng| ng.var == *v);
        let general_start = conds.len();
        for c in sub.general_conditions() {
            if matches!(&c.vars, CondVars::General(vs) if !vs.iter().any(is_negated)) {
                conds.push_group([&c.predicate], &vars);
            }
        }
        let general = general_start..conds.len();

        let negated = sub
            .negated
            .iter()
            .map(|ng| {
                let frame: Vec<VarId> = vars.iter().copied().chain([ng.var]).collect();
                let on_guard = sub.conditions_on_negated(ng.var);
                NegGuard {
                    event_type: ng.event_type,
                    after_slot: ng.after_slot,
                    before_slot: ng.before_slot,
                    conds: conds.push_group(on_guard.map(|c| &c.predicate), &frame),
                }
            })
            .collect();
        conds.shrink_to_fit();

        Ok(Arc::new(Self {
            kind: sub.kind,
            n,
            slot_types,
            kleene,
            vars,
            window: sub.window,
            conds,
            general,
            negated,
            join_slots,
            kleene_slots,
            policy,
        }))
    }

    /// Do the unary conditions of `slot` hold for `ev`?
    #[inline]
    pub fn unary_ok(&self, slot: usize, ev: &Event) -> bool {
        self.conds.holds_pair(slot, ev, ev)
    }

    /// Program group index of the conditions between slots `i` and `j`.
    #[inline]
    fn pair_index(&self, i: usize, j: usize) -> usize {
        self.n + i.min(j) * self.n + i.max(j)
    }

    /// True if any condition links slots `i` and `j`.
    #[inline]
    pub fn has_pair(&self, i: usize, j: usize) -> bool {
        !self.conds.group_is_empty(self.pair_index(i, j))
    }

    /// The conditions between slots `i` and `j`, resolved for
    /// [`holds_pair_group`](Self::holds_pair_group).
    #[inline]
    pub fn pair_group(&self, i: usize, j: usize) -> PairGroup {
        self.conds.pair_group(self.pair_index(i, j))
    }

    /// Does the resolved pair group hold with `lo` bound at the lower
    /// of its two slots and `hi` at the higher?
    #[inline]
    pub fn holds_pair_group(&self, group: PairGroup, lo: &Event, hi: &Event) -> bool {
        self.conds.holds_pair_group(group, lo, hi)
    }

    /// Do the conditions between slots `i` and `j` hold with `a` bound
    /// at `i` and `b` at `j`?
    #[inline]
    pub fn pair_ok(&self, i: usize, a: &Event, j: usize, b: &Event) -> bool {
        let (lo, hi) = if i < j { (a, b) } else { (b, a) };
        self.conds.holds_pair(self.pair_index(i, j), lo, hi)
    }

    /// Do `a` at `i` and `b` at `j` occur in the order their slots
    /// have in the pattern (the `SEQ` constraint of one pair)?
    #[inline]
    pub(crate) fn ordered(i: usize, a: &Event, j: usize, b: &Event) -> bool {
        if i < j {
            Self::before(a, b)
        } else {
            Self::before(b, a)
        }
    }

    /// The bound slots (bits of `bound`) that a step binding the slots
    /// of `new` has to test (module docs: step masks). `new` and
    /// `bound` are disjoint masks of join slots; the partial the step
    /// forms binds `new | bound`.
    pub fn step_masks(&self, new: u64, bound: u64) -> StepMasks {
        debug_assert_eq!(new & bound, 0, "a step binds new slots only");
        let mut masks = StepMasks::default();
        for s in bits(new) {
            for t in bits(bound) {
                if self.slot_types[s] == self.slot_types[t] {
                    masks.identity |= 1 << t;
                }
                if self.has_pair(s, t) {
                    masks.cond |= 1 << t;
                }
            }
        }
        if self.kind == SubKind::Sequence {
            let union = new | bound;
            for t in bits(bound) {
                let below = union & ((1 << t) - 1);
                let above = union & (u64::MAX << t << 1);
                let prev = (below != 0).then(|| 63 - below.leading_zeros());
                let next = (above != 0).then(|| above.trailing_zeros());
                if [prev, next]
                    .into_iter()
                    .flatten()
                    .any(|u| new >> u & 1 == 1)
                {
                    masks.order |= 1 << t;
                }
            }
        }
        masks
    }

    /// [`step_masks`](Self::step_masks) of the order-style step that
    /// binds `order[depth]` onto the slots `order[..depth]`.
    #[inline]
    pub fn order_step(&self, order: &[usize], depth: usize) -> StepMasks {
        self.step_masks(1 << order[depth], slot_mask(&order[..depth]))
    }

    /// Groups of the conditions over 3+ variables, one per condition.
    pub fn general_groups(&self) -> Range<usize> {
        self.general.clone()
    }

    /// Does `group` (a general or guard group) hold over the
    /// slot-indexed `events` of a completed combination, with `extra`
    /// (the negated candidate) at position `n`?
    pub fn slots_ok(
        &self,
        group: usize,
        events: &[Option<Arc<Event>>],
        extra: Option<&Event>,
    ) -> bool {
        self.conds
            .holds(group, |pos| events.get(pos).map_or(extra, |e| e.as_deref()))
    }

    /// Latest timestamp a match starting at `min_ts` may reach:
    /// `min_ts + W`, saturating, so an unbounded window
    /// (`W = u64::MAX`) never closes instead of wrapping around. Every
    /// window-end test and deadline goes through here.
    #[inline]
    pub(crate) fn window_end(&self, min_ts: Timestamp) -> Timestamp {
        min_ts.saturating_add(self.window)
    }

    /// Earliest timestamp a match ending at `max_ts` may reach:
    /// `max_ts − W`, saturating at 0.
    #[inline]
    pub(crate) fn window_start(&self, max_ts: Timestamp) -> Timestamp {
        max_ts.saturating_sub(self.window)
    }

    /// The keys of the events that fit in one window with a combination
    /// spanning `[min_ts, max_ts]`: timestamps in `[max_ts − W,
    /// min_ts + W]`.
    #[inline]
    pub(crate) fn window_span(&self, min_ts: Timestamp, max_ts: Timestamp) -> KeySpan {
        KeySpan::timestamps(self.window_start(max_ts), self.window_end(min_ts))
    }

    /// Nearest non-Kleene slot strictly before `slot` in pattern order.
    pub fn prev_join_slot(&self, slot: usize) -> Option<usize> {
        (0..slot).rev().find(|&i| !self.kleene[i])
    }

    /// Nearest non-Kleene slot strictly after `slot` in pattern order.
    pub fn next_join_slot(&self, slot: usize) -> Option<usize> {
        ((slot + 1)..self.n).find(|&i| !self.kleene[i])
    }

    /// Strict event order used for `SEQ` temporal constraints:
    /// lexicographic on `(timestamp, seq)` so simultaneous events have a
    /// deterministic order.
    #[inline]
    pub fn before(a: &Event, b: &Event) -> bool {
        (a.timestamp, a.seq) < (b.timestamp, b.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::{attr, Pattern, PatternExpr};

    fn t(i: u32) -> EventTypeId {
        EventTypeId(i)
    }

    #[test]
    fn compile_splits_join_and_kleene_slots() {
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
        assert_eq!(ctx.join_slots, vec![0, 2]);
        assert_eq!(ctx.kleene_slots, vec![1]);
        assert_eq!(ctx.prev_join_slot(1), Some(0));
        assert_eq!(ctx.next_join_slot(1), Some(2));
        assert_eq!(ctx.prev_join_slot(0), None);
        assert_eq!(ctx.next_join_slot(2), None);
    }

    #[test]
    fn all_kleene_is_rejected() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([PatternExpr::kleene(PatternExpr::prim(
                t(0),
            ))]))
            .window(100)
            .build()
            .unwrap();
        assert!(ExecContext::compile(&p.canonical().branches[0]).is_err());
    }

    #[test]
    fn kleene_kleene_predicate_is_rejected() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
                PatternExpr::kleene(PatternExpr::prim(t(2))),
            ]))
            .condition(attr(1, 0).lt(attr(2, 0)))
            .window(100)
            .build()
            .unwrap();
        assert!(ExecContext::compile(&p.canonical().branches[0]).is_err());
    }

    #[test]
    fn conditions_are_distributed() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
            ]))
            .condition(attr(0, 0).lt(attr(1, 0)))
            .condition(attr(1, 0).gt(acep_types::constant(2)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        assert!(ctx.has_pair(0, 1) && ctx.has_pair(1, 0));
        let ev = |v: i64| Event::new(t(0), 0, 0, vec![acep_types::Value::Int(v)]);
        // Either join direction runs the one compiled a.x < b.x.
        assert!(ctx.pair_ok(0, &ev(1), 1, &ev(3)) && ctx.pair_ok(1, &ev(3), 0, &ev(1)));
        assert!(!ctx.pair_ok(0, &ev(3), 1, &ev(1)) && !ctx.pair_ok(1, &ev(1), 0, &ev(3)));
        assert!(ctx.unary_ok(1, &ev(3)) && !ctx.unary_ok(1, &ev(2)));
        assert!(ctx.unary_ok(0, &ev(2)), "slot 0 has no unary condition");
    }

    #[test]
    fn negated_guard_collects_its_conditions() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::neg(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .condition(attr(0, 0).eq(attr(1, 0)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        assert_eq!(ctx.negated.len(), 1);
        let x7 = || vec![acep_types::Value::Int(7)];
        let (a, b) = (Event::new(t(0), 0, 0, x7()), Event::new(t(1), 1, 1, x7()));
        let bound = [Some(a), None];
        assert!(ctx.slots_ok(ctx.negated[0].conds, &bound, Some(&b)));
        assert!(!ctx.slots_ok(ctx.negated[0].conds, &[None, None], Some(&b)));
        assert_eq!(ctx.negated[0].after_slot, Some(0));
        assert_eq!(ctx.negated[0].before_slot, Some(1));
        // The A=B condition must not leak into the positive pair preds.
        assert!(!ctx.has_pair(0, 1));
    }

    #[test]
    fn step_masks_name_only_the_pairs_that_can_fail() {
        // SEQ(T0 a, T1 b, T0 c, T2 d) WHERE a.x < d.x.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(2)),
            ]))
            .condition(attr(0, 0).lt(attr(3, 0)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        // Slot 2 onto {0, 1, 3}: identity only with the other T0 slot,
        // order only with its neighbours 1 and 3, no condition.
        let m = ctx.step_masks(0b0100, 0b1011);
        assert_eq!((m.identity, m.order, m.cond), (0b0001, 0b1010, 0));
        // Slot 3 onto {0}: the condition, and order with 0 — its only
        // bound neighbour.
        let m = ctx.step_masks(0b1000, 0b0001);
        assert_eq!((m.identity, m.order, m.cond), (0, 0b0001, 0b0001));
        // The tree's new side {0, 1} onto {2, 3}: only 2 neighbours the
        // new side (via 1), 3 is linked by the condition.
        let m = ctx.step_masks(0b0011, 0b1100);
        assert_eq!((m.identity, m.order, m.cond), (0b0100, 0b0100, 0b1000));
        assert_eq!(
            ctx.order_step(&[3, 0, 2, 1], 2),
            ctx.step_masks(0b0100, 0b1001)
        );

        // A conjunction has no order to check.
        let p = Pattern::conjunction("p", &[t(0), t(1), t(0)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let m = ctx.step_masks(0b001, 0b110);
        assert_eq!((m.identity, m.order, m.cond), (0b100, 0, 0));
        assert_eq!(m.any(), 0b100);
    }

    #[test]
    fn more_than_64_positive_slots_are_refused() {
        let types: Vec<EventTypeId> = (0..MAX_SLOTS as u32 + 1).map(t).collect();
        let wide = Pattern::sequence("p", &types, 100);
        let err = ExecContext::compile(&wide.canonical().branches[0]).unwrap_err();
        assert!(matches!(err, AcepError::InvalidPattern(_)), "{err:?}");
        let fits = Pattern::sequence("p", &types[..MAX_SLOTS], 100);
        assert!(ExecContext::compile(&fits.canonical().branches[0]).is_ok());
    }

    #[test]
    fn bits_and_slot_mask_round_trip() {
        let slots = [0, 5, 63];
        let mask = slot_mask(&slots);
        assert_eq!(bits(mask).collect::<Vec<_>>(), slots);
        assert_eq!(bits(0).count(), 0);
    }

    #[test]
    fn before_is_strict_and_tie_broken_by_seq() {
        let a = Event::new(t(0), 5, 1, vec![]);
        let b = Event::new(t(0), 5, 2, vec![]);
        assert!(ExecContext::before(&a, &b));
        assert!(!ExecContext::before(&b, &a));
        assert!(!ExecContext::before(&a, &a));
    }
}
