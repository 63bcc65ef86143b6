//! Brute-force oracle tests: on small random streams, both engines must
//! produce exactly the match set of a naive enumerator that checks every
//! event combination against the pattern semantics directly.
//!
//! Coverage spans the full operator language: `SEQ` and `AND` joins
//! (including one event type in two slots),
//! top-level `OR` (evaluated branch-per-executor), negation (`~`) both
//! interior and trailing (the trailing form exercises the finalizer's
//! pending-deadline queue), and Kleene closure (`*`) with maximal-set
//! semantics — each against order-based, tree-based, and lazy-chain
//! plans (the deferred executor must be externally indistinguishable).
//!
//! Every oracle takes a [`SelectionPolicy`]: the naive enumerator first
//! finds the skip-till-any combinations, then applies [`policy_ok`] — an
//! independent implementation of the policy filter over the raw event
//! list — so the `policy_matrix_*` property tests pin each policy's
//! semantics differentially against both executor families, and the
//! containment lattice strict ⊆ next ⊆ any on top.

use std::sync::Arc;

use acep_engine::{build_executor, ExecContext, Match, MatchKey, StaticEngine};
use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreePlan};
use acep_types::{
    attr, constant, Event, EventTypeId, Pattern, PatternExpr, SelectionPolicy, Value,
};
use proptest::prelude::*;

const WINDOW: u64 = 50;

/// The strict temporal order used by `SEQ` semantics.
fn before(a: &Event, b: &Event) -> bool {
    (a.timestamp, a.seq) < (b.timestamp, b.seq)
}

fn key2(v0: u32, a: &Event, v1: u32, b: &Event) -> MatchKey {
    MatchKey::from_parts(vec![(v0, vec![a.seq]), (v1, vec![b.seq])])
}

/// SEQ(T0 a, T1 b, T2 c) WHERE a.x < c.x WITHIN 50.
fn pattern() -> Pattern {
    Pattern::builder("oracle")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::prim(EventTypeId(2)),
        ]))
        .condition(attr(0, 0).lt(attr(2, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// AND(T0, T1) WHERE a.x == b.x WITHIN 50.
fn and_pattern() -> Pattern {
    Pattern::builder("oracle-and")
        .expr(PatternExpr::and([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
        ]))
        .condition(attr(0, 0).eq(attr(1, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// OR(SEQ(T0 a, T1 b) WHERE a.x < b.x, AND(T2 c, T0 d) WHERE c.x == d.x).
fn or_pattern() -> Pattern {
    Pattern::builder("oracle-or")
        .expr(PatternExpr::or([
            PatternExpr::seq([
                PatternExpr::prim(EventTypeId(0)),
                PatternExpr::prim(EventTypeId(1)),
            ]),
            PatternExpr::and([
                PatternExpr::prim(EventTypeId(2)),
                PatternExpr::prim(EventTypeId(0)),
            ]),
        ]))
        .condition(attr(0, 0).lt(attr(1, 0)))
        .condition(attr(2, 0).eq(attr(3, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0 a, ~T1 b, T2 c) WHERE b.x == a.x WITHIN 50.
fn interior_neg_pattern() -> Pattern {
    Pattern::builder("oracle-neg")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::neg(PatternExpr::prim(EventTypeId(1))),
            PatternExpr::prim(EventTypeId(2)),
        ]))
        .condition(attr(1, 0).eq(attr(0, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0 a, T1 b, ~T2 d) WITHIN 50 — the negation scope extends past
/// the last positive event, so finalization is deadline-driven.
fn trailing_neg_pattern() -> Pattern {
    Pattern::builder("oracle-neg-trail")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::neg(PatternExpr::prim(EventTypeId(2))),
        ]))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0 a, T1* b, T2 c) WHERE b.x > 0 WITHIN 50.
fn kleene_pattern() -> Pattern {
    Pattern::builder("oracle-kleene")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::kleene(PatternExpr::prim(EventTypeId(1))),
            PatternExpr::prim(EventTypeId(2)),
        ]))
        .condition(attr(1, 0).gt(constant(0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0 a, T1 b, T0 c) WHERE a.x <= c.x WITHIN 50 — one type in two
/// slots. The condition holds for `a = c`; only the sequence order keeps
/// one event out of both slots.
fn seq_repeat_pattern() -> Pattern {
    Pattern::builder("oracle-seq-rep")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::prim(EventTypeId(0)),
        ]))
        .condition(attr(0, 0).le(attr(2, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// AND(T0 a, T0 b, T1 c) WHERE a.x <= b.x WITHIN 50 — the condition
/// holds for `a = b`; only the identity test between the two T0 slots
/// keeps one event out of both.
fn and_repeat_pattern() -> Pattern {
    Pattern::builder("oracle-and-rep")
        .expr(PatternExpr::and([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
        ]))
        .condition(attr(0, 0).le(attr(1, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

fn make_events(spec: &[(u8, u8, i8)]) -> Vec<Arc<Event>> {
    let mut ts = 0u64;
    spec.iter()
        .enumerate()
        .map(|(i, (ty, gap, x))| {
            ts += *gap as u64;
            Event::new(
                EventTypeId((*ty % 3) as u32),
                ts,
                i as u64,
                vec![Value::Int(*x as i64)],
            )
        })
        .collect()
}

fn sorted_keys(out: &[Match]) -> Vec<MatchKey> {
    let mut keys: Vec<MatchKey> = out.iter().map(Match::key).collect();
    keys.sort();
    keys.dedup();
    keys
}

fn run_engine(pattern: &Pattern, plan: &EvalPlan, events: &[Arc<Event>]) -> Vec<MatchKey> {
    run_engine_policy(pattern, SelectionPolicy::SkipTillAny, plan, events)
}

/// Like [`run_engine`], but compiling the branch under an explicit
/// selection policy.
fn run_engine_policy(
    pattern: &Pattern,
    policy: SelectionPolicy,
    plan: &EvalPlan,
    events: &[Arc<Event>],
) -> Vec<MatchKey> {
    let ctx = ExecContext::compile_with_policy(&pattern.canonical().branches[0], policy).unwrap();
    let mut exec = build_executor(ctx, plan);
    let mut out = Vec::new();
    for ev in events {
        exec.on_event(ev, &mut out);
    }
    exec.finish(&mut out);
    sorted_keys(&out)
}

/// Runs a single-branch pattern under `plan` and returns the emitted
/// keys *without* deduplication, asserting that no match binds one event
/// in two slots.
fn run_engine_multiset(pattern: &Pattern, plan: &EvalPlan, events: &[Arc<Event>]) -> Vec<MatchKey> {
    let ctx = ExecContext::compile(&pattern.canonical().branches[0]).unwrap();
    let mut exec = build_executor(ctx, plan);
    let mut out = Vec::new();
    for ev in events {
        exec.on_event(ev, &mut out);
    }
    exec.finish(&mut out);
    for m in &out {
        let mut seqs: Vec<u64> = m
            .bindings
            .iter()
            .flat_map(|(_, evs)| evs.iter().map(|e| e.seq))
            .collect();
        let bound = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            bound,
            "plan {} bound one event twice",
            plan.describe()
        );
    }
    let mut keys: Vec<MatchKey> = out.iter().map(Match::key).collect();
    keys.sort();
    keys
}

/// Evaluates every branch of a (possibly disjunctive) pattern with one
/// plan per branch.
fn run_branches(pattern: &Pattern, plans: &[EvalPlan], events: &[Arc<Event>]) -> Vec<MatchKey> {
    run_branches_policy(pattern, SelectionPolicy::SkipTillAny, plans, events)
}

/// Like [`run_branches`], but enforcing `policy` on every branch.
fn run_branches_policy(
    pattern: &Pattern,
    policy: SelectionPolicy,
    plans: &[EvalPlan],
    events: &[Arc<Event>],
) -> Vec<MatchKey> {
    let mut engine =
        StaticEngine::from_plans_with_policy(pattern.canonical(), plans, policy).unwrap();
    let mut out = Vec::new();
    for ev in events {
        engine.on_event(ev, &mut out);
    }
    engine.finish(&mut out);
    sorted_keys(&out)
}

fn sort_dedup(mut keys: Vec<MatchKey>) -> Vec<MatchKey> {
    keys.sort();
    keys.dedup();
    keys
}

fn x(e: &Event) -> i64 {
    e.attrs[0].as_i64().unwrap()
}

fn of_type(events: &[Arc<Event>], ty: u32) -> impl Iterator<Item = &Arc<Event>> {
    events.iter().filter(move |e| e.type_id == EventTypeId(ty))
}

/// Stream-order key: the `(timestamp, seq)` order the engines use.
fn skey(e: &Event) -> (u64, u64) {
    (e.timestamp, e.seq)
}

/// Events strictly between two stream positions (both exclusive).
fn strictly_between(
    events: &[Arc<Event>],
    lo: (u64, u64),
    hi: (u64, u64),
) -> impl Iterator<Item = &Arc<Event>> {
    events.iter().filter(move |e| skey(e) > lo && skey(e) < hi)
}

/// Naive selection-policy filter — an independent implementation of the
/// documented semantics, applied to one skip-till-any candidate match.
///
/// `joins` holds the bound join events in pattern-slot order, `kleene`
/// the collected Kleene members. `qualify(j, g, bound)` answers whether
/// foreign event `g` could have filled the `j`-th join position given
/// that only the join positions in `bound` may be consulted by its
/// pairwise predicates — each pattern shape supplies its own hand-coded
/// predicate logic, so nothing here leans on the engine's evaluator.
fn policy_ok(
    policy: SelectionPolicy,
    events: &[Arc<Event>],
    is_seq: bool,
    joins: &[&Arc<Event>],
    kleene: &[&Arc<Event>],
    qualify: &dyn Fn(usize, &Event, &[usize]) -> bool,
) -> bool {
    let members: Vec<u64> = {
        let mut seqs: Vec<u64> = joins.iter().chain(kleene.iter()).map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs
    };
    let is_member = |g: &Event| members.binary_search(&g.seq).is_ok();
    match policy {
        SelectionPolicy::SkipTillAny => true,
        SelectionPolicy::StrictContiguity => {
            // No non-member may fall strictly between the first and the
            // last member (join and Kleene events alike).
            let lo = joins.iter().chain(kleene.iter()).map(|e| skey(e)).min();
            let hi = joins.iter().chain(kleene.iter()).map(|e| skey(e)).max();
            let (Some(lo), Some(hi)) = (lo, hi) else {
                return true;
            };
            strictly_between(events, lo, hi).all(|g| is_member(g))
        }
        SelectionPolicy::SkipTillNext if is_seq => {
            // Between each consecutive pair of pattern-order join
            // events, no skipped non-member may qualify for the later
            // position; earlier join positions are all bound.
            (1..joins.len()).all(|j| {
                let bound: Vec<usize> = (0..j).collect();
                strictly_between(events, skey(joins[j - 1]), skey(joins[j]))
                    .filter(|g| !is_member(g))
                    .all(|g| !qualify(j, g, &bound))
            })
        }
        SelectionPolicy::SkipTillNext => {
            // Conjunction: order join events by arrival; in each gap no
            // non-member may qualify for a still-unarrived position,
            // with predicates checked against the arrived prefix only.
            let mut order: Vec<usize> = (0..joins.len()).collect();
            order.sort_by_key(|&i| skey(joins[i]));
            (0..order.len().saturating_sub(1)).all(|j| {
                let lo = skey(joins[order[j]]);
                let hi = skey(joins[order[j + 1]]);
                strictly_between(events, lo, hi)
                    .filter(|g| !is_member(g))
                    .all(|g| order[j + 1..].iter().all(|&s| !qualify(s, g, &order[..=j])))
            })
        }
    }
}

/// Sorted-key subset check for the policy lattice assertions.
fn is_subset(sub: &[MatchKey], sup: &[MatchKey]) -> bool {
    sub.iter().all(|k| sup.binary_search(k).is_ok())
}

/// Naive oracle for the 3-slot sequence pattern.
fn oracle_seq(events: &[Arc<Event>], policy: SelectionPolicy) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for b in of_type(events, 1) {
            for c in of_type(events, 2) {
                if !(before(a, b) && before(b, c)) {
                    continue;
                }
                let window = c.timestamp - a.timestamp <= WINDOW;
                if !(window && x(a) < x(c)) {
                    continue;
                }
                // Positions: 0 → T0, 1 → T1, 2 → T2 (a.x < c.x ties
                // position 2 to position 0).
                let qualify = |j: usize, g: &Event, _: &[usize]| match j {
                    1 => g.type_id == EventTypeId(1),
                    2 => g.type_id == EventTypeId(2) && x(a) < x(g),
                    _ => false,
                };
                if policy_ok(policy, events, true, &[a, b, c], &[], &qualify) {
                    keys.push(MatchKey::from_parts(vec![
                        (0, vec![a.seq]),
                        (1, vec![b.seq]),
                        (2, vec![c.seq]),
                    ]));
                }
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for the 2-slot conjunction pattern.
fn oracle_and(events: &[Arc<Event>], policy: SelectionPolicy) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for b in of_type(events, 1) {
            let window = a.timestamp.abs_diff(b.timestamp) <= WINDOW;
            if !(window && a.attrs[0] == b.attrs[0] && a.seq != b.seq) {
                continue;
            }
            // Positions: 0 → T0, 1 → T1, tied by x-equality; the
            // equality is only checkable once the other side arrived.
            let joins = [a, b];
            let qualify = |j: usize, g: &Event, bound: &[usize]| {
                let types = [0u32, 1u32];
                g.type_id == EventTypeId(types[j])
                    && (!bound.contains(&(1 - j)) || x(g) == x(joins[1 - j]))
            };
            if policy_ok(policy, events, false, &joins, &[], &qualify) {
                keys.push(key2(0, a, 1, b));
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for the disjunctive pattern: the union of its branch
/// oracles (branch variables are disjoint, so keys never collide). The
/// policy applies to each branch independently — exactly as the
/// branch-per-executor engine enforces it.
fn oracle_or(events: &[Arc<Event>], policy: SelectionPolicy) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for b in of_type(events, 1) {
            if !(before(a, b) && b.timestamp - a.timestamp <= WINDOW && x(a) < x(b)) {
                continue;
            }
            let qualify = |j: usize, g: &Event, _: &[usize]| {
                j == 1 && g.type_id == EventTypeId(1) && x(a) < x(g)
            };
            if policy_ok(policy, events, true, &[a, b], &[], &qualify) {
                keys.push(key2(0, a, 1, b));
            }
        }
    }
    for c in of_type(events, 2) {
        for d in of_type(events, 0) {
            if !(c.timestamp.abs_diff(d.timestamp) <= WINDOW && x(c) == x(d)) {
                continue;
            }
            let joins = [c, d];
            let qualify = |j: usize, g: &Event, bound: &[usize]| {
                let types = [2u32, 0u32];
                g.type_id == EventTypeId(types[j])
                    && (!bound.contains(&(1 - j)) || x(g) == x(joins[1 - j]))
            };
            if policy_ok(policy, events, false, &joins, &[], &qualify) {
                keys.push(key2(2, c, 3, d));
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for SEQ(A, ~B, C) WHERE b.x == a.x: a (a, c) pair
/// matches unless an equal-`x` B lies strictly between them.
///
/// The negated slot is hoisted into a guard, so the canonical branch
/// has two join positions (T0, T2); the guard condition never reaches
/// the positive pair, leaving position 1 predicate-free.
fn oracle_interior_neg(events: &[Arc<Event>], policy: SelectionPolicy) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for c in of_type(events, 2) {
            if !(before(a, c) && c.timestamp - a.timestamp <= WINDOW) {
                continue;
            }
            let violated = of_type(events, 1).any(|b| before(a, b) && before(b, c) && x(b) == x(a));
            if violated {
                continue;
            }
            let qualify = |j: usize, g: &Event, _: &[usize]| j == 1 && g.type_id == EventTypeId(2);
            if policy_ok(policy, events, true, &[a, c], &[], &qualify) {
                keys.push(key2(0, a, 2, c));
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for SEQ(A, B, ~D): the negation scope is `(B, window
/// end]` — any D after B with `d.ts <= a.ts + WINDOW` invalidates.
fn oracle_trailing_neg(events: &[Arc<Event>], policy: SelectionPolicy) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for b in of_type(events, 1) {
            if !(before(a, b) && b.timestamp - a.timestamp <= WINDOW) {
                continue;
            }
            let violated =
                of_type(events, 2).any(|d| before(b, d) && d.timestamp <= a.timestamp + WINDOW);
            if violated {
                continue;
            }
            let qualify = |j: usize, g: &Event, _: &[usize]| j == 1 && g.type_id == EventTypeId(1);
            if policy_ok(policy, events, true, &[a, b], &[], &qualify) {
                keys.push(key2(0, a, 1, b));
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for SEQ(A, B*, C) WHERE b.x > 0: one match per (a, c)
/// pair binding the *maximal* set of qualifying B events (SASE+ "ALL"
/// semantics); Kleene closure requires at least one occurrence.
///
/// The Kleene collection stays maximal under every policy — collected
/// Bs are members, so they never interpose — while non-qualifying Bs
/// (and foreign types) break strict contiguity, and a skipped
/// qualifying C breaks skip-till-next across the (a, c) join gap.
fn oracle_kleene(events: &[Arc<Event>], policy: SelectionPolicy) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for c in of_type(events, 2) {
            if !(before(a, c) && c.timestamp - a.timestamp <= WINDOW) {
                continue;
            }
            let set: Vec<&Arc<Event>> = of_type(events, 1)
                .filter(|b| before(a, b) && before(b, c) && x(b) > 0)
                .collect();
            if set.is_empty() {
                continue;
            }
            let qualify = |j: usize, g: &Event, _: &[usize]| j == 1 && g.type_id == EventTypeId(2);
            if policy_ok(policy, events, true, &[a, c], &set, &qualify) {
                keys.push(MatchKey::from_parts(vec![
                    (0, vec![a.seq]),
                    (1, set.iter().map(|b| b.seq).collect()),
                    (2, vec![c.seq]),
                ]));
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for SEQ(T0 a, T1 b, T0 c) WHERE a.x <= c.x.
fn oracle_seq_repeat(events: &[Arc<Event>]) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for b in of_type(events, 1) {
            for c in of_type(events, 0) {
                if before(a, b)
                    && before(b, c)
                    && c.timestamp - a.timestamp <= WINDOW
                    && x(a) <= x(c)
                {
                    keys.push(MatchKey::from_parts(vec![
                        (0, vec![a.seq]),
                        (1, vec![b.seq]),
                        (2, vec![c.seq]),
                    ]));
                }
            }
        }
    }
    sort_dedup(keys)
}

/// Naive oracle for AND(T0 a, T0 b, T1 c) WHERE a.x <= b.x: `a` and `b`
/// are distinct events in either arrival order.
fn oracle_and_repeat(events: &[Arc<Event>]) -> Vec<MatchKey> {
    let mut keys = Vec::new();
    for a in of_type(events, 0) {
        for b in of_type(events, 0) {
            for c in of_type(events, 1) {
                let ts = [a.timestamp, b.timestamp, c.timestamp];
                let span = ts.iter().max().unwrap() - ts.iter().min().unwrap();
                if a.seq != b.seq && span <= WINDOW && x(a) <= x(b) {
                    keys.push(MatchKey::from_parts(vec![
                        (0, vec![a.seq]),
                        (1, vec![b.seq]),
                        (2, vec![c.seq]),
                    ]));
                }
            }
        }
    }
    sort_dedup(keys)
}

/// Order, tree, and lazy plans covering both ends of a
/// 2-positive-slot branch.
fn two_slot_plans() -> [EvalPlan; 5] {
    [
        EvalPlan::Order(OrderPlan::new(vec![0, 1])),
        EvalPlan::Order(OrderPlan::new(vec![1, 0])),
        EvalPlan::Tree(TreePlan::left_deep(&[0, 1])),
        EvalPlan::Lazy(LazyPlan::identity(2)),
        EvalPlan::Lazy(LazyPlan::new(vec![1, 0])),
    ]
}

/// Plans for a 3-slot branch (possibly with a Kleene slot the executors
/// prune from the join order).
fn three_slot_plans() -> [EvalPlan; 7] {
    [
        EvalPlan::Order(OrderPlan::new(vec![0, 1, 2])),
        EvalPlan::Order(OrderPlan::new(vec![2, 1, 0])),
        EvalPlan::Order(OrderPlan::new(vec![1, 0, 2])),
        EvalPlan::Lazy(LazyPlan::identity(3)),
        EvalPlan::Lazy(LazyPlan::new(vec![2, 0, 1])),
        EvalPlan::Tree(TreePlan::left_deep(&[0, 1, 2])),
        EvalPlan::Tree(TreePlan {
            nodes: vec![
                acep_plan::TreeNode::Leaf { slot: 0 },
                acep_plan::TreeNode::Leaf { slot: 1 },
                acep_plan::TreeNode::Leaf { slot: 2 },
                acep_plan::TreeNode::Internal { left: 1, right: 2 },
                acep_plan::TreeNode::Internal { left: 0, right: 3 },
            ],
            root: 4,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every processing order and two tree shapes agree with the naive
    /// enumerator on random streams.
    #[test]
    fn engines_match_oracle_on_sequences(
        spec in prop::collection::vec((0u8..3, 1u8..20, -5i8..5), 1..40)
    ) {
        let p = pattern();
        let events = make_events(&spec);
        let expected = oracle_seq(&events, SelectionPolicy::SkipTillAny);
        for plan in &three_slot_plans() {
            let got = run_engine(&p, plan, &events);
            prop_assert_eq!(
                &got, &expected,
                "plan {} diverged from oracle", plan.describe()
            );
        }
    }

    /// Conjunction semantics against the oracle.
    #[test]
    fn engines_match_oracle_on_conjunctions(
        spec in prop::collection::vec((0u8..2, 1u8..20, -3i8..3), 1..30)
    ) {
        let p = and_pattern();
        let events = make_events(&spec);
        let expected = oracle_and(&events, SelectionPolicy::SkipTillAny);
        for plan in &two_slot_plans() {
            let got = run_engine(&p, plan, &events);
            prop_assert_eq!(&got, &expected, "plan {} diverged", plan.describe());
        }
    }

    /// Top-level disjunction: the branch-per-executor engine must emit
    /// exactly the union of the branch oracles, under per-branch order
    /// plans and per-branch tree plans alike.
    #[test]
    fn engines_match_oracle_on_disjunctions(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let p = or_pattern();
        let events = make_events(&spec);
        let expected = oracle_or(&events, SelectionPolicy::SkipTillAny);
        let plan_sets: [[EvalPlan; 2]; 4] = [
            [
                EvalPlan::Order(OrderPlan::new(vec![0, 1])),
                EvalPlan::Order(OrderPlan::new(vec![0, 1])),
            ],
            [
                EvalPlan::Order(OrderPlan::new(vec![1, 0])),
                EvalPlan::Order(OrderPlan::new(vec![1, 0])),
            ],
            [
                EvalPlan::Tree(TreePlan::left_deep(&[0, 1])),
                EvalPlan::Tree(TreePlan::left_deep(&[0, 1])),
            ],
            [
                EvalPlan::Lazy(LazyPlan::new(vec![1, 0])),
                EvalPlan::Lazy(LazyPlan::identity(2)),
            ],
        ];
        for plans in &plan_sets {
            let got = run_branches(&p, plans, &events);
            prop_assert_eq!(
                &got, &expected,
                "branch plans [{}, {}] diverged",
                plans[0].describe(), plans[1].describe()
            );
        }
    }

    /// Interior negation (`SEQ(A, ~B, C)` with a predicate tying B to
    /// A) against the oracle.
    #[test]
    fn engines_match_oracle_on_interior_negation(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let p = interior_neg_pattern();
        let events = make_events(&spec);
        let expected = oracle_interior_neg(&events, SelectionPolicy::SkipTillAny);
        for plan in &two_slot_plans() {
            let got = run_engine(&p, plan, &events);
            prop_assert_eq!(&got, &expected, "plan {} diverged", plan.describe());
        }
    }

    /// Trailing negation (`SEQ(A, B, ~D)`) — matches are held pending
    /// until the window closes; late D events must still invalidate.
    #[test]
    fn engines_match_oracle_on_trailing_negation(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let p = trailing_neg_pattern();
        let events = make_events(&spec);
        let expected = oracle_trailing_neg(&events, SelectionPolicy::SkipTillAny);
        for plan in &two_slot_plans() {
            let got = run_engine(&p, plan, &events);
            prop_assert_eq!(&got, &expected, "plan {} diverged", plan.describe());
        }
    }

    /// One event type in two slots, tied by a condition that an event
    /// satisfies with itself: every plan emits exactly the oracle's
    /// multiset (no duplicates) and never binds one event twice — the
    /// identity test between same-type slots and, for the sequence, the
    /// order test are what exclude it.
    #[test]
    fn engines_match_oracle_on_repeated_types(
        spec in prop::collection::vec((0u8..2, 1u8..12, -3i8..3), 1..30)
    ) {
        let events = make_events(&spec);
        for (p, expected) in [
            (seq_repeat_pattern(), oracle_seq_repeat(&events)),
            (and_repeat_pattern(), oracle_and_repeat(&events)),
        ] {
            for plan in &three_slot_plans() {
                let got = run_engine_multiset(&p, plan, &events);
                prop_assert_eq!(
                    &got, &expected,
                    "{}: plan {} diverged", p.name, plan.describe()
                );
            }
        }
    }

    /// Kleene closure (`SEQ(A, B*, C)` with a unary predicate on B)
    /// against the maximal-set oracle.
    #[test]
    fn engines_match_oracle_on_kleene(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let p = kleene_pattern();
        let events = make_events(&spec);
        let expected = oracle_kleene(&events, SelectionPolicy::SkipTillAny);
        for plan in &three_slot_plans() {
            let got = run_engine(&p, plan, &events);
            prop_assert_eq!(&got, &expected, "plan {} diverged", plan.describe());
        }
    }
}

/// Runs the full selection-policy matrix for a single-branch pattern:
/// every policy × every plan against the per-policy oracle, then the
/// containment lattice strict ⊆ next ⊆ any on the oracle-confirmed
/// match sets.
fn assert_policy_matrix(
    p: &Pattern,
    plans: &[EvalPlan],
    events: &[Arc<Event>],
    oracle: impl Fn(&[Arc<Event>], SelectionPolicy) -> Vec<MatchKey>,
) -> Result<(), TestCaseError> {
    let mut per_policy = Vec::new();
    for policy in SelectionPolicy::ALL {
        let expected = oracle(events, policy);
        for plan in plans {
            let got = run_engine_policy(p, policy, plan, events);
            prop_assert_eq!(
                &got,
                &expected,
                "policy {} plan {} diverged from oracle",
                policy,
                plan.describe()
            );
        }
        per_policy.push(expected);
    }
    let [any, next, strict] = per_policy.try_into().expect("three policies");
    prop_assert!(is_subset(&strict, &next), "strict ⊄ next");
    prop_assert!(is_subset(&next, &any), "next ⊄ any");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Policy matrix on the 3-slot sequence: each policy agrees with
    /// its naive filter under every order and tree plan, and the
    /// lattice holds.
    #[test]
    fn policy_matrix_on_sequences(
        spec in prop::collection::vec((0u8..3, 1u8..20, -5i8..5), 1..30)
    ) {
        let events = make_events(&spec);
        assert_policy_matrix(&pattern(), &three_slot_plans(), &events, oracle_seq)?;
    }

    /// Policy matrix on the conjunction: skip-till-next uses the
    /// arrival-order gap rule, strict contiguity the uniform span rule.
    #[test]
    fn policy_matrix_on_conjunctions(
        spec in prop::collection::vec((0u8..2, 1u8..20, -3i8..3), 1..30)
    ) {
        let events = make_events(&spec);
        assert_policy_matrix(&and_pattern(), &two_slot_plans(), &events, oracle_and)?;
    }

    /// Policy matrix on interior negation: the hoisted guard stays
    /// policy-independent while the (A, C) join pair obeys the policy.
    #[test]
    fn policy_matrix_on_interior_negation(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let events = make_events(&spec);
        assert_policy_matrix(
            &interior_neg_pattern(), &two_slot_plans(), &events, oracle_interior_neg,
        )?;
    }

    /// Policy matrix on trailing negation: deadline-driven emission
    /// must validate against the events seen *before* the deadline.
    #[test]
    fn policy_matrix_on_trailing_negation(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let events = make_events(&spec);
        assert_policy_matrix(
            &trailing_neg_pattern(), &two_slot_plans(), &events, oracle_trailing_neg,
        )?;
    }

    /// Policy matrix on Kleene closure: collection stays maximal under
    /// every policy (members never interpose), which is exactly what
    /// keeps strict ⊆ next on Kleene patterns.
    #[test]
    fn policy_matrix_on_kleene(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let events = make_events(&spec);
        assert_policy_matrix(&kleene_pattern(), &three_slot_plans(), &events, oracle_kleene)?;
    }

    /// Policy matrix on the disjunction: the policy is enforced per
    /// branch, so the engine's union equals the union of per-branch
    /// filtered oracles.
    #[test]
    fn policy_matrix_on_disjunctions(
        spec in prop::collection::vec((0u8..3, 1u8..20, -3i8..3), 1..30)
    ) {
        let p = or_pattern();
        let events = make_events(&spec);
        let plan_sets: [[EvalPlan; 2]; 3] = [
            [
                EvalPlan::Order(OrderPlan::new(vec![1, 0])),
                EvalPlan::Order(OrderPlan::new(vec![0, 1])),
            ],
            [
                EvalPlan::Tree(TreePlan::left_deep(&[0, 1])),
                EvalPlan::Tree(TreePlan::left_deep(&[0, 1])),
            ],
            [
                EvalPlan::Lazy(LazyPlan::identity(2)),
                EvalPlan::Lazy(LazyPlan::new(vec![1, 0])),
            ],
        ];
        let mut per_policy = Vec::new();
        for policy in SelectionPolicy::ALL {
            let expected = oracle_or(&events, policy);
            for plans in &plan_sets {
                let got = run_branches_policy(&p, policy, plans, &events);
                prop_assert_eq!(
                    &got, &expected,
                    "policy {} branch plans [{}, {}] diverged",
                    policy, plans[0].describe(), plans[1].describe()
                );
            }
            per_policy.push(expected);
        }
        let [any, next, strict] = per_policy.try_into().expect("three policies");
        prop_assert!(is_subset(&strict, &next), "strict ⊄ next");
        prop_assert!(is_subset(&next, &any), "next ⊄ any");
    }
}
