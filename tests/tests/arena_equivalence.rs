//! Equivalence of the arena-backed executors with the seed semantics.
//!
//! The engine PR that replaced per-`Partial` event vectors with an
//! arena-backed shared match buffer must be a pure representation
//! change: the match multiset *and* the `comparisons()` work metric
//! have to be bit-identical to the seed implementation. The golden
//! table below was captured by running the **pre-arena** (seed)
//! executors over deterministic pseudo-random streams; the arena
//! executors must keep reproducing it forever.
//!
//! Complementing the golden pins, a property test re-runs every
//! oracle-scenario pattern on random streams through the executors
//! twice, asserting runs are deterministic and that Order, Tree, and
//! Lazy plans agree on the match multiset (the existing `oracle.rs`
//! suite separately ties that multiset to naive enumerators). Lazy
//! plans stay out of the golden table: their `comparisons()` counts
//! deferred-chain work, which is intentionally different from the
//! seed's eager metric, while the multiset must still be identical.

use std::sync::Arc;

use acep_engine::{build_executor, ExecContext, Match, MatchKey, StaticEngine};
use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreeNode, TreePlan};
use acep_types::{attr, constant, Event, EventTypeId, Pattern, PatternExpr, Value};
use proptest::prelude::*;

const WINDOW: u64 = 50;

fn t(i: u32) -> EventTypeId {
    EventTypeId(i)
}

/// SEQ(T0, T1, T2) WHERE a.x < c.x WITHIN 50.
fn seq_pattern() -> Pattern {
    Pattern::builder("eq-seq")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 0).lt(attr(2, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// AND(T0, T1, T2) WHERE a.x == b.x WITHIN 50.
fn and_pattern() -> Pattern {
    Pattern::builder("eq-and")
        .expr(PatternExpr::and([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 0).eq(attr(1, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// OR(SEQ(T0, T1) WHERE a.x < b.x, AND(T2, T0) WHERE c.x == d.x).
fn or_pattern() -> Pattern {
    Pattern::builder("eq-or")
        .expr(PatternExpr::or([
            PatternExpr::seq([PatternExpr::prim(t(0)), PatternExpr::prim(t(1))]),
            PatternExpr::and([PatternExpr::prim(t(2)), PatternExpr::prim(t(0))]),
        ]))
        .condition(attr(0, 0).lt(attr(1, 0)))
        .condition(attr(2, 0).eq(attr(3, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, ~T1, T2) WHERE b.x == a.x WITHIN 50.
fn interior_neg_pattern() -> Pattern {
    Pattern::builder("eq-neg")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::neg(PatternExpr::prim(t(1))),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(1, 0).eq(attr(0, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, T1, ~T2) WITHIN 50 — trailing negation, deadline-driven.
fn trailing_neg_pattern() -> Pattern {
    Pattern::builder("eq-neg-trail")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::neg(PatternExpr::prim(t(2))),
        ]))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, T1* b, T2) WHERE b.x > 0 WITHIN 50.
fn kleene_pattern() -> Pattern {
    Pattern::builder("eq-kleene")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::kleene(PatternExpr::prim(t(1))),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(1, 0).gt(constant(0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0 a, T1 b, T0 c) WHERE a.x <= c.x WITHIN 50 — one type in two
/// slots, tied by a condition an event satisfies with itself.
fn seq_repeat_pattern() -> Pattern {
    Pattern::builder("eq-seq-rep")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(0)),
        ]))
        .condition(attr(0, 0).le(attr(2, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// AND(T0 a, T0 b, T1 c) WHERE a.x <= b.x WITHIN 50.
fn and_repeat_pattern() -> Pattern {
    Pattern::builder("eq-and-rep")
        .expr(PatternExpr::and([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
        ]))
        .condition(attr(0, 0).le(attr(1, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(~T1 b, T0 a, T2 c) WHERE b.x == a.x WITHIN 50 — leading
/// negation, scoped by the window start and the first positive event.
fn leading_neg_pattern() -> Pattern {
    Pattern::builder("eq-neg-lead")
        .expr(PatternExpr::seq([
            PatternExpr::neg(PatternExpr::prim(t(1))),
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 0).eq(attr(1, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// Deterministic pseudo-random stream: `n` events over `types` event
/// types, timestamp gaps in `1..=8`, one integer attribute in `-5..5`.
fn lcg_events(n: usize, types: u32, seed: u64) -> Vec<Arc<Event>> {
    lcg_events_with_gaps(n, types, seed, 1..=8)
}

/// The tie-heavy variant of [`lcg_events`]: timestamp gaps in `0..=2`,
/// so about a third of consecutive events share a timestamp and only
/// `seq` orders them.
fn tie_events(n: usize, types: u32, seed: u64) -> Vec<Arc<Event>> {
    lcg_events_with_gaps(n, types, seed, 0..=2)
}

fn lcg_events_with_gaps(
    n: usize,
    types: u32,
    seed: u64,
    gaps: std::ops::RangeInclusive<u64>,
) -> Vec<Arc<Event>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut ts = 0u64;
    let span = gaps.end() - gaps.start() + 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tid = ((state >> 33) % types as u64) as u32;
            ts += gaps.start() + (state >> 45) % span;
            let x = ((state >> 20) % 10) as i64 - 5;
            Event::new(t(tid), ts, i as u64, vec![Value::Int(x)])
        })
        .collect()
}

fn plans3() -> Vec<(&'static str, EvalPlan)> {
    vec![
        ("order-012", EvalPlan::Order(OrderPlan::new(vec![0, 1, 2]))),
        ("order-210", EvalPlan::Order(OrderPlan::new(vec![2, 1, 0]))),
        ("tree-left", EvalPlan::Tree(TreePlan::left_deep(&[0, 1, 2]))),
        (
            "tree-right",
            EvalPlan::Tree(TreePlan {
                nodes: vec![
                    TreeNode::Leaf { slot: 0 },
                    TreeNode::Leaf { slot: 1 },
                    TreeNode::Leaf { slot: 2 },
                    TreeNode::Internal { left: 1, right: 2 },
                    TreeNode::Internal { left: 0, right: 3 },
                ],
                root: 4,
            }),
        ),
    ]
}

/// Runs one branch pattern under `plan`, returning the sorted match
/// keys and the executor's total comparison count. No match may bind
/// one event in two slots.
fn run_one(pattern: &Pattern, plan: &EvalPlan, events: &[Arc<Event>]) -> (Vec<MatchKey>, u64) {
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
        assert_eq!(seqs.len(), bound, "{plan:?} bound one event twice");
    }
    let comparisons = exec.comparisons();
    let mut keys: Vec<MatchKey> = out.iter().map(Match::key).collect();
    keys.sort();
    (keys, comparisons)
}

/// Runs the disjunctive pattern through a [`StaticEngine`].
fn run_or(pattern: &Pattern, plans: &[EvalPlan], events: &[Arc<Event>]) -> (Vec<MatchKey>, u64) {
    let mut engine = StaticEngine::from_plans(pattern.canonical(), plans).unwrap();
    let mut out = Vec::new();
    for ev in events {
        engine.on_event(ev, &mut out);
    }
    engine.finish(&mut out);
    let comparisons = engine.comparisons();
    let mut keys: Vec<MatchKey> = out.iter().map(Match::key).collect();
    keys.sort();
    (keys, comparisons)
}

/// Golden `(pattern, plan, seed) -> (matches, comparisons)` rows,
/// captured from the seed (pre-arena) implementation. See module docs.
/// The `seq-rep` / `and-rep` rows (one event type in two slots) were
/// captured on the build that still tested every cross pair of a join
/// step, before step masks limited identity tests to same-type slots.
const GOLDEN: &[(&str, &str, u64, usize, u64)] = &[
    ("seq", "order-012", 1, 384, 4040),
    ("seq", "order-210", 1, 384, 4025),
    ("seq", "tree-left", 1, 384, 3763),
    ("seq", "tree-right", 1, 384, 3755),
    ("and", "order-012", 1, 454, 1708),
    ("and", "order-210", 1, 454, 6831),
    ("and", "tree-left", 1, 454, 1772),
    ("and", "tree-right", 1, 454, 6197),
    ("or", "order", 1, 334, 2427),
    ("or", "tree", 1, 334, 2492),
    ("neg", "order-01", 1, 431, 3268),
    ("neg", "tree", 1, 431, 3285),
    ("neg-trail", "order-01", 1, 109, 3619),
    ("neg-trail", "tree", 1, 109, 3616),
    ("kleene", "order-01", 1, 260, 3370),
    ("kleene", "tree", 1, 260, 3387),
    ("seq-rep", "order-012", 1, 510, 4739),
    ("seq-rep", "order-210", 1, 510, 4669),
    ("seq-rep", "tree-left", 1, 510, 4548),
    ("seq-rep", "tree-right", 1, 510, 4346),
    ("and-rep", "order-012", 1, 2975, 5005),
    ("and-rep", "order-210", 1, 2975, 8180),
    ("and-rep", "tree-left", 1, 2975, 4608),
    ("and-rep", "tree-right", 1, 2975, 7577),
    ("seq", "order-012", 2, 463, 4594),
    ("seq", "order-210", 2, 463, 4329),
    ("seq", "tree-left", 2, 463, 4237),
    ("seq", "tree-right", 2, 463, 4053),
    ("and", "order-012", 2, 526, 2045),
    ("and", "order-210", 2, 526, 7349),
    ("and", "tree-left", 2, 526, 2071),
    ("and", "tree-right", 2, 526, 6620),
    ("or", "order", 2, 373, 2580),
    ("or", "tree", 2, 373, 2631),
    ("neg", "order-01", 2, 406, 3420),
    ("neg", "tree", 2, 406, 3413),
    ("neg-trail", "order-01", 2, 139, 4119),
    ("neg-trail", "tree", 2, 139, 4128),
    ("kleene", "order-01", 2, 261, 3476),
    ("kleene", "tree", 2, 261, 3469),
    ("seq-rep", "order-012", 2, 593, 5640),
    ("seq-rep", "order-210", 2, 593, 5874),
    ("seq-rep", "tree-left", 2, 593, 5325),
    ("seq-rep", "tree-right", 2, 593, 5440),
    ("and-rep", "order-012", 2, 3561, 5738),
    ("and-rep", "order-210", 2, 3561, 10088),
    ("and-rep", "tree-left", 2, 3561, 5279),
    ("and-rep", "tree-right", 2, 3561, 9188),
];

/// Computes every golden row from the current implementation.
fn compute_rows() -> Vec<(&'static str, String, u64, usize, u64)> {
    let mut rows = Vec::new();
    for seed in [1u64, 2u64] {
        let events = lcg_events(400, 3, seed);

        for (name, plan) in plans3() {
            let (keys, comps) = run_one(&seq_pattern(), &plan, &events);
            rows.push(("seq", name.to_string(), seed, keys.len(), comps));
        }
        for (name, plan) in plans3() {
            let (keys, comps) = run_one(&and_pattern(), &plan, &events);
            rows.push(("and", name.to_string(), seed, keys.len(), comps));
        }
        for (label, pattern) in [
            ("seq-rep", seq_repeat_pattern()),
            ("and-rep", and_repeat_pattern()),
        ] {
            for (name, plan) in plans3() {
                let (keys, comps) = run_one(&pattern, &plan, &events);
                rows.push((label, name.to_string(), seed, keys.len(), comps));
            }
        }

        let or_order = [
            EvalPlan::Order(OrderPlan::new(vec![1, 0])),
            EvalPlan::Order(OrderPlan::new(vec![0, 1])),
        ];
        let (keys, comps) = run_or(&or_pattern(), &or_order, &events);
        rows.push(("or", "order".into(), seed, keys.len(), comps));
        let or_tree = [
            EvalPlan::Tree(TreePlan::left_deep(&[0, 1])),
            EvalPlan::Tree(TreePlan::left_deep(&[1, 0])),
        ];
        let (keys, comps) = run_or(&or_pattern(), &or_tree, &events);
        rows.push(("or", "tree".into(), seed, keys.len(), comps));

        for (pat, label) in [
            (interior_neg_pattern(), "neg"),
            (trailing_neg_pattern(), "neg-trail"),
            (kleene_pattern(), "kleene"),
        ] {
            let n = pat.canonical().branches[0].n();
            let slots: Vec<usize> = (0..n).collect();
            let (keys, comps) = run_one(&pat, &EvalPlan::Order(OrderPlan::identity(n)), &events);
            rows.push((label, "order-01".into(), seed, keys.len(), comps));
            let (keys, comps) =
                run_one(&pat, &EvalPlan::Tree(TreePlan::left_deep(&slots)), &events);
            rows.push((label, "tree".into(), seed, keys.len(), comps));
        }
    }
    rows
}

/// The golden equivalence pin: run `ACEP_PRINT_GOLDEN=1 cargo test -p
/// acep-integration-tests golden -- --nocapture` to regenerate the
/// table after an *intentional* semantics change.
#[test]
fn golden_match_counts_and_comparisons_match_seed_semantics() {
    let rows = compute_rows();
    if std::env::var("ACEP_PRINT_GOLDEN").is_ok() {
        for (pat, plan, seed, matches, comps) in &rows {
            println!("    (\"{pat}\", \"{plan}\", {seed}, {matches}, {comps}),");
        }
        return;
    }
    // Group by (pattern, seed) for the comparison: sort both sides.
    let mut got: Vec<(String, String, u64, usize, u64)> = rows
        .into_iter()
        .map(|(a, b, c, d, e)| (a.to_string(), b, c, d, e))
        .collect();
    let mut want: Vec<(String, String, u64, usize, u64)> = GOLDEN
        .iter()
        .map(|(a, b, c, d, e)| (a.to_string(), b.to_string(), *c, *d, *e))
        .collect();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "arena-backed executors diverged from the seed semantics"
    );
}

/// Golden `(pattern, plan, seed) -> (matches, comparisons)` rows on the
/// tie-heavy streams ([`tie_events`]), where the `(timestamp, seq)`
/// tie-break decides every `SEQ` order and scope test between events of
/// one timestamp. Captured on the build whose executors tested every
/// buffered event of a history scan; bounding those scans by time keeps
/// every row bit-identical.
///
/// Known defect pinned here: the `neg-trail` `order-*` and `lazy-rev`
/// rows read 85 / 169 matches where the declarative semantics (and the
/// `lazy-fwd` plan, which admits after the window closed) gives 80 /
/// 167. The finalizer emits a match admitted at exactly its deadline
/// `min_ts + W` at once, so a `T2` with that same timestamp arriving
/// later cannot veto it. Holding such a match moves `comparisons()` on
/// untied streams too (the `GOLDEN` `neg-trail` rows by +1 to +5), so
/// the fix is a change of its own.
const TIE_GOLDEN: &[(&str, &str, u64, usize, u64)] = &[
    ("seq", "order-fwd", 1, 9686, 63613),
    ("seq", "order-rev", 1, 9686, 62923),
    ("seq", "lazy-fwd", 1, 9686, 81983),
    ("seq", "lazy-rev", 1, 9686, 76473),
    ("neg", "order-fwd", 1, 1196, 37339),
    ("neg", "order-rev", 1, 1196, 37379),
    ("neg", "lazy-fwd", 1, 1196, 68433),
    ("neg", "lazy-rev", 1, 1196, 70910),
    ("neg-lead", "order-fwd", 1, 1238, 30753),
    ("neg-lead", "order-rev", 1, 1238, 30793),
    ("neg-lead", "lazy-fwd", 1, 1238, 57130),
    ("neg-lead", "lazy-rev", 1, 1238, 64324),
    ("neg-trail", "order-fwd", 1, 85, 46123),
    ("neg-trail", "order-rev", 1, 85, 46140),
    ("neg-trail", "lazy-fwd", 1, 80, 64476),
    ("neg-trail", "lazy-rev", 1, 85, 79117),
    ("kleene", "order-fwd", 1, 2145, 44311),
    ("kleene", "order-rev", 1, 2145, 44351),
    ("kleene", "lazy-fwd", 1, 2145, 82111),
    ("kleene", "lazy-rev", 1, 2145, 77882),
    ("seq", "order-fwd", 2, 8037, 57747),
    ("seq", "order-rev", 2, 8037, 57403),
    ("seq", "lazy-fwd", 2, 8037, 72035),
    ("seq", "lazy-rev", 2, 8037, 70115),
    ("neg", "order-fwd", 2, 1090, 35581),
    ("neg", "order-rev", 2, 1090, 35512),
    ("neg", "lazy-fwd", 2, 1090, 64469),
    ("neg", "lazy-rev", 2, 1090, 67101),
    ("neg-lead", "order-fwd", 2, 993, 27746),
    ("neg-lead", "order-rev", 2, 993, 27677),
    ("neg-lead", "lazy-fwd", 2, 993, 51779),
    ("neg-lead", "lazy-rev", 2, 993, 59266),
    ("neg-trail", "order-fwd", 2, 169, 42457),
    ("neg-trail", "order-rev", 2, 169, 42413),
    ("neg-trail", "lazy-fwd", 2, 167, 56701),
    ("neg-trail", "lazy-rev", 2, 169, 68957),
    ("kleene", "order-fwd", 2, 1775, 41003),
    ("kleene", "order-rev", 2, 1775, 40934),
    ("kleene", "lazy-fwd", 2, 1775, 75674),
    ("kleene", "lazy-rev", 2, 1775, 72523),
];

/// Computes every tie-heavy golden row: each pattern under both ends of
/// its order and lazy plans.
fn compute_tie_rows() -> Vec<(&'static str, &'static str, u64, usize, u64)> {
    let mut rows = Vec::new();
    for seed in [1u64, 2u64] {
        let events = tie_events(400, 3, seed);
        for (label, pattern) in [
            ("seq", seq_pattern()),
            ("neg", interior_neg_pattern()),
            ("neg-lead", leading_neg_pattern()),
            ("neg-trail", trailing_neg_pattern()),
            ("kleene", kleene_pattern()),
        ] {
            let n = pattern.canonical().branches[0].n();
            let fwd: Vec<usize> = (0..n).collect();
            let rev: Vec<usize> = (0..n).rev().collect();
            for (name, plan) in [
                ("order-fwd", EvalPlan::Order(OrderPlan::new(fwd.clone()))),
                ("order-rev", EvalPlan::Order(OrderPlan::new(rev.clone()))),
                ("lazy-fwd", EvalPlan::Lazy(LazyPlan::new(fwd))),
                ("lazy-rev", EvalPlan::Lazy(LazyPlan::new(rev))),
            ] {
                let (keys, comps) = run_one(&pattern, &plan, &events);
                rows.push((label, name, seed, keys.len(), comps));
            }
        }
    }
    rows
}

/// The tie-heavy golden pin (`ACEP_PRINT_GOLDEN=1` prints the table, as
/// for [`GOLDEN`]).
#[test]
fn tie_heavy_golden_match_counts_and_comparisons() {
    let rows = compute_tie_rows();
    if std::env::var("ACEP_PRINT_GOLDEN").is_ok() {
        for (pat, plan, seed, matches, comps) in &rows {
            println!("    (\"{pat}\", \"{plan}\", {seed}, {matches}, {comps}),");
        }
        return;
    }
    assert_eq!(rows, TIE_GOLDEN, "tie-heavy streams diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random streams, (a) repeated runs of the same executor are
    /// bit-identical in both match multiset and comparisons (the arena
    /// introduces no nondeterminism), and (b) Order, Tree, and Lazy
    /// plans agree on the match multiset for every oracle-scenario
    /// pattern — the lazy executor's deferred chain construction is
    /// externally invisible.
    #[test]
    fn arena_runs_are_deterministic_and_plan_invariant(
        seed in 0u64..1u64 << 32,
        n in 20usize..200,
    ) {
        // Odd seeds draw the usual gaps, even seeds the tie-heavy ones.
        let ties = seed % 2 == 0;
        let events = if ties {
            tie_events(n, 3, seed | 1)
        } else {
            lcg_events(n, 3, seed)
        };
        for pattern in [
            seq_pattern(),
            and_pattern(),
            interior_neg_pattern(),
            leading_neg_pattern(),
            trailing_neg_pattern(),
            kleene_pattern(),
            seq_repeat_pattern(),
            and_repeat_pattern(),
        ] {
            let slot_count = pattern.canonical().branches[0].n();
            let order = EvalPlan::Order(OrderPlan::identity(slot_count));
            let slots: Vec<usize> = (0..slot_count).collect();
            let tree = EvalPlan::Tree(TreePlan::left_deep(&slots));
            let (k1, c1) = run_one(&pattern, &order, &events);
            let (k2, c2) = run_one(&pattern, &order, &events);
            prop_assert_eq!(&k1, &k2, "order run not deterministic");
            prop_assert_eq!(c1, c2, "order comparisons not deterministic");
            let (k3, c3) = run_one(&pattern, &tree, &events);
            let (k4, c4) = run_one(&pattern, &tree, &events);
            prop_assert_eq!(&k3, &k4, "tree run not deterministic");
            prop_assert_eq!(c3, c4, "tree comparisons not deterministic");
            prop_assert_eq!(&k1, &k3, "order and tree multisets diverged");
            let lazy_fwd = EvalPlan::Lazy(LazyPlan::identity(slot_count));
            let lazy_rev = EvalPlan::Lazy(LazyPlan::new((0..slot_count).rev().collect()));
            let (k5, c5) = run_one(&pattern, &lazy_fwd, &events);
            let (k6, c6) = run_one(&pattern, &lazy_fwd, &events);
            prop_assert_eq!(&k5, &k6, "lazy run not deterministic");
            prop_assert_eq!(c5, c6, "lazy comparisons not deterministic");
            let (k7, _) = run_one(&pattern, &lazy_rev, &events);
            prop_assert_eq!(&k1, &k7, "order and lazy multisets diverged");
            // The known defect `TIE_GOLDEN` pins: on tied streams a
            // trailing negation admitted at its deadline escapes a veto
            // under every plan but the deferred `lazy_fwd`.
            if !(ties && pattern.name == "eq-neg-trail") {
                prop_assert_eq!(&k5, &k7, "lazy join order changed the multiset");
            }
        }
    }
}

/// Condition programs and partial chains carry no width limit: the
/// paper's largest pattern (8 slots, here an AND with a condition on
/// every adjacent slot pair) and a 20-slot SEQ fed one event per type
/// emit the same non-empty multiset under Order, Tree and Lazy plans in
/// either slot order. A fixed-size frame or slot array in the evaluator
/// would break one of the two.
#[test]
fn wide_patterns_match_identically_under_every_plan_kind() {
    let types = |n: u32| (0..n).map(t).collect::<Vec<_>>();
    let and8 = (1..8u32)
        .fold(
            Pattern::builder("and8").expr(PatternExpr::and(
                types(8).into_iter().map(PatternExpr::prim),
            )),
            |b, i| b.condition(attr(i - 1, 0).le(attr(i, 0))),
        )
        .window(WINDOW)
        .build()
        .unwrap();
    // x ∈ {0, 1}: each adjacent `<=` passes three times in four.
    let and8_events: Vec<Arc<Event>> = lcg_events(72, 8, 5)
        .iter()
        .map(|e| {
            Event::new(
                e.type_id,
                e.timestamp,
                e.seq,
                vec![Value::Int((e.seq % 2) as i64)],
            )
        })
        .collect();
    let seq20 = Pattern::sequence("seq20", &types(20), 1_000);
    let seq20_events: Vec<Arc<Event>> = (0..20u64)
        .map(|i| Event::new(t(i as u32), 10 * i, i, vec![Value::Int(0)]))
        .collect();

    for (pattern, events, expect) in [(and8, and8_events, None), (seq20, seq20_events, Some(1))] {
        let n = pattern.canonical().branches[0].n();
        let mut reference: Option<Vec<MatchKey>> = None;
        for slots in [(0..n).collect::<Vec<_>>(), (0..n).rev().collect()] {
            for plan in [
                EvalPlan::Order(OrderPlan::new(slots.clone())),
                EvalPlan::Tree(TreePlan::left_deep(&slots)),
                EvalPlan::Lazy(LazyPlan::new(slots.clone())),
            ] {
                let (keys, _) = run_one(&pattern, &plan, &events);
                assert!(!keys.is_empty(), "{}: {plan:?} found nothing", pattern.name);
                assert!(
                    expect.is_none_or(|m| keys.len() == m),
                    "{}: {plan:?}",
                    pattern.name
                );
                let reference = reference.get_or_insert_with(|| keys.clone());
                assert_eq!(&keys, reference, "{}: {plan:?} diverged", pattern.name);
            }
        }
    }
}
