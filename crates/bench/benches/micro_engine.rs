//! Microbenchmarks of the evaluation engines: good vs bad plans on a
//! skewed stream (the work gap adaptation is supposed to close), and
//! the steady-state cost of a migrating executor.
//!
//! The `compare/*` rows time one `compatible` call — the unit
//! `engine.comparisons` counts — on a depth-2 partial of the
//! benchmark's `adapt_order` (`traffic_and5`) and `stocks_hot`
//! (`stocks_seq3`) patterns, for a candidate that joins (`hit`: window,
//! chain walk, order and every condition run) and one that does not
//! (`miss`). `compare/pair_flat` times the flat two-event kernel alone
//! on the traffic pair group (two `Cmp`s, resolved once). A sample is
//! 1000 calls, so the printed µs read as ns per call; set them beside
//! `core.keyed.ns_per_event × events ÷ engine.comparisons` from a traced
//! benchmark run.
//!
//! The `join/*` rows run one executor over the stationary traffic slice
//! on the `traffic_and5` pattern — the tree executor under the bushy
//! plan ZStream deploys on `adapt_tree`, `(((4,3),2),(1,0))`, and under
//! the left-deep `((((4,3),2),1),0)`, and the order executor under the
//! rare-first order — with the pass's comparison count as the
//! throughput unit: `thrpt` reads comparisons per second, so
//! `1000 / (M elem/s)` is ns per comparison, the whole join step
//! (window, cross-pair tests, merges) included. A comparison the tree
//! executor decides by skipping a whole group of stored partials (their
//! shared key event fails) costs a share of one test, so the tree rows
//! read more comparisons per second the more candidates one key event
//! rejects. On a 2-core Xeon, three alternating runs each read
//! `tree_and5_bushy` 40–50 ms per pass (57–73 M elem/s) before stored
//! partials were grouped by key event and 11.8–12.6 ms (230–245 M
//! elem/s) after, `tree_and5_left_deep` 7.5–13.3 → 7.5–7.9 ms and the
//! control `order_and5` 9.3–17.9 → 9.9–15.3 ms: the bushy plan still
//! costs more per pass than the left-deep one.
//!
//! The two `stocks_hot` layers in isolation: `cascade/stocks_seq3` (the
//! order executor's `SEQ` cascades over buffers of earlier events; ns
//! per comparison as for `join/*`) and `finalize/negt3_admit` (ns per
//! trailing-negation admission against one window of held negated
//! events).

#[path = "common.rs"]
mod common;

use std::sync::Arc;

use acep_engine::order_exec::compatible;
use acep_engine::StepMasks;
use acep_engine::{
    build_executor, Completed, ExecContext, Finalizer, MigratingExecutor, Partial, PartialStore,
};
use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreeNode, TreePlan};
use acep_types::{Event, EventTypeId, Pattern, PatternExpr, Timestamp};
use acep_workloads::{DatasetKind, PatternSetKind};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Times `compatible` for extending a depth-2 partial (slots 0 and 1
/// bound to the first joinable pair of `events`) at slot 2, once with a
/// candidate that joins and once with one that does not.
fn bench_compare(c: &mut Criterion, name: &str, ctx: &ExecContext, events: &[Arc<Event>]) {
    let of_slot = |slot: usize| {
        events
            .iter()
            .filter(move |e| e.type_id == ctx.slot_types[slot])
    };
    let order = [0, 1, 2];
    let (step1, step2) = (ctx.order_step(&order, 1), ctx.order_step(&order, 2));
    let ok = |store: &PartialStore, p: &Partial, slot, e, step: &StepMasks| {
        compatible(ctx, store, p, slot, e, step, None)
    };
    let mut store = PartialStore::new();
    let (partial, hit) = of_slot(0)
        .find_map(|e0| {
            let seed = Partial::seed(&mut store, 0, Arc::clone(e0));
            let e1 = of_slot(1).find(|e1| ok(&store, &seed, 1, e1, &step1))?;
            let partial = seed.extend(&mut store, 1, Arc::clone(e1));
            let hit = of_slot(2).find(|e2| ok(&store, &partial, 2, e2, &step2))?;
            Some((partial, hit))
        })
        .expect("the stream holds a depth-3 join");
    let miss = of_slot(2)
        .find(|e2| !ok(&store, &partial, 2, e2, &step2))
        .expect("the stream holds a non-joining candidate");
    for (outcome, cand) in [("hit", hit), ("miss", miss)] {
        c.bench_function(&format!("micro/engine/compare/{name}/{outcome}"), |b| {
            b.iter(|| {
                (0..1000)
                    .filter(|_| ok(&store, &partial, 2, black_box(cand), &step2))
                    .count()
            })
        });
    }
}

/// Times the flat pair kernel on the conditions between slots 1 and 2
/// of `ctx`, resolved once, over the first event pair that satisfies
/// them.
fn bench_pair_flat(c: &mut Criterion, ctx: &ExecContext, events: &[Arc<Event>]) {
    let group = ctx.pair_group(1, 2);
    assert!(!group.is_empty(), "slots 1 and 2 carry a condition");
    let of_slot = |slot: usize| {
        events
            .iter()
            .filter(move |e| e.type_id == ctx.slot_types[slot])
    };
    let (lo, hi) = of_slot(1)
        .find_map(|a| {
            of_slot(2)
                .find(|b| ctx.holds_pair_group(group, a, b))
                .map(|b| (a, b))
        })
        .expect("the stream holds a joining pair");
    c.bench_function("micro/engine/compare/pair_flat", |b| {
        b.iter(|| {
            (0..1000)
                .filter(|_| ctx.holds_pair_group(group, black_box(lo), black_box(hi)))
                .count()
        })
    });
}

/// `cascade/stocks_seq3`: the order executor under the identity plan on
/// the benchmark's `stocks/seq3` pattern over the stocks stream. Every
/// arrival at a `SEQ` position cascades over the buffer of the next
/// position, whose events all arrived earlier — the scans `stocks_hot`
/// spends most of its candidates on. Comparisons are the throughput
/// unit, as for `join/*`.
fn bench_cascade(c: &mut Criterion, ctx: &Arc<ExecContext>, events: &[Arc<Event>]) {
    let plan = EvalPlan::Order(OrderPlan::identity(ctx.n));
    let run = || {
        let mut exec = build_executor(Arc::clone(ctx), &plan);
        let mut out = Vec::new();
        for ev in events {
            exec.on_event(ev, &mut out);
            out.clear();
        }
        exec.comparisons()
    };
    let mut group = c.benchmark_group("micro/engine/cascade");
    group.throughput(Throughput::Elements(run()));
    group.bench_function("stocks_seq3", |b| b.iter(|| black_box(run())));
    group.finish();
}

/// `finalize/negt3_admit`: admissions into the finalizer of the
/// benchmark's `stocks/negt3` pattern, `SEQ(T0, T1, ¬T2)`, holding one
/// window of `T2` events that all precede the admitted match — the
/// trailing-negation admissions of `stocks_hot`, none of which a held
/// `T2` can veto. A sample is 1000 admissions (each emits: its deadline
/// has passed), so the printed µs read as ns per admission.
fn bench_finalize(c: &mut Criterion, window: Timestamp, events: &[Arc<Event>]) {
    let negt3 = Pattern::builder("negt3")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::neg(PatternExpr::prim(EventTypeId(2))),
        ]))
        .window(window)
        .build()
        .expect("negation pattern is valid");
    let ctx = ExecContext::compile(&negt3.canonical().branches[0]).unwrap();
    let mut finalizer = Finalizer::new(Arc::clone(&ctx));
    let mut out = Vec::new();
    let start = events[0].timestamp;
    let held = events
        .iter()
        .take_while(|e| e.timestamp <= start + window)
        .filter(|e| e.type_id == EventTypeId(2));
    for ev in held {
        finalizer.observe(ev, &mut out);
    }
    let after = |ty: u32, from: Timestamp| {
        events
            .iter()
            .find(|e| e.type_id == EventTypeId(ty) && e.timestamp > from)
            .expect("the stream continues past one window")
    };
    let a = after(0, start + window);
    let b = after(1, a.timestamp);
    let completed = Completed {
        events: vec![Some(Arc::clone(a)), Some(Arc::clone(b))],
        min_ts: a.timestamp,
        max_ts: b.timestamp,
    };
    let now = a.timestamp + window;
    c.bench_function("micro/engine/finalize/negt3_admit", |bench| {
        bench.iter(|| {
            for _ in 0..1000 {
                finalizer.admit(completed.clone(), black_box(now), &mut out);
                out.clear();
            }
        })
    });
}

/// `(((4,3),2),(1,0))`: the bushy plan ZStream deploys on `adapt_tree`.
fn and5_bushy() -> TreePlan {
    let mut nodes: Vec<TreeNode> = (0..5).map(|slot| TreeNode::Leaf { slot }).collect();
    nodes.push(TreeNode::Internal { left: 4, right: 3 });
    nodes.push(TreeNode::Internal { left: 5, right: 2 });
    nodes.push(TreeNode::Internal { left: 1, right: 0 });
    nodes.push(TreeNode::Internal { left: 6, right: 7 });
    TreePlan { nodes, root: 8 }
}

/// Runs each join plan over `events`, reporting comparisons per second.
fn bench_join(c: &mut Criterion, ctx: &Arc<ExecContext>, events: &[Arc<Event>]) {
    let run = |plan: &EvalPlan| {
        let mut exec = build_executor(Arc::clone(ctx), plan);
        let mut out = Vec::new();
        for ev in events {
            exec.on_event(ev, &mut out);
            out.clear();
        }
        exec.comparisons()
    };
    let plans = [
        ("tree_and5_bushy", EvalPlan::Tree(and5_bushy())),
        (
            "tree_and5_left_deep",
            EvalPlan::Tree(TreePlan::left_deep(&[4, 3, 2, 1, 0])),
        ),
        (
            "order_and5",
            EvalPlan::Order(OrderPlan::new(vec![4, 3, 2, 1, 0])),
        ),
    ];
    let mut group = c.benchmark_group("micro/engine/join");
    for (name, plan) in &plans {
        group.throughput(Throughput::Elements(run(plan)));
        group.bench_function(name, |b| b.iter(|| black_box(run(plan))));
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let (scenario, events) = common::inputs(DatasetKind::Traffic);
    let and5 = scenario.pattern(PatternSetKind::Conjunction, 5);
    let and5_ctx = ExecContext::compile(&and5.canonical().branches[0]).unwrap();
    bench_compare(c, "traffic_and5", &and5_ctx, &events);
    bench_pair_flat(c, &and5_ctx, &events);
    bench_join(c, &and5_ctx, &events);
    let (stocks, stock_events) = common::inputs(DatasetKind::Stocks);
    let seq3 = stocks.pattern(PatternSetKind::Sequence, 3);
    let seq3_ctx = ExecContext::compile(&seq3.canonical().branches[0]).unwrap();
    bench_compare(c, "stocks_seq3", &seq3_ctx, &stock_events);
    bench_cascade(c, &seq3_ctx, &stock_events);
    bench_finalize(c, stocks.config.window_ms, &stock_events);

    let pattern = scenario.pattern(PatternSetKind::Sequence, 5);
    let ctx = ExecContext::compile(&pattern.canonical().branches[0]).unwrap();

    // Traffic rates descend with the type index, so the identity order
    // is the *eager* (bad) plan and the reverse is the lazy (good) one.
    // `lazy_chain` is a different axis entirely: the deferred executor
    // (buffer events, build chains only when a rarest-type trigger
    // fires) at the same rare-first order, so the eager-vs-deferred
    // trade is measured at a matching workload shape.
    let plans = [
        ("order_eager", EvalPlan::Order(OrderPlan::identity(5))),
        (
            "order_lazy",
            EvalPlan::Order(OrderPlan::new(vec![4, 3, 2, 1, 0])),
        ),
        (
            "lazy_chain",
            EvalPlan::Lazy(LazyPlan::new(vec![4, 3, 2, 1, 0])),
        ),
        (
            "tree_left_deep",
            EvalPlan::Tree(TreePlan::left_deep(&[0, 1, 2, 3, 4])),
        ),
        (
            "tree_rare_first",
            EvalPlan::Tree(TreePlan::left_deep(&[4, 3, 2, 1, 0])),
        ),
    ];
    for (name, plan) in &plans {
        c.bench_function(&format!("micro/engine/{name}/n5"), |b| {
            b.iter(|| {
                let mut exec = build_executor(Arc::clone(&ctx), plan);
                let mut out = Vec::new();
                for ev in &events {
                    exec.on_event(ev, &mut out);
                    out.clear();
                }
                black_box(exec.comparisons())
            })
        });
    }

    // Allocation-sensitive row: an 8-slot sequence under the *eager*
    // plan stores deep partials at every level, so per-event cost is
    // dominated by partial extension. The seed implementation cloned an
    // 8-slot event vector per extension; the arena-backed store pushes
    // one node, so this row moves when the hot path regresses on
    // allocation churn even if the n5 rows stay flat.
    let deep = scenario.pattern(PatternSetKind::Sequence, 8);
    let deep_ctx = ExecContext::compile(&deep.canonical().branches[0]).unwrap();
    let deep_plan = EvalPlan::Order(OrderPlan::identity(8));
    c.bench_function("micro/engine/order_eager_alloc/n8", |b| {
        b.iter(|| {
            let mut exec = build_executor(Arc::clone(&deep_ctx), &deep_plan);
            let mut out = Vec::new();
            for ev in &events {
                exec.on_event(ev, &mut out);
                out.clear();
            }
            black_box(exec.comparisons())
        })
    });

    c.bench_function("micro/engine/migrating_with_replacement/n5", |b| {
        b.iter(|| {
            let mut mig = MigratingExecutor::new(
                ctx.window,
                build_executor(Arc::clone(&ctx), &plans[0].1),
                plans[0].1.clone(),
            );
            let mut out = Vec::new();
            let mid = events.len() / 2;
            for ev in &events[..mid] {
                mig.on_event(ev, &mut out);
                out.clear();
            }
            mig.replace(
                build_executor(Arc::clone(&ctx), &plans[1].1),
                events[mid].timestamp,
                plans[1].1.clone(),
            );
            for ev in &events[mid..] {
                mig.on_event(ev, &mut out);
                out.clear();
            }
            black_box(mig.comparisons())
        })
    });
}

criterion_group! { name = benches; config = common::cfg(); targets = bench }
criterion_main!(benches);
