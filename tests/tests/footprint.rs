//! Heap footprint guard for what is built per partition key.
//!
//! Engines are instantiated per key, and the benchmark's reference
//! evaluator even compiles one `ExecContext` per key (100 k keys on
//! `iot_lazy`), so a few bytes added to a context or an executor show up
//! as megabytes of peak RSS. This binary installs a counting global
//! allocator and measures the heap bytes each of those calls leaves
//! live — `ExecContext::compile`, and `build_executor` on a fresh key
//! under an order, a tree and a lazy plan — for the three benchmark
//! patterns that run at scale. The test fails if any figure exceeds the
//! one pinned below; a deliberate change lowers the pins (run with
//! `ACEP_PRINT_GOLDEN=1 cargo test -p acep-integration-tests --test
//! footprint -- --nocapture` to print the current figures).

use std::sync::Arc;

use acep_engine::{build_executor, ExecContext};
use acep_integration_tests::heap::{live_bytes, Counting};
use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreePlan};
use acep_types::Pattern;
use acep_workloads::{ClickstreamConfig, DatasetKind, IotConfig, PatternSetKind, Scenario};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(pattern, what, bytes)`: the figures measured on the build before
/// join steps were compiled into cross-pair tests (the tree executor
/// has since shrunk by one `Vec` of per-node links).
const PINNED: &[(&str, &str, isize)] = &[
    ("iot/seq3", "compile", 463),
    ("iot/seq3", "order", 504),
    ("iot/seq3", "tree", 808),
    ("iot/seq3", "lazy", 464),
    ("click/funnel5", "compile", 833),
    ("click/funnel5", "order", 744),
    ("click/funnel5", "tree", 1304),
    ("click/funnel5", "lazy", 656),
    ("traffic/and5", "compile", 953),
    ("traffic/and5", "order", 664),
    ("traffic/and5", "tree", 1224),
    ("traffic/and5", "lazy", 576),
];

fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("iot/seq3", IotConfig::default().pattern()),
        ("click/funnel5", ClickstreamConfig::default().pattern()),
        (
            "traffic/and5",
            Scenario::new(DatasetKind::Traffic).pattern(PatternSetKind::Conjunction, 5),
        ),
    ]
}

fn measure() -> Vec<(&'static str, &'static str, isize)> {
    let mut rows = Vec::new();
    for (name, pattern) in patterns() {
        let branch = pattern.canonical().branches[0].clone();
        let n = branch.n();
        let (ctx, bytes) = live_bytes(|| ExecContext::compile(&branch).unwrap());
        rows.push((name, "compile", bytes));
        let slots: Vec<usize> = (0..n).collect();
        for (what, plan) in [
            ("order", EvalPlan::Order(OrderPlan::identity(n))),
            ("tree", EvalPlan::Tree(TreePlan::left_deep(&slots))),
            ("lazy", EvalPlan::Lazy(LazyPlan::identity(n))),
        ] {
            let (exec, bytes) = live_bytes(|| build_executor(Arc::clone(&ctx), &plan));
            rows.push((name, what, bytes));
            drop(exec);
        }
    }
    rows
}

#[test]
fn per_key_structures_do_not_grow() {
    let rows = measure();
    if std::env::var("ACEP_PRINT_GOLDEN").is_ok() {
        for (name, what, bytes) in &rows {
            println!("    (\"{name}\", \"{what}\", {bytes}),");
        }
        return;
    }
    assert_eq!(rows.len(), PINNED.len(), "row set changed");
    for ((name, what, bytes), (pn, pw, pinned)) in rows.iter().zip(PINNED) {
        assert_eq!((name, what), (pn, pw), "row order changed");
        assert!(
            bytes <= pinned,
            "{name} {what}: {bytes} live heap bytes, pinned at most {pinned}"
        );
    }
}
