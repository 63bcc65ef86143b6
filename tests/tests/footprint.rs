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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use acep_engine::{build_executor, ExecContext};
use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreePlan};
use acep_types::Pattern;
use acep_workloads::{ClickstreamConfig, DatasetKind, IotConfig, PatternSetKind, Scenario};

/// Counts the bytes allocated minus the bytes freed, per thread (so the
/// harness's own threads do not disturb a measurement).
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the heap bytes it left live.
fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let value = f();
    (value, LIVE.with(Cell::get) - before)
}

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
