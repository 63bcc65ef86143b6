#![allow(dead_code)]

//! Shared setup for the criterion benches (compiled into each bench via
//! `#[path = "common.rs"] mod common;`).

use std::sync::Arc;
use std::time::Duration;

use acep_bench::HarnessConfig;
use acep_types::Event;
use acep_workloads::{DatasetKind, Scenario};
use criterion::Criterion;

/// Short, uniform criterion settings so the full suite stays fast.
pub fn cfg() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
}

/// Events per benched run (small: criterion repeats runs many times).
pub const BENCH_EVENTS: usize = 4_000;

/// Harness config shared by the ablation benches.
pub fn harness() -> HarnessConfig {
    HarnessConfig::default()
}

/// Pre-generates a scenario + stream pair.
pub fn inputs(dataset: DatasetKind) -> (Scenario, Vec<Arc<Event>>) {
    let scenario = Scenario::new(dataset);
    let events = scenario.events(BENCH_EVENTS);
    (scenario, events)
}
