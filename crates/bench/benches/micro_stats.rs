//! Microbenchmarks of the statistics substrate: DGIM vs exact counting
//! (the paper's \[27\] estimator) and selectivity sampling.
//! `snapshot/traffic_and5` is the benchmark's `stats.snapshot.us` layer
//! in isolation: one snapshot of the `adapt_order` pattern under the
//! default `StatsConfig`.

#[path = "common.rs"]
mod common;

use acep_stats::{DgimRateEstimator, ExactRateEstimator, RateEstimator, SelectivityEstimator};
use acep_types::{attr, EventTypeId, Programs, VarId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    c.bench_function("micro/stats/dgim_observe_10k", |b| {
        b.iter(|| {
            let mut est = DgimRateEstimator::new(10_000, 16);
            for ts in 0..10_000u64 {
                est.observe(ts);
            }
            black_box(est.rate_per_sec(10_000))
        })
    });
    c.bench_function("micro/stats/exact_observe_10k", |b| {
        b.iter(|| {
            let mut est = ExactRateEstimator::new(10_000);
            for ts in 0..10_000u64 {
                est.observe(ts);
            }
            black_box(est.rate_per_sec(10_000))
        })
    });
    c.bench_function("micro/stats/selectivity_48x48", |b| {
        let mut a = acep_stats::EventSample::new(48);
        let mut s2 = acep_stats::EventSample::new(48);
        for i in 0..48u64 {
            a.push(acep_types::Event::new(
                EventTypeId(0),
                i,
                i,
                vec![acep_types::Value::Int(i as i64)],
            ));
            s2.push(acep_types::Event::new(
                EventTypeId(1),
                i,
                100 + i,
                vec![acep_types::Value::Int((i * 7 % 48) as i64)],
            ));
        }
        let mut conds = Programs::default();
        conds.push_group(&[attr(0, 0).lt(attr(1, 0))], &[VarId(0), VarId(1)]);
        let est = SelectivityEstimator::new(300);
        b.iter(|| black_box(est.pair(&conds, 0, &a, &s2)))
    });
    c.bench_function("micro/stats/collector_snapshot", |b| {
        let (scenario, events) = common::inputs(acep_workloads::DatasetKind::Traffic);
        let pattern = scenario.pattern(acep_workloads::PatternSetKind::Sequence, 8);
        let mut collector = acep_stats::StatisticsCollector::new(
            scenario.num_types(),
            pattern.canonical(),
            &common::harness().stats_config(),
        );
        for ev in &events {
            collector.observe(ev);
        }
        let now = events.last().unwrap().timestamp;
        b.iter(|| black_box(collector.snapshot_branch(0, now)))
    });
    c.bench_function("micro/stats/snapshot/traffic_and5", |b| {
        let (scenario, events) = common::inputs(acep_workloads::DatasetKind::Traffic);
        let pattern = scenario.pattern(acep_workloads::PatternSetKind::Conjunction, 5);
        let mut collector = acep_stats::StatisticsCollector::new(
            scenario.num_types(),
            pattern.canonical(),
            &acep_stats::StatsConfig::default(),
        );
        for ev in &events {
            collector.observe(ev);
        }
        let now = events.last().unwrap().timestamp;
        b.iter(|| black_box(collector.snapshot_branch(0, now)))
    });
}

criterion_group! { name = benches; config = common::cfg(); targets = bench }
criterion_main!(benches);
