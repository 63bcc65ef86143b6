//! Microbenchmarks of the statistics substrate: DGIM vs exact counting
//! (the paper's \[27\] estimator) and selectivity sampling.
//! `snapshot/traffic_and5` is the benchmark's `stats.snapshot.us` layer
//! in isolation: one snapshot of the `adapt_order` pattern under the
//! default `StatsConfig`. The `*/iot_seq3` rows do the same for the
//! `iot_lazy` query, whose `T1.reading > 0` is a counted unary
//! selectivity: `observe/iot_seq3` feeds 1000 fleet events per sample
//! (printed µs read as ns per event, beside `stats.observe.ns_per_event`)
//! and `snapshot/iot_seq3` takes one snapshot (beside
//! `stats.snapshot.us`).

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
    let iot = acep_workloads::IotConfig {
        devices: 2_000,
        events: 64_000,
        ..acep_workloads::IotConfig::default()
    };
    let iot_events = acep_workloads::iot_fleet(&iot);
    let iot_pattern = iot.pattern();
    let iot_collector = || {
        acep_stats::StatisticsCollector::new(
            acep_workloads::IotConfig::NUM_TYPES,
            iot_pattern.canonical(),
            &acep_stats::StatsConfig::default(),
        )
    };
    c.bench_function("micro/stats/observe/iot_seq3", |b| {
        // Walks the stream in 1000-event samples; timestamps must not
        // run backwards, so the collector restarts with the stream.
        let mut chunks = iot_events.chunks(1_000).enumerate().cycle();
        let mut collector = iot_collector();
        b.iter(|| {
            let (i, chunk) = chunks.next().unwrap();
            if i == 0 {
                collector = iot_collector();
            }
            for ev in chunk {
                collector.observe(ev);
            }
        })
    });
    c.bench_function("micro/stats/snapshot/iot_seq3", |b| {
        let mut collector = iot_collector();
        for ev in &iot_events {
            collector.observe(ev);
        }
        let now = iot_events.last().unwrap().timestamp;
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
