//! The multicore data-plane gate behind `experiments scale-cores`.
//!
//! One workload — the stocks queries over a stream of [`KEYS`]
//! partition keys, delivered in order — runs at every worker count in
//! [`WORKERS`]. Each run collects its full match multiset; the gate
//! fails if the multisets differ across worker counts (parallelism is
//! an operational knob, never a semantic one) or if the W = 4 speedup
//! over W = 1 falls below the caller's floor.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use acep_core::{AdaptiveConfig, PolicyKind};
use acep_engine::MatchKey;
use acep_plan::PlannerKind;
use acep_stream::{
    CollectingSink, LastAttrKeyExtractor, PatternSet, ShardedRuntime, SourceId, StreamConfig,
};
use acep_types::{Event, EventTypeId, Pattern, PatternExpr};
use acep_workloads::{DatasetKind, PatternSetKind, Scenario};

/// Partition keys of the gate's stream — high enough that the key hash
/// spreads work evenly over four shards.
pub const KEYS: u64 = 64;
/// Events per key of the gate's stream.
pub const EVENTS_PER_KEY: usize = 6_000;
/// Measured runs per worker count (the best throughput is reported).
pub const REPEATS: usize = 3;
/// The worker-count sweep. W = 1 is the scaling denominator.
pub const WORKERS: [usize; 3] = [1, 2, 4];

/// One worker-count measurement of the gate.
#[derive(Debug, Clone)]
pub struct ScaleCoresPoint {
    /// Worker shards the run used.
    pub workers: usize,
    /// Best observed throughput, events per wall-clock second.
    pub throughput_eps: f64,
    /// Throughput relative to this report's W = 1 row.
    pub speedup: f64,
    /// Matches detected — must be identical across worker counts.
    pub matches: u64,
    /// Order-insensitive hash of the full `(query, key, match
    /// identity)` multiset. Bit-identical hashes across worker counts
    /// are the gate's semantic check.
    pub match_hash: u64,
}

/// The gate report: the same workload at every worker count with
/// throughput, scaling, and match-multiset identity per worker count.
#[derive(Debug, Clone)]
pub struct ScaleCoresReport {
    /// Events per run.
    pub events: usize,
    pub points: Vec<ScaleCoresPoint>,
}

impl ScaleCoresReport {
    /// True iff every worker count produced the identical match
    /// multiset (count and hash).
    pub fn multisets_agree(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[0].match_hash == w[1].match_hash && w[0].matches == w[1].matches)
    }

    /// The speedup of the highest worker count over W = 1 — the number
    /// the floor applies to.
    pub fn peak_speedup(&self) -> f64 {
        self.points.last().map_or(f64::NAN, |p| p.speedup)
    }
}

/// The stocks queries: an adaptive `SEQ` and a trailing negation whose
/// matches are held until the watermark passes their deadline, so the
/// per-event engine work (not the ring hand-off) dominates each run.
fn pattern_set(scenario: &Scenario) -> PatternSet {
    let adaptive = AdaptiveConfig {
        planner: PlannerKind::Greedy,
        policy: PolicyKind::invariant_with_distance(0.1),
        ..AdaptiveConfig::default()
    };
    let mut set = PatternSet::new(scenario.num_types());
    set.register(
        "stocks/seq3",
        scenario.pattern(PatternSetKind::Sequence, 3),
        adaptive.clone(),
    )
    .expect("stocks pattern is valid");
    set.register(
        "stocks/negt3",
        Pattern::builder("negt3")
            .expr(PatternExpr::seq([
                PatternExpr::prim(EventTypeId(0)),
                PatternExpr::prim(EventTypeId(1)),
                PatternExpr::neg(PatternExpr::prim(EventTypeId(2))),
            ]))
            .window(1_000)
            .build()
            .expect("stocks negation pattern is valid"),
        adaptive,
    )
    .expect("stocks negation pattern is valid");
    set
}

/// Runs the gate's workload at `keys × events_per_key` events for every
/// worker count in [`WORKERS`]. Throughput takes the best of `repeats`
/// runs; the multiset must be bit-identical across repeats (panics
/// otherwise — that is a determinism bug, not noise). The caller
/// decides whether the speedup clears its floor.
pub fn run_scale_cores(keys: u64, events_per_key: usize, repeats: usize) -> ScaleCoresReport {
    let scenario = Scenario::new(DatasetKind::Stocks);
    let set = pattern_set(&scenario);
    let delivered: Vec<(SourceId, Arc<Event>)> = scenario
        .keyed_events(keys, events_per_key)
        .into_iter()
        .map(|ev| (SourceId::MERGED, ev))
        .collect();
    let mut points: Vec<ScaleCoresPoint> = Vec::new();
    let mut base_eps = f64::NAN;
    for workers in WORKERS {
        let mut best_eps = 0.0f64;
        let mut matches = 0u64;
        let mut match_hash: Option<u64> = None;
        for _ in 0..repeats.max(1) {
            let sink = Arc::new(CollectingSink::new());
            let mut runtime = ShardedRuntime::new(
                &set,
                Arc::new(LastAttrKeyExtractor),
                Arc::clone(&sink) as _,
                StreamConfig {
                    shards: workers,
                    ..StreamConfig::default()
                },
            )
            .expect("scale-cores runtime configuration is valid");
            let start = Instant::now();
            for chunk in delivered.chunks(4_096) {
                runtime.push_tagged(chunk);
            }
            let stats = runtime.finish();
            let wall = start.elapsed().as_secs_f64().max(1e-9);

            let mut lines: Vec<(u32, u64, MatchKey)> = sink
                .drain()
                .into_iter()
                .map(|m| (m.query.0, m.key, m.matched.key()))
                .collect();
            lines.sort();
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            lines.hash(&mut hasher);
            let hash = hasher.finish();
            assert_eq!(
                *match_hash.get_or_insert(hash),
                hash,
                "W={workers}: the match multiset must be identical across repeats"
            );
            matches = lines.len() as u64;
            assert_eq!(matches, stats.total_matches(), "sink and stats disagree");
            best_eps = best_eps.max(delivered.len() as f64 / wall);
        }
        if workers == WORKERS[0] {
            base_eps = best_eps;
        }
        points.push(ScaleCoresPoint {
            workers,
            throughput_eps: best_eps,
            speedup: best_eps / base_eps,
            matches,
            match_hash: match_hash.expect("at least one repeat"),
        });
    }
    ScaleCoresReport {
        events: delivered.len(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_cores_gate_reports_speedup_and_multiset_identity() {
        // Tiny instance: shape and invariants, not scaling — a dev box
        // may be single-core, so only CI's runner asserts a speedup
        // floor (see `experiments scale-cores`).
        let report = run_scale_cores(8, 250, 2);
        assert_eq!(report.events, 2_000);
        assert_eq!(report.points.len(), WORKERS.len());
        for (p, want) in report.points.iter().zip(WORKERS) {
            assert_eq!(p.workers, want);
            assert!(p.throughput_eps > 0.0);
            assert!(p.speedup.is_finite() && p.speedup > 0.0);
            assert!(p.matches > 0, "the workload must produce matches");
        }
        assert!(
            (report.points[0].speedup - 1.0).abs() < 1e-9,
            "W=1 is the denominator"
        );
        assert!(
            report.multisets_agree(),
            "worker counts must agree on the match multiset: {report:?}"
        );
        assert!(report.peak_speedup().is_finite());
    }
}
