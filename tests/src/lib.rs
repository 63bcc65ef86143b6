//! Shared helpers for the cross-crate integration tests.

use std::sync::Arc;

use acep_core::{AdaptiveCep, AdaptiveConfig, PolicyKind};
use acep_engine::{Match, MatchKey};
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_types::{Event, Pattern};

pub mod heap;

/// Runs a full adaptive engine over a stream and returns the sorted
/// match keys (the canonical detection set).
pub fn run_adaptive(
    pattern: &Pattern,
    num_types: usize,
    planner: PlannerKind,
    policy: PolicyKind,
    control_interval: u64,
    events: &[Arc<Event>],
) -> (Vec<MatchKey>, acep_core::AdaptiveMetrics) {
    let cfg = AdaptiveConfig {
        planner,
        policy,
        control_interval,
        control_interval_ms: None,
        warmup_events: 256,
        min_improvement: 0.0,
        migration_stagger: 0,
        stats: StatsConfig {
            window_ms: 2_000,
            exact_rates: true,
            sample_capacity: 32,
            max_pairs: 200,
            ..StatsConfig::default()
        },
    };
    let mut engine = AdaptiveCep::new(pattern, num_types, cfg).expect("valid pattern");
    let mut out = Vec::new();
    for ev in events {
        engine.on_event(ev, &mut out);
    }
    engine.finish(&mut out);
    let mut keys: Vec<MatchKey> = out.iter().map(Match::key).collect();
    keys.sort();
    (keys, engine.metrics().clone())
}

/// Runs the non-adaptive reference engine (identity plans) and returns
/// sorted match keys.
pub fn run_static_reference(pattern: &Pattern, events: &[Arc<Event>]) -> Vec<MatchKey> {
    let mut engine =
        acep_engine::StaticEngine::with_identity_plans(pattern.canonical()).expect("valid pattern");
    let mut out = Vec::new();
    for ev in events {
        engine.on_event(ev, &mut out);
    }
    engine.finish(&mut out);
    let mut keys: Vec<MatchKey> = out.iter().map(Match::key).collect();
    keys.sort();
    keys
}
