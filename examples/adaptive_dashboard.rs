//! Side-by-side comparison of all four adaptation policies on the
//! shifting traffic workload — a miniature of the paper's Figure 6.
//!
//! ```sh
//! cargo run --release -p acep-examples --bin adaptive_dashboard
//! ```

use std::time::Instant;

use acep_core::prelude::*;
use acep_workloads::{DatasetKind, PatternSetKind, Scenario, ScenarioConfig, TrafficConfig};

fn main() {
    // Traffic scenario with an extreme statistics shift every 20 s.
    let scenario = Scenario::with_config(
        DatasetKind::Traffic,
        ScenarioConfig {
            traffic: TrafficConfig {
                segment_ms: 20_000,
                ..TrafficConfig::default()
            },
            ..ScenarioConfig::default()
        },
    );
    let pattern = scenario.pattern(PatternSetKind::Sequence, 6);
    let events = scenario.events(60_000);
    println!(
        "workload: {} events over {:.0}s of stream time, extreme shift every 20s\n",
        events.len(),
        events.last().unwrap().timestamp as f64 / 1000.0
    );

    println!("| policy        | throughput (ev/s) | matches | replacements | overhead % |");
    println!("|---------------|-------------------|---------|--------------|------------|");
    for (name, policy) in [
        ("static", PolicyKind::Static),
        ("unconditional", PolicyKind::Unconditional),
        (
            "threshold",
            PolicyKind::ConstantThreshold {
                t: 0.75,
                mode: DeviationMode::Relative,
            },
        ),
        ("invariant", PolicyKind::invariant_with_distance(0.3)),
    ] {
        let config = AdaptiveConfig {
            policy,
            ..AdaptiveConfig::default()
        };
        let mut engine = AdaptiveCep::new(&pattern, scenario.num_types(), config).unwrap();
        let mut out = Vec::new();
        let start = Instant::now();
        for ev in &events {
            engine.on_event(ev, &mut out);
            if out.len() > 1_024 {
                out.clear();
            }
        }
        engine.finish(&mut out);
        let wall = start.elapsed();
        let m = engine.metrics();
        println!(
            "| {name:<13} | {:>17.0} | {:>7} | {:>12} | {:>10.2} |",
            m.events as f64 / wall.as_secs_f64(),
            m.matches,
            m.plan_replacements,
            100.0 * m.overhead_fraction(wall)
        );
    }
}
