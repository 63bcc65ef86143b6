//! Regeneration of every table and figure of the paper's evaluation
//! (§5 and Appendix A). The `experiments` binary's usage text
//! (`src/bin/experiments.rs`) is the experiment index.

use std::sync::Arc;

use acep_core::PolicyKind;
use acep_plan::PlannerKind;
use acep_types::Event;
use acep_workloads::{DatasetKind, PatternSetKind, Scenario};

use crate::harness::{
    best_of, estimate_d_avg, md_row, run_one, scan_distance, scan_threshold, HarnessConfig,
    RunResult,
};

/// A dataset × planner combination (the paper's four scenario columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combo {
    /// Dataset profile.
    pub dataset: DatasetKind,
    /// Plan-generation algorithm.
    pub planner: PlannerKind,
}

impl Combo {
    /// Label like `traffic/greedy`.
    pub fn label(&self) -> String {
        let p = match self.planner {
            PlannerKind::Greedy => "greedy",
            PlannerKind::ZStream => "zstream",
            PlannerKind::LazyChain => "lazy",
        };
        format!("{}/{}", self.dataset.label(), p)
    }
}

/// The four combinations evaluated throughout the paper.
pub const COMBOS: [Combo; 4] = [
    Combo {
        dataset: DatasetKind::Traffic,
        planner: PlannerKind::Greedy,
    },
    Combo {
        dataset: DatasetKind::Traffic,
        planner: PlannerKind::ZStream,
    },
    Combo {
        dataset: DatasetKind::Stocks,
        planner: PlannerKind::Greedy,
    },
    Combo {
        dataset: DatasetKind::Stocks,
        planner: PlannerKind::ZStream,
    },
];

/// Experiment scale: full-fidelity for `experiments`, reduced for
/// `cargo bench`.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Stream length per run.
    pub events: usize,
    /// Pattern sizes evaluated.
    pub sizes: Vec<usize>,
    /// Invariant-distance grid (Fig. 5 / §3.4 parameter scan).
    pub d_grid: Vec<f64>,
    /// Threshold grid for `t_opt` scanning.
    pub t_grid: Vec<f64>,
}

impl Scale {
    /// Full-fidelity scale.
    pub fn full() -> Self {
        Self {
            events: 100_000,
            sizes: vec![3, 4, 5, 6, 7, 8],
            d_grid: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75],
            t_grid: vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
        }
    }

    /// Reduced scale for benches and smoke tests.
    pub fn quick() -> Self {
        Self {
            events: 15_000,
            sizes: vec![4, 6, 8],
            d_grid: vec![0.0, 0.1, 0.3, 0.5],
            t_grid: vec![0.25, 0.75, 2.0],
        }
    }

    /// Overrides the stream length.
    pub fn with_events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }
}

/// Pre-generated inputs for one combo.
pub struct ComboInputs {
    /// The scenario (registry + pattern factory).
    pub scenario: Scenario,
    /// The shared event stream.
    pub events: Vec<Arc<Event>>,
}

impl ComboInputs {
    /// Generates the inputs for a combo at the given scale.
    pub fn new(combo: Combo, scale: &Scale) -> Self {
        let scenario = Scenario::new(combo.dataset);
        let events = scenario.events(scale.events);
        Self { scenario, events }
    }
}

/// One row of a method-comparison figure (Figs. 6–9 and 10–29).
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method name.
    pub method: &'static str,
    /// Pattern size.
    pub size: usize,
    /// Run result aggregated over the pattern sets: summed counts,
    /// throughput and overhead by total time.
    pub result: RunResult,
    /// Throughput gain over the static baseline at the same size.
    pub gain_over_static: f64,
}

/// Tunes `t_opt` and `d_opt` for a combo by scanning on the size-7
/// sequence pattern (the paper obtains both "via parameter scanning" on
/// the sequence experiment; scanning at a larger size is robust because
/// deeper selectivity products have noisier margins, so the d that
/// works at n = 7 also damps thrash at every smaller size).
pub fn tune(
    combo: Combo,
    inputs: &ComboInputs,
    scale: &Scale,
    harness: &HarnessConfig,
) -> (f64, f64) {
    let pattern = inputs.scenario.pattern(PatternSetKind::Sequence, 7);
    let (t_opt, _) = scan_threshold(
        &inputs.scenario,
        &pattern,
        combo.planner,
        &inputs.events,
        harness,
        &scale.t_grid,
    );
    let d_results = scan_distance(
        &inputs.scenario,
        &pattern,
        combo.planner,
        &inputs.events,
        harness,
        &scale.d_grid,
    );
    let (d_opt, _) = best_of(&d_results);
    (t_opt, d_opt)
}

/// Fig. 5: throughput of the invariant method vs pattern size and
/// distance `d`, per combo. Returns `(combo, size, d, throughput)` rows
/// and prints a markdown table.
pub fn fig5(scale: &Scale, harness: &HarnessConfig) -> Vec<(String, usize, f64, f64)> {
    let mut rows = Vec::new();
    println!("\n## Figure 5: invariant-method throughput vs pattern size and distance d\n");
    for combo in COMBOS {
        let inputs = ComboInputs::new(combo, scale);
        let mut header = vec!["size".to_string()];
        header.extend(scale.d_grid.iter().map(|d| format!("d={d}")));
        println!("### {}\n", combo.label());
        println!("{}", md_row(&header));
        println!("{}", md_row(&vec!["---".to_string(); header.len()]));
        for &size in &scale.sizes {
            let pattern = inputs.scenario.pattern(PatternSetKind::Sequence, size);
            let results = scan_distance(
                &inputs.scenario,
                &pattern,
                combo.planner,
                &inputs.events,
                harness,
                &scale.d_grid,
            );
            let mut cells = vec![size.to_string()];
            for (d, r) in &results {
                cells.push(format!("{:.0}", r.throughput));
                rows.push((combo.label(), size, *d, r.throughput));
            }
            println!("{}", md_row(&cells));
        }
        println!();
    }
    rows
}

/// Table 1: quality of the `d_avg` estimate vs the scanned `d_opt`.
/// Returns `(combo, size, d_avg, d_opt, quality)` rows.
pub fn table1(scale: &Scale, harness: &HarnessConfig) -> Vec<(String, usize, f64, f64, f64)> {
    let mut rows = Vec::new();
    println!("\n## Table 1: average-relative-difference distance estimates\n");
    println!("| dataset | algorithm | size | d_avg | d_opt | min(ratio) |");
    println!("|---|---|---|---|---|---|");
    for combo in COMBOS {
        let inputs = ComboInputs::new(combo, scale);
        // d_avg is estimated from the warm-up prefix of the stream.
        let prefix = &inputs.events[..inputs.events.len().min(20_000)];
        for &size in &scale.sizes {
            if size < 4 {
                continue; // the paper reports sizes 4–8
            }
            let pattern = inputs.scenario.pattern(PatternSetKind::Sequence, size);
            let d_avg = estimate_d_avg(&inputs.scenario, &pattern, combo.planner, prefix, harness);
            let results = scan_distance(
                &inputs.scenario,
                &pattern,
                combo.planner,
                &inputs.events,
                harness,
                &scale.d_grid,
            );
            let (d_opt, _) = best_of(&results);
            let quality = if d_avg <= 0.0 || d_opt <= 0.0 {
                0.0
            } else {
                (d_avg / d_opt).min(d_opt / d_avg)
            };
            let (ds, alg) = {
                let mut parts = combo.label();
                let idx = parts.find('/').unwrap();
                let alg = parts.split_off(idx + 1);
                parts.pop();
                (parts, alg)
            };
            println!("| {ds} | {alg} | {size} | {d_avg:.4} | {d_opt:.2} | {quality:.3} |");
            rows.push((combo.label(), size, d_avg, d_opt, quality));
        }
    }
    rows
}

/// The four adaptation methods compared in Figs. 6–9 / 10–29.
///
/// The invariant method runs with K = 2 (the paper's K-invariant
/// method, §3.3): with K = 1, a single missed condition can leave the
/// engine stuck on a plan deployed from a mid-shift statistics snapshot
/// — precisely the false-negative mode §3.3 warns about.
pub fn methods(t_opt: f64, d_opt: f64) -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("static", PolicyKind::Static),
        ("unconditional", PolicyKind::Unconditional),
        (
            "threshold",
            PolicyKind::ConstantThreshold {
                t: t_opt,
                mode: acep_core::DeviationMode::Relative,
            },
        ),
        (
            "invariant",
            PolicyKind::Invariant(acep_core::InvariantPolicyConfig {
                k: 2,
                distance: d_opt,
                strategy: acep_core::SelectionStrategy::Tightest,
            }),
        ),
    ]
}

/// Method comparison for one combo over the given pattern sets: Figs.
/// 6–9 use all five sets; the appendix figures pass a single set. Each
/// row aggregates its sets by total time — throughput is total events
/// over total wall time and overhead is total decision time over total
/// wall time — so a slow set weighs by the time it takes, not as one
/// set among five.
pub fn method_comparison(
    combo: Combo,
    sets: &[PatternSetKind],
    scale: &Scale,
    harness: &HarnessConfig,
) -> Vec<MethodRow> {
    method_runs(combo, sets, scale, harness).0
}

/// One method's run on one pattern set at one size.
struct SetRun {
    method: &'static str,
    size: usize,
    set: PatternSetKind,
    result: RunResult,
}

/// [`method_comparison`]'s rows, with the per-set runs they aggregate.
fn method_runs(
    combo: Combo,
    sets: &[PatternSetKind],
    scale: &Scale,
    harness: &HarnessConfig,
) -> (Vec<MethodRow>, Vec<SetRun>) {
    let inputs = ComboInputs::new(combo, scale);
    let (t_opt, d_opt) = tune(combo, &inputs, scale, harness);
    let method_list = methods(t_opt, d_opt);

    let mut rows: Vec<MethodRow> = Vec::new();
    let mut runs = Vec::new();
    for &size in &scale.sizes {
        let mut static_throughput = 0.0;
        for (name, policy) in &method_list {
            let mut agg = RunResult {
                throughput: 0.0,
                matches: 0,
                reoptimizations: 0,
                planner_invocations: 0,
                overhead_pct: 0.0,
                events: 0,
            };
            // Total wall and decision seconds over the sets.
            let (mut wall, mut overhead) = (0.0, 0.0);
            for &set in sets {
                let pattern = inputs.scenario.pattern(set, size);
                let r = run_one(
                    &inputs.scenario,
                    &pattern,
                    combo.planner,
                    *policy,
                    &inputs.events,
                    harness,
                );
                let secs = if r.throughput > 0.0 {
                    r.events as f64 / r.throughput
                } else {
                    0.0
                };
                wall += secs;
                overhead += secs * r.overhead_pct / 100.0;
                agg.matches += r.matches;
                agg.reoptimizations += r.reoptimizations;
                agg.planner_invocations += r.planner_invocations;
                agg.events += r.events;
                runs.push(SetRun {
                    method: name,
                    size,
                    set,
                    result: r,
                });
            }
            if wall > 0.0 {
                agg.throughput = agg.events as f64 / wall;
                agg.overhead_pct = 100.0 * overhead / wall;
            }
            if *name == "static" {
                static_throughput = agg.throughput;
            }
            let gain = if static_throughput > 0.0 {
                agg.throughput / static_throughput
            } else {
                1.0
            };
            rows.push(MethodRow {
                method: name,
                size,
                result: agg,
                gain_over_static: gain,
            });
        }
    }
    (rows, runs)
}

/// Prints a method-comparison table (one of Figs. 6–9 / 10–29).
pub fn print_method_comparison(title: &str, rows: &[MethodRow]) {
    println!("\n## {title}\n");
    println!(
        "| size | method | throughput (ev/s) | gain vs static | reoptimizations | overhead % |"
    );
    println!("|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {:.0} | {:.2}x | {} | {:.2} |",
            r.size,
            r.method,
            r.result.throughput,
            r.gain_over_static,
            r.result.reoptimizations,
            r.result.overhead_pct
        );
    }
}

/// Prints the per-set runs behind a method-comparison table.
fn print_set_runs(title: &str, runs: &[SetRun]) {
    println!("\n## {title}\n");
    println!("| size | method | pattern set | throughput (ev/s) | reoptimizations | overhead % |");
    println!("|---|---|---|---|---|---|");
    for r in runs {
        println!(
            "| {} | {} | {} | {:.0} | {} | {:.2} |",
            r.size,
            r.method,
            r.set.label(),
            r.result.throughput,
            r.result.reoptimizations,
            r.result.overhead_pct
        );
    }
}

/// Runs one of Figs. 6–9 (all five pattern sets, aggregated by total
/// time, then the per-set runs).
pub fn fig6to9(combo: Combo, scale: &Scale, harness: &HarnessConfig) -> Vec<MethodRow> {
    let (rows, runs) = method_runs(combo, &PatternSetKind::ALL, scale, harness);
    let fig = match (combo.dataset, combo.planner) {
        (DatasetKind::Traffic, PlannerKind::Greedy) => "Figure 6",
        (DatasetKind::Traffic, PlannerKind::ZStream) => "Figure 7",
        (DatasetKind::Stocks, PlannerKind::Greedy) => "Figure 8",
        (DatasetKind::Stocks, PlannerKind::ZStream) => "Figure 9",
        // Not a paper figure: the lazy-chain planner postdates the
        // paper's evaluated combos.
        (_, PlannerKind::LazyChain) => "Lazy-chain supplement",
    };
    print_method_comparison(
        &format!(
            "{fig}: adaptation methods on {} (all pattern sets, by total time)",
            combo.label()
        ),
        &rows,
    );
    print_set_runs(&format!("{fig}: per pattern set"), &runs);
    rows
}

/// Runs the appendix figures (10–29) for one pattern set: four combos.
pub fn appendix(set: PatternSetKind, scale: &Scale, harness: &HarnessConfig) {
    let figure_base = match set {
        PatternSetKind::Sequence => 10,
        PatternSetKind::Conjunction => 14,
        PatternSetKind::Negation => 18,
        PatternSetKind::Kleene => 22,
        PatternSetKind::Composite => 26,
    };
    for (i, combo) in COMBOS.into_iter().enumerate() {
        let rows = method_comparison(combo, &[set], scale, harness);
        print_method_comparison(
            &format!(
                "Figure {}: adaptation methods on {} ({} patterns)",
                figure_base + i,
                combo.label(),
                set.label()
            ),
            &rows,
        );
    }
}
