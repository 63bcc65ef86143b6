//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <command> [--quick] [--events N]
//!
//! commands:
//!   fig5       throughput vs pattern size × invariant distance d
//!   table1     d_avg estimator quality vs scanned d_opt
//!   fig6       methods on traffic/greedy   (all pattern sets)
//!   fig7       methods on traffic/zstream  (all pattern sets)
//!   fig8       methods on stocks/greedy    (all pattern sets)
//!   fig9       methods on stocks/zstream   (all pattern sets)
//!   appendix <seq|and|neg|kleene|or>   figures 10–29 for one set
//!   scale-cores [--min-speedup X]
//!              the multicore data-plane gate: runs the stocks queries
//!              over 64 keys × 6 000 events/key at W=1/2/4, prints the
//!              per-W table, and exits 1 if the match multisets differ
//!              across worker counts or the W=4 speedup over W=1 falls
//!              below X (no floor by default — local dev boxes may be
//!              single-core; CI passes its runner's documented floor)
//!   all        fig5, table1, fig6–fig9 and every appendix set
//! ```

use acep_bench::{appendix, fig5, fig6to9, scale_cores, table1, HarnessConfig, Scale, COMBOS};
use acep_workloads::PatternSetKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <fig5|table1|fig6|fig7|fig8|fig9|appendix <set>|scale-cores [--min-speedup X]|all> [--quick] [--events N]");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut scale = if quick { Scale::quick() } else { Scale::full() };
    if let Some(pos) = args.iter().position(|a| a == "--events") {
        let n: usize = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--events takes a number");
        scale = scale.with_events(n);
    }
    let harness = HarnessConfig::default();

    let set_from = |name: &str| match name {
        "seq" => PatternSetKind::Sequence,
        "and" => PatternSetKind::Conjunction,
        "neg" => PatternSetKind::Negation,
        "kleene" => PatternSetKind::Kleene,
        "or" => PatternSetKind::Composite,
        other => {
            eprintln!("unknown pattern set: {other}");
            std::process::exit(2);
        }
    };

    match args[0].as_str() {
        "fig5" => {
            fig5(&scale, &harness);
        }
        "table1" => {
            table1(&scale, &harness);
        }
        "fig6" => {
            fig6to9(COMBOS[0], &scale, &harness);
        }
        "fig7" => {
            fig6to9(COMBOS[1], &scale, &harness);
        }
        "fig8" => {
            fig6to9(COMBOS[2], &scale, &harness);
        }
        "fig9" => {
            fig6to9(COMBOS[3], &scale, &harness);
        }
        "appendix" => {
            let set = set_from(args.get(1).map(String::as_str).unwrap_or("seq"));
            appendix(set, &scale, &harness);
        }
        "scale-cores" => {
            let min_speedup: Option<f64> = args
                .iter()
                .position(|a| a == "--min-speedup")
                .and_then(|pos| args.get(pos + 1))
                .map(|s| s.parse().expect("--min-speedup takes a number"));
            let report = scale_cores::run_scale_cores(
                scale_cores::KEYS,
                scale_cores::EVENTS_PER_KEY,
                scale_cores::REPEATS,
            );
            println!(
                "scale-cores: {} events (best of {} runs per worker count)",
                report.events,
                scale_cores::REPEATS
            );
            for p in &report.points {
                println!(
                    "  W={}: {:>9.0} events/s  ({:.2}x vs W=1), {} matches, multiset {:#018x}",
                    p.workers, p.throughput_eps, p.speedup, p.matches, p.match_hash
                );
            }
            let mut failed = false;
            if !report.multisets_agree() {
                println!(
                    "::error::scale-cores: match multisets differ across worker counts — \
                     parallelism changed what was detected"
                );
                failed = true;
            }
            if let Some(floor) = min_speedup {
                let peak = report.peak_speedup();
                if peak.is_nan() || peak < floor {
                    println!(
                        "::error::scale-cores: W=4 speedup {peak:.2}x is below the floor \
                         {floor:.2}x — the data plane stopped scaling"
                    );
                    failed = true;
                } else {
                    println!("scale-cores: W=4 speedup {peak:.2}x clears the {floor:.2}x floor");
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        "all" => {
            fig5(&scale, &harness);
            table1(&scale, &harness);
            for combo in COMBOS {
                fig6to9(combo, &scale, &harness);
            }
            for set in PatternSetKind::ALL {
                appendix(set, &scale, &harness);
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            std::process::exit(2);
        }
    }
}
