//! `compare A.json B.json` — the regression rule applied to two suite
//! summaries — and `check BENCHMARK.json SUMMARY.json`, the benchmark's
//! own smoke test.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::sys;
use crate::workloads::WORKLOADS;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The two JSON files a subcommand takes, or the exit code of a usage
/// or read error (already reported).
fn load_pair<'a>(args: &'a [String], usage: &str) -> Result<(&'a str, Json, Json), ExitCode> {
    let [first, second] = args else {
        eprintln!("usage: acep-benchmark {usage}");
        return Err(ExitCode::from(2));
    };
    match (load(first), load(second)) {
        (Ok(a), Ok(b)) => Ok((first, a, b)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Values of `metric` over the untraced runs of `workload` in a suite
/// summary.
fn samples(summary: &Json, workload: &str, metric: &str) -> Vec<f64> {
    summary
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Quartile distance as a share of the median; `None` below four runs,
/// where quartiles say nothing.
fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 4).then(|| {
        let (q1, q3) = sys::quartiles(values);
        (q3 - q1) / sys::median(values)
    })
}

pub fn main(args: &[String]) -> ExitCode {
    let (_, a, b) = match load_pair(args, "compare A.json B.json") {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7} {:>8}  status",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "spread%"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (samples(&a, w.name, m.name), samples(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (sys::median(&va), sys::median(&vb));
            // How much worse B is than A, as a share of A's median.
            let worse = if m.higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let widest = spread(&va).into_iter().chain(spread(&vb)).reduce(f64::max);
            let status = if widest.is_some_and(|s| s > m.bound) {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.2} {:>7.1} {:>8}  {status}",
                w.name,
                m.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * m.bound,
                widest.map_or("n/a".to_string(), |s| format!("{:.2}", 100.0 * s)),
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn metric_names(run: &Json) -> Vec<&str> {
    run.get("metrics")
        .map_or(&[][..], Json::as_obj)
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The smoke test behind `check.sh`: the committed `BENCHMARK.json`
/// equals the tables compiled into this binary, and a (quick, traced)
/// suite summary carries exactly those workload and metric names with
/// nothing failed.
pub fn check(args: &[String]) -> ExitCode {
    let (spec_path, committed, summary) = match load_pair(args, "check BENCHMARK.json SUMMARY.json")
    {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };
    let mut problems = Vec::new();
    if committed != spec::benchmark_json() {
        problems.push(format!(
            "{spec_path} differs from the tables in benchmark/src/spec.rs (regenerate with `acep-benchmark spec`)"
        ));
    }
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let runs = summary.get("runs").map_or(&[][..], Json::as_arr);
    for w in &WORKLOADS {
        for (trace, expected) in [(0.0, &e2e), (1.0, &layers)] {
            let run = runs.iter().find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(w.name)
                    && r.get("trace").and_then(Json::as_f64) == Some(trace)
            });
            let Some(run) = run else {
                problems.push(format!("{}: no trace-{trace} run in the summary", w.name));
                continue;
            };
            if metric_names(run) != **expected {
                problems.push(format!(
                    "{} trace {trace}: metric names differ from the tables",
                    w.name
                ));
            }
            if run.get("correct").and_then(Json::as_bool) != Some(true)
                || run.get("failed").and_then(Json::as_f64) != Some(0.0)
            {
                problems.push(format!("{} trace {trace}: output check failed", w.name));
            }
        }
    }
    if summary.get("claim") != Some(&Json::Null) {
        problems.push("the summary must end with \"claim\": null".to_string());
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    if problems.is_empty() {
        println!(
            "check: ok ({} workloads, {} + {} metrics)",
            WORKLOADS.len(),
            e2e.len(),
            layers.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
