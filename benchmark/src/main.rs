//! `acep-benchmark` — the benchmark every later performance claim is
//! measured with. See `benchmark/README.md`.
//!
//! ```text
//! acep-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! acep-benchmark [--seed N] [--traced] [--quick] [--repeat K] [--out FILE] [W…]   the suite
//! acep-benchmark compare A.json B.json
//! acep-benchmark check BENCHMARK.json
//! acep-benchmark spec            prints BENCHMARK.json
//! acep-benchmark layers          prints the per-layer interaction table (markdown)
//! ```

mod compare;
mod drive;
mod json;
mod reference;
mod run;
mod spec;
mod staged;
mod sys;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;
use run::{Outcome, RunArgs};

const QUICK_SCALE: f64 = 0.02;
const QUICK_SECONDS: f64 = 0.5;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<String>,
    out_dir: String,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        out_dir: "benchmark/out".into(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => cli.trace = value("--trace")? == "1",
            "--traced" => cli.trace = true,
            "--quick" => cli.quick = true,
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => cli.out = Some(value("--out")?),
            "--out-dir" => cli.out_dir = value("--out-dir")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn run_args(cli: &Cli, workload: &str) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            spec::RUN_SECONDS as f64
        }),
        traced: cli.trace,
        scale: if cli.quick { QUICK_SCALE } else { 1.0 },
        out_dir: cli.out_dir.clone(),
    }
}

/// One run in this process. Prints a `{"detail": …}` line, then the
/// contract's result object as the last line of stdout.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    if workloads::spec(workload).is_none() {
        eprintln!("unknown workload {workload}");
        return ExitCode::from(2);
    }
    let args = run_args(cli, workload);
    let outcome: Outcome = if args.traced {
        run::run_traced(&args)
    } else {
        run::run_untraced(&args)
    };
    println!(
        "{}",
        Json::obj([("detail", outcome.detail.clone())]).render()
    );
    println!("{}", outcome.result_json().render());
    ExitCode::SUCCESS
}

/// Runs one workload in a fresh child process and returns its record.
fn run_child(cli: &Cli, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--out-dir", &cli.out_dir]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or("")).map_err(|e| format!("{workload}: {e}"))?;
    let detail = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    let mut record = vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::Num(cli.seed as f64)),
        ("trace".to_string(), Json::Num(f64::from(u8::from(traced)))),
        (
            "noisy".to_string(),
            detail.get("noisy").cloned().unwrap_or(Json::Bool(false)),
        ),
    ];
    record.extend(result.as_obj().iter().cloned());
    record.push(("detail".to_string(), detail));
    Ok(Json::Obj(record))
}

fn is_noisy(record: &Json) -> bool {
    record.get("noisy").and_then(Json::as_bool) == Some(true)
}

/// The suite: every requested workload in a fresh child process, a
/// noisy run re-run once, every metric printed by name with its unit.
/// `Ok(true)` when every run's output check passed.
fn suite(cli: &Cli) -> Result<bool, String> {
    let names: Vec<String> = if cli.positional.is_empty() {
        workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect()
    } else {
        cli.positional.clone()
    };
    if let Some(unknown) = names.iter().find(|n| workloads::spec(n).is_none()) {
        return Err(format!("unknown workload {unknown}"));
    }
    let traces: &[bool] = if cli.trace { &[false, true] } else { &[false] };
    let mut runs = Vec::new();
    for _ in 0..cli.repeat.max(1) {
        for name in &names {
            for &traced in traces {
                eprintln!("running {name} (trace {})", u8::from(traced));
                let mut record = run_child(cli, name, traced)?;
                if is_noisy(&record) {
                    eprintln!("{name}: noisy run, re-running once");
                    record = run_child(cli, name, traced)?;
                }
                runs.push(record);
            }
        }
    }
    let all_correct = runs
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let summary = Json::obj([
        ("schema", Json::str("acep-benchmark-v1")),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(cli.seed as f64)),
        ("quick", Json::Bool(cli.quick)),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ]);
    let text = summary.pretty();
    if let Some(path) = &cli.out {
        std::fs::write(path, &text).map_err(|e| format!("could not write {path}: {e}"))?;
    }
    print!("{text}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        Some("layers") => {
            print!("{}", spec::layer_table());
            ExitCode::SUCCESS
        }
        Some("compare") => compare::main(&args[1..]),
        Some("check") => compare::check(&args[1..]),
        _ => match parse_cli(&args) {
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
            Ok(cli) => match cli.workload.clone() {
                Some(w) => run_one(&cli, &w),
                None => match suite(&cli) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                },
            },
        },
    }
}
