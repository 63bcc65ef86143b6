//! One benchmark run of one workload: the untraced run that yields
//! every end-to-end metric, and the traced run that yields every
//! per-layer metric. Both check the program's output against the
//! reference evaluator.

use std::sync::Arc;
use std::time::Instant;

use acep_core::PolicyKind;
use acep_stream::{CountingSink, ShardedRuntime, TelemetryConfig};

use crate::drive::{paced_pass, paced_single, recover_pass, run_rep, run_single, RepSpec};
use crate::json::Json;
use crate::reference::{self, Fingerprint, FingerprintSink};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::staged::{isolated_loops, ring_ns_per_msg, staged_replay};
use crate::sys::{self, RssPeak};
use crate::trace::Tracer;
use crate::workloads::{self, Workload, CHUNK};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    pub traced: bool,
    /// 1.0 for measured runs, ~0.02 for `--quick`.
    pub scale: f64,
    /// Where span files go.
    pub out_dir: String,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: rep lists, sample counts, the
    /// noise flag.
    pub detail: Json,
}

impl Outcome {
    /// The contract's last stdout line.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Running tally of the correctness check.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    /// Matches compared with a reference count or fingerprint.
    matches: u64,
}

impl Check {
    /// A pass that should have accounted for `events` events and
    /// produced `expected` matches.
    fn pass(&mut self, events: u64, accounted: u64, expected: u64, differences: u64) {
        self.attempted += events + expected;
        self.matches += expected;
        self.failed += events.abs_diff(accounted) + differences;
    }
}

/// One set-up: generate the inputs, register the queries, build the
/// runtime and push a warm-up prefix through it. Returns the workload
/// and how long that took.
fn set_up(args: &RunArgs) -> (Workload, f64) {
    let start = Instant::now();
    let w = workloads::generate(&args.workload, args.seed, args.scale)
        .unwrap_or_else(|| panic!("unknown workload {}", args.workload));
    let set = w.pattern_set(w.policy);
    let sink = Arc::new(CountingSink::new(set.len()));
    let mut runtime = ShardedRuntime::new(&set, w.extractor(), sink as _, w.stream_config())
        .expect("workload runtime configuration is valid");
    let warm = (w.events.len() / 10).max(CHUNK).min(w.events.len());
    for chunk in w.events[..warm].chunks(CHUNK) {
        runtime.push_tagged(chunk);
    }
    runtime.finish();
    (w, start.elapsed().as_secs_f64())
}

/// The checked rep and the reference: a full closed-loop rep whose
/// output is fingerprinted and compared with the declarative
/// evaluation. Doubles as the full-length warm-up.
fn checked_rep(w: &Workload, check: &mut Check, rss: &mut RssPeak) -> Fingerprint {
    let expected = reference::evaluate(&w.events, &w.queries, w.extractor().as_ref());
    let sink = Arc::new(FingerprintSink::default());
    let rep = run_rep(
        w,
        RepSpec {
            sink: Arc::clone(&sink) as _,
            ..RepSpec::plain(w.policy, w.queries.len())
        },
        rss,
    );
    check.pass(
        w.events.len() as u64,
        rep.stats.total_events() - rep.stats.total_late_dropped(),
        expected.count,
        expected.differences(&sink.fingerprint()),
    );
    expected
}

/// One A/B pair: throughput (events/s) of the configured policy and of
/// a static plan over the same stream, `adaptive_first` saying which
/// side runs first. Memory is sampled on the configured system only —
/// the static side is the yardstick, not the product.
///
/// Runtime workloads repeat their one stream, each side's match count
/// checked against the reference. The single-thread workloads take
/// stream `pair` of their scenario instead (see
/// [`workloads::adapt_stream`]) and check the two sides' fingerprints
/// against each other, and against the reference on stream 0.
fn ab_pair(
    w: &Workload,
    pair: usize,
    adaptive_first: bool,
    expected: &Fingerprint,
    check: &mut Check,
    rss: &mut RssPeak,
) -> (f64, f64) {
    let n = w.events.len() as u64;
    let mut yardstick = RssPeak::default();
    let (mut adaptive, mut fixed) = (0.0, 0.0);
    if w.single_thread {
        let stream;
        let events = if pair == 0 {
            &w.events
        } else {
            stream = workloads::adapt_stream(w, pair as u64);
            &stream
        };
        let mut prints = Vec::new();
        for adaptive_side in [adaptive_first, !adaptive_first] {
            let rep = if adaptive_side {
                run_single(w, events, w.policy, rss)
            } else {
                run_single(w, events, PolicyKind::Static, &mut yardstick)
            };
            let eps = n as f64 / rep.wall_s.max(1e-9);
            *(if adaptive_side {
                &mut adaptive
            } else {
                &mut fixed
            }) = eps;
            check.pass(n, rep.metrics.events, 0, 0);
            prints.push(rep.fingerprint);
        }
        if pair == 0 {
            check.pass(0, 0, expected.count, expected.differences(&prints[0]));
            check.pass(0, 0, expected.count, expected.differences(&prints[1]));
        } else {
            check.pass(0, 0, prints[0].count, prints[0].differences(&prints[1]));
        }
    } else {
        for adaptive_side in [adaptive_first, !adaptive_first] {
            let rep = if adaptive_side {
                run_rep(w, RepSpec::plain(w.policy, w.queries.len()), rss)
            } else {
                run_rep(
                    w,
                    RepSpec::plain(PolicyKind::Static, w.queries.len()),
                    &mut yardstick,
                )
            };
            *(if adaptive_side {
                &mut adaptive
            } else {
                &mut fixed
            }) = rep.eps(w.events.len());
            check.pass(
                n,
                rep.stats.total_events() - rep.stats.total_late_dropped(),
                expected.count,
                expected.count.abs_diff(rep.stats.total_matches()),
            );
        }
    }
    (adaptive, fixed)
}

/// Orders named values by the metric table, with the table's units.
/// A name the table lacks, or a table row without a value, is a bug in
/// this file.
fn in_table_order(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    let ordered: Vec<_> = table
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, value.1, unit)
        })
        .collect();
    assert_eq!(
        ordered.len(),
        values.len(),
        "a measured metric is not in the table"
    );
    ordered
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Smallest number of A/B pairs a run reports from, whatever the
/// budget.
const MIN_PAIRS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub fn run_untraced(args: &RunArgs) -> Outcome {
    let calib_start = sys::calibrate();
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        // The previous inputs are dropped first so resident memory
        // never holds two copies.
        drop(w.take());
        let (workload, secs) = set_up(args);
        setups.push(secs);
        w = Some(workload);
    }
    let w = w.expect("at least one set-up");
    let rss_inputs = sys::rss_mb();
    let mut rss = RssPeak::default();
    let mut check = Check::default();
    let expected = checked_rep(&w, &mut check, &mut rss);

    // Closed-loop A/B pairs, interleaved and alternating which side
    // runs first: the configured (adaptive) policy against a static
    // plan.
    let budget = Instant::now();
    let (mut adaptive, mut fixed, mut gains) = (Vec::new(), Vec::new(), Vec::new());
    while gains.len() < MIN_PAIRS || budget.elapsed().as_secs_f64() < 0.7 * args.seconds {
        let pair = gains.len();
        let (a, s) = ab_pair(&w, pair, pair % 2 == 0, &expected, &mut check, &mut rss);
        adaptive.push(a);
        fixed.push(s);
        gains.push(a / s);
    }

    let paced = if w.single_thread {
        paced_single(&w, 0.2 * args.seconds, &mut rss)
    } else {
        paced_pass(&w, 0.2 * args.seconds, None, &mut rss)
    };
    check.pass(
        paced.pushed as u64,
        paced.accounted - paced.late_dropped,
        0,
        0,
    );

    let calib_end = sys::calibrate();
    let rep_mad_pct = sys::mad_pct(&adaptive);
    let calib_drift = (calib_end - calib_start).abs() / calib_start.min(calib_end);
    // The single-thread workloads time a different stream in every pair,
    // so there the MAD is the streams' spread and says nothing of noise.
    let noisy = calib_drift > 0.10 || (!w.single_thread && rep_mad_pct > 5.0);

    let [latency_p50, latency_p99] = paced.windowed_quantiles([0.5, 0.99]);
    const WHOLE_PASS: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 1.0];
    let whole_pass = paced.quantiles(WHOLE_PASS);
    let values = [
        ("setup_s", sys::median(&setups)),
        ("throughput_eps", sys::median(&adaptive)),
        ("detect_latency_p50_ms", latency_p50),
        ("detect_latency_p99_ms", latency_p99),
        ("peak_rss_mb", rss.0 - rss_inputs),
        ("adapt_gain", sys::median(&gains)),
    ];
    Outcome {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics: in_table_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values),
        detail: Json::obj([
            ("noisy", Json::Bool(noisy)),
            ("events", Json::Num(w.events.len() as f64)),
            ("reference_matches", Json::Num(expected.count as f64)),
            ("matches_checked", Json::Num(check.matches as f64)),
            ("setups_s", nums(&setups)),
            ("adaptive_eps", nums(&adaptive)),
            ("static_eps", nums(&fixed)),
            ("gains", nums(&gains)),
            ("drive.rep_mad_pct", Json::Num(rep_mad_pct)),
            ("calib.ns_per_iter", nums(&[calib_start, calib_end])),
            ("paced_rate_eps", Json::Num(w.spec.paced_rate_eps)),
            ("paced_pushed", Json::Num(paced.pushed as f64)),
            ("latency_samples", Json::Num(paced.samples.len() as f64)),
            (
                "whole_pass_latency_ms",
                Json::obj(
                    WHOLE_PASS
                        .iter()
                        .zip(whole_pass)
                        .map(|(q, v)| (format!("p{}", q * 100.0), Json::Num(v))),
                ),
            ),
            (
                "gen_lag_p99_ms",
                Json::Num(sys::quantile_sorted(&paced.gen_lag_ms, 0.99)),
            ),
            ("rss_inputs_mb", Json::Num(rss_inputs)),
        ]),
    }
}

/// Median of `100 × (1 − treated / plain)` over interleaved pairs.
fn overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let pcts: Vec<f64> = pairs
        .iter()
        .map(|(plain, treated)| 100.0 * (1.0 - treated / plain))
        .collect();
    sys::median(&pcts)
}

pub fn run_traced(args: &RunArgs) -> Outcome {
    let calib_start = sys::calibrate();
    let timer_ns = sys::timer_ns();
    let (w, _) = set_up(args);
    let n = w.events.len();
    let mut rss = RssPeak::default();
    let mut check = Check::default();
    let expected = checked_rep(&w, &mut check, &mut rss);
    let tracer = Tracer::new();
    let queries = w.queries.len();

    // (a) Interleaved plain / traced pairs on the real runtime. The
    // traced side wraps the extractor and the sink, records a span per
    // call into the runtime, and samples every batch's stage profile.
    let budget = Instant::now();
    let mut trace_pairs = Vec::new();
    let mut plain_eps = Vec::new();
    let mut last_traced = None;
    while trace_pairs.len() < 2 || budget.elapsed().as_secs_f64() < 0.25 * args.seconds {
        let plain = || {
            run_rep(
                &w,
                RepSpec::plain(w.policy, queries),
                &mut RssPeak::default(),
            )
        };
        let traced = || {
            run_rep(
                &w,
                RepSpec {
                    telemetry: Some(TelemetryConfig::with_profiling(1)),
                    tracer: Some(&tracer),
                    ..RepSpec::plain(w.policy, queries)
                },
                &mut RssPeak::default(),
            )
        };
        let (p, t) = if trace_pairs.len() % 2 == 0 {
            let p = plain();
            (p, traced())
        } else {
            let t = traced();
            (plain(), t)
        };
        plain_eps.push(p.eps(n));
        trace_pairs.push((p.eps(n), t.eps(n)));
        last_traced = Some(t);
    }
    let traced = last_traced.expect("at least two traced reps");

    // Telemetry on/off pairs over the first half of the stream (shorter
    // reps, so at least five pairs fit the budget).
    let budget = Instant::now();
    let mut telemetry_pairs = Vec::new();
    while telemetry_pairs.len() < 5 || budget.elapsed().as_secs_f64() < 0.2 * args.seconds {
        let rep = |telemetry| {
            run_rep(
                &w,
                RepSpec {
                    telemetry,
                    prefix: n / 2,
                    ..RepSpec::plain(w.policy, queries)
                },
                &mut RssPeak::default(),
            )
            .eps(n / 2)
        };
        let on = Some(TelemetryConfig::with_profiling(16));
        telemetry_pairs.push(if telemetry_pairs.len() % 2 == 0 {
            let off = rep(None);
            (off, rep(on))
        } else {
            let on = rep(on);
            (rep(None), on)
        });
    }

    let paced = paced_pass(&w, 0.15 * args.seconds, Some(&tracer), &mut rss);
    let recover = recover_pass(&w, 0.1 * args.seconds, Some(&tracer), &mut rss);
    for (delivered, accounted) in recover.delivered.iter().zip(&recover.accounted) {
        check.pass(
            n as u64,
            *accounted,
            expected.count,
            expected.count.abs_diff(*delivered),
        );
    }

    // (b) Staged replay and the isolated loops.
    let staged = staged_replay(&w, timer_ns);
    check.pass(
        n as u64,
        n as u64,
        expected.count,
        expected.count.abs_diff(staged.matches),
    );
    let isolated = isolated_loops(&w);
    let ring_ns = ring_ns_per_msg();

    // Adaptation counters: from the runtime's controllers, or — for
    // the single-thread workloads — from one `AdaptiveCep` rep.
    let (wall_s, adaptation) = if w.single_thread {
        let rep = run_single(&w, &w.events, w.policy, &mut rss);
        check.pass(
            n as u64,
            rep.metrics.events,
            expected.count,
            expected.differences(&rep.fingerprint),
        );
        (
            rep.wall_s,
            [
                rep.metrics.decision_time.as_secs_f64(),
                rep.metrics.planning_time.as_secs_f64(),
                rep.metrics.decision_evals as f64,
                rep.metrics.reopt_triggers as f64,
                rep.metrics.planner_invocations as f64,
                rep.metrics.plan_replacements as f64,
            ],
        )
    } else {
        let a = traced.stats.total_adaptation();
        (
            traced.wall_s,
            [
                a.decision_time.as_secs_f64(),
                a.planning_time.as_secs_f64(),
                a.decision_evals as f64,
                a.reopt_triggers as f64,
                a.planner_invocations as f64,
                a.plan_replacements as f64,
            ],
        )
    };
    let [decide_s, plan_s, decision_evals, reopt_triggers, replans, replacements] = adaptation;

    let traced_wall_ns = traced.wall_s * 1e9;
    let share = |name: &str| tracer.total(name, traced.root).0 as f64 / traced_wall_ns;
    let (extract_ns, extract_calls) = tracer.total("extract", traced.root);
    let profile = traced.stats.profile().unwrap_or_default();
    let stage_share = |h: &acep_stream::Histogram| h.sum as f64 * 1e3 / traced_wall_ns;
    let ring = &traced.stats.shards[0].ring;
    let probe = traced
        .sink_probe
        .as_ref()
        .expect("traced rep wraps the sink");
    let loaded = std::sync::atomic::Ordering::Relaxed;
    let runtime_ns_per_event = 1e9 / sys::median(&plain_eps);
    let calib_end = sys::calibrate();

    let values = [
        ("stream.push.busy_share", share("push")),
        (
            "stream.extract.share",
            ((extract_ns as f64 - extract_calls as f64 * timer_ns) / traced_wall_ns).max(0.0),
        ),
        ("stream.ring.producer_parks", ring.producer_parks as f64),
        ("stream.ring.consumer_parks", ring.consumer_parks as f64),
        ("stream.ring.high_water", ring.occupancy_high_water as f64),
        ("stream.barrier.drain_ms", paced.drain_ms),
        (
            "stream.stage.ingest.share",
            stage_share(&profile.stage_ingest_us),
        ),
        (
            "stream.stage.reorder.share",
            stage_share(&profile.stage_reorder_us),
        ),
        (
            "stream.stage.evaluate.share",
            stage_share(&profile.stage_evaluate_us),
        ),
        (
            "stream.stage.finalize.share",
            stage_share(&profile.stage_finalize_us),
        ),
        ("stream.sink.share", share("sink")),
        ("stream.sink.matches", probe.matches.load(loaded) as f64),
        ("stream.sink.batches", probe.batches.load(loaded) as f64),
        (
            "stream.reorder.max_depth",
            traced
                .stats
                .shards
                .iter()
                .map(|s| s.max_reorder_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "stream.late_dropped",
            traced.stats.total_late_dropped() as f64,
        ),
        ("types.extract.ns_per_event", staged.extract_ns),
        ("types.batch.ns_per_event", staged.batch_ns),
        ("stream.ring.ns_per_msg", ring_ns),
        ("engine.relevance.ns_per_event", staged.relevance_ns),
        ("core.controller.ns_per_event", staged.controller_ns),
        ("stats.observe.ns_per_event", isolated.stats_observe_ns),
        ("stats.snapshot.us", isolated.stats_snapshot_us),
        ("plan.generate.us", isolated.plan_generate_us),
        ("core.invariant.check_ns", isolated.invariant_check_ns),
        ("core.keyed.ns_per_event", staged.keyed_ns),
        ("engine.comparisons", staged.comparisons as f64),
        (
            "engine.partials_live",
            traced.stats.total_partials_live() as f64,
        ),
        (
            "engine.buffered_events",
            traced.stats.total_buffered_events() as f64,
        ),
        (
            "engine.engines_live",
            traced.stats.total_engines_live() as f64,
        ),
        (
            "engine.finalize_visits",
            traced.stats.total_finalize_visits() as f64,
        ),
        ("core.decide.share", decide_s / wall_s),
        ("core.plan.share", plan_s / wall_s),
        ("core.decision_evals", decision_evals),
        ("core.reopt_triggers", reopt_triggers),
        ("core.replans", replans),
        (
            "core.replan.useful_ratio",
            if replans > 0.0 {
                replacements / replans
            } else {
                0.0
            },
        ),
        (
            "core.key_migrations",
            traced.stats.total_key_migrations() as f64,
        ),
        ("checkpoint.encode_ms_p50", sys::median(&recover.encode_ms)),
        ("checkpoint.bytes", recover.log_bytes as f64),
        ("checkpoint.frames", recover.frames as f64),
        ("checkpoint.restore_ms", sys::median(&recover.restore_ms)),
        ("recover_s", sys::median(&recover.recover_s)),
        ("telemetry.overhead_pct", overhead_pct(&telemetry_pairs)),
        (
            "trace.residual_pct",
            100.0 * (runtime_ns_per_event - staged.producer_ns().max(staged.worker_ns()))
                / runtime_ns_per_event,
        ),
        ("trace.overhead_pct", overhead_pct(&trace_pairs)),
        ("drive.rep_mad_pct", sys::mad_pct(&plain_eps)),
        (
            "drive.gen_lag_p99_ms",
            sys::quantile_sorted(&paced.gen_lag_ms, 0.99),
        ),
        ("calib.ns_per_iter", (calib_start + calib_end) / 2.0),
        (
            "failed_share",
            check.failed as f64 / check.attempted.max(1) as f64,
        ),
    ];

    let trace_file = format!("{}/{}.trace.json", args.out_dir, args.workload);
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_file, tracer.to_json().pretty()));
    if let Err(e) = written {
        eprintln!("warning: could not write {trace_file}: {e}");
    }

    Outcome {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics: in_table_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values),
        detail: Json::obj([
            ("events", Json::Num(n as f64)),
            ("reference_matches", Json::Num(expected.count as f64)),
            ("matches_checked", Json::Num(check.matches as f64)),
            ("trace_pairs", Json::Num(trace_pairs.len() as f64)),
            ("recover_samples", Json::Num(recover.recover_s.len() as f64)),
            ("telemetry_pairs", Json::Num(telemetry_pairs.len() as f64)),
            ("plain_eps", nums(&plain_eps)),
            ("timer_ns", Json::Num(timer_ns)),
            ("staged_producer_ns", Json::Num(staged.producer_ns())),
            ("staged_worker_ns", Json::Num(staged.worker_ns())),
            ("staged_sink_ns", Json::Num(staged.sink_ns)),
            ("calib.ns_per_iter", nums(&[calib_start, calib_end])),
            ("trace_file", Json::str(trace_file)),
        ]),
    }
}
