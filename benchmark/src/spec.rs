//! The benchmark's contract as data: the metric tables and the
//! `BENCHMARK.json` they render to. `check` asserts the committed file
//! and every run's output carry exactly these names.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// How long one run measures. The driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 16;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn end_to_end(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher,
        bound,
    }
}

/// Every workload reports every one of these in an untraced run. Three
/// times the widest quartile spread seen over ten seeds on the reference
/// box (README, "Noise") is at or above the contract's cap of 0.25 for
/// every metric, so every bound is the cap.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("setup_s", "s", false, 0.25),
    end_to_end("throughput_eps", "events/s", true, 0.25),
    end_to_end("detect_latency_p50_ms", "ms", false, 0.25),
    end_to_end("detect_latency_p99_ms", "ms", false, 0.25),
    end_to_end("peak_rss_mb", "MB", false, 0.25),
    end_to_end("adapt_gain", "ratio", true, 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
    /// Where the number comes from.
    pub source: &'static str,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher,
        source,
        moves,
    }
}

/// Every workload reports every one of these in a traced run; a count
/// of 0 means the layer did no work on that workload.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("stream.push.busy_share", "ratio", false, "spans: sum(push_tagged) / wall (routing work + blocked on a full ring)", "throughput_eps when near 1 with no producer_parks (producer-bound): iot_lazy, click_disorder; not stocks_hot"),
    layer("stream.extract.share", "ratio", false, "wrapping KeyExtractor, timer cost subtracted", "throughput_eps when producer-bound: iot_lazy, click_disorder"),
    layer("stream.ring.producer_parks", "count", false, "RingStats", "producer waits for the worker: worker is the bottleneck; all runtime workloads"),
    layer("stream.ring.consumer_parks", "count", false, "RingStats", "worker waits for the producer: detect_latency_p50_ms (queue wait); all runtime workloads"),
    layer("stream.ring.high_water", "count", false, "RingStats", "ring occupancy: detect_latency_p50_ms; all runtime workloads"),
    layer("stream.barrier.drain_ms", "ms", false, "span: finish() of the paced pass", "detect_latency_p99_ms; paced passes"),
    layer("stream.stage.ingest.share", "ratio", false, "ShardProfile mean x count / wall", "throughput_eps; click_disorder"),
    layer("stream.stage.reorder.share", "ratio", false, "ShardProfile mean x count / wall", "throughput_eps; ~0 everywhere but click_disorder"),
    layer("stream.stage.evaluate.share", "ratio", false, "ShardProfile mean x count / wall", "throughput_eps; all runtime workloads"),
    layer("stream.stage.finalize.share", "ratio", false, "ShardProfile mean x count / wall", "throughput_eps; stocks_hot, iot_lazy"),
    layer("stream.sink.share", "ratio", false, "wrapping MatchSink spans / wall", "throughput_eps; iot_lazy"),
    layer("stream.sink.matches", "count", true, "wrapping MatchSink", "throughput_eps; iot_lazy"),
    layer("stream.sink.batches", "count", false, "wrapping MatchSink", "throughput_eps; iot_lazy"),
    layer("stream.reorder.max_depth", "count", false, "RuntimeStats", "peak_rss_mb; click_disorder"),
    layer("stream.late_dropped", "count", false, "RuntimeStats", "failed; click_disorder (must stay 0)"),
    layer("types.extract.ns_per_event", "ns", false, "staged replay", "throughput_eps when producer-bound; iot_lazy"),
    layer("types.batch.ns_per_event", "ns", false, "staged replay", "throughput_eps when producer-bound; iot_lazy"),
    layer("stream.ring.ns_per_msg", "ns", false, "isolated 2-thread SpscRing loop", "throughput_eps when producer-bound; iot_lazy"),
    layer("engine.relevance.ns_per_event", "ns", false, "staged replay", "throughput_eps; iot_lazy"),
    layer("core.controller.ns_per_event", "ns", false, "staged replay", "adapt_gain, throughput_eps; adapt_order, adapt_tree"),
    layer("stats.observe.ns_per_event", "ns", false, "isolated StatisticsCollector loop", "adapt_gain, throughput_eps; adapt_order, adapt_tree"),
    layer("stats.snapshot.us", "us", false, "isolated StatisticsCollector loop", "adapt_gain; adapt_order, adapt_tree"),
    layer("plan.generate.us", "us", false, "isolated Planner loop", "adapt_gain; adapt_order, adapt_tree"),
    layer("core.invariant.check_ns", "ns", false, "isolated InvariantSet loop", "adapt_gain; adapt_order, adapt_tree"),
    layer("core.keyed.ns_per_event", "ns", false, "staged replay", "throughput_eps; stocks_hot (order), iot_lazy (lazy), adapt_tree (tree)"),
    layer("engine.comparisons", "count", false, "staged replay, exact", "throughput_eps; stocks_hot, iot_lazy, adapt_tree"),
    layer("engine.partials_live", "count", false, "RuntimeStats, exact", "peak_rss_mb, throughput_eps; stocks_hot, ckpt_recover"),
    layer("engine.buffered_events", "count", false, "RuntimeStats, exact", "peak_rss_mb; iot_lazy, ckpt_recover"),
    layer("engine.engines_live", "count", false, "RuntimeStats, exact", "peak_rss_mb; iot_lazy"),
    layer("engine.finalize_visits", "count", false, "RuntimeStats, exact", "throughput_eps; click_disorder (idle keys finalized by the watermark; 0 where every key stays hot)"),
    layer("core.decide.share", "ratio", false, "decision_time / wall", "adapt_gain; adapt_*, ckpt_recover"),
    layer("core.plan.share", "ratio", false, "planning_time / wall", "adapt_gain; adapt_*, ckpt_recover"),
    layer("core.decision_evals", "count", false, "AdaptationStats / AdaptiveMetrics", "adapt_gain; adapt_*, ckpt_recover"),
    layer("core.reopt_triggers", "count", false, "AdaptationStats / AdaptiveMetrics", "adapt_gain; adapt_*, ckpt_recover"),
    layer("core.replans", "count", false, "planner invocations", "adapt_gain; adapt_*, ckpt_recover"),
    layer("core.replan.useful_ratio", "ratio", true, "plan replacements / planner invocations", "adapt_gain; adapt_* (the paper's no-false-positive claim as a number)"),
    layer("core.key_migrations", "count", false, "RuntimeStats", "adapt_gain, throughput_eps; ckpt_recover"),
    layer("checkpoint.encode_ms_p50", "ms", false, "spans: checkpoint() on a drained runtime", "throughput_eps; ckpt_recover"),
    layer("checkpoint.bytes", "bytes", false, "CheckpointLog::len_bytes", "recover_s, peak_rss_mb; ckpt_recover"),
    layer("checkpoint.frames", "count", false, "checkpoints x shards", "recover_s; ckpt_recover"),
    layer("checkpoint.restore_ms", "ms", false, "span: recover()", "recover_s; ckpt_recover"),
    layer("recover_s", "s", false, "recover() call -> flush() returned, median over the recoveries that fit 10 % of the run", "what a user waits after a crash; ckpt_recover, iot_lazy, click_disorder"),
    layer("telemetry.overhead_pct", "%", false, "median of interleaved on/off pair ratios", "guards observability work; stocks_hot"),
    layer("trace.residual_pct", "%", false, "(runtime wall - max(sum producer stages, sum worker stages)) / wall", "trust in the staged rows"),
    layer("trace.overhead_pct", "%", false, "median of interleaved plain/traced pair ratios", "trust in the span rows"),
    layer("drive.rep_mad_pct", "%", false, "MAD of timed-rep throughput / median", "trust in throughput_eps"),
    layer("drive.gen_lag_p99_ms", "ms", false, "paced generator: actual - scheduled push time", "trust in detect_latency_*"),
    layer("calib.ns_per_iter", "ns", false, "fixed CPU loop at start and end", "cross-run comparability"),
    layer("failed_share", "ratio", false, "(unaccounted events + multiset differences) / (events + reference matches)", "must be 0 on every workload"),
];

fn better(higher: bool) -> Json {
    Json::str(if higher { "higher" } else { "lower" })
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The per-layer interaction table (markdown): each layer metric, where
/// it comes from, and which end-to-end metric it should move on which
/// workload — written down before anything is measured.
pub fn layer_table() -> String {
    let mut out =
        String::from("| layer metric | unit | source | should move, on |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.source, m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }
}
