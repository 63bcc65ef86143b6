//! The drivers: closed-loop reps, the open-loop paced pass, the
//! checkpoint → crash → recover pass, and the single-thread `AdaptiveCep`
//! reps of the `adapt_*` workloads. Every driver measures from outside:
//! it times calls into public functions and reads public counters.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use acep_core::{AdaptiveCep, AdaptiveMetrics, PolicyKind};
use acep_engine::Match;
use acep_stream::{
    CheckpointLog, CountingSink, KeyExtractor, MatchSink, RuntimeStats, ShardedRuntime, SourceId,
    StreamConfig, TaggedMatch, TelemetryConfig,
};
use acep_types::Event;

use crate::reference::{fingerprint_of, Fingerprint};
use crate::sys::{median, quantile_sorted, sorted, RssPeak};
use crate::trace::{ExtractProbe, SinkProbe, SpanId, Tracer, NO_PARENT};
use crate::workloads::{Workload, CHUNK};

/// RSS is sampled every this many chunks inside a rep (one
/// `/proc/self/status` read per ~32k events: far below timing noise).
const RSS_EVERY: usize = 8;

/// What one closed-loop rep should run with.
pub struct RepSpec<'a> {
    pub policy: PolicyKind,
    pub telemetry: Option<TelemetryConfig>,
    /// `Some` wraps the extractor and the sink and records spans.
    pub tracer: Option<&'a Arc<Tracer>>,
    pub sink: Arc<dyn MatchSink>,
    /// Events of the stream to run (a prefix); `usize::MAX` = all.
    pub prefix: usize,
}

impl RepSpec<'_> {
    /// The untraced rep every end-to-end number comes from.
    pub fn plain(policy: PolicyKind, queries: usize) -> RepSpec<'static> {
        RepSpec {
            policy,
            telemetry: None,
            tracer: None,
            sink: Arc::new(CountingSink::new(queries)),
            prefix: usize::MAX,
        }
    }
}

pub struct RepOut {
    /// First push → `finish()` returned.
    pub wall_s: f64,
    pub stats: RuntimeStats,
    /// Root span of a traced rep.
    pub root: SpanId,
    pub sink_probe: Option<Arc<SinkProbe>>,
}

impl RepOut {
    pub fn eps(&self, events: usize) -> f64 {
        events as f64 / self.wall_s.max(1e-9)
    }
}

fn spanned<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, f),
        None => f(),
    }
}

fn stream_config(w: &Workload, telemetry: Option<TelemetryConfig>) -> StreamConfig {
    StreamConfig {
        telemetry,
        ..w.stream_config()
    }
}

/// One closed-loop rep: a fresh runtime over the whole pre-generated
/// stream, `push_tagged` in `CHUNK`s then `finish()`. The ring is
/// bounded and the producer blocks on it, so the measured rate is the
/// highest rate with a non-growing backlog. `ckpt_recover` takes its
/// checkpoints inside the rep.
pub fn run_rep(w: &Workload, spec: RepSpec<'_>, rss: &mut RssPeak) -> RepOut {
    let set = w.pattern_set(spec.policy);
    let tracer = spec.tracer;
    let root = tracer.map_or(NO_PARENT, |t| t.begin("rep", NO_PARENT));
    let extract_probe = tracer.map(|_| ExtractProbe::new(w.extractor()));
    let sink_probe = tracer.map(|t| SinkProbe::new(Arc::clone(&spec.sink), Arc::clone(t), root));
    let extractor: Arc<dyn KeyExtractor> = match &extract_probe {
        Some(p) => Arc::clone(p) as _,
        None => w.extractor(),
    };
    let sink: Arc<dyn MatchSink> = match &sink_probe {
        Some(p) => Arc::clone(p) as _,
        None => spec.sink,
    };
    let mut runtime = ShardedRuntime::new(&set, extractor, sink, stream_config(w, spec.telemetry))
        .expect("workload runtime configuration is valid");
    let ckpt_every = w.ckpt_in_reps.then(|| w.ckpt_every());
    let mut log = CheckpointLog::new();

    let start = Instant::now();
    let events = &w.events[..spec.prefix.min(w.events.len())];
    for (i, chunk) in events.chunks(CHUNK).enumerate() {
        match (tracer, &extract_probe) {
            (Some(t), Some(p)) => {
                let id = t.begin("push", root);
                let start_ns = t.now_ns();
                runtime.push_tagged(chunk);
                t.end(id);
                let (busy, calls) = p.take();
                t.record("extract", id, start_ns, busy, calls);
            }
            _ => runtime.push_tagged(chunk),
        }
        if ckpt_every.is_some_and(|every| (i + 1) % every == 0) {
            spanned(tracer, "checkpoint", root, || {
                runtime
                    .checkpoint(&mut log)
                    .expect("healthy workers checkpoint")
            });
        }
        if i % RSS_EVERY == 0 {
            rss.sample();
        }
    }
    rss.sample();
    let stats = spanned(tracer, "finish", root, || runtime.finish());
    let wall_s = start.elapsed().as_secs_f64();
    rss.sample();
    if let Some(t) = tracer {
        t.end(root);
    }
    RepOut {
        wall_s,
        stats,
        root,
        sink_probe,
    }
}

pub struct SingleOut {
    pub wall_s: f64,
    pub metrics: AdaptiveMetrics,
    pub fingerprint: Fingerprint,
}

/// One single-thread rep of an `adapt_*` workload: `AdaptiveCep` over
/// the stream, no runtime around it. The fingerprint is taken after the
/// clock stops.
pub fn run_single(
    w: &Workload,
    events: &[(SourceId, Arc<Event>)],
    policy: PolicyKind,
    rss: &mut RssPeak,
) -> SingleOut {
    let mut engine = AdaptiveCep::new(&w.queries[0].1, w.num_types, w.adaptive_config(policy))
        .expect("workload pattern compiles");
    let mut out: Vec<Match> = Vec::new();
    let start = Instant::now();
    for (_, ev) in events {
        engine.on_event(ev, &mut out);
    }
    engine.finish(&mut out);
    let wall_s = start.elapsed().as_secs_f64();
    rss.sample();
    SingleOut {
        wall_s,
        metrics: engine.metrics().clone(),
        fingerprint: fingerprint_of(&out),
    }
}

/// Sink of the paced pass: stamps every match with its detection
/// latency — callback time minus the *scheduled* push time of its
/// latest-delivered contributing event, so generator stalls count.
struct StampSink {
    origin: Instant,
    rate_eps: f64,
    /// Delivery index by event `seq`.
    index_of_seq: Vec<u32>,
    samples: Mutex<Vec<(f64, f64)>>,
}

impl StampSink {
    fn stamp(&self, now_s: f64, m: &TaggedMatch, out: &mut Vec<(f64, f64)>) {
        let latest = m
            .matched
            .bindings
            .iter()
            .flat_map(|(_, evs)| evs)
            .map(|ev| self.index_of_seq[ev.seq as usize])
            .max()
            .unwrap_or(0);
        let scheduled_s = f64::from(latest) / self.rate_eps;
        out.push((scheduled_s, (now_s - scheduled_s) * 1e3));
    }
}

impl MatchSink for StampSink {
    fn on_match(&self, m: TaggedMatch) {
        self.on_batch(vec![m]);
    }

    fn on_batch(&self, ms: Vec<TaggedMatch>) {
        let now_s = self.origin.elapsed().as_secs_f64();
        let mut out = self.samples.lock().expect("stamp sink lock");
        for m in &ms {
            self.stamp(now_s, m, &mut out);
        }
    }
}

/// Windows the paced pass is cut into for its latency quantiles.
const LATENCY_WINDOWS: usize = 32;

pub struct PacedOut {
    /// `(scheduled time of the sample's event in s, latency in ms)`.
    pub samples: Vec<(f64, f64)>,
    /// How late each tick's first event was pushed (ms), ascending.
    pub gen_lag_ms: Vec<f64>,
    pub pushed: usize,
    pub accounted: u64,
    pub late_dropped: u64,
    /// `finish()` of the pass: the end-of-stream drain.
    pub drain_ms: f64,
}

/// The open-loop schedule of both paced passes: on every 1 ms tick,
/// `deliver` gets the range of events that have fallen due at `rate`
/// events/s since `origin`, for at most `seconds` or until all `total`
/// events are out — however long `deliver` takes. Returns how many
/// events went out and, ascending, how late each tick's first event
/// did (ms).
fn run_schedule(
    origin: Instant,
    rate: f64,
    seconds: f64,
    total: usize,
    rss: &mut RssPeak,
    mut deliver: impl FnMut(Range<usize>),
) -> (usize, Vec<f64>) {
    let tick = Duration::from_millis(1);
    let mut gen_lag_ms = Vec::new();
    let mut next = 0usize;
    let mut ticks = 0u32;
    loop {
        let elapsed = origin.elapsed().as_secs_f64();
        if elapsed >= seconds || next == total {
            break;
        }
        let due = ((elapsed * rate) as usize).min(total);
        if due > next {
            gen_lag_ms.push((elapsed - next as f64 / rate) * 1e3);
            deliver(next..due);
            next = due;
        }
        ticks += 1;
        if ticks % 256 == 0 {
            rss.sample();
        }
        if let Some(wait) = (tick * ticks).checked_sub(origin.elapsed()) {
            std::thread::sleep(wait);
        }
    }
    gen_lag_ms.sort_by(f64::total_cmp);
    (next, gen_lag_ms)
}

/// The open-loop paced pass: events are pushed on a fixed schedule
/// (`paced_rate_eps`, 1 ms ticks) for at most `seconds`, regardless of
/// how fast the runtime drains them. No `flush()` during the pass —
/// default batching is part of what is measured.
pub fn paced_pass(
    w: &Workload,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    rss: &mut RssPeak,
) -> PacedOut {
    let rate = w.spec.paced_rate_eps;
    let max_seq = w.events.iter().map(|(_, ev)| ev.seq).max().unwrap_or(0);
    let mut index_of_seq = vec![0u32; max_seq as usize + 1];
    for (i, (_, ev)) in w.events.iter().enumerate() {
        index_of_seq[ev.seq as usize] = i as u32;
    }
    let set = w.pattern_set(w.policy);
    let root = tracer.map_or(NO_PARENT, |t| t.begin("paced", NO_PARENT));
    // Built immediately before the first tick so `origin` is the
    // schedule's zero.
    let sink = Arc::new(StampSink {
        origin: Instant::now(),
        rate_eps: rate,
        index_of_seq,
        samples: Mutex::new(Vec::new()),
    });
    let mut runtime = ShardedRuntime::new(
        &set,
        w.extractor(),
        Arc::clone(&sink) as _,
        w.stream_config(),
    )
    .expect("workload runtime configuration is valid");
    let (pushed, gen_lag_ms) =
        run_schedule(sink.origin, rate, seconds, w.events.len(), rss, |due| {
            runtime.push_tagged(&w.events[due]);
        });
    let drain = Instant::now();
    let stats = spanned(tracer, "drain", root, || runtime.finish());
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    rss.sample();
    if let Some(t) = tracer {
        t.end(root);
    }
    let samples = std::mem::take(&mut *sink.samples.lock().expect("stamp sink lock"));
    PacedOut {
        samples,
        gen_lag_ms,
        pushed,
        accounted: stats.total_events(),
        late_dropped: stats.total_late_dropped(),
        drain_ms,
    }
}

/// The paced pass of the single-thread workloads: the same schedule,
/// but each due event goes straight into one `AdaptiveCep` on this
/// thread — no runtime, no batching. The sample is every event: the
/// time `on_event` returned minus the event's scheduled time is the
/// detection latency of any match that event completes (tick
/// quantisation and backlog included). Sampling matches instead would
/// only sample the rare bursts they arrive in. (Pacing each event to
/// its own instant with a spinning thread removes the tick floor, but
/// what is left is the service time of whichever events the seed put
/// at the quantile: 28–62 % quartile spread over ten seeds.)
pub fn paced_single(w: &Workload, seconds: f64, rss: &mut RssPeak) -> PacedOut {
    let rate = w.spec.paced_rate_eps;
    let mut engine = AdaptiveCep::new(&w.queries[0].1, w.num_types, w.adaptive_config(w.policy))
        .expect("workload pattern compiles");
    let mut out: Vec<Match> = Vec::new();
    let mut samples = Vec::with_capacity(w.events.len());
    let origin = Instant::now();
    let (pushed, gen_lag_ms) = run_schedule(origin, rate, seconds, w.events.len(), rss, |due| {
        for i in due {
            engine.on_event(&w.events[i].1, &mut out);
            out.clear();
            let scheduled_s = i as f64 / rate;
            samples.push((
                scheduled_s,
                (origin.elapsed().as_secs_f64() - scheduled_s) * 1e3,
            ));
        }
    });
    let drain = Instant::now();
    engine.finish(&mut out);
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    rss.sample();
    PacedOut {
        samples,
        gen_lag_ms,
        pushed,
        accounted: engine.metrics().events,
        late_dropped: 0,
        drain_ms,
    }
}

impl PacedOut {
    /// For each quantile in `qs`: that quantile of the latencies inside
    /// each of the pass's `LATENCY_WINDOWS` equal time windows (by
    /// scheduled time), and the median of those per-window quantiles. A
    /// stall or a burst of expensive events lands in a few windows and
    /// is voted out, where a single whole-pass p99 would be pinned by
    /// it; a slowdown that touches every window moves every window's
    /// quantile.
    ///
    /// The window count is fixed. Sizing windows to hold 1 000 samples
    /// each (ten beyond their p99) leaves `adapt_tree`, whose pass has
    /// ~4 800 samples, four windows, and a vote of four does not out-vote
    /// a burst: its p99 then spreads 21 % over ten seeds against 7 %.
    pub fn windowed_quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let span = self.samples.iter().map(|(t, _)| *t).fold(0.0, f64::max);
        let mut windows = vec![Vec::new(); LATENCY_WINDOWS];
        for (t, latency) in &self.samples {
            let w = ((t / span.max(1e-9)) * LATENCY_WINDOWS as f64) as usize;
            windows[w.min(LATENCY_WINDOWS - 1)].push(*latency);
        }
        windows.retain(|w| !w.is_empty());
        for w in &mut windows {
            w.sort_by(f64::total_cmp);
        }
        qs.map(|q| {
            let per_window: Vec<f64> = windows.iter().map(|w| quantile_sorted(w, q)).collect();
            median(&per_window)
        })
    }

    /// Whole-pass quantiles (reported in the run's detail, not gated).
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let all = sorted(&self.samples.iter().map(|(_, l)| *l).collect::<Vec<_>>());
        qs.map(|q| quantile_sorted(&all, q))
    }
}

/// Enough for a median; keeps the span file small where a recovery
/// takes 0.2 ms.
const MAX_RECOVERIES: usize = 25;

pub struct RecoverOut {
    /// `recover()` call → suffix replayed and `flush()` returned, one
    /// sample per recovery from the same log.
    pub recover_s: Vec<f64>,
    /// The `recover()` call alone (decode + rebuild), ms.
    pub restore_ms: Vec<f64>,
    /// Each `checkpoint()` barrier on a drained runtime, ms.
    pub encode_ms: Vec<f64>,
    pub log_bytes: u64,
    pub frames: u64,
    /// Matches delivered exactly once across crash and recovery, per
    /// recovery sample (must equal the reference count).
    pub delivered: Vec<u64>,
    pub accounted: Vec<u64>,
}

/// Checkpoint → crash → recover: the stream is pushed with a
/// checkpoint at its middle and a second, incremental one after its
/// last chunk, and the runtime is then dropped without `finish()` (the
/// crash). Each sample rebuilds a runtime from the log, replays what
/// the last sealed checkpoint did not cover (nothing, here) and
/// flushes — as many times as fit `seconds` (at most
/// `MAX_RECOVERIES`), all from the same log. The crash follows the checkpoint immediately so that
/// `recover_s` is the restore path alone: a replayed suffix would make
/// it a second throughput number, and on the bursty `adapt_*` streams
/// a chaotic one.
pub fn recover_pass(
    w: &Workload,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    rss: &mut RssPeak,
) -> RecoverOut {
    let set = w.pattern_set(w.policy);
    let root = tracer.map_or(NO_PARENT, |t| t.begin("recover_pass", NO_PARENT));
    let first = Arc::new(CountingSink::new(set.len()));
    let mut runtime = ShardedRuntime::new(
        &set,
        w.extractor(),
        Arc::clone(&first) as _,
        w.stream_config(),
    )
    .expect("workload runtime configuration is valid");
    let mut log = CheckpointLog::new();
    let chunks = w.events.len().div_ceil(CHUNK);
    let checkpoint_after = [(chunks / 2).max(1), chunks];
    let mut encode_ms = Vec::new();
    // Matches the first incarnation delivered up to its last sealed
    // checkpoint; everything after it is re-derived by the replay.
    let mut delivered_at_ckpt = 0u64;
    for (i, chunk) in w.events.chunks(CHUNK).enumerate() {
        runtime.push_tagged(chunk);
        if checkpoint_after.contains(&(i + 1)) {
            // Drain first, so the timed barrier is the snapshot itself
            // and not the backlog queued ahead of it.
            spanned(tracer, "checkpoint_drain", root, || runtime.flush());
            let t = Instant::now();
            spanned(tracer, "checkpoint", root, || {
                runtime
                    .checkpoint(&mut log)
                    .expect("healthy workers checkpoint")
            });
            encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            delivered_at_ckpt = first.total();
            rss.sample();
        }
    }
    drop(runtime);
    rss.sample();

    let mut out = RecoverOut {
        recover_s: Vec::new(),
        restore_ms: Vec::new(),
        encode_ms,
        log_bytes: log.len_bytes() as u64,
        frames: 0,
        delivered: Vec::new(),
        accounted: Vec::new(),
    };
    out.frames = out.encode_ms.len() as u64 * w.stream_config().shards as u64;
    let budget = Instant::now();
    while out.recover_s.is_empty()
        || (out.recover_s.len() < MAX_RECOVERIES && budget.elapsed().as_secs_f64() < seconds)
    {
        let inner = Arc::new(CountingSink::new(set.len()));
        let start = Instant::now();
        // Recovered shards resume their emission numbering at the
        // checkpoint, and `delivered_at_ckpt` discards what the crashed
        // incarnation delivered after it — so the replay's deliveries
        // are exactly the remainder and need no sink-side dedup.
        let recovered = spanned(tracer, "recover", root, || {
            ShardedRuntime::recover(
                &set,
                w.extractor(),
                Arc::clone(&inner) as _,
                w.stream_config(),
                &log,
            )
        });
        let (mut runtime, report) = recovered.expect("the log the pass just wrote is recoverable");
        out.restore_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for chunk in w.events[report.events_ingested as usize..].chunks(CHUNK) {
            runtime.push_tagged(chunk);
        }
        runtime.flush();
        out.recover_s.push(start.elapsed().as_secs_f64());
        rss.sample();
        let stats = runtime.finish();
        out.delivered.push(delivered_at_ckpt + inner.total());
        out.accounted.push(stats.total_events());
    }
    if let Some(t) = tracer {
        t.end(root);
    }
    out
}
