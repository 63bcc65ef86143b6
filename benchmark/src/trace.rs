//! Outside-in tracing: spans recorded from the benchmark's own files
//! around the calls into each layer, and the two wrappers that sit at
//! the runtime's user plug-in points (`KeyExtractor`, `MatchSink`).
//! Spans stay in memory and are written out when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acep_stream::{KeyExtractor, MatchSink, TaggedMatch};
use acep_types::Event;

use crate::json::Json;

/// Index of a span's parent in the trace (`NO_PARENT` for roots).
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Calls folded into this span (1 unless aggregated).
    pub calls: u64,
}

/// In-memory span store shared by the producer thread and the worker
/// (through the sink wrapper).
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; children name it as parent.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            calls: 1,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer lock")[id as usize].end_ns = end_ns;
    }

    /// Records an already-measured interval (an aggregate of `calls`
    /// short calls whose summed duration is `busy_ns`).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) {
        self.spans.lock().expect("tracer lock").push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent,
            calls,
        });
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Summed duration (ns) and call count of the spans named `name`
    /// under `root` (directly or transitively).
    pub fn total(&self, name: &str, root: SpanId) -> (u64, u64) {
        let spans = self.spans.lock().expect("tracer lock");
        let under_root = |mut id: SpanId| loop {
            if id == root {
                return true;
            }
            if id == NO_PARENT {
                return false;
            }
            id = spans[id as usize].parent;
        };
        spans
            .iter()
            .filter(|s| s.name == name && under_root(s.parent))
            .fold((0, 0), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns), calls + s.calls)
            })
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("tracer lock");
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                        ("calls", Json::Num(s.calls as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Wraps the workload's `KeyExtractor`, summing the time spent inside
/// it. Per-call spans would cost more than the call, so the producer
/// folds the running total into one aggregated `extract` child span per
/// `push_tagged` (see [`ExtractProbe::take`]).
pub struct ExtractProbe {
    inner: Arc<dyn KeyExtractor>,
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl ExtractProbe {
    pub fn new(inner: Arc<dyn KeyExtractor>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        })
    }

    /// Returns and resets `(busy ns, calls)` accumulated since the last
    /// take.
    pub fn take(&self) -> (u64, u64) {
        (
            self.busy_ns.swap(0, Ordering::Relaxed),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

impl KeyExtractor for ExtractProbe {
    fn shard_key(&self, ev: &Event) -> u64 {
        let t = Instant::now();
        let key = self.inner.shard_key(ev);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        key
    }
}

/// Wraps the workload's `MatchSink`: one `sink` span per delivered
/// batch (recorded from the worker thread) plus match/batch counts.
pub struct SinkProbe {
    inner: Arc<dyn MatchSink>,
    tracer: Arc<Tracer>,
    parent: SpanId,
    pub matches: AtomicU64,
    pub batches: AtomicU64,
}

impl SinkProbe {
    pub fn new(inner: Arc<dyn MatchSink>, tracer: Arc<Tracer>, parent: SpanId) -> Arc<Self> {
        Arc::new(Self {
            inner,
            tracer,
            parent,
            matches: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        })
    }
}

impl MatchSink for SinkProbe {
    fn on_match(&self, m: TaggedMatch) {
        self.on_batch(vec![m]);
    }

    fn on_batch(&self, ms: Vec<TaggedMatch>) {
        self.matches.fetch_add(ms.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let start = self.tracer.now_ns();
        self.inner.on_batch(ms);
        let busy = self.tracer.now_ns() - start;
        self.tracer.record("sink", self.parent, start, busy, 1);
    }

    fn on_late(&self, late: acep_stream::LateEvent) {
        self.inner.on_late(late);
    }
}
