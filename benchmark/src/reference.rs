//! The correctness check: an order-independent fingerprint of a match
//! multiset, a sink that computes it from the runtime's output, and a
//! reference evaluator that computes it from the declarative side.
//!
//! The reference is independent of everything the benchmark measures:
//! no runtime, no adaptation, no planner — per key, one
//! `StaticEngine` on declaration-order (identity) plans over the
//! `(timestamp, seq)`-sorted stream.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acep_engine::{Match, StaticEngine};
use acep_stream::{KeyExtractor, MatchSink, SourceId, TaggedMatch};
use acep_types::{Event, Pattern};

/// Count plus wrapping sum of `hash(query, key, MatchKey)`: equal for
/// equal multisets whatever the emission order or plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    pub sum: u64,
}

impl Fingerprint {
    fn add(&mut self, query: u32, key: u64, m: &Match) {
        let mut h = DefaultHasher::new();
        (query, key, m.key()).hash(&mut h);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    /// Number of matches by which two fingerprints provably differ:
    /// the count difference, or 1 when equal counts hash differently.
    pub fn differences(&self, other: &Fingerprint) -> u64 {
        match self.count.abs_diff(other.count) {
            0 => u64::from(self.sum != other.sum),
            d => d,
        }
    }
}

/// A `MatchSink` that folds every delivered match into a
/// [`Fingerprint`] (constant memory).
#[derive(Default)]
pub struct FingerprintSink {
    count: AtomicU64,
    sum: AtomicU64,
}

impl FingerprintSink {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl MatchSink for FingerprintSink {
    fn on_match(&self, m: TaggedMatch) {
        let mut one = Fingerprint::default();
        one.add(m.query.0, m.key, &m.matched);
        self.count.fetch_add(one.count, Ordering::Relaxed);
        self.sum.fetch_add(one.sum, Ordering::Relaxed);
    }
}

/// Fingerprint of matches produced outside the runtime (the
/// single-thread `AdaptiveCep` reps): query 0, constant key 0 — the
/// same tags the runtime assigns when it hosts an `adapt_*` workload.
pub fn fingerprint_of(matches: &[Match]) -> Fingerprint {
    let mut fp = Fingerprint::default();
    for m in matches {
        fp.add(0, 0, m);
    }
    fp
}

/// Evaluates the declarative reference over `events`.
pub fn evaluate(
    events: &[(SourceId, Arc<Event>)],
    queries: &[(&'static str, Pattern)],
    extractor: &dyn KeyExtractor,
) -> Fingerprint {
    let mut sorted: Vec<&Arc<Event>> = events.iter().map(|(_, ev)| ev).collect();
    sorted.sort_by_key(|ev| (ev.timestamp, ev.seq));

    let new_engines = || -> Vec<StaticEngine> {
        queries
            .iter()
            .map(|(_, p)| {
                StaticEngine::with_identity_plans(p.canonical()).expect("workload pattern compiles")
            })
            .collect()
    };
    let mut per_key: HashMap<u64, Vec<StaticEngine>> = HashMap::new();
    let mut fp = Fingerprint::default();
    let mut out = Vec::new();
    let absorb = |fp: &mut Fingerprint, q: usize, key: u64, out: &mut Vec<Match>| {
        for m in out.drain(..) {
            fp.add(q as u32, key, &m);
        }
    };
    for ev in sorted {
        let key = extractor.shard_key(ev);
        let engines = per_key.entry(key).or_insert_with(new_engines);
        for (q, engine) in engines.iter_mut().enumerate() {
            engine.on_event(ev, &mut out);
            absorb(&mut fp, q, key, &mut out);
        }
    }
    for (key, engines) in &mut per_key {
        for (q, engine) in engines.iter_mut().enumerate() {
            engine.finish(&mut out);
            absorb(&mut fp, q, *key, &mut out);
        }
    }
    fp
}
