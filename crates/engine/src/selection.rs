//! Executable selection-policy semantics (see
//! [`acep_types::SelectionPolicy`]).
//!
//! Restrictive policies are implemented as *filters over the
//! skip-till-any match set*, applied when the finalizer emits: the
//! executors find exactly the combinations they always found, and
//! [`validate`] rejects those a stricter policy forbids. Because the
//! filter only looks at the match itself plus the [`SeenLog`] of
//! engine-delivered events — never at the evaluation plan — every plan
//! (any order, any tree) emits the identical multiset, which is what the
//! per-policy differential oracles pin.
//!
//! On top of the emit-time filter, the executors call the conservative
//! [`prune_extension`]/[`prune_join`] helpers on the extension hot path:
//! they drop a partial only when *every* completion of it provably fails
//! [`validate`], so pruning changes stored-partial counts (the point —
//! it collapses `partials_live` on low-selectivity patterns) but never
//! the emitted multiset.
//!
//! # Definitions
//!
//! Let `M` be a candidate match: its join events plus its collected
//! Kleene events ("members"), and let the engine-visible stream be the
//! events delivered to this engine in `(timestamp, seq)` order (the
//! reorder stage guarantees in-order delivery; in the sharded runtime
//! each query only receives events of types relevant to it).
//!
//! * **Strict contiguity** (sequences and conjunctions uniformly): no
//!   engine-visible non-member may fall strictly between `M`'s first and
//!   last member.
//! * **Skip-till-next** (sequence): for each pair of consecutive
//!   pattern-order join events `(p, c)` where `c` fills slot `s`, no
//!   engine-visible non-member strictly between `p` and `c` may
//!   *qualify* for `s` — same event type, unary predicates pass, and
//!   pairwise predicates against every earlier join slot pass under
//!   `M`'s bindings. Members (including Kleene events) never break
//!   their own match, which keeps strict ⊆ next.
//! * **Skip-till-next** (conjunction): order `M`'s join events by
//!   arrival; in each gap between consecutive ones, no non-member may
//!   qualify for any still-unbound join slot (predicates against the
//!   already-arrived prefix only).
//!
//! Negation guards, Kleene collection (always the maximal qualifying
//! set), window checks, and general conditions are policy-independent.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use acep_types::{Event, SelectionPolicy, SubKind, Timestamp};

use crate::context::ExecContext;
use crate::finalize::Completed;
use crate::partial::{Partial, PartialStore};

/// Stream-order key: the same `(timestamp, seq)` order as
/// [`ExecContext::before`].
pub type StreamKey = (Timestamp, u64);

/// The stream-order key of an event.
#[inline]
pub fn stream_key(ev: &Event) -> StreamKey {
    (ev.timestamp, ev.seq)
}

/// Ordered log of every event delivered to one engine, kept only when
/// the policy is restrictive (the default skip-till-any path never
/// allocates one).
///
/// Retention is driven by the finalizer: events are dropped once they
/// are older than both `now − 2W` and `W` before the earliest pending
/// match's `min_ts`, which keeps every event a pending or future match
/// could need to inspect (members lie within `W` of the match span, so
/// interposers do too).
#[derive(Debug, Clone, Default)]
pub struct SeenLog {
    buf: VecDeque<Arc<Event>>,
}

impl SeenLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records a delivered event. Appending is O(1) for in-order
    /// delivery; an out-of-order straggler is insert-sorted. Pushing an
    /// event whose `(timestamp, seq)` key is already present is a no-op,
    /// so merging two logs of the same stream never duplicates entries.
    pub fn push(&mut self, ev: Arc<Event>) {
        let k = stream_key(&ev);
        match self.buf.back() {
            Some(b) if stream_key(b) == k => {}
            Some(b) if stream_key(b) < k => self.buf.push_back(ev),
            None => self.buf.push_back(ev),
            _ => {
                let idx = self.buf.partition_point(|e| stream_key(e) <= k);
                if idx == 0 || stream_key(&self.buf[idx - 1]) != k {
                    self.buf.insert(idx, ev);
                }
            }
        }
    }

    /// Iterates retained events in stream order (oldest first) — the
    /// order a checkpoint serializes and [`push`](Self::push) replays.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Event>> {
        self.buf.iter()
    }

    /// Drops events with `timestamp < cutoff`.
    pub fn prune(&mut self, cutoff: Timestamp) {
        while self.buf.front().is_some_and(|e| e.timestamp < cutoff) {
            self.buf.pop_front();
        }
    }

    /// Events strictly between two stream positions (both exclusive).
    pub fn between(&self, lo: StreamKey, hi: StreamKey) -> impl Iterator<Item = &Arc<Event>> {
        let start = self.buf.partition_point(|e| stream_key(e) <= lo);
        let end = self.buf.partition_point(|e| stream_key(e) < hi);
        self.buf.range(start..end.max(start))
    }

    /// True if any event lies strictly between the two positions.
    pub fn any_between(&self, lo: StreamKey, hi: StreamKey) -> bool {
        self.between(lo, hi).next().is_some()
    }
}

/// A [`SeenLog`] shared by every restrictive-policy finalizer evaluating
/// the same partition key.
///
/// All branch executors of a keyed engine — and all generations of a
/// migrating executor — receive the identical event stream, so their
/// private seen logs were byte-for-byte copies of each other's suffix.
/// A `SharedSeen` stores that log once per key; each holder is a
/// *sharer* with its own requested prune cutoff, and the ring only drops
/// events older than the minimum cutoff across sharers, so no finalizer
/// loses an event it could still inspect. Cloning a handle registers a
/// new sharer (inheriting the source's cutoff); dropping one deregisters
/// it.
///
/// The interior mutex is uncontended in practice — a key is owned by one
/// shard worker — and exists only to keep executors `Send`.
#[derive(Debug)]
pub struct SharedSeen {
    state: Arc<Mutex<SharedSeenState>>,
    id: u64,
}

#[derive(Debug)]
struct SharedSeenState {
    log: SeenLog,
    /// `(sharer id, requested prune cutoff)` pairs; the log prunes to
    /// the minimum so the slowest sharer bounds retention.
    cutoffs: Vec<(u64, Timestamp)>,
    next_id: u64,
}

/// Read guard over a [`SharedSeen`]'s log, dereferencing to
/// [`SeenLog`] so the policy helpers take it unchanged.
pub struct SeenRef<'a>(std::sync::MutexGuard<'a, SharedSeenState>);

impl std::ops::Deref for SeenRef<'_> {
    type Target = SeenLog;

    fn deref(&self) -> &SeenLog {
        &self.0.log
    }
}

fn lock_state(state: &Mutex<SharedSeenState>) -> std::sync::MutexGuard<'_, SharedSeenState> {
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SharedSeen {
    /// A fresh ring with this handle as its only sharer.
    pub fn new() -> Self {
        Self {
            state: Arc::new(Mutex::new(SharedSeenState {
                log: SeenLog::new(),
                cutoffs: vec![(0, 0)],
                next_id: 1,
            })),
            id: 0,
        }
    }

    /// True if both handles view the same underlying ring.
    pub fn same_ring(&self, other: &SharedSeen) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// Records a delivered event (idempotent across sharers: the first
    /// sharer to push a given `(timestamp, seq)` wins, the rest no-op).
    pub fn push(&self, ev: Arc<Event>) {
        lock_state(&self.state).log.push(ev);
    }

    /// Sets this sharer's prune cutoff and drops events older than the
    /// minimum cutoff across all sharers.
    pub fn prune(&self, cutoff: Timestamp) {
        let mut st = lock_state(&self.state);
        if let Some(entry) = st.cutoffs.iter_mut().find(|(id, _)| *id == self.id) {
            entry.1 = cutoff;
        }
        if let Some(min) = st.cutoffs.iter().map(|&(_, c)| c).min() {
            st.log.prune(min);
        }
    }

    /// Locks the ring for reading.
    pub fn read(&self) -> SeenRef<'_> {
        SeenRef(lock_state(&self.state))
    }
}

impl Default for SharedSeen {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for SharedSeen {
    fn clone(&self) -> Self {
        let mut st = lock_state(&self.state);
        let inherited = st
            .cutoffs
            .iter()
            .find(|(id, _)| *id == self.id)
            .map_or(0, |&(_, c)| c);
        let id = st.next_id;
        st.next_id += 1;
        st.cutoffs.push((id, inherited));
        drop(st);
        Self {
            state: Arc::clone(&self.state),
            id,
        }
    }
}

impl Drop for SharedSeen {
    fn drop(&mut self) {
        lock_state(&self.state)
            .cutoffs
            .retain(|(id, _)| *id != self.id);
    }
}

/// Sorted member `seq`s of a match (join events + collected Kleene
/// events), for O(log n) membership checks.
fn member_seqs(completed: &Completed, kleene_sets: &[Vec<Arc<Event>>]) -> Vec<u64> {
    let mut seqs: Vec<u64> = completed.events.iter().flatten().map(|e| e.seq).collect();
    seqs.extend(kleene_sets.iter().flatten().map(|e| e.seq));
    seqs.sort_unstable();
    seqs
}

/// Emit-time policy check: does the match survive `ctx.policy`?
///
/// This is the semantic truth the differential oracles replicate; the
/// prune helpers below may only reject what this function rejects.
pub fn validate(
    ctx: &ExecContext,
    completed: &Completed,
    kleene_sets: &[Vec<Arc<Event>>],
    seen: &SeenLog,
) -> bool {
    match ctx.policy {
        SelectionPolicy::SkipTillAny => true,
        SelectionPolicy::StrictContiguity => validate_strict(completed, kleene_sets, seen),
        SelectionPolicy::SkipTillNext => match ctx.kind {
            SubKind::Sequence => validate_next_seq(ctx, completed, kleene_sets, seen),
            SubKind::Conjunction => validate_next_conj(ctx, completed, kleene_sets, seen),
        },
    }
}

fn validate_strict(completed: &Completed, kleene_sets: &[Vec<Arc<Event>>], seen: &SeenLog) -> bool {
    let mut span: Option<(StreamKey, StreamKey)> = None;
    for e in completed
        .events
        .iter()
        .flatten()
        .chain(kleene_sets.iter().flatten())
    {
        let k = stream_key(e);
        span = Some(span.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))));
    }
    let Some((lo, hi)) = span else {
        return true;
    };
    let members = member_seqs(completed, kleene_sets);
    seen.between(lo, hi)
        .all(|g| members.binary_search(&g.seq).is_ok())
}

fn validate_next_seq(
    ctx: &ExecContext,
    completed: &Completed,
    kleene_sets: &[Vec<Arc<Event>>],
    seen: &SeenLog,
) -> bool {
    let members = member_seqs(completed, kleene_sets);
    let mut prev: Option<&Arc<Event>> = None;
    for &slot in &ctx.join_slots {
        let cur = completed.events[slot].as_ref().expect("join slot bound");
        if let Some(p) = prev {
            for g in seen.between(stream_key(p), stream_key(cur)) {
                if members.binary_search(&g.seq).is_ok() {
                    continue;
                }
                if qualifies(ctx, &completed.events, slot, &slot_prefix(ctx, slot), g) {
                    return false;
                }
            }
        }
        prev = Some(cur);
    }
    true
}

fn validate_next_conj(
    ctx: &ExecContext,
    completed: &Completed,
    kleene_sets: &[Vec<Arc<Event>>],
    seen: &SeenLog,
) -> bool {
    let members = member_seqs(completed, kleene_sets);
    // Join slots in arrival order of their bound events.
    let mut order: Vec<usize> = ctx.join_slots.clone();
    order.sort_by_key(|&s| stream_key(completed.events[s].as_ref().expect("join slot bound")));
    for j in 0..order.len().saturating_sub(1) {
        let lo = stream_key(
            completed.events[order[j]]
                .as_ref()
                .expect("join slot bound"),
        );
        let hi = stream_key(
            completed.events[order[j + 1]]
                .as_ref()
                .expect("join slot bound"),
        );
        for g in seen.between(lo, hi) {
            if members.binary_search(&g.seq).is_ok() {
                continue;
            }
            for &s in &order[j + 1..] {
                if qualifies(ctx, &completed.events, s, &order[..=j], g) {
                    return false;
                }
            }
        }
    }
    true
}

/// Join slots strictly before `slot` in pattern order.
fn slot_prefix(ctx: &ExecContext, slot: usize) -> Vec<usize> {
    ctx.join_slots
        .iter()
        .copied()
        .take_while(|&js| js < slot)
        .collect()
}

/// Could `g` have filled join `slot` — right type, unary predicates
/// pass, and pairwise predicates against the `bound` slots pass under
/// the match's bindings?
fn qualifies(
    ctx: &ExecContext,
    events: &[Option<Arc<Event>>],
    slot: usize,
    bound: &[usize],
    g: &Arc<Event>,
) -> bool {
    g.type_id == ctx.slot_types[slot]
        && ctx.unary_ok(slot, g)
        && bound.iter().all(|&bs| {
            let b = events[bs].as_ref().expect("join slot bound");
            ctx.pair_ok(slot, g, bs, b)
        })
}

/// Conservative hot-path filter for the order executor: may `partial`
/// extended with `ev` at `slot` be dropped because every completion of
/// it would fail [`validate`]?
///
/// Soundness rests on two facts proved slot-locally for sequences:
/// between two *pattern-adjacent* join slots no member of the eventual
/// match can interpose (other join events are temporally outside the
/// pair, Kleene events are confined between their own anchors), and a
/// skip-till-next breaker must be checked against every predicate the
/// emit-time rule checks — so next-pruning only fires when all earlier
/// pred-bearing join slots are already bound. Conjunctions are
/// validation-only (their gap structure depends on the full match).
pub fn prune_extension(
    ctx: &ExecContext,
    seen: &SeenLog,
    store: &PartialStore,
    partial: &Partial,
    slot: usize,
    ev: &Arc<Event>,
) -> bool {
    if ctx.kind != SubKind::Sequence {
        return false;
    }
    match ctx.policy {
        SelectionPolicy::SkipTillAny => false,
        SelectionPolicy::StrictContiguity => {
            for (s, b) in partial.chain(store) {
                if s + 1 != slot && slot + 1 != s {
                    continue;
                }
                let (lo, hi) = if s < slot {
                    (stream_key(b), stream_key(ev))
                } else {
                    (stream_key(ev), stream_key(b))
                };
                if seen.any_between(lo, hi) {
                    return true;
                }
            }
            false
        }
        SelectionPolicy::SkipTillNext => {
            if slot == 0 || ctx.kleene[slot - 1] {
                return false;
            }
            let Some(prev) = partial.event_at(store, slot - 1) else {
                return false;
            };
            if !pred_bearing_prefix_bound(ctx, slot, |js| partial.event_at(store, js).is_some()) {
                return false;
            }
            seen.between(stream_key(prev), stream_key(ev))
                .any(|g| chain_qualifies(ctx, slot, g, partial.chain(store)))
        }
    }
}

/// Conservative hot-path filter for the tree executor: may the join of
/// `a` and `b` be dropped? Same soundness argument as
/// [`prune_extension`], applied to cross pairs of the two chains.
pub fn prune_join(
    ctx: &ExecContext,
    seen: &SeenLog,
    store: &PartialStore,
    a: &Partial,
    b: &Partial,
) -> bool {
    if ctx.kind != SubKind::Sequence {
        return false;
    }
    match ctx.policy {
        SelectionPolicy::SkipTillAny => false,
        SelectionPolicy::StrictContiguity => {
            for (s, ea) in a.chain(store) {
                for (t, eb) in b.chain(store) {
                    if s + 1 != t && t + 1 != s {
                        continue;
                    }
                    let (lo, hi) = if s < t {
                        (stream_key(ea), stream_key(eb))
                    } else {
                        (stream_key(eb), stream_key(ea))
                    };
                    if seen.any_between(lo, hi) {
                        return true;
                    }
                }
            }
            false
        }
        SelectionPolicy::SkipTillNext => {
            prune_next_cross(ctx, seen, store, a, b) || prune_next_cross(ctx, seen, store, b, a)
        }
    }
}

/// Skip-till-next breaker search across `(t − 1 bound in a, t bound in
/// b)` pairs.
fn prune_next_cross(
    ctx: &ExecContext,
    seen: &SeenLog,
    store: &PartialStore,
    a: &Partial,
    b: &Partial,
) -> bool {
    for (t, eb) in b.chain(store) {
        if t == 0 || ctx.kleene[t - 1] {
            continue;
        }
        let Some(ea) = a.event_at(store, t - 1) else {
            continue;
        };
        if !pred_bearing_prefix_bound(ctx, t, |js| {
            a.event_at(store, js).is_some() || b.event_at(store, js).is_some()
        }) {
            continue;
        }
        if seen
            .between(stream_key(ea), stream_key(eb))
            .any(|g| chain_qualifies(ctx, t, g, a.chain(store).chain(b.chain(store))))
        {
            return true;
        }
    }
    false
}

/// Every join slot before `slot` that carries pairwise predicates with
/// it satisfies `is_bound` (otherwise a breaker cannot be fully
/// checked and pruning would be unsound).
fn pred_bearing_prefix_bound(
    ctx: &ExecContext,
    slot: usize,
    is_bound: impl Fn(usize) -> bool,
) -> bool {
    ctx.join_slots
        .iter()
        .copied()
        .take_while(|&js| js < slot)
        .all(|js| !ctx.has_pair(slot, js) || is_bound(js))
}

/// [`qualifies`] for the hot-path filters: is `g` a skipped non-member
/// that could have filled join `slot` given the join events bound so
/// far? One walk over `chain` (the bindings of the partial, or of both
/// join sides) checks membership and the pairwise conditions against
/// every earlier slot.
fn chain_qualifies<'a>(
    ctx: &ExecContext,
    slot: usize,
    g: &Event,
    mut chain: impl Iterator<Item = (usize, &'a Arc<Event>)>,
) -> bool {
    g.type_id == ctx.slot_types[slot]
        && ctx.unary_ok(slot, g)
        && chain.all(|(s, b)| b.seq != g.seq && (s >= slot || ctx.pair_ok(slot, g, s, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::{EventTypeId, Pattern, PatternExpr, Value};

    fn t(i: u32) -> EventTypeId {
        EventTypeId(i)
    }

    fn ev(tid: u32, ts: u64, seq: u64, v: i64) -> Arc<Event> {
        Event::new(t(tid), ts, seq, vec![Value::Int(v)])
    }

    fn ctx_for(p: &Pattern) -> Arc<ExecContext> {
        ExecContext::compile_with_policy(&p.canonical().branches[0], p.policy).unwrap()
    }

    fn completed(ctx: &ExecContext, bindings: &[(usize, Arc<Event>)]) -> Completed {
        let mut store = PartialStore::new();
        let (slot0, ev0) = bindings.first().expect("at least one binding");
        let mut p = Partial::seed(&mut store, *slot0, Arc::clone(ev0));
        for (slot, e) in &bindings[1..] {
            p = p.extend(&mut store, *slot, Arc::clone(e));
        }
        Completed::from_partial(&store, &p, ctx.n)
    }

    fn log_of(events: &[Arc<Event>]) -> SeenLog {
        let mut log = SeenLog::new();
        for e in events {
            log.push(Arc::clone(e));
        }
        log
    }

    #[test]
    fn seen_log_orders_and_prunes() {
        let mut log = SeenLog::new();
        log.push(ev(0, 10, 0, 0));
        log.push(ev(0, 30, 2, 0));
        log.push(ev(0, 20, 1, 0)); // straggler insert-sorted
        assert_eq!(log.len(), 3);
        let between: Vec<u64> = log.between((10, 0), (30, 2)).map(|e| e.seq).collect();
        assert_eq!(between, vec![1]);
        assert!(!log.any_between((20, 1), (30, 2)));
        log.prune(25);
        assert_eq!(log.len(), 1);
        log.prune(100);
        assert!(log.is_empty());
    }

    #[test]
    fn seen_log_push_is_idempotent() {
        let mut log = SeenLog::new();
        log.push(ev(0, 10, 0, 0));
        log.push(ev(0, 10, 0, 0)); // duplicate tail
        log.push(ev(0, 30, 2, 0));
        log.push(ev(0, 20, 1, 0));
        log.push(ev(0, 20, 1, 0)); // duplicate straggler
        assert_eq!(log.len(), 3);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn shared_seen_prunes_to_slowest_sharer() {
        let a = SharedSeen::new();
        let b = a.clone();
        a.push(ev(0, 10, 0, 0));
        b.push(ev(0, 10, 0, 0)); // deduped
        a.push(ev(0, 20, 1, 0));
        assert_eq!(a.read().len(), 2);
        assert!(a.same_ring(&b));
        // One sharer wants to drop everything, the other still needs
        // ts ≥ 10: the ring keeps both events.
        a.prune(100);
        b.prune(10);
        assert_eq!(b.read().len(), 2);
        // Once the slow sharer leaves, the next prune applies the
        // remaining minimum.
        drop(b);
        a.prune(100);
        assert!(a.read().is_empty());
    }

    #[test]
    fn strict_rejects_interposed_foreign_event() {
        let p = Pattern::sequence("p", &[t(0), t(1)], 100)
            .with_policy(SelectionPolicy::StrictContiguity);
        let ctx = ctx_for(&p);
        let a = ev(0, 10, 0, 0);
        let b = ev(1, 30, 2, 0);
        let noise = ev(5, 20, 1, 0);
        let c = completed(&ctx, &[(0, Arc::clone(&a)), (1, Arc::clone(&b))]);
        let log = log_of(&[Arc::clone(&a), noise, Arc::clone(&b)]);
        assert!(!validate(&ctx, &c, &[], &log));
        let clean = log_of(&[a, b]);
        assert!(validate(&ctx, &c, &[], &clean));
    }

    #[test]
    fn strict_tolerates_kleene_members_inside_span() {
        // SEQ(A, B*, C): collected Bs sit inside the span but are members.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .window(100)
            .policy(SelectionPolicy::StrictContiguity)
            .build()
            .unwrap();
        let ctx = ctx_for(&p);
        let a = ev(0, 10, 0, 0);
        let k = ev(1, 20, 1, 0);
        let c = ev(2, 30, 2, 0);
        let comp = completed(&ctx, &[(0, Arc::clone(&a)), (2, Arc::clone(&c))]);
        let log = log_of(&[a, Arc::clone(&k), c]);
        assert!(validate(&ctx, &comp, &[vec![k]], &log));
    }

    #[test]
    fn next_rejects_skipped_qualifying_candidate_only() {
        // SEQ(A, B) with B.x > 0: a skipped qualifying B breaks the
        // match, a disqualified one does not.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
            ]))
            .condition(acep_types::attr(1, 0).gt(acep_types::constant(0)))
            .window(100)
            .policy(SelectionPolicy::SkipTillNext)
            .build()
            .unwrap();
        let ctx = ctx_for(&p);
        let a = ev(0, 10, 0, 0);
        let b = ev(1, 40, 3, 5);
        let comp = completed(&ctx, &[(0, Arc::clone(&a)), (1, Arc::clone(&b))]);
        let skipped_ok = ev(1, 20, 1, 5); // qualifies → breaks
        let skipped_bad = ev(1, 30, 2, -1); // fails unary → harmless
        let log = log_of(&[Arc::clone(&a), Arc::clone(&skipped_bad), Arc::clone(&b)]);
        assert!(validate(&ctx, &comp, &[], &log));
        let log2 = log_of(&[a, skipped_ok, skipped_bad, b]);
        assert!(!validate(&ctx, &comp, &[], &log2));
    }

    #[test]
    fn next_ignores_events_before_first_join() {
        let p =
            Pattern::sequence("p", &[t(0), t(1)], 100).with_policy(SelectionPolicy::SkipTillNext);
        let ctx = ctx_for(&p);
        let early = ev(1, 5, 0, 0); // a B before A — skip-till-next allows skipping it
        let a = ev(0, 10, 1, 0);
        let b = ev(1, 30, 2, 0);
        let comp = completed(&ctx, &[(0, Arc::clone(&a)), (1, Arc::clone(&b))]);
        let log = log_of(&[early, a, b]);
        assert!(validate(&ctx, &comp, &[], &log));
    }

    #[test]
    fn next_conjunction_gap_rule() {
        // AND(A, B): after A arrives, a skipped B breaks the match built
        // on a later B.
        let p = Pattern::conjunction("p", &[t(0), t(1)], 100)
            .with_policy(SelectionPolicy::SkipTillNext);
        let ctx = ctx_for(&p);
        let a = ev(0, 10, 0, 0);
        let skipped = ev(1, 20, 1, 0);
        let b = ev(1, 30, 2, 0);
        let comp = completed(&ctx, &[(0, Arc::clone(&a)), (1, Arc::clone(&b))]);
        let log = log_of(&[Arc::clone(&a), skipped, Arc::clone(&b)]);
        assert!(!validate(&ctx, &comp, &[], &log));
        // Without the skipped B it survives.
        let clean = log_of(&[a, b]);
        assert!(validate(&ctx, &comp, &[], &clean));
    }

    #[test]
    fn prune_extension_agrees_with_validation() {
        let p = Pattern::sequence("p", &[t(0), t(1)], 100)
            .with_policy(SelectionPolicy::StrictContiguity);
        let ctx = ctx_for(&p);
        let a = ev(0, 10, 0, 0);
        let noise = ev(5, 20, 1, 0);
        let b = ev(1, 30, 2, 0);
        let log = log_of(&[Arc::clone(&a), noise, Arc::clone(&b)]);
        let mut store = PartialStore::new();
        let partial = Partial::seed(&mut store, 0, Arc::clone(&a));
        assert!(prune_extension(&ctx, &log, &store, &partial, 1, &b));
        // Without the interposer the extension survives.
        let clean = log_of(&[Arc::clone(&a), Arc::clone(&b)]);
        assert!(!prune_extension(&ctx, &clean, &store, &partial, 1, &b));
    }

    #[test]
    fn prune_join_detects_cross_pair_interposer() {
        let p =
            Pattern::sequence("p", &[t(0), t(1)], 100).with_policy(SelectionPolicy::SkipTillNext);
        let ctx = ctx_for(&p);
        let a = ev(0, 10, 0, 0);
        let skipped = ev(1, 20, 1, 0);
        let b = ev(1, 30, 2, 0);
        let log = log_of(&[Arc::clone(&a), skipped, Arc::clone(&b)]);
        let mut store = PartialStore::new();
        let pa = Partial::seed(&mut store, 0, Arc::clone(&a));
        let pb = Partial::seed(&mut store, 1, Arc::clone(&b));
        assert!(prune_join(&ctx, &log, &store, &pa, &pb));
        let clean = log_of(&[Arc::clone(&a), Arc::clone(&b)]);
        assert!(!prune_join(&ctx, &clean, &store, &pa, &pb));
    }

    #[test]
    fn next_prune_requires_pred_bearing_prefix_bound() {
        // SEQ(A, B, C) with a predicate between A and C: pruning a
        // (B,) → (B,C) extension may not fire while A is unbound.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
                PatternExpr::prim(t(2)),
            ]))
            .condition(acep_types::attr(0, 0).lt(acep_types::attr(2, 0)))
            .window(100)
            .policy(SelectionPolicy::SkipTillNext)
            .build()
            .unwrap();
        let ctx = ctx_for(&p);
        let b = ev(1, 20, 1, 0);
        let skipped_c = ev(2, 25, 2, 0);
        let c = ev(2, 30, 3, 9);
        let log = log_of(&[Arc::clone(&b), skipped_c, Arc::clone(&c)]);
        let mut store = PartialStore::new();
        let partial = Partial::seed(&mut store, 1, Arc::clone(&b));
        // Slot 0 (A) carries a predicate with slot 2 and is unbound:
        // the skipped C cannot be proven qualifying → no pruning.
        assert!(!prune_extension(&ctx, &log, &store, &partial, 2, &c));
    }
}
