//! Time-ordered event histories.
//!
//! Every history the engine scans — the executors' per-slot buffers,
//! the finalizer's negation and Kleene candidates, the
//! restrictive-policy seen log — is an [`EventBuffer`]: events kept in
//! stream order ([`StreamKey`]) *by construction*, because a push
//! inserts in order rather than appending. A scan whose candidates are
//! confined to a time interval (the window around a partial, a `SEQ`
//! neighbour, a negation anchor) therefore reads only the contiguous
//! [`EventBuffer::slice`] for that interval's [`KeySpan`], found by
//! binary search.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use acep_checkpoint::{BufferRec, CheckpointError, EventMap, EventTable};
use acep_types::{Event, Timestamp};

/// Stream-order key: the same `(timestamp, seq)` order as
/// [`ExecContext::before`](crate::ExecContext::before).
pub type StreamKey = (Timestamp, u64);

/// The stream-order key of an event.
#[inline]
pub fn stream_key(ev: &Event) -> StreamKey {
    (ev.timestamp, ev.seq)
}

/// A closed interval `[lo, hi]` of stream keys: the time bounds of one
/// history scan. Empty when `lo > hi`.
///
/// A scan's span need only be *sound*: it may keep a candidate the full
/// test rejects, never drop one the test would accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpan {
    /// Smallest key inside.
    pub lo: StreamKey,
    /// Largest key inside.
    pub hi: StreamKey,
}

impl KeySpan {
    /// Every key.
    pub const ALL: KeySpan = KeySpan {
        lo: (0, 0),
        hi: (Timestamp::MAX, u64::MAX),
    };

    /// No key.
    const EMPTY: KeySpan = KeySpan {
        lo: (Timestamp::MAX, u64::MAX),
        hi: (0, 0),
    };

    /// The keys with a timestamp in `[from, to]`.
    pub fn timestamps(from: Timestamp, to: Timestamp) -> Self {
        Self {
            lo: (from, 0),
            hi: (to, u64::MAX),
        }
    }

    /// Keeps the keys strictly after `k`.
    pub fn after(self, k: StreamKey) -> Self {
        let next = match k {
            (ts, seq) if seq < u64::MAX => (ts, seq + 1),
            (ts, _) if ts < Timestamp::MAX => (ts + 1, 0),
            _ => return Self::EMPTY,
        };
        Self {
            lo: self.lo.max(next),
            ..self
        }
    }

    /// Keeps the keys strictly before `k`.
    pub fn before(self, k: StreamKey) -> Self {
        let prev = match k {
            (ts, seq) if seq > 0 => (ts, seq - 1),
            (ts, _) if ts > 0 => (ts - 1, u64::MAX),
            _ => return Self::EMPTY,
        };
        Self {
            hi: self.hi.min(prev),
            ..self
        }
    }

    /// True if `k` lies inside.
    #[inline]
    pub fn contains(&self, k: StreamKey) -> bool {
        self.lo <= k && k <= self.hi
    }
}

/// A window-bounded history of events in stream order.
///
/// [`push`](Self::push) inserts in `(timestamp, seq)` order — an O(1)
/// append for in-order delivery, a binary-searched insert for a
/// straggler — and is a no-op for a key already present, so the buffer
/// is sorted and duplicate-free whatever the arrival order. Expiry pops
/// from the front: events more than `window` older than the newest push
/// go first.
#[derive(Debug, Clone)]
pub struct EventBuffer {
    window: Timestamp,
    buf: VecDeque<Arc<Event>>,
}

impl EventBuffer {
    /// Creates a buffer retaining `window` ms of history.
    pub fn new(window: Timestamp) -> Self {
        Self {
            window,
            buf: VecDeque::new(),
        }
    }

    /// Inserts an event in stream order and expires stale ones relative
    /// to its timestamp.
    pub fn push(&mut self, ev: Arc<Event>) {
        let now = ev.timestamp;
        self.insert(ev);
        self.expire(now);
    }

    /// Inserts an event in stream order without expiring anything. A key
    /// already present is left as it is.
    pub fn insert(&mut self, ev: Arc<Event>) {
        let k = stream_key(&ev);
        match self.buf.back().map(|b| stream_key(b)) {
            None => self.buf.push_back(ev),
            Some(back) if back < k => self.buf.push_back(ev),
            Some(back) if back == k => {}
            Some(_) => {
                let idx = self.buf.partition_point(|e| stream_key(e) < k);
                if stream_key(&self.buf[idx]) != k {
                    self.buf.insert(idx, ev);
                }
            }
        }
    }

    /// Drops events older than `now − window`.
    pub fn expire(&mut self, now: Timestamp) {
        // Keep events exactly `window` old: spans are inclusive.
        self.prune(now.saturating_sub(self.window));
    }

    /// Drops events with `timestamp < cutoff`.
    pub fn prune(&mut self, cutoff: Timestamp) {
        while self.buf.front().is_some_and(|e| e.timestamp < cutoff) {
            self.buf.pop_front();
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Checkpoint record of this buffer: its events' seqs, oldest first,
    /// each interned into `table`.
    pub(crate) fn export_rec(&self, table: &mut EventTable) -> BufferRec {
        BufferRec {
            seqs: self.iter().map(|e| table.intern(e)).collect(),
        }
    }

    /// Replaces the contents with the events of a record written by
    /// [`export_rec`](Self::export_rec), replayed as pushes in stream
    /// order — the operations that built the original — so retention is
    /// reproduced exactly.
    pub(crate) fn import_rec(
        &mut self,
        rec: &BufferRec,
        events: &EventMap,
    ) -> Result<(), CheckpointError> {
        self.buf.clear();
        for &seq in &rec.seqs {
            self.push(events.get(seq)?);
        }
        Ok(())
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Event>> {
        self.buf.iter()
    }

    /// Iterates the events at the positions `range` (oldest first).
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = &Arc<Event>> {
        self.buf.range(range)
    }

    /// Positions of the events whose key lies in `span`.
    ///
    /// An end of the buffer that already lies inside the span is taken
    /// as it is; only an end the span cuts costs a binary search. A span
    /// covering the whole buffer — the common case for scans whose only
    /// bound is the window — is answered from the two end keys.
    pub fn slice(&self, span: &KeySpan) -> Range<usize> {
        let (Some(front), Some(back)) = (self.buf.front(), self.buf.back()) else {
            return 0..0;
        };
        let (front, back) = (stream_key(front), stream_key(back));
        let len = self.buf.len();
        let start = if front >= span.lo {
            0
        } else if back < span.lo {
            len
        } else {
            self.buf.partition_point(|e| stream_key(e) < span.lo)
        };
        let end = if back <= span.hi {
            len
        } else if front > span.hi {
            0
        } else {
            self.buf.partition_point(|e| stream_key(e) <= span.hi)
        };
        start..end.max(start)
    }

    /// Debug builds: panics if `passes` accepts an event outside
    /// `range` — the soundness contract of a time-bounded scan, checked
    /// against the full candidate test. Release builds: nothing.
    #[inline]
    pub(crate) fn debug_assert_sound(
        &self,
        range: &Range<usize>,
        passes: impl Fn(&Arc<Event>) -> bool,
    ) {
        if cfg!(debug_assertions) {
            for (i, ev) in self.buf.iter().enumerate() {
                assert!(
                    range.contains(&i) || !passes(ev),
                    "time bounds {range:?} of a {}-event history excluded {:?}, which passes",
                    self.buf.len(),
                    stream_key(ev)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::EventTypeId;
    use proptest::prelude::*;

    fn ev(ts: u64, seq: u64) -> Arc<Event> {
        Event::new(EventTypeId(0), ts, seq, vec![])
    }

    fn keys(b: &EventBuffer) -> Vec<StreamKey> {
        b.iter().map(|e| stream_key(e)).collect()
    }

    #[test]
    fn push_expires_stale_events() {
        let mut b = EventBuffer::new(100);
        b.push(ev(0, 0));
        b.push(ev(50, 1));
        b.push(ev(100, 2)); // ts 0 is exactly window-old → kept
        assert_eq!(b.len(), 3);
        b.push(ev(101, 3)); // now ts 0 is older than the window
        assert_eq!(b.len(), 3);
        assert_eq!(b.iter().next().unwrap().seq, 1);
    }

    #[test]
    fn explicit_expire() {
        let mut b = EventBuffer::new(10);
        b.push(ev(0, 0));
        b.push(ev(5, 1));
        b.expire(20);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn iteration_is_oldest_first() {
        let mut b = EventBuffer::new(1_000);
        for i in 0..5 {
            b.push(ev(i, i));
        }
        let seqs: Vec<u64> = b.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn stragglers_are_ordered_and_pruned() {
        let mut b = EventBuffer::new(Timestamp::MAX);
        b.insert(ev(10, 0));
        b.insert(ev(30, 2));
        b.insert(ev(20, 1)); // straggler insert-sorted
        assert_eq!(keys(&b), [(10, 0), (20, 1), (30, 2)]);
        let inner = KeySpan::ALL.after((10, 0)).before((30, 2));
        assert_eq!(b.slice(&inner), 1..2);
        let none = KeySpan::ALL.after((20, 1)).before((30, 2));
        assert!(b.slice(&none).is_empty());
        b.prune(25);
        assert_eq!(b.len(), 1);
        b.prune(100);
        assert!(b.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut b = EventBuffer::new(Timestamp::MAX);
        b.insert(ev(10, 0));
        b.insert(ev(10, 0)); // duplicate tail
        b.insert(ev(30, 2));
        b.insert(ev(20, 1));
        b.insert(ev(20, 1)); // duplicate straggler
        assert_eq!(keys(&b), [(10, 0), (20, 1), (30, 2)]);
    }

    #[test]
    fn span_edges_saturate_to_empty() {
        let max = (Timestamp::MAX, u64::MAX);
        assert!(!KeySpan::ALL.after(max).contains(max));
        assert!(!KeySpan::ALL.before((0, 0)).contains((0, 0)));
        // Carrying across the timestamp: just after (5, MAX) is (6, 0).
        let s = KeySpan::ALL.after((5, u64::MAX));
        assert!(!s.contains((5, u64::MAX)) && s.contains((6, 0)));
        let s = KeySpan::ALL.before((6, 0));
        assert!(s.contains((5, u64::MAX)) && !s.contains((6, 0)));
        let s = KeySpan::timestamps(Timestamp::MAX, Timestamp::MAX);
        assert!(s.contains(max) && !s.contains((Timestamp::MAX - 1, u64::MAX)));
    }

    /// Maps a draw from `0..8` onto a small grid with the two largest
    /// values mixed in, so equal keys and the `u64::MAX` edges are common.
    fn edge(v: u64) -> u64 {
        match v {
            6 => u64::MAX - 1,
            7 => u64::MAX,
            v => v,
        }
    }

    fn key((ts, seq): (u64, u64)) -> StreamKey {
        (edge(ts), edge(seq))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// In any arrival order, `insert` keeps the buffer sorted and
        /// duplicate-free, and `slice` returns exactly the positions the
        /// linear filter keeps — for spans built from every constructor,
        /// including empty ones and the `u64::MAX` edges.
        #[test]
        fn slice_equals_the_linear_filter(
            pushed in prop::collection::vec((0u64..8, 0u64..8), 0..24),
            bounds in prop::collection::vec((0u8..4, 0u64..8, 0u64..8), 0..4),
            window in (0u64..8, 0u64..8),
        ) {
            let pushed: Vec<StreamKey> = pushed.into_iter().map(key).collect();
            let mut b = EventBuffer::new(Timestamp::MAX);
            for &(ts, seq) in &pushed {
                b.insert(ev(ts, seq));
            }
            let mut want = pushed.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(keys(&b), want.clone());

            let (from, to) = (edge(window.0.min(window.1)), edge(window.0.max(window.1)));
            let mut span = KeySpan::timestamps(from, to);
            for &(kind, ts, seq) in &bounds {
                let k = key((ts, seq));
                span = match kind {
                    0 => span.after(k),
                    1 => span.before(k),
                    2 => KeySpan { lo: span.lo.max(k), ..span },
                    _ => KeySpan { hi: span.hi.min(k), ..span },
                };
            }
            let range = b.slice(&span);
            let got: Vec<StreamKey> = b.range(range.clone()).map(|e| stream_key(e)).collect();
            let linear: Vec<StreamKey> =
                want.iter().copied().filter(|&k| span.contains(k)).collect();
            prop_assert_eq!(got, linear);
            b.debug_assert_sound(&range, |e| span.contains(stream_key(e)));
        }

        /// Expiry after out-of-order pushes drops exactly the events older
        /// than the window behind the newest push's timestamp, keeping the
        /// rest in order.
        #[test]
        fn expiry_after_out_of_order_pushes(
            pushed in prop::collection::vec((0u64..64, 0u64..8), 1..32),
            window in 0u64..32,
        ) {
            let mut b = EventBuffer::new(window);
            let mut reference: Vec<StreamKey> = Vec::new();
            for &(ts, seq) in &pushed {
                b.push(ev(ts, seq));
                if !reference.contains(&(ts, seq)) {
                    reference.push((ts, seq));
                }
                reference.sort_unstable();
                // Front pops: expiry stops at the first survivor.
                let cutoff = ts.saturating_sub(window);
                let keep = reference.iter().position(|k| k.0 >= cutoff).unwrap_or(reference.len());
                reference.drain(..keep);
                prop_assert_eq!(keys(&b), reference.clone());
            }
        }
    }
}
