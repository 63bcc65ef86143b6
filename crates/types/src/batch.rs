//! Shard-local batch layout of the ingestion data plane.
//!
//! The sharded runtime partitions events on the **producer** side: the
//! ingesting thread extracts each event's partition key, tags it with
//! its [`SourceId`], and appends it to the destination shard's
//! in-flight [`ShardBatch`]. Workers therefore receive ready-to-run
//! shard-local batches — no key extraction, no re-partitioning, no
//! cross-thread contention on the hot path — and the batch is the unit
//! both of channel transfer and of the workers' columnar pre-filtering
//! (see `acep-engine`'s relevance index).
//!
//! How many events a shipped batch holds is decided by the producer,
//! not here: the runtime ships a shard's batch as soon as that shard's
//! worker has nothing queued, and lets it grow while the worker is
//! busy — up to the batch's **cap**, the one bound this type knows.
//! Below saturation batches are therefore as small as the push calls
//! that fed them; at saturation every batch leaves at exactly the cap.
//!
//! A [`RoutedEvent`] is deliberately flat (key and source travel
//! *next to* the `Arc<Event>`, not inside it): the worker's type/mask
//! extraction walks the batch once, and events themselves stay
//! immutable and shareable after ingest.

use std::sync::Arc;

use crate::disorder::SourceId;
use crate::event::Event;

/// One event routed to its shard: the partition key (extracted exactly
/// once, at ingest — extractors may hash string attributes), the
/// ingestion source feeding per-source watermarks, and the shared
/// event.
#[derive(Debug, Clone)]
pub struct RoutedEvent {
    /// Partition key; all events of one key land on one shard.
    pub key: u64,
    /// Ingestion source ([`SourceId::MERGED`] for untagged pushes).
    pub source: SourceId,
    /// The event itself, immutable post-ingest.
    pub event: Arc<Event>,
}

/// A shard-local batch under producer-side assembly: events routed to
/// one shard, in ingest order, forwarded to the worker as a unit.
///
/// The cap bounds how far a batch may grow while its worker is busy;
/// it is not a fill target — the producer may [`take`](Self::take) a
/// batch at any size. [`push`](Self::push) reports the cap rather than
/// refusing, and the producer must ship a batch that reports it before
/// appending again.
#[derive(Debug)]
pub struct ShardBatch {
    events: Vec<RoutedEvent>,
    cap: usize,
}

impl ShardBatch {
    /// An empty batch that reports full at `cap` events. `cap` must be
    /// positive.
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap > 0, "batch cap must be positive");
        Self {
            events: Vec::new(),
            cap,
        }
    }

    /// [`with_cap`](Self::with_cap) under its former name, which the
    /// frozen `benchmark/` package still calls.
    #[doc(hidden)]
    pub fn with_target(cap: usize) -> Self {
        Self::with_cap(cap)
    }

    /// Appends one routed event, returning `true` when the batch has
    /// reached its cap and must be shipped.
    pub fn push(&mut self, key: u64, source: SourceId, event: Arc<Event>) -> bool {
        self.events.push(RoutedEvent { key, source, event });
        self.events.len() >= self.cap
    }

    /// Events currently assembled.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is assembled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most events this batch holds before it must ship.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Takes the assembled events, leaving the batch empty (the
    /// allocation moves out with the events — the next assembly starts
    /// fresh, so shipped batches own exactly their contents, however
    /// few).
    pub fn take(&mut self) -> Vec<RoutedEvent> {
        std::mem::take(&mut self.events)
    }

    /// The assembled events, in ingest order.
    pub fn events(&self) -> &[RoutedEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventTypeId;

    fn ev(ts: u64) -> Arc<Event> {
        Event::new(EventTypeId(0), ts, ts, vec![])
    }

    #[test]
    fn batch_reports_full_at_cap() {
        let mut b = ShardBatch::with_cap(3);
        assert!(b.is_empty());
        assert!(!b.push(1, SourceId::MERGED, ev(1)));
        assert!(!b.push(2, SourceId(4), ev(2)));
        assert!(b.push(1, SourceId::MERGED, ev(3)), "full at the cap");
        assert_eq!(b.len(), 3);
        assert_eq!(b.cap(), 3);
        let taken = b.take();
        assert_eq!(taken.len(), 3);
        assert_eq!(taken[1].key, 2);
        assert_eq!(taken[1].source, SourceId(4));
        assert_eq!(taken[2].event.timestamp, 3);
        assert!(b.is_empty(), "take leaves the batch empty");
        assert!(!b.push(9, SourceId::MERGED, ev(4)), "assembly restarts");
    }

    #[test]
    fn a_batch_below_its_cap_ships_with_exactly_its_contents() {
        let mut b = ShardBatch::with_cap(4_096);
        b.push(7, SourceId::MERGED, ev(1));
        let taken = b.take();
        assert_eq!(taken.len(), 1);
        assert!(
            taken.capacity() < 4_096,
            "a small message must not carry a cap-sized allocation"
        );
    }

    #[test]
    #[should_panic(expected = "batch cap must be positive")]
    fn zero_cap_is_rejected() {
        let _ = ShardBatch::with_cap(0);
    }
}
