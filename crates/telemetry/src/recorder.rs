//! The producer handle of one shard's telemetry ring.
//!
//! Hot paths hold an `Option<ShardRecorder>` (absent = telemetry off)
//! and call [`record`](ShardRecorder::record); the recorder offers the
//! record to its shard's [`SpscRing`] with
//! [`try_push`](SpscRing::try_push) and, when the ring is full, drops
//! it and counts the loss — it never blocks the worker.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acep_types::SpscRing;

use crate::event::TelemetryEvent;

/// Producer handle of one shard's telemetry ring.
///
/// `Send + !Sync`: the handle (and every clone of it) is meant to live
/// on the owning worker thread, which upholds the ring's
/// single-producer contract. Cloning is cheap (two `Arc` bumps) so a
/// worker can hand one to each of its controllers; every clone counts
/// into the same drop counter.
#[derive(Debug, Clone)]
pub struct ShardRecorder {
    ring: Arc<SpscRing<TelemetryEvent>>,
    /// Records refused by the full ring — the shard's one drop
    /// counter, shared with whoever drains the ring.
    dropped: Arc<AtomicU64>,
    /// `Cell` is `!Sync`: keeps the recorder off shared references
    /// across threads without a runtime cost.
    _single_thread: PhantomData<Cell<()>>,
}

impl ShardRecorder {
    /// Wraps a ring's producer side; refused records are counted in
    /// `dropped`.
    pub fn new(ring: Arc<SpscRing<TelemetryEvent>>, dropped: Arc<AtomicU64>) -> Self {
        Self {
            ring,
            dropped,
            _single_thread: PhantomData,
        }
    }

    /// Submits one record, or drops and counts it when the ring is
    /// full. Never blocks.
    #[inline]
    pub fn record(&self, ev: TelemetryEvent) {
        if self.ring.try_push(ev).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records dropped on a full ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    fn step(at: u64) -> TelemetryEvent {
        TelemetryEvent::ControlStep {
            query: 0,
            at_event: at,
            now: 0,
            duration_us: 1,
        }
    }

    fn at_event(ev: TelemetryEvent) -> u64 {
        match ev {
            TelemetryEvent::ControlStep { at_event, .. } => at_event,
            _ => unreachable!(),
        }
    }

    #[test]
    fn recorder_is_send_and_forwards() {
        assert_send::<ShardRecorder>();
        let ring = Arc::new(SpscRing::new(4));
        let rec = ShardRecorder::new(Arc::clone(&ring), Arc::default());
        let rec2 = rec.clone();
        rec.record(TelemetryEvent::ControlStep {
            query: 1,
            at_event: 10,
            now: 5,
            duration_us: 2,
        });
        rec2.record(TelemetryEvent::GenerationRetirement {
            query: 0,
            key: 7,
            retired: 2,
        });
        assert_eq!(ring.len(), 2);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts_without_blocking() {
        let ring = Arc::new(SpscRing::new(2));
        let dropped = Arc::new(AtomicU64::new(0));
        let rec = ShardRecorder::new(Arc::clone(&ring), Arc::clone(&dropped));
        let rec2 = rec.clone();
        rec.record(step(0));
        rec.record(step(1));
        rec.record(step(2));
        rec2.record(step(3));
        assert_eq!(ring.len(), 2, "full ring refuses");
        assert_eq!(rec.dropped(), 2);
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            2,
            "clones and the drainer share one counter"
        );
        // Consuming frees slots; records flow again and FIFO held.
        assert_eq!(at_event(ring.pop().unwrap()), 0);
        rec.record(step(4));
        let drained: Vec<u64> = std::iter::from_fn(|| ring.pop()).map(at_event).collect();
        assert_eq!(drained, vec![1, 4], "dropped records leave no gap-fillers");
        assert_eq!(rec.dropped(), 2);
    }
}
