//! The workspace's one lock-free single-producer/single-consumer ring.
//!
//! [`SpscRing`] is a power-of-two slot array with monotone head/tail
//! counters: a slot write is published by the tail store, a slot read
//! is freed by the head store. The same ring serves two channels with
//! two producer protocols:
//!
//! * **Ingestion: blocking [`push`](SpscRing::push).** The sharded
//!   runtime feeds each worker its [`ShardBatch`](crate::ShardBatch)es
//!   over one ring per shard. A full ingestion ring must make the
//!   *producer* wait, never lose a batch: `push` spins briefly (the
//!   consumer is usually mid-batch and frees a slot within
//!   microseconds), then **parks** the producer thread, to be unparked
//!   by the consumer's next pop. Parks and wakes are counted per side
//!   ([`RingStats`]) so the stall behavior of a loaded pipeline is
//!   observable, and the protocol's accounting invariant —
//!   `wakes ≤ parks + 1` per ring — is pinned by `stream_determinism`.
//!   Dropping the producer side ([`close`](SpscRing::close)) marks the
//!   ring closed and wakes the consumer, which drains what remains and
//!   exits — the lock-free equivalent of a channel disconnect.
//! * **Telemetry: drop-and-count [`try_push`](SpscRing::try_push).** A
//!   shard's telemetry records must never block the worker that emits
//!   them: `try_push` hands a refused record back, and the telemetry
//!   recorder drops it and counts the loss. The collector drains with
//!   [`pop`](SpscRing::pop).
//!
//! Slot handoff is synchronized purely by the head/tail atomics; the
//! park/wake flags only govern *liveness* (who sleeps and who must
//! wake whom), and the parked thread's handle travels through a mutex
//! that is only ever touched on the cold park path. Waiting is a
//! two-phase commit against lost wakeups: a side first *publishes
//! intent* (its waiting flag), re-checks the condition, and only then
//! parks; the opposite side transitions state first (pop/push/close)
//! and then *claims* the intent flag with a `swap`, unparking on
//! success. Every published intent is claimed at most once, which is
//! what makes the park/wake accounting an invariant rather than a
//! heuristic. All protocol atomics are `SeqCst`: ring operations run
//! once per *batch* or per telemetry record, not per event, so
//! the cost of full ordering is noise while the absence of
//! store-buffer reorderings keeps the no-lost-wakeup argument a
//! straight-line case analysis (see `acep-stream`'s
//! `tests/ring_protocol.rs` for the exhaustively model-checked
//! interleavings).
//!
//! # Safety discipline
//!
//! The ring is SPSC **by contract, not by type**: one thread pushes,
//! one thread pops. `ShardedRuntime` upholds the ingestion producer
//! side by requiring `&mut self` for every ingestion entry point; the
//! consumer side is the shard worker's single thread. Telemetry
//! producers go through `acep-telemetry`'s `ShardRecorder`
//! (`Send + !Sync`, all clones kept on the worker thread), and the
//! telemetry hub serializes its consumers behind a mutex.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::thread::Thread;

/// Spins before parking: long enough to cover the common "consumer is
/// finishing its current batch" stall, short enough that a genuinely
/// blocked pipeline parks (and is counted) instead of burning a core.
const SPIN_LIMIT: u32 = 256;

/// Park/wake and occupancy accounting of one ring (one shard).
///
/// The counters describe the *backpressure protocol*, not the data:
/// `producer_parks` counts times the ingesting thread published an
/// intent to sleep on a full ring, `producer_wakes` counts times the
/// consumer claimed such an intent and unparked it — so
/// `producer_wakes ≤ producer_parks` always (each published intent is
/// claimed at most once), and symmetrically for the consumer side.
/// `occupancy_high_water` is the most messages ever queued at once;
/// it can never exceed `capacity`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Ring capacity in messages (power of two).
    pub capacity: usize,
    /// Times the producer published park intent on a full ring.
    pub producer_parks: u64,
    /// Times the consumer claimed a producer's park intent and
    /// unparked it.
    pub producer_wakes: u64,
    /// Times the consumer published park intent on an empty ring.
    pub consumer_parks: u64,
    /// Times the producer (or the close handshake) claimed a
    /// consumer's park intent and unparked it.
    pub consumer_wakes: u64,
    /// Most messages ever queued at once (`≤ capacity`).
    pub occupancy_high_water: usize,
}

/// One side's parking state: the published intent flag plus the
/// thread handle to unpark. The mutex is only locked on the cold
/// park/claim paths, never on a successful push or pop.
#[derive(Debug)]
struct Waiter {
    waiting: AtomicBool,
    thread: Mutex<Option<Thread>>,
    parks: AtomicU64,
    wakes: AtomicU64,
}

impl Waiter {
    fn new() -> Self {
        Self {
            waiting: AtomicBool::new(false),
            thread: Mutex::new(None),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Publishes this side's intent to park (registering the current
    /// thread's handle first, so a claim can always unpark).
    fn publish(&self) {
        *self.thread.lock().unwrap() = Some(std::thread::current());
        self.waiting.store(true, SeqCst);
        self.parks.fetch_add(1, SeqCst);
    }

    /// Withdraws a published intent (the condition cleared before
    /// parking). If the opposite side already claimed it, the claim's
    /// unpark token is left pending — benign, because every park sits
    /// in a re-check loop.
    fn withdraw(&self) {
        self.waiting.swap(false, SeqCst);
    }

    /// Opposite side: claims a published intent, if any, and unparks
    /// the waiter. Returns whether an intent was claimed.
    fn claim(&self) -> bool {
        if self.waiting.load(SeqCst) && self.waiting.swap(false, SeqCst) {
            self.wakes.fetch_add(1, SeqCst);
            if let Some(t) = self.thread.lock().unwrap().as_ref() {
                t.unpark();
            }
            return true;
        }
        false
    }
}

/// A bounded, lock-free single-producer/single-consumer message ring
/// with spin-then-park backpressure and park/wake accounting — the
/// per-shard ingestion channel and telemetry channel (see module
/// docs).
#[derive(Debug)]
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    mask: usize,
    /// Next slot the consumer reads (monotone, wraps via `mask`).
    head: AtomicUsize,
    /// Next slot the producer writes (monotone, wraps via `mask`).
    tail: AtomicUsize,
    /// Producer side hung up: the consumer drains what remains and
    /// stops.
    closed: AtomicBool,
    /// Consumer side exited (cleanly or by panic): pushes must fail
    /// loudly instead of parking forever.
    consumer_gone: AtomicBool,
    producer: Waiter,
    consumer: Waiter,
    /// Most messages ever queued at once (written by the producer
    /// only, from the occupancy it proved at push time).
    high_water: AtomicUsize,
}

// SAFETY: slots are only touched through `try_push` (producer) and
// `pop` (consumer); the head/tail protocol gives each slot index to
// exactly one side at a time, with the tail/head stores ordering each
// slot write before its publication (`SeqCst` subsumes the
// `Release`/`Acquire` pairing). Callers uphold the single-producer /
// single-consumer contract (see module docs).
unsafe impl<T: Send> Sync for SpscRing<T> {}
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding at least `capacity` messages (rounded up
    /// to a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<UnsafeCell<Option<T>>> = (0..cap).map(|_| UnsafeCell::new(None)).collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            consumer_gone: AtomicBool::new(false),
            producer: Waiter::new(),
            consumer: Waiter::new(),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Messages currently queued (racy estimate — exact only when
    /// producer or consumer is quiescent).
    pub fn len(&self) -> usize {
        self.tail.load(SeqCst).wrapping_sub(self.head.load(SeqCst))
    }

    /// Whether nothing is queued (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer side hung up.
    pub fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }

    /// Park/wake and occupancy accounting so far.
    pub fn stats(&self) -> RingStats {
        RingStats {
            capacity: self.capacity(),
            producer_parks: self.producer.parks.load(SeqCst),
            producer_wakes: self.producer.wakes.load(SeqCst),
            consumer_parks: self.consumer.parks.load(SeqCst),
            consumer_wakes: self.consumer.wakes.load(SeqCst),
            occupancy_high_water: self.high_water.load(SeqCst),
        }
    }

    /// Producer side: enqueues one message if a slot is free, handing
    /// the message back otherwise. Never blocks, never wakes the
    /// consumer — [`push`](Self::push) is the full protocol.
    pub fn try_push(&self, msg: T) -> Result<(), T> {
        let tail = self.tail.load(SeqCst);
        let head = self.head.load(SeqCst);
        let occupancy = tail.wrapping_sub(head);
        if occupancy >= self.slots.len() {
            return Err(msg);
        }
        // SAFETY: `tail` is unpublished, so the consumer does not read
        // this slot until the store below; no other producer exists
        // (SPSC contract).
        unsafe {
            *self.slots[tail & self.mask].get() = Some(msg);
        }
        self.tail.store(tail.wrapping_add(1), SeqCst);
        // Only the producer writes the high-water mark, and the
        // occupancy it proved at the bounds check is ≤ capacity by
        // construction.
        if occupancy + 1 > self.high_water.load(SeqCst) {
            self.high_water.store(occupancy + 1, SeqCst);
        }
        Ok(())
    }

    /// Producer side: enqueues one message, applying backpressure when
    /// the ring is full — spins up to `SPIN_LIMIT` iterations, then parks until
    /// the consumer frees a slot. Wakes the consumer if it published
    /// park intent on an empty ring.
    ///
    /// # Panics
    ///
    /// If the consumer exited (the worker died): parking forever would
    /// turn a worker panic into a silent ingest deadlock.
    pub fn push(&self, msg: T) {
        let mut msg = msg;
        loop {
            if self.consumer_gone.load(SeqCst) {
                panic!("ring consumer exited while the producer was still pushing");
            }
            match self.try_push(msg) {
                Ok(()) => {
                    self.consumer.claim();
                    return;
                }
                Err(back) => msg = back,
            }
            // Full: spin briefly — the consumer usually frees a slot
            // within its current batch.
            let mut freed = false;
            for _ in 0..SPIN_LIMIT {
                std::hint::spin_loop();
                if self.len() < self.slots.len() {
                    freed = true;
                    break;
                }
            }
            if freed {
                continue;
            }
            // Park with published intent: publish, re-check, sleep.
            // The consumer pops *first* and claims *second*, so either
            // our re-check sees the freed slot or the claim sees our
            // intent — never neither (all SeqCst).
            self.producer.publish();
            while self.producer.waiting.load(SeqCst) {
                if self.len() < self.slots.len() || self.consumer_gone.load(SeqCst) {
                    self.producer.withdraw();
                    break;
                }
                std::thread::park();
            }
        }
    }

    /// Consumer side: dequeues the oldest message, if any, and wakes a
    /// parked producer. Never blocks — [`recv`](Self::recv) is the
    /// blocking protocol.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(SeqCst);
        let tail = self.tail.load(SeqCst);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail`, so the producer published this slot
        // and will not touch it again until the store below frees it.
        let msg = unsafe { (*self.slots[head & self.mask].get()).take() };
        self.head.store(head.wrapping_add(1), SeqCst);
        debug_assert!(msg.is_some(), "published slot holds a message");
        // Free the slot *before* claiming the producer's park intent:
        // a woken producer must find space (or park again — counted).
        self.producer.claim();
        msg
    }

    /// Consumer side: dequeues the oldest message, parking on an empty
    /// ring until the producer pushes or hangs up. Returns `None` only
    /// once the ring is closed *and* drained — exactly the semantics
    /// of a channel `recv` disconnect.
    pub fn recv(&self) -> Option<T> {
        loop {
            if let Some(msg) = self.pop() {
                return Some(msg);
            }
            // Empty. `closed` is checked after the failed pop: close
            // happens-before the wake, so a final re-pop drains
            // anything pushed before the hangup.
            if self.closed.load(SeqCst) {
                return self.pop();
            }
            self.consumer.publish();
            while self.consumer.waiting.load(SeqCst) {
                if !self.is_empty() || self.closed.load(SeqCst) {
                    self.consumer.withdraw();
                    break;
                }
                std::thread::park();
            }
        }
    }

    /// Producer side: hangs up. The consumer drains what remains and
    /// then sees the disconnect.
    pub fn close(&self) {
        self.closed.store(true, SeqCst);
        self.consumer.claim();
    }

    /// Consumer side: marks the consumer as exited (on *any* exit,
    /// clean or panicking) and wakes a parked producer so it fails
    /// loudly instead of sleeping forever.
    pub fn consumer_exited(&self) {
        self.consumer_gone.store(true, SeqCst);
        self.producer.claim();
    }

    /// Whether the consumer has exited.
    pub fn is_consumer_gone(&self) -> bool {
        self.consumer_gone.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let ring = SpscRing::new(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.is_empty());
        for i in 0..4 {
            assert!(ring.try_push(i).is_ok());
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.try_push(99), Err(99), "full ring hands back");
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.pop().is_none());
        let stats = ring.stats();
        assert_eq!(stats.occupancy_high_water, 4);
        assert_eq!(stats.producer_parks, 0);
        assert_eq!(stats.producer_wakes, 0);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(SpscRing::<u8>::new(0).capacity(), 2);
        assert_eq!(SpscRing::<u8>::new(3).capacity(), 4);
        assert_eq!(SpscRing::<u8>::new(8).capacity(), 8);
        assert_eq!(SpscRing::<u8>::new(1000).capacity(), 1024);
    }

    #[test]
    fn recv_drains_after_close() {
        let ring = SpscRing::new(8);
        ring.push(1);
        ring.push(2);
        ring.close();
        assert_eq!(ring.recv(), Some(1));
        assert_eq!(ring.recv(), Some(2));
        assert_eq!(ring.recv(), None, "closed and drained");
        assert_eq!(ring.recv(), None, "disconnect is sticky");
    }

    #[test]
    fn push_applies_backpressure_and_accounts_parks() {
        let ring = Arc::new(SpscRing::new(2));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    ring.push(i);
                }
                ring.close();
            })
        };
        // A deliberately slow consumer forces the producer through the
        // park path at capacity 2.
        let mut seen = 0u64;
        while let Some(v) = ring.recv() {
            assert_eq!(v, seen, "FIFO across threads");
            seen += 1;
            if seen % 1024 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, 10_000);
        let stats = ring.stats();
        assert!(stats.occupancy_high_water <= stats.capacity);
        assert!(
            stats.producer_wakes <= stats.producer_parks,
            "every wake claims a published intent: {stats:?}"
        );
        assert!(
            stats.consumer_wakes <= stats.consumer_parks + 1,
            "close may claim one final intent: {stats:?}"
        );
    }

    #[test]
    fn consumer_parks_until_producer_pushes() {
        let ring = Arc::new(SpscRing::new(8));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = ring.recv() {
                    got.push(v);
                }
                got
            })
        };
        // Give the consumer time to park, then push with pauses so it
        // parks repeatedly.
        for i in 0..4u64 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            ring.push(i);
        }
        ring.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
        let stats = ring.stats();
        assert!(
            stats.consumer_wakes <= stats.consumer_parks + 1,
            "{stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "ring consumer exited")]
    fn push_after_consumer_exit_panics() {
        let ring = SpscRing::new(2);
        ring.push(1);
        ring.consumer_exited();
        ring.push(2);
    }

    #[test]
    fn queued_messages_drop_with_the_ring() {
        // Drop safety: un-popped messages are owned by the slot
        // `Option`s and released on drop (checked under miri/TSan by
        // the Arc's count here).
        let payload = Arc::new(());
        let ring = SpscRing::new(4);
        ring.push(Arc::clone(&payload));
        ring.push(Arc::clone(&payload));
        assert_eq!(Arc::strong_count(&payload), 3);
        drop(ring);
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
