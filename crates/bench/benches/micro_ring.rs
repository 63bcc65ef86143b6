//! Microbenchmark of the runtime's only cross-thread hand-off: one
//! producer thread pushing assembled shard batches through an
//! [`SpscRing`] to one consumer thread, at batch sizes 1, 16, 256 and
//! 4096 events per message.
//!
//! The runtime ships a shard's batch whenever the shard's ring is
//! empty, so below saturation its messages are as small as the push
//! calls that fed them; only a busy worker is sent `max_batch`-sized
//! ones. This bench puts the price of that on record: the fixed cost
//! of a message (allocation of the batch, ring slot publication, the
//! consumer's wake when it parked) next to the per-event cost it is
//! amortised over at each size.
//!
//! Every iteration moves [`MESSAGES`] (1000) messages and waits for
//! the consumer to finish them, so the reported time ÷ 1000 is the
//! **time per message** (a 2.5 ms iteration is 2.5 µs per message),
//! and the `elem/s` rate is events per second (ns per event = 10⁹ ÷
//! rate). A message is built the way
//! `ShardedRuntime::route` builds it (one `Arc` clone and one
//! [`ShardBatch`] push per event) and consumed the way a worker starts
//! on it (one pass over the type column, then the drop).

#[path = "common.rs"]
mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acep_stream::{SourceId, SpscRing};
use acep_types::{Event, EventTypeId, RoutedEvent, ShardBatch};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Messages per timed iteration.
const MESSAGES: u64 = 1_000;

/// Ring slots, the runtime's default `channel_capacity`.
const CAPACITY: usize = 8;

fn bench(c: &mut Criterion) {
    let events: Vec<Arc<Event>> = (0..4_096u64)
        .map(|i| Event::new(EventTypeId((i % 4) as u32), i, i, vec![]))
        .collect();
    for batch in [1usize, 16, 256, 4_096] {
        let ring = Arc::new(SpscRing::<Vec<RoutedEvent>>::new(CAPACITY));
        let consumed = Arc::new(AtomicU64::new(0));
        let consumer = {
            let ring = Arc::clone(&ring);
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                let mut types = 0u64;
                while let Some(msg) = ring.recv() {
                    types += msg
                        .iter()
                        .map(|r| u64::from(r.event.type_id.0))
                        .sum::<u64>();
                    drop(msg);
                    // Publishes nothing but the count itself; the
                    // producer only waits on it.
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
                ring.consumer_exited();
                types
            })
        };

        let mut group = c.benchmark_group("micro/ring/push_recv");
        group.throughput(Throughput::Elements(MESSAGES * batch as u64));
        let mut assembling = ShardBatch::with_cap(batch);
        let mut pushed = 0u64;
        group.bench_function(format!("b{batch}"), |b| {
            b.iter(|| {
                for _ in 0..MESSAGES {
                    for ev in &events[..batch] {
                        assembling.push(ev.seq, SourceId::MERGED, Arc::clone(ev));
                    }
                    ring.push(assembling.take());
                }
                pushed += MESSAGES;
                while consumed.load(Ordering::Relaxed) < pushed {
                    std::hint::spin_loop();
                }
            })
        });
        group.finish();

        ring.close();
        black_box(consumer.join().expect("ring consumer thread"));
    }
}

criterion_group! { name = benches; config = common::cfg(); targets = bench }
criterion_main!(benches);
