//! Bounded samples of recent events, used for pair selectivity
//! estimation.

use std::collections::VecDeque;
use std::sync::Arc;

use acep_types::Event;

/// A ring buffer holding the most recent `capacity` events of one type.
///
/// Selectivity estimation evaluates predicates over the cross product of
/// two such samples; keeping the *most recent* events (rather than a
/// uniform reservoir over all history) is what makes the estimate track
/// on-the-fly distribution changes, which is the point of an ACEP system.
#[derive(Debug, Clone)]
pub struct EventSample {
    capacity: usize,
    buf: VecDeque<Arc<Event>>,
}

impl EventSample {
    /// Creates a sample holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sample capacity must be positive");
        Self {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Records an event, evicting the oldest if full.
    pub fn push(&mut self, ev: Arc<Event>) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }

    /// Number of sampled events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events have been sampled.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The `i`-th oldest sampled event.
    #[inline]
    pub fn get(&self, i: usize) -> &Arc<Event> {
        &self.buf[i]
    }

    /// Iterates over the sampled events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Event>> {
        self.buf.iter()
    }

    /// Replaces the buffer with `events` (oldest first), as captured by
    /// iterating a sample of the same capacity. Used by checkpointing.
    pub fn import_events(&mut self, events: Vec<Arc<Event>>) -> Result<(), &'static str> {
        if events.len() > self.capacity {
            return Err("sample holds more events than its capacity");
        }
        self.buf = events.into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::{EventTypeId, Value};

    fn ev(seq: u64) -> Arc<Event> {
        Event::new(EventTypeId(0), seq, seq, vec![Value::Int(seq as i64)])
    }

    #[test]
    fn keeps_most_recent() {
        let mut s = EventSample::new(3);
        for i in 0..5 {
            s.push(ev(i));
        }
        assert_eq!(s.len(), 3);
        let seqs: Vec<u64> = s.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn fills_up_to_capacity() {
        let mut s = EventSample::new(10);
        assert!(s.is_empty());
        s.push(ev(0));
        s.push(ev(1));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        EventSample::new(0);
    }
}
