//! Event interning for checkpoint payloads.
//!
//! Engine state references the same `Arc<Event>` from many places
//! (arena nodes, finalizer buffers, the reorder heap). A checkpoint
//! serializes each event **once** into a per-shard event table and has
//! every other structure reference it by its globally unique ingest
//! `seq`. On the export side an [`EventTable`] interns `Arc<Event>`s
//! into records; on the restore side an [`EventMap`] rebuilds one
//! `Arc<Event>` per seq so restored structures share storage again.
//!
//! Checkpoints are **incremental**: a shard remembers which seqs it has
//! already written to the log and only appends the delta, so recovery
//! folds the union of every record for the shard (see
//! [`crate::CheckpointLog::recover_shard`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use acep_types::{Event, EventTypeId, Value};

use crate::codec::{wire_record, CheckpointError};

wire_record! {
    /// A serialized attribute value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ValueRec {
        /// 64-bit signed integer.
        Int(i64),
        /// 64-bit float (exact bit pattern preserved).
        Float(f64),
        /// Boolean.
        Bool(bool),
        /// UTF-8 string.
        Str(String),
    }

    /// A serialized event, keyed by its globally unique ingest `seq`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EventRec {
        /// Event type discriminator.
        pub type_id: u32,
        /// Event timestamp (ms).
        pub timestamp: u64,
        /// Globally unique ingest sequence number.
        pub seq: u64,
        /// Attribute values in schema order.
        pub attrs: Vec<ValueRec>,
    }
}

impl ValueRec {
    /// Captures a runtime [`Value`].
    pub fn from_value(v: &Value) -> Self {
        match v {
            Value::Int(i) => ValueRec::Int(*i),
            Value::Float(f) => ValueRec::Float(*f),
            Value::Bool(b) => ValueRec::Bool(*b),
            Value::Str(s) => ValueRec::Str(s.as_ref().to_string()),
        }
    }

    /// Rebuilds the runtime [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            ValueRec::Int(i) => Value::Int(*i),
            ValueRec::Float(f) => Value::Float(*f),
            ValueRec::Bool(b) => Value::Bool(*b),
            ValueRec::Str(s) => Value::Str(Arc::from(s.as_str())),
        }
    }
}

impl EventRec {
    /// Captures a runtime event.
    pub fn from_event(ev: &Event) -> Self {
        Self {
            type_id: ev.type_id.0,
            timestamp: ev.timestamp,
            seq: ev.seq,
            attrs: ev.attrs.iter().map(ValueRec::from_value).collect(),
        }
    }

    /// Rebuilds the runtime event (a fresh `Arc`).
    pub fn to_event(&self) -> Arc<Event> {
        Event::new(
            EventTypeId(self.type_id),
            self.timestamp,
            self.seq,
            self.attrs.iter().map(ValueRec::to_value).collect(),
        )
    }
}

/// Export-side interner: deduplicates events by `seq` as structures are
/// exported, producing a deterministically ordered (by seq) table.
#[derive(Debug, Default)]
pub struct EventTable {
    by_seq: BTreeMap<u64, EventRec>,
}

impl EventTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns one event, returning its seq reference.
    pub fn intern(&mut self, ev: &Arc<Event>) -> u64 {
        self.by_seq
            .entry(ev.seq)
            .or_insert_with(|| EventRec::from_event(ev));
        ev.seq
    }

    /// Seqs interned so far, in ascending order.
    pub fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_seq.keys().copied()
    }

    /// Number of interned events.
    pub fn len(&self) -> usize {
        self.by_seq.len()
    }

    /// Whether nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }

    /// Drains the table into seq-ordered records, dropping those in
    /// `already_logged` — the incremental delta for this checkpoint.
    pub fn into_delta(self, already_logged: &std::collections::HashSet<u64>) -> Vec<EventRec> {
        self.by_seq
            .into_values()
            .filter(|rec| !already_logged.contains(&rec.seq))
            .collect()
    }

    /// Drains the table into seq-ordered records (no delta filtering).
    pub fn into_records(self) -> Vec<EventRec> {
        self.by_seq.into_values().collect()
    }
}

/// Restore-side map: one shared `Arc<Event>` per seq.
#[derive(Debug, Default)]
pub struct EventMap {
    by_seq: BTreeMap<u64, Arc<Event>>,
}

impl EventMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the event for a record.
    pub fn insert(&mut self, rec: &EventRec) {
        self.by_seq.insert(rec.seq, rec.to_event());
    }

    /// Looks up the shared event for `seq`.
    pub fn get(&self, seq: u64) -> Result<Arc<Event>, CheckpointError> {
        self.by_seq
            .get(&seq)
            .cloned()
            .ok_or(CheckpointError::BadValue("event seq reference"))
    }

    /// All seqs present, in ascending order.
    pub fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_seq.keys().copied()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.by_seq.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Wire;

    #[test]
    fn interning_dedups_by_seq_and_round_trips() {
        let ev = Event::new(
            EventTypeId(3),
            1000,
            42,
            vec![Value::Int(-7), Value::Str(Arc::from("x"))],
        );
        let mut table = EventTable::new();
        assert_eq!(table.intern(&ev), 42);
        assert_eq!(table.intern(&ev), 42);
        assert_eq!(table.len(), 1);
        let recs = table.into_records();
        let decoded = EventRec::from_wire(&recs[0].to_wire()).unwrap();
        assert_eq!(decoded, recs[0]);
        let mut map = EventMap::new();
        map.insert(&decoded);
        let back = map.get(42).unwrap();
        assert_eq!(back.type_id, ev.type_id);
        assert_eq!(back.timestamp, ev.timestamp);
        assert_eq!(back.seq, ev.seq);
        assert_eq!(back.attrs, ev.attrs);
        assert!(map.get(43).is_err());
    }
}
