//! # acep-checkpoint
//!
//! Versioned, incremental per-shard checkpoints and crash recovery for
//! the acep streaming runtime.
//!
//! The crate defines the `acep-checkpoint-v2` wire format — an
//! append-only log of per-shard state frames sealed by manifests — and
//! the snapshot record types mirroring every structure a shard worker
//! must survive a crash with: per-(key, query) engine arenas
//! ([`PartialRec`] frontiers, [`FinalizerRec`] pending entries),
//! controller plan epochs and statistics-collector state
//! ([`ControllerRec`]), reorder-buffer contents
//! and per-source watermarks ([`ReorderRec`]), and the per-shard
//! emitted-match frontier (`emit_seq` in [`CountersRec`]) that lets a
//! deduplicating sink make replay exactly-once.
//!
//! A record's type *is* its wire layout: the codec derives each
//! record's encoding from its definition (fields in declaration order,
//! `Vec` as a `u64` length and then the elements, `Option` as a
//! presence byte and then the value, enums as a `u8` tag in variant
//! order), so the format is written down once. Adding, removing,
//! reordering or retyping a record field is therefore a format change
//! and needs a new [`MAGIC`]. Encoding goes through
//! [`ShardCheckpoint::to_bytes`] and [`CheckpointLog`]; nothing else of
//! the codec is public.
//!
//! The conversions between live runtime state and these records live
//! in the runtime crates (`acep-engine`, `acep-core`, `acep-stream`);
//! this crate holds only the wire shape, the codec, and the log, so it
//! depends on nothing but `acep-types` and `acep-plan`.
//!
//! ## Recovery contract
//!
//! For a log whose latest manifest records `events_ingested = n`,
//! rebuilding the runtime from the log and re-ingesting the source
//! stream from event `n` onward yields — after sink-side deduplication
//! against the manifest's `emit_frontier` — exactly the match multiset
//! of the uninterrupted run. See the README's "Fault tolerance"
//! section for the argument.

#![deny(missing_docs)]

mod codec;
mod event_table;
mod log;
mod rec;

pub use codec::CheckpointError;
pub use event_table::{EventMap, EventRec, EventTable, ValueRec};
pub use log::{CheckpointLog, Manifest, MAGIC};
pub use rec::{
    BranchCtlRec, BufferRec, CollectorRec, ControllerRec, CountersRec, ExecutorRec, FinalizerRec,
    GenerationRec, KeyStateRec, KeyedEngineRec, LazyExecRec, MigratingRec, OrderExecRec,
    PartialRec, PendingRec, RateRec, ReorderRec, ShardCheckpoint, StatsRec, TreeExecRec,
};
