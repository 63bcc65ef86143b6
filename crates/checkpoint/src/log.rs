//! The append-only checkpoint log.
//!
//! ```text
//! [magic "acep-checkpoint-v2"]
//! frame*            where frame =
//!   [kind u8] [checkpoint_id u64] [shard u32] [len u32] [crc u64] [payload]
//! ```
//!
//! Frame kinds: `1` = one shard's [`ShardCheckpoint`] payload, `2` = a
//! [`Manifest`] sealing a checkpoint (a checkpoint without its manifest
//! — e.g. the process died mid-checkpoint — is ignored by recovery).
//! The `crc` is FNV-1a over the payload. The `shard` field is
//! `u32::MAX` for manifest frames so recovery can scan the index
//! without decoding payloads.
//!
//! Shard frames are **incremental**: each frame's event table holds
//! only events not present in any earlier frame for the same shard, so
//! [`CheckpointLog::recover_shard`] folds the union of every frame for
//! the shard up to the target checkpoint and returns the latest state
//! with the folded [`EventMap`].
//!
//! The log contains no wall-clock anywhere — identical runs produce
//! bit-identical logs, which is what the golden wire-format test pins.

use std::path::Path;

use crate::codec::{fnv64, wire_record, CheckpointError, Reader, Wire, Writer};
use crate::event_table::EventMap;
use crate::rec::ShardCheckpoint;

/// The wire-format magic, doubling as the version marker. `v2` added
/// the statistics-collector state to [`ControllerRec`]
/// (`collector`, `last_step_ts`); `v1` logs are rejected at open.
///
/// [`ControllerRec`]: crate::ControllerRec
pub const MAGIC: &[u8] = b"acep-checkpoint-v2";

const KIND_SHARD: u8 = 1;
const KIND_MANIFEST: u8 = 2;
const MANIFEST_SHARD: u32 = u32::MAX;

wire_record! {
    /// Seals one checkpoint: the runtime-level facts recovery needs before
    /// decoding any shard state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Manifest {
        /// Checkpoint id (monotone from 1 within a log).
        pub checkpoint_id: u64,
        /// Shard count of the checkpointed runtime.
        pub shards: u32,
        /// Events the runtime had ingested (`route`d) when the barrier
        /// completed — the replay offset into the source stream.
        pub events_ingested: u64,
        /// Per-shard emitted-match frontier (each shard's `emit_seq`).
        pub emit_frontier: Vec<u64>,
    }
}

/// Index entry for one frame.
#[derive(Debug, Clone, Copy)]
struct FrameDesc {
    kind: u8,
    checkpoint_id: u64,
    shard: u32,
    /// Payload offset into `bytes`.
    offset: usize,
    /// Payload length.
    len: usize,
}

/// An in-memory append-only checkpoint log with file persistence.
#[derive(Debug)]
pub struct CheckpointLog {
    bytes: Vec<u8>,
    frames: Vec<FrameDesc>,
}

impl Default for CheckpointLog {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointLog {
    /// Creates an empty log (magic only).
    pub fn new() -> Self {
        Self {
            bytes: MAGIC.to_vec(),
            frames: Vec::new(),
        }
    }

    /// Parses a log from its serialized bytes, verifying the magic and
    /// every frame checksum.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut frames = Vec::new();
        {
            let mut r = Reader::new(&bytes[MAGIC.len()..]);
            let base = MAGIC.len();
            while !r.is_at_end() {
                let kind = u8::get(&mut r)?;
                if kind != KIND_SHARD && kind != KIND_MANIFEST {
                    return Err(CheckpointError::UnknownKind(kind));
                }
                let checkpoint_id = u64::get(&mut r)?;
                let shard = u32::get(&mut r)?;
                let len = u32::get(&mut r)? as usize;
                let crc = u64::get(&mut r)?;
                let offset = base + (bytes.len() - base - r.remaining());
                let payload = r.take(len)?;
                if fnv64(payload) != crc {
                    return Err(CheckpointError::BadCrc);
                }
                frames.push(FrameDesc {
                    kind,
                    checkpoint_id,
                    shard,
                    offset,
                    len,
                });
            }
        }
        Ok(Self { bytes, frames })
    }

    /// The serialized log.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total log size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Writes the log to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, &self.bytes)
    }

    /// Reads and parses a log from a file.
    pub fn load(path: &Path) -> std::io::Result<Result<Self, CheckpointError>> {
        Ok(Self::from_bytes(std::fs::read(path)?))
    }

    /// The id the next checkpoint should use (monotone from 1).
    pub fn next_checkpoint_id(&self) -> u64 {
        self.frames
            .iter()
            .map(|f| f.checkpoint_id)
            .max()
            .unwrap_or(0)
            + 1
    }

    fn append_frame(&mut self, kind: u8, checkpoint_id: u64, shard: u32, payload: &[u8]) {
        let mut w = Writer::default();
        kind.put(&mut w);
        checkpoint_id.put(&mut w);
        shard.put(&mut w);
        (payload.len() as u32).put(&mut w);
        fnv64(payload).put(&mut w);
        self.bytes.extend_from_slice(&w.into_bytes());
        let offset = self.bytes.len();
        self.bytes.extend_from_slice(payload);
        self.frames.push(FrameDesc {
            kind,
            checkpoint_id,
            shard,
            offset,
            len: payload.len(),
        });
    }

    /// Appends one shard's pre-encoded [`ShardCheckpoint`] payload.
    pub fn append_shard(&mut self, checkpoint_id: u64, shard: u32, payload: &[u8]) {
        self.append_frame(KIND_SHARD, checkpoint_id, shard, payload);
    }

    /// Seals a checkpoint with its manifest. Until this frame lands the
    /// checkpoint does not exist as far as recovery is concerned.
    pub fn append_manifest(&mut self, manifest: &Manifest) {
        self.append_frame(
            KIND_MANIFEST,
            manifest.checkpoint_id,
            MANIFEST_SHARD,
            &manifest.to_wire(),
        );
    }

    /// The most recent sealed checkpoint's manifest, if any.
    pub fn latest_manifest(&self) -> Result<Option<Manifest>, CheckpointError> {
        let Some(desc) = self.frames.iter().rev().find(|f| f.kind == KIND_MANIFEST) else {
            return Ok(None);
        };
        let payload = &self.bytes[desc.offset..desc.offset + desc.len];
        Manifest::from_wire(payload).map(Some)
    }

    /// Recovers one shard's state at checkpoint `checkpoint_id`:
    /// decodes every frame for the shard up to and including the target
    /// checkpoint, folds the incremental event deltas into one
    /// [`EventMap`], and returns the latest [`ShardCheckpoint`] with
    /// the folded map and the total bytes read.
    pub fn recover_shard(
        &self,
        checkpoint_id: u64,
        shard: u32,
    ) -> Result<(ShardCheckpoint, EventMap, u64), CheckpointError> {
        let mut events = EventMap::new();
        let mut latest: Option<ShardCheckpoint> = None;
        let mut bytes_read = 0u64;
        for desc in &self.frames {
            if desc.kind != KIND_SHARD || desc.shard != shard || desc.checkpoint_id > checkpoint_id
            {
                continue;
            }
            let payload = &self.bytes[desc.offset..desc.offset + desc.len];
            bytes_read += desc.len as u64;
            let cp = ShardCheckpoint::from_wire(payload)?;
            for rec in &cp.events {
                events.insert(rec);
            }
            latest = Some(cp);
        }
        let latest = latest.ok_or(CheckpointError::MissingCheckpoint)?;
        if latest.shard != shard {
            return Err(CheckpointError::BadValue("shard id in payload"));
        }
        Ok((latest, events, bytes_read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec::CountersRec;
    use crate::EventRec;

    fn shard_cp(shard: u32, emit_seq: u64, event_seqs: &[u64]) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            counters: CountersRec {
                emit_seq,
                ..CountersRec::default()
            },
            reorder: None,
            controllers: vec![],
            keys: vec![],
            retire_cursor: 0,
            events: event_seqs
                .iter()
                .map(|&seq| EventRec {
                    type_id: 0,
                    timestamp: seq * 10,
                    seq,
                    attrs: vec![],
                })
                .collect(),
        }
    }

    #[test]
    fn log_round_trips_and_folds_incremental_deltas() {
        let mut log = CheckpointLog::new();
        assert_eq!(log.next_checkpoint_id(), 1);
        assert!(log.latest_manifest().unwrap().is_none());

        log.append_shard(1, 0, &shard_cp(0, 3, &[1, 2]).to_bytes());
        log.append_manifest(&Manifest {
            checkpoint_id: 1,
            shards: 1,
            events_ingested: 10,
            emit_frontier: vec![3],
        });
        // Second checkpoint: delta only carries the new event.
        log.append_shard(2, 0, &shard_cp(0, 7, &[5]).to_bytes());
        log.append_manifest(&Manifest {
            checkpoint_id: 2,
            shards: 1,
            events_ingested: 20,
            emit_frontier: vec![7],
        });
        assert_eq!(log.next_checkpoint_id(), 3);

        let reparsed = CheckpointLog::from_bytes(log.as_bytes().to_vec()).unwrap();
        let manifest = reparsed.latest_manifest().unwrap().unwrap();
        assert_eq!(manifest.checkpoint_id, 2);
        assert_eq!(manifest.events_ingested, 20);

        let (cp, events, bytes) = reparsed.recover_shard(2, 0).unwrap();
        assert_eq!(cp.counters.emit_seq, 7);
        assert!(bytes > 0);
        // The folded map unions both frames' deltas.
        assert_eq!(events.seqs().collect::<Vec<_>>(), vec![1, 2, 5]);

        // Recovering at the first checkpoint ignores the second frame.
        let (cp1, events1, _) = reparsed.recover_shard(1, 0).unwrap();
        assert_eq!(cp1.counters.emit_seq, 3);
        assert_eq!(events1.seqs().collect::<Vec<_>>(), vec![1, 2]);

        assert_eq!(
            reparsed.recover_shard(2, 9).unwrap_err(),
            CheckpointError::MissingCheckpoint
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut log = CheckpointLog::new();
        log.append_shard(1, 0, &shard_cp(0, 1, &[]).to_bytes());
        let mut bytes = log.as_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(
            CheckpointLog::from_bytes(bytes).unwrap_err(),
            CheckpointError::BadCrc
        );
        assert_eq!(
            CheckpointLog::from_bytes(b"not-a-log".to_vec()).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut truncated = log.as_bytes().to_vec();
        truncated.truncate(truncated.len() - 2);
        assert_eq!(
            CheckpointLog::from_bytes(truncated).unwrap_err(),
            CheckpointError::Truncated
        );
    }
}
