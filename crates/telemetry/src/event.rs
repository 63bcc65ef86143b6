//! Structured telemetry records and the hashes that make them
//! comparable across runs.

use std::sync::Arc;

use acep_types::{SourceId, Timestamp};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds bytes into an FNV-1a accumulator (start from
/// [`fnv_start`]).
#[inline]
pub fn fnv_fold(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// A fresh FNV-1a accumulator.
#[inline]
pub fn fnv_start() -> u64 {
    FNV_OFFSET
}

/// Order-sensitive digest of a statistics snapshot's flattened values
/// (rates + selectivities as produced by `StatSnapshot::values`): the
/// *evidence hash* attached to re-plan decisions, stable for identical
/// statistics and cheap to compare across shards or runs.
pub fn snapshot_hash(values: &[f64]) -> u64 {
    let mut acc = fnv_start();
    for v in values {
        acc = fnv_fold(acc, &v.to_bits().to_le_bytes());
    }
    acc
}

/// Verdict of one re-plan decision (`D` fired and the planner ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanOutcome {
    /// The candidate was strictly better and was deployed.
    Deployed,
    /// The candidate equalled the incumbent (or tied within the band).
    Unchanged,
    /// The candidate was worse and was rejected.
    Rejected,
}

/// One structured record emitted by the runtime's hot paths into a
/// shard's telemetry ring (through its [`ShardRecorder`](crate::ShardRecorder)).
///
/// Variants mirror the runtime's adaptation and event-time machinery:
/// the control plane emits [`ControlStep`](Self::ControlStep) /
/// [`Replan`](Self::Replan) / [`Deployment`](Self::Deployment), the
/// evaluation plane [`KeyMigration`](Self::KeyMigration) /
/// [`GenerationRetirement`](Self::GenerationRetirement), and the
/// reordering stage [`ReorderEviction`](Self::ReorderEviction) /
/// [`WatermarkStall`](Self::WatermarkStall). The only variant that
/// allocates is `Deployment` (its plan rendering) — deployments are
/// rare by construction, every other variant is `Copy`-sized.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// One controller control step ran (snapshot → `D` → maybe `A`).
    ControlStep {
        /// Query the controller adapts.
        query: u32,
        /// Controller event count when the step fired.
        at_event: u64,
        /// Stream time (event timestamp) of the step.
        now: Timestamp,
        /// Wall time of the whole step, µs.
        duration_us: u64,
    },
    /// The decision function fired and the planner produced a
    /// candidate — the audit evidence for why a plan did (or did not)
    /// change.
    Replan {
        /// Query the controller adapts.
        query: u32,
        /// Pattern branch within the query.
        branch: u32,
        /// Controller event count when the step fired.
        at_event: u64,
        /// [`snapshot_hash`] of the statistics snapshot `D` saw.
        snapshot_hash: u64,
        /// Incumbent plan's cost under that snapshot.
        cost_current: f64,
        /// Candidate plan's cost under that snapshot.
        cost_candidate: f64,
        /// What happened to the candidate.
        outcome: ReplanOutcome,
    },
    /// A plan was deployed (initial optimization or replacement).
    Deployment {
        /// Query the controller adapts.
        query: u32,
        /// Pattern branch within the query.
        branch: u32,
        /// Controller event count when the deployment happened.
        at_event: u64,
        /// The branch's new epoch (engines migrate to this).
        epoch: u64,
        /// The controller's new total epoch across branches
        /// (`AdaptationStats::plan_epoch`) — migrations are attributed
        /// to deployments through this.
        plan_epoch: u64,
        /// [`snapshot_hash`] of the deciding snapshot.
        snapshot_hash: u64,
        /// Incumbent cost before the deployment.
        cost_before: f64,
        /// Deployed plan's cost.
        cost_after: f64,
        /// Debug rendering of the deployed plan.
        plan: Arc<str>,
    },
    /// A keyed engine lazily migrated to the controller's current
    /// epoch on its next event.
    KeyMigration {
        /// Query whose engine migrated.
        query: u32,
        /// Partition key of the engine.
        key: u64,
        /// `replace_epoch` calls this migration performed (one per
        /// branch whose tag trailed).
        replaced: u32,
        /// The controller's total plan epoch the engine converged to.
        plan_epoch: u64,
    },
    /// Superseded executor generations were retired (by the idle sweep
    /// or by migration-completing events).
    GenerationRetirement {
        /// Query whose engine shed generations.
        query: u32,
        /// Partition key of the engine.
        key: u64,
        /// Generations retired.
        retired: u32,
    },
    /// The reorder buffer force-released an event before its watermark
    /// (capacity cap).
    ReorderEviction {
        /// Source that delivered the evicted event.
        source: SourceId,
        /// The evicted event's timestamp.
        timestamp: Timestamp,
        /// The watermark after the eviction.
        watermark: Timestamp,
    },
    /// The shard watermark failed to advance across a whole batch while
    /// events were buffered — the signature of a slow or silent source
    /// holding the line.
    WatermarkStall {
        /// The stuck watermark.
        watermark: Timestamp,
        /// Events held in the reorder buffer.
        depth: usize,
        /// The slowest active source (what the watermark is waiting
        /// on), when the strategy tracks sources.
        blocking: Option<SourceId>,
    },
    /// The shard serialized its full recoverable state at a checkpoint
    /// barrier.
    Checkpoint {
        /// Size of the encoded (incremental) shard frame, bytes.
        bytes: u64,
        /// Wall time spent serializing, µs.
        micros: u64,
        /// Events the shard had processed when the barrier fired.
        events: u64,
    },
    /// The shard rebuilt itself from a checkpoint frame at recovery.
    Restore {
        /// Bytes of checkpoint log read to rebuild the shard.
        bytes: u64,
        /// Wall time spent deserializing and rebuilding, µs.
        micros: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_hash_is_order_sensitive_and_stable() {
        let a = snapshot_hash(&[1.0, 2.0, 0.5]);
        let b = snapshot_hash(&[1.0, 2.0, 0.5]);
        let c = snapshot_hash(&[2.0, 1.0, 0.5]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(snapshot_hash(&[]), snapshot_hash(&[0.0]));
        // Pin the empty hash to the FNV offset basis so the recipe
        // can't drift silently.
        assert_eq!(snapshot_hash(&[]), 0xCBF2_9CE4_8422_2325);
    }
}
