//! Serialized snapshots of the runtime's recoverable state.
//!
//! Every structure a shard worker must survive a crash with has a
//! `*Rec` mirror here with plain public fields. A record's type *is*
//! its wire layout: [`wire_record!`](crate::codec) derives the encoding
//! from the definition (fields in declaration order, enum variants
//! tagged in declaration order; see [`crate::codec`]), so adding,
//! removing, reordering or retyping a field is a format change that
//! needs a new [`MAGIC`](crate::MAGIC). The runtime crates
//! (`acep-engine`, `acep-core`, `acep-stream`) own the conversions to
//! and from these records — this crate only defines the wire shape, so
//! it depends on nothing but `acep-types` and `acep-plan`.
//!
//! Events are referenced by their ingest `seq` into the shard's
//! [`EventTable`](crate::EventTable); nothing here embeds an event
//! payload.

use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreeNode, TreePlan};

use crate::codec::{wire_record, CheckpointError, Reader, Wire, Writer};
use crate::event_table::EventRec;

/// An [`EvalPlan`] is written as a `u8` family tag (order, tree, lazy)
/// and then the plan's fields.
impl Wire for EvalPlan {
    fn put(&self, w: &mut Writer) {
        match self {
            EvalPlan::Order(p) => {
                0u8.put(w);
                p.order.put(w);
            }
            EvalPlan::Tree(p) => {
                1u8.put(w);
                p.nodes.put(w);
                p.root.put(w);
            }
            EvalPlan::Lazy(p) => {
                2u8.put(w);
                p.order.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match u8::get(r)? {
            0 => EvalPlan::Order(OrderPlan {
                order: Wire::get(r)?,
            }),
            1 => EvalPlan::Tree(TreePlan {
                nodes: Wire::get(r)?,
                root: Wire::get(r)?,
            }),
            2 => EvalPlan::Lazy(LazyPlan {
                order: Wire::get(r)?,
            }),
            _ => return Err(CheckpointError::BadValue("plan tag")),
        })
    }
}

/// A [`TreeNode`] is written as a `u8` tag (leaf, internal) and then the
/// node's arena indices.
impl Wire for TreeNode {
    fn put(&self, w: &mut Writer) {
        match *self {
            TreeNode::Leaf { slot } => (0u8, slot).put(w),
            TreeNode::Internal { left, right } => (1u8, left, right).put(w),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match u8::get(r)? {
            0 => TreeNode::Leaf {
                slot: Wire::get(r)?,
            },
            1 => TreeNode::Internal {
                left: Wire::get(r)?,
                right: Wire::get(r)?,
            },
            _ => return Err(CheckpointError::BadValue("tree node tag")),
        })
    }
}

wire_record! {
    /// One live partial match: its bound `(slot, event)` chain oldest-first
    /// plus the cached aggregates the arena handle carries.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PartialRec {
        /// `(slot, event seq)` bindings, oldest binding first.
        pub slots: Vec<(u32, u64)>,
        /// Earliest bound timestamp.
        pub min_ts: u64,
        /// Latest bound timestamp.
        pub max_ts: u64,
        /// Number of bound slots (Kleene slots may bind more than once).
        pub bound: u32,
    }

    /// A time-windowed event buffer (negation guards, Kleene history, tree
    /// leaves), oldest event first.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct BufferRec {
        /// Buffered event seqs, oldest first.
        pub seqs: Vec<u64>,
    }

    /// A completed match held pending a trailing negation/Kleene deadline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PendingRec {
        /// Slot bindings (`None` = unbound optional slot), by slot index.
        pub events: Vec<Option<u64>>,
        /// Earliest bound timestamp.
        pub min_ts: u64,
        /// Latest bound timestamp.
        pub max_ts: u64,
        /// Per-Kleene-slot accumulated iteration sets.
        pub kleene_sets: Vec<Vec<u64>>,
        /// Finalization deadline (`min_ts + window`).
        pub deadline: u64,
    }

    /// A finalizer: negation/Kleene history buffers, the restrictive-policy
    /// seen log, and completed-but-pending matches.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FinalizerRec {
        /// Per-negated-slot guard buffers.
        pub neg: Vec<BufferRec>,
        /// Per-Kleene-slot history buffers.
        pub kleene: Vec<BufferRec>,
        /// Seen log of restrictive selection policies (`None` when the
        /// policy keeps no log).
        pub seen: Option<Vec<u64>>,
        /// Matches pending a finalization deadline, admission order.
        pub pending: Vec<PendingRec>,
        /// Predicate evaluations attributed to finalization.
        pub comparisons: u64,
    }

    /// An order-based (lazy-NFA) executor's live state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OrderExecRec {
        /// Per-slot event buffers (join-order indexed like the executor's).
        pub buffers: Vec<BufferRec>,
        /// Partial-match frontiers per prefix level.
        pub levels: Vec<Vec<PartialRec>>,
        /// The finalization stage.
        pub finalizer: FinalizerRec,
        /// Predicate evaluations so far.
        pub comparisons: u64,
        /// Events since the last arena compaction sweep.
        pub events_since_sweep: u64,
    }

    /// A tree-based (ZStream) executor's live state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TreeExecRec {
        /// Per-node partial stores (leaf singletons and join results).
        pub store: Vec<Vec<PartialRec>>,
        /// The finalization stage.
        pub finalizer: FinalizerRec,
        /// Predicate evaluations so far.
        pub comparisons: u64,
        /// Events since the last arena compaction sweep.
        pub events_since_sweep: u64,
    }

    /// A lazy-chain executor's live state. Trigger deadlines are not
    /// serialized: each is recomputed on restore as the trigger event's
    /// timestamp plus the window.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LazyExecRec {
        /// Per-join-position event buffers (join-order indexed).
        pub buffers: Vec<BufferRec>,
        /// Pending trigger event seqs, arrival order.
        pub triggers: Vec<u64>,
        /// The finalization stage.
        pub finalizer: FinalizerRec,
        /// Predicate evaluations so far.
        pub comparisons: u64,
        /// Events since the last expiry sweep.
        pub events_since_sweep: u64,
    }

    /// Any executor kind's state.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ExecutorRec {
        /// Order-based executor.
        Order(OrderExecRec),
        /// Tree-based executor.
        Tree(TreeExecRec),
        /// Lazy-chain executor.
        Lazy(LazyExecRec),
    }

    /// One executor generation of a migrating engine: the plan it runs,
    /// the event-time at which it took ownership, and its state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GenerationRec {
        /// The evaluation plan this generation executes.
        pub plan: EvalPlan,
        /// Event-time start of this generation's ownership range.
        pub start: u64,
        /// Executor state.
        pub exec: ExecutorRec,
    }

    /// A per-(key, branch) migrating executor: its generation stack plus
    /// migration accounting.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MigratingRec {
        /// Generations oldest-first (last = current).
        pub gens: Vec<GenerationRec>,
        /// Completed plan migrations on this engine.
        pub replacements: u64,
        /// Controller plan epoch the current generation is built for.
        pub plan_epoch: u64,
        /// Comparisons inherited from retired generations.
        pub retired_comparisons: u64,
    }

    /// A per-(key, query) engine: one migrating executor per canonical
    /// branch plus stream-clock and counters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct KeyedEngineRec {
        /// Per-branch migrating executors.
        pub branches: Vec<MigratingRec>,
        /// Last stream time driven into the engine.
        pub last_ts: u64,
        /// Events this engine evaluated.
        pub events: u64,
        /// Matches this engine emitted.
        pub matches: u64,
    }

    /// One controller branch's deployed plan + epoch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BranchCtlRec {
        /// The currently deployed plan.
        pub plan: EvalPlan,
        /// Plan epoch (bumped on each deployment).
        pub epoch: u64,
        /// Whether the initial statistics-driven optimization ran.
        pub initialized: bool,
    }

    /// Adaptation counters of one controller (timings in microseconds).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StatsRec {
        /// Relevant events observed.
        pub events: u64,
        /// Decision-function evaluations.
        pub decision_evals: u64,
        /// Decisions that triggered re-optimization.
        pub reopt_triggers: u64,
        /// Planner invocations.
        pub planner_invocations: u64,
        /// Deployments that replaced a plan.
        pub plan_replacements: u64,
        /// Monotone deployment epoch.
        pub plan_epoch: u64,
        /// Cumulative decision time, µs.
        pub decision_time_us: u64,
        /// Cumulative planning time, µs.
        pub planning_time_us: u64,
    }

    /// One rate estimator's state inside a [`CollectorRec`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum RateRec {
        /// Exact ring buffer: retained in-window arrival timestamps (oldest
        /// first) and the warm-up anchor.
        Exact {
            /// Retained arrival timestamps, oldest first.
            times: Vec<u64>,
            /// Timestamp of the first observation ever.
            first_ts: Option<u64>,
        },
        /// DGIM histogram: `(bucket size, newest-arrival ts)` pairs (oldest
        /// bucket first) and the warm-up anchor.
        Dgim {
            /// Bucket list, oldest bucket first.
            buckets: Vec<(u64, u64)>,
            /// Timestamp of the first observation ever.
            first_ts: Option<u64>,
        },
    }

    /// A controller's statistics collector: rate-estimator state and
    /// per-type samples (event seq references into the shard's event
    /// table).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct CollectorRec {
        /// Total events the collector observed.
        pub events_observed: u64,
        /// Rate-estimator state: one entry per type (type index order), then
        /// one per unary-conditioned branch slot (branch, then slot order),
        /// counting the slot's arrivals that pass its unary conditions. A
        /// record whose count does not match the collector's shape is
        /// refused on restore.
        pub rates: Vec<RateRec>,
        /// Per-type sampled events as seq references (oldest first), type
        /// index order.
        pub samples: Vec<Vec<u64>>,
    }

    /// A per-(shard, query) controller: deployed plans, epochs, adaptation
    /// counters, and the statistics collector's state.
    ///
    /// The collector is captured (since `acep-checkpoint-v2`) so a
    /// recovered controller replays the exact snapshot trajectory of the
    /// crashed incarnation. For eager executors that is belt-and-braces —
    /// their emission times are plan-independent, so any plan trajectory
    /// detects the same multiset at the same times. Lazy-chain executors,
    /// however, emit when a *trigger's* window closes, and the trigger slot
    /// is the plan's statistics-chosen first join position: replaying a
    /// different plan trajectory after recovery would reorder emissions and
    /// break frontier-based deduplication. Armed decision-function state
    /// still restarts fresh; policies whose decisions derive purely from
    /// the (restored) snapshot trajectory — e.g. unconditional
    /// re-optimization — replay exactly.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ControllerRec {
        /// Per-branch deployed plans.
        pub branches: Vec<BranchCtlRec>,
        /// Adaptation counters.
        pub stats: StatsRec,
        /// `stats.events` value at the most recent deployment (drives
        /// migration staggering).
        pub last_deploy_event: u64,
        /// The statistics collector's state.
        pub collector: CollectorRec,
        /// Event time of the most recent control step (anchors the
        /// time-based control cadence).
        pub last_step_ts: u64,
    }

    /// The reorder buffer: held events, per-source progress, and overflow
    /// accounting.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReorderRec {
        /// Shard watermark.
        pub watermark: u64,
        /// Largest timestamp seen (merged strategy).
        pub max_seen: u64,
        /// First-seen timestamp (phantom-source grace anchor).
        pub first_seen: Option<u64>,
        /// Per-source largest seen timestamps, first-seen order.
        pub sources: Vec<(u32, u64)>,
        /// Held events as `(key, source, event seq)`, heap iteration order
        /// (re-heapified on restore).
        pub heap: Vec<(u64, u32, u64)>,
        /// High-water mark of buffered events.
        pub max_depth: u64,
        /// Total capacity evictions.
        pub overflow: u64,
        /// Per-source capacity evictions.
        pub overflow_by_source: Vec<(u32, u64)>,
    }

    /// One key's engines, one optional slot per registered query.
    #[derive(Debug, Clone, PartialEq)]
    pub struct KeyStateRec {
        /// Partition key.
        pub key: u64,
        /// Per-query engine state (`None` = no engine instantiated).
        pub engines: Vec<Option<KeyedEngineRec>>,
    }

    /// Worker-level counters carried across recovery.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct CountersRec {
        /// Events processed (post-reorder).
        pub events: u64,
        /// Batches ingested.
        pub batches: u64,
        /// Late events dropped.
        pub late_dropped: u64,
        /// Late events routed to the sink.
        pub late_routed: u64,
        /// Last stream time driven into the engines.
        pub engine_time: u64,
        /// Largest event timestamp processed.
        pub max_event_ts: u64,
        /// Engines visited by watermark-driven finalization.
        pub finalize_visits: u64,
        /// Consecutive stalled batches at checkpoint time.
        pub stall_batches: u64,
        /// Watermark at the end of the previous batch.
        pub prev_watermark: u64,
        /// Monotone per-shard emitted-match sequence — the exactly-once
        /// frontier.
        pub emit_seq: u64,
    }

    /// One shard's full recoverable state at a checkpoint, with an
    /// incremental event-table delta.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShardCheckpoint {
        /// Shard index.
        pub shard: u32,
        /// Worker counters (including the exactly-once emit frontier).
        pub counters: CountersRec,
        /// Reorder-buffer state (`None` = passthrough shard).
        pub reorder: Option<ReorderRec>,
        /// Per-query controllers.
        pub controllers: Vec<ControllerRec>,
        /// Per-key engine state, in first-seen key order (the retirement
        /// cursor's iteration domain).
        pub keys: Vec<KeyStateRec>,
        /// Idle-retirement cursor position in the key order.
        pub retire_cursor: u64,
        /// Events referenced by this checkpoint and not present in any
        /// earlier record for this shard (the incremental delta).
        pub events: Vec<EventRec>,
    }
}

impl ShardCheckpoint {
    /// Encodes this checkpoint into fresh bytes — one shard frame's
    /// payload for [`CheckpointLog::append_shard`](crate::CheckpointLog::append_shard).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> ShardCheckpoint {
        ShardCheckpoint {
            shard: 2,
            counters: CountersRec {
                events: 100,
                emit_seq: 17,
                ..CountersRec::default()
            },
            reorder: Some(ReorderRec {
                watermark: 900,
                max_seen: 1000,
                first_seen: Some(10),
                sources: vec![(0, 1000), (1, 950)],
                heap: vec![(5, 0, 40), (6, 1, 41)],
                max_depth: 7,
                overflow: 0,
                overflow_by_source: vec![],
            }),
            controllers: vec![ControllerRec {
                branches: vec![BranchCtlRec {
                    plan: EvalPlan::Order(OrderPlan {
                        order: vec![2, 0, 1],
                    }),
                    epoch: 3,
                    initialized: true,
                }],
                stats: StatsRec {
                    events: 100,
                    plan_epoch: 3,
                    ..StatsRec::default()
                },
                last_deploy_event: 64,
                collector: CollectorRec {
                    events_observed: 100,
                    rates: vec![
                        RateRec::Exact {
                            times: vec![10, 20, 400],
                            first_ts: Some(10),
                        },
                        RateRec::Dgim {
                            buckets: vec![(4, 15), (2, 30), (1, 400)],
                            first_ts: Some(5),
                        },
                    ],
                    samples: vec![vec![40], vec![]],
                },
                last_step_ts: 400,
            }],
            keys: vec![KeyStateRec {
                key: 5,
                engines: vec![
                    Some(KeyedEngineRec {
                        branches: vec![MigratingRec {
                            gens: vec![GenerationRec {
                                plan: EvalPlan::Tree(TreePlan {
                                    nodes: vec![
                                        TreeNode::Leaf { slot: 0 },
                                        TreeNode::Leaf { slot: 1 },
                                        TreeNode::Internal { left: 0, right: 1 },
                                    ],
                                    root: 2,
                                }),
                                start: 0,
                                exec: ExecutorRec::Tree(TreeExecRec {
                                    store: vec![vec![PartialRec {
                                        slots: vec![(0, 40)],
                                        min_ts: 400,
                                        max_ts: 400,
                                        bound: 1,
                                    }]],
                                    finalizer: FinalizerRec {
                                        neg: vec![BufferRec { seqs: vec![41] }],
                                        kleene: vec![],
                                        seen: Some(vec![40, 41]),
                                        pending: vec![PendingRec {
                                            events: vec![Some(40), None],
                                            min_ts: 400,
                                            max_ts: 400,
                                            kleene_sets: vec![vec![40]],
                                            deadline: 1400,
                                        }],
                                        comparisons: 9,
                                    },
                                    comparisons: 12,
                                    events_since_sweep: 3,
                                }),
                            }],
                            replacements: 1,
                            plan_epoch: 3,
                            retired_comparisons: 4,
                        }],
                        last_ts: 950,
                        events: 20,
                        matches: 2,
                    }),
                    None,
                ],
            }],
            retire_cursor: 1,
            events: vec![EventRec {
                type_id: 1,
                timestamp: 400,
                seq: 40,
                attrs: vec![crate::ValueRec::Int(8)],
            }],
        }
    }

    #[test]
    fn shard_checkpoint_round_trips() {
        let cp = sample_checkpoint();
        let bytes = cp.to_bytes();
        assert_eq!(ShardCheckpoint::from_wire(&bytes), Ok(cp));
    }

    #[test]
    fn lazy_executor_rec_round_trips() {
        let rec = ExecutorRec::Lazy(LazyExecRec {
            buffers: vec![BufferRec { seqs: vec![1, 2] }, BufferRec::default()],
            triggers: vec![2, 7],
            finalizer: FinalizerRec {
                neg: vec![],
                kleene: vec![],
                seen: None,
                pending: vec![],
                comparisons: 3,
            },
            comparisons: 21,
            events_since_sweep: 5,
        });
        assert_eq!(ExecutorRec::from_wire(&rec.to_wire()), Ok(rec));
    }

    #[test]
    fn plan_round_trips() {
        for plan in [
            EvalPlan::Order(OrderPlan {
                order: vec![1, 0, 3, 2],
            }),
            EvalPlan::Tree(TreePlan::leaf(0)),
            EvalPlan::Lazy(LazyPlan {
                order: vec![2, 0, 1],
            }),
        ] {
            assert_eq!(EvalPlan::from_wire(&plan.to_wire()), Ok(plan));
        }
    }
}
