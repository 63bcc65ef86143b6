//! Serialized snapshots of the runtime's recoverable state.
//!
//! Every structure a shard worker must survive a crash with has a
//! `*Rec` mirror here with plain public fields and an explicit
//! little-endian encoding (see [`crate::codec`]). The runtime crates
//! (`acep-engine`, `acep-core`, `acep-stream`) own the conversions to
//! and from these records — this crate only defines the wire shape, so
//! it depends on nothing but `acep-types` and `acep-plan`.
//!
//! Events are referenced by their ingest `seq` into the shard's
//! [`EventTable`](crate::EventTable); nothing here embeds an event
//! payload.

use acep_plan::{EvalPlan, LazyPlan, OrderPlan, TreeNode, TreePlan};

use crate::codec::{CheckpointError, Reader, Writer};
use crate::event_table::EventRec;

fn encode_vec_u64(w: &mut Writer, v: &[u64]) {
    w.put_usize(v.len());
    for &x in v {
        w.put_u64(x);
    }
}

fn decode_vec_u64(r: &mut Reader<'_>) -> Result<Vec<u64>, CheckpointError> {
    let n = r.get_len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.get_u64()?);
    }
    Ok(v)
}

/// Encodes an [`EvalPlan`] (order permutation or tree arena).
pub fn encode_plan(w: &mut Writer, plan: &EvalPlan) {
    match plan {
        EvalPlan::Order(p) => {
            w.put_u8(0);
            w.put_usize(p.order.len());
            for &s in &p.order {
                w.put_usize(s);
            }
        }
        EvalPlan::Tree(p) => {
            w.put_u8(1);
            w.put_usize(p.nodes.len());
            for node in &p.nodes {
                match node {
                    TreeNode::Leaf { slot } => {
                        w.put_u8(0);
                        w.put_usize(*slot);
                    }
                    TreeNode::Internal { left, right } => {
                        w.put_u8(1);
                        w.put_usize(*left);
                        w.put_usize(*right);
                    }
                }
            }
            w.put_usize(p.root);
        }
        EvalPlan::Lazy(p) => {
            w.put_u8(2);
            w.put_usize(p.order.len());
            for &s in &p.order {
                w.put_usize(s);
            }
        }
    }
}

/// Decodes an [`EvalPlan`] written by [`encode_plan`].
pub fn decode_plan(r: &mut Reader<'_>) -> Result<EvalPlan, CheckpointError> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_len()?;
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(r.get_usize()?);
            }
            EvalPlan::Order(OrderPlan { order })
        }
        1 => {
            let n = r.get_len()?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(match r.get_u8()? {
                    0 => TreeNode::Leaf {
                        slot: r.get_usize()?,
                    },
                    1 => TreeNode::Internal {
                        left: r.get_usize()?,
                        right: r.get_usize()?,
                    },
                    _ => return Err(CheckpointError::BadValue("tree node tag")),
                });
            }
            let root = r.get_usize()?;
            EvalPlan::Tree(TreePlan { nodes, root })
        }
        2 => {
            let n = r.get_len()?;
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(r.get_usize()?);
            }
            EvalPlan::Lazy(LazyPlan { order })
        }
        _ => return Err(CheckpointError::BadValue("plan tag")),
    })
}

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

impl PartialRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.slots.len());
        for &(slot, seq) in &self.slots {
            w.put_u32(slot);
            w.put_u64(seq);
        }
        w.put_u64(self.min_ts);
        w.put_u64(self.max_ts);
        w.put_u32(self.bound);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push((r.get_u32()?, r.get_u64()?));
        }
        Ok(Self {
            slots,
            min_ts: r.get_u64()?,
            max_ts: r.get_u64()?,
            bound: r.get_u32()?,
        })
    }
}

fn encode_partials(w: &mut Writer, v: &[PartialRec]) {
    w.put_usize(v.len());
    for p in v {
        p.encode(w);
    }
}

fn decode_partials(r: &mut Reader<'_>) -> Result<Vec<PartialRec>, CheckpointError> {
    let n = r.get_len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(PartialRec::decode(r)?);
    }
    Ok(v)
}

/// A time-windowed event buffer (negation guards, Kleene history, tree
/// leaves), oldest event first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BufferRec {
    /// Buffered event seqs, oldest first.
    pub seqs: Vec<u64>,
}

impl BufferRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        encode_vec_u64(w, &self.seqs);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            seqs: decode_vec_u64(r)?,
        })
    }
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

impl PendingRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.events.len());
        for e in &self.events {
            w.put_opt_u64(*e);
        }
        w.put_u64(self.min_ts);
        w.put_u64(self.max_ts);
        w.put_usize(self.kleene_sets.len());
        for set in &self.kleene_sets {
            encode_vec_u64(w, set);
        }
        w.put_u64(self.deadline);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(r.get_opt_u64()?);
        }
        let min_ts = r.get_u64()?;
        let max_ts = r.get_u64()?;
        let k = r.get_len()?;
        let mut kleene_sets = Vec::with_capacity(k);
        for _ in 0..k {
            kleene_sets.push(decode_vec_u64(r)?);
        }
        Ok(Self {
            events,
            min_ts,
            max_ts,
            kleene_sets,
            deadline: r.get_u64()?,
        })
    }
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

impl FinalizerRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.neg.len());
        for b in &self.neg {
            b.encode(w);
        }
        w.put_usize(self.kleene.len());
        for b in &self.kleene {
            b.encode(w);
        }
        match &self.seen {
            Some(seqs) => {
                w.put_u8(1);
                encode_vec_u64(w, seqs);
            }
            None => w.put_u8(0),
        }
        w.put_usize(self.pending.len());
        for p in &self.pending {
            p.encode(w);
        }
        w.put_u64(self.comparisons);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut neg = Vec::with_capacity(n);
        for _ in 0..n {
            neg.push(BufferRec::decode(r)?);
        }
        let n = r.get_len()?;
        let mut kleene = Vec::with_capacity(n);
        for _ in 0..n {
            kleene.push(BufferRec::decode(r)?);
        }
        let seen = match r.get_u8()? {
            0 => None,
            1 => Some(decode_vec_u64(r)?),
            _ => return Err(CheckpointError::BadValue("seen log option")),
        };
        let n = r.get_len()?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            pending.push(PendingRec::decode(r)?);
        }
        Ok(Self {
            neg,
            kleene,
            seen,
            pending,
            comparisons: r.get_u64()?,
        })
    }
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

impl OrderExecRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.buffers.len());
        for b in &self.buffers {
            b.encode(w);
        }
        w.put_usize(self.levels.len());
        for level in &self.levels {
            encode_partials(w, level);
        }
        self.finalizer.encode(w);
        w.put_u64(self.comparisons);
        w.put_u64(self.events_since_sweep);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut buffers = Vec::with_capacity(n);
        for _ in 0..n {
            buffers.push(BufferRec::decode(r)?);
        }
        let n = r.get_len()?;
        let mut levels = Vec::with_capacity(n);
        for _ in 0..n {
            levels.push(decode_partials(r)?);
        }
        Ok(Self {
            buffers,
            levels,
            finalizer: FinalizerRec::decode(r)?,
            comparisons: r.get_u64()?,
            events_since_sweep: r.get_u64()?,
        })
    }
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

impl TreeExecRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.store.len());
        for node in &self.store {
            encode_partials(w, node);
        }
        self.finalizer.encode(w);
        w.put_u64(self.comparisons);
        w.put_u64(self.events_since_sweep);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut store = Vec::with_capacity(n);
        for _ in 0..n {
            store.push(decode_partials(r)?);
        }
        Ok(Self {
            store,
            finalizer: FinalizerRec::decode(r)?,
            comparisons: r.get_u64()?,
            events_since_sweep: r.get_u64()?,
        })
    }
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

impl LazyExecRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.buffers.len());
        for b in &self.buffers {
            b.encode(w);
        }
        encode_vec_u64(w, &self.triggers);
        self.finalizer.encode(w);
        w.put_u64(self.comparisons);
        w.put_u64(self.events_since_sweep);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut buffers = Vec::with_capacity(n);
        for _ in 0..n {
            buffers.push(BufferRec::decode(r)?);
        }
        Ok(Self {
            buffers,
            triggers: decode_vec_u64(r)?,
            finalizer: FinalizerRec::decode(r)?,
            comparisons: r.get_u64()?,
            events_since_sweep: r.get_u64()?,
        })
    }
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

impl ExecutorRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        match self {
            ExecutorRec::Order(e) => {
                w.put_u8(0);
                e.encode(w);
            }
            ExecutorRec::Tree(e) => {
                w.put_u8(1);
                e.encode(w);
            }
            ExecutorRec::Lazy(e) => {
                w.put_u8(2);
                e.encode(w);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.get_u8()? {
            0 => ExecutorRec::Order(OrderExecRec::decode(r)?),
            1 => ExecutorRec::Tree(TreeExecRec::decode(r)?),
            2 => ExecutorRec::Lazy(LazyExecRec::decode(r)?),
            _ => return Err(CheckpointError::BadValue("executor tag")),
        })
    }
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

impl GenerationRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        encode_plan(w, &self.plan);
        w.put_u64(self.start);
        self.exec.encode(w);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            plan: decode_plan(r)?,
            start: r.get_u64()?,
            exec: ExecutorRec::decode(r)?,
        })
    }
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

impl MigratingRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.gens.len());
        for g in &self.gens {
            g.encode(w);
        }
        w.put_u64(self.replacements);
        w.put_u64(self.plan_epoch);
        w.put_u64(self.retired_comparisons);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut gens = Vec::with_capacity(n);
        for _ in 0..n {
            gens.push(GenerationRec::decode(r)?);
        }
        Ok(Self {
            gens,
            replacements: r.get_u64()?,
            plan_epoch: r.get_u64()?,
            retired_comparisons: r.get_u64()?,
        })
    }
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

impl KeyedEngineRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.branches.len());
        for b in &self.branches {
            b.encode(w);
        }
        w.put_u64(self.last_ts);
        w.put_u64(self.events);
        w.put_u64(self.matches);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut branches = Vec::with_capacity(n);
        for _ in 0..n {
            branches.push(MigratingRec::decode(r)?);
        }
        Ok(Self {
            branches,
            last_ts: r.get_u64()?,
            events: r.get_u64()?,
            matches: r.get_u64()?,
        })
    }
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

impl BranchCtlRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        encode_plan(w, &self.plan);
        w.put_u64(self.epoch);
        w.put_bool(self.initialized);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            plan: decode_plan(r)?,
            epoch: r.get_u64()?,
            initialized: r.get_bool()?,
        })
    }
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

impl StatsRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.events);
        w.put_u64(self.decision_evals);
        w.put_u64(self.reopt_triggers);
        w.put_u64(self.planner_invocations);
        w.put_u64(self.plan_replacements);
        w.put_u64(self.plan_epoch);
        w.put_u64(self.decision_time_us);
        w.put_u64(self.planning_time_us);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            events: r.get_u64()?,
            decision_evals: r.get_u64()?,
            reopt_triggers: r.get_u64()?,
            planner_invocations: r.get_u64()?,
            plan_replacements: r.get_u64()?,
            plan_epoch: r.get_u64()?,
            decision_time_us: r.get_u64()?,
            planning_time_us: r.get_u64()?,
        })
    }
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

impl RateRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        match self {
            RateRec::Exact { times, first_ts } => {
                w.put_u8(0);
                encode_vec_u64(w, times);
                w.put_opt_u64(*first_ts);
            }
            RateRec::Dgim { buckets, first_ts } => {
                w.put_u8(1);
                w.put_usize(buckets.len());
                for &(size, ts) in buckets {
                    w.put_u64(size);
                    w.put_u64(ts);
                }
                w.put_opt_u64(*first_ts);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.get_u8()? {
            0 => RateRec::Exact {
                times: decode_vec_u64(r)?,
                first_ts: r.get_opt_u64()?,
            },
            1 => {
                let n = r.get_len()?;
                let mut buckets = Vec::with_capacity(n);
                for _ in 0..n {
                    buckets.push((r.get_u64()?, r.get_u64()?));
                }
                RateRec::Dgim {
                    buckets,
                    first_ts: r.get_opt_u64()?,
                }
            }
            _ => return Err(CheckpointError::BadValue("rate estimator tag")),
        })
    }
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

impl CollectorRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.events_observed);
        w.put_usize(self.rates.len());
        for rate in &self.rates {
            rate.encode(w);
        }
        w.put_usize(self.samples.len());
        for sample in &self.samples {
            encode_vec_u64(w, sample);
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let events_observed = r.get_u64()?;
        let n = r.get_len()?;
        let mut rates = Vec::with_capacity(n);
        for _ in 0..n {
            rates.push(RateRec::decode(r)?);
        }
        let n = r.get_len()?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(decode_vec_u64(r)?);
        }
        Ok(Self {
            events_observed,
            rates,
            samples,
        })
    }
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

impl ControllerRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.branches.len());
        for b in &self.branches {
            b.encode(w);
        }
        self.stats.encode(w);
        w.put_u64(self.last_deploy_event);
        self.collector.encode(w);
        w.put_u64(self.last_step_ts);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_len()?;
        let mut branches = Vec::with_capacity(n);
        for _ in 0..n {
            branches.push(BranchCtlRec::decode(r)?);
        }
        Ok(Self {
            branches,
            stats: StatsRec::decode(r)?,
            last_deploy_event: r.get_u64()?,
            collector: CollectorRec::decode(r)?,
            last_step_ts: r.get_u64()?,
        })
    }
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

impl ReorderRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.watermark);
        w.put_u64(self.max_seen);
        w.put_opt_u64(self.first_seen);
        w.put_usize(self.sources.len());
        for &(s, ts) in &self.sources {
            w.put_u32(s);
            w.put_u64(ts);
        }
        w.put_usize(self.heap.len());
        for &(key, source, seq) in &self.heap {
            w.put_u64(key);
            w.put_u32(source);
            w.put_u64(seq);
        }
        w.put_u64(self.max_depth);
        w.put_u64(self.overflow);
        w.put_usize(self.overflow_by_source.len());
        for &(s, n) in &self.overflow_by_source {
            w.put_u32(s);
            w.put_u64(n);
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let watermark = r.get_u64()?;
        let max_seen = r.get_u64()?;
        let first_seen = r.get_opt_u64()?;
        let n = r.get_len()?;
        let mut sources = Vec::with_capacity(n);
        for _ in 0..n {
            sources.push((r.get_u32()?, r.get_u64()?));
        }
        let n = r.get_len()?;
        let mut heap = Vec::with_capacity(n);
        for _ in 0..n {
            heap.push((r.get_u64()?, r.get_u32()?, r.get_u64()?));
        }
        let max_depth = r.get_u64()?;
        let overflow = r.get_u64()?;
        let n = r.get_len()?;
        let mut overflow_by_source = Vec::with_capacity(n);
        for _ in 0..n {
            overflow_by_source.push((r.get_u32()?, r.get_u64()?));
        }
        Ok(Self {
            watermark,
            max_seen,
            first_seen,
            sources,
            heap,
            max_depth,
            overflow,
            overflow_by_source,
        })
    }
}

/// One key's engines, one optional slot per registered query.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyStateRec {
    /// Partition key.
    pub key: u64,
    /// Per-query engine state (`None` = no engine instantiated).
    pub engines: Vec<Option<KeyedEngineRec>>,
}

impl KeyStateRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.key);
        w.put_usize(self.engines.len());
        for e in &self.engines {
            match e {
                Some(rec) => {
                    w.put_u8(1);
                    rec.encode(w);
                }
                None => w.put_u8(0),
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let key = r.get_u64()?;
        let n = r.get_len()?;
        let mut engines = Vec::with_capacity(n);
        for _ in 0..n {
            engines.push(match r.get_u8()? {
                0 => None,
                1 => Some(KeyedEngineRec::decode(r)?),
                _ => return Err(CheckpointError::BadValue("engine option")),
            });
        }
        Ok(Self { key, engines })
    }
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

impl CountersRec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.events);
        w.put_u64(self.batches);
        w.put_u64(self.late_dropped);
        w.put_u64(self.late_routed);
        w.put_u64(self.engine_time);
        w.put_u64(self.max_event_ts);
        w.put_u64(self.finalize_visits);
        w.put_u64(self.stall_batches);
        w.put_u64(self.prev_watermark);
        w.put_u64(self.emit_seq);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            events: r.get_u64()?,
            batches: r.get_u64()?,
            late_dropped: r.get_u64()?,
            late_routed: r.get_u64()?,
            engine_time: r.get_u64()?,
            max_event_ts: r.get_u64()?,
            finalize_visits: r.get_u64()?,
            stall_batches: r.get_u64()?,
            prev_watermark: r.get_u64()?,
            emit_seq: r.get_u64()?,
        })
    }
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

impl ShardCheckpoint {
    /// Encodes this checkpoint into the given writer.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.shard);
        self.counters.encode(w);
        match &self.reorder {
            Some(rec) => {
                w.put_u8(1);
                rec.encode(w);
            }
            None => w.put_u8(0),
        }
        w.put_usize(self.controllers.len());
        for c in &self.controllers {
            c.encode(w);
        }
        w.put_usize(self.keys.len());
        for k in &self.keys {
            k.encode(w);
        }
        w.put_u64(self.retire_cursor);
        w.put_usize(self.events.len());
        for e in &self.events {
            e.encode(w);
        }
    }

    /// Encodes this checkpoint into fresh bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a checkpoint written by [`ShardCheckpoint::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let shard = r.get_u32()?;
        let counters = CountersRec::decode(r)?;
        let reorder = match r.get_u8()? {
            0 => None,
            1 => Some(ReorderRec::decode(r)?),
            _ => return Err(CheckpointError::BadValue("reorder option")),
        };
        let n = r.get_len()?;
        let mut controllers = Vec::with_capacity(n);
        for _ in 0..n {
            controllers.push(ControllerRec::decode(r)?);
        }
        let n = r.get_len()?;
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(KeyStateRec::decode(r)?);
        }
        let retire_cursor = r.get_u64()?;
        let n = r.get_len()?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(EventRec::decode(r)?);
        }
        Ok(Self {
            shard,
            counters,
            reorder,
            controllers,
            keys,
            retire_cursor,
            events,
        })
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
        let decoded = ShardCheckpoint::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, cp);
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
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let back = ExecutorRec::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, rec);
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
            let mut w = Writer::new();
            encode_plan(&mut w, &plan);
            let bytes = w.into_bytes();
            let back = decode_plan(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, plan);
        }
    }
}
