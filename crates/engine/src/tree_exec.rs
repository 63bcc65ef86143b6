//! The tree-based (ZStream-style) executor.
//!
//! Events accumulate at the leaves of the evaluation tree; each internal
//! node joins the result sets of its children (paper Fig. 3). New
//! arrivals propagate along the leaf-to-root path, joining against the
//! sibling subtree's stored results at every level, so the work per event
//! is proportional to the intermediate cardinalities the ZStream cost
//! model counts.
//!
//! Node result sets hold arena-backed [`Partial`] handles: a join pushes
//! only the smaller side's chain onto the shared [`PartialStore`]
//! instead of cloning an n-slot vector per merged result, and the
//! leaf-to-root propagation ping-pongs between two reusable scratch
//! vectors, so the per-event hot path allocates only when a new key
//! event opens a group (below) or a stored list outgrows its capacity.
//!
//! # One join step
//!
//! Joining the partials new at a node against its sibling's stored
//! results is one *step*. Before the step's loop the executor compiles
//! the cross pairs it has to test — per sibling slot `t`, the new-side
//! slots [`ExecContext::step_masks`] links to `t` (same type, adjacent
//! in a sequence's order, or tied by a condition), each with its pair
//! group resolved — from the two subtrees' slot masks, which are
//! computed once per executor beside the parent/sibling links. Per new
//! partial it then materialises the slot → event map once and tests the
//! sibling's stored partials group by group (below); inside a group that
//! passes it walks each member's chain once testing only the step's
//! pairs (stopping when every tested slot has been seen), collects the
//! hits, and merges them afterwards in hit order. A tested slot's
//! verdict depends only on the sibling event bound there, so each tested
//! slot remembers the verdict for the event it last saw. Every (new,
//! stored) pair still counts one comparison, whether a group test, a
//! remembered verdict or a chain walk decided it.
//!
//! # Key slots and groups
//!
//! Every internal node below the root has a *key slot*: the first of its
//! slots that its sibling's join step tests, derived once at
//! construction (it depends only on the two subtrees' slot masks) and
//! kept in a byte of the node's parent/sibling link. The node's stored partials are grouped by
//! the event they bind there, groups in that event's stream order and
//! members in insertion order. Since the cross pairs against the key
//! slot are a subset of the step's tests and see only the new partial
//! and the key event, one test of them per (new partial, group) decides
//! the whole group when it fails: the group is skipped and none of its
//! members is walked. On selective joins most candidates fail on the
//! event one sibling slot binds, so the per-candidate chain walk becomes
//! a per-group test. Leaves stay
//! flat, in one keyless group, as does a node whose sibling's step tests
//! none of its slots: a leaf partial binds its own event, so grouping by
//! it would make one group per partial.
//!
//! A checkpoint stores each node's partials flattened group by group,
//! and [`TreeExecutor::restore`] regroups them in that order, so a
//! restored executor has the same groups, emits in the same order and
//! writes the same record as the one that was checkpointed. In debug
//! builds every skipped group is re-tested member by member against the
//! full join test, which must reject each one (the counterpart of
//! `EventBuffer::debug_assert_sound` for history scans), so the debug
//! test suite is the skip's soundness oracle.

use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, ExecutorRec, TreeExecRec};
use acep_plan::{TreeNode, TreePlan};
use acep_types::faultpoint::{self, FaultPoint};
use acep_types::{Event, PairGroup, Timestamp};

use crate::buffer::stream_key;
use crate::context::{bits, ExecContext, StepMasks, MAX_SLOTS};
use crate::executor::Executor;
use crate::finalize::{Completed, Finalizer, FinalizerHistory};
use crate::matches::Match;
use crate::partial::{Partial, PartialStore};
use crate::selection::{prune_join, SeenLog};

const SWEEP_INTERVAL: u32 = 256;

/// [`Link::key`] of a node whose stored partials are not grouped.
const NO_KEY: u8 = u8::MAX;

/// Where a node of the pruned join tree sits.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Parent node (unused at the root).
    parent: u16,
    /// The parent's other child (unused at the root).
    sibling: u16,
    /// The node's key slot: the first of its slots the sibling's join
    /// step tests, by whose event the node's stored partials are
    /// grouped ([`NO_KEY`] at leaves, the root and nodes the step tests
    /// nothing of; module docs).
    key: u8,
    /// Join slots of the node's subtree.
    slots: u64,
}

/// Stored partials of one node that bind the same event at the node's
/// key slot, so one test of that event's cross pairs decides them all.
/// A node without a key slot keeps its partials in one keyless group.
#[derive(Debug)]
struct Group {
    /// The event every member binds at the key slot (`None`: the
    /// keyless group).
    key: Option<Arc<Event>>,
    /// The smallest `min_ts` of the members: none has expired while
    /// this has not.
    oldest: Timestamp,
    /// In insertion order.
    members: Vec<Partial>,
}

impl Group {
    fn new(key: Option<Arc<Event>>) -> Self {
        Self {
            key,
            oldest: Timestamp::MAX,
            members: Vec::new(),
        }
    }

    /// Whether this is the group of `ev`.
    fn is(&self, ev: &Arc<Event>) -> bool {
        self.key.as_ref().is_some_and(|k| Arc::ptr_eq(k, ev))
    }

    /// Drops the members expired at `now`, reporting how many remain.
    fn retain_live(&mut self, now: Timestamp, window: Timestamp) -> usize {
        if now.saturating_sub(self.oldest) > window {
            self.members.retain(|p| !p.expired(now, window));
            self.oldest = self
                .members
                .iter()
                .map(|p| p.min_ts)
                .min()
                .unwrap_or(Timestamp::MAX);
        }
        self.members.len()
    }
}

/// Drops the expired partials of one node's groups (and groups left
/// empty), reporting how many partials remain.
fn retain_live(groups: &mut Vec<Group>, now: Timestamp, window: Timestamp) -> usize {
    let mut live = 0;
    groups.retain_mut(|g| {
        live += g.retain_live(now, window);
        !g.members.is_empty()
    });
    live
}

/// Stores `p` in its group of `groups`: the keyless group when `key`
/// is [`NO_KEY`], else the group of the event `p` binds at slot `key`.
/// Keyed groups are kept in the stream order of their events.
fn insert(groups: &mut Vec<Group>, key: u8, p: Partial, pstore: &PartialStore) {
    let i = if key == NO_KEY {
        if groups.is_empty() {
            groups.push(Group::new(None));
        }
        0
    } else {
        let ev = p
            .event_at(pstore, key as usize)
            .expect("a stored partial binds its node's key slot");
        let k = stream_key(ev);
        let at = |g: &Group| g.key.as_deref().map_or((0, 0), stream_key);
        let mut i = groups.partition_point(|g| at(g) < k);
        while i < groups.len() && at(&groups[i]) == k && !groups[i].is(ev) {
            i += 1;
        }
        if !groups.get(i).is_some_and(|g| g.is(ev)) {
            groups.insert(i, Group::new(Some(Arc::clone(ev))));
        }
        i
    };
    let g = &mut groups[i];
    g.oldest = g.oldest.min(p.min_ts);
    g.members.push(p);
}

/// One cross pair a join step tests: slot `s` of the new side against
/// slot `t` of the sibling side.
#[derive(Debug, Clone, Copy)]
struct CrossTest {
    s: u8,
    t: u8,
    /// Same event type: the two must be different events.
    identity: bool,
    /// Adjacent in a sequence's order: the two must occur in slot
    /// order.
    order: bool,
    /// The conditions between the two slots (empty: none).
    cond: PairGroup,
}

impl CrossTest {
    #[inline]
    fn passes(&self, ctx: &ExecContext, a: &Event, b: &Event) -> bool {
        let (s, t) = (self.s as usize, self.t as usize);
        let (lo, hi) = if s < t { (a, b) } else { (b, a) };
        (!self.identity || a.seq != b.seq)
            && (!self.order || ExecContext::before(lo, hi))
            && (self.cond.is_empty() || ctx.holds_pair_group(self.cond, lo, hi))
    }
}

/// The compiled cross pairs of one join step.
struct JoinStep<'a> {
    /// Tests grouped by sibling slot.
    tests: &'a [CrossTest],
    /// `tests[ranges[t].0..ranges[t].1]` are the tests against sibling
    /// slot `t`.
    ranges: [(u16, u16); MAX_SLOTS],
    /// Number of sibling slots with at least one test.
    tested: usize,
}

impl<'a> JoinStep<'a> {
    /// Compiles into `tests` the cross pairs of joining the slots `new`
    /// onto the sibling's slots `bound` (module docs).
    fn compile(ctx: &ExecContext, tests: &'a mut Vec<CrossTest>, new: u64, bound: u64) -> Self {
        let mut ranges = [(0, 0); MAX_SLOTS];
        let mut tested = 0;
        tests.clear();
        for t in bits(bound) {
            let masks = partners(ctx, new, bound, t);
            let lo = tests.len() as u16;
            for s in bits(masks.any() & new) {
                tests.push(CrossTest {
                    s: s as u8,
                    t: t as u8,
                    identity: masks.identity >> s & 1 == 1,
                    order: masks.order >> s & 1 == 1,
                    cond: ctx.pair_group(s, t),
                });
            }
            let hi = tests.len() as u16;
            ranges[t] = (lo, hi);
            tested += usize::from(lo < hi);
        }
        Self {
            tests,
            ranges,
            tested,
        }
    }

    /// Whether the step tests sibling slot `t`.
    fn tests_slot(&self, t: usize) -> bool {
        let (lo, hi) = self.ranges[t];
        lo < hi
    }
}

/// The step masks of sibling slot `t` when the slots `new` join onto
/// `bound`: `t` as the new slot against everything else the join binds,
/// so the masks name its partners on the new side.
fn partners(ctx: &ExecContext, new: u64, bound: u64, t: usize) -> StepMasks {
    ctx.step_masks(1 << t, (new | bound) & !(1 << t))
}

/// The key slot of a node binding `bound` whose sibling binds `new`:
/// the first slot the sibling's join step tests ([`NO_KEY`] if none).
fn key_slot(ctx: &ExecContext, new: u64, bound: u64) -> u8 {
    bits(bound)
        .find(|&t| partners(ctx, new, bound, t).any() & new != 0)
        .map_or(NO_KEY, |t| t as u8)
}

/// Tree-plan executor for one sub-pattern.
pub struct TreeExecutor {
    ctx: Arc<ExecContext>,
    /// Join tree over non-Kleene slots (Kleene leaves pruned; the
    /// finalizer fills them in at emission).
    nodes: Vec<TreeNode>,
    root: usize,
    /// Per node: parent, sibling, key slot and subtree slots.
    links: Vec<Link>,
    /// Result partials per node (single-event partials at leaves),
    /// grouped by the event bound at the node's key slot.
    store: Vec<Vec<Group>>,
    /// Shared match buffer backing every stored partial.
    pstore: PartialStore,
    /// Reusable propagation scratch: partials new at the current node.
    prop_new: Vec<Partial>,
    /// Reusable propagation scratch: joins produced for the parent.
    prop_joined: Vec<Partial>,
    /// Reusable scratch: the cross pairs of the current join step.
    tests: Vec<CrossTest>,
    finalizer: Finalizer,
    comparisons: u64,
    events_since_sweep: u32,
}

impl TreeExecutor {
    /// Creates an executor following `plan` for the compiled sub-pattern
    /// `ctx`.
    pub fn new(ctx: Arc<ExecContext>, plan: &TreePlan) -> Self {
        assert_eq!(plan.num_leaves(), ctx.n, "plan must cover every slot");
        let (nodes, root) = prune_kleene(&ctx, plan);
        let mut links = vec![
            Link {
                parent: 0,
                sibling: 0,
                key: NO_KEY,
                slots: 0,
            };
            nodes.len()
        ];
        // Children precede their parent in the pruned arena.
        for (i, n) in nodes.iter().enumerate() {
            links[i].slots = match *n {
                TreeNode::Leaf { slot } => 1 << slot,
                TreeNode::Internal { left, right } => {
                    links[left].parent = i as u16;
                    links[right].parent = i as u16;
                    links[left].sibling = right as u16;
                    links[right].sibling = left as u16;
                    links[left].slots | links[right].slots
                }
            };
        }
        // A leaf's partials each bind their own event: leaves stay in
        // one keyless group.
        for (i, n) in nodes.iter().enumerate() {
            if i != root && matches!(n, TreeNode::Internal { .. }) {
                let sibling = links[links[i].sibling as usize].slots;
                links[i].key = key_slot(&ctx, sibling, links[i].slots);
            }
        }
        Self {
            finalizer: Finalizer::new(Arc::clone(&ctx)),
            store: nodes.iter().map(|_| Vec::new()).collect(),
            pstore: PartialStore::new(),
            prop_new: Vec::new(),
            prop_joined: Vec::new(),
            tests: Vec::new(),
            ctx,
            nodes,
            root,
            links,
            comparisons: 0,
            events_since_sweep: 0,
        }
    }

    /// Rebuilds an executor from a checkpoint record. The plan must be
    /// the one the exporting executor ran: Kleene pruning is
    /// deterministic, so the rebuilt node arena lines up with the
    /// record's per-node result sets.
    pub fn restore(
        ctx: Arc<ExecContext>,
        plan: &TreePlan,
        rec: &TreeExecRec,
        events: &EventMap,
    ) -> Result<Self, CheckpointError> {
        let mut exec = Self::new(ctx, plan);
        if rec.store.len() != exec.store.len() {
            return Err(CheckpointError::BadValue("tree executor shape"));
        }
        for ((groups, link), recs) in exec.store.iter_mut().zip(&exec.links).zip(&rec.store) {
            for p in recs {
                let p = Partial::restore_rec(&mut exec.pstore, p, events)?;
                insert(groups, link.key, p, &exec.pstore);
            }
        }
        exec.finalizer.import_rec(&rec.finalizer, events)?;
        exec.comparisons = rec.comparisons;
        exec.events_since_sweep = rec.events_since_sweep as u32;
        Ok(exec)
    }

    /// The partials stored at `node`.
    fn stored(&self, node: usize) -> usize {
        self.store[node].iter().map(|g| g.members.len()).sum()
    }

    fn sweep(&mut self, now: Timestamp) {
        faultpoint::hit(FaultPoint::MidCompaction);
        let window = self.ctx.window;
        for groups in &mut self.store {
            retain_live(groups, now, window);
        }
        if self.pstore.should_compact() {
            let store = &mut self.store;
            self.pstore.compact(|mark| {
                for g in store.iter_mut().flatten() {
                    for p in g.members.iter_mut() {
                        mark(p);
                    }
                }
            });
        }
    }

    /// Pushes the partials in `prop_new` (new at `node`) upward toward
    /// the root, joining against each sibling's stored results.
    fn propagate(&mut self, mut node: usize, now: Timestamp, out: &mut Vec<Match>) {
        loop {
            if self.prop_new.is_empty() {
                return;
            }
            if node == self.root {
                for i in 0..self.prop_new.len() {
                    let p = self.prop_new[i];
                    let completed = Completed::from_partial(&self.pstore, &p, self.ctx.n);
                    self.finalizer.admit(completed, now, out);
                }
                self.prop_new.clear();
                return;
            }
            let Link {
                parent,
                sibling,
                slots,
                ..
            } = self.links[node];
            let sibling = sibling as usize;
            let Link {
                key, slots: bound, ..
            } = self.links[sibling];
            let live = retain_live(&mut self.store[sibling], now, self.ctx.window);
            let step = JoinStep::compile(&self.ctx, &mut self.tests, slots, bound);
            debug_assert!(key == NO_KEY || step.tests_slot(key as usize));
            // Join new partials against the sibling's stored results: a
            // group whose key event fails is skipped whole.
            self.prop_joined.clear();
            let seen = self.finalizer.seen();
            for a in &self.prop_new {
                let mut probe = Probe::new(a, &self.pstore);
                let hits = self.prop_joined.len();
                for g in &self.store[sibling] {
                    if let Some(ev) = &g.key {
                        if !probe.passes_slot(&self.ctx, &step, key as usize, ev) {
                            debug_assert_skip_sound(&self.ctx, &step, &self.pstore, a, g);
                            continue;
                        }
                    }
                    for b in &g.members {
                        if probe.joins(&self.ctx, &step, b, seen.as_deref()) {
                            self.prop_joined.push(*b);
                        }
                    }
                }
                for i in hits..self.prop_joined.len() {
                    let b = self.prop_joined[i];
                    self.prop_joined[i] = a.merge(&mut self.pstore, &b);
                }
            }
            self.comparisons += (self.prop_new.len() * live) as u64;
            // Store for future joins from the sibling side.
            let node_key = self.links[node].key;
            for &p in &self.prop_new {
                insert(&mut self.store[node], node_key, p, &self.pstore);
            }
            std::mem::swap(&mut self.prop_new, &mut self.prop_joined);
            node = parent as usize;
        }
    }
}

impl Executor for TreeExecutor {
    fn on_event(&mut self, ev: &Arc<Event>, out: &mut Vec<Match>) {
        let now = ev.timestamp;
        self.finalizer.observe(ev, out);
        self.events_since_sweep += 1;
        if self.events_since_sweep >= SWEEP_INTERVAL {
            self.events_since_sweep = 0;
            self.sweep(now);
        }
        // Seed every leaf whose slot type matches.
        for i in 0..self.nodes.len() {
            if let TreeNode::Leaf { slot } = self.nodes[i] {
                if self.ctx.slot_types[slot] == ev.type_id {
                    self.comparisons += 1;
                    if self.ctx.unary_ok(slot, ev) {
                        let seed = Partial::seed(&mut self.pstore, slot, Arc::clone(ev));
                        self.prop_new.clear();
                        self.prop_new.push(seed);
                        self.propagate(i, now, out);
                    }
                }
            }
        }
    }

    fn advance_time(&mut self, now: Timestamp, out: &mut Vec<Match>) {
        self.finalizer.flush_ready(now, out);
    }

    fn finish(&mut self, out: &mut Vec<Match>) {
        self.finalizer.finish(out);
    }

    fn export_history(&self) -> FinalizerHistory {
        self.finalizer.export_history()
    }

    fn import_history(&mut self, history: FinalizerHistory) {
        self.finalizer.import_history(history);
    }

    fn partial_count(&self) -> usize {
        (0..self.nodes.len()).map(|i| self.stored(i)).sum::<usize>()
            + self.finalizer.pending_count()
    }

    fn buffered_events(&self) -> usize {
        // Leaf result sets hold single events; internal nodes hold
        // joined partials counted by `partial_count`.
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, TreeNode::Leaf { .. }))
            .map(|(i, _)| self.stored(i))
            .sum()
    }

    fn share_seen(&mut self, shared: &crate::selection::SharedSeen) {
        self.finalizer.share_seen(shared);
    }

    fn arena_nodes(&self) -> usize {
        self.pstore.len()
    }

    fn comparisons(&self) -> u64 {
        self.comparisons + self.finalizer.comparisons()
    }

    fn min_pending_deadline(&self) -> Option<Timestamp> {
        self.finalizer.min_pending_deadline()
    }

    fn export_rec(&self, table: &mut EventTable) -> ExecutorRec {
        ExecutorRec::Tree(TreeExecRec {
            // Flattened group by group; `restore` regroups them.
            store: self
                .store
                .iter()
                .map(|groups| {
                    let members = groups.iter().flat_map(|g| &g.members);
                    members.map(|p| p.export_rec(&self.pstore, table)).collect()
                })
                .collect(),
            finalizer: self.finalizer.export_rec(table),
            comparisons: self.comparisons,
            events_since_sweep: self.events_since_sweep as u64,
        })
    }
}

/// Rebuilds the plan tree with Kleene leaves removed (their parent is
/// replaced by the remaining sibling).
fn prune_kleene(ctx: &ExecContext, plan: &TreePlan) -> (Vec<TreeNode>, usize) {
    let mut nodes = Vec::new();
    let root = prune_rec(ctx, plan, plan.root, &mut nodes)
        .expect("ExecContext guarantees a non-Kleene slot");
    (nodes, root)
}

fn prune_rec(
    ctx: &ExecContext,
    plan: &TreePlan,
    node: usize,
    out: &mut Vec<TreeNode>,
) -> Option<usize> {
    match plan.nodes[node] {
        TreeNode::Leaf { slot } => {
            if ctx.kleene[slot] {
                None
            } else {
                out.push(TreeNode::Leaf { slot });
                Some(out.len() - 1)
            }
        }
        TreeNode::Internal { left, right } => {
            let l = prune_rec(ctx, plan, left, out);
            let r = prune_rec(ctx, plan, right, out);
            match (l, r) {
                (Some(l), Some(r)) => {
                    out.push(TreeNode::Internal { left: l, right: r });
                    Some(out.len() - 1)
                }
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            }
        }
    }
}

/// One new partial of a join step, prepared once for testing against
/// every sibling partial: its slot → event map, and per tested sibling
/// slot the verdict for the event last tested there. The members of a
/// group share the key event, and members stored by one join are
/// consecutive and share their other events too, so such runs are
/// decided by one test per slot.
struct Probe<'a> {
    store: &'a PartialStore,
    partial: &'a Partial,
    events: [Option<&'a Event>; MAX_SLOTS],
    last: [Option<&'a Event>; MAX_SLOTS],
    verdicts: u64,
}

impl<'a> Probe<'a> {
    fn new(partial: &'a Partial, store: &'a PartialStore) -> Self {
        let mut events = [None; MAX_SLOTS];
        for (s, e) in partial.chain(store) {
            events[s] = Some(&**e);
        }
        Self {
            store,
            partial,
            events,
            last: [None; MAX_SLOTS],
            verdicts: 0,
        }
    }

    /// Do the step's cross pairs against sibling slot `t` pass with `eb`
    /// bound there? Remembers the verdict for `eb`.
    #[inline]
    fn passes_slot(
        &mut self,
        ctx: &ExecContext,
        step: &JoinStep<'_>,
        t: usize,
        eb: &'a Event,
    ) -> bool {
        if self.last[t].is_some_and(|last| std::ptr::eq(last, eb)) {
            return self.verdicts >> t & 1 == 1;
        }
        let (lo, hi) = step.ranges[t];
        let ok = step.tests[lo as usize..hi as usize].iter().all(|test| {
            let ea = self.events[test.s as usize].expect("new side binds its tested slots");
            test.passes(ctx, ea, eb)
        });
        self.last[t] = Some(eb);
        self.verdicts = self.verdicts & !(1 << t) | u64::from(ok) << t;
        ok
    }

    /// Can the new partial merge with the sibling's partial `b`? Only
    /// the step's cross pairs are tested. `seen` (present only under
    /// restrictive selection policies) enables conservative policy
    /// pruning of the join.
    #[inline]
    fn joins(
        &mut self,
        ctx: &ExecContext,
        step: &JoinStep<'_>,
        b: &Partial,
        seen: Option<&SeenLog>,
    ) -> bool {
        let a = self.partial;
        // Window span.
        if a.max_ts.max(b.max_ts) - a.min_ts.min(b.min_ts) > ctx.window {
            return false;
        }
        // One walk over `b`'s chain, stopping once every tested slot has
        // been seen.
        let mut left = step.tested;
        if left > 0 {
            for (t, eb) in b.chain(self.store) {
                if !step.tests_slot(t) {
                    continue;
                }
                if !self.passes_slot(ctx, step, t, eb) {
                    return false;
                }
                left -= 1;
                if left == 0 {
                    break;
                }
            }
        }
        // Selection-policy pruning: drop joins every completion of which
        // would fail emit-time validation.
        !seen.is_some_and(|seen| prune_join(ctx, seen, self.store, a, b))
    }
}

/// The tree executor's soundness oracle for skipped groups, the
/// counterpart of `EventBuffer::debug_assert_sound`: in debug builds,
/// every member of the group `g` that the new partial `a` skipped on
/// its key event must fail the full join test.
#[inline]
fn debug_assert_skip_sound(
    ctx: &ExecContext,
    step: &JoinStep<'_>,
    pstore: &PartialStore,
    a: &Partial,
    g: &Group,
) {
    if cfg!(debug_assertions) {
        for b in &g.members {
            assert!(
                !Probe::new(a, pstore).joins(ctx, step, b, None),
                "a skipped group holds a partial that joins"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::{attr, EventTypeId, Pattern, PatternExpr, Value};

    fn t(i: u32) -> EventTypeId {
        EventTypeId(i)
    }

    fn ev(tid: u32, ts: u64, seq: u64, v: i64) -> Arc<Event> {
        Event::new(t(tid), ts, seq, vec![Value::Int(v)])
    }

    fn run(exec: &mut TreeExecutor, events: &[Arc<Event>]) -> Vec<Match> {
        let mut out = Vec::new();
        for e in events {
            exec.on_event(e, &mut out);
        }
        exec.finish(&mut out);
        out
    }

    fn seq_abc() -> Pattern {
        Pattern::sequence("p", &[t(0), t(1), t(2)], 100)
    }

    #[test]
    fn left_deep_tree_detects_sequence() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[0, 1, 2]));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn right_deep_tree_finds_identical_matches() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        // (0,(1,2)) — paper Fig. 3(b).
        let nodes = vec![
            TreeNode::Leaf { slot: 0 },
            TreeNode::Leaf { slot: 1 },
            TreeNode::Leaf { slot: 2 },
            TreeNode::Internal { left: 1, right: 2 },
            TreeNode::Internal { left: 0, right: 3 },
        ];
        let plan = TreePlan { nodes, root: 4 };
        let mut exec = TreeExecutor::new(ctx, &plan);
        let matches = run(
            &mut exec,
            &[
                ev(0, 10, 0, 0),
                ev(0, 12, 1, 0),
                ev(1, 20, 2, 0),
                ev(2, 30, 3, 0),
            ],
        );
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn out_of_order_sequence_is_rejected() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[0, 1, 2]));
        let matches = run(
            &mut exec,
            &[ev(1, 10, 0, 0), ev(0, 20, 1, 0), ev(2, 30, 2, 0)],
        );
        assert!(matches.is_empty());
    }

    #[test]
    fn predicates_checked_at_the_join_node() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::prim(t(1)),
                PatternExpr::prim(t(2)),
            ]))
            .condition(attr(0, 0).lt(attr(2, 0)))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[0, 1, 2]));
        let matches = run(
            &mut exec,
            &[
                ev(0, 10, 0, 5),
                ev(1, 20, 1, 0),
                ev(2, 30, 2, 9), // 5 < 9 ✓
                ev(2, 31, 3, 1), // 5 < 1 ✗
            ],
        );
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn conjunction_tree_ignores_arrival_order() {
        let p = Pattern::conjunction("p", &[t(0), t(1), t(2)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[2, 0, 1]));
        let matches = run(
            &mut exec,
            &[ev(1, 10, 0, 0), ev(0, 15, 1, 0), ev(2, 20, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn agrees_with_order_executor_on_random_stream() {
        use crate::order_exec::OrderExecutor;
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        // Deterministic pseudo-random interleaving.
        let mut events = Vec::new();
        let mut state = 0x12345678u64;
        for i in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tid = (state >> 33) % 3;
            events.push(ev(tid as u32, i * 3, i, (state >> 40) as i64 % 10));
        }
        let mut tree = TreeExecutor::new(Arc::clone(&ctx), &TreePlan::left_deep(&[0, 1, 2]));
        let mut order = OrderExecutor::new(ctx, &acep_plan::OrderPlan::identity(3));
        let mut mt = Vec::new();
        let mut mo = Vec::new();
        for e in &events {
            tree.on_event(e, &mut mt);
            order.on_event(e, &mut mo);
        }
        tree.finish(&mut mt);
        order.finish(&mut mo);
        let mut kt: Vec<_> = mt.iter().map(Match::key).collect();
        let mut ko: Vec<_> = mo.iter().map(Match::key).collect();
        kt.sort();
        ko.sort();
        assert_eq!(kt, ko);
        assert!(!kt.is_empty());
    }

    #[test]
    fn kleene_leaf_is_pruned_from_join_tree() {
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(t(0)),
                PatternExpr::kleene(PatternExpr::prim(t(1))),
                PatternExpr::prim(t(2)),
            ]))
            .window(100)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[0, 1, 2]));
        let matches = run(
            &mut exec,
            &[ev(0, 10, 0, 0), ev(1, 15, 1, 0), ev(2, 30, 2, 0)],
        );
        assert_eq!(matches.len(), 1);
        let kleene_set = &matches[0]
            .bindings
            .iter()
            .find(|(v, _)| v.0 == 1)
            .unwrap()
            .1;
        assert_eq!(kleene_set.len(), 1);
    }

    #[test]
    fn single_slot_tree() {
        let p = Pattern::sequence("p", &[t(0)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::leaf(0));
        let matches = run(&mut exec, &[ev(0, 10, 0, 0), ev(0, 20, 1, 0)]);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn partial_count_tracks_stored_results() {
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[0, 1, 2]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        // Stored: leaf A (1), leaf B (1), internal (A,B) (1).
        assert_eq!(exec.partial_count(), 3);
    }

    /// `AND` or `SEQ` over types `0..n` with `x` non-decreasing along
    /// the slots.
    fn chain(kind: &str, n: u32) -> Pattern {
        let prims = (0..n).map(|i| PatternExpr::prim(t(i)));
        let expr = if kind == "and" {
            PatternExpr::and(prims)
        } else {
            PatternExpr::seq(prims)
        };
        (1..n)
            .fold(Pattern::builder(kind).expr(expr), |b, i| {
                b.condition(attr(i - 1, 0).le(attr(i, 0)))
            })
            .window(40)
            .build()
            .unwrap()
    }

    /// `n` pseudo-random events over `types` types, gaps `0..=3`.
    fn stream(n: u64, types: u64, seed: u64) -> Vec<Arc<Event>> {
        let mut state = seed;
        let mut ts = 0;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ts += (state >> 40) % 4;
                let x = ((state >> 20) % 5) as i64;
                ev(((state >> 33) % types) as u32, ts, i, x)
            })
            .collect()
    }

    /// `(((4,3),2),(1,0))`, the bushy shape ZStream deploys on the
    /// traffic conjunction.
    fn bushy5() -> TreePlan {
        let mut nodes: Vec<TreeNode> = (0..5).map(|slot| TreeNode::Leaf { slot }).collect();
        nodes.push(TreeNode::Internal { left: 4, right: 3 });
        nodes.push(TreeNode::Internal { left: 5, right: 2 });
        nodes.push(TreeNode::Internal { left: 1, right: 0 });
        nodes.push(TreeNode::Internal { left: 6, right: 7 });
        TreePlan { nodes, root: 8 }
    }

    #[test]
    fn internal_nodes_group_partials_by_their_key_event() {
        let ctx = ExecContext::compile(&chain("and", 5).canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &bushy5());
        let mut out = Vec::new();
        for e in &stream(300, 5, 7) {
            exec.on_event(e, &mut out);
        }
        let mut shared = false;
        for (i, groups) in exec.store.iter().enumerate() {
            let key = exec.links[i].key;
            if key == NO_KEY {
                assert!(groups.len() <= 1, "node {i}: keyless nodes keep one group");
                continue;
            }
            for g in groups {
                let ev = g.key.as_ref().unwrap();
                for p in &g.members {
                    let bound = p.event_at(&exec.pstore, key as usize).unwrap();
                    assert!(Arc::ptr_eq(bound, ev), "node {i}: member outside its group");
                }
                shared |= g.members.len() > 1;
            }
            let keys: Vec<_> = groups
                .iter()
                .map(|g| stream_key(g.key.as_ref().unwrap()))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "node {i}: groups out of order"
            );
        }
        assert!(shared, "some group holds more than one partial");
    }

    #[test]
    fn bushy_checkpoint_resumes_with_identical_emission_order() {
        for (kind, n) in [("and", 5), ("seq", 5)] {
            let ctx = ExecContext::compile(&chain(kind, n).canonical().branches[0]).unwrap();
            let plan = bushy5();
            let events = stream(400, n as u64, 11);
            let (head, tail) = events.split_at(230);
            let mut exec = TreeExecutor::new(Arc::clone(&ctx), &plan);
            let mut out = Vec::new();
            for e in head {
                exec.on_event(e, &mut out);
            }
            let mut table = EventTable::new();
            let ExecutorRec::Tree(rec) = exec.export_rec(&mut table) else {
                panic!("tree executor must export a tree record");
            };
            let mut events = EventMap::new();
            for r in table.into_records() {
                events.insert(&r);
            }
            let mut restored =
                TreeExecutor::restore(Arc::clone(&ctx), &plan, &rec, &events).unwrap();
            let ExecutorRec::Tree(again) = restored.export_rec(&mut EventTable::new()) else {
                panic!("tree executor must export a tree record");
            };
            assert_eq!(again, rec, "{kind}: export → restore → export");
            assert_eq!(restored.partial_count(), exec.partial_count());
            assert_eq!(restored.buffered_events(), exec.buffered_events());

            let (mut a, mut b) = (Vec::new(), Vec::new());
            for e in tail {
                exec.on_event(e, &mut a);
                restored.on_event(e, &mut b);
            }
            exec.finish(&mut a);
            restored.finish(&mut b);
            assert!(!a.is_empty(), "{kind}: the tail completes matches");
            let keys = |ms: &[Match]| ms.iter().map(Match::key).collect::<Vec<_>>();
            assert_eq!(keys(&a), keys(&b), "{kind}: emission order after restore");
            assert_eq!(restored.comparisons(), exec.comparisons());
        }
    }

    #[test]
    fn joins_share_the_longer_chain() {
        // Joining (A,B) with leaf C re-links only C's single node, so
        // the arena grows by 1 per join, not by the merged width.
        let p = seq_abc();
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let mut exec = TreeExecutor::new(ctx, &TreePlan::left_deep(&[0, 1, 2]));
        let mut out = Vec::new();
        exec.on_event(&ev(0, 10, 0, 0), &mut out);
        exec.on_event(&ev(1, 20, 1, 0), &mut out);
        // Nodes: A seed, B seed, B-relinked-onto-A = 3.
        assert_eq!(exec.pstore.len(), 3);
    }
}
