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
//! vectors, so the per-event hot path performs no `Vec` allocations.
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
//! partial it then materialises the slot → event map once, walks each
//! sibling partial's chain once testing only those pairs (stopping when
//! every tested slot has been seen), collects the hits, and merges them
//! afterwards in hit order. A tested slot's verdict depends only on the
//! sibling event bound there, and the partials one earlier join stored
//! are consecutive and share that event, so each tested slot remembers
//! the verdict for the event it last saw and a run of such partials costs
//! one test. Every attempt still counts one comparison.

use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, ExecutorRec, TreeExecRec};
use acep_plan::{TreeNode, TreePlan};
use acep_types::faultpoint::{self, FaultPoint};
use acep_types::{Event, PairGroup, Timestamp};

use crate::context::{bits, ExecContext, MAX_SLOTS};
use crate::executor::Executor;
use crate::finalize::{Completed, Finalizer, FinalizerHistory};
use crate::matches::Match;
use crate::partial::{Partial, PartialStore};
use crate::selection::{prune_join, SeenLog};

const SWEEP_INTERVAL: u32 = 256;

/// Where a node of the pruned join tree sits.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Parent node (unused at the root).
    parent: u32,
    /// The parent's other child (unused at the root).
    sibling: u32,
    /// Join slots of the node's subtree.
    slots: u64,
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
            // `t` as the step's new slot against everything else the
            // join binds: the masks then name its partners on the new
            // side.
            let masks = ctx.step_masks(1 << t, (new | bound) & !(1 << t));
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
}

/// Tree-plan executor for one sub-pattern.
pub struct TreeExecutor {
    ctx: Arc<ExecContext>,
    /// Join tree over non-Kleene slots (Kleene leaves pruned; the
    /// finalizer fills them in at emission).
    nodes: Vec<TreeNode>,
    root: usize,
    /// Per node: parent, sibling and subtree slots.
    links: Vec<Link>,
    /// Result partials per node (single-event partials at leaves).
    store: Vec<Vec<Partial>>,
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
                slots: 0,
            };
            nodes.len()
        ];
        // Children precede their parent in the pruned arena.
        for (i, n) in nodes.iter().enumerate() {
            links[i].slots = match *n {
                TreeNode::Leaf { slot } => 1 << slot,
                TreeNode::Internal { left, right } => {
                    links[left].parent = i as u32;
                    links[right].parent = i as u32;
                    links[left].sibling = right as u32;
                    links[right].sibling = left as u32;
                    links[left].slots | links[right].slots
                }
            };
        }
        Self {
            finalizer: Finalizer::new(Arc::clone(&ctx)),
            store: vec![Vec::new(); nodes.len()],
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
        Partial::restore_levels(&mut exec.store, &rec.store, &mut exec.pstore, events)?;
        exec.finalizer.import_rec(&rec.finalizer, events)?;
        exec.comparisons = rec.comparisons;
        exec.events_since_sweep = rec.events_since_sweep as u32;
        Ok(exec)
    }

    fn sweep(&mut self, now: Timestamp) {
        faultpoint::hit(FaultPoint::MidCompaction);
        let window = self.ctx.window;
        for s in &mut self.store {
            s.retain(|p| !p.expired(now, window));
        }
        if self.pstore.should_compact() {
            let store = &mut self.store;
            self.pstore.compact(|mark| {
                for level in store.iter_mut() {
                    for p in level.iter_mut() {
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
            } = self.links[node];
            let sibling = sibling as usize;
            let window = self.ctx.window;
            self.store[sibling].retain(|p| !p.expired(now, window));
            let bound = self.links[sibling].slots;
            let step = JoinStep::compile(&self.ctx, &mut self.tests, slots, bound);
            // Join new partials against the sibling's stored results.
            self.prop_joined.clear();
            let seen = self.finalizer.seen();
            for a in &self.prop_new {
                let mut probe = Probe::new(a, &self.pstore);
                let hits = self.prop_joined.len();
                for b in &self.store[sibling] {
                    if probe.joins(&self.ctx, &step, b, seen.as_deref()) {
                        self.prop_joined.push(*b);
                    }
                }
                for i in hits..self.prop_joined.len() {
                    let b = self.prop_joined[i];
                    self.prop_joined[i] = a.merge(&mut self.pstore, &b);
                }
            }
            self.comparisons += (self.prop_new.len() * self.store[sibling].len()) as u64;
            // Store for future joins from the sibling side.
            self.store[node].extend_from_slice(&self.prop_new);
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
        self.store.iter().map(Vec::len).sum::<usize>() + self.finalizer.pending_count()
    }

    fn buffered_events(&self) -> usize {
        // Leaf result sets hold single events; internal nodes hold
        // joined partials counted by `partial_count`.
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, TreeNode::Leaf { .. }))
            .map(|(i, _)| self.store[i].len())
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
            store: Partial::export_levels(&self.store, &self.pstore, table),
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
/// slot the verdict for the event last tested there. A sibling partial
/// stored by one join is followed by its siblings from the same join,
/// which share that event, so such a run is decided by one test.
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
                let (lo, hi) = step.ranges[t];
                if lo == hi {
                    continue;
                }
                let eb: &Event = eb;
                let ok = if self.last[t].is_some_and(|last| std::ptr::eq(last, eb)) {
                    self.verdicts >> t & 1 == 1
                } else {
                    let ok = step.tests[lo as usize..hi as usize].iter().all(|test| {
                        let ea =
                            self.events[test.s as usize].expect("new side binds its tested slots");
                        test.passes(ctx, ea, eb)
                    });
                    self.last[t] = Some(eb);
                    self.verdicts = self.verdicts & !(1 << t) | u64::from(ok) << t;
                    ok
                };
                if !ok {
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
