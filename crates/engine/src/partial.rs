//! Partial matches backed by a per-executor arena.
//!
//! A [`Partial`] used to own a `Vec<Option<Arc<Event>>>` per instance,
//! so every `extend`/`merge` on the hot path cloned an n-slot vector —
//! O(levels × partials × n) allocations per event on skewed streams.
//! Partials are now 24-byte `Copy` handles into a [`PartialStore`]: a
//! slab of immutable `(slot, event, parent)` binding nodes forming
//! SASE+-style versioned runs. `seed` and `extend` are a single node
//! push; `merge` pushes only the shorter side's chain; partials created
//! by extending the same prefix *share* that prefix. Slot lookups walk
//! the parent chain (O(bound), never O(n) — Kleene slots are not
//! represented at all), and the full per-slot vector is materialized
//! only when a completed combination enters the finalizer
//! ([`Partial::materialize`]).
//!
//! Nodes are reclaimed by generation-style compaction: executors call
//! [`PartialStore::compact`] from their periodic expiry sweep with the
//! set of live roots; reachable chains are copied to a fresh slab
//! (parents before children) and the roots are rewritten in place. The
//! [`PartialStore::should_compact`] growth gate keeps the amortized
//! cost O(1) per node push.

use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, PartialRec};
use acep_types::{Event, Timestamp};

/// Sentinel parent index: end of a binding chain.
const NONE: u32 = u32::MAX;

/// One immutable binding node: an event bound to a slot, linked to the
/// rest of the partial it extends.
#[derive(Debug, Clone)]
struct Node {
    slot: u32,
    parent: u32,
    event: Arc<Event>,
}

/// Arena of binding nodes shared by every partial match of one
/// executor (the shared match buffer).
#[derive(Debug, Default)]
pub struct PartialStore {
    nodes: Vec<Node>,
    /// Live node count after the last compaction (growth gate).
    last_live: usize,
}

impl PartialStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total slab size, including garbage awaiting compaction.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops every node. All outstanding [`Partial`]s become invalid.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.last_live = 0;
    }

    fn push(&mut self, slot: usize, parent: u32, event: Arc<Event>) -> u32 {
        let id = self.nodes.len() as u32;
        debug_assert!(id < NONE, "partial store slab full");
        self.nodes.push(Node {
            slot: slot as u32,
            parent,
            event,
        });
        id
    }

    /// Iterates the `(slot, event)` bindings of the chain at `head`,
    /// newest binding first.
    pub fn chain(&self, head: u32) -> Chain<'_> {
        Chain {
            store: self,
            cur: head,
        }
    }

    /// The event bound at `slot` in the chain at `head`, if any.
    pub fn event_at(&self, head: u32, slot: usize) -> Option<&Arc<Event>> {
        self.chain(head)
            .find_map(|(s, ev)| (s == slot).then_some(ev))
    }

    /// Whether enough garbage may have accumulated to warrant a
    /// [`compact`](Self::compact): the slab doubled since the last
    /// compaction left `last_live` live nodes.
    pub fn should_compact(&self) -> bool {
        self.nodes.len() >= 1024 && self.nodes.len() >= 2 * self.last_live.max(512)
    }

    /// Generation sweep: `roots` must mark every live [`Partial`]
    /// (handing each to the provided marker); reachable chains are
    /// copied into a fresh slab and the marked partials' heads are
    /// rewritten. Everything unmarked is reclaimed.
    pub fn compact<F>(&mut self, mut roots: F)
    where
        F: FnMut(&mut dyn FnMut(&mut Partial)),
    {
        let old = std::mem::take(&mut self.nodes);
        let mut remap = vec![NONE; old.len()];
        let mut fresh: Vec<Node> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();
        let mut mark = |p: &mut Partial| {
            let mut cur = p.head;
            while cur != NONE && remap[cur as usize] == NONE {
                pending.push(cur);
                cur = old[cur as usize].parent;
            }
            // Copy parents before children so parent links resolve.
            while let Some(i) = pending.pop() {
                let n = &old[i as usize];
                let parent = if n.parent == NONE {
                    NONE
                } else {
                    remap[n.parent as usize]
                };
                remap[i as usize] = fresh.len() as u32;
                fresh.push(Node {
                    slot: n.slot,
                    parent,
                    event: Arc::clone(&n.event),
                });
            }
            if p.head != NONE {
                p.head = remap[p.head as usize];
            }
        };
        roots(&mut mark);
        self.last_live = fresh.len();
        self.nodes = fresh;
    }
}

/// Iterator over a partial's `(slot, event)` bindings, newest first.
pub struct Chain<'a> {
    store: &'a PartialStore,
    cur: u32,
}

impl<'a> Iterator for Chain<'a> {
    type Item = (usize, &'a Arc<Event>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NONE {
            return None;
        }
        let node = &self.store.nodes[self.cur as usize];
        self.cur = node.parent;
        Some((node.slot as usize, &node.event))
    }
}

/// A partial match: events bound to a subset of the join slots, stored
/// as a handle into a [`PartialStore`].
///
/// # Pinned contract: Kleene slots are never in the arena
///
/// Both executors bind **join slots only** (`ExecContext::join_slots`,
/// the non-Kleene positive slots); Kleene collection lives in the
/// finalizer's candidate buffers and is resolved per completed
/// combination at emission time. Downstream code relies on each
/// consequence, so none of them may be weakened independently:
///
/// * a chain holds exactly the `bound` join events, so every chain walk
///   — [`Partial::event_at`], [`Partial::contains_seq`], the join
///   helpers' one-pass compatibility checks — is O(join slots),
///   independent of how many events a Kleene slot has collected;
/// * [`Partial::contains_seq`] answers membership of *join* events
///   only. Duplicate suppression for Kleene-collected events is the
///   finalizer's job, not the arena's;
/// * [`Partial::materialize`] leaves Kleene slots `None`; the finalizer
///   fills them from its own buffers;
/// * stored-partial counts (`partial_count`, the adaptation plane's
///   cost signal, and `partials_live` in the runtime stats and the
///   `SCENARIO_GOLDEN` pins) do not scale with Kleene collection
///   sizes — see `kleene_collection_never_allocates_arena_nodes`.
#[derive(Debug, Clone, Copy)]
pub struct Partial {
    /// Newest binding node (chain walks toward the seed).
    head: u32,
    /// Minimum timestamp over bound events.
    pub min_ts: Timestamp,
    /// Maximum timestamp over bound events.
    pub max_ts: Timestamp,
    /// Number of bound events.
    pub bound: u32,
}

impl Partial {
    /// A partial holding a single event at `slot`.
    pub fn seed(store: &mut PartialStore, slot: usize, ev: Arc<Event>) -> Self {
        let ts = ev.timestamp;
        Self {
            head: store.push(slot, NONE, ev),
            min_ts: ts,
            max_ts: ts,
            bound: 1,
        }
    }

    /// Extends with one more event, producing a new partial sharing
    /// this one's chain as its suffix. O(1): a single node push.
    pub fn extend(&self, store: &mut PartialStore, slot: usize, ev: Arc<Event>) -> Self {
        debug_assert!(
            store.event_at(self.head, slot).is_none(),
            "slot already bound"
        );
        let ts = ev.timestamp;
        Self {
            head: store.push(slot, self.head, ev),
            min_ts: self.min_ts.min(ts),
            max_ts: self.max_ts.max(ts),
            bound: self.bound + 1,
        }
    }

    /// Merges two partials with disjoint bound slots by re-linking the
    /// *shorter* chain on top of the longer one (O(min(bound)) pushes;
    /// the longer chain is shared untouched). Chain node order carries
    /// no meaning — every lookup scans — so the merge is symmetric.
    pub fn merge(&self, store: &mut PartialStore, other: &Partial) -> Self {
        let (base, relink) = if self.bound >= other.bound {
            (self, other)
        } else {
            (other, self)
        };
        let mut head = base.head;
        let mut cur = relink.head;
        while cur != NONE {
            let (slot, parent, ev) = {
                let n = &store.nodes[cur as usize];
                (n.slot, n.parent, Arc::clone(&n.event))
            };
            debug_assert!(
                store.event_at(base.head, slot as usize).is_none(),
                "overlapping slots in merge"
            );
            head = store.push(slot as usize, head, ev);
            cur = parent;
        }
        Self {
            head,
            min_ts: self.min_ts.min(other.min_ts),
            max_ts: self.max_ts.max(other.max_ts),
            bound: self.bound + other.bound,
        }
    }

    /// Iterates this partial's `(slot, event)` bindings (O(bound)).
    pub fn chain<'a>(&self, store: &'a PartialStore) -> Chain<'a> {
        store.chain(self.head)
    }

    /// The event bound at `slot`, if any.
    pub fn event_at<'a>(&self, store: &'a PartialStore, slot: usize) -> Option<&'a Arc<Event>> {
        store.event_at(self.head, slot)
    }

    /// True if the given event instance is already part of this partial.
    /// Walks the parent chain: O(bound), independent of the pattern
    /// size (Kleene slots are not stored, so they cost nothing).
    pub fn contains_seq(&self, store: &PartialStore, seq: u64) -> bool {
        self.chain(store).any(|(_, e)| e.seq == seq)
    }

    /// True if this partial can never be completed or invalidated after
    /// stream time `now` (its window has closed).
    pub fn expired(&self, now: Timestamp, window: Timestamp) -> bool {
        now.saturating_sub(self.min_ts) > window
    }

    /// Serializes this partial's bindings into a checkpoint record,
    /// interning each bound event into `table`. Bindings are written
    /// oldest-first (the chain iterates newest-first) so
    /// [`restore_rec`](Self::restore_rec) can replay them as
    /// `seed` + `extend` calls.
    pub fn export_rec(&self, store: &PartialStore, table: &mut EventTable) -> PartialRec {
        let mut slots: Vec<(u32, u64)> = self
            .chain(store)
            .map(|(slot, ev)| (slot as u32, table.intern(ev)))
            .collect();
        slots.reverse();
        PartialRec {
            slots,
            min_ts: self.min_ts,
            max_ts: self.max_ts,
            bound: self.bound,
        }
    }

    /// Rebuilds a partial from a checkpoint record, pushing its chain
    /// into `store`. Restored chains are not shared across partials
    /// (sharing is a memory optimization, not part of the state); the
    /// recorded bounds are authoritative.
    pub fn restore_rec(
        store: &mut PartialStore,
        rec: &PartialRec,
        events: &EventMap,
    ) -> Result<Self, CheckpointError> {
        let mut iter = rec.slots.iter();
        let &(slot0, seq0) = iter
            .next()
            .ok_or(CheckpointError::BadValue("empty partial"))?;
        let mut p = Partial::seed(store, slot0 as usize, events.get(seq0)?);
        for &(slot, seq) in iter {
            p = p.extend(store, slot as usize, events.get(seq)?);
        }
        if p.bound != rec.bound {
            return Err(CheckpointError::BadValue("partial bound"));
        }
        p.min_ts = rec.min_ts;
        p.max_ts = rec.max_ts;
        Ok(p)
    }

    /// Checkpoint records of an executor's partial lists (order-executor
    /// levels, tree-executor node stores), list by list.
    pub(crate) fn export_levels(
        levels: &[Vec<Partial>],
        store: &PartialStore,
        table: &mut EventTable,
    ) -> Vec<Vec<PartialRec>> {
        levels
            .iter()
            .map(|level| level.iter().map(|p| p.export_rec(store, table)).collect())
            .collect()
    }

    /// Appends the partials of records written by
    /// [`export_levels`](Self::export_levels) to the matching lists of
    /// `levels`, pushing their chains into `store`. The caller checks
    /// that the list counts agree.
    pub(crate) fn restore_levels(
        levels: &mut [Vec<Partial>],
        recs: &[Vec<PartialRec>],
        store: &mut PartialStore,
        events: &EventMap,
    ) -> Result<(), CheckpointError> {
        for (level, recs) in levels.iter_mut().zip(recs) {
            for p in recs {
                level.push(Partial::restore_rec(store, p, events)?);
            }
        }
        Ok(())
    }

    /// Materializes the per-slot event vector (`None` = unbound or
    /// Kleene slot) for handoff to the finalizer. The only O(n)
    /// operation on a partial; runs once per completed combination.
    pub fn materialize(&self, store: &PartialStore, n: usize) -> Vec<Option<Arc<Event>>> {
        let mut events = vec![None; n];
        for (slot, ev) in self.chain(store) {
            events[slot] = Some(Arc::clone(ev));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_types::EventTypeId;

    fn ev(ts: u64, seq: u64) -> Arc<Event> {
        Event::new(EventTypeId(0), ts, seq, vec![])
    }

    #[test]
    fn seed_and_extend_track_bounds() {
        let mut s = PartialStore::new();
        let p = Partial::seed(&mut s, 1, ev(10, 0));
        assert_eq!((p.min_ts, p.max_ts, p.bound), (10, 10, 1));
        let p2 = p.extend(&mut s, 0, ev(5, 1));
        assert_eq!((p2.min_ts, p2.max_ts, p2.bound), (5, 10, 2));
        let p3 = p2.extend(&mut s, 2, ev(20, 2));
        assert_eq!((p3.min_ts, p3.max_ts, p3.bound), (5, 20, 3));
        // Original is untouched (persistent extension)…
        assert_eq!(p.bound, 1);
        assert!(p.event_at(&s, 0).is_none());
        // …and the chains share the seed node: 3 nodes, not 1 + 2 + 3.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn merge_combines_disjoint_slots() {
        let mut s = PartialStore::new();
        let a = Partial::seed(&mut s, 0, ev(1, 0));
        let b = Partial::seed(&mut s, 2, ev(9, 1));
        let m = a.merge(&mut s, &b);
        assert_eq!(m.bound, 2);
        assert_eq!((m.min_ts, m.max_ts), (1, 9));
        assert!(m.event_at(&s, 0).is_some() && m.event_at(&s, 2).is_some());
        assert!(m.event_at(&s, 1).is_none());
    }

    #[test]
    fn merge_relinks_the_shorter_chain() {
        let mut s = PartialStore::new();
        let long = Partial::seed(&mut s, 0, ev(1, 0))
            .extend(&mut s, 1, ev(2, 1))
            .extend(&mut s, 2, ev(3, 2));
        let short = Partial::seed(&mut s, 3, ev(4, 3));
        let before = s.len();
        // Either merge direction pushes only the 1-node side.
        let m1 = long.merge(&mut s, &short);
        assert_eq!(s.len(), before + 1);
        let m2 = short.merge(&mut s, &long);
        assert_eq!(s.len(), before + 2);
        for m in [m1, m2] {
            assert_eq!(m.bound, 4);
            assert_eq!((m.min_ts, m.max_ts), (1, 4));
            for slot in 0..4 {
                assert_eq!(m.event_at(&s, slot).unwrap().seq, slot as u64);
            }
        }
    }

    #[test]
    fn contains_seq_detects_duplicates() {
        let mut s = PartialStore::new();
        let p = Partial::seed(&mut s, 0, ev(1, 42));
        assert!(p.contains_seq(&s, 42));
        assert!(!p.contains_seq(&s, 43));
    }

    #[test]
    fn expiry_is_window_relative() {
        let mut s = PartialStore::new();
        let p = Partial::seed(&mut s, 0, ev(100, 0));
        assert!(!p.expired(150, 100));
        assert!(!p.expired(200, 100));
        assert!(p.expired(201, 100));
    }

    #[test]
    fn materialize_fills_bound_slots_only() {
        let mut s = PartialStore::new();
        let p = Partial::seed(&mut s, 0, ev(1, 7)).extend(&mut s, 2, ev(2, 8));
        let events = p.materialize(&s, 4);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].as_ref().unwrap().seq, 7);
        assert!(events[1].is_none());
        assert_eq!(events[2].as_ref().unwrap().seq, 8);
        assert!(events[3].is_none());
    }

    #[test]
    fn compaction_reclaims_garbage_and_preserves_chains() {
        let mut s = PartialStore::new();
        // A live chain and a dead one sharing no nodes.
        let live = Partial::seed(&mut s, 0, ev(1, 0)).extend(&mut s, 1, ev(2, 1));
        let dead = Partial::seed(&mut s, 0, ev(3, 2)).extend(&mut s, 1, ev(4, 3));
        // A second live partial sharing `live`'s seed node.
        let mut shared = live.extend(&mut s, 2, ev(5, 4));
        assert_eq!(s.len(), 5);
        let mut live = live;
        let _ = dead;
        s.compact(|mark| {
            mark(&mut live);
            mark(&mut shared);
        });
        // live (2 nodes) + shared's extra node; dead chain reclaimed.
        assert_eq!(s.len(), 3);
        assert_eq!(live.event_at(&s, 0).unwrap().seq, 0);
        assert_eq!(live.event_at(&s, 1).unwrap().seq, 1);
        assert_eq!(shared.event_at(&s, 0).unwrap().seq, 0);
        assert_eq!(shared.event_at(&s, 2).unwrap().seq, 4);
        assert!(shared.contains_seq(&s, 1));
    }

    /// Pins the contract documented on [`Partial`]: Kleene slots are
    /// never bound into the arena. The compiled context exposes only
    /// non-Kleene slots as join slots, and the number of stored
    /// partials is *independent* of how many events the Kleene slot
    /// collects — if an executor ever started seeding/extending on the
    /// Kleene slot, the K=12 run would store more partials than the
    /// K=3 run and this test would fail.
    #[test]
    fn kleene_collection_never_allocates_arena_nodes() {
        use crate::composite::StaticEngine;
        use crate::context::ExecContext;
        use acep_types::{Pattern, PatternExpr};

        let pattern = Pattern::builder("k3")
            .expr(PatternExpr::seq([
                PatternExpr::prim(EventTypeId(0)),
                PatternExpr::kleene(PatternExpr::prim(EventTypeId(1))),
                PatternExpr::prim(EventTypeId(2)),
            ]))
            .window(1_000)
            .build()
            .unwrap();
        let ctx = ExecContext::compile(&pattern.canonical().branches[0]).unwrap();
        assert_eq!(
            ctx.join_slots,
            vec![0, 2],
            "Kleene slot 1 is not a join slot"
        );
        assert_eq!(ctx.kleene_slots, vec![1]);

        let stored_after = |kleene_events: u64| {
            let mut engine = StaticEngine::with_identity_plans(pattern.canonical()).unwrap();
            let mut out = Vec::new();
            let mut seq = 0;
            let next = |tid: u32, ts: u64, seq: &mut u64| {
                *seq += 1;
                Event::new(EventTypeId(tid), ts, *seq, vec![])
            };
            engine.on_event(&next(0, 1, &mut seq), &mut out);
            for i in 0..kleene_events {
                engine.on_event(&next(1, 2 + i, &mut seq), &mut out);
            }
            let stored = engine.partial_count();
            engine.on_event(&next(2, 500, &mut seq), &mut out);
            engine.finish(&mut out);
            (stored, out.len())
        };
        let (stored_small, matches_small) = stored_after(3);
        let (stored_large, matches_large) = stored_after(12);
        assert_eq!(
            stored_small, stored_large,
            "stored partials must not scale with the Kleene collection"
        );
        assert_eq!(matches_small, 1, "greedy maximal collection: one match");
        assert_eq!(matches_large, 1);
    }

    #[test]
    fn compaction_gate_requires_growth() {
        let mut s = PartialStore::new();
        assert!(!s.should_compact());
        let mut roots = Vec::new();
        for i in 0..1500u64 {
            roots.push(Partial::seed(&mut s, 0, ev(i, i)));
        }
        assert!(s.should_compact());
        s.compact(|mark| {
            for p in &mut roots {
                mark(p);
            }
        });
        // Everything live: no shrink, but the gate re-arms at 2× live.
        assert_eq!(s.len(), 1500);
        assert!(!s.should_compact());
    }
}
