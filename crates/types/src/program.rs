//! Compiled conditions: the executable form of [`Predicate`]s.
//!
//! A [`Predicate`] is declarative data — the canonicaliser, the planner
//! and the statistics spec read it — but nothing evaluates it. Whoever
//! evaluates conditions (the engine's `ExecContext`, the statistics
//! collector) lowers them **once** into a [`Programs`] table: one flat
//! vector of ops in prefix order plus an offset table that cuts it
//! into *groups*, each group the conjunction of the conditions pushed
//! together. Lowering resolves every variable to a *frame position* and
//! every attribute to its index, so evaluation is a walk over the op
//! slice reading `frame(position).attrs[index]` by reference: no
//! variable lookup, no `dyn` call, no `Value` clone.
//!
//! The frame is whatever the caller says it is — [`Programs::holds`]
//! takes a `position → event` closure. Unary and pair conditions run
//! over the two events they touch ([`Programs::holds_pair`]); only
//! conditions over three or more variables need a slot-indexed frame.
//!
//! # The flat pair kernel
//!
//! Almost every pair condition is a plain conjunction of comparisons
//! (`a.x < b.x AND a.y < b.y`). Such a group is marked *flat* when it is
//! pushed — in the high bit of its offset-table entry, so the table is
//! not one byte larger — and [`Programs::holds_pair`] runs it through a
//! two-event kernel: each operand is picked off `a`, `b` or the
//! constants by its frame position directly (no closure, no `Option`
//! frame), and `Int`/`Int` and `Float`/`Float` comparisons skip the
//! generic [`Value::compare`] dispatch. Every other group goes through
//! the recursive walker. A caller testing one group on many event pairs
//! resolves it once ([`Programs::pair_group`]) and evaluates the
//! [`PairGroup`] handle ([`Programs::holds_pair_group`]), so its inner
//! loop repeats neither the offset lookup nor the flatness test.
//!
//! Evaluation is *conservative*: a comparison over an unbound variable,
//! a missing attribute, or incomparable value types (including NaN) is
//! `false`, so `Not` of such a comparison is `true`.

use std::cmp::Ordering;

use crate::event::Event;
use crate::predicate::{CmpOp, Operand, Predicate, VarId};
use crate::value::Value;

/// Frame position standing for the table's own constants.
const CONSTS: u32 = u32::MAX;

/// High bit of an offset-table entry: the group starting there is a
/// non-empty conjunction of [`Op::Cmp`] only.
const FLAT: u32 = 1 << 31;

/// One side of a compiled comparison: attribute `attr` of the event at
/// frame position `pos` (or constant `attr` of the table at [`CONSTS`]),
/// plus `shift` if any — a shifted operand is numeric, so a non-numeric
/// attribute under it fails the comparison. A variable outside the
/// frame is lowered to an attribute no event has (the comparison is
/// `false` either way).
#[derive(Debug, Clone, Copy)]
struct Arg {
    pos: u32,
    attr: u32,
    shift: Option<f64>,
}

/// One node of a compiled condition, in prefix order: a combinator is
/// followed by its `len` descendant ops.
#[derive(Debug, Clone)]
enum Op {
    True,
    /// `accept` has bit `ord + 1` set for each `Ordering` of `lhs`
    /// against `rhs` under which the comparison holds.
    Cmp {
        lhs: Arg,
        rhs: Arg,
        accept: u8,
    },
    And(u32),
    Or(u32),
    Not(u32),
}

/// A table of compiled condition groups (see the module docs).
#[derive(Debug, Clone)]
pub struct Programs {
    ops: Vec<Op>,
    /// Group `g` is `ops[starts[g]..starts[g + 1]]` (offsets without
    /// the [`FLAT`] bit, which `starts[g]` carries for a flat group).
    starts: Vec<u32>,
    /// The literals the ops compare against.
    consts: Vec<Value>,
}

/// A group resolved for evaluation over many event pairs
/// ([`Programs::pair_group`]): its op range, flatness included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairGroup {
    /// First op, with [`FLAT`] set for a flat group.
    start: u32,
    end: u32,
}

impl PairGroup {
    /// True if the group holds no condition (and therefore always
    /// holds).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start & !FLAT == self.end
    }

    /// True if the group runs through the two-event kernel (a non-empty
    /// conjunction of comparisons).
    #[inline]
    pub fn is_flat(self) -> bool {
        self.start & FLAT != 0
    }
}

impl Default for Programs {
    fn default() -> Self {
        Self {
            ops: Vec::new(),
            starts: vec![0],
            consts: Vec::new(),
        }
    }
}

impl Programs {
    /// Number of groups pushed so far.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True if no group has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the conjunction of `predicates` as the next group and
    /// returns its index. A variable is lowered to its index in `frame`;
    /// variables not listed there are unbound.
    pub fn push_group<'p>(
        &mut self,
        predicates: impl IntoIterator<Item = &'p Predicate>,
        frame: &[VarId],
    ) -> usize {
        let start = self.ops.len();
        for p in predicates {
            self.lower(p, frame);
        }
        assert!(self.ops.len() < FLAT as usize, "condition table too large");
        let ops = &self.ops[start..];
        if !ops.is_empty() && ops.iter().all(|op| matches!(op, Op::Cmp { .. })) {
            *self.starts.last_mut().expect("offset table is never empty") |= FLAT;
        }
        self.starts.push(self.ops.len() as u32);
        self.len() - 1
    }

    /// Drops spare capacity once every group is pushed (a table lives
    /// as long as its engine, and engines may be built per key).
    pub fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.consts.shrink_to_fit();
    }

    fn lower(&mut self, predicate: &Predicate, frame: &[VarId]) {
        let at = self.ops.len();
        let children: &[Predicate] = match predicate {
            Predicate::True => {
                self.ops.push(Op::True);
                return;
            }
            Predicate::Cmp { lhs, op, rhs } => {
                let (lhs, rhs) = (self.lower_arg(lhs, frame), self.lower_arg(rhs, frame));
                let accept = match op {
                    CmpOp::Lt => 0b001,
                    CmpOp::Le => 0b011,
                    CmpOp::Gt => 0b100,
                    CmpOp::Ge => 0b110,
                    CmpOp::Eq => 0b010,
                    CmpOp::Ne => 0b101,
                };
                self.ops.push(Op::Cmp { lhs, rhs, accept });
                return;
            }
            Predicate::And(ps) | Predicate::Or(ps) => ps,
            Predicate::Not(p) => std::slice::from_ref(&**p),
        };
        self.ops.push(Op::True); // placeholder, patched below
        for child in children {
            self.lower(child, frame);
        }
        let len = (self.ops.len() - at - 1) as u32;
        self.ops[at] = match predicate {
            Predicate::And(_) => Op::And(len),
            Predicate::Or(_) => Op::Or(len),
            _ => Op::Not(len),
        };
    }

    fn lower_arg(&mut self, operand: &Operand, frame: &[VarId]) -> Arg {
        let (var, attr, shift) = match operand {
            Operand::Attr { var, attr } => (var, *attr, None),
            Operand::AttrOffset { var, attr, offset } => (var, *attr, Some(*offset)),
            Operand::Const(v) => {
                self.consts.push(v.clone());
                let attr = self.consts.len() as u32 - 1;
                return Arg {
                    pos: CONSTS,
                    attr,
                    shift: None,
                };
            }
        };
        // No event has attribute `u32::MAX`: unbound (or out of range)
        // reads as missing.
        let pos = frame.iter().position(|v| v == var);
        let attr = pos.and(u32::try_from(attr).ok()).unwrap_or(u32::MAX);
        let pos = pos.unwrap_or(0) as u32;
        Arg { pos, attr, shift }
    }

    /// True if `group` holds no condition (and therefore always holds).
    #[inline]
    pub fn group_is_empty(&self, group: usize) -> bool {
        self.pair_group(group).is_empty()
    }

    /// Resolves `group` for [`holds_pair_group`](Self::holds_pair_group).
    #[inline]
    pub fn pair_group(&self, group: usize) -> PairGroup {
        PairGroup {
            start: self.starts[group],
            end: self.starts[group + 1] & !FLAT,
        }
    }

    /// Does every condition of `group` hold over the events `frame`
    /// maps positions to?
    #[inline]
    pub fn holds<'a>(&'a self, group: usize, frame: impl Fn(usize) -> Option<&'a Event>) -> bool {
        let g = self.pair_group(group);
        let ops = &self.ops[(g.start & !FLAT) as usize..g.end as usize];
        if g.is_flat() {
            return ops.iter().all(|op| {
                matches!(op, Op::Cmp { lhs, rhs, accept } if self.compare(lhs, rhs, *accept, &frame))
            });
        }
        // Most groups of a table are empty (few slot pairs carry a
        // condition): answer those without entering the walker.
        ops.is_empty() || !self.any_is(ops, &frame, false)
    }

    /// [`holds`](Self::holds) over the two-entry frame `(a, b)`.
    #[inline]
    pub fn holds_pair(&self, group: usize, a: &Event, b: &Event) -> bool {
        self.holds_pair_group(self.pair_group(group), a, b)
    }

    /// [`holds_pair`](Self::holds_pair) for a resolved group: a flat
    /// group runs the two-event kernel (module docs), any other the
    /// walker.
    #[inline]
    pub fn holds_pair_group(&self, group: PairGroup, a: &Event, b: &Event) -> bool {
        if !group.is_flat() {
            return group.start == group.end || self.walk_pair(group, a, b);
        }
        self.flat_pair(group, a, b)
    }

    #[inline(never)]
    fn flat_pair(&self, group: PairGroup, a: &Event, b: &Event) -> bool {
        let ops = &self.ops[(group.start & !FLAT) as usize..group.end as usize];
        ops.iter().all(|op| match op {
            Op::Cmp { lhs, rhs, accept } => self.compare_pair(lhs, rhs, *accept, a, b),
            _ => unreachable!("a flat group holds comparisons only"),
        })
    }

    /// A non-flat group over `(a, b)`, through the walker.
    #[inline(never)]
    fn walk_pair(&self, group: PairGroup, a: &Event, b: &Event) -> bool {
        let ops = &self.ops[group.start as usize..group.end as usize];
        !self.any_is(ops, &|pos| Some(if pos == 0 { a } else { b }), false)
    }

    /// The two-event kernel's operand load: position 0 is `a`, the
    /// constants are the table's, any other position is `b`.
    #[inline(always)]
    fn pick<'a>(&'a self, arg: &Arg, a: &'a Event, b: &'a Event) -> Option<&'a Value> {
        let attrs = if arg.pos == CONSTS {
            &self.consts
        } else if arg.pos == 0 {
            &a.attrs
        } else {
            &b.attrs
        };
        attrs.get(arg.attr as usize)
    }

    #[inline(always)]
    fn compare_pair(&self, lhs: &Arg, rhs: &Arg, accept: u8, a: &Event, b: &Event) -> bool {
        let (Some(x), Some(y)) = (self.pick(lhs, a, b), self.pick(rhs, a, b)) else {
            return false;
        };
        let ord = match (x, y) {
            _ if lhs.shift.is_some() || rhs.shift.is_some() => ordering(x, y, lhs, rhs),
            (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
            (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
            _ => x.compare(y),
        };
        ord.is_some_and(|ord| accepts(accept, ord))
    }

    #[inline]
    fn load<'a>(
        &'a self,
        arg: &Arg,
        frame: &impl Fn(usize) -> Option<&'a Event>,
    ) -> Option<&'a Value> {
        let attrs = if arg.pos == CONSTS {
            &self.consts
        } else {
            &frame(arg.pos as usize)?.attrs
        };
        attrs.get(arg.attr as usize)
    }

    #[inline(always)]
    fn compare<'a>(
        &'a self,
        lhs: &Arg,
        rhs: &Arg,
        accept: u8,
        frame: &impl Fn(usize) -> Option<&'a Event>,
    ) -> bool {
        let (Some(a), Some(b)) = (self.load(lhs, frame), self.load(rhs, frame)) else {
            return false;
        };
        ordering(a, b, lhs, rhs).is_some_and(|ord| accepts(accept, ord))
    }

    /// Does any of the sibling nodes in `ops` evaluate to `target`?
    /// (`And` = no child is false, `Or` = some child is true, `Not` =
    /// its one child is false.)
    fn any_is<'a>(
        &'a self,
        ops: &[Op],
        frame: &impl Fn(usize) -> Option<&'a Event>,
        target: bool,
    ) -> bool {
        let mut i = 0;
        while let Some(node) = ops.get(i) {
            let body = |len: &u32| &ops[i + 1..i + 1 + *len as usize];
            let (len, value) = match node {
                Op::True => (0, true),
                Op::Cmp { lhs, rhs, accept } => (0, self.compare(lhs, rhs, *accept, frame)),
                Op::And(len) => (*len, !self.any_is(body(len), frame, false)),
                Op::Or(len) => (*len, self.any_is(body(len), frame, true)),
                Op::Not(len) => (*len, self.any_is(body(len), frame, false)),
            };
            if value == target {
                return true;
            }
            i += 1 + len as usize;
        }
        false
    }
}

/// `x` against `y` as the operands `lhs` / `rhs` read them: a shifted
/// side is a float, comparable with numbers only. `None` = incomparable.
#[inline(always)]
fn ordering(x: &Value, y: &Value, lhs: &Arg, rhs: &Arg) -> Option<Ordering> {
    match (lhs.shift, rhs.shift) {
        (None, None) => x.compare(y),
        (l, r) => x
            .as_f64()
            .zip(y.as_f64())
            .and_then(|(x, y)| (x + l.unwrap_or(0.0)).partial_cmp(&(y + r.unwrap_or(0.0)))),
    }
}

#[inline(always)]
fn accepts(accept: u8, ord: Ordering) -> bool {
    accept >> (ord as i8 + 1) & 1 == 1
}
