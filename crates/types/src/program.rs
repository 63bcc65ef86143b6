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
//! Evaluation is *conservative*: a comparison over an unbound variable,
//! a missing attribute, or incomparable value types (including NaN) is
//! `false`, so `Not` of such a comparison is `true`.

use crate::event::Event;
use crate::predicate::{CmpOp, Operand, Predicate, VarId};
use crate::value::Value;

/// Frame position standing for the table's own constants.
const CONSTS: u32 = u32::MAX;

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
    /// Group `g` is `ops[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// The literals the ops compare against.
    consts: Vec<Value>,
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
        for p in predicates {
            self.lower(p, frame);
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
        self.starts[group] == self.starts[group + 1]
    }

    /// Does every condition of `group` hold over the events `frame`
    /// maps positions to?
    #[inline]
    pub fn holds<'a>(&'a self, group: usize, frame: impl Fn(usize) -> Option<&'a Event>) -> bool {
        let (start, end) = (self.starts[group], self.starts[group + 1]);
        // Most groups of a table are empty (few slot pairs carry a
        // condition): answer those without leaving the caller.
        start == end || self.all_hold(&self.ops[start as usize..end as usize], frame)
    }

    fn all_hold<'a>(&'a self, ops: &[Op], frame: impl Fn(usize) -> Option<&'a Event>) -> bool {
        // Fast path for the common shape, a flat conjunction of
        // comparisons; the first combinator hands over to the walker.
        for (i, node) in ops.iter().enumerate() {
            match node {
                Op::Cmp { lhs, rhs, accept } if self.compare(lhs, rhs, *accept, &frame) => {}
                Op::Cmp { .. } => return false,
                _ => return !self.any_is(&ops[i..], &frame, false),
            }
        }
        true
    }

    /// [`holds`](Self::holds) over the two-entry frame `(a, b)`.
    #[inline]
    pub fn holds_pair(&self, group: usize, a: &Event, b: &Event) -> bool {
        self.holds(group, |pos| Some(if pos == 0 { a } else { b }))
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
        let ord = match (lhs.shift, rhs.shift) {
            (None, None) => a.compare(b),
            // A shifted side is a float, comparable with numbers only.
            (l, r) => a
                .as_f64()
                .zip(b.as_f64())
                .and_then(|(a, b)| (a + l.unwrap_or(0.0)).partial_cmp(&(b + r.unwrap_or(0.0)))),
        };
        ord.is_some_and(|ord| accept >> (ord as i8 + 1) & 1 == 1)
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
