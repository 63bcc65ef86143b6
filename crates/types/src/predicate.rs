//! Predicates over pattern variables.
//!
//! Conditions are Boolean formulas over comparisons between attributes of
//! the pattern's primitive events (and constants), mirroring the `WHERE`
//! clause of SASE-style pattern declarations. Predicates are declarative
//! data (rather than opaque closures): the canonicaliser sorts them by
//! variable footprint, the planner and the statistics collector read
//! which slots they link. They are never interpreted — evaluators lower
//! them once into a [`Programs`](crate::program::Programs) table and run
//! that, on the engine's join path and over the collector's sampled
//! event pairs alike (the selectivities the paper's cost model consumes).

use std::fmt;

use crate::schema::AttrId;
use crate::value::Value;

/// Identifier of a primitive event within a pattern (its position in
/// left-to-right declaration order, counting negated and Kleene events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// An attribute of the event bound to a pattern variable.
    Attr {
        /// The pattern variable.
        var: VarId,
        /// Positional attribute id within that event's schema.
        attr: AttrId,
    },
    /// A numeric attribute plus a constant offset (`x.attr + offset`),
    /// enabling gap conditions like `a.diff + 0.25 < b.diff`.
    AttrOffset {
        /// The pattern variable.
        var: VarId,
        /// Positional attribute id within that event's schema.
        attr: AttrId,
        /// Constant added to the attribute value.
        offset: f64,
    },
    /// A literal constant.
    Const(Value),
}

impl Operand {
    /// `self < rhs`
    pub fn lt(self, rhs: Operand) -> Predicate {
        Predicate::cmp(self, CmpOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Operand) -> Predicate {
        Predicate::cmp(self, CmpOp::Le, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Operand) -> Predicate {
        Predicate::cmp(self, CmpOp::Gt, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Operand) -> Predicate {
        Predicate::cmp(self, CmpOp::Ge, rhs)
    }
    /// `self == rhs`
    pub fn eq(self, rhs: Operand) -> Predicate {
        Predicate::cmp(self, CmpOp::Eq, rhs)
    }
    /// `self != rhs`
    pub fn ne(self, rhs: Operand) -> Predicate {
        Predicate::cmp(self, CmpOp::Ne, rhs)
    }
}

/// Shorthand for [`Operand::Attr`].
pub fn attr(var: u32, attr: AttrId) -> Operand {
    Operand::Attr {
        var: VarId(var),
        attr,
    }
}

/// Shorthand for [`Operand::AttrOffset`] (`x.attr + offset`).
pub fn attr_plus(var: u32, attr: AttrId, offset: f64) -> Operand {
    Operand::AttrOffset {
        var: VarId(var),
        attr,
        offset,
    }
}

/// Shorthand for [`Operand::Const`].
pub fn constant(v: impl Into<Value>) -> Operand {
    Operand::Const(v.into())
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A Boolean formula over attribute comparisons (evaluation semantics:
/// see [`crate::program`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// A single comparison.
    Cmp {
        /// Left operand.
        lhs: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        rhs: Operand,
    },
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates.
    Or(Vec<Predicate>),
    /// Negation of a sub-predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Creates a comparison predicate.
    pub fn cmp(lhs: Operand, op: CmpOp, rhs: Operand) -> Self {
        Predicate::Cmp { lhs, op, rhs }
    }

    /// Returns the distinct pattern variables referenced, in ascending
    /// order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { lhs, rhs, .. } => {
                for operand in [lhs, rhs] {
                    match operand {
                        Operand::Attr { var, .. } | Operand::AttrOffset { var, .. } => {
                            out.push(*var)
                        }
                        Operand::Const(_) => {}
                    }
                }
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_vars(out);
                }
            }
            Predicate::Not(p) => p.collect_vars(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_are_sorted_and_deduped() {
        let p = Predicate::And(vec![
            attr(2, 0).lt(attr(0, 0)),
            attr(2, 1).eq(constant(1)),
            Predicate::Not(Box::new(attr(1, 0).gt(constant(0.0)))),
        ]);
        assert_eq!(p.vars(), vec![VarId(0), VarId(1), VarId(2)]);
        assert_eq!(Predicate::True.vars(), Vec::<VarId>::new());
        // AttrOffset contributes its variable to vars().
        assert_eq!(attr_plus(3, 0, 1.0).lt(constant(1)).vars(), vec![VarId(3)]);
    }
}
