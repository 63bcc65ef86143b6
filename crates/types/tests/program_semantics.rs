//! Semantics of compiled conditions ([`acep_types::program`]).
//!
//! The table pins the conservative evaluation rules row by row; the
//! property test runs random predicate trees over random events through
//! the compiled form and through [`reference`], a direct recursive
//! reading of the same rules over the declarative [`Predicate`].

use std::sync::Arc;

use acep_types::{
    attr, attr_plus, constant, CmpOp, Event, EventTypeId, Operand, Predicate, Programs, Value,
    VarId,
};
use proptest::prelude::*;

fn ev(attrs: Vec<Value>) -> Arc<Event> {
    Event::new(EventTypeId(0), 0, 0, attrs)
}

/// Compiles `p` over the frame `(v0, v1)` and evaluates it on `(a, b)`.
fn holds(p: &Predicate, a: &Event, b: &Event) -> bool {
    let mut conds = Programs::default();
    let group = conds.push_group([p], &[VarId(0), VarId(1)]);
    conds.holds_pair(group, a, b)
}

fn not(p: Predicate) -> Predicate {
    Predicate::Not(Box::new(p))
}

#[test]
fn comparison_between_two_events() {
    let (a, b) = (ev(vec![Value::Int(5)]), ev(vec![Value::Int(9)]));
    assert!(holds(&attr(0, 0).lt(attr(1, 0)), &a, &b));
    assert!(!holds(&attr(0, 0).gt(attr(1, 0)), &a, &b));
    assert!(holds(&attr(0, 0).ne(attr(1, 0)), &a, &b));
    assert!(holds(&attr(0, 0).le(attr(1, 0)), &a, &b));
    assert!(!holds(&attr(0, 0).ge(attr(1, 0)), &a, &b));
    assert!(!holds(&attr(0, 0).eq(attr(1, 0)), &a, &b));
}

#[test]
fn comparison_with_constant_mixes_int_and_float() {
    let a = ev(vec![Value::Float(2.5), Value::Int(3)]);
    assert!(holds(&attr(0, 0).gt(constant(2.0)), &a, &a));
    assert!(!holds(&attr(0, 0).gt(constant(3)), &a, &a));
    assert!(
        holds(&attr(0, 1).gt(attr(0, 0)), &a, &a),
        "Int 3 > Float 2.5"
    );
    assert!(
        holds(&attr(0, 1).eq(constant(3.0)), &a, &a),
        "Int 3 == Float 3.0"
    );
}

#[test]
fn unbound_variable_is_false_and_its_negation_true() {
    let a = ev(vec![Value::Int(5)]);
    let p = attr(0, 0).eq(attr(7, 0));
    assert!(!holds(&p, &a, &a));
    assert!(holds(&not(p), &a, &a));
    // A frame closure may also leave a listed position unbound.
    let mut conds = Programs::default();
    let g = conds.push_group([&attr(0, 0).eq(attr(1, 0))], &[VarId(0), VarId(1)]);
    assert!(!conds.holds(g, |pos| (pos == 0).then_some(&*a)));
    assert!(conds.holds(g, |_| Some(&*a)));
}

#[test]
fn missing_attribute_is_false() {
    let a = ev(vec![]);
    assert!(!holds(&attr(0, 3).eq(constant(1)), &a, &a));
    assert!(holds(&not(attr(0, 3).eq(constant(1))), &a, &a));
    assert!(!holds(&attr_plus(0, 3, 1.0).gt(constant(0)), &a, &a));
}

#[test]
fn boolean_combinators_and_empty_groups() {
    let a = ev(vec![Value::Int(5)]);
    let t = attr(0, 0).eq(constant(5));
    let f = attr(0, 0).eq(constant(6));
    assert!(holds(&Predicate::And(vec![t.clone(), t.clone()]), &a, &a));
    assert!(!holds(&Predicate::And(vec![t.clone(), f.clone()]), &a, &a));
    assert!(holds(&Predicate::Or(vec![f.clone(), t.clone()]), &a, &a));
    assert!(!holds(&Predicate::Or(vec![f.clone(), f.clone()]), &a, &a));
    assert!(holds(&Predicate::True, &a, &a));
    assert!(!holds(&not(Predicate::True), &a, &a));
    assert!(holds(&Predicate::And(vec![]), &a, &a));
    assert!(!holds(&Predicate::Or(vec![]), &a, &a));
    // Nesting: NOT(OR(f, AND(t, f))) is true.
    let nested = not(Predicate::Or(vec![
        f.clone(),
        Predicate::And(vec![t.clone(), f.clone()]),
    ]));
    assert!(holds(&nested, &a, &a));
    // A group is the conjunction of what was pushed; an empty one holds.
    let mut conds = Programs::default();
    let empty = conds.push_group([], &[VarId(0)]);
    let both = conds.push_group([&t, &f], &[VarId(0)]);
    let one = conds.push_group([&t], &[VarId(0)]);
    assert_eq!((empty, both, one, conds.len()), (0, 1, 2, 3));
    assert!(conds.group_is_empty(empty) && !conds.group_is_empty(both));
    assert!(conds.holds_pair(empty, &a, &a));
    assert!(!conds.holds_pair(both, &a, &a));
    assert!(conds.holds_pair(one, &a, &a));
}

#[test]
fn attr_offset_shifts_numeric_values_only() {
    let (a, b) = (ev(vec![Value::Float(1.0)]), ev(vec![Value::Float(1.2)]));
    // a.x + 0.25 < b.x → 1.25 < 1.2 is false; a.x + 0.1 < b.x is true.
    assert!(!holds(&attr_plus(0, 0, 0.25).lt(attr(1, 0)), &a, &b));
    assert!(holds(&attr_plus(0, 0, 0.1).lt(attr(1, 0)), &a, &b));
    // An Int attribute is shifted as a float.
    let i = ev(vec![Value::Int(1)]);
    assert!(holds(&attr_plus(0, 0, 0.5).eq(constant(1.5)), &i, &i));
    // Offset over a non-numeric attribute fails conservatively.
    for v in [Value::from("text"), Value::Bool(true)] {
        let s = ev(vec![v]);
        assert!(!holds(&attr_plus(0, 0, 1.0).gt(constant(0)), &s, &s));
        assert!(holds(&not(attr_plus(0, 0, 1.0).gt(constant(0))), &s, &s));
    }
}

#[test]
fn nan_and_cross_type_comparisons_are_false_for_every_operator() {
    let a = ev(vec![
        Value::Float(f64::NAN),
        Value::from("7"),
        Value::Int(7),
        Value::Bool(true),
    ]);
    // NaN vs itself / a number, Str vs numeric, Bool vs numeric, Str vs Bool.
    for (l, r) in [(0, 0), (0, 2), (1, 2), (3, 2), (1, 3)] {
        for op in OPS {
            assert!(!holds(&Predicate::cmp(attr(0, l), op, attr(0, r)), &a, &a));
        }
    }
    // Same-type Str and Bool comparisons are defined.
    assert!(holds(&attr(0, 1).eq(constant("7")), &a, &a));
    assert!(holds(&attr(0, 1).lt(constant("8")), &a, &a));
    assert!(holds(&attr(0, 3).gt(constant(false)), &a, &a));
}

/// The evaluation rules, read directly off the declarative tree.
fn reference(p: &Predicate, frame: &[(VarId, &Event)]) -> bool {
    let value = |o: &Operand| -> Option<Value> {
        let event = |var: &VarId| frame.iter().find(|(v, _)| v == var).map(|(_, e)| *e);
        match o {
            Operand::Attr { var, attr } => event(var)?.attr(*attr).cloned(),
            Operand::AttrOffset { var, attr, offset } => {
                Some(Value::Float(event(var)?.attr(*attr)?.as_f64()? + offset))
            }
            Operand::Const(v) => Some(v.clone()),
        }
    };
    match p {
        Predicate::True => true,
        Predicate::Cmp { lhs, op, rhs } => {
            let (Some(a), Some(b)) = (value(lhs), value(rhs)) else {
                return false;
            };
            let Some(ord) = a.compare(&b) else {
                return false;
            };
            match op {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
            }
        }
        Predicate::And(ps) => ps.iter().all(|p| reference(p, frame)),
        Predicate::Or(ps) => ps.iter().any(|p| reference(p, frame)),
        Predicate::Not(p) => !reference(p, frame),
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// Decodes generated choices into values, operands and trees.
struct Tape<'a>(std::slice::Iter<'a, u32>);

impl Tape<'_> {
    fn next(&mut self, bound: u32) -> u32 {
        self.0.next().copied().unwrap_or(0) % bound
    }

    /// Small domains so that equalities, type clashes and NaN all occur.
    fn value(&mut self) -> Value {
        match self.next(6) {
            0 | 1 => Value::Int(self.next(4) as i64 - 1),
            2 => Value::Float(self.next(8) as f64 * 0.5 - 1.0),
            3 => Value::Float(f64::NAN),
            4 => Value::Bool(self.next(2) == 0),
            _ => Value::from(["a", "b"][self.next(2) as usize]),
        }
    }

    /// Variables 0–2 over a two-variable frame (2 is unbound);
    /// attributes 0–3 over three-attribute events (3 is missing).
    fn operand(&mut self) -> Operand {
        match self.next(5) {
            0 | 1 => attr(self.next(3), self.next(4) as usize),
            2 => attr_plus(
                self.next(3),
                self.next(4) as usize,
                self.next(5) as f64 * 0.5 - 1.0,
            ),
            _ => Operand::Const(self.value()),
        }
    }

    fn cmp_op(&mut self) -> CmpOp {
        OPS[self.next(6) as usize]
    }

    fn predicate(&mut self, depth: u32) -> Predicate {
        match self.next(if depth == 0 { 5 } else { 9 }) {
            0 => Predicate::True,
            1..=4 => Predicate::cmp(self.operand(), self.cmp_op(), self.operand()),
            5 | 6 => Predicate::And(
                (0..self.next(4))
                    .map(|_| self.predicate(depth - 1))
                    .collect(),
            ),
            7 => Predicate::Or(
                (0..self.next(4))
                    .map(|_| self.predicate(depth - 1))
                    .collect(),
            ),
            _ => not(self.predicate(depth - 1)),
        }
    }
}

/// Every operator over every pairing of value kinds, each as a
/// one-comparison (flat) group: the kernel agrees with the reference,
/// with the operands in either order and taken from either event.
#[test]
fn flat_kernel_agrees_with_the_reference_on_every_operator_and_kind() {
    let values = [
        Value::Int(2),
        Value::Int(3),
        Value::Float(2.5),
        Value::Float(3.0),
        Value::Float(f64::NAN),
        Value::Bool(true),
        Value::Bool(false),
        Value::from("a"),
        Value::from("b"),
    ];
    let (a, b) = (
        ev(values.to_vec()),
        ev(values.iter().rev().cloned().collect()),
    );
    let frame = [(VarId(0), &*a), (VarId(1), &*b)];
    let mut conds = Programs::default();
    for l in 0..values.len() {
        for (r, rv) in values.iter().enumerate() {
            for op in OPS {
                for p in [
                    Predicate::cmp(attr(0, l), op, attr(1, r)),
                    Predicate::cmp(attr(1, r), op, attr(0, l)),
                    Predicate::cmp(attr(0, l), op, Operand::Const(rv.clone())),
                    Predicate::cmp(Operand::Const(rv.clone()), op, attr(1, l)),
                ] {
                    let g = conds.push_group([&p], &[VarId(0), VarId(1)]);
                    assert!(conds.pair_group(g).is_flat());
                    assert_eq!(conds.holds_pair(g, &a, &b), reference(&p, &frame), "{p:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flat groups — conjunctions of one to four comparisons with
    /// `Int` / `Float` / mixed / NaN / `Bool` / `Str` values, a missing
    /// attribute, a variable outside the frame, shifted operands and
    /// constants on either side, under every operator — evaluate through
    /// the two-event kernel exactly as the recursive reference reads
    /// them, by group index and by resolved handle alike.
    #[test]
    fn flat_kernel_agrees_with_the_recursive_reference(
        choices in prop::collection::vec(0u32..1_000_000, 64),
    ) {
        let mut tape = Tape(choices.iter());
        let a = ev((0..3).map(|_| tape.value()).collect());
        let b = ev((0..3).map(|_| tape.value()).collect());
        let preds: Vec<Predicate> = (0..1 + tape.next(4))
            .map(|_| Predicate::cmp(tape.operand(), tape.cmp_op(), tape.operand()))
            .collect();
        let frame = [(VarId(0), &*a), (VarId(1), &*b)];
        let mut conds = Programs::default();
        let g = conds.push_group(&preds, &[VarId(0), VarId(1)]);
        let resolved = conds.pair_group(g);
        prop_assert!(resolved.is_flat());
        let expected = preds.iter().all(|p| reference(p, &frame));
        prop_assert_eq!(conds.holds_pair(g, &a, &b), expected, "{:?}", preds);
        prop_assert_eq!(conds.holds_pair_group(resolved, &a, &b), expected, "{:?}", preds);
    }

    #[test]
    fn compiled_form_agrees_with_the_recursive_reference(
        choices in prop::collection::vec(0u32..1_000_000, 160),
    ) {
        let mut tape = Tape(choices.iter());
        let a = ev((0..3).map(|_| tape.value()).collect());
        let b = ev((0..3).map(|_| tape.value()).collect());
        let preds: Vec<Predicate> = (0..1 + tape.next(3)).map(|_| tape.predicate(3)).collect();
        let frame = [(VarId(0), &*a), (VarId(1), &*b)];

        // Each tree on its own, and all of them as one conjunction group.
        let mut conds = Programs::default();
        for p in &preds {
            let g = conds.push_group([p], &[VarId(0), VarId(1)]);
            prop_assert_eq!(conds.holds_pair(g, &a, &b), reference(p, &frame), "{:?}", p);
        }
        let all = conds.push_group(&preds, &[VarId(0), VarId(1)]);
        prop_assert_eq!(
            conds.holds_pair(all, &a, &b),
            preds.iter().all(|p| reference(p, &frame)),
            "{:?}",
            preds
        );
        // The same trees over the swapped frame (v1, v0).
        let swapped = conds.push_group(&preds, &[VarId(1), VarId(0)]);
        prop_assert_eq!(conds.holds_pair(swapped, &b, &a), conds.holds_pair(all, &a, &b));
    }
}
