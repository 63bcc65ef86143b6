//! The greedy order-based plan generation algorithm (paper Algorithm 2,
//! after Swami '89 as extended by the lazy-NFA work \[36\]).
//!
//! At each step the algorithm appends the slot minimizing
//! `r_j · sel_{j,j} · Π_{k<i} sel_{p_k,j}` — the marginal partial-match
//! blow-up given the already-chosen prefix. Every comparison between the
//! chosen slot and a rejected candidate is a block-building comparison
//! and is reported to the [`ComparisonRecorder`] as a deciding condition
//! of the step's building block ("process slot `j` at position `i`").

use acep_stats::StatSnapshot;
use acep_types::SubPattern;

use crate::condition::{BlockId, DecidingCondition};
use crate::expr::{CostExpr, Monomial};
use crate::order::OrderPlan;
use crate::recorder::ComparisonRecorder;

/// The greedy order-based planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyOrderPlanner;

impl GreedyOrderPlanner {
    /// Generates an order plan for `sub` under statistics `s`, reporting
    /// block-building comparisons to `rec`.
    ///
    /// Deterministic: ties are broken toward the lower slot index, so the
    /// same snapshot always yields the same plan (a precondition of the
    /// paper's Theorem 1).
    pub fn plan(
        &self,
        sub: &SubPattern,
        s: &StatSnapshot,
        rec: &mut dyn ComparisonRecorder,
    ) -> OrderPlan {
        let n = sub.n();
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        let mut remaining: Vec<usize> = (0..n).collect();

        for step in 0..n {
            debug_assert!(!remaining.is_empty());
            let exprs: Vec<(usize, CostExpr)> = remaining
                .iter()
                .map(|&j| (j, candidate_expr(&chosen, j)))
                .collect();

            let mut best_idx = 0;
            let mut best_val = f64::INFINITY;
            for (k, (_, e)) in exprs.iter().enumerate() {
                let v = e.eval(s);
                if v < best_val {
                    best_idx = k;
                    best_val = v;
                }
            }

            let (best_slot, best_expr) = exprs[best_idx].clone();
            for (k, (_, e)) in exprs.iter().enumerate() {
                if k != best_idx {
                    rec.record(DecidingCondition {
                        block: BlockId(step),
                        lhs: best_expr.clone(),
                        rhs: e.clone(),
                    });
                }
            }

            chosen.push(best_slot);
            remaining.retain(|&x| x != best_slot);
        }

        OrderPlan::new(chosen)
    }
}

/// Cost expression of placing slot `j` after the chosen prefix:
/// `r_j · sel_{j,j} · Π_{p ∈ prefix} sel_{p,j}`.
///
/// Selectivities of pairs without predicates are constant `1.0` in every
/// snapshot, so including them keeps the expression exact while staying a
/// single monomial.
fn candidate_expr(prefix: &[usize], j: usize) -> CostExpr {
    let mut m = Monomial::rate(j).with_sel(j, j);
    for &p in prefix {
        m = m.with_sel(p, j);
    }
    CostExpr::monomial(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::order_plan_cost;
    use crate::recorder::{CollectingRecorder, NoopRecorder};
    use acep_types::{attr, EventTypeId, Pattern, PatternExpr};

    fn seq_pattern(n: usize) -> Pattern {
        let types: Vec<EventTypeId> = (0..n as u32).map(EventTypeId).collect();
        Pattern::sequence("p", &types, 1_000)
    }

    fn sub(p: &Pattern) -> &SubPattern {
        &p.canonical().branches[0]
    }

    #[test]
    fn predicate_free_plan_sorts_by_rate() {
        // Paper Example 1: rates A=100, B=15, C=10 → order C, B, A.
        let p = seq_pattern(3);
        let s = StatSnapshot::from_rates(vec![100.0, 15.0, 10.0]);
        let plan = GreedyOrderPlanner.plan(sub(&p), &s, &mut NoopRecorder);
        assert_eq!(plan.order, vec![2, 1, 0]);
    }

    #[test]
    fn ties_break_toward_lower_slot_index() {
        let p = seq_pattern(3);
        let s = StatSnapshot::from_rates(vec![5.0, 5.0, 5.0]);
        let plan = GreedyOrderPlanner.plan(sub(&p), &s, &mut NoopRecorder);
        assert_eq!(plan.order, vec![0, 1, 2]);
    }

    #[test]
    fn selectivities_steer_the_choice() {
        // B is frequent but its join with A is ultra-selective, so after
        // A the algorithm prefers B over the rarer C.
        let p = Pattern::builder("p")
            .expr(PatternExpr::seq([
                PatternExpr::prim(EventTypeId(0)),
                PatternExpr::prim(EventTypeId(1)),
                PatternExpr::prim(EventTypeId(2)),
            ]))
            .condition(attr(0, 0).eq(attr(1, 0)))
            .window(1_000)
            .build()
            .unwrap();
        let mut s = StatSnapshot::from_rates(vec![1.0, 100.0, 20.0]);
        s.set_sel(0, 1, 0.001);
        let plan = GreedyOrderPlanner.plan(sub(&p), &s, &mut NoopRecorder);
        // Step 1: A (rate 1). Step 2: B costs 100·0.001 = 0.1 < C = 20.
        assert_eq!(plan.order, vec![0, 1, 2]);
    }

    #[test]
    fn records_one_dcs_per_step_with_all_rejected_candidates() {
        // Paper Fig. 4: for n = 3, DCS sizes are 2, 1, 0.
        let p = seq_pattern(3);
        let s = StatSnapshot::from_rates(vec![100.0, 15.0, 10.0]);
        let mut rec = CollectingRecorder::new();
        GreedyOrderPlanner.plan(sub(&p), &s, &mut rec);
        let sets = rec.into_condition_sets();
        assert_eq!(sets.len(), 2); // the last step has an empty DCS
        assert_eq!(sets[0].block, BlockId(0));
        assert_eq!(sets[0].conditions.len(), 2);
        assert_eq!(sets[1].block, BlockId(1));
        assert_eq!(sets[1].conditions.len(), 1);
        // Every recorded condition holds on the planning snapshot.
        for set in &sets {
            for c in &set.conditions {
                assert!(c.holds(&s));
            }
        }
    }

    #[test]
    fn recorded_conditions_evaluate_to_planner_costs() {
        // The lhs of block 0's conditions evaluates to the smallest
        // rate: the greedy choice of the first slot.
        let p = seq_pattern(4);
        let s = StatSnapshot::from_rates(vec![40.0, 10.0, 30.0, 20.0]);
        let mut rec = CollectingRecorder::new();
        GreedyOrderPlanner.plan(sub(&p), &s, &mut rec);
        let sets = rec.into_condition_sets();
        for c in &sets[0].conditions {
            assert_eq!(c.lhs.eval(&s), 10.0);
        }
        let rhs_vals: Vec<f64> = sets[0].conditions.iter().map(|c| c.rhs.eval(&s)).collect();
        let mut sorted = rhs_vals.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn greedy_is_optimal_for_predicate_free_patterns() {
        // Without predicates the cost of an order is minimized by
        // ascending rates; check against all 4! permutations.
        let p = seq_pattern(4);
        let s = StatSnapshot::from_rates(vec![7.0, 3.0, 9.0, 5.0]);
        let plan = GreedyOrderPlanner.plan(sub(&p), &s, &mut NoopRecorder);
        let greedy_cost = order_plan_cost(&plan, &s);
        let perms = permutations(4);
        for perm in perms {
            let c = order_plan_cost(&OrderPlan::new(perm.clone()), &s);
            assert!(
                greedy_cost <= c + 1e-9,
                "greedy {greedy_cost} beaten by {perm:?} = {c}"
            );
        }
    }

    #[test]
    fn single_slot_pattern() {
        let p = seq_pattern(1);
        let s = StatSnapshot::from_rates(vec![5.0]);
        let mut rec = CollectingRecorder::new();
        let plan = GreedyOrderPlanner.plan(sub(&p), &s, &mut rec);
        assert_eq!(plan.order, vec![0]);
        assert!(rec.into_condition_sets().is_empty());
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut items: Vec<usize> = (0..n).collect();
        permute(&mut items, 0, &mut out);
        out
    }

    fn permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, out);
            items.swap(k, i);
        }
    }
}
