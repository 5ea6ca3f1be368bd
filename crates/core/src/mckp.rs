//! The multiple-choice knapsack (MCKP) allocator.
//!
//! The K-arm C-BTAP decision is an MCKP: each individual receives at most
//! one of `K − 1` treatment arms (or control), each `(individual, arm)`
//! option has a score (expected value) and a cost, and one budget caps
//! total spend. [`mckp_allocate`] implements the classic LP-relaxation
//! greedy:
//!
//! 1. **Dominance reduction** per individual: an option that costs no
//!    less and scores no more than another can never be part of a greedy
//!    solution and is dropped.
//! 2. **Efficiency frontier** per individual: the surviving options form
//!    an upper concave hull over (cost, score), so the incremental steps
//!    between consecutive frontier points have decreasing incremental
//!    efficiency `Δscore/Δcost`.
//! 3. **Global greedy walk**: all frontier steps, across individuals,
//!    sorted by incremental efficiency; a step `a → b` applies only when
//!    the individual currently sits at `a` and `Δcost` fits the remaining
//!    budget. Zero-`Δcost` steps (a free arm that scores better than
//!    control) have infinite efficiency and apply first.
//!
//! The walk never exceeds the budget (the property the
//! [`MultiAllocation::spent`] invariant and the integration property test
//! pin), runs in `O(nK log(nK))`, and is deterministic: ties in
//! efficiency resolve by generation order (individual-major, then frontier
//! order), which a stable sort preserves.
//!
//! The walk alone has no constant-factor guarantee — a cheap efficient
//! step can lock out one expensive high-value option — so the allocator
//! returns the better of the walk and the single best affordable option,
//! which restores the classic 1/2-approximation bound
//! (`greedy + best_single ≥ LP optimum ≥ ILP optimum`).
//!
//! Zero-cost arms are legal — they dominate control and are assigned
//! before any budget is spent.

use crate::error::PipelineError;

/// An assignment of at most one treatment arm per individual.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAllocation {
    /// `Some(k)` = individual receives arm `k` (1-based); `None` = control.
    pub assigned: Vec<Option<u8>>,
    /// Total expected incremental cost.
    pub spent: f64,
    /// Number of treated individuals.
    pub n_treated: usize,
}

/// One point on an individual's efficiency frontier.
#[derive(Debug, Clone, Copy)]
struct FrontierPoint {
    /// 0 = control, `k` = arm `k`.
    level: u8,
    cost: f64,
    score: f64,
}

/// One greedy step: move `individual` from `from_level` to `to_level`.
#[derive(Debug, Clone, Copy)]
struct Step {
    individual: usize,
    from_level: u8,
    to_level: u8,
    dcost: f64,
    efficiency: f64,
}

/// Incremental efficiency of moving between two frontier points; a free
/// improvement is infinitely efficient.
fn slope(a: &FrontierPoint, b: &FrontierPoint) -> f64 {
    let dc = b.cost - a.cost;
    if dc > 0.0 {
        (b.score - a.score) / dc
    } else {
        f64::INFINITY
    }
}

/// Builds individual `i`'s efficiency frontier (control first) and
/// appends its steps to `steps`.
fn frontier_steps(i: usize, scores: &[Vec<f64>], costs: &[Vec<f64>], steps: &mut Vec<Step>) {
    // All options, sorted by (cost asc, score desc, arm asc): the control
    // level is the fixed frontier base, so it stays out of the sort.
    let mut options: Vec<FrontierPoint> = (0..scores.len())
        .map(|k| FrontierPoint {
            level: k as u8 + 1,
            cost: costs[k][i],
            score: scores[k][i],
        })
        .collect();
    options.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(b.score.total_cmp(&a.score))
            .then(a.level.cmp(&b.level))
    });
    // Dominance sweep + upper concave hull in one pass over the sorted
    // options. The base (control: cost 0, score 0) is hull[0] and is
    // never popped, so the walk's starting level is always on the hull.
    let mut hull: Vec<FrontierPoint> = vec![FrontierPoint {
        level: 0,
        cost: 0.0,
        score: 0.0,
    }];
    for opt in options {
        if opt.score <= hull[hull.len() - 1].score {
            continue; // dominated: costs no less, scores no more
        }
        while hull.len() >= 2
            && slope(&hull[hull.len() - 2], &hull[hull.len() - 1])
                <= slope(&hull[hull.len() - 1], &opt)
        {
            hull.pop();
        }
        hull.push(opt);
    }
    for pair in hull.windows(2) {
        steps.push(Step {
            individual: i,
            from_level: pair[0].level,
            to_level: pair[1].level,
            dcost: pair[1].cost - pair[0].cost,
            efficiency: slope(&pair[0], &pair[1]),
        });
    }
}

/// Validates the score/cost matrices and the budget.
fn check_inputs(
    scores: &[Vec<f64>],
    costs: &[Vec<f64>],
    budget: f64,
) -> Result<usize, PipelineError> {
    if scores.is_empty() {
        return Err(PipelineError::Data("mckp_allocate: no arms".to_string()));
    }
    if scores.len() != costs.len() {
        return Err(PipelineError::Data(format!(
            "mckp_allocate: {} score arms but {} cost arms",
            scores.len(),
            costs.len()
        )));
    }
    let n = scores[0].len();
    for (k, (s, c)) in scores.iter().zip(costs).enumerate() {
        if s.len() != n {
            return Err(PipelineError::Data(format!("ragged scores at arm {k}")));
        }
        if c.len() != n {
            return Err(PipelineError::Data(format!("ragged costs at arm {k}")));
        }
        if !s.iter().all(|v| v.is_finite()) {
            return Err(PipelineError::Data(format!(
                "arm {k}: scores must be finite"
            )));
        }
        if !c.iter().all(|&v| v.is_finite() && v >= 0.0) {
            return Err(PipelineError::Data(format!(
                "arm {k}: costs must be finite and non-negative"
            )));
        }
    }
    if budget.is_nan() || budget < 0.0 {
        return Err(PipelineError::Data(format!(
            "budget {budget} must be non-negative"
        )));
    }
    Ok(n)
}

/// Solves the K-arm budgeted assignment greedily (see the module docs for
/// the algorithm). `scores[k][i]` and `costs[k][i]` are arm `k+1`'s score
/// and expected incremental cost for individual `i`; arm indices in the
/// result are 1-based, `None` meaning control.
///
/// Guarantees: `spent <= budget` always; each individual receives at most
/// one arm; zero-cost arms may be assigned even at budget 0.
///
/// # Errors
/// [`PipelineError::Data`] on ragged inputs, non-finite scores, negative
/// or non-finite costs, or a budget that is negative or NaN.
pub fn mckp_allocate(
    scores: &[Vec<f64>],
    costs: &[Vec<f64>],
    budget: f64,
) -> Result<MultiAllocation, PipelineError> {
    let n = check_inputs(scores, costs, budget)?;
    let mut steps = Vec::with_capacity(n * scores.len());
    for i in 0..n {
        frontier_steps(i, scores, costs, &mut steps);
    }
    // Stable sort: equal efficiencies keep generation order
    // (individual-major, frontier order), so the walk is deterministic.
    steps.sort_by(|a, b| b.efficiency.total_cmp(&a.efficiency));
    let mut level = vec![0u8; n];
    let mut spent = 0.0;
    for step in &steps {
        if level[step.individual] != step.from_level {
            continue; // an earlier step for this individual was skipped
        }
        if spent + step.dcost > budget {
            continue; // does not fit; cheaper steps may still apply
        }
        level[step.individual] = step.to_level;
        spent += step.dcost;
    }
    // 1/2-approximation fallback: when the single best affordable option
    // beats everything the walk captured, take it instead. Strict `>`
    // keeps ties on the walk's side, so the result stays deterministic.
    let walk_value: f64 = level
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != 0)
        .map(|(i, &l)| scores[usize::from(l) - 1][i])
        .sum();
    let mut best_single: Option<(usize, u8)> = None;
    let mut best_single_score = 0.0f64;
    for (k, (s_row, c_row)) in scores.iter().zip(costs).enumerate() {
        for i in 0..n {
            if c_row[i] <= budget && s_row[i] > best_single_score {
                best_single = Some((i, k as u8 + 1));
                best_single_score = s_row[i];
            }
        }
    }
    if let Some((i, k)) = best_single {
        if best_single_score > walk_value {
            level.iter_mut().for_each(|l| *l = 0);
            level[i] = k;
            spent = costs[usize::from(k) - 1][i];
        }
    }
    let n_treated = level.iter().filter(|&&l| l != 0).count();
    Ok(MultiAllocation {
        assigned: level.into_iter().map(|l| (l != 0).then_some(l)).collect(),
        spent,
        n_treated,
    })
}

/// Expected value captured by a multi-arm allocation under per-arm value
/// matrix `values[k][i]` (arm `k+1`'s value for individual `i`) — the
/// objective the allocator maximizes, and the bandit loop's regret unit.
pub fn multi_allocation_value(allocation: &MultiAllocation, values: &[Vec<f64>]) -> f64 {
    allocation
        .assigned
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|k| values[(k - 1) as usize][i]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::random::Prng;

    /// 3 users × 3 arms with a hand-verified optimum: exhaustive search
    /// over all 4³ assignments under budget 5 gives value 2.4 (user 0 →
    /// arm 2, user 1 → arm 2, user 2 → arm 1), and the greedy walk
    /// reaches exactly that assignment.
    fn known_optimum_instance() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let scores = vec![
            vec![0.9, 0.4, 0.3],  // arm 1
            vec![1.2, 0.9, 0.35], // arm 2
            vec![1.3, 1.0, 0.9],  // arm 3
        ];
        let costs = vec![vec![1.0; 3], vec![2.0; 3], vec![4.0; 3]];
        (scores, costs)
    }

    /// Brute-force MCKP optimum for tiny instances.
    fn brute_force(scores: &[Vec<f64>], costs: &[Vec<f64>], budget: f64) -> f64 {
        let n = scores[0].len();
        let arms = scores.len();
        let mut best = 0.0f64;
        let mut choice = vec![0usize; n]; // 0 = control, k = arm k
        loop {
            let (mut value, mut cost) = (0.0, 0.0);
            for (i, &c) in choice.iter().enumerate() {
                if c > 0 {
                    value += scores[c - 1][i];
                    cost += costs[c - 1][i];
                }
            }
            if cost <= budget {
                best = best.max(value);
            }
            // Odometer over the choice vector.
            let mut pos = 0;
            loop {
                if pos == n {
                    return best;
                }
                choice[pos] += 1;
                if choice[pos] <= arms {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn hand_computed_three_by_three_reaches_the_optimum() {
        let (scores, costs) = known_optimum_instance();
        let alloc = mckp_allocate(&scores, &costs, 5.0).unwrap();
        assert_eq!(alloc.assigned, vec![Some(2), Some(2), Some(1)]);
        assert_eq!(alloc.spent, 5.0);
        assert_eq!(alloc.n_treated, 3);
        let value = multi_allocation_value(&alloc, &scores);
        assert!((value - 2.4).abs() < 1e-12);
        assert_eq!(value, brute_force(&scores, &costs, 5.0));
    }

    #[test]
    fn budget_boundary_is_exact() {
        let (scores, costs) = known_optimum_instance();
        // Exactly at the boundary the last 1.0-cost step still applies ...
        let at = mckp_allocate(&scores, &costs, 5.0).unwrap();
        assert_eq!(at.spent, 5.0);
        // ... a hair below it does not, and nothing overshoots. The
        // exact assignment depends on float tie-breaks between two
        // equal-value solutions, so pin spend and value, not arms.
        let below = mckp_allocate(&scores, &costs, 5.0 - 1e-9).unwrap();
        assert!(below.spent <= 5.0 - 1e-9);
        assert_eq!(below.spent, 4.0);
        let value = multi_allocation_value(&below, &scores);
        assert!((value - brute_force(&scores, &costs, 5.0 - 1e-9)).abs() < 1e-12);
        assert!((value - 2.1).abs() < 1e-12);
        // Zero budget, positive costs: nobody is treated.
        let zero = mckp_allocate(&scores, &costs, 0.0).unwrap();
        assert_eq!(zero.n_treated, 0);
        assert_eq!(zero.spent, 0.0);
    }

    #[test]
    fn allocator_prefers_efficient_steps_and_respects_budget() {
        // Two arms, three individuals. Individual 1's only frontier step
        // is 0 → arm 2 at efficiency 0.7/2 = 0.35, which loses to both
        // cost-1 steps (0.9 and 0.5) and then no longer fits: spending 2
        // on 0.7 is worse than 1 on 0.5.
        let scores = vec![vec![0.9, 0.1, 0.5], vec![0.8, 0.7, 0.2]];
        let costs = vec![vec![1.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]];
        let alloc = mckp_allocate(&scores, &costs, 3.0).unwrap();
        assert_eq!(alloc.assigned, vec![Some(1), None, Some(1)]);
        assert_eq!(alloc.spent, 2.0);
        assert_eq!(alloc.n_treated, 2);
    }

    #[test]
    fn skip_rule_fills_budget_past_expensive_pairs() {
        let scores = vec![vec![0.9, 0.5]];
        let costs = vec![vec![10.0, 1.0]];
        // The best-scoring step does not fit; the next one does.
        let alloc = mckp_allocate(&scores, &costs, 1.5).unwrap();
        assert_eq!(alloc.assigned, vec![None, Some(1)]);
    }

    #[test]
    fn zero_cost_arms_are_assigned_even_at_zero_budget() {
        // A free arm that beats control dominates it on the frontier.
        let scores = vec![vec![0.5, 0.2], vec![0.9, 0.1]];
        let costs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let alloc = mckp_allocate(&scores, &costs, 0.0).unwrap();
        assert_eq!(alloc.assigned, vec![Some(1), Some(1)]);
        assert_eq!(alloc.spent, 0.0);
        // With budget, the walk upgrades past the free arm where the
        // paid arm is worth the step.
        let paid = mckp_allocate(&scores, &costs, 1.0).unwrap();
        assert_eq!(paid.assigned, vec![Some(2), Some(1)]);
        assert_eq!(paid.spent, 1.0);
    }

    #[test]
    fn dominated_arms_are_never_assigned() {
        // Arm 2 costs more and scores less than arm 1 for everyone.
        let scores = vec![vec![0.9, 0.8], vec![0.5, 0.4]];
        let costs = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let alloc = mckp_allocate(&scores, &costs, 100.0).unwrap();
        assert_eq!(alloc.assigned, vec![Some(1), Some(1)]);
    }

    #[test]
    fn spend_never_exceeds_budget_property() {
        // Random instances across arm counts, sizes, and budgets.
        let mut rng = Prng::seed_from_u64(0xA110C);
        for trial in 0..200 {
            let arms = 1 + (trial % 5);
            let n = 1 + (trial % 37);
            let scores: Vec<Vec<f64>> = (0..arms)
                .map(|_| (0..n).map(|_| rng.uniform() * 2.0 - 0.5).collect())
                .collect();
            let costs: Vec<Vec<f64>> = (0..arms)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            if rng.bernoulli(0.1) {
                                0.0
                            } else {
                                rng.uniform() * 3.0
                            }
                        })
                        .collect()
                })
                .collect();
            let budget = rng.uniform() * n as f64;
            let alloc = mckp_allocate(&scores, &costs, budget).unwrap();
            assert!(
                alloc.spent <= budget + 1e-9,
                "trial {trial}: spent {} > budget {budget}",
                alloc.spent
            );
            // Spend equals the sum of assigned costs.
            let recomputed: f64 = alloc
                .assigned
                .iter()
                .enumerate()
                .filter_map(|(i, a)| a.map(|k| costs[(k - 1) as usize][i]))
                .sum();
            assert!((alloc.spent - recomputed).abs() < 1e-9);
            assert_eq!(
                alloc.n_treated,
                alloc.assigned.iter().filter(|a| a.is_some()).count()
            );
        }
    }

    #[test]
    fn greedy_matches_brute_force_on_small_instances() {
        // The LP greedy plus the best-single-option fallback carries a
        // 1/2-approximation guarantee; on small instances it usually
        // lands on the optimum outright.
        let mut rng = Prng::seed_from_u64(7);
        let mut exact = 0;
        for trial in 0..50 {
            let arms = 2 + (trial % 2);
            let n = 3;
            let scores: Vec<Vec<f64>> = (0..arms)
                .map(|_| (0..n).map(|_| rng.uniform()).collect())
                .collect();
            let costs: Vec<Vec<f64>> = (0..arms)
                .map(|_| (0..n).map(|_| 0.25 + rng.uniform()).collect())
                .collect();
            let budget = 1.0 + rng.uniform() * 2.0;
            let alloc = mckp_allocate(&scores, &costs, budget).unwrap();
            let greedy = multi_allocation_value(&alloc, &scores);
            let best = brute_force(&scores, &costs, budget);
            assert!(
                greedy >= 0.5 * best - 1e-12,
                "trial {trial}: greedy {greedy} vs optimum {best}"
            );
            if (greedy - best).abs() < 1e-9 {
                exact += 1;
            }
        }
        assert!(exact >= 25, "only {exact}/50 trials reached the optimum");
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let scores = vec![vec![0.5, 0.5]];
        let costs = vec![vec![1.0, 1.0]];
        assert!(matches!(
            mckp_allocate(&[], &[], 1.0),
            Err(PipelineError::Data(_))
        ));
        assert!(mckp_allocate(&scores, &[vec![1.0]], 1.0).is_err());
        assert!(mckp_allocate(&scores, &[vec![-1.0, 1.0]], 1.0).is_err());
        assert!(mckp_allocate(&scores, &[vec![f64::NAN, 1.0]], 1.0).is_err());
        assert!(mckp_allocate(&[vec![f64::NAN, 0.5]], &costs, 1.0).is_err());
        assert!(mckp_allocate(&scores, &costs, -1.0).is_err());
        assert!(mckp_allocate(&scores, &costs, f64::NAN).is_err());
    }
}
