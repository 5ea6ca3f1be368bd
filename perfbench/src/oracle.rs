//! `oracle_share`: how much of the achievable ground-truth revenue an
//! allocation over the model's scores captures at a fixed budget.

use rdrp::{greedy_allocate, mckp_allocate, multi_allocation_value, Allocation, MultiAllocation};

/// A binary allocation's outcome against the true-ROI allocation.
#[derive(Debug, Clone)]
pub struct Share {
    /// Ground-truth revenue of the model allocation ÷ that of the
    /// allocation by true ROI at the same budget.
    pub share: f64,
    /// Expected cost the model allocation spent.
    pub spent: f64,
}

/// Budget for a binary population: `fraction` of its total expected
/// incremental cost.
pub fn binary_budget(tau_c: &[f64], fraction: f64) -> f64 {
    fraction * tau_c.iter().sum::<f64>()
}

/// Budget for a K-arm population: `fraction` of the average per-arm
/// total expected cost (the bandit simulator's convention).
pub fn karm_budget(tau_c: &[Vec<f64>], fraction: f64) -> f64 {
    fraction * tau_c.iter().flatten().sum::<f64>() / tau_c.len() as f64
}

fn revenue(allocation: &Allocation, tau_r: &[f64]) -> f64 {
    allocation
        .treated
        .iter()
        .zip(tau_r)
        .filter(|(t, _)| **t)
        .map(|(_, r)| r)
        .sum()
}

/// Greedy allocation (`greedy_allocate`, Algorithm 1) over `scores`
/// against the greedy allocation over the true ROI `tau_r / tau_c`.
pub fn binary_share(scores: &[f64], tau_r: &[f64], tau_c: &[f64], budget: f64) -> Share {
    let model = greedy_allocate(scores, tau_c, budget);
    Share {
        share: binary_share_of(&model, tau_r, tau_c, budget),
        spent: model.spent,
    }
}

/// The share an already-computed greedy allocation captures.
pub fn binary_share_of(model: &Allocation, tau_r: &[f64], tau_c: &[f64], budget: f64) -> f64 {
    let true_roi: Vec<f64> = tau_r.iter().zip(tau_c).map(|(r, c)| r / c).collect();
    let oracle = greedy_allocate(&true_roi, tau_c, budget);
    revenue(model, tau_r) / revenue(&oracle, tau_r)
}

/// The share a K-arm MCKP allocation over the model's score matrix
/// captures, against `mckp_allocate` over the true per-arm ROI, both
/// valued in ground-truth revenue.
pub fn karm_share_of(
    model: &MultiAllocation,
    tau_r: &[Vec<f64>],
    tau_c: &[Vec<f64>],
    budget: f64,
) -> Result<f64, rdrp::PipelineError> {
    let true_roi: Vec<Vec<f64>> = tau_r
        .iter()
        .zip(tau_c)
        .map(|(r, c)| r.iter().zip(c).map(|(r, c)| r / c).collect())
        .collect();
    let oracle = mckp_allocate(&true_roi, tau_c, budget)?;
    Ok(multi_allocation_value(model, tau_r) / multi_allocation_value(&oracle, tau_r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_share_on_three_users() {
        // True ROI 3, 2, 1 at unit cost; budget 2 treats two users.
        let tau_r = [3.0, 2.0, 1.0];
        let tau_c = [1.0, 1.0, 1.0];
        // The model ranks them backwards: it treats users 2 and 1
        // (revenue 1 + 2) where the oracle treats 0 and 1 (3 + 2).
        let s = binary_share(&[0.1, 0.2, 0.3], &tau_r, &tau_c, 2.0);
        assert!((s.share - 0.6).abs() < 1e-12, "{}", s.share);
        assert_eq!(s.spent, 2.0);
        // A perfect ranking captures everything.
        assert_eq!(
            binary_share(&[9.0, 5.0, 1.0], &tau_r, &tau_c, 2.0).share,
            1.0
        );
        assert_eq!(binary_budget(&tau_c, 0.5), 1.5);
    }

    #[test]
    fn karm_share_on_three_users() {
        // Two arms; arm 2 costs twice arm 1 and earns 1.5× its revenue.
        let tau_r = vec![vec![2.0, 1.0, 0.5], vec![3.0, 1.5, 0.75]];
        let tau_c = vec![vec![1.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]];
        let share = |scores: &[Vec<f64>]| {
            let model = mckp_allocate(scores, &tau_c, 2.0).unwrap();
            assert!(model.spent <= 2.0);
            karm_share_of(&model, &tau_r, &tau_c, 2.0).unwrap()
        };
        // Budget 2: the oracle gives users 0 and 1 arm 1 (revenue 3),
        // since arm 1's ROI (2, 1, 0.5) beats arm 2's (1.5, 0.75, 0.375).
        assert_eq!(share(&[vec![2.0, 1.0, 0.5], vec![1.5, 0.75, 0.375]]), 1.0);
        // A model that prefers user 2 first spends on users 2 and 1: 0.5 + 1.
        let reversed = share(&[vec![0.1, 0.2, 0.3], vec![0.01, 0.02, 0.03]]);
        assert!((reversed - 0.5).abs() < 1e-12, "{reversed}");
        assert_eq!(karm_budget(&tau_c, 0.5), 0.5 * 9.0 / 2.0);
    }
}
