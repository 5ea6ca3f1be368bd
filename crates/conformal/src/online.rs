//! Streaming conformal calibration over a rolling score window.
//!
//! The paper calibrates once, on a fresh pre-deployment RCT — and its own
//! SuCo/InCo experiments show what happens next: under covariate shift
//! the frozen quantile stops covering. [`OnlineConformal`] is the
//! deployed-system answer: a bounded FIFO window of the most recent
//! nonconformity scores, an order-statistics tree giving `O(log n)`
//! insert/evict/quantile on that window, and an adaptive-α controller
//! (Gibbs & Candès-style) that nudges the working miscoverage level
//! toward the nominal target as empirical coverage feedback arrives.
//!
//! The quantile semantics are *exactly* those of
//! [`linalg::stats::conformal_quantile`] applied to the current window:
//! rank `⌈(1−α)(n+1)⌉` of the sorted scores, `+∞` when the rank exceeds
//! `n` — the window being a sliding calibration set, not an approximation
//! of one. Only the data structure changes; the statistics do not.

use crate::error::ConformalError;
use crate::score::scaled_score;
use crate::split::SplitConformal;
use std::collections::VecDeque;

/// Knobs for [`OnlineConformal`]; the nominal level `α₀` is an argument
/// of [`OnlineConformal::new`], because it belongs to the model being
/// calibrated. The defaults follow the adaptive conformal literature
/// (and the exemplar configs): a few hundred scores of memory, a small α
/// step, and hard α bounds so feedback noise can never push the target
/// coverage to an extreme.
#[derive(Debug, Clone)]
pub struct OnlineConformalConfig {
    /// Window capacity — the size of the sliding calibration set.
    pub window: usize,
    /// Minimum window fill before the calibrator reports itself ready;
    /// below this, quantiles exist but recalibration should not act on
    /// them.
    pub min_window: usize,
    /// Adaptive-α step size `γ`: `α ← α + γ(α₀ − err)` per feedback
    /// observation, `err ∈ {0, 1}`. Zero freezes α at `α₀`.
    pub gamma: f64,
    /// Lower clamp for the adaptive α.
    pub alpha_min: f64,
    /// Upper clamp for the adaptive α.
    pub alpha_max: f64,
    /// Scale floor forwarded to [`scaled_score`] and the predictors this
    /// calibrator mints.
    pub scale_floor: f64,
}

impl Default for OnlineConformalConfig {
    fn default() -> Self {
        OnlineConformalConfig {
            window: 256,
            min_window: 30,
            gamma: 0.02,
            alpha_min: 0.01,
            alpha_max: 0.3,
            scale_floor: 1e-6,
        }
    }
}

impl OnlineConformalConfig {
    /// Validates the configuration for the nominal level `alpha`,
    /// returning the first problem found.
    fn validate(&self, alpha: f64) -> Option<String> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Some(format!("alpha {alpha} outside (0, 1)"));
        }
        if self.window == 0 {
            return Some("window must be positive".to_string());
        }
        if self.min_window == 0 || self.min_window > self.window {
            return Some(format!(
                "min_window {} outside 1..={}",
                self.min_window, self.window
            ));
        }
        if !(self.gamma >= 0.0 && self.gamma.is_finite()) {
            return Some(format!("gamma {} is not a finite non-negative", self.gamma));
        }
        if !(self.alpha_min > 0.0
            && self.alpha_min <= alpha
            && alpha <= self.alpha_max
            && self.alpha_max < 1.0)
        {
            return Some(format!(
                "alpha bounds [{}, {}] must bracket alpha {alpha} inside (0, 1)",
                self.alpha_min, self.alpha_max
            ));
        }
        if !(self.scale_floor > 0.0 && self.scale_floor.is_finite()) {
            return Some(format!(
                "scale_floor {} must be positive and finite",
                self.scale_floor
            ));
        }
        None
    }
}

/// What one feedback observation did to the calibrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The nonconformity score of the observed outcome.
    pub score: f64,
    /// Whether the outcome fell inside the interval the *pre-observation*
    /// quantile would have predicted — `None` before the window holds any
    /// score (there is no quantile to be covered by).
    pub covered: Option<bool>,
    /// Window fill after this observation.
    pub window: usize,
}

/// A streaming split-conformal calibrator (see the module docs).
#[derive(Debug, Clone)]
pub struct OnlineConformal {
    cfg: OnlineConformalConfig,
    /// The nominal miscoverage level `α₀` the controller steers toward.
    alpha0: f64,
    /// Arrival order, for FIFO eviction.
    arrivals: VecDeque<f64>,
    /// The same scores, ordered — `O(log n)` insert/remove/k-th.
    tree: OrderStatTree,
    /// The adaptive miscoverage level `α_t`.
    alpha_t: f64,
    /// Coverage outcomes over the same sliding horizon as the scores.
    outcomes: VecDeque<bool>,
    covered_in_window: usize,
    /// Feedback rows dropped because their score was NaN.
    non_finite: u64,
}

impl OnlineConformal {
    /// Creates an empty calibrator steering toward the nominal
    /// miscoverage level `alpha` (`α₀`).
    ///
    /// # Errors
    /// [`ConformalError::InvalidConfig`] naming the first problem when
    /// `alpha` lies outside `(0, 1)` or the configured α bounds, or the
    /// configuration is otherwise inconsistent.
    pub fn new(alpha: f64, cfg: OnlineConformalConfig) -> Result<Self, ConformalError> {
        if let Some(reason) = cfg.validate(alpha) {
            return Err(ConformalError::InvalidConfig { reason });
        }
        let window = cfg.window;
        Ok(OnlineConformal {
            cfg,
            alpha0: alpha,
            arrivals: VecDeque::with_capacity(window),
            tree: OrderStatTree::new(),
            alpha_t: alpha,
            outcomes: VecDeque::with_capacity(window),
            covered_in_window: 0,
            non_finite: 0,
        })
    }

    /// The configuration this calibrator runs under.
    pub fn config(&self) -> &OnlineConformalConfig {
        &self.cfg
    }

    /// Current window fill.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Whether the window holds at least `min_window` scores — the gate
    /// recalibration decisions stand behind.
    pub fn ready(&self) -> bool {
        self.len() >= self.cfg.min_window
    }

    /// The current adaptive miscoverage level `α_t`.
    pub fn alpha(&self) -> f64 {
        self.alpha_t
    }

    /// Feedback rows dropped because their score was NaN.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Empirical coverage over the current window of feedback outcomes,
    /// or `None` before any outcome was scored against a quantile.
    pub fn empirical_coverage(&self) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        Some(self.covered_in_window as f64 / self.outcomes.len() as f64)
    }

    /// The window's conformal quantile at the current adaptive `α_t`:
    /// rank `⌈(1−α_t)(n+1)⌉` of the sorted window, `+∞` when the rank
    /// exceeds `n` — byte-for-byte the [`conformal_quantile`] convention.
    /// `None` on an empty window.
    ///
    /// [`conformal_quantile`]: linalg::stats::conformal_quantile
    pub fn qhat(&self) -> Option<f64> {
        self.qhat_at(self.alpha_t)
    }

    /// [`OnlineConformal::qhat`] at an explicit level (the nominal α₀ for
    /// reporting, or a candidate α for what-if checks).
    pub fn qhat_at(&self, alpha: f64) -> Option<f64> {
        let n = self.tree.len();
        if n == 0 {
            return None;
        }
        let rank = ((1.0 - alpha) * (n as f64 + 1.0)).ceil() as usize;
        if rank > n {
            return Some(f64::INFINITY);
        }
        // rank >= 1 because alpha < 1 gives (1-alpha)(n+1) > 0.
        self.tree.kth(rank - 1)
    }

    /// Mints a [`SplitConformal`] predictor frozen at the window's current
    /// quantile, or `None` on an empty window. This is the object the
    /// serving stack hot-swaps into a model artifact.
    pub fn predictor(&self) -> Option<SplitConformal> {
        let qhat = self.qhat()?;
        Some(SplitConformal::from_quantile(
            qhat,
            self.alpha0,
            self.len(),
            self.cfg.scale_floor,
        ))
    }

    /// Feeds one feedback row: the model predicted `pred` with
    /// uncertainty `scale`, the world answered `outcome`.
    ///
    /// Coverage is judged against the quantile *before* this score enters
    /// the window (a point must not influence its own interval), then the
    /// score is admitted and the oldest is evicted when the window is
    /// full. The adaptive α moves by `γ(α₀ − err)` — misses push α down
    /// (wider intervals), hits push it up, clamped to the configured
    /// bounds.
    ///
    /// A NaN score (NaN `pred` or `outcome`) is counted and dropped — a
    /// poisoned feedback row must never take the whole window down.
    pub fn observe(&mut self, pred: f64, scale: f64, outcome: f64) -> Observation {
        let score = scaled_score(outcome, pred, scale, self.cfg.scale_floor);
        if score.is_nan() {
            self.non_finite += 1;
            return Observation {
                score,
                covered: None,
                window: self.len(),
            };
        }
        let covered = self.qhat().map(|q| score <= q);
        if let Some(hit) = covered {
            if self.outcomes.len() == self.cfg.window {
                if let Some(old) = self.outcomes.pop_front() {
                    self.covered_in_window -= usize::from(old);
                }
            }
            self.outcomes.push_back(hit);
            self.covered_in_window += usize::from(hit);
            let err = if hit { 0.0 } else { 1.0 };
            if self.cfg.gamma > 0.0 {
                self.alpha_t = (self.alpha_t + self.cfg.gamma * (self.alpha0 - err))
                    .clamp(self.cfg.alpha_min, self.cfg.alpha_max);
            }
        }
        self.push_score(score);
        Observation {
            score,
            covered,
            window: self.len(),
        }
    }

    /// Admits a raw nonconformity score (the [`OnlineConformal::observe`]
    /// path without the coverage/α bookkeeping — used to seed the window
    /// from an initial calibration set). NaN scores are counted and
    /// dropped; returns whether the score entered the window.
    pub fn push_score(&mut self, score: f64) -> bool {
        if score.is_nan() {
            self.non_finite += 1;
            return false;
        }
        if self.arrivals.len() == self.cfg.window {
            if let Some(oldest) = self.arrivals.pop_front() {
                self.tree.remove(oldest);
            }
        }
        self.arrivals.push_back(score);
        self.tree.insert(score);
        true
    }
}

// ---------------------------------------------------------------------------
// Order-statistics multiset
// ---------------------------------------------------------------------------

/// A size-augmented treap over `f64` keys (total order via `total_cmp`),
/// giving `O(log n)` expected insert, remove-one, and k-th smallest.
///
/// Priorities come from a deterministic xorshift stream seeded at
/// construction, so the tree shape — and therefore every downstream
/// trace — is identical across runs. The window sizes this serves
/// (hundreds to a few thousand scores) keep the constant factors tiny.
#[derive(Debug, Clone, Default)]
struct OrderStatTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    free: Vec<usize>,
    prng_state: u64,
}

#[derive(Debug, Clone)]
struct Node {
    key: f64,
    priority: u64,
    left: Option<usize>,
    right: Option<usize>,
    /// Subtree size, counting this node.
    size: usize,
}

impl OrderStatTree {
    fn new() -> OrderStatTree {
        OrderStatTree {
            nodes: Vec::new(),
            root: None,
            free: Vec::new(),
            // Any fixed non-zero seed works; this one is arbitrary but
            // stable so tree shapes (and traces) never vary across runs.
            prng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn len(&self) -> usize {
        self.root.map_or(0, |r| self.nodes[r].size)
    }

    fn next_priority(&mut self) -> u64 {
        // xorshift64* — enough mixing to keep the treap balanced.
        let mut x = self.prng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn size(&self, node: Option<usize>) -> usize {
        node.map_or(0, |i| self.nodes[i].size)
    }

    fn update(&mut self, i: usize) {
        let s = 1 + self.size(self.nodes[i].left) + self.size(self.nodes[i].right);
        self.nodes[i].size = s;
    }

    /// Splits `node` into (< key) and (>= key) subtrees.
    fn split(&mut self, node: Option<usize>, key: f64) -> (Option<usize>, Option<usize>) {
        let Some(i) = node else {
            return (None, None);
        };
        if self.nodes[i].key.total_cmp(&key).is_lt() {
            let (l, r) = self.split(self.nodes[i].right, key);
            self.nodes[i].right = l;
            self.update(i);
            (Some(i), r)
        } else {
            let (l, r) = self.split(self.nodes[i].left, key);
            self.nodes[i].left = r;
            self.update(i);
            (l, Some(i))
        }
    }

    fn merge(&mut self, a: Option<usize>, b: Option<usize>) -> Option<usize> {
        match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some(x), Some(y)) => {
                if self.nodes[x].priority >= self.nodes[y].priority {
                    let merged = self.merge(self.nodes[x].right, Some(y));
                    self.nodes[x].right = merged;
                    self.update(x);
                    Some(x)
                } else {
                    let merged = self.merge(Some(x), self.nodes[y].left);
                    self.nodes[y].left = merged;
                    self.update(y);
                    Some(y)
                }
            }
        }
    }

    fn alloc(&mut self, key: f64, priority: u64) -> usize {
        let node = Node {
            key,
            priority,
            left: None,
            right: None,
            size: 1,
        };
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn insert(&mut self, key: f64) {
        let priority = self.next_priority();
        let leaf = self.alloc(key, priority);
        let (l, r) = self.split(self.root, key);
        let lr = self.merge(l, Some(leaf));
        self.root = self.merge(lr, r);
    }

    /// Removes one occurrence of `key`; `false` when absent. Keys are
    /// compared by `total_cmp`, matching `insert` exactly, so a score
    /// evicted from the FIFO is always found here.
    fn remove(&mut self, key: f64) -> bool {
        fn go(tree: &mut OrderStatTree, node: Option<usize>, key: f64) -> (Option<usize>, bool) {
            let Some(i) = node else {
                return (None, false);
            };
            match key.total_cmp(&tree.nodes[i].key) {
                std::cmp::Ordering::Equal => {
                    let replacement = tree.merge(tree.nodes[i].left, tree.nodes[i].right);
                    tree.free.push(i);
                    (replacement, true)
                }
                std::cmp::Ordering::Less => {
                    let (l, removed) = go(tree, tree.nodes[i].left, key);
                    tree.nodes[i].left = l;
                    if removed {
                        tree.update(i);
                    }
                    (Some(i), removed)
                }
                std::cmp::Ordering::Greater => {
                    let (r, removed) = go(tree, tree.nodes[i].right, key);
                    tree.nodes[i].right = r;
                    if removed {
                        tree.update(i);
                    }
                    (Some(i), removed)
                }
            }
        }
        let (root, removed) = go(self, self.root, key);
        self.root = root;
        removed
    }

    /// The k-th smallest key (0-based), or `None` when out of range.
    fn kth(&self, mut k: usize) -> Option<f64> {
        let mut node = self.root?;
        loop {
            let left = self.size(self.nodes[node].left);
            if k < left {
                node = self.nodes[node].left?;
            } else if k == left {
                return Some(self.nodes[node].key);
            } else {
                k -= left + 1;
                node = self.nodes[node].right?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::random::Prng;
    use linalg::stats::conformal_quantile;

    /// The semantic pin: on any stream, the window quantile equals
    /// `conformal_quantile` recomputed from scratch on the window's
    /// contents — same ranks, same infinities. (Value equality, not bit
    /// equality: the reference sorts by `partial_cmp`, which does not
    /// distinguish `-0.0` from `0.0`.)
    #[test]
    fn window_quantile_matches_conformal_quantile_exactly() {
        let mut rng = Prng::seed_from_u64(3);
        for &(window, alpha) in &[(7usize, 0.1), (64, 0.1), (50, 0.25), (128, 0.05)] {
            let mut online = OnlineConformal::new(
                alpha,
                OnlineConformalConfig {
                    window,
                    min_window: 1,
                    gamma: 0.0, // freeze alpha so the reference level is fixed
                    ..OnlineConformalConfig::default()
                },
            )
            .unwrap();
            let mut reference: VecDeque<f64> = VecDeque::new();
            for step in 0..600 {
                // A stream with ties, jumps, and negative values.
                let s = (10.0 * rng.gaussian()).round() / 4.0;
                online.push_score(s);
                if reference.len() == window {
                    reference.pop_front();
                }
                reference.push_back(s);
                let scores: Vec<f64> = reference.iter().copied().collect();
                let want = conformal_quantile(&scores, alpha).unwrap();
                let got = online.qhat().unwrap();
                assert_eq!(
                    got, want,
                    "step {step}, window {window}, alpha {alpha}: {got} != {want}"
                );
            }
        }
    }

    #[test]
    fn tree_matches_sorted_vec_reference_under_churn() {
        let mut rng = Prng::seed_from_u64(9);
        let mut tree = OrderStatTree::new();
        let mut reference: Vec<f64> = Vec::new();
        for _ in 0..2000 {
            if !reference.is_empty() && rng.uniform() < 0.45 {
                let idx = (rng.uniform() * reference.len() as f64) as usize % reference.len();
                let key = reference.remove(idx);
                assert!(tree.remove(key));
            } else {
                // Quantized values force duplicate keys regularly.
                let key = (rng.gaussian() * 8.0).round() / 8.0;
                tree.insert(key);
                let pos = reference.partition_point(|&x| x.total_cmp(&key).is_lt());
                reference.insert(pos, key);
            }
            assert_eq!(tree.len(), reference.len());
            for k in [0, reference.len() / 2, reference.len().saturating_sub(1)] {
                assert_eq!(tree.kth(k), reference.get(k).copied());
            }
        }
        assert!(!tree.remove(f64::MAX), "absent key must report false");
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let mut online = OnlineConformal::new(
            0.1,
            OnlineConformalConfig {
                window: 3,
                min_window: 1,
                ..OnlineConformalConfig::default()
            },
        )
        .unwrap();
        for s in [5.0, 1.0, 3.0, 2.0] {
            online.push_score(s);
        }
        // 5.0 (oldest) evicted: window is {1, 3, 2}.
        assert_eq!(online.len(), 3);
        // alpha = 0.1, n = 3: rank = ceil(0.9 * 4) = 4 > 3 -> infinite.
        assert_eq!(online.qhat(), Some(f64::INFINITY));
        // At alpha = 0.5: rank = ceil(0.5 * 4) = 2 -> 2nd smallest = 2.0.
        assert_eq!(online.qhat_at(0.5), Some(2.0));
    }

    #[test]
    fn nan_feedback_is_counted_and_dropped() {
        let mut online = OnlineConformal::new(0.1, OnlineConformalConfig::default()).unwrap();
        online.push_score(1.0);
        let obs = online.observe(f64::NAN, 1.0, 0.5);
        assert_eq!(obs.covered, None);
        assert_eq!(online.len(), 1, "NaN must not enter the window");
        assert_eq!(online.non_finite(), 1);
        assert!(!online.push_score(f64::NAN));
        assert_eq!(online.non_finite(), 2);
    }

    #[test]
    fn adaptive_alpha_moves_toward_observed_coverage() {
        let cfg = OnlineConformalConfig {
            window: 128,
            min_window: 10,
            gamma: 0.05,
            ..OnlineConformalConfig::default()
        };
        // Persistent misses drive alpha down (wider intervals)...
        let mut online = OnlineConformal::new(0.1, cfg.clone()).unwrap();
        for _ in 0..20 {
            online.push_score(1.0);
        }
        let before = online.alpha();
        for i in 0..30 {
            // Outcomes far outside the interval: |outcome - pred| >> qhat.
            online.observe(0.0, 1.0, 1e6 + i as f64);
        }
        assert!(online.alpha() < before, "misses must widen");
        assert_eq!(online.alpha(), cfg.alpha_min, "clamped at the floor");
        // ...persistent hits drive it back up, clamped at the ceiling.
        for _ in 0..600 {
            online.observe(0.0, 1.0, 0.0);
        }
        assert_eq!(online.alpha(), cfg.alpha_max);
    }

    #[test]
    fn coverage_accounting_is_windowed() {
        let mut online = OnlineConformal::new(
            0.5,
            OnlineConformalConfig {
                window: 4,
                min_window: 1,
                gamma: 0.0,
                alpha_max: 0.6,
                ..OnlineConformalConfig::default()
            },
        )
        .unwrap();
        assert_eq!(online.empirical_coverage(), None);
        online.push_score(1.0);
        for _ in 0..4 {
            online.observe(0.0, 1.0, 0.0); // score 0 <= qhat: hit
        }
        assert_eq!(online.empirical_coverage(), Some(1.0));
        // Escalating outcomes: each score outruns the quantile even as
        // the previous misses widen the window behind it.
        for i in 0..4 {
            online.observe(0.0, 1.0, 1e9 * 10f64.powi(i));
        }
        // The hit outcomes have slid out of the 4-deep horizon.
        assert_eq!(online.empirical_coverage(), Some(0.0));
    }

    #[test]
    fn predictor_freezes_the_window_quantile() {
        let mut online = OnlineConformal::new(
            0.5,
            OnlineConformalConfig {
                window: 8,
                min_window: 1,
                alpha_max: 0.6,
                gamma: 0.0,
                ..OnlineConformalConfig::default()
            },
        )
        .unwrap();
        assert!(online.predictor().is_none());
        for s in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
            online.push_score(s);
        }
        // n = 7, alpha = 0.5: rank = ceil(0.5 * 8) = 4 -> 4.0.
        let cp = online.predictor().unwrap();
        assert_eq!(cp.qhat(), 4.0);
        assert_eq!(cp.n_calibration(), 7);
    }

    #[test]
    fn rejects_inconsistent_config() {
        // α₀ outside (0, 1), and α₀ below the default α bounds; the
        // error names the problem.
        assert!(OnlineConformal::new(0.0, OnlineConformalConfig::default()).is_err());
        let err = OnlineConformal::new(0.005, OnlineConformalConfig::default()).unwrap_err();
        assert!(
            err.to_string().contains("must bracket alpha 0.005"),
            "{err}"
        );
        for cfg in [
            OnlineConformalConfig {
                window: 0,
                ..OnlineConformalConfig::default()
            },
            OnlineConformalConfig {
                min_window: 0,
                ..OnlineConformalConfig::default()
            },
            OnlineConformalConfig {
                min_window: 1000,
                window: 10,
                ..OnlineConformalConfig::default()
            },
            OnlineConformalConfig {
                alpha_min: 0.2,
                ..OnlineConformalConfig::default()
            },
            OnlineConformalConfig {
                gamma: f64::NAN,
                ..OnlineConformalConfig::default()
            },
            OnlineConformalConfig {
                scale_floor: 0.0,
                ..OnlineConformalConfig::default()
            },
        ] {
            assert!(OnlineConformal::new(0.1, cfg).is_err());
        }
    }
}
