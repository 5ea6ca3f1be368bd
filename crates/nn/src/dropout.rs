//! Inverted dropout with a Monte-Carlo inference mode.
//!
//! Standard dropout is a training-time regularizer. rDRP additionally
//! exploits it at *inference* time: running the trained network many times
//! with dropout still active ("MC dropout", Gal & Ghahramani 2016) yields a
//! distribution of predictions whose standard deviation `r̂(x)` feeds the
//! conformal score of Eq. (3).

use crate::Scratch;
use linalg::random::Prng;
use linalg::Matrix;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// Execution mode for a network pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout masks are sampled, caches are kept for backprop.
    Train,
    /// Deterministic inference: dropout is the identity.
    Eval,
    /// Monte-Carlo inference: dropout masks are sampled (like training)
    /// but no caches are kept. Used by [`crate::mc::mc_predict`].
    McDropout,
}

impl Mode {
    /// Whether dropout masks are sampled in this mode.
    #[inline]
    pub fn stochastic(self) -> bool {
        matches!(self, Mode::Train | Mode::McDropout)
    }
}

/// Inverted dropout: each unit is dropped with probability `p`, survivors
/// are scaled by `1/(1-p)` so activations keep their expectation.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f64,
    train: Scratch<Cache>,
}

/// The training mask and the forward/backward buffers, reused from step
/// to step.
#[derive(Debug, Default)]
struct Cache {
    /// Whether `mask` belongs to the latest forward pass (a
    /// [`Mode::Train`] pass at `p > 0`).
    masked: bool,
    /// `1/(1-p)` or `0.0` per element, row-major.
    mask: Vec<f64>,
    /// Output of the latest forward pass.
    out: Matrix,
    /// `dL/dx` of the latest backward pass.
    dx: Matrix,
}

impl ToJson for Dropout {
    fn to_json(&self) -> Value {
        Value::Num(self.p)
    }
}

impl FromJson for Dropout {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let p = v.as_f64()?;
        if (0.0..1.0).contains(&p) {
            Ok(Dropout::new(p))
        } else {
            Err(JsonError::msg(format!(
                "dropout probability must be in [0, 1), got {p}"
            )))
        }
    }
}

impl From<f64> for Dropout {
    fn from(p: f64) -> Self {
        Dropout::new(p)
    }
}

impl From<Dropout> for f64 {
    fn from(d: Dropout) -> Self {
        d.p
    }
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1), got {p}"
        );
        Dropout {
            p,
            train: Scratch::default(),
        }
    }

    /// The configured drop probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Forward pass into the layer's reusable output buffer. In
    /// stochastic modes a fresh mask is sampled (row-major, like
    /// [`Dropout::infer_inplace`]); in [`Mode::Eval`] the layer is the
    /// identity. Only [`Mode::Train`] keeps the mask for backprop.
    pub fn forward(&mut self, x: &Matrix, mode: Mode, rng: &mut Prng) -> &Matrix {
        let c = &mut *self.train;
        c.out.clone_from(x);
        c.masked = false;
        if !mode.stochastic() || self.p == 0.0 {
            return &c.out;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        c.mask.clear();
        for v in c.out.as_mut_slice() {
            let m = if rng.bernoulli(keep) { scale } else { 0.0 };
            c.mask.push(m);
            *v *= m;
        }
        c.masked = mode == Mode::Train;
        &c.out
    }

    /// Immutable inference pass: applies a freshly sampled mask to `x` in
    /// place (or leaves it untouched in [`Mode::Eval`] / at `p == 0`,
    /// consuming no RNG draws — the same draw-count contract as
    /// [`Dropout::forward`], so the two stay stream-compatible).
    ///
    /// Mask elements are sampled in row-major order and applied with the
    /// same multiplication as `forward`, so for an identical RNG state
    /// the result is bitwise identical. No training mask is retained.
    ///
    /// # Panics
    /// Panics in [`Mode::Train`]: training needs the cached mask, which
    /// an immutable pass cannot store.
    pub fn infer_inplace(&self, x: &mut Matrix, mode: Mode, rng: &mut Prng) {
        assert!(
            mode != Mode::Train,
            "Dropout::infer_inplace: Train mode requires forward"
        );
        if !mode.stochastic() || self.p == 0.0 {
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        for v in x.as_mut_slice() {
            let m = if rng.bernoulli(keep) { scale } else { 0.0 };
            *v *= m;
        }
    }

    /// Backward pass: re-applies the training mask to the gradient.
    ///
    /// # Panics
    /// Panics if the latest forward pass was not in [`Mode::Train`]
    /// (no mask is retained in other modes), or `grad_out` is not shaped
    /// like its input.
    pub fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        let c = &mut *self.train;
        c.dx.clone_from(grad_out);
        // With p == 0 the forward pass was the identity even in Train
        // mode, so the gradient passes through unchanged.
        if self.p == 0.0 {
            return &c.dx;
        }
        assert!(
            c.masked,
            "Dropout::backward: no training mask (was forward run in Train mode?)"
        );
        assert_eq!(
            grad_out.shape(),
            c.out.shape(),
            "Dropout::backward: gradient not shaped like the forward input"
        );
        for (g, &m) in c.dx.as_mut_slice().iter_mut().zip(&c.mask) {
            *g *= m;
        }
        &c.dx
    }

    /// Frees the mask and the forward/backward buffers.
    pub(crate) fn release_buffers(&mut self) {
        self.train = Scratch::default();
    }

    /// Output of the latest [`Dropout::forward`].
    pub(crate) fn output(&self) -> &Matrix {
        &self.train.out
    }

    /// `dL/dx` of the latest [`Dropout::backward`].
    pub(crate) fn input_grad(&self) -> &Matrix {
        &self.train.dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5);
        let mut rng = Prng::seed_from_u64(0);
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(*d.forward(&x, Mode::Eval, &mut rng), x);
    }

    #[test]
    fn zero_probability_is_identity_everywhere() {
        let mut d = Dropout::new(0.0);
        let mut rng = Prng::seed_from_u64(0);
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(*d.forward(&x, Mode::Train, &mut rng), x);
        assert_eq!(*d.backward(&x), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3);
        let mut rng = Prng::seed_from_u64(7);
        let x = Matrix::full(1, 10_000, 1.0);
        let y = d.forward(&x, Mode::Train, &mut rng);
        let mean: f64 = y.as_slice().iter().sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
        // Survivors are scaled by 1/(1-p).
        let survivors: Vec<f64> = y.as_slice().iter().cloned().filter(|&v| v != 0.0).collect();
        assert!(survivors.iter().all(|&v| (v - 1.0 / 0.7).abs() < 1e-12));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5);
        let mut rng = Prng::seed_from_u64(1);
        let x = Matrix::full(2, 8, 1.0);
        let y = d.forward(&x, Mode::Train, &mut rng).clone();
        let g = d.backward(&Matrix::full(2, 8, 1.0));
        // Gradient is zero exactly where the forward output is zero.
        for (a, b) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn mc_mode_randomizes_but_keeps_no_mask() {
        let mut d = Dropout::new(0.5);
        let mut rng = Prng::seed_from_u64(2);
        let x = Matrix::full(1, 64, 1.0);
        let a = d.forward(&x, Mode::McDropout, &mut rng).clone();
        let b = d.forward(&x, Mode::McDropout, &mut rng).clone();
        assert_ne!(a, b, "two MC passes should use different masks");
    }

    #[test]
    fn infer_inplace_matches_forward_bitwise() {
        let d = Dropout::new(0.4);
        let x = Matrix::from_rows(&[vec![1.0, -2.0, 3.0], vec![-4.0, 5.0, -6.0]]);
        let mut fwd_rng = Prng::seed_from_u64(17);
        let want = d.clone().forward(&x, Mode::McDropout, &mut fwd_rng).clone();
        let mut inf_rng = Prng::seed_from_u64(17);
        let mut got = x.clone();
        d.infer_inplace(&mut got, Mode::McDropout, &mut inf_rng);
        assert_eq!(got, want);
        // Both paths consumed the same number of draws.
        assert_eq!(fwd_rng.uniform(), inf_rng.uniform());
    }

    #[test]
    fn infer_inplace_eval_is_identity_without_draws() {
        let d = Dropout::new(0.5);
        let mut rng = Prng::seed_from_u64(4);
        let mut untouched = Prng::seed_from_u64(4);
        let mut x = Matrix::full(2, 3, 2.0);
        d.infer_inplace(&mut x, Mode::Eval, &mut rng);
        assert_eq!(x, Matrix::full(2, 3, 2.0));
        assert_eq!(rng.uniform(), untouched.uniform());
    }

    #[test]
    #[should_panic(expected = "no training mask")]
    fn backward_after_mc_panics() {
        let mut d = Dropout::new(0.5);
        let mut rng = Prng::seed_from_u64(3);
        let x = Matrix::full(1, 4, 1.0);
        let _ = d.forward(&x, Mode::McDropout, &mut rng);
        let _ = d.backward(&x);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn invalid_probability_panics() {
        Dropout::new(1.0);
    }
}
