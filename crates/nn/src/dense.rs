//! Fully connected layer with manual backpropagation.

use crate::activation::Activation;
use crate::Scratch;
use linalg::random::Prng;
use linalg::Matrix;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// A dense (fully connected) layer `y = f(x W + b)`.
///
/// A caching forward pass keeps its input batch and `f'(x W + b)` so a
/// subsequent [`Dense::backward`] call can compute parameter and input
/// gradients. Gradients are *accumulated* into `grad_w`/`grad_b` and
/// cleared by [`Dense::zero_grad`], which lets multi-head networks sum
/// gradient contributions from several heads before an optimizer step.
/// The forward and backward buffers are reused from step to step, and
/// freed when [`crate::train`] returns.
///
/// Inference never touches the caches: [`Dense::infer_into`] is `&self`
/// and writes into a caller-provided buffer, so a trained layer can be
/// shared across threads without cloning.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `fan_in x fan_out`.
    w: Matrix,
    /// Bias vector, length `fan_out`.
    b: Vec<f64>,
    activation: Activation,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    train: Scratch<Cache>,
}

/// What a training step keeps from forward to backward, and the backward
/// pass's buffers.
#[derive(Debug, Default)]
struct Cache {
    /// Whether `x` and `fprime` belong to the latest forward pass.
    cached: bool,
    /// Input batch of the latest caching forward pass.
    x: Matrix,
    /// `f'(z)` of the latest caching forward pass, laid out like `out`.
    fprime: Vec<f64>,
    /// Output of the latest forward pass.
    out: Matrix,
    /// `δ = dL/dy ⊙ f'(z)`.
    delta: Vec<f64>,
    /// `xᵀδ`, summed from zero before it is added to `grad_w`.
    gw: Vec<f64>,
    /// Column sums of `δ`, summed from zero before they are added to
    /// `grad_b`.
    gb: Vec<f64>,
    /// `dL/dx` of the latest backward pass that computed it.
    dx: Matrix,
}

/// Serialized form of a [`Dense`] layer: weights, biases, activation —
/// gradients and forward caches are transient training state.
struct DenseSpec {
    w: Matrix,
    b: Vec<f64>,
    activation: Activation,
}

tinyjson::json_struct!(DenseSpec { w, b, activation } check |d: &DenseSpec| {
    if d.b.len() != d.w.cols() {
        Err(format!("{} biases for {} units", d.b.len(), d.w.cols()))
    } else if !d.w.is_finite() || d.b.iter().any(|v| !v.is_finite()) {
        Err("non-finite weight or bias".to_string())
    } else {
        Ok(())
    }
});

impl ToJson for Dense {
    fn to_json(&self) -> Value {
        DenseSpec {
            w: self.w.clone(),
            b: self.b.clone(),
            activation: self.activation,
        }
        .to_json()
    }
}

impl FromJson for Dense {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(DenseSpec::from_json(v)?.into())
    }
}

impl From<DenseSpec> for Dense {
    fn from(spec: DenseSpec) -> Self {
        let grad_w = Matrix::zeros(spec.w.rows(), spec.w.cols());
        let grad_b = vec![0.0; spec.b.len()];
        Dense {
            w: spec.w,
            b: spec.b,
            activation: spec.activation,
            grad_w,
            grad_b,
            train: Scratch::default(),
        }
    }
}

impl From<Dense> for DenseSpec {
    fn from(d: Dense) -> Self {
        DenseSpec {
            w: d.w,
            b: d.b,
            activation: d.activation,
        }
    }
}

impl Dense {
    /// Creates a dense layer with the given fan-in/out and activation.
    /// Weights are drawn Xavier-uniform from `rng`; biases start at zero.
    pub fn new(fan_in: usize, fan_out: usize, activation: Activation, rng: &mut Prng) -> Self {
        Dense {
            w: crate::init::xavier_uniform(fan_in, fan_out, rng),
            b: vec![0.0; fan_out],
            activation,
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            train: Scratch::default(),
        }
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass on a batch (rows are samples), written into the
    /// layer's reusable output buffer.
    ///
    /// When `cache` is true the input batch and `f'(z)` are retained for
    /// [`Dense::backward`]; `f'` comes out of the same call that applies
    /// the activation, so ELU's derivative reuses the forward `exp(z)`.
    /// Performs the floating-point operations of [`Dense::infer_into`] in
    /// the same order, so the output is bitwise identical.
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn forward(&mut self, x: &Matrix, cache: bool) -> &Matrix {
        let c = &mut *self.train;
        x.matmul_into(&self.w, &mut c.out)
            .expect("Dense::forward: input width must equal fan_in");
        c.out
            .add_row_vector_mut(&self.b)
            .expect("bias length matches fan_out by construction");
        let act = self.activation;
        c.cached = cache;
        if cache {
            c.x.clone_from(x);
            c.fprime.clear();
            c.fprime.extend(c.out.as_mut_slice().iter_mut().map(|v| {
                let (a, d) = act.apply_with_derivative(*v);
                *v = a;
                d
            }));
        } else {
            c.out.map_mut(|v| act.apply(v));
        }
        &c.out
    }

    /// Immutable inference pass: computes `f(x W + b)` into `out`,
    /// reusing `out`'s allocation. Performs the same floating-point
    /// operations in the same order as [`Dense::forward`], so results are
    /// bitwise identical; unlike `forward` it never writes caches, which
    /// makes it safe to call concurrently from many threads.
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out)
            .expect("Dense::infer_into: input width must equal fan_in");
        out.add_row_vector_mut(&self.b)
            .expect("bias length matches fan_out by construction");
        out.map_mut(|v| self.activation.apply(v));
    }

    /// Backward pass: given `dL/dy` for the batch of the latest caching
    /// forward call, accumulates `dL/dW` and `dL/db` and, when
    /// `input_grad` is set, computes `dL/dx` for [`Dense::input_grad`].
    /// A network's first layer passes `false` where nothing reads it.
    ///
    /// Every gradient element is summed in the order the textbook
    /// products `xᵀ·δ` and `δ·Wᵀ` take in [`Matrix::matmul`] — from zero,
    /// over the shared index in order, skipping zero left-hand factors —
    /// but without building either transpose.
    ///
    /// # Panics
    /// Panics if the latest forward pass did not cache, or `grad_out` is
    /// not shaped like its output.
    pub fn backward(&mut self, grad_out: &Matrix, input_grad: bool) {
        let c = &mut *self.train;
        assert!(c.cached, "Dense::backward: call forward(cache=true) first");
        let (fan_in, fan_out) = self.w.shape();
        assert_eq!(
            grad_out.shape(),
            (c.x.rows(), fan_out),
            "Dense::backward: gradient shape mismatch"
        );
        // Chunk widths; a zero-width side has no elements to visit.
        let (k_w, m_w) = (fan_in.max(1), fan_out.max(1));
        c.delta.clear();
        c.delta.extend(
            grad_out
                .as_slice()
                .iter()
                .zip(&c.fprime)
                .map(|(&g, &d)| g * d),
        );
        // ΔW = xᵀδ: gw[k][j] sums x[i][k]·δ[i][j] over rows i.
        c.gw.clear();
        c.gw.resize(fan_in * fan_out, 0.0);
        if fan_out == 1 {
            for (x_row, &d) in c.x.as_slice().chunks_exact(k_w).zip(&c.delta) {
                for (g, &a) in c.gw.iter_mut().zip(x_row) {
                    // Adding +0.0 is the skip: a sum that starts at +0.0
                    // never becomes -0.0.
                    *g += if a == 0.0 { 0.0 } else { a * d };
                }
            }
        } else {
            for (x_row, d_row) in
                c.x.as_slice()
                    .chunks_exact(k_w)
                    .zip(c.delta.chunks_exact(m_w))
            {
                for (g_row, &a) in c.gw.chunks_exact_mut(m_w).zip(x_row) {
                    if a == 0.0 {
                        continue;
                    }
                    for (g, &d) in g_row.iter_mut().zip(d_row) {
                        *g += a * d;
                    }
                }
            }
        }
        for (acc, &g) in self.grad_w.as_mut_slice().iter_mut().zip(&c.gw) {
            *acc += g;
        }
        c.gb.clear();
        c.gb.resize(fan_out, 0.0);
        for d_row in c.delta.chunks_exact(m_w) {
            for (s, &d) in c.gb.iter_mut().zip(d_row) {
                *s += d;
            }
        }
        for (acc, &s) in self.grad_b.iter_mut().zip(&c.gb) {
            *acc += s;
        }
        if input_grad {
            // dX = δWᵀ: dx[i][k] sums δ[i][j]·w[k][j] over units j.
            c.dx.set_zeros(c.x.rows(), fan_in);
            let w = self.w.as_slice();
            for (dx_row, d_row) in
                c.dx.as_mut_slice()
                    .chunks_exact_mut(k_w)
                    .zip(c.delta.chunks_exact(m_w))
            {
                for (j, &a) in d_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &w_kj) in dx_row.iter_mut().zip(w[j..].iter().step_by(fan_out)) {
                        *o += a * w_kj;
                    }
                }
            }
        }
    }

    /// Frees the training buffers; the next caching forward pass
    /// allocates them again.
    pub(crate) fn release_buffers(&mut self) {
        self.train = Scratch::default();
    }

    /// `dL/dx` from the latest [`Dense::backward`] that computed it.
    pub fn input_grad(&self) -> &Matrix {
        &self.train.dx
    }

    /// Output of the latest [`Dense::forward`].
    pub(crate) fn output(&self) -> &Matrix {
        &self.train.out
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Visits `(params, grads)` for the weight matrix and bias vector.
    /// Used by optimizers; the visitation order is stable.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        f(self.w.as_mut_slice(), self.grad_w.as_slice());
        f(&mut self.b, &self.grad_b);
    }

    /// Read-only view of the weights (for tests and diagnostics).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read-only view of the biases.
    pub fn biases(&self) -> &[f64] {
        &self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(fan_in: usize, fan_out: usize, act: Activation) -> Dense {
        let mut rng = Prng::seed_from_u64(11);
        Dense::new(fan_in, fan_out, act, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut l = layer(3, 2, Activation::Identity);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, -1.0, 0.5]]);
        let y = l.forward(&x, false);
        assert_eq!(y.shape(), (2, 2));
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut rng = Prng::seed_from_u64(3);
        let mut l = Dense::new(2, 1, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]);
        let y = l.forward(&x, false).clone();
        let w = l.weights();
        // Row 2 is the bias alone; rows 0/1 add one weight each.
        assert!((y.get(2, 0) - l.biases()[0]).abs() < 1e-12);
        assert!((y.get(0, 0) - (w.get(0, 0) + l.biases()[0])).abs() < 1e-12);
        assert!((y.get(1, 0) - (w.get(1, 0) + l.biases()[0])).abs() < 1e-12);
    }

    /// Gradient check against central finite differences, for each
    /// activation that is differentiable everywhere we probe.
    #[test]
    fn backward_matches_finite_differences() {
        for act in [
            Activation::Identity,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Elu,
            Activation::Softplus,
        ] {
            let mut l = layer(4, 3, act);
            let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0, 0.1], vec![1.5, 0.3, -0.7, -0.2]]);
            // Scalar objective: L = sum(y). So dL/dy = ones.
            let ones = Matrix::full(2, 3, 1.0);
            l.zero_grad();
            let _ = l.forward(&x, true);
            l.backward(&ones, true);
            let grad_x = l.input_grad().clone();

            let eps = 1e-6;
            // Check a few weight gradients.
            for &(r, c) in &[(0usize, 0usize), (2, 1), (3, 2)] {
                let mut lp = l.clone();
                let mut lm = l.clone();
                lp.w.set(r, c, l.w.get(r, c) + eps);
                lm.w.set(r, c, l.w.get(r, c) - eps);
                let fp: f64 = lp.forward(&x, false).as_slice().iter().sum();
                let fm: f64 = lm.forward(&x, false).as_slice().iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = l.grad_w.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{act:?} dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // Check an input gradient.
            let mut xp = x.clone();
            xp.set(0, 1, x.get(0, 1) + eps);
            let mut xm = x.clone();
            xm.set(0, 1, x.get(0, 1) - eps);
            let fp: f64 = l.clone().forward(&xp, false).as_slice().iter().sum();
            let fm: f64 = l.clone().forward(&xm, false).as_slice().iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grad_x.get(0, 1)).abs() < 1e-4, "{act:?} dX[0,1]");
        }
    }

    #[test]
    fn infer_into_matches_forward_bitwise() {
        let mut l = layer(4, 3, Activation::Elu);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0, 0.1], vec![1.5, 0.3, -0.7, -0.2]]);
        let want = l.forward(&x, false).clone();
        let mut out = Matrix::full(1, 1, f64::NAN); // stale scratch
        l.infer_into(&x, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer(2, 1, Activation::Identity);
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let g = Matrix::full(1, 1, 1.0);
        l.zero_grad();
        let _ = l.forward(&x, true);
        l.backward(&g, false);
        let once = l.grad_w.clone();
        let _ = l.forward(&x, true);
        l.backward(&g, false);
        let twice = l.grad_w.clone();
        assert_eq!(twice, once.scale(2.0));
        l.zero_grad();
        assert!(l.grad_w.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "forward(cache=true)")]
    fn backward_without_forward_panics() {
        let mut l = layer(2, 1, Activation::Identity);
        l.backward(&Matrix::zeros(1, 1), true);
    }

    #[test]
    #[should_panic(expected = "forward(cache=true)")]
    fn backward_after_an_uncached_forward_panics() {
        let mut l = layer(2, 1, Activation::Identity);
        let x = Matrix::zeros(1, 2);
        let _ = l.forward(&x, true);
        let _ = l.forward(&x, false);
        l.backward(&Matrix::zeros(1, 1), true);
    }

    #[test]
    fn decode_rejects_a_bias_that_does_not_fit_the_weights() {
        let l = layer(3, 2, Activation::Elu);
        let good = l.to_json();
        assert!(Dense::from_json(&good).is_ok());
        let Value::Obj(mut fields) = good else {
            panic!("a layer serializes to an object")
        };
        for (k, v) in &mut fields {
            if k == "b" {
                *v = vec![0.0].to_json();
            }
        }
        let err = Dense::from_json(&Value::Obj(fields)).unwrap_err();
        assert!(err.to_string().contains("1 biases for 2 units"), "{err}");
    }

    #[test]
    fn param_count() {
        let l = layer(5, 3, Activation::Relu);
        assert_eq!(l.param_count(), 5 * 3 + 3);
    }
}
