//! Fully connected layer with manual backpropagation.

use crate::activation::Activation;
use crate::init::Init;
use linalg::random::Prng;
use linalg::Matrix;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// A dense (fully connected) layer `y = f(x W + b)`.
///
/// The layer caches its forward inputs and pre-activations so a subsequent
/// [`Dense::backward`] call can compute parameter and input gradients.
/// Gradients are *accumulated* into `grad_w`/`grad_b` and cleared by
/// [`Dense::zero_grad`], which lets multi-head networks sum gradient
/// contributions from several heads before an optimizer step.
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
    // Forward caches (input batch and pre-activation batch).
    cache_x: Option<Matrix>,
    cache_z: Option<Matrix>,
}

/// Serialized form of a [`Dense`] layer: weights, biases, activation —
/// gradients and forward caches are transient training state.
struct DenseSpec {
    w: Matrix,
    b: Vec<f64>,
    activation: Activation,
}

tinyjson::json_struct!(DenseSpec { w, b, activation });

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
            cache_x: None,
            cache_z: None,
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
    /// Creates a dense layer with the given fan-in/out, activation, and
    /// weight initialization. Biases start at zero.
    pub fn new(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        init: Init,
        rng: &mut Prng,
    ) -> Self {
        Dense {
            w: init.weights(fan_in, fan_out, rng),
            b: vec![0.0; fan_out],
            activation,
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            cache_x: None,
            cache_z: None,
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

    /// Forward pass on a batch (rows are samples).
    ///
    /// When `cache` is true the inputs and pre-activations are retained
    /// for [`Dense::backward`]; inference passes should use `cache = false`
    /// to avoid the allocation.
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn forward(&mut self, x: &Matrix, cache: bool) -> Matrix {
        let z = x
            .matmul(&self.w)
            .expect("Dense::forward: input width must equal fan_in")
            .add_row_vector(&self.b)
            .expect("bias length matches fan_out by construction");
        let a = z.map(|v| self.activation.apply(v));
        if cache {
            self.cache_x = Some(x.clone());
            self.cache_z = Some(z);
        }
        a
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

    /// Backward pass: given `dL/dy` for the batch of the latest cached
    /// forward call, accumulates `dL/dW`, `dL/db` and returns `dL/dx`.
    ///
    /// # Panics
    /// Panics if no cached forward pass is available.
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            .expect("Dense::backward: call forward(cache=true) first");
        let z = self.cache_z.as_ref().expect("cache_z set with cache_x");
        assert_eq!(
            grad_out.shape(),
            (x.rows(), self.w.cols()),
            "Dense::backward: gradient shape mismatch"
        );
        // delta = grad_out ⊙ f'(z)
        let fprime = z.map(|v| self.activation.derivative(v));
        let delta = grad_out
            .hadamard(&fprime)
            .expect("shapes equal by construction");
        // dW += x^T delta ; db += column sums of delta
        let gw = x
            .transpose()
            .matmul(&delta)
            .expect("x^T (d x n) times delta (n x m)");
        self.grad_w = self
            .grad_w
            .add(&gw)
            .expect("accumulator has fixed weight shape");
        for (acc, v) in self.grad_b.iter_mut().zip(delta.col_sums()) {
            *acc += v;
        }
        // dX = delta W^T
        delta
            .matmul(&self.w.transpose())
            .expect("delta (n x m) times W^T (m x d)")
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w = Matrix::zeros(self.w.rows(), self.w.cols());
        self.grad_b.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Visits `(params, grads)` for the weight matrix and bias vector.
    /// Used by optimizers; the visitation order is stable.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        // Safety note: we need simultaneous access to params and grads of
        // the same struct; split via raw parts is avoided by cloning the
        // (small) gradient buffers.
        let gw = self.grad_w.as_slice().to_vec();
        f(self.w.as_mut_slice(), &gw);
        let gb = self.grad_b.clone();
        f(&mut self.b, &gb);
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
        Dense::new(fan_in, fan_out, act, Init::XavierUniform, &mut rng)
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
        let mut l = Dense::new(2, 1, Activation::Identity, Init::XavierUniform, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]);
        let y = l.forward(&x, false);
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
            let grad_x = l.backward(&ones);

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
        let want = l.forward(&x, false);
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
        let _ = l.backward(&g);
        let once = l.grad_w.clone();
        let _ = l.forward(&x, true);
        let _ = l.backward(&g);
        let twice = l.grad_w.clone();
        assert_eq!(twice, once.scale(2.0));
        l.zero_grad();
        assert!(l.grad_w.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "forward(cache=true)")]
    fn backward_without_forward_panics() {
        let mut l = layer(2, 1, Activation::Identity);
        l.backward(&Matrix::zeros(1, 1));
    }

    #[test]
    fn param_count() {
        let l = layer(5, 3, Activation::Relu);
        assert_eq!(l.param_count(), 5 * 3 + 3);
    }
}
