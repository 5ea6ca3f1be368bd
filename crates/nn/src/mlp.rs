//! Sequential multilayer perceptron.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::dropout::{Dropout, Mode};
use crate::init::Init;
use linalg::block::{Dispatch, FeatureBlock, PackedGemm};
use linalg::random::Prng;
use linalg::Matrix;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// One layer of an [`Mlp`].
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected layer.
    Dense(Dense),
    /// Dropout layer.
    Dropout(Dropout),
}

impl ToJson for Layer {
    fn to_json(&self) -> Value {
        let (tag, inner) = match self {
            Layer::Dense(d) => ("Dense", d.to_json()),
            Layer::Dropout(d) => ("Dropout", d.to_json()),
        };
        Value::Obj(vec![(tag.to_string(), inner)])
    }
}

impl Layer {
    fn output(&self) -> &Matrix {
        match self {
            Layer::Dense(d) => d.output(),
            Layer::Dropout(d) => d.output(),
        }
    }

    fn input_grad(&self) -> &Matrix {
        match self {
            Layer::Dense(d) => d.input_grad(),
            Layer::Dropout(d) => d.input_grad(),
        }
    }
}

impl FromJson for Layer {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_obj()? {
            [(tag, inner)] if tag == "Dense" => Ok(Layer::Dense(Dense::from_json(inner)?)),
            [(tag, inner)] if tag == "Dropout" => Ok(Layer::Dropout(Dropout::from_json(inner)?)),
            _ => Err(JsonError::msg(
                "Layer: expected {\"Dense\": ...} or {\"Dropout\": ...}",
            )),
        }
    }
}

/// Reusable scratch buffers for the allocation-free inference path.
///
/// [`Mlp::infer`] ping-pongs layer activations between two internal
/// matrices, growing them on first use and reusing the allocations on
/// every later call. Keep one workspace per thread (they are cheap when
/// empty) and pass it to every inference call on that thread.
#[derive(Debug)]
pub struct Workspace {
    bufs: [Matrix; 2],
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace {
            bufs: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

/// Scratch for the columnar `f32` inference fast path
/// ([`Mlp::infer_block`]): two ping-pong [`FeatureBlock`]s whose
/// allocations are reused across calls, mirroring [`Workspace`] for the
/// scalar path.
#[derive(Debug)]
pub struct BlockWorkspace {
    bufs: [FeatureBlock; 2],
}

impl BlockWorkspace {
    /// Creates an empty workspace; blocks grow on first use.
    pub fn new() -> Self {
        BlockWorkspace {
            bufs: [FeatureBlock::zeros(0, 0), FeatureBlock::zeros(0, 0)],
        }
    }
}

impl Default for BlockWorkspace {
    fn default() -> Self {
        BlockWorkspace::new()
    }
}

/// A sequential stack of dense and dropout layers.
///
/// This is the shape of every network in the paper: DRP is
/// `Dense(d, h, elu) -> Dropout(p) -> Dense(h, 1, identity)` with the final
/// sigmoid folded into the DRP loss (the loss consumes the raw score `ŝ`).
///
/// Training state (backprop caches, gradients) lives inside the layers
/// and is only touched by [`Mlp::forward`]/[`Mlp::backward`]. Scoring
/// goes through the immutable [`Mlp::infer`] path, which writes into a
/// caller-provided [`Workspace`] instead — so a trained network is shared
/// freely across threads with zero clones.
#[derive(Debug, Clone)]
pub struct Mlp {
    input_dim: usize,
    layers: Vec<Layer>,
}

tinyjson::json_struct!(Mlp { input_dim, layers } check Mlp::check_shapes);

/// Builder for [`Mlp`].
pub struct MlpBuilder {
    input_dim: usize,
    plan: Vec<PlanItem>,
}

enum PlanItem {
    Dense {
        units: usize,
        activation: Activation,
    },
    Dropout(f64),
}

impl MlpBuilder {
    /// Adds a dense layer with Xavier-uniform initialization.
    pub fn dense(mut self, units: usize, activation: Activation) -> Self {
        self.plan.push(PlanItem::Dense { units, activation });
        self
    }

    /// Adds a dropout layer with drop probability `p`.
    pub fn dropout(mut self, p: f64) -> Self {
        self.plan.push(PlanItem::Dropout(p));
        self
    }

    /// Materializes the network, sampling initial weights from `rng`.
    ///
    /// # Panics
    /// Panics if the plan contains no dense layer.
    pub fn build(self, rng: &mut Prng) -> Mlp {
        let mut layers = Vec::with_capacity(self.plan.len());
        let mut current_dim = self.input_dim;
        let mut has_dense = false;
        for item in self.plan {
            match item {
                PlanItem::Dense { units, activation } => {
                    layers.push(Layer::Dense(Dense::new(
                        current_dim,
                        units,
                        activation,
                        Init::XavierUniform,
                        rng,
                    )));
                    current_dim = units;
                    has_dense = true;
                }
                PlanItem::Dropout(p) => layers.push(Layer::Dropout(Dropout::new(p))),
            }
        }
        assert!(has_dense, "an Mlp needs at least one dense layer");
        Mlp {
            input_dim: self.input_dim,
            layers,
        }
    }
}

impl Mlp {
    /// Starts building a network that consumes `input_dim` features.
    pub fn builder(input_dim: usize) -> MlpBuilder {
        MlpBuilder {
            input_dim,
            plan: Vec::new(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension (fan-out of the last dense layer).
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn output_dim(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| match l {
                Layer::Dense(d) => Some(d.fan_out()),
                Layer::Dropout(_) => None,
            })
            .expect("built Mlp always has a dense layer")
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => d.param_count(),
                Layer::Dropout(_) => 0,
            })
            .sum()
    }

    /// Forward pass on a batch (rows are samples). Returns the output
    /// batch, which lives in the last layer's reusable buffer.
    ///
    /// In [`Mode::Train`] every layer caches what backprop needs; in the
    /// other modes no caches are kept.
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn forward(&mut self, x: &Matrix, mode: Mode, rng: &mut Prng) -> &Matrix {
        assert_eq!(
            x.cols(),
            self.input_dim,
            "Mlp::forward: expected {} features, got {}",
            self.input_dim,
            x.cols()
        );
        for i in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            let input = done.last().map_or(x, Layer::output);
            match &mut rest[0] {
                Layer::Dense(d) => {
                    d.forward(input, mode == Mode::Train);
                }
                Layer::Dropout(d) => {
                    d.forward(input, mode, rng);
                }
            }
        }
        self.layers
            .last()
            .map(Layer::output)
            .expect("built Mlp always has a dense layer")
    }

    /// Immutable inference pass on a batch, writing every intermediate
    /// activation into `ws` instead of allocating or mutating layer
    /// caches. Returns a reference to the output batch inside `ws`.
    ///
    /// Performs the same floating-point operations in the same order as
    /// [`Mlp::forward`] and consumes RNG draws identically, so for equal
    /// inputs and RNG state the result is bitwise identical.
    ///
    /// # Panics
    /// Panics in [`Mode::Train`] (training must cache activations — use
    /// `forward`) or when `x` has the wrong number of features.
    pub fn infer<'ws>(
        &self,
        x: &Matrix,
        mode: Mode,
        rng: &mut Prng,
        ws: &'ws mut Workspace,
    ) -> &'ws Matrix {
        assert!(
            mode != Mode::Train,
            "Mlp::infer: Train mode requires forward"
        );
        assert_eq!(
            x.cols(),
            self.input_dim,
            "Mlp::forward: expected {} features, got {}",
            self.input_dim,
            x.cols()
        );
        let (left, right) = ws.bufs.split_at_mut(1);
        let mut cur: &mut Matrix = &mut left[0];
        let mut nxt: &mut Matrix = &mut right[0];
        // `cur` holds the running activations once the first dense layer
        // has written them; before that the input batch is read directly.
        let mut started = false;
        for layer in &self.layers {
            match layer {
                Layer::Dense(d) => {
                    let input: &Matrix = if started { cur } else { x };
                    d.infer_into(input, nxt);
                    std::mem::swap(&mut cur, &mut nxt);
                    started = true;
                }
                Layer::Dropout(d) => {
                    if !started {
                        cur.clone_from(x);
                        started = true;
                    }
                    d.infer_inplace(cur, mode, rng);
                }
            }
        }
        assert!(started, "built Mlp always has a dense layer");
        cur
    }

    /// Convenience: immutable [`Mode::Eval`] inference returning the first
    /// output column as a vector (all networks in this reproduction that
    /// feed scalar losses have a single output unit).
    ///
    /// Large batches are scored in parallel row chunks — each worker runs
    /// the same per-row arithmetic on its slice of rows, so the result is
    /// bitwise identical to the serial pass (Eval mode consumes no RNG).
    ///
    /// Latency + batch-size accounting through `obs`: histogram
    /// `infer.predict_ns` gets the wall-clock duration, histogram
    /// `infer.predict_rows` the batch size, counter `infer.predict_calls`
    /// bumps once. Free (one branch) under [`Obs::disabled`].
    ///
    /// [`Obs::disabled`]: obs::Obs::disabled
    pub fn predict_scalar(&self, x: &Matrix, obs: &obs::Obs) -> Vec<f64> {
        let mut ws = Workspace::new();
        self.predict_scalar_with(x, &mut ws, obs)
    }

    /// [`Mlp::predict_scalar`] writing serial-path activations into a
    /// caller-owned [`Workspace`] — the allocation-free variant long-lived
    /// scorers (the serving engine's worker threads) call in a loop.
    ///
    /// Batches large enough to cross the parallel threshold still fan out
    /// into per-worker scratch workspaces; `ws` only backs the serial path.
    pub fn predict_scalar_with(&self, x: &Matrix, ws: &mut Workspace, obs: &obs::Obs) -> Vec<f64> {
        obs.counter("infer.predict_calls", 1.0);
        obs.observe("infer.predict_rows", x.rows() as f64);
        obs.time("infer.predict_ns", || {
            // Below this many rows, thread spawn overhead beats the win.
            const PAR_MIN_ROWS: usize = 256;
            let n = x.rows();
            let workers = par::workers_for(n);
            if n < PAR_MIN_ROWS || workers <= 1 {
                let mut rng = Prng::seed_from_u64(0); // unused in Eval mode
                return self.infer(x, Mode::Eval, &mut rng, ws).col(0);
            }
            let mut out = vec![0.0; n];
            let chunk_rows = n.div_ceil(workers);
            par::par_chunks_mut(&mut out, chunk_rows, |start, chunk| {
                let rows: Vec<usize> = (start..start + chunk.len()).collect();
                let sub = x.select_rows(&rows);
                let mut ws = Workspace::new();
                let mut rng = Prng::seed_from_u64(0); // unused in Eval mode
                let y = self.infer(&sub, Mode::Eval, &mut rng, &mut ws);
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = y.get(i, 0);
                }
            });
            out
        })
    }

    /// Columnar `f32` inference fast path: the network applied to a
    /// [`FeatureBlock`] through the cache-blocked GEMM micro-kernels,
    /// ping-ponging activations between the workspace's two blocks.
    ///
    /// Semantics are [`Mode::Eval`] only: dropout layers are identity at
    /// evaluation time and are skipped outright (no RNG is consumed).
    /// Each dense layer packs its weights into [`NR`]-column panels
    /// (`O(k·n)`, amortized over the `O(rows·k·n)` GEMM), folds its bias
    /// into the accumulator initialization, and applies its activation
    /// via [`Activation::apply_block_slice`] (vectorized ELU, elementwise
    /// [`Activation::apply_f32`] otherwise).
    ///
    /// Results are **bitwise identical across [`Dispatch`] modes** (the
    /// scalar kernel mirrors the SIMD FMA order) but only approximately
    /// equal to the `f64` [`Mlp::infer`] reference — the tolerance
    /// contract lives in DESIGN.md §11.
    ///
    /// [`NR`]: linalg::block::NR
    ///
    /// # Panics
    /// Panics when `x` has the wrong number of features.
    pub fn infer_block<'ws>(
        &self,
        x: &FeatureBlock,
        ws: &'ws mut BlockWorkspace,
        dispatch: Dispatch,
    ) -> &'ws FeatureBlock {
        assert_eq!(
            x.cols(),
            self.input_dim,
            "Mlp::infer_block: expected {} features, got {}",
            self.input_dim,
            x.cols()
        );
        let (left, right) = ws.bufs.split_at_mut(1);
        let mut cur: &mut FeatureBlock = &mut left[0];
        let mut nxt: &mut FeatureBlock = &mut right[0];
        let mut started = false;
        for layer in &self.layers {
            // Dropout is identity in Eval mode — skipped on this path.
            if let Layer::Dense(d) = layer {
                let input: &FeatureBlock = if started { cur } else { x };
                let packed = PackedGemm::pack(d.weights(), d.biases());
                packed.apply_into(input, nxt, dispatch);
                let act = d.activation();
                if act != Activation::Identity {
                    for c in 0..nxt.cols() {
                        act.apply_block_slice(nxt.col_mut(c), dispatch);
                    }
                }
                std::mem::swap(&mut cur, &mut nxt);
                started = true;
            }
        }
        assert!(started, "built Mlp always has a dense layer");
        cur
    }

    /// Block-path twin of [`Mlp::predict_scalar`]: scores a batch through
    /// [`Mlp::infer_block`] under the process-wide
    /// [`linalg::block::active_dispatch`] and returns the first output
    /// column. Instrumented separately (`infer.block_calls`,
    /// `infer.block_rows`, `infer.block_ns`) so the serving engine's
    /// metrics distinguish the two paths.
    pub fn predict_scalar_block(&self, x: &Matrix, obs: &obs::Obs) -> Vec<f64> {
        obs.counter("infer.block_calls", 1.0);
        obs.observe("infer.block_rows", x.rows() as f64);
        obs.time("infer.block_ns", || {
            let block = FeatureBlock::from_matrix(x);
            let mut ws = BlockWorkspace::new();
            let out = self.infer_block(&block, &mut ws, linalg::block::active_dispatch());
            out.col_f64(0)
        })
    }

    /// Backward pass through the whole stack. `grad_out` is `dL/d(output)`
    /// for the latest [`Mode::Train`] forward batch. Returns `dL/d(input)`.
    pub fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backprop(grad_out, true);
        self.layers[0].input_grad()
    }

    /// [`Mlp::backward`] for a network whose input gradient nothing
    /// reads — the network [`crate::train`] fits, a shared trunk, SNet's
    /// factor nets. Only the parameter gradients are accumulated: the
    /// first dense layer skips its `dL/dx`, and the dropout layers before
    /// it do not run.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        self.backprop(grad_out, false);
    }

    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    fn backprop(&mut self, grad_out: &Matrix, input_grad: bool) {
        let first = if input_grad {
            0
        } else {
            self.layers
                .iter()
                .position(|l| matches!(l, Layer::Dense(_)))
                .expect("built Mlp always has a dense layer")
        };
        for i in (first..self.layers.len()).rev() {
            let (layer, after) = self.layers[i..]
                .split_first_mut()
                .expect("i is a layer index");
            let g = after.first().map_or(grad_out, Layer::input_grad);
            match layer {
                Layer::Dense(d) => d.backward(g, input_grad || i > first),
                Layer::Dropout(d) => {
                    d.backward(g);
                }
            }
        }
    }

    /// Frees every layer's training buffers, so a fitted network holds
    /// only its parameters and gradients.
    pub(crate) fn release_training_buffers(&mut self) {
        for layer in &mut self.layers {
            match layer {
                Layer::Dense(d) => d.release_buffers(),
                Layer::Dropout(d) => d.release_buffers(),
            }
        }
    }

    /// Clears accumulated gradients in every dense layer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            if let Layer::Dense(d) = layer {
                d.zero_grad();
            }
        }
    }

    /// Visits `(params, grads)` slices of every dense layer in a stable
    /// order (used by optimizers).
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        for layer in &mut self.layers {
            if let Layer::Dense(d) = layer {
                d.visit_params(&mut f);
            }
        }
    }

    /// The shape invariants every inference and training path indexes
    /// by: at least one dense layer, and each dense layer's fan-in equal
    /// to the width that reaches it (`input_dim` for the first). Checked
    /// when a network is decoded; [`MlpBuilder::build`] holds them by
    /// construction.
    fn check_shapes(&self) -> Result<(), String> {
        let mut width = self.input_dim;
        let mut has_dense = false;
        for (i, layer) in self.layers.iter().enumerate() {
            if let Layer::Dense(d) = layer {
                if d.fan_in() != width {
                    return Err(format!(
                        "layer {i} takes {} inputs but receives {width}",
                        d.fan_in()
                    ));
                }
                width = d.fan_out();
                has_dense = true;
            }
        }
        if has_dense {
            Ok(())
        } else {
            Err("an Mlp needs at least one dense layer".to_string())
        }
    }

    /// Read-only access to the layer stack (diagnostics and tests).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Returns a copy of the network with every dropout layer's rate set
    /// to `p`. Used for MC-dropout inference at a rate different from the
    /// training rate (the rDRP paper *adds* a dropout layer at inference,
    /// so the MC rate is a free parameter).
    pub fn with_dropout_rate(&self, p: f64) -> Mlp {
        let mut out = self.clone();
        for layer in &mut out.layers {
            if let Layer::Dropout(d) = layer {
                *d = Dropout::new(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(rng_seed: u64) -> Mlp {
        let mut rng = Prng::seed_from_u64(rng_seed);
        Mlp::builder(2)
            .dense(4, Activation::Tanh)
            .dropout(0.2)
            .dense(1, Activation::Identity)
            .build(&mut rng)
    }

    #[test]
    fn shapes_and_param_count() {
        let m = tiny(0);
        assert_eq!(m.input_dim(), 2);
        assert_eq!(m.output_dim(), 1);
        assert_eq!(m.param_count(), (2 * 4 + 4) + (4 + 1));
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let m = tiny(1);
        let x = Matrix::from_rows(&[vec![0.5, -0.3], vec![1.0, 2.0]]);
        let a = m.predict_scalar(&x, &obs::Obs::disabled());
        let b = m.predict_scalar(&x, &obs::Obs::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut m = tiny(4);
        let x = Matrix::from_rows(&[vec![0.5, -0.3], vec![1.0, 2.0], vec![-1.5, 0.25]]);
        let mut ws = Workspace::new();
        for mode in [Mode::Eval, Mode::McDropout] {
            let mut fwd_rng = Prng::seed_from_u64(123);
            let want = m.forward(&x, mode, &mut fwd_rng).clone();
            let mut inf_rng = Prng::seed_from_u64(123);
            let got = m.infer(&x, mode, &mut inf_rng, &mut ws);
            assert_eq!(*got, want, "{mode:?}");
            assert_eq!(fwd_rng.uniform(), inf_rng.uniform(), "{mode:?} draw counts");
        }
    }

    #[test]
    fn workspace_reuse_does_not_leak_state_between_calls() {
        let m = tiny(5);
        let mut ws = Workspace::new();
        let mut rng = Prng::seed_from_u64(0);
        let a = Matrix::from_rows(&[vec![0.1, 0.2], vec![3.0, -4.0]]);
        let b = Matrix::from_rows(&[vec![9.0, -9.0]]);
        let first = m.infer(&a, Mode::Eval, &mut rng, &mut ws).clone();
        let _ = m.infer(&b, Mode::Eval, &mut rng, &mut ws);
        let again = m.infer(&a, Mode::Eval, &mut rng, &mut ws);
        assert_eq!(*again, first);
    }

    #[test]
    fn parallel_row_chunked_prediction_is_bitwise_serial() {
        // Large enough to cross the parallel threshold.
        let mut rng = Prng::seed_from_u64(21);
        let m = Mlp::builder(6)
            .dense(16, Activation::Elu)
            .dropout(0.1)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let n = 1537; // odd size: uneven final chunk
        let x = Matrix::from_vec(n, 6, rng.gaussian_vec(n * 6));
        let parallel = m.predict_scalar(&x, &obs::Obs::disabled());
        let mut ws = Workspace::new();
        let mut eval_rng = Prng::seed_from_u64(0);
        let serial = m.infer(&x, Mode::Eval, &mut eval_rng, &mut ws).col(0);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn block_path_tracks_scalar_reference() {
        let mut rng = Prng::seed_from_u64(11);
        let m = Mlp::builder(6)
            .dense(32, Activation::Elu)
            .dropout(0.1)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let n = 333; // not a multiple of the MR=16 tile
        let x = Matrix::from_vec(n, 6, rng.gaussian_vec(n * 6));
        let want = m.predict_scalar(&x, &obs::Obs::disabled());
        let got = m.predict_scalar_block(&x, &obs::Obs::disabled());
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() < 1e-4 * w.abs().max(1.0),
                "block {g} vs scalar {w}"
            );
        }
    }

    #[test]
    fn block_path_is_dispatch_invariant_bitwise() {
        let mut rng = Prng::seed_from_u64(12);
        let m = Mlp::builder(5)
            .dense(24, Activation::Tanh)
            .dense(3, Activation::Softplus)
            .build(&mut rng);
        let x = Matrix::from_vec(77, 5, rng.gaussian_vec(77 * 5));
        let block = linalg::block::FeatureBlock::from_matrix(&x);
        let mut ws_a = BlockWorkspace::new();
        let mut ws_b = BlockWorkspace::new();
        let scalar = m.infer_block(&block, &mut ws_a, Dispatch::Scalar);
        let best = m.infer_block(&block, &mut ws_b, linalg::block::best_dispatch());
        for c in 0..3 {
            for r in 0..77 {
                assert_eq!(
                    scalar.get(r, c).to_bits(),
                    best.get(r, c).to_bits(),
                    "[{r},{c}] differs between dispatch modes"
                );
            }
        }
    }

    #[test]
    fn train_forward_differs_across_calls_with_dropout() {
        let mut m = tiny(2);
        let mut rng = Prng::seed_from_u64(99);
        let x = Matrix::full(8, 2, 1.0);
        let a = m.forward(&x, Mode::Train, &mut rng).clone();
        let b = m.forward(&x, Mode::Train, &mut rng).clone();
        assert_ne!(a, b);
    }

    #[test]
    fn full_network_gradient_check() {
        // Build without dropout so the function is deterministic.
        let mut rng = Prng::seed_from_u64(5);
        let mut m = Mlp::builder(3)
            .dense(5, Activation::Tanh)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let x = Matrix::from_rows(&[vec![0.2, -0.4, 1.0], vec![1.3, 0.7, -0.9]]);
        // L = sum of outputs.
        let mut r = Prng::seed_from_u64(0);
        m.zero_grad();
        let _ = m.forward(&x, Mode::Train, &mut r);
        let grad_x = m.backward(&Matrix::full(2, 1, 1.0)).clone();

        let eps = 1e-6;
        let mut xp = x.clone();
        xp.set(1, 2, x.get(1, 2) + eps);
        let mut xm = x.clone();
        xm.set(1, 2, x.get(1, 2) - eps);
        let fp: f64 = m.predict_scalar(&xp, &obs::Obs::disabled()).iter().sum();
        let fm: f64 = m.predict_scalar(&xm, &obs::Obs::disabled()).iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!(
            (numeric - grad_x.get(1, 2)).abs() < 1e-5,
            "numeric {numeric} vs analytic {}",
            grad_x.get(1, 2)
        );
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn wrong_input_width_panics() {
        let mut m = tiny(3);
        let mut rng = Prng::seed_from_u64(0);
        let x = Matrix::zeros(1, 5);
        let _ = m.forward(&x, Mode::Eval, &mut rng);
    }

    #[test]
    fn decode_checks_the_layer_shapes() {
        let mut rng = Prng::seed_from_u64(8);
        let good = Mlp::builder(3)
            .dense(4, Activation::Elu)
            .dropout(0.1)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let json = good.to_json();
        assert!(Mlp::from_json(&json).is_ok());
        let edit = |key: &str, value: Value| {
            let Value::Obj(mut fields) = json.clone() else {
                panic!("an Mlp serializes to an object")
            };
            for (k, v) in &mut fields {
                if k == key {
                    *v = value.clone();
                }
            }
            Mlp::from_json(&Value::Obj(fields)).unwrap_err().to_string()
        };
        let wrong_input = edit("input_dim", 5usize.to_json());
        assert!(
            wrong_input.contains("layer 0 takes 3 inputs but receives 5"),
            "{wrong_input}"
        );
        let layers = json.fetch("layers").as_arr().unwrap();
        let skips_a_layer = edit(
            "layers",
            Value::Arr(vec![layers[0].clone(), layers[0].clone()]),
        );
        assert!(
            skips_a_layer.contains("layer 1 takes 3 inputs but receives 4"),
            "{skips_a_layer}"
        );
        let dropout_only = edit("layers", Value::Arr(vec![layers[1].clone()]));
        assert!(
            dropout_only.contains("at least one dense layer"),
            "{dropout_only}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one dense layer")]
    fn empty_plan_panics() {
        let mut rng = Prng::seed_from_u64(0);
        let _ = Mlp::builder(2).dropout(0.1).build(&mut rng);
    }
}
