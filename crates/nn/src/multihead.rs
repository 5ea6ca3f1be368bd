//! Shared-trunk multi-head networks.
//!
//! The representation-learning uplift baselines (TARNet, DragonNet,
//! OffsetNet, SNet) all share a feature extractor ("trunk") whose output
//! feeds several task heads — e.g. TARNet has a control-outcome head and a
//! treated-outcome head. This module provides the generic machinery; the
//! model-specific head wiring and losses live in the `uplift` crate.

use crate::mlp::{Mlp, Workspace};
use crate::optimizer::Optimizer;
use crate::Mode;
use linalg::random::Prng;
use linalg::Matrix;

/// Anything with optimizer-visible parameters.
pub trait Parameterized {
    /// Visits `(params, grads)` for every parameter tensor in a stable order.
    fn visit_param_tensors(&mut self, f: &mut dyn FnMut(&mut [f64], &[f64]));
}

impl Parameterized for Mlp {
    fn visit_param_tensors(&mut self, f: &mut dyn FnMut(&mut [f64], &[f64])) {
        self.visit_params(|p, g| f(p, g));
    }
}

/// One optimizer step over a [`Parameterized`] model with global-norm
/// gradient clipping (`grad_clip <= 0` disables) and L2 weight decay.
pub fn clipped_step(
    model: &mut dyn Parameterized,
    opt: &mut dyn Optimizer,
    grad_clip: f64,
    weight_decay: f64,
) {
    let mut clip_scale = 1.0;
    if grad_clip > 0.0 {
        let mut sq = 0.0;
        model.visit_param_tensors(&mut |_p, g| {
            sq += g.iter().map(|v| v * v).sum::<f64>();
        });
        let norm = sq.sqrt();
        if norm > grad_clip {
            clip_scale = grad_clip / norm;
        }
    }
    let mut id = 0usize;
    // One buffer for every tensor's adjusted gradient.
    let mut adjusted = Vec::new();
    model.visit_param_tensors(&mut |p, g| {
        if clip_scale != 1.0 || weight_decay > 0.0 {
            adjusted.clear();
            adjusted.extend(
                p.iter()
                    .zip(g)
                    .map(|(&pi, &gi)| gi * clip_scale + weight_decay * pi),
            );
            opt.update(id, p, &adjusted);
        } else {
            opt.update(id, p, g);
        }
        id += 1;
    });
    opt.end_step();
}

/// A shared trunk feeding several independent heads.
#[derive(Debug, Clone)]
pub struct MultiHeadNet {
    trunk: Mlp,
    heads: Vec<Mlp>,
}

tinyjson::json_struct!(MultiHeadNet { trunk, heads } check MultiHeadNet::check_heads);

impl MultiHeadNet {
    /// Assembles a multi-head network.
    ///
    /// # Panics
    /// Panics if any head's input dimension differs from the trunk's
    /// output dimension, or there are no heads.
    pub fn new(trunk: Mlp, heads: Vec<Mlp>) -> Self {
        let net = MultiHeadNet { trunk, heads };
        if let Err(e) = net.check_heads() {
            panic!("{e}");
        }
        net
    }

    /// What [`MultiHeadNet::new`] asserts and decoding checks: at least
    /// one head, each taking the trunk's output width.
    fn check_heads(&self) -> Result<(), String> {
        if self.heads.is_empty() {
            return Err("MultiHeadNet needs at least one head".to_string());
        }
        let width = self.trunk.output_dim();
        match self.heads.iter().position(|h| h.input_dim() != width) {
            Some(i) => Err(format!(
                "head {i} expects {} inputs but trunk emits {width}",
                self.heads[i].input_dim()
            )),
            None => Ok(()),
        }
    }

    /// Number of heads.
    pub fn head_count(&self) -> usize {
        self.heads.len()
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.trunk.input_dim()
    }

    /// Each head's output dimension, in head order.
    pub fn head_output_dims(&self) -> Vec<usize> {
        self.heads.iter().map(Mlp::output_dim).collect()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.trunk.param_count() + self.heads.iter().map(Mlp::param_count).sum::<usize>()
    }

    /// Forward pass: returns each head's output batch.
    pub fn forward(&mut self, x: &Matrix, mode: Mode, rng: &mut Prng) -> Vec<&Matrix> {
        let rep = self.trunk.forward(x, mode, rng);
        self.heads
            .iter_mut()
            .map(|h| h.forward(rep, mode, rng))
            .collect()
    }

    /// Convenience: eval-mode inference returning each head's first output
    /// column. Runs the trunk once through an immutable [`Mlp::infer`]
    /// pass and feeds the shared representation to every head, reusing
    /// one head-side scratch workspace — no layer caches are touched.
    pub fn predict_scalars(&self, x: &Matrix) -> Vec<Vec<f64>> {
        let mut rng = Prng::seed_from_u64(0);
        let mut ws_trunk = Workspace::new();
        let mut ws_head = Workspace::new();
        let rep = self.trunk.infer(x, Mode::Eval, &mut rng, &mut ws_trunk);
        self.heads
            .iter()
            .map(|h| h.infer(rep, Mode::Eval, &mut rng, &mut ws_head).col(0))
            .collect()
    }

    /// Block-path twin of [`MultiHeadNet::predict_scalars`]: trunk and
    /// heads run through the columnar `f32` kernels
    /// ([`Mlp::infer_block`]) under the process-wide dispatch. The trunk
    /// representation stays in `f32` block layout end to end — no
    /// row-major round-trip between trunk and heads.
    pub fn predict_scalars_block(&self, x: &Matrix) -> Vec<Vec<f64>> {
        let dispatch = linalg::block::active_dispatch();
        let block = linalg::block::FeatureBlock::from_matrix(x);
        let mut ws_trunk = crate::mlp::BlockWorkspace::new();
        let mut ws_head = crate::mlp::BlockWorkspace::new();
        let rep = self.trunk.infer_block(&block, &mut ws_trunk, dispatch);
        self.heads
            .iter()
            .map(|h| h.infer_block(rep, &mut ws_head, dispatch).col_f64(0))
            .collect()
    }

    /// Backward pass. `head_grads[i]` is `dL/d(head_i output)` for the
    /// latest [`Mode::Train`] forward batch; heads that do not participate
    /// in the loss for this batch should receive a zero matrix.
    ///
    /// # Panics
    /// Panics if the number of gradient matrices differs from the number
    /// of heads.
    #[allow(clippy::expect_used)] // shape invariants upheld by construction
    pub fn backward(&mut self, head_grads: &[Matrix]) {
        assert_eq!(
            head_grads.len(),
            self.heads.len(),
            "backward: expected {} head gradients, got {}",
            self.heads.len(),
            head_grads.len()
        );
        let mut trunk_grad: Option<Matrix> = None;
        for (head, g) in self.heads.iter_mut().zip(head_grads) {
            let gi = head.backward(g);
            trunk_grad = Some(match trunk_grad {
                None => gi.clone(),
                Some(acc) => acc.add(gi).expect("heads share the trunk output shape"),
            });
        }
        self.trunk
            .backward_params(&trunk_grad.expect("at least one head by construction"));
    }

    /// Frees the trunk's and every head's training buffers.
    pub(crate) fn release_training_buffers(&mut self) {
        self.trunk.release_training_buffers();
        for h in &mut self.heads {
            h.release_training_buffers();
        }
    }

    /// Clears accumulated gradients everywhere.
    pub fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        for h in &mut self.heads {
            h.zero_grad();
        }
    }
}

impl Parameterized for MultiHeadNet {
    fn visit_param_tensors(&mut self, f: &mut dyn FnMut(&mut [f64], &[f64])) {
        self.trunk.visit_params(|p, g| f(p, g));
        for h in &mut self.heads {
            h.visit_params(|p, g| f(p, g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::optimizer::Adam;
    use tinyjson::{FromJson, ToJson, Value};

    fn two_head(seed: u64) -> MultiHeadNet {
        let mut rng = Prng::seed_from_u64(seed);
        let trunk = Mlp::builder(3).dense(6, Activation::Tanh).build(&mut rng);
        let h0 = Mlp::builder(6)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let h1 = Mlp::builder(6)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        MultiHeadNet::new(trunk, vec![h0, h1])
    }

    #[test]
    fn shapes() {
        let net = two_head(0);
        assert_eq!(net.head_count(), 2);
        assert_eq!(net.input_dim(), 3);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, -1.0, 0.5]]);
        let outs = net.predict_scalars(&x);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].len(), 2);
    }

    #[test]
    fn decode_repeats_the_checks_new_asserts() {
        let json = two_head(6).to_json();
        assert!(MultiHeadNet::from_json(&json).is_ok());
        let with_heads = |heads: Vec<Value>| {
            let Value::Obj(mut fields) = json.clone() else {
                panic!("a MultiHeadNet serializes to an object")
            };
            for (k, v) in &mut fields {
                if k == "heads" {
                    *v = Value::Arr(heads.clone());
                }
            }
            MultiHeadNet::from_json(&Value::Obj(fields))
                .unwrap_err()
                .to_string()
        };
        let none = with_heads(vec![]);
        assert!(none.contains("at least one head"), "{none}");
        let mut rng = Prng::seed_from_u64(7);
        let narrow = Mlp::builder(5)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let mismatched = with_heads(vec![narrow.to_json()]);
        assert!(
            mismatched.contains("head 0 expects 5 inputs but trunk emits 6"),
            "{mismatched}"
        );
    }

    #[test]
    #[should_panic(expected = "head 0 expects")]
    fn mismatched_head_input_panics() {
        let mut rng = Prng::seed_from_u64(1);
        let trunk = Mlp::builder(3).dense(6, Activation::Tanh).build(&mut rng);
        let bad = Mlp::builder(5)
            .dense(1, Activation::Identity)
            .build(&mut rng);
        let _ = MultiHeadNet::new(trunk, vec![bad]);
    }

    /// Two heads fit two different linear targets of the same features.
    #[test]
    fn trains_both_heads_jointly() {
        let mut rng = Prng::seed_from_u64(2);
        let rows: Vec<Vec<f64>> = (0..256)
            .map(|_| vec![rng.gaussian(), rng.gaussian(), rng.gaussian()])
            .collect();
        let x = Matrix::from_rows(&rows);
        let y0: Vec<f64> = rows.iter().map(|r| r[0] + 0.5 * r[1]).collect();
        let y1: Vec<f64> = rows.iter().map(|r| -r[2] + 0.2).collect();

        let mut net = two_head(3);
        let mut opt = Adam::new(0.01);
        let n = x.rows() as f64;
        let mut final_loss = f64::INFINITY;
        for _ in 0..400 {
            net.zero_grad();
            let outs = net.forward(&x, Mode::Train, &mut rng);
            let p0 = outs[0].col(0);
            let p1 = outs[1].col(0);
            let mut loss = 0.0;
            let g0: Vec<f64> = p0
                .iter()
                .zip(&y0)
                .map(|(&p, &y)| {
                    loss += (p - y) * (p - y);
                    2.0 * (p - y) / n
                })
                .collect();
            let g1: Vec<f64> = p1
                .iter()
                .zip(&y1)
                .map(|(&p, &y)| {
                    loss += (p - y) * (p - y);
                    2.0 * (p - y) / n
                })
                .collect();
            final_loss = loss / n;
            net.backward(&[Matrix::column(&g0), Matrix::column(&g1)]);
            clipped_step(&mut net, &mut opt, 5.0, 0.0);
        }
        assert!(final_loss < 0.02, "final loss {final_loss}");
    }

    #[test]
    fn gradient_check_through_trunk() {
        let mut net = two_head(4);
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 1.1]]);
        // L = head0(x) + 2 * head1(x).
        let mut rng = Prng::seed_from_u64(5);
        net.zero_grad();
        let _ = net.forward(&x, Mode::Train, &mut rng);
        net.backward(&[Matrix::full(1, 1, 1.0), Matrix::full(1, 1, 2.0)]);
        // Perturb a trunk weight and compare.
        let eps = 1e-6;
        let mut analytic = None;
        net.trunk.visit_params(|_p, g| {
            if analytic.is_none() {
                analytic = Some(g[0]);
            }
        });
        let objective = |net: &MultiHeadNet| {
            let outs = net.predict_scalars(&x);
            outs[0][0] + 2.0 * outs[1][0]
        };
        let mut plus = net.clone();
        let mut first = true;
        plus.trunk.visit_params(|p, _| {
            if first {
                p[0] += eps;
                first = false;
            }
        });
        let mut minus = net.clone();
        let mut first = true;
        minus.trunk.visit_params(|p, _| {
            if first {
                p[0] -= eps;
                first = false;
            }
        });
        let numeric = (objective(&plus) - objective(&minus)) / (2.0 * eps);
        let analytic = analytic.unwrap();
        assert!(
            (numeric - analytic).abs() < 1e-5,
            "numeric {numeric} vs analytic {analytic}"
        );
    }
}
