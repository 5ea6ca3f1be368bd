//! SNet (Curth & van der Schaar, AISTATS 2021).
//!
//! SNet disentangles the representation into factors: information shared
//! by both potential outcomes, information specific to the control
//! outcome, and information specific to the treated outcome. We implement
//! the three-factor core (the full paper adds propensity-only factors,
//! which are vacuous under RCT data):
//!
//! ```text
//! Φ_s(x)  shared factor       →  feeds both heads
//! Φ_0(x)  control-only factor →  feeds h₀ only
//! Φ_1(x)  treated-only factor →  feeds h₁ only
//! h₀([Φ_s, Φ_0]),  h₁([Φ_s, Φ_1]),   τ̂ = h₁ − h₀
//! ```
//!
//! The concat wiring is not expressible with [`nn::MultiHeadNet`] (heads
//! see *different* slices), so this model owns its backprop plumbing:
//! head gradients are split at the concat boundary and routed to the
//! factor trunks, with the shared trunk receiving the sum.

use crate::error::{check_finite_params, check_xty, FitError};
use crate::nnutil::{masked_mse_grad, minibatches, standardize, NetConfig};
use crate::UpliftModel;
use linalg::random::Prng;
use linalg::stats::Standardizer;
use linalg::Matrix;
use nn::multihead::{clipped_step, Parameterized};
use nn::{Adam, Mlp, Mode, Workspace};

/// SNet uplift model with disentangled representations.
#[derive(Debug, Clone)]
pub struct SNet {
    config: NetConfig,
    state: Option<Fitted>,
}

tinyjson::json_struct!(SNet { config, state });

#[derive(Debug, Clone)]
struct Nets {
    phi_shared: Mlp,
    phi_control: Mlp,
    phi_treated: Mlp,
    h0: Mlp,
    h1: Mlp,
}

tinyjson::json_struct!(Nets {
    phi_shared,
    phi_control,
    phi_treated,
    h0,
    h1
});

impl Parameterized for Nets {
    fn visit_param_tensors(&mut self, f: &mut dyn FnMut(&mut [f64], &[f64])) {
        self.phi_shared.visit_params(|p, g| f(p, g));
        self.phi_control.visit_params(|p, g| f(p, g));
        self.phi_treated.visit_params(|p, g| f(p, g));
        self.h0.visit_params(|p, g| f(p, g));
        self.h1.visit_params(|p, g| f(p, g));
    }
}

#[derive(Debug, Clone)]
struct Fitted {
    scaler: Standardizer,
    nets: Nets,
}

tinyjson::json_struct!(Fitted { scaler, nets });

impl SNet {
    /// Creates an unfitted SNet. The shared factor gets `rep_dim` units
    /// and each private factor `rep_dim / 2`.
    pub fn new(config: NetConfig) -> Self {
        SNet {
            config,
            state: None,
        }
    }

    fn build(&self, input_dim: usize, rng: &mut Prng) -> Nets {
        let private = (self.config.rep_dim / 2).max(1);
        let factor = |units: usize, rng: &mut Prng| {
            Mlp::builder(input_dim)
                .dense(self.config.hidden, nn::Activation::Elu)
                .dropout(self.config.dropout)
                .dense(units, nn::Activation::Elu)
                .build(rng)
        };
        let phi_shared = factor(self.config.rep_dim, rng);
        let phi_control = factor(private, rng);
        let phi_treated = factor(private, rng);
        let h0 = self.config.build_head(self.config.rep_dim + private, rng);
        let h1 = self.config.build_head(self.config.rep_dim + private, rng);
        Nets {
            phi_shared,
            phi_control,
            phi_treated,
            h0,
            h1,
        }
    }
}

/// Splits a gradient over `[shared | private]` columns back into the two
/// factor gradients.
fn split_concat_grad(grad: &Matrix, shared_dim: usize) -> (Matrix, Matrix) {
    let n = grad.rows();
    let private_dim = grad.cols() - shared_dim;
    let mut gs = Matrix::zeros(n, shared_dim);
    let mut gp = Matrix::zeros(n, private_dim);
    for r in 0..n {
        let row = grad.row(r);
        gs.row_mut(r).copy_from_slice(&row[..shared_dim]);
        gp.row_mut(r).copy_from_slice(&row[shared_dim..]);
    }
    (gs, gp)
}

impl UpliftModel for SNet {
    fn name(&self) -> String {
        "SNet".to_string()
    }

    fn to_tagged_json(&self) -> Option<tinyjson::Value> {
        Some(tinyjson::Value::Obj(vec![(
            "SNet".to_string(),
            tinyjson::ToJson::to_json(self),
        )]))
    }

    fn fit(&mut self, x: &Matrix, t: &[u8], y: &[f64], rng: &mut Prng) -> Result<(), FitError> {
        check_xty("SNet::fit", x, t, y)?;
        let (scaler, z) = standardize(x);
        let mut nets = self.build(z.cols(), rng);
        let mut opt = Adam::new(self.config.lr);
        let shared_dim = self.config.rep_dim;
        for _ in 0..self.config.epochs {
            for batch in minibatches(z.rows(), self.config.batch_size, rng) {
                let xb = z.select_rows(&batch);
                nets.phi_shared.zero_grad();
                nets.phi_control.zero_grad();
                nets.phi_treated.zero_grad();
                nets.h0.zero_grad();
                nets.h1.zero_grad();

                let rep_s = nets.phi_shared.forward(&xb, Mode::Train, rng);
                let rep_c = nets.phi_control.forward(&xb, Mode::Train, rng);
                let rep_t = nets.phi_treated.forward(&xb, Mode::Train, rng);
                let in0 = rep_s.hstack(rep_c).expect("same batch");
                let in1 = rep_s.hstack(rep_t).expect("same batch");
                let out0 = nets.h0.forward(&in0, Mode::Train, rng).col(0);
                let out1 = nets.h1.forward(&in1, Mode::Train, rng).col(0);

                let (g0, _) = masked_mse_grad(&out0, &batch, t, y, 0);
                let (g1, _) = masked_mse_grad(&out1, &batch, t, y, 1);
                let gin0 = nets.h0.backward(&Matrix::column(&g0));
                let gin1 = nets.h1.backward(&Matrix::column(&g1));
                let (gs0, gc) = split_concat_grad(gin0, shared_dim);
                let (gs1, gt) = split_concat_grad(gin1, shared_dim);
                let gs = gs0.add(&gs1).expect("same shape");
                nets.phi_shared.backward_params(&gs);
                nets.phi_control.backward_params(&gc);
                nets.phi_treated.backward_params(&gt);
                clipped_step(
                    &mut nets,
                    &mut opt,
                    self.config.grad_clip,
                    self.config.weight_decay,
                );
            }
        }
        check_finite_params("SNet", &mut nets)?;
        self.state = Some(Fitted { scaler, nets });
        Ok(())
    }

    fn predict_uplift(&self, x: &Matrix) -> Vec<f64> {
        let state = self.state.as_ref().expect("SNet: fit before predict");
        let z = state.scaler.transform(x);
        let nets = &state.nets;
        let mut rng = Prng::seed_from_u64(0); // unused in Eval mode
        let mut ws_s = Workspace::new();
        let mut ws_c = Workspace::new();
        let mut ws_t = Workspace::new();
        let mut ws_h = Workspace::new();
        let rep_s = nets.phi_shared.infer(&z, Mode::Eval, &mut rng, &mut ws_s);
        let rep_c = nets.phi_control.infer(&z, Mode::Eval, &mut rng, &mut ws_c);
        let rep_t = nets.phi_treated.infer(&z, Mode::Eval, &mut rng, &mut ws_t);
        let in0 = rep_s.hstack(rep_c).expect("same batch");
        let in1 = rep_s.hstack(rep_t).expect("same batch");
        let out0 = nets.h0.infer(&in0, Mode::Eval, &mut rng, &mut ws_h).col(0);
        let out1 = nets.h1.infer(&in1, Mode::Eval, &mut rng, &mut ws_h).col(0);
        out1.iter().zip(&out0).map(|(a, b)| a - b).collect()
    }

    fn predict_uplift_block(&self, x: &Matrix) -> Vec<f64> {
        use linalg::block::{active_dispatch, FeatureBlock};
        use nn::BlockWorkspace;
        let state = self.state.as_ref().expect("SNet: fit before predict");
        // Standardization stays in f64; factors, concat, and heads all
        // run in the columnar f32 layout.
        let z = FeatureBlock::from_matrix(&state.scaler.transform(x));
        let nets = &state.nets;
        let dispatch = active_dispatch();
        let mut ws_s = BlockWorkspace::new();
        let mut ws_c = BlockWorkspace::new();
        let mut ws_t = BlockWorkspace::new();
        let mut ws_h = BlockWorkspace::new();
        let rep_s = nets.phi_shared.infer_block(&z, &mut ws_s, dispatch);
        let rep_c = nets.phi_control.infer_block(&z, &mut ws_c, dispatch);
        let rep_t = nets.phi_treated.infer_block(&z, &mut ws_t, dispatch);
        let in0 = rep_s.hstack(rep_c);
        let in1 = rep_s.hstack(rep_t);
        let out0 = nets.h0.infer_block(&in0, &mut ws_h, dispatch).col_f64(0);
        let out1 = nets.h1.infer_block(&in1, &mut ws_h, dispatch).col_f64(0);
        out1.iter().zip(&out0).map(|(a, b)| a - b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::rct;

    #[test]
    fn split_concat_grad_partitions_columns() {
        let g = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0, 5.0]]);
        let (s, p) = split_concat_grad(&g, 3);
        assert_eq!(s.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(p.row(0), &[4.0, 5.0]);
    }

    #[test]
    fn recovers_heterogeneous_effect() {
        let (x, t, y, taus) = rct(3000, 30);
        let mut m = SNet::new(NetConfig {
            epochs: 60,
            ..NetConfig::default()
        });
        let mut rng = Prng::seed_from_u64(31);
        m.fit(&x, &t, &y, &mut rng).unwrap();
        let preds = m.predict_uplift(&x);
        let corr = linalg::stats::pearson(&preds, &taus);
        assert!(corr > 0.55, "corr {corr}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, t, y, _) = rct(300, 32);
        let run = |seed| {
            let mut m = SNet::new(NetConfig {
                epochs: 4,
                ..NetConfig::default()
            });
            let mut rng = Prng::seed_from_u64(seed);
            m.fit(&x, &t, &y, &mut rng).unwrap();
            m.predict_uplift(&x)
        };
        assert_eq!(run(33), run(33));
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        let m = SNet::new(NetConfig::default());
        let _ = m.predict_uplift(&Matrix::zeros(1, 2));
    }
}
