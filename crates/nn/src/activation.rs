//! Activation functions with analytic derivatives.

/// Elementwise activation applied after a dense layer's affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Exponential linear unit with `alpha = 1`.
    Elu,
    /// `ln(1 + e^x)` — smooth, strictly positive.
    Softplus,
}

tinyjson::json_unit_enum!(Activation {
    Identity,
    Sigmoid,
    Relu,
    Tanh,
    Elu,
    Softplus
});

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => linalg::vector::sigmoid(x),
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Elu => {
                if x >= 0.0 {
                    x
                } else {
                    x.exp() - 1.0
                }
            }
            Activation::Softplus => linalg::vector::softplus(x),
        }
    }

    /// `f32` twin of [`Activation::apply`] for the block inference
    /// kernels. Identical in every dispatch mode (pure `f32` math, no
    /// SIMD divergence), but *not* bit-identical to applying the `f64`
    /// version and rounding — the per-layer drift is part of the block
    /// path's tolerance contract (DESIGN.md §11).
    #[inline]
    pub fn apply_f32(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => {
                if x >= 0.0 {
                    let e = (-x).exp();
                    1.0 / (1.0 + e)
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            }
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Elu => {
                if x >= 0.0 {
                    x
                } else {
                    x.exp() - 1.0
                }
            }
            Activation::Softplus => {
                if x > 30.0 {
                    x
                } else if x < -30.0 {
                    x.exp()
                } else {
                    x.exp().ln_1p()
                }
            }
        }
    }

    /// Applies the activation over one column slice of the block path.
    ///
    /// ELU routes to the vectorized kernel
    /// ([`linalg::block::elu_in_place`]) — a polynomial `expf` mirrored
    /// bitwise between dispatch modes, accurate to a few f32 ulp against
    /// [`Activation::apply_f32`]'s libm formulation. Every other
    /// activation applies [`Activation::apply_f32`] elementwise, which
    /// never consults `dispatch`; either way the result is bitwise
    /// identical across [`Dispatch`] modes.
    ///
    /// [`Dispatch`]: linalg::block::Dispatch
    pub fn apply_block_slice(self, xs: &mut [f32], dispatch: linalg::block::Dispatch) {
        match self {
            Activation::Identity => {}
            Activation::Elu => linalg::block::elu_in_place(xs, dispatch),
            other => {
                for v in xs {
                    *v = other.apply_f32(*v);
                }
            }
        }
    }

    /// `(f(x), f'(x))`, bitwise equal to `(self.apply(x),
    /// self.derivative(x))`. The training forward pass calls this once per
    /// unit and keeps `f'` for backprop, so ELU, sigmoid and tanh evaluate
    /// their libm call once instead of again in the backward pass.
    #[inline]
    pub fn apply_with_derivative(self, x: f64) -> (f64, f64) {
        match self {
            Activation::Sigmoid => {
                let s = linalg::vector::sigmoid(x);
                (s, s * (1.0 - s))
            }
            Activation::Tanh => {
                let t = x.tanh();
                (t, 1.0 - t * t)
            }
            Activation::Elu => {
                if x >= 0.0 {
                    (x, 1.0)
                } else {
                    let e = x.exp();
                    (e - 1.0, e)
                }
            }
            other => (other.apply(x), other.derivative(x)),
        }
    }

    /// Derivative `f'(x)` expressed in terms of the pre-activation `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => {
                let s = linalg::vector::sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Elu => {
                if x >= 0.0 {
                    1.0
                } else {
                    x.exp()
                }
            }
            Activation::Softplus => linalg::vector::sigmoid(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Sigmoid,
        Activation::Relu,
        Activation::Tanh,
        Activation::Elu,
        Activation::Softplus,
    ];

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in ALL {
            for &x in &[-2.0, -0.5, 0.3, 1.7, 4.0] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn apply_with_derivative_matches_the_separate_calls_bitwise() {
        for act in ALL {
            for &x in &[
                f64::NEG_INFINITY,
                -800.0,
                -2.0,
                -0.0,
                0.0,
                1e-300,
                0.3,
                40.0,
                f64::INFINITY,
                f64::NAN,
            ] {
                let (a, d) = act.apply_with_derivative(x);
                assert_eq!(a.to_bits(), act.apply(x).to_bits(), "{act:?} f({x})");
                assert_eq!(d.to_bits(), act.derivative(x).to_bits(), "{act:?} f'({x})");
            }
        }
    }

    #[test]
    fn fixed_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-15);
        assert!((Activation::Elu.apply(-30.0) + 1.0).abs() < 1e-10);
        assert!(Activation::Softplus.apply(-50.0) > 0.0);
    }

    #[test]
    fn f32_twin_tracks_f64_activation() {
        for act in ALL {
            for &x in &[-31.0f64, -4.0, -0.7, 0.0, 0.3, 1.7, 31.0] {
                let want = act.apply(x);
                let got = f64::from(act.apply_f32(x as f32));
                assert!(
                    (got - want).abs() < 1e-6 * want.abs().max(1.0),
                    "{act:?} at {x}: f32 {got} vs f64 {want}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_is_subgradient_zero_at_origin() {
        assert_eq!(Activation::Relu.derivative(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1e-9), 1.0);
    }
}
