//! Monte-Carlo dropout inference.
//!
//! Section IV-C2 of the paper: running the trained DRP network `K` times
//! with dropout active yields `K` point estimates per sample; their mean is
//! an (optionally smoothed) point prediction and their standard deviation
//! is the uncertainty scalar `r̂(x)` that the conformal score (Eq. 3)
//! normalizes by. Section IV-D notes the passes are embarrassingly
//! parallel — we parallelize over passes with scoped worker threads.
//!
//! The layers before the first dropout draw no random numbers, so they
//! are the same in every pass. When the rest of the network is exactly
//! `[Dropout, Dense(→1)]` — DRP and Direct Rank — a sweep evaluates that
//! prefix once and runs each pass row by row, fusing the dropout draw
//! with the final dot product. Any other layer list runs the whole
//! [`Mlp::infer`] per pass, each worker reusing one scratch
//! [`Workspace`]. Both paths produce bitwise the same statistics: masks
//! are drawn in the same row-major order from the same per-pass RNGs, a
//! zero masked activation is skipped as [`Matrix::matmul_into`] skips
//! it, and passes are aggregated in pass order.

use crate::dense::Dense;
use crate::dropout::Dropout;
use crate::mlp::{Layer, Mlp, Workspace};
use crate::Mode;
use linalg::random::Prng;
use linalg::Matrix;

/// Per-sample mean and standard deviation across MC-dropout passes.
#[derive(Debug, Clone)]
pub struct McStats {
    /// Mean prediction per sample.
    pub mean: Vec<f64>,
    /// Population standard deviation per sample.
    pub std: Vec<f64>,
    /// Number of passes used.
    pub passes: usize,
}

/// Runs `passes` stochastic forward passes of `net` on `x` and returns the
/// per-sample mean and standard deviation of the scalar output.
///
/// Passes run in parallel against the shared `&Mlp` — no per-pass network
/// clone. The per-pass RNGs are forked from `rng` up front, so results
/// are deterministic given the seed *and* independent of thread
/// scheduling. A network ending in `[Dropout, Dense(→1)]` computes the
/// layers before the dropout once per call (see the module docs).
///
/// A zero standard deviation can occur (e.g. a ReLU network that drops the
/// same dead units every pass); callers that divide by the std — the
/// conformal score — should apply their own floor. `std_floor` here only
/// guards the returned values against exact zeros.
///
/// # Panics
/// Panics if `passes == 0` or the network output is not scalar.
pub fn mc_predict(
    net: &Mlp,
    x: &Matrix,
    passes: usize,
    std_floor: f64,
    rng: &mut Prng,
    obs: &obs::Obs,
) -> McStats {
    mc_predict_map(net, x, passes, std_floor, rng, |v| v, obs)
}

/// Like [`mc_predict`] but applies `transform` to each pass's raw outputs
/// before aggregating. DRP uses this with the sigmoid: the paper's `r̂(x)`
/// is the standard deviation of the *ROI* point estimate `σ(ŝ)`, not of
/// the raw score `ŝ`.
///
/// Latency + batch accounting through `obs`: histogram `infer.mc_ns`
/// gets the wall-clock duration of the whole MC sweep, histogram
/// `infer.mc_rows` the batch size, counter `infer.mc_passes` the number
/// of stochastic passes. Free (one branch) under [`Obs::disabled`];
/// recording happens outside the worker threads so the parallel schedule
/// is untouched.
///
/// [`Obs::disabled`]: obs::Obs::disabled
pub fn mc_predict_map(
    net: &Mlp,
    x: &Matrix,
    passes: usize,
    std_floor: f64,
    rng: &mut Prng,
    transform: impl Fn(f64) -> f64 + Sync,
    obs: &obs::Obs,
) -> McStats {
    obs.counter("infer.mc_passes", passes as f64);
    obs.observe("infer.mc_rows", x.rows() as f64);
    obs.time("infer.mc_ns", || {
        mc_predict_map_inner(net, x, passes, std_floor, rng, transform)
    })
}

fn mc_predict_map_inner(
    net: &Mlp,
    x: &Matrix,
    passes: usize,
    std_floor: f64,
    rng: &mut Prng,
    transform: impl Fn(f64) -> f64 + Sync,
) -> McStats {
    assert!(passes > 0, "mc_predict: need at least one pass");
    assert_eq!(net.output_dim(), 1, "mc_predict: scalar output expected");
    let n = x.rows();
    // Fork one RNG per pass up front (deterministic order).
    let pass_rngs: Vec<Prng> = (0..passes).map(|_| rng.fork()).collect();

    let outputs: Vec<Vec<f64>> = match dropout_head(net) {
        Some((prefix, dropout, head)) => {
            let mut bufs = [Matrix::default(), Matrix::default()];
            let h = eval_prefix(prefix, x, &mut bufs);
            par::par_map(pass_rngs, |mut pass_rng| {
                fused_pass(h, dropout, head, &mut pass_rng, &transform)
            })
        }
        None => par::par_map_init(pass_rngs, Workspace::new, |ws, mut pass_rng| {
            let mut out = net.infer(x, Mode::McDropout, &mut pass_rng, ws).col(0);
            for v in &mut out {
                *v = transform(*v);
            }
            out
        }),
    };

    let mut mean = vec![0.0; n];
    for pass in &outputs {
        for (m, &v) in mean.iter_mut().zip(pass) {
            *m += v;
        }
    }
    let inv = 1.0 / passes as f64;
    for m in &mut mean {
        *m *= inv;
    }
    let mut var = vec![0.0; n];
    for pass in &outputs {
        for ((s, &v), &m) in var.iter_mut().zip(pass).zip(&mean) {
            *s += (v - m) * (v - m);
        }
    }
    let std = var
        .into_iter()
        .map(|v| (v * inv).sqrt().max(std_floor))
        .collect();
    McStats { mean, std, passes }
}

/// Splits `net` into the dense layers before its first dropout and the
/// `[Dropout, Dense(→1)]` tail after them, when the layer list has that
/// shape.
fn dropout_head(net: &Mlp) -> Option<(&[Layer], &Dropout, &Dense)> {
    let layers = net.layers();
    let first_dropout = layers.iter().position(|l| matches!(l, Layer::Dropout(_)))?;
    match &layers[first_dropout..] {
        [Layer::Dropout(dropout), Layer::Dense(head)] if head.fan_out() == 1 => {
            Some((&layers[..first_dropout], dropout, head))
        }
        _ => None,
    }
}

/// Runs the random-free `prefix` (dense layers only) on `x` in
/// [`Mode::Eval`], ping-ponging through `bufs` like [`Mlp::infer`];
/// returns `x` itself when the prefix is empty.
fn eval_prefix<'a>(prefix: &[Layer], x: &'a Matrix, bufs: &'a mut [Matrix; 2]) -> &'a Matrix {
    let mut started = false;
    for layer in prefix {
        if let Layer::Dense(d) = layer {
            let [cur, nxt] = &mut *bufs;
            d.infer_into(if started { cur } else { x }, nxt);
            std::mem::swap(cur, nxt);
            started = true;
        }
    }
    if started {
        &bufs[0]
    } else {
        x
    }
}

/// One MC pass through a `[Dropout, Dense(→1)]` tail over the prefix
/// output `h`. Per row it draws the mask elements in the order
/// [`Dropout::infer_inplace`] draws them and forms `a = h·m`; it adds
/// `a·w` in index order as [`Matrix::matmul_into`] does, skipping
/// `a == 0`, then adds the bias and applies the activation and
/// `transform`. At `p == 0` it neither draws nor multiplies, like
/// [`Dropout::infer_inplace`].
fn fused_pass(
    h: &Matrix,
    dropout: &Dropout,
    head: &Dense,
    rng: &mut Prng,
    transform: &impl Fn(f64) -> f64,
) -> Vec<f64> {
    let w = head.weights().as_slice();
    let b = head.biases()[0];
    let act = head.activation();
    let p = dropout.p();
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    (0..h.rows())
        .map(|i| {
            let mut acc = 0.0;
            for (&v, &w_k) in h.row(i).iter().zip(w) {
                let a = if p == 0.0 {
                    v
                } else {
                    v * if rng.bernoulli(keep) { scale } else { 0.0 }
                };
                // Adding +0.0 is the skip: the sum starts at +0.0 and
                // never becomes -0.0.
                acc += if a == 0.0 { 0.0 } else { a * w_k };
            }
            transform(act.apply(acc + b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::Mlp;

    fn net_with_dropout(seed: u64, p: f64) -> Mlp {
        let mut rng = Prng::seed_from_u64(seed);
        Mlp::builder(3)
            .dense(16, Activation::Tanh)
            .dropout(p)
            .dense(1, Activation::Identity)
            .build(&mut rng)
    }

    #[test]
    fn no_dropout_means_zero_std() {
        let net = net_with_dropout(0, 0.0);
        let x = Matrix::from_rows(&[vec![1.0, -1.0, 0.5]]);
        let mut rng = Prng::seed_from_u64(1);
        let stats = mc_predict(&net, &x, 20, 0.0, &mut rng, &obs::Obs::disabled());
        // All passes are identical; only accumulation rounding remains.
        assert!(stats.std[0] < 1e-12, "std = {}", stats.std[0]);
        // The MC mean equals the deterministic prediction.
        let det = net.predict_scalar(&x, &obs::Obs::disabled())[0];
        assert!((stats.mean[0] - det).abs() < 1e-12);
    }

    #[test]
    fn dropout_produces_positive_std() {
        let net = net_with_dropout(2, 0.3);
        let x = Matrix::from_rows(&[vec![1.0, -1.0, 0.5], vec![0.2, 0.4, -2.0]]);
        let mut rng = Prng::seed_from_u64(3);
        let stats = mc_predict(&net, &x, 50, 0.0, &mut rng, &obs::Obs::disabled());
        assert!(stats.std.iter().all(|&s| s > 0.0));
        assert_eq!(stats.passes, 50);
        assert_eq!(stats.mean.len(), 2);
    }

    #[test]
    fn deterministic_given_seed_despite_parallelism() {
        let net = net_with_dropout(4, 0.2);
        let x = Matrix::from_rows(&vec![vec![0.1, 0.2, 0.3]; 8]);
        let run = |seed| {
            let mut rng = Prng::seed_from_u64(seed);
            mc_predict(&net, &x, 32, 0.0, &mut rng, &obs::Obs::disabled())
        };
        let a = run(10);
        let b = run(10);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
        let c = run(11);
        assert_ne!(a.mean, c.mean);
    }

    /// Reference implementation of the pre-workspace design: clone the
    /// network for every pass and run the mutable training-style forward,
    /// then aggregate as `mc_predict_map` does.
    fn mc_clone_per_pass(
        net: &Mlp,
        x: &Matrix,
        passes: usize,
        std_floor: f64,
        rng: &mut Prng,
        transform: impl Fn(f64) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let pass_rngs: Vec<Prng> = (0..passes).map(|_| rng.fork()).collect();
        let outputs: Vec<Vec<f64>> = pass_rngs
            .into_iter()
            .map(|mut pass_rng| {
                let mut local = Mlp::clone(net);
                let out = local.forward(x, Mode::McDropout, &mut pass_rng);
                out.col(0).into_iter().map(&transform).collect()
            })
            .collect();
        let inv = 1.0 / passes as f64;
        let mut mean = vec![0.0; x.rows()];
        for pass in &outputs {
            for (m, &v) in mean.iter_mut().zip(pass) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m *= inv;
        }
        let mut var = vec![0.0; x.rows()];
        for pass in &outputs {
            for ((s, &v), &m) in var.iter_mut().zip(pass).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| (v * inv).sqrt().max(std_floor))
            .collect();
        (mean, std)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both sweep paths — the hoisted prefix with the fused
    /// `[Dropout, Dense(→1)]` tail, and the per-pass `Mlp::infer`
    /// fallback — against the clone-per-pass reference: means, stds and
    /// the caller's RNG state after the call, bit for bit.
    #[test]
    fn zero_clone_path_matches_clone_per_pass_bitwise() {
        let mut rng = Prng::seed_from_u64(21);
        let fit_x = Matrix::from_vec(32, 3, rng.gaussian_vec(96));
        let fit_y = rng.gaussian_vec(32);
        // A few epochs move every bias off its zero initialization, so the
        // order in which the bias joins the sum is visible.
        let trained = |mut net: Mlp, rng: &mut Prng| {
            let cfg = crate::TrainConfig {
                epochs: 3,
                batch_size: 8,
                lr: 0.05,
                ..crate::TrainConfig::default()
            };
            let objective = crate::MseObjective::new(fit_y.clone());
            crate::train(
                &mut net,
                &fit_x,
                &objective,
                &cfg,
                rng,
                &obs::Obs::disabled(),
            )
            .unwrap();
            net
        };
        let build = |plan: &[(usize, Option<f64>)], rng: &mut Prng| {
            let mut b = Mlp::builder(3);
            for &(units, p) in plan {
                b = match p {
                    Some(p) => b.dropout(p),
                    None => b.dense(units, Activation::Elu),
                };
            }
            let net = b.dense(1, Activation::Identity).build(rng);
            trained(net, rng)
        };
        // (name, plan before the output unit, takes the fused path)
        let nets: Vec<(&str, Mlp, bool)> = vec![
            (
                "drp shape",
                build(&[(16, None), (0, Some(0.25))], &mut rng),
                true,
            ),
            (
                "width 7",
                build(&[(7, None), (0, Some(0.5))], &mut rng),
                true,
            ),
            (
                "p = 0",
                build(&[(16, None), (0, Some(0.0))], &mut rng),
                true,
            ),
            (
                "two hidden",
                build(&[(6, None), (5, None), (0, Some(0.3))], &mut rng),
                true,
            ),
            ("dropout first", build(&[(0, Some(0.3))], &mut rng), true),
            ("no dropout", build(&[(9, None)], &mut rng), false),
            (
                "two dropouts",
                build(
                    &[(6, None), (0, Some(0.2)), (5, None), (0, Some(0.4))],
                    &mut rng,
                ),
                false,
            ),
            (
                "dropout before the first dense",
                build(&[(0, Some(0.3)), (6, None)], &mut rng),
                false,
            ),
        ];
        let tanh_head = Mlp::builder(3)
            .dense(11, Activation::Tanh)
            .dropout(0.1)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        let tanh_head = trained(tanh_head, &mut rng);
        let mut rows: Vec<Vec<f64>> = (0..13).map(|_| rng.gaussian_vec(3)).collect();
        rows[2] = vec![f64::NAN, 0.5, -0.5];
        rows[5] = vec![f64::INFINITY, 1.0, 0.0];
        rows[9] = vec![0.25, f64::NEG_INFINITY, 2.0];
        rows[11] = vec![0.0, 0.0, 0.0];
        let inputs = [
            Matrix::zeros(0, 3),
            Matrix::from_rows(&rows[..1]),
            Matrix::from_rows(&rows[..5]),
            Matrix::from_rows(&rows),
        ];
        let mut cases = 0;
        for (name, net, fused) in nets.iter().chain([&("tanh head", tanh_head, true)]) {
            assert_eq!(dropout_head(net).is_some(), *fused, "{name}");
            for x in &inputs {
                for (seed, passes) in [(0u64, 1usize), (42, 7), (0x5C0BE, 16)] {
                    for sigmoid in [false, true] {
                        let transform = |v: f64| {
                            if sigmoid {
                                linalg::vector::sigmoid(v)
                            } else {
                                v
                            }
                        };
                        let mut ref_rng = Prng::seed_from_u64(seed);
                        let (mean, std) =
                            mc_clone_per_pass(net, x, passes, 1e-9, &mut ref_rng, transform);
                        let mut rng = Prng::seed_from_u64(seed);
                        let stats = mc_predict_map(
                            net,
                            x,
                            passes,
                            1e-9,
                            &mut rng,
                            transform,
                            &obs::Obs::disabled(),
                        );
                        let at = format!("{name}, {} rows, seed {seed}", x.rows());
                        assert_eq!(bits(&stats.mean), bits(&mean), "mean: {at}");
                        assert_eq!(bits(&stats.std), bits(&std), "std: {at}");
                        // The caller-visible RNG advanced identically.
                        assert_eq!(ref_rng.uniform(), rng.uniform(), "rng: {at}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 9 * 4 * 3 * 2);
    }

    #[test]
    fn std_floor_is_applied() {
        let net = net_with_dropout(5, 0.0);
        let x = Matrix::from_rows(&[vec![0.0, 0.0, 0.0]]);
        let mut rng = Prng::seed_from_u64(6);
        let stats = mc_predict(&net, &x, 10, 1e-4, &mut rng, &obs::Obs::disabled());
        assert_eq!(stats.std[0], 1e-4);
    }

    #[test]
    fn more_dropout_more_uncertainty() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0, 1.0]; 4]);
        let avg_std = |p: f64| {
            let net = net_with_dropout(7, p);
            let mut rng = Prng::seed_from_u64(8);
            let stats = mc_predict(&net, &x, 200, 0.0, &mut rng, &obs::Obs::disabled());
            stats.std.iter().sum::<f64>() / stats.std.len() as f64
        };
        assert!(avg_std(0.5) > avg_std(0.05));
    }

    #[test]
    fn transform_applied_before_aggregation() {
        let net = net_with_dropout(10, 0.3);
        let x = Matrix::from_rows(&[vec![0.4, -0.2, 1.0]]);
        // std of sigmoid(outputs) differs from sigmoid of std in general;
        // verify the mapped mean equals manually transformed pass outputs.
        let mut r1 = Prng::seed_from_u64(20);
        let mapped = mc_predict_map(
            &net,
            &x,
            40,
            0.0,
            &mut r1,
            linalg::vector::sigmoid,
            &obs::Obs::disabled(),
        );
        assert!(mapped.mean[0] > 0.0 && mapped.mean[0] < 1.0);
        let mut r2 = Prng::seed_from_u64(20);
        let raw = mc_predict(&net, &x, 40, 0.0, &mut r2, &obs::Obs::disabled());
        // Jensen: sigmoid of the mean differs from mean of sigmoids, but
        // both should be in (0,1) and close for small spread.
        assert!((linalg::vector::sigmoid(raw.mean[0]) - mapped.mean[0]).abs() < 0.2);
        assert!(mapped.std[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_panics() {
        let net = net_with_dropout(9, 0.1);
        let x = Matrix::zeros(1, 3);
        let mut rng = Prng::seed_from_u64(0);
        let _ = mc_predict(&net, &x, 0, 0.0, &mut rng, &obs::Obs::disabled());
    }
}
