//! The Adam optimizer every network here trains with.
//!
//! Adam keeps per-parameter-tensor state keyed by a stable visitation
//! index: the caller (the trainer) walks the network's parameter tensors
//! in a fixed order and hands each `(params, grads)` pair to
//! [`Adam::update`].

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with the canonical defaults `beta1=0.9, beta2=0.999, eps=1e-8`.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn state(store: &mut Vec<Vec<f64>>, id: usize, len: usize) -> &mut Vec<f64> {
        while store.len() <= id {
            store.push(Vec::new());
        }
        let s = &mut store[id];
        if s.len() != len {
            *s = vec![0.0; len];
        }
        s
    }

    /// Applies one update step to a parameter tensor.
    ///
    /// `tensor_id` identifies the tensor across steps (the trainer visits
    /// tensors in a stable order and numbers them 0, 1, 2, ...).
    ///
    /// # Panics
    /// Panics when `params` and `grads` differ in length.
    pub fn update(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "Adam: param/grad length mismatch"
        );
        // `t` is advanced in end_step; during the first step t == 0, so use
        // t + 1 for bias correction.
        let t = (self.t + 1) as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let m = Self::state(&mut self.m, tensor_id, params.len());
        // Borrow v after m: separate stores, so no aliasing.
        let v = Self::state(&mut self.v, tensor_id, params.len());
        for (((p, &g), mi), vi) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = beta1 * *mi + (1.0 - beta1) * g;
            *vi = beta2 * *vi + (1.0 - beta2) * g * g;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// Marks the end of an optimization step (after every tensor was
    /// visited once).
    pub fn end_step(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f64];
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &g);
            opt.end_step();
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step has magnitude ~lr.
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f64];
        opt.update(0, &mut x, &[42.0]);
        assert!((x[0] + 0.1).abs() < 1e-6, "x = {}", x[0]);
    }

    #[test]
    fn optimizers_track_separate_tensors() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0f64];
        let mut b = [0.0f64];
        for _ in 0..100 {
            let ga = [2.0 * (a[0] - 1.0)];
            let gb = [2.0 * (b[0] + 2.0)];
            opt.update(0, &mut a, &ga);
            opt.update(1, &mut b, &gb);
            opt.end_step();
        }
        assert!((a[0] - 1.0).abs() < 0.05, "a = {}", a[0]);
        assert!((b[0] + 2.0).abs() < 0.05, "b = {}", b[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f64; 2];
        opt.update(0, &mut x, &[1.0]);
    }
}
