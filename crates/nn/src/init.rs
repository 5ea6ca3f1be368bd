//! Weight initialization.

use linalg::random::Prng;
use linalg::Matrix;

/// Samples a `fan_in x fan_out` Glorot/Xavier-uniform weight matrix:
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`, drawn in row-major
/// order.
pub(crate) fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut Prng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.uniform_in(-a, a))
        .collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::stats::std_dev;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = Prng::seed_from_u64(0);
        let w = xavier_uniform(100, 50, &mut rng);
        let a = (6.0 / 150.0f64).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= a));
        // Not all identical.
        assert!(std_dev(w.as_slice()) > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(10, 10, &mut Prng::seed_from_u64(9));
        let b = xavier_uniform(10, 10, &mut Prng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
