//! Symmetric positive-definite solvers.
//!
//! Ridge regression (the workhorse base learner for the meta-learner
//! baselines) reduces to solving `(XᵀX + λI) β = Xᵀy`, an SPD system we
//! factor with Cholesky.

use crate::error::{Error, Result};
use crate::Matrix;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix. Only the lower triangle of `a` is read.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.rows() != a.cols() {
        return Err(Error::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(Error::NotPositiveDefinite { pivot: i });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for SPD `A` via Cholesky (forward + back substitution).
#[allow(clippy::needless_range_loop)] // triangular solves index two arrays by row
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if b.len() != n {
        return Err(Error::ShapeMismatch {
            op: "solve_spd",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let l = cholesky(a)?;
    // Forward substitution: L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.get(i, k) * z[k];
        }
        z[i] = sum / l.get(i, i);
    }
    // Back substitution: L^T x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = z[i];
        for k in (i + 1)..n {
            sum -= l.get(k, i) * x[k];
        }
        x[i] = sum / l.get(i, i);
    }
    Ok(x)
}

/// Ridge regression coefficients: solves
/// `(XᵀX + λI) β = Xᵀ y` with `λ = ridge`.
///
/// An intercept should be handled by the caller (append a constant column
/// with [`Matrix::with_const_col`]); this keeps the penalty uniform and the
/// API explicit.
pub fn ridge_fit(x: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>> {
    if x.rows() != y.len() {
        return Err(Error::ShapeMismatch {
            op: "ridge_fit",
            lhs: x.shape(),
            rhs: (y.len(), 1),
        });
    }
    if x.rows() == 0 {
        return Err(Error::Empty {
            what: "design matrix",
        });
    }
    let xt = x.transpose();
    let mut gram = xt.matmul(x)?;
    let d = gram.rows();
    for i in 0..d {
        let v = gram.get(i, i);
        gram.set(i, i, v + ridge.max(0.0));
    }
    let xty = xt.matvec(y)?;
    solve_spd(&gram, &xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 12, -16], [12, 37, -43], [-16, -43, 98]]
        // L = [[2, 0, 0], [6, 1, 0], [-8, 5, 3]]
        let a = Matrix::from_rows(&[
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ]);
        let l = cholesky(&a).unwrap();
        assert!(approx(l.get(0, 0), 2.0, 1e-12));
        assert!(approx(l.get(1, 0), 6.0, 1e-12));
        assert!(approx(l.get(1, 1), 1.0, 1e-12));
        assert!(approx(l.get(2, 0), -8.0, 1e-12));
        assert!(approx(l.get(2, 1), 5.0, 1e-12));
        assert!(approx(l.get(2, 2), 3.0, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            cholesky(&a),
            Err(Error::NotPositiveDefinite { .. })
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(cholesky(&rect), Err(Error::NotSquare { .. })));
    }

    #[test]
    fn solve_spd_roundtrip() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!(approx(*got, *want, 1e-10));
        }
    }

    #[test]
    fn ridge_recovers_linear_coefficients() {
        // y = 2 x0 - 3 x1 + 1, noiseless, ridge -> small bias only.
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64) / 10.0, ((i * 7) % 13) as f64 / 5.0])
            .collect();
        let x = Matrix::from_rows(&xs).with_const_col(1.0);
        let y: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 1.0).collect();
        let beta = ridge_fit(&x, &y, 1e-8).unwrap();
        assert!(approx(beta[0], 2.0, 1e-5));
        assert!(approx(beta[1], -3.0, 1e-5));
        assert!(approx(beta[2], 1.0, 1e-4));
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = [2.0, 4.0, 6.0];
        let none = ridge_fit(&x, &y, 0.0).unwrap()[0];
        let heavy = ridge_fit(&x, &y, 100.0).unwrap()[0];
        assert!(approx(none, 2.0, 1e-10));
        assert!(heavy.abs() < none.abs());
        assert!(heavy > 0.0);
    }

    #[test]
    fn ridge_rejects_bad_shapes() {
        let x = Matrix::zeros(3, 2);
        assert!(ridge_fit(&x, &[1.0, 2.0], 0.1).is_err());
        let empty = Matrix::zeros(0, 2);
        assert!(ridge_fit(&empty, &[], 0.1).is_err());
    }
}
