//! Row-major dense `f64` matrix.
//!
//! This is deliberately a small, predictable type: contiguous storage,
//! explicit shapes, and panicking accessors for hot paths plus fallible
//! (`Result`) entry points for operations whose shape requirements come
//! from user data.

use crate::error::{Error, Result};
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s allocation when it
    /// is large enough (training buffers rely on this).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if the rows have different lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "from_rows: row {i} has {} columns, expected {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a single-column matrix from a vector.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterates over rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Builds a new matrix from the rows at `indices` (rows may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] written into `out`, which is reshaped and
    /// reuses its allocation (a training loop's minibatch buffer).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Makes `self` a `rows × cols` zero matrix, reusing its allocation.
    pub fn set_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Stacks `self` on top of `other`.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(Error::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates `other` to the right of `self`.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(Error::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Appends a constant column (e.g. an intercept) to the right.
    pub fn with_const_col(&self, value: f64) -> Matrix {
        let cols = self.cols + 1;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.push(value);
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses an ikj loop order so the inner loop streams over contiguous
    /// memory — this is the hot kernel for all neural-network layers.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * rhs` written into `out`, which is reshaped
    /// as needed (its allocation is reused when already large enough).
    ///
    /// Performs the exact floating-point operations of [`Matrix::matmul`]
    /// in the same order, so results are bitwise identical — the
    /// allocation-free inference path depends on that.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.rows = self.rows;
        out.cols = rhs.cols;
        out.data.clear();
        out.data.resize(self.rows * rhs.cols, 0.0);
        let n = rhs.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(Error::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .row_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by `k` in place.
    pub fn scale_mut(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Returns `self` scaled by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(k);
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_mut(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `rhs` (interpreted as a row vector) to every row in place.
    pub fn add_row_vector_mut(&mut self, rhs: &[f64]) -> Result<()> {
        if rhs.len() != self.cols {
            return Err(Error::ShapeMismatch {
                op: "add_row_vector",
                lhs: self.shape(),
                rhs: (1, rhs.len()),
            });
        }
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(rhs) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Column-wise sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for row in self.row_iter() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Column-wise means (length `cols`). Empty matrices yield zeros.
    pub fn col_means(&self) -> Vec<f64> {
        let mut sums = self.col_sums();
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for s in &mut sums {
                *s *= inv;
            }
        }
        sums
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True when every element is finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl ToJson for Matrix {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("rows".to_string(), self.rows.to_json()),
            ("cols".to_string(), self.cols.to_json()),
            ("data".to_string(), self.data.to_json()),
        ])
    }
}

impl FromJson for Matrix {
    fn from_json(v: &Value) -> std::result::Result<Self, JsonError> {
        let rows = usize::from_json(v.fetch("rows"))?;
        let cols = usize::from_json(v.fetch("cols"))?;
        let data = Vec::<f64>::from_json(v.fetch("data"))?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(JsonError::msg(format!(
                "Matrix: {} values do not fill a {rows}x{cols} shape",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 0), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(approx(c.get(0, 0), 19.0));
        assert!(approx(c.get(0, 1), 22.0));
        assert!(approx(c.get(1, 0), 43.0));
        assert!(approx(c.get(1, 1), 50.0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, -2.5, 3.0], vec![0.5, 4.0, -1.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(Error::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_errors_name_the_offending_dimensions() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let msg = a.matmul(&b).unwrap_err().to_string();
        assert!(
            msg.contains("lhs has 3 columns but rhs has 4 rows"),
            "matmul message should pinpoint the inner dimensions: {msg}"
        );
        let mut out = Matrix::zeros(1, 1);
        let msg = a.matmul_into(&b, &mut out).unwrap_err().to_string();
        assert!(
            msg.contains("matmul_into") && msg.contains("lhs has 3 columns but rhs has 4 rows"),
            "matmul_into message should name the op and dimensions: {msg}"
        );
        let msg = a.matvec(&[0.0; 4]).unwrap_err().to_string();
        assert!(
            msg.contains("lhs has 3 columns but rhs has 4 rows"),
            "matvec message should pinpoint the inner dimensions: {msg}"
        );
    }

    /// Property sweep over degenerate shapes: 0-row, 0-column, and 1×1
    /// operands must all round-trip through matmul/matmul_into with the
    /// algebraically implied output shape and contents.
    #[test]
    fn matmul_degenerate_shapes() {
        // (m, k, n) sweeps where any dimension may be 0 or 1.
        for &(m, k, n) in &[
            (0usize, 0usize, 0usize),
            (0, 3, 2),
            (2, 0, 3),
            (3, 2, 0),
            (1, 1, 1),
            (1, 0, 1),
            (0, 1, 0),
        ] {
            // Deterministic non-trivial entries so 1×1 checks real math.
            let a = Matrix::from_vec(m, k, (0..m * k).map(|i| 0.5 * i as f64 - 1.0).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|i| 1.5 - 0.25 * i as f64).collect());
            let c = a.matmul(&b).unwrap();
            assert_eq!(c.shape(), (m, n), "shape for m={m} k={k} n={n}");
            // Reference: naive triple loop.
            for i in 0..m {
                for j in 0..n {
                    let want: f64 = (0..k).map(|t| a.get(i, t) * b.get(t, j)).sum();
                    assert_eq!(c.get(i, j), want, "m={m} k={k} n={n} [{i},{j}]");
                }
            }
            // matmul_into agrees bitwise even from a stale out shape.
            let mut out = Matrix::zeros(7, 5);
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(out.shape(), (m, n));
            assert_eq!(out.as_slice(), c.as_slice());
            // k = 0 contracts over nothing: the product must be all-zero.
            if k == 0 {
                assert!(c.as_slice().iter().all(|&v| v == 0.0));
            }
        }
        // 1×1 sanity: matmul degenerates to scalar multiplication.
        let a = Matrix::from_vec(1, 1, vec![3.0]);
        let b = Matrix::from_vec(1, 1, vec![-0.5]);
        assert_eq!(a.matmul(&b).unwrap().get(0, 0), -1.5);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = vec![0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        let expected = a.matmul(&Matrix::column(&v)).unwrap();
        assert!(approx(got[0], expected.get(0, 0)));
        assert!(approx(got[1], expected.get(1, 0)));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, 4.0]);
    }

    #[test]
    fn stack_and_select() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
        let s = v.select_rows(&[1, 0, 1]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[3.0, 4.0]);
        assert_eq!(s.row(2), &[3.0, 4.0]);
        // Into a stale, differently shaped buffer.
        let mut into = Matrix::full(5, 7, f64::NAN);
        v.select_rows_into(&[1, 0, 1], &mut into);
        assert_eq!(into, s);
        into.set_zeros(2, 3);
        assert_eq!(into, Matrix::zeros(2, 3));
    }

    #[test]
    fn const_col_and_row_vector() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let with1 = a.with_const_col(1.0);
        assert_eq!(with1.row(0), &[1.0, 1.0]);
        let mut shifted = a.clone();
        shifted.add_row_vector_mut(&[10.0]).unwrap();
        assert_eq!(shifted.col(0), vec![11.0, 12.0]);
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, -2.5], vec![0.25, 3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![0.0, 8.0], vec![-1.5, 2.0]]);
        let want = a.matmul(&b).unwrap();
        // Start from a stale, differently-shaped scratch buffer.
        let mut out = Matrix::full(7, 1, f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, want);
        assert!(a.matmul_into(&Matrix::zeros(2, 2), &mut out).is_err());
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let m = Matrix::from_rows(&[vec![0.1, 1.0 / 3.0], vec![-2.5e-17, 4.0]]);
        let text = tinyjson::to_string_pretty(&m);
        let back: Matrix = tinyjson::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert!(tinyjson::from_str::<Matrix>("{\"rows\":2,\"cols\":2,\"data\":[1]}").is_err());
        // A shape whose element count overflows `usize` is rejected, not
        // wrapped to the length of an empty `data`.
        let huge = format!("{{\"rows\":{},\"cols\":2,\"data\":[]}}", 1u64 << 63);
        assert!(tinyjson::from_str::<Matrix>(&huge).is_err());
    }

    #[test]
    fn col_means_and_norm() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
        assert!(approx(
            a.frobenius_norm(),
            (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()
        ));
        assert!(a.is_finite());
        let mut b = a.clone();
        b.set(0, 0, f64::NAN);
        assert!(!b.is_finite());
    }
}
