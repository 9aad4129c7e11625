//! Small dense row-major matrix.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
///
/// This intentionally implements only the operations the learners in this
/// crate need; it is not a general linear-algebra library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Consumes the matrix and returns its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Self {
        Matrix {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|_| rng.gen_range(-scale..=scale))
                .collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `self * x`.
    ///
    /// Rows are computed four at a time with four independent accumulators,
    /// so four add chains are in flight instead of one. Each row's own chain
    /// still runs `((0 + a₀x₀) + a₁x₁) + …` in increasing column order, so
    /// every output is bit-for-bit the serial per-row dot product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        crate::kernels::matvec(self.cols, &self.data, x, &mut out);
        out
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        crate::kernels::matvec_t(self.cols, &self.data, x, &mut out);
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Matrix product `self * other`, computed by the register-tiled kernels
    /// in [`crate::kernels`]. Bit-for-bit identical to [`Matrix::matmul_naive`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernels::matmul_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Transposed product `selfᵀ * other` (without the caller materializing
    /// the transpose), via the tiled kernels. Bit-for-bit identical to
    /// [`Matrix::matmul_tn_naive`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::kernels::matmul_tn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Product with the transpose `self * otherᵀ`, via the tiled kernels.
    /// Bit-for-bit identical to [`Matrix::matmul_nt_naive`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::kernels::matmul_nt(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Reference (naive triple-loop) `self * other`. Exists so tests and the
    /// `matmul_kernels` bench can pin the tiled kernels against the
    /// original scalar loops; production code should call [`Matrix::matmul`].
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernels::matmul_nn_naive(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Reference (naive) `selfᵀ * other`; see [`Matrix::matmul_naive`].
    pub fn matmul_tn_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::kernels::matmul_tn_naive(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Reference (naive) `self * otherᵀ`; see [`Matrix::matmul_naive`].
    pub fn matmul_nt_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::kernels::matmul_nt_naive(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Transposed copy. Works in square tiles so both the source rows and
    /// the destination rows stay cache-resident even for matrices whose rows
    /// far exceed a cache line.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(self.cols);
                for r in r0..r1 {
                    for (c, &v) in self.row(r)[c0..c1].iter().enumerate() {
                        out.data[(c0 + c) * self.rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// Adds `alpha * other` element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_scaled shape mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in self.data.iter_mut() {
            *v *= alpha;
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn matvec_works() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn random_is_bounded_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = Matrix::random(4, 4, 0.5, &mut rng);
        assert!(m.data().iter().all(|v| v.abs() <= 0.5));
        let mut rng2 = ChaCha8Rng::seed_from_u64(1);
        let m2 = Matrix::random(4, 4, 0.5, &mut rng2);
        assert_eq!(m, m2);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn transpose_is_exact_and_involutive_across_tile_boundaries() {
        // 37 × 53 straddles the 32-wide tiles in both dimensions.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let m = Matrix::random(37, 53, 1.0, &mut rng);
        let t = m.transpose();
        assert_eq!(t.rows(), 53);
        assert_eq!(t.cols(), 37);
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                assert_eq!(t.get(c, r), m.get(r, c));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn norm_computation() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.norm() - 5.0).abs() < 1e-12);
    }
}
