//! Minimal dense tensors and 2-D images.
//!
//! The workloads in this reproduction (CONV/TCONV kernels, crossbar
//! matrix-vector products, transformer GEMMs) need only dense row-major
//! storage with shape checking — not a full autograd framework. [`Tensor`]
//! provides N-dimensional storage; [`Matrix`] is the 2-D specialisation used
//! throughout the kernels.
//!
//! ```
//! use f2_core::tensor::Matrix;
//!
//! let mut m = Matrix::zeros(2, 3);
//! m[(0, 2)] = 5.0;
//! assert_eq!(m.row(0), &[0.0, 0.0, 5.0]);
//! ```

use crate::error::CoreError;
use crate::Result;
use std::ops::{Index, IndexMut};

/// Dense N-dimensional row-major tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Clone + Default> Tensor<T> {
    /// Creates a tensor of the given shape filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be positive"
        );
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![T::default(); len],
        }
    }
}

impl<T> Tensor<T> {
    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(CoreError::ShapeMismatch {
                expected: vec![expected],
                actual: vec![data.len()],
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat view of the underlying data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            debug_assert!(ix < dim, "index {ix} out of bounds in dim {i} ({dim})");
            flat = flat * dim + ix;
        }
        flat
    }

    /// Element at a multi-dimensional index.
    pub fn get(&self, idx: &[usize]) -> Option<&T> {
        if idx.len() != self.shape.len() || idx.iter().zip(&self.shape).any(|(&i, &d)| i >= d) {
            return None;
        }
        Some(&self.data[self.flat_index(idx)])
    }

    /// Mutable element at a multi-dimensional index.
    pub fn get_mut(&mut self, idx: &[usize]) -> Option<&mut T> {
        if idx.len() != self.shape.len() || idx.iter().zip(&self.shape).any(|(&i, &d)| i >= d) {
            return None;
        }
        let flat = self.flat_index(idx);
        Some(&mut self.data[flat])
    }
}

impl<T> Index<&[usize]> for Tensor<T> {
    type Output = T;
    fn index(&self, idx: &[usize]) -> &T {
        &self.data[self.flat_index(idx)]
    }
}

impl<T> IndexMut<&[usize]> for Tensor<T> {
    fn index_mut(&mut self, idx: &[usize]) -> &mut T {
        let flat = self.flat_index(idx);
        &mut self.data[flat]
    }
}

/// Dense row-major matrix of `f64`, the workhorse 2-D type for kernels,
/// crossbar conductance maps and images.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(CoreError::ShapeMismatch {
                expected: vec![rows, cols],
                actual: vec![data.len()],
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(CoreError::ShapeMismatch {
                expected: vec![self.cols],
                actual: vec![x.len()],
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(CoreError::ShapeMismatch {
                expected: vec![self.cols],
                actual: vec![rhs.rows],
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Transposed matrix-vector product `selfᵀ * x`, without materialising
    /// the transpose.
    ///
    /// Bit-identical to `self.transposed().matvec(x)`: that path folds
    /// `out[j] = Σₖ self[(k,j)]·x[k]` from `0.0` in ascending `k`, and the
    /// row-major accumulation loop below performs the same additions on
    /// every output element in the same order — it only reorders the
    /// (independent) per-element accumulators, not any floating-point op.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(CoreError::ShapeMismatch {
                expected: vec![self.rows],
                actual: vec![x.len()],
            });
        }
        let mut out = vec![0.0; self.cols];
        for (row, &xk) in self.data.chunks_exact(self.cols).zip(x) {
            for (o, &w) in out.iter_mut().zip(row) {
                *o += w * xk;
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Maximum absolute element (0.0 for the all-zero matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_zeros_and_index() {
        let mut t: Tensor<f64> = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        t[&[1, 2, 3][..]] = 7.0;
        assert_eq!(t[&[1, 2, 3][..]], 7.0);
        assert_eq!(t.as_slice()[23], 7.0);
    }

    #[test]
    fn tensor_from_vec_validates() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 5]).is_err());
    }

    #[test]
    fn tensor_get_bounds() {
        let t: Tensor<i32> = Tensor::zeros(&[2, 2]);
        assert!(t.get(&[1, 1]).is_some());
        assert!(t.get(&[2, 0]).is_none());
        assert!(t.get(&[0]).is_none());
    }

    #[test]
    fn matvec_correct() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).expect("shape");
        let y = m.matvec(&[1.0, 0.0, -1.0]).expect("shape");
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_shape_error() {
        let m = Matrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matvec_t_bit_identical_to_transposed_matvec() {
        let m = Matrix::from_fn(7, 5, |r, c| ((r * 13 + c * 7) % 17) as f64 / 3.0 - 1.7);
        let x: Vec<f64> = (0..7).map(|i| (i as f64).sin() * 2.5).collect();
        let fast = m.matvec_t(&x).expect("shape");
        let slow = m.transposed().matvec(&x).expect("shape");
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(m.matvec_t(&[1.0; 5]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let id = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id).expect("shape"), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).expect("shape");
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).expect("shape");
        let c = a.matmul(&b).expect("shape");
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(2, 5, |r, c| (r + 10 * c) as f64);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn norms() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 3.0;
        m[(1, 1)] = -4.0;
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.as_slice(), &[0.0, 2.0, 2.0, 4.0]);
    }
}
