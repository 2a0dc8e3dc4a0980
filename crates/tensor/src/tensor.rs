//! The dense, row-major `f32` tensor type.

use std::fmt;

use crate::rng::SeededRng;

/// Error type for fallible tensor construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the dims.
    ShapeMismatch {
        /// Number of elements implied by the requested dims.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => write!(
                f,
                "shape mismatch: dims imply {expected} elements but {actual} were provided"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the workhorse value type of the workspace. It intentionally
/// supports only the operations a decoder-only Transformer needs, keeping
/// the substrate small and auditable.
///
/// Most operations panic on shape mismatch (documented per method); this
/// mirrors the behaviour of mainstream tensor libraries where shape errors
/// are programming errors, not recoverable conditions.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    dims: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(dims={:?}", self.dims)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, …; {}])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty 1-D tensor, ready to be [`Tensor::reset`] into shape.
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            dims: vec![0],
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// ```
    /// # use specinfer_tensor::Tensor;
    /// let t = Tensor::zeros(&[2, 3]);
    /// assert_eq!(t.len(), 6);
    /// ```
    pub fn zeros(dims: &[usize]) -> Self {
        let n = dims.iter().product();
        Tensor {
            data: vec![0.0; n],
            dims: dims.to_vec(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let n = dims.iter().product();
        Tensor {
            data: vec![value; n],
            dims: dims.to_vec(),
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat `Vec` and dims.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let expected: usize = dims.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "tensor data length must match dims {dims:?}"
        );
        match Self::try_from_vec(data, dims) {
            Ok(t) => t,
            Err(_) => unreachable!("length checked against dims above"),
        }
    }

    /// Fallible version of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `dims`.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = dims.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            data,
            dims: dims.to_vec(),
        })
    }

    /// Creates a tensor with entries drawn i.i.d. from `N(0, std²)` using a
    /// deterministic, seedable generator.
    pub fn randn(dims: &[usize], std: f32, rng: &mut SeededRng) -> Self {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Tensor {
            data,
            dims: dims.to_vec(),
        }
    }

    /// The dims (shape) of the tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows, interpreting the tensor as 2-D (`dims[0]`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.dims.len(), 2, "rows() requires a 2-D tensor");
        self.dims[0]
    }

    /// Number of columns, interpreting the tensor as 2-D (`dims[1]`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.dims.len(), 2, "cols() requires a 2-D tensor");
        self.dims[1]
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a view of row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Returns a mutable view of row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Reinterprets the tensor with new dims without moving data.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let expected: usize = dims.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "reshape must preserve element count"
        );
        self.dims = dims.to_vec();
        self
    }

    /// Resets the tensor to `dims`, zero-filled, reusing its allocation.
    ///
    /// This is the buffer-recycling primitive behind the `_into` ops: a
    /// scratch tensor can be `reset` every step without touching the
    /// allocator once its backing buffer has grown to the steady-state
    /// size.
    pub fn reset(&mut self, dims: &[usize]) {
        let n = dims.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// [`Tensor::reset`] without the zero-fill, for an output whose every
    /// element is about to be overwritten: a memset the size of the
    /// output is not free, and it parks the whole buffer in the calling
    /// core's cache just before other cores write their share of it.
    fn reset_overwritten(&mut self, dims: &[usize]) {
        self.data.resize(dims.iter().product(), 0.0);
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Matrix multiplication `self × other` for 2-D tensors.
    ///
    /// Large shapes run row-partitioned across threads; every output
    /// element reduces over `k` in ascending order regardless of the
    /// thread count, so results are bitwise identical to
    /// [`Tensor::matmul_ref`].
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or either tensor is not 2-D.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0, 0]);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-owned tensor, reusing
    /// its allocation.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or either input is not 2-D.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions must agree ({k} vs {k2})");
        out.reset(&[m, n]);
        crate::kernels::matmul_nn(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// `self × B` against a pre-packed weight operand, writing into a
    /// caller-owned tensor. Within a backend the result is bitwise
    /// identical to [`Tensor::matmul_into`] (or [`Tensor::matmul_nt_into`])
    /// against the tensor the panels were packed from, at every row
    /// count — packing changes memory layout, never per-element
    /// reduction order.
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or `self` is not 2-D.
    pub fn matmul_packed_into(&self, panels: &crate::pack::PackedPanels, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(
            k,
            panels.k(),
            "matmul_packed inner dimensions must agree ({k} vs {})",
            panels.k()
        );
        out.reset_overwritten(&[m, panels.n()]);
        panels.matvec_into(&self.data, &mut out.data);
    }

    /// The SwiGLU up-stage against pre-packed weights,
    /// `gate = silu(self × W₁) ⊙ (self × W₃)`, with `lin` receiving
    /// `self × W₃`: bitwise [`Tensor::matmul_packed_into`] twice, then
    /// `silu`, then the product — computed as one pool region (see
    /// [`crate::pack::PackedPanels::swiglu_into`]).
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees, the packs differ in
    /// shape, or `self` is not 2-D.
    pub fn swiglu_packed_into(
        &self,
        w1: &crate::pack::PackedPanels,
        w3: &crate::pack::PackedPanels,
        gate: &mut Tensor,
        lin: &mut Tensor,
    ) {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(k, w1.k(), "swiglu inner dimensions must agree");
        gate.reset_overwritten(&[m, w1.n()]);
        lin.reset_overwritten(&[m, w1.n()]);
        w1.swiglu_into(w3, &self.data, &mut gate.data, &mut lin.data);
    }

    /// Matrix multiplication with the second operand transposed:
    /// `self × otherᵀ`, where `other` is stored as `[n, k]`.
    ///
    /// This is the natural layout for attention scores (`Q × Kᵀ`) and for
    /// weight matrices stored output-major. Bitwise identical to
    /// [`Tensor::matmul_nt_ref`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or either tensor is not 2-D.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0, 0]);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] writing into a caller-owned tensor, reusing
    /// its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or either input is not 2-D.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt shared dimension must agree ({k} vs {k2})");
        out.reset(&[m, n]);
        crate::kernels::matmul_nt(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// Matrix multiplication with the first operand transposed:
    /// `selfᵀ × other`, where `self` is stored as `[k, m]`.
    ///
    /// Bitwise identical to [`Tensor::matmul_tn_ref`] at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or either tensor is not 2-D.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0, 0]);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] writing into a caller-owned tensor, reusing
    /// its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or either input is not 2-D.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn shared dimension must agree ({k} vs {k2})");
        out.reset(&[m, n]);
        crate::kernels::matmul_tn(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// Naive serial `self × other`: the bitwise reference for
    /// [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or either tensor is not 2-D.
    pub fn matmul_ref(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions must agree ({k} vs {k2})");
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += self.data[i * k + kk] * other.data[kk * n + j];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Naive serial `self × otherᵀ`: the bitwise reference for
    /// [`Tensor::matmul_nt`].
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or either tensor is not 2-D.
    pub fn matmul_nt_ref(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt shared dimension must agree ({k} vs {k2})");
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += self.data[i * k + kk] * other.data[j * k + kk];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Naive serial `selfᵀ × other`: the bitwise reference for
    /// [`Tensor::matmul_tn`].
    ///
    /// # Panics
    ///
    /// Panics if the shared dimension disagrees or either tensor is not 2-D.
    pub fn matmul_tn_ref(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn shared dimension must agree ({k} vs {k2})");
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += self.data[kk * m + i] * other.data[kk * n + j];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Returns the 2-D transpose of the tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.dims, other.dims, "add requires identical dims");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            data,
            dims: self.dims.clone(),
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims, other.dims, "add_assign requires identical dims");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.dims, other.dims, "sub requires identical dims");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            data,
            dims: self.dims.clone(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.dims, other.dims, "mul requires identical dims");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            data,
            dims: self.dims.clone(),
        }
    }

    /// In-place element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn mul_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims, other.dims, "mul_assign requires identical dims");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * c).collect();
        Tensor {
            data,
            dims: self.dims.clone(),
        }
    }

    /// Adds a `[cols]` bias vector to every row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(bias.len(), c, "bias length must equal the column count");
        let mut out = self.clone();
        for r in 0..out.rows() {
            for (o, b) in out.row_mut(r).iter_mut().zip(bias.data()) {
                *o += b;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first occurrence on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Stacks 1-D tensors of equal length into a 2-D tensor, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the lengths differ.
    pub fn stack_rows(rows: &[&[f32]]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows requires at least one row");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * c);
        for r in rows {
            assert_eq!(r.len(), c, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Tensor {
            data,
            dims: vec![rows.len(), c],
        }
    }

    /// Maximum absolute difference between two tensors of equal dims.
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.dims, other.dims,
            "max_abs_diff requires identical dims"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.len(), 12);
        assert_eq!(t.dims(), &[3, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let mut rng = SeededRng::new(1);
        let a = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let direct = a.matmul_nt(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&via_transpose) < 1e-5);
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let mut rng = SeededRng::new(2);
        let a = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let direct = a.matmul_tn(&b);
        let via_transpose = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&via_transpose) < 1e-5);
    }

    #[test]
    fn eye_is_matmul_identity() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let i = Tensor::eye(3);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec(vec![0.0, 5.0, 5.0, 1.0], &[4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = a.add_row_broadcast(&b);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = SeededRng::new(42);
        let mut r2 = SeededRng::new(42);
        let a = Tensor::randn(&[4, 4], 0.5, &mut r1);
        let b = Tensor::randn(&[4, 4], 0.5, &mut r2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = SeededRng::new(7);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let t = Tensor::stack_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }
}
