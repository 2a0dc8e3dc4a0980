//! Tape-based reverse-mode automatic differentiation.
//!
//! The tape records a define-by-run computation graph over [`Tensor`]
//! values. Values are computed eagerly as operations are recorded;
//! [`Tape::backward`] then walks the tape in reverse accumulating
//! gradients. The op vocabulary is exactly what a decoder-only Transformer
//! with RMSNorm + RoPE + SwiGLU needs — nothing more.
//!
//! This engine exists so the workspace can *train* its small speculative
//! models (distillation and the paper's boost-tuning pipeline) from
//! scratch, instead of stubbing out that part of the system.
//!
//! # Example
//!
//! ```
//! use specinfer_tensor::{autograd::Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let w = tape.param(Tensor::from_vec(vec![2.0], &[1, 1]));
//! let x = tape.constant(Tensor::from_vec(vec![3.0], &[1, 1]));
//! let y = tape.matmul(x, w);
//! let loss = tape.sum_scalar(y);
//! tape.backward(loss);
//! // d(w·x)/dw = x = 3
//! assert_eq!(tape.grad(w).unwrap().data(), &[3.0]);
//! ```

use crate::ops;
use crate::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node index on its owning tape.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    MatMulNt(Var, Var),
    Add(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddConst(Var),
    Silu(Var),
    RmsNorm {
        x: Var,
        gain: Var,
        eps: f32,
    },
    Embedding {
        table: Var,
        ids: Vec<usize>,
    },
    Rope {
        x: Var,
        positions: Vec<usize>,
        head_dim: usize,
        base: f32,
    },
    SoftmaxRows(Var),
    SliceCols {
        x: Var,
        start: usize,
        len: usize,
    },
    ConcatCols(Vec<Var>),
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
    },
    SoftCrossEntropy {
        logits: Var,
        target_probs: Tensor,
    },
    SumScalar(Var),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
}

/// A reverse-mode autodiff tape.
///
/// See the [module documentation](self) for an example.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Registers a trainable parameter. Its gradient is available after
    /// [`Tape::backward`].
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Registers a non-trainable input (no gradient is computed for it).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if it participates in grad flow
    /// and [`Tape::backward`] has run.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Matrix product with transposed right operand `a × bᵀ`
    /// (`b` stored `[n, k]`).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_nt(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::MatMulNt(a, b), rg)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).scale(c);
        let rg = self.rg(a);
        self.push(value, Op::Scale(a, c), rg)
    }

    /// Adds a constant tensor (e.g. an attention mask) that never receives
    /// gradient.
    pub fn add_const(&mut self, a: Var, c: &Tensor) -> Var {
        let value = self.value(a).add(c);
        let rg = self.rg(a);
        self.push(value, Op::AddConst(a), rg)
    }

    /// SiLU activation, element-wise.
    pub fn silu(&mut self, a: Var) -> Var {
        let value = ops::silu(self.value(a));
        let rg = self.rg(a);
        self.push(value, Op::Silu(a), rg)
    }

    /// RMS normalization of each row with learnable gain.
    pub fn rmsnorm(&mut self, x: Var, gain: Var, eps: f32) -> Var {
        let value = ops::rmsnorm_rows(self.value(x), self.value(gain), eps);
        let rg = self.rg(x) || self.rg(gain);
        self.push(value, Op::RmsNorm { x, gain, eps }, rg)
    }

    /// Gathers rows `ids` from an embedding `table` (`[vocab, d]`).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn embedding(&mut self, table: Var, ids: &[usize]) -> Var {
        let tbl = self.value(table);
        let d = tbl.cols();
        let mut data = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(
                id < tbl.rows(),
                "embedding id {id} out of range {}",
                tbl.rows()
            );
            data.extend_from_slice(tbl.row(id));
        }
        let value = Tensor::from_vec(data, &[ids.len(), d]);
        let rg = self.rg(table);
        self.push(
            value,
            Op::Embedding {
                table,
                ids: ids.to_vec(),
            },
            rg,
        )
    }

    /// Applies rotary position embeddings to each row, where row `i` sits at
    /// sequence position `positions[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from the number of rows.
    pub fn rope(&mut self, x: Var, positions: &[usize], head_dim: usize, base: f32) -> Var {
        let mut value = self.value(x).clone();
        assert_eq!(
            positions.len(),
            value.rows(),
            "one position per row required"
        );
        for (r, &pos) in positions.iter().enumerate() {
            ops::rope_rotate_row(value.row_mut(r), pos, head_dim, base);
        }
        let rg = self.rg(x);
        self.push(
            value,
            Op::Rope {
                x,
                positions: positions.to_vec(),
                head_dim,
                base,
            },
            rg,
        )
    }

    /// Softmax over each row.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let value = ops::softmax_rows(self.value(x));
        let rg = self.rg(x);
        self.push(value, Op::SoftmaxRows(x), rg)
    }

    /// Selects columns `[start, start + len)` of a 2-D tensor.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let src = self.value(x);
        let (rows, cols) = (src.rows(), src.cols());
        assert!(start + len <= cols, "column slice out of range");
        let mut data = Vec::with_capacity(rows * len);
        for r in 0..rows {
            data.extend_from_slice(&src.row(r)[start..start + len]);
        }
        let value = Tensor::from_vec(data, &[rows, len]);
        let rg = self.rg(x);
        self.push(value, Op::SliceCols { x, start, len }, rg)
    }

    /// Concatenates 2-D tensors along columns (all must share a row count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut data = Vec::with_capacity(rows * total);
        for r in 0..rows {
            for &p in parts {
                let t = self.value(p);
                assert_eq!(t.rows(), rows, "all parts must share a row count");
                data.extend_from_slice(t.row(r));
            }
        }
        let value = Tensor::from_vec(data, &[rows, total]);
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(value, Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Mean negative log-likelihood of `targets` under row-wise softmax of
    /// `logits`. Produces a scalar (`[1]`) node.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of logit rows.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let l = self.value(logits);
        assert_eq!(targets.len(), l.rows(), "one target per row required");
        let mut total = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            let ls = ops::log_softmax(l.row(r));
            total -= ls[t];
        }
        let value = Tensor::from_vec(vec![total / targets.len() as f32], &[1]);
        let rg = self.rg(logits);
        self.push(
            value,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
            },
            rg,
        )
    }

    /// Mean soft cross-entropy `−Σ p log softmax(logits)` against target
    /// probability rows (used for distillation from a teacher model).
    ///
    /// # Panics
    ///
    /// Panics if dims differ.
    pub fn soft_cross_entropy(&mut self, logits: Var, target_probs: &Tensor) -> Var {
        let l = self.value(logits);
        assert_eq!(
            l.dims(),
            target_probs.dims(),
            "logits and targets must align"
        );
        let mut total = 0.0;
        for r in 0..l.rows() {
            let ls = ops::log_softmax(l.row(r));
            for (p, lsv) in target_probs.row(r).iter().zip(ls.iter()) {
                total -= p * lsv;
            }
        }
        let value = Tensor::from_vec(vec![total / l.rows() as f32], &[1]);
        let rg = self.rg(logits);
        self.push(
            value,
            Op::SoftCrossEntropy {
                logits,
                target_probs: target_probs.clone(),
            },
            rg,
        )
    }

    /// Sum of all elements, as a scalar node. Mostly useful in tests.
    pub fn sum_scalar(&mut self, x: Var) -> Var {
        let value = Tensor::from_vec(vec![self.value(x).sum()], &[1]);
        let rg = self.rg(x);
        self.push(value, Op::SumScalar(x), rg)
    }

    fn accumulate(&mut self, v: Var, delta: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Runs reverse-mode accumulation from scalar node `loss`.
    ///
    /// After this call, [`Tape::grad`] returns gradients for every node with
    /// `requires_grad` reachable from `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (`len() == 1`).
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.value(loss).len(), 1, "backward requires a scalar loss");
        self.nodes[loss.0].grad = Some(Tensor::from_vec(vec![1.0], &[1]));
        for i in (0..=loss.0).rev() {
            let Some(out_grad) = self.nodes[i].grad.clone() else {
                continue;
            };
            if !self.nodes[i].requires_grad {
                continue;
            }
            // Take the op apart without borrowing self across accumulate calls.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = out_grad.matmul_nt(self.value(b));
                    let db = self.value(a).matmul_tn(&out_grad);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::MatMulNt(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = out_grad.matmul(self.value(b));
                    let db = out_grad.matmul_tn(self.value(a));
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, out_grad.clone());
                    self.accumulate(b, out_grad);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = out_grad.mul(self.value(b));
                    let db = out_grad.mul(self.value(a));
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Scale(a, c) => {
                    let (a, c) = (*a, *c);
                    self.accumulate(a, out_grad.scale(c));
                }
                Op::AddConst(a) => {
                    let a = *a;
                    self.accumulate(a, out_grad);
                }
                Op::Silu(a) => {
                    let a = *a;
                    let x = self.value(a);
                    let mut dx = out_grad.clone();
                    for (g, &xv) in dx.data_mut().iter_mut().zip(x.data()) {
                        let s = ops::sigmoid(xv);
                        *g *= s * (1.0 + xv * (1.0 - s));
                    }
                    self.accumulate(a, dx);
                }
                Op::RmsNorm { x, gain, eps } => {
                    let (x, gain, eps) = (*x, *gain, *eps);
                    let xv = self.value(x).clone();
                    let gv = self.value(gain).clone();
                    let n = xv.cols() as f32;
                    let mut dx = Tensor::zeros(xv.dims());
                    let mut dgain = Tensor::zeros(gv.dims());
                    for r in 0..xv.rows() {
                        let row = xv.row(r);
                        let dy = out_grad.row(r);
                        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / n;
                        let inv = 1.0 / (ms + eps).sqrt();
                        let dot: f32 = dy
                            .iter()
                            .zip(gv.data())
                            .zip(row)
                            .map(|((d, g), v)| d * g * v)
                            .sum();
                        for j in 0..row.len() {
                            dx.row_mut(r)[j] =
                                inv * (dy[j] * gv.data()[j] - row[j] * inv * inv * dot / n);
                            dgain.data_mut()[j] += dy[j] * row[j] * inv;
                        }
                    }
                    self.accumulate(x, dx);
                    self.accumulate(gain, dgain);
                }
                Op::Embedding { table, ids } => {
                    let table = *table;
                    let ids = ids.clone();
                    let mut dtable = Tensor::zeros(self.value(table).dims());
                    for (r, &id) in ids.iter().enumerate() {
                        for (g, o) in dtable.row_mut(id).iter_mut().zip(out_grad.row(r)) {
                            *g += o;
                        }
                    }
                    self.accumulate(table, dtable);
                }
                Op::Rope {
                    x,
                    positions,
                    head_dim,
                    base,
                } => {
                    // The adjoint of a rotation is the inverse rotation.
                    let (x, head_dim, base) = (*x, *head_dim, *base);
                    let positions = positions.clone();
                    let mut dx = out_grad.clone();
                    for (r, &pos) in positions.iter().enumerate() {
                        inverse_rope_row(dx.row_mut(r), pos, head_dim, base);
                    }
                    self.accumulate(x, dx);
                }
                Op::SoftmaxRows(a) => {
                    let a = *a;
                    let y = self.nodes[i].value.clone();
                    let mut dx = Tensor::zeros(y.dims());
                    for r in 0..y.rows() {
                        let yr = y.row(r);
                        let dyr = out_grad.row(r);
                        let dot: f32 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
                        for j in 0..yr.len() {
                            dx.row_mut(r)[j] = yr[j] * (dyr[j] - dot);
                        }
                    }
                    self.accumulate(a, dx);
                }
                Op::SliceCols { x, start, len } => {
                    let (x, start, len) = (*x, *start, *len);
                    let mut dx = Tensor::zeros(self.value(x).dims());
                    for r in 0..out_grad.rows() {
                        let dst = &mut dx.row_mut(r)[start..start + len];
                        for (d, o) in dst.iter_mut().zip(out_grad.row(r)) {
                            *d += o;
                        }
                    }
                    self.accumulate(x, dx);
                }
                Op::ConcatCols(parts) => {
                    let parts = parts.clone();
                    let mut start = 0;
                    for p in parts {
                        let w = self.value(p).cols();
                        let rows = out_grad.rows();
                        let mut dp = Tensor::zeros(&[rows, w]);
                        for r in 0..rows {
                            dp.row_mut(r)
                                .copy_from_slice(&out_grad.row(r)[start..start + w]);
                        }
                        self.accumulate(p, dp);
                        start += w;
                    }
                }
                Op::CrossEntropy { logits, targets } => {
                    let logits = *logits;
                    let targets = targets.clone();
                    let scale = out_grad.data()[0] / targets.len() as f32;
                    let probs = ops::softmax_rows(self.value(logits));
                    let mut dl = probs;
                    for (r, &t) in targets.iter().enumerate() {
                        dl.row_mut(r)[t] -= 1.0;
                    }
                    self.accumulate(logits, dl.scale(scale));
                }
                Op::SoftCrossEntropy {
                    logits,
                    target_probs,
                } => {
                    let logits = *logits;
                    let target_probs = target_probs.clone();
                    let rows = target_probs.rows() as f32;
                    let scale = out_grad.data()[0] / rows;
                    let probs = ops::softmax_rows(self.value(logits));
                    let dl = probs.sub(&target_probs);
                    self.accumulate(logits, dl.scale(scale));
                }
                Op::SumScalar(a) => {
                    let a = *a;
                    let g = out_grad.data()[0];
                    let d = Tensor::full(self.value(a).dims(), g);
                    self.accumulate(a, d);
                }
            }
        }
    }
}

fn inverse_rope_row(row: &mut [f32], pos: usize, head_dim: usize, base: f32) {
    for head in row.chunks_mut(head_dim) {
        for i in 0..head_dim / 2 {
            let theta = base.powf(-2.0 * i as f32 / head_dim as f32);
            let angle = -(pos as f32) * theta;
            let (sin, cos) = angle.sin_cos();
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Numerically checks `d loss / d param` against central finite
    /// differences for the scalar loss produced by `build`.
    fn check_gradient<F>(param: Tensor, build: F, tol: f32)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut tape = Tape::new();
        let p = tape.param(param.clone());
        let loss = build(&mut tape, p);
        tape.backward(loss);
        let analytic = tape.grad(p).expect("param should have a gradient").clone();

        let eps = 1e-3;
        for idx in 0..param.len() {
            let mut plus = param.clone();
            plus.data_mut()[idx] += eps;
            let mut t1 = Tape::new();
            let p1 = t1.param(plus);
            let l1 = build(&mut t1, p1);
            let f_plus = t1.value(l1).data()[0];

            let mut minus = param.clone();
            minus.data_mut()[idx] -= eps;
            let mut t2 = Tape::new();
            let p2 = t2.param(minus);
            let l2 = build(&mut t2, p2);
            let f_minus = t2.value(l2).data()[0];

            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "grad mismatch at {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn matmul_gradient() {
        let mut rng = SeededRng::new(1);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 2], 1.0, &mut rng);
        check_gradient(
            w,
            move |tape, p| {
                let xv = tape.constant(x.clone());
                let y = tape.matmul(xv, p);
                tape.sum_scalar(y)
            },
            1e-2,
        );
    }

    #[test]
    fn matmul_nt_gradient() {
        let mut rng = SeededRng::new(2);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[5, 4], 1.0, &mut rng);
        check_gradient(
            w,
            move |tape, p| {
                let xv = tape.constant(x.clone());
                let y = tape.matmul_nt(xv, p);
                tape.sum_scalar(y)
            },
            1e-2,
        );
    }

    #[test]
    fn silu_gradient() {
        let mut rng = SeededRng::new(3);
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        check_gradient(
            x,
            |tape, p| {
                let y = tape.silu(p);
                tape.sum_scalar(y)
            },
            1e-2,
        );
    }

    #[test]
    fn rmsnorm_gradient_wrt_input_and_gain() {
        let mut rng = SeededRng::new(4);
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let gain = Tensor::randn(&[6], 0.5, &mut rng);
        {
            let gain = gain.clone();
            check_gradient(
                x.clone(),
                move |tape, p| {
                    let g = tape.constant(gain.clone());
                    let y = tape.rmsnorm(p, g, 1e-5);
                    tape.sum_scalar(y)
                },
                2e-2,
            );
        }
        check_gradient(
            gain,
            move |tape, p| {
                let xv = tape.constant(x.clone());
                let y = tape.rmsnorm(xv, p, 1e-5);
                tape.sum_scalar(y)
            },
            2e-2,
        );
    }

    #[test]
    fn softmax_gradient() {
        let mut rng = SeededRng::new(5);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 4], 1.0, &mut rng);
        check_gradient(
            x,
            move |tape, p| {
                let y = tape.softmax_rows(p);
                let weight = tape.constant(w.clone());
                let z = tape.mul(y, weight);
                tape.sum_scalar(z)
            },
            2e-2,
        );
    }

    #[test]
    fn cross_entropy_gradient() {
        let mut rng = SeededRng::new(6);
        let logits = Tensor::randn(&[3, 5], 1.0, &mut rng);
        check_gradient(logits, |tape, p| tape.cross_entropy(p, &[0, 2, 4]), 1e-2);
    }

    #[test]
    fn soft_cross_entropy_gradient() {
        let mut rng = SeededRng::new(7);
        let logits = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let targets = ops::softmax_rows(&Tensor::randn(&[2, 4], 1.0, &mut rng));
        check_gradient(
            logits,
            move |tape, p| tape.soft_cross_entropy(p, &targets),
            1e-2,
        );
    }

    #[test]
    fn embedding_gradient_scatters() {
        let mut rng = SeededRng::new(8);
        let table = Tensor::randn(&[6, 3], 1.0, &mut rng);
        check_gradient(
            table,
            |tape, p| {
                let e = tape.embedding(p, &[1, 1, 4]);
                tape.sum_scalar(e)
            },
            1e-2,
        );
    }

    #[test]
    fn rope_gradient_is_inverse_rotation() {
        let mut rng = SeededRng::new(9);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 4], 1.0, &mut rng);
        check_gradient(
            x,
            move |tape, p| {
                let y = tape.rope(p, &[0, 3, 7], 4, 10_000.0);
                let weight = tape.constant(w.clone());
                let z = tape.mul(y, weight);
                tape.sum_scalar(z)
            },
            2e-2,
        );
    }

    #[test]
    fn slice_and_concat_gradients() {
        let mut rng = SeededRng::new(10);
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 6], 1.0, &mut rng);
        check_gradient(
            x,
            move |tape, p| {
                let a = tape.slice_cols(p, 0, 3);
                let b = tape.slice_cols(p, 3, 3);
                let joined = tape.concat_cols(&[b, a]);
                let weight = tape.constant(w.clone());
                let z = tape.mul(joined, weight);
                tape.sum_scalar(z)
            },
            1e-2,
        );
    }

    #[test]
    fn gradients_accumulate_across_reuse() {
        // loss = sum(x) + sum(x) → grad = 2 everywhere.
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let mut tape = Tape::new();
        let p = tape.param(x);
        let a = tape.sum_scalar(p);
        let b = tape.sum_scalar(p);
        let loss = tape.add(a, b);
        tape.backward(loss);
        assert_eq!(tape.grad(p).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::from_vec(vec![1.0], &[1, 1]));
        let p = tape.param(Tensor::from_vec(vec![2.0], &[1, 1]));
        let y = tape.mul(c, p);
        let loss = tape.sum_scalar(y);
        tape.backward(loss);
        assert!(tape.grad(c).is_none());
        assert!(tape.grad(p).is_some());
    }
}
