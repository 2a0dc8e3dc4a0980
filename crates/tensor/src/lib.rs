//! CPU tensor substrate for SpecInfer-rs.
//!
//! This crate provides the numerical foundation for the rest of the
//! workspace:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with the small set of
//!   operations a decoder-only Transformer needs (matmul, softmax, RMSNorm,
//!   rotary embeddings, SwiGLU activations, top-k, …).
//! * [`autograd`] — a tape-based reverse-mode automatic differentiation
//!   engine used to train and distill the small speculative models (SSMs)
//!   from scratch, as the paper's boost-tuning pipeline requires.
//! * [`optim`] — Adam and SGD optimizers driving the autograd tape.
//!
//! The crate is deliberately self-contained (no BLAS, no GPU) so that the
//! entire SpecInfer reproduction runs on any machine.
//!
//! # Example
//!
//! ```
//! use specinfer_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod autograd;
pub mod kernels;
pub mod ops;
pub mod optim;
pub mod pack;
pub mod pool;
pub mod rng;
pub mod simd;
mod tensor;

pub use kernels::{effective_threads, max_threads, set_max_threads};
pub use pack::{PackedPanels, PACKED_SMALL_M_MAX};
pub use simd::SimdBackend;
pub use tensor::{Tensor, TensorError};
