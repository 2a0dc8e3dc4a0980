//! Decoder-only Transformer models for SpecInfer-rs.
//!
//! This crate implements the model substrate the SpecInfer system runs
//! on: a LLaMA-style Transformer (RMSNorm, rotary position embeddings,
//! SwiGLU) with an explicit [`KvCache`] and three decoding modes —
//!
//! * **incremental decoding** ([`Transformer::decode_one`]) — the
//!   baseline Algorithm 1 of the paper;
//! * **sequence-based parallel decoding**
//!   ([`Transformer::decode_sequences`]) — one pass per tree branch, the
//!   redundant-computation baseline of Figure 4;
//! * **tree-based parallel decoding** ([`Transformer::decode_tree`]) — a
//!   single fused pass over a whole token tree using the topology-aware
//!   causal mask.
//!
//! It also provides [`sampler`] (greedy / temperature / top-k / top-p)
//! and [`train`] — next-token training and teacher–student distillation
//! on the autograd tape, used to produce aligned small speculative
//! models.
//!
//! # Example
//!
//! ```
//! use specinfer_model::{ModelConfig, Transformer};
//! use specinfer_tokentree::{LinearizedTree, TokenTree};
//!
//! let model = Transformer::from_seed(ModelConfig::smoke(), 7);
//! let mut cache = model.new_cache();
//! let _ = model.prefill(&[1, 2, 3], &mut cache);
//!
//! // Verify a tiny token tree in one pass.
//! let mut tree = TokenTree::new(4);
//! tree.add_child(TokenTree::ROOT, 5, 0, 0.9);
//! let lin = LinearizedTree::new(&tree);
//! let logits = model.decode_tree(&lin, &mut cache);
//! assert_eq!(logits.dims(), &[2, model.config().vocab_size]);
//! ```

pub mod checkpoint;
pub mod compress;
mod config;
mod kvcache;
pub mod sampler;
pub mod train;
mod transformer;
mod weights;

pub use config::ModelConfig;
pub use kvcache::KvCache;
pub use sampler::DecodeMode;
pub use transformer::{BatchRequest, BatchVisibility, Transformer, Visibility};
pub use weights::{LayerWeights, ModelWeights};
