//! Tree-based speculative inference and verification — the core of the
//! SpecInfer reproduction.
//!
//! The pipeline per decoding iteration (Figure 2 of the paper):
//!
//! 1. **Speculate** ([`speculate_expansion`] / [`speculate_merged`] /
//!    [`speculate_dynamic`]): one or more small speculative models
//!    (SSMs) expand a token tree from the last verified token, using a
//!    static ⟨k₁…k_m⟩ expansion schedule; multiple SSMs' trees are
//!    merged (Definition 3.2).
//! 2. **Decode** (`specinfer-model`): the LLM scores the *whole* tree in
//!    one tree-parallel pass with the topology-aware causal mask.
//! 3. **Verify** ([`verify_greedy`] / [`verify_stochastic`] /
//!    [`verify_naive`]): greedy exact-match descent, or stochastic
//!    **multi-step speculative sampling** (MSS) which provably preserves
//!    the LLM's output distribution (Theorem 4.2) while rejecting less
//!    than naive sampling (Theorem 4.3).
//!
//! [`SpecEngine`] and [`Session`] wire the loop together; [`boost`]
//! implements the paper's unsupervised boost-tuning pipeline for
//! building diverse SSM pools.
//!
//! # Example
//!
//! ```
//! use specinfer_model::{DecodeMode, ModelConfig, Transformer};
//! use specinfer_spec::{EngineConfig, InferenceMode, SpecEngine, StochasticVerifier};
//! use specinfer_tokentree::ExpansionConfig;
//!
//! let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
//! let ssm = Transformer::from_seed(ModelConfig::smoke(), 2);
//! let engine = SpecEngine::new(
//!     &llm,
//!     vec![&ssm],
//!     EngineConfig {
//!         decode: DecodeMode::Greedy,
//!         verifier: StochasticVerifier::MultiStep,
//!         mode: InferenceMode::TreeSpeculative {
//!             expansion: ExpansionConfig::new(vec![2, 2, 1]),
//!         },
//!         max_new_tokens: 8,
//!         eos_token: None,
//!     },
//! );
//! let result = engine.generate(&[1, 2, 3], 0);
//! assert!(result.generated().len() >= 8);
//! ```

pub mod audit;
mod batch;
pub mod boost;
pub mod controller;
pub mod dynamic;
mod engine;
mod speculator;
mod verifier;

pub use audit::{audit_greedy, AuditReport};
pub use batch::{BatchItem, BatchRowStats, BatchedVerifier};
pub use boost::{boost_tune_pool, BoostConfig, BoostResult};
pub use controller::{
    draft_flop_weight, AdaptiveConfig, AdaptiveDecision, ControllerSnapshot, DraftShape,
    SpecController,
};
pub use dynamic::{speculate_dynamic, DynamicExpansionConfig};
pub use engine::{
    DegradationPolicy, DegradationStats, EngineConfig, EngineError, GenerationResult,
    InferenceMode, Session, SpecEngine, SpeculationRows, StepFault, StepStats,
};
pub use speculator::{
    expand_into, speculate_expansion, speculate_garbage, speculate_merged, speculate_pool_parallel,
    ExpansionMode, Speculation, SsmDistTable, DRAFT_FLATTEN_TEMPERATURE,
};
pub use verifier::{
    advance_greedy, advance_naive, advance_stochastic, verify_greedy, verify_naive,
    verify_stochastic, LogitRows, StochasticVerifier, TensorRows, VerifyOutcome, VerifyWalk,
};
