//! Model hyperparameter configuration.

/// Hyperparameters of a decoder-only Transformer (LLaMA-style: RMSNorm,
/// rotary position embeddings, SwiGLU feed-forward).
///
/// The workspace's "LLM" and "SSM" are both instances of this
/// architecture at different scales, mirroring how the paper pairs
/// LLaMA-7B with LLaMA-68M. Presets: [`ModelConfig::tiny_llm`],
/// [`ModelConfig::tiny_ssm`], [`ModelConfig::smoke`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size (token ids are `0..vocab_size`).
    pub vocab_size: usize,
    /// Residual stream width.
    pub d_model: usize,
    /// Number of Transformer layers.
    pub n_layers: usize,
    /// Number of attention heads (`d_model % n_heads == 0`, even head dim).
    pub n_heads: usize,
    /// Feed-forward inner width (SwiGLU).
    pub d_ff: usize,
    /// Maximum sequence length the KV cache will admit.
    pub max_seq_len: usize,
}

impl ModelConfig {
    /// RoPE frequency base (fixed, as in LLaMA).
    pub const ROPE_BASE: f32 = 10_000.0;
    /// RMSNorm epsilon.
    pub const RMS_EPS: f32 = 1e-5;

    /// Validates the internal consistency of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`, the head
    /// dimension is odd (RoPE needs pairs), or any dimension is zero.
    pub fn validate(&self) {
        assert!(self.vocab_size > 0, "vocab_size must be positive");
        assert!(self.d_model > 0 && self.n_layers > 0 && self.n_heads > 0 && self.d_ff > 0);
        assert!(self.max_seq_len > 0, "max_seq_len must be positive");
        assert_eq!(
            self.d_model % self.n_heads,
            0,
            "d_model must divide evenly into heads"
        );
        assert_eq!(
            self.head_dim() % 2,
            0,
            "RoPE requires an even head dimension"
        );
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Total parameter count of a model with this configuration.
    pub fn param_count(&self) -> usize {
        let d = self.d_model;
        let per_layer = 4 * d * d        // wq wk wv wo
            + 2 * d * self.d_ff + self.d_ff * d // w1 w3 w2
            + 2 * d; // two norm gains
        self.vocab_size * d              // embedding
            + self.n_layers * per_layer
            + d                          // final norm
            + d * self.vocab_size // lm head
    }

    /// The workspace's stand-in for the paper's large model
    /// (LLaMA-7B-shaped at laptop scale).
    pub fn tiny_llm() -> Self {
        ModelConfig {
            vocab_size: 256,
            d_model: 96,
            n_layers: 3,
            n_heads: 4,
            d_ff: 256,
            max_seq_len: 512,
        }
    }

    /// The workspace's stand-in for the paper's small speculative model
    /// (LLaMA-68M-shaped): an order of magnitude fewer parameters than
    /// [`ModelConfig::tiny_llm`].
    pub fn tiny_ssm() -> Self {
        ModelConfig {
            vocab_size: 256,
            d_model: 48,
            n_layers: 1,
            n_heads: 2,
            d_ff: 96,
            max_seq_len: 512,
        }
    }

    /// A minimal configuration for fast unit tests.
    pub fn smoke() -> Self {
        ModelConfig {
            vocab_size: 32,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_seq_len: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ModelConfig::tiny_llm().validate();
        ModelConfig::tiny_ssm().validate();
        ModelConfig::smoke().validate();
    }

    #[test]
    fn llm_is_much_larger_than_ssm() {
        let llm = ModelConfig::tiny_llm().param_count();
        let ssm = ModelConfig::tiny_ssm().param_count();
        assert!(llm > 5 * ssm, "LLM ({llm}) should dwarf SSM ({ssm})");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn head_mismatch_rejected() {
        let mut c = ModelConfig::smoke();
        c.n_heads = 3;
        c.validate();
    }

    #[test]
    fn param_count_matches_hand_computation() {
        let c = ModelConfig {
            vocab_size: 10,
            d_model: 4,
            n_layers: 1,
            n_heads: 2,
            d_ff: 8,
            max_seq_len: 16,
        };
        // embed 40 + (4*16 + 2*32 + 32 + 8) per layer + final norm 4 + head 40
        let per_layer = 4 * 16 + 2 * 32 + 32 + 2 * 4;
        assert_eq!(c.param_count(), 40 + per_layer + 4 + 40);
    }
}
