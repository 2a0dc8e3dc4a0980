//! Profiles of the paper's evaluation models (architecture-level numbers
//! the cost model needs).

/// The size facts of an LLM or SSM that determine its step cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmProfile {
    /// Model name as used in the paper.
    pub name: String,
    /// Total parameters.
    pub params: f64,
    /// Number of Transformer layers.
    pub n_layers: usize,
    /// Hidden width.
    pub d_model: usize,
}

impl LlmProfile {
    /// Bytes of weights in half precision.
    pub fn weight_bytes(&self) -> f64 {
        self.params * 2.0
    }

    /// FLOPs for one forward pass over `tokens` tokens (the standard
    /// `2 · params · tokens` estimate for decoder-only Transformers).
    pub fn forward_flops(&self, tokens: f64) -> f64 {
        2.0 * self.params * tokens
    }

    /// Bytes of KV cache per token position in half precision
    /// (keys + values across all layers).
    pub fn kv_bytes_per_token(&self) -> f64 {
        2.0 * 2.0 * (self.n_layers * self.d_model) as f64
    }

    /// LLaMA-7B (Figure 7, single GPU).
    pub fn llama_7b() -> Self {
        LlmProfile {
            name: "LLaMA-7B".into(),
            params: 6.7e9,
            n_layers: 32,
            d_model: 4096,
        }
    }

    /// OPT-13B (Figure 8 offloading).
    pub fn opt_13b() -> Self {
        LlmProfile {
            name: "OPT-13B".into(),
            params: 13.0e9,
            n_layers: 40,
            d_model: 5120,
        }
    }

    /// OPT-30B (Figure 7 four-GPU, Figure 8 offloading).
    pub fn opt_30b() -> Self {
        LlmProfile {
            name: "OPT-30B".into(),
            params: 30.0e9,
            n_layers: 48,
            d_model: 7168,
        }
    }

    /// LLaMA-65B (Figure 7, two nodes × four GPUs).
    pub fn llama_65b() -> Self {
        LlmProfile {
            name: "LLaMA-65B".into(),
            params: 65.0e9,
            n_layers: 80,
            d_model: 8192,
        }
    }

    /// LLaMA-68M (the paper's LLaMA-family SSM).
    pub fn llama_68m() -> Self {
        LlmProfile {
            name: "LLaMA-68M".into(),
            params: 68.0e6,
            n_layers: 2,
            d_model: 768,
        }
    }

    /// OPT-125M (the paper's OPT-family SSM).
    pub fn opt_125m() -> Self {
        LlmProfile {
            name: "OPT-125M".into(),
            params: 125.0e6,
            n_layers: 12,
            d_model: 768,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssms_are_orders_of_magnitude_smaller() {
        assert!(LlmProfile::llama_7b().params / LlmProfile::llama_68m().params > 90.0);
        assert!(LlmProfile::llama_65b().params / LlmProfile::llama_68m().params > 900.0);
    }

    #[test]
    fn weight_bytes_are_half_precision() {
        let p = LlmProfile::llama_7b();
        assert!((p.weight_bytes() - 13.4e9).abs() < 0.1e9);
    }

    #[test]
    fn forward_flops_standard_estimate() {
        let p = LlmProfile::opt_13b();
        assert!((p.forward_flops(10.0) - 2.6e11).abs() < 1e9);
    }

    #[test]
    fn kv_bytes_scale_with_depth_and_width() {
        let small = LlmProfile::llama_68m().kv_bytes_per_token();
        let large = LlmProfile::llama_65b().kv_bytes_per_token();
        assert!(large > 100.0 * small);
    }
}
