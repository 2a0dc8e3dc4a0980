//! Speculation and verification overhead accounting (§5.3 of the paper).
//!
//! The paper argues SpecInfer's overheads are one to two orders of
//! magnitude below the cost of LLM inference itself:
//!
//! * **memory** — hosting the SSMs (< 1% of LLM weights) and caching
//!   keys/values + scores for the speculated tree (negligible next to a
//!   long-sequence KV cache);
//! * **compute** — running the SSMs incrementally, and verifying tree
//!   tokens that end up rejected.
//!
//! This module computes those ratios from first principles so the claim
//! is *checked*, not quoted.

use crate::profile::LlmProfile;

/// The §5.3 overhead breakdown for one serving configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// SSM weights as a fraction of LLM weights (aggregated over the
    /// pool).
    pub ssm_weight_fraction: f64,
    /// Extra KV-cache bytes for one speculated tree, as a fraction of a
    /// request's full-context KV cache.
    pub tree_kv_fraction: f64,
    /// SSM speculation FLOPs per iteration as a fraction of the LLM
    /// verification FLOPs.
    pub speculation_compute_fraction: f64,
    /// FLOPs spent on tree tokens that end up rejected, as a fraction of
    /// the iteration's LLM FLOPs.
    pub wasted_verification_fraction: f64,
}

/// Computes the §5.3 overhead ratios.
///
/// * `tree_size` — speculated nodes per iteration (the paper's default
///   schedule spends 20);
/// * `accepted` — mean verified tokens per iteration;
/// * `context_len` — KV-resident tokens per request;
/// * `spec_depth` — sequential SSM steps per iteration.
///
/// # Panics
///
/// Panics if `tree_size == 0` or `context_len == 0`.
pub fn overheads(
    llm: &LlmProfile,
    ssms: &[LlmProfile],
    tree_size: usize,
    accepted: f64,
    context_len: usize,
    spec_depth: usize,
) -> OverheadReport {
    assert!(tree_size > 0, "tree must hold speculated tokens");
    assert!(context_len > 0, "context must be non-empty");
    let ssm_params: f64 = ssms.iter().map(|s| s.params).sum();
    let ssm_weight_fraction = ssm_params / llm.params;

    let tree_kv = (tree_size + 1) as f64 * llm.kv_bytes_per_token();
    let context_kv = context_len as f64 * llm.kv_bytes_per_token();
    let tree_kv_fraction = tree_kv / context_kv;

    let verify_flops = llm.forward_flops((tree_size + 1) as f64);
    // Each SSM runs `spec_depth` incremental steps (roughly one token
    // each along its own chain).
    let spec_flops: f64 = ssms
        .iter()
        .map(|s| s.forward_flops(spec_depth as f64))
        .sum();
    let speculation_compute_fraction = spec_flops / verify_flops;

    let wasted_tokens = (tree_size as f64 - accepted).max(0.0);
    let wasted_verification_fraction = wasted_tokens / (tree_size + 1) as f64;

    OverheadReport {
        ssm_weight_fraction,
        tree_kv_fraction,
        speculation_compute_fraction,
        wasted_verification_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> OverheadReport {
        overheads(
            &LlmProfile::llama_7b(),
            &[LlmProfile::llama_68m()],
            20,
            3.0,
            1024,
            8,
        )
    }

    #[test]
    fn ssm_memory_overhead_is_about_one_percent() {
        let r = report();
        assert!(r.ssm_weight_fraction < 0.02, "{}", r.ssm_weight_fraction);
        assert!(r.ssm_weight_fraction > 0.005);
    }

    #[test]
    fn tree_kv_is_small_next_to_long_contexts() {
        let r = report();
        // 21 extra rows vs a 1024-token context ≈ 2%.
        assert!(r.tree_kv_fraction < 0.03, "{}", r.tree_kv_fraction);
    }

    #[test]
    fn speculation_compute_is_under_ten_percent() {
        let r = report();
        assert!(
            r.speculation_compute_fraction < 0.1,
            "{}",
            r.speculation_compute_fraction
        );
    }

    #[test]
    fn wasted_verification_matches_acceptance() {
        let r = report();
        // 20 speculated, 3 accepted → 17 of 21 processed tokens wasted.
        assert!((r.wasted_verification_fraction - 17.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_ssms_scale_the_weight_fraction() {
        let one = overheads(
            &LlmProfile::llama_7b(),
            &[LlmProfile::llama_68m()],
            20,
            3.0,
            512,
            8,
        );
        let three = overheads(
            &LlmProfile::llama_7b(),
            &[
                LlmProfile::llama_68m(),
                LlmProfile::llama_68m(),
                LlmProfile::llama_68m(),
            ],
            20,
            3.0,
            512,
            8,
        );
        assert!((three.ssm_weight_fraction - 3.0 * one.ssm_weight_fraction).abs() < 1e-12);
    }
}
