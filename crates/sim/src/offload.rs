//! Offloading-based inference cost model (§5.4, Figure 8).
//!
//! FlexGen-style serving keeps all weights in CPU DRAM and streams each
//! layer's shard over PCIe for every decoding step. The stream dominates
//! the step latency by two orders of magnitude, which is why verified-
//! tokens-per-step translates almost directly into end-to-end speedup.

use crate::gpu::{GpuSpec, LinkSpec};
use crate::latency::StepWorkload;
use crate::profile::LlmProfile;

/// A single GPU doing offloading-based inference.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadSpec {
    /// The compute GPU.
    pub gpu: GpuSpec,
    /// The host↔device link weights stream over.
    pub host_link: LinkSpec,
}

impl OffloadSpec {
    /// One A10 with PCIe Gen4 to host DRAM (the paper's Figure 8 setup).
    pub fn a10_pcie() -> Self {
        OffloadSpec {
            gpu: GpuSpec::a10(),
            host_link: LinkSpec::pcie_gen4(),
        }
    }

    /// Latency of one decoding step: the full weight stream overlaps with
    /// compute (double buffering), so the step costs the maximum of the
    /// two, plus launch overhead.
    pub fn decode_step_s(&self, model: &LlmProfile, w: &StepWorkload) -> f64 {
        let stream_s = model.weight_bytes() / (self.host_link.gb_per_s * 1e9);
        let tokens = (w.batch * w.tokens_per_request) as f64;
        let compute_s = self.gpu.compute_s(model.forward_flops(tokens));
        let kv_s = self.gpu.mem_read_s(
            w.batch as f64
                * (w.context_len + w.tokens_per_request) as f64
                * model.kv_bytes_per_token(),
        );
        let launch_s =
            model.n_layers as f64 * 6.0 * w.kernel_groups as f64 * self.gpu.kernel_launch_us * 1e-6;
        stream_s.max(compute_s + kv_s) + launch_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_13b_step_is_roughly_a_second() {
        let o = OffloadSpec::a10_pcie();
        let t = o.decode_step_s(&LlmProfile::opt_13b(), &StepWorkload::incremental(1, 128));
        // 26 GB over 24 GB/s ≈ 1.1 s — matching FlexGen's magnitude in
        // Figure 8 (≈ 1.5 s including its own overheads).
        assert!(t > 0.8 && t < 1.6, "{t}");
    }

    #[test]
    fn offload_step_is_insensitive_to_tree_size() {
        let o = OffloadSpec::a10_pcie();
        let m = LlmProfile::opt_30b();
        let inc = o.decode_step_s(&m, &StepWorkload::incremental(1, 128));
        let tree = o.decode_step_s(
            &m,
            &StepWorkload {
                batch: 1,
                tokens_per_request: 20,
                kernel_groups: 1,
                context_len: 128,
            },
        );
        // The PCIe stream dwarfs the extra compute: < 2% difference.
        assert!((tree - inc) / inc < 0.02, "inc {inc} tree {tree}");
    }

    #[test]
    fn larger_models_stream_longer() {
        let o = OffloadSpec::a10_pcie();
        let w = StepWorkload::incremental(1, 0);
        let t13 = o.decode_step_s(&LlmProfile::opt_13b(), &w);
        let t30 = o.decode_step_s(&LlmProfile::opt_30b(), &w);
        assert!(t30 > 2.0 * t13, "{t30} vs {t13}");
    }
}
