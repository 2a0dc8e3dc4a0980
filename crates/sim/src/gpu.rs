//! GPU and interconnect specifications.

/// A GPU's throughput envelope.
///
/// Presets use public spec-sheet numbers; `matmul_efficiency` derates
/// peak FLOPs to a realistic attained fraction for decoder inference
/// kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Dense FP16 tensor-core peak, in TFLOP/s.
    pub fp16_tflops: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_gb_per_s: f64,
    /// Device memory capacity, GiB.
    pub mem_gib: f64,
    /// Fraction of peak FLOPs attained by inference kernels.
    pub matmul_efficiency: f64,
    /// Fixed cost of launching one fused kernel, microseconds.
    pub kernel_launch_us: f64,
}

impl GpuSpec {
    /// NVIDIA A10 24 GB (the paper's evaluation GPU).
    pub fn a10() -> Self {
        GpuSpec {
            name: "NVIDIA A10 24GB".to_string(),
            fp16_tflops: 125.0, // dense FP16 tensor-core peak (250 with sparsity)
            mem_gb_per_s: 600.0,
            mem_gib: 24.0,
            matmul_efficiency: 0.6,
            kernel_launch_us: 8.0,
        }
    }

    /// Attained FLOP/s after the efficiency derate.
    pub fn attained_flops(&self) -> f64 {
        self.fp16_tflops * 1e12 * self.matmul_efficiency
    }

    /// Seconds to read `bytes` from device memory.
    pub fn mem_read_s(&self, bytes: f64) -> f64 {
        bytes / (self.mem_gb_per_s * 1e9)
    }

    /// Seconds to execute `flops` floating-point operations.
    pub fn compute_s(&self, flops: f64) -> f64 {
        flops / self.attained_flops()
    }
}

/// A point-to-point or collective communication link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth, GB/s.
    pub gb_per_s: f64,
    /// Per-message latency, microseconds.
    pub latency_us: f64,
}

impl LinkSpec {
    /// PCIe Gen4 x16 (intra-node GPU↔GPU / GPU↔host on g5.12xlarge).
    pub fn pcie_gen4() -> Self {
        LinkSpec {
            gb_per_s: 24.0,
            latency_us: 5.0,
        }
    }

    /// 100 Gbps Ethernet between nodes (the paper's cluster network).
    pub fn ethernet_100g() -> Self {
        LinkSpec {
            gb_per_s: 12.5,
            latency_us: 30.0,
        }
    }

    /// Seconds to move `bytes` over this link, including latency.
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        self.latency_us * 1e-6 + bytes / (self.gb_per_s * 1e9)
    }

    /// Seconds for a ring all-reduce of `bytes` across `n` participants.
    ///
    /// Standard ring cost: `2·(n−1)/n` of the buffer crosses the link,
    /// with `2·(n−1)` latency hops.
    pub fn allreduce_s(&self, bytes: f64, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let n_f = n as f64;
        2.0 * (n_f - 1.0) * self.latency_us * 1e-6
            + 2.0 * (n_f - 1.0) / n_f * bytes / (self.gb_per_s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a10_reads_its_memory_in_tens_of_ms() {
        let gpu = GpuSpec::a10();
        // Reading the full 24 GiB at 600 GB/s ≈ 43 ms.
        let t = gpu.mem_read_s(24.0 * 1024.0 * 1024.0 * 1024.0);
        assert!(t > 0.03 && t < 0.06, "{t}");
    }

    #[test]
    fn compute_time_scales_linearly() {
        let gpu = GpuSpec::a10();
        assert!((gpu.compute_s(2e12) - 2.0 * gpu.compute_s(1e12)).abs() < 1e-12);
    }

    #[test]
    fn allreduce_is_zero_for_single_participant() {
        let link = LinkSpec::pcie_gen4();
        assert_eq!(link.allreduce_s(1e9, 1), 0.0);
        assert!(link.allreduce_s(1e9, 4) > 0.0);
    }

    #[test]
    fn allreduce_grows_with_participants_at_fixed_bytes() {
        let link = LinkSpec::ethernet_100g();
        assert!(link.allreduce_s(1e8, 8) > link.allreduce_s(1e8, 2));
    }

    #[test]
    fn transfer_includes_latency_floor() {
        let link = LinkSpec::ethernet_100g();
        assert!(link.transfer_s(0.0) >= 29e-6);
    }
}
