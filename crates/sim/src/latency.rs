//! The per-decoding-step latency model for distributed (multi-GPU)
//! serving.

use crate::gpu::{GpuSpec, LinkSpec};
use crate::profile::LlmProfile;

/// Fused kernels per Transformer layer in a production decoder
/// implementation (QKV projection, attention, output projection, two FFN
/// matmuls, norms — conservatively fused).
const KERNELS_PER_LAYER: f64 = 6.0;

/// How an LLM is sharded across GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismPlan {
    /// Tensor-model-parallel degree (within a node, as in Megatron-LM).
    pub tensor_parallel: usize,
    /// Pipeline-parallel degree (across nodes).
    pub pipeline_parallel: usize,
}

impl ParallelismPlan {
    /// A single-GPU plan.
    pub fn single() -> Self {
        ParallelismPlan {
            tensor_parallel: 1,
            pipeline_parallel: 1,
        }
    }

    /// Total GPUs used by the plan.
    pub fn gpus(&self) -> usize {
        self.tensor_parallel * self.pipeline_parallel
    }
}

/// One decoding step's shape, from the cost model's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepWorkload {
    /// Concurrent requests in the iteration.
    pub batch: usize,
    /// Tokens *processed* per request this step (1 for incremental
    /// decoding; the tree size for fused tree verification; the summed
    /// branch lengths for sequence-based verification).
    pub tokens_per_request: usize,
    /// Independent kernel groups per layer (1 for fused tree decoding;
    /// the number of branches for sequence-based decoding, which launches
    /// one kernel per branch — the Figure 11 effect).
    pub kernel_groups: usize,
    /// Average tokens already resident in the KV cache per request.
    pub context_len: usize,
}

impl StepWorkload {
    /// An incremental decoding step for `batch` requests.
    pub fn incremental(batch: usize, context_len: usize) -> Self {
        StepWorkload {
            batch,
            tokens_per_request: 1,
            kernel_groups: 1,
            context_len,
        }
    }
}

/// A GPU cluster: the machine the latency model runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The GPU model (homogeneous cluster).
    pub gpu: GpuSpec,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Intra-node GPU↔GPU link (tensor-parallel all-reduce).
    pub intra_link: LinkSpec,
    /// Inter-node link (pipeline-parallel activations).
    pub inter_link: LinkSpec,
}

impl ClusterSpec {
    /// One A10 GPU (the paper's LLaMA-7B setting).
    pub fn g5_single_gpu() -> Self {
        ClusterSpec {
            gpu: GpuSpec::a10(),
            gpus_per_node: 1,
            n_nodes: 1,
            intra_link: LinkSpec::pcie_gen4(),
            inter_link: LinkSpec::ethernet_100g(),
        }
    }

    /// One g5.12xlarge node: 4×A10 (the paper's OPT-30B setting).
    pub fn g5_one_node() -> Self {
        ClusterSpec {
            gpus_per_node: 4,
            ..Self::g5_single_gpu()
        }
    }

    /// Two g5.12xlarge nodes: 8×A10 (the paper's LLaMA-65B setting).
    pub fn g5_two_nodes() -> Self {
        ClusterSpec {
            gpus_per_node: 4,
            n_nodes: 2,
            ..Self::g5_single_gpu()
        }
    }

    /// The natural plan for this cluster: tensor parallelism within each
    /// node, pipeline parallelism across nodes (as in the paper).
    pub fn default_plan(&self) -> ParallelismPlan {
        ParallelismPlan {
            tensor_parallel: self.gpus_per_node,
            pipeline_parallel: self.n_nodes,
        }
    }

    /// Latency of one LLM decoding step (seconds).
    ///
    /// Roofline: `max(compute, weight+KV reads)`, plus kernel-launch and
    /// communication overheads. Weight reads pipeline perfectly across
    /// stages (each stage reads its shard while the previous computes is
    /// *not* assumed — a single request traverses stages sequentially, so
    /// the critical path sums stage reads, i.e. divides only by the
    /// tensor-parallel degree).
    ///
    /// # Panics
    ///
    /// Panics if the plan requests more GPUs than the cluster has.
    pub fn decode_step_s(
        &self,
        model: &LlmProfile,
        plan: &ParallelismPlan,
        w: &StepWorkload,
    ) -> f64 {
        assert!(
            plan.gpus() <= self.gpus_per_node * self.n_nodes,
            "plan uses {} GPUs but the cluster has {}",
            plan.gpus(),
            self.gpus_per_node * self.n_nodes
        );
        let tp = plan.tensor_parallel as f64;
        let pp = plan.pipeline_parallel as f64;
        let tokens = (w.batch * w.tokens_per_request) as f64;

        // Memory: every step reads all weight shards once along the
        // pipeline (sum over stages ⇒ /tp only), plus the KV cache.
        let kv_bytes = w.batch as f64
            * (w.context_len + w.tokens_per_request) as f64
            * model.kv_bytes_per_token();
        let mem_s = self.gpu.mem_read_s((model.weight_bytes() + kv_bytes) / tp);

        // Compute: the same pipeline argument divides by tp only.
        let compute_s = self.gpu.compute_s(model.forward_flops(tokens) / tp);

        // Kernel launches: layers are sequential along the critical path;
        // sequence-based decoding multiplies launches per layer.
        let launches = model.n_layers as f64 * KERNELS_PER_LAYER * w.kernel_groups as f64;
        let launch_s = launches * self.gpu.kernel_launch_us * 1e-6;

        // Tensor-parallel all-reduces: two per layer over the activation
        // tile (Megatron-style).
        let act_bytes = tokens * model.d_model as f64 * 2.0;
        let tp_comm_s = if plan.tensor_parallel > 1 {
            model.n_layers as f64
                * 2.0
                * self.intra_link.allreduce_s(act_bytes, plan.tensor_parallel)
        } else {
            0.0
        };

        // Pipeline sends between stages.
        let pp_comm_s = (pp - 1.0) * self.inter_link.transfer_s(act_bytes);

        mem_s.max(compute_s) + launch_s + tp_comm_s + pp_comm_s
    }

    /// Whether `model` (weights + KV cache for `batch` requests of
    /// `context_len` tokens, plus one SSM replica per GPU) fits in GPU
    /// memory under `plan` — the feasibility check that motivates
    /// offloading (§6.3: OPT-13B/30B "exceed the memory capacity of an
    /// A10 GPU and require offloading").
    pub fn fits_in_memory(
        &self,
        model: &LlmProfile,
        ssm: Option<&LlmProfile>,
        plan: &ParallelismPlan,
        batch: usize,
        context_len: usize,
    ) -> bool {
        let shards = plan.gpus() as f64;
        let weights = model.weight_bytes() / shards;
        let kv = batch as f64 * context_len as f64 * model.kv_bytes_per_token() / shards;
        let ssm_bytes = ssm.map(|s| s.weight_bytes()).unwrap_or(0.0);
        // ~10% of device memory reserved for activations and runtime.
        let budget = self.gpu.mem_gib * 1024.0 * 1024.0 * 1024.0 * 0.9;
        weights + kv + ssm_bytes <= budget
    }

    /// Latency of one SSM speculation phase: `depth` sequential
    /// incremental SSM steps, with SSM replicas served data-parallel so
    /// the per-replica batch is `batch / replicas` (the paper runs SSMs
    /// on every GPU).
    pub fn ssm_speculation_s(
        &self,
        ssm: &LlmProfile,
        depth: usize,
        batch: usize,
        mean_width: f64,
        context_len: usize,
    ) -> f64 {
        let replicas = (self.gpus_per_node * self.n_nodes).max(1);
        let per_replica = batch.div_ceil(replicas).max(1);
        let single = ParallelismPlan::single();
        let w = StepWorkload {
            batch: per_replica,
            tokens_per_request: mean_width.ceil() as usize,
            kernel_groups: 1,
            context_len,
        };
        depth as f64 * self.decode_step_s(ssm, &single, &w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_step_is_memory_bound_at_small_batch() {
        let c = ClusterSpec::g5_single_gpu();
        let m = LlmProfile::llama_7b();
        let t = c.decode_step_s(
            &m,
            &ParallelismPlan::single(),
            &StepWorkload::incremental(1, 128),
        );
        // Dominated by the 13.4 GB weight read at 600 GB/s ≈ 22 ms.
        assert!(t > 0.020 && t < 0.035, "{t}");
    }

    #[test]
    fn small_trees_ride_for_free_large_trees_pay_compute() {
        let c = ClusterSpec::g5_single_gpu();
        let m = LlmProfile::llama_7b();
        let plan = ParallelismPlan::single();
        let inc = c.decode_step_s(&m, &plan, &StepWorkload::incremental(1, 128));
        let small_tree = c.decode_step_s(
            &m,
            &plan,
            &StepWorkload {
                batch: 1,
                tokens_per_request: 20,
                kernel_groups: 1,
                context_len: 128,
            },
        );
        // 20 tree tokens at batch 1 stay under the memory roofline.
        assert!(small_tree < inc * 1.15, "{small_tree} vs {inc}");

        let big = c.decode_step_s(
            &m,
            &plan,
            &StepWorkload {
                batch: 16,
                tokens_per_request: 40,
                kernel_groups: 1,
                context_len: 128,
            },
        );
        // 640 tokens cross into the compute-bound regime.
        assert!(big > inc * 1.5, "{big} vs {inc}");
    }

    #[test]
    fn tensor_parallelism_cuts_weight_read_time() {
        let c = ClusterSpec::g5_one_node();
        let m = LlmProfile::opt_30b();
        let w = StepWorkload::incremental(1, 128);
        let tp1 = ClusterSpec::g5_single_gpu().decode_step_s(&m, &ParallelismPlan::single(), &w);
        let tp4 = c.decode_step_s(
            &m,
            &ParallelismPlan {
                tensor_parallel: 4,
                pipeline_parallel: 1,
            },
            &w,
        );
        assert!(tp4 < tp1 * 0.45, "tp4 {tp4} vs tp1 {tp1}");
    }

    #[test]
    fn pipeline_adds_network_overhead() {
        let c = ClusterSpec::g5_two_nodes();
        let m = LlmProfile::llama_65b();
        let w = StepWorkload::incremental(1, 128);
        let t = c.decode_step_s(&m, &c.default_plan(), &w);
        // 130 GB over 4-way TP ≈ 54 ms plus overheads.
        assert!(t > 0.054 && t < 0.09, "{t}");
    }

    #[test]
    fn sequence_decoding_pays_per_branch_launches() {
        let c = ClusterSpec::g5_single_gpu();
        let m = LlmProfile::llama_7b();
        let plan = ParallelismPlan::single();
        let fused = c.decode_step_s(
            &m,
            &plan,
            &StepWorkload {
                batch: 8,
                tokens_per_request: 20,
                kernel_groups: 1,
                context_len: 128,
            },
        );
        let per_branch = c.decode_step_s(
            &m,
            &plan,
            &StepWorkload {
                batch: 8,
                tokens_per_request: 26,
                kernel_groups: 3,
                context_len: 128,
            },
        );
        assert!(per_branch > fused, "{per_branch} vs {fused}");
    }

    #[test]
    fn ssm_speculation_is_a_small_fraction_of_llm_step() {
        let c = ClusterSpec::g5_single_gpu();
        let llm = LlmProfile::llama_7b();
        let ssm = LlmProfile::llama_68m();
        let llm_step = c.decode_step_s(
            &llm,
            &ParallelismPlan::single(),
            &StepWorkload::incremental(1, 128),
        );
        let spec = c.ssm_speculation_s(&ssm, 8, 1, 1.2, 128);
        assert!(
            spec < llm_step,
            "8 SSM steps ({spec}s) should cost less than one LLM step ({llm_step}s)"
        );
    }

    #[test]
    fn memory_feasibility_matches_the_paper() {
        // §6.2/§6.3: LLaMA-7B fits one A10; OPT-13B and OPT-30B do not
        // (hence Figure 8's offloading); OPT-30B fits 4×A10 with TP;
        // LLaMA-65B does not fit one node but fits two.
        let single = ClusterSpec::g5_single_gpu();
        let ssm = LlmProfile::llama_68m();
        let plan1 = ParallelismPlan::single();
        assert!(single.fits_in_memory(&LlmProfile::llama_7b(), Some(&ssm), &plan1, 16, 512));
        assert!(!single.fits_in_memory(&LlmProfile::opt_13b(), None, &plan1, 1, 128));
        assert!(!single.fits_in_memory(&LlmProfile::opt_30b(), None, &plan1, 1, 128));

        let node = ClusterSpec::g5_one_node();
        let tp4 = ParallelismPlan {
            tensor_parallel: 4,
            pipeline_parallel: 1,
        };
        assert!(node.fits_in_memory(&LlmProfile::opt_30b(), Some(&ssm), &tp4, 16, 512));
        assert!(!node.fits_in_memory(&LlmProfile::llama_65b(), None, &tp4, 1, 128));

        let two = ClusterSpec::g5_two_nodes();
        let tp4pp2 = ParallelismPlan {
            tensor_parallel: 4,
            pipeline_parallel: 2,
        };
        assert!(two.fits_in_memory(&LlmProfile::llama_65b(), Some(&ssm), &tp4pp2, 16, 512));
    }

    #[test]
    fn kv_cache_growth_can_exhaust_memory() {
        // The paper's long-sequence motivation: enough concurrent long
        // contexts evict even a fitting model.
        let c = ClusterSpec::g5_single_gpu();
        let m = LlmProfile::llama_7b();
        let plan = ParallelismPlan::single();
        assert!(c.fits_in_memory(&m, None, &plan, 1, 1024));
        assert!(!c.fits_in_memory(&m, None, &plan, 256, 32_768));
    }

    #[test]
    #[should_panic(expected = "GPUs")]
    fn oversubscribed_plan_rejected() {
        let c = ClusterSpec::g5_single_gpu();
        let _ = c.decode_step_s(
            &LlmProfile::llama_7b(),
            &ParallelismPlan {
                tensor_parallel: 4,
                pipeline_parallel: 1,
            },
            &StepWorkload::incremental(1, 0),
        );
    }
}
