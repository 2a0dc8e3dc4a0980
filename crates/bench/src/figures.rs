//! Reproductions of the paper's Figures 7–11 and the design-choice
//! ablations called out in DESIGN.md.
//!
//! Token-level behaviour (tokens/step, tree sizes) is *measured* on the
//! trained tiny models; hardware time is then charged by the
//! `specinfer-sim` cost model for the paper-scale models and clusters.

use specinfer_model::{DecodeMode, Transformer};
use specinfer_serving::TimingConfig;
use specinfer_sim::{ClusterSpec, LlmProfile, OffloadSpec, ParallelismPlan, SystemProfile};
use specinfer_spec::{EngineConfig, InferenceMode, SpecEngine, StochasticVerifier};
use specinfer_tokentree::ExpansionConfig;
use specinfer_workloads::{Dataset, EOS_TOKEN};

use crate::models::Suite;
use crate::report::{mean, quantile, TableData};
use crate::tables::{width_sweep, ExpParams};

/// Measured token-level behaviour of one inference mode.
#[derive(Debug, Clone)]
pub struct ModeBehavior {
    /// Mean tokens emitted per LLM decoding step.
    pub tokens_per_step: f64,
    /// Mean speculated-tree size per step (0 for incremental).
    pub mean_tree_size: f64,
    /// Mean KV-resident context length during decoding.
    pub mean_context: usize,
}

/// Measures `mode`'s behaviour on the Alpaca workload.
pub fn measure_behavior(
    suite: &Suite,
    params: &ExpParams,
    mode: &InferenceMode,
    decode: DecodeMode,
) -> ModeBehavior {
    let mean_context = params.prompt_len + params.gen_tokens / 2;
    if matches!(mode, InferenceMode::Incremental) {
        return ModeBehavior {
            tokens_per_step: 1.0,
            mean_tree_size: 0.0,
            mean_context,
        };
    }
    let prompts = Dataset::Alpaca.prompts(
        &suite.grammar,
        params.n_prompts,
        params.prompt_len,
        params.gen_tokens,
        params.seed,
    );
    let engine = SpecEngine::new(
        &suite.llm,
        vec![&suite.ssm],
        EngineConfig {
            decode,
            verifier: StochasticVerifier::MultiStep,
            mode: mode.clone(),
            max_new_tokens: params.gen_tokens,
            eos_token: Some(EOS_TOKEN),
        },
    );
    let mut tps = Vec::new();
    let mut trees = Vec::new();
    for (pi, p) in prompts.iter().enumerate() {
        let r = engine.generate(&p.tokens, params.seed + 500 + pi as u64);
        if r.llm_steps() > 0 {
            tps.push(r.tokens_per_step());
            trees.extend(r.steps.iter().map(|s| s.tree_size as f64));
        }
    }
    ModeBehavior {
        tokens_per_step: mean(&tps).max(1.0),
        mean_tree_size: mean(&trees),
        mean_context,
    }
}

const BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

fn per_token_ms(timing: &TimingConfig, mode: &InferenceMode, bs: usize, b: &ModeBehavior) -> f64 {
    timing.iteration_s(mode, bs, b.mean_tree_size, b.mean_context) / b.tokens_per_step * 1e3
}

/// Figure 7: end-to-end per-token latency of six systems across three
/// model/cluster settings and batch sizes 1–16 (milliseconds).
pub fn fig7(suite: &Suite, params: &ExpParams) -> TableData {
    let incremental = InferenceMode::Incremental;
    let sequence = InferenceMode::SequenceSpeculative { depth: 8 };
    let tree = InferenceMode::TreeSpeculative {
        expansion: ExpansionConfig::paper_default(),
    };

    let b_inc = measure_behavior(suite, params, &incremental, DecodeMode::Greedy);
    let b_seq = measure_behavior(suite, params, &sequence, DecodeMode::Greedy);
    let b_tree = measure_behavior(suite, params, &tree, DecodeMode::Greedy);

    struct Setting {
        label: &'static str,
        profile: LlmProfile,
        cluster: ClusterSpec,
        plan: ParallelismPlan,
        multi_node: bool,
    }
    let settings = [
        Setting {
            label: "LLaMA-7B (1 GPU)",
            profile: LlmProfile::llama_7b(),
            cluster: ClusterSpec::g5_single_gpu(),
            plan: ParallelismPlan::single(),
            multi_node: false,
        },
        Setting {
            label: "OPT-30B (4 GPUs)",
            profile: LlmProfile::opt_30b(),
            cluster: ClusterSpec::g5_one_node(),
            plan: ParallelismPlan {
                tensor_parallel: 4,
                pipeline_parallel: 1,
            },
            multi_node: false,
        },
        Setting {
            label: "LLaMA-65B (2x4 GPUs)",
            profile: LlmProfile::llama_65b(),
            cluster: ClusterSpec::g5_two_nodes(),
            plan: ParallelismPlan {
                tensor_parallel: 4,
                pipeline_parallel: 2,
            },
            multi_node: true,
        },
    ];

    let mut rows = Vec::new();
    for s in &settings {
        let timing = |system: SystemProfile| TimingConfig {
            llm_profile: s.profile.clone(),
            ssm_profile: LlmProfile::llama_68m(),
            cluster: s.cluster.clone(),
            plan: s.plan,
            system,
            offload: None,
        };
        let mut push = |name: &str, mode: &InferenceMode, b: &ModeBehavior, sys: SystemProfile| {
            let t = timing(sys);
            let values: Vec<f64> = BATCH_SIZES
                .iter()
                .map(|&bs| per_token_ms(&t, mode, bs, b))
                .collect();
            rows.push((format!("{}/{}", s.label, name), values));
        };
        if !s.multi_node {
            // vLLM and HF TGI do not support pipeline parallelism and
            // cannot serve an LLM on multiple nodes (§6.2).
            push("vLLM", &incremental, &b_inc, SystemProfile::vllm());
            push(
                "HuggingFace TGI",
                &incremental,
                &b_inc,
                SystemProfile::tgi(),
            );
        }
        push(
            "FasterTransformer",
            &incremental,
            &b_inc,
            SystemProfile::faster_transformer(),
        );
        push(
            "SpecInfer (incremental)",
            &incremental,
            &b_inc,
            SystemProfile::specinfer(),
        );
        push(
            "SpecInfer (sequence)",
            &sequence,
            &b_seq,
            SystemProfile::specinfer(),
        );
        push(
            "SpecInfer (tree)",
            &tree,
            &b_tree,
            SystemProfile::specinfer(),
        );
    }
    TableData {
        id: "fig7".into(),
        title: "Distributed inference per-token latency (ms)".into(),
        columns: BATCH_SIZES.iter().map(|b| format!("BS={b}")).collect(),
        rows,
        paper_reference: "Figure 7: SpecInfer(tree) 1.5–2.5× over incremental on one node, \
                          2.4–2.8× on two nodes; advantage shrinks as BS grows; \
                          incremental systems all on par"
            .into(),
    }
}

/// Figure 8: offloading-based inference per-token latency, FlexGen vs
/// SpecInfer (seconds), plus the speedup ratio.
pub fn fig8(suite: &Suite, params: &ExpParams) -> TableData {
    let tree = InferenceMode::TreeSpeculative {
        expansion: ExpansionConfig::paper_default(),
    };
    let b_inc = measure_behavior(
        suite,
        params,
        &InferenceMode::Incremental,
        DecodeMode::Greedy,
    );
    let b_tree = measure_behavior(suite, params, &tree, DecodeMode::Greedy);

    let mut rows = Vec::new();
    for profile in [LlmProfile::opt_13b(), LlmProfile::opt_30b()] {
        let timing = |system: SystemProfile| TimingConfig {
            llm_profile: profile.clone(),
            ssm_profile: LlmProfile::opt_125m(),
            cluster: ClusterSpec::g5_single_gpu(),
            plan: ParallelismPlan::single(),
            system,
            offload: Some(OffloadSpec::a10_pcie()),
        };
        let flexgen = timing(SystemProfile::flexgen());
        let specinfer = timing(SystemProfile::specinfer());
        let fg: Vec<f64> = BATCH_SIZES
            .iter()
            .map(|&bs| per_token_ms(&flexgen, &InferenceMode::Incremental, bs, &b_inc) / 1e3)
            .collect();
        let si: Vec<f64> = BATCH_SIZES
            .iter()
            .map(|&bs| per_token_ms(&specinfer, &tree, bs, &b_tree) / 1e3)
            .collect();
        let speedup: Vec<f64> = fg.iter().zip(&si).map(|(a, b)| a / b).collect();
        rows.push((format!("{}/FlexGen (s)", profile.name), fg));
        rows.push((format!("{}/SpecInfer (s)", profile.name), si));
        rows.push((format!("{}/speedup", profile.name), speedup));
    }
    TableData {
        id: "fig8".into(),
        title: "Offloading-based inference per-token latency (seconds)".into(),
        columns: BATCH_SIZES.iter().map(|b| format!("BS={b}")).collect(),
        rows,
        paper_reference: "Figure 8: OPT-13B 3.3→2.6×, OPT-30B 3.5→2.7× speedup as BS grows 1→16"
            .into(),
    }
}

/// Figure 9: distribution (CDF summary) of per-prompt average verified
/// tokens per decoding step, for tree widths 1–5.
pub fn fig9(suite: &Suite, params: &ExpParams) -> TableData {
    let widths = [1usize, 2, 3, 4, 5];
    let qs = [0.1, 0.25, 0.5, 0.75, 0.9];
    let mut rows = Vec::new();
    for greedy in [true, false] {
        let decode = if greedy {
            DecodeMode::Greedy
        } else {
            DecodeMode::stochastic()
        };
        let sweeps = width_sweep(
            suite,
            params,
            Dataset::Alpaca,
            decode,
            StochasticVerifier::MultiStep,
            &widths,
        );
        let name = if greedy { "greedy" } else { "stochastic" };
        for s in sweeps {
            rows.push((
                format!("{name}/width={}", s.width),
                qs.iter().map(|&q| quantile(&s.per_prompt_tps, q)).collect(),
            ));
        }
    }
    TableData {
        id: "fig9".into(),
        title: "CDF of average verified tokens per decoding step (Alpaca)".into(),
        columns: qs
            .iter()
            .map(|q| format!("p{}", (q * 100.0) as u32))
            .collect(),
        rows,
        paper_reference: "Figure 9: wider trees shift the whole CDF right; width 1→5 cuts \
                          decoding steps by 1.2–1.5× (greedy), 1.3–1.4× (stochastic)"
            .into(),
    }
}

/// Figure 10: end-to-end per-token latency vs tree width and batch size
/// (LLaMA-7B on one GPU, milliseconds).
pub fn fig10(suite: &Suite, params: &ExpParams) -> TableData {
    let widths = [1usize, 2, 3, 4, 5];
    let sweeps = width_sweep(
        suite,
        params,
        Dataset::Alpaca,
        DecodeMode::Greedy,
        StochasticVerifier::MultiStep,
        &widths,
    );
    let timing = TimingConfig::llama_7b_single_gpu();
    let mut rows = Vec::new();
    for s in &sweeps {
        let mode = InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::width_at_third(s.width),
        };
        let b = ModeBehavior {
            tokens_per_step: s.mean_tps().max(1.0),
            mean_tree_size: s.mean_tree_size,
            mean_context: s.mean_context as usize,
        };
        rows.push((
            format!("width={}", s.width),
            BATCH_SIZES
                .iter()
                .map(|&bs| per_token_ms(&timing, &mode, bs, &b))
                .collect(),
        ));
    }
    TableData {
        id: "fig10".into(),
        title: "Per-token latency vs tree width (LLaMA-7B, 1 GPU, ms)".into(),
        columns: BATCH_SIZES.iter().map(|b| format!("BS={b}")).collect(),
        rows,
        paper_reference: "Figure 10: large widths win at BS 1–2; at BS ≥ 4 verification cost \
                          grows and width 2–3 is optimal"
            .into(),
    }
}

/// Figure 11: tree-based parallel decoding vs sequence-based decoding of
/// the same speculated trees (LLaMA-7B, 1 GPU, per-token ms).
///
/// Sequence-based decoding re-decodes each root-to-leaf branch separately
/// (redundant prefix computation, one kernel group per branch); both
/// mechanisms verify the same tokens, so tokens/step is shared.
pub fn fig11(suite: &Suite, params: &ExpParams) -> TableData {
    let expansion = ExpansionConfig::paper_default();
    let mode = InferenceMode::TreeSpeculative {
        expansion: expansion.clone(),
    };
    let b_tree = measure_behavior(suite, params, &mode, DecodeMode::Greedy);
    let timing = TimingConfig::llama_7b_single_gpu();

    // Sequence-based decoding of the same tree: each of the
    // `leaf_count` branches re-processes its full root-to-leaf path.
    let branches = expansion.leaf_count();
    let branch_tokens = branches * (expansion.depth() + 1);

    let mut tree_ms = Vec::new();
    let mut seq_ms = Vec::new();
    for &bs in &BATCH_SIZES {
        tree_ms.push(per_token_ms(&timing, &mode, bs, &b_tree));
        // kernel_groups shows up through a dedicated timing call: model
        // the per-branch kernels by inflating the workload.
        let verify = specinfer_sim::StepWorkload {
            batch: bs,
            tokens_per_request: branch_tokens,
            kernel_groups: branches,
            context_len: b_tree.mean_context,
        };
        let verify_s = timing
            .cluster
            .decode_step_s(&timing.llm_profile, &timing.plan, &verify);
        let spec_s = timing.cluster.ssm_speculation_s(
            &timing.ssm_profile,
            expansion.depth(),
            bs,
            (branch_tokens - 1) as f64 / expansion.depth() as f64,
            b_tree.mean_context,
        );
        seq_ms.push(timing.system.apply(verify_s + spec_s) / b_tree.tokens_per_step * 1e3);
    }
    let rows = vec![
        ("tree-based (ms)".to_string(), tree_ms.clone()),
        ("sequence-based (ms)".to_string(), seq_ms.clone()),
        (
            "speedup".to_string(),
            seq_ms.iter().zip(&tree_ms).map(|(s, t)| s / t).collect(),
        ),
    ];
    TableData {
        id: "fig11".into(),
        title: "Tree-based vs sequence-based parallel decoding (LLaMA-7B, 1 GPU)".into(),
        columns: BATCH_SIZES.iter().map(|b| format!("BS={b}")).collect(),
        rows,
        paper_reference: "Figure 11: on par at small BS, tree-based up to 1.8× faster at large BS"
            .into(),
    }
}

/// Ablation (§6.4 / DESIGN.md): where in the schedule should the width
/// go? Same budget spent early, middle, late, or spread.
pub fn ablation_expansion(suite: &Suite, params: &ExpParams) -> TableData {
    let configs = [
        ExpansionConfig::new(vec![3, 1, 1, 1, 1, 1, 1, 1]),
        ExpansionConfig::new(vec![1, 1, 3, 1, 1, 1, 1, 1]),
        ExpansionConfig::new(vec![1, 1, 1, 1, 1, 1, 1, 3]),
        ExpansionConfig::new(vec![2, 2, 1, 1, 1, 1, 1, 1]),
        ExpansionConfig::new(vec![2, 1, 2, 1, 1, 1, 1, 1]),
        ExpansionConfig::sequence(8),
    ];
    let mut rows = Vec::new();
    for cfg in &configs {
        let mut values = vec![cfg.node_count() as f64];
        for decode in [DecodeMode::Greedy, DecodeMode::stochastic()] {
            let b = measure_behavior(
                suite,
                params,
                &InferenceMode::TreeSpeculative {
                    expansion: cfg.clone(),
                },
                decode,
            );
            values.push(b.tokens_per_step);
        }
        rows.push((cfg.to_string(), values));
    }
    TableData {
        id: "ablation-expansion".into(),
        title: "Expansion-schedule ablation: tokens/step by where width is spent".into(),
        columns: vec!["nodes".into(), "greedy".into(), "stochastic".into()],
        rows,
        paper_reference: "§6.1/§6.4: the paper settles on ⟨1,1,3,1,1,1,1,1⟩ — early steps \
                          rarely need width, so spending it at step 3 beats step 1"
            .into(),
    }
}

/// Ablation (§3): merge-based speculation with boost-tuned SSM pools of
/// growing size vs the single distilled SSM.
pub fn ablation_merge(suite: &Suite, params: &ExpParams) -> TableData {
    let prompts = Dataset::Alpaca.prompts(
        &suite.grammar,
        params.n_prompts,
        params.prompt_len,
        params.gen_tokens,
        params.seed,
    );
    let mut pools: Vec<(String, Vec<&Transformer>)> =
        vec![("distilled SSM x1".into(), vec![&suite.ssm])];
    for n in 1..=suite.boost_pool.len() {
        pools.push((
            format!("boost pool x{n}"),
            suite.boost_pool.iter().take(n).collect(),
        ));
    }
    let mut rows = Vec::new();
    for (label, pool) in pools {
        let mut values = Vec::new();
        let mut tree_size = 0.0;
        for decode in [DecodeMode::Greedy, DecodeMode::stochastic()] {
            let engine = SpecEngine::new(
                &suite.llm,
                pool.clone(),
                EngineConfig {
                    decode,
                    verifier: StochasticVerifier::MultiStep,
                    mode: InferenceMode::SequenceSpeculative { depth: 8 },
                    max_new_tokens: params.gen_tokens,
                    eos_token: Some(EOS_TOKEN),
                },
            );
            let mut tps = Vec::new();
            let mut trees = Vec::new();
            for (pi, p) in prompts.iter().enumerate() {
                let r = engine.generate(&p.tokens, params.seed + 900 + pi as u64);
                if r.llm_steps() > 0 {
                    tps.push(r.tokens_per_step());
                    trees.extend(r.steps.iter().map(|s| s.tree_size as f64));
                }
            }
            values.push(mean(&tps));
            tree_size = mean(&trees);
        }
        values.push(tree_size);
        rows.push((label, values));
    }
    TableData {
        id: "ablation-merge".into(),
        title: "Merge-based speculation: SSM pool size vs tokens/step".into(),
        columns: vec!["greedy".into(), "stochastic".into(), "tree size".into()],
        rows,
        paper_reference: "§3: diverse boost-tuned SSMs increase aggregate coverage of the \
                          LLM's output; merged trees verify more tokens per step"
            .into(),
    }
}

/// Ablation (extension): the paper's stated future work — dynamic,
/// best-first tree expansion — against static schedules at matched node
/// budgets (greedy decoding, Alpaca).
pub fn ablation_dynamic(suite: &Suite, params: &ExpParams) -> TableData {
    use specinfer_spec::DynamicExpansionConfig;
    let prompts = Dataset::Alpaca.prompts(
        &suite.grammar,
        params.n_prompts,
        params.prompt_len,
        params.gen_tokens,
        params.seed,
    );
    let run = |mode: InferenceMode| -> (f64, f64) {
        let engine = SpecEngine::new(
            &suite.llm,
            vec![&suite.ssm],
            EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode,
                max_new_tokens: params.gen_tokens,
                eos_token: Some(EOS_TOKEN),
            },
        );
        let mut tps = Vec::new();
        let mut trees = Vec::new();
        for (pi, p) in prompts.iter().enumerate() {
            let r = engine.generate(&p.tokens, params.seed + 700 + pi as u64);
            if r.llm_steps() > 0 {
                tps.push(r.tokens_per_step());
                trees.extend(r.steps.iter().map(|s| s.tree_size as f64));
            }
        }
        (mean(&tps), mean(&trees))
    };

    let mut rows = Vec::new();
    for budget in [8usize, 20, 32] {
        let static_cfg = if budget == 8 {
            ExpansionConfig::sequence(8)
        } else if budget == 20 {
            ExpansionConfig::paper_default()
        } else {
            ExpansionConfig::new(vec![1, 1, 5, 1, 1, 1, 1, 1])
        };
        let (s_tps, s_tree) = run(InferenceMode::TreeSpeculative {
            expansion: static_cfg.clone(),
        });
        let (d_tps, d_tree) = run(InferenceMode::DynamicTree {
            config: DynamicExpansionConfig {
                max_nodes: budget,
                max_depth: 8,
                prob_threshold: 1e-3,
                max_children: 4,
            },
        });
        rows.push((
            format!("static {static_cfg} (budget {budget})"),
            vec![s_tree, s_tps],
        ));
        rows.push((
            format!("dynamic best-first (budget {budget})"),
            vec![d_tree, d_tps],
        ));
    }
    TableData {
        id: "ablation-dynamic".into(),
        title: "Dynamic best-first vs static expansion at matched node budgets".into(),
        columns: vec!["mean tree".into(), "tokens/step".into()],
        rows,
        paper_reference: "§3 names dynamic token-tree expansion as future work; this extension \
                          shows best-first budgets match or beat static schedules"
            .into(),
    }
}

/// Ablation (extension): speculation quality of compressed SSM variants
/// — the paper's §1 sources SSMs from "distilled, quantized, and/or
/// pruned variants"; this measures how tokens/step degrades under int8
/// quantization and magnitude pruning of the distilled SSM.
pub fn ablation_compress(suite: &Suite, params: &ExpParams) -> TableData {
    use specinfer_model::compress;
    let prompts = Dataset::Alpaca.prompts(
        &suite.grammar,
        params.n_prompts,
        params.prompt_len,
        params.gen_tokens,
        params.seed,
    );
    let quantized = compress::QuantizedModel::quantize(&suite.ssm).dequantize();
    let pruned_half = compress::prune(&suite.ssm, 0.5);
    let pruned_90 = compress::prune(&suite.ssm, 0.9);
    let variants: Vec<(String, &Transformer, f64)> = vec![
        ("fp32 distilled".into(), &suite.ssm, 1.0),
        ("int8 quantized".into(), &quantized, 0.25),
        ("50% pruned".into(), &pruned_half, 0.5),
        ("90% pruned".into(), &pruned_90, 0.1),
    ];
    let mut rows = Vec::new();
    for (label, ssm, rel_bytes) in variants {
        let engine = SpecEngine::new(
            &suite.llm,
            vec![ssm],
            EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode: InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::paper_default(),
                },
                max_new_tokens: params.gen_tokens,
                eos_token: Some(EOS_TOKEN),
            },
        );
        let mut tps = Vec::new();
        for (pi, p) in prompts.iter().enumerate() {
            let r = engine.generate(&p.tokens, params.seed + 800 + pi as u64);
            if r.llm_steps() > 0 {
                tps.push(r.tokens_per_step());
            }
        }
        rows.push((label, vec![rel_bytes, mean(&tps)]));
    }
    TableData {
        id: "ablation-compress".into(),
        title: "Compressed SSM variants: weight bytes vs tokens/step (greedy)".into(),
        columns: vec!["rel. bytes".into(), "tokens/step".into()],
        rows,
        paper_reference: "§1/§5.3: SSMs may be quantized/pruned LLM variants; speculation \
                          quality should degrade gracefully with compression"
            .into(),
    }
}

/// §5.3 overhead accounting: memory and compute overheads of speculation
/// and verification relative to LLM inference, using *measured* tree
/// sizes and acceptance from the trained models.
pub fn overheads_table(suite: &Suite, params: &ExpParams) -> TableData {
    let expansion = ExpansionConfig::paper_default();
    let mode = InferenceMode::TreeSpeculative {
        expansion: expansion.clone(),
    };
    let b = measure_behavior(suite, params, &mode, DecodeMode::Greedy);

    let mut rows = Vec::new();
    for (llm, ssm) in [
        (LlmProfile::llama_7b(), LlmProfile::llama_68m()),
        (LlmProfile::opt_30b(), LlmProfile::opt_125m()),
        (LlmProfile::llama_65b(), LlmProfile::llama_68m()),
    ] {
        let r = specinfer_sim::overheads(
            &llm,
            &[ssm],
            b.mean_tree_size.round().max(1.0) as usize,
            b.tokens_per_step - 1.0, // accepted speculated tokens
            1024,
            expansion.depth(),
        );
        rows.push((
            llm.name.clone(),
            vec![
                100.0 * r.ssm_weight_fraction,
                100.0 * r.tree_kv_fraction,
                100.0 * r.speculation_compute_fraction,
                100.0 * r.wasted_verification_fraction,
            ],
        ));
    }
    TableData {
        id: "overheads".into(),
        title: "Speculation/verification overheads (% of LLM cost, §5.3)".into(),
        columns: vec![
            "SSM weights".into(),
            "tree KV @1k ctx".into(),
            "spec FLOPs".into(),
            "wasted verify".into(),
        ],
        rows,
        paper_reference: "§5.3: hosting each SSM adds <1% memory; token-tree KV is negligible \
                          vs long-sequence caches; speculation/verification compute rides on \
                          otherwise-idle GPU resources"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Scale;

    fn setup() -> (Suite, ExpParams) {
        (
            Suite::prepare(Scale::Smoke),
            ExpParams::for_scale(Scale::Smoke),
        )
    }

    #[test]
    fn behavior_of_incremental_is_unit() {
        let (suite, params) = setup();
        let b = measure_behavior(
            &suite,
            &params,
            &InferenceMode::Incremental,
            DecodeMode::Greedy,
        );
        assert_eq!(b.tokens_per_step, 1.0);
        assert_eq!(b.mean_tree_size, 0.0);
    }

    #[test]
    fn fig7_tree_beats_incremental_at_bs1() {
        let (suite, params) = setup();
        let t = fig7(&suite, &params);
        let inc = t
            .value("LLaMA-7B (1 GPU)/SpecInfer (incremental)", "BS=1")
            .unwrap();
        let tree = t
            .value("LLaMA-7B (1 GPU)/SpecInfer (tree)", "BS=1")
            .unwrap();
        // At smoke scale the SSM is barely trained, so only sanity-check
        // the plumbing: tree latency must be within a small factor of
        // incremental (the Full-scale win is checked by the repro run).
        assert!(tree < inc * 1.5, "tree {tree} vs incremental {inc}");
        assert!(tree > 0.0 && inc > 0.0);
        // Baselines exist for single-node settings only on vLLM/TGI.
        assert!(t.value("LLaMA-65B (2x4 GPUs)/vLLM", "BS=1").is_none());
        assert!(t
            .value("LLaMA-65B (2x4 GPUs)/FasterTransformer", "BS=1")
            .is_some());
    }

    #[test]
    fn fig8_speedup_exceeds_one() {
        let (suite, params) = setup();
        let t = fig8(&suite, &params);
        for bs in ["BS=1", "BS=16"] {
            let s = t.value("OPT-13B/speedup", bs).unwrap();
            assert!(s > 1.0, "{bs}: {s}");
        }
    }

    #[test]
    fn fig9_quantiles_are_monotone() {
        let (suite, params) = setup();
        let t = fig9(&suite, &params);
        for (label, values) in &t.rows {
            for w in values.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{label}: {values:?}");
            }
        }
    }

    #[test]
    fn fig11_sequence_is_never_faster() {
        let (suite, params) = setup();
        let t = fig11(&suite, &params);
        for bs in ["BS=1", "BS=4", "BS=16"] {
            let ratio = t.value("speedup", bs).unwrap();
            assert!(ratio >= 1.0, "{bs}: {ratio}");
        }
    }
}
