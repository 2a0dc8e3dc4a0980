//! Machine-readable kernel and end-to-end throughput benchmark.
//!
//! Writes `BENCH_kernels.json` into the current directory:
//!
//! * `kernels` — GFLOP/s of the blocked matmul kernels (and the
//!   packed-panel GEMM) at several shapes alongside the naive
//!   reference kernels, with the measured speedup.
//! * `ffn` — one feed-forward layer of a memory-bound LLM (`96×8192`
//!   up, `8192×96` down) stage by stage as a forward runs it: the two
//!   up-projections (`up_gemm`), the SwiGLU epilogue (the fused
//!   up-stage minus `up_gemm`) and the down-projection, at decode,
//!   tree-verify and prefill row counts, at one thread and at every
//!   thread the machine has.
//! * `end_to_end` — tokens/step and tokens/s of incremental vs
//!   tree-speculative generation on the smoke-scale trained suite.
//! * `simd_backend` / `cpu_features` — which ISA backend the kernels
//!   dispatched to and what the host CPU reports, so numbers are
//!   attributable (set `SPECINFER_SIMD=scalar` to bench the reference).
//!
//! Everything is seeded; numbers vary with the machine, shapes don't.

use std::time::Instant;

use serde::Serialize;
use specinfer_bench::{Scale, Suite};
use specinfer_model::DecodeMode;
use specinfer_spec::{EngineConfig, InferenceMode, SpecEngine, StochasticVerifier};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{pool, simd, PackedPanels, Tensor};
use specinfer_tokentree::ExpansionConfig;

#[derive(Serialize)]
struct KernelResult {
    op: String,
    m: usize,
    k: usize,
    n: usize,
    fast_gflops: f64,
    ref_gflops: f64,
    speedup: f64,
}

/// One feed-forward layer at one row count, stage by stage. Each call
/// runs the next of [`FFN_LAYERS`] layers' distinct weights, so they
/// come from memory as they do in a forward of a model larger than the
/// cache; times are per layer, inside a [`pool::hot`] bracket.
#[derive(Serialize)]
struct FfnResult {
    /// `set_max_threads` for this row: the caller plus pool workers.
    threads: usize,
    m: usize,
    /// `A × W₁` and `A × W₃` as two plain packed GEMMs.
    up_gemm_us: f64,
    /// The fused up-stage (`swiglu_packed_into`) minus `up_gemm_us`:
    /// `silu(g) · l` over `m × 8192` elements.
    epilogue_us: f64,
    /// `gate × W₂`.
    down_us: f64,
    up_gemm_gflops: f64,
    down_gflops: f64,
    /// Weight bytes the layer streams per forward, padding included:
    /// the packed GEMM walks each pack once whatever `m` is.
    weight_bytes: usize,
}

#[derive(Serialize)]
struct EndToEnd {
    mode: String,
    tokens: usize,
    llm_steps: usize,
    tokens_per_step: f64,
    tokens_per_s: f64,
}

#[derive(Serialize)]
struct Report {
    effective_threads: usize,
    simd_backend: String,
    cpu_features: Vec<String>,
    kernels: Vec<KernelResult>,
    ffn: Vec<FfnResult>,
    end_to_end: Vec<EndToEnd>,
}

/// Median-free quick timer: doubles the iteration count until a batch
/// takes ≥ 0.25 s, then reports seconds per iteration.
fn time_per_iter(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut iters = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed().as_secs_f64();
        if dt >= 0.25 {
            return dt / iters as f64;
        }
        iters *= 2;
    }
}

fn bench_kernels() -> Vec<KernelResult> {
    let mut rng = SeededRng::new(1);
    let mut results = Vec::new();
    // Square shapes stress the blocked/parallel path; the m=1 shapes are
    // the decode-time matvecs the SIMD backends exist for: fused QKV
    // (1,96,288), attention score against an L=256 key block (1,24,256),
    // and the value gather back down to head_dim (1,256,24).
    let shapes = &[
        (96usize, 96usize, 96usize),
        (256, 256, 256),
        (1, 96, 288),
        (1, 24, 256),
        (1, 256, 24),
    ];
    for &(m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bt = b.transpose();
        let flops = (2 * m * k * n) as f64;
        let mut out = Tensor::default();
        let fast_nn = time_per_iter(|| a.matmul_into(&b, &mut out));
        let ref_nn = time_per_iter(|| {
            std::hint::black_box(a.matmul_ref(&b));
        });
        results.push(KernelResult {
            op: "nn".into(),
            m,
            k,
            n,
            fast_gflops: flops / fast_nn / 1e9,
            ref_gflops: flops / ref_nn / 1e9,
            speedup: ref_nn / fast_nn,
        });
        let fast_nt = time_per_iter(|| a.matmul_nt_into(&bt, &mut out));
        let ref_nt = time_per_iter(|| {
            std::hint::black_box(a.matmul_nt_ref(&bt));
        });
        results.push(KernelResult {
            op: "nt".into(),
            m,
            k,
            n,
            fast_gflops: flops / fast_nt / 1e9,
            ref_gflops: flops / ref_nt / 1e9,
            speedup: ref_nt / fast_nt,
        });
        let panels = PackedPanels::from_nn(b.data(), k, n);
        let fast_packed = time_per_iter(|| a.matmul_packed_into(&panels, &mut out));
        results.push(KernelResult {
            op: "nn_packed".into(),
            m,
            k,
            n,
            fast_gflops: flops / fast_packed / 1e9,
            ref_gflops: flops / ref_nn / 1e9,
            speedup: ref_nn / fast_packed,
        });
    }
    results
}

/// Layers the feed-forward rows cycle over: three projections each,
/// 28 MB in all, as in the serving benchmark's inflated LLM.
const FFN_LAYERS: usize = 3;

fn bench_ffn() -> Vec<FfnResult> {
    let mut rng = SeededRng::new(2);
    let all = specinfer_tensor::effective_threads();
    let (d, d_ff) = (96usize, 8192usize);
    let mut pack = |k: usize, n: usize| -> Vec<PackedPanels> {
        (0..FFN_LAYERS)
            .map(|_| PackedPanels::from_nn(Tensor::randn(&[k, n], 0.1, &mut rng).data(), k, n))
            .collect()
    };
    let (w1, w3, w2) = (pack(d, d_ff), pack(d, d_ff), pack(d_ff, d));
    let mut results = Vec::new();
    for m in [1usize, 2, 5, 20, 32] {
        let h = Tensor::randn(&[m, d], 1.0, &mut rng);
        let (mut gate, mut lin, mut proj) =
            (Tensor::default(), Tensor::default(), Tensor::default());
        // One thread, then all of them (once, on a one-core machine).
        for threads in [1, all].into_iter().take(all.min(2)) {
            specinfer_tensor::set_max_threads(threads);
            let _hot = pool::hot();
            // The three stages take turns, layer after layer, so a slow
            // spell of the host falls on all of them; a stage's time is
            // the median of its calls.
            let mut calls: [Vec<f64>; 3] = Default::default();
            let start = Instant::now();
            for l in (0..FFN_LAYERS).cycle() {
                if start.elapsed().as_secs_f64() >= 0.75 {
                    break;
                }
                let mut timed = |stage: usize, f: &mut dyn FnMut()| {
                    let t = Instant::now();
                    f();
                    calls[stage].push(t.elapsed().as_secs_f64());
                };
                timed(0, &mut || {
                    h.matmul_packed_into(&w1[l], &mut gate);
                    h.matmul_packed_into(&w3[l], &mut lin);
                });
                // The next layer's weights: this one's were just read.
                let n = (l + 1) % FFN_LAYERS;
                timed(1, &mut || {
                    h.swiglu_packed_into(&w1[n], &w3[n], &mut gate, &mut lin)
                });
                timed(2, &mut || gate.matmul_packed_into(&w2[l], &mut proj));
            }
            let [up_gemm_s, up_stage_s, down_s] = calls.map(|mut v| {
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            });
            let flops = (2 * m * d * d_ff) as f64;
            results.push(FfnResult {
                threads,
                m,
                up_gemm_us: up_gemm_s * 1e6,
                epilogue_us: (up_stage_s - up_gemm_s) * 1e6,
                down_us: down_s * 1e6,
                up_gemm_gflops: 2.0 * flops / up_gemm_s / 1e9,
                down_gflops: flops / down_s / 1e9,
                weight_bytes: 4 * (2 * w1[0].packed_len() + w2[0].packed_len()),
            });
        }
        specinfer_tensor::set_max_threads(0);
    }
    results
}

fn run_mode(
    suite: &Suite,
    name: &str,
    mode: InferenceMode,
    ssm: &specinfer_model::Transformer,
) -> EndToEnd {
    let config = EngineConfig {
        decode: DecodeMode::Greedy,
        verifier: StochasticVerifier::MultiStep,
        mode,
        max_new_tokens: 64,
        eos_token: None,
    };
    let engine = SpecEngine::new(&suite.llm, vec![ssm], config);
    let prompt: Vec<u32> = vec![2, 3, 4];
    let t = Instant::now();
    let reps = 4;
    let mut tokens = 0;
    let mut steps = 0;
    for seed in 0..reps {
        let r = engine.generate(&prompt, seed);
        tokens += r.generated().len();
        steps += r.llm_steps();
    }
    let dt = t.elapsed().as_secs_f64();
    EndToEnd {
        mode: name.into(),
        tokens,
        llm_steps: steps,
        tokens_per_step: tokens as f64 / steps as f64,
        tokens_per_s: tokens as f64 / dt,
    }
}

fn main() {
    eprintln!("[bench_kernels] timing kernels…");
    let kernels = bench_kernels();
    eprintln!("[bench_kernels] timing the feed-forward stages…");
    let ffn = bench_ffn();
    eprintln!("[bench_kernels] preparing smoke suite…");
    let suite = Suite::prepare(Scale::Smoke);
    eprintln!("[bench_kernels] timing end-to-end generation…");
    let expansion = ExpansionConfig::new(vec![2, 2, 1]);
    let end_to_end = vec![
        run_mode(
            &suite,
            "incremental",
            InferenceMode::Incremental,
            &suite.ssm,
        ),
        run_mode(
            &suite,
            "tree_speculative",
            InferenceMode::TreeSpeculative {
                expansion: expansion.clone(),
            },
            &suite.ssm,
        ),
        // Upper bound: the LLM drafts for itself, so every speculated chain
        // is accepted — isolates the tree-verification machinery's ceiling.
        run_mode(
            &suite,
            "tree_speculative_selfdraft",
            InferenceMode::TreeSpeculative { expansion },
            &suite.llm,
        ),
    ];
    let report = Report {
        effective_threads: specinfer_tensor::effective_threads(),
        simd_backend: simd::backend().name().to_string(),
        cpu_features: simd::detected_features()
            .into_iter()
            .map(str::to_string)
            .collect(),
        kernels,
        ffn,
        end_to_end,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("{json}");
    eprintln!("[bench_kernels] wrote BENCH_kernels.json");
}
