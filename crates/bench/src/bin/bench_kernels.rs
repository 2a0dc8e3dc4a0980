//! Machine-readable kernel and end-to-end throughput benchmark.
//!
//! Writes `BENCH_kernels.json` into the current directory:
//!
//! * `kernels` — GFLOP/s of the blocked matmul kernels and the
//!   packed-panel GEMM at square shapes, and of what a decode step runs
//!   at one row (the packed QKV projection, attention's serial block
//!   kernels), alongside the naive reference kernels, with the measured
//!   speedup. A row's fast and naive calls take turns.
//! * `ffn` — one feed-forward layer of a memory-bound LLM (`96×8192`
//!   up, `8192×96` down) stage by stage as a forward runs it: the two
//!   up-projections (`up_gemm`), the SwiGLU epilogue (the fused
//!   up-stage minus `up_gemm`) and the down-projection reading what the
//!   up-stage wrote, at decode,
//!   tree-verify and prefill row counts, at one thread and at every
//!   thread the machine has.
//! * `end_to_end` — tokens/step and tokens/s of incremental vs
//!   tree-speculative generation on the smoke-scale trained suite.
//! * `simd_backend` / `cpu_features` / `packed_tile` — which ISA
//!   backend the kernels dispatched to, what the host CPU reports and
//!   which packed register tile ran at which row count, so numbers are
//!   attributable (set `SPECINFER_SIMD=scalar` to bench the reference).
//!
//! Every time here is the median of interleaved calls (`medians`): the
//! stages of a row take turns, so a slow spell of the host falls on all
//! of them. Everything is seeded; numbers vary with the machine, shapes
//! don't.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;
use specinfer_bench::{Scale, Suite};
use specinfer_model::DecodeMode;
use specinfer_spec::{EngineConfig, InferenceMode, SpecEngine, StochasticVerifier};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{kernels, pack, pool, simd, PackedPanels, Tensor};
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
    /// The fused up-stage (`ffn_up_into`) minus `up_gemm_us`:
    /// `silu(g) · l` over `m × 8192` elements.
    epilogue_us: f64,
    /// `gate × W₂` (`ffn_down_into`), `gate` as the up-stage wrote it.
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
    /// The packed GEMM's register tile by row count for a row-major `A`
    /// against the `ffn` layer's up (`k = 96`) and down (`k = 8192`)
    /// packs, and for the FFN's own down-projection, e.g.
    /// `k = 96: avx2_4x16 (m < 5), avx512f_16x16 (m >= 5); k = 8192:
    /// avx2_4x16 (every m); ffn down: avx2_4x16 (m < 5), avx512f_16x16
    /// (m >= 5)`.
    packed_tile: String,
    kernels: Vec<KernelResult>,
    ffn: Vec<FfnResult>,
    end_to_end: Vec<EndToEnd>,
}

/// How long the calls of one row take turns.
const ROW_BUDGET_S: f64 = 0.75;

/// Seconds per call of each of `N` stages, timed the one way every row
/// here is: `round` runs one round, passing each stage's call through
/// `timed(stage, call)`, and rounds repeat for [`ROW_BUDGET_S`], so the
/// stages take turns and a slow spell of the host falls on all of
/// them. A stage's time is the median of its calls.
fn medians<const N: usize>(
    mut round: impl FnMut(&mut dyn FnMut(usize, &mut dyn FnMut())),
) -> [f64; N] {
    let mut calls: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ROW_BUDGET_S {
        round(&mut |stage, call| {
            let t = Instant::now();
            call();
            calls[stage].push(t.elapsed().as_secs_f64());
        });
    }
    calls.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    })
}

/// Medians of `fast` and `naive` calls, taking turns.
fn fast_and_naive(mut fast: impl FnMut(), mut naive: impl FnMut()) -> (f64, f64) {
    let [fast, naive] = medians(|timed| {
        timed(0, &mut fast);
        timed(1, &mut naive);
    });
    (fast, naive)
}

fn bench_kernels() -> Vec<KernelResult> {
    // As in the `ffn` rows: workers poll between calls rather than park,
    // so a fast call after a naive one does not time their wake-up.
    let _hot = pool::hot();
    let mut rng = SeededRng::new(1);
    let mut results = Vec::new();
    let mut push = |op: &str, (m, k, n): (usize, usize, usize), (fast, naive): (f64, f64)| {
        let flops = (2 * m * k * n) as f64;
        results.push(KernelResult {
            op: op.into(),
            m,
            k,
            n,
            fast_gflops: flops / fast / 1e9,
            ref_gflops: flops / naive / 1e9,
            speedup: naive / fast,
        });
    };
    let mut operands = |(m, k, n): (usize, usize, usize)| {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bt = b.transpose();
        (a, b, bt)
    };
    // Square shapes stress the blocked/parallel path of training.
    for shape in [(96usize, 96usize, 96usize), (256, 256, 256)] {
        let (a, b, bt) = operands(shape);
        let mut out = Tensor::default();
        let nn = fast_and_naive(
            || a.matmul_into(&b, &mut out),
            || drop(black_box(a.matmul_ref(&b))),
        );
        push("nn", shape, nn);
        let nt = fast_and_naive(
            || a.matmul_nt_into(&bt, &mut out),
            || drop(black_box(a.matmul_nt_ref(&bt))),
        );
        push("nt", shape, nt);
        let panels = PackedPanels::from_nn(b.data(), shape.1, shape.2);
        let packed = fast_and_naive(
            || a.matmul_packed_into(&panels, &mut out),
            || drop(black_box(a.matmul_ref(&b))),
        );
        push("nn_packed", shape, packed);
    }
    // The m = 1 rows are what a decode step runs: the fused QKV
    // projection against its packed panels (1, 96, 288), and one head's
    // attention over a 256-row context — its scores (1, 24, 256) and its
    // weighted sum of values (1, 256, 24) on the serial block kernels.
    let qkv = (1, 96, 288);
    let (a, b, _) = operands(qkv);
    let panels = PackedPanels::from_nn(b.data(), qkv.1, qkv.2);
    let mut out = Tensor::default();
    let packed = fast_and_naive(
        || a.matmul_packed_into(&panels, &mut out),
        || drop(black_box(a.matmul_ref(&b))),
    );
    push("nn_packed", qkv, packed);
    let scores = (1, 24, 256);
    let (a, _, bt) = operands(scores);
    let mut out = vec![0.0f32; scores.2];
    let block = fast_and_naive(
        || kernels::matmul_nt_block(a.data(), bt.data(), &mut out, 1, 24, 256),
        || drop(black_box(a.matmul_nt_ref(&bt))),
    );
    push("nt_block", scores, block);
    let sum = (1, 256, 24);
    let (a, b, _) = operands(sum);
    let mut out = vec![0.0f32; sum.2];
    let block = fast_and_naive(
        || {
            out.fill(0.0);
            kernels::matmul_nn_block(a.data(), b.data(), &mut out, 1, 256, 24)
        },
        || drop(black_box(a.matmul_ref(&b))),
    );
    push("nn_block", sum, block);
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
    for m in [1usize, 2, 5, 10, 20, 32] {
        let h = Tensor::randn(&[m, d], 1.0, &mut rng);
        let (mut gate, mut lin, mut proj) = (
            vec![0.0f32; m * d_ff],
            vec![0.0f32; m * d_ff],
            vec![0.0f32; m * d],
        );
        // One thread, then all of them (once, on a one-core machine).
        for threads in [1, all].into_iter().take(all.min(2)) {
            specinfer_tensor::set_max_threads(threads);
            let _hot = pool::hot();
            // The three stages take turns, layer after layer.
            let mut layers = (0..FFN_LAYERS).cycle();
            let [up_gemm_s, up_stage_s, down_s] = medians(|timed| {
                let l = layers.next().unwrap_or(0);
                timed(0, &mut || {
                    w1[l].matvec_into(h.data(), &mut gate);
                    w3[l].matvec_into(h.data(), &mut lin);
                });
                // The next layer's weights: this one's were just read.
                let n = (l + 1) % FFN_LAYERS;
                let mut hidden = None;
                timed(1, &mut || {
                    hidden = Some(w1[n].ffn_up_into(&w3[n], h.data(), &mut gate, &mut lin));
                });
                // The down-projection reads `gate` as the up-stage left
                // it, as `ffn_into` does.
                let hidden = hidden.expect("the up-stage ran");
                timed(2, &mut || w2[l].ffn_down_into(hidden, &gate, &mut proj));
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

/// Which packed register tile runs at which row count, for the `ffn`
/// layer's up and down packs against a row-major `A` and for the FFN's
/// down-projection.
fn packed_tiles() -> String {
    let tiles = |tile: &dyn Fn(usize) -> &'static str| {
        let first = tile(1);
        match (2..=64).find(|&m| tile(m) != first) {
            Some(m) => format!("{first} (m < {m}), {} (m >= {m})", tile(m)),
            None => format!("{first} (every m)"),
        }
    };
    format!(
        "k = 96: {}; k = 8192: {}; ffn down: {}",
        tiles(&|m| pack::packed_tile(m, 96)),
        tiles(&|m| pack::packed_tile(m, 8192)),
        tiles(&|m| pack::ffn_down_tile(m, 96, 8192)),
    )
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
        packed_tile: packed_tiles(),
        kernels,
        ffn,
        end_to_end,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("{json}");
    eprintln!("[bench_kernels] wrote BENCH_kernels.json");
}
