//! The component replay: times single calls into each layer's public
//! functions, on the shapes the workload produces, from outside.
//!
//! The shadow can see one `step_batch` call but not inside it. This
//! module prices its parts — kernel calls of the LLM's feed-forward
//! shape, `prefill` / `decode_one` / `decode_tree`, `retain_rows`,
//! `LinearizedTree::new`, `speculate_expansion`, `verify_greedy` — and
//! then replays sample requests through serial `Session::step` to see
//! how much of a step those essential parts explain.

use std::time::Instant;

use specinfer_model::{KvCache, Transformer};
use specinfer_spec::{
    speculate_expansion, verify_greedy, EngineConfig, ExpansionMode, Session, Speculation,
};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{kernels, simd, PackedPanels};
use specinfer_tokentree::{ExpansionConfig, LinearizedTree, TokenTree};

use crate::fixture::{self, Models};
use crate::stats;
use crate::workloads::RequestSpec;

/// Seconds spent repeating one call before its median is taken.
pub const CALL_BUDGET_S: f64 = 0.12;
/// Sample requests replayed through the model and the serial engine.
const SAMPLE_REQUESTS: usize = 4;
/// Longest drafted chain whose verify forward is timed directly; longer
/// trees are interpolated up to the paper's 21-row tree.
const MAX_CHAIN: usize = 8;

/// Median seconds of `call` over repetitions filling `budget_s` (at
/// least 5, at most 2000), with the number of repetitions.
fn time_call(budget_s: f64, mut call: impl FnMut() -> f64) -> (f64, usize) {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (started.elapsed().as_secs_f64() < budget_s && times.len() < 2000) {
        times.push(call());
    }
    (stats::median(&times), times.len())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed().as_secs_f64())
}

/// What the replay measured. Times in seconds.
#[derive(Debug, Default)]
pub struct Components {
    /// GFLOP/s of `[m, d] × [d, d_ff]` for m = 1, 5, 20, 256.
    pub gemm_gflops: [f64; 4],
    /// Weight, input and output bytes of the m = 1 product over its time.
    pub m1_gbytes_per_s: f64,
    pub decode_one_s: f64,
    /// `decode_tree` of a chain of `i + 2` rows (root plus `i + 1`
    /// drafted tokens), for `i` in `0..MAX_CHAIN`.
    pub decode_chain_s: Vec<f64>,
    /// `decode_tree` of the paper's default tree (root plus 20 nodes).
    pub decode_tree21_s: f64,
    pub tree21_rows: usize,
    pub prefill_s_per_token: f64,
    pub retain_rows_s: f64,
    pub linearize_s: f64,
    pub draft_s_per_node: f64,
    pub verify_walk_s: f64,
    /// Share of serial `Session::step` time the parts above do not
    /// explain.
    pub engine_overhead_share: f64,
    /// Calls behind the smallest sample above.
    pub samples: usize,
}

/// The kernel calls of one feed-forward projection, cycling over as many
/// distinct weight matrices as the model has (`3 × n_layers`), so a
/// model larger than the cache streams its weights here as it does in a
/// decode.
fn kernels_of(llm: &Transformer, budget_s: f64, out: &mut Components) {
    let (k, n) = (llm.config().d_model, llm.config().d_ff);
    let copies = 3 * llm.config().n_layers;
    let mut rng = SeededRng::new(0x6e6b);
    let dense: Vec<Vec<f32>> = (0..copies)
        .map(|_| (0..k * n).map(|_| rng.uniform() - 0.5).collect())
        .collect();
    let packed: Vec<PackedPanels> = dense
        .iter()
        .map(|w| PackedPanels::from_nn(w, k, n))
        .collect();
    let backend = simd::backend();
    let mut turn = 0usize;
    for (slot, m) in [1usize, 5, 20, 256].into_iter().enumerate() {
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform() - 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        let (s, reps) = time_call(budget_s, || {
            turn += 1;
            // The model takes the packed path up to PACKED_SMALL_M_MAX
            // rows and the blocked kernel above it.
            if m <= specinfer_tensor::PACKED_SMALL_M_MAX {
                let w = &packed[turn % copies];
                timed(|| w.matvec_into(&a, &mut c)).1
            } else {
                c.fill(0.0);
                let w = &dense[turn % copies];
                timed(|| kernels::matmul_nn_with(backend, &a, w, &mut c, m, k, n)).1
            }
        });
        out.gemm_gflops[slot] = 2.0 * (m * k * n) as f64 / s / 1e9;
        if m == 1 {
            out.m1_gbytes_per_s = 4.0 * (k * n + k + n) as f64 / s / 1e9;
        }
        out.samples = out.samples.min(reps);
    }
}

/// A context to decode on: the LLM and primary-SSM caches after a prompt
/// and a few generated tokens, and the token that roots the next tree.
struct Context {
    llm_cache: KvCache,
    ssm_cache: KvCache,
    root: u32,
}

fn context(llm: &Transformer, ssm: &Transformer, spec: &RequestSpec) -> (Context, f64) {
    let (&last, head) = spec.prompt.split_last().expect("prompts are never empty");
    let mut llm_cache = llm.new_cache();
    let ((), prefill_s) = timed(|| {
        llm.prefill(head, &mut llm_cache);
    });
    // Half of the output budget further on — the middle of the request.
    let ahead = fixture::greedy_reference(llm, &spec.prompt, spec.max_new_tokens / 2);
    let mut tokens = vec![last];
    tokens.extend(&ahead);
    let root = tokens.pop().expect("at least the prompt's last token");
    llm.prefill(&tokens, &mut llm_cache);
    let mut ssm_cache = ssm.new_cache();
    ssm.prefill(head, &mut ssm_cache);
    ssm.prefill(&tokens, &mut ssm_cache);
    let ctx = Context {
        llm_cache,
        ssm_cache,
        root,
    };
    (ctx, prefill_s / head.len().max(1) as f64)
}

fn draft(ssm: &Transformer, ctx: &mut Context, shape: &ExpansionConfig) -> Speculation {
    let mut rng = SeededRng::new(1);
    speculate_expansion(
        ssm,
        &mut ctx.ssm_cache,
        ctx.root,
        shape,
        ExpansionMode::TopK,
        &mut rng,
    )
}

/// Times the verify path of one tree shape at `ctx`: linearize,
/// `decode_tree`, `verify_greedy`, `retain_rows`. Leaves the cache as it
/// found it.
fn verify_path(llm: &Transformer, ctx: &mut Context, tree: &TokenTree) -> [f64; 4] {
    let base = ctx.llm_cache.len();
    let (lin, linearize_s) = timed(|| LinearizedTree::new(tree));
    let (logits, forward_s) = timed(|| llm.decode_tree(&lin, &mut ctx.llm_cache));
    let (outcome, walk_s) = timed(|| verify_greedy(tree, &lin, &logits));
    let mut keep = vec![0usize];
    keep.extend(outcome.nodes.iter().map(|&u| lin.index_of(u)));
    let ((), retain_s) = timed(|| ctx.llm_cache.retain_rows(base, &keep));
    ctx.llm_cache.truncate(base);
    [linearize_s, forward_s, walk_s, retain_s]
}

/// `budget_s` is the time spent repeating each call
/// ([`CALL_BUDGET_S`] in a real run, less in the contract check).
pub fn replay(
    models: &Models,
    engine: &EngineConfig,
    pool: bool,
    requests: &[RequestSpec],
    budget_s: f64,
) -> Components {
    let llm: &Transformer = &models.llm;
    let ssm: &Transformer = &models.ssms[0];
    let mut out = Components {
        samples: usize::MAX,
        ..Components::default()
    };
    kernels_of(llm, budget_s, &mut out);

    let chain = ExpansionConfig::sequence(4);
    let samples: Vec<&RequestSpec> = requests.iter().take(SAMPLE_REQUESTS).collect();
    // Per sample: prefill, decode_one, draft per node, then per tree
    // shape (chains of 1..=MAX_CHAIN nodes, then the paper tree) the
    // four parts of its verify path.
    let mut scalars: Vec<[f64; 3]> = Vec::new();
    let mut paths: Vec<Vec<[f64; 4]>> = Vec::new();
    for spec in &samples {
        let (mut ctx, prefill_s) = context(llm, ssm, spec);
        let base = ctx.llm_cache.len();
        let (decode_one_s, reps) = time_call(budget_s, || {
            let s = timed(|| llm.decode_one(ctx.root, &mut ctx.llm_cache)).1;
            ctx.llm_cache.truncate(base);
            s
        });
        out.samples = out.samples.min(reps);
        let (draft_s, _) = time_call(budget_s, || timed(|| draft(ssm, &mut ctx, &chain)).1);
        scalars.push([prefill_s, decode_one_s, draft_s / chain.node_count() as f64]);

        let mut trees: Vec<TokenTree> = (1..=MAX_CHAIN)
            .map(|k| draft(ssm, &mut ctx, &ExpansionConfig::sequence(k)).tree)
            .collect();
        trees.push(draft(ssm, &mut ctx, &ExpansionConfig::paper_default()).tree);
        out.tree21_rows = trees[MAX_CHAIN].len();
        let mut rounds: Vec<Vec<[f64; 4]>> = Vec::new();
        let started = Instant::now();
        while rounds.len() < 5
            || (started.elapsed().as_secs_f64() < 3.0 * budget_s && rounds.len() < 500)
        {
            rounds.push(
                trees
                    .iter()
                    .map(|t| verify_path(llm, &mut ctx, t))
                    .collect(),
            );
        }
        out.samples = out.samples.min(rounds.len());
        paths.push(
            (0..trees.len())
                .map(|t| {
                    let part = |c: usize| {
                        stats::median(&rounds.iter().map(|r| r[t][c]).collect::<Vec<_>>())
                    };
                    [part(0), part(1), part(2), part(3)]
                })
                .collect(),
        );
    }
    let scalar = |c: usize| stats::median(&scalars.iter().map(|p| p[c]).collect::<Vec<_>>());
    let path =
        |t: usize, c: usize| stats::median(&paths.iter().map(|p| p[t][c]).collect::<Vec<_>>());
    out.prefill_s_per_token = scalar(0);
    out.decode_one_s = scalar(1);
    out.draft_s_per_node = scalar(2);
    out.decode_chain_s = (0..MAX_CHAIN).map(|t| path(t, 1)).collect();
    out.decode_tree21_s = path(MAX_CHAIN, 1);
    out.linearize_s = path(MAX_CHAIN, 0);
    out.verify_walk_s = path(MAX_CHAIN, 2);
    out.retain_rows_s = path(MAX_CHAIN, 3);

    // Serial replay of the same requests under the workload's own engine
    // configuration: the essential parts priced above against what a
    // step really takes.
    let ssms: Vec<&Transformer> = if pool { models.ssm_refs() } else { Vec::new() };
    let (mut step_s, mut explained_s) = (0.0f64, 0.0f64);
    for spec in &samples {
        let mut engine = engine.clone();
        engine.max_new_tokens = spec.max_new_tokens;
        let mut session = Session::new(llm, &ssms, &spec.prompt, 0);
        while !session.is_finished() {
            let (stats, s) = timed(|| session.step(llm, &ssms, &engine));
            step_s += s;
            if let Some(st) = stats {
                explained_s += out.essential_step_s(st.tree_size);
            }
        }
    }
    out.engine_overhead_share = 1.0 - explained_s / step_s.max(f64::MIN_POSITIVE);
    out
}

impl Components {
    /// `decode_tree` of the 5-row chain the paper's cost argument is
    /// about.
    pub fn decode_tree5_s(&self) -> f64 {
        self.decode_chain_s[3]
    }

    /// LLM forward of `rows` rows: measured up to `MAX_CHAIN + 1` rows,
    /// interpolated from there to the paper tree, extrapolated beyond.
    fn llm_forward_s(&self, rows: usize) -> f64 {
        match rows {
            0 | 1 => self.decode_one_s,
            r if r <= MAX_CHAIN + 1 => self.decode_chain_s[r - 2],
            r => {
                let (r0, t0) = ((MAX_CHAIN + 1) as f64, self.decode_chain_s[MAX_CHAIN - 1]);
                let (r1, t1) = (
                    self.tree21_rows.max(MAX_CHAIN + 2) as f64,
                    self.decode_tree21_s,
                );
                t0 + (t1 - t0) * (r as f64 - r0) / (r1 - r0)
            }
        }
    }

    /// What a step that drafted `drafted` nodes must at least pay: the
    /// draft, the tree's linearization, one LLM forward of `drafted + 1`
    /// rows, the verification walk and the cache compaction.
    fn essential_step_s(&self, drafted: usize) -> f64 {
        let forward = self.llm_forward_s(drafted + 1);
        if drafted == 0 {
            return forward;
        }
        forward
            + drafted as f64 * self.draft_s_per_node
            + self.linearize_s
            + self.verify_walk_s
            + self.retain_rows_s
    }
}
