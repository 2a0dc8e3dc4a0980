//! The forward oracle: the kernel and model contracts under greedy tree
//! verification, as one enumerator of cells per layer.
//!
//! Greedy tree verification emits exactly what incremental decoding
//! would (§4.2) only if two lower contracts hold bitwise on every SIMD
//! backend: each kernel keeps one reduction order per output element,
//! whatever the thread count, the register tile or the rows stacked
//! with it; and a stacked forward's rows do not depend on each other.
//!
//! - A [`Gemm`] cell multiplies one shape on one backend at one thread
//!   count. Its reference is the blocked kernel on the same backend on
//!   one thread — on the scalar backend also the naive `matmul_ref` —
//!   and, for the FFN, the same rows run one at a time.
//! - A [`Fwd`] cell drives one model at one thread count through one way
//!   of forwarding rows ([`Drive`]). Its reference is `decode_one`, token
//!   by token on a fresh cache: every logits row the drive produced must
//!   equal it.
//!
//! Shapes are the ones the forwards multiply (the packs of `tiny_llm` at
//! `d_ff` 8192, `tiny_ssm` and `smoke`), the row counts decode (1–2),
//! verification (5–10) and prompts (16–48) bring, the edges of the
//! 4-row groups and 16-row blocks, of a k-slice and of a panel, and a fixed seeded
//! draw of random shapes. Outputs and scratch start as NaN wherever the
//! kernel overwrites them.
//!
//! A failing cell is reported by its `Debug` line, which names every
//! axis; the inputs are derived from it, so pasting the line into a
//! one-cell `run_gemm(&[..])` or `run_forward(&[..])` replays it.

use std::collections::HashMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use specinfer::model::{
    sampler, BatchRequest, DecodeMode, KvCache, ModelConfig, Transformer, Visibility,
};
use specinfer::spec::{
    speculate_dynamic, speculate_expansion, DynamicExpansionConfig, ExpansionMode,
};
use specinfer::tensor::rng::SeededRng;
use specinfer::tensor::{
    kernels, max_threads, ops, pool, set_max_threads, simd, PackedPanels, SimdBackend, Tensor,
};
use specinfer::tokentree::{ExpansionConfig, LinearizedTree, TokenId, TokenTree};

// ---------------------------------------------------------------------
// Running cells.
// ---------------------------------------------------------------------

/// Thread counts of every cell: the serial path, two and three workers
/// (a pack's panels split unevenly) and more threads than cores.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Held while a cell runs: the thread cap is process-global.
static THREAD_CAP: Mutex<()> = Mutex::new(());

/// Checks every cell, then fails with one line per failing cell.
fn run_cells<C: Debug>(cells: &[C], mut check: impl FnMut(&C)) {
    let mut failed = Vec::new();
    for cell in cells {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(cell))) {
            let text = panic.downcast_ref::<String>().map(String::as_str);
            let text = text.or_else(|| panic.downcast_ref::<&str>().copied());
            failed.push(format!("{cell:?}: {}", text.unwrap_or("panic")));
        }
    }
    let (n, all) = (failed.len(), cells.len());
    assert!(
        failed.is_empty(),
        "{n} of {all} cells failed:\n{}",
        failed.join("\n")
    );
}

/// Runs `f` with the thread cap at `threads`.
fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _cap = THREAD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    set_max_threads(threads);
    assert_eq!(max_threads(), threads, "the cap round-trips");
    let out = catch_unwind(AssertUnwindSafe(f));
    set_max_threads(0);
    out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn randn(len: usize, seed: u64) -> Vec<f32> {
    Tensor::randn(&[len], 1.0, &mut SeededRng::new(seed)).into_vec()
}

// ---------------------------------------------------------------------
// The GEMM layer.
// ---------------------------------------------------------------------

/// What a [`Gemm`] cell multiplies: the packed GEMM of every dense layer
/// (`PackedPanels::matvec_into_with`), one FFN (`Tensor::ffn_packed_into`,
/// up packs `[k, n]`, down pack `[n, k]`), training's blocked kernels
/// (`matmul_nn_with`, `matmul_nt_with`, `Tensor::matmul_tn` — scalar on
/// every backend) and attention's (`matmul_nn_block`, `matmul_nt_block`).
/// The FFN and the attention kernels run on the process's backend.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Packed,
    Ffn,
    Nn,
    Nt,
    Tn,
    NnBlock,
    NtBlock,
}

/// One multiply: `A [rows, k]` times `B [k, n]` (an `nt` operand is
/// stored `[n, k]`), on `backend` at `threads`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Gemm {
    backend: SimdBackend,
    threads: usize,
    op: Op,
    rows: usize,
    k: usize,
    n: usize,
}

/// Decode (1, 2), verification (5–10), prompts (16–48), both sides of
/// the AVX2 tile's four-row group and of the sixteen-row block, and past
/// the packed GEMM's 64-row spill.
const ROWS: [usize; 14] = [1, 2, 3, 4, 5, 7, 10, 15, 16, 17, 20, 33, 48, 65];

/// Row counts of a pack that is a pool region: one of each kind of call,
/// and whole blocks of 16 rows (at 16 and 32 the AVX-512F tile's
/// one-pass up-stage holds 32 accumulators).
const SHARED_ROWS: [usize; 8] = [1, 2, 5, 10, 16, 17, 32, 33];

/// `(k, n)` past the models' packs: the edges of the AVX2 and scalar
/// tiles' 256-step k-slice (and three slices), with ragged last panels.
const K_EDGES: [(usize, usize); 4] = [(255, 33), (256, 17), (257, 31), (600, 20)];

/// `n` of `k = 24` packs: panels around 16 and 48.
const N_EDGES: [usize; 4] = [1, 15, 47, 49];

/// `(k, n)` of FFNs past the models': `d_ff` off the panel grid with a
/// ragged output, and a down pack of two k-slices.
const FFN_EDGES: [(usize, usize); 2] = [(24, 200), (96, 300)];

/// `n` of `k = 8192` packs — pool regions — on both sides of each of the
/// first three panel boundaries (one panel is never split; fewer panels
/// than tasks), then six and eighteen panels.
const SHARED_N: [usize; 11] = [1, 15, 16, 17, 31, 33, 47, 48, 49, 96, 288];

/// The models the forwards run: `tiny_llm` at `d_ff` 8192, as the
/// serving benchmark inflates it, `tiny_ssm` and `smoke`.
fn configs() -> [ModelConfig; 3] {
    let llm = ModelConfig {
        d_ff: 8192,
        ..ModelConfig::tiny_llm()
    };
    [llm, ModelConfig::tiny_ssm(), ModelConfig::smoke()]
}

/// The shapes the property tests used to draw, as a fixed seeded draw:
/// `rows < 70`, `k < 300`, `n < 80`.
fn drawn() -> Vec<(usize, usize, usize)> {
    let mut rng = SeededRng::new(0x5eed);
    (0..12)
        .map(|_| (1 + rng.below(69), 1 + rng.below(299), 1 + rng.below(79)))
        .collect()
}

/// Every GEMM cell: each model's dense packs (QKV, attention output,
/// FFN up and down, LM head) and the edges at every row count on every
/// backend, as packed, blocked nn, nt and tn products — a pool region
/// packed only, at [`SHARED_ROWS`] — each model's FFN, and one head of
/// its attention over contexts of 3 to 256 rows.
fn gemm_cells() -> Vec<Gemm> {
    let (process, backends) = (simd::backend(), simd::available_backends());
    let mut shapes = K_EDGES.to_vec();
    shapes.extend(N_EDGES.map(|n| (24, n)));
    shapes.extend(SHARED_N.map(|n| (8192, n)));
    let mut cases = Vec::new();
    let mut add = |ops: &[Op], backends: &[SimdBackend], rows: &[usize], k, n| {
        for &op in ops {
            for &backend in backends {
                for &m in rows {
                    if !cases.contains(&(backend, op, m, k, n)) {
                        cases.push((backend, op, m, k, n));
                    }
                }
            }
        }
    };
    for (k, n) in FFN_EDGES {
        add(&[Op::Ffn], &[process], &ROWS, k, n);
    }
    for c in configs() {
        let (d, f, v, hd) = (c.d_model, c.d_ff, c.vocab_size, c.head_dim());
        shapes.extend([(d, 3 * d), (d, d), (d, f), (f, d), (d, v)]);
        let rows: &[usize] = if f > 1024 { &SHARED_ROWS } else { &ROWS };
        add(&[Op::Ffn], &[process], rows, d, f);
        for t in [3, 17, 48, 256] {
            add(&[Op::NtBlock], &[process], &ROWS, hd, t);
            add(&[Op::NnBlock], &[process], &ROWS, t, hd);
        }
    }
    for (k, n) in shapes {
        if 4 * k * n >= pool::MIN_SHARE_BYTES {
            add(&[Op::Packed], &backends, &SHARED_ROWS, k, n);
        } else {
            add(&[Op::Packed, Op::Nn, Op::Nt], &backends, &ROWS, k, n);
            add(&[Op::Tn], &[process], &ROWS, k, n);
        }
    }
    for (m, k, n) in drawn() {
        add(&[Op::Packed, Op::Nn, Op::Nt], &backends, &[m], k, n);
        add(&[Op::Tn], &[process], &[m], k, n);
    }
    let cell = |(backend, op, rows, k, n)| {
        THREADS.map(|threads| Gemm {
            backend,
            threads,
            op,
            rows,
            k,
            n,
        })
    };
    cases.into_iter().flat_map(cell).collect()
}

/// The operands of every shape seen so far: one long draw whose prefix
/// is every `A`, and each `B [k, n]` (number `salt`) transposed,
/// row-major and packed. An FFN of width `(k, n)` multiplies `B`s 0 and
/// 1 of `[k, n]` and `B` 2 of `[n, k]`.
#[derive(Default)]
struct Inputs {
    a: Vec<f32>,
    b: HashMap<(usize, usize, u64), (Tensor, Tensor, PackedPanels)>,
}

impl Inputs {
    fn a(&mut self, rows: usize, k: usize) -> Tensor {
        if self.a.len() < rows * k {
            self.a = randn(rows * k, 1);
        }
        Tensor::from_vec(self.a[..rows * k].to_vec(), &[rows, k])
    }

    fn b(&mut self, k: usize, n: usize, salt: u64) -> &(Tensor, Tensor, PackedPanels) {
        self.b.entry((k, n, salt)).or_insert_with(|| {
            let b = randn(k * n, 1000 + salt * 7919 + (k * 131 + n) as u64);
            let packed = PackedPanels::from_nn(&b, k, n);
            let b = Tensor::from_vec(b, &[k, n]);
            (b.transpose(), b, packed)
        })
    }
}

/// `cell`'s op at the current thread cap, from NaN outputs where the op
/// overwrites them.
fn multiply(cell: &Gemm, inputs: &mut Inputs) -> Vec<f32> {
    let (backend, op, m, k, n) = (cell.backend, cell.op, cell.rows, cell.k, cell.n);
    let x = inputs.a(m, k);
    if op == Op::Ffn {
        return ffn(&x, n, inputs);
    }
    let (bt, b, packed) = inputs.b(k, n, 0);
    let (a, mut out) = (x.data(), vec![f32::NAN; m * n]);
    match op {
        Op::Packed => packed.matvec_into_with(backend, a, &mut out),
        Op::Nt => kernels::matmul_nt_with(backend, a, bt.data(), &mut out, m, k, n),
        Op::NtBlock => kernels::matmul_nt_block(a, bt.data(), &mut out, m, k, n),
        Op::Nn | Op::NnBlock => {
            out.fill(0.0);
            match op {
                Op::Nn => kernels::matmul_nn_with(backend, a, b.data(), &mut out, m, k, n),
                _ => kernels::matmul_nn_block(a, b.data(), &mut out, m, k, n),
            }
        }
        Op::Tn | Op::Ffn => return x.transpose().matmul_tn(b).into_vec(),
    }
    out
}

/// `x`'s rows through the FFN of width `(x.cols(), n)`, scratch and
/// output starting as NaN.
fn ffn(x: &Tensor, n: usize, inputs: &mut Inputs) -> Vec<f32> {
    let (rows, k) = (x.rows(), x.cols());
    let keys = [(k, n, 0), (k, n, 1), (n, k, 2)];
    for (k, n, salt) in keys {
        inputs.b(k, n, salt);
    }
    let [w1, w3, w2] = keys.map(|key| &inputs.b[&key].2);
    let nan = |cols| Tensor::from_vec(vec![f32::NAN; rows * cols], &[rows, cols]);
    let (mut gate, mut out) = (nan(n), nan(k));
    x.ffn_packed_into(w1, w3, w2, &mut gate, &mut out);
    out.into_vec()
}

/// What every thread count of `cell`'s shape must produce, on one
/// thread: the blocked kernel on its backend, held to the naive loop
/// (bitwise on scalar, to rounding elsewhere) except where the blocked
/// cells of the shape hold it already; for the FFN its rows one at a
/// time, and on scalar the naive products and `ops::silu`.
fn gemm_reference(cell: &Gemm, inputs: &mut Inputs) -> Vec<f32> {
    let (op, m, k, n) = (cell.op, cell.rows, cell.k, cell.n);
    let scalar = cell.backend == SimdBackend::Scalar;
    let a = inputs.a(m, k);
    if op == Op::Ffn {
        let rows: Vec<f32> = (0..m)
            .flat_map(|r| ffn(&Tensor::from_vec(a.row(r).to_vec(), &[1, k]), n, inputs))
            .collect();
        if scalar {
            let [w1, w3, w2] = [(k, n, 0), (k, n, 1), (n, k, 2)].map(|key| &inputs.b[&key].1);
            let gated = ops::silu(&a.matmul_ref(w1)).mul(&a.matmul_ref(w3));
            assert!(rows == gated.matmul_ref(w2).data(), "scalar: not naive");
        }
        return rows;
    }
    let blocked = match op {
        Op::Nt | Op::NtBlock => Op::Nt,
        Op::Tn => Op::Tn,
        _ => Op::Nn,
    };
    let out = multiply(
        &Gemm {
            op: blocked,
            ..*cell
        },
        inputs,
    );
    if op == Op::Packed {
        return out;
    }
    let b = &inputs.b[&(k, n, 0)];
    let naive = match blocked {
        Op::Nt => a.matmul_nt_ref(&b.0),
        Op::Tn => a.transpose().matmul_tn_ref(&b.1),
        _ => a.matmul_ref(&b.1),
    };
    // Fused backends round each step once, the naive loop twice: the
    // same sums, a rounding apart.
    let tol = 1e-4 * (k as f32).sqrt();
    for (got, want) in out.iter().zip(naive.data()) {
        let close = (got - want).abs() <= tol.max(1e-4 * want.abs());
        assert!(close, "blocked {got} is not near naive {want}");
    }
    assert!(!scalar || out == naive.data(), "scalar: not naive");
    out
}

/// Checks `cells`, each against its shape's reference (the cell on one
/// thread), computed once for a run of cells of one shape.
fn run_gemm(cells: &[Gemm]) {
    let mut inputs = Inputs::default();
    let mut reference: Option<(Gemm, Vec<f32>)> = None;
    run_cells(cells, |cell| {
        let serial = Gemm {
            threads: 1,
            ..*cell
        };
        if reference.as_ref().is_none_or(|(have, _)| *have != serial) {
            reference = None;
            let want = at_threads(1, || gemm_reference(cell, &mut inputs));
            reference = Some((serial, want));
        }
        let got = at_threads(cell.threads, || multiply(cell, &mut inputs));
        let want = &reference.as_ref().expect("computed above").1;
        assert!(got == *want, "differs from the one-thread reference");
    });
}

#[test]
fn gemm_cells_hold_bitwise() {
    #[cfg(debug_assertions)]
    let regions = pool::shared_regions();
    run_gemm(&gemm_cells());
    #[cfg(debug_assertions)]
    assert!(
        pool::shared_regions() > regions,
        "no cell shared a region with the pool"
    );
}

// ---------------------------------------------------------------------
// The forward layer.
// ---------------------------------------------------------------------

/// Which model a [`Fwd`] cell drives — one of [`configs`] — with random
/// weights: at two threads or more the LLM's feed-forward packs are pool
/// regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Model {
    Llm,
    Ssm,
    Smoke,
}

impl Model {
    fn build(self) -> Transformer {
        Transformer::from_seed(configs()[self as usize].clone(), 40 + self as u64)
    }

    /// A prompt's length (at least 18, the drives take their short
    /// prompts from it) and a verified tree's rows: both sides of a
    /// 16-row block for the LLM's prompt and the SSM's tree.
    fn sizes(self) -> (usize, usize) {
        [(33, 10), (48, 17), (20, 21)][self as usize]
    }
}

/// How a [`Fwd`] cell forwards its rows.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Drive {
    /// A prompt in one causal forward.
    Prefill,
    /// A short prompt, then a token tree in one forward.
    Tree,
    /// One forward of three lanes — a session's first verification (the
    /// prompt rows its cache lacks ahead of a tree), a tree over a cached
    /// prompt, a one-token decode — then each lane goes on alone, the
    /// tree lanes from their deepest paths.
    Stacked,
    /// A prompt in two causal forwards.
    SplitPrefill,
    /// A tree, `retain_rows` down to its deepest root path, then a
    /// second tree on top.
    Retain,
    /// A prompt and more, `truncate` back into the prompt, then more.
    Truncate,
    /// `decode_sequences`: every root-to-leaf branch in a cache of its own.
    Sequences,
    /// A drafter's trees, top-k expansion level by level and best-first
    /// node by node; its rows are the recorded distributions.
    Draft,
}

/// One drive of one model at one thread count; `seed` draws its tokens
/// and trees.
#[derive(Clone, Copy, Debug)]
struct Fwd {
    model: Model,
    threads: usize,
    drive: Drive,
    seed: u64,
}

/// The rows of one drive: the sequence each follows, and the logits (or,
/// from a drafter, the distribution) it got.
struct Rows<'m> {
    model: &'m Transformer,
    rng: SeededRng,
    rows: Vec<(Vec<TokenId>, Vec<f32>, bool)>,
}

impl Rows<'_> {
    fn tokens(&mut self, n: usize) -> Vec<TokenId> {
        let vocab = self.model.config().vocab_size;
        (0..n).map(|_| self.rng.below(vocab) as TokenId).collect()
    }

    /// A tree of `nodes` nodes under `root`, each below a node drawn from
    /// the earlier ones: chains, stars and mixes.
    fn tree(&mut self, root: TokenId, nodes: usize) -> TokenTree {
        let (mut tree, mut ids) = (TokenTree::new(root), vec![TokenTree::ROOT]);
        for _ in 1..nodes {
            let (parent, token) = (ids[self.rng.below(ids.len())], self.tokens(1)[0]);
            ids.push(tree.add_child(parent, token, 0, 0.5));
        }
        tree
    }

    /// Records `logits`' rows as following `seqs`.
    fn record(&mut self, seqs: impl IntoIterator<Item = Vec<TokenId>>, logits: &Tensor) {
        let rows = seqs.into_iter().enumerate();
        self.rows
            .extend(rows.map(|(i, seq)| (seq, logits.row(i).to_vec(), false)));
    }

    /// `prefill` of `tokens` after `before` (what `cache` holds).
    fn prefill(&mut self, before: &[TokenId], tokens: &[TokenId], cache: &mut KvCache) {
        let logits = self.model.prefill(tokens, cache);
        let seqs: Vec<_> = (1..=tokens.len())
            .map(|i| [before, &tokens[..i]].concat())
            .collect();
        self.record(seqs, &logits);
    }

    /// `decode_tree` of `tree` after `before` (what `cache` holds).
    fn decode_tree(&mut self, before: &[TokenId], tree: &TokenTree, cache: &mut KvCache) {
        let lin = LinearizedTree::new(tree);
        let logits = self.model.decode_tree(&lin, cache);
        self.record(paths(before, tree, &lin), &logits);
    }
}

/// The sequences of `lin`'s rows: `before`, then each node's root path.
fn paths(before: &[TokenId], tree: &TokenTree, lin: &LinearizedTree) -> Vec<Vec<TokenId>> {
    let path = |&u| [before, &tree.sequence(u)].concat();
    lin.nodes().iter().map(path).collect()
}

/// Keeps in `cache` only the rows of `tree`'s deepest root path (`tree`
/// forwarded after `before`); returns the sequence the cache then holds.
fn keep_deepest(before: &[TokenId], tree: &TokenTree, cache: &mut KvCache) -> Vec<TokenId> {
    let lin = LinearizedTree::new(tree);
    let leaf = tree.node_ids().max_by_key(|&u| tree.depth(u));
    let leaf = leaf.expect("a root");
    let mut path = vec![leaf];
    while let Some(parent) = tree.parent(path[path.len() - 1]) {
        path.push(parent);
    }
    let keep: Vec<usize> = path.iter().rev().map(|&u| lin.index_of(u)).collect();
    cache.retain_rows(before.len(), &keep);
    [before, &tree.sequence(leaf)].concat()
}

/// Runs `cell`'s drive at the current thread cap.
fn drive(cell: &Fwd, model: &Transformer) -> Vec<(Vec<TokenId>, Vec<f32>, bool)> {
    let (prompt_len, tree_len) = cell.model.sizes();
    let rng = SeededRng::new(cell.seed);
    let mut d = Rows {
        model,
        rng,
        rows: Vec::new(),
    };
    let sized = |rows: usize| model.new_cache_with_capacity(rows);
    let prompt = d.tokens(prompt_len);
    let (short, root) = (&prompt[..5], prompt[5]);
    match cell.drive {
        Drive::Prefill => d.prefill(&[], &prompt, &mut sized(prompt_len)),
        Drive::SplitPrefill => {
            let split = 1 + d.rng.below(prompt_len - 1);
            let mut cache = sized(prompt_len);
            d.prefill(&[], &prompt[..split], &mut cache);
            d.prefill(&prompt[..split], &prompt[split..], &mut cache);
        }
        Drive::Tree | Drive::Retain => {
            let tree = d.tree(root, tree_len);
            let mut cache = sized(5 + tree_len + 5);
            d.prefill(&[], short, &mut cache);
            d.decode_tree(short, &tree, &mut cache);
            if cell.drive == Drive::Retain {
                let accepted = keep_deepest(short, &tree, &mut cache);
                assert!(accepted.len() > 6, "a path with an accepted node");
                let next = d.tree(prompt[6], 5);
                d.decode_tree(&accepted, &next, &mut cache);
            }
        }
        Drive::Truncate => {
            let mut cache = sized(18);
            d.prefill(&[], &prompt[..18], &mut cache);
            cache.truncate(9);
            let more = d.tokens(4);
            d.prefill(&prompt[..9], &more, &mut cache);
        }
        Drive::Sequences => {
            let tree = d.tree(root, tree_len);
            let mut cache = sized(5 + tree_len);
            d.prefill(&[], short, &mut cache);
            for (u, got) in model.decode_sequences(&tree, &cache) {
                d.rows
                    .push(([short, &tree.sequence(u)].concat(), got, false));
            }
        }
        Drive::Stacked => {
            // Lane 0 is a session's first verification: its cache is
            // empty and its prompt bar the last token, the tree's root,
            // rides ahead. Lane 1's cache holds its prompt already.
            let trees = [d.tree(root, tree_len / 2 + 1), d.tree(prompt[7], tree_len)];
            let lins = trees.each_ref().map(LinearizedTree::new);
            let (cached, decoded) = (&prompt[8..12], &prompt[12..15]);
            let mut caches = [sized(64), sized(64), sized(64)];
            d.prefill(&[], cached, &mut caches[1]);
            d.prefill(&[], decoded, &mut caches[2]);
            let tokens0 = [short, lins[0].tokens()].concat();
            let positions0: Vec<usize> = (0..5)
                .chain(lins[0].depths().iter().map(|t| 5 + t))
                .collect();
            let positions1: Vec<usize> = lins[1].depths().iter().map(|t| 4 + t).collect();
            let [c0, c1, c2] = &mut caches;
            let [v0, v1] = lins.each_ref().map(|lin| Visibility::Tree(lin.mask()));
            let request = |tokens, positions, cache, visible| BatchRequest {
                tokens,
                positions,
                cache,
                visible,
            };
            let out = model.forward_rows_batch(&mut [
                request(&tokens0, &positions0, c0, v0),
                request(lins[1].tokens(), &positions1, c1, v1),
                request(&prompt[15..16], &[3], c2, Visibility::Causal),
            ]);
            let prompt0 = (1..=5).map(|i| prompt[..i].to_vec());
            d.record(prompt0.chain(paths(short, &trees[0], &lins[0])), &out[0]);
            d.record(paths(cached, &trees[1], &lins[1]), &out[1]);
            d.record([prompt[12..16].to_vec()], &out[2]);
            let befores = [short, cached, &prompt[12..16]];
            for (lane, cache) in caches.iter_mut().enumerate() {
                let seq = match trees.get(lane) {
                    Some(tree) => keep_deepest(befores[lane], tree, cache),
                    None => befores[lane].to_vec(),
                };
                let more = d.tokens(2);
                d.prefill(&seq, &more, cache);
            }
        }
        Drive::Draft => {
            let mut base = model.new_cache();
            d.prefill(&[], short, &mut base);
            let best_first = DynamicExpansionConfig {
                max_nodes: tree_len,
                max_depth: 8,
                prob_threshold: 0.0,
                max_children: 2,
            };
            let (expansion, top_k) = (ExpansionConfig::new(vec![2, 2, 1]), ExpansionMode::TopK);
            let rng = &mut d.rng;
            let topk = speculate_expansion(model, &mut base.clone(), root, &expansion, top_k, rng);
            let dynamic = speculate_dynamic(model, &mut base.clone(), root, &best_first, 0);
            for spec in [topk, dynamic] {
                assert!(spec.tree.len() > 3, "a tree drafts");
                for u in spec.tree.node_ids() {
                    let got = spec.dists.get(u, 0).expect("one distribution per node");
                    d.rows
                        .push(([short, &spec.tree.sequence(u)].concat(), got.to_vec(), true));
                }
            }
        }
    }
    d.rows
}

/// Incremental decoding: `decode_one` token by token from a fresh cache,
/// each sequence's logits memoised, the caches of the last walked path
/// kept so that a sequence sharing its prefix continues from them.
#[derive(Default)]
struct Incremental {
    memo: HashMap<Vec<TokenId>, Vec<f32>>,
    path: Vec<TokenId>,
    caches: Vec<KvCache>,
}

impl Incremental {
    fn logits(&mut self, model: &Transformer, seq: &[TokenId]) -> &[f32] {
        if !self.memo.contains_key(seq) {
            let common = self.path.iter().zip(seq).take_while(|(a, b)| a == b);
            let common = common.count();
            self.path.truncate(common);
            self.caches.truncate(common);
            for &t in &seq[common..] {
                let cache = self.caches.last().cloned();
                let mut cache = cache.unwrap_or_else(|| model.new_cache());
                let logits = model.decode_one(t, &mut cache).into_vec();
                self.path.push(t);
                self.caches.push(cache);
                self.memo.insert(self.path.clone(), logits);
            }
        }
        &self.memo[seq]
    }
}

/// Checks `cells`, every row against incremental decoding.
fn run_forward(cells: &[Fwd]) {
    let mut models: HashMap<Model, (Transformer, Incremental)> = HashMap::new();
    run_cells(cells, |cell| {
        let (model, incremental) = models
            .entry(cell.model)
            .or_insert_with(|| (cell.model.build(), Incremental::default()));
        let mut rows = at_threads(cell.threads, || drive(cell, model));
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        at_threads(1, || {
            for (i, (seq, got, dist)) in rows.iter().enumerate() {
                let logits = incremental.logits(model, seq);
                let want = match dist {
                    true => sampler::probs_from_logits(logits, &DecodeMode::stochastic()),
                    false => logits.to_vec(),
                };
                let n = seq.len();
                assert!(*got == want, "row {i} (after {n} tokens) differs");
            }
        });
    });
}

#[test]
fn forward_cells_equal_incremental_decoding_bitwise() {
    let smoke = Model::Smoke.build();
    let ctx = smoke.config().max_seq_len;
    assert_eq!(smoke.new_cache_with_capacity(usize::MAX).max_len(), ctx);
    assert_eq!(smoke.new_cache_with_capacity(0).max_len(), 1);
    let drives = [
        Drive::Prefill,
        Drive::Tree,
        Drive::Stacked,
        Drive::SplitPrefill,
        Drive::Retain,
        Drive::Truncate,
        Drive::Sequences,
        Drive::Draft,
    ];
    let mut cells = Vec::new();
    for model in [Model::Llm, Model::Ssm, Model::Smoke] {
        for (i, drive) in drives.into_iter().enumerate() {
            let seed = 100 * model as u64 + i as u64;
            cells.extend(THREADS.map(|threads| Fwd {
                model,
                threads,
                drive,
                seed,
            }));
        }
    }
    run_forward(&cells);
}
