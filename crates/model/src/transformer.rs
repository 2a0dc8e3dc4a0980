//! The decoder-only Transformer and its three decoding modes:
//! incremental, sequence-based (per-branch), and tree-based parallel
//! decoding with the topology-aware causal mask (§4.2 of the paper).

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use specinfer_tensor::{kernels, ops, pool, PackedPanels, Tensor};
use specinfer_tokentree::{LinearizedTree, NodeId, TokenId, TokenTree, TopologyMask};

use crate::config::ModelConfig;
use crate::kvcache::KvCache;
use crate::weights::{LayerWeights, ModelWeights};

/// Attention visibility policy for a batch of new rows appended on top of
/// an existing KV cache.
///
/// In every mode a query row may always see itself and every mode's
/// visibility of *future* batch rows is `false`; the policy decides
/// visibility of cache rows and earlier batch rows.
#[derive(Debug)]
pub enum Visibility<'a> {
    /// Ordinary causal decoding: row `i` sees all cache rows and batch
    /// rows `0..=i`. Used for prefill and incremental decoding.
    Causal,
    /// Tree decoding under the topology-aware causal mask. Once the
    /// batch is appended, the last `mask.len()` cache rows are the tree
    /// (laid out parents first); every earlier row is the prefix, and
    /// earlier rows of the batch among them are seen causally, as under
    /// [`Visibility::Causal`]. A tree row sees the whole prefix and
    /// exactly its tree ancestors. The verifier's batch is the rows its
    /// cache still lacks followed by the whole tree; a drafter's mask
    /// covers every tree row it has appended since the prefix.
    Tree(&'a TopologyMask),
}

/// One request's slot in a batched forward pass: the rows to append,
/// their absolute positions, the request's own KV cache, and its
/// attention pattern. Requests never see each other's caches — the
/// stacked pass is block-diagonal by construction.
#[derive(Debug)]
pub struct BatchRequest<'a> {
    /// Tokens to append (for tree verification, the linearized tree).
    pub tokens: &'a [TokenId],
    /// Absolute sequence position of each token (RoPE input).
    pub positions: &'a [usize],
    /// The request's KV cache; extended by `tokens.len()` rows.
    pub cache: &'a mut KvCache,
    /// Attention pattern of the new rows over this request's cache.
    pub visible: Visibility<'a>,
}

/// Writes one request's visibility block into `out`: row `i` (of `n`,
/// at stride `stride`) against cache columns `0..=old + i` (absolute row
/// indexing *after* the batch is appended). Everything this function
/// does not write stays as the caller left it (`false` for a cleared
/// buffer).
///
/// # Panics
///
/// Panics if a tree mask covers more rows than the whole cache.
fn fill_visibility_block(
    visible: &Visibility<'_>,
    n: usize,
    old: usize,
    out: &mut [bool],
    stride: usize,
) {
    // Columns below `prefix` are visible causally; a tree mask covers
    // the rest, whose first row is mask row 0.
    let (mask, prefix) = match visible {
        Visibility::Causal => (None, old + n),
        Visibility::Tree(mask) => {
            assert!(
                mask.len() <= old + n,
                "a tree mask covers at most the whole cache"
            );
            (Some(mask), old + n - mask.len())
        }
    };
    for i in 0..n {
        let row = &mut out[i * stride..i * stride + old + i + 1];
        for (j, ok) in row.iter_mut().enumerate() {
            *ok = match mask {
                Some(m) if j >= prefix => m.allowed(old + i - prefix, j - prefix),
                _ => true,
            };
        }
    }
}

/// Reusable per-thread buffers for [`Transformer::forward_rows_batch`].
///
/// Every large intermediate of the forward pass lives here, so once the
/// buffers have grown to steady-state size a decode step performs no
/// heap allocation beyond small per-call index vectors and the returned
/// logits tensors. One scratch per thread (not per model) is safe
/// because the pass fully resets each buffer before use.
#[derive(Default)]
struct ForwardScratch {
    /// Per-request visibility blocks `[nᵣ, totalᵣ]`, concatenated.
    vis: Vec<bool>,
    /// Residual stream, `[Σn, d]`.
    x: Tensor,
    /// RMS-normed hidden rows, `[Σn, d]`.
    h: Tensor,
    /// Fused Q|K|V projections, `[Σn, 3·d]`.
    qkv: Tensor,
    /// Attention output, `[Σn, d]`.
    att: Tensor,
    /// Attention/FFN residual write, `[Σn, d]`.
    proj: Tensor,
    /// SwiGLU gate, `[Σn, d_ff]`.
    gate: Tensor,
    /// SwiGLU linear branch, `[Σn, d_ff]`.
    lin: Tensor,
    /// RoPE inverse frequencies keyed by head_dim (LLM and SSMs with
    /// different head widths may share one thread).
    inv_freqs: Vec<(usize, Vec<f32>)>,
}

thread_local! {
    static SCRATCH: RefCell<ForwardScratch> = RefCell::new(ForwardScratch::default());
    /// Apart from [`SCRATCH`] because the thread running a forward holds
    /// that one borrowed while it claims attention tasks like any pool
    /// worker.
    static ATTN_SCRATCH: RefCell<AttnScratch> = RefCell::new(AttnScratch::default());
}

/// Per-thread buffers of the blocked attention path: the gathered
/// per-head query block, the dense score matrix, and the per-head
/// output block.
#[derive(Default)]
struct AttnScratch {
    q: Vec<f32>,
    scores: Vec<f32>,
    out: Vec<f32>,
}

/// Computes attention for query rows `i0..` of one request into
/// `att_chunk` (`chunk_rows × d`). Per head: one blocked `matmul_nt` of
/// the gathered query block against the head's contiguous key slab, a
/// masked ascending-`j` stable softmax over all `total` cache rows, and
/// one blocked `matmul_nn` against the value slab.
///
/// Bitwise determinism: every score is a single ascending-`k` dot; the
/// max and denominator fold over columns in ascending-`j` order; masked
/// columns contribute an exact `0.0` weight, and adding `0.0` (or a
/// `0.0 · v` product) to a non-negative running sum leaves it bitwise
/// unchanged — so the result per output element is identical to a
/// visible-columns-only gather, independent of how query rows are
/// partitioned across threads.
#[allow(clippy::too_many_arguments)]
fn attention_block(
    att_chunk: &mut [f32],
    i0: usize,
    qkv: &Tensor,
    q_row0: usize,
    vis: &[bool],
    cache: &KvCache,
    layer_idx: usize,
    total: usize,
    n_heads: usize,
    hd: usize,
    scale: f32,
    s: &mut AttnScratch,
) {
    let d = n_heads * hd;
    let rows = att_chunk.len() / d;
    s.q.resize(rows * hd, 0.0);
    s.scores.resize(rows * total, 0.0);
    s.out.resize(rows * hd, 0.0);
    for head in 0..n_heads {
        let hcol = head * hd;
        for r in 0..rows {
            let src = &qkv.row(q_row0 + i0 + r)[hcol..hcol + hd];
            s.q[r * hd..(r + 1) * hd].copy_from_slice(src);
        }
        let k_head = cache.key_head(layer_idx, head);
        debug_assert_eq!(k_head.len(), total * hd, "key slab rows mismatch");
        kernels::matmul_nt_block(&s.q, k_head, &mut s.scores, rows, hd, total);
        for r in 0..rows {
            let i = i0 + r;
            let srow = &mut s.scores[r * total..(r + 1) * total];
            let vrow = &vis[i * total..(i + 1) * total];
            // Stable softmax over visible columns; masked columns become
            // exactly 0.0 so the blocked probs×V matmul skips them
            // arithmetically without skipping them structurally.
            let mut max = f32::NEG_INFINITY;
            for (sv, &ok) in srow.iter_mut().zip(vrow.iter()) {
                if ok {
                    *sv *= scale;
                    max = max.max(*sv);
                }
            }
            let mut denom = 0.0f32;
            for (sv, &ok) in srow.iter_mut().zip(vrow.iter()) {
                let w = if ok { (*sv - max).exp() } else { 0.0 };
                denom += w;
                *sv = w;
            }
            for sv in srow.iter_mut() {
                *sv /= denom;
            }
        }
        let v_head = cache.value_head(layer_idx, head);
        debug_assert_eq!(v_head.len(), total * hd, "value slab rows mismatch");
        s.out.fill(0.0);
        kernels::matmul_nn_block(&s.scores, v_head, &mut s.out, rows, total, hd);
        for r in 0..rows {
            att_chunk[r * d + hcol..r * d + hcol + hd]
                .copy_from_slice(&s.out[r * hd..(r + 1) * hd]);
        }
    }
}

/// Derived inference-time weight representations, built once and
/// reused by every forward: packed column panels (see
/// [`specinfer_tensor::pack`]) of every dense weight, the per-layer Q, K
/// and V projections fused into one `[d, 3·d]` operand. Built lazily on
/// first forward, dropped by [`Transformer::weights_mut`] so training
/// always sees fresh weights.
#[derive(Debug)]
struct DecodePacks {
    /// Panel-packed fused Q|K|V projection per layer.
    qkv: Vec<PackedPanels>,
    /// Panel-packed attention output projection per layer.
    wo: Vec<PackedPanels>,
    /// Panel-packed SwiGLU gate / up / down projections per layer.
    w1: Vec<PackedPanels>,
    w3: Vec<PackedPanels>,
    w2: Vec<PackedPanels>,
    /// Panel-packed output head.
    lm_head: PackedPanels,
}

impl DecodePacks {
    /// Whether any pack is large enough to be multiplied as a pool
    /// region: such a model's forward brackets itself [`pool::hot`].
    fn shares_pool(&self) -> bool {
        [&self.qkv, &self.wo, &self.w1, &self.w3, &self.w2]
            .into_iter()
            .flatten()
            .chain([&self.lm_head])
            .any(PackedPanels::shares_pool)
    }
}

/// Dense `x × W` against `W`'s packed panels, at every row count: a
/// decode step, a tree verify and a prefill read each weight once. Per
/// element the packed product is the blocked matmul's reduction chain
/// (packing changes layout, not order), so stacked batches and solo rows
/// agree bitwise with each other and with [`Tensor::matmul`].
fn dense_into(x: &Tensor, panels: &PackedPanels, out: &mut Tensor) {
    x.matmul_packed_into(panels, out);
}

/// A decoder-only Transformer (RMSNorm + RoPE + SwiGLU) with explicit KV
/// cache management.
///
/// The same type serves as both the "LLM" and the "SSM" of the SpecInfer
/// setup, at different [`ModelConfig`] scales.
///
/// # Example
///
/// ```
/// use specinfer_model::{ModelConfig, Transformer};
///
/// let model = Transformer::from_seed(ModelConfig::smoke(), 1);
/// let mut cache = model.new_cache();
/// let logits = model.prefill(&[1, 2, 3], &mut cache);
/// assert_eq!(logits.dims(), &[3, model.config().vocab_size]);
/// ```
#[derive(Debug, Clone)]
pub struct Transformer {
    config: ModelConfig,
    weights: ModelWeights,
    /// Inference-time weight representations (packed panels, Q|K|V
    /// fused): row `r` of the fused operand is
    /// `wq.row(r) ‖ wk.row(r) ‖ wv.row(r)`, so one matmul per layer
    /// replaces three. Columns reduce over `k` in the same ascending
    /// order as the separate matmuls, so the projected values are
    /// bitwise identical. Built lazily on first use; dropped by
    /// [`Transformer::weights_mut`] so training sees fresh weights.
    packs: OnceLock<Arc<DecodePacks>>,
}

impl Transformer {
    /// Wraps existing weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent.
    pub fn new(config: ModelConfig, weights: ModelWeights) -> Self {
        config.validate();
        Transformer {
            config,
            weights,
            packs: OnceLock::new(),
        }
    }

    /// Creates a model with random weights derived from `seed`.
    pub fn from_seed(config: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::init(&config, seed);
        Transformer {
            config,
            weights,
            packs: OnceLock::new(),
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model's weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Mutable access to the weights (used by training).
    pub fn weights_mut(&mut self) -> &mut ModelWeights {
        // The decode packs mirror the dense weights; any mutation
        // invalidates them.
        self.packs.take();
        &mut self.weights
    }

    /// The inference-time weight representations: packed panels of
    /// every dense weight, Q|K|V fused per layer.
    fn decode_packs(&self) -> Arc<DecodePacks> {
        Arc::clone(self.packs.get_or_init(|| {
            let d = self.config.d_model;
            let layers = &self.weights.layers;
            let pack_nn = |w: &Tensor| PackedPanels::from_nn(w.data(), w.rows(), w.cols());
            let pack_qkv = |layer: &LayerWeights| {
                let mut fused = Vec::with_capacity(d * 3 * d);
                for r in 0..d {
                    fused.extend_from_slice(layer.wq.row(r));
                    fused.extend_from_slice(layer.wk.row(r));
                    fused.extend_from_slice(layer.wv.row(r));
                }
                PackedPanels::from_nn(&fused, d, 3 * d)
            };
            Arc::new(DecodePacks {
                qkv: layers.iter().map(pack_qkv).collect(),
                wo: layers.iter().map(|l| pack_nn(&l.wo)).collect(),
                w1: layers.iter().map(|l| pack_nn(&l.w1)).collect(),
                w3: layers.iter().map(|l| pack_nn(&l.w3)).collect(),
                w2: layers.iter().map(|l| pack_nn(&l.w2)).collect(),
                lm_head: pack_nn(&self.weights.lm_head),
            })
        }))
    }

    /// Creates an empty KV cache sized for this model.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(
            self.config.n_layers,
            self.config.n_heads,
            self.config.head_dim(),
            self.config.max_seq_len,
        )
    }

    /// Creates an empty KV cache with a capacity of `rows`, clamped to
    /// `[1, max_seq_len]`. Ragged serving sizes each session's slab to
    /// `prompt + max_new + speculation_rows` instead of the model-wide
    /// maximum, so hundreds of short requests fit in memory at once.
    pub fn new_cache_with_capacity(&self, rows: usize) -> KvCache {
        KvCache::new(
            self.config.n_layers,
            self.config.n_heads,
            self.config.head_dim(),
            rows.clamp(1, self.config.max_seq_len),
        )
    }

    /// Runs a batch of `tokens` at sequence `positions` on top of `cache`,
    /// appending their keys/values, and returns logits `[n, vocab]`.
    ///
    /// This is the single entry point that all decoding modes reduce to;
    /// `visible` selects the attention pattern. The cache is extended by
    /// `tokens.len()` rows; callers performing speculation are expected to
    /// truncate or [`KvCache::retain_rows`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree, a token is out of vocabulary, or the
    /// cache would overflow.
    pub fn forward_rows(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut KvCache,
        visible: Visibility<'_>,
    ) -> Tensor {
        let mut reqs = [BatchRequest {
            tokens,
            positions,
            cache,
            visible,
        }];
        match self.forward_rows_batch(&mut reqs).pop() {
            Some(logits) => logits,
            None => unreachable!("one request in yields one logits tensor out"),
        }
    }

    /// Runs several independent requests through one stacked forward
    /// pass (§5's iteration-level batched verification): the new rows of
    /// all requests are concatenated into one `[Σnᵢ, d]` activation
    /// batch for the dense layers, while attention stays block-diagonal
    /// — each request's query rows attend only to that request's own
    /// cache. Returns per-request logits `[nᵢ, vocab]`, in batch order.
    ///
    /// Every dense op reduces per output element over the same
    /// ascending-`k` order regardless of how many rows are stacked, and
    /// attention sees per request exactly the cache and mask a solo
    /// [`Transformer::forward_rows`] call would, so each request's
    /// logits are bitwise identical to running it alone.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty, a request is malformed (no tokens,
    /// length mismatch, wrong cache geometry, out-of-vocabulary token),
    /// or a cache would overflow.
    pub fn forward_rows_batch(&self, reqs: &mut [BatchRequest<'_>]) -> Vec<Tensor> {
        assert!(!reqs.is_empty(), "batched forward requires a request");
        let d = self.config.d_model;
        let n_heads = self.config.n_heads;
        let hd = self.config.head_dim();
        let vocab = self.config.vocab_size;
        let packs = self.decode_packs();

        // Per-request geometry: row counts, stacked row offsets, cache
        // lengths before/after, and offsets into the concatenated
        // visibility buffer.
        let ns: Vec<usize> = reqs.iter().map(|q| q.tokens.len()).collect();
        let olds: Vec<usize> = reqs.iter().map(|q| q.cache.len()).collect();
        let totals: Vec<usize> = ns.iter().zip(&olds).map(|(n, o)| n + o).collect();
        for (r, q) in reqs.iter().enumerate() {
            assert!(
                ns[r] > 0,
                "request {r}: forward requires at least one token"
            );
            assert_eq!(
                q.positions.len(),
                ns[r],
                "request {r}: one position per token required"
            );
            assert_eq!(
                (q.cache.n_heads(), q.cache.head_dim()),
                (n_heads, hd),
                "request {r}: cache geometry does not match the model"
            );
        }
        let offs: Vec<usize> = ns
            .iter()
            .scan(0usize, |acc, &n| {
                let o = *acc;
                *acc += n;
                Some(o)
            })
            .collect();
        let vis_offs: Vec<usize> = ns
            .iter()
            .zip(&totals)
            .scan(0usize, |acc, (&n, &t)| {
                let o = *acc;
                *acc += n * t;
                Some(o)
            })
            .collect();
        let big_n: usize = ns.iter().sum();
        let vis_len: usize = ns.iter().zip(&totals).map(|(&n, &t)| n * t).sum();

        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();

            // Materialize each request's visibility block once:
            // vis[i][j] for absolute row j of that request's cache
            // (layout after this batch is appended).
            s.vis.clear();
            s.vis.resize(vis_len, false);
            for (r, q) in reqs.iter().enumerate() {
                fill_visibility_block(
                    &q.visible,
                    ns[r],
                    olds[r],
                    &mut s.vis[vis_offs[r]..vis_offs[r] + ns[r] * totals[r]],
                    totals[r],
                );
            }

            // RoPE inverse frequencies for this head width.
            let fi = match s.inv_freqs.iter().position(|(h, _)| *h == hd) {
                Some(i) => i,
                None => {
                    s.inv_freqs
                        .push((hd, ops::rope_inv_freqs(hd, ModelConfig::ROPE_BASE)));
                    s.inv_freqs.len() - 1
                }
            };

            // Embedding gather straight into the stacked residual buffer.
            s.x.reset(&[big_n, d]);
            for (r, q) in reqs.iter().enumerate() {
                for (i, &t) in q.tokens.iter().enumerate() {
                    assert!((t as usize) < vocab, "token {t} outside vocabulary {vocab}");
                    s.x.row_mut(offs[r] + i)
                        .copy_from_slice(self.weights.embed.row(t as usize));
                }
            }

            // From here on only positions and caches are needed; taking
            // the caches out lets the attention region share them.
            let positions: Vec<&[usize]> = reqs.iter().map(|q| q.positions).collect();
            let mut caches: Vec<&mut KvCache> = reqs.iter_mut().map(|q| &mut *q.cache).collect();
            // Attention tasks of one layer, by the key/value bytes its
            // score and weighted-sum products stream.
            let att_bytes: usize = ns.iter().zip(&totals).map(|(&n, &t)| 4 * n * t * d).sum();
            let att_tasks = pool::tasks_for(big_n, att_bytes);
            // An LLM-sized model issues regions in quick succession:
            // keep the workers polling between them until the pass ends.
            let _hot = packs.shares_pool().then(pool::hot);

            let scale = 1.0 / (hd as f32).sqrt();
            for (layer_idx, layer) in self.weights.layers.iter().enumerate() {
                ops::rmsnorm_rows_into(&s.x, &layer.attn_norm, ModelConfig::RMS_EPS, &mut s.h);
                // One fused matmul computes Q|K|V side by side for the
                // whole stacked batch.
                dense_into(&s.h, &packs.qkv[layer_idx], &mut s.qkv);
                for (r, positions) in positions.iter().enumerate() {
                    for (i, &pos) in positions.iter().enumerate() {
                        let row = s.qkv.row_mut(offs[r] + i);
                        let inv = &s.inv_freqs[fi].1;
                        ops::rope_rotate_row_cached(&mut row[..d], pos, inv);
                        ops::rope_rotate_row_cached(&mut row[d..2 * d], pos, inv);
                    }
                }
                for (r, cache) in caches.iter_mut().enumerate() {
                    cache.append_layer_fused_rows(
                        layer_idx,
                        &s.qkv.data()[offs[r] * 3 * d..],
                        3 * d,
                        d,
                        2 * d,
                        ns[r],
                    );
                }

                // Blocked attention, block-diagonal (request r's queries
                // score only request r's cache), as one pool region over
                // runs of stacked query rows. Every reduction runs in
                // the same ascending order wherever a run is cut, so the
                // output is bitwise independent of the partitioning.
                s.att.reset(&[big_n, d]);
                let (qkv, vis, caches) = (&s.qkv, &s.vis, &caches);
                pool::run_chunks(s.att.data_mut(), d, att_tasks, |row0, rows| {
                    ATTN_SCRATCH.with(|cell| {
                        let scratch = &mut *cell.borrow_mut();
                        let row1 = row0 + rows.len() / d;
                        for (r, cache) in caches.iter().enumerate() {
                            let (lo, hi) = (row0.max(offs[r]), row1.min(offs[r] + ns[r]));
                            if lo >= hi {
                                continue;
                            }
                            attention_block(
                                &mut rows[(lo - row0) * d..(hi - row0) * d],
                                lo - offs[r],
                                qkv,
                                offs[r],
                                &vis[vis_offs[r]..vis_offs[r] + ns[r] * totals[r]],
                                cache,
                                layer_idx,
                                totals[r],
                                n_heads,
                                hd,
                                scale,
                                scratch,
                            );
                        }
                    });
                });
                dense_into(&s.att, &packs.wo[layer_idx], &mut s.proj);
                s.x.add_assign(&s.proj);

                ops::rmsnorm_rows_into(&s.x, &layer.ffn_norm, ModelConfig::RMS_EPS, &mut s.h);
                s.h.swiglu_packed_into(
                    &packs.w1[layer_idx],
                    &packs.w3[layer_idx],
                    &mut s.gate,
                    &mut s.lin,
                );
                dense_into(&s.gate, &packs.w2[layer_idx], &mut s.proj);
                s.x.add_assign(&s.proj);
            }
            for (r, cache) in caches.iter_mut().enumerate() {
                cache.commit_rows(ns[r]);
            }

            ops::rmsnorm_rows_into(
                &s.x,
                &self.weights.final_norm,
                ModelConfig::RMS_EPS,
                &mut s.h,
            );
            let mut logits = Tensor::default();
            dense_into(&s.h, &packs.lm_head, &mut logits);
            if ns.len() == 1 {
                vec![logits]
            } else {
                (0..ns.len())
                    .map(|r| {
                        Tensor::from_vec(
                            logits.data()[offs[r] * vocab..(offs[r] + ns[r]) * vocab].to_vec(),
                            &[ns[r], vocab],
                        )
                    })
                    .collect()
            }
        })
    }

    /// Processes a span of tokens causally (prompt prefill or replaying
    /// verified tokens), appending them to the cache. Positions continue
    /// from the current cache length. Returns logits `[n, vocab]`.
    pub fn prefill(&self, tokens: &[TokenId], cache: &mut KvCache) -> Tensor {
        let start = cache.len();
        let positions: Vec<usize> = (start..start + tokens.len()).collect();
        self.forward_rows(tokens, &positions, cache, Visibility::Causal)
    }

    /// One step of ordinary incremental decoding (Algorithm 1): appends a
    /// single token and returns its next-token logits `[vocab]`.
    pub fn decode_one(&self, token: TokenId, cache: &mut KvCache) -> Tensor {
        let pos = cache.len();
        let logits = self.forward_rows(&[token], &[pos], cache, Visibility::Causal);
        let vocab = self.config.vocab_size;
        logits.reshape(&[vocab])
    }

    /// Tree-based parallel decoding (§4.2): runs the whole linearized
    /// token tree — verified root plus all speculated tokens — in a single
    /// pass with the topology-aware causal mask, returning logits
    /// `[tree_len, vocab]` in linear (DFS) order.
    ///
    /// The cache gains one row per tree node; after verification the
    /// caller keeps the accepted path with [`KvCache::retain_rows`].
    pub fn decode_tree(&self, lin: &LinearizedTree, cache: &mut KvCache) -> Tensor {
        let base = cache.len();
        let positions: Vec<usize> = lin.depths().iter().map(|d| base + d).collect();
        self.forward_rows(
            lin.tokens(),
            &positions,
            cache,
            Visibility::Tree(lin.mask()),
        )
    }

    /// Sequence-based parallel decoding — the baseline of Figure 4: each
    /// root-to-leaf branch of the tree is decoded independently on a
    /// cloned cache (redundant computation for shared prefixes, one
    /// "kernel" per branch). Returns per-node logits keyed by node id.
    ///
    /// The incoming cache is left untouched; this mode exists for the
    /// equivalence tests and the Figure 11 comparison.
    pub fn decode_sequences(&self, tree: &TokenTree, cache: &KvCache) -> Vec<(NodeId, Vec<f32>)> {
        let base = cache.len();
        let mut results: Vec<(NodeId, Vec<f32>)> = Vec::with_capacity(tree.len());
        let mut seen = vec![false; tree.len()];
        for leaf in tree.leaves() {
            // Path root→leaf.
            let mut path = Vec::new();
            let mut cur = Some(leaf);
            while let Some(u) = cur {
                path.push(u);
                cur = tree.parent(u);
            }
            path.reverse();
            let tokens: Vec<TokenId> = path.iter().map(|&u| tree.token(u)).collect();
            let positions: Vec<usize> = (base..base + tokens.len()).collect();
            let mut branch_cache = cache.clone();
            let logits =
                self.forward_rows(&tokens, &positions, &mut branch_cache, Visibility::Causal);
            for (row, &u) in path.iter().enumerate() {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    results.push((u, logits.row(row).to_vec()));
                }
            }
        }
        results
    }

    /// Convenience: full causal logits for a stand-alone token sequence
    /// (fresh cache). Returns `[len, vocab]`.
    pub fn logits_for_sequence(&self, tokens: &[TokenId]) -> Tensor {
        let mut cache = self.new_cache();
        self.prefill(tokens, &mut cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_tokentree::TokenTree;

    fn model() -> Transformer {
        Transformer::from_seed(ModelConfig::smoke(), 42)
    }

    fn spec_tree() -> TokenTree {
        // root 5 → {1 → {2, 3 → 4}, 6 → 7}
        let mut t = TokenTree::new(5);
        let a = t.add_child(TokenTree::ROOT, 1, 0, 0.5);
        let _ = t.add_child(a, 2, 0, 0.5);
        let b = t.add_child(a, 3, 0, 0.5);
        let _ = t.add_child(b, 4, 0, 0.5);
        let c = t.add_child(TokenTree::ROOT, 6, 0, 0.5);
        let _ = t.add_child(c, 7, 0, 0.5);
        t
    }

    #[test]
    fn prefill_shapes() {
        let m = model();
        let mut cache = m.new_cache();
        let logits = m.prefill(&[1, 2, 3, 4], &mut cache);
        assert_eq!(logits.dims(), &[4, m.config().vocab_size]);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn budgeted_cache_is_bitwise_identical_to_full_capacity() {
        let m = model();
        let seq: Vec<TokenId> = vec![3, 1, 4, 1, 5, 9, 2, 6];

        let mut full = m.new_cache();
        let mut tight = m.new_cache_with_capacity(seq.len());
        assert_eq!(tight.max_len(), seq.len());

        let a = m.prefill(&seq[..3], &mut full);
        let b = m.prefill(&seq[..3], &mut tight);
        assert_eq!(a.data(), b.data());
        for &t in &seq[3..] {
            let a = m.decode_one(t, &mut full);
            let b = m.decode_one(t, &mut tight);
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(full.len(), tight.len());

        // Requested capacities clamp to [1, max_seq_len].
        let huge = m.new_cache_with_capacity(usize::MAX);
        assert_eq!(huge.max_len(), m.config().max_seq_len);
        assert_eq!(m.new_cache_with_capacity(0).max_len(), 1);
    }

    #[test]
    fn incremental_matches_prefill() {
        let m = model();
        let seq: Vec<TokenId> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let full = m.logits_for_sequence(&seq);

        let mut cache = m.new_cache();
        let _ = m.prefill(&seq[..3], &mut cache);
        let mut last = Tensor::zeros(&[m.config().vocab_size]);
        for (i, &t) in seq[3..].iter().enumerate() {
            last = m.decode_one(t, &mut cache);
            let want = full.row(3 + i);
            let got = last.data();
            let diff = want
                .iter()
                .zip(got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-4, "step {i} diverged by {diff}");
        }
        assert_eq!(last.len(), m.config().vocab_size);
    }

    #[test]
    fn tree_decode_matches_per_sequence_decode() {
        let m = model();
        let tree = spec_tree();
        let prompt: Vec<TokenId> = vec![9, 8, 7];

        // Shared setup: cache holds the prompt (root token NOT yet cached).
        let mut cache = m.new_cache();
        let _ = m.prefill(&prompt, &mut cache);

        let lin = LinearizedTree::new(&tree);
        let mut tree_cache = cache.clone();
        let tree_logits = m.decode_tree(&lin, &mut tree_cache);
        assert_eq!(tree_cache.len(), prompt.len() + lin.len());

        let seq_logits = m.decode_sequences(&tree, &cache);
        for (node, want) in &seq_logits {
            let row = lin.index_of(*node);
            let got = tree_logits.row(row);
            let diff = want
                .iter()
                .zip(got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-3, "node {node:?} diverged by {diff}");
        }
    }

    #[test]
    fn tree_decode_root_matches_incremental_step() {
        let m = model();
        let prompt: Vec<TokenId> = vec![2, 4, 6];
        let tree = spec_tree();
        let lin = LinearizedTree::new(&tree);

        let mut c1 = m.new_cache();
        let _ = m.prefill(&prompt, &mut c1);
        let tree_logits = m.decode_tree(&lin, &mut c1);

        let mut c2 = m.new_cache();
        let _ = m.prefill(&prompt, &mut c2);
        let inc = m.decode_one(tree.token(TokenTree::ROOT), &mut c2);

        let diff = tree_logits
            .row(0)
            .iter()
            .zip(inc.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-4, "root logits diverged by {diff}");
    }

    #[test]
    fn retained_cache_continues_like_fresh_cache() {
        let m = model();
        let prompt: Vec<TokenId> = vec![1, 2, 3];
        let tree = spec_tree();
        let lin = LinearizedTree::new(&tree);

        // Speculative route: decode the tree, then keep root + the branch
        // 5→1→3 (linear indices 0, then whatever 1 and 3 map to).
        let mut spec_cache = m.new_cache();
        let _ = m.prefill(&prompt, &mut spec_cache);
        let _ = m.decode_tree(&lin, &mut spec_cache);
        let keep: Vec<usize> = lin
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, &u)| {
                let s = tree.sequence(u);
                s == [5] || s == [5, 1] || s == [5, 1, 3]
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(keep.len(), 3);
        spec_cache.retain_rows(prompt.len(), &keep);
        let spec_next = m.decode_one(4, &mut spec_cache);

        // Reference route: plain causal decoding of the accepted sequence.
        let mut ref_cache = m.new_cache();
        let _ = m.prefill(&[1, 2, 3, 5, 1, 3], &mut ref_cache);
        let ref_next = m.decode_one(4, &mut ref_cache);

        let diff = spec_next.max_abs_diff(&ref_next);
        assert!(diff < 1e-3, "post-retention decoding diverged by {diff}");
    }

    #[test]
    fn fused_qkv_projection_matches_separate_matmuls_bitwise() {
        let m = model();
        let d = m.config().d_model;
        let packs = m.decode_packs();
        let h = Tensor::randn(&[5, d], 1.0, &mut specinfer_tensor::rng::SeededRng::new(11));
        for (layer, pack) in m.weights().layers.iter().zip(packs.qkv.iter()) {
            assert_eq!((pack.k(), pack.n()), (d, 3 * d));
            let q = h.matmul(&layer.wq);
            let k = h.matmul(&layer.wk);
            let v = h.matmul(&layer.wv);
            let mut fused = Tensor::default();
            dense_into(&h, pack, &mut fused);
            for r in 0..5 {
                assert_eq!(&fused.row(r)[..d], q.row(r));
                assert_eq!(&fused.row(r)[d..2 * d], k.row(r));
                assert_eq!(&fused.row(r)[2 * d..], v.row(r));
            }
        }
    }

    #[test]
    fn weights_mut_invalidates_fused_pack() {
        let mut m = model();
        let seq: Vec<TokenId> = vec![1, 2, 3, 4];
        let before = m.logits_for_sequence(&seq);
        let scaled = m.weights().layers[0].wq.scale(2.0);
        m.weights_mut().layers[0].wq = scaled;
        let after = m.logits_for_sequence(&seq);
        // A stale pack would keep producing `before`.
        assert!(before.max_abs_diff(&after) > 0.0);
    }

    #[test]
    fn dense_path_matches_tensor_matmul_bitwise_at_every_row_count() {
        // The model multiplies against packed panels at every row count;
        // the result must be `Tensor::matmul`'s bits, and a row must not
        // depend on how many rows are stacked with it, or batch size
        // would leak into logits.
        let m = model();
        let packs = m.decode_packs();
        let layer = &m.weights().layers[0];
        for (w, panels) in [(&layer.w1, &packs.w1[0]), (&layer.w2, &packs.w2[0])] {
            let x = Tensor::randn(
                &[24, w.rows()],
                1.0,
                &mut specinfer_tensor::rng::SeededRng::new(12),
            );
            let want = x.matmul(w);
            for rows in 1..=24 {
                let head =
                    Tensor::from_vec(x.data()[..rows * w.rows()].to_vec(), &[rows, w.rows()]);
                let mut got = Tensor::default();
                dense_into(&head, panels, &mut got);
                assert_eq!(got.data(), &want.data()[..rows * w.cols()], "m = {rows}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_shapes_is_bitwise_stable() {
        let m = model();
        let vocab = m.config().vocab_size;
        let long: Vec<TokenId> = (0..20).map(|i| (i * 7 % vocab) as TokenId).collect();
        let short: Vec<TokenId> = vec![4, 2];
        let long_fresh = m.logits_for_sequence(&long);
        let short_fresh = m.logits_for_sequence(&short);
        // Interleave shapes so buffers shrink and regrow between calls.
        for _ in 0..3 {
            assert_eq!(m.logits_for_sequence(&short), short_fresh);
            assert_eq!(m.logits_for_sequence(&long), long_fresh);
        }
    }

    #[test]
    fn tree_decode_bitwise_identical_serial_vs_parallel() {
        // Safe to toggle the global knob concurrently with other tests:
        // every path is bitwise identical at any thread count.
        let m = model();
        let prompt: Vec<TokenId> = vec![9, 8, 7];
        let lin = LinearizedTree::new(&spec_tree());
        let run = || {
            let mut cache = m.new_cache();
            let _ = m.prefill(&prompt, &mut cache);
            m.decode_tree(&lin, &mut cache)
        };
        specinfer_tensor::set_max_threads(1);
        let serial = run();
        specinfer_tensor::set_max_threads(8);
        let parallel = run();
        specinfer_tensor::set_max_threads(0);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn logits_are_finite() {
        let m = model();
        let logits = m.logits_for_sequence(&[0, 1, 2, 3, 4, 5]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_token_rejected() {
        let m = model();
        let _ = m.logits_for_sequence(&[1000]);
    }

    #[test]
    fn batched_forward_matches_solo_forwards_bitwise() {
        let m = model();
        let lin = LinearizedTree::new(&spec_tree());
        let prompts: [&[TokenId]; 3] = [&[9, 8, 7], &[1, 2], &[4, 4, 4, 4]];

        // Solo reference: each request decoded alone.
        let mut solo_caches: Vec<KvCache> = prompts
            .iter()
            .map(|p| {
                let mut c = m.new_cache();
                let _ = m.prefill(p, &mut c);
                c
            })
            .collect();
        let solo: Vec<Tensor> = solo_caches
            .iter_mut()
            .map(|c| m.decode_tree(&lin, c))
            .collect();

        // Batched: same three requests in one stacked pass, mixing a
        // tree request with causal ones.
        let mut caches: Vec<KvCache> = prompts
            .iter()
            .map(|p| {
                let mut c = m.new_cache();
                let _ = m.prefill(p, &mut c);
                c
            })
            .collect();
        let positions: Vec<Vec<usize>> = caches
            .iter()
            .map(|c| lin.depths().iter().map(|d| c.len() + d).collect())
            .collect();
        let mut reqs: Vec<BatchRequest<'_>> = caches
            .iter_mut()
            .zip(&positions)
            .map(|(cache, pos)| BatchRequest {
                tokens: lin.tokens(),
                positions: pos,
                cache,
                visible: Visibility::Tree(lin.mask()),
            })
            .collect();
        let batched = m.forward_rows_batch(&mut reqs);

        assert_eq!(batched.len(), solo.len());
        for (r, (b, s)) in batched.iter().zip(&solo).enumerate() {
            assert_eq!(b.data(), s.data(), "request {r} diverged in batch");
            assert_eq!(caches[r].len(), solo_caches[r].len());
        }
        // Caches must also agree row for row (the retained path is read
        // by later steps).
        for (r, (bc, sc)) in caches.iter().zip(&solo_caches).enumerate() {
            for layer in 0..bc.n_layers() {
                for row in 0..bc.len() {
                    assert_eq!(
                        bc.key_row(layer, row),
                        sc.key_row(layer, row),
                        "request {r} cache diverged"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Every bit of a tree visibility block: the committed prefix and
        /// exactly the tree ancestors among the tree rows, never a later
        /// row — whether the new rows are the whole tree (verification),
        /// the prefix rows the cache still lacks followed by the whole
        /// tree (a session's first verification), or the tree's last
        /// nodes with the earlier ones already cached (drafting).
        #[test]
        fn tree_visibility_is_prefix_plus_ancestors(seed in 0u64..10_000) {
            let mut rng = specinfer_tensor::rng::SeededRng::new(seed);
            // A random small tree in arena order: each node's parent is
            // any earlier node, which covers chains, stars and mixes.
            let mut tree = TokenTree::new(1);
            let mut nodes = vec![TokenTree::ROOT];
            let mut mask = TopologyMask::default();
            mask.push(None);
            for t in 0..rng.below(7) {
                let p = rng.below(nodes.len());
                nodes.push(tree.add_child(nodes[p], t as TokenId, 0, 0.5));
                mask.push(Some(p));
            }
            let prefix = 1 + rng.below(7);
            let cached = rng.below(nodes.len());
            // Prefix rows that ride ahead of a whole tree, seen causally.
            let lacking = if cached == 0 { rng.below(prefix + 1) } else { 0 };
            let (n, old) = (lacking + nodes.len() - cached, prefix - lacking + cached);
            let total = old + n;
            let mut out = vec![false; n * total];
            fill_visibility_block(&Visibility::Tree(&mask), n, old, &mut out, total);
            for i in 0..n {
                for j in 0..total {
                    let want = if j > old + i {
                        false
                    } else if j < prefix {
                        true
                    } else {
                        tree.is_ancestor(nodes[j - prefix], nodes[old + i - prefix])
                    };
                    proptest::prop_assert_eq!(out[i * total + j], want, "({}, {})", i, j);
                }
            }
        }
    }
}
