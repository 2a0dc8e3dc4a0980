//! The speculative generation engine: Algorithm 2's outer loop.
//!
//! A [`Session`] owns the per-request state (token sequence, LLM cache,
//! one cache per SSM) and advances one *decoding iteration* at a time —
//! exactly the granularity the serving layer's continuous batching
//! schedules. [`SpecEngine`] packages models + configuration for
//! single-request generation.
//!
//! [`InferenceMode`] is only the public spelling of what to draft. A
//! session lowers it once (`DraftPlan::lower`, the file's only `match`
//! over the modes) to one constant [`DraftShape`] plus the SSMs that
//! draft it — the whole pool merged, its first SSM, or under `Adaptive`
//! the one the [`SpecController`] routes each step to; plain incremental
//! for any mode whose pool is empty — and one drafter (`Session::draft`)
//! consumes the pair. Every row count (slab sizing, admission charging,
//! "does it still fit") is read off that plan, so it counts a merged
//! pool's one-expansion-per-SSM. Every plan drafts each step its shape
//! fits, as the paper does, and lets verification reject what the LLM
//! disagrees with; only a fault (a stall, KV pressure) forces a step
//! root-only.
//!
//! Every step is a token tree: an incremental one is the root alone,
//! Algorithm 2's degenerate tree, verified and committed like any
//! other (`Session::commit_verified`, the one commit path). The SSM
//! caches have one writer too: the drafter catches up the SSMs it is
//! about to draft with, so a cache no draft reads is never written.

use std::ops::Range;

use specinfer_model::{DecodeMode, KvCache, Transformer};
use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::{ExpansionConfig, LinearizedTree, TokenId, TokenTree};

use crate::batch::{BatchItem, BatchedVerifier};
use crate::controller::{
    draft_flop_weight, AdaptiveConfig, AdaptiveDecision, ControllerSnapshot, DraftShape,
    SpecController, ADAPTIVE_DEPTH,
};
use crate::dynamic::{speculate_dynamic, DynamicExpansionConfig};
use crate::speculator::{
    expand, speculate_garbage, speculate_pool_parallel, ExpansionMode, Speculation, SsmDistTable,
};
use crate::verifier::{StochasticVerifier, VerifyOutcome};

/// Which inference algorithm drives a generation. The sequence and tree
/// modes draft with every SSM of the pool and merge the trees
/// (Definition 3.2); with an empty pool every mode decodes incrementally.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceMode {
    /// Ordinary incremental decoding (Algorithm 1) — one LLM pass per
    /// token. The baseline every system in Figure 7 implements.
    Incremental,
    /// Sequence-based speculative inference: a single SSM speculates a
    /// depth-`m` chain (tree width 1).
    SequenceSpeculative {
        /// Speculation depth `m`.
        depth: usize,
    },
    /// Tree-based speculative inference (the paper's contribution).
    TreeSpeculative {
        /// The expansion schedule ⟨k₁…k_m⟩ applied by every SSM.
        expansion: ExpansionConfig,
    },
    /// Best-first *dynamic* tree expansion — this repository's
    /// implementation of the paper's stated future work (§3). Uses the
    /// first SSM of the pool. Greedy verification stays exactly
    /// lossless; for stochastic decoding prefer the naive-sampling
    /// verifier (see [`crate::dynamic`] for the semantics discussion).
    DynamicTree {
        /// Budget and pruning knobs.
        config: crate::dynamic::DynamicExpansionConfig,
    },
    /// SPIN-style routed speculation: every step one SSM of the pool
    /// drafts an [`ADAPTIVE_DEPTH`]-long sequence, and a
    /// [`SpecController`] inside each session picks which by its
    /// accepted-per-draft-FLOP EWMA, probing the pool round-robin. With
    /// one SSM it is `SequenceSpeculative { depth: ADAPTIVE_DEPTH }`.
    Adaptive {
        /// Holds nothing: the router has no settable knob.
        config: AdaptiveConfig,
    },
}

/// Engine-level configuration shared across requests.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// How the LLM's output distribution is decoded.
    pub decode: DecodeMode,
    /// Stochastic verification algorithm (ignored under greedy decoding).
    pub verifier: StochasticVerifier,
    /// The inference algorithm.
    pub mode: InferenceMode,
    /// Stop after this many generated tokens (the paper uses 128).
    pub max_new_tokens: usize,
    /// Generation stops when this token is produced.
    pub eos_token: Option<TokenId>,
}

impl EngineConfig {
    /// Greedy tree-speculative config with the paper's default expansion.
    pub fn greedy_tree() -> Self {
        EngineConfig {
            decode: DecodeMode::Greedy,
            verifier: StochasticVerifier::MultiStep,
            mode: InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::paper_default(),
            },
            max_new_tokens: 128,
            eos_token: Some(specinfer_workload_eos()),
        }
    }

    /// KV rows one decoding iteration appends before commit compacts
    /// back to the accepted path when a single SSM drafts: the speculated
    /// node count plus the tree root, or a single row when incremental.
    /// A merged pool drafts more — size slabs with
    /// [`EngineConfig::pool_speculation_rows`].
    pub fn speculation_rows(&self) -> usize {
        self.pool_speculation_rows(1)
    }

    /// KV rows every iteration of this configuration appends over a pool
    /// of `n_ssms` SSMs — what a right-sized slab reserves on top of
    /// `prompt + max_new` (see [`Session::try_new_budgeted`]). Read off
    /// the same lowered plan a session of that pool drafts by, so slab
    /// sizing, admission and the session's own "does it still fit" check
    /// cannot disagree.
    pub fn pool_speculation_rows(&self, n_ssms: usize) -> usize {
        // Row counts do not depend on the SSMs' draft-FLOP weights.
        DraftPlan::lower(self, vec![1.0; n_ssms]).rows()
    }
}

/// Which SSMs of the pool draft an iteration's shape.
#[derive(Debug)]
enum Drafters {
    /// One SSM (by pool index), expanding inline on the session's RNG
    /// stream.
    One(usize),
    /// The whole pool of this many SSMs: each expands the shape on its
    /// own forked stream and the trees merge in pool order
    /// (Definition 3.2).
    Pool(usize),
    /// One SSM per step, inline like [`Drafters::One`], picked by the
    /// controller ([`InferenceMode::Adaptive`]).
    Routed(SpecController),
}

impl Drafters {
    /// Pool indices of the SSMs drafting the next step, and the routing
    /// decision behind them.
    fn pick(&self) -> (Range<usize>, Option<AdaptiveDecision>) {
        match self {
            Drafters::One(id) => (*id..*id + 1, None),
            Drafters::Pool(n) => (0..*n, None),
            Drafters::Routed(controller) => {
                let d = controller.decide();
                (d.ssm..d.ssm + 1, Some(d))
            }
        }
    }
}

/// What an [`InferenceMode`] means to one session: the shape every
/// iteration drafts and the SSMs that draft it. Lowered once, on the
/// session's first proposal; every row question and the drafter read it.
#[derive(Debug)]
struct DraftPlan {
    shape: DraftShape,
    drafters: Drafters,
}

impl DraftPlan {
    /// The one place an [`InferenceMode`] is interpreted. `ssm_flops`
    /// holds one draft-FLOP weight per SSM of the pool.
    fn lower(config: &EngineConfig, ssm_flops: Vec<f32>) -> Self {
        // A static mode drafts with the whole pool merged; a pool of one
        // is that SSM inline on the session's own RNG stream.
        let plan = |shape, drafters| DraftPlan { shape, drafters };
        let pool = match ssm_flops.len() {
            // No drafters: every mode decodes incrementally.
            0 => return plan(DraftShape::Incremental, Drafters::One(0)),
            1 => Drafters::One(0),
            n => Drafters::Pool(n),
        };
        match &config.mode {
            // Incremental, and every shape that can draft no node.
            InferenceMode::Incremental
            | InferenceMode::SequenceSpeculative { depth: 0 }
            | InferenceMode::DynamicTree {
                config:
                    DynamicExpansionConfig { max_nodes: 0, .. }
                    | DynamicExpansionConfig { max_depth: 0, .. }
                    | DynamicExpansionConfig {
                        max_children: 0, ..
                    },
            } => plan(DraftShape::Incremental, pool),
            InferenceMode::SequenceSpeculative { depth } => {
                plan(DraftShape::Tree(ExpansionConfig::sequence(*depth)), pool)
            }
            InferenceMode::TreeSpeculative { expansion } => {
                plan(DraftShape::Tree(expansion.clone()), pool)
            }
            // Best-first expansion is a single-SSM algorithm: the pool's
            // first drafts it.
            InferenceMode::DynamicTree { config } => {
                plan(DraftShape::Dynamic(config.clone()), Drafters::One(0))
            }
            InferenceMode::Adaptive { .. } => plan(
                DraftShape::Tree(ExpansionConfig::sequence(ADAPTIVE_DEPTH)),
                Drafters::Routed(SpecController::new(ssm_flops)),
            ),
        }
    }

    /// Rows an iteration appends: the root plus one worst-case expansion
    /// per drafter (merging only deduplicates).
    fn rows(&self) -> usize {
        let drafters = match self.drafters {
            Drafters::Pool(n) => n,
            Drafters::One(_) | Drafters::Routed(_) => 1,
        };
        drafters * self.shape.node_count() + 1
    }
}

// The EOS convention of the workloads crate, duplicated here to avoid a
// dependency cycle; pinned by a test in the facade crate.
const fn specinfer_workload_eos() -> TokenId {
    1
}

/// Faults injected into one decoding iteration of one session.
///
/// Produced by the serving layer's deterministic fault plan and consumed
/// by [`Session::step_faulted`]. All faults are *lossless under greedy
/// decoding*: a stalled or garbage SSM degrades throughput (the engine
/// decodes the step incrementally or rejects the drafts) but never
/// changes the emitted tokens, so a chaos run's surviving outputs are
/// comparable bit-for-bit against a fault-free run of the same seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepFault {
    /// The SSM pool emits garbage logits this iteration: drafts are drawn
    /// uniformly from the vocabulary by a dedicated RNG with this seed
    /// (the session's own RNG stream is untouched).
    pub ssm_garbage: Option<u64>,
    /// The SSM pool stalls this iteration: no speculation is available
    /// and the engine decodes one token incrementally.
    pub ssm_stall: bool,
    /// The KV arena reports (simulated) memory pressure: speculated rows
    /// cannot be allocated, so the engine decodes incrementally.
    pub kv_oom: bool,
}

impl StepFault {
    /// Whether no fault is injected.
    pub fn is_noop(&self) -> bool {
        self.ssm_garbage.is_none() && !self.ssm_stall && !self.kv_oom
    }
}

/// The serving layer's degradation setting. It holds nothing: a fault
/// forces a root-only step per step ([`StepFault`]), and every other
/// step drafts whatever its plan's acceptance. It stays because the
/// frozen benchmark crate (`specbench/`) names
/// `DegradationPolicy::serving_default()` and
/// [`Session::set_degradation_policy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationPolicy;

impl DegradationPolicy {
    /// The one policy.
    pub fn serving_default() -> Self {
        DegradationPolicy
    }
}

/// Counters of the faults one session absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Iterations that had any fault injected.
    pub faulted_steps: usize,
    /// Iterations forced incremental by a stall or simulated OOM.
    pub forced_incremental: usize,
}

/// Per-iteration statistics of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Nodes in the speculated tree (0 for incremental decoding).
    pub tree_size: usize,
    /// Speculated tokens that passed verification.
    pub accepted: usize,
    /// Tokens appended this iteration (accepted + bonus, or 1).
    pub emitted: usize,
}

/// The completed output of a generation.
#[derive(Debug, Clone)]
pub struct GenerationResult {
    /// Prompt plus all generated tokens (truncated at EOS if hit).
    pub tokens: Vec<TokenId>,
    /// Number of prompt tokens at the front of `tokens`.
    pub prompt_len: usize,
    /// Per-iteration statistics.
    pub steps: Vec<StepStats>,
}

impl GenerationResult {
    /// The generated tokens (everything after the prompt).
    pub fn generated(&self) -> &[TokenId] {
        self.tokens.get(self.prompt_len..).unwrap_or(&[])
    }

    /// Number of LLM decoding iterations used.
    pub fn llm_steps(&self) -> usize {
        self.steps.len()
    }

    /// Mean number of tokens verified per LLM decoding step — the
    /// paper's Table 2 / Table 3 metric.
    pub fn tokens_per_step(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.generated().len() as f64 / self.steps.len() as f64
        }
    }
}

/// A rejected generation request.
///
/// This is the *request-facing* fallible surface of the engine: bad
/// inputs (empty or oversized prompts) come back as values so a serving
/// daemon can retire one request instead of panicking a whole batch.
/// Invariant violations inside a healthy session still panic loudly
/// (`assert!`/`unreachable!`) — see ARCHITECTURE.md §8 for the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The prompt holds no tokens; there is nothing to root a tree on.
    EmptyPrompt,
    /// The prompt exceeds a participating model's context window.
    PromptTooLong {
        /// Prompt length in tokens.
        len: usize,
        /// The smallest `max_seq_len` across the LLM and the SSM pool.
        max: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyPrompt => write!(f, "prompt must hold at least one token"),
            EngineError::PromptTooLong { len, max } => {
                write!(
                    f,
                    "prompt of {len} tokens exceeds the context window ({max})"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One proposed decoding iteration, produced by [`Session::propose`]: a
/// token tree awaiting tree-parallel verification. An incremental step
/// is the root alone.
///
/// Splitting the step at the LLM-forward boundary is what lets
/// [`crate::BatchedVerifier`] fuse the verification forwards of many
/// sessions into one stacked forward: speculation and sampling/commit stay
/// per-session, while the part that touches the LLM batches.
#[derive(Debug)]
pub(crate) struct Proposal {
    pub(crate) spec: Speculation,
    pub(crate) lin: LinearizedTree,
    /// The routing decision behind the draft (adaptive plans only, and
    /// only when a draft ran); fed back to the controller at commit.
    decision: Option<AdaptiveDecision>,
}

/// Per-request generation state, advanced one decoding iteration at a
/// time.
///
/// The KV-cache invariant maintained between iterations: every cache —
/// the LLM's and each SSM's — holds a prefix of the rows of all tokens of
/// the sequence *except the last one*, and takes the rest with its next
/// forward. The last token is the root the next token tree grows from
/// (Figure 4 feeds the verified token together with the speculated
/// ones). The LLM cache starts empty and takes the prompt's rows ahead of
/// the session's first tree, in the batched verifier's one fused forward;
/// from then on it holds all of them. An SSM catches up right before it
/// drafts.
#[derive(Debug)]
pub struct Session {
    tokens: Vec<TokenId>,
    prompt_len: usize,
    llm_cache: KvCache,
    ssm_caches: Vec<KvCache>,
    rng: SeededRng,
    steps: Vec<StepStats>,
    finished: bool,
    degradation: DegradationStats,
    /// The lowered [`InferenceMode`], installed by the first proposal
    /// (the configuration and the SSM pool's FLOP weights only arrive
    /// with the first step).
    plan: Option<DraftPlan>,
}

impl Session {
    /// Starts a session: validates the prompt and allocates the caches,
    /// forwarding nothing. The LLM cache takes the prompt (all but its
    /// last token) with the session's first verify forward, each SSM
    /// cache with that SSM's first draft.
    ///
    /// This is the panicking convenience constructor for trusted callers
    /// (tests, benches, the CLI). Serving paths use [`Session::try_new`]
    /// and retire the request on `Err` instead.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or longer than a model's
    /// `max_seq_len`.
    pub fn new(llm: &Transformer, ssms: &[&Transformer], prompt: &[TokenId], seed: u64) -> Self {
        match Session::try_new(llm, ssms, prompt, seed) {
            Ok(s) => s,
            Err(e) => panic!("invalid generation request: {e}"),
        }
    }

    /// Fallible [`Session::new`]: rejects empty prompts and prompts that
    /// cannot fit any participating model's context window.
    pub fn try_new(
        llm: &Transformer,
        ssms: &[&Transformer],
        prompt: &[TokenId],
        seed: u64,
    ) -> Result<Self, EngineError> {
        Session::try_new_budgeted(llm, ssms, prompt, seed, usize::MAX)
    }

    /// [`Session::try_new`] with the LLM KV slab sized to `kv_rows`
    /// instead of the model's full `max_seq_len`.
    ///
    /// Ragged serving right-sizes each session's slab so hundreds of
    /// short requests fit in memory at once. A budget of at least
    /// `prompt.len() + max_new_tokens +`
    /// [`EngineConfig::pool_speculation_rows`] for this pool is provably
    /// sufficient for bitwise-identical behavior to the full-capacity
    /// session: the last decoding iteration starts with at most
    /// `prompt + max_new − 2` committed tokens and no iteration — a merged
    /// pool's `n_ssms` expansions included — appends more than that
    /// row count, so neither the context-exhaustion guard nor the
    /// speculation-fits check can trigger before generation finishes.
    /// Smaller budgets are accepted but degrade to incremental decoding
    /// (and eventually early termination) near the capacity limit.
    ///
    /// Nothing is forwarded here. The LLM slab is created empty and
    /// takes the prompt's rows with the session's first step; each SSM
    /// cache is created empty at its model's full `max_seq_len` and is
    /// written by that SSM's drafts alone.
    pub fn try_new_budgeted(
        llm: &Transformer,
        ssms: &[&Transformer],
        prompt: &[TokenId],
        seed: u64,
        kv_rows: usize,
    ) -> Result<Self, EngineError> {
        if prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let max = ssms
            .iter()
            .map(|s| s.config().max_seq_len)
            .fold(llm.config().max_seq_len, usize::min);
        if prompt.len() > max {
            return Err(EngineError::PromptTooLong {
                len: prompt.len(),
                max,
            });
        }
        Ok(Session {
            tokens: prompt.to_vec(),
            prompt_len: prompt.len(),
            llm_cache: llm.new_cache_with_capacity(kv_rows.max(prompt.len())),
            ssm_caches: ssms.iter().map(|ssm| ssm.new_cache()).collect(),
            rng: SeededRng::new(seed),
            steps: Vec::new(),
            finished: false,
            degradation: DegradationStats::default(),
            plan: None,
        })
    }

    /// The root for the next speculated tree: the last token of the
    /// sequence. [`Session::try_new`] guarantees a non-empty prompt and
    /// decoding only appends, so the sequence can never be empty.
    pub(crate) fn last_token(&self) -> TokenId {
        match self.tokens.last() {
            Some(&t) => t,
            None => unreachable!("sessions always hold at least the prompt"),
        }
    }

    /// Committed tokens: every token but the root of the next tree. Each
    /// cache holds a prefix of their rows.
    fn committed(&self) -> usize {
        self.tokens.len() - 1
    }

    /// The committed tokens whose rows the LLM cache still lacks: the
    /// prompt minus its last token before a session's first step,
    /// nothing after.
    pub(crate) fn uncached(&self) -> &[TokenId] {
        self.tokens
            .get(self.llm_cache.len()..self.committed())
            .unwrap_or(&[])
    }

    /// Rows of verified context in the LLM KV cache, for occupancy
    /// accounting: 0 until the session's first step, then one per
    /// committed token.
    pub fn kv_rows(&self) -> usize {
        self.llm_cache.len()
    }

    /// Capacity of the LLM KV slab in rows — `max_seq_len` for
    /// [`Session::try_new`], the clamped budget for
    /// [`Session::try_new_budgeted`].
    pub fn kv_capacity(&self) -> usize {
        self.llm_cache.max_len()
    }

    /// The LLM KV cache, for the batched verifier's stacked forward.
    pub(crate) fn llm_cache_mut(&mut self) -> &mut KvCache {
        &mut self.llm_cache
    }

    /// The session's RNG stream, for the batched verifier's stochastic
    /// walks.
    pub(crate) fn rng_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// Speculation rows each of the session's iterations appends: its
    /// plan's (pool-aware) constant, the same before the first step as
    /// after it.
    pub fn current_speculation_rows(&self, config: &EngineConfig) -> usize {
        match &self.plan {
            Some(plan) => plan.rows(),
            None => config.pool_speculation_rows(self.ssm_caches.len()),
        }
    }

    /// Whether the next [`Session::propose`] runs SSM forwards — a real
    /// draft — rather than answering at once. Advice for scheduling
    /// only: it may say `true` for a proposal that ends up incremental
    /// (a shape that no longer fits), and a wrong answer costs
    /// parallelism, never a different proposal.
    pub(crate) fn drafts_next(&self, config: &EngineConfig, fault: StepFault) -> bool {
        !self.finished && fault.is_noop() && self.current_speculation_rows(config) > 1
    }

    /// Telemetry snapshot of the adaptive controller, if this session has
    /// one (i.e. it stepped under [`InferenceMode::Adaptive`] with a
    /// non-empty pool).
    pub fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        match &self.plan {
            Some(DraftPlan {
                drafters: Drafters::Routed(controller),
                ..
            }) => Some(controller.snapshot()),
            _ => None,
        }
    }

    /// Does nothing: [`DegradationPolicy`] holds no setting. Kept for the
    /// frozen benchmark crate, which calls it.
    pub fn set_degradation_policy(&mut self, _policy: DegradationPolicy) {}

    /// Counters of the faults absorbed so far.
    pub fn degradation(&self) -> DegradationStats {
        self.degradation
    }

    /// The full token sequence so far (prompt included).
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Tokens generated so far.
    pub fn generated(&self) -> &[TokenId] {
        self.tokens.get(self.prompt_len..).unwrap_or(&[])
    }

    /// Whether generation has hit EOS or its budget.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Per-iteration statistics so far.
    pub fn steps(&self) -> &[StepStats] {
        &self.steps
    }

    /// Runs one decoding iteration under `config`, using `ssms` for
    /// speculation (ignored for incremental mode). Returns the stats of
    /// the iteration, or `None` if the session was already finished.
    pub fn step(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        config: &EngineConfig,
    ) -> Option<StepStats> {
        self.step_faulted(llm, ssms, config, StepFault::default())
    }

    /// Like [`Session::step`], but with `fault` injected into the
    /// iteration. A stall or simulated OOM forces incremental decoding;
    /// garbage logits replace the SSM drafts with uniform draws (which
    /// greedy verification rejects and stochastic verification absorbs
    /// via the residual, keeping the output distribution exact). Neither
    /// changes what later steps draft.
    ///
    /// A serial step is a batch of one through the one verifier
    /// ([`BatchedVerifier`]).
    pub fn step_faulted(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        config: &EngineConfig,
        fault: StepFault,
    ) -> Option<StepStats> {
        let mut batch = [BatchItem {
            session: self,
            config,
            fault,
        }];
        let mut stats = BatchedVerifier::new().step_batch(llm, ssms, &mut batch);
        stats.pop().flatten()
    }

    /// Phase 1 of an iteration: decide what the LLM must verify.
    ///
    /// Runs the fault bookkeeping, lowers `config.mode` for this
    /// session's pool on the first call (later calls keep that plan), and
    /// — when the plan drafts — runs the whole SSM expansion, consuming
    /// the session's RNG stream exactly as [`Session::step_faulted`]
    /// always has. A step that drafts nothing (the incremental shape, a
    /// fault-forced step, a shape that no longer fits) proposes the
    /// root-only tree. Returns `None` when the session is
    /// finished (or just exhausted its context). The returned
    /// [`Proposal`] must be forwarded and committed
    /// ([`Session::commit_verified`]) before the session can step again.
    pub(crate) fn propose(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        config: &EngineConfig,
        fault: StepFault,
    ) -> Option<Proposal> {
        if self.finished {
            return None;
        }
        // Context-window guard: when even one more row would overflow the
        // KV cache, the sequence has exhausted the model's context — end
        // the generation instead of panicking mid-flight.
        if self.committed() + 1 > self.llm_cache.max_len() {
            self.finished = true;
            return None;
        }
        if !fault.is_noop() {
            self.degradation.faulted_steps += 1;
        }
        let plan = match self.plan.take() {
            Some(plan) => plan,
            None => DraftPlan::lower(
                config,
                ssms.iter().map(|s| draft_flop_weight(s.config())).collect(),
            ),
        };
        let speculative_mode = plan.shape != DraftShape::Incremental;
        let forced_incremental = speculative_mode && (fault.ssm_stall || fault.kv_oom);

        let mut decision = None;
        let spec = if forced_incremental {
            self.degradation.forced_incremental += 1;
            None
        } else {
            // Only a draft that ran teaches the controller: a shape that
            // no longer fits near the context limit must not count
            // against the SSM it was routed to.
            let (ids, routed) = plan.drafters.pick();
            let spec = self.draft(llm, ssms, &plan, ids, config, fault.ssm_garbage);
            decision = routed.filter(|_| spec.is_some());
            spec
        };
        self.plan = Some(plan);
        let spec = spec.unwrap_or_else(|| Speculation {
            tree: TokenTree::new(self.last_token()),
            dists: SsmDistTable::new(),
        });
        Some(Proposal {
            lin: LinearizedTree::new(&spec.tree),
            spec,
            decision,
        })
    }

    /// The one drafter: speculates `plan`'s shape with the SSMs `ids`
    /// (the plan's pick for this step), or answers `None` — the root-only
    /// tree — when the shape is the incremental one or, near the context
    /// limit, no longer fits the caches. A garbage-logits fault replaces
    /// the draft with uniform draws in the shape's static expansion,
    /// without consulting the SSMs or their caches. Otherwise the drafting SSMs first catch up to the
    /// committed rows — the SSM caches' only writer. One SSM expands
    /// inline on the session's RNG stream; a pool expands data-parallel
    /// — one private tree and forked RNG stream per SSM — and the trees
    /// merge deterministically in pool order (§3).
    fn draft(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        plan: &DraftPlan,
        ids: Range<usize>,
        config: &EngineConfig,
        garbage: Option<u64>,
    ) -> Option<Speculation> {
        let shape = &plan.shape;
        let expansion = shape.static_expansion()?;
        if !self.speculation_fits(plan.rows()) {
            return None;
        }
        assert_eq!(
            ssms.len(),
            self.ssm_caches.len(),
            "the session was created for a different SSM pool"
        );
        let root = self.last_token();
        if let Some(seed) = garbage {
            let vocab = llm.config().vocab_size;
            return Some(speculate_garbage(root, &expansion, vocab, seed));
        }
        let committed = self.committed();
        let pool = ssms.iter().zip(&mut self.ssm_caches);
        for (ssm, cache) in pool.skip(ids.start).take(ids.len()) {
            let behind = self.tokens.get(cache.len()..committed);
            if let Some(behind) = behind.filter(|rows| !rows.is_empty()) {
                let _ = ssm.prefill(behind, cache);
            }
            debug_assert_eq!(
                cache.len(),
                committed,
                "a drafting SSM holds the committed rows"
            );
        }
        let mode = ExpansionMode::for_decode_mode(&config.decode);
        if ids.len() > 1 {
            return Some(speculate_pool_parallel(
                ssms,
                &mut self.ssm_caches,
                root,
                &expansion,
                mode,
                &mut self.rng,
            ));
        }
        let id = ids.start;
        let (ssm, cache) = match (ssms.get(id), self.ssm_caches.get_mut(id)) {
            (Some(&ssm), Some(cache)) => (ssm, cache),
            _ => unreachable!("drafts are routed within the SSM pool"),
        };
        Some(if let DraftShape::Dynamic(budget) = shape {
            speculate_dynamic(ssm, cache, root, budget, id)
        } else {
            expand(ssm, id, cache, root, &expansion, mode, &mut self.rng)
        })
    }

    /// Whether an iteration appending up to `need` rows (the root plus
    /// every drafted node) on top of the committed tokens' rows fits in
    /// every cache involved — each first catches up to those rows.
    fn speculation_fits(&self, need: usize) -> bool {
        let rows = self.committed() + need;
        rows <= self.llm_cache.max_len() && self.ssm_caches.iter().all(|c| rows <= c.max_len())
    }

    /// Commits a token tree the batched verifier has verified — the one
    /// commit path, a root-only tree included: `outcome` is the finished
    /// walk's result, `prefix` the LLM-cache length with the committed
    /// tokens' rows but none of the tree's, and `keep` the
    /// strictly-increasing positions (relative to `prefix`) of the root
    /// and accepted rows within the cache's current appended tail. Compacts the LLM cache
    /// onto `keep`, extends the token sequence, checks termination, feeds
    /// the controller and records the step.
    pub(crate) fn commit_verified(
        &mut self,
        config: &EngineConfig,
        proposal: Proposal,
        outcome: VerifyOutcome,
        prefix: usize,
        keep: Vec<usize>,
    ) -> StepStats {
        self.llm_cache.retain_rows(prefix, &keep);
        let committed = self.llm_cache.len();
        debug_assert!(
            self.ssm_caches.iter().all(|c| c.len() <= committed),
            "each SSM cache holds a prefix of the committed rows"
        );
        self.tokens.extend_from_slice(&outcome.tokens);
        self.check_termination(config, &outcome.tokens);
        let stats = StepStats {
            tree_size: proposal.spec.tree.speculated_len(),
            accepted: outcome.accepted_speculated(),
            emitted: outcome.tokens.len(),
        };

        if let Some(DraftPlan {
            drafters: Drafters::Routed(controller),
            ..
        }) = &mut self.plan
        {
            controller.observe(proposal.decision.as_ref(), stats.accepted);
        }
        self.steps.push(stats);
        stats
    }

    fn check_termination(&mut self, config: &EngineConfig, new_tokens: &[TokenId]) {
        if let Some(eos) = config.eos_token {
            if let Some(rel) = new_tokens.iter().position(|&t| t == eos) {
                // Truncate right after the EOS token.
                let cut = self.tokens.len() - new_tokens.len() + rel + 1;
                self.tokens.truncate(cut);
                self.finished = true;
                return;
            }
        }
        if self.tokens.len() - self.prompt_len >= config.max_new_tokens {
            self.finished = true;
        }
    }

    /// Consumes the session into a [`GenerationResult`].
    pub fn into_result(self) -> GenerationResult {
        GenerationResult {
            tokens: self.tokens,
            prompt_len: self.prompt_len,
            steps: self.steps,
        }
    }
}

/// Convenience wrapper running whole generations: models + configuration.
///
/// # Example
///
/// ```
/// use specinfer_model::{ModelConfig, Transformer, DecodeMode};
/// use specinfer_spec::{EngineConfig, InferenceMode, SpecEngine, StochasticVerifier};
/// use specinfer_tokentree::ExpansionConfig;
///
/// let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
/// let ssm = Transformer::from_seed(ModelConfig::smoke(), 2);
/// let config = EngineConfig {
///     decode: DecodeMode::Greedy,
///     verifier: StochasticVerifier::MultiStep,
///     mode: InferenceMode::TreeSpeculative { expansion: ExpansionConfig::new(vec![2, 2, 1]) },
///     max_new_tokens: 16,
///     eos_token: None,
/// };
/// let engine = SpecEngine::new(&llm, vec![&ssm], config);
/// let result = engine.generate(&[3, 1, 4], 7);
/// assert!(result.generated().len() >= 16);
/// ```
#[derive(Debug)]
pub struct SpecEngine<'m> {
    llm: &'m Transformer,
    ssms: Vec<&'m Transformer>,
    config: EngineConfig,
}

impl<'m> SpecEngine<'m> {
    /// Creates an engine over an LLM, a pool of SSMs and a configuration.
    pub fn new(llm: &'m Transformer, ssms: Vec<&'m Transformer>, config: EngineConfig) -> Self {
        SpecEngine { llm, ssms, config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs a full generation for `prompt`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid request (see [`Session::new`]); serving
    /// paths use [`SpecEngine::try_generate`].
    pub fn generate(&self, prompt: &[TokenId], seed: u64) -> GenerationResult {
        let mut session = Session::new(self.llm, &self.ssms, prompt, seed);
        while !session.is_finished() {
            let _ = session.step(self.llm, &self.ssms, &self.config);
        }
        session.into_result()
    }

    /// Fallible [`SpecEngine::generate`]: a bad request comes back as an
    /// [`EngineError`] instead of panicking.
    pub fn try_generate(
        &self,
        prompt: &[TokenId],
        seed: u64,
    ) -> Result<GenerationResult, EngineError> {
        let mut session = Session::try_new(self.llm, &self.ssms, prompt, seed)?;
        while !session.is_finished() {
            let _ = session.step(self.llm, &self.ssms, &self.config);
        }
        Ok(session.into_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_model::ModelConfig;

    fn models() -> (Transformer, Transformer) {
        // SSM = the LLM's own little sibling (same seed family) so greedy
        // speculation has nontrivial accept rates even untrained.
        let llm = Transformer::from_seed(ModelConfig::smoke(), 100);
        let ssm = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            101,
        );
        (llm, ssm)
    }

    fn config(mode: InferenceMode, decode: DecodeMode) -> EngineConfig {
        EngineConfig {
            decode,
            verifier: StochasticVerifier::MultiStep,
            mode,
            max_new_tokens: 24,
            eos_token: None,
        }
    }

    #[test]
    fn incremental_generates_budgeted_tokens() {
        let (llm, _) = models();
        let engine = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        );
        let r = engine.generate(&[1, 2, 3], 0);
        assert_eq!(r.generated().len(), 24);
        assert_eq!(r.llm_steps(), 24);
        assert!((r.tokens_per_step() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eos_terminates_and_truncates() {
        let (llm, ssm) = models();
        // Find the greedy continuation and use its second token as EOS so
        // termination happens mid-stream.
        let probe = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        )
        .generate(&[6, 1, 6], 0);
        let eos = probe.generated()[1];
        let mut cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1, 1]),
            },
            DecodeMode::Greedy,
        );
        cfg.eos_token = Some(eos);
        let r = SpecEngine::new(&llm, vec![&ssm], cfg).generate(&[6, 1, 6], 0);
        assert_eq!(*r.tokens.last().unwrap(), eos);
        assert_eq!(r.generated().len(), 2, "output must stop right after EOS");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2]),
            },
            DecodeMode::stochastic(),
        );
        let engine = SpecEngine::new(&llm, vec![&ssm], cfg);
        let a = engine.generate(&[8, 3], 42);
        let b = engine.generate(&[8, 3], 42);
        assert_eq!(a.tokens, b.tokens);
        let c = engine.generate(&[8, 3], 43);
        assert_ne!(a.tokens, c.tokens, "different seeds should diverge");
    }

    #[test]
    fn session_stops_stepping_after_finish() {
        let (llm, _) = models();
        let cfg = config(InferenceMode::Incremental, DecodeMode::Greedy);
        let mut s = Session::new(&llm, &[], &[1], 0);
        for _ in 0..24 {
            assert!(s.step(&llm, &[], &cfg).is_some());
        }
        assert!(s.is_finished());
        assert!(s.step(&llm, &[], &cfg).is_none());
    }

    #[test]
    fn garbage_drafts_are_drafted_every_step_and_rejected_losslessly() {
        let (llm, ssm) = models();
        let mut cfg = config(
            InferenceMode::Adaptive {
                config: AdaptiveConfig::default(),
            },
            DecodeMode::Greedy,
        );
        cfg.max_new_tokens = 40;
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[4, 8], 0);
        // Every step's draft is garbage. The context holds every draft,
        // so the router and a static tree alike draft on every step.
        for mode in [
            cfg.mode.clone(),
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2]),
            },
        ] {
            let cfg = EngineConfig {
                mode,
                ..cfg.clone()
            };
            let mut s = Session::new(&llm, &[&ssm], &[4, 8], 0);
            let mut step = 0u64;
            while !s.is_finished() {
                let fault = StepFault {
                    ssm_garbage: Some(step),
                    ..StepFault::default()
                };
                let _ = s.step_faulted(&llm, &[&ssm], &cfg, fault);
                step += 1;
            }
            assert!(
                s.steps().iter().all(|st| st.tree_size > 0),
                "{:?}",
                cfg.mode
            );
            assert_eq!(s.into_result().tokens, clean.tokens, "{:?}", cfg.mode);
        }
    }
}
