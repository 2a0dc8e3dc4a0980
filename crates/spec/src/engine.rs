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
//! over the modes) to a [`DraftShape`] plus the SSMs that draft it — a
//! constant for the static modes, the [`SpecController`]'s choice under
//! `Adaptive`, plain incremental for any mode whose pool is empty — and
//! one drafter (`Session::draft`) consumes the pair. Every row count
//! (slab sizing, admission charging, "does it still fit") is read off
//! that plan, so it counts a merged pool's one-expansion-per-SSM.

use std::collections::VecDeque;

use specinfer_model::{sampler, DecodeMode, KvCache, Transformer};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::Tensor;
use specinfer_tokentree::{ExpansionConfig, LinearizedTree, TokenId, TokenTree};

use crate::batch::{BatchItem, BatchedVerifier};
use crate::controller::{
    draft_flop_weight, AdaptiveConfig, AdaptiveDecision, ControllerSnapshot, DraftShape,
    SpecController,
};
use crate::dynamic::speculate_dynamic;
use crate::speculator::{
    expand_into, speculate_garbage, speculate_pool_parallel, ExpansionMode, Speculation,
    SsmDistTable,
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
    /// Online per-request adaptive speculation (ROADMAP item 3): a
    /// [`SpecController`] inside each session tracks acceptance EWMAs and
    /// picks every iteration's draft shape from a ladder spanning
    /// incremental ⇄ sequence ⇄ dynamic ⇄ `paper_default`, plus the SSM
    /// to draft with (SPIN-style accepted-per-draft-FLOP routing). Greedy
    /// decoding stays exactly lossless for every shape on the ladder; the
    /// stochastic ladder uses sampled drafts only, preserving MSS
    /// exactness (Theorem 4.2).
    Adaptive {
        /// Controller tuning (EWMA factors, hysteresis, probe period).
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

    /// Worst-case KV rows one decoding iteration appends before commit
    /// compacts back to the accepted path when a single SSM drafts: the
    /// speculated node count plus the tree root, or a single row when
    /// incremental. A merged pool drafts more — size slabs with
    /// [`EngineConfig::pool_speculation_rows`].
    pub fn speculation_rows(&self) -> usize {
        self.pool_speculation_rows(1).worst_case
    }

    /// The row accounting of this configuration over a pool of `n_ssms`
    /// SSMs, read off the same lowered plan a session of that pool
    /// drafts by — so slab sizing, admission and the session's own
    /// "does it still fit" check cannot disagree.
    pub fn pool_speculation_rows(&self, n_ssms: usize) -> SpeculationRows {
        // Row counts do not depend on the SSMs' draft-FLOP weights.
        DraftPlan::lower(self, vec![1.0; n_ssms]).rows()
    }
}

/// KV rows one decoding iteration appends before commit compacts back
/// to the accepted path: the tree root plus every speculated node, or
/// one row when incremental.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationRows {
    /// The most any iteration can append: what a right-sized slab
    /// reserves on top of `prompt + max_new`
    /// (see [`Session::try_new_budgeted`]).
    pub worst_case: usize,
    /// What the next iteration appends — of a fresh plan, a session's
    /// first: the adaptive ladder's initial rung, else `worst_case`.
    pub next_iteration: usize,
    /// Whether `next_iteration` moves with acceptance (the adaptive
    /// ladder; see [`Session::current_speculation_rows`]) or stays
    /// `worst_case` (a fixed shape).
    pub adapts: bool,
}

/// Which SSMs of the pool draft an iteration's shape.
#[derive(Debug, Clone, Copy)]
enum Drafters {
    /// One SSM (by pool index), expanding inline on the session's RNG
    /// stream.
    One(usize),
    /// The whole pool of this many SSMs: each expands the shape on its
    /// own forked stream and the trees merge in pool order
    /// (Definition 3.2).
    Pool(usize),
}

impl Drafters {
    /// Rows an iteration drafting `shape` appends: the root plus one
    /// worst-case expansion per drafter (merging only deduplicates).
    fn rows(self, shape: &DraftShape) -> usize {
        let expansions = match self {
            Drafters::One(_) => 1,
            Drafters::Pool(n) => n,
        };
        expansions * shape.node_count() + 1
    }
}

/// What an [`InferenceMode`] means to one session: the shape each
/// iteration drafts and the SSMs that draft it. Lowered once, on the
/// session's first proposal; every row question and the drafter read it.
#[derive(Debug)]
enum DraftPlan {
    /// The static modes: the same shape and drafters every iteration.
    Fixed(DraftShape, Drafters),
    /// [`InferenceMode::Adaptive`]: the controller picks each
    /// iteration's rung of its ladder and routes it to one SSM.
    Adaptive(SpecController),
}

impl DraftPlan {
    /// The one place an [`InferenceMode`] is interpreted. `ssm_flops`
    /// holds one draft-FLOP weight per SSM of the pool.
    fn lower(config: &EngineConfig, ssm_flops: Vec<f32>) -> Self {
        // A static mode drafts with the whole pool merged; a pool of one
        // is that SSM inline on the session's own RNG stream.
        let pool = match ssm_flops.len() {
            // No drafters: every mode decodes incrementally.
            0 => return DraftPlan::Fixed(DraftShape::Incremental, Drafters::One(0)),
            1 => Drafters::One(0),
            n => Drafters::Pool(n),
        };
        match &config.mode {
            InferenceMode::Incremental => DraftPlan::Fixed(DraftShape::Incremental, pool),
            InferenceMode::SequenceSpeculative { depth } => {
                DraftPlan::Fixed(DraftShape::Sequence(*depth), pool)
            }
            InferenceMode::TreeSpeculative { expansion } => {
                DraftPlan::Fixed(DraftShape::Tree(expansion.clone()), pool)
            }
            // Best-first expansion is a single-SSM algorithm: the pool's
            // first drafts it.
            InferenceMode::DynamicTree { config } => {
                DraftPlan::Fixed(DraftShape::Dynamic(config.clone()), Drafters::One(0))
            }
            InferenceMode::Adaptive { config: adaptive } => DraftPlan::Adaptive(
                SpecController::new(adaptive.clone(), config.decode.is_greedy(), ssm_flops),
            ),
        }
    }

    fn rows(&self) -> SpeculationRows {
        let (worst_case, next_iteration, adapts) = match self {
            DraftPlan::Fixed(shape, drafters) => {
                (drafters.rows(shape), drafters.rows(shape), false)
            }
            DraftPlan::Adaptive(c) => (c.worst_case_rows(), c.current_rows(), true),
        };
        SpeculationRows {
            worst_case,
            next_iteration,
            adapts,
        }
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
/// falls back to incremental decoding or rejects the drafts) but never
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

/// When and how a session abandons speculation (the degradation ladder).
///
/// A session watches the acceptance fraction (accepted / tree size) over
/// a sliding window of speculative iterations. When the mean falls below
/// `accept_floor` — an SSM emitting garbage, or simply a hopeless prompt
/// — speculating costs more than it saves, so the session *falls back* to
/// incremental decoding for `cooldown` iterations, then re-probes
/// speculation. Fallback and recovery are pure functions of the step
/// statistics, so seeded runs stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Mean acceptance fraction below which speculation is abandoned.
    pub accept_floor: f64,
    /// Number of speculative iterations averaged; `0` disables the
    /// ladder entirely.
    pub window: usize,
    /// Incremental iterations served before re-probing speculation.
    pub cooldown: usize,
}

impl DegradationPolicy {
    /// The ladder the serving layer enables by default.
    pub fn serving_default() -> Self {
        DegradationPolicy {
            accept_floor: 0.1,
            window: 4,
            cooldown: 6,
        }
    }

    /// Never falls back (the engine's historical behaviour).
    pub fn disabled() -> Self {
        DegradationPolicy {
            accept_floor: 0.0,
            window: 0,
            cooldown: 0,
        }
    }

    /// Whether the ladder is active.
    pub fn is_enabled(&self) -> bool {
        self.window > 0
    }
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy::serving_default()
    }
}

/// Counters of faults absorbed and fallbacks taken by one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Iterations that had any fault injected.
    pub faulted_steps: usize,
    /// Iterations forced incremental by a stall or simulated OOM.
    pub forced_incremental: usize,
    /// Times the acceptance ladder switched to incremental decoding.
    pub fallbacks_taken: usize,
    /// Iterations served incrementally while in fallback.
    pub fallback_steps: usize,
    /// Times the session re-probed speculation after a cooldown.
    pub reprobes: usize,
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

/// One proposed decoding iteration, produced by [`Session::propose`].
///
/// Splitting the step at the LLM-forward boundary is what lets
/// [`crate::BatchedVerifier`] fuse the verification forwards of many
/// sessions into stacked passes: speculation and sampling/commit stay
/// per-session, while the part that touches the LLM batches.
#[derive(Debug)]
pub(crate) enum Proposal {
    /// One ordinary causal row: the sequence's last token.
    Incremental {
        /// Whether a fault (stall/OOM) forced it. The batched verifier
        /// forwards such rows serially so a faulted request never
        /// poisons its batch-mates.
        forced: bool,
    },
    /// A speculated token tree awaiting tree-parallel verification.
    /// Boxed so the small `Incremental` variant doesn't inflate every
    /// `Proposal` to the tree payload's size.
    Tree(Box<TreeProposal>),
}

#[derive(Debug)]
pub(crate) struct TreeProposal {
    pub(crate) spec: Speculation,
    pub(crate) lin: LinearizedTree,
    /// The controller decision behind the draft (adaptive plans only);
    /// fed back to the controller at commit.
    decision: Option<AdaptiveDecision>,
}

/// Per-request generation state, advanced one decoding iteration at a
/// time.
///
/// The KV-cache invariant maintained between iterations: every cache
/// (LLM and SSMs) holds rows for all tokens of the sequence *except the
/// last one* — the last token is the root the next speculated tree grows
/// from (Figure 4 feeds the verified token together with the speculated
/// ones).
#[derive(Debug)]
pub struct Session {
    tokens: Vec<TokenId>,
    prompt_len: usize,
    llm_cache: KvCache,
    ssm_caches: Vec<KvCache>,
    rng: SeededRng,
    steps: Vec<StepStats>,
    finished: bool,
    policy: DegradationPolicy,
    degradation: DegradationStats,
    accept_window: VecDeque<f64>,
    fallback_until: Option<usize>,
    /// The lowered [`InferenceMode`], installed by the first proposal
    /// (the configuration and the SSM pool's FLOP weights only arrive
    /// with the first step).
    plan: Option<DraftPlan>,
}

impl Session {
    /// Starts a session: prefills the prompt (all but its last token)
    /// into the LLM cache and every SSM cache.
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
    /// `prompt.len() + max_new_tokens +` the `worst_case` of
    /// [`EngineConfig::pool_speculation_rows`] for this pool is provably
    /// sufficient for bitwise-identical behavior to the full-capacity
    /// session: the last decoding iteration starts with at most
    /// `prompt + max_new − 2` committed rows and no iteration — a merged
    /// pool's `n_ssms` expansions included — appends more than
    /// `worst_case`, so neither the context-exhaustion guard nor the
    /// speculation-fits check can trigger before generation finishes.
    /// Smaller budgets are accepted but degrade to incremental decoding
    /// (and eventually early termination) near the capacity limit.
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
        // Everything but the last token is prefilled; the last token
        // roots the first speculated tree.
        let head = prompt.split_last().map(|(_, h)| h).unwrap_or(&[]);
        let mut llm_cache = llm.new_cache_with_capacity(kv_rows.max(prompt.len()));
        if !head.is_empty() {
            let _ = llm.prefill(head, &mut llm_cache);
        }
        let ssm_caches = ssms
            .iter()
            .map(|ssm| {
                let mut c = ssm.new_cache();
                if !head.is_empty() {
                    let _ = ssm.prefill(head, &mut c);
                }
                c
            })
            .collect();
        Ok(Session {
            tokens: prompt.to_vec(),
            prompt_len: prompt.len(),
            llm_cache,
            ssm_caches,
            rng: SeededRng::new(seed),
            steps: Vec::new(),
            finished: false,
            policy: DegradationPolicy::disabled(),
            degradation: DegradationStats::default(),
            accept_window: VecDeque::new(),
            fallback_until: None,
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

    /// Committed length of the LLM KV cache (rows of verified context).
    pub(crate) fn llm_cache_len(&self) -> usize {
        self.llm_cache.len()
    }

    /// Committed KV rows of verified context (public mirror of
    /// [`Session::llm_cache_len`], for occupancy accounting).
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
    /// walks: consumed node by node, whatever pass delivers a node's row.
    pub(crate) fn rng_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// Speculation rows the session's *next* iteration will actually
    /// append: the controller's current rung under an adaptive plan, the
    /// fixed shape's (pool-aware) count otherwise. This is the
    /// per-request occupancy cost `admit_budgeted` charges — the
    /// width-vs-batch-depth tradeoff: a request parked at incremental
    /// frees ~20 rows of budget for admitting more batch-mates.
    pub fn current_speculation_rows(&self, config: &EngineConfig) -> usize {
        match &self.plan {
            Some(plan) => plan.rows(),
            None => config.pool_speculation_rows(self.ssm_caches.len()),
        }
        .next_iteration
    }

    /// Whether the next [`Session::propose`] runs SSM forwards — a real
    /// draft — rather than answering at once. Advice for scheduling
    /// only: it may say `true` for a proposal that ends up incremental
    /// (a shape that no longer fits), and a wrong answer costs
    /// parallelism, never a different proposal.
    pub(crate) fn drafts_next(&self, config: &EngineConfig, fault: StepFault) -> bool {
        !self.finished
            && fault.is_noop()
            && self
                .fallback_until
                .is_none_or(|until| self.steps.len() >= until)
            && self.current_speculation_rows(config) > 1
    }

    /// Telemetry snapshot of the adaptive controller, if this session has
    /// one (i.e. it stepped under [`InferenceMode::Adaptive`] with a
    /// non-empty pool).
    pub fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        match &self.plan {
            Some(DraftPlan::Adaptive(controller)) => Some(controller.snapshot()),
            _ => None,
        }
    }

    /// Enables (or replaces) the acceptance-collapse degradation ladder.
    pub fn set_degradation_policy(&mut self, policy: DegradationPolicy) {
        self.policy = policy;
    }

    /// Counters of faults absorbed and fallbacks taken so far.
    pub fn degradation(&self) -> DegradationStats {
        self.degradation
    }

    /// Whether the session is currently decoding incrementally because
    /// the degradation ladder fell back.
    pub fn in_fallback(&self) -> bool {
        self.fallback_until
            .is_some_and(|until| self.steps.len() < until)
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
    /// via the residual, keeping the output distribution exact). The
    /// degradation ladder ([`DegradationPolicy`]) watches acceptance and
    /// falls back to incremental decoding when speculation collapses.
    ///
    /// A serial step is a batch of one through the whole-tree stage of
    /// the one verifier ([`BatchedVerifier::single_pass`]).
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
        let mut stats = BatchedVerifier::single_pass().step_batch(llm, ssms, &mut batch);
        stats.pop().flatten()
    }

    /// Phase 1 of an iteration: decide what the LLM must verify.
    ///
    /// Runs the fault/fallback bookkeeping, lowers `config.mode` for this
    /// session's pool on the first call (later calls keep that plan), and
    /// — when the plan drafts — runs the whole SSM expansion, consuming
    /// the session's RNG stream exactly as [`Session::step_faulted`]
    /// always has. Returns `None` when the session is finished (or just
    /// exhausted its context). The returned [`Proposal`] must be
    /// forwarded and committed ([`Session::commit_incremental`] /
    /// [`Session::commit_verified`]) before the session can step again.
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
        if self.llm_cache.len() + 1 > self.llm_cache.max_len() {
            self.finished = true;
            return None;
        }
        if !fault.is_noop() {
            self.degradation.faulted_steps += 1;
        }
        let idx = self.steps.len();
        // Cooldown over → re-probe speculation with a fresh window.
        if let Some(until) = self.fallback_until {
            if idx >= until {
                self.fallback_until = None;
                self.degradation.reprobes += 1;
                self.accept_window.clear();
            }
        }
        let mut plan = match self.plan.take() {
            Some(plan) => plan,
            None => DraftPlan::lower(
                config,
                ssms.iter().map(|s| draft_flop_weight(s.config())).collect(),
            ),
        };
        let speculative_mode = !matches!(plan, DraftPlan::Fixed(DraftShape::Incremental, _));
        let forced_incremental = speculative_mode && (fault.ssm_stall || fault.kv_oom);

        let mut decision = None;
        let spec = if forced_incremental {
            self.degradation.forced_incremental += 1;
            None
        } else if self.fallback_until.is_some() {
            self.degradation.fallback_steps += 1;
            None
        } else {
            match &mut plan {
                DraftPlan::Fixed(shape, drafters) => {
                    self.draft(llm, ssms, shape, *drafters, config, fault.ssm_garbage)
                }
                DraftPlan::Adaptive(controller) => {
                    // Only a draft that ran teaches the controller: the
                    // incremental rung offers nothing, and a shape that
                    // no longer fits near the context limit must not
                    // count against it.
                    let d = controller.decide();
                    let routed = Drafters::One(d.ssm);
                    let spec = self.draft(llm, ssms, &d.shape, routed, config, fault.ssm_garbage);
                    decision = spec.is_some().then_some(d);
                    spec
                }
            }
        };
        self.plan = Some(plan);
        Some(match spec {
            Some(spec) => Proposal::Tree(Box::new(TreeProposal {
                lin: LinearizedTree::new(&spec.tree),
                spec,
                decision,
            })),
            None => Proposal::Incremental {
                forced: forced_incremental,
            },
        })
    }

    /// The one drafter: speculates `shape` with `drafters`, or answers
    /// `None` — an incremental row — when the shape is the incremental one
    /// or, near the context limit, no longer fits the caches. A
    /// garbage-logits fault replaces the draft with uniform draws in the
    /// shape's static expansion, without consulting the SSMs or their
    /// caches. One SSM expands inline on the session's RNG stream; a pool
    /// expands data-parallel — one private tree and forked RNG stream per
    /// SSM — and the trees merge deterministically in pool order (§3).
    fn draft(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        shape: &DraftShape,
        drafters: Drafters,
        config: &EngineConfig,
        garbage: Option<u64>,
    ) -> Option<Speculation> {
        let expansion = shape.static_expansion()?;
        if !self.speculation_fits(drafters.rows(shape)) {
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
        let mode = ExpansionMode::for_decode_mode(&config.decode);
        Some(match drafters {
            Drafters::Pool(n) => speculate_pool_parallel(
                ssms,
                &mut self.ssm_caches,
                root,
                &vec![&*expansion; n],
                mode,
                &mut self.rng,
            ),
            Drafters::One(id) => {
                let (ssm, cache) = match (ssms.get(id), self.ssm_caches.get_mut(id)) {
                    (Some(&ssm), Some(cache)) => (ssm, cache),
                    _ => unreachable!("drafts are routed within the SSM pool"),
                };
                if let DraftShape::Dynamic(budget) = shape {
                    speculate_dynamic(ssm, cache, root, budget, id)
                } else {
                    let mut tree = TokenTree::new(root);
                    let mut dists = SsmDistTable::new();
                    let rng = &mut self.rng;
                    expand_into(&mut tree, &mut dists, ssm, id, cache, &expansion, mode, rng);
                    Speculation { tree, dists }
                }
            }
        })
    }

    /// Shared tail of every commit path: feed the adaptive controller and
    /// the degradation ladder, record the step.
    fn finish_step(&mut self, decision: Option<AdaptiveDecision>, stats: StepStats) -> StepStats {
        let idx = self.steps.len();
        if let (Some(DraftPlan::Adaptive(controller)), Some(d)) = (&mut self.plan, &decision) {
            controller.observe(d, stats.accepted);
        }
        // Feed the ladder with the acceptance of speculative iterations
        // (forced-incremental and fallback steps draft no tree).
        if self.policy.is_enabled() && stats.tree_size > 0 {
            self.accept_window
                .push_back(stats.accepted as f64 / stats.tree_size as f64);
            while self.accept_window.len() > self.policy.window {
                self.accept_window.pop_front();
            }
            if self.accept_window.len() == self.policy.window {
                let mean: f64 = self.accept_window.iter().sum::<f64>() / self.policy.window as f64;
                if mean < self.policy.accept_floor {
                    self.degradation.fallbacks_taken += 1;
                    self.fallback_until = Some(idx + 1 + self.policy.cooldown);
                    self.accept_window.clear();
                }
            }
        }
        self.steps.push(stats);
        stats
    }

    /// Whether an iteration appending up to `need` rows (the root plus
    /// every drafted node) fits in every cache involved.
    fn speculation_fits(&self, need: usize) -> bool {
        if self.llm_cache.len() + need > self.llm_cache.max_len() {
            return false;
        }
        self.ssm_caches
            .iter()
            .all(|c| c.len() + need <= c.max_len())
    }

    /// Commits one incremental row: samples the next token from its
    /// logits. The SSM caches are not advanced (ROADMAP item 2e).
    pub(crate) fn commit_incremental(
        &mut self,
        config: &EngineConfig,
        logits: &Tensor,
    ) -> StepStats {
        let next = match &config.decode {
            DecodeMode::Greedy => sampler::greedy_token(logits.data()),
            mode => {
                let p = sampler::probs_from_logits(logits.data(), mode);
                sampler::sample_token(&p, &mut self.rng)
            }
        };
        self.tokens.push(next);
        self.check_termination(config, &[next]);
        let stats = StepStats {
            tree_size: 0,
            accepted: 0,
            emitted: 1,
        };
        self.finish_step(None, stats)
    }

    /// Commits a tree proposal the batched verifier has verified:
    /// `outcome` is the finished walk's result, `prefix` the LLM-cache
    /// length from before any verify rows were appended, and `keep` the
    /// strictly-increasing positions (relative to `prefix`) of the root
    /// and accepted rows within the cache's current appended tail.
    /// Compacts the LLM cache onto `keep`, replays the accepted path into
    /// every SSM cache, extends the token sequence, checks termination,
    /// feeds the controller and the degradation ladder and records the
    /// step.
    pub(crate) fn commit_verified(
        &mut self,
        ssms: &[&Transformer],
        config: &EngineConfig,
        proposal: TreeProposal,
        outcome: VerifyOutcome,
        prefix: usize,
        keep: Vec<usize>,
    ) -> StepStats {
        let root = self.last_token();
        self.llm_cache.retain_rows(prefix, &keep);

        // SSM caches saw only the verified prefix; append the root and the
        // newly verified tokens (everything but the bonus) to restore the
        // invariant.
        let accepted = outcome.accepted_speculated();
        let mut replay = Vec::with_capacity(1 + accepted);
        replay.push(root);
        // The verifier emits accepted tokens first, bonus last, so the
        // first `accepted` entries always exist.
        replay.extend_from_slice(outcome.tokens.get(..accepted).unwrap_or(&[]));
        for (ssm, cache) in ssms.iter().zip(self.ssm_caches.iter_mut()) {
            let _ = ssm.prefill(&replay, cache);
        }

        self.tokens.extend_from_slice(&outcome.tokens);
        self.check_termination(config, &outcome.tokens);
        let stats = StepStats {
            tree_size: proposal.spec.tree.speculated_len(),
            accepted,
            emitted: outcome.tokens.len(),
        };
        self.finish_step(proposal.decision, stats)
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
    fn greedy_tree_spec_matches_incremental_exactly() {
        let (llm, ssm) = models();
        let inc = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        )
        .generate(&[5, 9, 2], 0);
        let tree = SpecEngine::new(
            &llm,
            vec![&ssm],
            config(
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 2, 1, 1]),
                },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[5, 9, 2], 0);
        // Lossless guarantee: identical output, fewer LLM steps.
        let n = inc.generated().len().min(tree.generated().len());
        assert_eq!(&inc.generated()[..n], &tree.generated()[..n]);
        assert!(tree.llm_steps() <= inc.llm_steps());
    }

    #[test]
    fn sequence_spec_is_tree_of_width_one() {
        let (llm, ssm) = models();
        let r = SpecEngine::new(
            &llm,
            vec![&ssm],
            config(
                InferenceMode::SequenceSpeculative { depth: 4 },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[7, 7, 7], 1);
        for s in &r.steps {
            assert!(s.tree_size <= 4);
            assert_eq!(s.emitted, s.accepted + 1);
        }
    }

    #[test]
    fn self_speculation_accepts_everything_greedy() {
        // When the SSM *is* the LLM, greedy speculation of a chain must be
        // accepted in full every step: emitted = depth + 1.
        let (llm, _) = models();
        let depth = 4;
        let r = SpecEngine::new(
            &llm,
            vec![&llm],
            config(
                InferenceMode::SequenceSpeculative { depth },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[2, 3], 0);
        for s in &r.steps {
            assert_eq!(s.accepted, depth, "self-speculation must fully verify");
            assert_eq!(s.emitted, depth + 1);
        }
    }

    #[test]
    fn stochastic_modes_produce_budgeted_output() {
        let (llm, ssm) = models();
        for verifier in [StochasticVerifier::MultiStep, StochasticVerifier::Naive] {
            let mut cfg = config(
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1, 1]),
                },
                DecodeMode::stochastic(),
            );
            cfg.verifier = verifier;
            let r = SpecEngine::new(&llm, vec![&ssm], cfg).generate(&[4, 4], 3);
            assert!(r.generated().len() >= 24);
            for s in &r.steps {
                assert_eq!(s.emitted, s.accepted + 1);
            }
        }
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
    fn context_exhaustion_degrades_then_finishes() {
        // A model with a tiny context window: the engine must fall back
        // to incremental steps near the limit and stop cleanly at it,
        // never panicking on cache overflow.
        let cfg_model = ModelConfig {
            max_seq_len: 18,
            ..ModelConfig::smoke()
        };
        let llm = Transformer::from_seed(cfg_model.clone(), 300);
        let ssm = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..cfg_model
            },
            301,
        );
        let mut cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            DecodeMode::Greedy,
        );
        cfg.max_new_tokens = 100; // far beyond the context window
        let r = SpecEngine::new(&llm, vec![&ssm], cfg).generate(&[1, 2, 3], 0);
        // Sequence length (prompt + generated) never exceeds max_seq_len
        // by more than the final bonus token that is never cached.
        assert!(r.tokens.len() <= 18 + 1, "{} tokens", r.tokens.len());
        assert!(!r.generated().is_empty());
    }

    #[test]
    fn dynamic_tree_is_lossless_under_greedy() {
        let (llm, ssm) = models();
        let inc = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        )
        .generate(&[3, 8, 1], 0);
        let dynamic = SpecEngine::new(
            &llm,
            vec![&ssm],
            config(
                InferenceMode::DynamicTree {
                    config: crate::dynamic::DynamicExpansionConfig::default(),
                },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[3, 8, 1], 0);
        let n = inc.generated().len().min(dynamic.generated().len());
        assert_eq!(&inc.generated()[..n], &dynamic.generated()[..n]);
        assert!(dynamic.llm_steps() <= inc.llm_steps());
        assert!(dynamic.steps.iter().all(|s| s.tree_size <= 20));
    }

    #[test]
    fn garbage_ssm_fault_is_lossless_under_greedy() {
        // With garbage SSM logits injected on every step, greedy
        // verification rejects the junk drafts and the output must be
        // bit-identical to a fault-free run.
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            DecodeMode::Greedy,
        );
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[5, 9, 2], 0);

        let mut s = Session::new(&llm, &[&ssm], &[5, 9, 2], 0);
        let mut step = 0u64;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_garbage: Some(0xfa017 ^ step),
                ..StepFault::default()
            };
            let _ = s.step_faulted(&llm, &[&ssm], &cfg, fault);
            step += 1;
        }
        assert!(s.degradation().faulted_steps > 0);
        let faulted = s.into_result();
        assert_eq!(clean.tokens, faulted.tokens);
    }

    #[test]
    fn stall_and_oom_force_incremental_steps() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1]),
            },
            DecodeMode::Greedy,
        );
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[7, 3], 0);

        let mut s = Session::new(&llm, &[&ssm], &[7, 3], 0);
        let mut i = 0usize;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_stall: i.is_multiple_of(2),
                kv_oom: i % 2 == 1,
                ..StepFault::default()
            };
            let stats = s.step_faulted(&llm, &[&ssm], &cfg, fault).unwrap();
            assert_eq!(stats.tree_size, 0, "faulted step must not speculate");
            assert_eq!(stats.emitted, 1);
            i += 1;
        }
        let d = s.degradation();
        assert_eq!(d.forced_incremental, i);
        assert_eq!(d.faulted_steps, i);
        // Forced-incremental greedy decoding is still lossless.
        assert_eq!(s.into_result().tokens, clean.tokens);
    }

    #[test]
    fn acceptance_collapse_falls_back_and_reprobes() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2]),
            },
            DecodeMode::Greedy,
        );
        let mut cfg = cfg;
        cfg.max_new_tokens = 40;
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[4, 8], 0);

        let mut s = Session::new(&llm, &[&ssm], &[4, 8], 0);
        s.set_degradation_policy(DegradationPolicy {
            accept_floor: 0.5,
            window: 2,
            cooldown: 3,
        });
        let mut step = 0u64;
        while !s.is_finished() {
            // Garbage on every probe ⇒ acceptance collapses ⇒ the ladder
            // must fall back, cool down, re-probe, and collapse again.
            let fault = StepFault {
                ssm_garbage: Some(step),
                ..StepFault::default()
            };
            let stats = s.step_faulted(&llm, &[&ssm], &cfg, fault).unwrap();
            if s.in_fallback() {
                assert!(stats.emitted >= 1);
            }
            step += 1;
        }
        let d = s.degradation();
        assert!(d.fallbacks_taken >= 1, "{d:?}");
        // Every fallback serves its cooldown incrementally (the last one
        // may be cut short by the generation budget).
        assert!(d.fallback_steps >= (d.fallbacks_taken - 1) * 3, "{d:?}");
        assert!(d.reprobes >= 1, "{d:?}");
        assert_eq!(s.into_result().tokens, clean.tokens, "fallback is lossless");
    }

    #[test]
    fn disabled_ladder_never_falls_back() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1]),
            },
            DecodeMode::Greedy,
        );
        let mut s = Session::new(&llm, &[&ssm], &[1, 2], 0);
        let mut step = 0u64;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_garbage: Some(step),
                ..StepFault::default()
            };
            let _ = s.step_faulted(&llm, &[&ssm], &cfg, fault);
            step += 1;
        }
        let d = s.degradation();
        assert_eq!(d.fallbacks_taken, 0);
        assert_eq!(d.fallback_steps, 0);
    }

    #[test]
    fn garbage_fault_preserves_stochastic_budget() {
        // Under stochastic decoding garbage drafts flow through the MSS
        // residual path; generation still completes its budget and every
        // step emits accepted + 1 tokens.
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1]),
            },
            DecodeMode::stochastic(),
        );
        let mut s = Session::new(&llm, &[&ssm], &[6, 6], 9);
        let mut step = 0u64;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_garbage: Some(step),
                ..StepFault::default()
            };
            let stats = s.step_faulted(&llm, &[&ssm], &cfg, fault).unwrap();
            assert_eq!(stats.emitted, stats.accepted + 1);
            step += 1;
        }
        assert!(s.generated().len() >= 24);
    }

    #[test]
    fn multi_ssm_sessions_track_their_pool() {
        let (llm, ssm) = models();
        let ssm2 = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            202,
        );
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![1, 1, 1]),
            },
            DecodeMode::Greedy,
        );
        let r = SpecEngine::new(&llm, vec![&ssm, &ssm2], cfg).generate(&[9, 9], 5);
        assert!(r.generated().len() >= 24);
        // Merged speculation from two distinct SSMs yields trees of up to
        // 6 nodes (two depth-3 chains).
        assert!(r.steps.iter().all(|s| s.tree_size <= 6));
    }
}
