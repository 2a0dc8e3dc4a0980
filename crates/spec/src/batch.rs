//! Cross-request batched tree verification (§5's iteration-level
//! scheduling): all sessions of a continuous-batching iteration are
//! verified by the LLM in stacked tree-parallel forwards, through **one
//! staged loop** — the repository's only verifier.
//!
//! An iteration has three phases. Speculation
//! ([`crate::Session::propose`]) is *logically* per-session — the SSM
//! pool, RNG streams and degradation ladder are untouched — but runs as
//! one data-parallel pass across the batch, which is bitwise-safe
//! because each session owns its caches and RNG stream and every kernel
//! is bitwise-identical at any thread count. The LLM forwards then
//! fuse: the staged rows of every participant stack into one `[Σnᵢ, d]`
//! batch with a block-diagonal visibility mask and per-request KV-cache
//! handles, so the model crate's blocked kernels see one tall matrix
//! instead of N tiny ones. Finally commit runs per-session, in item
//! order.
//!
//! # The staged walk
//!
//! A tree participant carries its verification walk, the linearized
//! indices now in its cache tail and the indices staged for the next
//! forward. One pass is: **stage** (stack everybody's staged rows, each
//! tree under its topology mask restricted to those rows) → **fused
//! forward** → **advance** every walk over the rows it just received →
//! a walk that pauses at a node whose row is missing **compacts** its
//! cache tail to that node's ancestors and **restages** the node's DFS
//! subtree. The loop ends when nobody has rows staged; every tree then
//! **commits** the root + accepted path of its tail. Most of a wide
//! tree dies at depth 1, so what is staged *first* is the one thing the
//! two entry points choose (after "Hierarchical Verification of
//! Speculative Beams"; the bitwise argument is ARCHITECTURE.md §14.2):
//!
//! * [`BatchedVerifier::new`] — what the serving driver runs — stages
//!   each tree's **depth ≤ 1 frontier**. A walk that dies there never
//!   forwards its deep subtrees (they are *pruned*); a survivor pauses
//!   at one depth-2 node, whose subtree is the second and last pass.
//! * [`BatchedVerifier::single_pass`] — the tests' reference, and what
//!   serial [`crate::Session::step`] runs as a batch of one — stages the
//!   **whole tree**; no walk can pause and the loop runs once.
//!
//! The two are bitwise equal under greedy and MSS alike: walks resume at
//! node boundaries with no mid-node RNG state ([`crate::VerifyWalk`]),
//! and a forwarded row sees exactly its ancestors, in the same relative
//! order, as in the whole-tree layout — a masked column contributes an
//! exact `0.0` to the attention reduction, so dropping it from the
//! layout leaves every output bit unchanged.
//!
//! Every participant is a tree: an incremental step (incremental mode,
//! a degradation fallback, a fault) is the root alone — one row
//! in the first pass, whose walk accepts nothing and emits the bonus
//! from the root's own logits — and every lane commits through
//! [`crate::Session`]'s one commit path.
//!
//! The batch is **ragged**: `step_batch` takes whatever set is live, so
//! requests join and retire mid-flight and the block-diagonal mask is
//! re-packed from scratch every call (ARCHITECTURE.md §12). Faulted
//! requests (SSM stall, simulated KV OOM) hold their root-only tree back
//! from the fused passes and run the same loop after them as a batch of
//! one — a fault degrades one request without poisoning its
//! batch-mates. Every row of a stacked forward is computed with the
//! reduction order of a solo forward (see `specinfer-model`), so a
//! session's output does not depend on who shares its batch.

use std::borrow::Cow;
use std::slice;

use specinfer_model::{BatchRequest, DecodeMode, Transformer, Visibility};
use specinfer_tensor::{pool, Tensor};
use specinfer_tokentree::{LinearizedTree, TokenId, TopologyMask};

use crate::engine::{EngineConfig, Proposal, Session, StepFault, StepStats};
use crate::verifier::{
    advance_greedy, advance_naive, advance_stochastic, LogitRows, StochasticVerifier, VerifyWalk,
};

/// One session's slot in a batched iteration.
#[derive(Debug)]
pub struct BatchItem<'a> {
    /// The session to advance.
    pub session: &'a mut Session,
    /// Its engine configuration (per-request, Orca-style).
    pub config: &'a EngineConfig,
    /// The fault injected into this session's iteration.
    pub fault: StepFault,
}

impl<'a> BatchItem<'a> {
    /// A fault-free slot.
    pub fn new(session: &'a mut Session, config: &'a EngineConfig) -> Self {
        BatchItem {
            session,
            config,
            fault: StepFault::default(),
        }
    }
}

/// Verify-row accounting of one batched iteration — frontier-first
/// staging's reason to exist, made measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchRowStats {
    /// Rows a whole-tree first stage forwards for the same participants
    /// (every tree node; a root-only tree is one).
    pub single_pass_rows: usize,
    /// Rows forwarded in the first pass (the first stage of every
    /// tree).
    pub pass_a_rows: usize,
    /// Rows forwarded in later passes (surviving subtrees only).
    pub pass_b_rows: usize,
}

impl BatchRowStats {
    /// Total rows the staged loop forwarded.
    pub fn forwarded_rows(&self) -> usize {
        self.pass_a_rows + self.pass_b_rows
    }

    /// Rows pruned relative to whole-tree verification. Never negative:
    /// the stages of one tree are disjoint subsets of its linearization.
    pub fn pruned_rows(&self) -> usize {
        self.single_pass_rows.saturating_sub(self.forwarded_rows())
    }

    /// Accumulates another iteration's counts.
    pub fn absorb(&mut self, other: &BatchRowStats) {
        self.single_pass_rows += other.single_pass_rows;
        self.pass_a_rows += other.pass_a_rows;
        self.pass_b_rows += other.pass_b_rows;
    }
}

/// What a tree participant stages before the first fused forward — the
/// only difference between the two entry points.
#[derive(Debug, Clone, Copy)]
enum FirstStage {
    /// Every node: one pass, nothing pruned.
    WholeTree,
    /// Root + depth-1 children: deep subtrees are forwarded only under a
    /// survivor.
    Frontier,
}

impl FirstStage {
    /// The linearized indices staged first, ascending.
    fn rows(self, lin: &LinearizedTree) -> Vec<usize> {
        let max_depth = match self {
            FirstStage::WholeTree => usize::MAX,
            FirstStage::Frontier => 1,
        };
        let depths = lin.depths().iter().enumerate();
        depths
            .filter(|&(_, &d)| d <= max_depth)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Drives N sessions through the staged verification loop.
#[derive(Debug)]
pub struct BatchedVerifier {
    first: FirstStage,
}

impl Default for BatchedVerifier {
    fn default() -> Self {
        BatchedVerifier::new()
    }
}

impl BatchedVerifier {
    /// The serving verifier: frontier first, surviving subtrees second.
    pub fn new() -> Self {
        BatchedVerifier {
            first: FirstStage::Frontier,
        }
    }

    /// Every tree node forwarded in one pass: the reference the
    /// equivalence tests and row-count comparisons hold
    /// [`BatchedVerifier::new`] against, and the schedule of serial
    /// [`Session::step`].
    pub fn single_pass() -> Self {
        BatchedVerifier {
            first: FirstStage::WholeTree,
        }
    }

    /// Advances every item by one decoding iteration, fusing all
    /// non-faulted LLM forwards into stacked passes.
    ///
    /// Returns one `Option<StepStats>` per item, in order — `None` for
    /// sessions that were already finished. Stall/OOM-faulted items fall
    /// out of the fused passes and forward their root serially after
    /// them. Neither kind counts in [`BatchRowStats`].
    pub fn step_batch(
        &self,
        llm: &Transformer,
        ssms: &[&Transformer],
        items: &mut [BatchItem<'_>],
    ) -> Vec<Option<StepStats>> {
        self.step_batch_counted(llm, ssms, items).0
    }

    /// [`BatchedVerifier::step_batch`] plus the iteration's verify-row
    /// accounting.
    pub fn step_batch_counted(
        &self,
        llm: &Transformer,
        ssms: &[&Transformer],
        items: &mut [BatchItem<'_>],
    ) -> (Vec<Option<StepStats>>, BatchRowStats) {
        let proposals = propose_all(llm, ssms, items);
        // One lane per item; `None` for a session that was already finished.
        let mut lanes: Vec<Option<Lane>> = proposals
            .into_iter()
            .zip(items.iter())
            .map(|(p, item)| p.map(|p| Lane::new(p, item.session.llm_cache_len(), self.first)))
            .collect();
        let mut row_stats = run_passes(llm, &mut lanes, items);
        let fused = lanes.iter().flatten().filter(|lane| !lane.draft.forced);
        row_stats.single_pass_rows = fused.map(|lane| lane.draft.lin.len()).sum();

        // Per item, in order: a fault-forced lane stages its root now and
        // runs the loop as a batch of one; then every lane commits.
        let mut stats: Vec<Option<StepStats>> = Vec::with_capacity(items.len());
        for (mut lane, item) in lanes.into_iter().zip(items.iter_mut()) {
            if let Some(forced) = lane.as_mut().filter(|lane| lane.draft.forced) {
                forced.next = self.first.rows(&forced.draft.lin);
                let _ = run_passes(llm, slice::from_mut(&mut lane), slice::from_mut(item));
            }
            stats.push(lane.map(|lane| lane.commit(item.session, item.config)));
        }
        (stats, row_stats)
    }
}

/// The staged loop over `lanes` (parallel to `items`): stack every
/// lane's staged rows into one fused forward, advance every walk over
/// the rows it received, repeat until no lane has rows staged. Returns
/// the rows forwarded in the first pass and in the later ones.
fn run_passes(
    llm: &Transformer,
    lanes: &mut [Option<Lane>],
    items: &mut [BatchItem<'_>],
) -> BatchRowStats {
    let mut row_stats = BatchRowStats::default();
    for pass in 0.. {
        // Stage: the rows each lane wants forwarded, in item order.
        let staged: Vec<Option<StagedRows<'_>>> =
            lanes.iter().map(|lane| lane.as_ref()?.stage()).collect();
        let mut reqs: Vec<BatchRequest<'_>> = Vec::with_capacity(items.len());
        for (rows, item) in staged.iter().zip(items.iter_mut()) {
            let Some(rows) = rows else { continue };
            reqs.push(BatchRequest {
                tokens: &rows.tokens,
                positions: &rows.positions,
                cache: item.session.llm_cache_mut(),
                visible: Visibility::Tree(&rows.mask),
            });
        }
        if reqs.is_empty() {
            break;
        }
        let forwarded: usize = reqs.iter().map(|q| q.tokens.len()).sum();
        if pass == 0 {
            row_stats.pass_a_rows += forwarded;
        } else {
            row_stats.pass_b_rows += forwarded;
        }

        // Fused forward, then advance: a lane consumes its logits and
        // either finishes or restages.
        let mut logits = llm.forward_rows_batch(&mut reqs).into_iter();
        for (lane, item) in lanes.iter_mut().zip(items.iter_mut()) {
            let Some(lane) = lane.as_mut().filter(|lane| !lane.next.is_empty()) else {
                continue;
            };
            let Some(rows) = logits.next() else {
                unreachable!("one logits tensor per staged lane")
            };
            lane.advance(item.session, item.config, &rows);
        }
    }
    row_stats
}

/// Phase 1: fused speculation. Sessions whose next proposal drafts
/// nothing (incremental mode, degraded, faulted, finished) are answered
/// on the spot, with a root-only tree
/// or `None`; the real drafts — SSM catch-up and expansion, milliseconds
/// each — become one pool region when there are at least two. Each
/// session owns its caches and RNG stream and the kernels are
/// bitwise-identical at any thread count, so this emits exactly the
/// proposals serial per-item sequencing would.
fn propose_all(
    llm: &Transformer,
    ssms: &[&Transformer],
    items: &mut [BatchItem<'_>],
) -> Vec<Option<Proposal>> {
    let mut proposals: Vec<Option<Proposal>> = Vec::with_capacity(items.len());
    proposals.resize_with(items.len(), || None);
    let mut drafts = Vec::with_capacity(items.len());
    for (it, slot) in items.iter_mut().zip(proposals.iter_mut()) {
        if it.session.drafts_next(it.config, it.fault) {
            drafts.push((it, slot));
        } else {
            *slot = it.session.propose(llm, ssms, it.config, it.fault);
        }
    }
    let tasks = drafts.len();
    pool::run_chunks(&mut drafts, 1, tasks, |_, run| {
        for (it, slot) in run {
            **slot = it.session.propose(llm, ssms, it.config, it.fault);
        }
    });
    proposals
}

/// One row set of a fused forward.
struct StagedRows<'a> {
    tokens: Cow<'a, [TokenId]>,
    positions: Vec<usize>,
    /// Tree visibility among these rows.
    mask: Cow<'a, TopologyMask>,
}

/// One live item's token tree under verification, threaded through the
/// passes.
struct Lane {
    draft: Proposal,
    /// Cache length before any verify row was appended.
    base: usize,
    walk: VerifyWalk,
    /// Linearized indices of the rows now in the cache tail, ascending.
    tail: Vec<usize>,
    /// Linearized indices staged for the next forward, ascending.
    next: Vec<usize>,
}

/// [`LogitRows`] over one pass's logits: row `k` of the tensor belongs
/// to linearized index `indices[k]` (ascending).
struct PassRows<'a> {
    logits: &'a Tensor,
    indices: &'a [usize],
}

impl LogitRows for PassRows<'_> {
    fn row(&self, idx: usize) -> Option<&[f32]> {
        let k = self.indices.binary_search(&idx).ok()?;
        Some(self.logits.row(k))
    }
}

impl Lane {
    /// A lane over `draft` on top of `base` committed rows, staging
    /// `first`'s rows — none yet for a fault-forced step, which sits the
    /// fused passes out.
    fn new(draft: Proposal, base: usize, first: FirstStage) -> Self {
        let next = if draft.forced {
            Vec::new()
        } else {
            first.rows(&draft.lin)
        };
        Lane {
            draft,
            base,
            walk: VerifyWalk::new(),
            tail: Vec::new(),
            next,
        }
    }

    /// Tokens, positions and mask of the staged rows, if any. A stage
    /// covering the whole tree borrows the proposal's own tokens and
    /// mask.
    fn stage(&self) -> Option<StagedRows<'_>> {
        if self.next.is_empty() {
            return None;
        }
        let lin = &self.draft.lin;
        let staged = |i: &usize| self.next.binary_search(i).is_ok();
        let rows = lin.tokens().iter().zip(lin.depths()).enumerate();
        let (tokens, positions): (Vec<TokenId>, Vec<usize>) = rows
            .filter(|(i, _)| staged(i))
            .map(|(_, (&token, &depth))| (token, self.base + depth))
            .unzip();
        assert_eq!(tokens.len(), self.next.len(), "staged rows lie in the tree");
        let (tokens, mask) = if tokens.len() == lin.len() {
            (Cow::Borrowed(lin.tokens()), Cow::Borrowed(lin.mask()))
        } else {
            (
                Cow::Owned(tokens),
                Cow::Owned(lin.mask().restrict(&self.next)),
            )
        };
        Some(StagedRows {
            tokens,
            positions,
            mask,
        })
    }

    /// Consumes the logits of the staged rows (now in the cache tail):
    /// advances the walk as far as they allow, drawing any stochastic
    /// decision from the session's own RNG stream. A walk pauses at an
    /// accepted node whose own row has not been forwarded; the tail is
    /// then compacted to that node's ancestors — a prefix of what commit
    /// retains anyway, and every row of it visible to every row staged
    /// next — and the node's subtree (a contiguous DFS range) is staged.
    fn advance(&mut self, session: &mut Session, config: &EngineConfig, logits: &Tensor) {
        let Proposal { spec, lin, .. } = &self.draft;
        let rows = PassRows {
            logits,
            indices: &self.next,
        };
        let (walk, tree) = (&mut self.walk, &spec.tree);
        match (&config.decode, config.verifier) {
            (DecodeMode::Greedy, _) => advance_greedy(walk, tree, lin, &rows),
            (mode, StochasticVerifier::MultiStep) => {
                let rng = session.rng_mut();
                advance_stochastic(walk, tree, lin, &rows, &spec.dists, mode, rng)
            }
            (mode, StochasticVerifier::Naive) => {
                advance_naive(walk, tree, lin, &rows, mode, session.rng_mut())
            }
        }
        self.tail.append(&mut self.next);
        if self.walk.is_done() {
            return;
        }
        let paused = lin.index_of(self.walk.current());
        let keep = self.lineage(paused);
        session.llm_cache_mut().retain_rows(self.base, &keep);
        self.tail.retain(|&row| lin.mask().allowed(paused, row));
        self.next = (paused..lin.subtree_end(paused)).collect();
    }

    /// Positions in the cache tail, relative to `base`, of the rows on
    /// the root path of linearized index `node` (itself included).
    fn lineage(&self, node: usize) -> Vec<usize> {
        let mask = self.draft.lin.mask();
        let tail = (0..).zip(&self.tail);
        tail.filter(|&(_, &row)| mask.allowed(node, row))
            .map(|(k, _)| k)
            .collect()
    }

    /// Commits the finished walk, keeping the root + accepted path of
    /// the cache tail — the last accepted node's lineage.
    fn commit(self, session: &mut Session, cfg: &EngineConfig) -> StepStats {
        let leaf = self.walk.accepted().last();
        let keep = self.lineage(leaf.map_or(0, |&u| self.draft.lin.index_of(u)));
        let outcome = self.walk.into_outcome();
        assert_eq!(
            keep.len(),
            1 + outcome.nodes.len(),
            "accepted rows are cached"
        );
        session.commit_verified(cfg, self.draft, outcome, self.base, keep)
    }
}
