//! Cross-request batched tree verification (§5's iteration-level
//! scheduling): all sessions of a continuous-batching iteration are
//! verified by the LLM in **one** stacked tree-parallel forward — the
//! repository's only verifier.
//!
//! An iteration has three phases. Speculation
//! ([`crate::Session::propose`]) is *logically* per-session — the SSM
//! pool, RNG streams and router are untouched — but runs as
//! one data-parallel pass across the batch, which is bitwise-safe
//! because each session owns its caches and RNG stream and every kernel
//! is bitwise-identical at any thread count. The LLM forward then
//! fuses: every participant's whole linearized tree stacks into one
//! `[Σnᵢ, d]` batch with a block-diagonal visibility mask (each block the
//! tree's own topology mask) and per-request KV-cache handles, so the
//! model crate's blocked kernels see one tall matrix instead of N tiny
//! ones and the LLM weights are read once per iteration (§4.2). Finally
//! each session runs one verify walk over its tree's dense logits and
//! commits the root plus the accepted path, in item order.
//!
//! Every participant is a tree: an incremental step (incremental mode,
//! a fault, a draft that no longer fits) is the root alone — one row,
//! whose walk accepts nothing and emits the bonus from the root's own
//! logits — and every lane commits through [`crate::Session`]'s one
//! commit path.
//!
//! The batch is **ragged**: `step_batch` takes whatever set is live, so
//! requests join and retire mid-flight and the block-diagonal mask is
//! re-packed from scratch every call (ARCHITECTURE.md §12). Faulted
//! requests (SSM stall, simulated KV OOM) hold their root-only tree back
//! from the fused forward and forward it alone afterwards — a fault
//! degrades one request without poisoning its batch-mates. Every row of
//! a stacked forward is computed with the reduction order of a solo
//! forward (see `specinfer-model`), so a session's output does not
//! depend on who shares its batch.

use specinfer_model::{BatchRequest, DecodeMode, Transformer, Visibility};
use specinfer_tensor::{pool, Tensor};

use crate::engine::{EngineConfig, Proposal, Session, StepFault, StepStats};
use crate::verifier::{verify_greedy, verify_naive, verify_stochastic, StochasticVerifier};

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

/// Verify-row and weight-read accounting of batched iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchRowStats {
    /// Rows of the fused forward: every node of every fault-free tree (a
    /// root-only tree is one); fault-forced lanes do not count. Read it
    /// as [`BatchRowStats::forwarded_rows`]: the field keeps its old
    /// name only because `specbench/` reads it, until the benchmark next
    /// changes.
    pub single_pass_rows: usize,
    /// LLM forwards (`forward_rows_batch` calls), each one read of the
    /// LLM weights: the fused forward of an iteration that has a
    /// fault-free lane, plus one per fault-forced lane.
    pub llm_forwards: usize,
}

impl BatchRowStats {
    /// Rows the fused forwards carried; every tree is forwarded whole.
    pub fn forwarded_rows(&self) -> usize {
        self.single_pass_rows
    }

    /// Tree rows never forwarded: always 0, as every tree is forwarded
    /// whole. Only `specbench/`'s `spec.verify_rows_pruned_share` calls
    /// it; it goes with that metric when the benchmark next changes.
    pub fn pruned_rows(&self) -> usize {
        0
    }

    /// Accumulates another iteration's counts.
    pub fn absorb(&mut self, other: &BatchRowStats) {
        self.single_pass_rows += other.single_pass_rows;
        self.llm_forwards += other.llm_forwards;
    }
}

/// Drives N sessions through one fused verify forward per iteration.
#[derive(Debug, Default)]
pub struct BatchedVerifier;

impl BatchedVerifier {
    /// The verifier: each iteration forwards every tree whole, once.
    pub fn new() -> Self {
        BatchedVerifier
    }

    /// Advances every item by one decoding iteration, fusing all
    /// non-faulted LLM forwards into one stacked forward.
    ///
    /// Returns one `Option<StepStats>` per item, in order — `None` for
    /// sessions that were already finished. Stall/OOM-faulted items fall
    /// out of the fused forward and forward their root alone after it.
    pub fn step_batch(
        &self,
        llm: &Transformer,
        ssms: &[&Transformer],
        items: &mut [BatchItem<'_>],
    ) -> Vec<Option<StepStats>> {
        self.step_batch_counted(llm, ssms, items).0
    }

    /// [`BatchedVerifier::step_batch`] plus the iteration's verify-row
    /// and weight-read accounting.
    pub fn step_batch_counted(
        &self,
        llm: &Transformer,
        ssms: &[&Transformer],
        items: &mut [BatchItem<'_>],
    ) -> (Vec<Option<StepStats>>, BatchRowStats) {
        let proposals = propose_all(llm, ssms, items);
        // One lane per item; `None` for a session that was already finished.
        let lanes: Vec<Option<Lane>> = proposals
            .into_iter()
            .zip(items.iter())
            .map(|(p, item)| p.map(|p| Lane::new(p, item.session.llm_cache_len())))
            .collect();
        let mut rows = BatchRowStats::default();

        // The fused forward: every fault-free tree, whole, in item order.
        let mut reqs: Vec<BatchRequest<'_>> = lanes
            .iter()
            .zip(items.iter_mut())
            .filter_map(|(lane, item)| {
                let lane = lane.as_ref().filter(|lane| !lane.draft.forced)?;
                Some(lane.request(item.session))
            })
            .collect();
        rows.single_pass_rows = reqs.iter().map(|q| q.tokens.len()).sum();
        let mut fused = if reqs.is_empty() {
            Vec::new()
        } else {
            rows.llm_forwards += 1;
            llm.forward_rows_batch(&mut reqs)
        }
        .into_iter();

        // Per item, in order: a fault-forced lane forwards its root alone;
        // then every lane walks its logits and commits.
        let stats = lanes
            .into_iter()
            .zip(items.iter_mut())
            .map(|(lane, item)| {
                let lane = lane?;
                let tree_logits = if lane.draft.forced {
                    rows.llm_forwards += 1;
                    llm.forward_rows_batch(&mut [lane.request(item.session)])
                        .pop()
                } else {
                    fused.next()
                };
                let Some(tree_logits) = tree_logits else {
                    unreachable!("one logits tensor per forwarded lane")
                };
                Some(lane.commit(&tree_logits, item.session, item.config))
            })
            .collect();
        (stats, rows)
    }
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

/// One live item's token tree under verification.
struct Lane {
    draft: Proposal,
    /// Cache length before the tree's rows were appended.
    base: usize,
    /// Absolute sequence position of each linearized row.
    positions: Vec<usize>,
}

impl Lane {
    fn new(draft: Proposal, base: usize) -> Self {
        let positions = draft.lin.depths().iter().map(|d| base + d).collect();
        Lane {
            draft,
            base,
            positions,
        }
    }

    /// The whole tree as one forward request, borrowing the proposal's
    /// own tokens and topology mask.
    fn request<'a>(&'a self, session: &'a mut Session) -> BatchRequest<'a> {
        let lin = &self.draft.lin;
        BatchRequest {
            tokens: lin.tokens(),
            positions: &self.positions,
            cache: session.llm_cache_mut(),
            visible: Visibility::Tree(lin.mask()),
        }
    }

    /// Walks the tree over its dense logits, drawing any stochastic
    /// decision from the session's own RNG stream, and commits the root
    /// plus the accepted rows.
    fn commit(self, logits: &Tensor, session: &mut Session, config: &EngineConfig) -> StepStats {
        let Proposal { spec, lin, .. } = &self.draft;
        let tree = &spec.tree;
        let outcome = match (&config.decode, config.verifier) {
            (DecodeMode::Greedy, _) => verify_greedy(tree, lin, logits),
            (mode, StochasticVerifier::MultiStep) => {
                verify_stochastic(tree, lin, logits, &spec.dists, mode, session.rng_mut())
            }
            (mode, StochasticVerifier::Naive) => {
                verify_naive(tree, lin, logits, mode, session.rng_mut())
            }
        };
        // A root path ascends in DFS order, as `retain_rows` requires.
        let accepted = outcome.nodes.iter().map(|&u| lin.index_of(u));
        let keep = std::iter::once(0).chain(accepted).collect();
        session.commit_verified(config, self.draft, outcome, self.base, keep)
    }
}
