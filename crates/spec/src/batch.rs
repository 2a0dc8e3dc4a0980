//! Cross-request batched tree verification (§5's iteration-level
//! scheduling): all sessions of a continuous-batching iteration are
//! verified by the LLM in **one** stacked tree-parallel forward — the
//! repository's only verifier, and the only place the serving path
//! forwards the LLM.
//!
//! An iteration has three phases. Speculation
//! ([`crate::Session::propose`]) is *logically* per-session — the SSM
//! pool, RNG streams and router are untouched — but runs as
//! one data-parallel pass across the batch, which is bitwise-safe
//! because each session owns its caches and RNG stream and every kernel
//! is bitwise-identical at any thread count. The LLM forward then
//! fuses: every participant's lane — the rows its LLM cache still lacks
//! (a new session's prompt minus its last token), then its whole
//! linearized tree — stacks into one `[Σnᵢ, d]` batch with a
//! block-diagonal visibility mask (each block causal over the lacking
//! rows and the tree's own topology mask over the tree) and per-request
//! KV-cache handles, so the model crate's blocked kernels see one tall
//! matrix instead of N tiny ones and the LLM weights are read once per
//! iteration (§4.2). Finally each session runs one verify walk over its
//! tree's dense logits and commits the root plus the accepted path, in
//! item order.
//!
//! Every participant is a tree: an incremental step (incremental mode,
//! a fault, a draft that no longer fits) is the root alone — one row,
//! whose walk accepts nothing and emits the bonus from the root's own
//! logits — and every lane commits through [`crate::Session`]'s one
//! commit path.
//!
//! The batch is **ragged**: `step_batch` takes whatever set is live, so
//! requests join and retire mid-flight and the block-diagonal mask is
//! re-packed from scratch every call (ARCHITECTURE.md §12). A faulted
//! request (SSM stall, simulated KV OOM) joins the fused forward with
//! its root alone. Every row of a stacked forward is computed with the
//! reduction order of a solo forward (see `specinfer-model`), so a
//! session's output does not depend on who shares its batch, and a
//! prompt forwarded with a session's first tree leaves exactly the rows
//! a serial prefill would.

use specinfer_model::{BatchRequest, DecodeMode, Transformer, Visibility};
use specinfer_tensor::{pool, Tensor};
use specinfer_tokentree::TokenId;

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
    /// Tree rows of the fused forward: every node of every lane's tree (a
    /// root-only tree is one), fault-forced lanes included. Read it as
    /// [`BatchRowStats::forwarded_rows`]: the field keeps its old name
    /// only because `specbench/` reads it, until the benchmark next
    /// changes.
    pub single_pass_rows: usize,
    /// Rows that rode ahead of a lane's tree because its session's LLM
    /// cache still lacked them: a session's prompt minus its last token,
    /// on its first step.
    pub prompt_rows: usize,
    /// LLM forwards (`forward_rows_batch` calls), each one read of the
    /// LLM weights: one per iteration that has a lane.
    pub llm_forwards: usize,
}

impl BatchRowStats {
    /// Tree rows the fused forwards carried; every tree is forwarded
    /// whole. Prompt rows are [`BatchRowStats::prompt_rows`].
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
        self.prompt_rows += other.prompt_rows;
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

    /// Advances every item by one decoding iteration in one fused LLM
    /// forward.
    ///
    /// Returns one `Option<StepStats>` per item, in order — `None` for
    /// sessions that were already finished.
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
            .map(|(p, item)| p.map(|p| Lane::new(p, item.session)))
            .collect();
        let live = || lanes.iter().flatten();
        let rows = BatchRowStats {
            single_pass_rows: live().map(|lane| lane.draft.lin.len()).sum(),
            prompt_rows: live().map(|lane| lane.lacking).sum(),
            llm_forwards: usize::from(live().next().is_some()),
        };

        // The fused forward: every lane, whole, in item order.
        let mut reqs: Vec<BatchRequest<'_>> = lanes
            .iter()
            .zip(items.iter_mut())
            .filter_map(|(lane, item)| Some(lane.as_ref()?.request(item.session)))
            .collect();
        let mut fused = if reqs.is_empty() {
            Vec::new()
        } else {
            llm.forward_rows_batch(&mut reqs)
        }
        .into_iter();

        // Per item, in order: every lane walks its logits and commits.
        let stats = lanes
            .into_iter()
            .zip(items.iter_mut())
            .map(|(lane, item)| {
                let lane = lane?;
                let Some(logits) = fused.next() else {
                    unreachable!("one logits tensor per forwarded lane")
                };
                Some(lane.commit(logits, item.session, item.config))
            })
            .collect();
        (stats, rows)
    }
}

/// Phase 1: fused speculation. Sessions whose next proposal drafts
/// nothing (incremental mode, faulted, finished) are answered on the
/// spot, with a root-only tree or `None`; the real drafts — SSM catch-up
/// and expansion, milliseconds each — become one pool region when there
/// are at least two. Each session owns its caches and RNG stream and the
/// kernels are bitwise-identical at any thread count, so this emits
/// exactly the proposals serial per-item sequencing would.
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

/// One live item's rows under verification: the rows its LLM cache still
/// lacks, then its token tree.
struct Lane {
    draft: Proposal,
    /// Cache length before this step's rows were appended.
    base: usize,
    /// Rows ahead of the tree that the cache still lacks: the prompt
    /// minus its last token on a session's first step, none after.
    lacking: usize,
    /// The lacking rows' tokens, then the linearized tree's.
    tokens: Vec<TokenId>,
    /// Absolute sequence position of each forwarded row.
    positions: Vec<usize>,
}

impl Lane {
    fn new(draft: Proposal, session: &Session) -> Self {
        let (base, lacking) = (session.kv_rows(), session.uncached());
        let tree = base + lacking.len();
        let lin = &draft.lin;
        Lane {
            base,
            lacking: lacking.len(),
            tokens: lacking.iter().chain(lin.tokens()).copied().collect(),
            positions: (base..tree)
                .chain(lin.depths().iter().map(|d| tree + d))
                .collect(),
            draft,
        }
    }

    /// The lane as one forward request: causal over the lacking rows,
    /// the proposal's topology mask over the tree.
    fn request<'a>(&'a self, session: &'a mut Session) -> BatchRequest<'a> {
        BatchRequest {
            tokens: &self.tokens,
            positions: &self.positions,
            cache: session.llm_cache_mut(),
            visible: Visibility::Tree(self.draft.lin.mask()),
        }
    }

    /// Walks the tree over its dense logits, drawing any stochastic
    /// decision from the session's own RNG stream, and commits the root
    /// plus the accepted rows.
    fn commit(self, logits: Tensor, session: &mut Session, config: &EngineConfig) -> StepStats {
        // The walk reads only the tree's rows.
        let logits = match self.lacking {
            0 => logits,
            h => {
                let (rows, vocab) = (logits.rows() - h, logits.cols());
                let mut data = logits.into_vec();
                data.drain(..h * vocab);
                Tensor::from_vec(data, &[rows, vocab])
            }
        };
        let Proposal { spec, lin, .. } = &self.draft;
        let tree = &spec.tree;
        let outcome = match (&config.decode, config.verifier) {
            (DecodeMode::Greedy, _) => verify_greedy(tree, lin, &logits),
            (mode, StochasticVerifier::MultiStep) => {
                verify_stochastic(tree, lin, &logits, &spec.dists, mode, session.rng_mut())
            }
            (mode, StochasticVerifier::Naive) => {
                verify_naive(tree, lin, &logits, mode, session.rng_mut())
            }
        };
        // A root path ascends in DFS order, as `retain_rows` requires.
        let accepted = outcome.nodes.iter().map(|&u| lin.index_of(u));
        let keep = std::iter::once(0).chain(accepted).collect();
        let prefix = self.base + self.lacking;
        session.commit_verified(config, self.draft, outcome, prefix, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{InferenceMode, StepFault};
    use specinfer_model::ModelConfig;
    use specinfer_tokentree::ExpansionConfig;

    /// A new session forwards nothing; its first step carries the prompt
    /// (bar its last token) ahead of its first tree in the one fused
    /// forward, and ends with the tokens, stats and cache rows of a
    /// serial prefill followed by `decode_tree` of the same tree.
    #[test]
    fn a_prompt_rides_its_sessions_first_verify_forward() {
        let llm = Transformer::from_seed(ModelConfig::smoke(), 100);
        let ssm = ModelConfig {
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            d_ff: 16,
            ..ModelConfig::smoke()
        };
        let ssm = Transformer::from_seed(ssm, 101);
        let ssms = [&ssm];
        let config = EngineConfig {
            decode: DecodeMode::Greedy,
            verifier: StochasticVerifier::MultiStep,
            mode: InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            max_new_tokens: 16,
            eos_token: None,
        };
        let prompt = [6, 1, 6, 3, 2];
        let open = || Session::try_new(&llm, &ssms, &prompt, 7).expect("valid prompt");

        let mut fused = open();
        assert_eq!(fused.kv_rows(), 0, "admission forwards nothing");
        let mut items = [BatchItem::new(&mut fused, &config)];
        let (stats, rows) = BatchedVerifier::new().step_batch_counted(&llm, &ssms, &mut items);
        assert_eq!((rows.llm_forwards, rows.prompt_rows), (1, prompt.len() - 1));

        // The reference: the prompt prefilled serially, then the same tree
        // (the same SSM draft on the same RNG stream) decoded on top.
        let mut serial = open();
        let head = &prompt[..prompt.len() - 1];
        let _ = llm.prefill(head, serial.llm_cache_mut());
        let draft = serial
            .propose(&llm, &ssms, &config, StepFault::default())
            .expect("an unfinished session proposes");
        assert!(draft.spec.tree.speculated_len() > 0, "a tree was drafted");
        assert_eq!(rows.single_pass_rows, draft.lin.len());
        let base = serial.kv_rows();
        let logits = llm.decode_tree(&draft.lin, serial.llm_cache_mut());
        let outcome = verify_greedy(&draft.spec.tree, &draft.lin, &logits);
        let accepted = outcome.nodes.iter().map(|&u| draft.lin.index_of(u));
        let keep = std::iter::once(0).chain(accepted).collect();
        let want = serial.commit_verified(&config, draft, outcome, base, keep);
        assert_eq!(stats, [Some(want)]);
        assert_eq!(fused.tokens(), serial.tokens());
        assert_eq!(fused.kv_rows(), serial.kv_rows());
        // The caches hold the same bits: a probe row reads the same logits.
        let probe = |s: &mut Session| llm.decode_one(3, &mut s.llm_cache_mut().clone());
        assert_eq!(probe(&mut fused).data(), probe(&mut serial).data());

        // Equal cache rows decode on identically.
        while !serial.is_finished() {
            let want = serial.step(&llm, &ssms, &config);
            assert_eq!(fused.step(&llm, &ssms, &config), want);
        }
        assert!(fused.is_finished());
        assert_eq!(fused.tokens(), serial.tokens());
    }
}
