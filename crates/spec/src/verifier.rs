//! The token tree verifier (§4.3): greedy verification, multi-step
//! speculative sampling (MSS), and the naive-sampling baseline.

use specinfer_model::{sampler, DecodeMode};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::Tensor;
use specinfer_tokentree::{LinearizedTree, NodeId, TokenId, TokenTree};

use crate::speculator::SsmDistTable;

/// The result of verifying a speculated token tree against the LLM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The verified tokens `𝒱` appended to the sequence this step. The
    /// last entry is always the LLM-generated "bonus" token (which never
    /// came from the tree), so at least one token is produced per step.
    pub tokens: Vec<TokenId>,
    /// The accepted tree nodes, root-excluded, in path order. These
    /// correspond to `tokens[..tokens.len()-1]`.
    pub nodes: Vec<NodeId>,
}

impl VerifyOutcome {
    /// Number of speculated tokens that passed verification (excludes the
    /// bonus token).
    pub fn accepted_speculated(&self) -> usize {
        self.nodes.len()
    }
}

/// The stochastic verification algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StochasticVerifier {
    /// Multi-step speculative sampling (Algorithm 2, `VerifyStochastic`).
    MultiStep,
    /// Naive sampling: draw from the LLM and check tree membership
    /// (§4.3; the Table 3 baseline).
    Naive,
}

/// Logits source for a verification walk, keyed by linearized position.
///
/// A whole-tree pass has every row up front (one tensor row per tree
/// node); the staged verifier only has rows for the stage it has just
/// forwarded and answers `None` for the rest, pausing the walk at
/// exactly that node until the next block-diagonal pass fills it in.
pub trait LogitRows {
    /// The logits row for linearized tree index `idx`, if computed.
    fn row(&self, idx: usize) -> Option<&[f32]>;
}

/// [`LogitRows`] over a dense tensor with one row per linearized position
/// — the single-pass layout.
pub struct TensorRows<'a>(pub &'a Tensor);

impl LogitRows for TensorRows<'_> {
    fn row(&self, idx: usize) -> Option<&[f32]> {
        if idx < self.0.rows() {
            Some(self.0.row(idx))
        } else {
            None
        }
    }
}

/// An in-progress verification walk, resumable at node boundaries.
///
/// All three verifiers are per-node loops that read only the current
/// node's logits row and (for the stochastic ones) draw RNG strictly
/// after that row is in hand. A walk therefore pauses cleanly when the
/// row it needs next is unavailable, with no mid-node state to carry:
/// resuming with the missing row produces the same token/node sequence
/// and consumes the RNG stream identically to an uninterrupted run —
/// which is what makes frontier-first staging bitwise-equal to
/// whole-tree verification under both greedy and MSS.
#[derive(Debug, Clone)]
pub struct VerifyWalk {
    tokens: Vec<TokenId>,
    nodes: Vec<NodeId>,
    u: NodeId,
    done: bool,
}

impl Default for VerifyWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl VerifyWalk {
    /// A fresh walk positioned at the tree root.
    pub fn new() -> Self {
        VerifyWalk {
            tokens: Vec::new(),
            nodes: Vec::new(),
            u: TokenTree::ROOT,
            done: false,
        }
    }

    /// The node whose logits row the walk needs next. Meaningful only
    /// while the walk is paused (`!is_done()`).
    pub fn current(&self) -> NodeId {
        self.u
    }

    /// Accepted tree nodes so far, root-excluded, in path order.
    pub fn accepted(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether the walk has emitted its bonus token and finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Consumes a finished walk into its [`VerifyOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if the walk is still paused awaiting logits rows.
    pub fn into_outcome(self) -> VerifyOutcome {
        assert!(self.done, "verification walk still awaiting logits rows");
        VerifyOutcome {
            tokens: self.tokens,
            nodes: self.nodes,
        }
    }
}

/// Advances a greedy walk until it finishes or pauses at a node whose
/// logits row `rows` cannot provide yet.
pub fn advance_greedy(
    walk: &mut VerifyWalk,
    tree: &TokenTree,
    lin: &LinearizedTree,
    rows: &dyn LogitRows,
) {
    while !walk.done {
        let row = match rows.row(lin.index_of(walk.u)) {
            Some(r) => r,
            None => return,
        };
        let o = sampler::greedy_token(row);
        match tree.child_with_token(walk.u, o) {
            Some(v) => {
                walk.tokens.push(o);
                walk.nodes.push(v);
                walk.u = v;
            }
            None => {
                walk.tokens.push(o);
                walk.done = true;
            }
        }
    }
}

/// Advances a multi-step speculative sampling walk until it finishes or
/// pauses. RNG is consumed only for nodes whose row is available, so a
/// paused-and-resumed walk draws the exact same stream as an
/// uninterrupted one.
///
/// # Panics
///
/// Panics if a tried child has no recorded SSM distribution (the
/// speculator always records one).
pub fn advance_stochastic(
    walk: &mut VerifyWalk,
    tree: &TokenTree,
    lin: &LinearizedTree,
    rows: &dyn LogitRows,
    dists: &SsmDistTable,
    mode: &DecodeMode,
    rng: &mut SeededRng,
) {
    while !walk.done {
        let row = match rows.row(lin.index_of(walk.u)) {
            Some(r) => r,
            None => return,
        };
        let mut p = sampler::probs_from_logits(row, mode);
        let mut candidates: Vec<NodeId> = tree.children(walk.u).to_vec();
        let mut descended = false;
        while !candidates.is_empty() {
            let pick = rng.below(candidates.len());
            let v = match candidates.get(pick) {
                Some(&v) => v,
                None => unreachable!("rng.below({}) returned {pick}", candidates.len()),
            };
            let x = tree.token(v) as usize;
            let q = match dists.get(walk.u, tree.ssm_id(v)) {
                Some(q) => q,
                // The speculator records a distribution for every node it
                // expands; a miss means the table and tree diverged.
                None => unreachable!("no SSM distribution recorded for an expanded node"),
            };
            // Tokens outside either distribution's support carry zero
            // probability: the candidate is simply rejected.
            let px = p.get(x).copied().unwrap_or(0.0);
            let qx = q.get(x).copied().unwrap_or(0.0);
            let ratio = if qx > 0.0 { px / qx } else { 0.0 };
            if f64::from(rng.uniform()) <= f64::from(ratio) {
                walk.tokens.push(x as TokenId);
                walk.nodes.push(v);
                walk.u = v;
                descended = true;
                break;
            }
            residual_update(&mut p, q);
            candidates.swap_remove(pick);
        }
        if descended {
            continue;
        }
        // All candidates rejected (or u is a leaf): sample the bonus token
        // from the current (possibly residual) distribution.
        let bonus = sampler::sample_token(&p, rng);
        walk.tokens.push(bonus);
        walk.done = true;
    }
}

/// Advances a naive-sampling walk until it finishes or pauses.
pub fn advance_naive(
    walk: &mut VerifyWalk,
    tree: &TokenTree,
    lin: &LinearizedTree,
    rows: &dyn LogitRows,
    mode: &DecodeMode,
    rng: &mut SeededRng,
) {
    while !walk.done {
        let row = match rows.row(lin.index_of(walk.u)) {
            Some(r) => r,
            None => return,
        };
        let p = sampler::probs_from_logits(row, mode);
        let x = sampler::sample_token(&p, rng);
        walk.tokens.push(x);
        match tree.child_with_token(walk.u, x) {
            Some(v) => {
                walk.nodes.push(v);
                walk.u = v;
            }
            None => walk.done = true,
        }
    }
}

/// Greedy verification (`VerifyGreedy` in Algorithm 2): walk down the
/// tree as long as a child matches the LLM's argmax token; the first
/// mismatching argmax becomes the bonus token.
///
/// `llm_logits` are the tree-parallel decoding outputs, one row per
/// linearized position.
///
/// # Panics
///
/// Panics if `llm_logits` has fewer rows than the linearized tree.
pub fn verify_greedy(tree: &TokenTree, lin: &LinearizedTree, llm_logits: &Tensor) -> VerifyOutcome {
    assert!(
        llm_logits.rows() >= lin.len(),
        "one logit row per tree node required"
    );
    let mut walk = VerifyWalk::new();
    advance_greedy(&mut walk, tree, lin, &TensorRows(llm_logits));
    walk.into_outcome()
}

/// Stochastic verification via **multi-step speculative sampling**
/// (`VerifyStochastic` in Algorithm 2, illustrated in Figure 5).
///
/// At each node `u`, candidate children are tried in uniformly random
/// order: candidate `x` (proposed by SSM `s`) is accepted with probability
/// `min(1, P(x)/Q_s(x))` against the *current* LLM distribution `P`; on
/// rejection `P ← norm(max(0, P − Q_s))` and the candidate is removed.
/// When no candidate survives (or a leaf is reached) the bonus token is
/// drawn from the current `P` — which is exactly what makes the overall
/// output distribution equal to incremental decoding (Theorem 4.2).
///
/// # Panics
///
/// Panics if a tried child has no recorded SSM distribution (the
/// speculator always records one) or logits rows are missing.
pub fn verify_stochastic(
    tree: &TokenTree,
    lin: &LinearizedTree,
    llm_logits: &Tensor,
    dists: &SsmDistTable,
    mode: &DecodeMode,
    rng: &mut SeededRng,
) -> VerifyOutcome {
    assert!(
        llm_logits.rows() >= lin.len(),
        "one logit row per tree node required"
    );
    let mut walk = VerifyWalk::new();
    advance_stochastic(
        &mut walk,
        tree,
        lin,
        &TensorRows(llm_logits),
        dists,
        mode,
        rng,
    );
    walk.into_outcome()
}

/// `P ← norm(max(0, P − Q))`, Algorithm 2 line 37.
fn residual_update(p: &mut [f32], q: &[f32]) {
    let mut total = 0.0;
    for (pv, qv) in p.iter_mut().zip(q) {
        *pv = (*pv - qv).max(0.0);
        total += *pv;
    }
    if total > 1e-12 {
        for pv in p.iter_mut() {
            *pv /= total;
        }
    } else {
        // Degenerate: Q dominates P exactly (only reachable through
        // floating-point cancellation). Fall back to uniform over the
        // support of P before subtraction — any choice here has measure
        // zero; we just must not emit NaNs.
        let n = p.len() as f32;
        for pv in p.iter_mut() {
            *pv = 1.0 / n;
        }
    }
}

/// Naive-sampling verification (§4.3): draw the next token from the LLM
/// distribution and accept it only if it happens to be a child in the
/// tree. Trivially preserves the LLM distribution, but rejects more than
/// MSS (Theorem 4.3) — the Table 3 baseline.
pub fn verify_naive(
    tree: &TokenTree,
    lin: &LinearizedTree,
    llm_logits: &Tensor,
    mode: &DecodeMode,
    rng: &mut SeededRng,
) -> VerifyOutcome {
    assert!(
        llm_logits.rows() >= lin.len(),
        "one logit row per tree node required"
    );
    let mut walk = VerifyWalk::new();
    advance_naive(&mut walk, tree, lin, &TensorRows(llm_logits), mode, rng);
    walk.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_tokentree::LinearizedTree;

    /// Builds a toy tree with hand-set logits so verification paths are
    /// fully controlled. Vocab = 4.
    struct Fixture {
        tree: TokenTree,
        lin: LinearizedTree,
        logits: Tensor,
        dists: SsmDistTable,
    }

    /// Tree: root(0) → a(1) → b(2); root also has child c(3).
    fn fixture(llm_rows: &[[f32; 4]]) -> Fixture {
        let mut tree = TokenTree::new(0);
        let a = tree.add_child(TokenTree::ROOT, 1, 0, 0.5);
        let _b = tree.add_child(a, 2, 0, 0.5);
        let _c = tree.add_child(TokenTree::ROOT, 3, 0, 0.3);
        let lin = LinearizedTree::new(&tree);
        // Rows are in linear order: root, a, b, c.
        let mut data = Vec::new();
        for (i, &u) in lin.nodes().iter().enumerate() {
            let _ = u;
            data.extend_from_slice(&llm_rows[i]);
        }
        let logits = Tensor::from_vec(data, &[lin.len(), 4]);
        let mut dists = SsmDistTable::new();
        for u in tree.node_ids() {
            dists.insert(u, 0, vec![0.25, 0.25, 0.25, 0.25]);
        }
        Fixture {
            tree,
            lin,
            logits,
            dists,
        }
    }

    const LO: f32 = -10.0;

    #[test]
    fn greedy_accepts_matching_path() {
        // LLM's argmax at root is 1 (matches a), at a is 2 (matches b),
        // at b is 3 (no child → bonus).
        let f = fixture(&[
            [LO, 5.0, LO, LO], // root → 1
            [LO, LO, 5.0, LO], // a → 2
            [LO, LO, LO, 5.0], // b → 3 (bonus)
            [5.0, LO, LO, LO], // c (unused)
        ]);
        let out = verify_greedy(&f.tree, &f.lin, &f.logits);
        assert_eq!(out.tokens, vec![1, 2, 3]);
        assert_eq!(out.accepted_speculated(), 2);
    }

    #[test]
    fn greedy_takes_alternate_branch() {
        // Root argmax is 3 → accepts c; c is a leaf → its argmax 0 is the
        // bonus.
        let f = fixture(&[
            [LO, LO, LO, 5.0], // root → 3 (child c)
            [LO, LO, 5.0, LO], // a (unused)
            [LO, LO, LO, 5.0], // b (unused)
            [5.0, LO, LO, LO], // c → 0 (bonus)
        ]);
        let out = verify_greedy(&f.tree, &f.lin, &f.logits);
        assert_eq!(out.tokens, vec![3, 0]);
        assert_eq!(out.accepted_speculated(), 1);
    }

    #[test]
    fn greedy_rejects_everything_but_still_emits_bonus() {
        // Root argmax 2 matches no child.
        let f = fixture(&[[LO, LO, 5.0, LO], [0.0; 4], [0.0; 4], [0.0; 4]]);
        let out = verify_greedy(&f.tree, &f.lin, &f.logits);
        assert_eq!(out.tokens, vec![2]);
        assert!(out.nodes.is_empty());
    }

    #[test]
    fn mss_accepts_certain_candidate() {
        // LLM puts all mass on 1 at root and on 2 at a: both candidates
        // have ratio p/q = 1/0.25 > 1 → always accepted; bonus from b.
        let f = fixture(&[
            [LO, 5.0, LO, LO],
            [LO, LO, 5.0, LO],
            [5.0, LO, LO, LO],
            [0.0; 4],
        ]);
        let mut rng = SeededRng::new(1);
        let out = verify_stochastic(
            &f.tree,
            &f.lin,
            &f.logits,
            &f.dists,
            &DecodeMode::stochastic(),
            &mut rng,
        );
        assert_eq!(out.tokens[..2], [1, 2]);
        assert_eq!(out.tokens.len(), 3);
        assert_eq!(out.accepted_speculated(), 2);
    }

    #[test]
    fn mss_rejects_zero_probability_candidates() {
        // LLM puts ~all mass on token 2 at the root; children are 1 and 3
        // with p≈0 → both rejected; the bonus must be 2.
        let f = fixture(&[[LO, LO, 20.0, LO], [0.0; 4], [0.0; 4], [0.0; 4]]);
        let mut rng = SeededRng::new(2);
        let out = verify_stochastic(
            &f.tree,
            &f.lin,
            &f.logits,
            &f.dists,
            &DecodeMode::stochastic(),
            &mut rng,
        );
        assert_eq!(out.tokens, vec![2]);
        assert!(out.nodes.is_empty());
    }

    #[test]
    fn naive_descends_only_on_sampled_match() {
        // Deterministic LLM: root → 1, a → 2, b → 0.
        let f = fixture(&[
            [LO, 20.0, LO, LO],
            [LO, LO, 20.0, LO],
            [20.0, LO, LO, LO],
            [0.0; 4],
        ]);
        let mut rng = SeededRng::new(3);
        let out = verify_naive(
            &f.tree,
            &f.lin,
            &f.logits,
            &DecodeMode::stochastic(),
            &mut rng,
        );
        assert_eq!(out.tokens, vec![1, 2, 0]);
        assert_eq!(out.accepted_speculated(), 2);
    }

    #[test]
    fn residual_update_normalizes() {
        let mut p = vec![0.5, 0.3, 0.2];
        residual_update(&mut p, &[0.5, 0.1, 0.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(p[0], 0.0);
        assert!((p[1] - 0.5).abs() < 1e-6);
        assert!((p[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn residual_update_handles_total_cancellation() {
        let mut p = vec![0.5, 0.5];
        residual_update(&mut p, &[0.6, 0.6]);
        assert!(p.iter().all(|v| v.is_finite()));
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    /// Rows limited to linear indices below `avail` — simulates the
    /// hierarchical verifier's partially-forwarded state.
    struct PartialRows<'a> {
        tensor: &'a Tensor,
        avail: usize,
    }

    impl LogitRows for PartialRows<'_> {
        fn row(&self, idx: usize) -> Option<&[f32]> {
            if idx < self.avail {
                Some(self.tensor.row(idx))
            } else {
                None
            }
        }
    }

    #[test]
    fn paused_walks_resume_bitwise_identically() {
        let f = fixture(&[
            [LO, 5.0, LO, LO], // root → 1
            [LO, LO, 5.0, LO], // a → 2
            [LO, LO, LO, 5.0], // b → 3 (bonus)
            [5.0, LO, LO, LO], // c (unused)
        ]);
        let full = verify_greedy(&f.tree, &f.lin, &f.logits);
        for avail in 0..=f.lin.len() {
            let mut walk = VerifyWalk::new();
            advance_greedy(
                &mut walk,
                &f.tree,
                &f.lin,
                &PartialRows {
                    tensor: &f.logits,
                    avail,
                },
            );
            advance_greedy(&mut walk, &f.tree, &f.lin, &TensorRows(&f.logits));
            assert!(walk.is_done());
            assert_eq!(walk.into_outcome(), full, "greedy resume at avail={avail}");
        }
        // Stochastic walks must also consume the RNG stream identically
        // across a pause: same seed, same outcome, same post-state.
        for seed in 0..50u64 {
            let mut rng_full = SeededRng::new(seed);
            let full = verify_stochastic(
                &f.tree,
                &f.lin,
                &f.logits,
                &f.dists,
                &DecodeMode::stochastic(),
                &mut rng_full,
            );
            let probe = rng_full.below(1 << 30);
            for avail in 0..=f.lin.len() {
                let mut rng = SeededRng::new(seed);
                let mut walk = VerifyWalk::new();
                let mode = DecodeMode::stochastic();
                advance_stochastic(
                    &mut walk,
                    &f.tree,
                    &f.lin,
                    &PartialRows {
                        tensor: &f.logits,
                        avail,
                    },
                    &f.dists,
                    &mode,
                    &mut rng,
                );
                advance_stochastic(
                    &mut walk,
                    &f.tree,
                    &f.lin,
                    &TensorRows(&f.logits),
                    &f.dists,
                    &mode,
                    &mut rng,
                );
                assert!(walk.is_done());
                assert_eq!(walk.into_outcome(), full, "mss seed={seed} avail={avail}");
                assert_eq!(rng.below(1 << 30), probe, "rng stream must match");
            }
        }
    }

    #[test]
    fn outcomes_always_end_with_bonus() {
        let f = fixture(&[[0.0; 4], [0.0; 4], [0.0; 4], [0.0; 4]]);
        let mut rng = SeededRng::new(4);
        for _ in 0..20 {
            let g = verify_greedy(&f.tree, &f.lin, &f.logits);
            assert_eq!(g.tokens.len(), g.nodes.len() + 1);
            let s = verify_stochastic(
                &f.tree,
                &f.lin,
                &f.logits,
                &f.dists,
                &DecodeMode::stochastic(),
                &mut rng,
            );
            assert_eq!(s.tokens.len(), s.nodes.len() + 1);
            let n = verify_naive(
                &f.tree,
                &f.lin,
                &f.logits,
                &DecodeMode::stochastic(),
                &mut rng,
            );
            assert_eq!(n.tokens.len(), n.nodes.len() + 1);
        }
    }
}
