//! Dynamic (best-first) token tree expansion — the paper's stated future
//! work ("dynamically expanding a token tree from an SSM is an open
//! research problem", §3) implemented as an extension.
//!
//! Instead of a static ⟨k₁…k_m⟩ schedule, the speculator grows the tree
//! *best-first*: it keeps a max-heap of candidate children scored by
//! their path probability under the SSM (`∏ q` along the root path) and
//! materializes the globally most promising candidate until a node
//! budget is exhausted. Width therefore concentrates exactly where the
//! SSM is uncertain, instead of at a fixed step.
//!
//! Verification semantics: greedy verification remains exactly lossless
//! for any tree. Stochastic verification of a *deterministically*
//! expanded tree should use the naive-sampling verifier (which preserves
//! the LLM's distribution for arbitrary trees); multi-step speculative
//! sampling's guarantee (Theorem 4.2) is proved for *sampled* drafts.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use specinfer_model::{sampler, DecodeMode, KvCache, Transformer, Visibility};
use specinfer_tokentree::{NodeId, TokenId, TokenTree, TopologyMask};

use crate::speculator::{Speculation, SsmDistTable};

/// Budget and pruning knobs for best-first expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicExpansionConfig {
    /// Maximum speculated nodes per tree (the compute budget the static
    /// schedule would spend; the paper's default schedule spends 20).
    pub max_nodes: usize,
    /// Maximum depth below the root.
    pub max_depth: usize,
    /// Candidates whose path probability falls below this threshold are
    /// never materialized.
    pub prob_threshold: f32,
    /// At most this many children are considered per node.
    pub max_children: usize,
}

impl Default for DynamicExpansionConfig {
    fn default() -> Self {
        DynamicExpansionConfig {
            max_nodes: 20,
            max_depth: 8,
            prob_threshold: 1e-3,
            max_children: 4,
        }
    }
}

#[derive(Debug)]
struct Candidate {
    score: f32,
    parent: NodeId,
    token: TokenId,
    prob: f32,
    depth: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
    }
}

/// Best-first speculation from a single SSM.
///
/// `cache` must hold the verified prefix (everything but the root token)
/// and is restored before returning, mirroring
/// [`crate::speculate_expansion`]. `ssm_id` tags every node and
/// distribution with the drafting SSM's pool index.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`max_nodes == 0`,
/// `max_children == 0`) or the cache would overflow.
pub fn speculate_dynamic(
    ssm: &Transformer,
    cache: &mut KvCache,
    root_token: TokenId,
    config: &DynamicExpansionConfig,
    ssm_id: usize,
) -> Speculation {
    assert!(config.max_nodes > 0, "node budget must be positive");
    assert!(config.max_children > 0, "max_children must be positive");
    let prefix = cache.len();
    let mut tree = TokenTree::new(root_token);
    let mut dists = SsmDistTable::new();
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    // Each node is forwarded as soon as it is created, to cache row
    // `prefix + u.index()`: the topology mask over arena order is the
    // visibility of every forward. A node's path probability rides in
    // the candidate it came from.
    let mut mask = TopologyMask::default();
    let (mut u, mut path_prob) = (TokenTree::ROOT, 1.0f32);
    loop {
        mask.push(tree.parent(u).map(NodeId::index));
        let pos = prefix + tree.depth(u);
        let logits = ssm.forward_rows(&[tree.token(u)], &[pos], cache, Visibility::Tree(&mask));
        let q = sampler::probs_from_logits(logits.row(0), &DecodeMode::stochastic());
        if tree.depth(u) < config.max_depth {
            for (tok, p) in specinfer_tensor::ops::topk(&q, config.max_children) {
                let score = path_prob * p;
                if score >= config.prob_threshold && p > 0.0 {
                    heap.push(Candidate {
                        score,
                        parent: u,
                        token: tok as TokenId,
                        prob: p,
                        depth: tree.depth(u) + 1,
                    });
                }
            }
        }
        dists.insert(u, ssm_id, q);
        if tree.speculated_len() >= config.max_nodes {
            break;
        }
        let Some(c) = heap.pop() else { break };
        debug_assert!(c.depth <= config.max_depth);
        u = tree.add_child(c.parent, c.token, ssm_id, c.prob);
        path_prob = c.score;
    }

    cache.truncate(prefix);
    Speculation { tree, dists }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_model::ModelConfig;

    fn ssm() -> Transformer {
        Transformer::from_seed(ModelConfig::smoke(), 4)
    }

    fn spec(config: &DynamicExpansionConfig) -> Speculation {
        let m = ssm();
        let mut cache = m.new_cache();
        let _ = m.prefill(&[1, 2, 3], &mut cache);
        let out = speculate_dynamic(&m, &mut cache, 5, config, 0);
        assert_eq!(cache.len(), 3, "cache must be restored");
        out
    }

    #[test]
    fn respects_node_budget_and_depth() {
        let cfg = DynamicExpansionConfig {
            max_nodes: 12,
            max_depth: 4,
            ..Default::default()
        };
        let s = spec(&cfg);
        assert!(s.tree.speculated_len() <= 12);
        assert!(s.tree.max_depth() <= 4);
        assert!(s.tree.speculated_len() > 0, "budget should be used");
    }

    #[test]
    fn expands_highest_probability_first() {
        let cfg = DynamicExpansionConfig {
            max_nodes: 1,
            max_depth: 4,
            prob_threshold: 0.0,
            max_children: 4,
        };
        let s = spec(&cfg);
        // With budget 1, the single speculated node must be the SSM's
        // top-1 continuation of the root.
        let q = s.dists.get(TokenTree::ROOT, 0).unwrap();
        let child = s.tree.children(TokenTree::ROOT)[0];
        let best = specinfer_tensor::ops::topk(q, 1)[0].0 as TokenId;
        assert_eq!(s.tree.token(child), best);
    }

    #[test]
    fn threshold_prunes_low_probability_paths() {
        let strict = DynamicExpansionConfig {
            max_nodes: 64,
            max_depth: 8,
            prob_threshold: 0.5,
            max_children: 4,
        };
        let loose = DynamicExpansionConfig {
            prob_threshold: 0.0,
            ..strict.clone()
        };
        assert!(spec(&strict).tree.speculated_len() <= spec(&loose).tree.speculated_len());
    }

    #[test]
    fn every_expanded_node_has_a_distribution() {
        let cfg = DynamicExpansionConfig {
            max_nodes: 10,
            ..Default::default()
        };
        let s = spec(&cfg);
        for u in s.tree.node_ids() {
            assert!(
                s.dists.get(u, 0).is_some(),
                "node {u:?} missing distribution"
            );
        }
    }

    #[test]
    fn node_probs_match_parent_distributions() {
        let cfg = DynamicExpansionConfig {
            max_nodes: 10,
            ..Default::default()
        };
        let s = spec(&cfg);
        for u in s.tree.node_ids() {
            if let Some(p) = s.tree.parent(u) {
                let q = s.dists.get(p, 0).unwrap();
                assert!((q[s.tree.token(u) as usize] - s.tree.ssm_prob(u)).abs() < 1e-6);
            }
        }
    }
}
