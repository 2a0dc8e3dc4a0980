//! A seeded probabilistic grammar: the synthetic language every model in
//! the workspace is trained on.
//!
//! The grammar is a sparse **second-order** Markov source over the
//! vocabulary, partitioned into five *domains* with different branching
//! factors and probability skews (one per evaluation dataset), plus a
//! small pool of shared "function" tokens. Each token has a fixed
//! *successor set*, but the assignment of probabilities to successors
//! rotates with the *previous* token: predicting the argmax therefore
//! requires genuine two-token context, which a large model captures much
//! better than a capacity-limited SSM — recreating the paper's
//! LLM-vs-SSM alignment gap. Low-branching domains produce predictable
//! text (high speculation accept rates); high-branching domains produce
//! entropic text — mirroring how the paper's datasets differ.

use serde::Serialize;
use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::TokenId;

/// Beginning-of-sequence token (every sequence starts here).
pub const BOS_TOKEN: TokenId = 0;
/// End-of-sequence token (absorbing).
pub const EOS_TOKEN: TokenId = 1;

/// Number of domains (one per evaluation dataset).
pub const N_DOMAINS: usize = 5;

const DOMAIN_BLOCK: usize = 44;
const FIRST_DOMAIN_TOKEN: usize = 2;

/// Per-domain shape parameters: (successor count, Zipf skew).
///
/// Order matches [`crate::Dataset`]: Alpaca, CP, WebQA, CIP, PIQA.
/// Higher skew + fewer successors = more predictable text.
const DOMAIN_SHAPE: [(usize, f32); N_DOMAINS] =
    [(4, 1.15), (4, 1.45), (8, 0.55), (3, 1.7), (6, 0.8)];

const EOS_PROB: f32 = 0.02;
const SHARED_PROB: f32 = 0.08;

#[derive(Debug, Clone, Serialize)]
struct Transition {
    successors: Vec<TokenId>,
    probs: Vec<f32>,
    /// How many leading (in-domain) successors participate in the
    /// previous-token rotation (0 = order-1 transition).
    rotating: usize,
}

/// The synthetic Markov language.
///
/// # Example
///
/// ```
/// use specinfer_tensor::rng::SeededRng;
/// use specinfer_workloads::Grammar;
///
/// let grammar = Grammar::synthetic(256, 7);
/// let mut rng = SeededRng::new(1);
/// let seq = grammar.sample_sequence(Some(3), 32, &mut rng);
/// assert!(seq.len() >= 2 && seq.len() <= 33);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Grammar {
    vocab_size: usize,
    transitions: Vec<Transition>,
}

impl Grammar {
    /// Builds the five-domain synthetic language over `vocab_size` tokens
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is too small to hold the five domain blocks
    /// (minimum 256).
    pub fn synthetic(vocab_size: usize, seed: u64) -> Self {
        assert!(
            vocab_size >= FIRST_DOMAIN_TOKEN + N_DOMAINS * DOMAIN_BLOCK + 8,
            "vocab_size {vocab_size} too small for the domain layout"
        );
        let mut rng = SeededRng::new(seed);
        let shared_start = FIRST_DOMAIN_TOKEN + N_DOMAINS * DOMAIN_BLOCK;
        let shared: Vec<TokenId> = (shared_start..vocab_size).map(|t| t as TokenId).collect();

        let mut transitions = Vec::with_capacity(vocab_size);
        for t in 0..vocab_size {
            transitions.push(Self::build_transition(t, &shared, &mut rng));
        }
        Grammar {
            vocab_size,
            transitions,
        }
    }

    fn domain_of(t: usize) -> Option<usize> {
        if t < FIRST_DOMAIN_TOKEN {
            return None;
        }
        let rel = t - FIRST_DOMAIN_TOKEN;
        if rel < N_DOMAINS * DOMAIN_BLOCK {
            Some(rel / DOMAIN_BLOCK)
        } else {
            None
        }
    }

    fn domain_tokens(domain: usize) -> std::ops::Range<usize> {
        let start = FIRST_DOMAIN_TOKEN + domain * DOMAIN_BLOCK;
        start..start + DOMAIN_BLOCK
    }

    fn build_transition(t: usize, shared: &[TokenId], rng: &mut SeededRng) -> Transition {
        if t == EOS_TOKEN as usize {
            // Absorbing.
            return Transition {
                successors: vec![EOS_TOKEN],
                probs: vec![1.0],
                rotating: 0,
            };
        }
        if t == BOS_TOKEN as usize {
            // BOS fans out uniformly over all domain start regions.
            let successors: Vec<TokenId> = (0..N_DOMAINS)
                .flat_map(|d| {
                    let r = Self::domain_tokens(d);
                    [r.start, r.start + 1, r.start + 2].map(|x| x as TokenId)
                })
                .collect();
            let p = 1.0 / successors.len() as f32;
            let probs = vec![p; successors.len()];
            return Transition {
                successors,
                probs,
                rotating: 0,
            };
        }

        // Domain tokens branch within their domain; shared tokens branch
        // into a random domain (they are the entropy bridges).
        let (branch, skew, pool): (usize, f32, Vec<TokenId>) = match Self::domain_of(t) {
            Some(d) => {
                let (b, s) = DOMAIN_SHAPE[d];
                (b, s, Self::domain_tokens(d).map(|x| x as TokenId).collect())
            }
            None => {
                let d = rng.below(N_DOMAINS);
                (
                    4,
                    1.0,
                    Self::domain_tokens(d).map(|x| x as TokenId).collect(),
                )
            }
        };

        let mut successors: Vec<TokenId> = Vec::with_capacity(branch + shared.len().min(2) + 1);
        let mut probs: Vec<f32> = Vec::with_capacity(successors.capacity());

        // Zipf-weighted in-domain successors.
        let mut weights = Vec::with_capacity(branch);
        for i in 0..branch {
            weights.push(1.0 / ((i + 1) as f32).powf(skew));
        }
        let wsum: f32 = weights.iter().sum();
        let in_domain_mass = 1.0 - EOS_PROB - SHARED_PROB;
        let mut chosen = std::collections::HashSet::new();
        for w in weights {
            // Rejection-sample a distinct successor from the pool.
            let mut s = pool[rng.below(pool.len())];
            while chosen.contains(&s) {
                s = pool[rng.below(pool.len())];
            }
            chosen.insert(s);
            successors.push(s);
            probs.push(in_domain_mass * w / wsum);
        }
        // Two shared-token successors.
        let s1 = shared[rng.below(shared.len())];
        let mut s2 = shared[rng.below(shared.len())];
        while s2 == s1 && shared.len() > 1 {
            s2 = shared[rng.below(shared.len())];
        }
        successors.push(s1);
        probs.push(SHARED_PROB * 0.6);
        successors.push(s2);
        probs.push(SHARED_PROB * 0.4);
        // EOS.
        successors.push(EOS_TOKEN);
        probs.push(EOS_PROB);

        Transition {
            successors,
            probs,
            rotating: branch,
        }
    }

    /// The vocabulary size the grammar was built for.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The sparse successor distribution after the bigram `(prev, cur)`,
    /// as `(successor, probability)` pairs.
    ///
    /// The successor *set* depends only on `cur`; the assignment of
    /// probabilities to in-domain successors rotates with `prev` (the
    /// second-order structure that separates LLM from SSM alignment).
    ///
    /// # Panics
    ///
    /// Panics if `cur` is out of vocabulary.
    pub fn next_dist(&self, prev: TokenId, cur: TokenId) -> Vec<(TokenId, f32)> {
        let tr = &self.transitions[cur as usize];
        let mut pairs: Vec<(TokenId, f32)> = tr
            .successors
            .iter()
            .copied()
            .zip(tr.probs.iter().copied())
            .collect();
        if tr.rotating > 1 {
            let r = (prev as usize).wrapping_mul(0x9E37_79B1) % tr.rotating;
            // Rotate the probability column of the first `rotating`
            // entries; the successor set itself is stable.
            let rotated: Vec<f32> = (0..tr.rotating)
                .map(|i| tr.probs[(i + r) % tr.rotating])
                .collect();
            for (pair, p) in pairs.iter_mut().zip(rotated) {
                pair.1 = p;
            }
        }
        pairs
    }

    /// Samples the successor of the bigram `(prev, cur)`.
    pub fn sample_next(&self, prev: TokenId, cur: TokenId, rng: &mut SeededRng) -> TokenId {
        let dist = self.next_dist(prev, cur);
        let probs: Vec<f32> = dist.iter().map(|&(_, p)| p).collect();
        dist[rng.sample_index(&probs)].0
    }

    /// A start token for `domain` (one of its three entry tokens).
    ///
    /// # Panics
    ///
    /// Panics if `domain >= N_DOMAINS`.
    pub fn domain_start(&self, domain: usize, rng: &mut SeededRng) -> TokenId {
        assert!(domain < N_DOMAINS, "domain out of range");
        let r = Self::domain_tokens(domain);
        (r.start + rng.below(3)) as TokenId
    }

    /// Samples a sequence of up to `max_len` tokens (excluding BOS),
    /// starting in `domain` if given (otherwise from BOS), stopping early
    /// at EOS. The returned sequence always begins with BOS.
    pub fn sample_sequence(
        &self,
        domain: Option<usize>,
        max_len: usize,
        rng: &mut SeededRng,
    ) -> Vec<TokenId> {
        let mut seq = vec![BOS_TOKEN];
        let mut prev = BOS_TOKEN;
        let mut cur = match domain {
            Some(d) => {
                let s = self.domain_start(d, rng);
                seq.push(s);
                s
            }
            None => BOS_TOKEN,
        };
        while seq.len() < max_len + 1 {
            let next = self.sample_next(prev, cur, rng);
            seq.push(next);
            if next == EOS_TOKEN {
                break;
            }
            prev = cur;
            cur = next;
        }
        seq
    }

    /// Generates an unsupervised training corpus: `n` sequences of up to
    /// `max_len` tokens each, mixing all domains (the OpenWebText
    /// stand-in used for LLM training and SSM boost-tuning).
    pub fn training_corpus(&self, n: usize, max_len: usize, seed: u64) -> Vec<Vec<TokenId>> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|i| {
                let mut s = self.sample_sequence(Some(i % N_DOMAINS), max_len, &mut rng);
                // Training wants at least two tokens.
                while s.len() < 3 {
                    s = self.sample_sequence(Some(i % N_DOMAINS), max_len, &mut rng);
                }
                s
            })
            .collect()
    }

    /// The Shannon entropy (nats) of token `t`'s successor distribution —
    /// rotation-invariant, so no `prev` argument is needed. Used by tests
    /// to confirm the domains differ in predictability.
    pub fn successor_entropy(&self, t: TokenId) -> f32 {
        self.transitions[t as usize]
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.ln())
            .sum()
    }

    /// Mean successor entropy over a domain's tokens.
    pub fn domain_entropy(&self, domain: usize) -> f32 {
        let r = Self::domain_tokens(domain);
        let n = r.len() as f32;
        r.map(|t| self.successor_entropy(t as TokenId)).sum::<f32>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grammar() -> Grammar {
        Grammar::synthetic(256, 42)
    }

    #[test]
    fn transitions_are_normalized_for_any_prev() {
        let g = grammar();
        for prev in [0u32, 7, 100, 250] {
            for t in 0..g.vocab_size() {
                let sum: f32 = g.next_dist(prev, t as TokenId).iter().map(|(_, p)| p).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-4,
                    "token {t} (prev {prev}) sums to {sum}"
                );
            }
        }
    }

    #[test]
    fn eos_is_absorbing() {
        let g = grammar();
        let mut rng = SeededRng::new(1);
        assert_eq!(g.sample_next(5, EOS_TOKEN, &mut rng), EOS_TOKEN);
    }

    #[test]
    fn previous_token_rotates_probabilities_not_support() {
        let g = grammar();
        // Pick a domain token and check that different `prev` values
        // permute the probabilities over the same successor set, and that
        // at least two `prev` values give different argmaxes.
        let cur: TokenId = 10;
        let base = g.next_dist(0, cur);
        let support: Vec<TokenId> = base.iter().map(|&(t, _)| t).collect();
        let mut argmaxes = std::collections::HashSet::new();
        for prev in 0..32u32 {
            let d = g.next_dist(prev, cur);
            let s: Vec<TokenId> = d.iter().map(|&(t, _)| t).collect();
            assert_eq!(s, support, "successor set must be stable");
            let best = d
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|&(t, _)| t)
                .unwrap();
            argmaxes.insert(best);
        }
        assert!(
            argmaxes.len() >= 2,
            "rotation must move the argmax: {argmaxes:?}"
        );
    }

    #[test]
    fn sequences_start_with_bos_and_respect_length() {
        let g = grammar();
        let mut rng = SeededRng::new(2);
        for _ in 0..50 {
            let s = g.sample_sequence(Some(0), 20, &mut rng);
            assert_eq!(s[0], BOS_TOKEN);
            assert!(s.len() <= 21);
            // EOS, if present, is last.
            if let Some(pos) = s.iter().position(|&t| t == EOS_TOKEN) {
                assert_eq!(pos, s.len() - 1);
            }
        }
    }

    #[test]
    fn domains_differ_in_entropy_in_the_expected_order() {
        let g = grammar();
        // Dataset order: Alpaca, CP, WebQA, CIP, PIQA.
        let e: Vec<f32> = (0..N_DOMAINS).map(|d| g.domain_entropy(d)).collect();
        // CIP (3) most predictable, WebQA (2) least.
        assert!(e[3] < e[0], "CIP should beat Alpaca: {e:?}");
        assert!(e[3] < e[4], "CIP should beat PIQA: {e:?}");
        assert!(e[2] > e[0], "WebQA should be hardest vs Alpaca: {e:?}");
        assert!(e[2] > e[1], "WebQA should be hardest vs CP: {e:?}");
    }

    #[test]
    fn corpus_is_deterministic_and_well_formed() {
        let g = grammar();
        let a = g.training_corpus(20, 32, 9);
        let b = g.training_corpus(20, 32, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|s| s.len() >= 3));
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn grammar_is_deterministic_per_seed() {
        let a = Grammar::synthetic(256, 5);
        let b = Grammar::synthetic(256, 5);
        assert_eq!(a.next_dist(3, 10), b.next_dist(3, 10));
        let c = Grammar::synthetic(256, 6);
        assert_ne!(
            a.next_dist(3, 10)
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<_>>(),
            c.next_dist(3, 10)
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_tokens_stay_in_vocab() {
        let g = grammar();
        let mut rng = SeededRng::new(3);
        for _ in 0..20 {
            let s = g.sample_sequence(None, 64, &mut rng);
            assert!(s.iter().all(|&t| (t as usize) < g.vocab_size()));
        }
    }
}
