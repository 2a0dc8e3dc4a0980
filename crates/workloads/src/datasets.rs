//! The five evaluation prompt datasets.
//!
//! These carry the paper's dataset names but are generated from the
//! synthetic [`Grammar`]'s five domains (see the crate docs for the
//! substitution rationale). Each dataset differs in predictability the
//! same way the paper's datasets differ in speculation success rate.

use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::TokenId;

use crate::grammar::Grammar;

/// A prompt plus its generation budget — one serving request's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptSpec {
    /// The prompt tokens (starts with BOS).
    pub tokens: Vec<TokenId>,
    /// Maximum number of new tokens to generate for this prompt.
    pub max_new_tokens: usize,
}

/// The five prompt datasets of the paper's evaluation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Stanford Alpaca instruction prompts.
    Alpaca,
    /// ChatGPT Prompts.
    Cp,
    /// WebQA questions (least predictable domain).
    WebQa,
    /// Chatbot Instruction Prompts (most predictable domain).
    Cip,
    /// PIQA physical-commonsense questions.
    Piqa,
}

impl Dataset {
    /// All five datasets in the paper's table order.
    pub fn all() -> [Dataset; 5] {
        [
            Dataset::Alpaca,
            Dataset::Cp,
            Dataset::WebQa,
            Dataset::Cip,
            Dataset::Piqa,
        ]
    }

    /// The dataset's display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Alpaca => "Alpaca",
            Dataset::Cp => "CP",
            Dataset::WebQa => "WebQA",
            Dataset::Cip => "CIP",
            Dataset::Piqa => "PIQA",
        }
    }

    /// The grammar domain index backing this dataset.
    pub fn domain(self) -> usize {
        match self {
            Dataset::Alpaca => 0,
            Dataset::Cp => 1,
            Dataset::WebQa => 2,
            Dataset::Cip => 3,
            Dataset::Piqa => 4,
        }
    }

    /// Generates `n` prompts of `prompt_len` tokens each (plus BOS), with
    /// generation budget `max_new_tokens`, deterministically from `seed`.
    ///
    /// Prompts whose grammar walk terminates early are re-drawn so every
    /// prompt has full length; this mirrors the paper's use of dataset
    /// *prompts only* (completions come from the models).
    pub fn prompts(
        self,
        grammar: &Grammar,
        n: usize,
        prompt_len: usize,
        max_new_tokens: usize,
        seed: u64,
    ) -> Vec<PromptSpec> {
        let mut rng = SeededRng::new(seed ^ (self.domain() as u64).wrapping_mul(0x9E37));
        (0..n)
            .map(|_| {
                let mut tokens = grammar.sample_sequence(Some(self.domain()), prompt_len, &mut rng);
                let mut tries = 0;
                while tokens.len() < prompt_len + 1 && tries < 100 {
                    tokens = grammar.sample_sequence(Some(self.domain()), prompt_len, &mut rng);
                    tries += 1;
                }
                tokens.truncate(prompt_len + 1);
                PromptSpec {
                    tokens,
                    max_new_tokens,
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{BOS_TOKEN, EOS_TOKEN};

    #[test]
    fn five_datasets_with_distinct_domains() {
        let all = Dataset::all();
        assert_eq!(all.len(), 5);
        let mut domains: Vec<usize> = all.iter().map(|d| d.domain()).collect();
        domains.sort_unstable();
        assert_eq!(domains, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prompts_are_full_length_and_deterministic() {
        let g = Grammar::synthetic(256, 1);
        let a = Dataset::WebQa.prompts(&g, 10, 12, 64, 7);
        let b = Dataset::WebQa.prompts(&g, 10, 12, 64, 7);
        assert_eq!(a, b);
        for p in &a {
            assert_eq!(p.tokens.len(), 13); // BOS + 12
            assert_eq!(p.tokens[0], BOS_TOKEN);
            assert!(!p.tokens[1..p.tokens.len() - 1].contains(&EOS_TOKEN));
            assert_eq!(p.max_new_tokens, 64);
        }
    }

    #[test]
    fn datasets_draw_from_their_own_domains() {
        let g = Grammar::synthetic(256, 1);
        let cip = Dataset::Cip.prompts(&g, 5, 8, 32, 3);
        let webqa = Dataset::WebQa.prompts(&g, 5, 8, 32, 3);
        // First real token after BOS must lie in the dataset's domain
        // block; blocks are disjoint so these never coincide.
        assert_ne!(cip[0].tokens[1], webqa[0].tokens[1]);
    }

    #[test]
    fn names_match_paper_tables() {
        let names: Vec<&str> = Dataset::all().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["Alpaca", "CP", "WebQA", "CIP", "PIQA"]);
    }
}
