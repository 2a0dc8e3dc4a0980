//! Request arrival traces for the serving experiments.
//!
//! The paper's end-to-end experiments run closed batches of concurrent
//! requests (BS = 1..16). This module generates both that closed-loop
//! shape and Poisson open-loop traces for the continuous-batching
//! scheduler.

use specinfer_tensor::rng::SeededRng;

use crate::datasets::{Dataset, PromptSpec};
use crate::grammar::Grammar;

/// One request in a trace: a prompt with an arrival timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Arrival time in seconds from trace start.
    pub arrival_s: f64,
    /// The prompt and generation budget.
    pub prompt: PromptSpec,
    /// The dataset the prompt was drawn from.
    pub dataset: Dataset,
}

/// A request trace (sorted by arrival time).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The requests, ordered by `arrival_s`.
    pub requests: Vec<TraceRequest>,
}

impl Trace {
    /// A closed-loop batch: `batch_size` requests all arriving at t = 0,
    /// as in the paper's BS-sweep experiments.
    pub fn closed_batch(
        grammar: &Grammar,
        dataset: Dataset,
        batch_size: usize,
        prompt_len: usize,
        max_new_tokens: usize,
        seed: u64,
    ) -> Self {
        let prompts = dataset.prompts(grammar, batch_size, prompt_len, max_new_tokens, seed);
        Trace {
            requests: prompts
                .into_iter()
                .map(|prompt| TraceRequest {
                    arrival_s: 0.0,
                    prompt,
                    dataset,
                })
                .collect(),
        }
    }

    /// An open-loop Poisson trace with mean arrival rate `rate_per_s`,
    /// mixing all five datasets round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not positive.
    pub fn poisson(
        grammar: &Grammar,
        n: usize,
        rate_per_s: f64,
        prompt_len: usize,
        max_new_tokens: usize,
        seed: u64,
    ) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        let mut rng = SeededRng::new(seed);
        let datasets = Dataset::all();
        let mut t = 0.0;
        let mut requests = Vec::with_capacity(n);
        for i in 0..n {
            // Exponential inter-arrival times.
            let u = f64::from(rng.uniform()).max(1e-12);
            t += -u.ln() / rate_per_s;
            let dataset = datasets[i % datasets.len()];
            let prompt = dataset
                .prompts(
                    grammar,
                    1,
                    prompt_len,
                    max_new_tokens,
                    seed.wrapping_add(i as u64),
                )
                .pop()
                .expect("one prompt requested");
            requests.push(TraceRequest {
                arrival_s: t,
                prompt,
                dataset,
            });
        }
        Trace { requests }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_batch_arrives_at_zero() {
        let g = Grammar::synthetic(256, 1);
        let t = Trace::closed_batch(&g, Dataset::Alpaca, 8, 10, 64, 3);
        assert_eq!(t.len(), 8);
        assert!(t.requests.iter().all(|r| r.arrival_s == 0.0));
    }

    #[test]
    fn poisson_is_sorted_and_roughly_rate() {
        let g = Grammar::synthetic(256, 1);
        let t = Trace::poisson(&g, 200, 10.0, 8, 32, 4);
        assert_eq!(t.len(), 200);
        for w in t.requests.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        let span = t.requests.last().unwrap().arrival_s;
        let rate = 200.0 / span;
        assert!((rate - 10.0).abs() < 3.0, "empirical rate {rate}");
    }

    #[test]
    fn poisson_mixes_datasets() {
        let g = Grammar::synthetic(256, 1);
        let t = Trace::poisson(&g, 10, 5.0, 8, 32, 4);
        let distinct: std::collections::HashSet<_> = t.requests.iter().map(|r| r.dataset).collect();
        assert_eq!(distinct.len(), 5);
    }
}
