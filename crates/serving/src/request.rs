//! Request and response types for the serving layer.

use serde::{Deserialize, Serialize};
use specinfer_spec::StepStats;
use specinfer_tokentree::TokenId;
use specinfer_workloads::Dataset;

/// Identifier of a request within one server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An LLM serving request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Prompt tokens.
    pub prompt: Vec<TokenId>,
    /// Per-request generation budget.
    pub max_new_tokens: usize,
    /// Arrival time on the simulated clock, seconds.
    pub arrival_s: f64,
    /// Absolute simulated-clock deadline; the request is cancelled (in
    /// queue or mid-stream) once the clock passes it. `None` = no SLO.
    pub deadline_s: Option<f64>,
    /// The dataset this prompt came from, when known.
    pub dataset: Option<Dataset>,
}

impl Request {
    /// Whether the request's deadline has passed at simulated time `now`.
    pub fn deadline_missed(&self, now: f64) -> bool {
        self.deadline_s.is_some_and(|d| d <= now)
    }

    /// Committed KV rows this request needs if it runs to its budget:
    /// the whole prompt plus every generated token. Speculation headroom
    /// is the driver's concern (it adds the engine's
    /// `pool_speculation_rows` on top before admitting against the slab).
    pub fn kv_rows(&self) -> usize {
        self.prompt.len() + self.max_new_tokens
    }
}

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Ran to completion (budget or EOS).
    Completed,
    /// Cancelled by the client or the fault plan; `generated` holds the
    /// tokens streamed before the cut.
    Cancelled,
    /// The per-request deadline passed (in queue or mid-stream).
    DeadlineMissed,
    /// The request was invalid at admission (empty or oversized prompt)
    /// and was never decoded; `generated` is empty.
    Rejected,
}

/// A finished request — completed, cancelled, or expired.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's id.
    pub id: RequestId,
    /// The dataset the prompt came from, when known.
    pub dataset: Option<Dataset>,
    /// Number of prompt tokens.
    pub prompt_len: usize,
    /// Generated tokens (EOS-truncated; partial for cancelled requests).
    pub generated: Vec<TokenId>,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Completion (or cancellation) time on the simulated clock, seconds.
    pub finish_s: f64,
    /// Per-iteration statistics of this request's decoding.
    pub steps: Vec<StepStats>,
    /// How the request left the system.
    pub outcome: RequestOutcome,
}

impl Response {
    /// End-to-end latency (arrival to completion).
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Mean latency per generated token — the paper's headline metric.
    pub fn per_token_latency_s(&self) -> f64 {
        if self.generated.is_empty() {
            0.0
        } else {
            self.latency_s() / self.generated.len() as f64
        }
    }

    /// Mean tokens verified per LLM decoding step.
    pub fn tokens_per_step(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.generated.len() as f64 / self.steps.len() as f64
        }
    }

    /// Histogram of accepted speculated tokens per iteration: slot `k`
    /// counts the iterations that accepted exactly `k` draft tokens.
    /// The shape of this distribution is what the adaptive controller
    /// steers on.
    pub fn accepted_histogram(&self) -> Vec<usize> {
        let mut hist: Vec<usize> = Vec::new();
        for s in &self.steps {
            if hist.len() <= s.accepted {
                hist.resize(s.accepted + 1, 0);
            }
            if let Some(slot) = hist.get_mut(s.accepted) {
                *slot += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response() -> Response {
        Response {
            id: RequestId(1),
            dataset: None,
            prompt_len: 4,
            generated: vec![1, 2, 3, 4, 5],
            arrival_s: 1.0,
            finish_s: 2.0,
            outcome: RequestOutcome::Completed,
            steps: vec![
                StepStats {
                    tree_size: 5,
                    accepted: 2,
                    emitted: 3,
                },
                StepStats {
                    tree_size: 5,
                    accepted: 1,
                    emitted: 2,
                },
            ],
        }
    }

    #[test]
    fn latencies_derive_from_clock() {
        let r = response();
        assert!((r.latency_s() - 1.0).abs() < 1e-12);
        assert!((r.per_token_latency_s() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tokens_per_step_counts_generated_over_iterations() {
        let r = response();
        assert!((r.tokens_per_step() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_checks_against_the_clock() {
        let r = Request {
            id: RequestId(0),
            prompt: vec![1],
            max_new_tokens: 4,
            arrival_s: 1.0,
            deadline_s: Some(2.0),
            dataset: None,
        };
        assert!(!r.deadline_missed(1.5));
        assert!(r.deadline_missed(2.0));
        let open = Request {
            deadline_s: None,
            ..r
        };
        assert!(!open.deadline_missed(f64::MAX));
    }

    #[test]
    fn accepted_histogram_counts_iterations_by_acceptance() {
        let r = response();
        // Steps accepted 2 and 1 → one iteration each in slots 1 and 2.
        assert_eq!(r.accepted_histogram(), vec![0, 1, 1]);
        let mut empty = response();
        empty.steps.clear();
        assert!(empty.accepted_histogram().is_empty());
    }

    #[test]
    fn empty_generation_has_zero_rates() {
        let mut r = response();
        r.generated.clear();
        r.steps.clear();
        assert_eq!(r.per_token_latency_s(), 0.0);
        assert_eq!(r.tokens_per_step(), 0.0);
    }
}
