//! Aggregate metrics over a server run.

use specinfer_spec::{BatchRowStats, ControllerSnapshot};

use crate::request::{RequestOutcome, Response};

/// Counters of injected faults and the runtime's degradation responses —
/// the observability surface of a chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total faults injected (per request-iteration, plus slowdowns).
    pub injected: usize,
    /// Iterations where an SSM emitted garbage logits.
    pub ssm_garbage: usize,
    /// Iterations where the SSM pool stalled.
    pub ssm_stalls: usize,
    /// Iterations with simulated KV-arena memory pressure.
    pub kv_ooms: usize,
    /// Iterations whose verifier pass was slowed down.
    pub slowdowns: usize,
    /// Times a session's degradation ladder fell back to incremental
    /// decoding.
    pub fallbacks_taken: usize,
    /// Iterations served incrementally while in fallback.
    pub fallback_steps: usize,
    /// Times a session re-probed speculation after a cooldown.
    pub reprobes: usize,
    /// Queue-backpressure retry attempts.
    pub retries: usize,
    /// Submissions dropped after exhausting their retries.
    pub rejected: usize,
    /// Submissions rejected at admission as invalid (empty or oversized
    /// prompt); they are answered with [`RequestOutcome::Rejected`]
    /// without ever being decoded.
    ///
    /// [`RequestOutcome::Rejected`]: crate::request::RequestOutcome::Rejected
    pub invalid: usize,
    /// Requests whose deadline passed (in queue or mid-stream).
    pub deadline_misses: usize,
    /// Requests cancelled mid-stream.
    pub cancellations: usize,
}

/// One decoding iteration as the server executed it — the audit trail
/// behind the aggregate numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Simulated time at which the iteration began.
    pub start_s: f64,
    /// Modelled duration of the iteration.
    pub duration_s: f64,
    /// Requests active in the iteration.
    pub batch: usize,
    /// Mean speculated-tree size across the batch.
    pub mean_tree_size: f64,
    /// Tokens emitted by the whole batch this iteration.
    pub emitted: usize,
}

/// Occupancy of the ragged batch over a run — how full the engine
/// actually was, iteration-weighted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OccupancyStats {
    /// Mean of `batch / max_batch_size` across iterations: slot
    /// occupancy. 1.0 means every iteration ran a full batch.
    pub mean_batch_fill: f64,
    /// Mean of `Σ committed KV rows / Σ slab capacities` across
    /// iterations, over the sessions live that iteration: how full the
    /// right-sized slabs ran.
    pub mean_slab_fill: f64,
    /// Largest batch any single iteration ran.
    pub peak_batch: usize,
}

/// The outcome of serving a trace to completion.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Finished requests (completed, cancelled or expired), ordered by
    /// id.
    pub responses: Vec<Response>,
    /// Total simulated time from first arrival to last completion.
    pub makespan_s: f64,
    /// Number of decoding iterations executed.
    pub iterations: usize,
    /// Per-iteration execution log, in order.
    pub iteration_log: Vec<IterationRecord>,
    /// Batch and slab occupancy across the run.
    pub occupancy: OccupancyStats,
    /// Faults injected and degradation responses taken during the run.
    pub faults: FaultCounters,
    /// Real (wall-clock) seconds the run took, measured by the sanctioned
    /// stopwatch in [`crate::clock`]. Observational only: simulated time
    /// (`makespan_s`) drives every latency metric and scheduling
    /// decision; this field exists so operators can see actual runtime.
    pub wall_s: f64,
    /// Aggregated adaptive-controller telemetry over all retired
    /// sessions: rung-decision and SSM-routing histograms, probe counts.
    /// All-zero when the run's mode was not adaptive.
    pub controller: ControllerSnapshot,
    /// LLM verify-row accounting summed over all batched iterations —
    /// what frontier-first staging forwarded against whole trees.
    /// All-zero when the run never stepped a batch.
    pub verify_rows: BatchRowStats,
}

impl ServeReport {
    /// The responses that ran to completion (latency aggregates are
    /// computed over these, so cancelled stubs don't skew the means).
    pub fn completed(&self) -> impl Iterator<Item = &Response> {
        self.responses
            .iter()
            .filter(|r| r.outcome == RequestOutcome::Completed)
    }

    /// Number of completed responses.
    pub fn completed_len(&self) -> usize {
        self.completed().count()
    }

    /// Total generated tokens across all requests (partial outputs of
    /// cancelled requests included — the work was done).
    pub fn total_generated(&self) -> usize {
        self.responses.iter().map(|r| r.generated.len()).sum()
    }

    /// Mean per-token latency over completed requests — the paper's
    /// Figure 7/8 y-axis.
    pub fn mean_per_token_latency_s(&self) -> f64 {
        let n = self.completed_len();
        if n == 0 {
            return 0.0;
        }
        self.completed()
            .map(Response::per_token_latency_s)
            .sum::<f64>()
            / n as f64
    }

    /// Aggregate throughput: generated tokens per simulated second.
    pub fn throughput_tokens_per_s(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.total_generated() as f64 / self.makespan_s
        }
    }

    /// Mean tokens verified per decoding step, over completed requests
    /// (Table 2's metric).
    pub fn mean_tokens_per_step(&self) -> f64 {
        let n = self.completed_len();
        if n == 0 {
            return 0.0;
        }
        self.completed().map(Response::tokens_per_step).sum::<f64>() / n as f64
    }

    /// Mean end-to-end latency over completed requests.
    pub fn mean_latency_s(&self) -> f64 {
        let n = self.completed_len();
        if n == 0 {
            return 0.0;
        }
        self.completed().map(Response::latency_s).sum::<f64>() / n as f64
    }

    /// Per-request decoding iteration counts `(id, iterations)`, in
    /// response order — the ragged path's audit trail: two requests with
    /// equal budgets may take different iteration counts depending on
    /// acceptance, and a request's count must not depend on its
    /// batch-mates (asserted by the chaos battery).
    pub fn per_request_iterations(&self) -> Vec<(crate::request::RequestId, usize)> {
        self.responses
            .iter()
            .map(|r| (r.id, r.steps.len()))
            .collect()
    }

    /// Histogram of accepted speculated tokens per iteration, summed
    /// over every response's steps: slot `k` counts the iterations that
    /// accepted exactly `k` draft tokens. Surfaces how often speculation
    /// actually paid, which is the signal the adaptive controller steers
    /// on.
    pub fn accepted_length_histogram(&self) -> Vec<usize> {
        let mut hist: Vec<usize> = Vec::new();
        for r in &self.responses {
            let h = r.accepted_histogram();
            if hist.len() < h.len() {
                hist.resize(h.len(), 0);
            }
            for (acc, v) in hist.iter_mut().zip(&h) {
                *acc += v;
            }
        }
        hist
    }

    /// The `q`-quantile (0..=1) of end-to-end latency over completed
    /// requests — e.g. `latency_quantile_s(0.99)` for the p99 SLO view.
    pub fn latency_quantile_s(&self, q: f64) -> f64 {
        let mut lats: Vec<f64> = self.completed().map(Response::latency_s).collect();
        if lats.is_empty() {
            return 0.0;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((lats.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        lats[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, RequestOutcome};
    use specinfer_spec::StepStats;

    fn mk(id: u64, n: usize, finish: f64) -> Response {
        Response {
            id: RequestId(id),
            dataset: None,
            prompt_len: 2,
            generated: (0..n as u32).collect(),
            arrival_s: 0.0,
            finish_s: finish,
            outcome: RequestOutcome::Completed,
            steps: vec![
                StepStats {
                    tree_size: 3,
                    accepted: 1,
                    emitted: 2
                };
                n / 2
            ],
        }
    }

    fn report() -> ServeReport {
        ServeReport {
            responses: vec![mk(0, 4, 1.0), mk(1, 8, 2.0)],
            makespan_s: 2.0,
            iterations: 6,
            iteration_log: Vec::new(),
            occupancy: OccupancyStats::default(),
            faults: FaultCounters::default(),
            wall_s: 0.0,
            controller: ControllerSnapshot::default(),
            verify_rows: BatchRowStats::default(),
        }
    }

    #[test]
    fn totals_and_throughput() {
        let r = report();
        assert_eq!(r.total_generated(), 12);
        assert!((r.throughput_tokens_per_s() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn mean_per_token_latency_averages_requests() {
        let r = report();
        // Request 0: 1.0/4 = 0.25; request 1: 2.0/8 = 0.25.
        assert!((r.mean_per_token_latency_s() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tokens_per_step_is_two_here() {
        let r = report();
        assert!((r.mean_tokens_per_step() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_yields_zeros() {
        let r = ServeReport {
            responses: vec![],
            makespan_s: 0.0,
            iterations: 0,
            iteration_log: Vec::new(),
            occupancy: OccupancyStats::default(),
            faults: FaultCounters::default(),
            wall_s: 0.0,
            controller: ControllerSnapshot::default(),
            verify_rows: BatchRowStats::default(),
        };
        assert_eq!(r.mean_per_token_latency_s(), 0.0);
        assert_eq!(r.throughput_tokens_per_s(), 0.0);
        assert_eq!(r.mean_tokens_per_step(), 0.0);
        assert_eq!(r.latency_quantile_s(0.99), 0.0);
        assert!(r.accepted_length_histogram().is_empty());
    }

    #[test]
    fn accepted_length_histogram_sums_responses() {
        let r = report();
        // Each of the two responses has n/2 steps all accepting 1:
        // request 0 contributes 2 iterations, request 1 contributes 4.
        assert_eq!(r.accepted_length_histogram(), vec![0, 6]);
    }

    #[test]
    fn cancelled_stubs_do_not_skew_latency_aggregates() {
        let mut r = report();
        let mut cancelled = mk(2, 1, 40.0); // absurd latency, partial output
        cancelled.outcome = RequestOutcome::Cancelled;
        let mut missed = mk(3, 0, 50.0);
        missed.outcome = RequestOutcome::DeadlineMissed;
        missed.steps.clear();
        r.responses.push(cancelled);
        r.responses.push(missed);
        assert_eq!(r.completed_len(), 2);
        // Latency means are over completed requests only…
        assert!((r.mean_per_token_latency_s() - 0.25).abs() < 1e-12);
        assert_eq!(r.latency_quantile_s(1.0), 2.0);
        // …but generated-token totals count the partial work.
        assert_eq!(r.total_generated(), 13);
    }

    #[test]
    fn latency_quantiles_bracket_the_range() {
        let r = report();
        assert_eq!(r.latency_quantile_s(0.0), 1.0);
        assert_eq!(r.latency_quantile_s(1.0), 2.0);
        assert!(
            (r.latency_quantile_s(0.5) - 1.0).abs() < 1e-12
                || (r.latency_quantile_s(0.5) - 2.0).abs() < 1e-12
        );
    }
}
