//! Aggregate metrics over a server run.

use specinfer_spec::{BatchRowStats, ControllerSnapshot};

use crate::request::{RequestOutcome, Response};

/// Counters of injected faults and the runtime's degradation responses —
/// the observability surface of a chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total faults injected (per request-iteration, plus trace replay's
    /// slowdowns).
    pub injected: usize,
    /// Iterations where an SSM emitted garbage logits.
    pub ssm_garbage: usize,
    /// Iterations where the SSM pool stalled.
    pub ssm_stalls: usize,
    /// Iterations with simulated KV-arena memory pressure.
    pub kv_ooms: usize,
    /// Iterations whose verifier pass was slowed down. Trace replay only:
    /// a slowdown stretches simulated time, and the daemon keeps none.
    pub slowdowns: usize,
    /// Always 0: a full queue refuses at the door (see `rejected`) and
    /// nothing is retried. Stays only because the frozen benchmark crate
    /// (`specbench/`) adds it into `serving.retries_rejected`; it goes
    /// when the benchmark next changes.
    pub retries: usize,
    /// Submissions refused because the bounded queue was full; they are
    /// answered with [`RequestOutcome::Rejected`] without ever being
    /// queued.
    ///
    /// [`RequestOutcome::Rejected`]: crate::request::RequestOutcome::Rejected
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
/// behind the aggregate numbers. Times are on the front-end's clock:
/// simulated under trace replay, wall under the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Time at which the iteration began.
    pub start_s: f64,
    /// The iteration's duration: priced by the cost model under replay,
    /// measured under the daemon.
    pub duration_s: f64,
    /// Requests active in the iteration.
    pub batch: usize,
    /// Mean speculated-tree size across the batch.
    pub mean_tree_size: f64,
    /// Mean tokens per request, prompt included: with `batch` and
    /// `mean_tree_size`, what the replay's cost model prices.
    pub mean_context: usize,
    /// Tokens emitted by the whole batch this iteration.
    pub emitted: usize,
    /// KV rows committed across the batch's sessions after the step.
    pub kv_rows: usize,
    /// Those sessions' slab capacities, summed: the rows reserved.
    pub slab_capacity: usize,
    /// The rows of the iteration's fused verify forward.
    pub verify_rows: BatchRowStats,
}

/// Occupancy of the ragged batch over a run — how full the engine
/// actually was, iteration-weighted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OccupancyStats {
    /// Mean of `batch / max_batch_size` across iterations: slot
    /// occupancy. 1.0 means every iteration ran a full batch.
    pub mean_batch_fill: f64,
    /// Mean of `kv_rows / slab_capacity` across iterations (one with no
    /// capacity adds nothing but still counts): how full the right-sized
    /// slabs ran.
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
    /// Seconds from time 0 to the run's last answer or iteration end, on
    /// the front-end's clock: simulated under trace replay, wall seconds
    /// since spawn under the daemon (so there it is at most `wall_s`).
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
    /// stopwatch in [`crate::clock`]: the whole replay, or the daemon's
    /// life from spawn to shutdown. Replay never reads it; its latency
    /// metrics are on the simulated clock.
    pub wall_s: f64,
    /// Aggregated adaptive-controller telemetry over all retired
    /// sessions: `[root-only, drafted]` step counts, drafts routed per
    /// SSM, probe counts. Empty when the run's mode was not adaptive.
    pub controller: ControllerSnapshot,
    /// LLM verify rows and forwards (weight reads): the fold of
    /// `iteration_log`'s. All-zero when the run never stepped a batch.
    /// Its `pruned_rows()` (always 0) and the field name
    /// `single_pass_rows` stay only for `specbench/`'s metrics and go
    /// when the benchmark next changes.
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

    /// Aggregate throughput: generated tokens per second of makespan.
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
        // …but generated-token totals count the partial work.
        assert_eq!(r.total_generated(), 13);
    }
}
