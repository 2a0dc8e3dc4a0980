//! Serving configuration, the simulated-clock cost model, and the
//! trace-replay front-end.
//!
//! Every decoding iteration steps the batch of live sessions for real
//! (speculation + tree verification on the workspace's tiny models),
//! then charges the simulated clock what the *paper-scale* models would
//! have cost on the configured cluster ([`TimingConfig`], priced by
//! `specinfer-sim`). This separation is the substitution DESIGN.md
//! documents: token-level behaviour is measured, hardware time is
//! modelled. The iteration itself lives in `driver.rs`; [`Server`] only
//! hands it a trace.
//!
//! When a [`FaultPlan`] is configured the loop additionally injects
//! deterministic faults — SSM garbage/stalls, KV-arena pressure, slow
//! verifier passes, mid-stream cancellations, request bursts — and the
//! sessions' degradation ladders absorb them. All engine-level faults are
//! lossless under greedy decoding, so a chaos run's surviving outputs
//! match a fault-free run of the same seed token for token.

use parking_lot::Mutex;
use specinfer_model::Transformer;
use specinfer_sim::{
    ClusterSpec, LlmProfile, OffloadSpec, ParallelismPlan, StepWorkload, SystemProfile,
};
use specinfer_spec::{DegradationPolicy, EngineConfig, InferenceMode};
use specinfer_tokentree::{ExpansionConfig, TokenId};
use specinfer_workloads::trace::Trace;

use crate::driver::IterationDriver;
use crate::fault::FaultPlan;
use crate::metrics::ServeReport;
use crate::request::{Request, RequestId};
use crate::scheduler::QueuePolicy;

/// How simulated time is charged per iteration.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// The paper-scale LLM being modelled (e.g. LLaMA-7B).
    pub llm_profile: LlmProfile,
    /// The paper-scale SSM being modelled (e.g. LLaMA-68M).
    pub ssm_profile: LlmProfile,
    /// The cluster the modelled system runs on.
    pub cluster: ClusterSpec,
    /// How the LLM is sharded.
    pub plan: ParallelismPlan,
    /// Constant overheads of the serving system being emulated.
    pub system: SystemProfile,
    /// When set, the LLM runs in offloading mode on this device instead
    /// of resident in GPU memory (Figure 8).
    pub offload: Option<OffloadSpec>,
}

impl TimingConfig {
    /// LLaMA-7B on a single A10 under SpecInfer's runtime.
    pub fn llama_7b_single_gpu() -> Self {
        TimingConfig {
            llm_profile: LlmProfile::llama_7b(),
            ssm_profile: LlmProfile::llama_68m(),
            cluster: ClusterSpec::g5_single_gpu(),
            plan: ParallelismPlan::single(),
            system: SystemProfile::specinfer(),
            offload: None,
        }
    }

    /// Seconds one iteration costs, given the batch's measured shape.
    ///
    /// `mean_tree_size` is the mean number of *speculated* nodes per
    /// request this iteration (0 under incremental decoding);
    /// `mean_context` the mean KV-resident tokens per request.
    pub fn iteration_s(
        &self,
        mode: &InferenceMode,
        batch: usize,
        mean_tree_size: f64,
        mean_context: usize,
    ) -> f64 {
        let (spec_depth, verify_tokens) = match mode {
            InferenceMode::Incremental => (0usize, 1usize),
            InferenceMode::SequenceSpeculative { depth } => {
                (*depth, 1 + mean_tree_size.round() as usize)
            }
            InferenceMode::TreeSpeculative { expansion } => {
                (expansion.depth(), 1 + mean_tree_size.round() as usize)
            }
            InferenceMode::DynamicTree { config } => {
                // Best-first expansion runs one SSM pass per materialized
                // node; its critical path is bounded by the node budget.
                (config.max_nodes, 1 + mean_tree_size.round() as usize)
            }
            InferenceMode::Adaptive { .. } => {
                // The controller's ladder is depth-bounded by the paper's
                // default schedule; the measured mean tree size already
                // reflects whatever shapes it actually chose.
                let depth = ExpansionConfig::paper_default().depth();
                let spec_depth = if mean_tree_size > 0.0 { depth } else { 0 };
                (spec_depth, 1 + mean_tree_size.round() as usize)
            }
        };
        let verify_workload = StepWorkload {
            batch,
            tokens_per_request: verify_tokens.max(1),
            kernel_groups: 1,
            context_len: mean_context,
        };
        let verify_s = match &self.offload {
            Some(offload) => offload.decode_step_s(&self.llm_profile, &verify_workload),
            None => self
                .cluster
                .decode_step_s(&self.llm_profile, &self.plan, &verify_workload),
        };
        let spec_s = if spec_depth > 0 {
            let mean_width = (mean_tree_size / spec_depth as f64).max(1.0);
            self.cluster.ssm_speculation_s(
                &self.ssm_profile,
                spec_depth,
                batch,
                mean_width,
                mean_context,
            )
        } else {
            0.0
        };
        self.system.apply(verify_s + spec_s)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The decoding engine configuration shared by all requests
    /// (per-request `max_new_tokens` overrides the engine budget).
    pub engine: EngineConfig,
    /// Maximum concurrent requests per iteration.
    pub max_batch_size: usize,
    /// Simulated-clock timing.
    pub timing: TimingConfig,
    /// Base seed; request `i` decodes with `seed + i`.
    pub seed: u64,
    /// Deterministic fault schedule; `None` runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Per-session degradation ladder (fall back speculative →
    /// incremental under sustained rejection, re-probe after a cooldown).
    pub degradation: DegradationPolicy,
    /// Admission-queue capacity and retry/backoff behaviour.
    pub queue: QueuePolicy,
    /// Total KV-slab budget in rows shared by all live sessions, or
    /// `None` for unbudgeted admission (every session gets a
    /// full-`max_seq_len` slab and admission only counts slots). With a
    /// budget, each session's slab is right-sized to `prompt + max_new +`
    /// the worst case of `EngineConfig::pool_speculation_rows` for the
    /// server's SSM pool, and admission is the
    /// occupancy-maximizing first-fit scan
    /// ([`IterationScheduler::admit_budgeted`](crate::IterationScheduler::admit_budgeted)).
    pub slab_rows: Option<usize>,
}

#[derive(Default)]
struct Inbox {
    next_id: u64,
    /// Submitted since the last [`Server::run`], in submission order.
    requests: Vec<Request>,
}

impl Inbox {
    fn fresh_id(&mut self) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        id
    }
}

/// Trace replay: a thread-safe front door that collects submissions, and
/// [`Server::run`], which feeds them to the iteration driver (the same
/// loop [`ServerDaemon`](crate::ServerDaemon) runs live) and ticks it
/// until nothing is left.
///
/// # Example
///
/// ```no_run
/// use specinfer_model::{DecodeMode, ModelConfig, Transformer};
/// use specinfer_serving::{QueuePolicy, Server, ServerConfig, TimingConfig};
/// use specinfer_spec::{DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier};
/// use specinfer_tokentree::ExpansionConfig;
/// use specinfer_workloads::{trace::Trace, Dataset, Grammar};
///
/// let llm = Transformer::from_seed(ModelConfig::tiny_llm(), 1);
/// let ssm = Transformer::from_seed(ModelConfig::tiny_ssm(), 2);
/// let config = ServerConfig {
///     engine: EngineConfig {
///         decode: DecodeMode::Greedy,
///         verifier: StochasticVerifier::MultiStep,
///         mode: InferenceMode::TreeSpeculative {
///             expansion: ExpansionConfig::paper_default(),
///         },
///         max_new_tokens: 64,
///         eos_token: Some(1),
///     },
///     max_batch_size: 8,
///     timing: TimingConfig::llama_7b_single_gpu(),
///     seed: 0,
///     faults: None,
///     degradation: DegradationPolicy::serving_default(),
///     queue: QueuePolicy::unbounded(),
///     slab_rows: None,
/// };
/// let server = Server::new(&llm, vec![&ssm], config);
/// let grammar = Grammar::synthetic(256, 7);
/// let trace = Trace::closed_batch(&grammar, Dataset::Alpaca, 8, 12, 64, 3);
/// let report = server.serve_trace(&trace);
/// println!("per-token latency: {:.2} ms", report.mean_per_token_latency_s() * 1e3);
/// ```
pub struct Server<'m> {
    llm: &'m Transformer,
    ssms: Vec<&'m Transformer>,
    config: ServerConfig,
    inbox: Mutex<Inbox>,
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server(batch≤{})", self.config.max_batch_size)
    }
}

impl<'m> Server<'m> {
    /// Creates a server over shared models.
    pub fn new(llm: &'m Transformer, ssms: Vec<&'m Transformer>, config: ServerConfig) -> Self {
        Server {
            llm,
            ssms,
            config,
            inbox: Mutex::new(Inbox::default()),
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Submits a request for the next [`Server::run`] call. Thread-safe.
    pub fn submit(&self, prompt: Vec<TokenId>, max_new_tokens: usize, arrival_s: f64) -> RequestId {
        self.submit_with_deadline(prompt, max_new_tokens, arrival_s, None)
    }

    /// Submits a request with an optional absolute simulated-clock
    /// deadline; the request is shed (in queue or mid-stream) once the
    /// clock passes it. Thread-safe.
    pub fn submit_with_deadline(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        arrival_s: f64,
        deadline_s: Option<f64>,
    ) -> RequestId {
        let mut inbox = self.inbox.lock();
        let id = inbox.fresh_id();
        inbox.requests.push(Request {
            id,
            prompt,
            max_new_tokens,
            arrival_s,
            deadline_s,
            dataset: None,
        });
        id
    }

    /// Loads a whole trace (plus the fault plan's request burst, if one
    /// is configured) and runs it to completion.
    pub fn serve_trace(&self, trace: &Trace) -> ServeReport {
        {
            let mut inbox = self.inbox.lock();
            for r in &trace.requests {
                let id = inbox.fresh_id();
                inbox.requests.push(Request {
                    id,
                    prompt: r.prompt.tokens.clone(),
                    max_new_tokens: r.prompt.max_new_tokens,
                    arrival_s: r.arrival_s,
                    deadline_s: None,
                    dataset: Some(r.dataset),
                });
            }
            // Burst ids come after the trace's, so the per-request seeds
            // of the original requests are identical with and without the
            // overload.
            if let Some(plan) = &self.config.faults {
                let burst = plan.burst_requests(inbox.next_id);
                inbox.next_id += burst.len() as u64;
                inbox.requests.extend(burst);
            }
        }
        self.run()
    }

    /// Runs all submitted requests to completion on the simulated clock.
    pub fn run(&self) -> ServeReport {
        let requests = std::mem::take(&mut self.inbox.lock().requests);
        let mut driver = IterationDriver::new(self.llm, &self.ssms, &self.config);
        for request in requests {
            driver.submit(request, None);
        }
        while !driver.is_idle() {
            driver.tick();
        }
        driver.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestOutcome;
    use specinfer_model::{DecodeMode, ModelConfig};
    use specinfer_spec::StochasticVerifier;
    use specinfer_tokentree::ExpansionConfig;
    use specinfer_workloads::{Dataset, Grammar};

    fn models() -> (Transformer, Transformer) {
        (
            Transformer::from_seed(ModelConfig::smoke(), 1),
            Transformer::from_seed(
                ModelConfig {
                    d_model: 8,
                    n_heads: 2,
                    n_layers: 1,
                    d_ff: 16,
                    ..ModelConfig::smoke()
                },
                2,
            ),
        )
    }

    fn server_config(mode: InferenceMode, batch: usize) -> ServerConfig {
        ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode,
                max_new_tokens: 8,
                eos_token: None,
            },
            max_batch_size: batch,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed: 5,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows: None,
        }
    }

    #[test]
    fn serves_all_submitted_requests() {
        let (llm, ssm) = models();
        let server = Server::new(
            &llm,
            vec![&ssm],
            server_config(
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1]),
                },
                4,
            ),
        );
        for i in 0..6 {
            server.submit(vec![1, 2, (i % 4) + 3], 8, 0.0);
        }
        let report = server.run();
        assert_eq!(report.responses.len(), 6);
        for r in &report.responses {
            assert!(r.generated.len() >= 8);
            assert!(r.finish_s > 0.0);
            assert_eq!(r.outcome, RequestOutcome::Completed);
        }
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn continuous_batching_overlaps_requests() {
        let (llm, _) = models();
        // Incremental mode, batch limit 2, 4 requests: with continuous
        // batching all finish in ~2 waves of 8 iterations each.
        let server = Server::new(&llm, vec![], server_config(InferenceMode::Incremental, 2));
        for _ in 0..4 {
            server.submit(vec![1, 2, 3], 8, 0.0);
        }
        let report = server.run();
        assert_eq!(report.responses.len(), 4);
        // 4 requests × 8 tokens at batch ≤ 2 needs ≥ 16 iterations; naive
        // request-level scheduling with stragglers would need more than
        // continuous batching's exact 16.
        assert_eq!(report.iterations, 16);
    }

    #[test]
    fn respects_arrival_times_on_the_simulated_clock() {
        let (llm, _) = models();
        let server = Server::new(&llm, vec![], server_config(InferenceMode::Incremental, 4));
        server.submit(vec![1], 4, 0.0);
        server.submit(vec![2], 4, 1_000.0); // arrives long after the first finishes
        let report = server.run();
        assert_eq!(report.responses.len(), 2);
        let late = &report.responses[1];
        assert!(late.finish_s >= 1_000.0);
        assert!(
            late.latency_s() < 1.0,
            "late request should not inherit queue time"
        );
    }

    #[test]
    fn speculative_serving_beats_incremental_per_token_latency() {
        let (llm, _) = models();
        let g = Grammar::synthetic(256, 3);
        // Self-speculation (SSM = LLM) makes acceptance perfect; the
        // timing model must then show a large per-token win.
        let trace_args = (&g, Dataset::Alpaca, 2usize, 4usize, 12usize, 9u64);
        let trace = specinfer_workloads::trace::Trace::closed_batch(
            trace_args.0,
            trace_args.1,
            trace_args.2,
            trace_args.3,
            trace_args.4,
            trace_args.5,
        );
        // Tiny-vocab smoke models can't consume 256-vocab prompts; build
        // prompts within the smoke vocab instead.
        let mut trace = trace;
        for r in &mut trace.requests {
            for t in &mut r.prompt.tokens {
                *t %= 32;
            }
        }
        let inc_server = Server::new(&llm, vec![], server_config(InferenceMode::Incremental, 2));
        let inc = inc_server.serve_trace(&trace);
        let spec_server = Server::new(
            &llm,
            vec![&llm],
            server_config(InferenceMode::SequenceSpeculative { depth: 4 }, 2),
        );
        let spec = spec_server.serve_trace(&trace);
        assert!(
            spec.mean_per_token_latency_s() < inc.mean_per_token_latency_s() * 0.5,
            "spec {} vs inc {}",
            spec.mean_per_token_latency_s(),
            inc.mean_per_token_latency_s()
        );
    }

    #[test]
    fn iteration_log_is_consistent() {
        let (llm, ssm) = models();
        let server = Server::new(
            &llm,
            vec![&ssm],
            server_config(
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1]),
                },
                2,
            ),
        );
        for _ in 0..3 {
            server.submit(vec![1, 2, 3], 6, 0.0);
        }
        let report = server.run();
        assert_eq!(report.iteration_log.len(), report.iterations);
        let mut t = 0.0;
        let mut emitted = 0;
        for rec in &report.iteration_log {
            assert!(rec.start_s >= t - 1e-12, "records must be ordered");
            assert!(rec.duration_s > 0.0);
            assert!(rec.batch >= 1 && rec.batch <= 2);
            t = rec.start_s + rec.duration_s;
            emitted += rec.emitted;
        }
        assert!((t - report.makespan_s).abs() < 1e-9);
        assert_eq!(emitted, report.total_generated());
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let (llm, _) = models();
        let server = Server::new(&llm, vec![], server_config(InferenceMode::Incremental, 4));
        let a = server.submit(vec![1], 2, 0.0);
        let b = server.submit(vec![1], 2, 0.0);
        assert_ne!(a, b);
        let report = server.run();
        assert_eq!(report.responses[0].id, a);
        assert_eq!(report.responses[1].id, b);
    }

    #[test]
    fn deadline_is_enforced_in_queue_and_midstream() {
        let (llm, _) = models();
        // Batch 1 so the second request queues behind the first.
        let server = Server::new(&llm, vec![], server_config(InferenceMode::Incremental, 1));
        server.submit(vec![1, 2], 64, 0.0);
        // Queued with a deadline that passes while request 0 decodes.
        server.submit_with_deadline(vec![3, 4], 8, 0.0, Some(1e-6));
        // Admitted later with a deadline mid-generation.
        server.submit_with_deadline(vec![5, 6], 400, 0.0, Some(1e9));
        let report = server.run();
        assert_eq!(report.responses.len(), 3);
        assert_eq!(report.responses[0].outcome, RequestOutcome::Completed);
        let queued = &report.responses[1];
        assert_eq!(queued.outcome, RequestOutcome::DeadlineMissed);
        assert!(queued.generated.is_empty(), "shed before decoding");
        assert_eq!(report.faults.deadline_misses, 1);
    }

    #[test]
    fn fault_injection_is_lossless_under_greedy_decoding() {
        let (llm, ssm) = models();
        let config = server_config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2]),
            },
            4,
        );
        let clean_server = Server::new(&llm, vec![&ssm], config.clone());
        for i in 0..4 {
            clean_server.submit(vec![1, 2, (i % 4) + 3], 10, 0.0);
        }
        let clean = clean_server.run();

        let mut chaotic = config;
        chaotic.faults = Some(FaultPlan::new(
            42,
            crate::fault::FaultSpec {
                ssm_garbage_rate: 0.5,
                ssm_stall_rate: 0.2,
                kv_oom_rate: 0.1,
                verifier_slowdown_rate: 0.3,
                verifier_slowdown_factor: 5.0,
                ..crate::fault::FaultSpec::none()
            },
        ));
        let chaos_server = Server::new(&llm, vec![&ssm], chaotic);
        for i in 0..4 {
            chaos_server.submit(vec![1, 2, (i % 4) + 3], 10, 0.0);
        }
        let chaos = chaos_server.run();

        assert!(chaos.faults.injected > 0, "the plan must actually fire");
        for (c, f) in clean.responses.iter().zip(&chaos.responses) {
            assert_eq!(c.id, f.id);
            assert_eq!(
                c.generated, f.generated,
                "faults must never change greedy output"
            );
        }
        // Slowdowns and stalls cost time, never tokens.
        assert!(chaos.makespan_s >= clean.makespan_s);
    }

    #[test]
    fn backpressure_counters_surface_in_the_report() {
        let (llm, _) = models();
        let mut config = server_config(InferenceMode::Incremental, 1);
        config.queue = QueuePolicy {
            capacity: 1,
            max_retries: 2,
            backoff_s: 0.01,
        };
        let server = Server::new(&llm, vec![], config);
        for i in 0..4 {
            server.submit(vec![1, (i % 4) + 2], 4, 0.0);
        }
        let report = server.run();
        assert!(report.faults.retries > 0, "deferred submissions must retry");
        // Every request leaves the system exactly once.
        assert_eq!(report.responses.len(), 4);
        let rejected = report
            .responses
            .iter()
            .filter(|r| r.outcome == RequestOutcome::Cancelled)
            .count();
        assert_eq!(rejected, report.faults.rejected);
    }
}
