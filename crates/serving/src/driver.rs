//! The request-manager loop of Figure 6 — the one place a serving
//! iteration is written.
//!
//! [`IterationDriver`] owns the admission queue, the live set, the
//! batched verifier, the simulated clock and every counter of a run. One
//! [`tick`](IterationDriver::tick) is one iteration of §5's loop: shed
//! expired queue entries, admit arrivals into the free slots, pick this
//! iteration's faults, verify the whole live set in one
//! [`BatchedVerifier::step_batch_counted`] call, charge the simulated
//! clock what the paper-scale models would have cost, and retire what
//! finished. The two front-ends differ only in *who calls `submit`*:
//! [`Server`](crate::Server) feeds a whole trace and ticks until idle;
//! [`ServerDaemon`](crate::ServerDaemon) pumps a channel between ticks.

use std::collections::HashMap;

use crossbeam::channel::Sender;
use specinfer_model::Transformer;
use specinfer_spec::{
    BatchItem, BatchRowStats, BatchedVerifier, ControllerSnapshot, EngineConfig, Session,
    SpeculationRows, StepStats,
};
use specinfer_tokentree::TokenId;

use crate::clock::Stopwatch;
use crate::metrics::{FaultCounters, IterationRecord, OccupancyStats, ServeReport};
use crate::request::{Request, RequestId, RequestOutcome, Response};
use crate::scheduler::IterationScheduler;
use crate::server::ServerConfig;

/// An admitted request: its session plus what retirement needs.
struct Live {
    request: Request,
    engine: EngineConfig,
    session: Session,
    /// The submitter's ticket, when there is one (trace replay has none).
    reply: Option<Sender<Response>>,
    /// Fault-plan cancellation threshold (generated tokens), if any.
    cancel_at: Option<usize>,
}

pub(crate) struct IterationDriver<'m> {
    llm: &'m Transformer,
    ssms: &'m [&'m Transformer],
    config: &'m ServerConfig,
    verifier: BatchedVerifier,
    scheduler: IterationScheduler,
    /// Tickets of submissions still in the scheduler's queue.
    waiting: HashMap<u64, Sender<Response>>,
    live: Vec<Live>,
    clock: f64,
    wall: Stopwatch,
    responses: Vec<Response>,
    iteration_log: Vec<IterationRecord>,
    batch_fill_sum: f64,
    slab_fill_sum: f64,
    peak_batch: usize,
    faults: FaultCounters,
    controller: ControllerSnapshot,
    verify_rows: BatchRowStats,
    /// Speculation rows of one iteration over this SSM pool. A slab is
    /// sized for the worst case, so a session can draft any shape of its
    /// plan without overflowing its right-sized KV slab; admission
    /// *charges* a fresh request its first iteration only, because
    /// charging the worst case would leave paid-for batch slots empty.
    spec_rows: SpeculationRows,
}

impl<'m> IterationDriver<'m> {
    pub(crate) fn new(
        llm: &'m Transformer,
        ssms: &'m [&'m Transformer],
        config: &'m ServerConfig,
    ) -> Self {
        IterationDriver {
            llm,
            ssms,
            config,
            verifier: BatchedVerifier::new(),
            scheduler: IterationScheduler::with_policy(config.max_batch_size, config.queue.clone()),
            waiting: HashMap::new(),
            live: Vec::new(),
            clock: 0.0,
            wall: Stopwatch::start(),
            responses: Vec::new(),
            iteration_log: Vec::new(),
            batch_fill_sum: 0.0,
            slab_fill_sum: 0.0,
            peak_batch: 0,
            faults: FaultCounters::default(),
            controller: ControllerSnapshot::default(),
            verify_rows: BatchRowStats::default(),
            spec_rows: config.engine.pool_speculation_rows(ssms.len()),
        }
    }

    /// The simulated clock, seconds.
    pub(crate) fn clock(&self) -> f64 {
        self.clock
    }

    /// Neither live nor queued work: another `tick` would do nothing.
    pub(crate) fn is_idle(&self) -> bool {
        self.live.is_empty() && !self.scheduler.has_pending()
    }

    /// Queues a request; `reply` (if any) is answered when it leaves the
    /// system, however it leaves.
    pub(crate) fn submit(&mut self, request: Request, reply: Option<Sender<Response>>) {
        if let Some(reply) = reply {
            self.waiting.insert(request.id.0, reply);
        }
        self.scheduler.submit(request);
    }

    /// Cuts a request now, queued or mid-stream; its ticket resolves as
    /// [`RequestOutcome::Cancelled`] with whatever was generated. A
    /// queued request gives its queue slot back immediately, so it can
    /// never push a later submission into backoff. Unknown ids are a
    /// no-op.
    pub(crate) fn cancel(&mut self, id: RequestId) {
        if let Some(i) = self.live.iter().position(|r| r.request.id == id) {
            self.faults.cancellations += 1;
            self.retire(i, RequestOutcome::Cancelled);
        } else if let Some(request) = self.scheduler.cancel(id) {
            self.faults.cancellations += 1;
            self.answer_unserved(request, RequestOutcome::Cancelled);
        }
    }

    /// One iteration: expire → admit → fault pick → batched step → clock
    /// charge → retire. With nothing live after admission, fast-forwards
    /// the simulated clock to the next arrival (or deferred retry) instead
    /// — the starvation guard in the scheduler ensures that makes
    /// progress.
    pub(crate) fn tick(&mut self) {
        self.admit();
        if self.live.is_empty() {
            if let Some(next) = self.scheduler.next_arrival_s() {
                self.clock = self.clock.max(next);
            }
            return;
        }
        self.step();
        // Retire finished, plan-cancelled and expired requests; the freed
        // slots and slab rows are re-filled by the next tick's admission.
        let mut i = 0;
        while let Some(r) = self.live.get(i) {
            let outcome = if r.session.is_finished() {
                RequestOutcome::Completed
            } else if r
                .cancel_at
                .is_some_and(|n| r.session.generated().len() >= n)
            {
                self.faults.cancellations += 1;
                RequestOutcome::Cancelled
            } else if r.request.deadline_missed(self.clock) {
                self.faults.deadline_misses += 1;
                RequestOutcome::DeadlineMissed
            } else {
                i += 1;
                continue;
            };
            self.retire(i, outcome);
        }
    }

    /// The join half of the ragged lifecycle: shed expired queue entries,
    /// then admit as many arrivals as fit the free slots (and, under a
    /// slab budget, the free KV rows — the occupancy-maximizing first-fit
    /// scan).
    fn admit(&mut self) {
        for request in self.scheduler.expire(self.clock) {
            self.faults.deadline_misses += 1;
            self.answer_unserved(request, RequestOutcome::DeadlineMissed);
        }
        let max_ctx = self.llm.config().max_seq_len;
        let admitted = match self.config.slab_rows {
            Some(budget) => {
                // Live requests whose shape adapts are charged their
                // *current* one (committed rows + this iteration's
                // speculation rows) rather than their whole worst-case
                // slab: parked/low-rung requests free real admission
                // headroom. A fixed shape appends the same rows every
                // iteration, so its full slab stays charged.
                let spec_rows = self.spec_rows;
                let used: usize = self
                    .live
                    .iter()
                    .map(|a| match spec_rows.adapts {
                        true => (a.session.kv_rows()
                            + a.session.current_speculation_rows(&a.engine))
                        .min(a.session.kv_capacity()),
                        false => a.session.kv_capacity(),
                    })
                    .sum();
                self.scheduler.admit_budgeted(
                    self.clock,
                    self.live.len(),
                    budget.saturating_sub(used),
                    |r| (r.kv_rows() + spec_rows.next_iteration).min(max_ctx),
                )
            }
            None => self.scheduler.admit(self.clock, self.live.len()),
        };
        for request in admitted {
            let mut engine = self.config.engine.clone();
            engine.max_new_tokens = request.max_new_tokens;
            let kv_rows = match self.config.slab_rows {
                Some(_) => (request.kv_rows() + self.spec_rows.worst_case).min(max_ctx),
                None => usize::MAX,
            };
            // An invalid prompt rejects this one request; it must never
            // tear down the loop the rest of the batch is running on.
            match Session::try_new_budgeted(
                self.llm,
                self.ssms,
                &request.prompt,
                self.config.seed.wrapping_add(request.id.0),
                kv_rows,
            ) {
                Ok(mut session) => {
                    session.set_degradation_policy(self.config.degradation);
                    let plan = self.config.faults.as_ref();
                    self.live.push(Live {
                        reply: self.waiting.remove(&request.id.0),
                        cancel_at: plan.and_then(|p| p.cancel_after(request.id)),
                        request,
                        engine,
                        session,
                    });
                }
                Err(_) => {
                    self.faults.invalid += 1;
                    self.answer_unserved(request, RequestOutcome::Rejected);
                }
            }
        }
        // Backpressure drops (retries exhausted) leave as cancelled stubs.
        for request in self.scheduler.take_rejected() {
            self.answer_unserved(request, RequestOutcome::Cancelled);
        }
    }

    /// One ragged decoding iteration over whatever is live right now
    /// (admission caps `live` at the batch limit). All non-faulted
    /// sessions are verified by the LLM in a single batched tree-parallel
    /// forward; a stalled/OOM request drops out to the serial incremental
    /// path without touching batch-mates. Then the simulated clock is
    /// charged and the iteration logged.
    fn step(&mut self) {
        let plan = self.config.faults.as_ref();
        let batch = self.live.len();
        let mut items: Vec<BatchItem<'_>> = Vec::with_capacity(batch);
        for r in self.live.iter_mut() {
            // The plan indexes a request's faults by its own step count.
            let fault = plan
                .and_then(|p| p.step_fault(r.request.id, r.session.steps().len()))
                .unwrap_or_default();
            self.faults.ssm_garbage += usize::from(fault.ssm_garbage.is_some());
            self.faults.ssm_stalls += usize::from(fault.ssm_stall);
            self.faults.kv_ooms += usize::from(fault.kv_oom);
            self.faults.injected += usize::from(fault.ssm_garbage.is_some())
                + usize::from(fault.ssm_stall)
                + usize::from(fault.kv_oom);
            items.push(BatchItem {
                session: &mut r.session,
                config: &r.engine,
                fault,
            });
        }
        let (stats, rows) = self
            .verifier
            .step_batch_counted(self.llm, self.ssms, &mut items);
        drop(items);
        self.verify_rows.absorb(&rows);

        // `None` marks a session that was already finished.
        let stepped = || stats.iter().flatten();
        let mean_tree = stepped().map(|s| s.tree_size as f64).sum::<f64>() / batch as f64;
        let mean_ctx = self
            .live
            .iter()
            .map(|r| r.session.tokens().len())
            .sum::<usize>()
            / batch;
        let mut dt =
            self.config
                .timing
                .iteration_s(&self.config.engine.mode, batch, mean_tree, mean_ctx);
        if let Some(factor) = plan.and_then(|p| p.verifier_slowdown(self.iteration_log.len())) {
            self.faults.slowdowns += 1;
            self.faults.injected += 1;
            dt *= factor;
        }
        self.iteration_log.push(IterationRecord {
            start_s: self.clock,
            duration_s: dt,
            batch,
            mean_tree_size: mean_tree,
            emitted: stepped().map(|s| s.emitted).sum(),
        });
        self.batch_fill_sum += batch as f64 / self.config.max_batch_size as f64;
        let cap: usize = self.live.iter().map(|r| r.session.kv_capacity()).sum();
        if cap > 0 {
            let rows: usize = self.live.iter().map(|r| r.session.kv_rows()).sum();
            self.slab_fill_sum += rows as f64 / cap as f64;
        }
        self.peak_batch = self.peak_batch.max(batch);
        self.clock += dt;
    }

    /// Takes `live[index]` out of the batch and answers it with whatever
    /// it generated.
    fn retire(&mut self, index: usize, outcome: RequestOutcome) {
        let done = self.live.swap_remove(index);
        let d = done.session.degradation();
        self.faults.fallbacks_taken += d.fallbacks_taken;
        self.faults.fallback_steps += d.fallback_steps;
        self.faults.reprobes += d.reprobes;
        if let Some(snap) = done.session.controller_snapshot() {
            self.controller.absorb(&snap);
        }
        let result = done.session.into_result();
        let generated = result.generated().to_vec();
        self.answer(&done.request, generated, result.steps, outcome, done.reply);
    }

    /// Answers a request that never decoded (shed in queue, dropped by
    /// backpressure, cancelled while queued, or invalid) with an empty
    /// response.
    fn answer_unserved(&mut self, request: Request, outcome: RequestOutcome) {
        let reply = self.waiting.remove(&request.id.0);
        self.answer(&request, Vec::new(), Vec::new(), outcome, reply);
    }

    fn answer(
        &mut self,
        request: &Request,
        generated: Vec<TokenId>,
        steps: Vec<StepStats>,
        outcome: RequestOutcome,
        reply: Option<Sender<Response>>,
    ) {
        let response = Response {
            id: request.id,
            dataset: request.dataset,
            prompt_len: request.prompt.len(),
            generated,
            arrival_s: request.arrival_s,
            finish_s: self.clock,
            steps,
            outcome,
        };
        if let Some(reply) = reply {
            let _ = reply.send(response.clone());
        }
        self.responses.push(response);
    }

    /// Ends the run and assembles its report.
    pub(crate) fn into_report(mut self) -> ServeReport {
        let queue = self.scheduler.stats();
        self.faults.retries = queue.retries;
        self.faults.rejected = queue.rejected;
        self.responses.sort_by_key(|r| r.id);
        let iterations = self.iteration_log.len();
        let denom = iterations.max(1) as f64;
        ServeReport {
            responses: self.responses,
            makespan_s: self.clock,
            iterations,
            iteration_log: self.iteration_log,
            occupancy: OccupancyStats {
                mean_batch_fill: self.batch_fill_sum / denom,
                mean_slab_fill: self.slab_fill_sum / denom,
                peak_batch: self.peak_batch,
            },
            faults: self.faults,
            wall_s: self.wall.elapsed_s(),
            controller: self.controller,
            verify_rows: self.verify_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::QueuePolicy;
    use crate::server::TimingConfig;
    use crossbeam::channel::bounded;
    use specinfer_model::{DecodeMode, ModelConfig};
    use specinfer_spec::{DegradationPolicy, InferenceMode, StochasticVerifier};

    fn request(id: u64) -> Request {
        Request {
            id: RequestId(id),
            prompt: vec![1, 2, 3],
            max_new_tokens: 4,
            arrival_s: 0.0,
            deadline_s: None,
            dataset: None,
        }
    }

    /// Regression: a cancelled queued request used to keep its slot in
    /// the bounded queue until it reached admission, pushing the next
    /// live submission into backoff.
    #[test]
    fn cancelling_a_queued_request_frees_its_slot_and_answers_its_ticket() {
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let config = ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode: InferenceMode::Incremental,
                max_new_tokens: 4,
                eos_token: None,
            },
            max_batch_size: 1,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed: 3,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::bounded(1),
            slab_rows: None,
        };
        let mut driver = IterationDriver::new(&llm, &[], &config);
        let (tx, cancelled_rx) = bounded(1);
        driver.submit(request(0), Some(tx));
        driver.cancel(RequestId(0));
        let cut = cancelled_rx.try_recv().expect("answered at cancel time");
        assert_eq!(cut.outcome, RequestOutcome::Cancelled);
        assert!(cut.generated.is_empty());

        // The capacity-1 queue is empty again: the next submission queues
        // instead of deferring.
        let (tx, served_rx) = bounded(1);
        driver.submit(request(1), Some(tx));
        while !driver.is_idle() {
            driver.tick();
        }
        let served = served_rx.try_recv().expect("answered at retirement");
        assert_eq!(served.outcome, RequestOutcome::Completed);
        let report = driver.into_report();
        assert_eq!(report.responses.len(), 2);
        assert_eq!(report.faults.cancellations, 1);
        assert_eq!(report.faults.retries, 0, "nothing was pushed into backoff");
        assert_eq!(report.faults.rejected, 0);
    }
}
