//! The request-manager loop of Figure 6 — the one place a serving
//! iteration is written.
//!
//! [`IterationDriver`] owns the admission queue, the live set, the
//! batched verifier and every counter of a run, but no clock: time is an
//! input. One [`tick`](IterationDriver::tick) is one iteration of §5's
//! loop at the time its caller gives: shed expired queue entries, admit
//! arrivals into the free slots, pick this iteration's faults, verify
//! the whole live set in one [`BatchedVerifier::step_batch_counted`]
//! call, ask the caller how long that took, and retire what finished by
//! then. The two front-ends differ in who calls `submit` and in whose
//! time they pass: [`Server`](crate::Server) feeds a trace on its
//! simulated clock and prices each step with the cost model;
//! [`ServerDaemon`](crate::ServerDaemon) pumps a channel between ticks
//! and reads its stopwatch.

use std::collections::HashMap;

use crossbeam::channel::Sender;
use specinfer_model::Transformer;
use specinfer_spec::{
    BatchItem, BatchRowStats, BatchedVerifier, ControllerSnapshot, EngineConfig, Session, StepStats,
};
use specinfer_tokentree::TokenId;

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
    responses: Vec<Response>,
    iteration_log: Vec<IterationRecord>,
    faults: FaultCounters,
    controller: ControllerSnapshot,
    /// Speculation rows of one iteration over this SSM pool: what a
    /// right-sized slab reserves on top of `prompt + max_new`.
    spec_rows: usize,
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
            responses: Vec::new(),
            iteration_log: Vec::new(),
            faults: FaultCounters::default(),
            controller: ControllerSnapshot::default(),
            spec_rows: config.engine.pool_speculation_rows(ssms.len()),
        }
    }

    /// Neither live nor queued work: another `tick` would do nothing.
    pub(crate) fn is_idle(&self) -> bool {
        self.live.is_empty() && !self.scheduler.has_pending()
    }

    /// Queues a request; `reply` (if any) is answered when it leaves the
    /// system, however it leaves. A bounded queue that is full refuses it
    /// here: it is answered [`RequestOutcome::Rejected`], stamped at its
    /// own arrival.
    pub(crate) fn submit(&mut self, request: Request, reply: Option<Sender<Response>>) {
        if let Some(reply) = reply {
            self.waiting.insert(request.id.0, reply);
        }
        if let Some(refused) = self.scheduler.submit(request) {
            self.faults.rejected += 1;
            let at = refused.arrival_s;
            self.answer_unserved(refused, RequestOutcome::Rejected, at);
        }
    }

    /// Cuts a request at time `now`, queued or mid-stream; its ticket
    /// resolves as [`RequestOutcome::Cancelled`] with whatever was
    /// generated. A queued request gives its queue slot back immediately.
    /// Unknown ids are a no-op.
    pub(crate) fn cancel(&mut self, id: RequestId, now: f64) {
        if let Some(i) = self.live.iter().position(|r| r.request.id == id) {
            self.faults.cancellations += 1;
            self.retire(i, RequestOutcome::Cancelled, now);
        } else if let Some(request) = self.scheduler.cancel(id) {
            self.faults.cancellations += 1;
            self.answer_unserved(request, RequestOutcome::Cancelled, now);
        }
    }

    /// One iteration starting at `now`: expire → admit → fault pick →
    /// batched step → retire. `duration_s` is told the step's record
    /// (its times not yet stamped) and returns the seconds it took; the
    /// iteration ends at `now` plus that, and what finished, was cut or
    /// overran its deadline by then retires in this same tick. Returns
    /// that end, or `None` when nothing was live to step.
    pub(crate) fn tick(
        &mut self,
        now: f64,
        duration_s: impl FnOnce(&IterationRecord) -> f64,
    ) -> Option<f64> {
        self.admit(now);
        if self.live.is_empty() {
            return None;
        }
        let mut record = self.step();
        // `now + duration` rather than an end time from the caller: the
        // replay clock has always advanced by adding each priced step.
        record.start_s = now;
        record.duration_s = duration_s(&record);
        let end = now + record.duration_s;
        self.iteration_log.push(record);
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
            } else if r.request.deadline_missed(end) {
                self.faults.deadline_misses += 1;
                RequestOutcome::DeadlineMissed
            } else {
                i += 1;
                continue;
            };
            self.retire(i, outcome, end);
        }
        Some(end)
    }

    /// The join half of the ragged lifecycle: shed expired queue entries,
    /// then admit as many arrivals as fit the free slots (and, under a
    /// slab budget, the free KV rows — the occupancy-maximizing first-fit
    /// scan).
    fn admit(&mut self, now: f64) {
        for request in self.scheduler.expire(now) {
            self.faults.deadline_misses += 1;
            self.answer_unserved(request, RequestOutcome::DeadlineMissed, now);
        }
        // A right-sized slab: what admission charges a request and what
        // its session allocates up front.
        let (spec_rows, max_ctx) = (self.spec_rows, self.llm.config().max_seq_len);
        let slab = |r: &Request| r.kv_rows().saturating_add(spec_rows).min(max_ctx);
        let admitted = match self.config.slab_rows {
            Some(budget) => {
                // Every live session is charged the slab it holds.
                let used: usize = self.live.iter().map(|a| a.session.kv_capacity()).sum();
                self.scheduler.admit_budgeted(
                    now,
                    self.live.len(),
                    budget.saturating_sub(used),
                    slab,
                )
            }
            None => self.scheduler.admit(now, self.live.len()),
        };
        for request in admitted {
            let mut engine = self.config.engine.clone();
            engine.max_new_tokens = request.max_new_tokens;
            let kv_rows = match self.config.slab_rows {
                Some(_) => slab(&request),
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
                Ok(session) => {
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
                    self.answer_unserved(request, RequestOutcome::Rejected, now);
                }
            }
        }
    }

    /// One ragged decoding iteration over whatever is live right now
    /// (admission caps `live` at the batch limit). Every live session is
    /// verified by the LLM in one batched tree-parallel forward: a
    /// session admitted this tick carries its prompt ahead of its first
    /// tree, and a stalled/OOM request joins with its root alone, without
    /// touching batch-mates. Returns the step's record, its times zero.
    fn step(&mut self) -> IterationRecord {
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

        // `None` marks a session that was already finished.
        let stepped = || stats.iter().flatten();
        let mean_tree_size = stepped().map(|s| s.tree_size as f64).sum::<f64>() / batch as f64;
        let emitted = stepped().map(|s| s.emitted).sum();
        let sum = |f: fn(&Live) -> usize| self.live.iter().map(f).sum();
        IterationRecord {
            start_s: 0.0,
            duration_s: 0.0,
            batch,
            mean_tree_size,
            mean_context: sum(|r| r.session.tokens().len()) / batch,
            emitted,
            kv_rows: sum(|r| r.session.kv_rows()),
            slab_capacity: sum(|r| r.session.kv_capacity()),
            verify_rows: rows,
        }
    }

    /// Takes `live[index]` out of the batch and answers it at `at` with
    /// whatever it generated.
    fn retire(&mut self, index: usize, outcome: RequestOutcome, at: f64) {
        let done = self.live.swap_remove(index);
        if let Some(snap) = done.session.controller_snapshot() {
            self.controller.absorb(&snap);
        }
        let result = done.session.into_result();
        let generated = result.generated().to_vec();
        self.answer(
            &done.request,
            generated,
            result.steps,
            outcome,
            done.reply,
            at,
        );
    }

    /// Answers a request that never decoded (refused at the door, shed
    /// in queue, cancelled while queued, or invalid) with an empty
    /// response.
    fn answer_unserved(&mut self, request: Request, outcome: RequestOutcome, at: f64) {
        let reply = self.waiting.remove(&request.id.0);
        self.answer(&request, Vec::new(), Vec::new(), outcome, reply, at);
    }

    fn answer(
        &mut self,
        request: &Request,
        generated: Vec<TokenId>,
        steps: Vec<StepStats>,
        outcome: RequestOutcome,
        reply: Option<Sender<Response>>,
        finish_s: f64,
    ) {
        let response = Response {
            id: request.id,
            dataset: request.dataset,
            prompt_len: request.prompt.len(),
            generated,
            arrival_s: request.arrival_s,
            finish_s,
            steps,
            outcome,
        };
        if let Some(reply) = reply {
            let _ = reply.send(response.clone());
        }
        self.responses.push(response);
    }

    /// Ends the run and assembles its report; `wall_s` is the real time
    /// the caller measured. The makespan is the last time the run
    /// stamped: its latest answer or iteration end.
    pub(crate) fn into_report(mut self, wall_s: f64) -> ServeReport {
        self.responses.sort_by_key(|r| r.id);
        let ends = self.iteration_log.iter().map(|i| i.start_s + i.duration_s);
        let finishes = self.responses.iter().map(|r| r.finish_s);
        let makespan_s = finishes.chain(ends).fold(0.0, f64::max);
        let iterations = self.iteration_log.len();
        let denom = iterations.max(1) as f64;
        // Folds in log order from +0.0: `.sum()` would start at -0.0.
        let max_batch = self.config.max_batch_size as f64;
        let batches = self.iteration_log.iter().map(|i| i.batch);
        let batch_fill_sum = batches.clone().fold(0.0, |s, b| s + b as f64 / max_batch);
        let peak_batch = batches.fold(0, usize::max);
        let slabs = self.iteration_log.iter().filter(|i| i.slab_capacity > 0);
        let slab_fill_sum = slabs.fold(0.0, |s, i| s + i.kv_rows as f64 / i.slab_capacity as f64);
        let verify_rows = self
            .iteration_log
            .iter()
            .fold(BatchRowStats::default(), |mut v, i| {
                v.absorb(&i.verify_rows);
                v
            });
        ServeReport {
            responses: self.responses,
            makespan_s,
            iterations,
            iteration_log: self.iteration_log,
            occupancy: OccupancyStats {
                mean_batch_fill: batch_fill_sum / denom,
                mean_slab_fill: slab_fill_sum / denom,
                peak_batch,
            },
            faults: self.faults,
            wall_s,
            controller: self.controller,
            verify_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::QueuePolicy;
    use crate::server::tests::server_config;
    use crossbeam::channel::{bounded, Receiver};
    use specinfer_model::ModelConfig;
    use specinfer_spec::{AdaptiveConfig, InferenceMode};

    /// The scripted length of every iteration, seconds.
    const STEP: f64 = 0.01;

    fn config(queue: QueuePolicy, slab_rows: Option<usize>) -> ServerConfig {
        ServerConfig {
            seed: 3,
            queue,
            slab_rows,
            ..server_config(InferenceMode::Incremental, 1)
        }
    }

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

    /// One tick at `now` whose step, if any, takes [`STEP`]; moves `now`
    /// to the iteration's end.
    fn tick(driver: &mut IterationDriver<'_>, now: &mut f64) {
        if let Some(end) = driver.tick(*now, |_| STEP) {
            *now = end;
        }
    }

    fn drain(driver: &mut IterationDriver<'_>, now: &mut f64) {
        while !driver.is_idle() {
            tick(driver, now);
        }
    }

    /// Regression: a cancelled queued request used to keep its slot in
    /// the bounded queue until it reached admission, pushing the next
    /// live submission out.
    #[test]
    fn cancelling_a_queued_request_frees_its_slot_and_answers_its_ticket() {
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let config = config(QueuePolicy::bounded(1), None);
        let mut driver = IterationDriver::new(&llm, &[], &config);
        let (tx, cancelled_rx) = bounded(1);
        driver.submit(request(0), Some(tx));
        driver.cancel(RequestId(0), 0.0);
        let cut = cancelled_rx.try_recv().expect("answered at cancel time");
        assert_eq!(cut.outcome, RequestOutcome::Cancelled);
        assert!(cut.generated.is_empty());

        // The capacity-1 queue is empty again: the next submission queues
        // instead of being refused.
        let (tx, served_rx) = bounded(1);
        driver.submit(request(1), Some(tx));
        drain(&mut driver, &mut 0.0);
        let served = served_rx.try_recv().expect("answered at retirement");
        assert_eq!(served.outcome, RequestOutcome::Completed);
        let report = driver.into_report(0.0);
        assert_eq!(report.responses.len(), 2);
        assert_eq!(report.faults.cancellations, 1);
        assert_eq!(report.faults.rejected, 0, "nothing was refused");
    }

    /// Under a slab budget the live sessions never hold more rows than
    /// the budget, adaptive ones included, unless one session runs alone
    /// (the scheduler's starvation guard). Admission used to charge a
    /// fresh adaptive request its first iteration's rows while its
    /// session allocated a slab for the largest shape it might draft.
    #[test]
    fn live_slabs_fit_the_slab_budget() {
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let ssm = ModelConfig {
            d_model: 8,
            n_layers: 1,
            d_ff: 16,
            ..ModelConfig::smoke()
        };
        let pool: Vec<Transformer> = (2..5)
            .map(|seed| Transformer::from_seed(ssm.clone(), seed))
            .collect();
        let ssms: Vec<&Transformer> = pool.iter().collect();
        let budget = 64;
        let mut config = config(QueuePolicy::unbounded(), Some(budget));
        config.engine.mode = InferenceMode::Adaptive {
            config: AdaptiveConfig::default(),
        };
        config.max_batch_size = 8;
        let mut driver = IterationDriver::new(&llm, &ssms, &config);
        for id in 0..12 {
            let request = Request {
                max_new_tokens: 8,
                ..request(id)
            };
            driver.submit(request, None);
        }
        let mut now = 0.0;
        while !driver.is_idle() {
            tick(&mut driver, &mut now);
            let held: usize = driver.live.iter().map(|r| r.session.kv_capacity()).sum();
            let live = driver.live.len();
            assert!(
                live == 1 || held <= budget,
                "{live} sessions hold {held} rows"
            );
        }
        assert_eq!(driver.into_report(0.0).completed_len(), 12);
    }

    /// With the times scripted, a short-budget request queued behind a
    /// long one is shed at the first tick that starts past its deadline:
    /// within one iteration of it, before it ever decodes.
    #[test]
    fn a_queued_request_is_shed_within_one_iteration_of_its_deadline() {
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let config = config(QueuePolicy::unbounded(), None);
        let mut driver = IterationDriver::new(&llm, &[], &config);
        let long = Request {
            max_new_tokens: 40,
            ..request(0)
        };
        let deadline = 3.5 * STEP;
        let short = Request {
            deadline_s: Some(deadline),
            ..request(1)
        };
        let (long_tx, long_rx) = bounded(1);
        let (short_tx, short_rx) = bounded(1);
        driver.submit(long, Some(long_tx));
        driver.submit(short, Some(short_tx));
        let mut now = 0.0;
        while short_rx.is_empty() {
            assert!(now < deadline + STEP, "still queued at {now} s");
            tick(&mut driver, &mut now);
        }
        let shed = short_rx.try_recv().expect("answered");
        assert_eq!(shed.outcome, RequestOutcome::DeadlineMissed);
        assert!(shed.steps.is_empty(), "shed before it decoded");
        assert!(
            (deadline..deadline + STEP).contains(&shed.finish_s),
            "shed at {} s",
            shed.finish_s
        );
        drain(&mut driver, &mut now);
        let served = long_rx.try_recv().expect("answered");
        assert_eq!(served.outcome, RequestOutcome::Completed);
        assert_eq!(served.generated.len(), 40);
    }

    /// A flood into a queue of capacity `CAP`: every tick brings more
    /// submissions than one slot can drain, yet the queue never holds
    /// more than `CAP` of them, and every overflow is answered
    /// `Rejected` (stamped at its arrival) by the next tick.
    #[test]
    fn a_bounded_queue_stays_bounded_under_a_flood() {
        const CAP: usize = 3;
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let config = config(QueuePolicy::bounded(CAP), None);
        let mut driver = IterationDriver::new(&llm, &[], &config);
        let mut open: Vec<Receiver<Response>> = Vec::new();
        let (mut now, mut next, mut refused) = (0.0, 0u64, 0);
        for _ in 0..50 {
            for _ in 0..4 {
                let (tx, rx) = bounded(1);
                let request = Request {
                    max_new_tokens: 2,
                    arrival_s: now,
                    ..request(next)
                };
                next += 1;
                driver.submit(request, Some(tx));
                open.push(rx);
            }
            tick(&mut driver, &mut now);
            open.retain(|rx| {
                let Ok(r) = rx.try_recv() else { return true };
                if r.outcome == RequestOutcome::Rejected {
                    assert!(r.steps.is_empty() && r.finish_s == r.arrival_s, "{r:?}");
                    refused += 1;
                }
                false
            });
            let queued = open.len() - driver.live.len();
            assert!(queued <= CAP, "{queued} requests wait in a queue of {CAP}");
        }
        drain(&mut driver, &mut now);
        let report = driver.into_report(0.0);
        assert_eq!(report.responses.len(), next as usize);
        assert!(refused > 100, "the flood overflows: {refused} refused");
        assert_eq!(report.faults.rejected, refused);
    }

    /// 20,000 cycles through every way a request leaves, on a bounded
    /// queue of two and a slab budget, with the times scripted: cancelled
    /// while queued (which must free its slot at once), cancelled while
    /// live, expired in the queue, expired mid-stream, and completed.
    /// After each drain the driver holds no ticket, live slab or queue
    /// entry, nothing was refused, and every reply channel got exactly
    /// one response.
    #[test]
    fn soak_returns_to_baseline_after_every_cycle() {
        use RequestOutcome::{Cancelled, Completed, DeadlineMissed};
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let config = config(QueuePolicy::bounded(2), Some(64));
        let mut driver = IterationDriver::new(&llm, &[], &config);
        let mut now = 0.0;
        let mut next = 0u64;
        let mut submit =
            |driver: &mut IterationDriver<'_>, now: f64, max_new_tokens, deadline: bool| {
                let (tx, rx) = bounded(1);
                let id = RequestId(next);
                next += 1;
                let request = Request {
                    max_new_tokens,
                    arrival_s: now,
                    // Shorter than any iteration.
                    deadline_s: deadline.then_some(now + 1e-9),
                    ..request(id.0)
                };
                driver.submit(request, Some(tx));
                (id, rx)
            };
        const CYCLES: usize = 20_000;
        for cycle in 0..CYCLES {
            // A and B fill the queue; cancelling A frees a slot for C.
            let (a, a_rx) = submit(&mut driver, now, 2, false);
            let (b, b_rx) = submit(&mut driver, now, 2, false);
            driver.cancel(a, now);
            let (_, c_rx) = submit(&mut driver, now, 2, true);
            // One slot: B goes live and is cut after its first step; C's
            // deadline passes meanwhile and the next tick sheds it from
            // the queue.
            tick(&mut driver, &mut now);
            driver.cancel(b, now);
            tick(&mut driver, &mut now);
            // D is admitted alone and expires mid-stream; E completes.
            let (_, d_rx) = submit(&mut driver, now, 8, true);
            let (_, e_rx) = submit(&mut driver, now, 1, false);
            drain(&mut driver, &mut now);
            assert!(driver.waiting.is_empty(), "cycle {cycle}: a ticket is held");
            assert!(driver.live.is_empty(), "cycle {cycle}: a slab is held");
            assert!(
                !driver.scheduler.has_pending(),
                "cycle {cycle}: a queue slot is held"
            );
            assert_eq!(driver.faults.rejected, 0, "cycle {cycle}: refused");
            let exits = [a_rx, b_rx, c_rx, d_rx, e_rx].map(|rx| {
                let response = rx.try_recv().expect("answered");
                assert!(rx.try_recv().is_err(), "cycle {cycle}: answered twice");
                (response.outcome, response.steps.len())
            });
            let want = [
                (Cancelled, 0),
                (Cancelled, 1),
                (DeadlineMissed, 0),
                (DeadlineMissed, 1),
                (Completed, 1),
            ];
            assert_eq!(exits, want, "cycle {cycle}");
        }
        let report = driver.into_report(0.0);
        assert_eq!(report.responses.len(), 5 * CYCLES);
        assert_eq!(report.faults.cancellations, 2 * CYCLES);
        assert_eq!(report.faults.deadline_misses, 2 * CYCLES);
    }
}
