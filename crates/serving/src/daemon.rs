//! A live serving daemon: the iteration driver running on a real
//! background thread.
//!
//! [`Server`](crate::Server) hands the driver a whole trace up front;
//! [`ServerDaemon`] instead accepts submissions *while running* (from any
//! thread, via channels). Its thread is a thin shell — pump the channel,
//! tick the driver, repeat — so everything an iteration does (ragged
//! admission through the [`IterationScheduler`](crate::IterationScheduler),
//! the batched step, the clock charge, retirement, the
//! [`FaultPlan`](crate::FaultPlan)) is the code trace replay runs, and
//! this module owns only what is live-specific: the client handle, the
//! message protocol, the idle heartbeat and the drain-on-shutdown flag.
//! Simulated time is still used for the latency metrics (the cost model
//! prices each iteration); wall-clock arrival order drives admission.
//! The per-iteration audit trail ([`ServeReport::iteration_log`]) and
//! batch/slab occupancy ([`ServeReport::occupancy`]) are reported on
//! shutdown.
//!
//! Any thread holding the daemon handle can cut a request — queued or
//! mid-stream — with [`ServerDaemon::cancel`]; whatever was generated is
//! returned through the request's [`Ticket`].

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use specinfer_model::Transformer;
use specinfer_tokentree::TokenId;

use crate::driver::IterationDriver;
use crate::metrics::ServeReport;
use crate::request::{Request, RequestId, Response};
use crate::server::ServerConfig;

enum Msg {
    Submit {
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        /// Latency budget in simulated seconds; the absolute deadline is
        /// the admission clock plus this budget.
        budget_s: Option<f64>,
        reply: Sender<Response>,
        id_reply: Sender<RequestId>,
    },
    Cancel(RequestId),
    Shutdown,
}

/// Errors from the daemon's client-facing surface.
///
/// A daemon failure must reach the submitting thread as a value — the
/// submitter may be a request handler that has to answer *its* caller —
/// so every handle method that can observe a dead daemon returns one of
/// these instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonError {
    /// The OS refused to spawn the daemon thread.
    SpawnFailed,
    /// The daemon is no longer running (shut down or crashed) and cannot
    /// take this call.
    NotRunning,
    /// The daemon thread panicked; its report is lost.
    Panicked,
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::SpawnFailed => write!(f, "failed to spawn the serving daemon thread"),
            DaemonError::NotRunning => write!(f, "the serving daemon is not running"),
            DaemonError::Panicked => write!(f, "the serving daemon panicked"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// A ticket for one submitted request.
#[derive(Debug)]
pub struct Ticket {
    /// The assigned request id.
    pub id: RequestId,
    rx: Receiver<Response>,
}

impl Ticket {
    /// Blocks until the request completes (or is cancelled/expired/
    /// rejected — the response's `outcome` says which). Errs only if the
    /// daemon shut down before answering this request.
    pub fn wait(self) -> Result<Response, DaemonError> {
        self.rx.recv().map_err(|_| DaemonError::NotRunning)
    }
}

/// Handle to a running serving daemon.
///
/// Dropping the handle without calling [`ServerDaemon::shutdown`] shuts
/// the daemon down and discards its report.
#[derive(Debug)]
pub struct ServerDaemon {
    tx: Sender<Msg>,
    join: Option<JoinHandle<ServeReport>>,
}

impl ServerDaemon {
    /// Spawns the daemon thread.
    pub fn spawn(
        llm: Arc<Transformer>,
        ssms: Vec<Arc<Transformer>>,
        config: ServerConfig,
    ) -> Result<ServerDaemon, DaemonError> {
        let (tx, rx) = unbounded::<Msg>();
        let join = std::thread::Builder::new()
            .name("specinfer-daemon".into())
            .spawn(move || daemon_loop(&llm, &ssms, &config, &rx))
            .map_err(|_| DaemonError::SpawnFailed)?;
        Ok(ServerDaemon {
            tx,
            join: Some(join),
        })
    }

    /// Submits a request; returns a [`Ticket`] whose `wait()` yields the
    /// response. Callable from any thread. Errs if the daemon has
    /// already shut down.
    pub fn submit(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
    ) -> Result<Ticket, DaemonError> {
        self.submit_inner(prompt, max_new_tokens, None)
    }

    /// Submits a request with a latency budget: if the request hasn't
    /// finished within `budget_s` simulated seconds of admission, it is
    /// shed mid-stream and its ticket resolves with
    /// [`RequestOutcome::DeadlineMissed`](crate::RequestOutcome::DeadlineMissed).
    pub fn submit_with_deadline(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        budget_s: f64,
    ) -> Result<Ticket, DaemonError> {
        self.submit_inner(prompt, max_new_tokens, Some(budget_s))
    }

    fn submit_inner(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        budget_s: Option<f64>,
    ) -> Result<Ticket, DaemonError> {
        let (reply_tx, reply_rx) = bounded(1);
        let (id_tx, id_rx) = bounded(1);
        self.tx
            .send(Msg::Submit {
                prompt,
                max_new_tokens,
                budget_s,
                reply: reply_tx,
                id_reply: id_tx,
            })
            .map_err(|_| DaemonError::NotRunning)?;
        let id = id_rx.recv().map_err(|_| DaemonError::NotRunning)?;
        Ok(Ticket { id, rx: reply_rx })
    }

    /// Cancels a request, queued or in flight. Its ticket resolves with
    /// [`RequestOutcome::Cancelled`](crate::RequestOutcome::Cancelled)
    /// and whatever tokens were generated before the cut; a queued
    /// request leaves the queue at once. Cancelling an unknown or
    /// finished id is a no-op.
    pub fn cancel(&self, id: RequestId) {
        let _ = self.tx.send(Msg::Cancel(id));
    }

    /// Finishes all in-flight requests, stops the daemon, and returns its
    /// aggregate report. Errs if the daemon thread panicked.
    pub fn shutdown(mut self) -> Result<ServeReport, DaemonError> {
        let _ = self.tx.send(Msg::Shutdown);
        let Some(join) = self.join.take() else {
            // `shutdown` consumes the handle and only `Drop` also takes
            // the join handle, so it is always present here.
            unreachable!("shutdown runs before Drop and only once")
        };
        join.join().map_err(|_| DaemonError::Panicked)
    }
}

impl Drop for ServerDaemon {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Upper bound on a single idle wait in [`daemon_loop`]'s message pump.
/// A timeout is not an event — the loop just re-checks its state — so
/// the value only trades shutdown latency against idle wakeups.
const IDLE_HEARTBEAT: Duration = Duration::from_millis(50);

/// The live front-end of the iteration driver: pump the channel, tick,
/// repeat. Arrivals are stamped with the driver's simulated clock and
/// join mid-flight at the next tick's admission.
fn daemon_loop(
    llm: &Transformer,
    ssms: &[Arc<Transformer>],
    config: &ServerConfig,
    rx: &Receiver<Msg>,
) -> ServeReport {
    let ssm_refs: Vec<&Transformer> = ssms.iter().map(Arc::as_ref).collect();
    let mut driver = IterationDriver::new(llm, &ssm_refs, config);
    let mut next_id = 0u64;
    let mut draining = false;

    loop {
        // Message pump: block only when there is truly nothing to do —
        // no live batch and no queued work — otherwise drain whatever
        // has arrived and get back to decoding.
        loop {
            let msg = if driver.is_idle() && !draining {
                // Idle wait with a deadline: the loop re-checks its state
                // at least once per heartbeat, so it stays responsive to
                // shutdown even if a sender wedges without disconnecting.
                match rx.recv_timeout(IDLE_HEARTBEAT) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return driver.into_report(),
                }
            } else {
                rx.try_recv().ok()
            };
            match msg {
                Some(Msg::Submit {
                    prompt,
                    max_new_tokens,
                    budget_s,
                    reply,
                    id_reply,
                }) => {
                    let id = RequestId(next_id);
                    next_id += 1;
                    let _ = id_reply.send(id);
                    let now = driver.clock();
                    driver.submit(
                        Request {
                            id,
                            prompt,
                            max_new_tokens,
                            arrival_s: now,
                            deadline_s: budget_s.map(|b| now + b),
                            dataset: None,
                        },
                        Some(reply),
                    );
                }
                Some(Msg::Cancel(id)) => driver.cancel(id),
                Some(Msg::Shutdown) => draining = true,
                None => break,
            }
        }
        driver.tick();
        if draining && driver.is_idle() {
            return driver.into_report();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestOutcome;
    use crate::scheduler::QueuePolicy;
    use crate::server::TimingConfig;
    use specinfer_model::{DecodeMode, ModelConfig};
    use specinfer_spec::{DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier};
    use specinfer_tokentree::ExpansionConfig;

    fn daemon_config(batch: usize) -> ServerConfig {
        ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode: InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1, 1]),
                },
                max_new_tokens: 8,
                eos_token: None,
            },
            max_batch_size: batch,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed: 11,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows: None,
        }
    }

    fn daemon_with(config: ServerConfig) -> ServerDaemon {
        let llm = Arc::new(Transformer::from_seed(ModelConfig::smoke(), 1));
        let ssm = Arc::new(Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            2,
        ));
        ServerDaemon::spawn(llm, vec![ssm], config).expect("daemon spawns")
    }

    fn daemon(batch: usize) -> ServerDaemon {
        daemon_with(daemon_config(batch))
    }

    /// Wall-clock bound on one daemon drive. The drives here take well
    /// under a second; a drive still running after this long is hung.
    const DRIVE_BOUND: Duration = Duration::from_secs(60);

    /// Runs `drive` on a thread of its own and fails, naming `what`, if
    /// it has not returned within [`DRIVE_BOUND`]; a hung drive's thread
    /// is left behind. A panic in the drive is re-raised here.
    fn within_bound<T: Send + 'static>(
        what: &str,
        drive: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done_tx, done_rx) = bounded(1);
        let handle = std::thread::spawn(move || {
            let out = drive();
            let _ = done_tx.send(());
            out
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(DRIVE_BOUND) {
            panic!("{what}: still running after {DRIVE_BOUND:?}");
        }
        handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    #[test]
    fn submissions_from_multiple_threads() {
        let d = Arc::new(daemon(3));
        let mut joins = Vec::new();
        for t in 0..4 {
            let d2 = Arc::clone(&d);
            joins.push(std::thread::spawn(move || {
                d2.submit(vec![1, (t % 8) as u32 + 2], 6)
                    .expect("daemon accepts")
                    .wait()
            }));
        }
        for j in joins {
            let r = j
                .join()
                .expect("submitter thread panicked")
                .expect("ticket resolves");
            assert!(r.generated.len() >= 6);
        }
        let d = Arc::try_unwrap(d).expect("all submitters done");
        let report = d.shutdown().expect("clean shutdown");
        assert_eq!(report.responses.len(), 4);
    }

    /// A few thousand submissions, every other one cancelled at once,
    /// through a bounded queue: every ticket resolves exactly once and
    /// the report holds one response per submission.
    #[test]
    fn soak_resolves_every_ticket_once() {
        const SUBMISSIONS: usize = 3_000;
        let report = within_bound("soak", || {
            let d = daemon_with(ServerConfig {
                queue: QueuePolicy::bounded(2),
                ..daemon_config(2)
            });
            let tickets: Vec<Ticket> = (0..SUBMISSIONS)
                .map(|i| {
                    let t = d
                        .submit(vec![1, (i % 8) as u32 + 2], 2)
                        .expect("daemon accepts");
                    if i % 2 == 1 {
                        d.cancel(t.id);
                    }
                    t
                })
                .collect();
            let mut ids: Vec<RequestId> = tickets
                .into_iter()
                .map(|t| t.wait().expect("ticket resolves").id)
                .collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), SUBMISSIONS, "one response per ticket");
            d.shutdown().expect("clean shutdown")
        });
        assert_eq!(report.responses.len(), SUBMISSIONS);
    }

    /// `shutdown` and a plain `drop`, called as soon as four long requests
    /// are submitted to a daemon with one batch slot (the call lands with
    /// one live and the rest queued unless the submitting thread stalls
    /// for the length of a request), both drain that work and return
    /// within the bound. Every ticket still resolves afterwards (its response was
    /// sent before the daemon exited), completed.
    #[test]
    fn shutdown_and_drop_with_queued_and_live_work_return_within_the_bound() {
        for shutdown in [true, false] {
            let what = if shutdown { "shutdown" } else { "drop" };
            let tickets = within_bound(what, move || {
                let d = daemon(1);
                let tickets: Vec<Ticket> = (0..4)
                    .map(|i| d.submit(vec![1, i + 2], 96).expect("daemon accepts"))
                    .collect();
                if shutdown {
                    let report = d.shutdown().expect("clean shutdown");
                    assert_eq!(report.responses.len(), tickets.len());
                } else {
                    drop(d);
                }
                tickets
            });
            for t in tickets {
                let r = t.wait().expect("answered before the daemon exited");
                assert_eq!(r.outcome, RequestOutcome::Completed, "{what}");
                assert!(r.generated.len() >= 96, "{what}");
            }
        }
    }

    #[test]
    fn cancelling_unknown_ids_is_a_noop() {
        let d = daemon(2);
        d.cancel(RequestId(999));
        let t = d.submit(vec![4, 4], 6).expect("daemon accepts");
        assert_eq!(
            t.wait().expect("ticket resolves").outcome,
            RequestOutcome::Completed
        );
        d.shutdown().expect("clean shutdown");
    }
}
