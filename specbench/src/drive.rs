//! Drives one pass of a workload through the real `ServerDaemon` and
//! measures what a client sees.

use std::time::Instant;

use specinfer_serving::{
    RequestOutcome, Response, ServeReport, ServerConfig, ServerDaemon, Ticket,
};
use specinfer_tokentree::TokenId;

use crate::fixture::Models;
use crate::stats;
use crate::workloads::{Drive, RequestSpec};

/// One answered request as its client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index in the pass's request list.
    pub index: usize,
    /// Closed loop: submit → response. Offline: pass start → the in-order
    /// reader holds the response.
    pub latency_s: f64,
    /// The first `max_new_tokens` generated tokens (speculative sessions
    /// overshoot their budget; the overshoot is neither hashed nor
    /// counted).
    pub tokens: Vec<TokenId>,
    pub completed: bool,
}

/// Everything a client-side observer measured in one pass.
#[derive(Debug)]
pub struct Pass {
    /// First submission → last response held.
    pub wall_s: f64,
    /// User and system CPU seconds of the process over `wall_s`.
    pub cpu_s: (f64, f64),
    /// Seconds over `wall_s` in which the hypervisor ran something else
    /// while one of this guest's CPUs had work.
    pub stolen_s: f64,
    /// In request-list order.
    pub samples: Vec<Sample>,
    /// How late each submission left the generator: after the client's
    /// previous response (closed loop), after the pass start (offline).
    pub lag_s: Vec<f64>,
}

impl Pass {
    pub fn tokens(&self) -> usize {
        self.samples.iter().map(|s| s.tokens.len()).sum()
    }
}

fn sample(index: usize, latency_s: f64, spec: &RequestSpec, response: Response) -> Sample {
    let mut tokens = response.generated;
    tokens.truncate(spec.max_new_tokens);
    Sample {
        index,
        latency_s,
        completed: response.outcome == RequestOutcome::Completed
            && tokens.len() == spec.max_new_tokens,
        tokens,
    }
}

fn submit(daemon: &ServerDaemon, spec: &RequestSpec) -> Result<Ticket, String> {
    daemon
        .submit(spec.prompt.clone(), spec.max_new_tokens)
        .map_err(|e| format!("submit failed: {e}"))
}

fn wait(ticket: Ticket) -> Result<Response, String> {
    ticket.wait().map_err(|e| format!("ticket lost: {e}"))
}

/// Spawns the daemon a workload talks to.
pub fn spawn(models: &Models, pool: bool, config: ServerConfig) -> Result<ServerDaemon, String> {
    let ssms = if pool {
        models.ssms.clone()
    } else {
        Vec::new()
    };
    ServerDaemon::spawn(models.llm.clone(), ssms, config)
        .map_err(|e| format!("daemon spawn failed: {e}"))
}

/// Shuts the daemon down and returns its report.
pub fn shutdown(daemon: ServerDaemon) -> Result<ServeReport, String> {
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown failed: {e}"))
}

/// Sends `requests` to a running daemon in the given arrival pattern and
/// collects every response.
pub fn drive_pass(
    daemon: &ServerDaemon,
    drive: Drive,
    requests: &[RequestSpec],
) -> Result<Pass, String> {
    let cpu0 = stats::cpu_times_s();
    let steal0_s = stats::steal_s();
    let started = Instant::now();
    let driven = match drive {
        Drive::Closed { clients } => closed_loop(daemon, requests, clients),
        Drive::Offline => offline(daemon, requests, started),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu1 = stats::cpu_times_s();
    let stolen_s = stats::steal_s() - steal0_s;
    let (mut samples, lag_s) = driven?;
    samples.sort_by_key(|s| s.index);
    Ok(Pass {
        wall_s,
        cpu_s: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
        stolen_s,
        samples,
        lag_s,
    })
}

type Driven = Result<(Vec<Sample>, Vec<f64>), String>;

fn closed_loop(daemon: &ServerDaemon, requests: &[RequestSpec], clients: usize) -> Driven {
    let per_client: Vec<Result<Vec<(f64, Sample)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut due = Instant::now();
                    for (i, spec) in requests.iter().enumerate().skip(c).step_by(clients) {
                        let sent = Instant::now();
                        let lag_s = (sent - due).as_secs_f64();
                        let response = wait(submit(daemon, spec)?)?;
                        due = Instant::now();
                        out.push((lag_s, sample(i, (due - sent).as_secs_f64(), spec, response)));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::with_capacity(requests.len());
    let mut lag_s = Vec::with_capacity(requests.len());
    for client in per_client {
        for (lag, sample) in client? {
            lag_s.push(lag);
            samples.push(sample);
        }
    }
    Ok((samples, lag_s))
}

fn offline(daemon: &ServerDaemon, requests: &[RequestSpec], started: Instant) -> Driven {
    let mut tickets = Vec::with_capacity(requests.len());
    let mut lag_s = Vec::with_capacity(requests.len());
    for spec in requests {
        lag_s.push(started.elapsed().as_secs_f64());
        tickets.push(submit(daemon, spec)?);
    }
    let mut samples = Vec::with_capacity(requests.len());
    for (i, (ticket, spec)) in tickets.into_iter().zip(requests).enumerate() {
        let response = wait(ticket)?;
        samples.push(sample(i, started.elapsed().as_secs_f64(), spec, response));
    }
    Ok((samples, lag_s))
}
