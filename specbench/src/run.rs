//! One benchmark run: set-up, the timed window of passes, the
//! correctness oracle, and the result line.

use std::time::Instant;

use specinfer_serving::ServerDaemon;
use specinfer_tokentree::TokenId;
use specinfer_workloads::Grammar;

use crate::drive::{self, Pass};
use crate::fixture::{self, Fixture, Models};
use crate::stats::{self, Fnv};
use crate::workloads::{RequestSpec, Workload};

/// How often set-up is repeated in one run — once before the window and
/// twice after it, the better part of a minute apart, so they rarely
/// share a slow phase of the machine; `setup_s` is the median of the
/// undisturbed ones, which one stalled set-up (4.6 s against 1.8 s has
/// been seen) does not move.
const SETUPS: usize = 3;
/// Every `ORACLE_STRIDE`-th response of the window is re-derived by a
/// serial incremental engine.
const ORACLE_STRIDE: usize = 16;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (passes, requests or calls).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// FNV-1a over the truncated outputs of pass 0, in request order.
    pub digest: String,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable table printed above the result line.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "workload {workload}: attempted {} failed {} digest {}\n",
            self.attempted, self.failed, self.digest
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<36} {:>14.4} {:<8} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// reported as -1 and fails the contract check.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    pub wall_s: f64,
    /// Seconds of it the hypervisor stole from this guest.
    pub stolen_s: f64,
}

/// Loads the models, spawns the daemon and replays the warm-up list
/// through it: checkpoint load, inflation, first-call weight packing and
/// thread start are all inside the returned seconds. The daemon comes
/// back running and warm.
pub fn set_up(
    fixture: &Fixture,
    workload: &Workload,
    grammar: &Grammar,
    seed: u64,
) -> Result<(Models, ServerDaemon, SetUp), String> {
    let steal0_s = stats::steal_s();
    let started = Instant::now();
    let models = fixture.load(workload.llm)?;
    let daemon = drive::spawn(&models, workload.pool, workload.server_config(seed))?;
    let warm = workload.requests(grammar, seed, u64::MAX, workload.warmup_requests);
    drive::drive_pass(&daemon, workload.drive, &warm)?;
    let timed = SetUp {
        wall_s: started.elapsed().as_secs_f64(),
        stolen_s: stats::steal_s() - steal0_s,
    };
    Ok((models, daemon, timed))
}

/// Output digest of one pass: request index, length and tokens, in
/// request order.
pub fn digest(outputs: impl Iterator<Item = impl AsRef<[TokenId]>>) -> String {
    let mut h = Fnv::new();
    for (i, tokens) in outputs.enumerate() {
        h.u64(i as u64);
        h.u64(tokens.as_ref().len() as u64);
        for &t in tokens.as_ref() {
            h.u64(u64::from(t));
        }
    }
    h.hex()
}

/// Counts failed requests of the window: every response that did not
/// complete with its full budget, plus every `ORACLE_STRIDE`-th response
/// whose tokens differ from a serial incremental decode on the `small`
/// LLM (which also re-checks, on served prompts, that the inflated LLM
/// computes the same function).
pub fn count_failures(
    small: &specinfer_model::Transformer,
    window: &[(Vec<RequestSpec>, Pass)],
) -> usize {
    let mut failed = 0;
    let mut k = 0usize;
    for (requests, pass) in window {
        for (spec, sample) in requests.iter().zip(&pass.samples) {
            let checked = k.is_multiple_of(ORACLE_STRIDE);
            k += 1;
            let wrong = checked
                && fixture::greedy_reference(small, &spec.prompt, spec.max_new_tokens)
                    != sample.tokens;
            failed += usize::from(!sample.completed || wrong);
        }
        failed += requests.len().saturating_sub(pass.samples.len());
    }
    failed
}

/// The end-to-end run (`--trace 0`).
pub fn end_to_end(
    fixture: &Fixture,
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let grammar = fixture::grammar();
    stats::reset_peak_rss();

    // The first set-up's models and daemon serve the window; the other
    // set-ups run after it. Peak RSS is read before that, so it reflects
    // one load plus serving, not the allocator's state after a reload.
    let (models, daemon, first_setup) = set_up(fixture, workload, &grammar, seed)?;
    let mut setups = vec![first_setup];

    // Passes until the pass boundary nearest to `seconds`.
    let mut window: Vec<(Vec<RequestSpec>, Pass)> = Vec::new();
    let started = Instant::now();
    loop {
        let requests =
            workload.requests(&grammar, seed, window.len() as u64, workload.pass_requests);
        let pass = drive::drive_pass(&daemon, workload.drive, &requests)?;
        let pass_s = pass.wall_s;
        window.push((requests, pass));
        if started.elapsed().as_secs_f64() + pass_s / 2.0 >= seconds {
            break;
        }
    }
    let peak_rss_mb = stats::peak_rss_mb();
    drive::shutdown(daemon)?;

    let small = fixture.small_llm(&models)?;
    drop(models);
    while setups.len() < SETUPS {
        let (_, daemon, setup) = set_up(fixture, workload, &grammar, seed)?;
        setups.push(setup);
        drive::shutdown(daemon)?;
    }
    let failed = count_failures(&small, &window);
    let attempted: usize = window.iter().map(|(r, _)| r.len()).sum();

    // The metrics are taken over the undisturbed passes — those during
    // which the host stole next to nothing from this guest; a window on
    // this class of machine holds bursts of passes with 5–30 % stolen,
    // which run 10–25 % slower. Throughput and CPU cost are totals over
    // those passes (the time between passes, spent drawing the next list,
    // is not counted), not medians: pass speeds also fall into a fast and
    // a slow group with no steal to tell them apart, the median over
    // passes flips between the groups from run to run, and the total
    // moves smoothly with the time spent in each. Latencies are pooled: a
    // pass holds too few requests for a p95.
    let pass_counts = stats::undisturbed(
        &window
            .iter()
            .map(|(_, p)| p.stolen_s / p.wall_s)
            .collect::<Vec<_>>(),
    );
    let passes = || {
        window
            .iter()
            .zip(&pass_counts)
            .filter_map(|((_, p), &keep)| keep.then_some(p))
    };
    let measured = passes().count();
    let tokens: usize = passes().map(Pass::tokens).sum();
    let wall_s: f64 = passes().map(|p| p.wall_s).sum();
    let cpu_s: f64 = passes().map(|p| p.cpu_s.0 + p.cpu_s.1).sum();
    let samples = || passes().flat_map(|p| &p.samples);
    let latency_ms: Vec<f64> = samples().map(|s| s.latency_s * 1e3).collect();
    let tpot_ms: Vec<f64> = samples()
        .map(|s| s.latency_s * 1e3 / s.tokens.len().max(1) as f64)
        .collect();
    let setup_counts = stats::undisturbed(
        &setups
            .iter()
            .map(|s| s.stolen_s / s.wall_s)
            .collect::<Vec<_>>(),
    );
    let setup_s: Vec<f64> = setups
        .iter()
        .zip(&setup_counts)
        .filter_map(|(s, &keep)| keep.then_some(s.wall_s))
        .collect();

    let n = latency_ms.len();
    let metrics = vec![
        Metric::new("tokens_per_s", tokens as f64 / wall_s, "1/s", measured),
        Metric::new("tpot_p50_ms", stats::median(&tpot_ms), "ms", n),
        Metric::new("req_latency_p50_ms", stats::median(&latency_ms), "ms", n),
        Metric::new(
            "req_latency_p95_ms",
            stats::quantile(&latency_ms, 0.95),
            "ms",
            n,
        ),
        Metric::new(
            "cpu_ms_per_token",
            cpu_s * 1e3 / tokens.max(1) as f64,
            "ms",
            measured,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric::new("setup_s", stats::median(&setup_s), "s", setup_s.len()),
    ];
    if n / 20 < 10 {
        eprintln!(
            "[specbench] {}: only {n} requests measured, fewer than 10 beyond the p95",
            workload.name
        );
    }
    // For the reader of the log: how speed moved inside the window, and
    // what the host took; a `*` marks what was left out as disturbed.
    let mark = |keep: bool| if keep { "" } else { "*" };
    let pass_log: Vec<String> = window
        .iter()
        .zip(&pass_counts)
        .map(|((_, p), &keep)| {
            format!(
                "{:.0}/{:.1}%{}",
                p.tokens() as f64 / p.wall_s,
                100.0 * p.stolen_s / p.wall_s,
                mark(keep)
            )
        })
        .collect();
    let setup_log: Vec<String> = setups
        .iter()
        .zip(&setup_counts)
        .map(|(s, &keep)| {
            format!(
                "{:.2}/{:.1}%{}",
                s.wall_s,
                100.0 * s.stolen_s / s.wall_s,
                mark(keep)
            )
        })
        .collect();
    eprintln!(
        "[specbench] {}: {measured} of {} passes measured, {wall_s:.1} s; per pass tokens/s / stolen: {}; set-ups s / stolen: {}",
        workload.name,
        window.len(),
        pass_log.join(" "),
        setup_log.join(" "),
    );
    Ok(Outcome {
        attempted,
        failed,
        digest: digest(window[0].1.samples.iter().map(|s| &s.tokens)),
        metrics,
    })
}
