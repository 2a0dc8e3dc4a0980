//! The traced run (`--trace 1`): per-layer metrics from three sources.
//!
//! 1. Counts in the `ServeReport` the real daemon returns at shutdown.
//! 2. The spans of the shadow driver ([`crate::trace`]) replaying the same
//!    pass; run once more without spans for the tracing overhead, and
//!    once more in incremental mode for the speed-up of speculation.
//! 3. The component replay ([`crate::components`]).
//!
//! Rounds of (daemon pass, traced shadow, untraced shadow, incremental
//! shadow) over the workload's short trace list repeat until `--seconds`
//! or [`ROUNDS_CAP_S`] are used; timings are medians over rounds, counts
//! come from the first round, whose spans are written to
//! `<artefacts>/<workload>.spans.jsonl`.

use std::path::Path;
use std::time::Instant;

use specinfer_serving::{ServeReport, ServerConfig};
use specinfer_spec::InferenceMode;

use crate::components;
use crate::drive::{self, Pass};
use crate::fixture::{self, Fixture};
use crate::run::{self, Metric, Outcome};
use crate::stats;
use crate::trace::{self, Recorder, Shadow, Span};
use crate::workloads::{RequestSpec, Workload};

/// The rounds stop after this many seconds however long the window is: a
/// traced run attributes time, it does not need the window's length to
/// be steady, and the driver's schedule has about 25 s for it.
const ROUNDS_CAP_S: f64 = 10.0;
/// Seconds of the calibration loop before and after the rounds.
const CALIBRATION_S: f64 = 0.2;
/// Time slices the shadow's iterations are binned into for
/// `harness.slice_spread`.
const SLICES: usize = 12;

/// IQR ÷ mean of the shadow's throughput over [`SLICES`] equal time
/// slices: how unsteady the machine (or the workload) was inside one
/// replay.
fn slice_spread(shadow: &Shadow) -> f64 {
    let mut tokens = [0.0f64; SLICES];
    for &(end_s, emitted) in &shadow.marks {
        let slice = ((end_s / shadow.wall_s) * SLICES as f64) as usize;
        tokens[slice.min(SLICES - 1)] += emitted as f64;
    }
    (stats::quantile(&tokens, 0.75) - stats::quantile(&tokens, 0.25)) / stats::mean(&tokens)
}

/// Durations (seconds) and summed self time (seconds) of the spans
/// called `name`.
fn spans_named(spans: &[Span], own: &[u64], name: &str) -> (Vec<f64>, f64) {
    let mut durations = Vec::new();
    let mut self_s = 0.0;
    for (s, &o) in spans.iter().zip(own) {
        if s.name == name {
            durations.push(s.duration_ns() as f64 * 1e-9);
            self_s += o as f64 * 1e-9;
        }
    }
    (durations, self_s)
}

/// `call_budget_s` is handed to the component replay.
pub fn traced(
    fixture: &Fixture,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    call_budget_s: f64,
    artefacts: &Path,
) -> Result<Outcome, String> {
    let grammar = fixture::grammar();
    let speed_before = stats::machine_speed_index(CALIBRATION_S);
    let (models, warm_daemon, _) = run::set_up(fixture, workload, &grammar, seed)?;
    drive::shutdown(warm_daemon)?;
    let requests = workload.requests(&grammar, seed, 0, workload.trace_requests);
    let config = workload.server_config(seed);
    let incremental = workload.server_config_with(InferenceMode::Incremental, seed);

    let small = fixture.small_llm(&models)?;

    // Every round's daemon pass; the first round also keeps its report,
    // its traced shadow and the spans.
    let mut window: Vec<(Vec<RequestSpec>, Pass)> = Vec::new();
    let mut first: Option<(ServeReport, Shadow, Vec<Span>)> = None;
    let (mut daemon_s, mut traced_s, mut untraced_s, mut incremental_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_user_s, mut cpu_sys_share) = (Vec::new(), Vec::new());
    let replay = |pool: bool, config: &ServerConfig, rec: &mut Recorder| {
        trace::shadow(&models, pool, config, workload.drive, &requests, rec)
    };
    let started = Instant::now();
    while first.is_none() || started.elapsed().as_secs_f64() < seconds.min(ROUNDS_CAP_S) {
        // A daemon per round, so that its report counts this pass alone.
        let daemon = drive::spawn(&models, workload.pool, config.clone())?;
        let pass = drive::drive_pass(&daemon, workload.drive, &requests);
        let report = drive::shutdown(daemon);
        let (pass, report) = (pass?, report?);
        let mut rec = Recorder::new(true);
        let with_spans = replay(workload.pool, &config, &mut rec)?;
        let without = replay(workload.pool, &config, &mut Recorder::new(false))?;
        // The same list decoded incrementally, without the pool: what
        // speculation is up against. An incremental workload is its own
        // baseline.
        let baseline_s = if workload.adaptive {
            replay(false, &incremental, &mut Recorder::new(false))?.wall_s
        } else {
            without.wall_s
        };

        let daemon_digest = run::digest(pass.samples.iter().map(|s| &s.tokens));
        for (what, shadow) in [("traced", &with_spans), ("untraced", &without)] {
            let digest = run::digest(shadow.outputs.iter());
            if digest != daemon_digest {
                return Err(format!(
                    "{}: the {what} shadow's outputs ({digest}) differ from the daemon's ({daemon_digest})",
                    workload.name
                ));
            }
        }
        trace::validate(rec.spans())?;

        daemon_s.push(pass.wall_s);
        traced_s.push(with_spans.wall_s);
        untraced_s.push(without.wall_s);
        incremental_s.push(baseline_s);
        cpu_user_s.push(pass.cpu_s.0);
        cpu_sys_share.push(pass.cpu_s.1 / (pass.cpu_s.0 + pass.cpu_s.1).max(f64::MIN_POSITIVE));
        window.push((requests.clone(), pass));
        if first.is_none() {
            first = Some((report, with_spans, rec.spans().to_vec()));
        }
    }
    let rounds = window.len();
    let (report, shadow, spans) = first.ok_or("no round ran")?;
    let failed = run::count_failures(&small, &window);
    let attempted = rounds * requests.len();
    let pass = &window[0].1;
    let parts = components::replay(
        &models,
        &config.engine,
        workload.pool,
        &requests,
        call_budget_s,
    );
    let speed_after = stats::machine_speed_index(CALIBRATION_S);

    let span_path = artefacts.join(format!("{}.spans.jsonl", workload.name));
    trace::write_jsonl(&spans, &span_path)
        .map_err(|e| format!("cannot write {}: {e}", span_path.display()))?;

    // ---- spans ----
    let own = trace::self_times_ns(&spans);
    let (root, root_self_s) = spans_named(&spans, &own, trace::ROOT);
    let root_s = root.first().copied().unwrap_or(f64::NAN);
    let (session_new, session_new_self) = spans_named(&spans, &own, "spec.session_new");
    let (step_batch, step_batch_self) = spans_named(&spans, &own, "spec.step_batch");
    let (admit, admit_self) = spans_named(&spans, &own, "serving.admit");
    let (expire, expire_self) = spans_named(&spans, &own, "serving.expire");
    let (price, _) = spans_named(&spans, &own, "sim.iteration_s");
    let iterations = shadow.iterations.max(1) as f64;

    // ---- the daemon's report ----
    let steps = report.responses.iter().flat_map(|r| &r.steps);
    let (mut n_steps, mut drafted, mut accepted) = (0usize, 0usize, 0usize);
    for s in steps {
        n_steps += 1;
        drafted += s.tree_size;
        accepted += s.accepted;
    }
    let share = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
    let rungs = &report.controller.rung_decisions;
    let routes = &report.controller.ssm_routes;
    let rows = &report.verify_rows;

    let cfg = models.llm.config();
    let kv_row_bytes = |c: &specinfer_model::ModelConfig| (2 * 4 * c.n_layers * c.d_model) as f64;
    let ssm_reserved: f64 = if workload.pool {
        models
            .ssms
            .iter()
            .map(|s| kv_row_bytes(s.config()) * s.config().max_seq_len as f64)
            .sum()
    } else {
        0.0
    };
    let kv_reserved_mb = (shadow.peak_kv_rows as f64 * kv_row_bytes(cfg)
        + shadow.peak_sessions as f64 * ssm_reserved)
        / 1e6;

    let med = stats::median;
    let ms = |v: &[f64], q: f64| stats::quantile(v, q) * 1e3;
    let us = |v: &[f64], q: f64| stats::quantile(v, q) * 1e6;
    let m = Metric::new;
    let tokens = pass.tokens();
    let lag_ms: Vec<f64> = pass.lag_s.iter().map(|l| l * 1e3).collect();
    let metrics = vec![
        m(
            "tensor.gemm_m1_gflops",
            parts.gemm_gflops[0],
            "GFLOP/s",
            parts.samples,
        ),
        m(
            "tensor.gemm_m5_gflops",
            parts.gemm_gflops[1],
            "GFLOP/s",
            parts.samples,
        ),
        m(
            "tensor.gemm_m20_gflops",
            parts.gemm_gflops[2],
            "GFLOP/s",
            parts.samples,
        ),
        m(
            "tensor.gemm_m256_gflops",
            parts.gemm_gflops[3],
            "GFLOP/s",
            parts.samples,
        ),
        m(
            "tensor.m1_gbytes_per_s",
            parts.m1_gbytes_per_s,
            "GB/s",
            parts.samples,
        ),
        m(
            "tensor.effective_threads",
            specinfer_tensor::effective_threads() as f64,
            "count",
            1,
        ),
        m(
            "model.decode_one_us",
            parts.decode_one_s * 1e6,
            "us",
            parts.samples,
        ),
        m(
            "model.decode_tree_us_per_row",
            parts.decode_tree21_s * 1e6 / parts.tree21_rows.max(1) as f64,
            "us",
            parts.samples,
        ),
        m(
            "model.verify_cost_ratio_k5",
            parts.decode_tree5_s() / parts.decode_one_s,
            "ratio",
            parts.samples,
        ),
        m(
            "model.verify_cost_ratio_k20",
            parts.decode_tree21_s / parts.decode_one_s,
            "ratio",
            parts.samples,
        ),
        m(
            "model.prefill_us_per_token",
            parts.prefill_s_per_token * 1e6,
            "us",
            parts.samples,
        ),
        m(
            "model.kv_retain_rows_us",
            parts.retain_rows_s * 1e6,
            "us",
            parts.samples,
        ),
        m("model.kv_reserved_mb", kv_reserved_mb, "MB", 1),
        m(
            "model.weight_mb",
            (cfg.param_count() * 4) as f64 / 1e6,
            "MB",
            1,
        ),
        m(
            "tokentree.linearize_us_per_tree",
            parts.linearize_s * 1e6,
            "us",
            parts.samples,
        ),
        m(
            "tokentree.nodes_per_tree_mean",
            share(drafted, n_steps),
            "count",
            n_steps,
        ),
        m(
            "spec.tokens_per_step",
            share(tokens, n_steps),
            "count",
            n_steps,
        ),
        m(
            "spec.draft_accept_share",
            share(accepted, drafted),
            "share",
            n_steps,
        ),
        m(
            "spec.ssm_draft_us_per_node",
            parts.draft_s_per_node * 1e6,
            "us",
            parts.samples,
        ),
        m(
            "spec.draft_to_decode_cost_ratio",
            parts.draft_s_per_node / parts.decode_one_s,
            "ratio",
            parts.samples,
        ),
        m(
            "spec.verify_walk_us_per_tree",
            parts.verify_walk_s * 1e6,
            "us",
            parts.samples,
        ),
        m(
            "spec.engine_overhead_share",
            parts.engine_overhead_share,
            "share",
            parts.samples,
        ),
        m(
            "spec.rung0_decision_share",
            share(rungs.first().copied().unwrap_or(0), rungs.iter().sum()),
            "share",
            n_steps,
        ),
        m(
            "spec.ssm_route_share_primary",
            share(routes.first().copied().unwrap_or(0), routes.iter().sum()),
            "share",
            n_steps,
        ),
        m(
            "spec.verify_rows_forwarded",
            rows.forwarded_rows() as f64,
            "count",
            report.iterations,
        ),
        m(
            "spec.verify_rows_pruned_share",
            share(rows.pruned_rows(), rows.single_pass_rows),
            "share",
            report.iterations,
        ),
        m(
            "spec.session_new_ms_p50",
            ms(&session_new, 0.5),
            "ms",
            session_new.len(),
        ),
        m(
            "spec.session_new_share",
            session_new_self / root_s,
            "share",
            session_new.len(),
        ),
        m(
            "spec.step_batch_us_p50",
            us(&step_batch, 0.5),
            "us",
            step_batch.len(),
        ),
        m(
            "spec.step_batch_us_p95",
            us(&step_batch, 0.95),
            "us",
            step_batch.len(),
        ),
        m(
            "spec.step_batch_share",
            step_batch_self / root_s,
            "share",
            step_batch.len(),
        ),
        m(
            "spec.speedup_vs_incremental",
            med(&incremental_s) / med(&untraced_s),
            "ratio",
            rounds,
        ),
        m(
            "serving.queue_wait_p50_ms",
            ms(&shadow.queue_wait_s, 0.5),
            "ms",
            shadow.queue_wait_s.len(),
        ),
        m(
            "serving.queue_wait_p95_ms",
            ms(&shadow.queue_wait_s, 0.95),
            "ms",
            shadow.queue_wait_s.len(),
        ),
        m(
            "serving.batch_fill_mean",
            report.occupancy.mean_batch_fill,
            "share",
            report.iterations,
        ),
        m(
            "serving.slab_fill_mean",
            report.occupancy.mean_slab_fill,
            "share",
            report.iterations,
        ),
        m(
            "serving.peak_batch",
            report.occupancy.peak_batch as f64,
            "count",
            report.iterations,
        ),
        m("serving.iterations", report.iterations as f64, "count", 1),
        m(
            "serving.admit_us_per_iter",
            (admit.iter().sum::<f64>() + expire.iter().sum::<f64>()) * 1e6 / iterations,
            "us",
            admit.len(),
        ),
        m(
            "serving.admit_share",
            (admit_self + expire_self) / root_s,
            "share",
            admit.len(),
        ),
        m(
            "serving.budget_bound_share",
            shadow.budget_bound_iterations as f64 / iterations,
            "share",
            shadow.iterations,
        ),
        m(
            "serving.daemon_overhead_share",
            1.0 - med(&untraced_s) / med(&daemon_s),
            "share",
            rounds,
        ),
        m(
            "serving.retries_rejected",
            (report.faults.retries + report.faults.rejected) as f64,
            "count",
            1,
        ),
        m("sim.iteration_price_us", us(&price, 0.5), "us", price.len()),
        m(
            "workloads.prompt_tokens_mean",
            stats::mean(
                &requests
                    .iter()
                    .map(|r| r.prompt.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
            requests.len(),
        ),
        m(
            "workloads.output_tokens_mean",
            stats::mean(
                &requests
                    .iter()
                    .map(|r| r.max_new_tokens as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
            requests.len(),
        ),
        m("proc.cpu_user_s", med(&cpu_user_s), "s", rounds),
        m("proc.cpu_sys_share", med(&cpu_sys_share), "share", rounds),
        m(
            "harness.machine_speed_index",
            (speed_before + speed_after) / 2.0,
            "1/us",
            2,
        ),
        m(
            "harness.machine_drift_share",
            (speed_after - speed_before).abs() / speed_before,
            "share",
            2,
        ),
        m(
            "harness.slice_spread",
            slice_spread(&shadow),
            "share",
            SLICES,
        ),
        m(
            "harness.generator_lag_p95_ms",
            stats::quantile(&lag_ms, 0.95),
            "ms",
            lag_ms.len(),
        ),
        m(
            "harness.span_coverage",
            1.0 - root_self_s / root_s,
            "share",
            spans.len(),
        ),
        m(
            "harness.trace_overhead_share",
            med(&traced_s) / med(&untraced_s) - 1.0,
            "share",
            rounds,
        ),
        m(
            "harness.shadow_vs_daemon_ratio",
            med(&untraced_s) / med(&daemon_s),
            "ratio",
            rounds,
        ),
        m(
            "harness.fixture_ssm_top1_agree",
            fixture.info.ssm_top1_agree,
            "share",
            1,
        ),
    ];

    // Layer self times, for the reader of the log: they sum to the
    // shadow's wall time by construction.
    let mut layers: Vec<(&str, f64)> = Vec::new();
    for (s, &o) in spans.iter().zip(&own) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, t)) => *t += o as f64 * 1e-9,
            None => layers.push((layer, o as f64 * 1e-9)),
        }
    }
    eprintln!(
        "[specbench] {}: {rounds} rounds; shadow wall {:.3} s = layer self times {:?}; fixture built in {:.1} s; spans in {}",
        workload.name,
        root_s,
        layers,
        fixture.info.build_s,
        span_path.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        digest: run::digest(pass.samples.iter().map(|s| &s.tokens)),
        metrics,
    })
}
