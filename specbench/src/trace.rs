//! Spans, and the single-threaded **shadow driver** that records them.
//!
//! The daemon's loop is private, so the benchmark cannot put spans inside
//! it. Instead the shadow replays a pass's arrival pattern through the
//! same public pieces the daemon is built from —
//! `IterationScheduler::{submit, expire, admit, admit_budgeted}`,
//! `Session::try_new_budgeted`, `BatchedVerifier::step_batch_counted`,
//! `TimingConfig::iteration_s` — with a span around each call. Its
//! outputs must equal the daemon's, token for token.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use specinfer_model::Transformer;
use specinfer_serving::{IterationScheduler, Request, RequestId, ServerConfig};
use specinfer_spec::{BatchItem, BatchedVerifier, EngineConfig, InferenceMode, Session, StepStats};
use specinfer_tokentree::TokenId;

use crate::fixture::Models;
use crate::workloads::{Drive, RequestSpec};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the request the call served, when it served one.
    pub request: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory; `write_jsonl` dumps them at exit. A disabled
/// recorder reads no clock and stores nothing, so the same shadow code
/// gives the untraced timing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: Option<u32>) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            request,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Checks the span tree: ids are positions, every parent exists, comes
/// first and encloses its child.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id as usize != i || s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) is malformed", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p as usize)
                .filter(|_| p < s.id)
                .ok_or_else(|| format!("span {i} ({}) has no parent {p}", s.name))?;
            if parent.start_ns > s.start_ns || parent.end_ns < s.end_ns {
                return Err(format!(
                    "span {i} ({}) is not enclosed by its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.request)
        )?;
    }
    out.flush()
}

/// The name of the span that encloses a whole shadow replay.
pub const ROOT: &str = "harness.shadow";

/// What one shadow replay produced.
#[derive(Debug)]
pub struct Shadow {
    pub wall_s: f64,
    /// Truncated outputs, by request index.
    pub outputs: Vec<Vec<TokenId>>,
    pub iterations: usize,
    /// End time (seconds since the replay began) and tokens emitted, per
    /// iteration.
    pub marks: Vec<(f64, usize)>,
    /// Submission → admission, per request, seconds.
    pub queue_wait_s: Vec<f64>,
    /// Largest sum of live KV slab capacities (LLM rows) in any iteration.
    pub peak_kv_rows: usize,
    /// Largest number of live sessions in any iteration.
    pub peak_sessions: usize,
    /// Iterations that ran with a free slot while requests were queued:
    /// the slab budget, not the batch limit, stopped admission.
    pub budget_bound_iterations: usize,
}

/// Which requests are ready to be submitted, per arrival pattern.
struct Arrivals {
    drive: Drive,
    len: usize,
    ready: VecDeque<usize>,
}

impl Arrivals {
    fn new(drive: Drive, len: usize) -> Self {
        let ready = match drive {
            Drive::Closed { clients } => (0..clients.min(len)).collect(),
            Drive::Offline => (0..len).collect(),
        };
        Arrivals { drive, len, ready }
    }

    /// A closed-loop client sends its next request once this one is
    /// answered.
    fn answered(&mut self, index: usize) {
        if let Drive::Closed { clients } = self.drive {
            if index + clients < self.len {
                self.ready.push_back(index + clients);
            }
        }
    }
}

struct Live {
    index: usize,
    session: Session,
    config: EngineConfig,
}

/// Replays `requests` through the daemon's building blocks on the
/// calling thread, with a span around every call into a layer.
pub fn shadow(
    models: &Models,
    pool: bool,
    config: &ServerConfig,
    drive: Drive,
    requests: &[RequestSpec],
    rec: &mut Recorder,
) -> Result<Shadow, String> {
    let llm: &Transformer = &models.llm;
    let ssms: Vec<&Transformer> = if pool { models.ssm_refs() } else { Vec::new() };
    let verifier = BatchedVerifier::new();
    let mut scheduler =
        IterationScheduler::with_policy(config.max_batch_size, config.queue.clone());

    // Slab sizing and admission pricing exactly as the daemon does them:
    // a session's slab holds its worst case, admission charges a fresh
    // adaptive request its initial rung and a live one its current rung.
    let spec_rows = config.engine.speculation_rows();
    let max_ctx = llm.config().max_seq_len;
    let (adaptive, admit_spec_rows) = match &config.engine.mode {
        InferenceMode::Adaptive { config: a } => {
            (true, a.admission_rows(config.engine.decode.is_greedy()))
        }
        _ => (false, spec_rows),
    };

    let mut arrivals = Arrivals::new(drive, requests.len());
    let mut submitted_s = vec![0.0f64; requests.len()];
    let mut index_of_id: Vec<usize> = Vec::with_capacity(requests.len());
    let mut outputs: Vec<Vec<TokenId>> = vec![Vec::new(); requests.len()];
    let mut answered = 0usize;
    let mut active: Vec<Live> = Vec::new();
    let mut clock = 0.0f64;
    let mut out = Shadow {
        wall_s: 0.0,
        outputs: Vec::new(),
        iterations: 0,
        marks: Vec::new(),
        queue_wait_s: Vec::with_capacity(requests.len()),
        peak_kv_rows: 0,
        peak_sessions: 0,
        budget_bound_iterations: 0,
    };

    let started = Instant::now();
    rec.enter(ROOT, None);
    while answered < requests.len() {
        while let Some(i) = arrivals.ready.pop_front() {
            let spec = &requests[i];
            rec.enter("serving.submit", Some(i as u32));
            scheduler.submit(Request {
                id: RequestId(index_of_id.len() as u64),
                prompt: spec.prompt.clone(),
                max_new_tokens: spec.max_new_tokens,
                arrival_s: clock,
                deadline_s: None,
                dataset: None,
            });
            rec.exit();
            submitted_s[i] = started.elapsed().as_secs_f64();
            index_of_id.push(i);
        }

        rec.enter("serving.expire", None);
        let expired = scheduler.expire(clock);
        rec.exit();
        if !expired.is_empty() {
            return Err("shadow: a request without a deadline expired".into());
        }
        rec.enter("serving.admit", None);
        let admitted = match config.slab_rows {
            Some(budget) => {
                let used: usize = active
                    .iter()
                    .map(|a| match adaptive {
                        true => (a.session.kv_rows()
                            + a.session.current_speculation_rows(&a.config))
                        .min(a.session.kv_capacity()),
                        false => a.session.kv_capacity(),
                    })
                    .sum();
                scheduler.admit_budgeted(clock, active.len(), budget.saturating_sub(used), |r| {
                    (r.kv_rows() + admit_spec_rows).min(max_ctx)
                })
            }
            None => scheduler.admit(clock, active.len()),
        };
        rec.exit();
        for request in admitted {
            let index = index_of_id[request.id.0 as usize];
            out.queue_wait_s
                .push(started.elapsed().as_secs_f64() - submitted_s[index]);
            let kv_rows = match config.slab_rows {
                Some(_) => (request.kv_rows() + spec_rows).min(max_ctx),
                None => usize::MAX,
            };
            rec.enter("spec.session_new", Some(index as u32));
            let session = Session::try_new_budgeted(
                llm,
                &ssms,
                &request.prompt,
                config.seed.wrapping_add(request.id.0),
                kv_rows,
            );
            rec.exit();
            let mut session =
                session.map_err(|e| format!("shadow: request {index} rejected: {e}"))?;
            session.set_degradation_policy(config.degradation);
            let mut engine = config.engine.clone();
            engine.max_new_tokens = request.max_new_tokens;
            active.push(Live {
                index,
                session,
                config: engine,
            });
        }

        if active.is_empty() {
            return Err("shadow: nothing live, nothing admitted, requests outstanding".into());
        }

        let batch = active.len();
        out.budget_bound_iterations +=
            usize::from(batch < config.max_batch_size && scheduler.has_pending());
        let mut items: Vec<BatchItem<'_>> = active
            .iter_mut()
            .map(|a| BatchItem::new(&mut a.session, &a.config))
            .collect();
        rec.enter("spec.step_batch", None);
        let (stats, _rows) = verifier.step_batch_counted(llm, &ssms, &mut items);
        rec.exit();
        drop(items);

        let stepped: Vec<StepStats> = stats.into_iter().flatten().collect();
        let mean_tree = stepped.iter().map(|s| s.tree_size as f64).sum::<f64>() / batch as f64;
        let mean_ctx = active
            .iter()
            .map(|a| a.session.tokens().len())
            .sum::<usize>()
            / batch;
        rec.enter("sim.iteration_s", None);
        clock += config
            .timing
            .iteration_s(&config.engine.mode, batch, mean_tree, mean_ctx);
        rec.exit();

        rec.enter("harness.retire", None);
        out.iterations += 1;
        out.peak_sessions = out.peak_sessions.max(batch);
        out.peak_kv_rows = out
            .peak_kv_rows
            .max(active.iter().map(|a| a.session.kv_capacity()).sum());
        out.marks.push((
            started.elapsed().as_secs_f64(),
            stepped.iter().map(|s| s.emitted).sum(),
        ));
        let mut i = 0;
        while i < active.len() {
            if active[i].session.is_finished() {
                let done = active.swap_remove(i);
                let mut tokens = done.session.into_result().generated().to_vec();
                tokens.truncate(requests[done.index].max_new_tokens);
                outputs[done.index] = tokens;
                arrivals.answered(done.index);
                answered += 1;
            } else {
                i += 1;
            }
        }
        rec.exit();
    }
    rec.exit();
    out.wall_s = started.elapsed().as_secs_f64();
    out.outputs = outputs;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_validation_catches_escapes() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            request: None,
        };
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 90),
        ];
        assert!(validate(&spans).is_ok());
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);

        let mut escaped = spans.clone();
        escaped[2].end_ns = 45;
        assert!(validate(&escaped).is_err());
        let mut orphan = spans;
        orphan[1].parent = Some(7);
        assert!(validate(&orphan).is_err());
    }

    #[test]
    fn a_disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        rec.enter("a", None);
        rec.exit();
        assert!(rec.spans().is_empty());
        let mut rec = Recorder::new(true);
        rec.enter("a", None);
        rec.enter("b", Some(3));
        rec.exit();
        rec.exit();
        assert!(validate(rec.spans()).is_ok());
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
