//! The differential oracle: one enumerator of configurations, one
//! reference, and each contract written once.
//!
//! SpecInfer's contract is that tree verification changes speed and
//! never output. A configuration ([`Cell`]) fixes the models, the mode,
//! the SSM pool, the decode rule, a fault source and a set of requests.
//! Its reference is serial stepping: each request in a `Session` of its
//! own with a full KV slab, one `step_faulted` at a time. Every other
//! drive of the same cell — right-sized slabs, lockstep batches through
//! both first stages, ragged arrive/retire schedules, trace replay and
//! the live daemon — must reproduce that reference bit for bit, in
//! tokens and in `StepStats`. Greedy cells are also held to
//! the oracle proper: incremental decoding of the same prompts on the
//! same SIMD backend. Stochastic cells are held to pinned digests and to
//! Theorem 4.2 end to end.
//!
//! The serving loop must also survive whatever sizes a client sends
//! (`Work::Hostile`) and never hang: every trace replay and daemon drive
//! runs under a wall-clock watchdog.
//!
//! A cell that fails is reported by its `Debug` line, which names every
//! knob, so the line is its own reproduction recipe.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use specinfer::model::{sampler, DecodeMode, ModelConfig, Transformer};
use specinfer::serving::{
    BurstSpec, FaultPlan, FaultSpec, QueuePolicy, RequestId, RequestOutcome, Response, ServeReport,
    Server, ServerConfig, ServerDaemon, Ticket, TimingConfig,
};
use specinfer::spec::{
    AdaptiveConfig, BatchItem, BatchRowStats, BatchedVerifier, ControllerSnapshot,
    DegradationPolicy, DynamicExpansionConfig, EngineConfig, InferenceMode, Session, SpecEngine,
    StepFault, StepStats, StochasticVerifier,
};
use specinfer::tensor::ops::total_variation;
use specinfer::tokentree::{ExpansionConfig, TokenId};
use specinfer::workloads::trace::{Trace, TraceRequest};
use specinfer::workloads::{Dataset, PromptSpec};
use RequestOutcome::{Cancelled, Completed, DeadlineMissed, Rejected};

// ---------------------------------------------------------------------
// The configurations.
// ---------------------------------------------------------------------

/// Which models a cell runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    /// Smoke LLM 50 and one-layer SSMs 51–53 with a 128-row context: the
    /// family the digests are pinned on.
    Roomy,
    /// The same seeds with a 14-row context, a few rows above the longest
    /// prompt: drafts stop fitting mid-run and contexts run out.
    Tight,
    /// Smoke LLM 100 and SSM 101: the family of the pinned row counts.
    Rows,
    /// A d_ff-8192 LLM whose feed-forward packs are shared with the
    /// worker pool at two threads, with a d_model-16 SSM.
    Wide,
}

/// An LLM and its pool of SSMs.
struct World {
    llm: Arc<Transformer>,
    ssms: Vec<Arc<Transformer>>,
}

impl Family {
    /// The context window of every model of the family.
    fn ctx(self) -> usize {
        match self {
            Family::Tight => 14,
            _ => 128,
        }
    }

    fn world(self) -> World {
        let smoke = ModelConfig {
            max_seq_len: self.ctx(),
            ..ModelConfig::smoke()
        };
        let wide = ModelConfig {
            vocab_size: 64,
            d_model: 40,
            d_ff: 8192,
            ..smoke.clone()
        };
        let (llm, llm_seed, ssm_seeds, (d_model, d_ff)) = match self {
            Family::Roomy | Family::Tight => (smoke, 50, 51..54, (8, 16)),
            Family::Rows => (smoke, 100, 101..102, (8, 16)),
            Family::Wide => (wide, 41, 141..142, (16, 32)),
        };
        let ssm = ModelConfig {
            d_model,
            n_layers: 1,
            d_ff,
            ..llm.clone()
        };
        let ssms = ssm_seeds.map(|seed| Arc::new(Transformer::from_seed(ssm.clone(), seed)));
        World {
            llm: Arc::new(Transformer::from_seed(llm, llm_seed)),
            ssms: ssms.collect(),
        }
    }
}

/// The SSMs that draft.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pool {
    Empty,
    One,
    Three,
    /// The LLM drafts for itself.
    Llm,
}

impl World {
    fn pool(&self, pool: Pool) -> Vec<Arc<Transformer>> {
        match pool {
            Pool::Empty => Vec::new(),
            Pool::One => self.ssms[..1].to_vec(),
            Pool::Three => self.ssms[..3].to_vec(),
            Pool::Llm => vec![self.llm.clone()],
        }
    }
}

fn refs(pool: &[Arc<Transformer>]) -> Vec<&Transformer> {
    pool.iter().map(|m| &**m).collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Decode {
    Greedy,
    /// Multi-step speculative sampling.
    Mss,
    /// Stochastic decoding under the naive-sampling verifier.
    Naive,
}

#[derive(Clone, Debug)]
enum Faults {
    None,
    /// A `StepFault` per (request, that request's own step count), drawn
    /// from this seed: one in eight stalls, one OOMs, one drafts garbage.
    Mask(u64),
    /// A serving fault plan. Engine drives read its step faults; trace
    /// replay and the daemon also apply its cancellations, and replay its
    /// slowdowns and burst.
    Plan(FaultPlan),
}

/// One request: prompt, budget, and the iteration from which a ragged
/// drive may admit it.
#[derive(Clone, Debug)]
struct Req {
    prompt: Vec<TokenId>,
    max_new: usize,
    arrival: usize,
}

/// Which requests a cell decodes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Work {
    /// Eight heterogeneous prompts (2–6 tokens), budgets (1–14) and
    /// staggered arrivals.
    Mixed,
    /// `[4, 9, 2, 6]` three times, 48 tokens each.
    Digest,
    /// Four three-token prompts, 12 tokens each.
    Rows,
    /// Two four-token prompts, 16 tokens each.
    Wide,
    /// `Mixed`'s requests followed by five no client should send: an
    /// empty prompt, a prompt one token longer than the context, one
    /// exactly as long, and two ordinary prompts asking for no tokens and
    /// for `usize::MAX` tokens.
    Hostile,
}

/// How many requests `Work::Mixed` holds.
const MIXED: usize = 8;

impl Work {
    /// The requests, for models with a context of `ctx` rows.
    fn requests(self, ctx: usize) -> Vec<Req> {
        let req = |prompt: Vec<TokenId>, max_new, arrival| Req {
            prompt,
            max_new,
            arrival,
        };
        match self {
            Work::Mixed => {
                let lens = [2, 5, 3, 6, 4, 2, 6, 3];
                let budgets = [12, 3, 9, 1, 14, 6, 10, 4];
                let arrivals = [0, 0, 0, 1, 1, 2, 4, 6];
                let prompt =
                    |i, len| (0..len).map(move |p| ((1 + i * 5 + p * 3) % 31 + 1) as TokenId);
                let req = |i: usize| req(prompt(i, lens[i]).collect(), budgets[i], arrivals[i]);
                (0..MIXED).map(req).collect()
            }
            Work::Digest => vec![req(vec![4, 9, 2, 6], 48, 0); 3],
            Work::Rows => (0..4)
                .map(|b| req(vec![1 + b, 2, 3 + b % 5], 12, 0))
                .collect(),
            Work::Wide => vec![req(vec![2, 7, 1, 8], 16, 0), req(vec![3, 1, 4, 1], 16, 0)],
            Work::Hostile => {
                let long = |len| (0..len).map(|p| (p % 31 + 1) as TokenId).collect();
                let mut reqs = Work::Mixed.requests(ctx);
                reqs.extend([
                    req(Vec::new(), 4, 0),
                    req(long(ctx + 1), 4, 0),
                    req(long(ctx), 4, 0),
                    req(vec![3, 1, 4], 0, 0),
                    req(vec![2, 7, 1], usize::MAX, 0),
                ]);
                reqs
            }
        }
    }
}

/// One configuration of the cross product.
#[derive(Clone, Debug)]
struct Cell {
    family: Family,
    work: Work,
    mode: InferenceMode,
    pool: Pool,
    decode: Decode,
    faults: Faults,
    /// Request `i` decodes with seed `seed + i`, as the server seeds it.
    seed: u64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Cell {
    /// A fault-free cell.
    fn new(family: Family, work: Work, mode: InferenceMode, pool: Pool, decode: Decode) -> Cell {
        Cell {
            family,
            work,
            mode,
            pool,
            decode,
            faults: Faults::None,
            seed: 0,
        }
    }

    fn engine(&self, max_new_tokens: usize) -> EngineConfig {
        let (decode, verifier) = match self.decode {
            Decode::Greedy => (DecodeMode::Greedy, StochasticVerifier::MultiStep),
            Decode::Mss => (DecodeMode::stochastic(), StochasticVerifier::MultiStep),
            Decode::Naive => (DecodeMode::stochastic(), StochasticVerifier::Naive),
        };
        EngineConfig {
            decode,
            verifier,
            mode: self.mode.clone(),
            max_new_tokens,
            eos_token: None,
        }
    }

    fn plan(&self) -> Option<&FaultPlan> {
        match &self.faults {
            Faults::Plan(plan) => Some(plan),
            _ => None,
        }
    }

    fn fault(&self, id: usize, step: usize) -> StepFault {
        match &self.faults {
            Faults::None => StepFault::default(),
            Faults::Mask(seed) => {
                let h = mix(mix(seed ^ id as u64) ^ step as u64);
                StepFault {
                    ssm_stall: h % 8 == 5,
                    kv_oom: h % 8 == 6,
                    ssm_garbage: (h % 8 == 7).then_some(h),
                }
            }
            Faults::Plan(plan) => plan
                .step_fault(RequestId(id as u64), step)
                .unwrap_or_default(),
        }
    }

    /// The cell's requests, a fault plan's burst included (its ids follow
    /// the trace's, as in `Server::serve_trace`).
    fn requests(&self) -> Vec<Req> {
        let mut reqs = self.work.requests(self.family.ctx());
        let burst = self.plan().map(|p| p.burst_requests(reqs.len() as u64));
        reqs.extend(burst.into_iter().flatten().map(|r| Req {
            prompt: r.prompt,
            max_new: r.max_new_tokens,
            arrival: 0,
        }));
        reqs
    }

    fn burst_len(&self) -> usize {
        self.plan()
            .and_then(FaultPlan::burst)
            .map_or(0, |b| b.count)
    }

    /// The depth every step drafts whole when the LLM drafts a static
    /// shape for itself under greedy decoding.
    fn self_depth(&self) -> Option<usize> {
        if self.pool != Pool::Llm || self.decode != Decode::Greedy {
            return None;
        }
        match &self.mode {
            InferenceMode::SequenceSpeculative { depth } => Some(*depth),
            InferenceMode::TreeSpeculative { expansion } => Some(expansion.depth()),
            _ => None,
        }
    }
}

fn tree(widths: &[usize]) -> InferenceMode {
    let expansion = ExpansionConfig::new(widths.to_vec());
    InferenceMode::TreeSpeculative { expansion }
}

fn paper() -> InferenceMode {
    let expansion = ExpansionConfig::paper_default();
    InferenceMode::TreeSpeculative { expansion }
}

fn dynamic() -> InferenceMode {
    let config = DynamicExpansionConfig::default();
    InferenceMode::DynamicTree { config }
}

fn adaptive(config: AdaptiveConfig) -> InferenceMode {
    InferenceMode::Adaptive { config }
}

/// Every mode, the random parts drawn from `salt`: a small tree of depth
/// 1–4 and widths 1–3, and a sequence of depth 1–6.
fn modes(salt: u64) -> [InferenceMode; 7] {
    let h = |k: u64| mix(salt ^ (k << 32));
    let widths: Vec<usize> = (0..1 + h(0) % 4)
        .map(|d| 1 + (h(1 + d) % 3) as usize)
        .collect();
    let depth = 1 + (h(14) % 6) as usize;
    [
        InferenceMode::Incremental,
        InferenceMode::SequenceSpeculative { depth: 4 },
        tree(&widths),
        paper(),
        dynamic(),
        adaptive(AdaptiveConfig::default()),
        InferenceMode::SequenceSpeculative { depth },
    ]
}

/// The cross product for one decode rule: both contexts × every pool ×
/// {no faults twice, a fault mask twice, a fault plan} × every mode. The
/// repeated rows differ only in their seeds.
fn cross_product(decode: Decode) -> Vec<Cell> {
    // Every engine fault class, slow verifier passes and cancellations.
    let mixed = FaultSpec {
        ssm_garbage_rate: 0.3,
        ssm_stall_rate: 0.2,
        kv_oom_rate: 0.1,
        verifier_slowdown_rate: 0.3,
        verifier_slowdown_factor: 3.0,
        cancel_rate: 0.25,
        max_cancel_tokens: 6,
    };
    let mut cells = Vec::new();
    for family in [Family::Roomy, Family::Tight] {
        for pool in [Pool::Empty, Pool::One, Pool::Three, Pool::Llm] {
            for faults in [0, 0, 1, 1, 2] {
                // The faults and random modes of this row of cells are
                // drawn from its first cell's seed.
                let row = 1000 + cells.len() as u64;
                let faults = match faults {
                    0 => Faults::None,
                    1 => Faults::Mask(row),
                    _ => Faults::Plan(FaultPlan::new(row, mixed.clone())),
                };
                for mode in modes(row) {
                    let cell = Cell::new(family, Work::Mixed, mode, pool, decode);
                    let seed = 1000 + cells.len() as u64;
                    cells.push(Cell {
                        faults: faults.clone(),
                        seed,
                        ..cell
                    });
                }
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// The drives.
// ---------------------------------------------------------------------

/// What a drive observed of one request: its tokens, prompt included,
/// and its steps.
type Out = (Vec<TokenId>, Vec<StepStats>);

fn out(session: Session) -> Out {
    let steps = session.steps().to_vec();
    (session.into_result().tokens, steps)
}

/// One request of the reference run.
struct Solo {
    out: Out,
    controller: Option<ControllerSnapshot>,
    /// Whether the last step finished the session (rather than a later
    /// attempt finding the context full).
    finished: bool,
}

#[derive(Clone, Copy)]
enum Slab {
    /// The model's whole context.
    Full,
    /// `prompt + max_new +` the pool's worst-case speculation rows.
    Sized,
}

/// The KV budget of right-sized serving slabs: one to six sessions'
/// worth, depending on the shape.
const SLAB_ROWS: usize = 96;
const MAX_BATCH: usize = 3;

/// A cell bound to its models and requests.
#[derive(Clone, Copy)]
struct Run<'a> {
    world: &'a World,
    cell: &'a Cell,
    reqs: &'a [Req],
}

impl Run<'_> {
    fn pool(&self) -> Vec<Arc<Transformer>> {
        self.world.pool(self.cell.pool)
    }

    fn session(&self, ssms: &[&Transformer], id: usize, req: &Req, slab: Slab) -> Session {
        let spec = self
            .cell
            .engine(req.max_new)
            .pool_speculation_rows(ssms.len());
        let rows = match slab {
            Slab::Full => usize::MAX,
            Slab::Sized => req.prompt.len() + req.max_new + spec,
        };
        let seed = self.cell.seed + id as u64;
        Session::try_new_budgeted(&self.world.llm, ssms, &req.prompt, seed, rows)
            .expect("oracle prompts are valid")
    }

    /// The reference: each request alone, one `step_faulted` at a time,
    /// with the per-step and per-session contracts checked as it goes.
    fn serial(&self, slab: Slab) -> Vec<Solo> {
        let (pool, cell) = (self.pool(), self.cell);
        let ssms = refs(&pool);
        let solo = |(id, req): (usize, &Req)| {
            let cfg = cell.engine(req.max_new);
            let worst = cfg.pool_speculation_rows(ssms.len());
            let mut s = self.session(&ssms, id, req, slab);
            loop {
                let fault = cell.fault(id, s.steps().len());
                let Some(step) = s.step_faulted(&self.world.llm, &ssms, &cfg, fault) else {
                    break;
                };
                check_step(cell, &s, step, fault, worst);
            }
            check_session(self, &s, req, ssms.len());
            Solo {
                controller: s.controller_snapshot(),
                finished: s.is_finished(),
                out: out(s),
            }
        };
        self.reqs.iter().enumerate().map(solo).collect()
    }

    /// The requests in lockstep batches of `batch` through
    /// `BatchedVerifier::new()`; each batch steps until all of its
    /// sessions have finished. With `mate`, every batch leads with one
    /// more session under another decode rule, mode and budget, which
    /// must not leak into its batch-mates. Returns the outputs, the
    /// verify-row accounting, the LLM forwards it expects and every
    /// session's final KV rows.
    fn lockstep(&self, batch: usize, mate: bool) -> Drive {
        let (pool, cell, reqs) = (self.pool(), self.cell, self.reqs);
        let ssms = refs(&pool);
        let mut configs: Vec<EngineConfig> = reqs.iter().map(|r| cell.engine(r.max_new)).collect();
        let decode = match cell.decode {
            Decode::Greedy => Decode::Mss,
            Decode::Mss | Decode::Naive => Decode::Greedy,
        };
        let mate = mate.then(|| Cell {
            mode: tree(&[2, 1]),
            decode,
            ..cell.clone()
        });
        let verifier = BatchedVerifier::new();
        let mut drive = Drive::default();
        for start in (0..reqs.len()).step_by(batch) {
            let mut ids: Vec<usize> = (start..(start + batch).min(reqs.len())).collect();
            let open = |&id: &usize| self.session(&ssms, id, &reqs[id], Slab::Full);
            let mut sessions: Vec<Session> = ids.iter().map(open).collect();
            if let Some(mate) = &mate {
                let req = Req {
                    prompt: vec![9, 8, 7],
                    max_new: 5 + start,
                    arrival: 0,
                };
                let run = Run {
                    cell: mate,
                    ..*self
                };
                sessions.insert(0, run.session(&ssms, 0, &req, Slab::Full));
                ids.insert(0, configs.len());
                configs.push(mate.engine(req.max_new));
            }
            while sessions.iter().any(|s| !s.is_finished()) {
                let done: Vec<bool> = sessions.iter().map(Session::is_finished).collect();
                // A session that has not stepped yet forwards its prompt,
                // bar the last token, ahead of its first tree.
                let lacking: Vec<usize> = sessions
                    .iter()
                    .map(|s| match s.steps() {
                        [] => s.tokens().len() - 1,
                        _ => 0,
                    })
                    .collect();
                let mut items: Vec<BatchItem<'_>> = sessions
                    .iter_mut()
                    .zip(&ids)
                    .map(|(s, &id)| BatchItem {
                        fault: cell.fault(id, s.steps().len()),
                        session: s,
                        config: &configs[id],
                    })
                    .collect();
                let (stats, rows) = verifier.step_batch_counted(&self.world.llm, &ssms, &mut items);
                drop(items);
                drive.rows.absorb(&rows);
                for (stat, done) in stats.iter().zip(done) {
                    assert!(!done || stat.is_none(), "a finished session yields None");
                }
                // One fused forward per iteration with a lane, fault-forced
                // root-only lanes included.
                let lanes = stats.iter().flatten().count();
                drive.forwards += usize::from(lanes > 0);
                drive.tree_rows += stats
                    .iter()
                    .flatten()
                    .map(|s| s.tree_size + 1)
                    .sum::<usize>();
                drive.prompt_rows += stats
                    .iter()
                    .zip(&lacking)
                    .filter_map(|(stat, &h)| stat.map(|_| h))
                    .sum::<usize>();
            }
            for s in sessions.into_iter().skip(usize::from(mate.is_some())) {
                drive.kv.push(s.kv_rows());
                drive.outs.push(out(s));
            }
        }
        drive
    }

    /// Arrive/retire: at most `cap` live sessions in right-sized slabs,
    /// each request admitted (oldest first) once the iteration count
    /// reaches its arrival, one `BatchedVerifier::new()` step per
    /// iteration over whoever is live, retirement as each finishes.
    fn ragged(&self, cap: usize) -> Vec<Out> {
        let (pool, cell, reqs) = (self.pool(), self.cell, self.reqs);
        let ssms = refs(&pool);
        let configs: Vec<EngineConfig> = reqs.iter().map(|r| cell.engine(r.max_new)).collect();
        let mut queue: Vec<usize> = (0..reqs.len()).collect();
        queue.sort_by_key(|&id| (reqs[id].arrival, id));
        let mut queue = queue.into_iter().peekable();
        let mut live: Vec<(usize, Session)> = Vec::new();
        let mut outs: Vec<Option<Out>> = vec![None; reqs.len()];
        for iteration in 0.. {
            while live.len() < cap {
                let Some(id) = queue.next_if(|&id| reqs[id].arrival <= iteration) else {
                    break;
                };
                live.push((id, self.session(&ssms, id, &reqs[id], Slab::Sized)));
            }
            if live.is_empty() && queue.peek().is_none() {
                break;
            }
            let mut items: Vec<BatchItem<'_>> = live
                .iter_mut()
                .map(|(id, s)| BatchItem {
                    fault: cell.fault(*id, s.steps().len()),
                    session: s,
                    config: &configs[*id],
                })
                .collect();
            let _ = BatchedVerifier::new().step_batch(&self.world.llm, &ssms, &mut items);
            drop(items);
            let (done, rest): (Vec<_>, Vec<_>) = live.drain(..).partition(|(_, s)| s.is_finished());
            live = rest;
            for (id, s) in done {
                assert!(s.kv_rows() <= s.kv_capacity(), "KV overflow");
                outs[id] = Some(out(s));
            }
        }
        outs.into_iter()
            .map(|o| o.expect("every request retires"))
            .collect()
    }

    fn server_config(&self, slab_rows: Option<usize>) -> ServerConfig {
        let cell = self.cell;
        ServerConfig {
            engine: cell.engine(0),
            max_batch_size: MAX_BATCH,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed: cell.seed,
            faults: cell.plan().cloned(),
            degradation: DegradationPolicy::serving_default(),
            // A burst overflows a bounded queue. Without one every request
            // is served whenever it is admitted, which is what lets the
            // daemon batch differently from the replay without changing a
            // response.
            queue: match cell.burst_len() {
                0 => QueuePolicy::unbounded(),
                _ => QueuePolicy::bounded(4),
            },
            slab_rows,
        }
    }

    /// Trace replay of the requests; the server adds a plan's burst.
    fn replay(&self, slab_rows: Option<usize>) -> ServeReport {
        let trace = &self.reqs[..self.reqs.len() - self.cell.burst_len()];
        let request = |r: &Req| TraceRequest {
            arrival_s: 0.0,
            prompt: PromptSpec {
                tokens: r.prompt.clone(),
                max_new_tokens: r.max_new,
            },
            dataset: Dataset::Alpaca,
        };
        let trace = Trace {
            requests: trace.iter().map(request).collect(),
        };
        let (llm, pool) = (self.world.llm.clone(), self.pool());
        let config = self.server_config(slab_rows);
        watchdog(self.cell, move || {
            Server::new(&llm, refs(&pool), config).serve_trace(&trace)
        })
    }

    /// The live daemon, fed every request in order. `interrupted` cancels
    /// request 0 as soon as all are submitted and gives request 2 a
    /// deadline no iteration can meet.
    fn daemon(&self, interrupted: bool, slab_rows: Option<usize>) -> (Vec<Response>, ServeReport) {
        let config = self.server_config(slab_rows);
        let (llm, pool, reqs) = (self.world.llm.clone(), self.pool(), self.reqs.to_vec());
        watchdog(self.cell, move || {
            let daemon = ServerDaemon::spawn(llm, pool, config).expect("daemon spawns");
            let submit = |(id, r): (usize, &Req)| {
                let ticket = match (interrupted, id) {
                    (true, 2) => daemon.submit_with_deadline(r.prompt.clone(), r.max_new, 1e-6),
                    _ => daemon.submit(r.prompt.clone(), r.max_new),
                };
                ticket.expect("daemon accepts")
            };
            let tickets: Vec<_> = reqs.iter().enumerate().map(submit).collect();
            if interrupted {
                daemon.cancel(tickets[0].id);
            }
            let wait = |t: Ticket| {
                let id = t.id;
                t.wait()
                    .unwrap_or_else(|e| panic!("{id} at slab {slab_rows:?} got no response: {e}"))
            };
            let responses = tickets.into_iter().map(wait).collect();
            let report = daemon.shutdown().expect("clean shutdown");
            // Live stamps are wall seconds since spawn.
            assert!(report.makespan_s <= report.wall_s, "{report:?}");
            (responses, report)
        })
    }
}

/// Wall-clock bound on one serving drive, far above any drive's normal
/// time: a drive still running after it is hung.
const DRIVE_BOUND: Duration = Duration::from_secs(60);

/// Set once a drive has hung. Every later drive then fails at once
/// instead of waiting out a bound of its own.
static HUNG: AtomicBool = AtomicBool::new(false);

/// Runs a serving drive of `cell` on a thread of its own and fails,
/// naming the cell, unless it returns within [`DRIVE_BOUND`]. A hung
/// drive's thread is left behind; a panic in the drive is re-raised.
fn watchdog<T: Send + 'static>(cell: &Cell, drive: impl FnOnce() -> T + Send + 'static) -> T {
    assert!(
        !HUNG.load(Ordering::Relaxed),
        "not run: an earlier drive hung"
    );
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = drive();
        let _ = done.send(());
        out
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(DRIVE_BOUND) {
        HUNG.store(true, Ordering::Relaxed);
        panic!("hung: a drive still runs after {DRIVE_BOUND:?}: {cell:?}");
    }
    handle.join().unwrap_or_else(|panic| resume_unwind(panic))
}

/// What a batched drive observed.
#[derive(Default)]
struct Drive {
    outs: Vec<Out>,
    rows: BatchRowStats,
    /// Iterations with a lane: the LLM forwards one fused forward per
    /// iteration makes.
    forwards: usize,
    /// Root plus drafted nodes of every lane-step: the rows of
    /// whole-tree forwards.
    tree_rows: usize,
    /// Prompt tokens bar the last of every session's first step: the
    /// rows that rode ahead of the trees.
    prompt_rows: usize,
    kv: Vec<usize>,
}

// ---------------------------------------------------------------------
// The contracts.
// ---------------------------------------------------------------------

/// Every step of every reference run.
fn check_step(cell: &Cell, s: &Session, step: StepStats, fault: StepFault, worst: usize) {
    assert_eq!(
        step.emitted,
        step.accepted + 1,
        "emitted = accepted + bonus"
    );
    if fault.ssm_stall || fault.kv_oom {
        assert_eq!(step.tree_size, 0, "a stalled or OOM step drafts nothing");
    }
    assert!(step.tree_size < worst, "{step:?} outgrows {worst} rows");
    assert!(s.kv_rows() <= s.kv_capacity(), "KV overflow");
    // A fixed shape, routed or not, drafts every step it fits that no
    // fault forced root-only.
    let fits = s.kv_rows() - step.emitted + worst <= s.kv_capacity();
    let shape = matches!(
        cell.mode,
        InferenceMode::SequenceSpeculative { depth: 1.. }
            | InferenceMode::TreeSpeculative { .. }
            | InferenceMode::Adaptive { .. }
    );
    if shape && cell.pool != Pool::Empty && fits && !(fault.ssm_stall || fault.kv_oom) {
        assert!(step.tree_size > 0, "a fixed shape drafts whenever it fits");
    }
    // The LLM drafting a static shape for itself drafts all of it
    // whenever it fits, and has it accepted whole unless it was garbage.
    if let Some(depth) = cell.self_depth() {
        if fits && fault.is_noop() {
            assert_eq!(step.tree_size, worst - 1, "a fitting draft is drafted");
        }
        if step.tree_size > 0 && fault.ssm_garbage.is_none() {
            assert_eq!(step.accepted, depth, "self-speculation accepts it all");
        }
    }
}

/// Every finished reference session.
fn check_session(run: &Run, s: &Session, req: &Req, n_ssms: usize) {
    let cell = run.cell;
    let ctx = run.world.llm.config().max_seq_len;
    let room = req.max_new.min(ctx - req.prompt.len());
    assert!(
        s.generated().len() >= room,
        "stops at its budget or a full context"
    );
    // Telemetry exists exactly for adaptive sessions with SSMs: every
    // step is root-only or drafted, and every draft routed to one SSM.
    let adaptive = matches!(cell.mode, InferenceMode::Adaptive { .. }) && n_ssms > 0;
    let snap = s.controller_snapshot();
    assert_eq!(
        snap.is_some(),
        adaptive,
        "an adaptive plan reports its controller"
    );
    if let Some(snap) = snap {
        assert_eq!(snap.ssm_routes.len(), n_ssms, "one route slot per SSM");
        let drafted = s.steps().iter().filter(|st| st.tree_size > 0).count();
        let root_only = s.steps().len() - drafted;
        assert_eq!(snap.rung_decisions, [root_only, drafted]);
        assert_eq!(snap.ssm_routes.iter().sum::<usize>(), drafted);
    }
}

/// The engine drives of a cell against its reference; returns the
/// reference.
fn check_engine(run: &Run) -> Vec<Solo> {
    let solos = run.serial(Slab::Full);
    let reference: Vec<Out> = solos.iter().map(|s| s.out.clone()).collect();
    let sized: Vec<Out> = run.serial(Slab::Sized).into_iter().map(|s| s.out).collect();
    assert_eq!(sized, reference, "a right-sized slab changes nothing");
    // A batch or cap at or above the request count runs everyone at
    // once, exactly as the one before it did.
    let distinct = |sizes: &'static [usize]| {
        let after = |i: usize| i == 0 || sizes[i - 1] < run.reqs.len();
        sizes
            .iter()
            .enumerate()
            .filter(move |&(i, _)| after(i))
            .map(|(_, &s)| s)
    };
    for batch in distinct(&[1, 2, 4, 8]) {
        let drive = run.lockstep(batch, true);
        assert_eq!(drive.outs, reference, "batch {batch}");
        // Every tree is forwarded whole, each prompt rides its session's
        // first forward, and the weights are read once per iteration,
        // fault cells included.
        let rows = drive.rows;
        assert_eq!(rows.forwarded_rows(), drive.tree_rows, "batch {batch}");
        assert_eq!(rows.prompt_rows, drive.prompt_rows, "batch {batch}");
        assert_eq!(rows.llm_forwards, drive.forwards, "batch {batch}: {rows:?}");
    }
    for cap in distinct(&[2, 8, 32]) {
        assert_eq!(run.ragged(cap), reference, "ragged at cap {cap}");
    }
    // One drafter leaves the router nothing to pick: an adaptive session
    // is then a depth-4 sequence, in tokens and in every step.
    let one = matches!(run.cell.pool, Pool::One | Pool::Llm);
    if one && matches!(run.cell.mode, InferenceMode::Adaptive { .. }) {
        let sequence = Cell {
            mode: InferenceMode::SequenceSpeculative { depth: 4 },
            ..run.cell.clone()
        };
        let sequence = Run {
            cell: &sequence,
            ..*run
        };
        let outs: Vec<Out> = sequence
            .serial(Slab::Full)
            .into_iter()
            .map(|s| s.out)
            .collect();
        assert_eq!(outs, reference, "one-SSM adaptive is sequence(4)");
    }
    if run.cell.decode == Decode::Greedy {
        check_incremental(run, &solos);
    }
    solos
}

/// Greedy output is incremental decoding's on the common prefix, in no
/// more LLM steps.
fn check_incremental(run: &Run, solos: &[Solo]) {
    let incremental = Cell {
        mode: InferenceMode::Incremental,
        pool: Pool::Empty,
        faults: Faults::None,
        ..run.cell.clone()
    };
    let oracle = Run {
        cell: &incremental,
        ..*run
    }
    .serial(Slab::Full);
    for (spec, inc) in solos.iter().zip(&oracle) {
        let (spec, inc) = (&spec.out, &inc.out);
        let n = spec.0.len().min(inc.0.len());
        assert_eq!(spec.0[..n], inc.0[..n], "greedy output is incremental's");
        assert!(
            spec.1.len() <= inc.1.len(),
            "speculation never adds LLM steps"
        );
    }
}

/// A response is the reference cut after the response's own step count:
/// the same steps and the tokens they emitted, and all of it if the
/// request completed. Returns that count.
fn check_cut(r: &Response, solo: &Solo, req: &Req) -> usize {
    let (tokens, steps) = &solo.out;
    let k = r.steps.len();
    assert!(k <= steps.len(), "{}: more steps than the reference", r.id);
    assert_eq!(r.steps[..], steps[..k], "{}: steps", r.id);
    let emitted: usize = steps[..k].iter().map(|s| s.emitted).sum();
    let generated = &tokens[req.prompt.len()..][..emitted];
    assert_eq!(r.generated[..], *generated, "{}: tokens", r.id);
    assert!(
        r.outcome != Completed || k == steps.len(),
        "{}: completed early",
        r.id
    );
    k
}

/// How request `id` leaves a run that only its plan interrupts: cut
/// after the first step whose tokens reach the plan's threshold, unless
/// that step finished it, or else completed.
fn expected_exit(cell: &Cell, id: usize, solo: &Solo) -> (RequestOutcome, usize) {
    let steps = &solo.out.1;
    if let Some(n) = cell
        .plan()
        .and_then(|p| p.cancel_after(RequestId(id as u64)))
    {
        let mut emitted = 0;
        for (k, s) in steps.iter().enumerate() {
            emitted += s.emitted;
            if emitted >= n && !(k + 1 == steps.len() && solo.finished) {
                return (Cancelled, k + 1);
            }
        }
    }
    (Completed, steps.len())
}

/// Every response of a serving run, in id order.
fn check_responses(run: &Run, responses: &[Response], solos: &[Solo], interrupted: bool) {
    assert_eq!(
        responses.len(),
        run.reqs.len(),
        "every request leaves exactly once"
    );
    for (id, (r, solo)) in responses.iter().zip(solos).enumerate() {
        assert_eq!(r.id, RequestId(id as u64), "ids follow submission order");
        let k = check_cut(r, solo, &run.reqs[id]);
        let exit = expected_exit(run.cell, id, solo);
        match (interrupted, id) {
            // Cut wherever the client's cancel landed.
            (true, 0) => {}
            // Finishing and the plan's cut are checked before the
            // deadline, which passes during the first iteration.
            (true, 2) if k == 1 && exit.1 == 1 => assert_eq!(r.outcome, exit.0),
            (true, 2) => {
                assert!(k <= 1, "the deadline passes in the first iteration");
                assert_eq!(r.outcome, DeadlineMissed);
            }
            // A submission refused by a full queue leaves unserved.
            _ if k == 0 && r.outcome == Rejected => {}
            _ => assert_eq!((r.outcome, k), exit, "{}: exit", r.id),
        }
    }
}

/// The counters of a serving run agree with its responses and, for a
/// run in which everything completed, with the sessions' own telemetry.
fn check_report(report: &ServeReport, solos: &[Solo]) {
    let o = report.occupancy;
    assert!((1..=MAX_BATCH).contains(&o.peak_batch), "{o:?}");
    assert!(o.mean_batch_fill > 0.0 && o.mean_slab_fill > 0.0, "{o:?}");
    assert!(report.verify_rows.forwarded_rows() > 0, "no rows");
    // The log is the clock: ordered, non-empty iterations of positive
    // length that emit every generated token and end by the makespan.
    let log = &report.iteration_log;
    assert_eq!(log.len(), report.iterations);
    let mut end = 0.0;
    for i in log {
        assert!(i.start_s >= end - 1e-12 && i.duration_s > 0.0, "{i:?}");
        assert!((1..=MAX_BATCH).contains(&i.batch), "{i:?}");
        end = i.start_s + i.duration_s;
    }
    assert!(end > 0.0 && end <= report.makespan_s + 1e-9, "{end}");
    let emitted: usize = log.iter().map(|i| i.emitted).sum();
    assert_eq!(emitted, report.total_generated());
    let after = |r: &Response| r.finish_s > r.arrival_s || r.steps.is_empty();
    assert!(report.responses.iter().all(after));
    let f = report.faults;
    assert_eq!(
        f.injected,
        f.ssm_garbage + f.ssm_stalls + f.kv_ooms + f.slowdowns
    );
    let count = |o| report.responses.iter().filter(|r| r.outcome == o).count();
    assert_eq!(f.cancellations, count(Cancelled));
    assert_eq!(f.rejected + f.invalid, count(Rejected));
    assert_eq!(f.deadline_misses, count(DeadlineMissed));
    if count(Completed) == solos.len() {
        // A whole run reports exactly its sessions' own telemetry.
        let mut controller = ControllerSnapshot::default();
        for c in solos.iter().filter_map(|s| s.controller.as_ref()) {
            controller.absorb(c);
        }
        let histograms =
            |c: &ControllerSnapshot| (c.rung_decisions.clone(), c.ssm_routes.clone(), c.probes);
        let want = histograms(&controller);
        assert_eq!(histograms(&report.controller), want, "controller");
    }
}

/// Everything a replay reports except the wall clock.
fn fingerprint(r: &ServeReport) -> String {
    let responses = r.responses.iter();
    let responses: Vec<_> = responses
        .map(|x| (x.id, x.outcome, &x.generated, &x.steps, x.finish_s))
        .collect();
    format!(
        "{:?}",
        (
            r.faults,
            r.iterations,
            r.makespan_s,
            r.verify_rows,
            responses
        )
    )
}

/// The serving drives of a cell against its reference; returns the
/// right-sized replay's report.
fn check_serving(run: &Run, solos: &[Solo]) -> ServeReport {
    let sized = run.replay(Some(SLAB_ROWS));
    for report in [&run.replay(None), &sized] {
        check_responses(run, &report.responses, solos, false);
        check_report(report, solos);
    }
    let bursty = run.cell.burst_len() > 0;
    if !bursty {
        let (responses, live) = run.daemon(false, Some(SLAB_ROWS));
        check_responses(run, &responses, solos, false);
        check_report(&live, solos);
        // The daemon may batch differently, so only the rows (not the
        // forwards) match.
        assert_eq!(
            live.verify_rows.forwarded_rows(),
            sized.verify_rows.forwarded_rows(),
            "replay and daemon forward the same rows"
        );
    }
    let Some(plan) = run.cell.plan() else {
        return sized;
    };
    let again = run.replay(Some(SLAB_ROWS));
    assert_eq!(
        fingerprint(&again),
        fingerprint(&sized),
        "a plan replays exactly"
    );
    if !bursty {
        let (responses, live) = run.daemon(true, Some(SLAB_ROWS));
        check_responses(run, &responses, solos, true);
        check_report(&live, solos);
        // Slow verifier passes cost simulated time, never tokens or
        // batches.
        let calm = FaultSpec {
            verifier_slowdown_rate: 0.0,
            ..plan.spec().clone()
        };
        let faults = Faults::Plan(FaultPlan::new(plan.seed(), calm));
        let calm_cell = Cell {
            faults,
            ..run.cell.clone()
        };
        let calm = Run {
            cell: &calm_cell,
            ..*run
        }
        .replay(Some(SLAB_ROWS));
        let shape = |r: &ServeReport| {
            let log: Vec<_> = r
                .iteration_log
                .iter()
                .map(|i| (i.batch, i.emitted))
                .collect();
            let out: Vec<_> = r
                .responses
                .iter()
                .map(|x| (x.outcome, &x.generated))
                .collect();
            format!("{log:?} {out:?}")
        };
        assert_eq!(
            shape(&calm),
            shape(&sized),
            "slowdowns change no token or batch"
        );
        assert!(sized.makespan_s >= calm.makespan_s, "slowdowns cost time");
    }
    sized
}

/// A served request stops at its budget or once every row of its
/// context is used (the KV cache holds all tokens but the last).
fn check_stop(r: &Req, generated: usize, ctx: usize) {
    let len = r.prompt.len() + generated;
    assert!(len <= ctx + 1, "{len} tokens overflow a context of {ctx}");
    assert!(
        generated >= r.max_new || len == ctx + 1,
        "stopped at {generated} of {} tokens with room left",
        r.max_new
    );
}

/// `Work::Hostile` through every drive: the serial engine, and trace
/// replay and the daemon at no slab budget, a right-sized one and one
/// row. Every request is answered exactly once; the empty and over-long
/// prompts are refused (rejected and counted as invalid by the server,
/// an `EngineError` from the engine); every other request completes and
/// stops at its budget or at a full context; and `Mixed`'s requests are
/// decoded exactly as when they run alone, and as incremental decoding.
fn check_hostile(run: &Run) {
    let (reqs, ctx) = (run.reqs, run.world.llm.config().max_seq_len);
    let mixed = Run {
        reqs: &reqs[..MIXED],
        ..*run
    };
    let solos = mixed.serial(Slab::Full);
    check_incremental(&mixed, &solos);
    let invalid = |r: &Req| r.prompt.is_empty() || r.prompt.len() > ctx;
    let pool = run.pool();
    for (id, r) in reqs.iter().enumerate() {
        let engine = SpecEngine::new(&run.world.llm, refs(&pool), run.cell.engine(r.max_new));
        let result = engine.try_generate(&r.prompt, run.cell.seed + id as u64);
        assert_eq!(result.is_err(), invalid(r), "request {id}: {result:?}");
        if let Ok(g) = result {
            check_stop(r, g.generated().len(), ctx);
            if let Some(solo) = solos.get(id) {
                assert_eq!((g.tokens, g.steps), solo.out, "request {id}: engine");
            }
        }
    }
    for slab in [None, Some(SLAB_ROWS), Some(1)] {
        let (responses, live) = run.daemon(false, slab);
        let replay = run.replay(slab);
        for report in [&live, &replay] {
            check_report(report, &solos);
            assert_eq!(report.faults.invalid, 2, "slab {slab:?}: invalid");
        }
        for responses in [&responses, &live.responses, &replay.responses] {
            assert_eq!(responses.len(), reqs.len(), "one response per request");
            for (id, (x, r)) in responses.iter().zip(reqs).enumerate() {
                assert_eq!(x.id, RequestId(id as u64), "ids follow submission order");
                if invalid(r) {
                    let answer = (x.outcome, x.generated.len(), x.steps.len());
                    assert_eq!(answer, (Rejected, 0, 0), "{} at slab {slab:?}", x.id);
                    continue;
                }
                assert_eq!(x.outcome, Completed, "{} at slab {slab:?}", x.id);
                check_stop(r, x.generated.len(), ctx);
                if let Some(solo) = solos.get(id) {
                    check_cut(x, solo, r);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Running cells.
// ---------------------------------------------------------------------

/// What a group of cells exercised. A contract that held because
/// nothing reached it proves nothing, so each test asserts its group was
/// live.
#[derive(Default, Debug)]
struct Tally {
    /// Reference steps that drafted, accepted a draft, were stalled or
    /// OOM, and drafted garbage.
    steps: [usize; 4],
    /// Serving runs' slowed iterations, SSM stalls, garbage drafts, plan
    /// cancellations and completions.
    serving: [usize; 5],
    /// Submissions a full queue refused, which only a bursty plan causes.
    refused: usize,
    /// The reference outputs of every cell but a hostile one, in order.
    references: Vec<Vec<Out>>,
}

impl Tally {
    fn add(&mut self, cell: &Cell, solos: &[Solo], report: Option<&ServeReport>) {
        for (id, solo) in solos.iter().enumerate() {
            for (k, s) in solo.out.1.iter().enumerate() {
                let f = cell.fault(id, k);
                let seen = [s.tree_size > 0, s.accepted > 0, f.ssm_stall || f.kv_oom];
                let seen = seen.into_iter().chain([f.ssm_garbage.is_some()]);
                self.steps
                    .iter_mut()
                    .zip(seen)
                    .for_each(|(n, b)| *n += usize::from(b));
            }
        }
        if let Some(r) = report {
            let f = r.faults;
            let seen = [
                f.slowdowns,
                f.ssm_stalls,
                f.ssm_garbage,
                f.cancellations,
                r.completed_len(),
            ];
            self.serving.iter_mut().zip(seen).for_each(|(n, m)| *n += m);
            self.refused += f.rejected;
        }
        self.references
            .push(solos.iter().map(|s| s.out.clone()).collect());
    }

    fn assert_live(&self) {
        let mut counts = self.steps.iter().chain(&self.serving);
        assert!(counts.all(|&n| n > 0), "idle contract: {self:?}");
    }
}

/// Every contract that applies to `cell`.
fn check_cell(world: &World, cell: &Cell, tally: &mut Tally) {
    let reqs = cell.requests();
    let run = Run {
        world,
        cell,
        reqs: &reqs,
    };
    if cell.work == Work::Hostile {
        return check_hostile(&run);
    }
    let solos = check_engine(&run);
    // A fault mask has no serving spelling.
    let report = match cell.faults {
        Faults::Mask(_) => None,
        _ => Some(check_serving(&run, &solos)),
    };
    tally.add(cell, &solos, report.as_ref());
}

/// Checks every cell, then fails with one line per failing cell.
fn run_cells(cells: &[Cell]) -> Tally {
    let mut worlds: Vec<(Family, World)> = Vec::new();
    let (mut tally, mut failed) = (Tally::default(), Vec::new());
    for cell in cells {
        if !worlds.iter().any(|(f, _)| *f == cell.family) {
            worlds.push((cell.family, cell.family.world()));
        }
        let world = &worlds
            .iter()
            .find(|(f, _)| *f == cell.family)
            .expect("built")
            .1;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check_cell(world, cell, &mut tally))) {
            let text = panic.downcast_ref::<String>().map(String::as_str);
            let text = text.or_else(|| panic.downcast_ref::<&str>().copied());
            failed.push(format!("{cell:?}: {}", text.unwrap_or("panic")));
        }
    }
    let (n, all) = (failed.len(), cells.len());
    assert!(
        failed.is_empty(),
        "{n} of {all} cells failed:\n{}",
        failed.join("\n")
    );
    tally
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

#[test]
fn greedy_cells() {
    run_cells(&cross_product(Decode::Greedy)).assert_live();
}

#[test]
fn mss_cells() {
    run_cells(&cross_product(Decode::Mss)).assert_live();
}

#[test]
fn naive_cells() {
    run_cells(&cross_product(Decode::Naive)).assert_live();
}

/// The chaos mix (SSM garbage, stalls, KV pressure, slow passes,
/// cancellations) plus a burst on a bounded queue, over eight plan
/// seeds: replay cuts exactly what each plan schedules, and the full
/// queue refuses.
#[test]
fn chaos_plans_cut_only_what_they_schedule() {
    let vocab = ModelConfig::smoke().vocab_size as u32;
    let burst = BurstSpec {
        at_s: 0.0,
        count: 5,
        prompt_len: 4,
        max_new_tokens: 10,
        vocab,
    };
    let cell = Cell::new(
        Family::Roomy,
        Work::Mixed,
        tree(&[2, 2]),
        Pool::One,
        Decode::Greedy,
    );
    let cells: Vec<Cell> = (0..8u64)
        .map(|seed| {
            let plan = FaultPlan::new(seed ^ 0xc0ffee, FaultSpec::chaos_default());
            let faults = Faults::Plan(plan.with_burst(burst.clone()));
            Cell {
                faults,
                seed,
                ..cell.clone()
            }
        })
        .collect();
    let tally = run_cells(&cells);
    tally.assert_live();
    assert!(tally.refused > 0, "a burst must overflow the queue");
}

/// Requests no client should send, batched with ordinary ones, through
/// the engine, trace replay and the daemon on both contexts (see
/// [`check_hostile`]), also under modes that can draft no node.
#[test]
fn hostile_request_sizes_are_served_or_rejected() {
    let no_node = DynamicExpansionConfig {
        max_nodes: 0,
        ..DynamicExpansionConfig::default()
    };
    let modes = [
        InferenceMode::Incremental,
        adaptive(AdaptiveConfig::default()),
        InferenceMode::SequenceSpeculative { depth: 0 },
        InferenceMode::DynamicTree { config: no_node },
    ];
    let cells: Vec<Cell> = [Family::Roomy, Family::Tight]
        .into_iter()
        .flat_map(|family| {
            let cell =
                move |mode| Cell::new(family, Work::Hostile, mode, Pool::Three, Decode::Greedy);
            modes.clone().map(cell)
        })
        .collect();
    run_cells(&cells);
}

/// FNV-1a over a run's generated tokens and over its per-step stats.
fn digests((tokens, steps): &Out, prompt_len: usize) -> (u64, u64) {
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let steps = steps
        .iter()
        .flat_map(|s| [s.tree_size, s.accepted, s.emitted]);
    (
        fnv(tokens[prompt_len..].iter().map(|&t| u64::from(t))),
        fnv(steps.map(|n| n as u64)),
    )
}

/// Stochastic runs have no greedy oracle, so their outputs are pinned;
/// greedy runs have one for their tokens but not for their acceptance,
/// so one greedy steps digest is pinned too. A change in RNG consumption
/// order, SSM ids, controller routing or what an SSM drafts from moves
/// them. The adaptive MSS pair was re-pinned on purpose when an SSM
/// cache started to catch up to the committed rows before it drafts,
/// and both adaptive rows when the mode became one constant depth-4
/// shape (the greedy tokens digest did not move).
#[test]
fn outputs_and_acceptance_match_their_pinned_digests() {
    let adaptive = adaptive(AdaptiveConfig::default());
    let sequence = InferenceMode::SequenceSpeculative { depth: 4 };
    let pinned = [
        (
            tree(&[2, 2, 1]),
            Pool::One,
            Decode::Mss,
            (11139160197809952993, 8156315265664843063),
        ),
        (
            sequence,
            Pool::Three,
            Decode::Mss,
            (5308554355202994318, 7205634807847420201),
        ),
        (
            dynamic(),
            Pool::One,
            Decode::Naive,
            (15254145142874825584, 9626179957940454517),
        ),
        (
            adaptive.clone(),
            Pool::Three,
            Decode::Mss,
            (12573128983960773993, 3461721247015844039),
        ),
        (
            adaptive,
            Pool::Three,
            Decode::Greedy,
            (8393462203928360335, 17404619331179714351),
        ),
    ];
    let cell = |(mode, pool, decode, _): &(_, _, _, _)| Cell {
        seed: 7,
        ..Cell::new(
            Family::Roomy,
            Work::Digest,
            InferenceMode::clone(mode),
            *pool,
            *decode,
        )
    };
    let cells: Vec<Cell> = pinned.iter().map(cell).collect();
    run_cells(&cells);
    let world = Family::Roomy.world();
    for (cell, (.., want)) in cells.iter().zip(&pinned) {
        let reqs = cell.requests();
        let run = Run {
            world: &world,
            cell,
            reqs: &reqs,
        };
        let solos = run.serial(Slab::Full);
        let fold = |got: (u64, u64), (tokens, steps): (u64, u64)| {
            (got.0.rotate_left(7) ^ tokens, got.1.rotate_left(7) ^ steps)
        };
        let runs = solos
            .iter()
            .zip(&reqs)
            .map(|(s, r)| digests(&s.out, r.prompt.len()));
        assert_eq!(runs.fold((0, 0), fold), *want, "{cell:?}: digests moved");
    }
}

/// What "nothing that runs changed" means, in numbers: the whole-tree
/// rows and the LLM forwards `BatchedVerifier::new()` makes over a batch
/// of four, and the KV rows each session ends with. The rows and KV
/// lengths were recorded before the two verifier layouts became one
/// staged loop; the forwards are one per iteration.
#[test]
fn default_verifier_row_counts_and_cache_lengths_are_pinned() {
    let pinned = [
        (Decode::Greedy, (945, 12), [14, 14, 14, 15]),
        (Decode::Mss, (483, 9), [14, 17, 17, 14]),
    ];
    let cell = |decode| Cell {
        seed: 42,
        ..Cell::new(Family::Rows, Work::Rows, paper(), Pool::One, decode)
    };
    let cells: Vec<Cell> = pinned.iter().map(|p| cell(p.0)).collect();
    run_cells(&cells);
    let world = Family::Rows.world();
    for (cell, (_, rows, kv)) in cells.iter().zip(pinned) {
        let reqs = cell.requests();
        let run = Run {
            world: &world,
            cell,
            reqs: &reqs,
        };
        let got = run.lockstep(4, false);
        let r = got.rows;
        let got = ((r.forwarded_rows(), r.llm_forwards), got.kv);
        assert_eq!(got, (rows, kv.to_vec()), "{:?}", cell.decode);
    }
}

/// On the d_ff-8192 model every forward shares its feed-forward regions
/// with the worker pool at two threads. Tree verifies of 3, 5, 9 and 21
/// rows sit on both sides of the packed GEMM's four-row block, and the
/// LLM drafting for itself gets rows accepted and the cache compacted:
/// every cell holds at two threads, and its serial reference there (the
/// one `run_cells` computed) is its serial run at one thread. The 10-
/// and 17-row verifies (one and two blocks of the 16-row tile) are
/// `tests/packed_verify_equiv.rs`'s.
#[test]
fn thread_count_changes_no_cell() {
    use specinfer::tensor::set_max_threads;
    let shapes = [(paper(), Pool::One), (tree(&[2]), Pool::Llm)];
    let shapes = shapes
        .into_iter()
        .chain([tree(&[2, 1]), tree(&[2, 3])].map(|m| (m, Pool::Llm)));
    let cell = |(mode, pool)| Cell::new(Family::Wide, Work::Wide, mode, pool, Decode::Greedy);
    let cells: Vec<Cell> = shapes.map(cell).collect();
    set_max_threads(2);
    #[cfg(debug_assertions)]
    let regions = specinfer::tensor::pool::shared_regions();
    let references = run_cells(&cells).references;
    #[cfg(debug_assertions)]
    assert!(
        specinfer::tensor::pool::shared_regions() > regions,
        "never shared"
    );
    set_max_threads(1);
    let world = Family::Wide.world();
    let reqs = Work::Wide.requests(Family::Wide.ctx());
    let one_thread: Vec<Vec<Out>> = cells
        .iter()
        .map(|cell| {
            let run = Run {
                world: &world,
                cell,
                reqs: &reqs,
            };
            run.serial(Slab::Full).into_iter().map(|s| s.out).collect()
        })
        .collect();
    set_max_threads(0);
    assert!(
        one_thread == references,
        "output depends on the thread count"
    );
}

/// End-to-end Theorem 4.2: the first token generated by the full
/// tree-speculative engine (real SSM speculation, real tree decoding,
/// MSS) follows the LLM's exact next-token distribution.
#[test]
fn theorem_4_2_end_to_end_engine() {
    let world = Family::Roomy.world();
    let (llm, ssm) = (&*world.llm, &*world.ssms[0]);
    let prompt = [4u32, 2, 7];

    // Exact target distribution from the LLM itself.
    let logits = llm.logits_for_sequence(&prompt);
    let p = sampler::probs_from_logits(logits.row(prompt.len() - 1), &DecodeMode::stochastic());

    let cell = Cell::new(
        Family::Roomy,
        Work::Mixed,
        tree(&[3, 1]),
        Pool::One,
        Decode::Mss,
    );
    let engine = SpecEngine::new(llm, vec![ssm], cell.engine(1));
    let trials = 4_000;
    let mut emp = vec![0.0f32; llm.config().vocab_size];
    for seed in 0..trials {
        emp[engine.generate(&prompt, seed).generated()[0] as usize] += 1.0;
    }
    emp.iter_mut().for_each(|e| *e /= trials as f32);
    let tv = total_variation(&emp, &p);
    // Monte-Carlo noise for K=32, N=4000 is ≈ 0.07; a biased sampler (e.g.
    // deterministic drafts with naive residuals) shows TV ≥ 0.2 here.
    assert!(tv < 0.12, "TV(engine, LLM) = {tv}");
}

/// Every bitwise contract here holds for whichever SIMD backend the
/// process latched at startup. CI runs the suite with
/// `SPECINFER_SIMD=scalar` and again natively; this pins the
/// env-to-backend mapping, so a forced run really exercises the forced
/// backend instead of silently falling back.
#[test]
fn forced_simd_env_maps_to_latched_backend() {
    use specinfer::tensor::{simd, SimdBackend};
    let be = simd::backend();
    match std::env::var("SPECINFER_SIMD").as_deref() {
        Ok("scalar") => assert_eq!(be, SimdBackend::Scalar),
        // Forcing an ISA the host lacks documents a scalar fallback.
        Ok("avx2") => assert!(matches!(be, SimdBackend::Avx2Fma | SimdBackend::Scalar)),
        Ok("neon") => assert!(matches!(be, SimdBackend::Neon | SimdBackend::Scalar)),
        _ => assert!(simd::available_backends().contains(&be)),
    }
}
