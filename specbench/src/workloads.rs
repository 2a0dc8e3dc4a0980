//! The workloads: what each sends, to which models, in which arrival
//! pattern — and why it exists. The two `chat_*` workloads are the ones
//! `BENCHMARK.json` declares; the other two run on request only.
//!
//! A workload is measured in **passes**. One pass is a fixed list of
//! requests derived from `(seed, pass index)`; a run repeats passes until
//! its `--seconds` are used up. Within a list, prompt and output lengths
//! are a seeded shuffle of an evenly spaced grid over the stated range
//! rather than independent draws: every seed sees the same length
//! distribution (so medians and p95s do not move with the seed), and
//! only the order, the pairing and the token contents change.

use specinfer_model::DecodeMode;
use specinfer_serving::{QueuePolicy, ServerConfig, TimingConfig};
use specinfer_spec::{
    AdaptiveConfig, DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier,
};
use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::TokenId;
use specinfer_workloads::{Dataset, Grammar, BOS_TOKEN, EOS_TOKEN};

use crate::fixture::LlmKind;

/// One request of a pass.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    pub prompt: Vec<TokenId>,
    pub max_new_tokens: usize,
}

/// How requests reach the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `clients` threads, each submitting its next request when the
    /// previous one is answered. Client `c` owns requests `c`,
    /// `c + clients`, ….
    Closed { clients: usize },
    /// One thread submits everything at the pass start, then reads the
    /// responses in submission order.
    Offline,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists; copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` declares the workload, so that the driver
    /// holds later changes against its numbers. The two workloads on the
    /// cache-resident LLM are compute-bound, and a compute-bound loop on
    /// this class of shared host runs 25–30 % faster or slower for minutes
    /// at a time (ten runs of the same code spread 12–39 % of their
    /// median, past any bound the driver admits); they stay runnable by
    /// name, and `all` prints them, for attribution work.
    pub declared: bool,
    pub llm: LlmKind,
    /// Whether the daemon is given the three-SSM pool.
    pub pool: bool,
    pub adaptive: bool,
    pub slab_rows: Option<usize>,
    pub drive: Drive,
    /// Inclusive prompt-length range, BOS included.
    pub prompt_len: (usize, usize),
    /// Inclusive output-length range.
    pub output_len: (usize, usize),
    /// Requests in one pass.
    pub pass_requests: usize,
    /// Requests in the shorter list the traced run replays.
    pub trace_requests: usize,
    /// Requests replayed, untimed, at the end of each set-up.
    pub warmup_requests: usize,
}

/// Requests the daemon decodes side by side.
pub const MAX_BATCH: usize = 8;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "chat_spec",
            why: "closed loop, 2 clients, memory-bound LLM with adaptive speculation: the paper's regime; tree-verify forwards dominate",
            declared: true,
            llm: LlmKind::Inflated,
            pool: true,
            adaptive: true,
            slab_rows: None,
            drive: Drive::Closed { clients: 2 },
            prompt_len: (16, 48),
            output_len: (24, 64),
            pass_requests: 32,
            trace_requests: 16,
            warmup_requests: 16,
        },
        Workload {
            name: "chat_incr",
            why: "the chat_spec request lists decoded incrementally: the bypass; speculative changes must not move it, m<=2 matvec and daemon changes move both",
            declared: true,
            llm: LlmKind::Inflated,
            pool: false,
            adaptive: false,
            slab_rows: None,
            drive: Drive::Closed { clients: 2 },
            prompt_len: (16, 48),
            output_len: (24, 64),
            pass_requests: 32,
            trace_requests: 16,
            warmup_requests: 24,
        },
        Workload {
            name: "batch_ragged",
            why: "offline ragged batch on the cache-resident LLM under a KV slab budget: drafting, pass A/B assembly, retain_rows and budgeted admission have their largest share",
            declared: false,
            llm: LlmKind::Small,
            pool: true,
            adaptive: true,
            slab_rows: Some(RAGGED_SLAB_ROWS),
            drive: Drive::Offline,
            prompt_len: (8, 96),
            output_len: (16, 128),
            pass_requests: 144,
            trace_requests: 72,
            warmup_requests: 96,
        },
        Workload {
            name: "prefill_closed",
            why: "closed loop, 2 clients, long prompts, 8 output tokens on the cache-resident LLM: session start (prefill GEMM, KV writes) runs inside admission and stalls the other client's decode",
            declared: false,
            llm: LlmKind::Small,
            pool: true,
            adaptive: false,
            slab_rows: None,
            drive: Drive::Closed { clients: 2 },
            prompt_len: (128, 384),
            output_len: (8, 8),
            pass_requests: 128,
            trace_requests: 64,
            warmup_requests: 96,
        },
    ]
}

/// KV rows shared by the live sessions of `batch_ragged`, chosen so that
/// the budget rather than the eight slots stops admission on about half
/// of the iterations.
const RAGGED_SLAB_ROWS: usize = 700;

/// The workloads `BENCHMARK.json` declares.
pub fn declared() -> Vec<Workload> {
    all().into_iter().filter(|w| w.declared).collect()
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with every list `divisor` times shorter — the
    /// contract check's quick lists.
    pub fn scaled(mut self, divisor: usize) -> Workload {
        let floor = match self.drive {
            Drive::Closed { clients } => 2 * clients,
            Drive::Offline => 4,
        };
        self.pass_requests = (self.pass_requests / divisor).max(floor);
        self.trace_requests = (self.trace_requests / divisor).max(floor);
        self.warmup_requests = (self.warmup_requests / divisor).max(floor);
        self
    }

    pub fn mode(&self) -> InferenceMode {
        if self.adaptive {
            InferenceMode::Adaptive {
                config: AdaptiveConfig::default(),
            }
        } else {
            InferenceMode::Incremental
        }
    }

    pub fn server_config(&self, seed: u64) -> ServerConfig {
        self.server_config_with(self.mode(), seed)
    }

    pub fn server_config_with(&self, mode: InferenceMode, seed: u64) -> ServerConfig {
        ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode,
                // Overridden per request by the daemon.
                max_new_tokens: self.output_len.1,
                eos_token: None,
            },
            max_batch_size: MAX_BATCH,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows: self.slab_rows,
        }
    }

    /// The request list of pass `pass` (the warm-up uses `u64::MAX`).
    /// `chat_spec` and `chat_incr` share one stream, so their lists are
    /// identical and their output digests must agree.
    pub fn requests(&self, grammar: &Grammar, seed: u64, pass: u64, n: usize) -> Vec<RequestSpec> {
        let stream = match self.drive {
            Drive::Closed { .. } => 1,
            Drive::Offline => 2,
        };
        let mut rng = SeededRng::new(seed ^ 0x5bec_be6c).fork(stream).fork(pass);
        let parts = match self.drive {
            Drive::Closed { clients } => clients,
            Drive::Offline => 1,
        };
        // Each client gets the same multiset of lengths (in its own
        // order), so the clients of a closed loop finish together.
        let per_part = n.div_ceil(parts);
        let columns: Vec<(Vec<usize>, Vec<usize>)> = (0..parts)
            .map(|_| {
                (
                    shuffled_grid(self.prompt_len, per_part, &mut rng),
                    shuffled_grid(self.output_len, per_part, &mut rng),
                )
            })
            .collect();
        (0..n)
            .map(|i| {
                let (prompts, outputs) = &columns[i % parts];
                let dataset = Dataset::all()[i % 5];
                RequestSpec {
                    prompt: walk_prompt(grammar, dataset, prompts[i / parts], &mut rng),
                    max_new_tokens: outputs[i / parts],
                }
            })
            .collect()
    }
}

/// `n` values evenly spaced over the inclusive range, in seeded order.
fn shuffled_grid(range: (usize, usize), n: usize, rng: &mut SeededRng) -> Vec<usize> {
    let (lo, hi) = range;
    let span = (hi - lo) as f64;
    let grid: Vec<usize> = (0..n)
        .map(|i| {
            lo + ((i as f64 + 0.5) / n as f64 * (span + 1.0))
                .floor()
                .min(span) as usize
        })
        .collect();
    rng.permutation(n).into_iter().map(|i| grid[i]).collect()
}

/// A prompt of exactly `len` tokens (BOS included) from the dataset's
/// grammar domain. A walk that reaches EOS restarts from a domain entry
/// token instead of ending, so prompts of any length can be drawn.
fn walk_prompt(
    grammar: &Grammar,
    dataset: Dataset,
    len: usize,
    rng: &mut SeededRng,
) -> Vec<TokenId> {
    let mut seq = Vec::with_capacity(len);
    seq.push(BOS_TOKEN);
    let (mut prev, mut cur) = (BOS_TOKEN, BOS_TOKEN);
    while seq.len() < len {
        let next = if cur == BOS_TOKEN {
            grammar.domain_start(dataset.domain(), rng)
        } else {
            grammar.sample_next(prev, cur, rng)
        };
        if next == EOS_TOKEN {
            (prev, cur) = (BOS_TOKEN, BOS_TOKEN);
            continue;
        }
        seq.push(next);
        (prev, cur) = (cur, next);
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::grammar;

    #[test]
    fn lists_are_seed_derived_and_lengths_are_a_fixed_multiset() {
        let g = grammar();
        for w in all() {
            let n = w.pass_requests;
            let a = w.requests(&g, 7, 0, n);
            let b = w.requests(&g, 7, 0, n);
            let c = w.requests(&g, 8, 0, n);
            let lens = |l: &[RequestSpec]| {
                let mut v: Vec<(usize, usize)> = Vec::new();
                let mut p: Vec<usize> = l.iter().map(|r| r.prompt.len()).collect();
                let mut o: Vec<usize> = l.iter().map(|r| r.max_new_tokens).collect();
                p.sort_unstable();
                o.sort_unstable();
                v.extend(p.into_iter().zip(o));
                v
            };
            assert_eq!(a.len(), n);
            assert!(a.iter().zip(&b).all(|(x, y)| x.prompt == y.prompt));
            assert!(a.iter().zip(&c).any(|(x, y)| x.prompt != y.prompt));
            assert_eq!(
                lens(&a),
                lens(&c),
                "{}: length multiset moved with the seed",
                w.name
            );
            for r in &a {
                assert!(r.prompt.len() >= w.prompt_len.0 && r.prompt.len() <= w.prompt_len.1);
                assert!(!r.prompt.contains(&EOS_TOKEN));
                assert!(r.max_new_tokens >= w.output_len.0 && r.max_new_tokens <= w.output_len.1);
            }
        }
    }

    #[test]
    fn chat_workloads_share_their_lists() {
        let g = grammar();
        let spec = by_name("chat_spec").unwrap().requests(&g, 3, 2, 32);
        let incr = by_name("chat_incr").unwrap().requests(&g, 3, 2, 32);
        assert!(spec
            .iter()
            .zip(&incr)
            .all(|(a, b)| a.prompt == b.prompt && a.max_new_tokens == b.max_new_tokens));
    }
}
