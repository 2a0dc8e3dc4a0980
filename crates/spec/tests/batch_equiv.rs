//! Bitwise-equivalence battery for cross-request batched verification:
//! for every tested seed and batch size, [`BatchedVerifier::step_batch`]
//! — frontier-first and whole-tree alike — must emit exactly the
//! per-token outputs of serial per-session stepping, greedy and
//! stochastic (MSS) alike, and faulted items must drop out of the batch
//! without perturbing their batch-mates.

use specinfer_model::{DecodeMode, ModelConfig, Transformer};
use specinfer_spec::{
    AdaptiveConfig, BatchItem, BatchRowStats, BatchedVerifier, DegradationPolicy, EngineConfig,
    InferenceMode, Session, StepFault, StepStats, StochasticVerifier,
};
use specinfer_tokentree::{ExpansionConfig, TokenId};

fn models() -> (Transformer, Transformer) {
    let llm = Transformer::from_seed(ModelConfig::smoke(), 100);
    let ssm = Transformer::from_seed(
        ModelConfig {
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            d_ff: 16,
            ..ModelConfig::smoke()
        },
        101,
    );
    (llm, ssm)
}

/// Three distinct one-layer SSMs for the pooled runs.
fn ssm_pool() -> Vec<Transformer> {
    (101..104)
        .map(|seed| {
            let ssm = ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            };
            Transformer::from_seed(ssm, seed)
        })
        .collect()
}

fn config(decode: DecodeMode) -> EngineConfig {
    EngineConfig {
        decode,
        verifier: StochasticVerifier::MultiStep,
        mode: InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::new(vec![2, 1, 1]),
        },
        max_new_tokens: 12,
        eos_token: None,
    }
}

/// Distinct prompts, one per batch slot.
fn prompt(slot: usize) -> Vec<TokenId> {
    vec![1 + slot as TokenId, 2, 3 + (slot % 5) as TokenId]
}

/// Per batch slot: the session's token sequence and its step stats.
type Outputs = Vec<(Vec<TokenId>, Vec<StepStats>)>;

fn output(s: Session) -> (Vec<TokenId>, Vec<StepStats>) {
    let steps = s.steps().to_vec();
    (s.into_result().tokens, steps)
}

/// Runs `batch` sessions serially (one `step_faulted` each per
/// iteration) and returns their token sequences and step stats.
fn run_serial(
    llm: &Transformer,
    ssm: &Transformer,
    cfg: &EngineConfig,
    seed: u64,
    batch: usize,
    faults: impl Fn(usize, usize) -> StepFault,
) -> Outputs {
    let ssms = [ssm];
    let mut sessions: Vec<Session> = (0..batch)
        .map(|b| Session::new(llm, &ssms, &prompt(b), seed.wrapping_add(b as u64)))
        .collect();
    let mut iter = 0usize;
    while sessions.iter().any(|s| !s.is_finished()) {
        for (b, s) in sessions.iter_mut().enumerate() {
            let _ = s.step_faulted(llm, &ssms, cfg, faults(b, iter));
        }
        iter += 1;
    }
    sessions.into_iter().map(output).collect()
}

/// Runs `batch` sessions through `verifier` and returns their token
/// sequences and step stats plus the run-total verify-row accounting.
fn run_batched(
    llm: &Transformer,
    ssm: &Transformer,
    verifier: &BatchedVerifier,
    cfg: &EngineConfig,
    seed: u64,
    batch: usize,
    faults: impl Fn(usize, usize) -> StepFault,
) -> (Outputs, BatchRowStats) {
    let ssms = [ssm];
    let mut rows = BatchRowStats::default();
    let mut sessions: Vec<Session> = (0..batch)
        .map(|b| Session::new(llm, &ssms, &prompt(b), seed.wrapping_add(b as u64)))
        .collect();
    let mut iter = 0usize;
    while sessions.iter().any(|s| !s.is_finished()) {
        let mut items: Vec<BatchItem<'_>> = sessions
            .iter_mut()
            .enumerate()
            .map(|(b, s)| BatchItem {
                session: s,
                config: cfg,
                fault: faults(b, iter),
            })
            .collect();
        let (_, r) = verifier.step_batch_counted(llm, &ssms, &mut items);
        rows.absorb(&r);
        iter += 1;
    }
    (sessions.into_iter().map(output).collect(), rows)
}

fn no_faults(_: usize, _: usize) -> StepFault {
    StepFault::default()
}

/// The grid: both first stages × a shallow and the paper's expansion ×
/// greedy and MSS × seeds × batch sizes, each against serial stepping —
/// tokens **and** step stats — with the row accounting of each stage.
#[test]
fn both_first_stages_equal_serial_across_expansions_modes_seeds_and_batches() {
    let (llm, ssm) = models();
    for decode in [DecodeMode::Greedy, DecodeMode::stochastic()] {
        for expansion in [
            ExpansionConfig::new(vec![2, 1, 1]),
            ExpansionConfig::paper_default(),
        ] {
            let mut cfg = config(decode.clone());
            cfg.mode = InferenceMode::TreeSpeculative {
                expansion: expansion.clone(),
            };
            for seed in [0u64, 7, 42] {
                for batch in [1usize, 2, 4, 8] {
                    let what = format!("seed {seed}, batch {batch}, {decode:?}, {expansion:?}");
                    let serial = run_serial(&llm, &ssm, &cfg, seed, batch, no_faults);
                    let run = |v| run_batched(&llm, &ssm, &v, &cfg, seed, batch, no_faults);
                    let (frontier, frontier_rows) = run(BatchedVerifier::new());
                    let (whole, whole_rows) = run(BatchedVerifier::single_pass());
                    assert_eq!(serial, frontier, "new(): {what}");
                    assert_eq!(serial, whole, "single_pass(): {what}");
                    // Both agree on what the whole trees cost, the
                    // whole-tree stage forwards exactly that…
                    assert_eq!(frontier_rows.single_pass_rows, whole_rows.single_pass_rows);
                    assert_eq!(whole_rows.forwarded_rows(), whole_rows.single_pass_rows);
                    assert_eq!(whole_rows.pass_b_rows, 0, "{what}");
                    // …and frontier-first never more: the frontier and
                    // the one surviving subtree are disjoint.
                    assert!(
                        frontier_rows.forwarded_rows() <= frontier_rows.single_pass_rows,
                        "{what}: {frontier_rows:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn faulted_items_drop_out_without_perturbing_batch_mates() {
    // Request 1 stalls every other iteration and request 2 hits a
    // simulated KV OOM on every third; both must degrade to incremental
    // exactly as under serial stepping, and requests 0 and 3 must emit
    // byte-identical outputs either way.
    let (llm, ssm) = models();
    let cfg = config(DecodeMode::Greedy);
    let faults = |b: usize, iter: usize| match b {
        1 => StepFault {
            ssm_stall: iter.is_multiple_of(2),
            ..StepFault::default()
        },
        2 => StepFault {
            kv_oom: iter.is_multiple_of(3),
            ..StepFault::default()
        },
        _ => StepFault::default(),
    };
    let serial = run_serial(&llm, &ssm, &cfg, 5, 4, faults);
    let (batched, _) = run_batched(&llm, &ssm, &BatchedVerifier::new(), &cfg, 5, 4, faults);
    assert_eq!(serial, batched);
    // And the fault-free batch-mates match a run with no faults at all.
    let clean = run_serial(&llm, &ssm, &cfg, 5, 4, no_faults);
    assert_eq!(clean[0], batched[0], "request 0 must not see the faults");
    assert_eq!(clean[3], batched[3], "request 3 must not see the faults");
}

#[test]
fn garbage_faults_flow_through_the_batch_losslessly() {
    // Garbage drafts stay *in* the batch (only stall/OOM drop out); the
    // greedy verifier rejects them and outputs must match a clean run.
    let (llm, ssm) = models();
    let cfg = config(DecodeMode::Greedy);
    let faults = |b: usize, iter: usize| StepFault {
        ssm_garbage: (b == 1).then_some(0xfa017 ^ iter as u64),
        ..StepFault::default()
    };
    let clean = run_serial(&llm, &ssm, &cfg, 9, 3, no_faults);
    let (batched, _) = run_batched(&llm, &ssm, &BatchedVerifier::new(), &cfg, 9, 3, faults);
    for b in 0..3 {
        assert_eq!(
            clean[b].0, batched[b].0,
            "request {b}: greedy output must be fault-proof"
        );
    }
}

#[test]
fn already_finished_sessions_yield_none_in_the_batch() {
    let (llm, ssm) = models();
    let ssms = [&ssm];
    let mut cfg = config(DecodeMode::Greedy);
    cfg.max_new_tokens = 2;
    let verifier = BatchedVerifier::new();
    let mut short = Session::new(&llm, &ssms, &prompt(0), 0);
    let mut long = Session::new(&llm, &ssms, &prompt(1), 1);
    let long_cfg = config(DecodeMode::Greedy);
    for _ in 0..6 {
        let mut items = [
            BatchItem::new(&mut short, &cfg),
            BatchItem::new(&mut long, &long_cfg),
        ];
        let stats = verifier.step_batch(&llm, &ssms, &mut items);
        assert_eq!(stats.len(), 2);
        if short.is_finished() {
            break;
        }
    }
    assert!(short.is_finished());
    // One more iteration: the finished session contributes None, the
    // live one keeps stepping.
    let before = long.tokens().len();
    let mut items = [
        BatchItem::new(&mut short, &cfg),
        BatchItem::new(&mut long, &long_cfg),
    ];
    let stats = verifier.step_batch(&llm, &ssms, &mut items);
    assert!(stats[0].is_none());
    assert!(stats[1].is_some());
    assert!(long.tokens().len() > before);
}

#[test]
fn hierarchical_prunes_rows_at_paper_default() {
    // The paper's ⟨1,1,3,1,1,1,1,1⟩ schedule drafts 20 nodes, almost
    // all below depth 1; random smoke models reject most drafts, so
    // early-died walks must prune deep subtrees in bulk.
    let (llm, ssm) = models();
    let mut cfg = config(DecodeMode::Greedy);
    cfg.mode = InferenceMode::TreeSpeculative {
        expansion: ExpansionConfig::paper_default(),
    };
    let (_, rows) = run_batched(&llm, &ssm, &BatchedVerifier::new(), &cfg, 42, 4, no_faults);
    assert!(
        rows.pruned_rows() > 0,
        "deep trees with early rejection must prune: {rows:?}"
    );
    assert!(rows.pass_b_rows <= rows.single_pass_rows - rows.pass_a_rows);
}

// ---------------------------------------------------------------------
// Ragged battery: requests join and retire mid-flight. Every request's
// output must still be bitwise-identical to its own serial run — the
// equivalence gate behind the continuous-batching daemon.
// ---------------------------------------------------------------------

use proptest::prelude::*;

/// One request of a ragged run: `(prompt, generation budget, iteration
/// at which it becomes eligible to join)`.
#[derive(Clone, Debug)]
struct RaggedSpec {
    prompt: Vec<TokenId>,
    max_new: usize,
    arrival: usize,
}

/// What varies across a ragged run besides the requests: the decode
/// mode, the mode every request runs, the SSM pool, the degradation
/// ladder and a fault mask. The mask is read at `(request, that
/// session's own step count)`, so a request meets the same faults alone
/// and in any interleaving.
struct RaggedRun<'a> {
    decode: DecodeMode,
    mode: InferenceMode,
    ssms: &'a [&'a Transformer],
    policy: DegradationPolicy,
    faults: &'a [u8],
}

impl<'a> RaggedRun<'a> {
    /// Every request drafts `expansion` with `ssms`, ladder off.
    fn tree(
        decode: DecodeMode,
        expansion: ExpansionConfig,
        ssms: &'a [&'a Transformer],
        faults: &'a [u8],
    ) -> Self {
        RaggedRun {
            decode,
            mode: InferenceMode::TreeSpeculative { expansion },
            ssms,
            policy: DegradationPolicy::disabled(),
            faults,
        }
    }

    fn plain(decode: DecodeMode, ssms: &'a [&'a Transformer]) -> Self {
        RaggedRun::tree(decode, ExpansionConfig::new(vec![2, 1, 1]), ssms, &[])
    }

    fn config(&self, spec: &RaggedSpec) -> EngineConfig {
        EngineConfig {
            mode: self.mode.clone(),
            max_new_tokens: spec.max_new,
            ..config(self.decode.clone())
        }
    }

    /// Mask codes 0–4 are fault-free, 5 stalls, 6 is a KV OOM, 7 garbage.
    fn fault(&self, idx: usize, session: &Session) -> StepFault {
        let step = session.steps().len();
        let code = match self.faults.len() {
            0 => 0,
            n => self.faults[(idx * 7 + step) % n],
        };
        StepFault {
            ssm_stall: code == 5,
            kv_oom: code == 6,
            ssm_garbage: (code == 7).then_some((idx * 131 + step) as u64),
        }
    }
}

impl RaggedSpec {
    /// One spec per `(prompt length, budget, arrival)` triple.
    fn from_shapes(shapes: &[(usize, usize, usize)]) -> Vec<Self> {
        let spec = |(idx, &(prompt_len, max_new, arrival)): (usize, &(usize, usize, usize))| {
            // Heterogeneous in-vocabulary prompts (smoke vocab is 32).
            let prompt = (0..prompt_len.max(1))
                .map(|p| (1 + idx * 5 + p * 3) as TokenId % 31 + 1)
                .collect();
            RaggedSpec {
                prompt,
                max_new: max_new.max(1),
                arrival,
            }
        };
        shapes.iter().enumerate().map(spec).collect()
    }
}

/// Serial reference: each request decoded alone, full-capacity slab.
fn run_specs_serial(
    llm: &Transformer,
    run: &RaggedRun<'_>,
    seed: u64,
    specs: &[RaggedSpec],
) -> Outputs {
    specs
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let cfg = run.config(spec);
            let mut s = Session::new(llm, run.ssms, &spec.prompt, seed.wrapping_add(idx as u64));
            s.set_degradation_policy(run.policy);
            while !s.is_finished() {
                let fault = run.fault(idx, &s);
                let _ = s.step_faulted(llm, run.ssms, &cfg, fault);
            }
            output(s)
        })
        .collect()
}

/// Ragged driver: FIFO admission into at most `cap` live slots, one
/// `step_batch` per iteration over whoever is live, retirement as each
/// request finishes. Sessions are **budget-slabbed** to
/// `prompt + max_new + speculation_rows` rows, so this also gates the
/// right-sized-slab path the serving daemon uses.
fn run_specs_ragged(
    llm: &Transformer,
    run: &RaggedRun<'_>,
    seed: u64,
    cap: usize,
    specs: &[RaggedSpec],
) -> Outputs {
    let ssms = run.ssms;
    let verifier = BatchedVerifier::new();
    let configs: Vec<EngineConfig> = specs.iter().map(|s| run.config(s)).collect();
    // FIFO queue of request indices, ordered by (arrival, index).
    let mut queue: Vec<usize> = (0..specs.len()).collect();
    queue.sort_by_key(|&i| (specs[i].arrival, i));
    let mut next = 0usize;
    let mut live: Vec<(usize, Session)> = Vec::new();
    let mut results: Vec<Option<(Vec<TokenId>, Vec<StepStats>)>> = vec![None; specs.len()];
    let mut iter = 0usize;
    while next < queue.len() || !live.is_empty() {
        // Join mid-flight: everything that has arrived, oldest first,
        // while a slot is free.
        while next < queue.len() && live.len() < cap {
            let idx = queue[next];
            if specs[idx].arrival > iter {
                break;
            }
            let rows = configs[idx].pool_speculation_rows(ssms.len()).worst_case;
            let budget = specs[idx].prompt.len() + specs[idx].max_new + rows;
            let mut session = Session::try_new_budgeted(
                llm,
                ssms,
                &specs[idx].prompt,
                seed.wrapping_add(idx as u64),
                budget,
            )
            .expect("ragged specs are valid prompts");
            session.set_degradation_policy(run.policy);
            live.push((idx, session));
            next += 1;
        }
        if !live.is_empty() {
            let mut items: Vec<BatchItem<'_>> = live
                .iter_mut()
                .map(|(idx, s)| BatchItem {
                    fault: run.fault(*idx, s),
                    session: s,
                    config: &configs[*idx],
                })
                .collect();
            let _ = verifier.step_batch(llm, ssms, &mut items);
            drop(items);
            // Retire mid-flight; freed slots are refilled next iteration.
            let mut i = 0;
            while i < live.len() {
                if live[i].1.is_finished() {
                    let (idx, s) = live.remove(i);
                    results[idx] = Some(output(s));
                } else {
                    i += 1;
                }
            }
        }
        iter += 1;
    }
    results
        .into_iter()
        .map(|r| r.expect("every request retires"))
        .collect()
}

/// A mixed workload: heterogeneous prompt lengths (2–6), budgets (1–14)
/// and staggered arrivals, patterned off `idx` so every slot differs.
fn staggered_specs(n: usize) -> Vec<RaggedSpec> {
    let shape = |i| (2 + i % 5, 1 + (i * 7) % 14, (i / 3) * 2);
    RaggedSpec::from_shapes(&(0..n).map(shape).collect::<Vec<_>>())
}

#[test]
fn ragged_interleavings_match_serial_greedy_at_batch_2_8_32() {
    let (llm, ssm) = models();
    for seed in [0u64, 42] {
        let specs = staggered_specs(40);
        let ssms = [&ssm];
        let run = RaggedRun::plain(DecodeMode::Greedy, &ssms);
        let serial = run_specs_serial(&llm, &run, seed, &specs);
        for cap in [2usize, 8, 32] {
            let ragged = run_specs_ragged(&llm, &run, seed, cap, &specs);
            assert_eq!(serial, ragged, "seed {seed}, cap {cap}");
        }
    }
}

#[test]
fn ragged_interleavings_match_serial_mss_at_batch_2_8_32() {
    let (llm, ssm) = models();
    let specs = staggered_specs(33);
    let ssms = [&ssm];
    let run = RaggedRun::plain(DecodeMode::stochastic(), &ssms);
    let serial = run_specs_serial(&llm, &run, 19, &specs);
    for cap in [2usize, 8, 32] {
        let ragged = run_specs_ragged(&llm, &run, 19, cap, &specs);
        assert_eq!(serial, ragged, "cap {cap}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random arrival/retire interleavings with heterogeneous lengths, a
    /// random stall/OOM/garbage fault mask and two runs over them: a
    /// random expansion (depth 1–4, widths 1–3) drafted by one SSM, and
    /// `Adaptive` over a pool of three under the serving ladder, where
    /// forced, fallback and rung-0 steps mix with routed drafts. Greedy
    /// ragged decoding is bitwise-identical to serial, at every batch
    /// cap.
    #[test]
    fn ragged_random_interleavings_match_serial_greedy(
        shapes in prop::collection::vec((2usize..7, 1usize..13, 0usize..9), 1..12),
        widths in prop::collection::vec(1usize..4, 1..5),
        faults in prop::collection::vec(0u8..8, 1..24),
        seed in 0u64..1_000,
    ) {
        let (llm, ssm) = models();
        let pool = ssm_pool();
        let pool: Vec<&Transformer> = pool.iter().collect();
        let specs = RaggedSpec::from_shapes(&shapes);
        let ssms = [&ssm];
        let tree = RaggedRun::tree(DecodeMode::Greedy, ExpansionConfig::new(widths), &ssms, &faults);
        let adaptive = RaggedRun {
            decode: DecodeMode::Greedy,
            mode: InferenceMode::Adaptive { config: AdaptiveConfig::default() },
            ssms: &pool,
            policy: DegradationPolicy::serving_default(),
            faults: &faults,
        };
        for run in [tree, adaptive] {
            let serial = run_specs_serial(&llm, &run, seed, &specs);
            for cap in [2usize, 8, 32] {
                let ragged = run_specs_ragged(&llm, &run, seed, cap, &specs);
                prop_assert_eq!(&serial, &ragged, "{:?}, cap {}", run.mode, cap);
            }
        }
    }

    /// Same property under stochastic (MSS) decoding: per-session RNG
    /// streams make the sampled outputs deterministic and identical in
    /// any interleaving.
    #[test]
    fn ragged_random_interleavings_match_serial_mss(
        shapes in prop::collection::vec((2usize..7, 1usize..11, 0usize..7), 1..9),
        widths in prop::collection::vec(1usize..4, 1..5),
        faults in prop::collection::vec(0u8..8, 1..24),
        seed in 0u64..1_000,
    ) {
        let (llm, ssm) = models();
        let specs = RaggedSpec::from_shapes(&shapes);
        let ssms = [&ssm];
        let run = RaggedRun::tree(DecodeMode::stochastic(), ExpansionConfig::new(widths), &ssms, &faults);
        let serial = run_specs_serial(&llm, &run, seed, &specs);
        for cap in [2usize, 8] {
            let ragged = run_specs_ragged(&llm, &run, seed, cap, &specs);
            prop_assert_eq!(&serial, &ragged, "cap {}", cap);
        }
    }
}

/// Every bitwise gate in this file runs under whichever SIMD backend the
/// process latched at startup. CI re-runs the suite with
/// `SPECINFER_SIMD=scalar` and again natively; this test pins the
/// env-to-backend mapping so a forced run genuinely exercises the forced
/// backend instead of silently falling back.
#[test]
fn forced_simd_env_maps_to_latched_backend() {
    use specinfer_tensor::{simd, SimdBackend};
    let be = simd::backend();
    match std::env::var("SPECINFER_SIMD").as_deref() {
        Ok("scalar") => assert_eq!(be, SimdBackend::Scalar),
        // Forcing an ISA the host lacks documents a scalar fallback.
        Ok("avx2") => assert!(matches!(be, SimdBackend::Avx2Fma | SimdBackend::Scalar)),
        Ok("neon") => assert!(matches!(be, SimdBackend::Neon | SimdBackend::Scalar)),
        _ => assert!(simd::available_backends().contains(&be)),
    }
}
/// What "nothing that runs changed" means, in numbers: the verify rows
/// `BatchedVerifier::new()` forwards per pass over a whole run, and the
/// KV rows each session ends with, recorded at the commit before the
/// two verifier layouts became one staged loop.
#[test]
fn default_verifier_row_counts_and_cache_lengths_are_pinned() {
    let (llm, ssm) = models();
    let ssms = [&ssm];
    let pinned = [
        (
            DecodeMode::Greedy,
            (945usize, 90usize, 19usize),
            [14usize, 14, 14, 15],
        ),
        (DecodeMode::stochastic(), (483, 46, 152), [14, 17, 17, 14]),
    ];
    for (decode, (single_pass_rows, pass_a_rows, pass_b_rows), kv_rows) in pinned {
        let mut cfg = config(decode.clone());
        cfg.mode = InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::paper_default(),
        };
        let mut sessions: Vec<Session> = (0..4)
            .map(|b| Session::new(&llm, &ssms, &prompt(b), 42 + b as u64))
            .collect();
        let mut rows = BatchRowStats::default();
        while sessions.iter().any(|s| !s.is_finished()) {
            let mut items: Vec<BatchItem<'_>> = sessions
                .iter_mut()
                .map(|s| BatchItem::new(s, &cfg))
                .collect();
            let (_, r) = BatchedVerifier::new().step_batch_counted(&llm, &ssms, &mut items);
            rows.absorb(&r);
        }
        let expected = BatchRowStats {
            single_pass_rows,
            pass_a_rows,
            pass_b_rows,
        };
        assert_eq!(rows, expected, "{decode:?}");
        let got: Vec<usize> = sessions.iter().map(Session::kv_rows).collect();
        assert_eq!(got, kv_rows, "{decode:?}");
    }
}
