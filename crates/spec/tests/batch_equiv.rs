//! Bitwise-equivalence battery for cross-request batched verification:
//! for every tested seed and batch size, [`BatchedVerifier::step_batch`]
//! must emit exactly the per-token outputs of serial per-session
//! stepping — greedy and stochastic (MSS) alike — and faulted items must
//! drop out of the batch without perturbing their batch-mates.

use specinfer_model::{DecodeMode, ModelConfig, Transformer};
use specinfer_spec::{
    BatchItem, BatchedVerifier, EngineConfig, InferenceMode, Session, StepFault, StepStats,
    StochasticVerifier,
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
    sessions
        .into_iter()
        .map(|s| {
            let steps = s.steps().to_vec();
            (s.into_result().tokens, steps)
        })
        .collect()
}

/// Runs `batch` sessions through the batched verifier and returns their
/// token sequences and step stats.
fn run_batched(
    llm: &Transformer,
    ssm: &Transformer,
    cfg: &EngineConfig,
    seed: u64,
    batch: usize,
    faults: impl Fn(usize, usize) -> StepFault,
) -> Outputs {
    let ssms = [ssm];
    let verifier = BatchedVerifier::new();
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
        let _ = verifier.step_batch(llm, &ssms, &mut items);
        iter += 1;
    }
    sessions
        .into_iter()
        .map(|s| {
            let steps = s.steps().to_vec();
            (s.into_result().tokens, steps)
        })
        .collect()
}

fn no_faults(_: usize, _: usize) -> StepFault {
    StepFault::default()
}

#[test]
fn batched_equals_serial_greedy_across_seeds_and_batch_sizes() {
    let (llm, ssm) = models();
    let cfg = config(DecodeMode::Greedy);
    for seed in [0u64, 7, 42] {
        for batch in [1usize, 2, 4, 8] {
            let serial = run_serial(&llm, &ssm, &cfg, seed, batch, no_faults);
            let batched = run_batched(&llm, &ssm, &cfg, seed, batch, no_faults);
            assert_eq!(serial, batched, "seed {seed}, batch {batch}");
        }
    }
}

#[test]
fn batched_equals_serial_stochastic_mss_across_seeds_and_batch_sizes() {
    let (llm, ssm) = models();
    let cfg = config(DecodeMode::stochastic());
    for seed in [3u64, 19] {
        for batch in [1usize, 2, 4, 8] {
            let serial = run_serial(&llm, &ssm, &cfg, seed, batch, no_faults);
            let batched = run_batched(&llm, &ssm, &cfg, seed, batch, no_faults);
            assert_eq!(serial, batched, "seed {seed}, batch {batch}");
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
    let batched = run_batched(&llm, &ssm, &cfg, 5, 4, faults);
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
    let batched = run_batched(&llm, &ssm, &cfg, 9, 3, faults);
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
            BatchItem {
                session: &mut short,
                config: &cfg,
                fault: StepFault::default(),
            },
            BatchItem {
                session: &mut long,
                config: &long_cfg,
                fault: StepFault::default(),
            },
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
        BatchItem {
            session: &mut short,
            config: &cfg,
            fault: StepFault::default(),
        },
        BatchItem {
            session: &mut long,
            config: &long_cfg,
            fault: StepFault::default(),
        },
    ];
    let stats = verifier.step_batch(&llm, &ssms, &mut items);
    assert!(stats[0].is_none());
    assert!(stats[1].is_some());
    assert!(long.tokens().len() > before);
}

// ---------------------------------------------------------------------
// Hierarchical vs single-pass battery: the two-phase verifier must emit
// bitwise-identical outputs to the legacy single-pass schedule while
// forwarding no more (and, on deep trees, strictly fewer) verify rows.
// ---------------------------------------------------------------------

use specinfer_spec::BatchRowStats;

/// Runs `batch` sessions through the given verifier and returns outputs
/// plus run-total verify-row accounting.
fn run_with_verifier(
    llm: &Transformer,
    ssm: &Transformer,
    verifier: &BatchedVerifier,
    cfg: &EngineConfig,
    seed: u64,
    batch: usize,
) -> (Outputs, BatchRowStats) {
    let ssms = [ssm];
    let mut rows = BatchRowStats::default();
    let mut sessions: Vec<Session> = (0..batch)
        .map(|b| Session::new(llm, &ssms, &prompt(b), seed.wrapping_add(b as u64)))
        .collect();
    while sessions.iter().any(|s| !s.is_finished()) {
        let mut items: Vec<BatchItem<'_>> = sessions
            .iter_mut()
            .map(|s| BatchItem {
                session: s,
                config: cfg,
                fault: StepFault::default(),
            })
            .collect();
        let (_, r) = verifier.step_batch_counted(llm, &ssms, &mut items);
        rows.absorb(&r);
    }
    let out = sessions
        .into_iter()
        .map(|s| {
            let steps = s.steps().to_vec();
            (s.into_result().tokens, steps)
        })
        .collect();
    (out, rows)
}

#[test]
fn hierarchical_equals_single_pass_across_seeds_batches_and_modes() {
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
                    let (two_pass, hier_rows) =
                        run_with_verifier(&llm, &ssm, &BatchedVerifier::new(), &cfg, seed, batch);
                    let (one_pass, single_rows) = run_with_verifier(
                        &llm,
                        &ssm,
                        &BatchedVerifier::single_pass(),
                        &cfg,
                        seed,
                        batch,
                    );
                    assert_eq!(
                        two_pass, one_pass,
                        "seed {seed}, batch {batch}, {decode:?}, {expansion:?}"
                    );
                    // Both schedules agree on what single-pass would cost…
                    assert_eq!(hier_rows.single_pass_rows, single_rows.single_pass_rows);
                    assert_eq!(single_rows.forwarded_rows(), single_rows.single_pass_rows);
                    // …and the hierarchical pass never forwards more:
                    // pass A (frontier) and pass B (one surviving
                    // subtree) are disjoint subsets of the tree.
                    assert!(
                        hier_rows.forwarded_rows() <= hier_rows.single_pass_rows,
                        "seed {seed}, batch {batch}: {hier_rows:?}"
                    );
                }
            }
        }
    }
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
    let (_, rows) = run_with_verifier(&llm, &ssm, &BatchedVerifier::new(), &cfg, 42, 4);
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

impl RaggedSpec {
    fn from_shape(idx: usize, prompt_len: usize, max_new: usize, arrival: usize) -> Self {
        // Heterogeneous in-vocabulary prompts (smoke vocab is 32).
        let prompt = (0..prompt_len.max(1))
            .map(|p| (1 + idx * 5 + p * 3) as TokenId % 31 + 1)
            .collect();
        RaggedSpec {
            prompt,
            max_new: max_new.max(1),
            arrival,
        }
    }

    fn config(&self, decode: DecodeMode) -> EngineConfig {
        let mut cfg = config(decode);
        cfg.max_new_tokens = self.max_new;
        cfg
    }
}

/// Serial reference: each request decoded alone, full-capacity slab.
fn run_specs_serial(
    llm: &Transformer,
    ssm: &Transformer,
    decode: DecodeMode,
    seed: u64,
    specs: &[RaggedSpec],
) -> Outputs {
    let ssms = [ssm];
    specs
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let cfg = spec.config(decode.clone());
            let mut s = Session::new(llm, &ssms, &spec.prompt, seed.wrapping_add(idx as u64));
            while !s.is_finished() {
                let _ = s.step_faulted(llm, &ssms, &cfg, StepFault::default());
            }
            let steps = s.steps().to_vec();
            (s.into_result().tokens, steps)
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
    ssm: &Transformer,
    decode: DecodeMode,
    seed: u64,
    cap: usize,
    specs: &[RaggedSpec],
) -> Outputs {
    let ssms = [ssm];
    let verifier = BatchedVerifier::new();
    let configs: Vec<EngineConfig> = specs.iter().map(|s| s.config(decode.clone())).collect();
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
            let budget =
                specs[idx].prompt.len() + specs[idx].max_new + configs[idx].speculation_rows();
            let session = Session::try_new_budgeted(
                llm,
                &ssms,
                &specs[idx].prompt,
                seed.wrapping_add(idx as u64),
                budget,
            )
            .expect("ragged specs are valid prompts");
            live.push((idx, session));
            next += 1;
        }
        if !live.is_empty() {
            let mut items: Vec<BatchItem<'_>> = live
                .iter_mut()
                .map(|(idx, s)| BatchItem {
                    session: s,
                    config: &configs[*idx],
                    fault: StepFault::default(),
                })
                .collect();
            let _ = verifier.step_batch(llm, &ssms, &mut items);
            drop(items);
            // Retire mid-flight; freed slots are refilled next iteration.
            let mut i = 0;
            while i < live.len() {
                if live[i].1.is_finished() {
                    let (idx, s) = live.remove(i);
                    let steps = s.steps().to_vec();
                    results[idx] = Some((s.into_result().tokens, steps));
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
    (0..n)
        .map(|i| RaggedSpec::from_shape(i, 2 + i % 5, 1 + (i * 7) % 14, (i / 3) * 2))
        .collect()
}

#[test]
fn ragged_interleavings_match_serial_greedy_at_batch_2_8_32() {
    let (llm, ssm) = models();
    for seed in [0u64, 42] {
        let specs = staggered_specs(40);
        let serial = run_specs_serial(&llm, &ssm, DecodeMode::Greedy, seed, &specs);
        for cap in [2usize, 8, 32] {
            let ragged = run_specs_ragged(&llm, &ssm, DecodeMode::Greedy, seed, cap, &specs);
            assert_eq!(serial, ragged, "seed {seed}, cap {cap}");
        }
    }
}

#[test]
fn ragged_interleavings_match_serial_mss_at_batch_2_8_32() {
    let (llm, ssm) = models();
    let specs = staggered_specs(33);
    let serial = run_specs_serial(&llm, &ssm, DecodeMode::stochastic(), 19, &specs);
    for cap in [2usize, 8, 32] {
        let ragged = run_specs_ragged(&llm, &ssm, DecodeMode::stochastic(), 19, cap, &specs);
        assert_eq!(serial, ragged, "cap {cap}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random arrival/retire interleavings with heterogeneous lengths:
    /// greedy ragged decoding is bitwise-identical to serial, at every
    /// batch cap.
    #[test]
    fn ragged_random_interleavings_match_serial_greedy(
        shapes in prop::collection::vec((2usize..7, 1usize..13, 0usize..9), 1..12),
        seed in 0u64..1_000,
    ) {
        let (llm, ssm) = models();
        let specs: Vec<RaggedSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(plen, max_new, arrival))| RaggedSpec::from_shape(i, plen, max_new, arrival))
            .collect();
        let serial = run_specs_serial(&llm, &ssm, DecodeMode::Greedy, seed, &specs);
        for cap in [2usize, 8, 32] {
            let ragged = run_specs_ragged(&llm, &ssm, DecodeMode::Greedy, seed, cap, &specs);
            prop_assert_eq!(&serial, &ragged, "cap {}", cap);
        }
    }

    /// Same property under stochastic (MSS) decoding: per-session RNG
    /// streams make the sampled outputs deterministic and identical in
    /// any interleaving.
    #[test]
    fn ragged_random_interleavings_match_serial_mss(
        shapes in prop::collection::vec((2usize..7, 1usize..11, 0usize..7), 1..9),
        seed in 0u64..1_000,
    ) {
        let (llm, ssm) = models();
        let specs: Vec<RaggedSpec> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(plen, max_new, arrival))| RaggedSpec::from_shape(i, plen, max_new, arrival))
            .collect();
        let serial = run_specs_serial(&llm, &ssm, DecodeMode::stochastic(), seed, &specs);
        for cap in [2usize, 8] {
            let ragged = run_specs_ragged(&llm, &ssm, DecodeMode::stochastic(), seed, cap, &specs);
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
