//! Cross-crate integration tests of the lossless-acceleration guarantee:
//! greedy tree-based speculative decoding must produce *exactly* the
//! sequence incremental decoding produces, for any SSM, while using no
//! more LLM steps.
//!
//! Serial and batched stepping share one verification loop, so the two
//! oracles here share none of it: the incremental engine (no tree, no
//! walk) and digests recorded before the loop existed. Each is held
//! against a serial run *and* against the same session stepped inside a
//! batch of three through the frontier-first `BatchedVerifier::new()`.

use specinfer::model::{DecodeMode, ModelConfig, Transformer};
use specinfer::spec::{
    AdaptiveConfig, BatchItem, BatchedVerifier, DynamicExpansionConfig, EngineConfig,
    GenerationResult, InferenceMode, Session, SpecEngine, StochasticVerifier,
};
use specinfer::tokentree::ExpansionConfig;
use specinfer::workloads::EOS_TOKEN;

fn engine_config(mode: InferenceMode) -> EngineConfig {
    EngineConfig {
        decode: DecodeMode::Greedy,
        verifier: StochasticVerifier::MultiStep,
        mode,
        max_new_tokens: 32,
        eos_token: None,
    }
}

/// A one-layer SSM an eighth of `base`'s size, sharing its vocabulary
/// and context window.
fn small_ssm(seed: u64, base: &ModelConfig) -> Transformer {
    Transformer::from_seed(
        ModelConfig {
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            d_ff: 16,
            ..base.clone()
        },
        seed,
    )
}

/// [`SpecEngine::generate`], except that the session steps through
/// `BatchedVerifier::new()` between two unrelated batch-mates — other
/// prompts, seeds, modes and budgets, so they retire at other times.
fn generate_in_a_batch(
    llm: &Transformer,
    ssms: &[&Transformer],
    config: &EngineConfig,
    prompt: &[u32],
    seed: u64,
) -> GenerationResult {
    let mate = |mode, max_new_tokens| EngineConfig {
        mode,
        max_new_tokens,
        ..config.clone()
    };
    let expansion = ExpansionConfig::new(vec![2, 1]);
    let configs = [
        mate(InferenceMode::TreeSpeculative { expansion }, 9),
        config.clone(),
        mate(InferenceMode::Incremental, 40),
    ];
    let mut sessions = [
        Session::new(llm, ssms, &[9, 8, 7], seed ^ 0x55),
        Session::new(llm, ssms, prompt, seed),
        Session::new(llm, ssms, &[5, 6], seed + 1),
    ];
    let verifier = BatchedVerifier::new();
    while !sessions[1].is_finished() {
        let mut items: Vec<BatchItem<'_>> = sessions
            .iter_mut()
            .zip(&configs)
            .map(|(s, c)| BatchItem::new(s, c))
            .collect();
        let _ = verifier.step_batch(llm, ssms, &mut items);
    }
    let [_, session, _] = sessions;
    session.into_result()
}

#[test]
fn greedy_tree_speculation_is_lossless_across_seeds_and_ssms() {
    for llm_seed in [10u64, 11, 12] {
        let llm = Transformer::from_seed(ModelConfig::smoke(), llm_seed);
        let incremental = SpecEngine::new(&llm, vec![], engine_config(InferenceMode::Incremental))
            .generate(&[1, 2, 3, 4], 0);
        for ssm_seed in [20u64, 21] {
            let ssm = small_ssm(ssm_seed, &ModelConfig::smoke());
            for expansion in [
                ExpansionConfig::sequence(5),
                ExpansionConfig::new(vec![2, 2, 1]),
                ExpansionConfig::paper_default(),
            ] {
                let config = engine_config(InferenceMode::TreeSpeculative {
                    expansion: expansion.clone(),
                });
                let serial =
                    SpecEngine::new(&llm, vec![&ssm], config.clone()).generate(&[1, 2, 3, 4], 0);
                let batched = generate_in_a_batch(&llm, &[&ssm], &config, &[1, 2, 3, 4], 0);
                for (how, spec) in [("serial", serial), ("in a batch", batched)] {
                    let n = incremental.generated().len().min(spec.generated().len());
                    assert_eq!(
                        &incremental.generated()[..n],
                        &spec.generated()[..n],
                        "llm {llm_seed}, ssm {ssm_seed}, expansion {expansion}, {how}: output diverged"
                    );
                    assert!(
                        spec.llm_steps() <= incremental.llm_steps(),
                        "speculation must never add LLM steps ({how})"
                    );
                }
            }
        }
    }
}

#[test]
fn merged_multi_ssm_speculation_is_also_lossless() {
    let llm = Transformer::from_seed(ModelConfig::smoke(), 30);
    let [s1, s2, s3] = [31, 32, 33].map(|seed| small_ssm(seed, &ModelConfig::smoke()));

    let incremental = SpecEngine::new(&llm, vec![], engine_config(InferenceMode::Incremental))
        .generate(&[7, 5, 3], 0);
    let merged = SpecEngine::new(
        &llm,
        vec![&s1, &s2, &s3],
        engine_config(InferenceMode::SequenceSpeculative { depth: 6 }),
    )
    .generate(&[7, 5, 3], 0);
    let n = incremental.generated().len().min(merged.generated().len());
    assert_eq!(&incremental.generated()[..n], &merged.generated()[..n]);
}

#[test]
fn eos_convention_is_consistent_across_crates() {
    // `EngineConfig::greedy_tree` hard-codes the workloads EOS so the two
    // crates stay decoupled; this pin breaks if either side drifts.
    let cfg = EngineConfig::greedy_tree();
    assert_eq!(cfg.eos_token, Some(EOS_TOKEN));
}

#[test]
fn speculation_accepts_more_with_a_better_ssm() {
    // The LLM speculating for itself accepts everything; a random SSM
    // accepts less. This orders tokens/step as alignment orders it.
    let llm = Transformer::from_seed(ModelConfig::smoke(), 40);
    let random_ssm = small_ssm(41, &ModelConfig::smoke());
    let cfg = engine_config(InferenceMode::SequenceSpeculative { depth: 6 });
    let self_spec = SpecEngine::new(&llm, vec![&llm], cfg.clone()).generate(&[9, 8, 7], 0);
    let rand_spec = SpecEngine::new(&llm, vec![&random_ssm], cfg).generate(&[9, 8, 7], 0);
    assert!(self_spec.tokens_per_step() >= rand_spec.tokens_per_step());
    assert!(
        (self_spec.tokens_per_step() - 7.0).abs() < 1e-9,
        "self-speculation accepts all"
    );
}

/// FNV-1a over a run's tokens and over its per-step stats.
fn digests(r: &GenerationResult) -> (u64, u64) {
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    (
        fnv(r.generated().iter().map(|&t| u64::from(t))),
        fnv(r
            .steps
            .iter()
            .flat_map(|s| [s.tree_size as u64, s.accepted as u64, s.emitted as u64])),
    )
}

/// Stochastic runs have no greedy oracle, so their outputs are pinned:
/// these digests were recorded at the commit *before* the draft paths
/// were collapsed into one. A change in RNG consumption order, SSM ids
/// or controller routing moves them.
#[test]
fn stochastic_outputs_match_the_digests_pinned_before_the_draft_collapse() {
    let llm = Transformer::from_seed(ModelConfig::smoke(), 50);
    let pool: Vec<Transformer> = (51..54)
        .map(|s| small_ssm(s, &ModelConfig::smoke()))
        .collect();
    let pool: Vec<&Transformer> = pool.iter().collect();
    let cases = [
        (
            "tree, 1 SSM",
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            1,
            StochasticVerifier::MultiStep,
            (11139160197809952993u64, 8156315265664843063u64),
        ),
        (
            "sequence, 3-SSM pool",
            InferenceMode::SequenceSpeculative { depth: 4 },
            3,
            StochasticVerifier::MultiStep,
            (5308554355202994318, 7205634807847420201),
        ),
        (
            "dynamic, naive verifier",
            InferenceMode::DynamicTree {
                config: DynamicExpansionConfig::default(),
            },
            1,
            StochasticVerifier::Naive,
            (15254145142874825584, 9626179957940454517),
        ),
        (
            "adaptive, 3-SSM pool",
            InferenceMode::Adaptive {
                config: AdaptiveConfig::default(),
            },
            3,
            StochasticVerifier::MultiStep,
            (17500980451221089225, 3173795862962845186),
        ),
    ];
    for (what, mode, n_ssms, verifier, pinned) in cases {
        let config = EngineConfig {
            decode: DecodeMode::stochastic(),
            verifier,
            max_new_tokens: 48,
            ..engine_config(mode)
        };
        let ssms = &pool[..n_ssms];
        let engine = SpecEngine::new(&llm, ssms.to_vec(), config.clone());
        for in_a_batch in [false, true] {
            let mut got = (0u64, 0u64);
            for seed in [7u64, 8, 9] {
                let run = if in_a_batch {
                    generate_in_a_batch(&llm, ssms, &config, &[4, 9, 2, 6], seed)
                } else {
                    engine.generate(&[4, 9, 2, 6], seed)
                };
                let (tokens, steps) = digests(&run);
                got = (got.0.rotate_left(7) ^ tokens, got.1.rotate_left(7) ^ steps);
            }
            assert_eq!(
                got, pinned,
                "{what}, in a batch: {in_a_batch}: (tokens, steps) digests moved"
            );
        }
    }
}

fn run_session(
    llm: &Transformer,
    ssms: &[&Transformer],
    config: &EngineConfig,
    prompt: &[u32],
    kv_rows: usize,
) -> GenerationResult {
    let mut session =
        Session::try_new_budgeted(llm, ssms, prompt, 0, kv_rows).expect("valid prompt");
    while !session.is_finished() {
        let _ = session.step(llm, ssms, config);
    }
    session.into_result()
}

/// Every mode, over one SSM and over a merged pool, in a full slab and in
/// one sized by the documented `prompt + max_new + worst case` rule, with
/// room to spare and with the context window a few rows above the
/// prompt: greedy output is incremental's, the right-sized slab changes
/// nothing, and nothing overflows a cache. A merged pool drafts one
/// expansion *per SSM*, so the pool cells need the pool-aware bound.
#[test]
fn every_mode_and_pool_is_lossless_in_full_and_right_sized_slabs() {
    let modes = [
        InferenceMode::Incremental,
        InferenceMode::SequenceSpeculative { depth: 4 },
        InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::new(vec![2, 2, 1]),
        },
        InferenceMode::DynamicTree {
            config: DynamicExpansionConfig::default(),
        },
        InferenceMode::Adaptive {
            config: AdaptiveConfig::default(),
        },
    ];
    let prompt = [1u32, 2, 3, 4];
    // (context window, generation budget): roomy, then exhausted mid-run.
    for (max_seq_len, max_new) in [(128usize, 12usize), (18, 100)] {
        let base = ModelConfig {
            max_seq_len,
            ..ModelConfig::smoke()
        };
        let llm = Transformer::from_seed(base.clone(), 60);
        let pool: Vec<Transformer> = (61..64).map(|s| small_ssm(s, &base)).collect();
        let pool: Vec<&Transformer> = pool.iter().collect();
        let incremental = EngineConfig {
            max_new_tokens: max_new,
            ..engine_config(InferenceMode::Incremental)
        };
        let oracle = run_session(&llm, &[], &incremental, &prompt, usize::MAX);
        for mode in &modes {
            for n_ssms in [1usize, 3] {
                let what = format!("{mode:?}, {n_ssms} SSMs, context {max_seq_len}");
                let ssms = &pool[..n_ssms];
                let config = EngineConfig {
                    max_new_tokens: max_new,
                    ..engine_config(mode.clone())
                };
                let full = run_session(&llm, ssms, &config, &prompt, usize::MAX);
                let n = oracle.generated().len().min(full.generated().len());
                assert!(n >= max_new.min(max_seq_len - prompt.len()), "{what}");
                assert_eq!(&oracle.generated()[..n], &full.generated()[..n], "{what}");

                let slab = prompt.len() + max_new + config.pool_speculation_rows(n_ssms).worst_case;
                let sized = run_session(&llm, ssms, &config, &prompt, slab);
                assert_eq!(full.generated(), sized.generated(), "{what}: slab {slab}");
                assert_eq!(full.steps, sized.steps, "{what}: slab {slab}");
            }
        }
    }
}
