//! Greedy tree speculation through the packed GEMM: at every row count a
//! tree verify stacks, with the feed-forward packs shared with the worker
//! pool or not, speculation must keep emitting the incremental sequence,
//! and a batch exactly what its sessions emit alone. The forward-level
//! contracts below it (a prefill, a tree verify and a drafter's rows
//! equal token-by-token decoding) are cells of `tests/forward.rs`.

use std::sync::{Mutex, MutexGuard};

use specinfer::model::{DecodeMode, ModelConfig, Transformer};
use specinfer::spec::{
    BatchItem, BatchedVerifier, EngineConfig, InferenceMode, Session, SpecEngine,
    StochasticVerifier,
};
use specinfer::tokentree::ExpansionConfig;

/// Held by every test that calls the process-global `set_max_threads`,
/// so two of them never race on the thread count.
static THREADS: Mutex<()> = Mutex::new(());

fn threads_lock() -> MutexGuard<'static, ()> {
    THREADS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Wide enough that every dense layer spans several panels and the
/// feed-forward reduction spans several k-slices.
fn config() -> ModelConfig {
    ModelConfig {
        vocab_size: 64,
        d_model: 40,
        n_layers: 2,
        n_heads: 2,
        d_ff: 272,
        max_seq_len: 128,
    }
}

#[test]
fn greedy_tree_speculation_equals_incremental_on_three_seeds() {
    let engine_config = |mode| EngineConfig {
        decode: DecodeMode::Greedy,
        verifier: StochasticVerifier::MultiStep,
        mode,
        max_new_tokens: 48,
        eos_token: None,
    };
    for seed in [31u64, 32, 33] {
        let llm = Transformer::from_seed(config(), seed);
        let ssm = Transformer::from_seed(
            ModelConfig {
                d_model: 16,
                n_layers: 1,
                d_ff: 32,
                ..config()
            },
            seed + 100,
        );
        let prompt = [2u32, 7, 1, 8];
        let incremental = SpecEngine::new(&llm, vec![], engine_config(InferenceMode::Incremental))
            .generate(&prompt, 0);
        let speculative = SpecEngine::new(
            &llm,
            vec![&ssm],
            engine_config(InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::paper_default(),
            }),
        )
        .generate(&prompt, 0);
        let n = incremental.generated().len();
        assert_eq!(n, 48, "seed {seed}: incremental fills its budget");
        assert_eq!(
            incremental.generated(),
            &speculative.generated()[..n],
            "seed {seed}: speculation diverged from incremental"
        );
    }
}

#[test]
fn greedy_tree_speculation_is_thread_count_invariant_through_the_pool() {
    // `config()`'s packs are far below `pool::MIN_SHARE_BYTES` and would
    // never leave the calling thread. With `d_ff = 8192` the three
    // feed-forward packs are 1.25 MiB each: at two threads every forward
    // multiplies them (and applies SwiGLU) as pool regions.
    use specinfer::tensor::{pool, set_max_threads};
    let _threads = threads_lock();
    let llm = Transformer::from_seed(
        ModelConfig {
            d_ff: 8192,
            ..config()
        },
        41,
    );
    let ssm = Transformer::from_seed(
        ModelConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            ..config()
        },
        141,
    );
    let engine = SpecEngine::new(
        &llm,
        vec![&ssm],
        EngineConfig {
            decode: DecodeMode::Greedy,
            verifier: StochasticVerifier::MultiStep,
            mode: InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::paper_default(),
            },
            max_new_tokens: 24,
            eos_token: None,
        },
    );
    let prompt = [2u32, 7, 1, 8];
    set_max_threads(1);
    let serial = engine.generate(&prompt, 0);
    #[cfg(debug_assertions)]
    let regions_before = pool::shared_regions();
    set_max_threads(2);
    let pooled = engine.generate(&prompt, 0);
    set_max_threads(0);
    // Two regions per layer per forward, were the job slot always free;
    // one per iteration is proof enough that the run entered the pool.
    #[cfg(debug_assertions)]
    assert!(
        pool::shared_regions() >= regions_before + pooled.steps.len(),
        "the two-thread run never shared a region with the pool"
    );
    assert_eq!(serial.tokens, pooled.tokens, "output depends on threads");
    assert_eq!(serial.steps, pooled.steps, "StepStats depend on threads");
}

#[test]
fn pooled_ffn_keeps_speculation_and_batching_bitwise_at_3_5_9_10_and_17_rows() {
    // Tree verifies of 3, 5, 9, 10 and 17 rows sit on both sides of the
    // packed GEMM's four-row group and of its 16-row block (10 rows are
    // one block, 17 two), and at `d_ff = 8192` the
    // SwiGLU region is shared with the pool at two threads: greedy
    // speculation must still emit the incremental sequence, and a batch
    // of two (6, 10, 18, 20 and 34 stacked rows) exactly what the two
    // sessions emit alone. The LLM drafts for itself, so rows are
    // accepted and the cache compacted.
    use specinfer::tensor::set_max_threads;
    let _threads = threads_lock();
    let llm = Transformer::from_seed(
        ModelConfig {
            d_ff: 8192,
            ..config()
        },
        51,
    );
    let ssms = [&llm];
    let engine_config = |mode| EngineConfig {
        decode: DecodeMode::Greedy,
        verifier: StochasticVerifier::MultiStep,
        mode,
        max_new_tokens: 16,
        eos_token: None,
    };
    let prompts = [[2u32, 7, 1, 8], [3, 1, 4, 1]];
    for threads in [1usize, 2] {
        set_max_threads(threads);
        let incremental = prompts.map(|prompt| {
            SpecEngine::new(&llm, vec![], engine_config(InferenceMode::Incremental))
                .generate(&prompt, 0)
        });
        for (widths, rows) in [
            (vec![2], 3),
            (vec![2, 1], 5),
            (vec![2, 3], 9),
            (vec![3, 2], 10),
            (vec![4, 3], 17),
        ] {
            let spec = engine_config(InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(widths),
            });
            let serial = [0, 1].map(|i| {
                let (prompt, incremental) = (prompts[i], &incremental[i]);
                let speculative =
                    SpecEngine::new(&llm, ssms.to_vec(), spec.clone()).generate(&prompt, 0);
                assert!(speculative
                    .steps
                    .iter()
                    .all(|s| s.tree_size + 1 == rows && s.accepted > 0));
                assert_eq!(
                    incremental.generated(),
                    &speculative.generated()[..incremental.generated().len()],
                    "{rows} rows @ {threads}: speculation diverged from incremental"
                );
                speculative
            });
            let mut sessions = prompts.map(|prompt| Session::new(&llm, &ssms, &prompt, 0));
            let verifier = BatchedVerifier::new();
            while sessions.iter().any(|s| !s.is_finished()) {
                let mut items: Vec<BatchItem<'_>> = sessions
                    .iter_mut()
                    .map(|s| BatchItem::new(s, &spec))
                    .collect();
                let _ = verifier.step_batch(&llm, &ssms, &mut items);
            }
            for (session, alone) in sessions.into_iter().zip(serial) {
                assert_eq!(session.steps(), alone.steps, "{rows} rows @ {threads}");
                assert_eq!(
                    session.into_result().tokens,
                    alone.tokens,
                    "{rows} rows @ {threads}: batched diverged from serial"
                );
            }
        }
    }
    set_max_threads(0);
}
