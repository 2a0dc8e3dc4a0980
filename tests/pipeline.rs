//! End-to-end pipeline test across every crate: grammar → training →
//! distillation → speculative serving with continuous batching → metrics.

use specinfer::model::train::{distill_step, train_step};
use specinfer::model::{DecodeMode, ModelConfig, Transformer};
use specinfer::serving::{
    QueuePolicy, ServeReport, Server, ServerConfig, ServerDaemon, TimingConfig,
};
use specinfer::spec::{
    AdaptiveConfig, DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier,
};
use specinfer::tensor::optim::Adam;
use specinfer::tokentree::ExpansionConfig;
use specinfer::workloads::{trace::Trace, Dataset, Grammar, EOS_TOKEN};
use std::sync::Arc;

fn tiny_cfg(d: usize) -> ModelConfig {
    ModelConfig {
        vocab_size: 256,
        d_model: d,
        n_layers: 1,
        n_heads: 2,
        d_ff: 2 * d,
        max_seq_len: 256,
    }
}

#[test]
fn full_stack_speculative_serving() {
    // 1. Language + corpus.
    let grammar = Grammar::synthetic(256, 5);
    let corpus = grammar.training_corpus(24, 24, 6);

    // 2. Brief LLM training and SSM distillation (just enough to move
    //    the weights — alignment quality is covered by the repro runs).
    let mut llm = Transformer::from_seed(tiny_cfg(16), 1);
    let mut opt = Adam::new(3e-3);
    for chunk in corpus.chunks(8).take(3) {
        let _ = train_step(&mut llm, &mut opt, chunk);
    }
    let mut ssm = Transformer::from_seed(tiny_cfg(8), 2);
    let mut sopt = Adam::new(3e-3);
    for chunk in corpus.chunks(8).take(2) {
        let _ = distill_step(&mut ssm, &mut sopt, &llm, chunk);
    }

    // 3. Serve a mixed trace with tree speculation + continuous batching.
    let trace = Trace::poisson(&grammar, 6, 50.0, 6, 12, 9);
    let server = Server::new(
        &llm,
        vec![&ssm],
        ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode: InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 2, 1]),
                },
                max_new_tokens: 12,
                eos_token: Some(EOS_TOKEN),
            },
            max_batch_size: 3,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed: 3,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows: None,
        },
    );
    let report = server.serve_trace(&trace);

    // 4. Every request completed with sane metrics.
    assert_eq!(report.responses.len(), 6);
    for r in &report.responses {
        assert!(!r.generated.is_empty());
        assert!(r.generated.len() <= 12 || r.generated.last() == Some(&EOS_TOKEN));
        assert!(r.finish_s >= r.arrival_s);
        assert!(r.tokens_per_step() >= 1.0);
    }
    assert!(report.mean_per_token_latency_s() > 0.0);
    assert!(report.throughput_tokens_per_s() > 0.0);
    assert!(report.iterations > 0);
}

#[test]
fn serving_is_deterministic() {
    let grammar = Grammar::synthetic(256, 8);
    let llm = Transformer::from_seed(tiny_cfg(16), 4);
    let ssm = Transformer::from_seed(tiny_cfg(8), 5);
    let trace = Trace::closed_batch(&grammar, Dataset::Piqa, 4, 6, 10, 2);
    let run = || {
        let server = Server::new(
            &llm,
            vec![&ssm],
            ServerConfig {
                engine: EngineConfig {
                    decode: DecodeMode::stochastic(),
                    verifier: StochasticVerifier::MultiStep,
                    mode: InferenceMode::TreeSpeculative {
                        expansion: ExpansionConfig::new(vec![2, 1, 1]),
                    },
                    max_new_tokens: 10,
                    eos_token: Some(EOS_TOKEN),
                },
                max_batch_size: 4,
                timing: TimingConfig::llama_7b_single_gpu(),
                seed: 77,
                faults: None,
                degradation: DegradationPolicy::serving_default(),
                queue: QueuePolicy::unbounded(),
                slab_rows: None,
            },
        );
        let report = server.serve_trace(&trace);
        report
            .responses
            .iter()
            .map(|r| r.generated.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "same seed must reproduce identical generations"
    );
}

/// Trace replay and the live daemon are two front-ends of one iteration
/// driver, so the same jobs must come out identical per request id —
/// tokens and per-step stats — whichever front-end fed them in, whatever
/// batches wall-time admission happened to form in the daemon.
#[test]
fn trace_replay_and_daemon_agree_per_request() {
    let grammar = Grammar::synthetic(256, 11);
    let llm = Arc::new(Transformer::from_seed(tiny_cfg(16), 7));
    let ssms: Vec<Arc<Transformer>> = (0..3)
        .map(|i| Arc::new(Transformer::from_seed(tiny_cfg(8), 8 + i)))
        .collect();
    // Ragged prompts and budgets, so requests retire at different
    // iterations and later ones join mid-flight.
    let mut trace = Trace::closed_batch(&grammar, Dataset::Alpaca, 7, 8, 12, 4);
    for (i, r) in trace.requests.iter_mut().enumerate() {
        r.prompt.tokens.truncate(3 + i % 5);
        r.prompt.max_new_tokens = 4 + (i * 5) % 9;
    }
    let modes = [
        (
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            1,
        ),
        (
            InferenceMode::Adaptive {
                config: AdaptiveConfig::default(),
            },
            3,
        ),
        (InferenceMode::Incremental, 0),
        // A merged pool drafts one expansion per SSM: slabs must be sized
        // for all three.
        (InferenceMode::SequenceSpeculative { depth: 4 }, 3),
        // No drafters: a speculative mode serves incrementally instead of
        // taking the loop down.
        (
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            0,
        ),
    ];
    for (mode, pool) in modes {
        for slab_rows in [None, Some(96)] {
            let what = format!("{mode:?}, slab_rows {slab_rows:?}");
            let pool = &ssms[..pool];
            let config = ServerConfig {
                engine: EngineConfig {
                    decode: DecodeMode::Greedy,
                    verifier: StochasticVerifier::MultiStep,
                    mode: mode.clone(),
                    max_new_tokens: 12,
                    eos_token: Some(EOS_TOKEN),
                },
                max_batch_size: 4,
                timing: TimingConfig::llama_7b_single_gpu(),
                seed: 21,
                faults: None,
                degradation: DegradationPolicy::serving_default(),
                queue: QueuePolicy::unbounded(),
                slab_rows,
            };
            let refs = pool.iter().map(Arc::as_ref).collect();
            let replay = Server::new(&llm, refs, config.clone()).serve_trace(&trace);

            let daemon =
                ServerDaemon::spawn(llm.clone(), pool.to_vec(), config).expect("daemon spawns");
            let tickets: Vec<_> = trace
                .requests
                .iter()
                .map(|r| {
                    daemon
                        .submit(r.prompt.tokens.clone(), r.prompt.max_new_tokens)
                        .expect("daemon accepts")
                })
                .collect();
            for t in tickets {
                t.wait().expect("ticket resolves");
            }
            let live = daemon.shutdown().expect("clean shutdown");

            assert_eq!(replay.responses.len(), trace.requests.len(), "{what}");
            assert_eq!(live.responses.len(), trace.requests.len(), "{what}");
            for (a, b) in replay.responses.iter().zip(&live.responses) {
                assert_eq!(a.id, b.id, "{what}");
                assert_eq!(a.generated, b.generated, "{what}: {} tokens", a.id);
                assert_eq!(a.steps, b.steps, "{what}: {} steps", a.id);
                assert!(!a.generated.is_empty(), "{what}: {} completes", a.id);
                if pool.is_empty() {
                    assert!(a.steps.iter().all(|s| s.tree_size == 0), "{what}");
                }
            }
            // Replay steps through the batched verifier like the daemon,
            // so its verify-row accounting is real (it used to step
            // sessions serially and report zeros) and — being a sum of
            // per-session quantities — equal to the daemon's. Forwards
            // are per iteration, and the two may batch differently.
            let rows = |r: &ServeReport| r.verify_rows.forwarded_rows();
            assert!(rows(&replay) > 0, "{what}");
            assert_eq!(rows(&replay), rows(&live), "{what}");
        }
    }
}

#[test]
fn dataset_prompts_are_consumable_by_models() {
    // Vocabulary compatibility across crates: dataset prompts (vocab 256)
    // must feed models built with vocab 256 without panicking.
    let grammar = Grammar::synthetic(256, 3);
    let llm = Transformer::from_seed(tiny_cfg(16), 6);
    for dataset in Dataset::all() {
        let prompts = dataset.prompts(&grammar, 2, 8, 4, 1);
        for p in prompts {
            let logits = llm.logits_for_sequence(&p.tokens);
            assert!(logits.data().iter().all(|v| v.is_finite()));
        }
    }
}
