//! An idle server costs nothing: the pool's workers poll only inside a
//! forward of an LLM-sized model and are parked — like the daemon
//! thread itself, blocked on its channel — the moment it ends. Its own
//! test binary, so no other test's threads run in the measured window.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use specinfer_model::{DecodeMode, ModelConfig, Transformer};
use specinfer_serving::{QueuePolicy, RequestOutcome, ServerConfig, ServerDaemon, TimingConfig};
use specinfer_spec::{DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier};
use specinfer_tokentree::ExpansionConfig;

/// Nanoseconds every thread of this process has spent on a CPU.
fn process_cpu_ns() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn an_idle_daemon_uses_no_cpu_after_a_pooled_request() {
    // Feed-forward packs of 1.25 MiB: above `pool::MIN_SHARE_BYTES`, so
    // with two threads every forward wakes a worker and keeps it hot.
    specinfer_tensor::set_max_threads(2);
    let wide = ModelConfig {
        d_model: 40,
        n_heads: 2,
        d_ff: 8192,
        ..ModelConfig::smoke()
    };
    let llm = Arc::new(Transformer::from_seed(wide, 1));
    let ssm = Arc::new(Transformer::from_seed(ModelConfig::smoke(), 2));
    let config = ServerConfig {
        engine: EngineConfig {
            decode: DecodeMode::Greedy,
            verifier: StochasticVerifier::MultiStep,
            mode: InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1, 1]),
            },
            max_new_tokens: 16,
            eos_token: None,
        },
        max_batch_size: 2,
        timing: TimingConfig::llama_7b_single_gpu(),
        seed: 11,
        faults: None,
        degradation: DegradationPolicy::serving_default(),
        queue: QueuePolicy::unbounded(),
        slab_rows: None,
    };
    let daemon = ServerDaemon::spawn(llm, vec![ssm], config).expect("daemon spawns");
    let response = daemon
        .submit(vec![1, 2, 3], 16)
        .expect("daemon accepts")
        .wait()
        .expect("daemon answers");
    assert_eq!(response.outcome, RequestOutcome::Completed);
    #[cfg(debug_assertions)]
    assert!(
        specinfer_tensor::pool::shared_regions() > 0,
        "the request never woke the pool"
    );

    let before = process_cpu_ns();
    std::thread::sleep(Duration::from_millis(200));
    let spent = process_cpu_ns() - before;
    assert!(
        spent < 5_000_000,
        "{spent} ns of CPU in a 200 ms idle window"
    );
    daemon.shutdown().expect("clean shutdown");
}
