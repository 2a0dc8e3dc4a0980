// Known-bad fixture: a batched-verification surface that both panics on
// the hot path and spawns its own threads. Must trigger `no_unwrap` (one
// finding, the `unwrap()`) and `thread_confinement` (one finding, the
// `thread::scope`) — batching earns its speedup from the kernels' pool
// regions, never from ad-hoc threads inside the verifier.

pub fn step_batch(logits: Vec<Option<Vec<f32>>>) -> Vec<f32> {
    std::thread::scope(|scope| {
        let stacked = scope.spawn(move || {
            logits
                .into_iter()
                .flatten()
                .flatten()
                .collect::<Vec<f32>>()
        });
        stacked.join().unwrap()
    })
}
