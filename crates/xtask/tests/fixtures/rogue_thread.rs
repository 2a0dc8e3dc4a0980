// Known-bad fixture: thread creation outside the worker pool
// (`crates/tensor/src/pool.rs`) and the serving daemon — a fork-join of
// its own instead of a `pool::run` region. Must trigger exactly the
// `thread_confinement` rule — two findings (thread::spawn,
// thread::scope).

pub fn fire_and_forget(work: impl FnOnce() + Send + 'static) {
    std::thread::spawn(work);
}

pub fn sum_in_parallel(xs: &[u64]) -> u64 {
    let mid = xs.len() / 2;
    std::thread::scope(|scope| {
        let left = scope.spawn(|| xs[..mid].iter().sum::<u64>());
        let right: u64 = xs[mid..].iter().sum();
        match left.join() {
            Ok(l) => l + right,
            Err(_) => right,
        }
    })
}
