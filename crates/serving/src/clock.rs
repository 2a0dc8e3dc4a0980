//! The workspace's one sanctioned wall-clock reader.
//!
//! Every token-affecting computation in this repository runs on seeded
//! RNGs, so seeded runs are bitwise reproducible. Time belongs to the
//! serving front-ends: trace replay keeps a *simulated* clock (the cost
//! model prices each iteration) and never reads this module's; the live
//! daemon runs on wall time from a [`Stopwatch`]. The rule: wall time
//! may shed a daemon request (its deadline is a wall-clock budget) and
//! stamp its response, but it never changes a token, and replay never
//! reads it. The determinism lint (`cargo run -p specinfer-xtask --
//! lint`) enforces the split by forbidding `Instant::now` /
//! `SystemTime` everywhere in library code except this module.

use std::time::Instant;

/// A started stopwatch measuring real elapsed time.
///
/// A reading is a plain `f64` of seconds: the daemon's clock, and every
/// run's [`ServeReport::wall_s`](crate::ServeReport::wall_s).
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Real seconds elapsed since `start`.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let w = Stopwatch::start();
        let a = w.elapsed_s();
        let b = w.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
