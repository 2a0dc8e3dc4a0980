//! Property-based tests for the continuous-batching scheduler.

use proptest::prelude::*;
use specinfer_serving::{IterationScheduler, Request, RequestId};

fn request(id: u64, arrival: f64) -> Request {
    Request {
        id: RequestId(id),
        prompt: vec![1],
        max_new_tokens: 4,
        arrival_s: arrival,
        deadline_s: None,
        dataset: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Admission never exceeds the batch limit and never admits requests
    /// from the future, for arbitrary arrival patterns.
    #[test]
    fn admission_respects_limit_and_clock(
        arrivals in prop::collection::vec(0.0f64..100.0, 1..40),
        max_batch in 1usize..8,
        active in 0usize..8,
        now in 0.0f64..120.0,
    ) {
        let mut s = IterationScheduler::new(max_batch);
        for (i, &a) in arrivals.iter().enumerate() {
            s.submit(request(i as u64, a));
        }
        let admitted = s.admit(now, active);
        prop_assert!(active + admitted.len() <= max_batch.max(active));
        for r in &admitted {
            prop_assert!(r.arrival_s <= now, "admitted a future request");
        }
    }

    /// Draining the scheduler preserves every request exactly once and
    /// yields them in nondecreasing arrival order.
    #[test]
    fn drain_is_a_sorted_permutation(
        arrivals in prop::collection::vec(0.0f64..50.0, 1..40),
    ) {
        let mut s = IterationScheduler::new(4);
        for (i, &a) in arrivals.iter().enumerate() {
            s.submit(request(i as u64, a));
        }
        let mut seen = Vec::new();
        let mut last = f64::NEG_INFINITY;
        while s.has_pending() {
            let batch = s.admit(f64::MAX, 0);
            prop_assert!(!batch.is_empty(), "progress must be possible");
            for r in batch {
                prop_assert!(r.arrival_s >= last - 1e-12);
                last = r.arrival_s;
                seen.push(r.id.0);
            }
        }
        seen.sort_unstable();
        let expect: Vec<u64> = (0..arrivals.len() as u64).collect();
        prop_assert_eq!(seen, expect);
    }

    /// Draining yields requests sorted by `(arrival_s, id)` regardless of
    /// the order `submit` calls landed in — equal-arrival requests keep
    /// the FIFO order their front-door ids encode.
    #[test]
    fn drain_order_is_independent_of_submission_order(
        arrivals in prop::collection::vec(0.0f64..4.0, 1..30),
        seed in 0u64..1000,
    ) {
        // Quantize arrivals so ties are common.
        let arrivals: Vec<f64> = arrivals.iter().map(|a| a.floor()).collect();
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        // Deterministic shuffle of the submission order.
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let drain = |ids: &[usize]| {
            let mut s = IterationScheduler::new(4);
            for &i in ids {
                s.submit(request(i as u64, arrivals[i]));
            }
            let mut seen = Vec::new();
            while s.has_pending() {
                seen.extend(s.admit(f64::MAX, 0).into_iter().map(|r| r.id.0));
            }
            seen
        };
        let in_order: Vec<usize> = (0..arrivals.len()).collect();
        prop_assert_eq!(drain(&in_order), drain(&order));
    }
}
