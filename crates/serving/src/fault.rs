//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a *pure function* from `(seed, fault kind, request
//! id, iteration)` to "does this fault fire here?": no interior state, no
//! wall clock, no global RNG. Two runs with the same plan therefore
//! inject byte-identical fault schedules — chaos runs are replayable in
//! CI, and a failing seed is a complete reproduction recipe.
//!
//! The injectable faults mirror what bites real Orca-style iteration
//! schedulers (§5.1): SSM stalls and garbage logits, verifier slowdowns,
//! simulated KV-arena memory pressure, mid-stream cancellations and
//! request bursts. All engine-level faults are *lossless under greedy
//! decoding* (see [`specinfer_spec::StepFault`]): they cost throughput,
//! never output tokens, which is what lets the chaos harness compare a
//! faulted run against a fault-free run of the same seed.

use specinfer_spec::StepFault;
use specinfer_tokentree::TokenId;

use crate::request::{Request, RequestId};

/// Per-fault-class injection rates. All rates are probabilities in
/// `[0, 1]` evaluated independently per `(request, iteration)` — except
/// `cancel_rate`, evaluated once per request.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// P(SSM pool emits garbage logits) per request-iteration.
    pub ssm_garbage_rate: f64,
    /// P(SSM pool stalls) per request-iteration.
    pub ssm_stall_rate: f64,
    /// P(simulated KV-arena OOM) per request-iteration.
    pub kv_oom_rate: f64,
    /// P(verifier pass is slowed down) per trace-replay iteration; the
    /// live daemon, on wall time, ignores it.
    pub verifier_slowdown_rate: f64,
    /// Slowdown multiplier applied to an affected iteration's duration.
    pub verifier_slowdown_factor: f64,
    /// P(request is cancelled mid-stream) per request.
    pub cancel_rate: f64,
    /// A cancelled request is cut after `1 ..= max_cancel_tokens`
    /// generated tokens (deterministically chosen per request).
    pub max_cancel_tokens: usize,
}

impl FaultSpec {
    /// No faults at all.
    pub fn none() -> Self {
        FaultSpec {
            ssm_garbage_rate: 0.0,
            ssm_stall_rate: 0.0,
            kv_oom_rate: 0.0,
            verifier_slowdown_rate: 0.0,
            verifier_slowdown_factor: 1.0,
            cancel_rate: 0.0,
            max_cancel_tokens: 8,
        }
    }

    /// The chaos battery's default mix: frequent SSM garbage, occasional
    /// stalls and memory pressure, some slow verifier passes, and a
    /// quarter of requests cancelled mid-stream.
    pub fn chaos_default() -> Self {
        FaultSpec {
            ssm_garbage_rate: 0.35,
            ssm_stall_rate: 0.1,
            kv_oom_rate: 0.05,
            verifier_slowdown_rate: 0.15,
            verifier_slowdown_factor: 4.0,
            cancel_rate: 0.25,
            max_cancel_tokens: 6,
        }
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// A synthetic burst of requests injected on top of a trace — the
/// overload scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSpec {
    /// Simulated arrival time of the whole burst.
    pub at_s: f64,
    /// Number of burst requests.
    pub count: usize,
    /// Prompt length of each burst request.
    pub prompt_len: usize,
    /// Generation budget of each burst request.
    pub max_new_tokens: usize,
    /// Vocabulary the prompts are drawn from.
    pub vocab: u32,
}

/// Seeded, stateless fault schedule for one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    burst: Option<BurstSpec>,
}

// Domain-separation salts: one per fault class, so the classes draw
// independent hash streams from the same seed.
const SALT_GARBAGE: u64 = 0x67617262;
const SALT_STALL: u64 = 0x7374616c;
const SALT_OOM: u64 = 0x6f6f6d21;
const SALT_SLOW: u64 = 0x736c6f77;
const SALT_CANCEL: u64 = 0x63616e63;
const SALT_BURST: u64 = 0x62757273;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Creates a plan from a seed and per-class rates.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            spec,
            burst: None,
        }
    }

    /// Adds a synthetic request burst to the plan.
    pub fn with_burst(mut self, burst: BurstSpec) -> Self {
        self.burst = Some(burst);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The configured burst, if any.
    pub fn burst(&self) -> Option<&BurstSpec> {
        self.burst.as_ref()
    }

    fn hash(&self, salt: u64, a: u64, b: u64) -> u64 {
        splitmix64(splitmix64(splitmix64(self.seed ^ salt) ^ a) ^ b)
    }

    /// A uniform draw in `[0, 1)`, deterministic in `(seed, salt, a, b)`.
    fn hash01(&self, salt: u64, a: u64, b: u64) -> f64 {
        // 53 mantissa bits of the hash, like rand's standard f64 path.
        (self.hash(salt, a, b) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The engine-level fault (if any) for request `id`'s iteration
    /// `step`. The garbage seed is itself derived from the plan, so the
    /// junk drafts are replayable too.
    pub fn step_fault(&self, id: RequestId, step: usize) -> Option<StepFault> {
        let step = step as u64;
        let fault = StepFault {
            ssm_garbage: (self.hash01(SALT_GARBAGE, id.0, step) < self.spec.ssm_garbage_rate)
                .then(|| self.hash(SALT_GARBAGE, id.0, step ^ 0xdead)),
            ssm_stall: self.hash01(SALT_STALL, id.0, step) < self.spec.ssm_stall_rate,
            kv_oom: self.hash01(SALT_OOM, id.0, step) < self.spec.kv_oom_rate,
        };
        (!fault.is_noop()).then_some(fault)
    }

    /// The slowdown multiplier for trace-replay iteration `iteration`, if
    /// that iteration's verifier pass is faulted.
    pub fn verifier_slowdown(&self, iteration: usize) -> Option<f64> {
        (self.hash01(SALT_SLOW, iteration as u64, 0) < self.spec.verifier_slowdown_rate)
            .then_some(self.spec.verifier_slowdown_factor)
    }

    /// If request `id` is scheduled for mid-stream cancellation, the
    /// number of generated tokens after which it is cut.
    pub fn cancel_after(&self, id: RequestId) -> Option<usize> {
        (self.hash01(SALT_CANCEL, id.0, 0) < self.spec.cancel_rate).then(|| {
            1 + (self.hash(SALT_CANCEL, id.0, 1) as usize) % self.spec.max_cancel_tokens.max(1)
        })
    }

    /// The burst requests, with ids starting at `first_id`. Prompts are
    /// deterministic in the plan's seed.
    pub fn burst_requests(&self, first_id: u64) -> Vec<Request> {
        let Some(b) = &self.burst else {
            return Vec::new();
        };
        (0..b.count)
            .map(|i| {
                let prompt: Vec<TokenId> = (0..b.prompt_len)
                    .map(|j| {
                        (self.hash(SALT_BURST, i as u64, j as u64) % u64::from(b.vocab)) as TokenId
                    })
                    .collect();
                Request {
                    id: RequestId(first_id + i as u64),
                    prompt,
                    max_new_tokens: b.max_new_tokens,
                    arrival_s: b.at_s,
                    deadline_s: None,
                    dataset: None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed, FaultSpec::chaos_default())
    }

    #[test]
    fn plans_are_replayable() {
        let a = plan(7);
        let b = plan(7);
        for id in 0..20u64 {
            assert_eq!(a.cancel_after(RequestId(id)), b.cancel_after(RequestId(id)));
            for step in 0..50 {
                assert_eq!(
                    a.step_fault(RequestId(id), step),
                    b.step_fault(RequestId(id), step)
                );
            }
        }
        for it in 0..200 {
            assert_eq!(a.verifier_slowdown(it), b.verifier_slowdown(it));
        }
        assert_eq!(a.burst_requests(10), b.burst_requests(10));
    }

    #[test]
    fn different_seeds_differ() {
        let a = plan(1);
        let b = plan(2);
        let mut same = 0;
        let mut total = 0;
        for id in 0..10u64 {
            for step in 0..20 {
                total += 1;
                if a.step_fault(RequestId(id), step) == b.step_fault(RequestId(id), step) {
                    same += 1;
                }
            }
        }
        assert!(same < total, "seeds must shape the schedule");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = FaultPlan::new(
            3,
            FaultSpec {
                ssm_garbage_rate: 0.5,
                ..FaultSpec::none()
            },
        );
        let n = 10_000;
        let fired = (0..n)
            .filter(|&i| {
                p.step_fault(RequestId(i / 100), (i % 100) as usize)
                    .is_some_and(|f| f.ssm_garbage.is_some())
            })
            .count();
        let frac = fired as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "empirical rate {frac}");
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let p = FaultPlan::new(9, FaultSpec::none());
        for id in 0..10u64 {
            assert!(p.cancel_after(RequestId(id)).is_none());
            for step in 0..50 {
                assert!(p.step_fault(RequestId(id), step).is_none());
            }
        }
        assert!(p.verifier_slowdown(0).is_none());
        assert!(p.burst_requests(0).is_empty());
    }

    #[test]
    fn burst_requests_are_well_formed() {
        let p = plan(5).with_burst(BurstSpec {
            at_s: 2.5,
            count: 4,
            prompt_len: 3,
            max_new_tokens: 6,
            vocab: 32,
        });
        let reqs = p.burst_requests(100);
        assert_eq!(reqs.len(), 4);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.0, 100 + i as u64);
            assert_eq!(r.prompt.len(), 3);
            assert!(r.prompt.iter().all(|&t| t < 32));
            assert_eq!(r.arrival_s, 2.5);
            assert_eq!(r.max_new_tokens, 6);
        }
    }

    #[test]
    fn cancel_tokens_stay_in_range() {
        let p = FaultPlan::new(
            11,
            FaultSpec {
                cancel_rate: 1.0,
                max_cancel_tokens: 6,
                ..FaultSpec::none()
            },
        );
        for id in 0..100u64 {
            let n = p.cancel_after(RequestId(id)).expect("rate 1.0");
            assert!((1..=6).contains(&n));
        }
    }
}
