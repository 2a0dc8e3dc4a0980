//! Iteration-level scheduling (continuous batching), after Orca.
//!
//! The scheduler keeps a FIFO of pending requests and an active set of at
//! most `max_batch_size` requests. After **every decoding iteration** —
//! not after whole requests — finished requests retire and newly arrived
//! requests are admitted, so a long-running request never blocks the
//! queue (§5.1 of the paper).
//!
//! Under overload the admission queue applies **backpressure**: with a
//! bounded [`QueuePolicy`] the queue rejects submissions beyond its
//! capacity into a deferred list, retrying each with exponential backoff
//! a bounded number of times before dropping it. Deadline-carrying
//! requests that expire while queued are shed by [`IterationScheduler::
//! expire`] before they waste an admission slot.

use std::collections::VecDeque;

use crate::request::{Request, RequestId};

/// Bounds on the admission queue and its retry behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePolicy {
    /// Maximum requests waiting for admission before backpressure kicks
    /// in.
    pub capacity: usize,
    /// How many times a rejected submission is retried (with exponential
    /// backoff) before being dropped.
    pub max_retries: u32,
    /// Base backoff between retries, seconds on the simulated clock;
    /// attempt `n` waits `backoff_s · 2ⁿ`.
    pub backoff_s: f64,
}

impl QueuePolicy {
    /// No backpressure: the queue grows without bound (the historical
    /// behaviour).
    pub fn unbounded() -> Self {
        QueuePolicy {
            capacity: usize::MAX,
            max_retries: 0,
            backoff_s: 0.0,
        }
    }

    /// A bounded queue with the default retry ladder (3 retries, 50 ms
    /// base backoff).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        QueuePolicy {
            capacity,
            max_retries: 3,
            backoff_s: 0.05,
        }
    }
}

impl Default for QueuePolicy {
    fn default() -> Self {
        QueuePolicy::unbounded()
    }
}

/// Counters of backpressure activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Retry attempts performed for deferred submissions.
    pub retries: usize,
    /// Submissions dropped after exhausting their retries.
    pub rejected: usize,
    /// Pending requests shed because their deadline passed in queue.
    pub expired: usize,
}

#[derive(Debug)]
struct Deferred {
    request: Request,
    attempts: u32,
    retry_at: f64,
}

/// The continuous-batching admission queue.
#[derive(Debug)]
pub struct IterationScheduler {
    pending: VecDeque<Request>,
    deferred: Vec<Deferred>,
    max_batch_size: usize,
    policy: QueuePolicy,
    stats: QueueStats,
    rejected: Vec<Request>,
}

impl IterationScheduler {
    /// Creates a scheduler admitting at most `max_batch_size` concurrent
    /// requests, with an unbounded queue.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_size` is zero.
    pub fn new(max_batch_size: usize) -> Self {
        IterationScheduler::with_policy(max_batch_size, QueuePolicy::unbounded())
    }

    /// Creates a scheduler with an explicit queue/backpressure policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_size` or the policy's capacity is zero.
    pub fn with_policy(max_batch_size: usize, policy: QueuePolicy) -> Self {
        assert!(max_batch_size > 0, "batch size must be positive");
        assert!(policy.capacity > 0, "queue capacity must be positive");
        IterationScheduler {
            pending: VecDeque::new(),
            deferred: Vec::new(),
            max_batch_size,
            policy,
            stats: QueueStats::default(),
            rejected: Vec::new(),
        }
    }

    /// The admission limit.
    pub fn max_batch_size(&self) -> usize {
        self.max_batch_size
    }

    /// Backpressure counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Drains the requests dropped after exhausting their retries.
    pub fn take_rejected(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.rejected)
    }

    /// Enqueues a request, kept sorted by `(arrival_s, id)`.
    ///
    /// Ties on `arrival_s` are broken by the request id — the id is
    /// issued at the front door in arrival order, so equal-arrival
    /// requests retain FIFO order even when their `submit` calls race
    /// and land out of order. When the queue is at capacity, the request
    /// is deferred for retry (or dropped if the policy has no retries).
    pub fn submit(&mut self, request: Request) {
        if self.pending.len() < self.policy.capacity {
            self.insert_sorted(request);
        } else if self.policy.max_retries > 0 {
            self.deferred.push(Deferred {
                retry_at: request.arrival_s + self.policy.backoff_s,
                request,
                attempts: 0,
            });
        } else {
            self.stats.rejected += 1;
            self.rejected.push(request);
        }
    }

    fn insert_sorted(&mut self, request: Request) {
        // Requests usually arrive in order; walk back only when needed.
        let pos = self
            .pending
            .iter()
            .rposition(|r| {
                r.arrival_s < request.arrival_s
                    || (r.arrival_s == request.arrival_s && r.id <= request.id)
            })
            .map(|p| p + 1)
            .unwrap_or(0);
        self.pending.insert(pos, request);
    }

    /// Number of requests waiting for admission (deferred ones included).
    pub fn pending_len(&self) -> usize {
        self.pending.len() + self.deferred.len()
    }

    /// Whether any request is waiting.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty() || !self.deferred.is_empty()
    }

    /// The earliest time at which a pending (or deferred) request becomes
    /// admissible, if any.
    pub fn next_arrival_s(&self) -> Option<f64> {
        let pending = self.pending.front().map(|r| r.arrival_s);
        let deferred = self
            .deferred
            .iter()
            .map(|d| d.retry_at)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            });
        match (pending, deferred) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Sheds pending requests whose deadline has passed by `now` and
    /// returns them (so the server can report the misses).
    pub fn expire(&mut self, now: f64) -> Vec<Request> {
        let mut expired = Vec::new();
        let mut i = 0;
        while let Some(due) = self.pending.get(i).map(|r| r.deadline_missed(now)) {
            if due {
                if let Some(r) = self.pending.remove(i) {
                    expired.push(r);
                }
            } else {
                i += 1;
            }
        }
        self.stats.expired += expired.len();
        expired
    }

    /// Withdraws a waiting request — queued or deferred — and returns it,
    /// or `None` if `id` is not waiting. Its queue slot is free at once,
    /// so a cancelled request never holds a bounded queue against later
    /// submissions.
    pub fn cancel(&mut self, id: RequestId) -> Option<Request> {
        if let Some(i) = self.pending.iter().position(|r| r.id == id) {
            return self.pending.remove(i);
        }
        let i = self.deferred.iter().position(|d| d.request.id == id)?;
        Some(self.deferred.swap_remove(i).request)
    }

    /// Retries deferred submissions whose backoff has elapsed by `now`.
    fn pump_deferred(&mut self, now: f64) {
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred.get(i).is_none_or(|d| d.retry_at > now) {
                i += 1;
                continue;
            }
            self.stats.retries += 1;
            if self.pending.len() < self.policy.capacity {
                let d = self.deferred.swap_remove(i);
                self.insert_sorted(d.request);
                continue;
            }
            let exhausted = self.deferred.get_mut(i).is_some_and(|d| {
                d.attempts += 1;
                d.attempts > self.policy.max_retries
            });
            if exhausted {
                let d = self.deferred.swap_remove(i);
                self.stats.rejected += 1;
                self.rejected.push(d.request);
            } else if let Some(d) = self.deferred.get_mut(i) {
                d.retry_at = now + self.policy.backoff_s * f64::from(1u32 << d.attempts);
                i += 1;
            }
        }
    }

    /// Admits requests that have arrived by `now`, given `active` requests
    /// currently running, without exceeding the batch limit. Called once
    /// per decoding iteration. Deferred submissions whose backoff has
    /// elapsed are retried first.
    pub fn admit(&mut self, now: f64, active: usize) -> Vec<Request> {
        self.admit_budgeted(now, active, usize::MAX, |_| 0)
    }

    /// [`IterationScheduler::admit`] under a slab budget: each candidate
    /// costs `cost(&request)` KV rows against `free_rows` of remaining
    /// slab, and candidates that do not fit are **skipped, not blocked
    /// on** — a first-fit scan in FIFO order over the arrived prefix of
    /// the queue, so a short request behind a long one still fills an
    /// otherwise-idle slot (occupancy-maximizing admission for ragged
    /// mid-flight joins).
    ///
    /// Two invariants temper the greed:
    ///
    /// * FIFO tie-break survives: the queue is sorted by `(arrival_s,
    ///   id)` and the scan admits in queue order, so among requests that
    ///   fit, earlier arrivals always win.
    /// * Head-of-line starvation guard: when the engine is idle
    ///   (`active == 0`) and nothing has been admitted yet, the FIFO
    ///   head is admitted even if it overflows the budget — a request
    ///   larger than the whole slab must still run eventually (its
    ///   session clamps the slab to the model's context window), and an
    ///   idle engine with a non-empty queue must never livelock.
    ///
    /// `cost` is a closure, not a constant-per-request tariff, precisely
    /// so callers can charge *per-request* speculation shapes: under the
    /// adaptive controller, two queued requests with equal prompts can
    /// cost different row counts (their sessions sit on different ladder
    /// rungs), and the scan prices each candidate individually.
    pub fn admit_budgeted(
        &mut self,
        now: f64,
        active: usize,
        free_rows: usize,
        cost: impl Fn(&Request) -> usize,
    ) -> Vec<Request> {
        self.pump_deferred(now);
        let mut admitted = Vec::new();
        let mut free = free_rows;
        let mut i = 0;
        while active + admitted.len() < self.max_batch_size {
            let Some(r) = self.pending.get(i) else { break };
            if r.arrival_s > now {
                // Sorted by arrival: everything past here is in the future.
                break;
            }
            let rows = cost(r);
            let starving = active == 0 && admitted.is_empty();
            if rows <= free || starving {
                if let Some(r) = self.pending.remove(i) {
                    free = free.saturating_sub(rows);
                    admitted.push(r);
                } else {
                    break;
                }
            } else {
                i += 1;
            }
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, arrival: f64) -> Request {
        Request {
            id: RequestId(id),
            prompt: vec![1, 2],
            max_new_tokens: 8,
            arrival_s: arrival,
            deadline_s: None,
            dataset: None,
        }
    }

    #[test]
    fn admits_up_to_batch_limit() {
        let mut s = IterationScheduler::new(2);
        for i in 0..4 {
            s.submit(request(i, 0.0));
        }
        let first = s.admit(0.0, 0);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].id, RequestId(0));
        // With one slot still busy, only one more fits.
        let second = s.admit(0.0, 1);
        assert_eq!(second.len(), 1);
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn respects_arrival_times() {
        let mut s = IterationScheduler::new(4);
        s.submit(request(0, 0.0));
        s.submit(request(1, 5.0));
        let now = s.admit(1.0, 0);
        assert_eq!(now.len(), 1);
        assert_eq!(s.next_arrival_s(), Some(5.0));
        let later = s.admit(5.0, 0);
        assert_eq!(later.len(), 1);
    }

    #[test]
    fn out_of_order_submissions_are_sorted() {
        let mut s = IterationScheduler::new(4);
        s.submit(request(1, 2.0));
        s.submit(request(0, 1.0));
        s.submit(request(2, 3.0));
        let all = s.admit(10.0, 0);
        let ids: Vec<u64> = all.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn ties_keep_fifo_order() {
        let mut s = IterationScheduler::new(4);
        s.submit(request(7, 1.0));
        s.submit(request(8, 1.0));
        let all = s.admit(1.0, 0);
        let ids: Vec<u64> = all.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![7, 8]);
    }

    /// Regression: equal-arrival requests must retain FIFO (id) order
    /// even when their `submit` calls land out of order — the id is
    /// issued at the front door, so it *is* the arrival order.
    #[test]
    fn ties_keep_fifo_order_when_submitted_out_of_order() {
        let mut s = IterationScheduler::new(8);
        s.submit(request(8, 1.0));
        s.submit(request(7, 1.0)); // same arrival, earlier id, later submit
        s.submit(request(5, 0.5));
        s.submit(request(9, 1.0));
        s.submit(request(6, 1.0));
        let all = s.admit(10.0, 0);
        let ids: Vec<u64> = all.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn full_batch_admits_nothing() {
        let mut s = IterationScheduler::new(2);
        s.submit(request(0, 0.0));
        assert!(s.admit(0.0, 2).is_empty());
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn bounded_queue_defers_and_retries() {
        let mut s = IterationScheduler::with_policy(
            1,
            QueuePolicy {
                capacity: 2,
                max_retries: 3,
                backoff_s: 1.0,
            },
        );
        for i in 0..3 {
            s.submit(request(i, 0.0));
        }
        assert_eq!(s.pending_len(), 3, "third submission is deferred");
        // Admitting one frees queue space; the deferred request retries
        // once its backoff (1 s) elapses.
        let first = s.admit(0.0, 0);
        assert_eq!(first.len(), 1);
        let retried = s.admit(1.0, 0);
        assert_eq!(retried.len(), 1);
        assert_eq!(retried[0].id, RequestId(1));
        assert!(s.stats().retries >= 1);
        assert_eq!(s.stats().rejected, 0);
    }

    #[test]
    fn bounded_queue_rejects_after_max_retries() {
        let mut s = IterationScheduler::with_policy(
            1,
            QueuePolicy {
                capacity: 1,
                max_retries: 2,
                backoff_s: 0.5,
            },
        );
        s.submit(request(0, 0.0));
        s.submit(request(1, 0.0)); // deferred — the queue never drains
        for t in 1..=8 {
            // Admit with a full active set: the pending request stays
            // queued, so every retry finds the queue still full. The
            // clock advances past each backoff.
            let _ = s.admit(t as f64 * 100.0, 1);
        }
        assert_eq!(s.stats().rejected, 1);
        let dropped = s.take_rejected();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id, RequestId(1));
        assert!(s.stats().retries >= 3, "{:?}", s.stats());
    }

    #[test]
    fn expired_requests_are_shed_in_queue() {
        let mut s = IterationScheduler::new(4);
        let mut doomed = request(0, 0.0);
        doomed.deadline_s = Some(1.0);
        s.submit(doomed);
        s.submit(request(1, 0.0));
        let expired = s.expire(2.0);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, RequestId(0));
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn cancel_withdraws_queued_and_deferred_requests() {
        let mut s = IterationScheduler::with_policy(1, QueuePolicy::bounded(1));
        s.submit(request(0, 0.0));
        s.submit(request(1, 0.0)); // deferred: the queue holds one
        assert_eq!(s.cancel(RequestId(0)).map(|r| r.id), Some(RequestId(0)));
        assert_eq!(s.cancel(RequestId(0)), None, "already withdrawn");
        // The freed slot takes a new submission without backoff.
        s.submit(request(2, 0.0));
        assert_eq!(s.cancel(RequestId(1)).map(|r| r.id), Some(RequestId(1)));
        assert_eq!(s.pending_len(), 1);
        assert_eq!(s.admit(0.0, 0).first().map(|r| r.id), Some(RequestId(2)));
        assert_eq!(s.stats(), QueueStats::default());
    }

    #[test]
    fn unbounded_queue_never_rejects() {
        let mut s = IterationScheduler::new(1);
        for i in 0..100 {
            s.submit(request(i, 0.0));
        }
        assert_eq!(s.pending_len(), 100);
        assert_eq!(s.stats(), QueueStats::default());
    }

    fn sized_request(id: u64, arrival: f64, prompt_len: usize, max_new: usize) -> Request {
        Request {
            id: RequestId(id),
            prompt: vec![3; prompt_len.max(1)],
            max_new_tokens: max_new,
            arrival_s: arrival,
            deadline_s: None,
            dataset: None,
        }
    }

    /// Budgeted admission is a first-fit scan: a long request that does
    /// not fit the remaining slab is skipped (not blocked on) and a
    /// shorter later arrival fills the slot instead.
    #[test]
    fn budgeted_admit_maximizes_occupancy_under_mixed_lengths() {
        let mut s = IterationScheduler::new(4);
        s.submit(sized_request(0, 0.0, 10, 90)); // 100 rows — too big
        s.submit(sized_request(1, 0.0, 5, 15)); // 20 rows — fits
        s.submit(sized_request(2, 0.0, 5, 25)); // 30 rows — fits
                                                // One slot is already running, so the starvation guard stays out
                                                // of the way and the 100-row head is skipped.
        let admitted = s.admit_budgeted(0.0, 1, 60, Request::kv_rows);
        let ids: Vec<u64> = admitted.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
        // The skipped head stays queued at the front and is admitted as
        // soon as the slab frees up.
        assert_eq!(s.pending_len(), 1);
        let head = s.admit_budgeted(0.0, 1, 100, Request::kv_rows);
        assert_eq!(head[0].id, RequestId(0));
    }

    /// FIFO tie-break on equal `arrival_s` survives budgeted admission
    /// when slots free up mid-batch: among requests that fit, earlier
    /// (arrival, id) always wins.
    #[test]
    fn budgeted_admit_keeps_fifo_tiebreak_when_slots_free_midbatch() {
        let mut s = IterationScheduler::new(2);
        s.submit(sized_request(8, 1.0, 2, 8)); // 10 rows each, same arrival
        s.submit(sized_request(7, 1.0, 2, 8));
        s.submit(sized_request(9, 1.0, 2, 8));
        // Batch full: nothing admitted, order untouched.
        assert!(s.admit_budgeted(1.0, 2, 100, Request::kv_rows).is_empty());
        // One slot retires mid-batch → the earliest id of the equal-
        // arrival trio is admitted first.
        let first = s.admit_budgeted(1.0, 1, 100, Request::kv_rows);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, RequestId(7));
        // Two more slots free up → the remaining two in id order.
        let rest = s.admit_budgeted(1.0, 0, 100, Request::kv_rows);
        let ids: Vec<u64> = rest.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![8, 9]);
    }

    /// An idle engine with a head bigger than the whole slab must not
    /// livelock: the starvation guard admits the FIFO head anyway.
    #[test]
    fn budgeted_admit_never_starves_an_oversized_head() {
        let mut s = IterationScheduler::new(2);
        s.submit(sized_request(0, 0.0, 50, 200)); // 250 rows > slab
        s.submit(sized_request(1, 0.0, 2, 8));
        let admitted = s.admit_budgeted(0.0, 0, 64, Request::kv_rows);
        let ids: Vec<u64> = admitted.iter().map(|r| r.id.0).collect();
        // Head admitted by the guard; the 10-row request no longer fits
        // the (saturated) budget and waits.
        assert_eq!(ids, vec![0]);
        assert_eq!(s.pending_len(), 1);
    }

    /// The cost closure is evaluated per candidate, so adaptive
    /// controllers can charge each request its own current speculation
    /// shape: with a variable tariff, the same queue admits a different
    /// prefix than any flat per-request cost would.
    #[test]
    fn budgeted_admit_prices_each_request_through_the_closure() {
        let mut s = IterationScheduler::new(4);
        s.submit(sized_request(0, 0.0, 5, 15)); // 20 kv rows
        s.submit(sized_request(1, 0.0, 5, 15)); // 20 kv rows
        s.submit(sized_request(2, 0.0, 5, 15)); // 20 kv rows
                                                // Variable tariff: request 1 is on a high ladder rung (+21 rows
                                                // of speculation), the others are parked (+1 row).
        let spec = |r: &Request| if r.id.0 == 1 { 21 } else { 1 };
        let admitted = s.admit_budgeted(0.0, 1, 45, |r| r.kv_rows() + spec(r));
        let ids: Vec<u64> = admitted.iter().map(|r| r.id.0).collect();
        // 21+41 > 45 after admitting 0, so the expensive request is
        // skipped and the cheap request 2 fills the remaining budget.
        assert_eq!(ids, vec![0, 2]);
        // A flat worst-case tariff would have admitted only request 0.
        let mut flat = IterationScheduler::new(4);
        for i in 0..3 {
            flat.submit(sized_request(i, 0.0, 5, 15));
        }
        let admitted = flat.admit_budgeted(0.0, 1, 45, |r| r.kv_rows() + 21);
        assert_eq!(admitted.len(), 1);
    }

    /// Bounded-queue defer/retry semantics are unchanged by the budget
    /// path: `admit` delegates to `admit_budgeted` with an infinite slab.
    #[test]
    fn budgeted_admit_preserves_bounded_queue_backpressure() {
        let mut s = IterationScheduler::with_policy(
            1,
            QueuePolicy {
                capacity: 2,
                max_retries: 3,
                backoff_s: 1.0,
            },
        );
        for i in 0..3 {
            s.submit(sized_request(i, 0.0, 2, 8));
        }
        assert_eq!(s.pending_len(), 3, "third submission is deferred");
        let first = s.admit_budgeted(0.0, 0, usize::MAX, Request::kv_rows);
        assert_eq!(first.len(), 1);
        let retried = s.admit_budgeted(1.0, 0, usize::MAX, Request::kv_rows);
        assert_eq!(retried.len(), 1);
        assert_eq!(retried[0].id, RequestId(1));
        assert!(s.stats().retries >= 1);
        assert_eq!(s.stats().rejected, 0);
    }
}
