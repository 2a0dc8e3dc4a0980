//! Model-checked hand-off protocol of the worker pool.
//!
//! `crates/tensor/src/pool.rs` publishes one job into a slot guarded by
//! a gate word (`OPEN` bit | workers inside), wakes parked workers,
//! hands task indices out of one counter and joins by closing the gate
//! and waiting for it to empty. This file re-creates exactly that
//! protocol — same words, same order of operations, `thread::park`
//! tokens included — on the loom-lite explorer (`shims/loom`), which
//! serializes the model's threads and enumerates their interleavings,
//! reporting assertion failures and deadlocks with the schedule that
//! triggers them. A lost wake-up strands a task in `park` and is
//! reported as a deadlock; a task handed out twice, a worker touching a
//! job whose caller already returned, or a join that misses a task's
//! write trips an assertion.
//!
//! What the model adds to the real thing is bookkeeping the assertions
//! read (`done`, `live`, `inside`) and a shutdown flag so every model
//! thread terminates; what it leaves out is the thread cap and the
//! panic relay, neither of which touches the hand-off.

use std::sync::atomic::{AtomicUsize as Count, Ordering::SeqCst};
use std::sync::Mutex as Plain;

use loom::sync::atomic::AtomicUsize;
use loom::sync::{Arc, Mutex};
use loom::thread::{self, JoinHandle, Thread};

const OPEN: usize = 1 << 16;
/// One poll puts a worker "in the spin" when the next job arrives; more
/// would only lengthen every schedule.
const SPIN_POLLS: usize = 1;

struct Job {
    id: usize,
    n_tasks: usize,
    caller: Thread,
}

struct Pool {
    gate: AtomicUsize,
    epoch: AtomicUsize,
    next: AtomicUsize,
    hot: AtomicUsize,
    shutdown: AtomicUsize,
    /// `WORKERS`: job-slot token (only ever `try_lock`ed) + handles.
    workers: Mutex<Vec<Thread>>,
    /// `JOB`. A plain mutex, never contended because the explorer runs
    /// one task at a time: the *protocol* must keep the writer and the
    /// readers apart, and `inside`/`live` check that it does.
    job: Plain<Option<Job>>,
    handles: Plain<Vec<JoinHandle<()>>>,
    /// Workers between their entering CAS and their leaving decrement.
    inside: Count,
    /// Per job: is the caller still in `run` (its closure alive)?
    live: Plain<Vec<bool>>,
    /// Per job, per task: the value the task wrote, once.
    done: Plain<Vec<Vec<Option<f32>>>>,
    /// The seeded bug of `a_dropped_wakeup_is_caught`: the last worker
    /// out does not wake the caller.
    drop_caller_wakeup: bool,
}

/// What task `t` of job `id` computes: awkward f32 sums, so that a task
/// run twice, skipped, or merged in the wrong slot shows in the bits.
fn value(id: usize, t: usize) -> f32 {
    (0..4).fold(0.1 + id as f32, |acc, i| acc + (t * 4 + i) as f32 * 0.37)
}

impl Pool {
    fn new(jobs: &[usize]) -> Arc<Pool> {
        Arc::new(Pool::with_bug(jobs, false))
    }

    fn with_bug(jobs: &[usize], drop_caller_wakeup: bool) -> Pool {
        Pool {
            gate: AtomicUsize::new(0),
            epoch: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            hot: AtomicUsize::new(0),
            shutdown: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
            job: Plain::new(None),
            handles: Plain::new(Vec::new()),
            inside: Count::new(0),
            live: Plain::new(vec![false; jobs.len()]),
            done: Plain::new(jobs.iter().map(|&n| vec![None; n]).collect()),
            drop_caller_wakeup,
        }
    }

    /// The task body: the closure must be alive before and after, and
    /// nobody may have run this task already.
    fn exec(&self, id: usize, t: usize) {
        assert!(self.live.lock().unwrap()[id], "task of a returned job");
        let twice = self.done.lock().unwrap()[id][t].replace(value(id, t));
        assert!(twice.is_none(), "job {id} task {t} handed out twice");
        thread::yield_now();
        assert!(self.live.lock().unwrap()[id], "caller returned mid-task");
    }

    /// `pool::claim_tasks`.
    fn claim_tasks(&self, id: usize, n_tasks: usize) {
        loop {
            let t = self.next.fetch_add(1, SeqCst);
            if t >= n_tasks {
                return;
            }
            self.exec(id, t);
        }
    }

    /// `pool::run`, with `max_workers` for `effective_threads() − 1`.
    fn run(self: &Arc<Self>, id: usize, n_tasks: usize, max_workers: usize) {
        self.live.lock().unwrap()[id] = true;
        let helpers = max_workers.min(n_tasks.saturating_sub(1));
        let slot = if helpers == 0 {
            None
        } else {
            self.workers.try_lock().ok()
        };
        match slot {
            None => (0..n_tasks).for_each(|t| self.exec(id, t)),
            Some(mut workers) => {
                while workers.len() < helpers {
                    let pool = Arc::clone(self);
                    let handle = thread::spawn(move || pool.worker_loop());
                    workers.push(handle.thread());
                    self.handles.lock().unwrap().push(handle);
                }
                assert_eq!(self.inside.load(SeqCst), 0, "slot written under a worker");
                *self.job.lock().unwrap() = Some(Job {
                    id,
                    n_tasks,
                    caller: thread::current(),
                });
                self.next.store(0, SeqCst);
                self.gate.store(OPEN, SeqCst);
                self.epoch.fetch_add(1, SeqCst);
                for worker in workers.iter().take(helpers) {
                    worker.unpark();
                }
                self.claim_tasks(id, n_tasks);
                // `Join::drain`.
                self.gate.fetch_and(!OPEN, SeqCst);
                let mut polls = 0;
                while self.gate.load(SeqCst) != 0 {
                    if polls < SPIN_POLLS {
                        polls += 1;
                    } else {
                        thread::park();
                    }
                }
                drop(workers);
            }
        }
        // The join is the only barrier: every task's write is visible.
        let done = self.done.lock().unwrap()[id].clone();
        for (t, got) in done.iter().enumerate() {
            let got = got.unwrap_or_else(|| panic!("job {id} task {t} missing after the join"));
            assert_eq!(got.to_bits(), value(id, t).to_bits(), "job {id} task {t}");
        }
        self.live.lock().unwrap()[id] = false;
    }

    /// `pool::worker_loop`.
    fn worker_loop(&self) {
        let (mut seen, mut polls) = (0, 0);
        while self.shutdown.load(SeqCst) == 0 {
            let epoch = self.epoch.load(SeqCst);
            if epoch != seen {
                seen = epoch;
                self.help();
                polls = 0;
            } else if polls < SPIN_POLLS && self.hot.load(SeqCst) > 0 {
                polls += 1;
            } else {
                thread::park();
                polls = 0;
            }
        }
    }

    /// `pool::help`.
    fn help(&self) {
        let mut gate = self.gate.load(SeqCst);
        loop {
            if gate & OPEN == 0 {
                return;
            }
            match self.gate.compare_exchange(gate, gate + 1, SeqCst, SeqCst) {
                Ok(_) => break,
                Err(now) => gate = now,
            }
        }
        self.inside.fetch_add(1, SeqCst);
        let (id, n_tasks, caller) = {
            let job = self.job.lock().unwrap();
            let job = job.as_ref().expect("open gate over an empty slot");
            (job.id, job.n_tasks, job.caller.clone())
        };
        self.claim_tasks(id, n_tasks);
        self.inside.fetch_sub(1, SeqCst);
        if self.gate.fetch_sub(1, SeqCst) == 1 && !self.drop_caller_wakeup {
            caller.unpark();
        }
    }

    /// Ends the model: every worker sees the flag on its next wake-up.
    fn shut_down(&self) {
        self.shutdown.store(1, SeqCst);
        for worker in self.workers.lock().unwrap().iter() {
            worker.unpark();
        }
        for handle in std::mem::take(&mut *self.handles.lock().unwrap()) {
            handle.join().expect("worker exits cleanly");
        }
    }
}

/// Explores `model` under a CHESS-style preemption bound and requires a
/// clean, complete exploration. The gate protocol is a dozen atomic
/// steps per thread, which puts unbounded enumeration out of reach; the
/// seeded lost wake-up of `a_dropped_wakeup_is_caught` needs two
/// preemptions to show, which the one- and two-worker models get. The
/// bounds keep the file to some tens of thousands of schedules.
fn check(what: &str, preemptions: usize, model: impl Fn() + Send + Sync + 'static) {
    let mut builder = loom::Builder::new();
    builder.preemption_bound = Some(preemptions);
    let report = builder.explore(model);
    assert!(report.failure.is_none(), "{what}: {:?}", report.failure);
    assert!(report.completed, "{what}: exploration truncated");
    assert!(report.schedules > 1, "{what}: no interleaving explored");
}

/// Two jobs back to back on parking workers: the second publication
/// races the workers' "nothing to do → park" of the first (no lost
/// wake-up), a late worker meets a closed or re-opened gate (no stale
/// job), and the caller parks in the join under a slow worker. Four
/// threads at two preemptions are six minutes of schedules, so the
/// three-worker model runs at one: it checks the claim counter and the
/// join under three-way contention, the wake-ups rest on the others.
#[test]
fn parked_workers_lose_no_wakeup_and_no_task_for_1_to_3_workers() {
    for (workers, preemptions) in [(1, 3), (2, 2), (3, 1)] {
        check("parked", preemptions, move || {
            let pool = Pool::new(&[workers + 1, 2]);
            pool.run(0, workers + 1, workers);
            pool.run(1, 2, workers);
            pool.shut_down();
        });
    }
}

/// The same inside a `Hot` bracket: the second job is published while
/// the worker is in its bounded spin, or has just given it up.
#[test]
fn spinning_workers_lose_no_wakeup_and_no_task() {
    for workers in 1..=2usize {
        check("hot", [3, 2][workers - 1], move || {
            let pool = Pool::new(&[2, workers + 1]);
            pool.hot.fetch_add(1, SeqCst);
            pool.run(0, 2, workers);
            pool.run(1, workers + 1, workers);
            pool.hot.fetch_sub(1, SeqCst);
            pool.shut_down();
        });
    }
}

/// Two callers at once: one owns the job slot, the other finds it taken
/// and runs its tasks inline — both complete, with the serial bits, and
/// neither waits for the other.
#[test]
fn a_second_concurrent_caller_falls_back_inline() {
    check("two callers", 2, || {
        let pool = Pool::new(&[2, 2]);
        let other = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.run(1, 2, 1))
        };
        pool.run(0, 2, 1);
        other.join().expect("second caller completes");
        pool.shut_down();
    });
}

/// The explorer is not vacuous: take the caller's wake-up out of the
/// protocol and some schedule parks the caller in the join for good.
#[test]
fn a_dropped_wakeup_is_caught() {
    let mut builder = loom::Builder::new();
    builder.preemption_bound = Some(2);
    let report = builder.explore(|| {
        let pool = Arc::new(Pool::with_bug(&[2], true));
        pool.run(0, 2, 1);
        pool.shut_down();
    });
    let failure = report.failure.expect("the seeded bug must be found");
    assert!(failure.contains("deadlock"), "{failure}");
}
