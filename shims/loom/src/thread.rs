//! Model threads: scheduler-registered tasks with join support.

use crate::rt;
use std::sync::{Arc, Mutex as StdMutex};

pub struct JoinHandle<T> {
    task: usize,
    result: Arc<StdMutex<Option<T>>>,
}

/// Spawns a model task. The spawn itself is a decision point: the child
/// may run to completion before the parent resumes, or not start until
/// the parent blocks — the explorer tries both.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (sched, me) = rt::current();
    let result = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let task = rt::spawn_task(&sched, move || {
        let v = f();
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
    });
    sched.yield_point(me);
    JoinHandle { task, result }
}

/// A handle to a model task, for [`Thread::unpark`].
#[derive(Debug, Clone)]
pub struct Thread {
    task: usize,
}

/// The calling task's handle.
pub fn current() -> Thread {
    Thread {
        task: rt::current().1,
    }
}

/// Blocks the calling task until its park token is available, then
/// consumes it — `std::thread::park`'s contract, minus spurious
/// wake-ups (a model that survives without them survives with them only
/// if it re-checks its condition, which every schedule here exercises
/// through stale tokens). An `unpark` nobody sends is a deadlock report.
pub fn park() {
    let (sched, me) = rt::current();
    sched.park(me);
}

impl Thread {
    /// Makes the task's park token available, waking it if it is parked.
    /// The token does not count: two `unpark`s before a `park` are one.
    pub fn unpark(&self) {
        let (sched, me) = rt::current();
        sched.unpark(me, self.task);
    }
}

/// A voluntary decision point, for models that want to widen the
/// explored interleavings around plain computation.
pub fn yield_now() {
    let (sched, me) = rt::current();
    sched.yield_point(me);
}

impl<T> JoinHandle<T> {
    /// The spawned task's handle.
    pub fn thread(&self) -> Thread {
        Thread { task: self.task }
    }

    /// Blocks until the task finishes. Returns `Err` if the task
    /// panicked (the explorer will also record that execution as a
    /// failure).
    pub fn join(self) -> std::thread::Result<T> {
        let (sched, me) = rt::current();
        sched.join_task(me, self.task);
        match self.result.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(v) => Ok(v),
            None => Err(Box::new(
                "loom model task panicked before producing a value",
            )),
        }
    }
}
