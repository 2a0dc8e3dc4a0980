//! The one worker pool: every parallel region of the workspace runs
//! here.
//!
//! `effective_threads() − 1` workers are started lazily, live for the
//! rest of the process and are **parked** (zero CPU) whenever they have
//! nothing to do. [`run`] publishes one job — a borrowed closure and a
//! task count — wakes the workers it wants and works on the job itself:
//! caller and workers claim task indices from one atomic counter until
//! it runs out, so a worker that arrives late (or whose vCPU the host
//! took away) simply claims fewer. The join at the end of [`run`] is the
//! only barrier.
//!
//! There is one job slot. A caller that finds it taken — another thread
//! is in a region, or the caller *is* a task of the running region (a
//! drafting session multiplying inside `propose_all`'s fan-out) — runs
//! its tasks inline, in order. Which thread executes a task never shows
//! in the output: regions partition *outputs* (rows, columns, sessions),
//! never a reduction (`ARCHITECTURE.md` §6).
//!
//! A worker with nothing to claim parks at once, except inside a [`Hot`]
//! bracket: a forward of an LLM-sized model issues regions tens of
//! microseconds apart, a park/unpark round trip between them would cost
//! more than they save, so while a bracket is open an idle worker polls
//! for the next job — at most [`SPIN_POLLS`] times, then it parks after
//! all. The joining caller waits under the same bound. Nothing spins
//! unbounded, and outside a bracket nothing spins at all.
//!
//! # The hand-off
//!
//! * `GATE` holds an `OPEN` bit and the number of workers *inside* the
//!   job. A worker enters by a CAS that increments the count while the
//!   bit is set and leaves by decrementing it; only a worker inside may
//!   read the job slot or claim tasks.
//! * The caller fills the slot, resets the claim counter, stores
//!   `GATE = OPEN` (release: an entering worker's acquire CAS sees the
//!   slot), bumps `EPOCH` and unparks the workers. `thread::park` keeps
//!   a token, so a wake-up that lands between a worker's "nothing to do"
//!   and its `park` is not lost.
//! * The join clears `OPEN` — no one can enter any more — and waits for
//!   the count to reach zero; the last worker out unparks the caller.
//!   The caller's own claim loop ran the counter out and every claimer
//!   has left, so the acquire load that reads zero publishes every
//!   task's writes.
//!
//! `crates/tensor/tests/loom_pool.rs` model-checks this protocol.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::thread::{self, Thread};

use crate::kernels::effective_threads;

/// Bytes of matrix data below which a region is not worth sharing.
///
/// Measured on the 2-vCPU AVX2 reference host: a *parked* worker claims
/// its first task 30–90 µs after the job is published (futex wake,
/// reschedule), a polling one within 2 µs. One core streams packed
/// panels at ≈ 20 GB/s, so 1 MiB is ≈ 50 µs of one core's work — the
/// smallest region a parked worker can still shorten. The LLM's
/// feed-forward packs (3 MiB) are above it; every pack of an SSM, and
/// the attention/QKV/head packs of the LLM, are below it and never
/// wake anyone.
pub const MIN_SHARE_BYTES: usize = 1 << 20;

/// Tasks a shared region is cut into per thread. Finer than one per
/// thread so that the claim counter can rebalance when a worker arrives
/// late; coarse enough that a claim (one contended `fetch_add`) stays
/// noise next to a task.
const TASKS_PER_THREAD: usize = 4;

/// Polls an idle worker (inside a [`Hot`] bracket) or a joining caller
/// makes before parking: a few hundred microseconds of `spin_loop`,
/// longer than the serial stretch between two regions of one forward,
/// far shorter than a scheduler quantum.
const SPIN_POLLS: usize = 1 << 13;

/// `GATE` bit: the published job accepts workers.
const OPEN: usize = 1 << (usize::BITS - 1);

/// `OPEN` bit | workers inside the current job.
static GATE: AtomicUsize = AtomicUsize::new(0);
/// Jobs published so far; what an idle worker watches.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Next unclaimed task index of the current job.
static NEXT: AtomicUsize = AtomicUsize::new(0);
/// Open [`Hot`] brackets.
static HOT: AtomicUsize = AtomicUsize::new(0);
/// The job slot's owner token *and* the worker handles: whoever holds
/// this lock (only ever `try_lock`ed) is the one caller in a region.
static WORKERS: Mutex<Vec<Thread>> = Mutex::new(Vec::new());
static JOB: JobSlot = JobSlot(UnsafeCell::new(None));

/// The held `WORKERS` lock: proof of owning the job slot.
type Workers = MutexGuard<'static, Vec<Thread>>;

/// Regions that were actually shared with workers (not run inline).
#[cfg(debug_assertions)]
static SHARED_REGIONS: AtomicUsize = AtomicUsize::new(0);

/// One published region.
struct Job {
    /// The caller's closure, its lifetime erased: valid until the
    /// caller's join returns, dereferenced only by workers inside.
    task: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
    /// Whom the last worker out wakes.
    caller: Thread,
    /// A worker's panic, re-raised by the caller after the join.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct JobSlot(UnsafeCell<Option<Job>>);

// The slot is written only by the holder of the `WORKERS` lock while the
// gate is closed with no worker inside, and read only by workers inside
// an open gate (module docs).
// SAFETY: the gate's release/acquire pair orders those writes before
// those reads, and `task` points at a `Sync` closure.
unsafe impl Sync for JobSlot {}

/// How many tasks to cut a region into: `1` — run it inline as one
/// piece — when only one thread may be used or the region reads fewer
/// than [`MIN_SHARE_BYTES`] of matrix data, otherwise a few per thread,
/// at most one per independent output `unit`.
pub fn tasks_for(units: usize, bytes: usize) -> usize {
    let threads = effective_threads();
    if threads <= 1 || bytes < MIN_SHARE_BYTES {
        1
    } else {
        (threads * TASKS_PER_THREAD).min(units).max(1)
    }
}

/// Runs `task(0) … task(n_tasks − 1)`, each exactly once, returning
/// when all have finished. With more than one task, more than one
/// thread allowed and the job slot free, the tasks are shared with the
/// pool's workers; otherwise they run inline in index order. Tasks must
/// write disjoint data — then the result cannot depend on which of the
/// two happened. A panicking task panics the caller after the join.
pub fn run(n_tasks: usize, task: impl Fn(usize) + Sync) {
    let helpers = effective_threads().min(n_tasks).saturating_sub(1);
    let slot = match helpers {
        0 => Err(TryLockError::WouldBlock),
        _ => WORKERS.try_lock(),
    };
    let workers = match slot {
        Ok(guard) => guard,
        // A task's panic unwinds through the guard; the handles are
        // valid at every step, so a poisoned lock is still good.
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return (0..n_tasks).for_each(task),
    };
    let workers = started(workers, helpers);
    #[cfg(debug_assertions)]
    SHARED_REGIONS.fetch_add(1, Ordering::Relaxed);

    let task: &(dyn Fn(usize) + Sync) = &task;
    // SAFETY: only the lifetime is erased; `Join` below does not let
    // this frame end (return or unwind) while a worker can still
    // dereference the pointer.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    // SAFETY: we hold `WORKERS`, the previous join left the gate closed
    // and empty, so nothing reads the slot while we write it.
    unsafe {
        *JOB.0.get() = Some(Job {
            task,
            n_tasks,
            caller: thread::current(),
            panic: Mutex::new(None),
        });
    }
    NEXT.store(0, Ordering::Relaxed);
    GATE.store(OPEN, Ordering::Release);
    EPOCH.fetch_add(1, Ordering::Release);
    let join = Join(workers);
    for worker in join.0.iter().take(helpers) {
        worker.unpark();
    }
    // SAFETY: the slot was filled above and stays put until the join.
    claim_tasks(unsafe { &*JOB.0.get() }.as_ref());
    let panic = join.drain();
    drop(join);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// [`run`] over disjoint runs of a mutable slice: `out` is whole
/// `unit`-element units (rows of a matrix, single columns, sessions),
/// cut into at most `tasks` runs of whole units; `f(first_unit, run)`
/// is called once per run. With one task that is `f(0, out)` — the
/// serial code path *is* the one-task region.
pub fn run_chunks<T: Send>(
    out: &mut [T],
    unit: usize,
    tasks: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let units = out.len() / unit.max(1);
    let per_task = units.div_ceil(tasks.max(1)).max(1);
    let (len, base) = (out.len(), SharedMut(out.as_mut_ptr()));
    run(units.div_ceil(per_task).max(1), |t| {
        let lo = (t * per_task * unit).min(len);
        let hi = if units <= (t + 1) * per_task {
            len
        } else {
            (t + 1) * per_task * unit
        };
        // SAFETY: `[lo, hi)` lies inside `out`, the ranges of distinct
        // task indices are disjoint, `run` hands every index out exactly
        // once and `out` stays mutably borrowed until it returns.
        f(t * per_task, unsafe {
            std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo)
        });
    });
}

/// A raw pointer that tasks of one region may share because they write
/// disjoint elements behind it.
pub(crate) struct SharedMut<T>(pub(crate) *mut T);

impl<T> SharedMut<T> {
    /// The pointer (a method, so closures capture the wrapper whole).
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the wrapper only moves the pointer between threads; every
// dereference site argues its own disjointness, and `T: Send` lets the
// elements be written from another thread.
unsafe impl<T: Send> Sync for SharedMut<T> {}

/// Keeps idle workers polling (bounded) instead of parking for as long
/// as it lives: held by a forward whose regions come in quick
/// succession. Brackets nest and overlap freely.
#[must_use = "workers stay hot only while the bracket is alive"]
pub struct Hot(());

/// Opens a [`Hot`] bracket.
pub fn hot() -> Hot {
    HOT.fetch_add(1, Ordering::Relaxed);
    Hot(())
}

impl Drop for Hot {
    fn drop(&mut self) {
        HOT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Number of regions shared with workers so far, for tests that must
/// prove they entered the pool.
#[cfg(debug_assertions)]
pub fn shared_regions() -> usize {
    SHARED_REGIONS.load(Ordering::Relaxed)
}

/// Claims and runs tasks of `job` until the counter runs out.
fn claim_tasks(job: Option<&Job>) {
    let Some(job) = job else { return };
    loop {
        let t = NEXT.fetch_add(1, Ordering::Relaxed);
        if t >= job.n_tasks {
            return;
        }
        // SAFETY: the caller's closure outlives its join, and whoever
        // calls this is the caller before, or a worker inside, it.
        unsafe { (*job.task)(t) };
    }
}

/// Makes sure `want` workers exist, spawning the missing ones — once
/// per worker per process; every later region finds them there.
fn started(mut workers: Workers, want: usize) -> Workers {
    while workers.len() < want {
        let id = workers.len();
        // Workers are never joined: they park between jobs and end with
        // the process. A worker's panic is caught and handed to the
        // caller, so a handle would have nothing to report.
        let name = format!("specinfer-pool-{id}");
        match thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(id))
        {
            Ok(handle) => workers.push(handle.thread().clone()),
            // No thread to be had: the caller claims every task itself.
            Err(_) => break,
        }
    }
    workers
}

/// The join: closes the gate and waits (bounded spin, then park) until
/// no worker is inside; dropping it then frees the job slot. The drop
/// waits too, so an unwinding caller's closure is never freed under a
/// worker.
struct Join(Workers);

impl Join {
    /// Closes the gate, waits for the workers inside to finish their
    /// tasks and leave, and takes a worker's panic, if any.
    fn drain(&self) -> Option<Box<dyn Any + Send>> {
        GATE.fetch_and(!OPEN, Ordering::AcqRel);
        let mut polls = 0;
        while GATE.load(Ordering::Acquire) != 0 {
            if polls < SPIN_POLLS {
                polls += 1;
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
        // SAFETY: gate closed and empty — the slot is ours again.
        let job = unsafe { &*JOB.0.get() }.as_ref()?;
        job.panic.try_lock().ok()?.take()
    }
}

impl Drop for Join {
    fn drop(&mut self) {
        // Idempotent after `run`'s own `drain`; the real work is on the
        // unwind path, where the payload in flight wins over a worker's.
        drop(self.drain());
    }
}

/// Worker `id`: helps with every job published while it is awake and
/// allowed (`id + 1 < effective_threads()`), parks otherwise.
fn worker_loop(id: usize) {
    let (mut seen, mut polls) = (0, 0);
    loop {
        let live = id + 1 < effective_threads();
        let epoch = EPOCH.load(Ordering::Acquire);
        if live && epoch != seen {
            seen = epoch;
            help();
            polls = 0;
        } else if live && polls < SPIN_POLLS && HOT.load(Ordering::Relaxed) > 0 {
            polls += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
            polls = 0;
        }
    }
}

/// Enters the open job, if any, claims tasks, leaves; the last worker
/// out of a closed gate wakes the joining caller.
fn help() {
    let mut gate = GATE.load(Ordering::Relaxed);
    loop {
        if gate & OPEN == 0 {
            return;
        }
        match GATE.compare_exchange_weak(gate, gate + 1, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => gate = now,
        }
    }
    // SAFETY: we are inside an open gate: the slot was filled before the
    // gate opened and is not rewritten until we have left.
    let job = unsafe { &*JOB.0.get() }.as_ref();
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| claim_tasks(job))) {
        // First panic wins; a second worker's is dropped.
        if let Some(Ok(mut slot)) = job.map(|j| j.panic.try_lock()) {
            slot.get_or_insert(payload);
        }
    }
    // A handle of our own (a refcount, not an allocation): the slot is
    // not ours to read once we have left.
    let caller = job.map(|j| Thread::clone(&j.caller));
    if GATE.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Closed and we were the last inside: the caller may be parked.
        if let Some(caller) = caller {
            caller.unpark();
        }
    }
}
