//! Model-aware synchronization primitives.
//!
//! Each primitive routes through the scheduler in `crate::rt`: every
//! acquire, atomic access, send and recv is a decision point where any
//! other runnable task may be scheduled instead. Because the scheduler
//! runs exactly one task between decision points, the *storage* behind
//! each primitive can be plain `std` types — only the model's logical
//! interleaving is being explored, never the host machine's.

use crate::rt;
use std::sync::Mutex as StdMutex;

pub use std::sync::Arc;

/// A mutex whose lock-acquisition order is controlled by the explorer.
///
/// Contended acquires block the task in the scheduler; unlock wakes
/// every waiter and lets the explorer pick which one wins the re-acquire
/// race (they loop back through a decision point).
pub struct Mutex<T> {
    meta: StdMutex<Meta>,
    data: StdMutex<T>,
}

struct Meta {
    owner: Option<usize>,
    waiters: Vec<usize>,
}

pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    // Always `Some` until `drop`; uncontended by construction (the
    // logical `owner` field serializes access).
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            meta: StdMutex::new(Meta {
                owner: None,
                waiters: Vec::new(),
            }),
            data: StdMutex::new(value),
        }
    }

    pub fn lock(&self) -> Result<MutexGuard<'_, T>, std::convert::Infallible> {
        let (sched, me) = rt::current();
        loop {
            sched.yield_point(me);
            let mut meta = self.meta.lock().unwrap_or_else(|e| e.into_inner());
            if meta.owner.is_none() {
                meta.owner = Some(me);
                drop(meta);
                let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
                return Ok(MutexGuard {
                    mutex: self,
                    inner: Some(inner),
                });
            }
            meta.waiters.push(me);
            drop(meta);
            sched.block(me);
        }
    }

    pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError> {
        let (sched, me) = rt::current();
        sched.yield_point(me);
        let mut meta = self.meta.lock().unwrap_or_else(|e| e.into_inner());
        if meta.owner.is_none() {
            meta.owner = Some(me);
            drop(meta);
            let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard {
                mutex: self,
                inner: Some(inner),
            })
        } else {
            Err(TryLockError)
        }
    }
}

/// Error returned by [`Mutex::try_lock`] when the lock is already held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryLockError;

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard outlives its drop"),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard outlives its drop"),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        let (sched, _me) = rt::current();
        let waiters = {
            let mut meta = self.mutex.meta.lock().unwrap_or_else(|e| e.into_inner());
            meta.owner = None;
            std::mem::take(&mut meta.waiters)
        };
        for w in waiters {
            sched.unblock(w);
        }
        // No decision point here: `drop` may run during unwinding, and
        // a nested Abort panic would abort the process. The next sync
        // op of this task (or its finish) hands control over instead.
    }
}

pub mod atomic {
    //! Atomics with an explorer decision point before every access.
    //!
    //! All operations behave sequentially consistently: the explorer
    //! serializes every access, so weaker orderings collapse to SeqCst.
    //! That makes the model *sound for finding races in SeqCst-or-
    //! stronger code* but unable to exhibit relaxed-memory reorderings —
    //! the same trade CHESS makes, and sufficient for the lock/channel
    //! protocols modeled in this workspace.

    use crate::rt;
    pub use std::sync::atomic::Ordering;

    pub struct AtomicUsize {
        v: std::sync::atomic::AtomicUsize,
    }

    impl AtomicUsize {
        pub fn new(v: usize) -> AtomicUsize {
            AtomicUsize {
                v: std::sync::atomic::AtomicUsize::new(v),
            }
        }

        fn point() {
            let (sched, me) = rt::current();
            sched.yield_point(me);
        }

        pub fn load(&self, _order: Ordering) -> usize {
            Self::point();
            self.v.load(Ordering::SeqCst)
        }

        pub fn store(&self, val: usize, _order: Ordering) {
            Self::point();
            self.v.store(val, Ordering::SeqCst);
        }

        pub fn fetch_add(&self, val: usize, _order: Ordering) -> usize {
            Self::point();
            self.v.fetch_add(val, Ordering::SeqCst)
        }

        pub fn fetch_sub(&self, val: usize, _order: Ordering) -> usize {
            Self::point();
            self.v.fetch_sub(val, Ordering::SeqCst)
        }

        pub fn fetch_and(&self, val: usize, _order: Ordering) -> usize {
            Self::point();
            self.v.fetch_and(val, Ordering::SeqCst)
        }

        pub fn swap(&self, val: usize, _order: Ordering) -> usize {
            Self::point();
            self.v.swap(val, Ordering::SeqCst)
        }

        pub fn compare_exchange(
            &self,
            current: usize,
            new: usize,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<usize, usize> {
            Self::point();
            self.v
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
        }
    }

    pub struct AtomicBool {
        v: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub fn new(v: bool) -> AtomicBool {
            AtomicBool {
                v: std::sync::atomic::AtomicBool::new(v),
            }
        }

        pub fn load(&self, _order: Ordering) -> bool {
            AtomicUsize::point();
            self.v.load(Ordering::SeqCst)
        }

        pub fn store(&self, val: bool, _order: Ordering) {
            AtomicUsize::point();
            self.v.store(val, Ordering::SeqCst);
        }

        pub fn swap(&self, val: bool, _order: Ordering) -> bool {
            AtomicUsize::point();
            self.v.swap(val, Ordering::SeqCst)
        }
    }
}

pub mod mpsc {
    //! A multi-producer single-consumer channel under explorer control.
    //!
    //! `send` is a decision point that enqueues and wakes the receiver;
    //! `recv` loops through decision points until a message or
    //! disconnection is observed, blocking in the scheduler in between —
    //! so a lost-wakeup bug in a protocol built on top shows up as a
    //! deadlock the explorer reports.

    use crate::rt;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex as StdMutex};

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    struct Chan<T> {
        queue: VecDeque<T>,
        senders: usize,
        rx_alive: bool,
        /// Task id of a receiver blocked in `recv`, if any.
        rx_waiter: Option<usize>,
    }

    pub struct Sender<T> {
        chan: Arc<StdMutex<Chan<T>>>,
    }

    pub struct Receiver<T> {
        chan: Arc<StdMutex<Chan<T>>>,
    }

    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(StdMutex::new(Chan {
            queue: VecDeque::new(),
            senders: 1,
            rx_alive: true,
            rx_waiter: None,
        }));
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let (sched, me) = rt::current();
            sched.yield_point(me);
            let waiter = {
                let mut ch = self.chan.lock().unwrap_or_else(|e| e.into_inner());
                if !ch.rx_alive {
                    return Err(SendError(value));
                }
                ch.queue.push_back(value);
                ch.rx_waiter.take()
            };
            if let Some(w) = waiter {
                sched.unblock(w);
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            let mut ch = self.chan.lock().unwrap_or_else(|e| e.into_inner());
            ch.senders += 1;
            drop(ch);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let waiter = {
                let mut ch = self.chan.lock().unwrap_or_else(|e| e.into_inner());
                ch.senders -= 1;
                if ch.senders == 0 {
                    ch.rx_waiter.take()
                } else {
                    None
                }
            };
            // Wake a receiver blocked on a now-closed channel so it can
            // observe the disconnect. No decision point in drop (see
            // MutexGuard::drop).
            if let Some(w) = waiter {
                if let Some((sched, _)) = rt::try_current() {
                    sched.unblock(w);
                }
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let (sched, me) = rt::current();
            loop {
                sched.yield_point(me);
                {
                    let mut ch = self.chan.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(v) = ch.queue.pop_front() {
                        return Ok(v);
                    }
                    if ch.senders == 0 {
                        return Err(RecvError);
                    }
                    ch.rx_waiter = Some(me);
                }
                sched.block(me);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let (sched, me) = rt::current();
            sched.yield_point(me);
            let mut ch = self.chan.lock().unwrap_or_else(|e| e.into_inner());
            match ch.queue.pop_front() {
                Some(v) => Ok(v),
                None if ch.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut ch = self.chan.lock().unwrap_or_else(|e| e.into_inner());
            ch.rx_alive = false;
        }
    }

    impl<T> Iterator for Receiver<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.recv().ok()
        }
    }
}
