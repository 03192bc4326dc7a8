//! Offline stand-in for the `loom` model checker.
//!
//! Real loom simulates threads on one OS thread and explores every
//! interleaving allowed by the C11 memory model. This shim keeps the part the
//! workspace relies on — *exhaustive exploration of schedules around
//! synchronisation points* — with a much simpler construction:
//!
//! - every `loom::thread::spawn` is a real OS thread, but a cooperative
//!   scheduler lets **exactly one** managed thread run at a time;
//! - each lock acquisition and atomic access is a *switch point* where the
//!   scheduler may hand control to any other runnable thread;
//! - the sequence of scheduling decisions is recorded, and [`model`] replays
//!   prefixes depth-first until every branch has been visited (or the
//!   `LOOM_MAX_ITERATIONS` bound is hit).
//!
//! Because only one thread runs between switch points, all explored
//! executions are sequentially consistent. That is weaker than real loom (no
//! weak-memory reorderings) but strictly stronger than the property tests it
//! backs: every SC interleaving of lock/atomic operations is visited, not a
//! random sample.
//!
//! Outside [`model`] every primitive falls back to its `std` equivalent, so
//! code compiled with `--cfg loom` still behaves sensibly if executed by a
//! regular test harness.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

const MAIN: usize = 0;
/// Sentinel for "no thread is current" (all threads finished).
const NOBODY: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    BlockedOnLock(usize),
    BlockedOnJoin(usize),
    Finished,
}

struct State {
    threads: Vec<TState>,
    current: usize,
    /// `(chosen, options)` for every branch point (>1 runnable thread) so far.
    decisions: Vec<(usize, usize)>,
    /// Choices to replay from a previous execution, one per branch point.
    replay: Vec<usize>,
}

struct Sched {
    state: StdMutex<State>,
    cv: Condvar,
}

impl Sched {
    fn new(replay: Vec<usize>) -> Self {
        Sched {
            state: StdMutex::new(State {
                threads: vec![TState::Runnable],
                current: MAIN,
                decisions: Vec::new(),
                replay,
            }),
            cv: Condvar::new(),
        }
    }

    /// Pick the next thread to run. Called with the state lock held, after
    /// the caller has updated its own entry in `threads`.
    fn pick_next(&self, st: &mut State) {
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if st.threads.iter().all(|s| *s == TState::Finished) {
                st.current = NOBODY;
                self.cv.notify_all();
                return;
            }
            panic!(
                "loom-shim: deadlock — no runnable threads (states: {:?})",
                st.threads
            );
        }
        let chosen = if runnable.len() == 1 {
            0
        } else {
            let branch = st.decisions.len();
            let c = if branch < st.replay.len() {
                st.replay[branch]
            } else {
                0
            };
            assert!(c < runnable.len(), "loom-shim: replay diverged");
            st.decisions.push((c, runnable.len()));
            c
        };
        st.current = runnable[chosen];
        self.cv.notify_all();
    }

    /// Register `my_state` for the calling thread, schedule the next thread,
    /// then block until control returns to the caller.
    fn reschedule(&self, me: usize, my_state: TState) {
        let mut st = self.state.lock().unwrap();
        st.threads[me] = my_state;
        self.pick_next(&mut st);
        while st.current != me {
            assert!(
                st.current != NOBODY,
                "loom-shim: execution finished while a thread was waiting"
            );
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Plain preemption point: any runnable thread may run next.
    fn switch(&self, me: usize) {
        self.reschedule(me, TState::Runnable);
    }

    /// Block until the mutex with id `mid` is released, then resume.
    fn block_on_lock(&self, me: usize, mid: usize) {
        self.reschedule(me, TState::BlockedOnLock(mid));
    }

    /// Block until thread `target` finishes.
    fn block_on_join(&self, me: usize, target: usize) {
        let finished = {
            let st = self.state.lock().unwrap();
            st.threads[target] == TState::Finished
        };
        if !finished {
            self.reschedule(me, TState::BlockedOnJoin(target));
        }
    }

    /// Mark waiters of mutex `mid` runnable again (they re-contend at their
    /// next scheduling turn). Unlock itself is not a branch point.
    fn on_unlock(&self, mid: usize) {
        let mut st = self.state.lock().unwrap();
        for s in st.threads.iter_mut() {
            if *s == TState::BlockedOnLock(mid) {
                *s = TState::Runnable;
            }
        }
    }

    fn register_thread(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.threads.push(TState::Runnable);
        st.threads.len() - 1
    }

    /// First scheduling wait of a freshly spawned thread.
    fn wait_until_current(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        while st.current != me {
            assert!(st.current != NOBODY, "loom-shim: spawned thread orphaned");
            st = self.cv.wait(st).unwrap();
        }
    }

    fn finish(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.threads[me] = TState::Finished;
        for s in st.threads.iter_mut() {
            if *s == TState::BlockedOnJoin(me) {
                *s = TState::Runnable;
            }
        }
        self.pick_next(&mut st);
    }

    fn is_finished(&self, target: usize) -> bool {
        self.state.lock().unwrap().threads[target] == TState::Finished
    }
}

fn active_slot() -> &'static StdMutex<Option<Arc<Sched>>> {
    static ACTIVE: OnceLock<StdMutex<Option<Arc<Sched>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| StdMutex::new(None))
}

thread_local! {
    static MANAGED_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `(scheduler, managed thread id)` if the calling thread is inside a model.
fn managed() -> Option<(Arc<Sched>, usize)> {
    let id = MANAGED_ID.with(|c| c.get())?;
    let sched = active_slot().lock().unwrap().clone()?;
    Some((sched, id))
}

fn explicit_switch_point() {
    if let Some((sched, me)) = managed() {
        sched.switch(me);
    }
}

fn next_replay_prefix(decisions: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut d = decisions.to_vec();
    while let Some((chosen, options)) = d.pop() {
        if chosen + 1 < options {
            let mut prefix: Vec<usize> = d.iter().map(|&(c, _)| c).collect();
            prefix.push(chosen + 1);
            return Some(prefix);
        }
    }
    None
}

fn iteration_cap() -> u64 {
    std::env::var("LOOM_MAX_ITERATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Run `f` under every schedule the shim can distinguish (depth-first over
/// branch points), up to `LOOM_MAX_ITERATIONS` executions (default 100 000).
///
/// Models must be self-contained: create all shared state inside `f` and join
/// every spawned thread before returning.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    // Serialise models: the scheduler slot is process-global.
    static MODEL_GATE: OnceLock<StdMutex<()>> = OnceLock::new();
    let _gate = MODEL_GATE
        .get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());

    let cap = iteration_cap();
    let mut replay: Vec<usize> = Vec::new();
    let mut iterations: u64 = 0;
    loop {
        iterations += 1;
        let sched = Arc::new(Sched::new(replay.clone()));
        *active_slot().lock().unwrap() = Some(sched.clone());
        MANAGED_ID.with(|c| c.set(Some(MAIN)));

        let outcome = catch_unwind(AssertUnwindSafe(&f));

        MANAGED_ID.with(|c| c.set(None));
        *active_slot().lock().unwrap() = None;
        let st = sched.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(payload) = outcome {
            eprintln!(
                "loom-shim: model failed on iteration {iterations} \
                 (schedule: {:?})",
                st.decisions
            );
            std::panic::resume_unwind(payload);
        }
        assert!(
            st.threads.iter().skip(1).all(|s| *s == TState::Finished),
            "loom-shim: model returned with unjoined threads"
        );
        match next_replay_prefix(&st.decisions) {
            Some(p) => replay = p,
            None => break,
        }
        if iterations >= cap {
            eprintln!(
                "loom-shim: stopping after {iterations} executions \
                 (LOOM_MAX_ITERATIONS bound) — exploration incomplete"
            );
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

pub mod thread {
    use super::*;

    enum Inner<T> {
        Managed {
            sched: Arc<Sched>,
            idx: usize,
            result: Arc<StdMutex<Option<std::thread::Result<T>>>>,
            os: std::thread::JoinHandle<()>,
        },
        Plain(std::thread::JoinHandle<T>),
    }

    /// Handle for a thread spawned with [`spawn`]; `join` mirrors
    /// `std::thread::JoinHandle::join`.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Managed {
                    sched,
                    idx,
                    result,
                    os,
                } => {
                    let (_, me) = managed().expect("join of a managed thread outside its model");
                    sched.block_on_join(me, idx);
                    debug_assert!(sched.is_finished(idx));
                    // The OS thread is past its last scheduler interaction;
                    // reap it so no thread leaks across executions.
                    os.join().expect("loom-shim: worker thread vanished");
                    result
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .take()
                        .expect("loom-shim: joined thread left no result")
                }
                Inner::Plain(h) => h.join(),
            }
        }
    }

    /// Spawn a managed thread inside a model (a plain `std` thread outside).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match managed() {
            Some((sched, me)) => {
                let idx = sched.register_thread();
                let result = Arc::new(StdMutex::new(None));
                let result2 = Arc::clone(&result);
                let sched2 = Arc::clone(&sched);
                let os = std::thread::spawn(move || {
                    MANAGED_ID.with(|c| c.set(Some(idx)));
                    sched2.wait_until_current(idx);
                    let r = catch_unwind(AssertUnwindSafe(f));
                    *result2.lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                    MANAGED_ID.with(|c| c.set(None));
                    sched2.finish(idx);
                });
                // Spawning is itself a branch point: the child may run first.
                sched.switch(me);
                JoinHandle(Inner::Managed {
                    sched,
                    idx,
                    result,
                    os,
                })
            }
            None => JoinHandle(Inner::Plain(std::thread::spawn(f))),
        }
    }

    /// Cooperative yield: inside a model, a branch point; outside, the OS
    /// scheduler's `yield_now`.
    pub fn yield_now() {
        if managed().is_some() {
            explicit_switch_point();
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------------
// sync
// ---------------------------------------------------------------------------

pub mod sync {
    use super::*;

    pub use std::sync::Arc;

    static NEXT_MUTEX_ID: AtomicUsize = AtomicUsize::new(0);

    /// Scheduler-aware mutex. `lock` returns the guard directly (the
    /// parking_lot convention used throughout this workspace), and a thread
    /// blocked on a held lock is *not schedulable*, so exploration stays
    /// finite where a spin loop would diverge.
    pub struct Mutex<T> {
        id: usize,
        inner: StdMutex<T>,
    }

    pub struct MutexGuard<'a, T> {
        // `Option` so `drop` can release the std guard before notifying the
        // scheduler that waiters may re-contend.
        inner: Option<std::sync::MutexGuard<'a, T>>,
        mid: usize,
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex {
                id: NEXT_MUTEX_ID.fetch_add(1, StdOrdering::Relaxed),
                inner: StdMutex::new(value),
            }
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            if let Some((sched, me)) = managed() {
                loop {
                    sched.switch(me);
                    match self.inner.try_lock() {
                        Ok(g) => {
                            return MutexGuard {
                                inner: Some(g),
                                mid: self.id,
                            }
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            sched.block_on_lock(me, self.id);
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return MutexGuard {
                                inner: Some(p.into_inner()),
                                mid: self.id,
                            }
                        }
                    }
                }
            } else {
                let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
                MutexGuard {
                    inner: Some(g),
                    mid: self.id,
                }
            }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard already released")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard already released")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.inner.take();
            if let Some((sched, _)) = managed() {
                sched.on_unlock(self.mid);
            }
        }
    }

    pub mod atomic {
        use super::super::explicit_switch_point;

        pub use std::sync::atomic::Ordering;

        macro_rules! shim_atomic {
            ($name:ident, $std:ident, $ty:ty) => {
                /// Atomic whose every access is a scheduler branch point.
                pub struct $name(std::sync::atomic::$std);

                impl $name {
                    pub fn new(v: $ty) -> Self {
                        Self(std::sync::atomic::$std::new(v))
                    }
                    pub fn load(&self, order: Ordering) -> $ty {
                        explicit_switch_point();
                        self.0.load(order)
                    }
                    pub fn store(&self, v: $ty, order: Ordering) {
                        explicit_switch_point();
                        self.0.store(v, order)
                    }
                    pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                        explicit_switch_point();
                        self.0.fetch_add(v, order)
                    }
                    pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                        explicit_switch_point();
                        self.0.fetch_max(v, order)
                    }
                    pub fn compare_exchange(
                        &self,
                        cur: $ty,
                        new: $ty,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$ty, $ty> {
                        explicit_switch_point();
                        self.0.compare_exchange(cur, new, ok, err)
                    }
                }
            };
        }

        shim_atomic!(AtomicU64, AtomicU64, u64);
        shim_atomic!(AtomicUsize, AtomicUsize, usize);
        shim_atomic!(AtomicU16, AtomicU16, u16);

        /// Atomic bool whose every access is a scheduler branch point.
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            pub fn new(v: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(v))
            }
            pub fn load(&self, order: Ordering) -> bool {
                explicit_switch_point();
                self.0.load(order)
            }
            pub fn store(&self, v: bool, order: Ordering) {
                explicit_switch_point();
                self.0.store(v, order)
            }
            pub fn compare_exchange(
                &self,
                cur: bool,
                new: bool,
                ok: Ordering,
                err: Ordering,
            ) -> Result<bool, bool> {
                explicit_switch_point();
                self.0.compare_exchange(cur, new, ok, err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Arc, Mutex};
    use super::*;

    #[test]
    fn explores_both_orders_of_two_increments() {
        // With two racing lock-increment threads the final count is always 2;
        // the point is that model() terminates and visits >1 schedule.
        let schedules = Arc::new(std::sync::Mutex::new(0u64));
        let schedules2 = Arc::clone(&schedules);
        model(move || {
            *schedules2.lock().unwrap() += 1;
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let mut g = n.lock();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock(), 2);
        });
        assert!(*schedules.lock().unwrap() > 1, "only one schedule explored");
    }

    #[test]
    fn finds_atomicity_violation() {
        // A non-atomic read-modify-write over an atomic cell must lose an
        // update under SOME schedule; prove the shim finds it.
        let lost = Arc::new(std::sync::Mutex::new(false));
        let lost2 = Arc::clone(&lost);
        let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
            model(move || {
                let n = Arc::new(AtomicUsize::new(0));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let n = Arc::clone(&n);
                        thread::spawn(move || {
                            let v = n.load(Ordering::SeqCst);
                            n.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                if n.load(Ordering::SeqCst) != 2 {
                    *lost2.lock().unwrap() = true;
                    panic!("lost update found (expected)");
                }
            });
        }));
        assert!(result.is_err(), "exploration missed the lost update");
        assert!(*lost.lock().unwrap());
    }
}
