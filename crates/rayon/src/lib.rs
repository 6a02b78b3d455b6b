//! Offline stand-in for the [`rayon`](https://docs.rs/rayon) crate.
//!
//! The growth container builds without network access, so this crate
//! re-implements the *subset* of rayon the workspace uses: `into_par_iter()`
//! on `Vec<T>` and ranges, `par_iter()` on slices, `map` + `collect` /
//! `for_each` on the resulting parallel iterator, [`join`], and
//! [`current_num_threads`]. Work items are distributed over scoped OS
//! threads through an atomic index dispenser, so results arrive in input
//! order and the fan-out is genuinely concurrent on multi-core hosts
//! (degrading gracefully to sequential execution on a single core).
//!
//! The thread count defaults to [`std::thread::available_parallelism`] and
//! can be overridden with the `RAYON_NUM_THREADS` environment variable,
//! mirroring real rayon.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// The parallel-iterator traits, for `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads a parallel operation will use for `len` items.
fn threads_for(len: usize) -> usize {
    current_num_threads().min(len).max(1)
}

/// The size of the thread pool parallel operations run on.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `a` and `b`, potentially concurrently, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("rayon::join worker panicked");
        (ra, rb)
    })
}

// --- Persistent thread pool with a bounded work queue ----------------------

/// A queued unit of work.
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<PoolJob>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when a job leaves the queue (space for blocked producers).
    space: Condvar,
    capacity: usize,
}

/// A persistent pool of worker threads pulling jobs from a **bounded** FIFO
/// queue. Unlike the scoped fan-out of [`ParallelIterator`], the pool
/// outlives individual submissions, so long-running services can feed it a
/// stream of independent jobs. A submit to a full queue waits for space:
///
/// * [`ThreadPool::execute`] blocks the producer until space frees up;
/// * [`ThreadPool::execute_cancellable`] gives up when a cancellation flag
///   raises or a deadline passes, and tells the job whether it was
///   cancelled while it sat in the queue.
///
/// Dropping the pool drains the queue (queued jobs still run) and joins the
/// workers.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// A pool of `threads` workers (at least one) whose queue holds at most
    /// `queue_capacity` not-yet-started jobs (at least one).
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity: queue_capacity.max(1),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Jobs currently waiting in the queue (excluding running jobs).
    pub fn queue_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .len()
    }

    /// Submits `job`, blocking while the queue is at capacity
    /// (producer-side backpressure).
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        while state.queue.len() >= self.shared.capacity {
            state = self.shared.space.wait(state).expect("pool lock poisoned");
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
    }

    /// Submits `job` like [`ThreadPool::execute`], but the producer-side
    /// wait for queue space is bounded by a cancellation flag and an
    /// optional deadline, and the job itself learns whether it was
    /// cancelled while it sat in the queue.
    ///
    /// * While the queue is full the submitter polls `cancel` (and
    ///   `until`); if either fires first, nothing is enqueued and the call
    ///   returns `false`.
    /// * Once enqueued, the flag is sampled again when a worker finally
    ///   dequeues the job and passed as the closure's argument — a job
    ///   cancelled while queued can report back without doing the work.
    ///
    /// Returns `true` iff the job was enqueued.
    pub fn execute_cancellable<F>(
        &self,
        cancel: &Arc<std::sync::atomic::AtomicBool>,
        until: Option<std::time::Instant>,
        job: F,
    ) -> bool
    where
        F: FnOnce(bool) + Send + 'static,
    {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        while state.queue.len() >= self.shared.capacity {
            if cancel.load(Ordering::Acquire) {
                return false;
            }
            if until.is_some_and(|u| std::time::Instant::now() >= u) {
                return false;
            }
            let (guard, _timeout) = self
                .shared
                .space
                .wait_timeout(state, std::time::Duration::from_millis(10))
                .expect("pool lock poisoned");
            state = guard;
        }
        let flag = Arc::clone(cancel);
        state
            .queue
            .push_back(Box::new(move || job(flag.load(Ordering::Acquire))));
        drop(state);
        self.shared.work.notify_one();
        true
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.space.notify_one();
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("pool lock poisoned");
            }
        };
        // A panicking job must not take its worker thread (and eventually
        // the whole pool) down with it; the panic payload is dropped.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// The items the iterator yields.
    type Item: Send;
    /// The concrete parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a parallel iterator over references (`par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// The items the iterator yields (references into `self`).
    type Item: Send;
    /// The concrete parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

/// The minimal parallel-iterator interface: `map`, `collect`, `for_each`.
pub trait ParallelIterator: Sized {
    /// The items the iterator yields.
    type Item: Send;

    /// Drains the iterator into an ordered `Vec` of its items.
    fn drain_ordered(self) -> Vec<Self::Item>;

    /// Maps every item through `op` (applied on the worker threads).
    fn map<R, F>(self, op: F) -> MapIter<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        MapIter { base: self, op }
    }

    /// Collects the items, preserving input order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_ordered_vec(self.drain_ordered())
    }

    /// Applies `op` to every item for its side effects.
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.map(op).drain_ordered();
    }
}

/// Collection types a parallel iterator can `collect()` into.
pub trait FromParallelIterator<T> {
    /// Builds the collection from the items in input order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Parallel iterator over an owned list of items.
#[derive(Debug)]
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    fn drain_ordered(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = VecIter<usize>;
    fn into_par_iter(self) -> VecIter<usize> {
        VecIter {
            items: self.collect(),
        }
    }
}

/// Parallel iterator over references into a slice.
#[derive(Debug)]
pub struct SliceIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn drain_ordered(self) -> Vec<&'a T> {
        self.items.iter().collect()
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { items: self }
    }
}

/// Parallel iterator applying `op` to a base iterator's items. This is the
/// stage that actually fans out: `drain_ordered` materializes the base
/// items, then worker threads pull indices from an atomic dispenser and
/// send `(index, result)` pairs back over a channel.
#[derive(Debug)]
pub struct MapIter<I, F> {
    base: I,
    op: F,
}

impl<I, R, F> ParallelIterator for MapIter<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;

    fn drain_ordered(self) -> Vec<R> {
        let items = self.base.drain_ordered();
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = threads_for(n);
        let op = &self.op;
        if workers == 1 {
            return items.into_iter().map(op).collect();
        }
        // Hand every worker shared access to the item slots: each slot is
        // taken exactly once, guarded by the dispenser index.
        let slots: Vec<std::sync::Mutex<Option<I::Item>>> = items
            .into_iter()
            .map(|i| std::sync::Mutex::new(Some(i)))
            .collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let slots = &slots;
                let next = &next;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("rayon slot poisoned")
                        .take()
                        .expect("rayon slot taken twice");
                    // A send can only fail if the receiver is gone, which
                    // means the collecting side already panicked.
                    let _ = tx.send((i, op(item)));
                });
            }
            drop(tx);
            let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for (i, r) in rx {
                out[i] = Some(r);
            }
            out.into_iter()
                .map(|r| r.expect("rayon worker dropped an item"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..100usize)
            .into_par_iter()
            .map(|i| i as u64 * 2)
            .collect();
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let data = vec![1u64, 2, 3, 4];
        let doubled: Vec<u64> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        assert_eq!(data.len(), 4); // still borrowed, not consumed
    }

    #[test]
    fn collect_into_result_short_circuits_value() {
        let ok: Result<Vec<u64>, String> = vec![1u64, 2, 3].into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap(), vec![1, 2, 3]);
        let err: Result<Vec<u64>, String> = vec![1u64, 2, 3]
            .into_par_iter()
            .map(|x| {
                if x == 2 {
                    Err("two".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "two");
    }

    #[test]
    fn for_each_runs_every_item() {
        let count = AtomicUsize::new(0);
        (0..37usize).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = ThreadPool::new(4, 64);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let count = Arc::clone(&count);
            pool.execute(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains the queue and joins workers
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_execute_blocks_then_drains() {
        // Producer-side backpressure: with capacity 1 the blocking submits
        // must all eventually run.
        let pool = ThreadPool::new(2, 1);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let count = Arc::clone(&count);
            pool.execute(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn pool_survives_panicking_job() {
        let pool = ThreadPool::new(1, 8);
        pool.execute(|| panic!("job panic must not kill the worker"));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.execute(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancellable_execute_runs_and_reports_flag() {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(2, 8);
        let cancel = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        assert!(pool.execute_cancellable(&cancel, None, move |cancelled| {
            assert!(!cancelled);
            s.fetch_add(1, Ordering::Relaxed);
        }));
        drop(pool);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancellable_execute_gives_up_when_cancelled_while_full() {
        use std::sync::atomic::AtomicBool;
        // One worker stuck on a gate, capacity 1 already filled: a
        // cancellable submit must return false once the flag raises instead
        // of blocking forever.
        let pool = ThreadPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        pool.execute(|| {}); // fills the queue
        let cancel = Arc::new(AtomicBool::new(true));
        assert!(!pool.execute_cancellable(&cancel, None, |_| {}));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        drop(pool);
    }

    #[test]
    fn cancellable_execute_respects_deadline_while_full() {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        pool.execute(|| {});
        let cancel = Arc::new(AtomicBool::new(false));
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(30);
        let t0 = std::time::Instant::now();
        assert!(!pool.execute_cancellable(&cancel, Some(deadline), |_| {}));
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        drop(pool);
    }

    #[test]
    fn cancellable_job_sees_cancellation_raised_while_queued() {
        use std::sync::atomic::AtomicBool;
        // Worker blocked, job enqueued behind it, then the flag raises: the
        // job must still run (reporting path) and observe cancelled=true.
        let pool = ThreadPool::new(1, 4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let observed = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&observed);
        assert!(pool.execute_cancellable(&cancel, None, move |cancelled| {
            o.store(if cancelled { 2 } else { 1 }, Ordering::Relaxed);
        }));
        cancel.store(true, Ordering::Release);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        drop(pool);
        assert_eq!(observed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_input_collects_empty() {
        let v: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
    }
}
