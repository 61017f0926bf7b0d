//! A dependency-free worker pool — the workspace's intra-query
//! parallelism primitive.
//!
//! The workspace builds without registry crates (no `rayon`), so the
//! pool is plain `std`: one process-wide set of helper threads serves
//! every [`Pool`]. Helpers are spawned lazily — the set grows to the
//! largest `size - 1` any run has asked for and never per request — and
//! park on a `Mutex` + `Condvar` between jobs, so idle helpers burn no
//! CPU. [`Pool::run`] publishes its job, wakes helpers and claims
//! **chunks of indices** off the job's atomic cursor itself; it returns
//! once every index is done and no helper still holds the job. Tasks
//! borrow local state freely (no `'static` bounds). Because the caller
//! can always finish its own job alone, nested runs (a pass level
//! inside a shard task, a partitioned join inside a pass) cannot
//! deadlock, and a fan-out of tiny tasks usually finishes on the caller
//! before any helper wakes.
//!
//! Sizing follows `TSENS_THREADS` when set, else
//! [`std::thread::available_parallelism`]. `threads == 1` is the
//! **byte-for-byte sequential contract**: [`Pool::run`] degenerates to a
//! plain in-order loop on the calling thread, so every pooled algorithm
//! in the workspace, run on `Pool::sequential()`, is its own sequential
//! version — there is no separate single-threaded code path.

use crate::error::TsensError;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the pool size (`0` is rejected by
/// [`Pool::from_env`]; front-ends surface that as a startup error).
pub const THREADS_ENV: &str = "TSENS_THREADS";

/// A handle on the shared helpers: the number of threads (the caller
/// plus `size - 1` helpers) a [`Pool::run`] may use. Copyable and
/// trivially cheap — sessions embed one and thread it through passes,
/// joins and encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers.
    ///
    /// # Errors
    /// [`TsensError::ZeroThreads`] when `threads == 0` — a typed error,
    /// not a panic, so serving front-ends can refuse bad configuration.
    pub fn new(threads: usize) -> Result<Pool, TsensError> {
        if threads == 0 {
            return Err(TsensError::ZeroThreads);
        }
        Ok(Pool { threads })
    }

    /// The single-threaded pool: every `run` is a plain in-order loop.
    pub fn sequential() -> Pool {
        Pool { threads: 1 }
    }

    /// Pool sized from the environment: `TSENS_THREADS` when set, else
    /// the machine's available parallelism.
    ///
    /// # Errors
    /// [`TsensError::ZeroThreads`] for `TSENS_THREADS=0` and
    /// [`TsensError::Data`] for an unparseable value — front-ends
    /// (`serve`, `loadgen`) call this at startup and refuse to boot on a
    /// bad override instead of silently running misconfigured.
    pub fn from_env() -> Result<Pool, TsensError> {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => {
                let threads: usize = raw.trim().parse().map_err(|_| {
                    TsensError::Data(crate::DataError::Malformed(format!(
                        "{THREADS_ENV}={raw:?} is not a thread count"
                    )))
                })?;
                Pool::new(threads)
            }
            Err(_) => Ok(Pool {
                threads: available(),
            }),
        }
    }

    /// Number of worker threads.
    #[inline]
    pub fn size(&self) -> usize {
        self.threads
    }

    /// True when `run` takes the sequential in-order path.
    #[inline]
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Compute `f(0) .. f(tasks - 1)` and return the results **in index
    /// order**.
    ///
    /// Sequential pools (and trivial task counts) run a plain loop on
    /// the calling thread — identical evaluation order to hand-written
    /// sequential code. Otherwise the job is published to the shared
    /// helpers with `min(threads, tasks) - 1` seats, and the caller and
    /// up to that many helpers claim chunks of indices off the job's
    /// cursor (chunked to amortize the atomic while still load-balancing
    /// skewed tasks). The caller returns once every index is done and no
    /// helper still holds the job; the results are reassembled in order.
    ///
    /// # Panics
    /// A panic inside `f` is propagated to the caller (after every
    /// helper has left the job), matching the sequential behaviour. The
    /// helper that caught it keeps serving later runs.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let seats = (self.threads - 1).min(tasks - 1);
        // ~4 chunks per participant balances skew against cursor
        // contention.
        let chunk = (tasks / ((seats + 1) * 4)).max(1);
        let job = Job {
            f: &f,
            tasks,
            chunk,
            cursor: AtomicUsize::new(0),
            theirs: Mutex::new(Vec::new()),
            panic: Mutex::new(None),
        };
        let mut mine = Vec::new();
        {
            let borrowed: &(dyn Work + '_) = &job;
            // SAFETY: helpers reach `job` only through the registry entry
            // `publish` adds, and `_retire` removes that entry when it is
            // dropped — on return and while unwinding a panic from
            // `claim` alike — after waiting until no helper holds the job
            // (`active == 0`, counted under the registry lock). `_retire`
            // is a local of this block that is never moved or forgotten,
            // so it is dropped before `job` is used again or dropped, and
            // the erased reference never outlives `job`.
            let erased = unsafe {
                std::mem::transmute::<&(dyn Work + '_), &'static (dyn Work + 'static)>(borrowed)
            };
            let _retire = REGISTRY.publish(erased, seats);
            job.claim(&mut mine);
        }
        job.finish(mine)
    }
}

impl Default for Pool {
    /// The serving default: `TSENS_THREADS` when it names a valid count,
    /// else available parallelism. Library constructors must stay
    /// infallible, so an *invalid* override falls back to the machine
    /// default here — front-ends that want to refuse bad configuration
    /// validate with [`Pool::from_env`] first.
    fn default() -> Pool {
        Pool::from_env().unwrap_or_else(|_| Pool {
            threads: available(),
        })
    }
}

/// Machine parallelism, probed once per process. On Linux containers
/// `available_parallelism` reads cgroup quota files — microseconds of
/// file I/O that one-shot callers (a fresh session per query) would
/// otherwise pay on every construction. The `TSENS_THREADS` lookup
/// stays dynamic; only the hardware probe is cached.
fn available() -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// One [`Pool::run`] call, on the caller's stack while it runs.
struct Job<'f, T, F> {
    f: &'f F,
    tasks: usize,
    chunk: usize,
    /// Next unclaimed index; at or past `tasks` once drained or
    /// cancelled.
    cursor: AtomicUsize,
    /// What the helpers computed, appended once per helper.
    theirs: Mutex<Vec<(usize, T)>>,
    /// The first task panic a helper caught, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, F> Job<'_, T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    /// Claim chunks until the cursor is drained, appending to `out` in
    /// claim order.
    fn claim(&self, out: &mut Vec<(usize, T)>) {
        loop {
            // Relaxed: the cursor publishes no data; results travel
            // through `theirs` and the registry lock.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.tasks {
                return;
            }
            for i in start..(start + self.chunk).min(self.tasks) {
                out.push((i, (self.f)(i)));
            }
        }
    }

    /// The caller's side after every helper left: re-raise a helper's
    /// panic, else put the results in index order.
    fn finish(self, mine: Vec<(usize, T)>) -> Vec<T> {
        if let Some(payload) = into_inner(self.panic) {
            std::panic::resume_unwind(payload);
        }
        let theirs = into_inner(self.theirs);
        if theirs.is_empty() {
            // The caller claimed every chunk, so `mine` is in index order.
            debug_assert_eq!(mine.len(), self.tasks);
            return mine.into_iter().map(|(_, v)| v).collect();
        }
        let mut slots: Vec<Option<T>> = (0..self.tasks).map(|_| None).collect();
        for (i, v) in mine.into_iter().chain(theirs) {
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }
}

/// The type-erased face of a [`Job`] that helpers see.
trait Work: Sync {
    /// Whether unclaimed indices remain.
    fn has_work(&self) -> bool;
    /// Claim and run chunks as a helper; a task panic is caught, stops
    /// the job and is kept for the caller.
    fn help(&self);
    /// Let no one claim another index.
    fn cancel(&self);
}

impl<T, F> Work for Job<'_, T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fn has_work(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.tasks
    }

    fn help(&self) {
        let mut local = Vec::new();
        match std::panic::catch_unwind(AssertUnwindSafe(|| self.claim(&mut local))) {
            Ok(()) => lock(&self.theirs).append(&mut local),
            Err(payload) => {
                self.cancel();
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }

    fn cancel(&self) {
        self.cursor.store(self.tasks, Ordering::Relaxed);
    }
}

/// The process-wide helper threads and the jobs published to them.
struct Registry {
    queue: Mutex<Queue>,
    /// Helpers park here until a job with a free seat is published.
    wake: Condvar,
    /// Callers wait here for the last helper to leave their job.
    left: Condvar,
}

struct Queue {
    /// Published jobs, until their caller retires them.
    jobs: Vec<Entry>,
    /// Helper threads spawned so far; never shrinks.
    helpers: usize,
    /// Helpers parked on `wake`.
    parked: usize,
    /// Parked helpers already notified that have not yet rescanned
    /// `jobs`; never more than `parked`.
    woken: usize,
}

struct Entry {
    job: &'static dyn Work,
    /// Helpers that may still join the job.
    seats: usize,
    /// Helpers inside the job now; its caller waits for zero.
    active: usize,
    /// Whether the caller is parked on `left`.
    retiring: bool,
}

static REGISTRY: Registry = Registry {
    queue: Mutex::new(Queue {
        jobs: Vec::new(),
        helpers: 0,
        parked: 0,
        woken: 0,
    }),
    wake: Condvar::new(),
    left: Condvar::new(),
};

impl Registry {
    /// List `job` with `seats` helper seats, growing the helper set to
    /// at least `seats`, and wake parked helpers for the seats that no
    /// awake or already-notified helper will fill. The returned guard
    /// unlists the job when dropped; nothing after the listing panics,
    /// so the guard always exists once the job is listed.
    fn publish(&'static self, job: &'static dyn Work, seats: usize) -> Retire {
        let mut queue = lock(&self.queue);
        queue.jobs.push(Entry {
            job,
            seats,
            active: 0,
            retiring: false,
        });
        while queue.helpers < seats {
            // A helper serves until the process exits and catches every
            // task panic, so its handle is dropped unjoined. A failed
            // spawn only leaves this run, which the caller can always
            // finish alone, with fewer helpers.
            let spawned = std::thread::Builder::new()
                .name("tsens-pool".to_owned())
                .spawn(move || self.serve());
            if spawned.is_err() {
                break;
            }
            queue.helpers += 1;
        }
        // A notified helper rescans every listed job, so wakes still in
        // flight count toward this job's seats: back-to-back runs of
        // tiny tasks pay no wake-up per run.
        let wake = seats
            .saturating_sub(queue.woken)
            .min(queue.parked.saturating_sub(queue.woken));
        queue.woken += wake;
        drop(queue);
        for _ in 0..wake {
            self.wake.notify_one();
        }
        Retire { job }
    }

    /// A helper's life: take a seat in a job that still has unclaimed
    /// indices, help, leave; park when there is none.
    fn serve(&self) {
        let mut queue = lock(&self.queue);
        loop {
            let Some(entry) = queue
                .jobs
                .iter_mut()
                .find(|e| e.seats > 0 && e.job.has_work())
            else {
                queue.parked += 1;
                queue = self
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.parked -= 1;
                queue.woken = queue.woken.saturating_sub(1);
                continue;
            };
            entry.seats -= 1;
            entry.active += 1;
            let job = entry.job;
            drop(queue);
            job.help();
            queue = lock(&self.queue);
            // The entry is still listed: its caller unlists it only at
            // `active == 0`.
            if let Some(entry) = queue.jobs.iter_mut().find(|e| same_job(e.job, job)) {
                entry.active -= 1;
                if entry.active == 0 && entry.retiring {
                    self.left.notify_all();
                }
            }
        }
    }
}

/// Unlists a published job once no helper holds it, on return and on
/// unwind alike.
struct Retire {
    job: &'static dyn Work,
}

impl Drop for Retire {
    fn drop(&mut self) {
        // A no-op when the caller drained the cursor; while unwinding a
        // task panic it stops helpers from starting new chunks.
        self.job.cancel();
        let mut queue = lock(&REGISTRY.queue);
        while let Some(at) = queue.jobs.iter().position(|e| same_job(e.job, self.job)) {
            if queue.jobs[at].active == 0 {
                queue.jobs.swap_remove(at);
                return;
            }
            queue.jobs[at].retiring = true;
            queue = REGISTRY
                .left
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn same_job(a: &dyn Work, b: &dyn Work) -> bool {
    std::ptr::addr_eq(a, b)
}

/// Lock a pool mutex. No task runs while one is held and every update
/// under them is a single step, so a poisoned lock still guards valid
/// data — and `Retire::drop` must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn into_inner<T>(mutex: Mutex<T>) -> T {
    mutex.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_is_a_typed_error() {
        assert_eq!(Pool::new(0).err(), Some(TsensError::ZeroThreads));
        assert_eq!(Pool::new(3).unwrap().size(), 3);
    }

    #[test]
    fn sequential_pool_runs_in_order() {
        let pool = Pool::sequential();
        assert!(pool.is_sequential());
        let order = std::sync::Mutex::new(Vec::new());
        let out = pool.run(5, |i| {
            order.lock().unwrap().push(i);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_run_returns_results_in_index_order() {
        let pool = Pool::new(4).unwrap();
        for tasks in [0usize, 1, 2, 3, 7, 64, 1000] {
            let out = pool.run(tasks, |i| i * i);
            assert_eq!(out, (0..tasks).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = Pool::new(3).unwrap();
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = Pool::new(2).unwrap();
        let res = std::panic::catch_unwind(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn nested_runs_return_index_ordered_results() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads).unwrap();
            let out = pool.run(4, |i| {
                pool.run(3, |j| pool.run(5, |k| i * 100 + j * 10 + k))
            });
            let expected: Vec<Vec<Vec<usize>>> = (0..4)
                .map(|i| {
                    (0..3)
                        .map(|j| (0..5).map(|k| i * 100 + j * 10 + k).collect())
                        .collect()
                })
                .collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = Pool::new(2).unwrap();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for caller in 0..8usize {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let out = pool.run(16, |i| caller * 1000 + round * 16 + i);
                        let expected: Vec<usize> =
                            (0..16).map(|i| caller * 1000 + round * 16 + i).collect();
                        assert_eq!(out, expected);
                    }
                });
            }
        });
    }

    /// Two tasks that each wait for the other, so the caller runs one
    /// and a helper the other; then `boom` decides who panics.
    fn rendezvous_then(pool: &Pool, boom: impl Fn(bool) -> bool + Sync) -> Vec<usize> {
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        pool.run(2, |i| {
            both.wait();
            if boom(std::thread::current().id() == caller) {
                panic!("task {i} panicked");
            }
            i
        })
    }

    #[test]
    fn task_panics_reraise_on_the_caller_and_the_pool_survives() {
        let pool = Pool::new(2).unwrap();
        let quiet = |pool: &Pool, boom: fn(bool) -> bool| {
            std::panic::catch_unwind(|| rendezvous_then(pool, boom))
        };
        // A helper's panic crosses to the caller; the caller's own panic
        // unwinds only after the helper has left the job.
        assert!(quiet(&pool, |on_caller| !on_caller).is_err());
        assert!(quiet(&pool, |on_caller| on_caller).is_err());
        // The helper that panicked still serves: the rendezvous needs it.
        assert_eq!(quiet(&pool, |_| false).unwrap(), vec![0, 1]);
        for tasks in [2usize, 7, 100] {
            let out = pool.run(tasks, |i| i + 1);
            assert_eq!(out, (1..=tasks).collect::<Vec<_>>());
        }
    }

    #[test]
    fn helpers_are_reused_across_runs() {
        // The largest `size - 1` any test in this binary asks for: the
        // `Pool::new(4)` tests, or the machine default (snapshot loads).
        let largest = 3.max(Pool::default().size() - 1);
        let caller = std::thread::current().id();
        let pool = Pool::new(2).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            for id in pool.run(4, |_| std::thread::current().id()) {
                if id != caller {
                    seen.insert(id);
                }
            }
        }
        assert!(
            seen.len() <= largest,
            "{} distinct helper threads over 200 runs (at most {largest} expected)",
            seen.len()
        );
    }
}
