//! A dependency-free scoped worker pool — the workspace's intra-query
//! parallelism primitive.
//!
//! The container is offline (no `rayon`), so parallel sections run on
//! plain [`std::thread::scope`] workers pulling **chunks of indices**
//! off a shared atomic cursor. The pool is a *configuration* (a thread
//! count), not a set of live threads: threads are spawned per
//! [`Pool::run`] call and joined before it returns, so borrowing local
//! state into tasks needs no `'static` bounds and a sequential pool has
//! exactly zero overhead.
//!
//! Sizing follows `TSENS_THREADS` when set, else
//! [`std::thread::available_parallelism`]. `threads == 1` is the
//! **byte-for-byte sequential contract**: [`Pool::run`] degenerates to a
//! plain in-order loop on the calling thread, so every pooled algorithm
//! in the workspace, run on `Pool::sequential()`, is its own sequential
//! version — there is no separate single-threaded code path.

use crate::error::TsensError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the pool size (`0` is rejected by
/// [`Pool::from_env`]; front-ends surface that as a startup error).
pub const THREADS_ENV: &str = "TSENS_THREADS";

/// A scoped worker-pool configuration. Copyable and trivially cheap —
/// sessions embed one and thread it through passes, joins and encoding.
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
    /// sequential code. Otherwise `min(threads, tasks)` scoped workers
    /// claim chunks of indices off a shared cursor (chunked to amortize
    /// the atomic while still load-balancing skewed tasks), collect
    /// `(index, result)` pairs locally, and the results are reassembled
    /// in order after the scope joins.
    ///
    /// # Panics
    /// A panic inside `f` is propagated to the caller (after all
    /// workers have stopped), matching the sequential behaviour.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let workers = self.threads.min(tasks);
        // ~4 chunks per worker balances skew against cursor contention.
        let chunk = (tasks / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= tasks {
                                break;
                            }
                            for i in start..(start + chunk).min(tasks) {
                                local.push((i, f(i)));
                            }
                        }
                        local
                    })
                })
                .collect();
            let mut panicked = None;
            for h in handles {
                match h.join() {
                    Ok(local) => {
                        for (i, v) in local {
                            slots[i] = Some(v);
                        }
                    }
                    Err(payload) => panicked = Some(payload),
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
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
}
