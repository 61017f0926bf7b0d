//! Atomically-published session snapshots — the serving tier's MVCC
//! primitive.
//!
//! A [`SnapshotCell`] holds the current [`EngineSession`] behind an
//! `Arc` and lets any number of readers pin it without ever waiting for
//! a writer's work. Writers fork the session copy-on-write ([`EngineSession::
//! fork`]), apply their delta off to the side, and publish the result
//! with one pointer swap; readers that pinned the old snapshot keep
//! computing against it undisturbed, and the old rows are freed when
//! the last pinned `Arc` drops.
//!
//! ## One lock, held for a pointer
//!
//! The current snapshot lives in one `Mutex<Arc<EngineSession>>`. The
//! lock guards a pointer, never a session: [`SnapshotCell::load`] holds
//! it for one `Arc` clone (a reference-count bump, nanoseconds), and a
//! publish holds it for one pointer swap. All of a writer's work —
//! fork, apply, WAL append — runs in a separate writer lane before the
//! swap, so a reader waits at most for another pointer operation,
//! never for an update. A reader that loads just before a swap gets the
//! previous snapshot, which is exactly MVCC semantics.
//!
//! The session a publish replaces is dropped after the lock is
//! released, so freeing its rows never delays a reader. Only the
//! current snapshot is kept alive by the cell; older ones live exactly
//! as long as some reader pins them.

use crate::session::EngineSession;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tsens_data::TsensError;

/// Observer invoked after every publish, still inside the writer lane —
/// no other publish can interleave, so what it sees is exactly the
/// state that just went live. Keep it cheap (the durability layer uses
/// it to *trigger* background checkpoints, not to run them inline).
pub type PublishHook = Box<dyn Fn(u64, &Arc<EngineSession<'static>>) + Send + Sync>;

/// A published, pinnable [`EngineSession`] — see the module docs.
pub struct SnapshotCell {
    /// The current snapshot. Held only to clone or swap the pointer.
    current: Mutex<Arc<EngineSession<'static>>>,
    /// Serializes writers: fork → apply → publish is exclusive, so a
    /// fork always starts from the latest published state.
    writer: Mutex<()>,
    /// Monotone publish counter; version 0 is the initial session.
    version: AtomicU64,
    /// Post-publish observer (checkpoint trigger). Behind its own
    /// mutex so installing it never touches the reader path.
    hook: Mutex<Option<PublishHook>>,
}

impl SnapshotCell {
    /// Publish `session` as version 0.
    pub fn new(session: EngineSession<'static>) -> Self {
        SnapshotCell {
            current: Mutex::new(Arc::new(session)),
            writer: Mutex::new(()),
            version: AtomicU64::new(0),
            hook: Mutex::new(None),
        }
    }

    /// Install the post-publish observer (replacing any previous one).
    /// Called with `(new_version, just-published session)` after every
    /// successful [`SnapshotCell::update`].
    pub fn set_publish_hook(&self, hook: PublishHook) {
        *self.hook.lock().unwrap_or_else(|p| p.into_inner()) = Some(hook);
    }

    fn run_hook(&self, version: u64, session: &Arc<EngineSession<'static>>) {
        let guard = self.hook.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hook) = guard.as_ref() {
            hook(version, session);
        }
    }

    /// Pin the current snapshot. Never waits for a writer's work: the
    /// lock is held only for the `Arc` clone, and a publish holds it
    /// only for the pointer swap.
    pub fn load(&self) -> Arc<EngineSession<'static>> {
        Arc::clone(&self.lock_current())
    }

    /// How many publishes have happened (0 = still the initial session).
    /// Another writer may publish right after this is read; a writer
    /// that needs the version *it* published takes it from
    /// [`SnapshotCell::update_versioned`].
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Fork the current snapshot, run `f` against the private fork, and
    /// — only if `f` succeeds — publish the fork as the new snapshot.
    ///
    /// The batch is **atomic**: on `Err` the fork is discarded and the
    /// published snapshot is exactly what it was, even if `f` had
    /// already mutated the fork before failing. Readers pinned to older
    /// snapshots are unaffected either way.
    ///
    /// Writers are serialized (one publish at a time); readers are not
    /// delayed by `f` no matter how long it runs.
    ///
    /// # Errors
    /// Whatever `f` returns.
    pub fn update<T>(
        &self,
        f: impl FnOnce(&mut EngineSession<'static>) -> Result<T, TsensError>,
    ) -> Result<T, TsensError> {
        self.update_versioned(f).map(|(out, _)| out)
    }

    /// [`SnapshotCell::update`], also returning the version this call
    /// published. The version is taken inside the writer lane, so
    /// concurrent writers each get their own (reading
    /// [`SnapshotCell::version`] afterwards may see a later writer's).
    ///
    /// # Errors
    /// Whatever `f` returns.
    pub fn update_versioned<T>(
        &self,
        f: impl FnOnce(&mut EngineSession<'static>) -> Result<T, TsensError>,
    ) -> Result<(T, u64), TsensError> {
        let lane = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let mut fork = self.load().fork();
        let out = f(&mut fork)?;
        let published = Arc::new(fork);
        let replaced = std::mem::replace(&mut *self.lock_current(), Arc::clone(&published));
        // Dropped outside the lock: freeing the old rows never holds up
        // a reader's load.
        drop(replaced);
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        self.run_hook(version, &published);
        drop(lane);
        Ok((out, version))
    }

    fn lock_current(&self) -> MutexGuard<'_, Arc<EngineSession<'static>>> {
        // An Arc is poison-tolerant: a panic while holding the guard
        // can't leave the Arc itself torn.
        self.current.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Database, Relation, Row, Schema, Value};

    fn tiny_db() -> Database {
        let mut db = Database::new();
        let a = db.attr("A");
        let mut r = Relation::new(Schema::new(vec![a]));
        r.push(vec![Value::Int(1)]);
        db.add_relation("R", r).unwrap();
        db
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i)]
    }

    #[test]
    fn load_returns_published_state() {
        let cell = SnapshotCell::new(EngineSession::owned(tiny_db()));
        assert_eq!(cell.version(), 0);
        assert_eq!(cell.load().database().total_tuples(), 1);
    }

    #[test]
    fn update_publishes_and_bumps_version() {
        let cell = SnapshotCell::new(EngineSession::owned(tiny_db()));
        cell.update(|s| s.insert(0, row(2))).unwrap();
        assert_eq!(cell.version(), 1);
        assert_eq!(cell.load().database().total_tuples(), 2);
    }

    #[test]
    fn pinned_snapshot_survives_publish() {
        let cell = SnapshotCell::new(EngineSession::owned(tiny_db()));
        let pinned = cell.load();
        for i in 0..10 {
            cell.update(|s| s.insert(0, row(i))).unwrap();
        }
        // The pin still sees version 0's rows after ten publishes
        // replaced the cell's pointer.
        assert_eq!(pinned.database().total_tuples(), 1);
        assert_eq!(cell.load().database().total_tuples(), 11);
        assert_eq!(cell.version(), 10);
    }

    #[test]
    fn failed_update_is_atomic() {
        let cell = SnapshotCell::new(EngineSession::owned(tiny_db()));
        let err = cell.update(|s| {
            s.insert(0, row(7))?; // mutates the fork...
            s.insert(99, row(8)) // ...then fails: no relation 99
        });
        assert!(err.is_err());
        // The partial mutation was discarded with the fork.
        assert_eq!(cell.version(), 0);
        assert_eq!(cell.load().database().total_tuples(), 1);
    }

    #[test]
    fn forked_stats_carry_forward() {
        let cell = SnapshotCell::new(EngineSession::owned(tiny_db()));
        cell.update(|s| s.insert(0, row(2))).unwrap();
        cell.update(|s| s.insert(0, row(3))).unwrap();
        let stats = cell.load().stats();
        assert_eq!(stats.forks, 2);
        assert_eq!(stats.updates_applied, 2);
    }

    #[test]
    fn fork_shared_pass_state_is_repaired_without_corrupting_readers() {
        // A pinned reader snapshot shares every warm pass entry with the
        // writer fork. Maintenance must repair a shallow copy of the
        // entry rather than drop it — and the reader must keep answering
        // from its untouched state.
        use tsens_query::{gyo_decompose, ConjunctiveQuery};
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let mut r = Relation::new(Schema::new(vec![a, b]));
        r.push(vec![Value::Int(1), Value::Int(10)]);
        let mut s = Relation::new(Schema::new(vec![b, c]));
        s.push(vec![Value::Int(10), Value::Int(5)]);
        s.push(vec![Value::Int(10), Value::Int(6)]);
        db.add_relation("R", r).unwrap();
        db.add_relation("S", s).unwrap();
        let q = ConjunctiveQuery::over(&db, "q", &["R", "S"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");

        let cell = SnapshotCell::new(EngineSession::owned(db));
        let pinned = cell.load();
        let before = pinned.count_query(&q, &tree).unwrap();
        assert_eq!(before, 2);

        // Known values only: a new value would run a re-sort epoch,
        // which falls back by design.
        cell.update(|f| f.insert(0, vec![Value::Int(1), Value::Int(10)]))
            .unwrap();
        let stats = cell.load().stats();
        assert!(
            stats.passes_maintained >= 1,
            "shared entry is repaired: {stats:?}"
        );
        assert_eq!(stats.passes_invalidated, 0, "nothing is dropped");

        // The pin still answers from its (untouched) warm pass state;
        // the new snapshot answers from the repaired copy.
        assert_eq!(pinned.count_query(&q, &tree).unwrap(), before);
        assert_eq!(cell.load().count_query(&q, &tree).unwrap(), before + 2);
    }

    #[test]
    fn concurrent_writers_get_distinct_published_versions() {
        const WRITERS: u64 = 16;
        let cell = Arc::new(SnapshotCell::new(EngineSession::owned(tiny_db())));
        let mut versions: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|i| {
                    let cell = Arc::clone(&cell);
                    scope.spawn(move || {
                        let ((), v) = cell
                            .update_versioned(|s| s.insert(0, row(i as i64)))
                            .unwrap();
                        v
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        versions.sort_unstable();
        assert_eq!(versions, (1..=WRITERS).collect::<Vec<_>>());
    }

    #[test]
    fn publish_hook_sees_every_publish_in_order() {
        let cell = SnapshotCell::new(EngineSession::owned(tiny_db()));
        let seen: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        cell.set_publish_hook(Box::new(move |version, session| {
            log.lock()
                .unwrap()
                .push((version, session.database().total_tuples()));
        }));
        cell.update(|s| s.insert(0, row(2))).unwrap();
        cell.update(|s| s.insert(0, row(3))).unwrap();
        let _ = cell.update(|s| s.insert(99, row(4))); // fails: no publish
        cell.update(|s| s.delete(0, row(2)).map(|_| ())).unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(1, 2), (2, 3), (3, 2)],
            "hook fires per successful publish with the live state"
        );
    }

    #[test]
    fn concurrent_readers_never_block_on_slow_writer() {
        use std::sync::atomic::AtomicBool;
        let cell = Arc::new(SnapshotCell::new(EngineSession::owned(tiny_db())));
        let writing = Arc::new(AtomicBool::new(true));
        let c = Arc::clone(&cell);
        let w = Arc::clone(&writing);
        let writer = std::thread::spawn(move || {
            for i in 0..50 {
                c.update(|s| {
                    // Simulate a slow delta: readers must not stall.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    s.insert(0, row(i))
                })
                .unwrap();
            }
            w.store(false, Ordering::Release);
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cell);
                let w = Arc::clone(&writing);
                std::thread::spawn(move || {
                    let mut loads = 0u64;
                    let mut last = 0usize;
                    while w.load(Ordering::Acquire) {
                        let snap = c.load();
                        let n = snap.database().total_tuples();
                        // Tuple counts grow monotonically across
                        // publishes — a torn read would violate this.
                        assert!(n >= last, "snapshot went backwards: {n} < {last}");
                        last = n;
                        loads += 1;
                    }
                    loads
                })
            })
            .collect();
        writer.join().unwrap();
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        // 4 readers spinning for ~10ms of writer sleep: if loads blocked
        // behind the writer lane they'd manage ~50 each, not thousands.
        assert!(
            total > 1_000,
            "readers appear to have blocked: {total} loads"
        );
        assert_eq!(cell.load().database().total_tuples(), 51);
    }
}
