//! The server's durable half: boot-time recovery, WAL appends in the
//! `/update` lane, and background checkpoints triggered off
//! [`SnapshotCell`](tsens_engine::SnapshotCell) publishes.
//!
//! # Ordering guarantee
//!
//! An `/update` batch is acknowledged only after its WAL record is
//! appended (and, under `fsync=always`, fsynced) — and the append
//! happens *inside* the publish lane, after the fork applied cleanly
//! and before the new snapshot version becomes visible to readers. So:
//!
//! * acked ⟹ logged: a `kill -9` after the ack never loses the batch
//!   under `always`;
//! * visible ⟹ logged: readers never observe state the WAL cannot
//!   reproduce;
//! * append failure ⟹ 503 and **no publish** — the fork is discarded,
//!   readers keep the old snapshot, and the worker moves on (no wedge).
//!
//! # Checkpoints
//!
//! The publish hook fires in the writer lane after every publish. When
//! the WAL passes its size threshold the hook *rolls* the log (new
//! batches land in generation `g+1` — atomic with respect to appends,
//! because the lane serializes them) and hands the just-published
//! session `Arc` to a background thread that writes `snapshot-(g+1)`
//! and retires old generations. Readers and writers never wait on the
//! snapshot write.
//!
//! # Recovery
//!
//! Boot walks [`store::recover`]'s ladder with an [`EngineSession`] as
//! its state. A loaded snapshot opens through
//! [`EngineSession::from_encoded`], and each WAL record replays through
//! `replay_batch`: the same parse and `apply_all_diagnosed` call that
//! `/update` made when it accepted the batch. A replayed write
//! therefore runs the live write path, catalog mirror and all, and a
//! record that fails names its op the way the `/update` 400 does.

use crate::http::json_escape;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tsens_data::io::parse_ops_indexed;
use tsens_data::store::{
    self, FsyncPolicy, Recovery, RecoveryReport, Store, StoreError, DEFAULT_WAL_LIMIT,
};
use tsens_data::Database;
use tsens_engine::EngineSession;

/// How a durable database boots.
pub struct DurabilityConfig {
    pub dir: PathBuf,
    pub policy: FsyncPolicy,
    /// WAL record bytes past which a publish triggers a checkpoint.
    pub wal_limit: u64,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy,
            wal_limit: DEFAULT_WAL_LIMIT,
        }
    }
}

/// Per-database durable state shared between the `/update` lane, the
/// publish hook, and `/stats`.
pub struct Durability {
    store: Mutex<Store>,
    report: RecoveryReport,
    /// At most one background checkpoint in flight.
    checkpointing: AtomicBool,
    wal_append_failures: AtomicU64,
    checkpoint_failures: AtomicU64,
}

impl Durability {
    /// Boot a durable database: walk the recovery ladder under
    /// `config.dir`; if nothing on disk is usable, fall back to
    /// `fallback` (the CSV-encode path). Either way, publish a fresh
    /// snapshot generation so the directory is self-healing — whatever
    /// damage recovery stepped around becomes retireable history.
    ///
    /// Returns the booted session and the durable handle to wire into
    /// a [`ServerState`](crate::ServerState).
    ///
    /// # Errors
    /// Environmental failures only (directory unreadable/unwritable,
    /// initial snapshot unwritable). Damaged files are recovered
    /// around, not errored on.
    pub fn boot(
        config: &DurabilityConfig,
        fallback: impl FnOnce() -> Database,
    ) -> Result<(EngineSession<'static>, Durability), StoreError> {
        std::fs::create_dir_all(&config.dir)?;
        let recovery = recover(&config.dir)?;
        let mut report = recovery.report;
        let session = match recovery.state {
            Some(session) => session,
            None => {
                report
                    .notes
                    .push("encoding from source data (CSV path)".into());
                EngineSession::owned(fallback())
            }
        };
        let store = Store::create(
            &config.dir,
            config.policy,
            config.wal_limit,
            recovery.next_generation,
            session.database(),
            session.encoded(),
        )?;
        for note in &report.notes {
            eprintln!("[tsens-store] {note}");
        }
        eprintln!(
            "[tsens-store] serving generation {} from {} (source: {})",
            store.generation(),
            config.dir.display(),
            report.source
        );
        Ok((
            session,
            Durability {
                store: Mutex::new(store),
                report,
                checkpointing: AtomicBool::new(false),
                wal_append_failures: AtomicU64::new(0),
                checkpoint_failures: AtomicU64::new(0),
            },
        ))
    }

    fn lock_store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append one accepted batch to the WAL (called inside the publish
    /// lane, after apply succeeded, before the publish).
    ///
    /// # Errors
    /// I/O failures — the caller must answer 503 and publish nothing.
    pub fn append_batch(&self, ops_text: &str) -> Result<(), StoreError> {
        let result = self.lock_store().append_batch(ops_text);
        if result.is_err() {
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The publish-hook body: if the WAL is past its threshold (and no
    /// checkpoint is already in flight), roll the log and write the
    /// new generation's snapshot in the background from the pinned
    /// just-published session.
    pub fn maybe_checkpoint(self: &Arc<Self>, session: &Arc<EngineSession<'static>>) {
        if !self.lock_store().should_checkpoint() {
            return;
        }
        if self.checkpointing.swap(true, Ordering::AcqRel) {
            return; // one at a time
        }
        let (generation, dir) = {
            let mut store = self.lock_store();
            match store.roll_wal() {
                Ok(g) => (g, store.dir().to_owned()),
                Err(e) => {
                    eprintln!("[tsens-store] WAL roll failed, checkpoint skipped: {e}");
                    self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                    self.checkpointing.store(false, Ordering::Release);
                    return;
                }
            }
        };
        let me = Arc::clone(self);
        let pinned = Arc::clone(session);
        std::thread::spawn(move || {
            let result =
                store::save_snapshot(&dir, generation, pinned.database(), pinned.encoded());
            match result {
                Ok(path) => {
                    if let Err(e) = me.lock_store().checkpoint_done() {
                        eprintln!("[tsens-store] retire after checkpoint failed: {e}");
                    }
                    eprintln!(
                        "[tsens-store] checkpointed generation {generation} to {}",
                        path.display()
                    );
                }
                Err(e) => {
                    // The roll already happened, so recovery simply
                    // replays one more WAL generation until a later
                    // checkpoint lands. Durability is unaffected.
                    eprintln!("[tsens-store] checkpoint write failed: {e}");
                    me.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            me.checkpointing.store(false, Ordering::Release);
        });
    }

    /// How this database's state was restored at boot.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Force pending WAL bytes down regardless of policy (tests, clean
    /// shutdown).
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.lock_store().sync()
    }

    /// Current data directory.
    pub fn dir(&self) -> PathBuf {
        self.lock_store().dir().to_owned()
    }

    /// The `/stats` `"durability"` object.
    pub fn stats_json(&self) -> String {
        let (generation, policy, wal_records, wal_bytes, checkpoints) = {
            let s = self.lock_store();
            (
                s.generation(),
                s.policy(),
                s.wal_records(),
                s.wal_bytes(),
                s.checkpoints(),
            )
        };
        let r = &self.report;
        let snapshot_generation = match r.snapshot_generation {
            Some(g) => g.to_string(),
            None => "null".to_owned(),
        };
        format!(
            "{{\"enabled\":true,\"fsync\":\"{policy}\",\"generation\":{generation},\
             \"wal_records\":{wal_records},\"wal_bytes\":{wal_bytes},\
             \"checkpoints\":{checkpoints},\"checkpoint_in_flight\":{},\
             \"wal_append_failures\":{},\"checkpoint_failures\":{},\
             \"recovery\":{{\"source\":\"{}\",\"snapshot_generation\":{snapshot_generation},\
             \"wal_batches_replayed\":{},\"wal_ops_replayed\":{},\
             \"wal_records_dropped\":{},\"torn_tail\":{},\"snapshots_skipped\":{}}}}}",
            self.checkpointing.load(Ordering::Acquire),
            self.wal_append_failures.load(Ordering::Relaxed),
            self.checkpoint_failures.load(Ordering::Relaxed),
            json_escape(&r.source),
            r.wal_batches_replayed,
            r.wal_ops_replayed,
            r.wal_records_dropped,
            r.torn_tail,
            r.snapshots_skipped.len(),
        )
    }
}

/// Walk the recovery ladder over `dir` ([`store::recover`]) with the
/// engine session as the recovered state: each snapshot opens through
/// [`EngineSession::from_encoded`], and each WAL record replays through
/// the apply `/update` runs.
///
/// # Errors
/// Environmental failures only; damaged files are ladder steps.
pub fn recover(dir: &Path) -> Result<Recovery<EngineSession<'static>>, StoreError> {
    store::recover(
        dir,
        |loaded| {
            EngineSession::from_encoded(loaded.db, loaded.enc)
                .map_err(|e| StoreError::Corrupt(format!("recovered state rejected: {e}")))
        },
        replay_batch,
    )
}

/// Apply one WAL record (a batch's ops text) to `session` exactly as
/// `/update` applied it: parse against the session's catalog, then
/// [`EngineSession::apply_all_diagnosed`]. Returns the number of parsed
/// ops, including deletes of absent rows that changed nothing.
///
/// # Errors
/// [`StoreError::Corrupt`] naming the failing op as `/update` does
/// (`op #i (line N: "…")`). Ops before it stay applied; recovery stops
/// replaying there.
fn replay_batch(session: &mut EngineSession<'static>, text: &str) -> Result<u64, StoreError> {
    let ops = parse_ops_indexed(session.database(), text)
        .map_err(|e| StoreError::Corrupt(format!("batch parse: {e}")))?;
    let total = ops.len() as u64;
    let located: Vec<String> = ops.iter().map(|o| o.locate()).collect();
    session
        .apply_all_diagnosed(ops.into_iter().map(|o| o.update))
        .map_err(|(i, e)| StoreError::Corrupt(format!("op #{i} ({}): {e}", located[i])))?;
    Ok(total)
}
