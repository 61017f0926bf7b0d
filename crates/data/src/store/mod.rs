//! Durable storage for [`EncodedDatabase`]: versioned snapshots plus a
//! write-ahead log, and the recovery ladder that puts them back
//! together after a crash.
//!
//! # On-disk layout
//!
//! A data directory holds numbered **generations**:
//!
//! ```text
//! data/
//!   snapshot-0000000000000004.tsnap   full encoded state as of gen 4
//!   wal-0000000000000004.tlog         batches accepted since snapshot 4
//!   wal-0000000000000005.tlog         batches since the gen-5 roll
//!   snapshot-0000000000000005.tsnap   (appears when the checkpoint lands)
//! ```
//!
//! A **checkpoint** rolls the WAL first (new batches go to
//! `wal-(g+1)`), then writes `snapshot-(g+1)` in the background and
//! retires generations older than the retention window. Because every
//! batch in `wal-(g+1)` was accepted *after* every batch in `wal-g`,
//! recovery from `snapshot-g` replays `wal-g`, `wal-(g+1)`, … in
//! generation order and lands exactly on the last durable state.
//!
//! # Recovery ladder
//!
//! [`recover`] tries, in order: the newest valid snapshot plus its WAL
//! suffix → older snapshots (when the newest is damaged) → nothing
//! (the caller re-encodes from CSV). Torn WAL tails are truncated;
//! anything after a damaged record is *never* replayed — the restored
//! state is always a prefix of the accepted batches, never a mix.
//!
//! The ladder does not apply batches itself. Its caller opens each
//! snapshot into its own state and applies each WAL record to it. The
//! server opens an `EngineSession` and replays every record through
//! the same `apply_all_diagnosed` call that `/update` makes, so there
//! is one write path, live and at boot.

pub mod format;
pub mod snapshot;
pub mod wal;

pub use snapshot::{
    inspect_snapshot, load_snapshot, save_snapshot, snapshot_path, LoadedSnapshot, SnapshotInfo,
};
pub use wal::{replay, truncate_tail, wal_path, FsyncPolicy, Wal, WalReplay};

use crate::error::DataError;
use crate::{Database, EncodedDatabase};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Default WAL size (bytes of records) past which the server
/// checkpoints: roll the WAL, write a fresh snapshot, retire old
/// generations.
pub const DEFAULT_WAL_LIMIT: u64 = 4 << 20;
/// Generations of snapshot+WAL kept on disk. Two means the previous
/// generation is still available as a fallback if the newest snapshot
/// is damaged.
pub const RETAIN_GENERATIONS: u64 = 2;

/// Durability-layer errors. Corruption is a first-class, typed outcome
/// — the recovery ladder matches on it to fall back instead of dying.
#[derive(Debug)]
pub enum StoreError {
    /// An environmental I/O failure (permissions, disk full, …).
    Io(String),
    /// The file is not a snapshot/WAL at all.
    BadMagic,
    /// A format version this build does not read.
    UnsupportedVersion(u32),
    /// Structurally damaged content (CRC mismatch, truncation,
    /// out-of-range references).
    Corrupt(String),
    /// The decoded content failed catalog-level validation.
    Data(DataError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "i/o: {m}"),
            StoreError::BadMagic => write!(f, "not a tsens store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Corrupt(m) => write!(f, "corrupt: {m}"),
            StoreError::Data(e) => write!(f, "data: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl From<DataError> for StoreError {
    fn from(e: DataError) -> Self {
        StoreError::Data(e)
    }
}

/// Fsync a directory so a just-renamed or just-created entry survives a
/// crash of the directory itself.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn list_generations(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(mid) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        {
            if let Ok(generation) = mid.parse::<u64>() {
                out.push((generation, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(g, _)| g);
    Ok(out)
}

/// Snapshot files in `dir`, ascending by generation.
///
/// # Errors
/// Directory read failures.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    list_generations(dir, "snapshot-", ".tsnap")
}

/// WAL files in `dir`, ascending by generation.
///
/// # Errors
/// Directory read failures.
pub fn list_wals(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    list_generations(dir, "wal-", ".tlog")
}

/// How a boot got its state — logged, and surfaced verbatim in
/// `/stats`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `"snapshot"`, `"snapshot+wal"`, or `"csv"` (nothing usable on
    /// disk — the caller re-encoded from source files).
    pub source: String,
    /// Generation of the snapshot that loaded, if any.
    pub snapshot_generation: Option<u64>,
    /// Snapshots that failed to load, newest first: `(gen, error)`.
    pub snapshots_skipped: Vec<(u64, String)>,
    /// WAL batches (records) replayed on top of the snapshot.
    pub wal_batches_replayed: u64,
    /// Individual ops inside those batches.
    pub wal_ops_replayed: u64,
    /// Intact records scanned but *not* replayed (stranded after
    /// damage or a failed apply).
    pub wal_records_dropped: u64,
    /// Whether any WAL had a torn tail truncated.
    pub torn_tail: bool,
    /// Human-readable log of every ladder step.
    pub notes: Vec<String>,
}

/// The outcome of [`recover`].
pub struct Recovery<S> {
    /// The restored state, or `None` when nothing on disk was usable
    /// (empty dir, or every snapshot damaged) — the caller falls back
    /// to CSV re-encoding.
    pub state: Option<S>,
    /// The generation the next [`Store::create`] should publish at:
    /// one past everything seen on disk, so a recovered boot never
    /// overwrites evidence.
    pub next_generation: u64,
    pub report: RecoveryReport,
}

/// Walk the recovery ladder over `dir`: newest valid snapshot → replay
/// its WAL suffix in generation order (truncating torn tails, never
/// replaying past damage) → older snapshots → nothing.
///
/// The caller owns the state: `open` turns a loaded snapshot into it,
/// and `step` applies one WAL record (a batch's ops text) to it,
/// returning how many ops the record held. The server passes the
/// engine session's constructor and its `/update` apply, so a replayed
/// batch runs exactly the code a live one ran. A snapshot `open`
/// rejects is skipped like a damaged one; a record `step` rejects ends
/// the replay at the last consistent prefix.
///
/// # Errors
/// Only environmental failures (the directory unreadable). Damaged
/// files are ladder steps, not errors.
pub fn recover<S>(
    dir: &Path,
    mut open: impl FnMut(LoadedSnapshot) -> Result<S, StoreError>,
    mut step: impl FnMut(&mut S, &str) -> Result<u64, StoreError>,
) -> Result<Recovery<S>, StoreError> {
    let snapshots = list_snapshots(dir)?;
    let wals = list_wals(dir)?;
    let max_seen = snapshots.iter().chain(wals.iter()).map(|&(g, _)| g).max();
    let mut report = RecoveryReport {
        source: "csv".into(),
        ..RecoveryReport::default()
    };

    for &(generation, ref path) in snapshots.iter().rev() {
        let opened = load_snapshot(path).and_then(|loaded| {
            let note = format!(
                "loaded snapshot gen {generation} ({} tuples, epoch {})",
                loaded.info.total_tuples, loaded.info.epoch
            );
            open(loaded).map(|state| (state, note))
        });
        let mut state = match opened {
            Ok((state, note)) => {
                report.notes.push(note);
                state
            }
            Err(e) => {
                report
                    .notes
                    .push(format!("snapshot gen {generation} unusable: {e}"));
                report.snapshots_skipped.push((generation, e.to_string()));
                continue;
            }
        };
        report.source = "snapshot".into();
        report.snapshot_generation = Some(generation);

        let mut chain_broken = false;
        for &(wal_gen, ref wal_file) in wals.iter().filter(|&&(g, _)| g >= generation) {
            if chain_broken {
                // Records past a damaged generation were accepted
                // after batches we could not restore; replaying them
                // would fabricate a state that never existed.
                if let Ok(scan) = replay(wal_file) {
                    report.wal_records_dropped += scan.records.len() as u64;
                }
                report.notes.push(format!(
                    "ignored wal gen {wal_gen}: follows a damaged generation"
                ));
                continue;
            }
            let scan = match replay(wal_file) {
                Ok(s) => s,
                Err(e) => {
                    report
                        .notes
                        .push(format!("wal gen {wal_gen} unreadable: {e}"));
                    chain_broken = true;
                    continue;
                }
            };
            for (i, record) in scan.records.iter().enumerate() {
                match step(&mut state, record) {
                    Ok(ops) => {
                        report.wal_batches_replayed += 1;
                        report.wal_ops_replayed += ops;
                    }
                    Err(e) => {
                        report.wal_records_dropped += (scan.records.len() - i) as u64;
                        report.notes.push(format!(
                            "wal gen {wal_gen} record {i} failed to apply; \
                             stopping replay at the last consistent prefix: {e}"
                        ));
                        chain_broken = true;
                        break;
                    }
                }
            }
            if let Some(damage) = &scan.damage {
                report.torn_tail = true;
                report.notes.push(format!(
                    "wal gen {wal_gen}: {damage}; truncated {} byte(s)",
                    scan.dropped_bytes
                ));
                if let Err(e) = truncate_tail(wal_file, scan.valid_len) {
                    report
                        .notes
                        .push(format!("wal gen {wal_gen}: tail truncation failed: {e}"));
                }
                chain_broken = true;
            }
        }
        if report.wal_batches_replayed > 0 {
            report.source = "snapshot+wal".into();
        }
        return Ok(Recovery {
            state: Some(state),
            next_generation: max_seen.map_or(0, |g| g + 1),
            report,
        });
    }

    if snapshots.is_empty() {
        report.notes.push("no snapshots on disk".into());
    } else {
        report
            .notes
            .push("every snapshot unusable; falling back to CSV re-encode".into());
    }
    Ok(Recovery {
        state: None,
        next_generation: max_seen.map_or(0, |g| g + 1),
        report,
    })
}

/// The live durable half of a serving database: the open WAL plus the
/// generation bookkeeping. The server holds one per database behind a
/// mutex; the snapshot side is written through the free functions so a
/// background checkpoint never blocks appends.
pub struct Store {
    dir: PathBuf,
    policy: FsyncPolicy,
    wal_limit: u64,
    retain: u64,
    generation: u64,
    wal: Wal,
    checkpoints: u64,
}

impl Store {
    /// Initialize a store at `generation`: write that snapshot
    /// atomically, open its WAL, and retire generations outside the
    /// retention window. Used both for fresh boots (CSV state, gen 0)
    /// and post-recovery boots (recovered state, one past everything
    /// on disk — self-healing: whatever mess recovery walked through
    /// becomes retireable history).
    ///
    /// # Errors
    /// I/O failures. A failed snapshot write leaves only a `.tmp`.
    pub fn create(
        dir: &Path,
        policy: FsyncPolicy,
        wal_limit: u64,
        generation: u64,
        db: &Database,
        enc: &EncodedDatabase,
    ) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir)?;
        save_snapshot(dir, generation, db, enc)?;
        let wal = Wal::create(dir, generation, policy)?;
        let store = Store {
            dir: dir.to_owned(),
            policy,
            wal_limit,
            retain: RETAIN_GENERATIONS,
            generation,
            wal,
            checkpoints: 0,
        };
        store.retire_old()?;
        Ok(store)
    }

    /// Append one accepted batch to the WAL under the configured fsync
    /// policy. Under `always`, durable when this returns.
    ///
    /// # Errors
    /// I/O failures — the caller must *not* publish the batch.
    pub fn append_batch(&mut self, ops_text: &str) -> Result<(), StoreError> {
        self.wal.append(ops_text)
    }

    /// Whether the WAL has grown past the checkpoint threshold.
    pub fn should_checkpoint(&self) -> bool {
        self.wal.records() > 0
            && self.wal.bytes().saturating_sub(wal::WAL_HEADER_LEN) >= self.wal_limit
    }

    /// Begin a checkpoint: fsync and roll the WAL so new batches land
    /// in generation `g+1`. Must be called while no append can race
    /// (the server does it inside the publish lane). The caller then
    /// writes `snapshot-(g+1)` — off-thread — via [`save_snapshot`]
    /// and finishes with [`Store::checkpoint_done`].
    ///
    /// # Errors
    /// I/O failures; the store stays on the old generation.
    pub fn roll_wal(&mut self) -> Result<u64, StoreError> {
        let next = self.generation + 1;
        self.wal.sync()?;
        self.wal = Wal::create(&self.dir, next, self.policy)?;
        self.generation = next;
        Ok(next)
    }

    /// Record a finished checkpoint and retire old generations.
    ///
    /// # Errors
    /// Directory I/O failures while retiring.
    pub fn checkpoint_done(&mut self) -> Result<(), StoreError> {
        self.checkpoints += 1;
        self.retire_old()
    }

    /// Delete snapshot/WAL files older than the retention window.
    fn retire_old(&self) -> Result<(), StoreError> {
        let cutoff = (self.generation + 1).saturating_sub(self.retain);
        for (g, path) in list_snapshots(&self.dir)?
            .into_iter()
            .chain(list_wals(&self.dir)?)
        {
            if g < cutoff {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Force pending WAL bytes to disk regardless of policy.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records appended to the current WAL generation.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Bytes in the current WAL generation (header included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Checkpoints completed since boot.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}
