//! Fault injection against the durability layer: crashes (torn files)
//! and corruption (bit flips) at *arbitrary* points, driven by
//! proptest. The invariant under every fault is prefix consistency —
//! recovery lands on a state equal to some prefix of the accepted
//! batches, never a torn or reordered mix — and damaged snapshots are
//! detected, stepping the ladder down instead of serving garbage.
//!
//! Recovery runs as the server boots: [`durability::recover`] replays
//! the WAL through the engine session. A state's fingerprint reads
//! both the catalog and the decoded encoding, so a replay that left the
//! two apart fails as surely as one that landed on the wrong prefix.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsens_data::io::parse_ops;
use tsens_data::store::{self, FsyncPolicy, Store};
use tsens_data::{CountedRelation, Database, EncodedDatabase, Relation, Schema, Value};
use tsens_engine::EngineSession;
use tsens_server::durability;

/// Fresh scratch directory per case (no tempfile crate in the tree).
fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsens-faults-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two relations; ops mutate `R`, `S` stays fixed so recovery must
/// preserve untouched relations too.
fn base_db() -> Database {
    let mut db = Database::new();
    let [a, b] = db.attrs(["A", "B"]);
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(vec![a, b]),
            vec![
                vec![Value::Int(0), Value::str("x")],
                vec![Value::Int(1), Value::str("y")],
            ],
        ),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(Schema::new(vec![b]), vec![vec![Value::str("x")]]),
    )
    .unwrap();
    db
}

/// Canonical, order-insensitive view of a session — two states are
/// "the same prefix" iff their fingerprints match. It is read from the
/// catalog and from the encoding decoded through its dictionary, and
/// the two must agree: a state whose encoding diverged from its catalog
/// fails here, whichever side holds the truth.
fn fingerprint(session: &EngineSession<'_>) -> Vec<CountedRelation> {
    let enc = session.encoded();
    session
        .database()
        .iter()
        .map(|(i, name, rel)| {
            let catalog = CountedRelation::from_relation(rel);
            let mut decoded = enc.lifted(i).unwrap().decode(enc.dict());
            decoded.sort();
            assert_eq!(
                decoded, catalog,
                "relation {name}: the encoding diverged from the catalog"
            );
            catalog
        })
        .collect()
}

/// Apply one batch the way a one-shard `/update` does.
fn apply_batch(session: &mut EngineSession<'static>, text: &str) {
    let ops = parse_ops(session.database(), text).unwrap();
    session.apply_all(ops).unwrap();
}

fn batch_text(batch: &[(u32, u32, u32)]) -> String {
    batch.iter().map(op_line).collect::<Vec<_>>().join("\n")
}

/// One generated op: insert or delete of a small-domain row in `R`.
/// Deleting an absent row is a legal no-op, so any sequence is valid —
/// and values outside the base domain exercise the dict overflow path
/// through snapshot + WAL.
fn op_line(op: &(u32, u32, u32)) -> String {
    let (insert, a, b) = *op;
    let sign = if insert == 1 { '+' } else { '-' };
    format!("{sign},R,{a},s{b}")
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..2, 0u32..4, 0u32..3), 1..4),
        1..6,
    )
}

/// Apply + append `batches`, returning the WAL path and the fingerprint
/// after each prefix (`prefixes[0]` = base state, `prefixes[k]` = after
/// batch `k`).
fn run_batches(
    dir: &Path,
    batches: &[Vec<(u32, u32, u32)>],
) -> (PathBuf, Vec<Vec<CountedRelation>>) {
    let mut session = EngineSession::owned(base_db());
    let mut st = Store::create(
        dir,
        FsyncPolicy::Off,
        u64::MAX,
        1,
        session.database(),
        session.encoded(),
    )
    .unwrap();
    let mut prefixes = vec![fingerprint(&session)];
    for batch in batches {
        let text = batch_text(batch);
        apply_batch(&mut session, &text);
        st.append_batch(&text).unwrap();
        prefixes.push(fingerprint(&session));
    }
    st.sync().unwrap();
    (store::wal_path(dir, 1), prefixes)
}

/// Recover `dir` and assert the restored state equals `prefixes[k]` for
/// the `k` the report claims — and that `k` is a real prefix index.
fn assert_recovers_a_prefix(dir: &Path, prefixes: &[Vec<CountedRelation>]) {
    let recovery = durability::recover(dir).unwrap();
    let session = recovery
        .state
        .expect("the snapshot was not touched, so recovery must restore state");
    let replayed = recovery.report.wal_batches_replayed as usize;
    assert!(
        replayed < prefixes.len(),
        "replayed {replayed} batches but only {} were accepted",
        prefixes.len() - 1
    );
    assert_eq!(
        fingerprint(&session),
        prefixes[replayed],
        "recovered state is not the claimed prefix (k = {replayed}); \
         notes: {:?}",
        recovery.report.notes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at any byte: cutting the WAL anywhere must recover to a
    /// prefix of the accepted batches.
    #[test]
    fn wal_cut_anywhere_recovers_a_prefix(
        batches in batches_strategy(),
        cut in 0u64..=1000,
    ) {
        let dir = tmpdir("cut");
        let (wal, prefixes) = run_batches(&dir, &batches);
        let len = std::fs::metadata(&wal).unwrap().len();
        store::truncate_tail(&wal, len * cut / 1000).unwrap();
        assert_recovers_a_prefix(&dir, &prefixes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corruption at any bit: flipping one bit anywhere in the WAL
    /// (header, length, CRC, or payload) must still recover to a
    /// prefix — never replay past the damage.
    #[test]
    fn wal_bitflip_anywhere_recovers_a_prefix(
        batches in batches_strategy(),
        at in 0usize..=1000,
        bit in 0u32..8,
    ) {
        let dir = tmpdir("flip");
        let (wal, prefixes) = run_batches(&dir, &batches);
        let mut bytes = std::fs::read(&wal).unwrap();
        let idx = (bytes.len() - 1) * at / 1000;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&wal, &bytes).unwrap();
        assert_recovers_a_prefix(&dir, &prefixes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A flipped bit anywhere in the only snapshot must be *detected*:
    /// recovery reports nothing usable (CSV fallback) rather than
    /// loading damaged state. Every byte of the file is covered by
    /// magic, section CRCs, or the footer.
    #[test]
    fn snapshot_bitflip_is_always_detected(
        at in 0usize..=1000,
        bit in 0u32..8,
    ) {
        let dir = tmpdir("snapflip");
        let db = base_db();
        let enc = EncodedDatabase::new(&db);
        let path = store::save_snapshot(&dir, 1, &db, &enc).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = (bytes.len() - 1) * at / 1000;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let recovery = durability::recover(&dir).unwrap();
        prop_assert!(
            recovery.state.is_none(),
            "a corrupt snapshot loaded anyway; notes: {:?}",
            recovery.report.notes
        );
        prop_assert_eq!(recovery.report.snapshots_skipped.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Save → load is lossless: identical catalog contents and an
    /// identical encoding (same dict size, same epoch), for arbitrary
    /// update histories including dict overflow.
    #[test]
    fn snapshot_roundtrip_is_lossless(batches in batches_strategy()) {
        let dir = tmpdir("roundtrip");
        let mut session = EngineSession::owned(base_db());
        for batch in &batches {
            apply_batch(&mut session, &batch_text(batch));
        }
        let (db, enc) = (session.database(), session.encoded());
        let path = store::save_snapshot(&dir, 7, db, enc).unwrap();
        let loaded = store::load_snapshot(&path).unwrap();
        let reopened = EngineSession::from_encoded(loaded.db.clone(), loaded.enc.clone()).unwrap();
        prop_assert_eq!(fingerprint(&reopened), fingerprint(&session));
        prop_assert_eq!(loaded.enc.epoch(), enc.epoch());
        prop_assert_eq!(loaded.enc.relation_count(), enc.relation_count());
        for i in 0..enc.relation_count() {
            prop_assert_eq!(loaded.enc.version(i), enc.version(i));
            prop_assert_eq!(
                loaded.enc.lifted(i).unwrap().decode(loaded.enc.dict()),
                enc.lifted(i).unwrap().decode(enc.dict())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The ladder's second rung: when the *newest* snapshot is damaged,
/// recovery steps down to the previous generation and replays both WAL
/// generations — landing on the full final state, not the older
/// snapshot's.
#[test]
fn damaged_newest_snapshot_falls_back_and_replays_both_wals() {
    let dir = tmpdir("ladder");
    let mut session = EngineSession::owned(base_db());
    let mut st = Store::create(
        &dir,
        FsyncPolicy::Always,
        u64::MAX,
        1,
        session.database(),
        session.encoded(),
    )
    .unwrap();

    apply_batch(&mut session, "+,R,7,s7");
    st.append_batch("+,R,7,s7").unwrap();

    // Checkpoint: roll to gen 2 and write its snapshot.
    let gen2 = st.roll_wal().unwrap();
    assert_eq!(gen2, 2);
    store::save_snapshot(&dir, 2, session.database(), session.encoded()).unwrap();
    st.checkpoint_done().unwrap();

    apply_batch(&mut session, "+,R,8,s8");
    st.append_batch("+,R,8,s8").unwrap();
    let final_state = fingerprint(&session);
    drop(st);

    // Damage the gen-2 snapshot.
    let snap2 = store::snapshot_path(&dir, 2);
    let mut bytes = std::fs::read(&snap2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap2, &bytes).unwrap();

    let recovery = durability::recover(&dir).unwrap();
    let recovered = recovery.state.expect("gen-1 snapshot must still load");
    assert_eq!(recovery.report.snapshot_generation, Some(1));
    assert_eq!(recovery.report.source, "snapshot+wal");
    assert_eq!(recovery.report.wal_batches_replayed, 2);
    assert_eq!(
        fingerprint(&recovered),
        final_state,
        "fallback + both WAL generations must reproduce the final state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `recover` publishes `next_generation` past everything on disk, so a
/// post-recovery boot never overwrites evidence.
#[test]
fn next_generation_is_past_everything_seen() {
    let dir = tmpdir("nextgen");
    let db = base_db();
    let enc = EncodedDatabase::new(&db);
    let st = Store::create(&dir, FsyncPolicy::Off, u64::MAX, 4, &db, &enc).unwrap();
    drop(st);
    let recovery = durability::recover(&dir).unwrap();
    assert_eq!(recovery.next_generation, 5);
    std::fs::remove_dir_all(&dir).unwrap();
}
