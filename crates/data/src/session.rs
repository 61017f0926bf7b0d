//! Database-resident encoding: the session layer's data substrate.
//!
//! The paper's setting is a trusted curator answering a *stream* of
//! counting queries over one database. Before this layer existed, every
//! query run rebuilt a per-query [`Dict`] by rescanning and re-sorting
//! the referenced relations and re-encoded every atom from scratch.
//! [`EncodedDatabase`] does that work **once per database**:
//!
//! * one order-isomorphic [`Dict`] over the union of all attribute
//!   domains (every value of every relation), so any later query — over
//!   any subset of relations — encodes through the same codes and keeps
//!   the deterministic "smallest row" tie-breaks;
//! * one [`EncodedRelation`] per catalog relation, encoded **eagerly at
//!   construction** and grouped on the full schema — exactly the lifted
//!   form the ⊥/⊤ passes consume for atoms without selection predicates.
//!
//! # Mutability
//!
//! The encoding is **maintained under updates** rather than rebuilt:
//! [`EncodedDatabase::apply`] pushes single-tuple inserts/deletes and
//! bulk loads into the resident relations: in place, or into one copy
//! when a snapshot still shares the relation. Values the sorted
//! dictionary has never seen land in its overflow region
//! ([`Dict::encode_or_insert`]); **re-sort epochs**
//! ([`EncodedDatabase::normalize`], triggered automatically when the
//! overflow passes a threshold and by the engine session before queries
//! run) merge them back so encoded comparisons stay value-ordered.
//! Every relation carries a **version counter** and the dictionary an
//! **epoch counter**, which `tsens_engine::EngineSession` subscribes to
//! for selective cache invalidation.
//!
//! # Partial residency
//!
//! [`EncodedDatabase::for_relations`] encodes only a subset of the
//! catalog — what one-shot wrappers use so `tsens(db, cq, tree)` pays
//! for the relations `cq` references instead of the whole database.
//! Partial encodings are read-only snapshots: [`EncodedDatabase::apply`]
//! refuses them.

use crate::database::Database;
use crate::encoded::{Dict, EncodedRelation};
use crate::error::{DataError, TsensError};
use crate::par::Pool;
use crate::relation::Row;
use crate::update::{AppliedDelta, Update};
use crate::value::Value;
use std::sync::Arc;

/// Once the dictionary overflow grows past this many values, `apply`
/// runs a re-sort epoch on its own — bounding how stale code order can
/// get inside long update batches while still amortizing the epoch over
/// many single-tuple deltas. The same threshold bounds **delete churn**
/// (structurally removed rows): a sustained stream of deletes triggers a
/// compacting epoch even when it never adds a new value, so tombstoned
/// dictionary entries cannot accumulate forever.
const OVERFLOW_RESORT_THRESHOLD: usize = 4096;

/// A database plus its resident dictionary encoding, built once and
/// maintained in place under [`Update`]s.
///
/// The `Arc`s double as copy-on-write snapshots: callers (the engine
/// session's pass cache, multiplicity-table factors, a forked session)
/// clone the handles. [`EncodedDatabase::apply`] edits a relation in
/// place when nothing else holds it. When something does, the edited
/// relation is built in one exactly-sized copy (prefix, changed row,
/// suffix; [`EncodedRelation::insert_row_shared`]) and the holders keep
/// the old one. That copy is one O(|relation|) `memcpy` per touched
/// relation. The dictionary is forked only when a value is new, so a
/// cached pass state keeps decoding through the dictionary it was built
/// with.
#[derive(Clone, Debug)]
pub struct EncodedDatabase {
    dict: Arc<Dict>,
    /// Per-relation encoded rows, grouped on the full schema (distinct
    /// rows with counts, sorted in code order) — the trivial-predicate
    /// lift of each relation, shared by every query that touches it.
    lifted: Vec<Arc<EncodedRelation>>,
    /// Which relations are resident (encoded). Always all-true for
    /// [`EncodedDatabase::new`]; partial for
    /// [`EncodedDatabase::for_relations`].
    resident: Vec<bool>,
    /// Per-relation version counters, bumped by every update touching
    /// the relation.
    versions: Vec<u64>,
    /// Dictionary epoch, bumped by every re-sort.
    epoch: u64,
    /// Structural delete churn since the last epoch: rows removed
    /// outright (count hit zero). Each such removal may orphan values in
    /// the dictionary, so churn counts toward the epoch trigger exactly
    /// like overflow growth does — the epoch's compaction then drops
    /// values with zero remaining references.
    churn: usize,
}

impl EncodedDatabase {
    /// Encode every relation of `db` through one database-wide
    /// dictionary. Cost is one scan of the database plus a sort of its
    /// distinct values — the "preprocessing" a serving deployment pays
    /// once, not per query.
    pub fn new(db: &Database) -> Self {
        Self::build(db, vec![true; db.relation_count()], &Pool::sequential())
    }

    /// Like [`EncodedDatabase::new`], but encodes relations in parallel
    /// on `pool` — cold start scales with cores. The dictionary is still
    /// built sequentially (one sort over the union of domains); only the
    /// independent per-relation encode+group steps fan out. Results are
    /// identical to the sequential build for any pool size.
    pub fn new_with_pool(db: &Database, pool: &Pool) -> Self {
        Self::build(db, vec![true; db.relation_count()], pool)
    }

    /// Encode only the listed relations (by catalog index); the rest get
    /// empty non-resident placeholders. This is the one-shot wrappers'
    /// path: a single query pays for its own atoms, not the catalog.
    /// Partial encodings are read-only ([`EncodedDatabase::apply`]
    /// returns [`TsensError::ReadOnlySession`] on them).
    pub fn for_relations(db: &Database, relations: impl IntoIterator<Item = usize>) -> Self {
        let mut resident = vec![false; db.relation_count()];
        for r in relations {
            resident[r] = true;
        }
        Self::build(db, resident, &Pool::sequential())
    }

    fn build(db: &Database, resident: Vec<bool>, pool: &Pool) -> Self {
        let dict = Arc::new(Dict::from_relations(
            db.iter()
                .filter(|&(i, _, _)| resident[i])
                .map(|(_, _, r)| r),
        ));
        // Per-relation encode+group steps only read the (now frozen)
        // dictionary, so they fan out across the pool independently;
        // `Pool::run` returns them in catalog order.
        let encode_one = |i: usize| {
            let rel = db.relation(i);
            if !resident[i] {
                return Arc::new(EncodedRelation::new(rel.schema().clone()));
            }
            let mut raw = EncodedRelation::with_capacity(rel.schema().clone(), rel.len());
            for row in rel.rows() {
                raw.push_mapped(row.iter().map(|v| dict.code(v)), 1);
            }
            Arc::new(raw.group(rel.schema()))
        };
        let lifted = pool.run(db.relation_count(), encode_one);
        let versions = vec![0; resident.len()];
        EncodedDatabase {
            dict,
            lifted,
            resident,
            versions,
            epoch: 0,
            churn: 0,
        }
    }

    /// The database-wide order-isomorphic dictionary.
    #[inline]
    pub fn dict(&self) -> &Arc<Dict> {
        &self.dict
    }

    /// The lifted (grouped, counted) encoding of relation `idx`, in
    /// catalog order — the ready-to-join form of an atom with no
    /// selection predicate.
    ///
    /// # Errors
    /// [`TsensError::NotResident`] when `idx` is not resident in a
    /// partial encoding, [`TsensError::NoSuchRelation`] when it is
    /// outside the catalog — a bad request must never kill a serving
    /// worker.
    #[inline]
    pub fn lifted(&self, idx: usize) -> Result<&Arc<EncodedRelation>, TsensError> {
        match self.resident.get(idx) {
            Some(true) => Ok(&self.lifted[idx]),
            Some(false) => Err(TsensError::NotResident { relation: idx }),
            None => Err(TsensError::NoSuchRelation {
                relation: idx,
                count: self.lifted.len(),
            }),
        }
    }

    /// Number of encoded relations.
    #[inline]
    pub fn relation_count(&self) -> usize {
        self.lifted.len()
    }

    /// Whether relation `idx` is resident (encoded).
    #[inline]
    pub fn is_resident(&self, idx: usize) -> bool {
        self.resident[idx]
    }

    /// True when every relation is resident (the encoding is mutable).
    pub fn fully_resident(&self) -> bool {
        self.resident.iter().all(|&r| r)
    }

    /// The version counter of relation `idx` — bumped by every update
    /// touching it. Cache entries fingerprinted on a relation are valid
    /// exactly while its version is unchanged.
    #[inline]
    pub fn version(&self, idx: usize) -> u64 {
        self.versions[idx]
    }

    /// The dictionary epoch — bumped by every re-sort
    /// ([`EncodedDatabase::normalize`]). Encoded state from different
    /// epochs uses different code labels and must not be mixed.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the dictionary has pending overflow values, i.e. code
    /// order is not currently value order.
    #[inline]
    pub fn needs_normalize(&self) -> bool {
        !self.dict.is_order_isomorphic()
    }

    /// Rebuild a fully-resident encoding from parts loaded off disk —
    /// the snapshot-load constructor ([`crate::store`]). The caller
    /// guarantees `lifted[i]` was encoded with `dict` (the store's CRC
    /// sections protect the pair in transit); delete churn restarts at
    /// zero, which only delays the next compacting epoch.
    pub(crate) fn from_loaded_parts(
        dict: Dict,
        lifted: Vec<EncodedRelation>,
        versions: Vec<u64>,
        epoch: u64,
    ) -> Result<Self, DataError> {
        if versions.len() != lifted.len() {
            return Err(DataError::Malformed(format!(
                "{} versions for {} relations",
                versions.len(),
                lifted.len()
            )));
        }
        let resident = vec![true; lifted.len()];
        Ok(EncodedDatabase {
            dict: Arc::new(dict),
            lifted: lifted.into_iter().map(Arc::new).collect(),
            resident,
            versions,
            epoch,
            churn: 0,
        })
    }

    /// Whether relation `rel` currently contains at least one copy of
    /// `row`.
    ///
    /// # Errors
    /// [`TsensError::NotResident`] / [`TsensError::NoSuchRelation`] for a
    /// bad relation, [`TsensError::Data`] for an arity mismatch.
    pub fn contains(&self, rel: usize, row: &[Value]) -> Result<bool, TsensError> {
        let lifted = self.lifted(rel)?;
        if row.len() != lifted.arity() {
            return Err(DataError::ArityMismatch {
                expected: lifted.arity(),
                actual: row.len(),
            }
            .into());
        }
        let codes: Option<Vec<u32>> = row.iter().map(|v| self.dict.encode(v)).collect();
        Ok(codes.is_some_and(|codes| lifted.find_row(&codes).is_ok()))
    }

    /// Apply one delta to the resident encoding in place, bumping the
    /// touched relation's version. Returns `Ok(false)` only for a
    /// [`Update::Delete`] of a row the relation does not contain (a
    /// no-op: nothing is bumped).
    ///
    /// New values grow the dictionary's overflow region; when it (or the
    /// structural delete churn) passes a threshold a re-sort epoch runs
    /// automatically. Callers that need order-isomorphic codes *now*
    /// (anything about to serve a query) should follow up with
    /// [`EncodedDatabase::normalize`].
    ///
    /// # Errors
    /// [`TsensError::ReadOnlySession`] on a partial encoding,
    /// [`TsensError::NoSuchRelation`] on an out-of-range relation, and
    /// [`TsensError::Data`] on a row arity mismatch — all checked before
    /// anything is mutated.
    pub fn apply(&mut self, update: &Update) -> Result<bool, TsensError> {
        Ok(self.apply_traced(update)?.is_some())
    }

    /// [`EncodedDatabase::apply`], but returning a code-space
    /// [`AppliedDelta`] describing what changed (`None` for the
    /// delete-of-absent no-op). The engine session uses the descriptor
    /// to repair cached pass states in O(delta); callers that only need
    /// the boolean should stick with [`EncodedDatabase::apply`].
    ///
    /// # Errors
    /// Same as [`EncodedDatabase::apply`].
    pub fn apply_traced(&mut self, update: &Update) -> Result<Option<AppliedDelta>, TsensError> {
        if !self.fully_resident() {
            return Err(TsensError::ReadOnlySession);
        }
        let rel = update.relation();
        if rel >= self.lifted.len() {
            return Err(TsensError::NoSuchRelation {
                relation: rel,
                count: self.lifted.len(),
            });
        }
        let arity = self.lifted[rel].arity();
        let check_arity = |row: &Row| -> Result<(), TsensError> {
            if row.len() == arity {
                Ok(())
            } else {
                Err(DataError::ArityMismatch {
                    expected: arity,
                    actual: row.len(),
                }
                .into())
            }
        };
        let mut delta = AppliedDelta {
            relation: rel,
            rows: Vec::new(),
            overflow: false,
            epoch: false,
            bulk: false,
        };
        let epoch_before = self.epoch;
        let applied = match update {
            Update::Insert { row, .. } => {
                check_arity(row)?;
                // Resolve codes immutably first: in the common case every
                // value is already in the dictionary, and forking a
                // pinned `Arc<Dict>` (`make_mut` deep-clones it whenever
                // a cached pass state holds a reference) would turn a
                // µs-scale insert into an O(dictionary) copy.
                let known: Option<Vec<u32>> = row.iter().map(|v| self.dict.encode(v)).collect();
                let codes = match known {
                    Some(codes) => codes,
                    None => {
                        delta.overflow = true;
                        let dict = Arc::make_mut(&mut self.dict);
                        row.iter().map(|v| dict.encode_or_insert(v)).collect()
                    }
                };
                let r = &mut self.lifted[rel];
                match r.find_row(&codes) {
                    Ok(i) => Arc::make_mut(r).increment_count(i, 1),
                    Err(i) => EncodedRelation::insert_row_shared(r, i, &codes, 1),
                }
                delta.rows.push((codes, 1));
                true
            }
            Update::Delete { row, .. } => {
                check_arity(row)?;
                let codes: Option<Vec<u32>> = row.iter().map(|v| self.dict.encode(v)).collect();
                let found = codes
                    .and_then(|codes| self.lifted[rel].find_row(&codes).ok().map(|i| (codes, i)));
                match found {
                    None => false,
                    Some((codes, i)) => {
                        let r = &mut self.lifted[rel];
                        if r.count(i) <= 1 {
                            EncodedRelation::remove_row_shared(r, i);
                            // Structural removal: the row's values may now
                            // be orphaned in the dictionary.
                            self.churn += 1;
                        } else {
                            Arc::make_mut(r).decrement_count(i, 1);
                        }
                        delta.rows.push((codes, -1));
                        true
                    }
                }
            }
            Update::BulkLoad { rows, .. } => {
                delta.bulk = true;
                for row in rows {
                    check_arity(row)?;
                }
                if rows.is_empty() {
                    return Ok(Some(delta));
                }
                // Unlike single inserts, a bulk load forks a pinned dict
                // up front: the possible clone is amortized across the
                // whole batch, and probing every value immutably first
                // would double the encode work whenever values are new.
                let dict = Arc::make_mut(&mut self.dict);
                let r = Arc::make_mut(&mut self.lifted[rel]);
                let schema = r.schema().clone();
                r.reserve(rows.len());
                for row in rows {
                    r.push_mapped(row.iter().map(|v| dict.encode_or_insert(v)), 1);
                }
                // Appending broke the grouped invariant; re-group once
                // for the whole batch.
                *r = r.group(&schema);
                true
            }
        };
        if applied {
            self.versions[rel] += 1;
            if self.dict.overflow_len() >= OVERFLOW_RESORT_THRESHOLD
                || self.churn >= OVERFLOW_RESORT_THRESHOLD
            {
                self.normalize();
            }
        }
        delta.epoch = self.epoch != epoch_before;
        Ok(applied.then_some(delta))
    }

    /// Run a re-sort epoch if the dictionary has pending overflow *or*
    /// the structural delete churn passed the threshold: rebuild the
    /// sorted dictionary **compacting away values no resident relation
    /// references anymore**, remap every resident relation's codes (a
    /// monotone relabeling — only relations that actually held overflow
    /// codes are re-sorted), and bump the epoch counter. Returns whether
    /// an epoch ran.
    ///
    /// A churn-triggered call that finds every value still referenced
    /// skips the epoch entirely (nothing to collect, and an epoch is not
    /// free: the engine session clears its lifted-atom cache on every
    /// one).
    pub fn normalize(&mut self) -> bool {
        let churn_due = self.churn >= OVERFLOW_RESORT_THRESHOLD;
        if self.dict.is_order_isomorphic() && !churn_due {
            return false;
        }
        self.churn = 0;
        // Liveness scan: one pass over the resident codes, the same
        // order of work as the remap below.
        let mut live = vec![false; self.dict.len()];
        for (i, rel) in self.lifted.iter().enumerate() {
            if !self.resident[i] {
                continue;
            }
            for (row, _) in rel.iter() {
                for &c in row {
                    live[c as usize] = true;
                }
            }
        }
        if self.dict.is_order_isomorphic() && live.iter().all(|&l| l) {
            return false;
        }
        let old_base = self.dict.base_len() as u32;
        let (sorted, remap) = self.dict.resorted_retaining(|c| live[c as usize]);
        for rel in &mut self.lifted {
            let r = Arc::make_mut(rel);
            if r.remap_codes(&remap, old_base) {
                r.sort();
            }
        }
        self.dict = Arc::new(sorted);
        self.epoch += 1;
        true
    }

    /// [`EncodedDatabase::apply`] for a whole batch, with one
    /// [`EncodedDatabase::normalize`] at the end instead of per delta.
    /// Returns how many deltas applied (deletes of absent rows don't).
    ///
    /// # Errors
    /// Stops at the first failing delta (see [`EncodedDatabase::apply`]);
    /// earlier deltas stay applied, and the applied prefix is
    /// normalized before the error returns so the encoding is always
    /// left order-isomorphic.
    pub fn apply_all<'u>(
        &mut self,
        updates: impl IntoIterator<Item = &'u Update>,
    ) -> Result<usize, TsensError> {
        let mut applied = 0;
        let mut failed = None;
        for u in updates {
            match self.apply(u) {
                Ok(true) => applied += 1,
                Ok(false) => {}
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.normalize();
        match failed {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Insert one copy of `row` into relation `rel`.
    ///
    /// # Errors
    /// See [`EncodedDatabase::apply`].
    pub fn insert(&mut self, rel: usize, row: Row) -> Result<(), TsensError> {
        self.apply(&Update::Insert { relation: rel, row })?;
        self.normalize();
        Ok(())
    }

    /// Remove one copy of `row` from relation `rel`, returning whether a
    /// copy existed.
    ///
    /// # Errors
    /// See [`EncodedDatabase::apply`].
    pub fn delete(&mut self, rel: usize, row: Row) -> Result<bool, TsensError> {
        self.apply(&Update::Delete { relation: rel, row })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::CountedRelation;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a, b]),
                vec![
                    vec![Value::Int(1), Value::str("x")],
                    vec![Value::Int(1), Value::str("x")],
                    vec![Value::Int(2), Value::str("y")],
                ],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(
                Schema::new(vec![b]),
                vec![vec![Value::str("x")], vec![Value::str("z")]],
            ),
        )
        .unwrap();
        db
    }

    /// The maintained lift must stay equal to a from-scratch lift of the
    /// mutated `Value` database.
    fn assert_matches_rebuild(enc: &EncodedDatabase, db: &Database) {
        let fresh = EncodedDatabase::new(db);
        for (i, _, rel) in db.iter() {
            assert_eq!(
                enc.lifted(i).unwrap().decode(enc.dict()),
                CountedRelation::from_relation(rel),
                "relation {i} lift mismatch"
            );
            assert_eq!(
                enc.lifted(i).unwrap().decode(enc.dict()),
                fresh.lifted(i).unwrap().decode(fresh.dict()),
                "relation {i} differs from rebuild"
            );
        }
    }

    #[test]
    fn lifted_relations_match_counted_lift() {
        let db = sample_db();
        let enc = EncodedDatabase::new(&db);
        assert_eq!(enc.relation_count(), 2);
        for (i, _, rel) in db.iter() {
            let expected = CountedRelation::from_relation(rel);
            assert_eq!(
                enc.lifted(i).unwrap().decode(enc.dict()),
                expected,
                "relation {i} lift mismatch"
            );
        }
    }

    #[test]
    fn dictionary_covers_every_relation() {
        let db = sample_db();
        let enc = EncodedDatabase::new(&db);
        for (_, _, rel) in db.iter() {
            for row in rel.rows() {
                for v in row {
                    assert!(enc.dict().encode(v).is_some(), "missing {v:?}");
                }
            }
        }
        // Distinct values across both relations: 1, 2, "x", "y", "z".
        assert_eq!(enc.dict().len(), 5);
    }

    #[test]
    fn lift_groups_duplicates() {
        let db = sample_db();
        let enc = EncodedDatabase::new(&db);
        // R has 3 rows, 2 distinct; counts must sum back to 3.
        assert_eq!(enc.lifted(0).unwrap().len(), 2);
        assert_eq!(enc.lifted(0).unwrap().total_count(), 3);
    }

    #[test]
    fn insert_of_known_values_needs_no_epoch() {
        let mut db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let row = vec![Value::Int(2), Value::str("x")]; // both values known
        enc.insert(0, row.clone()).unwrap();
        db.insert_row(0, row);
        assert_eq!(enc.epoch(), 0, "no new values → no re-sort epoch");
        assert_eq!(enc.version(0), 1);
        assert_eq!(enc.version(1), 0);
        assert_matches_rebuild(&enc, &db);
    }

    #[test]
    fn insert_of_duplicate_row_bumps_count() {
        let mut db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let row = vec![Value::Int(1), Value::str("x")];
        enc.insert(0, row.clone()).unwrap();
        db.insert_row(0, row);
        assert_eq!(enc.lifted(0).unwrap().len(), 2, "still two distinct rows");
        assert_eq!(enc.lifted(0).unwrap().total_count(), 4);
        assert_matches_rebuild(&enc, &db);
    }

    #[test]
    fn insert_of_new_value_resorts_on_normalize() {
        let mut db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        // Int(0) sorts before every existing value: the epoch must shift
        // every code and keep all relations value-ordered.
        let row = vec![Value::Int(0), Value::str("w")];
        enc.insert(0, row.clone()).unwrap();
        db.insert_row(0, row);
        assert_eq!(enc.epoch(), 1, "insert() normalizes eagerly");
        assert!(enc.dict().is_order_isomorphic());
        assert_matches_rebuild(&enc, &db);
    }

    #[test]
    fn delete_decrements_then_removes() {
        let mut db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let dup = vec![Value::Int(1), Value::str("x")];
        assert!(enc.delete(0, dup.clone()).unwrap());
        db.remove_row(0, &dup);
        assert_eq!(enc.lifted(0).unwrap().len(), 2, "count 2 → 1, row stays");
        assert_matches_rebuild(&enc, &db);
        assert!(enc.delete(0, dup.clone()).unwrap());
        db.remove_row(0, &dup);
        assert_eq!(enc.lifted(0).unwrap().len(), 1, "count 1 → 0, row removed");
        assert_matches_rebuild(&enc, &db);
        // Deleting an absent row is a detected no-op.
        assert!(!enc.delete(0, dup.clone()).unwrap());
        assert!(!enc
            .delete(0, vec![Value::Int(99), Value::str("q")])
            .unwrap());
        assert_eq!(enc.version(0), 2, "no-op deletes don't bump versions");
    }

    #[test]
    fn bulk_load_appends_and_regroups() {
        let mut db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let rows = vec![
            vec![Value::Int(1), Value::str("x")], // duplicate of existing
            vec![Value::Int(7), Value::str("x")], // new int value
            vec![Value::Int(7), Value::str("x")], // duplicate within batch
        ];
        enc.apply_all(&[Update::bulk_load(0, rows.clone())])
            .unwrap();
        for r in rows {
            db.insert_row(0, r);
        }
        assert!(enc.dict().is_order_isomorphic());
        assert_matches_rebuild(&enc, &db);
        assert_eq!(enc.lifted(0).unwrap().total_count(), 6);
    }

    #[test]
    fn interleaved_updates_match_rebuild_after_epochs() {
        let mut db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let updates = vec![
            Update::insert(0, vec![Value::Int(-5), Value::str("x")]),
            Update::insert(1, vec![Value::str("a")]),
            Update::delete(0, vec![Value::Int(2), Value::str("y")]),
            Update::insert(0, vec![Value::Int(3), Value::str("m")]),
            Update::delete(1, vec![Value::str("z")]),
        ];
        enc.apply_all(&updates).unwrap();
        for u in &updates {
            match u {
                Update::Insert { relation, row } => db.insert_row(*relation, row.clone()),
                Update::Delete { relation, row } => {
                    db.remove_row(*relation, row);
                }
                Update::BulkLoad { relation, rows } => {
                    for r in rows {
                        db.insert_row(*relation, r.clone());
                    }
                }
            }
        }
        assert!(enc.epoch() >= 1);
        assert!(enc.version(0) >= 3);
        assert!(enc.version(1) >= 2);
        assert_matches_rebuild(&enc, &db);
    }

    #[test]
    fn snapshots_pinned_by_arc_survive_updates() {
        let db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let old_dict = Arc::clone(enc.dict());
        let old_lift = Arc::clone(enc.lifted(0).unwrap());
        let before = old_lift.decode(&old_dict);
        // An epoch-forcing update must not disturb the pinned snapshot.
        enc.insert(0, vec![Value::Int(-1), Value::str("k")])
            .unwrap();
        assert_eq!(old_lift.decode(&old_dict), before);
        assert_ne!(enc.lifted(0).unwrap().len(), old_lift.len());
    }

    #[test]
    fn partial_encoding_covers_only_requested_relations() {
        let db = sample_db();
        let enc = EncodedDatabase::for_relations(&db, [1]);
        assert!(!enc.is_resident(0));
        assert!(enc.is_resident(1));
        assert!(!enc.fully_resident());
        // Dict holds S's values only.
        assert_eq!(enc.dict().len(), 2);
        assert_eq!(
            enc.lifted(1).unwrap().decode(enc.dict()),
            CountedRelation::from_relation(db.relation(1))
        );
    }

    #[test]
    fn partial_encoding_rejects_unresident_access() {
        let db = sample_db();
        let enc = EncodedDatabase::for_relations(&db, [1]);
        assert_eq!(
            enc.lifted(0).err(),
            Some(TsensError::NotResident { relation: 0 }),
            "unresident access must be a typed error, not a panic"
        );
        assert_eq!(
            enc.lifted(99).err(),
            Some(TsensError::NoSuchRelation {
                relation: 99,
                count: 2
            })
        );
    }

    #[test]
    fn partial_encoding_rejects_updates() {
        let db = sample_db();
        let mut enc = EncodedDatabase::for_relations(&db, [1]);
        assert_eq!(
            enc.insert(1, vec![Value::str("x")]).err(),
            Some(TsensError::ReadOnlySession),
            "read-only mutation must be a typed error, not a panic"
        );
    }

    #[test]
    fn malformed_updates_are_typed_errors() {
        let db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        // Out-of-range relation.
        assert_eq!(
            enc.insert(7, vec![Value::Int(1)]).err(),
            Some(TsensError::NoSuchRelation {
                relation: 7,
                count: 2
            })
        );
        // Arity mismatches across all delta kinds, checked pre-mutation.
        let bad = |e: Option<TsensError>| {
            assert!(
                matches!(e, Some(TsensError::Data(DataError::ArityMismatch { .. }))),
                "expected arity error, got {e:?}"
            );
        };
        bad(enc.insert(0, vec![Value::Int(1)]).err());
        bad(enc.delete(0, vec![Value::Int(1)]).err());
        bad(enc
            .apply(&Update::bulk_load(0, vec![vec![Value::Int(1)]]))
            .err());
        bad(enc.contains(0, &[Value::Int(1)]).err());
        // Nothing was applied or bumped.
        assert_eq!(enc.version(0), 0);
        assert_matches_rebuild(&enc, &db);
    }

    /// Satellite regression: sustained insert/delete churn with fresh
    /// values must keep the dictionary bounded — every epoch compacts
    /// away the values the deletes orphaned instead of folding them into
    /// the base forever.
    #[test]
    fn insert_delete_churn_keeps_dict_bounded() {
        let db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        let base = enc.dict().len();
        // Each round inserts a row with a never-seen value and deletes it
        // again: the value is dead the moment the delete lands.
        for i in 0..3 * OVERFLOW_RESORT_THRESHOLD as i64 {
            let row = vec![Value::Int(1_000_000 + i), Value::str("x")];
            assert!(enc.apply(&Update::insert(0, row.clone())).unwrap());
            assert!(enc.apply(&Update::delete(0, row)).unwrap());
        }
        assert!(enc.epoch() >= 2, "threshold epochs must have fired");
        // Without compaction the dictionary would hold base + 3×threshold
        // values; with it, at most one un-normalized window of overflow.
        assert!(
            enc.dict().len() <= base + OVERFLOW_RESORT_THRESHOLD,
            "dict grew unbounded: {} values (base {base})",
            enc.dict().len()
        );
        enc.normalize();
        assert_eq!(enc.dict().len(), base, "all churned values collected");
        assert_matches_rebuild(&enc, &sample_db());
    }

    /// A pure delete stream (no new values, so no overflow) must still
    /// trigger a compacting epoch once churn passes the threshold.
    #[test]
    fn delete_only_churn_compacts_tombstones() {
        let mut db = Database::new();
        let [a] = db.attrs(["A"]);
        let n = OVERFLOW_RESORT_THRESHOLD as i64 + 64;
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a]),
                (0..n).map(|i| vec![Value::Int(i)]).collect(),
            ),
        )
        .unwrap();
        let mut enc = EncodedDatabase::new(&db);
        assert_eq!(enc.dict().len(), n as usize);
        for i in 0..OVERFLOW_RESORT_THRESHOLD as i64 {
            assert!(enc.delete(0, vec![Value::Int(i)]).unwrap());
        }
        assert!(enc.epoch() >= 1, "delete churn must trigger an epoch");
        assert_eq!(
            enc.dict().len(),
            64,
            "tombstoned values must be compacted away"
        );
        // The surviving encoding still matches a rebuild.
        for i in 0..OVERFLOW_RESORT_THRESHOLD as i64 {
            db.remove_row(0, &[Value::Int(i)]);
        }
        assert_matches_rebuild(&enc, &db);
    }

    /// Churn-triggered normalize calls with nothing dead must not burn
    /// an epoch (epochs clear the engine's lifted-atom cache).
    #[test]
    fn churn_epoch_skipped_when_everything_is_live() {
        let db = sample_db();
        let mut enc = EncodedDatabase::new(&db);
        // Deleting one copy of a duplicated row only decrements its
        // count — no structural churn, nothing orphaned.
        assert!(enc.delete(0, vec![Value::Int(1), Value::str("x")]).unwrap());
        assert!(!enc.normalize(), "below threshold: no epoch");
        assert_eq!(enc.epoch(), 0);
    }
}
