//! Hash partitioning of a database across N engine shards.
//!
//! The data plane's scale-out primitive (TAO-style, see SNIPPETS.md):
//! every relation has one **shard-key column** ([`ShardSpec`]: column
//! 0), every row is routed to shard
//! `hash(row[shard_col]) % n`, and the same hash routes update deltas —
//! so a row and every delta touching it always land on the same shard.
//!
//! The hash is a fixed FNV-1a over a canonical byte rendering of the
//! key [`Value`] (type tag + little-endian `i64`, or the UTF-8 bytes).
//! It is deliberately **not** `std::hash::Hash`: routing must be stable
//! across processes, runs and platforms, because "processes later" means
//! a router and its shards may not share an address space — and a
//! durable update stream replayed after a restart must route every
//! delta exactly as the original run did.
//!
//! What sharding this way buys (and costs) is decided above this layer:
//! a query whose every atom joins on its relation's shard key is
//! answerable per shard (counts sum, sensitivities max — see
//! `tsens_engine::shard`); anything else must be served from a single
//! shard.

use crate::database::Database;
use crate::error::TsensError;
use crate::relation::{Relation, Row};
use crate::update::Update;
use crate::value::Value;

/// Hard ceiling on the shard count — far above any sensible thread (or
/// later, process) fan-out; a guard against `--shards 1000000` typos
/// allocating a million sessions.
pub const MAX_SHARDS: usize = 256;

/// Which column of each relation is its shard key, by catalog index.
///
/// [`ShardSpec::first_column`] keys every relation on column 0 — the
/// TAO convention where associations `(id1, …)` are partitioned by
/// their owning object `id1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// `cols[rel]` = shard-key column of catalog relation `rel`.
    cols: Vec<usize>,
}

impl ShardSpec {
    /// Key every relation of `db` on its first column.
    pub fn first_column(db: &Database) -> ShardSpec {
        ShardSpec {
            cols: vec![0; db.relation_count()],
        }
    }

    /// Shard-key column of catalog relation `rel`.
    #[inline]
    pub fn column(&self, rel: usize) -> usize {
        self.cols[rel]
    }

    /// Number of relations the spec covers.
    pub fn relation_count(&self) -> usize {
        self.cols.len()
    }

    /// The shard owning `row` of relation `rel`, out of `n`.
    #[inline]
    pub fn shard_of_row(&self, rel: usize, row: &[Value], n: usize) -> usize {
        debug_assert!(n > 0);
        (shard_hash(&row[self.cols[rel]]) % n as u64) as usize
    }
}

/// Stable 64-bit FNV-1a over the canonical bytes of `v` (see module
/// docs for why this is not `std::hash::Hash`).
pub fn shard_hash(v: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    match v {
        Value::Int(i) => {
            eat(0x01);
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        Value::Str(s) => {
            eat(0x02);
            for &b in s.as_bytes() {
                eat(b);
            }
        }
    }
    h
}

/// Validate a shard count: at least 1, at most [`MAX_SHARDS`].
///
/// # Errors
/// [`TsensError::Data`] with a message naming the bound that was
/// violated (callers prepend the flag/env name).
pub fn validate_shard_count(n: usize) -> Result<usize, TsensError> {
    if n == 0 {
        return Err(TsensError::Data(crate::error::DataError::Malformed(
            "shard count must be at least 1 (got 0)".into(),
        )));
    }
    if n > MAX_SHARDS {
        return Err(TsensError::Data(crate::error::DataError::Malformed(
            format!("shard count {n} exceeds the maximum of {MAX_SHARDS}"),
        )));
    }
    Ok(n)
}

/// Split `db` into `n` shard databases with identical catalogs (same
/// attribute registry, same relation names/order/schemas); each row goes
/// to exactly one shard by [`ShardSpec::shard_of_row`]. With `n == 1`
/// the single output is `db` itself, rows untouched and in order.
///
/// # Errors
/// Propagates [`validate_shard_count`]; `spec` must cover the catalog.
pub fn partition_database(
    db: &Database,
    spec: &ShardSpec,
    n: usize,
) -> Result<Vec<Database>, TsensError> {
    validate_shard_count(n)?;
    if spec.relation_count() != db.relation_count() {
        return Err(TsensError::NoSuchRelation {
            relation: spec.relation_count(),
            count: db.relation_count(),
        });
    }
    if n == 1 {
        return Ok(vec![db.clone()]);
    }
    // Identical empty catalogs first (attr ids must line up across
    // shards and with the source db, so queries built against any of
    // them are interchangeable).
    let mut shards: Vec<Database> = (0..n)
        .map(|_| {
            let mut d = Database::new();
            for (_, name) in db.registry().iter() {
                d.attr(name);
            }
            d
        })
        .collect();
    for (rel, name, relation) in db.iter() {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, row) in relation.rows().iter().enumerate() {
            members[spec.shard_of_row(rel, row, n)].push(i);
        }
        // Copy one shard's rows at a time, so each shard's copies are
        // allocated back to back: its full scans (elastic's `mf`) then
        // walk memory in order instead of skipping the other shards'
        // rows.
        for (shard, members) in shards.iter_mut().zip(members) {
            let rows: Vec<Row> = members
                .iter()
                .map(|&i| relation.rows()[i].clone())
                .collect();
            shard
                .add_relation(name, Relation::from_rows(relation.schema().clone(), rows))
                .expect("shard catalogs mirror the source catalog");
        }
    }
    Ok(shards)
}

/// Route a batch of updates to their owning shards: `out[s]` holds the
/// sub-batch for shard `s`, in the original order. Bulk loads are split
/// row by row; empty sub-batches stay empty (that shard publishes
/// nothing).
pub fn route_updates(spec: &ShardSpec, n: usize, updates: Vec<Update>) -> Vec<Vec<Update>> {
    route_updates_indexed(spec, n, updates)
        .into_iter()
        .map(|batch| batch.into_iter().map(|(_, u)| u).collect())
        .collect()
}

/// [`route_updates`], tagging every routed update with its position in
/// `updates` (each piece of a split bulk load keeps the load's
/// position), so a shard that rejects its sub-batch can name the input
/// op.
pub fn route_updates_indexed(
    spec: &ShardSpec,
    n: usize,
    updates: Vec<Update>,
) -> Vec<Vec<(usize, Update)>> {
    let mut out: Vec<Vec<(usize, Update)>> = vec![Vec::new(); n];
    for (i, u) in updates.into_iter().enumerate() {
        match u {
            Update::BulkLoad { relation, rows } => {
                let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n];
                for row in rows {
                    let s = spec.shard_of_row(relation, &row, n);
                    buckets[s].push(row);
                }
                for (s, rows) in buckets.into_iter().enumerate() {
                    if !rows.is_empty() {
                        out[s].push((i, Update::BulkLoad { relation, rows }));
                    }
                }
            }
            Update::Insert { relation, ref row } | Update::Delete { relation, ref row } => {
                let s = spec.shard_of_row(relation, row, n);
                out[s].push((i, u));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn db2() -> Database {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let rows = |n: i64| -> Vec<Row> {
            (0..n)
                .map(|i| vec![Value::Int(i % 7), Value::Int(i)])
                .collect()
        };
        db.add_relation("R", Relation::from_rows(Schema::new(vec![a, b]), rows(40)))
            .unwrap();
        db.add_relation("S", Relation::from_rows(Schema::new(vec![b, c]), rows(25)))
            .unwrap();
        db
    }

    #[test]
    fn hash_is_stable_and_type_tagged() {
        // Pinned values: routing must never change across builds.
        assert_eq!(shard_hash(&Value::Int(0)), shard_hash(&Value::Int(0)));
        assert_ne!(shard_hash(&Value::Int(1)), shard_hash(&Value::Int(2)));
        // Int(49) and Str("1") must not collide by construction.
        assert_ne!(shard_hash(&Value::Int(49)), shard_hash(&Value::str("1")));
    }

    #[test]
    fn partition_preserves_multiset_and_catalog() {
        let db = db2();
        let spec = ShardSpec::first_column(&db);
        let shards = partition_database(&db, &spec, 4).unwrap();
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.relation_count(), db.relation_count());
            assert_eq!(s.registry().len(), db.registry().len());
            assert_eq!(s.relation_name(0), "R");
        }
        for rel in 0..db.relation_count() {
            let mut gathered: Vec<Row> = shards
                .iter()
                .flat_map(|s| s.relation(rel).rows().iter().cloned())
                .collect();
            let mut original: Vec<Row> = db.relation(rel).rows().to_vec();
            gathered.sort();
            original.sort();
            assert_eq!(gathered, original, "relation {rel} multiset changed");
        }
    }

    #[test]
    fn rows_land_where_the_router_says() {
        let db = db2();
        let spec = ShardSpec::first_column(&db);
        let shards = partition_database(&db, &spec, 3).unwrap();
        for (s, shard) in shards.iter().enumerate() {
            for rel in 0..shard.relation_count() {
                for row in shard.relation(rel).rows() {
                    assert_eq!(spec.shard_of_row(rel, row, 3), s);
                }
            }
        }
    }

    #[test]
    fn single_shard_is_the_identity() {
        let db = db2();
        let spec = ShardSpec::first_column(&db);
        let shards = partition_database(&db, &spec, 1).unwrap();
        assert_eq!(shards[0].relation(0).rows(), db.relation(0).rows());
    }

    #[test]
    fn shard_count_validation() {
        assert!(validate_shard_count(0).is_err());
        assert!(validate_shard_count(1).is_ok());
        assert!(validate_shard_count(MAX_SHARDS).is_ok());
        assert!(validate_shard_count(MAX_SHARDS + 1).is_err());
    }

    #[test]
    fn updates_route_like_rows() {
        let db = db2();
        let spec = ShardSpec::first_column(&db);
        let n = 4;
        let ups = vec![
            Update::insert(0, vec![Value::Int(3), Value::Int(9)]),
            Update::delete(1, vec![Value::Int(5), Value::Int(1)]),
            Update::bulk_load(
                0,
                (0..10)
                    .map(|i| vec![Value::Int(i), Value::Int(i)])
                    .collect(),
            ),
        ];
        let routed = route_updates_indexed(&spec, n, ups);
        assert_eq!(routed.len(), n);
        let mut seen = 0usize;
        for (s, batch) in routed.iter().enumerate() {
            for (pos, u) in batch {
                match u {
                    Update::Insert { relation, row } | Update::Delete { relation, row } => {
                        assert_eq!(spec.shard_of_row(*relation, row, n), s);
                        assert_eq!(*pos, *relation, "op i touches relation i here");
                        seen += 1;
                    }
                    Update::BulkLoad { relation, rows } => {
                        assert_eq!(*pos, 2, "every piece keeps the load's position");
                        for row in rows {
                            assert_eq!(spec.shard_of_row(*relation, row, n), s);
                            seen += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(seen, 1 + 1 + 10);
    }
}
