//! [`ShardedEngine`]: a router over N hash-partitioned engine shards.
//!
//! Each shard is a full, independent serving stack — its own
//! [`EngineSession`] (encoding, dictionary, all four caches) behind its
//! own [`SnapshotCell`] — holding exactly the rows
//! `tsens_data::shard` routes to it. Shards share nothing: today they
//! are sessions in one process; the stable routing hash is what lets
//! them become processes later without re-partitioning.
//!
//! ## When scatter-gather is sound
//!
//! Answers are gathered per shard and aggregated. That is only correct
//! when no joined output tuple spans shards, which the router enforces
//! as the **co-partition rule** ([`check_co_partitioned`]): a query is
//! scatter-gatherable iff it has a single atom, or every atom joins on
//! its relation's shard-key column *via the same attribute*. Then any
//! output tuple's atoms all carry the same shard-key value, so the whole
//! tuple lives on the shard that value hashes to, and:
//!
//! * **counts sum** — the shards partition the output bag exactly;
//! * **sensitivities max** (see `tsens_core::sharded`) — deleting a
//!   tuple of shard `s` only ever changes output tuples of shard `s`,
//!   so the global worst-case tuple is some shard's worst-case tuple.
//!
//! Multi-atom queries that violate the rule get a typed
//! [`TsensError::CrossShardJoin`] at any shard count above 1;
//! partitioned cross-shard join sensitivity is an explicit non-goal —
//! serve such queries from a single-shard deployment.
//!
//! With one shard every path delegates to the plain session — the
//! sharded engine at N=1 *is* the single-session engine, co-partitioned
//! or not.

use crate::pool::Pool;
use crate::session::EngineSession;
use crate::snapshot::SnapshotCell;
use std::sync::Arc;
use tsens_data::shard::{partition_database, route_updates, validate_shard_count, ShardSpec};
use tsens_data::{sat_add, Count, Database, TsensError, Update};
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// What one routed update batch did, shard by shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedDelta {
    /// Updates applied across all shards (no-op deletes excluded).
    pub applied: usize,
    /// Updates applied per shard, indexed by shard id.
    pub per_shard: Vec<usize>,
    /// Shards that published a new snapshot (shards whose routed
    /// sub-batch was empty do not publish).
    pub published: usize,
    /// Snapshot version per shard: the version this batch published on
    /// the shards it touched, the version current at the end of the
    /// batch on the rest.
    pub versions: Vec<u64>,
}

/// Hash-partitioned engine shards behind one router — see module docs.
pub struct ShardedEngine {
    spec: ShardSpec,
    cells: Vec<Arc<SnapshotCell>>,
    pool: Pool,
}

impl ShardedEngine {
    /// Partition `db` on each relation's first column across `shards`
    /// sessions (the TAO convention; see [`ShardSpec::first_column`]).
    ///
    /// # Errors
    /// [`validate_shard_count`] failures.
    pub fn new(db: Database, shards: usize) -> Result<ShardedEngine, TsensError> {
        let spec = ShardSpec::first_column(&db);
        Self::with_spec(db, spec, shards, Pool::default())
    }

    /// Full-control constructor: explicit shard-key columns and the
    /// pool the scatter fans out on. With `shards == 1` the database is
    /// not partitioned and the single session runs on `pool` itself —
    /// byte-for-byte the unsharded engine. With more shards each shard
    /// session is sequential (the shards *are* the parallelism) and
    /// `pool` drives the scatter.
    ///
    /// # Errors
    /// [`validate_shard_count`] failures, or a spec that does not fit
    /// the catalog.
    pub fn with_spec(
        db: Database,
        spec: ShardSpec,
        shards: usize,
        pool: Pool,
    ) -> Result<ShardedEngine, TsensError> {
        validate_shard_count(shards)?;
        let spec = ShardSpec::new(&db, spec.columns().to_vec())?;
        let cells = if shards == 1 {
            vec![Arc::new(SnapshotCell::new(EngineSession::owned_with_pool(
                db, pool,
            )))]
        } else {
            partition_database(&db, &spec, shards)?
                .into_iter()
                .map(|part| {
                    Arc::new(SnapshotCell::new(EngineSession::owned_with_pool(
                        part,
                        Pool::sequential(),
                    )))
                })
                .collect()
        };
        Ok(ShardedEngine { spec, cells, pool })
    }

    /// Wrap an already-built single-shard cell (the durability boot
    /// path, where the session was restored from snapshot + WAL).
    pub fn from_cell(cell: SnapshotCell) -> ShardedEngine {
        let spec = ShardSpec::first_column(cell.load().database());
        ShardedEngine {
            spec,
            cells: vec![Arc::new(cell)],
            pool: Pool::default(),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The routing spec.
    #[inline]
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The scatter pool.
    #[inline]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// All shard cells, indexed by shard id.
    pub fn cells(&self) -> &[Arc<SnapshotCell>] {
        &self.cells
    }

    /// Shard 0's cell — with one shard, the *only* cell, i.e. exactly
    /// the unsharded serving path.
    pub fn primary(&self) -> &Arc<SnapshotCell> {
        &self.cells[0]
    }

    /// Pin every shard's current snapshot — one consistent-per-shard
    /// read set for a scatter-gather answer.
    pub fn pin(&self) -> Vec<Arc<EngineSession<'static>>> {
        self.cells.iter().map(|c| c.load()).collect()
    }

    /// Per-shard snapshot versions (publish counters).
    pub fn versions(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.version()).collect()
    }

    /// Is `cq` answerable by per-shard scatter-gather on this engine?
    /// Always at one shard; otherwise the co-partition rule decides.
    ///
    /// # Errors
    /// [`TsensError::CrossShardJoin`] with the offending atoms named.
    pub fn check_scatter_gather(&self, cq: &ConjunctiveQuery) -> Result<(), TsensError> {
        if self.shards() == 1 {
            return Ok(());
        }
        check_co_partitioned(&self.spec, self.primary().load().database(), cq)
    }

    /// Scatter-gathered `|Q(D)|`: per-shard counts summed. One shard
    /// delegates straight to the session (no co-partition requirement).
    ///
    /// # Errors
    /// [`TsensError::CrossShardJoin`], or any per-shard evaluation
    /// error.
    pub fn count(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Count, TsensError> {
        if self.shards() == 1 {
            return self.primary().load().count_query(cq, tree);
        }
        let pinned = self.pin();
        check_co_partitioned(&self.spec, pinned[0].database(), cq)?;
        sharded_count(&self.pool, &pinned, cq, tree)
    }

    /// Route a batch by the shard hash and apply each sub-batch to its
    /// shard via the shard's publish lane ([`SnapshotCell::update`]).
    ///
    /// Atomicity is **per shard**: each shard's sub-batch publishes as
    /// one snapshot (all or nothing), but there is no cross-shard
    /// transaction — if shard `k` rejects its sub-batch, shards before
    /// it have already published theirs. The returned error names the
    /// failing shard; sub-batches keep the incoming order within each
    /// shard, so per-key ordering is preserved (one key always routes to
    /// one shard).
    ///
    /// # Errors
    /// The first failing shard's error.
    pub fn update_all(&self, updates: Vec<Update>) -> Result<ShardedDelta, TsensError> {
        let routed = route_updates(&self.spec, self.shards(), updates);
        let mut delta = ShardedDelta {
            per_shard: vec![0; self.shards()],
            ..ShardedDelta::default()
        };
        for (s, batch) in routed.into_iter().enumerate() {
            if batch.is_empty() {
                delta.versions.push(self.cells[s].version());
                continue;
            }
            let (applied, version) =
                self.cells[s].update_versioned(move |fork| fork.apply_all(batch))?;
            delta.applied += applied;
            delta.per_shard[s] = applied;
            delta.published += 1;
            delta.versions.push(version);
        }
        Ok(delta)
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards())
            .field("spec", &self.spec)
            .finish()
    }
}

/// The co-partition rule (module docs): single atom, or every atom's
/// shard-key column carries one shared join attribute.
///
/// `db` is any catalog the shards were partitioned from (all shard
/// catalogs are identical) — used only to name relations and attributes
/// in the error.
///
/// # Errors
/// [`TsensError::CrossShardJoin`] naming the first atom whose shard-key
/// attribute differs.
pub fn check_co_partitioned(
    spec: &ShardSpec,
    db: &Database,
    cq: &ConjunctiveQuery,
) -> Result<(), TsensError> {
    if cq.atom_count() <= 1 {
        return Ok(());
    }
    let key_attr = |atom: &tsens_query::Atom| atom.schema.attrs()[spec.column(atom.relation)];
    let atoms = cq.atoms();
    let first = key_attr(&atoms[0]);
    for atom in &atoms[1..] {
        let attr = key_attr(atom);
        if attr != first {
            return Err(TsensError::CrossShardJoin {
                detail: format!(
                    "atom {} shards on {:?} but atom {} shards on {:?}; \
                     every atom must join on its relation's shard-key column",
                    db.relation_name(atoms[0].relation),
                    db.registry().name(first),
                    db.relation_name(atom.relation),
                    db.registry().name(attr),
                ),
            });
        }
    }
    Ok(())
}

/// Gather step for counts over already-pinned shard snapshots: evaluate
/// per shard on `pool`, sum saturating. Callers are responsible for the
/// co-partition check (or for `sessions` being a single shard).
///
/// # Errors
/// The first shard evaluation error, by shard order.
pub fn sharded_count(
    pool: &Pool,
    sessions: &[Arc<EngineSession<'static>>],
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
) -> Result<Count, TsensError> {
    let per_shard = pool.run(sessions.len(), |s| sessions[s].count_query(cq, tree));
    let mut total: Count = 0;
    for r in per_shard {
        total = sat_add(total, r?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Relation, Schema, Value};
    use tsens_query::{auto_decompose, gyo_decompose};

    /// Follow(U,V) ⋈ Like(U,P): both relations keyed on U at column 0,
    /// so the default spec co-partitions them.
    fn social_db(rows: usize) -> Database {
        let mut db = Database::new();
        let [u, v, p] = db.attrs(["U", "V", "P"]);
        let follow: Vec<Vec<Value>> = (0..rows as i64)
            .map(|i| vec![Value::Int(i % 11), Value::Int(i % 7)])
            .collect();
        let like: Vec<Vec<Value>> = (0..rows as i64)
            .map(|i| vec![Value::Int(i % 11), Value::Int(i % 5)])
            .collect();
        db.add_relation(
            "Follow",
            Relation::from_rows(Schema::new(vec![u, v]), follow),
        )
        .unwrap();
        db.add_relation("Like", Relation::from_rows(Schema::new(vec![u, p]), like))
            .unwrap();
        db
    }

    /// R(A,B) ⋈ S(B,C): S shards on B... no — S's column 0 is B, R's is
    /// A, and the join attribute differs → NOT co-partitioned.
    fn path_db() -> Database {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let r: Vec<Vec<Value>> = (0..20i64)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
            .collect();
        let s: Vec<Vec<Value>> = (0..20i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect();
        db.add_relation("R", Relation::from_rows(Schema::new(vec![a, b]), r))
            .unwrap();
        db.add_relation("S", Relation::from_rows(Schema::new(vec![b, c]), s))
            .unwrap();
        db
    }

    #[test]
    fn sharded_count_matches_unsharded() {
        let db = social_db(60);
        let q = ConjunctiveQuery::over(&db, "q", &["Follow", "Like"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star on U");
        let truth = EngineSession::new(&db).count_query(&q, &tree).unwrap();
        for n in [1, 2, 4, 7] {
            let engine = ShardedEngine::new(db.clone(), n).unwrap();
            assert_eq!(engine.count(&q, &tree).unwrap(), truth, "n={n}");
        }
    }

    #[test]
    fn single_atom_queries_always_scatter() {
        let db = path_db();
        let q = ConjunctiveQuery::over(&db, "q", &["R"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("one atom");
        let truth = EngineSession::new(&db).count_query(&q, &tree).unwrap();
        let engine = ShardedEngine::new(db.clone(), 4).unwrap();
        assert_eq!(engine.count(&q, &tree).unwrap(), truth);
    }

    #[test]
    fn cross_shard_join_is_rejected_above_one_shard() {
        let db = path_db();
        let q = ConjunctiveQuery::over(&db, "q", &["R", "S"]).unwrap();
        let tree = auto_decompose(&q).unwrap();
        let truth = EngineSession::new(&db).count_query(&q, &tree).unwrap();

        // N=1 serves it like the plain engine.
        let single = ShardedEngine::new(db.clone(), 1).unwrap();
        assert_eq!(single.count(&q, &tree).unwrap(), truth);

        let engine = ShardedEngine::new(db.clone(), 2).unwrap();
        let err = engine.count(&q, &tree).unwrap_err();
        assert!(
            matches!(err, TsensError::CrossShardJoin { ref detail } if detail.contains("shard-key")),
            "got {err}"
        );
        assert!(engine.check_scatter_gather(&q).is_err());
    }

    #[test]
    fn routed_updates_keep_equivalence_and_publish_per_shard() {
        let db = social_db(40);
        let q = ConjunctiveQuery::over(&db, "q", &["Follow", "Like"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star on U");
        let engine = ShardedEngine::new(db.clone(), 4).unwrap();
        let mut mono = EngineSession::owned(db);

        let ups = vec![
            Update::insert(0, vec![Value::Int(3), Value::Int(100)]),
            Update::insert(1, vec![Value::Int(3), Value::Int(200)]),
            Update::delete(0, vec![Value::Int(0), Value::Int(0)]),
            Update::insert(0, vec![Value::Int(999), Value::Int(1)]),
        ];
        for u in ups.clone() {
            mono.apply(u).unwrap();
        }
        let delta = engine.update_all(ups).unwrap();
        assert_eq!(delta.applied, 4);
        assert_eq!(delta.per_shard.iter().sum::<usize>(), 4);
        assert!(delta.published >= 1 && delta.published <= 4);
        // Only shards that received a sub-batch published.
        let touched = engine.versions().iter().filter(|&&v| v > 0).count();
        assert_eq!(touched, delta.published);

        let truth = mono.count_query(&q, &tree).unwrap();
        assert_eq!(engine.count(&q, &tree).unwrap(), truth);
    }

    #[test]
    fn one_shard_is_the_plain_session_path() {
        let db = social_db(20);
        let engine = ShardedEngine::new(db.clone(), 1).unwrap();
        assert_eq!(engine.shards(), 1);
        // The primary cell holds the full, unpartitioned database.
        assert_eq!(
            engine.primary().load().database().total_tuples(),
            db.total_tuples()
        );
        // And the cells API is exactly the SnapshotCell serving surface.
        engine
            .primary()
            .update(|s| s.insert(0, vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        assert_eq!(engine.versions(), vec![1]);
    }

    #[test]
    fn shard_count_validated_at_construction() {
        let db = social_db(5);
        assert!(ShardedEngine::new(db.clone(), 0).is_err());
        assert!(ShardedEngine::new(db, 1000).is_err());
    }
}
