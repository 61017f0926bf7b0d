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
//! The same gather functions serve every shard count: with one shard
//! they make the plain session call and callers skip the co-partition
//! check, so the engine at N=1 *is* the single-session engine.

use crate::pool::Pool;
use crate::session::EngineSession;
use crate::snapshot::SnapshotCell;
use std::sync::Arc;
use tsens_data::shard::{
    partition_database, route_updates_indexed, validate_shard_count, ShardSpec,
};
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

/// What [`ShardedEngine::update_routed`] did, shard by shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Routed<T> {
    /// The per-fork result on each shard that published; `None` on
    /// shards whose routed sub-batch was empty.
    pub per_shard: Vec<Option<T>>,
    /// Snapshot version per shard, as in [`ShardedDelta::versions`].
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
    /// With one shard the database is not partitioned and the single
    /// session runs on the default pool — byte-for-byte the unsharded
    /// engine. With more shards each shard session is sequential (the
    /// shards *are* the parallelism) and the default pool drives the
    /// scatter: the calling request thread claims shards itself next to
    /// the process-wide pool helpers, so a scatter spawns no thread.
    ///
    /// # Errors
    /// [`validate_shard_count`] failures.
    pub fn new(db: Database, shards: usize) -> Result<ShardedEngine, TsensError> {
        validate_shard_count(shards)?;
        let spec = ShardSpec::first_column(&db);
        let pool = Pool::default();
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

    /// Route a batch by the shard hash and publish each non-empty
    /// sub-batch through its shard's writer lane
    /// ([`SnapshotCell::update_versioned`]): `apply` runs on that
    /// shard's fork with the sub-batch and its updates' positions in
    /// `updates`, and an error discards the fork. One shard is one fork
    /// and one publish of the whole batch.
    ///
    /// Atomicity is **per shard**: there is no cross-shard transaction,
    /// so if shard `k` rejects its sub-batch, shards before it have
    /// already published theirs. Sub-batches keep the incoming order,
    /// and one key always routes to one shard, so per-key order holds.
    ///
    /// # Errors
    /// The first failing shard's error, with the number of shards that
    /// had already published.
    pub fn update_routed<T>(
        &self,
        updates: Vec<Update>,
        mut apply: impl FnMut(
            &mut EngineSession<'static>,
            Vec<Update>,
            &[usize],
        ) -> Result<T, TsensError>,
    ) -> Result<Routed<T>, (usize, TsensError)> {
        let routed = route_updates_indexed(&self.spec, self.shards(), updates);
        let mut out = Routed {
            per_shard: Vec::with_capacity(self.shards()),
            versions: Vec::with_capacity(self.shards()),
        };
        for (cell, batch) in self.cells.iter().zip(routed) {
            if batch.is_empty() {
                out.per_shard.push(None);
                out.versions.push(cell.version());
                continue;
            }
            let (positions, batch): (Vec<usize>, Vec<Update>) = batch.into_iter().unzip();
            let published = out.per_shard.iter().flatten().count();
            let (result, version) = cell
                .update_versioned(|fork| apply(fork, batch, &positions))
                .map_err(|e| (published, e))?;
            out.per_shard.push(Some(result));
            out.versions.push(version);
        }
        Ok(out)
    }

    /// [`ShardedEngine::update_routed`] applying each sub-batch as is.
    ///
    /// # Errors
    /// The first failing shard's error.
    pub fn update_all(&self, updates: Vec<Update>) -> Result<ShardedDelta, TsensError> {
        let routed = self
            .update_routed(updates, |fork, batch, _| fork.apply_all(batch))
            .map_err(|(_, e)| e)?;
        let per_shard: Vec<usize> = routed.per_shard.iter().map(|a| a.unwrap_or(0)).collect();
        Ok(ShardedDelta {
            applied: per_shard.iter().sum(),
            published: routed.per_shard.iter().flatten().count(),
            per_shard,
            versions: routed.versions,
        })
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

    /// Co-partition check, then the count gathered over every shard.
    fn count(engine: &ShardedEngine, q: &ConjunctiveQuery, tree: &DecompositionTree) -> Count {
        check_co_partitioned(engine.spec(), engine.primary().load().database(), q).unwrap();
        sharded_count(engine.pool(), &engine.pin(), q, tree).unwrap()
    }

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
            assert_eq!(count(&engine, &q, &tree), truth, "n={n}");
        }
    }

    #[test]
    fn single_atom_queries_always_scatter() {
        let db = path_db();
        let q = ConjunctiveQuery::over(&db, "q", &["R"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("one atom");
        let truth = EngineSession::new(&db).count_query(&q, &tree).unwrap();
        let engine = ShardedEngine::new(db.clone(), 4).unwrap();
        assert_eq!(count(&engine, &q, &tree), truth);
    }

    #[test]
    fn cross_shard_join_is_rejected_above_one_shard() {
        let db = path_db();
        let q = ConjunctiveQuery::over(&db, "q", &["R", "S"]).unwrap();
        let tree = auto_decompose(&q).unwrap();
        let truth = EngineSession::new(&db).count_query(&q, &tree).unwrap();

        // N=1 serves it like the plain engine: one shard needs no check.
        let single = ShardedEngine::new(db.clone(), 1).unwrap();
        let pinned = single.pin();
        assert_eq!(
            sharded_count(single.pool(), &pinned, &q, &tree).unwrap(),
            truth
        );

        let engine = ShardedEngine::new(db.clone(), 2).unwrap();
        let err = check_co_partitioned(engine.spec(), &db, &q).unwrap_err();
        assert!(
            matches!(err, TsensError::CrossShardJoin { ref detail } if detail.contains("shard-key")),
            "got {err}"
        );
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
        assert_eq!(count(&engine, &q, &tree), truth);
    }

    #[test]
    fn routed_forks_see_input_positions_and_failures_count_earlier_publishes() {
        let engine = ShardedEngine::new(social_db(20), 4).unwrap();
        let ups: Vec<Update> = (0..8)
            .map(|u| Update::insert(0, vec![Value::Int(u), Value::Int(99)]))
            .collect();
        let mut seen: Vec<Vec<usize>> = Vec::new();
        let routed = engine
            .update_routed(ups.clone(), |fork, batch, positions| {
                seen.push(positions.to_vec());
                fork.apply_all(batch)
            })
            .unwrap();
        // Each touched shard gets its own input positions, in order.
        let mut all = seen.concat();
        all.sort_unstable();
        assert!(all == (0..8).collect::<Vec<_>>() && seen.iter().all(|p| p.is_sorted()));
        assert_eq!(routed.per_shard.iter().flatten().count(), seen.len());
        assert_eq!(routed.versions, engine.versions());

        // Fail the fork holding input op 5: the shards before it keep
        // their publishes, and the error says how many there were.
        let before = engine.versions();
        let (published, _) = engine
            .update_routed(ups, |fork, batch, positions| match positions.contains(&5) {
                true => Err(tsens_data::DataError::Malformed("op 5".into()).into()),
                false => fork.apply_all(batch),
            })
            .unwrap_err();
        let failing = seen.iter().position(|p| p.contains(&5)).unwrap();
        assert_eq!(published, failing);
        let after = engine.versions();
        assert_eq!((0..4).filter(|&s| after[s] > before[s]).count(), failing);
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
