//! Scatter-gather TSens over pinned shard snapshots.
//!
//! Aggregation per operation, for any number of shards (one shard is
//! the plain session call):
//!
//! * **count** — per-shard counts **sum** (the shards partition the
//!   output bag under the co-partition rule; see
//!   `tsens_engine::shard`);
//! * **tsens** — per-shard local sensitivities **max**, per relation
//!   ([`sharded_tsens_checked`]). Sound and exact under the
//!   co-partition rule: a (present or hypothetical) tuple's shard-key
//!   value routes it to one shard, and that shard holds *every* row it
//!   can join with, so its tuple sensitivity computed inside the shard
//!   equals its global tuple sensitivity — the paper's decomposition
//!   runs unchanged per shard and the global worst case is some shard's
//!   worst case. The merged witness is the achieving shard's witness
//!   (the smallest one on ties);
//! * **elastic** — computed from **global** max-frequency statistics
//!   ([`crate::elastic::elastic_sensitivity_sharded`]), which is exact
//!   for *any* query, co-partitioned or not: elastic depends on the data
//!   only through `mf`, and the shards' cached per-shard `mf` values
//!   (summed for `∅`, maxed for sets holding the shard key, otherwise
//!   merged from grouped projections) reproduce the unsharded values
//!   bit-for-bit.
//!
//! Non-co-partitioned multi-atom count/tsens at more than one shard are
//! rejected with [`TsensError::CrossShardJoin`].

use crate::report::{RelationSensitivity, SensitivityReport};
use crate::session::SessionExt;
use std::sync::Arc;
use tsens_data::{ShardSpec, TsensError};
use tsens_engine::shard::check_co_partitioned;
use tsens_engine::{EngineSession, Pool};
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// TSens over already-pinned shard snapshots: above one shard, check
/// the co-partition rule, run the full algorithm per shard on `pool`,
/// then take the per-relation maximum (witness from the achieving
/// shard) — see the module docs for why the max is then exact. One
/// shard is the session's own `tsens`.
///
/// # Errors
/// [`TsensError::CrossShardJoin`] for non-co-partitioned multi-atom
/// queries above one shard; otherwise the first shard evaluation error,
/// by shard order.
///
/// # Panics
/// Panics if `sessions` is empty.
pub fn sharded_tsens_checked(
    pool: &Pool,
    spec: &ShardSpec,
    sessions: &[Arc<EngineSession<'static>>],
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
) -> Result<SensitivityReport, TsensError> {
    assert!(!sessions.is_empty(), "need at least one shard");
    if sessions.len() == 1 {
        return sessions[0].tsens(cq, tree);
    }
    check_co_partitioned(spec, sessions[0].database(), cq)?;
    let gathered = pool.run(sessions.len(), |s| sessions[s].tsens(cq, tree));
    let mut reports = Vec::with_capacity(gathered.len());
    for r in gathered {
        reports.push(r?);
    }
    Ok(merge_max(&reports))
}

/// Per-relation max across shard reports. All reports come from the
/// same query on identically-cataloged shards, so their `per_relation`
/// vectors line up index by index. On ties a witness beats none, and
/// the smaller witness wins — the smallest-row rule one session's
/// multiplicity-table max keeps, so the answer does not depend on the
/// shard count.
fn merge_max(reports: &[SensitivityReport]) -> SensitivityReport {
    let mut merged: Vec<RelationSensitivity> = reports[0].per_relation.clone();
    for report in &reports[1..] {
        for (slot, candidate) in merged.iter_mut().zip(report.per_relation.iter()) {
            debug_assert_eq!(slot.relation, candidate.relation);
            let wins_tie = match (&candidate.witness, &slot.witness) {
                (Some(c), Some(s)) => c.values < s.values,
                (c, s) => c.is_some() && s.is_none(),
            };
            if candidate.sensitivity > slot.sensitivity
                || (candidate.sensitivity == slot.sensitivity && wins_tie)
            {
                *slot = candidate.clone();
            }
        }
    }
    SensitivityReport::from_per_relation(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::elastic_sensitivity_sharded;
    use tsens_data::{Database, Relation, Schema, Value};
    use tsens_engine::ShardedEngine;
    use tsens_query::gyo_decompose;

    fn social_db() -> Database {
        let mut db = Database::new();
        let [u, v, p] = db.attrs(["U", "V", "P"]);
        let follow: Vec<Vec<Value>> = (0..50i64)
            .map(|i| vec![Value::Int(i % 9), Value::Int(i % 6)])
            .collect();
        let like: Vec<Vec<Value>> = (0..30i64)
            .map(|i| vec![Value::Int(i % 9), Value::Int(i % 4)])
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

    #[test]
    fn sharded_tsens_matches_unsharded_on_co_partitioned_join() {
        let db = social_db();
        let q = ConjunctiveQuery::over(&db, "q", &["Follow", "Like"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star on U");
        let truth = EngineSession::new(&db).tsens(&q, &tree).unwrap();
        for n in [1, 2, 4] {
            let engine = ShardedEngine::new(db.clone(), n).unwrap();
            let pinned = engine.pin();
            let got =
                sharded_tsens_checked(engine.pool(), engine.spec(), &pinned, &q, &tree).unwrap();
            assert_eq!(got.local_sensitivity, truth.local_sensitivity, "n={n}");
            assert_eq!(got.per_relation.len(), truth.per_relation.len());
            for (a, b) in got.per_relation.iter().zip(truth.per_relation.iter()) {
                assert_eq!(a.relation, b.relation);
                assert_eq!(a.sensitivity, b.sensitivity, "n={n}");
            }
        }
    }

    #[test]
    fn sharded_elastic_is_exact_even_for_non_co_partitioned_joins() {
        // Path R(A,B) ⋈ S(B,C): NOT co-partitioned on first columns —
        // count/tsens reject it, elastic must still be exact.
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let r: Vec<Vec<Value>> = (0..40i64)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i % 8)])
            .collect();
        let s: Vec<Vec<Value>> = (0..40i64)
            .map(|i| vec![Value::Int(i % 8), Value::Int(i % 3)])
            .collect();
        db.add_relation("R", Relation::from_rows(Schema::new(vec![a, b]), r))
            .unwrap();
        db.add_relation("S", Relation::from_rows(Schema::new(vec![b, c]), s))
            .unwrap();
        let q = ConjunctiveQuery::over(&db, "q", &["R", "S"]).unwrap();
        let truth = crate::elastic_sensitivity(&db, &q, &[0, 1], 3);
        for n in [1, 2, 4] {
            let engine = ShardedEngine::new(db.clone(), n).unwrap();
            let got = elastic_sensitivity_sharded(&engine.pin(), &q, &[0, 1], 3).unwrap();
            assert_eq!(got.overall, truth.overall, "n={n}");
            assert_eq!(got.per_relation, truth.per_relation, "n={n}");
        }
        // ...while tsens on the same query is a typed rejection at n>1.
        let engine = ShardedEngine::new(db.clone(), 2).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
        assert!(matches!(
            sharded_tsens_checked(engine.pool(), engine.spec(), &engine.pin(), &q, &tree),
            Err(TsensError::CrossShardJoin { .. })
        ));
    }
}
