//! Property tests: a **sharded engine is observationally identical to
//! one unsharded session** for everything it agrees to answer, under
//! interleaved inserts and deletes routed by the shard hash.
//!
//! * **Star queries** `R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C)` are co-partitioned
//!   under the default first-column spec (every atom joins through `H`),
//!   so count (per-shard sum), tsens (per-shard max) and elastic
//!   (merged-`mf`) must all match the single session exactly at every
//!   shard count, and a repeat elastic call above one shard hits every
//!   shard's `mf` cache;
//! * **Path and triangle queries** are *not* co-partitioned: count and
//!   tsens must be typed [`TsensError::CrossShardJoin`] rejections at
//!   more than one shard — never a silently wrong number — while
//!   single-atom sub-queries and the full-join **elastic** bound (exact
//!   from merged `mf` statistics regardless of the routing) still match;
//! * `N = 1` runs the same assertions through the same gather functions,
//!   pinning their one-shard case to the plain-session answers.
//!
//! Updates are applied as batches to both sides — through
//! [`ShardedEngine::update_all`]'s hash routing on the sharded side and
//! [`EngineSession::apply_all`] on the mono side — and every observable
//! is re-compared after each batch, so the per-shard delta maintenance
//! (PR 9) is exercised against the routed sub-batches. The scatter pool
//! honours `TSENS_THREADS`, so CI's dual-mode matrix runs this both
//! sequentially and in parallel.

use proptest::prelude::*;
use tsens_core::{
    elastic_sensitivity_sharded, plan_order_from_tree, sharded_tsens_checked, SensitivityReport,
    SessionExt,
};
use tsens_data::{Count, Database, Relation, Schema, TsensError, Update, Value};
use tsens_engine::{
    check_co_partitioned, sharded_count, EngineSession, SessionStats, ShardedEngine,
};
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Mixed-type value so the routing hash covers both `Value` variants.
fn value(x: i64) -> Value {
    if x % 3 == 0 {
        Value::str(format!("s{x}"))
    } else {
        Value::Int(x)
    }
}

fn relation(schema: Schema, rows: &[Vec<i64>]) -> Relation {
    let mut rel = Relation::new(schema);
    for row in rows {
        rel.push(row.iter().map(|&x| value(x)).collect());
    }
    rel
}

fn database(edges: &[(&str, &str)], rows: &[Vec<Vec<i64>>]) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let mut names = Vec::new();
    for (i, ((a1, a2), rel_rows)) in edges.iter().zip(rows).enumerate() {
        let s1 = db.attr(a1);
        let s2 = db.attr(a2);
        let name = format!("R{i}");
        db.add_relation(&name, relation(Schema::new(vec![s1, s2]), rel_rows))
            .unwrap();
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let q = ConjunctiveQuery::over(&db, "q", &refs).unwrap();
    (db, q)
}

/// One update: `kind` 0 inserts, 1 deletes (absent rows no-op), 2
/// inserts shifted out of the initial domain (new dictionary values, so
/// routed sub-batches cross dict epochs per shard).
type Step = (usize, usize, Vec<i64>);

const NEW_VALUE_OFFSET: i64 = 1_000;

fn step_update(db_relations: usize, (kind, rel, raw_row): &Step) -> Update {
    let rel = rel % db_relations;
    let row: Vec<Value> = raw_row.iter().map(|&x| value(x)).collect();
    match kind % 3 {
        0 => Update::Insert { relation: rel, row },
        1 => Update::Delete { relation: rel, row },
        _ => Update::Insert {
            relation: rel,
            row: raw_row
                .iter()
                .map(|&x| value(x + NEW_VALUE_OFFSET))
                .collect(),
        },
    }
}

/// The count gathered over every shard's pinned snapshot.
fn count(engine: &ShardedEngine, q: &ConjunctiveQuery, tree: &DecompositionTree) -> Count {
    sharded_count(engine.pool(), &engine.pin(), q, tree).unwrap()
}

/// The served tsens over every shard's pinned snapshot.
fn tsens(
    engine: &ShardedEngine,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
) -> Result<SensitivityReport, TsensError> {
    sharded_tsens_checked(engine.pool(), engine.spec(), &engine.pin(), q, tree)
}

/// Above one shard, a repeat elastic call reads every shard's cached
/// `mf` statistics: it adds hits and no misses on every shard.
fn assert_repeat_elastic_hits_mf_caches(
    engine: &ShardedEngine,
    q: &ConjunctiveQuery,
    plan: &[usize],
    label: &str,
) {
    let n = engine.shards();
    if n == 1 {
        return;
    }
    let pinned = engine.pin();
    let before: Vec<SessionStats> = pinned.iter().map(|s| s.stats()).collect();
    elastic_sensitivity_sharded(&pinned, q, plan, 0).unwrap();
    for (shard, (session, before)) in pinned.iter().zip(&before).enumerate() {
        let after = session.stats();
        prop_assert!(
            after.mf_hits > before.mf_hits,
            "shard {} mf hits (n={}, {})",
            shard,
            n,
            label
        );
        prop_assert_eq!(
            after.mf_misses,
            before.mf_misses,
            "shard {} mf misses (n={}, {})",
            shard,
            n,
            label
        );
    }
}

/// Full scatter-gather comparison for a co-partitioned query: count,
/// tsens (LS + per-relation), elastic (overall + per-relation) against
/// the mono session. Witnesses are not compared — shard-local dict
/// orders may break max-entry ties differently, like the IVM tests.
fn assert_scatter_gather_matches(
    engine: &ShardedEngine,
    mono: &EngineSession<'static>,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    label: &str,
) {
    let n = engine.shards();
    check_co_partitioned(engine.spec(), mono.database(), q).unwrap();
    prop_assert_eq!(
        count(engine, q, tree),
        mono.count_query(q, tree).unwrap(),
        "count (n={}, {})",
        n,
        label
    );
    let sharded = tsens(engine, q, tree).unwrap();
    let truth = mono.tsens(q, tree).unwrap();
    prop_assert_eq!(
        sharded.local_sensitivity,
        truth.local_sensitivity,
        "tsens LS (n={}, {})",
        n,
        label
    );
    prop_assert_eq!(sharded.per_relation.len(), truth.per_relation.len());
    for (a, b) in sharded.per_relation.iter().zip(truth.per_relation.iter()) {
        prop_assert_eq!(a.relation, b.relation);
        prop_assert_eq!(
            a.sensitivity,
            b.sensitivity,
            "relation {} (n={}, {})",
            a.relation,
            n,
            label
        );
    }
    let plan = plan_order_from_tree(tree);
    let es = elastic_sensitivity_sharded(&engine.pin(), q, &plan, 0).unwrap();
    let et = mono.elastic_sensitivity(q, &plan, 0).unwrap();
    prop_assert_eq!(es.overall, et.overall, "elastic (n={}, {})", n, label);
    prop_assert_eq!(&es.per_relation, &et.per_relation);
    assert_repeat_elastic_hits_mf_caches(engine, q, &plan, label);
}

/// Comparison for a NON-co-partitioned join: typed rejection for
/// count/tsens at more than one shard (exact single-session answers at
/// one), exact elastic at every shard count, and exact single-atom
/// counts per relation.
fn assert_rejects_but_elastic_and_atoms_match(
    engine: &ShardedEngine,
    mono: &EngineSession<'static>,
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    label: &str,
) {
    let n = engine.shards();
    if n == 1 {
        prop_assert_eq!(
            count(engine, q, tree),
            mono.count_query(q, tree).unwrap(),
            "count (n=1, {})",
            label
        );
        prop_assert_eq!(
            tsens(engine, q, tree).unwrap().local_sensitivity,
            mono.tsens(q, tree).unwrap().local_sensitivity,
            "tsens (n=1, {})",
            label
        );
    } else {
        prop_assert!(
            matches!(
                check_co_partitioned(engine.spec(), db, q),
                Err(TsensError::CrossShardJoin { .. })
            ),
            "count must reject cross-shard joins (n={}, {})",
            n,
            label
        );
        prop_assert!(
            matches!(
                tsens(engine, q, tree),
                Err(TsensError::CrossShardJoin { .. })
            ),
            "tsens must reject cross-shard joins (n={}, {})",
            n,
            label
        );
    }
    let plan = plan_order_from_tree(tree);
    let es = elastic_sensitivity_sharded(&engine.pin(), q, &plan, 0).unwrap();
    let et = mono.elastic_sensitivity(q, &plan, 0).unwrap();
    prop_assert_eq!(es.overall, et.overall, "elastic (n={}, {})", n, label);
    prop_assert_eq!(&es.per_relation, &et.per_relation);
    assert_repeat_elastic_hits_mf_caches(engine, q, &plan, label);

    // Single-atom sub-queries always scatter-gather, any routing.
    for rel in 0..db.relation_count() {
        let one = ConjunctiveQuery::over(db, "one", &[db.relation_name(rel)]).unwrap();
        let one_tree = gyo_decompose(&one).unwrap().expect_acyclic("single atom");
        prop_assert_eq!(
            count(engine, &one, &one_tree),
            mono.count_query(&one, &one_tree).unwrap(),
            "single-atom count on {} (n={}, {})",
            rel,
            n,
            label
        );
    }
}

fn run_co_partitioned(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    steps: &[Step],
) {
    let rels = db.relation_count();
    for n in SHARD_COUNTS {
        let engine = ShardedEngine::new(db.clone(), n).unwrap();
        let mut mono = EngineSession::owned(db.clone());
        assert_scatter_gather_matches(&engine, &mono, q, tree, "initial");
        for (i, step) in steps.iter().enumerate() {
            let u = step_update(rels, step);
            mono.apply_all(vec![u.clone()]).unwrap();
            engine.update_all(vec![u]).unwrap();
            assert_scatter_gather_matches(&engine, &mono, q, tree, &format!("after step {i}"));
        }
    }
}

fn run_cross_shard(db: &Database, q: &ConjunctiveQuery, tree: &DecompositionTree, steps: &[Step]) {
    let rels = db.relation_count();
    for n in SHARD_COUNTS {
        let engine = ShardedEngine::new(db.clone(), n).unwrap();
        let mut mono = EngineSession::owned(db.clone());
        assert_rejects_but_elastic_and_atoms_match(&engine, &mono, db, q, tree, "initial");
        for (i, step) in steps.iter().enumerate() {
            let u = step_update(rels, step);
            mono.apply_all(vec![u.clone()]).unwrap();
            engine.update_all(vec![u]).unwrap();
            assert_rejects_but_elastic_and_atoms_match(
                &engine,
                &mono,
                db,
                q,
                tree,
                &format!("after step {i}"),
            );
        }
    }
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

fn steps_strategy(domain: i64) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0..3usize,
            0..3usize,
            prop::collection::vec(0..domain, 2..=2),
        ),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Star R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C): co-partitioned on the hub, so
    /// every operation scatter-gathers exactly at N ∈ {1, 2, 4}.
    #[test]
    fn sharded_matches_unsharded_on_stars(
        r0 in rows_strategy(8, 3),
        r1 in rows_strategy(8, 3),
        r2 in rows_strategy(8, 3),
        steps in steps_strategy(3),
    ) {
        let (db, q) = database(&[("H", "A"), ("H", "B"), ("H", "C")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        run_co_partitioned(&db, &q, &tree, &steps);
    }

    /// Path R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3): not co-partitioned —
    /// typed rejection for count/tsens at N > 1, exact elastic and
    /// single-atom answers everywhere, plain-session behavior at N = 1.
    #[test]
    fn sharded_path_rejects_joins_but_matches_elastic(
        r0 in rows_strategy(8, 4),
        r1 in rows_strategy(8, 4),
        r2 in rows_strategy(8, 4),
        steps in steps_strategy(4),
    ) {
        let (db, q) = database(&[("A0", "A1"), ("A1", "A2"), ("A2", "A3")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        run_cross_shard(&db, &q, &tree, &steps);
    }

    /// Triangle R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD: cyclic AND
    /// cross-shard — same rejection/exactness split as the path.
    #[test]
    fn sharded_triangle_rejects_joins_but_matches_elastic(
        r0 in rows_strategy(6, 3),
        r1 in rows_strategy(6, 3),
        r2 in rows_strategy(6, 3),
        steps in steps_strategy(3),
    ) {
        let (db, q) = database(&[("A", "B"), ("B", "C"), ("C", "A")], &[r0, r1, r2]);
        let ghd = auto_decompose(&q).unwrap();
        run_cross_shard(&db, &q, &ghd, &steps);
    }
}
