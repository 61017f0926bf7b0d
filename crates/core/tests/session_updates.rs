//! Property tests for **mutable sessions**: a warm `EngineSession` that
//! has absorbed a random interleaving of inserts, deletes and queries
//! must answer identically to a fresh session built on the materialized
//! (mirrored) database — for path, star and triangle shapes, including
//! predicated variants — and repeated rounds after the last update must
//! be served from the caches.
//!
//! Also asserts the serving economics the layer exists for: applying a
//! single-tuple update to a warm session and re-querying is ≥10× faster
//! than rebuilding the session from scratch, and queries whose relations
//! the update never touched still hit the result cache.

use proptest::prelude::*;
use tsens_core::{naive_local_sensitivity, plan_order_from_tree, tsens, SessionExt};
use tsens_data::{AttrId, Database, Relation, Row, Schema, Update, Value};
use tsens_engine::naive_eval::naive_count;
use tsens_engine::EngineSession;
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree, Predicate};

/// Mixed-type value: a third of the domain becomes strings so updates
/// exercise both dictionary regions.
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

/// One randomly drawn delta: `kind` 0 = insert from the base domain,
/// 1 = delete an existing row (picked by index), 2 = insert a row with a
/// **fresh** value (forces a dictionary re-sort epoch).
type Op = (usize, usize, i64, i64);

/// Apply `op` to the session and to the mirror database identically.
fn apply_op(session: &mut EngineSession<'_>, mirror: &mut Database, op: &Op) {
    let (kind, rel, x, y) = *op;
    match kind {
        0 => {
            let row: Row = vec![value(x), value(y)];
            assert!(session.apply(Update::insert(rel, row.clone())).unwrap());
            mirror.insert_row(rel, row);
        }
        1 => {
            let rows = mirror.relation(rel).rows();
            if rows.is_empty() {
                return;
            }
            let row = rows[(x.unsigned_abs() as usize) % rows.len()].clone();
            assert!(
                session.delete(rel, row.clone()).unwrap(),
                "mirror row must exist"
            );
            assert!(mirror.remove_row(rel, &row));
        }
        _ => {
            // Values far outside the base domain: new to the dictionary.
            let row: Row = vec![value(1000 + x), value(2000 + y)];
            session.insert(rel, row.clone()).unwrap();
            mirror.insert_row(rel, row);
        }
    }
}

/// Full answer battery: the mutated warm session vs one-shot calls on
/// the materialized mirror (themselves cross-checked against naive).
fn assert_matches_materialized(
    session: &EngineSession<'_>,
    mirror: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
) {
    prop_assert_eq!(
        session.count_query(q, tree).unwrap(),
        naive_count(mirror, q)
    );

    let warm = session.tsens(q, tree).unwrap();
    let fresh = tsens(mirror, q, tree);
    prop_assert_eq!(warm.local_sensitivity, fresh.local_sensitivity);
    prop_assert_eq!(&warm.witness, &fresh.witness);
    let naive = naive_local_sensitivity(mirror, q);
    prop_assert_eq!(warm.local_sensitivity, naive.local_sensitivity);
    for (w, n) in warm.per_relation.iter().zip(naive.per_relation.iter()) {
        prop_assert_eq!(w.relation, n.relation);
        prop_assert_eq!(w.sensitivity, n.sensitivity, "relation {}", w.relation);
    }

    let plan = plan_order_from_tree(tree);
    let warm_e = session.elastic_sensitivity(q, &plan, 0).unwrap();
    let fresh_e = tsens_core::elastic_sensitivity(mirror, q, &plan, 0);
    prop_assert_eq!(warm_e.overall, fresh_e.overall);
    prop_assert_eq!(&warm_e.per_relation, &fresh_e.per_relation);

    // Predicated variant keyed off the mirror's current first row.
    let pred_attr = q.atoms()[0].schema.attrs()[0];
    if let Some(first) = mirror.relation(q.atoms()[0].relation).rows().first() {
        let qp = q.clone().with_predicate(
            mirror,
            mirror.relation_name(q.atoms()[0].relation),
            Predicate::eq(pred_attr, first[0].clone()),
        );
        let warm_p = session.tsens(&qp, tree).unwrap();
        let naive_p = naive_local_sensitivity(mirror, &qp);
        prop_assert_eq!(warm_p.local_sensitivity, naive_p.local_sensitivity);
        prop_assert_eq!(
            session.count_query(&qp, tree).unwrap(),
            naive_count(mirror, &qp)
        );
    }
}

fn run_interleaved(db: Database, q: &ConjunctiveQuery, tree: &DecompositionTree, ops: &[Op]) {
    let mut mirror = db.clone();
    let mut session = EngineSession::new(&db);
    // Prime the caches so updates have something to invalidate.
    session.count_query(q, tree).unwrap();
    session.tsens(q, tree).unwrap();

    for (i, op) in ops.iter().enumerate() {
        apply_op(&mut session, &mut mirror, op);
        // Interleave a query check every few updates.
        if i % 3 == 2 {
            prop_assert_eq!(
                session.count_query(q, tree).unwrap(),
                naive_count(&mirror, q),
                "after op {}",
                i
            );
        }
    }

    // Full battery, twice: the second round must be pure cache hits.
    assert_matches_materialized(&session, &mirror, q, tree);
    let hits_before = session.stats().result_hits;
    assert_matches_materialized(&session, &mirror, q, tree);
    let stats = session.stats();
    // tsens + elastic always re-hit; the predicated variant only exists
    // when the first relation is non-empty.
    prop_assert!(
        stats.result_hits >= hits_before + 2,
        "second round must be served from the report cache ({} -> {})",
        hits_before,
        stats.result_hits
    );
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

fn ops_strategy(max_ops: usize, domain: i64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..3, 0usize..3, 0..domain, 0..domain), 1..max_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Path query R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3) under interleaved
    /// updates.
    #[test]
    fn updated_session_matches_materialized_on_paths(
        r0 in rows_strategy(8, 4),
        r1 in rows_strategy(8, 4),
        r2 in rows_strategy(8, 4),
        ops in ops_strategy(12, 4),
    ) {
        let (db, q) = database(&[("A0", "A1"), ("A1", "A2"), ("A2", "A3")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        run_interleaved(db, &q, &tree, &ops);
    }

    /// Star query R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C) under interleaved updates.
    #[test]
    fn updated_session_matches_materialized_on_stars(
        r0 in rows_strategy(7, 3),
        r1 in rows_strategy(7, 3),
        r2 in rows_strategy(7, 3),
        ops in ops_strategy(10, 3),
    ) {
        let (db, q) = database(&[("H", "A"), ("H", "B"), ("H", "C")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        run_interleaved(db, &q, &tree, &ops);
    }

    /// Triangle query R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD under
    /// interleaved updates.
    #[test]
    fn updated_session_matches_materialized_on_triangles(
        r0 in rows_strategy(6, 3),
        r1 in rows_strategy(6, 3),
        r2 in rows_strategy(6, 3),
        ops in ops_strategy(10, 3),
    ) {
        let (db, q) = database(&[("A", "B"), ("B", "C"), ("C", "A")], &[r0, r1, r2]);
        let ghd = auto_decompose(&q).unwrap();
        run_interleaved(db, &q, &ghd, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single-row write patches `mf` over the relation's leading
    /// columns instead of dropping it: after an insert into
    /// `Follow(U, V)`, `mf(Follow, {U})` is a cache hit. Every cached
    /// set (∅, {U}, {V}, {U, V}) answers what a fresh session over the
    /// mirror answers, after inserts, deletes and new-value epochs.
    #[test]
    fn leading_column_mf_is_patched_on_follow_writes(
        rows in rows_strategy(12, 4),
        ops in prop::collection::vec((0usize..3, 0..4i64, 0..4i64), 1..16),
    ) {
        let mut db = Database::new();
        let [u, v] = db.attrs(["U", "V"]);
        db.add_relation("Follow", relation(Schema::new(vec![u, v]), &rows))
            .unwrap();
        let mut mirror = db.clone();
        let mut session = EngineSession::owned(db);
        let sets: [&[AttrId]; 4] = [&[], &[u], &[v], &[u, v]];
        for attrs in sets {
            session.max_frequency(0, attrs).unwrap();
        }
        for &(kind, x, y) in &ops {
            apply_op(&mut session, &mut mirror, &(kind, 0, x, y));
            let fresh = EngineSession::new(&mirror);
            let hits = session.stats().mf_hits;
            let got = session.max_frequency(0, &[u]).unwrap();
            prop_assert_eq!(got, fresh.max_frequency(0, &[u]).unwrap());
            if kind != 1 {
                prop_assert_eq!(
                    session.stats().mf_hits,
                    hits + 1,
                    "mf(Follow, {{U}}) must be a hit after an insert"
                );
            }
            for attrs in sets {
                prop_assert_eq!(
                    session.max_frequency(0, attrs).unwrap(),
                    fresh.max_frequency(0, attrs).unwrap()
                );
            }
        }
    }
}

/// An update to one relation must leave queries over *other* relations
/// fully cached.
#[test]
fn untouched_queries_keep_hitting_caches_across_updates() {
    let rows: Vec<Vec<i64>> = (0..20).map(|i| vec![i % 5, (i * 7) % 5]).collect();
    let (db, q_all) = database(
        &[("A0", "A1"), ("A1", "A2"), ("A2", "A3")],
        &[rows.clone(), rows.clone(), rows],
    );
    // A second query over R2 only.
    let q_r2 = ConjunctiveQuery::over(&db, "r2", &["R2"]).unwrap();
    let t_all = gyo_decompose(&q_all).unwrap().expect_acyclic("path");
    let t_r2 = gyo_decompose(&q_r2).unwrap().expect_acyclic("single");

    let mut session = EngineSession::new(&db);
    let all_before = session.tsens(&q_all, &t_all).unwrap();
    let r2_report = session.tsens(&q_r2, &t_r2).unwrap();
    let misses_frozen = session.stats().result_misses;

    // 10 single-tuple updates to R0 — R2's caches must survive them all.
    for i in 0..10i64 {
        session
            .insert(0, vec![value(i % 4), value((i + 1) % 4)])
            .unwrap();
        let again = session.tsens(&q_r2, &t_r2).unwrap();
        assert_eq!(again.local_sensitivity, r2_report.local_sensitivity);
        assert_eq!(again.witness, r2_report.witness);
    }
    let stats = session.stats();
    assert_eq!(
        stats.result_misses, misses_frozen,
        "updates to R0 must not recompute R2 results"
    );
    assert!(stats.result_hits >= 10, "R2 queries were cache hits");

    // The touched query recomputes — against the maintained encoding,
    // matching a from-scratch run on the materialized database.
    let all_after = session.tsens(&q_all, &t_all).unwrap();
    let fresh = tsens(session.database(), &q_all, &t_all);
    assert_eq!(all_after.local_sensitivity, fresh.local_sensitivity);
    assert_eq!(all_after.witness, fresh.witness);
    let _ = all_before;
}

/// Acceptance criterion: single-tuple update + re-query on a warm
/// session beats a full session rebuild by ≥10×.
///
/// The database has two small "hot" relations (the re-queried join) and
/// two large "cold" ones (warm in the cache, untouched by the update) —
/// the rebuild pays to re-encode everything and re-run both queries,
/// the warm session pays one delta, one small pass recompute and two
/// cache hits.
#[test]
fn single_tuple_update_requery_beats_rebuild_10x() {
    use std::time::Instant;

    let small = 2_000usize;
    let large = 40_000usize;
    let mut db = Database::new();
    let [a, b, c, d, e, f] = db.attrs(["A", "B", "C", "D", "E", "F"]);
    let edge = |n: usize, k: i64| -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64 % k),
                    Value::Int((i as i64 * 13 + 1) % k),
                ]
            })
            .collect()
    };
    db.add_relation(
        "HotR",
        Relation::from_rows(Schema::new(vec![a, b]), edge(small, 211)),
    )
    .unwrap();
    db.add_relation(
        "HotS",
        Relation::from_rows(Schema::new(vec![b, c]), edge(small, 211)),
    )
    .unwrap();
    db.add_relation(
        "ColdT",
        Relation::from_rows(Schema::new(vec![d, e]), edge(large, 5_003)),
    )
    .unwrap();
    db.add_relation(
        "ColdU",
        Relation::from_rows(Schema::new(vec![e, f]), edge(large, 5_003)),
    )
    .unwrap();
    let hot = ConjunctiveQuery::over(&db, "hot", &["HotR", "HotS"]).unwrap();
    let cold = ConjunctiveQuery::over(&db, "cold", &["ColdT", "ColdU"]).unwrap();
    let t_hot = gyo_decompose(&hot).unwrap().expect_acyclic("path");
    let t_cold = gyo_decompose(&cold).unwrap().expect_acyclic("path");

    let mut session = EngineSession::new(&db);
    let hot_count = session.count_query(&hot, &t_hot).unwrap();
    let cold_count = session.count_query(&cold, &t_cold).unwrap();

    // Warm path: delta + re-query both (values already in the dict:
    // the realistic no-epoch fast path).
    let mut warm_best = f64::INFINITY;
    for i in 0..5i64 {
        let row = vec![Value::Int(i % 211), Value::Int((i + 1) % 211)];
        let t0 = Instant::now();
        session.insert(0, row.clone()).unwrap();
        let h = session.count_query(&hot, &t_hot).unwrap();
        let c = session.count_query(&cold, &t_cold).unwrap();
        warm_best = warm_best.min(t0.elapsed().as_secs_f64());
        assert!(h >= hot_count);
        assert_eq!(c, cold_count, "untouched query must not change");
        session.delete(0, row).unwrap();
    }

    // Rebuild path: fresh session (re-encode all four relations) + both
    // queries from cold.
    let current = session.database().clone();
    let mut rebuild_best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let fresh = EngineSession::new(&current);
        let h = fresh.count_query(&hot, &t_hot).unwrap();
        let c = fresh.count_query(&cold, &t_cold).unwrap();
        rebuild_best = rebuild_best.min(t0.elapsed().as_secs_f64());
        assert_eq!((h, c), (hot_count, cold_count));
    }

    eprintln!(
        "update+requery {:.3}ms vs rebuild {:.3}ms ({:.0}x)",
        warm_best * 1e3,
        rebuild_best * 1e3,
        rebuild_best / warm_best
    );
    assert!(
        warm_best * 10.0 <= rebuild_best,
        "update+requery ({:.3}ms) must be ≥10× faster than rebuild ({:.3}ms)",
        warm_best * 1e3,
        rebuild_best * 1e3,
    );
}
