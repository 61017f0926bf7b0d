//! Property tests: a **pooled session is observationally identical to a
//! sequential one**. `threads = 1` runs every pass level as an in-order
//! loop on the calling thread; these tests pin the other direction — a
//! 4-thread pool (level-parallel ⊥/⊤ passes, partitioned joins,
//! parallel encoding) must answer every query with exactly the same
//! counts, sensitivities, witnesses and elastic bounds.
//!
//! For random path, star and triangle databases (mixed Int/Str columns,
//! as in `session_equivalence`) each case opens TWO sessions over the
//! same catalog — one `Pool::sequential()`, one `Pool::new(4)` — and
//! interleaves `count_query`, `tsens`, `elastic_sensitivity` and a
//! predicated variant against both, including under interleaved
//! insert/delete batches so maintenance + re-encoding also agree.

use proptest::prelude::*;
use tsens_core::{plan_order_from_tree, SessionExt};
use tsens_data::{Database, Relation, Schema, Value};
use tsens_engine::{EngineSession, Pool};
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree, Predicate};

/// Mixed-type value: a third of the domain becomes strings so the
/// parallel per-relation encoding must agree with the sequential
/// dictionary order.
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

/// One update step applied identically to both sessions: insert a row
/// into relation `rel`, or delete it again if `remove` is set.
type Delta = (usize, Vec<i64>, usize);

/// Run the full query mix against both sessions and require identical
/// answers. `label` contextualizes failures across update rounds.
fn assert_round_equal(
    seq: &mut EngineSession,
    par: &mut EngineSession,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    q_pred: Option<&ConjunctiveQuery>,
    label: &str,
) {
    let plan = plan_order_from_tree(tree);

    prop_assert_eq!(
        seq.count_query(q, tree).unwrap(),
        par.count_query(q, tree).unwrap(),
        "count ({})",
        label
    );

    let rs = seq.tsens(q, tree).unwrap();
    let rp = par.tsens(q, tree).unwrap();
    prop_assert_eq!(
        rs.local_sensitivity,
        rp.local_sensitivity,
        "tsens LS ({})",
        label
    );
    prop_assert_eq!(&rs.witness, &rp.witness, "tsens witness ({})", label);
    prop_assert_eq!(rs.per_relation.len(), rp.per_relation.len());
    for (a, b) in rs.per_relation.iter().zip(rp.per_relation.iter()) {
        prop_assert_eq!(a.relation, b.relation, "per-relation order ({})", label);
        prop_assert_eq!(
            a.sensitivity,
            b.sensitivity,
            "relation {} ({})",
            a.relation,
            label
        );
    }

    let es = seq.elastic_sensitivity(q, &plan, 0).unwrap();
    let ep = par.elastic_sensitivity(q, &plan, 0).unwrap();
    prop_assert_eq!(es.overall, ep.overall, "elastic ({})", label);
    prop_assert_eq!(&es.per_relation, &ep.per_relation);

    if let Some(qp) = q_pred {
        prop_assert_eq!(
            seq.count_query(qp, tree).unwrap(),
            par.count_query(qp, tree).unwrap(),
            "predicated count ({})",
            label
        );
        let ps = seq.tsens(qp, tree).unwrap();
        let pp = par.tsens(qp, tree).unwrap();
        prop_assert_eq!(
            ps.local_sensitivity,
            pp.local_sensitivity,
            "predicated tsens ({})",
            label
        );
    }
}

fn assert_parallel_equivalent(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    deltas: &[Delta],
) {
    let mut seq = EngineSession::owned_with_pool(db.clone(), Pool::sequential());
    let mut par = EngineSession::owned_with_pool(db.clone(), Pool::new(4).expect("4 > 0"));
    prop_assert_eq!(seq.pool().size(), 1);
    prop_assert_eq!(par.pool().size(), 4);

    // A predicated variant of the same query exercises per-query cache
    // keys on both sides.
    let pred_attr = q.atoms()[0].schema.attrs()[0];
    let q_pred = db.relation(q.atoms()[0].relation).rows().first().map(|r| {
        q.clone().with_predicate(
            db,
            db.relation_name(q.atoms()[0].relation),
            Predicate::eq(pred_attr, r[0].clone()),
        )
    });

    assert_round_equal(&mut seq, &mut par, q, tree, q_pred.as_ref(), "initial");

    // Interleaved maintenance: identical deltas to both sessions, with a
    // re-query round after each one so invalidation + re-encoding run
    // under both pools.
    for (i, (rel, raw_row, remove)) in deltas.iter().enumerate() {
        let rel = rel % db.relation_count();
        let row: Vec<Value> = raw_row.iter().map(|&x| value(x)).collect();
        seq.insert(rel, row.clone()).unwrap();
        par.insert(rel, row.clone()).unwrap();
        if *remove == 1 {
            let ds = seq.delete(rel, row.clone()).unwrap();
            let dp = par.delete(rel, row).unwrap();
            prop_assert_eq!(ds, dp, "delete outcome (delta {})", i);
        }
        assert_round_equal(
            &mut seq,
            &mut par,
            q,
            tree,
            q_pred.as_ref(),
            &format!("after delta {i}"),
        );
    }

    // The parallel session must have actually scheduled pooled work at
    // some point (passes or joins) unless every input was trivially
    // small — we only require the counter to be readable, not nonzero,
    // since tiny random databases legitimately stay on fallback paths.
    let stats = par.stats();
    prop_assert_eq!(stats.pool_threads, 4);
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

fn deltas_strategy(domain: i64) -> impl Strategy<Value = Vec<Delta>> {
    prop::collection::vec(
        (
            0..3usize,
            prop::collection::vec(0..domain, 2..=2),
            0..2usize,
        ),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Path query R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3).
    #[test]
    fn parallel_matches_sequential_on_paths(
        r0 in rows_strategy(10, 4),
        r1 in rows_strategy(10, 4),
        r2 in rows_strategy(10, 4),
        deltas in deltas_strategy(4),
    ) {
        let (db, q) = database(&[("A0", "A1"), ("A1", "A2"), ("A2", "A3")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        assert_parallel_equivalent(&db, &q, &tree, &deltas);
    }

    /// Star query R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C) around a shared hub.
    #[test]
    fn parallel_matches_sequential_on_stars(
        r0 in rows_strategy(8, 3),
        r1 in rows_strategy(8, 3),
        r2 in rows_strategy(8, 3),
        deltas in deltas_strategy(3),
    ) {
        let (db, q) = database(&[("H", "A"), ("H", "B"), ("H", "C")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        assert_parallel_equivalent(&db, &q, &tree, &deltas);
    }

    /// Triangle query R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD.
    #[test]
    fn parallel_matches_sequential_on_triangles(
        r0 in rows_strategy(7, 3),
        r1 in rows_strategy(7, 3),
        r2 in rows_strategy(7, 3),
        deltas in deltas_strategy(3),
    ) {
        let (db, q) = database(&[("A", "B"), ("B", "C"), ("C", "A")], &[r0, r1, r2]);
        let ghd = auto_decompose(&q).unwrap();
        assert_parallel_equivalent(&db, &q, &ghd, &deltas);
    }
}

/// `parallel_pass_tasks` counts only ⊥/⊤ levels that really fan out (at
/// least two units on a multi-threaded pool). A sequential pool counts
/// nothing, and neither does a 2-atom path on 4 threads: every level of
/// its tree holds one bag, so `Pool::run` runs it inline. A star's three
/// leaves share a level and do run in parallel.
#[test]
fn parallel_pass_tasks_count_only_fanned_out_levels() {
    let pass_tasks = |db: &Database, q: &ConjunctiveQuery, tree: &DecompositionTree, threads| {
        let session = EngineSession::with_pool(db, Pool::new(threads).unwrap());
        session.count_query(q, tree).unwrap();
        session.tsens(q, tree).unwrap();
        session.stats().parallel_pass_tasks
    };

    let (path_db, path_q) = database(
        &[("A", "B"), ("B", "C")],
        &[vec![vec![1, 2], vec![2, 2]], vec![vec![2, 3], vec![2, 4]]],
    );
    let path_tree = gyo_decompose(&path_q).unwrap().expect_acyclic("path");

    let mut star_db = Database::new();
    let [a, b, c, x, y, z] = star_db.attrs(["A", "B", "C", "X", "Y", "Z"]);
    star_db
        .add_relation(
            "Hub",
            relation(Schema::new(vec![a, b, c]), &[vec![1, 2, 4], vec![1, 5, 4]]),
        )
        .unwrap();
    for (name, key, leaf) in [("L1", a, x), ("L2", b, y), ("L3", c, z)] {
        let rows = [vec![1, 7], vec![2, 8], vec![4, 7], vec![5, 8]];
        star_db
            .add_relation(name, relation(Schema::new(vec![key, leaf]), &rows))
            .unwrap();
    }
    let star_q = ConjunctiveQuery::over(&star_db, "star", &["Hub", "L1", "L2", "L3"]).unwrap();
    let star_tree =
        DecompositionTree::singleton(&star_q, vec![None, Some(0), Some(0), Some(0)]).unwrap();

    assert_eq!(pass_tasks(&path_db, &path_q, &path_tree, 1), 0);
    assert_eq!(pass_tasks(&star_db, &star_q, &star_tree, 1), 0);
    assert_eq!(
        pass_tasks(&path_db, &path_q, &path_tree, 4),
        0,
        "a path's one-bag levels run inline"
    );
    assert!(pass_tasks(&star_db, &star_q, &star_tree, 4) > 0);
}
