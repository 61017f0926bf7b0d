//! Satellite regression: **query-time constants the database has never
//! seen must yield empty/zero answers, never panics** — for every
//! operator path that takes constants.
//!
//! The dictionary's `code()` panics on absent values by contract; these
//! tests pin down that no *request-reachable* path ever routes an
//! untrusted constant through it. Each predicate operator (`Eq`, `Ne`,
//! `Lt`, `Le`, `Gt`, `Ge`, `InSet`) is driven through the encoded
//! one-shot and session paths and the naive evaluator, which is the
//! ground truth on the same predicated query; table
//! probes and update paths get their own checks.

use tsens_core::{naive_local_sensitivity, tsens, SessionExt};
use tsens_data::{Database, Relation, Schema, Value};
use tsens_engine::yannakakis::count_query;
use tsens_engine::{naive_eval::naive_count, EngineSession};
use tsens_query::{gyo_decompose, ConjunctiveQuery, DecompositionTree, Predicate};

/// `R(A,B) ⋈ S(B,C)` over small integer/string values.
fn db_rs() -> (Database, ConjunctiveQuery, DecompositionTree) {
    let mut db = Database::new();
    let [a, b, c] = db.attrs(["A", "B", "C"]);
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(vec![a, b]),
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
            ],
        ),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(
            Schema::new(vec![b, c]),
            vec![
                vec![Value::str("x"), Value::Int(10)],
                vec![Value::str("y"), Value::Int(11)],
                vec![Value::str("y"), Value::Int(11)],
            ],
        ),
    )
    .unwrap();
    let q = ConjunctiveQuery::over(&db, "rs", &["R", "S"]).unwrap();
    let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
    (db, q, tree)
}

/// Every predicate operator with a constant the dictionary has never
/// seen, checked across the encoded one-shot and session paths, the
/// naive evaluator, and TSens — all must agree and none may panic.
#[test]
fn every_predicate_operator_with_unseen_constants() {
    let (db, q, tree) = db_rs();
    let a = db.attr_id("A").unwrap();
    let b = db.attr_id("B").unwrap();
    let unseen_int = Value::Int(999_999);
    let unseen_str = Value::str("never-seen");
    let cases: Vec<(&str, Predicate)> = vec![
        // Nothing equals / is-in a value that does not exist: empty.
        ("eq-int", Predicate::eq(a, unseen_int.clone())),
        ("eq-str", Predicate::Eq(b, unseen_str.clone())),
        (
            "in-set",
            Predicate::InSet(a, vec![unseen_int.clone(), Value::Int(-5)]),
        ),
        // Everything differs from a value that does not exist: full.
        ("ne", Predicate::Ne(a, unseen_int.clone())),
        // Ranges against unseen bounds partition the data normally.
        ("lt", Predicate::Lt(a, unseen_int.clone())),
        ("le", Predicate::Le(a, Value::Int(-999_999))),
        ("gt", Predicate::Gt(a, unseen_int.clone())),
        ("ge", Predicate::Ge(a, Value::Int(-999_999))),
        // Compound predicates mixing unseen constants.
        (
            "and-or",
            Predicate::eq(a, unseen_int.clone())
                .or(Predicate::Ne(b, unseen_str.clone()).and(Predicate::Lt(a, unseen_int))),
        ),
    ];
    for (label, pred) in cases {
        let qp = q.clone().with_predicate(&db, "R", pred);
        let expected = naive_count(&db, &qp);
        // One-shot (query-only session) and warm full session.
        assert_eq!(count_query(&db, &qp, &tree), expected, "{label}: encoded");
        let session = EngineSession::new(&db);
        assert_eq!(
            session.count_query(&qp, &tree).unwrap(),
            expected,
            "{label}: session"
        );
        // The full sensitivity algorithms run too, without panicking.
        // The predicate here constrains A, which only R has (a wildcard
        // attribute of R's table), so candidate insertions with A
        // outside the active domain stay undecided and TSens reports a
        // sound *upper bound* on the naive active-domain value.
        let report = tsens(&db, &qp, &tree);
        let naive = naive_local_sensitivity(&db, &qp);
        assert!(
            report.local_sensitivity >= naive.local_sensitivity,
            "{label}: tsens {} must upper-bound naive {}",
            report.local_sensitivity,
            naive.local_sensitivity
        );
        let topk = session.tsens_topk(&qp, &tree, 1_000).unwrap();
        assert_eq!(
            topk.local_sensitivity, report.local_sensitivity,
            "{label}: uncapped topk equals exact"
        );
    }

    // A predicate on the *covered* (join) attribute B with an unseen
    // constant kills every candidate outright: exact agreement with the
    // naive ground truth, at zero.
    let qp = q
        .clone()
        .with_predicate(&db, "R", Predicate::Eq(b, Value::str("never-seen")));
    assert_eq!(count_query(&db, &qp, &tree), 0);
    let report = tsens(&db, &qp, &tree);
    let naive = naive_local_sensitivity(&db, &qp);
    assert_eq!(report.local_sensitivity, naive.local_sensitivity);
    assert_eq!(
        report.per_relation[0].sensitivity, 0,
        "no candidate row of R survives"
    );
}

/// An equality on an unseen constant zeroes the count but TSens still
/// reports the (nonzero) sensitivity of *inserting* a matching tuple —
/// the empty lift flows through every pass without touching `code()`.
#[test]
fn unseen_eq_zeroes_count_but_keeps_insert_sensitivity() {
    let (db, q, tree) = db_rs();
    let a = db.attr_id("A").unwrap();
    let qp = q.with_predicate(&db, "R", Predicate::eq(a, Value::Int(777)));
    assert_eq!(count_query(&db, &qp, &tree), 0);
    let report = tsens(&db, &qp, &tree);
    // Inserting (777, "y") into R would join S's two "y" rows.
    assert_eq!(report.local_sensitivity, 2);
}

/// The session's predicated atom cache serves unseen-constant lifts
/// (empty) exactly like any other predicate — cached, shared, no panic.
#[test]
fn lifted_atom_with_unseen_constant_is_cached_and_empty() {
    let (db, q, _) = db_rs();
    let a = db.attr_id("A").unwrap();
    let qp = q.with_predicate(&db, "R", Predicate::eq(a, Value::Int(31_337)));
    let session = EngineSession::new(&db);
    let lift = session.lifted_atom(&qp.atoms()[0]).unwrap();
    assert!(lift.is_empty());
    let again = session.lifted_atom(&qp.atoms()[0]).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&lift, &again),
        "second probe is a cache hit"
    );
}

/// Multiplicity-table probes with unseen values in a **covered** column
/// return zero (a value outside the dictionary cannot be in any factor
/// table); unseen values in *uncovered* (wildcard) columns are simply
/// irrelevant to the lookup. Neither panics.
#[test]
fn table_probe_with_unseen_values_is_zero() {
    let (db, q, tree) = db_rs();
    let session = EngineSession::new(&db);
    let table = session.multiplicity_table_for(&q, &tree, 0).unwrap();
    let schema = &q.atoms()[0].schema;
    // B is R's only covered attribute (shared with S); A is a wildcard.
    let b = db.attr_id("B").unwrap();
    assert!(table.covered.contains(b));
    assert_eq!(table.covered.arity(), 1);
    // Unseen value in the covered column: zero.
    assert_eq!(
        table.sensitivity_of(schema, &[Value::Int(1), Value::str("never")]),
        0
    );
    // Unseen value in the wildcard column: same answer as any seen one.
    assert_eq!(
        table.sensitivity_of(schema, &[Value::Int(424_242), Value::str("x")]),
        table.sensitivity_of(schema, &[Value::Int(1), Value::str("x")]),
    );
    // Seen combination still resolves.
    assert!(table.sensitivity_of(schema, &[Value::Int(1), Value::str("x")]) > 0);
}

/// Update-path constants: deleting a row with unseen values is a clean
/// no-op, and membership probes answer `false` — never a panic.
#[test]
fn update_paths_tolerate_unseen_values() {
    let (db, q, tree) = db_rs();
    let mut session = EngineSession::new(&db);
    let before = session.count_query(&q, &tree).unwrap();
    assert!(!session
        .delete(0, vec![Value::Int(5_555), Value::str("zz")])
        .unwrap());
    assert!(!session
        .encoded()
        .contains(0, &[Value::Int(5_555), Value::str("zz")])
        .unwrap());
    assert_eq!(session.count_query(&q, &tree).unwrap(), before);
}

/// A predicate over an attribute the relation does not even have is a
/// typed error on the encoded path — not a panic, and not a silently
/// unfiltered answer.
#[test]
fn predicate_on_foreign_attribute_is_a_typed_error() {
    let (db, q, tree) = db_rs();
    let c = db.attr_id("C").unwrap(); // C is a column of S, not of R
    let qp = q
        .clone()
        .with_predicate(&db, "R", Predicate::eq(c, Value::Int(10)));
    let session = EngineSession::new(&db);
    assert!(matches!(
        session.count_query(&qp, &tree).err(),
        Some(tsens_data::TsensError::Data(_))
    ));
    // The session keeps serving well-formed queries afterwards.
    assert!(session.count_query(&q, &tree).is_ok());
}
