//! Property test: **delta repair through snapshot publishes never
//! disturbs a pinned reader**. Random single-row insert/delete streams go
//! through [`SnapshotCell::update`] while a reader pins the snapshot
//! published before each update and keeps it across the next publish.
//! Every publish forks a session whose warm pass entries the pinned
//! snapshot still shares, so each step exercises the shallow-copy repair
//! path. After each step both snapshots must equal `naive_count` on
//! their own applied prefix, at the root and through every bag
//! (Σₖ ⊥(v)[k]·⊤(v)[k]), which checks the repaired ⊤ states too.
//!
//! Each case runs under the default pool (honouring `TSENS_THREADS`, so
//! CI's dual-mode matrix covers both) and under `Pool::sequential()`.

use proptest::prelude::*;
use std::sync::Arc;
use tsens_data::{Database, Relation, Row, Schema, Update, Value};
use tsens_engine::{lookup_join_enc, naive_count, EngineSession, Pool, SnapshotCell};
use tsens_query::{gyo_decompose, ConjunctiveQuery, DecompositionTree};

/// Path `A-B-C-D` and star-on-`A` shapes over three binary relations.
const SHAPES: [[(&str, &str); 3]; 2] = [
    [("A", "B"), ("B", "C"), ("C", "D")],
    [("A", "B"), ("A", "C"), ("A", "D")],
];

fn database(edges: &[(&str, &str)], rows: &[Vec<(i64, i64)>]) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let mut names = Vec::new();
    for (i, ((a1, a2), rel_rows)) in edges.iter().zip(rows).enumerate() {
        let schema = Schema::new(vec![db.attr(a1), db.attr(a2)]);
        let rows = rel_rows.iter().map(|&(x, y)| row(x, y)).collect();
        let name = format!("R{i}");
        db.add_relation(&name, Relation::from_rows(schema, rows))
            .unwrap();
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let q = ConjunctiveQuery::over(&db, "snap", &refs).unwrap();
    (db, q)
}

fn row(x: i64, y: i64) -> Row {
    vec![Value::Int(x), Value::Int(y)]
}

/// `session` answers exactly like `naive_count` on `db`, at the root and
/// through every bag.
fn check(
    session: &EngineSession<'static>,
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    label: &str,
) {
    let brute = naive_count(db, q);
    assert_eq!(
        session.count_query(q, tree).unwrap(),
        brute,
        "count ({label})"
    );
    let passes = session.passes(q, tree).unwrap();
    for (v, (bot, top)) in passes.bots.iter().zip(passes.tops(tree)).enumerate() {
        assert_eq!(
            lookup_join_enc(bot, top).total_count(),
            brute,
            "Σ ⊥(v)·⊤(v) at node {v} ({label})"
        );
    }
}

fn run_stream(
    db: &Database,
    q: &ConjunctiveQuery,
    steps: &[(usize, usize, (i64, i64))],
    pool: Pool,
) -> u64 {
    let tree = gyo_decompose(q).unwrap().expect_acyclic("acyclic shape");
    let cell = SnapshotCell::new(EngineSession::owned_with_pool(db.clone(), pool));
    let mut staged = db.clone();
    let mut pinned: Arc<EngineSession<'static>> = cell.load();
    let mut pinned_db = staged.clone();
    check(&pinned, &pinned_db, q, &tree, "initial");

    for (i, &(kind, rel, (x, y))) in steps.iter().enumerate() {
        let rel = rel % staged.relation_count();
        let update = if kind == 0 {
            staged.insert_row(rel, row(x, y));
            Update::insert(rel, row(x, y))
        } else {
            staged.remove_row(rel, &row(x, y));
            Update::delete(rel, row(x, y))
        };
        cell.update(|fork| fork.apply(update)).unwrap();

        let label = format!("step {i}");
        check(&cell.load(), &staged, q, &tree, &label);
        // The pin was taken before this publish and must still answer
        // its own prefix, even though the fork repaired entries it
        // shares.
        check(
            &pinned,
            &pinned_db,
            q,
            &tree,
            &format!("pinned before {label}"),
        );

        pinned = cell.load();
        pinned_db = staged.clone();
    }
    cell.load().stats().passes_maintained
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..4i64, 0..4i64), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pinned_and_published_snapshots_match_naive_on_their_prefixes(
        shape in 0..SHAPES.len(),
        r0 in rows_strategy(),
        r1 in rows_strategy(),
        r2 in rows_strategy(),
        // Kind 0 inserts, kind 1 deletes. Values in 0..4 mostly hit
        // the dictionary (the repair path); 4 is new to it and forces a
        // re-sort epoch (the fallback).
        steps in prop::collection::vec((0..2usize, 0..3usize, (0..5i64, 0..4i64)), 1..12),
    ) {
        let (db, q) = database(&SHAPES[shape], &[r0, r1, r2]);
        run_stream(&db, &q, &steps, Pool::default());
        run_stream(&db, &q, &steps, Pool::sequential());
    }
}

/// A deterministic stream that stays inside the dictionary must be
/// served by repair, not by dropping the shared entries.
#[test]
fn in_dictionary_stream_is_repaired_under_pins() {
    let rows = vec![
        vec![(0, 1), (1, 2)],
        vec![(1, 3), (2, 3)],
        vec![(3, 0), (3, 1)],
    ];
    let (db, q) = database(&SHAPES[0], &rows);
    let steps = [
        (0, 0, (0, 2)),
        (0, 1, (2, 3)),
        (1, 0, (0, 1)),
        (0, 2, (3, 1)),
        (1, 1, (1, 3)),
    ];
    for pool in [Pool::default(), Pool::sequential()] {
        let maintained = run_stream(&db, &q, &steps, pool);
        assert_eq!(maintained, steps.len() as u64, "one repair per update");
    }
}
