//! Property tests: a **delta-maintained session is observationally
//! identical to a fresh recompute**. After every update a warm
//! [`EngineSession`] answers from pass states that were repaired in
//! place (or selectively invalidated — the maintenance fallback), while
//! a brand-new session re-encodes the mutated catalog from scratch.
//! Counts, local sensitivities, per-relation sensitivities and elastic
//! bounds must agree exactly, across every divergence point the
//! maintenance path has:
//!
//! * in-dictionary single-tuple inserts/deletes — the O(delta) repair
//!   path proper;
//! * inserts of genuinely **new values** — a dict re-sort epoch, so
//!   repair must fall back to invalidation without changing answers;
//! * **overflow-code** inserts inside `apply_all` batches — repair runs
//!   *with* overflow codes (no epoch until batch end);
//! * deletes down to **zero-count keys** and deletes of absent rows —
//!   group removal and the no-op path;
//! * repeated touch-then-requery rounds, so already-repaired entries are
//!   repaired again (stale-state bugs compound; one round would hide
//!   them).
//!
//! Witnesses are deliberately **not** compared: a maintained entry may
//! pin a pre-epoch dictionary, whose code order can break max-entry ties
//! differently from a fresh encoding. Ties are semantically arbitrary —
//! every other observable is exact.
//!
//! Sessions are built with the default pool (honouring `TSENS_THREADS`),
//! so CI's dual-mode matrix runs this equivalence both sequentially and
//! level-parallel.

use proptest::prelude::*;
use tsens_core::{plan_order_from_tree, SessionExt};
use tsens_data::{Database, Relation, Schema, Update, Value};
use tsens_engine::EngineSession;
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree};

/// Mixed-type value; a third of the domain becomes strings so epochs and
/// overflow inserts exercise both dictionary segments.
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

/// One maintenance step: `kind` selects the divergence point, `rel`
/// picks the touched relation (mod relation count), `row` the subject.
///
/// * 0 — insert `row` (in-domain values: pure repair path);
/// * 1 — insert `row` shifted out of the initial domain (new values →
///   dict re-sort epoch → full-invalidation fallback);
/// * 2 — delete `row` (absent rows are no-ops; present groups may drop
///   to zero count);
/// * 3 — `apply_all` batch: insert `row`, insert the shifted row, insert
///   `row` again (the second insert mints overflow codes mid-batch, so
///   the third repairs against a dictionary holding overflow codes);
/// * 4 — insert then delete `row` (a key group created and emptied in
///   two consecutive repairs).
type Step = (usize, usize, Vec<i64>);

/// Offset far outside every row strategy's domain, so kind-1/3 inserts
/// are guaranteed to mint new dictionary values.
const NEW_VALUE_OFFSET: i64 = 1_000;

/// Compare the warm session against a fresh session over `model`, the
/// database the same updates were applied to independently.
fn assert_answers_match(
    warm: &mut EngineSession<'static>,
    model: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    label: &str,
) {
    let fresh = EngineSession::new(model);
    prop_assert_eq!(
        warm.database().total_tuples(),
        model.total_tuples(),
        "catalog tuple count ({})",
        label
    );
    let plan = plan_order_from_tree(tree);

    prop_assert_eq!(
        warm.count_query(q, tree).unwrap(),
        fresh.count_query(q, tree).unwrap(),
        "count ({})",
        label
    );

    let rw = warm.tsens(q, tree).unwrap();
    let rf = fresh.tsens(q, tree).unwrap();
    prop_assert_eq!(
        rw.local_sensitivity,
        rf.local_sensitivity,
        "tsens LS ({})",
        label
    );
    prop_assert_eq!(rw.per_relation.len(), rf.per_relation.len());
    for (a, b) in rw.per_relation.iter().zip(rf.per_relation.iter()) {
        prop_assert_eq!(a.relation, b.relation, "per-relation order ({})", label);
        prop_assert_eq!(
            a.sensitivity,
            b.sensitivity,
            "relation {} ({})",
            a.relation,
            label
        );
    }

    let ew = warm.elastic_sensitivity(q, &plan, 0).unwrap();
    let ef = fresh.elastic_sensitivity(q, &plan, 0).unwrap();
    prop_assert_eq!(ew.overall, ef.overall, "elastic ({})", label);
    prop_assert_eq!(&ew.per_relation, &ef.per_relation, "elastic per-relation");
}

fn assert_maintained_equivalent(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    steps: &[Step],
) {
    let mut warm = EngineSession::owned(db.clone());
    let mut model = db.clone();
    // Warm every cache layer before the first delta so each step
    // exercises repair-of-repaired state, not a cold rebuild.
    assert_answers_match(&mut warm, &model, q, tree, "initial");

    for (i, (kind, rel, raw_row)) in steps.iter().enumerate() {
        let rel = rel % warm.database().relation_count();
        let row: Vec<Value> = raw_row.iter().map(|&x| value(x)).collect();
        let shifted: Vec<Value> = raw_row
            .iter()
            .map(|&x| value(x + NEW_VALUE_OFFSET))
            .collect();
        match kind % 5 {
            0 => {
                warm.insert(rel, row.clone()).unwrap();
                model.insert_row(rel, row);
            }
            1 => {
                warm.insert(rel, shifted.clone()).unwrap();
                model.insert_row(rel, shifted);
            }
            2 => {
                let removed = warm.delete(rel, row.clone()).unwrap();
                prop_assert_eq!(removed, model.remove_row(rel, &row), "step {}", i);
            }
            3 => {
                let batch = vec![
                    Update::insert(rel, row.clone()),
                    Update::insert(rel, shifted),
                    Update::insert(rel, row),
                ];
                for update in &batch {
                    model.apply(update);
                }
                warm.apply_all(batch).unwrap();
            }
            _ => {
                warm.insert(rel, row.clone()).unwrap();
                let removed = warm.delete(rel, row).unwrap();
                prop_assert!(removed, "the row was just inserted (step {})", i);
            }
        }
        assert_answers_match(&mut warm, &model, q, tree, &format!("after step {i}"));
    }
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

fn steps_strategy(domain: i64) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0..5usize,
            0..3usize,
            prop::collection::vec(0..domain, 2..=2),
        ),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Path query R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3).
    #[test]
    fn maintained_matches_recompute_on_paths(
        r0 in rows_strategy(10, 4),
        r1 in rows_strategy(10, 4),
        r2 in rows_strategy(10, 4),
        steps in steps_strategy(4),
    ) {
        let (db, q) = database(&[("A0", "A1"), ("A1", "A2"), ("A2", "A3")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        assert_maintained_equivalent(&db, &q, &tree, &steps);
    }

    /// Star query R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C) around a shared hub.
    #[test]
    fn maintained_matches_recompute_on_stars(
        r0 in rows_strategy(8, 3),
        r1 in rows_strategy(8, 3),
        r2 in rows_strategy(8, 3),
        steps in steps_strategy(3),
    ) {
        let (db, q) = database(&[("H", "A"), ("H", "B"), ("H", "C")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        assert_maintained_equivalent(&db, &q, &tree, &steps);
    }

    /// Triangle query R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD — bags
    /// here hold several atoms, so maintenance must take the
    /// invalidation fallback and still agree.
    #[test]
    fn maintained_matches_recompute_on_triangles(
        r0 in rows_strategy(7, 3),
        r1 in rows_strategy(7, 3),
        r2 in rows_strategy(7, 3),
        steps in steps_strategy(3),
    ) {
        let (db, q) = database(&[("A", "B"), ("B", "C"), ("C", "A")], &[r0, r1, r2]);
        let ghd = auto_decompose(&q).unwrap();
        assert_maintained_equivalent(&db, &q, &ghd, &steps);
    }
}
