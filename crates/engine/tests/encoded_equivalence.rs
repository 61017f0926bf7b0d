//! Property tests: the encoded ⊥/⊤ passes agree with the brute-force
//! oracle [`naive_count`].
//!
//! For random path, star and triangle-GHD databases (with mixed Int/Str
//! columns) we check that
//!
//! * [`count_query`] == `naive_count`;
//! * at **every** bag `v`, `Σₖ ⊥(v)[k]·⊤(v)[k]` — the lookup join of the
//!   two summaries — equals `naive_count`: ⊥(v) counts the join of `v`'s
//!   subtree and ⊤(v) the join of its complement, and by the
//!   running-intersection property the two share exactly the key `k`;
//! * the sequential pool and a 4-thread pool produce byte-identical bags
//!   and ⊥/⊤ summaries.

use proptest::prelude::*;
use tsens_data::{Database, Relation, Schema, Value};
use tsens_engine::naive_eval::naive_count;
use tsens_engine::ops::lookup_join_enc;
use tsens_engine::yannakakis::count_query;
use tsens_engine::{EngineSession, Pool};
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree};

/// Mixed-type value: a third of the domain becomes strings so the
/// dictionary must keep ints and strings order-isomorphic side by side.
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

/// Build a database whose relation `i` is over the attribute pairs given
/// by `edges[i]` with the corresponding random rows.
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
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let q = ConjunctiveQuery::over(&db, "prop", &refs).unwrap();
    (db, q)
}

/// Assert the passes match the oracle at every node, under both pools.
fn assert_passes_match_naive(db: &Database, q: &ConjunctiveQuery, tree: &DecompositionTree) {
    let brute = naive_count(db, q);
    assert_eq!(count_query(db, q, tree), brute, "count vs naive");

    let seq_session = EngineSession::with_pool(db, Pool::sequential());
    let par_session = EngineSession::with_pool(db, Pool::new(4).unwrap());
    let seq = seq_session.passes(q, tree).unwrap();
    let par = par_session.passes(q, tree).unwrap();
    for passes in [&seq, &par] {
        for (v, (bot, top)) in passes.bots.iter().zip(passes.tops(tree)).enumerate() {
            let through_v = lookup_join_enc(bot, top).total_count();
            assert_eq!(through_v, brute, "Σ ⊥(v)·⊤(v) vs naive at node {v}");
        }
    }

    assert_eq!(seq.bags, par.bags, "bags differ between pools");
    assert_eq!(seq.bots, par.bots, "⊥ differs between pools");
    assert_eq!(seq.tops(tree), par.tops(tree), "⊤ differs between pools");
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Path query R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3).
    #[test]
    fn passes_match_naive_on_paths(
        r0 in rows_strategy(12, 4),
        r1 in rows_strategy(12, 4),
        r2 in rows_strategy(12, 4),
    ) {
        let (db, q) = database(
            &[("A0", "A1"), ("A1", "A2"), ("A2", "A3")],
            &[r0, r1, r2],
        );
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        assert_passes_match_naive(&db, &q, &tree);
    }

    /// Star query R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C) around a shared hub.
    #[test]
    fn passes_match_naive_on_stars(
        r0 in rows_strategy(10, 3),
        r1 in rows_strategy(10, 3),
        r2 in rows_strategy(10, 3),
    ) {
        let (db, q) = database(
            &[("H", "A"), ("H", "B"), ("H", "C")],
            &[r0, r1, r2],
        );
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        assert_passes_match_naive(&db, &q, &tree);
    }

    /// Triangle query R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD.
    #[test]
    fn passes_match_naive_on_triangles(
        r0 in rows_strategy(8, 3),
        r1 in rows_strategy(8, 3),
        r2 in rows_strategy(8, 3),
    ) {
        let (db, q) = database(
            &[("A", "B"), ("B", "C"), ("C", "A")],
            &[r0, r1, r2],
        );
        let ghd = auto_decompose(&q).unwrap();
        assert_passes_match_naive(&db, &q, &ghd);
    }
}
