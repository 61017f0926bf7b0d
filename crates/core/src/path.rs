//! Algorithm 1: local sensitivity of **path join queries** in
//! `O(n log n)` (§4).
//!
//! `Q_path(A_0..A_m) :- R_1(A_0,A_1), R_2(A_1,A_2), …, R_m(A_{m-1},A_m)`
//!
//! The sensitivity of a tuple `(a, b)` in `R_i` is the number of incoming
//! partial paths ending at `a` (the topjoin `J(R_i)`, counting
//! `R_1 ⋈ … ⋈ R_{i-1}` grouped on `A_{i-1}`) times the number of outgoing
//! partial paths starting at `b` (the botjoin `K(R_{i+1})`, counting
//! `R_{i+1} ⋈ … ⋈ R_m` grouped on `A_i`). Because `J` and `K` share no
//! attributes, the most sensitive tuple of `R_i` simply pairs their
//! individually-maximal entries (Eqn 3) — no cross product is ever
//! materialised.
//!
//! This module is the paper-faithful specialisation; it is cross-checked
//! against the general Algorithm 2 in tests and benchmarked against it in
//! `tsens-bench`. "Adjacent relations sharing more than one attribute" is
//! supported by treating the shared attribute *set* as the composite key.

use crate::report::{RelationSensitivity, SensitivityReport, TupleRef};
use tsens_data::{sat_mul, Database, EncodedRelation, Schema, TsensError, Value};
use tsens_engine::ops::lookup_join_enc;
use tsens_engine::session::EngineSession;
use tsens_query::analysis::path_order;
use tsens_query::ConjunctiveQuery;

/// Run Algorithm 1 as a one-shot call (fresh session). Returns `None`
/// when `cq` is not a path join query or carries non-trivial selection
/// predicates (use [`crate::tsens`], which handles both, in that case).
pub fn tsens_path(db: &Database, cq: &ConjunctiveQuery) -> Option<SensitivityReport> {
    tsens_path_session(&EngineSession::for_query(db, cq), cq)
        .expect("one-shot sessions serve their query's relations")
}

/// Run Algorithm 1 over a warm session: lifted atoms come from the
/// session's atom cache (shared with every other algorithm touching the
/// same relations) and the finished report is memoized per query.
pub fn tsens_path_session(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
) -> Result<Option<SensitivityReport>, TsensError> {
    let Some(order) = path_order(cq) else {
        return Ok(None);
    };
    if cq.atoms().iter().any(|a| !a.predicate.is_trivial()) {
        return Ok(None);
    }
    let cached = session.try_cached_query_result("tsens_path", cq, None, &[], || {
        tsens_path_ordered(session, cq, &order)
    })?;
    Ok(Some((*cached).clone()))
}

/// The body of Algorithm 1 for a query already known to be a path, with
/// `order[i]` the atom index at path position `i`.
fn tsens_path_ordered(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
    order: &[usize],
) -> Result<SensitivityReport, TsensError> {
    let m = order.len();
    let atom_schema = |i: usize| -> &Schema { &cq.atoms()[order[i]].schema };

    if m == 1 {
        // Single relation: LS = 1, any tuple (Section 2.1).
        let rel = cq.atoms()[order[0]].relation;
        let arity = atom_schema(0).arity();
        let rs = RelationSensitivity {
            relation: rel,
            sensitivity: 1,
            witness: Some(TupleRef {
                relation: rel,
                values: vec![None; arity],
            }),
        };
        return Ok(SensitivityReport::from_per_relation(vec![rs]));
    }

    // keys[i] = A_i = attributes shared between path positions i and i+1.
    let keys: Vec<Schema> = (0..m - 1)
        .map(|i| atom_schema(i).intersect(atom_schema(i + 1)))
        .collect();

    // The passes run dictionary-encoded (flat u32 rows) over the
    // session's cached lifts; witnesses are decoded back to values at the
    // report boundary below.
    let dict = std::sync::Arc::clone(session.dict());
    let lifted_all = session.lift_query(cq)?;
    let lifted: Vec<&EncodedRelation> = order.iter().map(|&ai| &*lifted_all[ai]).collect();

    // I) topjoins: tops[i] = J(R_{i+1}) keyed on keys[i], counting partial
    //    paths R_1..R_{i+1}; tops[0] = γ_{A_1}(R_1).
    let mut tops: Vec<EncodedRelation> = Vec::with_capacity(m - 1);
    tops.push(lifted[0].group(&keys[0]));
    for i in 1..m - 1 {
        let joined = lookup_join_enc(lifted[i], &tops[i - 1]);
        tops.push(joined.group(&keys[i]));
    }

    // II) botjoins: bots[i] = K(R_{i+1}) keyed on keys[i], counting partial
    //     paths R_{i+2}..R_m read backwards; bots[m-2] = γ_{A_{m-1}}(R_m).
    let mut bots: Vec<Option<EncodedRelation>> = vec![None; m - 1];
    bots[m - 2] = Some(lifted[m - 1].group(&keys[m - 2]));
    for i in (0..m - 2).rev() {
        let next = bots[i + 1].as_ref().expect("filled by previous iteration");
        let joined = lookup_join_enc(lifted[i + 1], next);
        bots[i] = Some(joined.group(&keys[i]));
    }
    let bots: Vec<EncodedRelation> = bots.into_iter().map(|b| b.expect("filled")).collect();

    // III) most sensitive tuple per relation: pair the max-count incoming
    //      entry with the max-count outgoing entry.
    let mut per_relation = Vec::with_capacity(m);
    for i in 0..m {
        let rel = cq.atoms()[order[i]].relation;
        let schema = atom_schema(i);
        let top_entry = if i == 0 {
            None
        } else {
            Some(tops[i - 1].max_entry())
        };
        let bot_entry = if i == m - 1 {
            None
        } else {
            Some(bots[i].max_entry())
        };

        // An interior relation whose incoming or outgoing side is empty
        // cannot contribute any output tuple: sensitivity 0.
        let (top_vals, top_cnt) = match top_entry {
            None => (None, 1),
            Some(None) => {
                per_relation.push(RelationSensitivity {
                    relation: rel,
                    sensitivity: 0,
                    witness: None,
                });
                continue;
            }
            Some(Some((row, c))) => (Some((&tops[i - 1], row)), c),
        };
        let (bot_vals, bot_cnt) = match bot_entry {
            None => (None, 1),
            Some(None) => {
                per_relation.push(RelationSensitivity {
                    relation: rel,
                    sensitivity: 0,
                    witness: None,
                });
                continue;
            }
            Some(Some((row, c))) => (Some((&bots[i], row)), c),
        };

        let mut values: Vec<Option<Value>> = vec![None; schema.arity()];
        let mut place = |src: Option<(&EncodedRelation, &[u32])>| {
            if let Some((keyed, row)) = src {
                for (k, &attr) in keyed.schema().attrs().iter().enumerate() {
                    let pos = schema.position(attr).expect("key attrs belong to the atom");
                    values[pos] = Some(dict.decode(row[k]));
                }
            }
        };
        place(top_vals);
        place(bot_vals);
        per_relation.push(RelationSensitivity {
            relation: rel,
            sensitivity: sat_mul(top_cnt, bot_cnt),
            witness: Some(TupleRef {
                relation: rel,
                values,
            }),
        });
    }
    per_relation.sort_by_key(|rs| rs.relation);
    Ok(SensitivityReport::from_per_relation(per_relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Relation, Row};
    use tsens_query::gyo_decompose;

    /// The paper's Figure 3 example (second variant):
    /// R1 = {(a1,b1),(a2,b1)}, R2 = {(b1,c1),(b2,c2)},
    /// R3 = {(c1,d1),(c1,d2)}, R4 = {(d1,e1),(d2,e1)}.
    fn figure3() -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let [a, b, c, d, e] = db.attrs(["A", "B", "C", "D", "E"]);
        let r2 = |x: i64, y: i64| -> Row { vec![Value::Int(x), Value::Int(y)] };
        db.add_relation(
            "R1",
            Relation::from_rows(Schema::new(vec![a, b]), vec![r2(1, 10), r2(2, 10)]),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(Schema::new(vec![b, c]), vec![r2(10, 20), r2(11, 21)]),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(Schema::new(vec![c, d]), vec![r2(20, 30), r2(20, 31)]),
        )
        .unwrap();
        db.add_relation(
            "R4",
            Relation::from_rows(Schema::new(vec![d, e]), vec![r2(30, 40), r2(31, 40)]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "fig3", &["R1", "R2", "R3", "R4"]).unwrap();
        (db, q)
    }

    #[test]
    fn figure3_most_sensitive_tuple_in_r2() {
        // Example 4.1/4.2: adding or removing (b1, c1) in R2 changes the
        // output by 2 × 2 = 4.
        let (db, q) = figure3();
        let report = tsens_path(&db, &q).unwrap();
        assert_eq!(report.local_sensitivity, 4);
        let w = report.witness.as_ref().unwrap();
        assert_eq!(w.relation, 1);
        assert_eq!(w.values, vec![Some(Value::Int(10)), Some(Value::Int(20))]);
    }

    #[test]
    fn matches_general_algorithm_on_figure3() {
        let (db, q) = figure3();
        let p = tsens_path(&db, &q).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
        let g = crate::acyclic::tsens(&db, &q, &tree);
        assert_eq!(p.local_sensitivity, g.local_sensitivity);
        for (pr, gr) in p.per_relation.iter().zip(g.per_relation.iter()) {
            assert_eq!(pr.relation, gr.relation);
            assert_eq!(pr.sensitivity, gr.sensitivity, "relation {}", pr.relation);
        }
    }

    #[test]
    fn endpoint_relations_get_wildcards() {
        let (db, q) = figure3();
        let report = tsens_path(&db, &q).unwrap();
        // R1's witness: A is a wildcard (A_0 takes any value), B is fixed.
        let r1 = &report.per_relation[0];
        let w = r1.witness.as_ref().unwrap();
        assert_eq!(w.values[0], None);
        assert!(w.values[1].is_some());
        // R4's witness: D fixed, E wildcard.
        let r4 = &report.per_relation[3];
        let w4 = r4.witness.as_ref().unwrap();
        assert!(w4.values[0].is_some());
        assert_eq!(w4.values[1], None);
    }

    #[test]
    fn non_path_query_returns_none() {
        let mut db = Database::new();
        let [a, b, c, d] = db.attrs(["A", "B", "C", "D"]);
        for (n, s1, s2) in [("R1", a, b), ("R2", b, c), ("R3", b, d)] {
            db.add_relation(n, Relation::new(Schema::new(vec![s1, s2])))
                .unwrap();
        }
        let q = ConjunctiveQuery::over(&db, "y", &["R1", "R2", "R3"]).unwrap();
        assert!(tsens_path(&db, &q).is_none());
    }

    #[test]
    fn predicated_query_returns_none() {
        let (db, q) = figure3();
        let a = db.attr_id("A").unwrap();
        let q = q.with_predicate(&db, "R1", tsens_query::Predicate::eq(a, Value::Int(1)));
        assert!(tsens_path(&db, &q).is_none());
    }

    #[test]
    fn empty_interior_side_gives_zero_sensitivity() {
        // R2 is empty: interior relations still have nonzero upward
        // sensitivity (connecting R1 to R3-R4 paths) but R1's outgoing side
        // is empty... build: R1={...}, R2=∅, R3, R4 as in figure3.
        let (mut db, q) = figure3();
        let r2_rows: Vec<Row> = db.relation(1).rows().to_vec();
        for r in &r2_rows {
            db.remove_row(1, r);
        }
        let report = tsens_path(&db, &q).unwrap();
        // Inserting (b1, c1) into R2 still creates 4 outputs: LS = 4.
        assert_eq!(report.local_sensitivity, 4);
        // R1 cannot contribute: its outgoing side K(R2) is empty.
        assert_eq!(report.per_relation[0].sensitivity, 0);
        assert!(report.per_relation[0].witness.is_none());
    }

    #[test]
    fn single_relation_path() {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a, b]),
                vec![vec![Value::Int(1), Value::Int(2)]],
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "one", &["R"]).unwrap();
        let report = tsens_path(&db, &q).unwrap();
        assert_eq!(report.local_sensitivity, 1);
    }

    #[test]
    fn random_paths_match_naive() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            let attrs: Vec<_> = (0..4).map(|i| db.attr(&format!("A{i}"))).collect();
            for i in 0..3 {
                let mut rel = Relation::new(Schema::new(vec![attrs[i], attrs[i + 1]]));
                for _ in 0..8 {
                    rel.push(vec![
                        Value::Int(rng.random_range(0..3)),
                        Value::Int(rng.random_range(0..3)),
                    ]);
                }
                db.add_relation(&format!("R{i}"), rel).unwrap();
            }
            let q = ConjunctiveQuery::over(&db, "rp", &["R0", "R1", "R2"]).unwrap();
            let p = tsens_path(&db, &q).unwrap();
            let n = crate::naive::naive_local_sensitivity(&db, &q);
            assert_eq!(p.local_sensitivity, n.local_sensitivity, "seed {seed}");
        }
    }
}
