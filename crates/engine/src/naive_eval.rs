//! Brute-force query evaluation: materialise the full join.
//!
//! Exponential in the query size; used as ground truth in tests and by the
//! naive local-sensitivity baseline (Theorem 3.1) on small instances.
//!
//! This is the workspace's single test oracle, so it shares no code with
//! the engine it checks: it joins `Value` rows with its own private hash
//! join and join-order planner instead of the encoded operators of
//! [`crate::ops`].

use tsens_data::fast::fast_map_with_capacity;
use tsens_data::{sat_mul, Count, CountedRelation, Database, FastMap, FastSet, Row, Value};
use tsens_query::ConjunctiveQuery;

/// Materialise `Q(D)` as a counted relation over all query attributes
/// (selection predicates applied). Handles disconnected queries via cross
/// products.
pub fn full_join(db: &Database, cq: &ConjunctiveQuery) -> CountedRelation {
    let lifted: Vec<CountedRelation> = cq
        .atoms()
        .iter()
        .map(|atom| {
            let rel = db.relation(atom.relation);
            if atom.predicate.is_trivial() {
                CountedRelation::from_relation(rel)
            } else {
                CountedRelation::from_relation(
                    &rel.filtered(|row| atom.predicate.eval(&atom.schema, row)),
                )
            }
        })
        .collect();
    let refs: Vec<&CountedRelation> = lifted.iter().collect();
    multiway_join(&refs)
}

/// `|Q(D)|` under bag semantics, by materialising the full join.
pub fn naive_count(db: &Database, cq: &ConjunctiveQuery) -> Count {
    full_join(db, cq).total_count()
}

/// Project `row` onto the positions `idx`.
fn project_row(row: &[Value], idx: &[usize]) -> Row {
    idx.iter().map(|&i| row[i].clone()).collect()
}

/// Natural join `r⋈` over `Value` rows: join on all shared attributes,
/// multiply counts. Result schema is `left ∪ right` (left's columns
/// first); with no shared attributes it is the counted cross product.
fn hash_join(left: &CountedRelation, right: &CountedRelation) -> CountedRelation {
    let shared = left.schema().intersect(right.schema());
    let right_extra = right.schema().difference(left.schema());
    let l_key = left.schema().projection_indices(&shared);
    let r_key = right.schema().projection_indices(&shared);
    let r_extra = right.schema().projection_indices(&right_extra);

    let mut index: FastMap<Row, Vec<(Row, Count)>> = fast_map_with_capacity(right.len());
    for (row, c) in right.iter() {
        index
            .entry(project_row(row, &r_key))
            .or_default()
            .push((project_row(row, &r_extra), *c));
    }
    let mut out = CountedRelation::new(left.schema().union(right.schema()));
    for (lrow, lc) in left.iter() {
        if let Some(matches) = index.get(&project_row(lrow, &l_key)) {
            for (extra, rc) in matches {
                let mut row = lrow.clone();
                row.extend(extra.iter().cloned());
                out.push(row, sat_mul(*lc, *rc));
            }
        }
    }
    out
}

/// Equijoin size estimate under uniformity, `|A|·|B| / max(d_A, d_B)`
/// with `d` the distinct join keys; a plain product for cross products.
fn estimate_join(acc: &CountedRelation, rel: &CountedRelation) -> u128 {
    let shared = acc.schema().intersect(rel.schema());
    let product = acc.len() as u128 * rel.len() as u128;
    if shared.is_empty() {
        return product;
    }
    let distinct = |r: &CountedRelation| {
        let idx = r.schema().projection_indices(&shared);
        let keys: FastSet<Row> = r.iter().map(|(row, _)| project_row(row, &idx)).collect();
        keys.len()
    };
    product / (distinct(acc).max(distinct(rel)).max(1) as u128)
}

/// Join every input, taking at each step the unused input with the
/// smallest [`estimate_join`] against the accumulated result (ties →
/// lowest index), so connected inputs are joined before any cross
/// product. The first input's columns come first.
fn multiway_join(inputs: &[&CountedRelation]) -> CountedRelation {
    let (first, rest) = inputs.split_first().expect("a query has atoms");
    let mut rest = rest.to_vec();
    let mut acc = (*first).clone();
    while !rest.is_empty() {
        let best = (0..rest.len())
            .min_by_key(|&i| estimate_join(&acc, rest[i]))
            .expect("rest is non-empty");
        acc = hash_join(&acc, rest.remove(best));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{AttrId, Relation, Schema};

    fn counted(sch: &[u32], entries: &[(&[i64], Count)]) -> CountedRelation {
        CountedRelation::from_pairs(
            Schema::new(sch.iter().map(|&i| AttrId(i)).collect()),
            entries
                .iter()
                .map(|(r, c)| (r.iter().map(|&v| Value::Int(v)).collect(), *c))
                .collect(),
        )
    }

    fn ints(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn join_without_shared_attrs_is_cross_product() {
        let r = counted(&[0], &[(&[1], 2), (&[2], 1)]);
        let s = counted(&[1], &[(&[10], 3)]);
        let j = hash_join(&r, &s);
        assert_eq!(j.len(), 2);
        assert_eq!(j.count_of(&ints(&[1, 10])), 6);
        assert_eq!(j.total_count(), 9);
    }

    #[test]
    fn join_column_order_is_left_then_right_extra() {
        let r = counted(&[2, 0], &[(&[5, 1], 1)]);
        let s = counted(&[0, 3], &[(&[1, 9], 1)]);
        let j = hash_join(&r, &s);
        assert_eq!(
            j.schema(),
            &Schema::new(vec![AttrId(2), AttrId(0), AttrId(3)])
        );
        assert_eq!(j.entries()[0].0, ints(&[5, 1, 9]));
    }

    #[test]
    fn join_counts_saturate_instead_of_overflowing() {
        let r = counted(&[0], &[(&[1], Count::MAX)]);
        let s = counted(&[0], &[(&[1], 3)]);
        assert_eq!(hash_join(&r, &s).count_of(&ints(&[1])), Count::MAX);
    }

    /// Figure 1 of the paper: the four-relation join with exactly one
    /// output tuple.
    fn figure1() -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let [a, b, c, d, e, f] = db.attrs(["A", "B", "C", "D", "E", "F"]);
        let v = |s: &str| Value::str(s);
        let r = |vals: Vec<Vec<Value>>| vals;
        db.add_relation(
            "R1",
            Relation::from_rows(
                Schema::new(vec![a, b, c]),
                r(vec![
                    vec![v("a1"), v("b1"), v("c1")],
                    vec![v("a1"), v("b2"), v("c1")],
                    vec![v("a2"), v("b1"), v("c1")],
                ]),
            ),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(
                Schema::new(vec![a, b, d]),
                r(vec![
                    vec![v("a1"), v("b1"), v("d1")],
                    vec![v("a2"), v("b2"), v("d2")],
                ]),
            ),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(
                Schema::new(vec![a, e]),
                r(vec![
                    vec![v("a1"), v("e1")],
                    vec![v("a2"), v("e1")],
                    vec![v("a2"), v("e2")],
                ]),
            ),
        )
        .unwrap();
        db.add_relation(
            "R4",
            Relation::from_rows(
                Schema::new(vec![b, f]),
                r(vec![
                    vec![v("b1"), v("f1")],
                    vec![v("b2"), v("f1")],
                    vec![v("b2"), v("f2")],
                ]),
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "fig1", &["R1", "R2", "R3", "R4"]).unwrap();
        (db, q)
    }

    #[test]
    fn figure1_join_has_one_tuple() {
        let (db, q) = figure1();
        let out = full_join(&db, &q);
        assert_eq!(out.total_count(), 1);
        // The single output tuple is (a1,b1,c1,d1,e1,f1) — Figure 1(b).
        let (row, c) = out.max_entry().unwrap();
        assert_eq!(c, 1);
        let strs: Vec<&str> = row.iter().map(|v| v.as_str().unwrap()).collect();
        assert!(strs.contains(&"a1") && strs.contains(&"f1") && strs.contains(&"d1"));
    }

    #[test]
    fn inserting_the_most_sensitive_tuple_adds_four() {
        // Example 2.1: adding (a2,b2,c1) to R1 raises the output size by 4.
        let (mut db, q) = figure1();
        let t: Row = vec![Value::str("a2"), Value::str("b2"), Value::str("c1")];
        db.insert_row(0, t);
        assert_eq!(naive_count(&db, &q), 5);
    }

    #[test]
    fn removing_a_tuple_drops_one() {
        // Example 2.1: removing (a1,b1,c1) from R1 removes the only output.
        let (mut db, q) = figure1();
        let t: Row = vec![Value::str("a1"), Value::str("b1"), Value::str("c1")];
        assert!(db.remove_row(0, &t));
        assert_eq!(naive_count(&db, &q), 0);
    }

    #[test]
    fn disconnected_query_cross_product() {
        let mut db = Database::new();
        let [x, y] = db.attrs(["X", "Y"]);
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![x]),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(Schema::new(vec![y]), vec![vec![Value::Int(7)]; 3]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "x", &["R", "S"]).unwrap();
        assert_eq!(naive_count(&db, &q), 6);
    }
}
