//! Yannakakis-style count evaluation for acyclic counting queries.
//!
//! A single bottom-up ⊥ pass over a join tree computes `|Q(D)|` in
//! `O(n log n)` without materialising the (possibly exponential) output —
//! the "query evaluation" baseline of the paper's Figure 7 / Table 1.
//! For cyclic queries, pass a GHD: each bag is joined first (the paper's
//! §7.2 procedure: "we first compute the join for each node in the
//! generalized hypertree, and then apply Yannakakis algorithm").

use tsens_data::{Count, Database};
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// Bag-semantics output size `|Q(D)|` via the bottom-up count pass over
/// `tree`. Works for join trees (acyclic queries) and GHDs alike.
///
/// One-shot wrapper over a throwaway session
/// ([`EngineSession::for_query`](crate::session::EngineSession::for_query))
/// whose catalog keeps the rows of `cq`'s relations only, so a single
/// query never pays to encode the rest of the catalog. Callers answering more than
/// one query over the same database should hold a full
/// [`crate::session::EngineSession`] instead — the encoding, the lifted
/// atoms, and the ⊥ pass are then amortized across queries.
pub fn count_query(db: &Database, cq: &ConjunctiveQuery, tree: &DecompositionTree) -> Count {
    crate::session::EngineSession::for_query(db, cq)
        .count_query(cq, tree)
        .expect("one-shot sessions serve their query's relations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_eval::naive_count;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use tsens_data::{Relation, Schema, Value};
    use tsens_query::{auto_decompose, gyo_decompose};

    fn random_path_db(
        seed: u64,
        m: usize,
        rows: usize,
        domain: i64,
    ) -> (Database, ConjunctiveQuery) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        let attrs: Vec<_> = (0..=m).map(|i| db.attr(&format!("A{i}"))).collect();
        let mut names = Vec::new();
        for i in 0..m {
            let schema = Schema::new(vec![attrs[i], attrs[i + 1]]);
            let mut rel = Relation::new(schema);
            for _ in 0..rows {
                rel.push(vec![
                    Value::Int(rng.random_range(0..domain)),
                    Value::Int(rng.random_range(0..domain)),
                ]);
            }
            let name = format!("R{i}");
            db.add_relation(&name, rel).unwrap();
            names.push(name);
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let q = ConjunctiveQuery::over(&db, "rand-path", &refs).unwrap();
        (db, q)
    }

    #[test]
    fn matches_brute_force_on_random_paths() {
        for seed in 0..10 {
            let (db, q) = random_path_db(seed, 4, 12, 4);
            let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
            assert_eq!(
                count_query(&db, &q, &tree),
                naive_count(&db, &q),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_triangle_ghd() {
        let mut rng = StdRng::seed_from_u64(42);
        for _case in 0..10 {
            let mut db = Database::new();
            let [a, b, c] = db.attrs(["A", "B", "C"]);
            for (name, s1, s2) in [("R1", a, b), ("R2", b, c), ("R3", c, a)] {
                let mut rel = Relation::new(Schema::new(vec![s1, s2]));
                for _ in 0..10 {
                    rel.push(vec![
                        Value::Int(rng.random_range(0..3)),
                        Value::Int(rng.random_range(0..3)),
                    ]);
                }
                db.add_relation(name, rel).unwrap();
            }
            let q = ConjunctiveQuery::over(&db, "tri", &["R1", "R2", "R3"]).unwrap();
            let ghd = auto_decompose(&q).unwrap();
            assert_eq!(count_query(&db, &q, &ghd), naive_count(&db, &q));
        }
    }

    #[test]
    fn empty_relation_gives_zero() {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        db.add_relation(
            "R",
            Relation::from_rows(Schema::new(vec![a]), vec![vec![Value::Int(1)]]),
        )
        .unwrap();
        db.add_relation("S", Relation::new(Schema::new(vec![a, b])))
            .unwrap();
        let q = ConjunctiveQuery::over(&db, "qe", &["R", "S"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        assert_eq!(count_query(&db, &q, &tree), 0);
    }

    #[test]
    fn single_relation_counts_rows() {
        let mut db = Database::new();
        let a = db.attr("A");
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a]),
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                ],
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "one", &["R"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("single");
        assert_eq!(count_query(&db, &q, &tree), 3);
    }
}
