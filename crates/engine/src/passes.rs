//! The ⊥ (botjoin) and ⊤ (topjoin) passes over a decomposition tree —
//! Eqns (4)–(8) of the paper, generalized from join trees to GHDs.
//!
//! Both the Yannakakis count evaluation and the TSens sensitivity
//! algorithms are built from these passes:
//!
//! * `⊥(v) = γ_{S_v ∩ S_p(v)} ( r⋈( bag(v), {⊥(c) : c ∈ children(v)} ) )`
//!   computed in post-order (Eqn 7);
//! * `⊤(v) = γ_{S_v ∩ S_p(v)} ( r⋈( bag(p), ⊤(p), {⊥(s) : s ∈ N(v)} ) )`
//!   computed in pre-order (Eqn 8), with `⊤(root)` the unit relation.
//!
//! Every relation joined into a node here is keyed on a subset of that
//! node's schema, so each step is a linear scan with hash lookups
//! ([`crate::ops::lookup_join_enc`]) — the source of the near-linear
//! running time of §4/§5.3.
//!
//! Each pass has one implementation, which takes a worker pool and runs
//! the tree level by level ([`crate::pool`]). A sequential pool runs
//! every level as an in-order loop on the calling thread, so
//! `Pool::sequential()` is the single-threaded engine.
//!
//! Both recurrences are **multilinear** in the per-row counts of their
//! inputs (each input contributes exactly one factor to every count
//! product). [`crate::maintain`] exploits this for O(delta) repair of
//! cached pass states under single-tuple updates: replace the one
//! changed input by its delta, read every other input at its current
//! value, and the aggregation of that substituted form *is* the exact
//! change of the state.

use crate::ops::{lookup_join_enc, multiway_join_enc};
use crate::pool::{levels_by_depth, levels_by_height, run_level, Pool};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use tsens_data::EncodedRelation;
use tsens_query::DecompositionTree;

/// Materialise each bag's relation: the multiplicity-join of its lifted
/// atoms, in tree-bag order.
///
/// A singleton bag *is* its lifted atom, so it is shared (one `Arc`
/// clone) rather than copied; only multi-atom GHD bags materialise an
/// in-bag join — the `O(n^p)` factor of §5.4's complexity bound. Those
/// joins (cyclic GHD bags like q3's root) fan out via
/// [`multiway_join_enc`]'s per-step partitioning, which sidesteps nested
/// `pool.run` calls entirely. Used by both the exact pass cache and the
/// top-k capped passes so the two paths cannot diverge.
pub fn bag_relations_from_arcs_pooled(
    lifted: &[Arc<EncodedRelation>],
    tree: &DecompositionTree,
    pool: &Pool,
    join_tasks: &AtomicU64,
) -> Vec<Arc<EncodedRelation>> {
    tree.bags()
        .iter()
        .map(|bag| match bag.atoms[..] {
            [ai] => Arc::clone(&lifted[ai]),
            _ => {
                let refs: Vec<&EncodedRelation> =
                    bag.atoms.iter().map(|&ai| &*lifted[ai]).collect();
                Arc::new(multiway_join_enc(&refs, pool, join_tasks))
            }
        })
        .collect()
}

/// Post-order ⊥ pass (Eqn 7). `bots[v]` has schema `S_v ∩ S_{p(v)}`; the
/// root's botjoin is grouped onto the **empty** schema, so its single
/// entry's count is the bag-semantics output size `|Q(D)|` (this is where
/// our implementation folds the paper's separate root case of Algorithm 2
/// step I into the same formula). The first child join reads `bags[v]`
/// in place, so leaf-heavy trees never copy a bag.
///
/// Eqn 7 only couples a bag to its children, so all bags of equal height
/// are independent: each level fans out across `pool`, and the pool's
/// scope join is the barrier that upholds post-order. Bags of a level
/// that really runs in parallel add one each to `tasks`.
pub fn botjoin_pass_enc_pooled(
    tree: &DecompositionTree,
    bags: &[&EncodedRelation],
    pool: &Pool,
    tasks: &AtomicU64,
) -> Vec<EncodedRelation> {
    let mut bots: Vec<Option<EncodedRelation>> = vec![None; tree.bag_count()];
    for level in levels_by_height(tree) {
        let computed = run_level(pool, tasks, level.len(), |k| {
            let v = level[k];
            let mut acc: Option<EncodedRelation> = None;
            for &c in tree.children(v) {
                let child_bot = bots[c].as_ref().expect("lower level already computed");
                let joined = lookup_join_enc(acc.as_ref().unwrap_or(bags[v]), child_bot);
                acc = Some(joined);
            }
            match acc {
                Some(a) => a.group(&tree.up_schema(v)),
                None => bags[v].group(&tree.up_schema(v)),
            }
        });
        for (k, b) in computed.into_iter().enumerate() {
            bots[level[k]] = Some(b);
        }
    }
    bots.into_iter()
        .map(|b| b.expect("all bags visited"))
        .collect()
}

/// Pre-order ⊤ pass (Eqn 8). `tops[v]` has schema `S_v ∩ S_{p(v)}` and
/// counts the partial-join paths through the *complement* of `v`'s
/// subtree. `tops[root]` is the unit relation (no constraint, count 1),
/// which subsumes the paper's "if p(R_i) is root" special case.
///
/// Levels run by depth, root first, each in two steps. First the
/// distinct parents' `bag(p) r⋈ ⊤(p)` bases: this prefix of Eqn 8 is the
/// same for every child of `p`, so it is computed **once per parent**
/// (every parent of a depth-`d` bag sits at depth `d−1`, so its ⊤ is
/// ready). Then the per-bag sibling joins; sibling ⊥ values come from the
/// finished ⊥ pass, so bags within a level never depend on each other.
/// Both steps fan out across `pool`, and each step that really runs in
/// parallel adds its unit count to `tasks`.
pub fn topjoin_pass_enc_pooled(
    tree: &DecompositionTree,
    bags: &[&EncodedRelation],
    bots: &[&EncodedRelation],
    pool: &Pool,
    tasks: &AtomicU64,
) -> Vec<EncodedRelation> {
    let mut tops: Vec<Option<EncodedRelation>> = vec![None; tree.bag_count()];
    tops[tree.root()] = Some(EncodedRelation::unit());
    let levels = levels_by_depth(tree);
    for level in &levels[1..] {
        let mut parents: Vec<usize> = level
            .iter()
            .map(|&v| tree.parent(v).expect("non-root level"))
            .collect();
        parents.sort_unstable();
        parents.dedup();
        let bases = run_level(pool, tasks, parents.len(), |k| {
            let p = parents[k];
            let parent_top = tops[p].as_ref().expect("shallower level already computed");
            lookup_join_enc(bags[p], parent_top)
        });
        let mut base: Vec<Option<EncodedRelation>> = vec![None; tree.bag_count()];
        for (k, b) in bases.into_iter().enumerate() {
            base[parents[k]] = Some(b);
        }
        let computed = run_level(pool, tasks, level.len(), |k| {
            let v = level[k];
            let p = tree.parent(v).expect("non-root level");
            let shared = base[p].as_ref().expect("parent base just computed");
            let mut acc: Option<EncodedRelation> = None;
            for s in tree.neighbors(v) {
                let joined = lookup_join_enc(acc.as_ref().unwrap_or(shared), bots[s]);
                acc = Some(joined);
            }
            let acc = acc.unwrap_or_else(|| shared.clone());
            acc.group(&tree.up_schema(v))
        });
        for (k, t) in computed.into_iter().enumerate() {
            tops[level[k]] = Some(t);
        }
    }
    tops.into_iter()
        .map(|t| t.expect("all bags visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EngineSession, QueryPasses};
    use tsens_data::{Database, Relation, Row, Schema, Value};
    use tsens_query::{gyo_decompose, ConjunctiveQuery};

    /// Bags and ⊥ pass of `(q, tree)` over a sequential session, with
    /// the ⊤ pass forced.
    fn run_passes(
        db: &Database,
        q: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Arc<QueryPasses> {
        let passes = EngineSession::with_pool(db, Pool::sequential())
            .passes(q, tree)
            .unwrap();
        passes.tops(tree);
        passes
    }

    /// The paper's Figure 3 database:
    /// R1(A,B), R2(B,C), R3(C,D), R4(D,E).
    fn figure3() -> (Database, ConjunctiveQuery, DecompositionTree) {
        let mut db = Database::new();
        let [a, b, c, d, e] = db.attrs(["A", "B", "C", "D", "E"]);
        let row2 = |x: i64, y: i64| -> Row { vec![Value::Int(x), Value::Int(y)] };
        // Values: a1=1.., b1=10.., c1=20.., d1=30.., e1=40..
        db.add_relation(
            "R1",
            Relation::from_rows(
                Schema::new(vec![a, b]),
                vec![row2(1, 10), row2(1, 11), row2(2, 11), row2(2, 11)],
            ),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(
                Schema::new(vec![b, c]),
                vec![row2(10, 20), row2(10, 21), row2(11, 20), row2(11, 20)],
            ),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(
                Schema::new(vec![c, d]),
                vec![row2(20, 30), row2(20, 30), row2(21, 30), row2(21, 31)],
            ),
        )
        .unwrap();
        db.add_relation(
            "R4",
            Relation::from_rows(
                Schema::new(vec![d, e]),
                vec![row2(30, 40), row2(30, 41), row2(30, 42), row2(31, 43)],
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "fig3", &["R1", "R2", "R3", "R4"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        (db, q, tree)
    }

    #[test]
    fn botjoin_root_counts_output_size() {
        let (db, q, tree) = figure3();
        let passes = run_passes(&db, &q, &tree);
        // Cross-check against brute force.
        let brute = crate::naive_eval::naive_count(&db, &q);
        assert_eq!(passes.bots[tree.root()].total_count(), brute);
        assert!(brute > 0);
    }

    #[test]
    fn figure3_topjoin_and_botjoin_values() {
        // The paper works out ⊤(R2) = {(b1: 2)} and ⊥(R3) = {(c1: 2)}
        // for its Figure 3 variant where R1 = {(a1,b1),(a2,b1)},
        // R2 = {(b1,c1),(b2,c2)}, R3 = {(c1,d1),(c1,d2)}, R4 = {(d1,e1),(d2,e1)}.
        let mut db = Database::new();
        let [a, b, c, d, e] = db.attrs(["A", "B", "C", "D", "E"]);
        let row2 = |x: i64, y: i64| -> Row { vec![Value::Int(x), Value::Int(y)] };
        db.add_relation(
            "R1",
            Relation::from_rows(Schema::new(vec![a, b]), vec![row2(1, 10), row2(2, 10)]),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(Schema::new(vec![b, c]), vec![row2(10, 20), row2(11, 21)]),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(Schema::new(vec![c, d]), vec![row2(20, 30), row2(20, 31)]),
        )
        .unwrap();
        db.add_relation(
            "R4",
            Relation::from_rows(Schema::new(vec![d, e]), vec![row2(30, 40), row2(31, 40)]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "fig3b", &["R1", "R2", "R3", "R4"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let passes = run_passes(&db, &q, &tree);
        let (bots, tops) = (&passes.bots, passes.tops(&tree));

        // |Q(D)| = 4 (paper's Figure 3 output: 4 rows).
        assert_eq!(bots[tree.root()].total_count(), 4);

        // Find the tree node for atom R2 (atom index 1) and R3 (index 2).
        let node_of_atom = |ai: usize| {
            (0..tree.bag_count())
                .find(|&bnode| tree.bags()[bnode].atoms.contains(&ai))
                .unwrap()
        };
        let n2 = node_of_atom(1);
        let n1 = node_of_atom(0);
        // The paper computes the sensitivity of R2's tuple (b1,c1) as
        // (#paths on the R1 side, keyed on B) × (#paths on the R3⋈R4 side,
        // keyed on C) = 2 × 2 = 4. In our GYO rooting those two factors are
        // ⊤(R2) (the complement of R2's subtree) and ⊥(R1) (R2's only
        // child): each has a single entry of count 2.
        let t2 = &tops[n2];
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.count(0), 2);
        assert_eq!(tree.parent(n1), Some(n2));
        let b1 = &bots[n1];
        assert_eq!(b1.len(), 1);
        assert_eq!(b1.count(0), 2);
        assert_eq!(b1.schema().attrs(), &[b]);
        let _ = (a, c, d, e);
    }

    #[test]
    fn predicates_filter_bag_relations() {
        let (db, q, tree) = figure3();
        let a = db.attr_id("A").unwrap();
        let q2 = q.with_predicate(&db, "R1", tsens_query::Predicate::eq(a, Value::Int(1)));
        let passes = run_passes(&db, &q2, &tree);
        // Only the two A=1 rows of R1 survive in its bag.
        let node_of_atom0 = (0..tree.bag_count())
            .find(|&bn| tree.bags()[bn].atoms.contains(&0))
            .unwrap();
        assert_eq!(passes.bags[node_of_atom0].total_count(), 2);
    }

    #[test]
    fn top_of_root_is_unit() {
        let (db, q, tree) = figure3();
        let passes = run_passes(&db, &q, &tree);
        assert_eq!(*passes.tops(&tree)[tree.root()], EncodedRelation::unit());
    }

    #[test]
    fn bot_schemas_match_up_schemas() {
        let (db, q, tree) = figure3();
        let passes = run_passes(&db, &q, &tree);
        for (v, bot) in passes.bots.iter().enumerate() {
            assert_eq!(bot.schema(), &tree.up_schema(v));
        }
    }
}
