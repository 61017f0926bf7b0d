//! Engine-side view of the workspace worker pool: re-exports
//! [`tsens_data::Pool`] and adds the **level-wise scheduling** helpers
//! the parallel ⊥/⊤ passes use to respect a decomposition tree's
//! dependency order.
//!
//! The pass recurrences only couple a bag to its parent/children, so all
//! bags at the same "distance" from the frontier are independent:
//!
//! * the ⊥ pass (post-order, Eqn 7) needs every child finished before a
//!   parent starts → schedule by **height** (leaves first);
//! * the ⊤ pass (pre-order, Eqn 8) needs the parent finished before any
//!   child starts → schedule by **depth** (root first).
//!
//! Each level fans out across the pool; the barrier between levels is
//! the return of [`Pool::run`], which comes only after every bag of the
//! level is done and no helper still holds the level's job, so the
//! dependency order holds. For the bushy trees GHDs produce this exposes all
//! available per-bag parallelism; for a path-shaped tree every level has
//! one bag and the schedule degenerates to the sequential order.

use std::sync::atomic::{AtomicU64, Ordering};
pub use tsens_data::par::{Pool, THREADS_ENV};
use tsens_query::DecompositionTree;

/// Run one level's `units` through [`Pool::run`], adding `units` to
/// `counter` only when the level really fans out: at least two units on
/// a multi-threaded pool. A single unit, or any level on a sequential
/// pool, runs inline on the calling thread and counts nothing.
pub(crate) fn run_level<T, F>(pool: &Pool, counter: &AtomicU64, units: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if pool.size() > 1 && units > 1 {
        counter.fetch_add(units as u64, Ordering::Relaxed);
    }
    pool.run(units, f)
}

/// Bags grouped by height (distance to the deepest leaf below them):
/// `levels[0]` are the leaves, `levels.last()` contains the root. Within
/// a level bags are in index order; every bag's children are in a
/// strictly lower level — the ⊥ pass schedule.
pub fn levels_by_height(tree: &DecompositionTree) -> Vec<Vec<usize>> {
    let mut height = vec![0usize; tree.bag_count()];
    // Post-order visits children before parents, so one sweep suffices.
    for v in tree.post_order() {
        height[v] = tree
            .children(v)
            .iter()
            .map(|&c| height[c] + 1)
            .max()
            .unwrap_or(0);
    }
    group_by_level(&height)
}

/// Bags grouped by depth (distance from the root): `levels[0]` is the
/// root. Every bag's parent is in a strictly lower level — the ⊤ pass
/// schedule.
pub fn levels_by_depth(tree: &DecompositionTree) -> Vec<Vec<usize>> {
    let mut depth = vec![0usize; tree.bag_count()];
    // Pre-order visits parents before children.
    for v in tree.pre_order() {
        if let Some(p) = tree.parent(v) {
            depth[v] = depth[p] + 1;
        }
    }
    group_by_level(&depth)
}

fn group_by_level(level_of: &[usize]) -> Vec<Vec<usize>> {
    let max = level_of.iter().copied().max().unwrap_or(0);
    let mut levels = vec![Vec::new(); max + 1];
    for (v, &l) in level_of.iter().enumerate() {
        levels[l].push(v);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Database, Relation, Row, Schema, Value};
    use tsens_query::{gyo_decompose, ConjunctiveQuery};

    fn path4_tree() -> DecompositionTree {
        // R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) ⋈ R4(D,E): a path join tree.
        let mut db = Database::new();
        let [a, b, c, d, e] = db.attrs(["A", "B", "C", "D", "E"]);
        let row2 = |x: i64, y: i64| -> Row { vec![Value::Int(x), Value::Int(y)] };
        for (name, s0, s1) in [("R1", a, b), ("R2", b, c), ("R3", c, d), ("R4", d, e)] {
            db.add_relation(
                name,
                Relation::from_rows(Schema::new(vec![s0, s1]), vec![row2(1, 1)]),
            )
            .unwrap();
        }
        let q = ConjunctiveQuery::over(&db, "path4", &["R1", "R2", "R3", "R4"]).unwrap();
        gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic")
    }

    fn star4_tree() -> DecompositionTree {
        // Center R0(A,B,C) with leaves R1(A,X), R2(B,Y), R3(C,Z).
        let mut db = Database::new();
        let [a, b, c, x, y, z] = db.attrs(["A", "B", "C", "X", "Y", "Z"]);
        db.add_relation(
            "R0",
            Relation::from_rows(
                Schema::new(vec![a, b, c]),
                vec![vec![Value::Int(1), Value::Int(1), Value::Int(1)]],
            ),
        )
        .unwrap();
        let row2 = |p: i64, q: i64| -> Row { vec![Value::Int(p), Value::Int(q)] };
        for (name, s0, s1) in [("R1", a, x), ("R2", b, y), ("R3", c, z)] {
            db.add_relation(
                name,
                Relation::from_rows(Schema::new(vec![s0, s1]), vec![row2(1, 2)]),
            )
            .unwrap();
        }
        let q = ConjunctiveQuery::over(&db, "star4", &["R0", "R1", "R2", "R3"]).unwrap();
        gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic")
    }

    fn assert_valid_schedule(tree: &DecompositionTree) {
        let bot = levels_by_height(tree);
        let top = levels_by_depth(tree);
        assert_eq!(
            bot.iter().map(Vec::len).sum::<usize>(),
            tree.bag_count(),
            "every bag appears exactly once in the ⊥ schedule"
        );
        assert_eq!(top.iter().map(Vec::len).sum::<usize>(), tree.bag_count());
        let level_of = |levels: &[Vec<usize>], v: usize| {
            levels.iter().position(|l| l.contains(&v)).expect("present")
        };
        for v in 0..tree.bag_count() {
            // ⊥: children strictly before parents.
            for &c in tree.children(v) {
                assert!(level_of(&bot, c) < level_of(&bot, v));
            }
            // ⊤: parent strictly before children.
            if let Some(p) = tree.parent(v) {
                assert!(level_of(&top, p) < level_of(&top, v));
            }
        }
        assert_eq!(top[0], vec![tree.root()]);
    }

    #[test]
    fn path_schedule_respects_dependencies() {
        assert_valid_schedule(&path4_tree());
    }

    #[test]
    fn star_schedule_exposes_leaf_parallelism() {
        let tree = star4_tree();
        assert_valid_schedule(&tree);
        let bot = levels_by_height(&tree);
        // The star's leaves share the leaf level — that level carries
        // the pass's parallelism.
        assert!(
            bot[0].len() >= 2,
            "expected parallel leaves, got {bot:?} over {} bags",
            tree.bag_count()
        );
    }
}
