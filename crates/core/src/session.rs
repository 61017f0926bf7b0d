//! Sensitivity algorithms as session methods.
//!
//! [`EngineSession`] lives in `tsens-engine` (below this crate in the
//! dependency order), so the TSens algorithms attach to it through an
//! extension trait: `use tsens_core::SessionExt;` and every entry point
//! of this crate becomes a method on a warm session. The free functions
//! (`tsens`, `tsens_path`, `elastic_sensitivity`, …) remain available as
//! one-shot wrappers that build a throwaway session per call.
//!
//! ```
//! use tsens_core::SessionExt;
//! use tsens_data::{Database, Relation, Schema, Value};
//! use tsens_engine::EngineSession;
//! use tsens_query::{gyo_decompose, ConjunctiveQuery};
//!
//! let mut db = Database::new();
//! let [a, b] = db.attrs(["A", "B"]);
//! db.add_relation(
//!     "R",
//!     Relation::from_rows(
//!         Schema::new(vec![a, b]),
//!         vec![vec![Value::Int(1), Value::Int(2)]],
//!     ),
//! )
//! .unwrap();
//! let q = ConjunctiveQuery::over(&db, "q", &["R"]).unwrap();
//! let tree = gyo_decompose(&q).unwrap().expect_acyclic("single atom");
//!
//! let mut session = EngineSession::new(&db); // resident encoding, built once
//! let report = session.tsens(&q, &tree).unwrap(); // warm per-query call
//! assert_eq!(report.local_sensitivity, 1);
//!
//! // Sessions are mutable: interleave updates with queries (including
//! // `tsens_dp`'s `tsensdp_answer_session`) — the resident encoding is
//! // maintained in place, and cached ⊥/⊤ pass states of touched queries
//! // are *repaired* in O(delta) rather than invalidated whenever the
//! // update enters the join tree through a single unpredicated
//! // singleton bag. Cached `tsens`/`mtable` reports even survive an
//! // update outright when the repair proves no pass key group moved
//! // (the delta row joins nothing); every other divergence point falls
//! // back to selective invalidation, so answers always equal a fresh
//! // recompute.
//! session.insert(0, vec![Value::Int(3), Value::Int(4)]).unwrap();
//! assert_eq!(session.count_query(&q, &tree).unwrap(), 2);
//! assert!(session.delete(0, vec![Value::Int(3), Value::Int(4)]).unwrap());
//! ```

use crate::elastic::ElasticReport;
use crate::report::{MultiplicityTable, SensitivityReport};
use tsens_data::{sat_mul, Count, TsensError};
use tsens_engine::session::EngineSession;
use tsens_query::{auto_decompose, classify, ConjunctiveQuery, DecompositionTree, QueryError};

/// The TSens algorithm suite as methods on a warm [`EngineSession`].
///
/// Every method is observationally identical to its free-function
/// counterpart on the session's database; the difference is purely
/// amortization (shared dictionary, lifted atoms, pass states, cached
/// statistics and reports).
pub trait SessionExt {
    /// [`crate::tsens`] on the session's database.
    ///
    /// # Errors
    /// [`TsensError`] when one of the query's relations is outside the
    /// session's catalog — every method here is fallible for the
    /// same reason, so a serving front-end can turn a bad request into
    /// an error response instead of a dead worker.
    fn tsens(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<SensitivityReport, TsensError>;

    /// [`crate::tsens_with_skips`] on the session's database.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn tsens_with_skips(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        skip_atoms: &[usize],
    ) -> Result<SensitivityReport, TsensError>;

    /// [`crate::tsens_path`] on the session's database. `Ok(None)` means
    /// the query is not a (predicate-free) path join query.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn tsens_path(&self, cq: &ConjunctiveQuery) -> Result<Option<SensitivityReport>, TsensError>;

    /// [`crate::tsens_topk`] on the session's database.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn tsens_topk(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        k: usize,
    ) -> Result<SensitivityReport, TsensError>;

    /// [`crate::multiplicity_tables`] on the session's database.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn multiplicity_tables(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Vec<MultiplicityTable>, TsensError>;

    /// [`crate::multiplicity_table_for`] on the session's database.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn multiplicity_table_for(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        atom: usize,
    ) -> Result<MultiplicityTable, TsensError>;

    /// [`crate::elastic_sensitivity`] on the session's database.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn elastic_sensitivity(
        &self,
        cq: &ConjunctiveQuery,
        plan: &[usize],
        k: Count,
    ) -> Result<ElasticReport, TsensError>;

    /// [`crate::local_sensitivity`] on the session's database: classify
    /// the query, pick a decomposition, run the right algorithm
    /// (including the §5.4 handling of disconnected queries).
    ///
    /// # Errors
    /// Propagates query/decomposition construction failures and session
    /// serving failures ([`QueryError::Session`]).
    fn local_sensitivity(&self, cq: &ConjunctiveQuery) -> Result<SensitivityReport, QueryError>;
}

impl SessionExt for EngineSession<'_> {
    fn tsens(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<SensitivityReport, TsensError> {
        crate::acyclic::tsens_session(self, cq, tree)
    }

    fn tsens_with_skips(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        skip_atoms: &[usize],
    ) -> Result<SensitivityReport, TsensError> {
        crate::acyclic::tsens_with_skips_session(self, cq, tree, skip_atoms)
    }

    fn tsens_path(&self, cq: &ConjunctiveQuery) -> Result<Option<SensitivityReport>, TsensError> {
        crate::path::tsens_path_session(self, cq)
    }

    fn tsens_topk(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        k: usize,
    ) -> Result<SensitivityReport, TsensError> {
        crate::approx::tsens_topk_session(self, cq, tree, k)
    }

    fn multiplicity_tables(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Vec<MultiplicityTable>, TsensError> {
        crate::acyclic::multiplicity_tables_session(self, cq, tree)
    }

    fn multiplicity_table_for(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        atom: usize,
    ) -> Result<MultiplicityTable, TsensError> {
        crate::acyclic::multiplicity_table_for_session(self, cq, tree, atom)
    }

    fn elastic_sensitivity(
        &self,
        cq: &ConjunctiveQuery,
        plan: &[usize],
        k: Count,
    ) -> Result<ElasticReport, TsensError> {
        crate::elastic::elastic_sensitivity_session(self, cq, plan, k)
    }

    fn local_sensitivity(&self, cq: &ConjunctiveQuery) -> Result<SensitivityReport, QueryError> {
        if cq.is_connected() {
            let (_, tree) = classify(cq)?;
            let tree = match tree {
                Some(t) => t,
                None => auto_decompose(cq)?,
            };
            return Ok(self.tsens(cq, &tree)?);
        }

        // §5.4 "Disconnected join trees": run per component, then scale
        // each tuple sensitivity by the product of the other components'
        // counts. One session serves every component sub-query.
        let db = self.database();
        let components = cq.connected_components();
        let mut per_relation = Vec::with_capacity(cq.atom_count());
        let mut sub_reports = Vec::with_capacity(components.len());
        let mut sub_counts: Vec<Count> = Vec::with_capacity(components.len());
        for comp in &components {
            let sub = cq.restrict_to_atoms(db, comp)?;
            let (_, tree) = classify(&sub)?;
            let tree = match tree {
                Some(t) => t,
                None => auto_decompose(&sub)?,
            };
            sub_counts.push(self.count_query(&sub, &tree)?);
            sub_reports.push(self.tsens(&sub, &tree)?);
        }
        for (ci, report) in sub_reports.iter().enumerate() {
            let other_product: Count = sub_counts
                .iter()
                .enumerate()
                .filter(|&(cj, _)| cj != ci)
                .fold(1, |acc, (_, &c)| sat_mul(acc, c));
            for sub_rel in &report.per_relation {
                let mut scaled = sub_rel.clone();
                scaled.sensitivity = sat_mul(scaled.sensitivity, other_product);
                per_relation.push(scaled);
            }
        }
        Ok(SensitivityReport::from_per_relation(per_relation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Database, Relation, Schema, Value};
    use tsens_query::gyo_decompose;

    /// One warm session serving several distinct queries over the same
    /// database gives the same answers as one-shot calls, while sharing
    /// lifted atoms and statistics.
    #[test]
    fn warm_session_matches_one_shot_across_queries() {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let row2 = |x: i64, y: i64| vec![Value::Int(x), Value::Int(y)];
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a, b]),
                vec![row2(1, 10), row2(2, 10), row2(2, 11)],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(
                Schema::new(vec![b, c]),
                vec![row2(10, 20), row2(10, 21), row2(11, 20)],
            ),
        )
        .unwrap();
        let rs = ConjunctiveQuery::over(&db, "rs", &["R", "S"]).unwrap();
        let r_only = ConjunctiveQuery::over(&db, "r", &["R"]).unwrap();
        let tree_rs = gyo_decompose(&rs).unwrap().expect_acyclic("path");
        let tree_r = gyo_decompose(&r_only).unwrap().expect_acyclic("single");

        let session = tsens_engine::EngineSession::new(&db);
        for _ in 0..2 {
            let warm = session.tsens(&rs, &tree_rs).unwrap();
            let cold = crate::tsens(&db, &rs, &tree_rs);
            assert_eq!(warm.local_sensitivity, cold.local_sensitivity);
            assert_eq!(warm.witness, cold.witness);

            assert_eq!(
                session.tsens(&r_only, &tree_r).unwrap().local_sensitivity,
                crate::tsens(&db, &r_only, &tree_r).local_sensitivity
            );
            let plan = vec![0, 1];
            let warm_e = session.elastic_sensitivity(&rs, &plan, 0).unwrap();
            let cold_e = crate::elastic_sensitivity(&db, &rs, &plan, 0);
            assert_eq!(warm_e.overall, cold_e.overall);
            assert_eq!(warm_e.per_relation, cold_e.per_relation);

            assert_eq!(
                session.tsens_path(&rs).unwrap().unwrap().local_sensitivity,
                crate::tsens_path(&db, &rs).unwrap().local_sensitivity
            );
        }
        // The second round of tsens/elastic/path calls were report-cache
        // hits (3 report kinds × 2 queries would otherwise recompute).
        assert!(session.stats().result_hits >= 3);
    }

    #[test]
    fn session_local_sensitivity_handles_disconnected_queries() {
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
        let q = ConjunctiveQuery::over(&db, "rxs", &["R", "S"]).unwrap();
        let session = tsens_engine::EngineSession::new(&db);
        let warm = session.local_sensitivity(&q).unwrap();
        let cold = crate::local_sensitivity(&db, &q).unwrap();
        assert_eq!(warm.local_sensitivity, cold.local_sensitivity);
        assert_eq!(warm.local_sensitivity, 3);
    }
}
