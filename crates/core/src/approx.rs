//! §5.4 "Efficient approximations": top-k frequency capping.
//!
//! The exact algorithm's topjoin/botjoin summaries can grow large counts
//! for many distinct keys (for some queries the multiplicity tables grow
//! quadratically, §7.2). The paper proposes keeping only the `k` largest
//! frequencies exactly and rounding every remaining active value **up** to
//! the k-th largest frequency — the result is an *upper bound* on every
//! tuple sensitivity (and therefore on the local sensitivity), computed
//! from summaries whose distinct-frequency support is bounded by `k`.
//!
//! We apply the capping after every `γ` in the ⊤/⊥ passes and in the
//! multiplicity-table step. The accuracy/`k` trade-off is measured by the
//! `bench_ablation` benchmark.

use crate::report::SensitivityReport;
use std::sync::atomic::AtomicU64;
use tsens_data::{Count, Database, EncodedRelation, TsensError};
use tsens_engine::ops::lookup_join_enc;
use tsens_engine::passes::bag_relations_from_arcs_pooled;
use tsens_engine::session::EngineSession;
use tsens_engine::Pool;
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// Round every count below the k-th largest up to the k-th largest
/// (keeping the top-k counts exact). Identity when the relation has at
/// most `k` entries; rows (already distinct and sorted) are unchanged, so
/// the capped relation stays canonical.
///
/// # Panics
/// Panics if `k == 0`.
pub fn cap_top_k_enc(rel: &EncodedRelation, k: usize) -> EncodedRelation {
    assert!(k > 0, "top-k capping needs k ≥ 1");
    if rel.len() <= k {
        return rel.clone();
    }
    let mut counts: Vec<Count> = rel.iter().map(|(_, c)| c).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let kth = counts[k - 1];
    let mut out = EncodedRelation::with_capacity(rel.schema().clone(), rel.len());
    for (row, c) in rel.iter() {
        out.push(row, c.max(kth));
    }
    out
}

/// `TSens` with top-k capped summaries, as a one-shot call (fresh
/// session): returns an **upper bound** report
/// (`report.local_sensitivity ≥` the exact value; equality when every
/// summary has at most `k` distinct keys).
pub fn tsens_topk(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    k: usize,
) -> SensitivityReport {
    tsens_topk_session(&EngineSession::for_query(db, cq), cq, tree, k)
        .expect("one-shot sessions serve their query's relations")
}

/// [`tsens_topk`] over a warm session. The lifted atoms come from the
/// session's cross-query atom cache; the capped passes themselves are
/// k-dependent and recomputed, but the finished report is memoized per
/// `(query, tree, k)`.
pub fn tsens_topk_session(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    k: usize,
) -> Result<SensitivityReport, TsensError> {
    assert!(k > 0, "top-k capping needs k ≥ 1");
    let cached =
        session.try_cached_query_result("tsens_topk", cq, Some(tree), &[k as u128], || {
            tsens_topk_uncached(session, cq, tree, k)
        })?;
    Ok((*cached).clone())
}

fn tsens_topk_uncached(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    k: usize,
) -> Result<SensitivityReport, TsensError> {
    let lifted = session.lift_query(cq)?;
    let bags =
        bag_relations_from_arcs_pooled(&lifted, tree, &Pool::sequential(), &AtomicU64::new(0));

    // Capped ⊥ pass.
    let mut bots: Vec<Option<EncodedRelation>> = vec![None; tree.bag_count()];
    for v in tree.post_order() {
        let mut acc: Option<EncodedRelation> = None;
        for &c in tree.children(v) {
            let child_bot = bots[c].as_ref().expect("post-order");
            acc = Some(lookup_join_enc(acc.as_ref().unwrap_or(&bags[v]), child_bot));
        }
        let grouped = match acc {
            Some(a) => a.group(&tree.up_schema(v)),
            None => bags[v].group(&tree.up_schema(v)),
        };
        bots[v] = Some(cap_top_k_enc(&grouped, k));
    }
    let bots: Vec<EncodedRelation> = bots.into_iter().map(|b| b.expect("visited")).collect();

    // Capped ⊤ pass.
    let mut tops: Vec<Option<EncodedRelation>> = vec![None; tree.bag_count()];
    for v in tree.pre_order() {
        let Some(p) = tree.parent(v) else {
            tops[v] = Some(EncodedRelation::unit());
            continue;
        };
        let mut acc = lookup_join_enc(&bags[p], tops[p].as_ref().expect("pre-order"));
        for s in tree.neighbors(v) {
            acc = lookup_join_enc(&acc, &bots[s]);
        }
        tops[v] = Some(cap_top_k_enc(&acc.group(&tree.up_schema(v)), k));
    }
    let tops: Vec<EncodedRelation> = tops.into_iter().map(|t| t.expect("visited")).collect();

    // Multiplicity tables from the capped summaries.
    let mut per_relation = Vec::with_capacity(cq.atom_count());
    #[allow(clippy::needless_range_loop)] // v indexes three parallel node arrays
    for v in 0..tree.bag_count() {
        for &ai in &tree.bags()[v].atoms {
            let atom = &cq.atoms()[ai];
            let mut inputs: Vec<&EncodedRelation> = Vec::new();
            if tree.parent(v).is_some() {
                inputs.push(&tops[v]);
            }
            for &c in tree.children(v) {
                inputs.push(&bots[c]);
            }
            for &other in &tree.bags()[v].atoms {
                if other != ai {
                    inputs.push(&lifted[other]);
                }
            }
            let table = crate::acyclic::assemble_table_enc(atom, &inputs, session.dict());
            per_relation.push(table.max_sensitivity(&atom.schema));
        }
    }
    per_relation.sort_by_key(|rs| rs.relation);
    Ok(SensitivityReport::from_per_relation(per_relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use tsens_data::{Relation, Schema, Value};
    use tsens_query::gyo_decompose;

    fn random_path(seed: u64) -> (Database, ConjunctiveQuery, DecompositionTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        let attrs: Vec<_> = (0..4).map(|i| db.attr(&format!("A{i}"))).collect();
        for i in 0..3 {
            let mut rel = Relation::new(Schema::new(vec![attrs[i], attrs[i + 1]]));
            for _ in 0..20 {
                rel.push(vec![
                    Value::Int(rng.random_range(0..5)),
                    Value::Int(rng.random_range(0..5)),
                ]);
            }
            db.add_relation(&format!("R{i}"), rel).unwrap();
        }
        let q = ConjunctiveQuery::over(&db, "rp", &["R0", "R1", "R2"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
        (db, q, tree)
    }

    /// A one-column encoded relation with the given `(code, count)` rows.
    fn column(entries: &[(u32, Count)]) -> EncodedRelation {
        let mut rel = EncodedRelation::new(Schema::new(vec![tsens_data::AttrId(0)]));
        for &(code, c) in entries {
            rel.push(&[code], c);
        }
        rel
    }

    #[test]
    fn cap_is_identity_when_k_covers_all() {
        let rel = column(&[(1, 5), (2, 3)]);
        assert_eq!(cap_top_k_enc(&rel, 2), rel);
        assert_eq!(cap_top_k_enc(&rel, 10), rel);
    }

    #[test]
    fn cap_rounds_tail_up_to_kth() {
        let rel = column(&[(1, 10), (2, 7), (3, 2), (4, 1)]);
        assert_eq!(
            cap_top_k_enc(&rel, 2),
            column(&[(1, 10), (2, 7), (3, 7), (4, 7)])
        );
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn zero_k_rejected() {
        let _ = cap_top_k_enc(&EncodedRelation::new(Schema::empty()), 0);
    }

    #[test]
    fn topk_upper_bounds_exact_and_converges() {
        for seed in 0..6 {
            let (db, q, tree) = random_path(seed);
            let exact = crate::acyclic::tsens(&db, &q, &tree);
            let mut prev: Option<tsens_data::Count> = None;
            for k in [1usize, 2, 4, 1000] {
                let approx = tsens_topk(&db, &q, &tree, k);
                assert!(
                    approx.local_sensitivity >= exact.local_sensitivity,
                    "seed {seed} k {k}: approx must upper-bound exact"
                );
                if let Some(p) = prev {
                    assert!(
                        approx.local_sensitivity <= p,
                        "seed {seed} k {k}: larger k must not loosen the bound"
                    );
                }
                prev = Some(approx.local_sensitivity);
            }
            // Unbounded k reproduces the exact value.
            let full = tsens_topk(&db, &q, &tree, 1_000_000);
            assert_eq!(
                full.local_sensitivity, exact.local_sensitivity,
                "seed {seed}"
            );
        }
    }
}
