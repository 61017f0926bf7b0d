//! A PrivSQL-style baseline (PrivateSQL — Kotsogiannis et al., 2019), in
//! the §7.3 configuration of the paper: synopsis generation disabled, the
//! query answered directly with the Laplace mechanism.
//!
//! PrivateSQL's policy machinery is reproduced in its essentials:
//!
//! * a **primary private relation**; deleting one of its tuples cascades
//!   through foreign keys, so downstream relations get non-zero policy
//!   sensitivity;
//! * **frequency-based truncation** at the non-primary relations: each
//!   cascade relation is truncated to an SVT-learned bound `τ_R` on its
//!   join-key frequency ("PrivSQL truncates tuples with high frequencies,
//!   but it doesn't mean that they join with the tuple of the highest
//!   tuple sensitivity" — exactly the coarseness TSensDP improves on);
//! * the **noise scale of each SVT grows with the relation's policy
//!   sensitivity** (the product of learned caps on the path from the
//!   primary relation), versus the constant 1 of TSensDP;
//! * the final **global sensitivity is a static bound** — our elastic
//!   implementation evaluated on the truncated instance — which is what
//!   makes PrivSQL's error explode on cyclic/star queries (Table 2).

use crate::laplace::laplace_mechanism;
use crate::svt::svt_first_above;
use rand::Rng;
use tsens_core::elastic::{elastic_sensitivity_session, plan_order_from_tree};
use tsens_data::{sat_mul, AttrId, Count, Database, FastMap, Row, TsensError};
use tsens_engine::EngineSession;
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// One foreign-key cascade step of the privacy policy: rows of `atom`
/// reference rows of `parent` through the key attributes `key`.
#[derive(Clone, Debug)]
pub struct CascadeRule {
    /// The dependent atom (query-atom index) to truncate.
    pub atom: usize,
    /// The atom it references (must be the primary atom or an earlier
    /// cascade's atom).
    pub parent: usize,
    /// The referencing key attributes in `atom`'s schema.
    pub key: Vec<AttrId>,
}

/// The privacy policy: which relation is private, and how deletions
/// cascade.
#[derive(Clone, Debug)]
pub struct PrivSqlPolicy {
    /// Query-atom index of the primary private relation.
    pub primary_atom: usize,
    /// Cascade steps in dependency order (parents before dependents).
    pub cascades: Vec<CascadeRule>,
    /// Upper bound for the frequency-threshold search (the analogue of
    /// TSensDP's `ℓ`).
    pub max_threshold: Count,
}

/// Outcome of one PrivSQL-style run.
#[derive(Clone, Debug)]
pub struct PrivSqlResult {
    /// The released answer (clamped at 0).
    pub noisy_answer: f64,
    /// The static global-sensitivity bound used for the final noise.
    pub global_sensitivity: Count,
    /// Learned per-cascade frequency caps, in cascade order.
    pub learned_caps: Vec<Count>,
    /// `|Q(D)|`, for error accounting (not released).
    pub true_count: Count,
    /// Count on the truncated instance, for bias accounting.
    pub truncated_count: Count,
    /// `| |Q(D)| − truncated |`.
    pub bias: f64,
    /// `| |Q(D)| − noisy_answer |`.
    pub error: f64,
}

impl PrivSqlResult {
    /// Bias relative to the true count (0 when the true count is 0).
    pub fn relative_bias(&self) -> f64 {
        if self.true_count == 0 {
            0.0
        } else {
            self.bias / self.true_count as f64
        }
    }

    /// Error relative to the true count (0 when the true count is 0).
    pub fn relative_error(&self) -> f64 {
        if self.true_count == 0 {
            0.0
        } else {
            self.error / self.true_count as f64
        }
    }
}

/// Histogram of join-key frequencies for one relation.
fn key_frequencies(
    db: &Database,
    cq: &ConjunctiveQuery,
    atom: usize,
    key: &[AttrId],
) -> Vec<Count> {
    let a = &cq.atoms()[atom];
    let rel = db.relation(a.relation);
    let positions: Vec<usize> = key
        .iter()
        .map(|&k| {
            a.schema
                .position(k)
                .expect("cascade key must be in the atom schema")
        })
        .collect();
    let mut freq: FastMap<Row, Count> = FastMap::default();
    for row in rel.rows() {
        let k: Row = positions.iter().map(|&i| row[i].clone()).collect();
        *freq.entry(k).or_insert(0) += 1;
    }
    freq.into_values().collect()
}

/// Answer `cq` under the PrivSQL-style mechanism with privacy budget
/// `epsilon` (half for threshold learning, half for the release), as a
/// one-shot call (fresh session for the untruncated evaluation).
///
/// # Panics
/// Panics if the policy references out-of-range atoms or `epsilon ≤ 0`.
pub fn privsql_answer<R: Rng>(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    policy: &PrivSqlPolicy,
    epsilon: f64,
    rng: &mut R,
) -> PrivSqlResult {
    privsql_answer_session(
        &EngineSession::for_query(db, cq),
        cq,
        tree,
        policy,
        epsilon,
        rng,
    )
    .expect("one-shot sessions serve their query's relations")
}

/// [`privsql_answer`] over a warm session. The untruncated `|Q(D)|` is
/// served by the session's pass cache; the truncated instance is a
/// *different* database (rows removed by the learned caps), so its count
/// and its elastic bound come from one session over that instance.
///
/// # Errors
/// [`TsensError`] when one of the query's relations is outside the
/// session's catalog.
///
/// # Panics
/// Panics if the policy references out-of-range atoms or `epsilon ≤ 0`.
pub fn privsql_answer_session<R: Rng>(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    policy: &PrivSqlPolicy,
    epsilon: f64,
    rng: &mut R,
) -> Result<PrivSqlResult, TsensError> {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(
        policy.primary_atom < cq.atom_count(),
        "primary atom out of range"
    );
    let db = session.database();

    let eps_learn = epsilon / 2.0;
    let eps_answer = epsilon / 2.0;
    let true_count = session.count_query(cq, tree)?;

    // Phase 1: learn per-cascade frequency caps with SVT and truncate.
    let mut work = db.clone();
    let mut multiplier: FastMap<usize, Count> = FastMap::default();
    multiplier.insert(policy.primary_atom, 1);
    let mut learned_caps = Vec::with_capacity(policy.cascades.len());
    let per_cascade_eps = if policy.cascades.is_empty() {
        eps_learn
    } else {
        eps_learn / policy.cascades.len() as f64
    };
    for rule in &policy.cascades {
        let parent_mult = *multiplier
            .get(&rule.parent)
            .expect("cascade parents must precede dependents");
        // Policy sensitivity of the frequency histogram: one primary tuple
        // can add/remove up to `parent_mult` rows of this relation.
        let delta = parent_mult as f64;
        let freqs = key_frequencies(&work, cq, rule.atom, &rule.key);
        // SVT stream: q_i = −(#keys with frequency > i); the first i whose
        // noisy value reaches 0 means "(almost) nothing left to truncate".
        let queries =
            (1..policy.max_threshold).map(|i| -(freqs.iter().filter(|&&f| f > i).count() as f64));
        let cap = match svt_first_above(rng, per_cascade_eps, delta, 0.0, queries) {
            Some(idx) => idx as Count + 1,
            None => policy.max_threshold,
        };
        learned_caps.push(cap);
        multiplier.insert(rule.atom, sat_mul(parent_mult, cap));
        // Truncate: drop rows whose key value now exceeds the cap.
        let a = &cq.atoms()[rule.atom];
        let positions: Vec<usize> = rule
            .key
            .iter()
            .map(|&k| a.schema.position(k).expect("key in schema"))
            .collect();
        let mut freq: FastMap<Row, Count> = FastMap::default();
        for row in work.relation(a.relation).rows() {
            let k: Row = positions.iter().map(|&i| row[i].clone()).collect();
            *freq.entry(k).or_insert(0) += 1;
        }
        work.relation_mut(a.relation).retain(|row| {
            let k: Row = positions.iter().map(|&i| row[i].clone()).collect();
            freq[&k] <= cap
        });
    }

    // Phase 2: static global-sensitivity bound on the truncated instance
    // (elastic-style max-frequency propagation), then Laplace.
    let truncated = EngineSession::for_query(&work, cq);
    let plan = plan_order_from_tree(tree);
    let elastic = elastic_sensitivity_session(&truncated, cq, &plan, 0)?;
    let primary_rel = cq.atoms()[policy.primary_atom].relation;
    let global_sensitivity = elastic
        .per_relation
        .iter()
        .find(|(rel, _)| *rel == primary_rel)
        .map(|&(_, s)| s)
        .expect("primary relation appears in the elastic report")
        .max(1);

    let truncated_count = truncated.count_query(cq, tree)?;
    let noisy = laplace_mechanism(
        rng,
        truncated_count as f64,
        global_sensitivity as f64,
        eps_answer,
    )
    .max(0.0);

    let bias = (true_count as f64 - truncated_count as f64).abs();
    let error = (true_count as f64 - noisy).abs();
    Ok(PrivSqlResult {
        noisy_answer: noisy,
        global_sensitivity,
        learned_caps,
        true_count,
        truncated_count,
        bias,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsens_data::{Relation, Schema, Value};
    use tsens_query::gyo_decompose;

    /// Customer(CK) ⋈ Orders(CK, OK): a FK-PK pair with one heavy customer.
    fn fk_pair() -> (Database, ConjunctiveQuery, Vec<AttrId>) {
        let mut db = Database::new();
        let [ck, ok] = db.attrs(["CK", "OK"]);
        let mut cust: Vec<Vec<Value>> = (0..20).map(|i| vec![Value::Int(i)]).collect();
        cust.push(vec![Value::Int(99)]);
        let mut orders: Vec<Vec<Value>> = Vec::new();
        let mut next_ok = 0i64;
        for i in 0..20 {
            for _ in 0..2 {
                orders.push(vec![Value::Int(i), Value::Int(next_ok)]);
                next_ok += 1;
            }
        }
        for _ in 0..30 {
            orders.push(vec![Value::Int(99), Value::Int(next_ok)]); // heavy
            next_ok += 1;
        }
        db.add_relation("C", Relation::from_rows(Schema::new(vec![ck]), cust))
            .unwrap();
        db.add_relation("O", Relation::from_rows(Schema::new(vec![ck, ok]), orders))
            .unwrap();
        let q = ConjunctiveQuery::over(&db, "co", &["C", "O"]).unwrap();
        (db, q, vec![ck])
    }

    #[test]
    fn truncation_caps_heavy_keys() {
        let (db, q, key) = fk_pair();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let policy = PrivSqlPolicy {
            primary_atom: 0,
            cascades: vec![CascadeRule {
                atom: 1,
                parent: 0,
                key,
            }],
            max_threshold: 64,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let r = privsql_answer(&db, &q, &tree, &policy, 4.0, &mut rng);
        assert_eq!(r.true_count, 70);
        assert_eq!(r.learned_caps.len(), 1);
        // Whatever cap was learned, GS must reflect it and the mechanism
        // must stay internally consistent.
        assert!(r.global_sensitivity >= r.learned_caps[0].min(64));
        assert!(r.truncated_count <= r.true_count);
        assert!(r.noisy_answer >= 0.0);
    }

    #[test]
    fn no_cascades_means_no_bias() {
        // Facebook-style setting: single private table, no FK truncation →
        // bias 0, error entirely from the (large) static GS.
        let (db, q, _) = fk_pair();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let policy = PrivSqlPolicy {
            primary_atom: 0,
            cascades: vec![],
            max_threshold: 64,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let r = privsql_answer(&db, &q, &tree, &policy, 2.0, &mut rng);
        assert_eq!(r.truncated_count, r.true_count);
        assert_eq!(r.bias, 0.0);
        // Static GS = mf(CK, Orders) = 30 (the heavy customer).
        assert_eq!(r.global_sensitivity, 30);
    }

    #[test]
    fn deterministic_under_seed() {
        let (db, q, key) = fk_pair();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let policy = PrivSqlPolicy {
            primary_atom: 0,
            cascades: vec![CascadeRule {
                atom: 1,
                parent: 0,
                key,
            }],
            max_threshold: 64,
        };
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            privsql_answer(&db, &q, &tree, &policy, 2.0, &mut rng).noisy_answer
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_bad_epsilon() {
        let (db, q, _) = fk_pair();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let policy = PrivSqlPolicy {
            primary_atom: 0,
            cascades: vec![],
            max_threshold: 8,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let _ = privsql_answer(&db, &q, &tree, &policy, 0.0, &mut rng);
    }
}
