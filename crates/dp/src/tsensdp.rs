//! **TSensDP** — the end-to-end truncation mechanism of §6.2 / Thm 6.1.
//!
//! Given an upper bound `ℓ` on the tuple sensitivity:
//!
//! 1. release `Q̂ = Q(T(D, ℓ)) + Lap(ℓ/ε_Q̂)` — a noisy reference answer
//!    whose global sensitivity is `ℓ`;
//! 2. run SVT over `q_i = (Q(T(D, i)) − Q̂) / i` for `i = 1..ℓ−1` against
//!    threshold 0 — each `q_i` has global sensitivity 1 because
//!    `GS(Q ∘ T(·, i)) = i`; the first above-threshold index is the
//!    truncation threshold `τ` (falling back to `ℓ` if none fires);
//! 3. answer `Q(T(D, τ)) + Lap(τ / (ε − ε_tsens))`.
//!
//! Following §7.3, the privacy budget is split in half: `ε_tsens = ε/2`
//! for threshold learning (itself split evenly between `Q̂` and SVT) and
//! `ε/2` for the final answer. Negative releases are clamped to 0
//! ("output below 0 is truncated to 0").

use crate::laplace::laplace_mechanism;
use crate::svt::svt_first_above;
use crate::truncation::TruncationProfile;
use rand::Rng;
use tsens_data::{Count, Database, TsensError};
use tsens_engine::EngineSession;
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// Outcome of one TSensDP run.
#[derive(Clone, Debug)]
pub struct TSensDpResult {
    /// The released answer (clamped at 0).
    pub noisy_answer: f64,
    /// The learned truncation threshold `τ` — also the global sensitivity
    /// of the released query (the "Global Sens." column of Table 2).
    pub threshold: Count,
    /// `|Q(D)|`, for error accounting (not released).
    pub true_count: Count,
    /// `|Q(T(D, τ))|`, for bias accounting (not released).
    pub truncated_count: Count,
    /// `| |Q(D)| − |Q(T(D,τ))| |` — the truncation bias.
    pub bias: f64,
    /// `| |Q(D)| − noisy_answer |` — total absolute error.
    pub error: f64,
}

impl TSensDpResult {
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

/// Run TSensDP for `cq` with primary private atom `private_atom`, tuple
/// sensitivity upper bound `ell`, and privacy budget `epsilon`, as a
/// one-shot call (fresh session).
///
/// # Panics
/// Panics if `ell == 0` or `epsilon ≤ 0`.
pub fn tsensdp_answer<R: Rng>(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    private_atom: usize,
    ell: Count,
    epsilon: f64,
    rng: &mut R,
) -> TSensDpResult {
    tsensdp_answer_session(
        &EngineSession::for_query(db, cq),
        cq,
        tree,
        private_atom,
        ell,
        epsilon,
        rng,
    )
    .expect("one-shot sessions serve their query's relations")
}

/// [`tsensdp_answer`] over a warm session: the multiplicity table and
/// truncation profile are served from (and memoized in) the session's
/// result caches, so a stream of DP answers over the same database — or
/// repeated runs of the same query — only re-draws noise.
///
/// # Errors
/// [`TsensError`] when one of the query's relations is outside the
/// session's catalog.
///
/// # Panics
/// Panics if `ell == 0` or `epsilon ≤ 0`.
pub fn tsensdp_answer_session<R: Rng>(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    private_atom: usize,
    ell: Count,
    epsilon: f64,
    rng: &mut R,
) -> Result<TSensDpResult, TsensError> {
    let profile = TruncationProfile::build_session(session, cq, tree, private_atom)?;
    Ok(tsensdp_answer_from_profile(&profile, ell, epsilon, rng))
}

/// The release's ε split: `(Q̂, SVT, answer)` get ε/4, ε/4 and ε/2.
fn budget_split(epsilon: f64) -> (f64, f64, f64) {
    let eps_tsens = epsilon / 2.0;
    (eps_tsens / 2.0, eps_tsens / 2.0, epsilon - eps_tsens)
}

/// Whether every Laplace scale a release with `ell` and `epsilon` can
/// draw (ℓ/(ε/4) for Q̂, 4/(ε/4) for SVT, at most 4ℓ/(ε/2) for the
/// answer) is finite and positive; [`tsensdp_answer_from_profile`]
/// panics otherwise. A finite ε can fail: 1e-320 overflows ℓ/(ε/4).
pub fn noise_scales_are_finite(ell: Count, epsilon: f64) -> bool {
    let (eps_qhat, eps_svt, eps_answer) = budget_split(epsilon);
    let search_cap = ell.saturating_mul(4) as f64;
    [
        ell as f64 / eps_qhat,
        4.0 / eps_svt,
        search_cap / eps_answer,
    ]
    .iter()
    .all(|s| s.is_finite() && *s > 0.0)
}

/// [`tsensdp_answer`] over a pre-built [`TruncationProfile`]. The profile
/// depends only on the data, so repeated-run experiments (Table 2) build
/// it once and re-draw only the noise.
///
/// # Panics
/// Panics if `ell == 0` or `epsilon ≤ 0`.
pub fn tsensdp_answer_from_profile<R: Rng>(
    profile: &TruncationProfile,
    ell: Count,
    epsilon: f64,
    rng: &mut R,
) -> TSensDpResult {
    assert!(ell >= 1, "the sensitivity upper bound ℓ must be at least 1");
    assert!(epsilon > 0.0, "epsilon must be positive");

    let (eps_qhat, eps_svt, eps_answer) = budget_split(epsilon);

    // Step 1: noisy reference answer at the loosest threshold.
    let q_ell = profile.truncated_count(ell);
    let qhat = laplace_mechanism(rng, q_ell as f64, ell as f64, eps_qhat);

    // Step 2: SVT over q_i = (Q(T(D,i)) − Q̂)/i with Δ = 1. The paper
    // nominally scans i = 1..ℓ−1, but its Table 2 reports learned
    // thresholds above ℓ (q2: τ = 640 with ℓ = 500; q3: τ = 14 with
    // ℓ = 10), so the search clearly continues past ℓ — ℓ only scales
    // Q̂'s noise. We scan up to 4ℓ; each q_i still has sensitivity 1, so
    // the SVT privacy analysis is unchanged.
    let search_cap = ell.saturating_mul(4);
    let queries = (1..search_cap).map(|i| (profile.truncated_count(i) as f64 - qhat) / i as f64);
    let tau = match svt_first_above(rng, eps_svt, 1.0, 0.0, queries) {
        Some(idx) => idx as Count + 1, // stream started at i = 1
        None => search_cap,
    };

    // Step 3: final release on the truncated database.
    let truncated = profile.truncated_count(tau);
    let noisy = laplace_mechanism(rng, truncated as f64, tau as f64, eps_answer).max(0.0);

    let true_count = profile.full_count();
    let bias = (true_count as f64 - truncated as f64).abs();
    let error = (true_count as f64 - noisy).abs();
    TSensDpResult {
        noisy_answer: noisy,
        threshold: tau,
        true_count,
        truncated_count: truncated,
        bias,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsens_data::{Relation, Schema, Value};
    use tsens_query::gyo_decompose;

    /// A skewed star: R(A,B) with one hot B value joined to S(B,C).
    /// Most R rows have δ = 1; one has δ = 50.
    fn skewed() -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let mut r_rows: Vec<Vec<Value>> = Vec::new();
        for i in 0..200 {
            r_rows.push(vec![Value::Int(i), Value::Int(i)]); // cold keys
        }
        r_rows.push(vec![Value::Int(999), Value::Int(1000)]); // hot key
        let mut s_rows: Vec<Vec<Value>> = Vec::new();
        for i in 0..200 {
            s_rows.push(vec![Value::Int(i), Value::Int(0)]);
        }
        for j in 0..50 {
            s_rows.push(vec![Value::Int(1000), Value::Int(j)]); // hot fan-out
        }
        db.add_relation("R", Relation::from_rows(Schema::new(vec![a, b]), r_rows))
            .unwrap();
        db.add_relation("S", Relation::from_rows(Schema::new(vec![b, c]), s_rows))
            .unwrap();
        let q = ConjunctiveQuery::over(&db, "skew", &["R", "S"]).unwrap();
        (db, q)
    }

    #[test]
    fn noise_scales_reject_infinite_and_subnormal_epsilon() {
        assert!(noise_scales_are_finite(10, 1.0));
        assert!(noise_scales_are_finite(Count::MAX, 1e-3));
        for eps in [f64::INFINITY, f64::NAN, 0.0, -1.0, 1e-320] {
            assert!(!noise_scales_are_finite(10, eps), "epsilon {eps}");
        }
    }

    #[test]
    fn learned_threshold_tracks_local_sensitivity() {
        // True count = 250 (200 cold + 50 hot); LS from R's side = 50.
        // With a generous ℓ and a healthy ε, the learned τ should land
        // well below ℓ and the error should be small in most runs.
        let (db, q) = skewed();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let mut close = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = tsensdp_answer(&db, &q, &tree, 0, 500, 2.0, &mut rng);
            assert!(r.threshold >= 1 && r.threshold <= 500);
            assert_eq!(r.true_count, 250);
            if r.relative_error() < 0.5 {
                close += 1;
            }
        }
        assert!(close >= 15, "only {close}/20 runs were within 50% error");
    }

    #[test]
    fn exact_threshold_gives_zero_bias() {
        let (db, q) = skewed();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        // Find a run where τ ≥ 50 (no truncation): bias must be 0.
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = tsensdp_answer(&db, &q, &tree, 0, 500, 2.0, &mut rng);
            if r.threshold >= 50 {
                assert_eq!(r.bias, 0.0);
                assert_eq!(r.truncated_count, r.true_count);
                return;
            }
        }
        panic!("no run reached an untruncating threshold");
    }

    #[test]
    fn tiny_ell_forces_bias() {
        // ℓ = 1 truncates the hot row: bias = 50 regardless of noise.
        let (db, q) = skewed();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let mut rng = StdRng::seed_from_u64(0);
        let r = tsensdp_answer(&db, &q, &tree, 0, 1, 2.0, &mut rng);
        assert_eq!(r.threshold, 1);
        assert_eq!(r.truncated_count, 200);
        assert_eq!(r.bias, 50.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (db, q) = skewed();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            tsensdp_answer(&db, &q, &tree, 0, 100, 1.0, &mut rng).noisy_answer
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ell_rejected() {
        let (db, q) = skewed();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let mut rng = StdRng::seed_from_u64(0);
        let _ = tsensdp_answer(&db, &q, &tree, 0, 0, 1.0, &mut rng);
    }
}
