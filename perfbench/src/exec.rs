//! In-process execution of wire requests through the layers' public
//! functions, and the answer fields compared against the wire.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use tsens_core::elastic::plan_order_from_tree;
use tsens_core::{elastic_sensitivity_sharded, sharded_tsens_checked, SensitivityReport};
use tsens_data::{Database, TsensError};
use tsens_dp::truncation::TruncationProfile;
use tsens_dp::tsensdp::tsensdp_answer_from_profile;
use tsens_engine::{check_co_partitioned, sharded_count, EngineSession, ShardedEngine};
use tsens_query::{auto_decompose, classify, ConjunctiveQuery, DecompositionTree, Predicate};
use tsens_server::http::json_escape;
use tsens_server::{QueryOp, QueryRequest};

/// The answer fields of a `/query` response that must agree between the
/// wire and the in-process replay, as raw JSON tokens.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Answer(pub BTreeMap<&'static str, String>);

const ANSWER_KEYS: [&str; 6] = [
    "count",
    "local_sensitivity",
    "witness",
    "overall",
    "noisy_answer",
    "threshold",
];

impl Answer {
    /// Extract the answer fields from a response body.
    pub fn from_body(body: &str) -> Answer {
        let mut out = BTreeMap::new();
        for key in ANSWER_KEYS {
            if let Some(v) = json_token(body, key) {
                out.insert(key, v.to_owned());
            }
        }
        Answer(out)
    }

    /// A numeric field, if present.
    pub fn number(&self, key: &str) -> Option<u128> {
        self.0.get(key).and_then(|v| v.parse().ok())
    }

    fn set(&mut self, key: &'static str, value: impl ToString) {
        self.0.insert(key, value.to_string());
    }
}

/// The raw JSON token after the first `"key":` in `body`: a quoted
/// string (quotes included), or everything up to the next `,`, `}` or
/// `]`.
pub fn json_token<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    if rest.starts_with('"') {
        let mut escaped = false;
        for (i, c) in rest.char_indices().skip(1) {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => return Some(&rest[..=i]),
                _ => {}
            }
        }
        None
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

/// The validated query and decomposition a wire request describes —
/// the same construction the server's `/query` handler performs.
///
/// # Errors
/// Unknown relations or columns, and decomposition failures.
pub fn build_query(
    db: &Database,
    q: &QueryRequest,
) -> Result<(ConjunctiveQuery, DecompositionTree), String> {
    let names: Vec<String> = if q.join.is_empty() {
        (0..db.relation_count())
            .map(|i| db.relation_name(i).to_owned())
            .collect()
    } else {
        q.join.clone()
    };
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut cq = ConjunctiveQuery::over(db, "serve", &refs).map_err(|e| e.to_string())?;
    let mut per_relation: Vec<(String, Predicate)> = Vec::new();
    for w in &q.predicates {
        let rel = db
            .relation_index(&w.relation)
            .ok_or_else(|| format!("unknown relation {:?}", w.relation))?;
        let attr = db
            .attr_id(&w.attr)
            .filter(|&a| db.relation(rel).schema().position(a).is_some())
            .ok_or_else(|| format!("{:?} is not a column of {:?}", w.attr, w.relation))?;
        let pred = Predicate::eq(attr, w.value.clone());
        match per_relation.iter_mut().find(|(r, _)| r == &w.relation) {
            Some((_, existing)) => {
                let prev = std::mem::replace(existing, Predicate::True);
                *existing = prev.and(pred);
            }
            None => per_relation.push((w.relation.clone(), pred)),
        }
    }
    for (rel, pred) in per_relation {
        cq = cq.with_predicate(db, &rel, pred);
    }
    let (_, tree) = classify(&cq).map_err(|e| e.to_string())?;
    let tree = match tree {
        Some(t) => t,
        None => auto_decompose(&cq).map_err(|e| e.to_string())?,
    };
    Ok((cq, tree))
}

/// Span name of the layer call that answers `op`.
pub fn op_layer(op: QueryOp) -> &'static str {
    match op {
        QueryOp::Count | QueryOp::Tsens | QueryOp::TsensTopk => "engine.shard.gather",
        QueryOp::Elastic => "core.elastic",
        QueryOp::TsensDp => "dp.truncation",
    }
}

/// Answer `q` on the pinned shard sessions through the public functions
/// the server's handler calls.
///
/// # Errors
/// Engine errors and ops this benchmark does not send.
pub fn run_op(
    engine: &ShardedEngine,
    pinned: &[Arc<EngineSession<'static>>],
    q: &QueryRequest,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
) -> Result<Answer, String> {
    let db = pinned[0].database();
    let err = |e: TsensError| e.to_string();
    let mut a = Answer::default();
    match q.op {
        QueryOp::Count => {
            if pinned.len() > 1 {
                check_co_partitioned(engine.spec(), db, cq).map_err(err)?;
            }
            a.set(
                "count",
                sharded_count(engine.pool(), pinned, cq, tree).map_err(err)?,
            );
        }
        QueryOp::Tsens => {
            let r = sharded_tsens_checked(engine.pool(), engine.spec(), pinned, cq, tree)
                .map_err(err)?;
            set_report(&mut a, db, &r);
        }
        QueryOp::Elastic => {
            let plan = plan_order_from_tree(tree);
            let r = elastic_sensitivity_sharded(pinned, cq, &plan, 0).map_err(err)?;
            a.set("overall", r.overall);
        }
        QueryOp::TsensDp => {
            let private = q.private.as_deref().ok_or("tsensdp needs private=")?;
            let rel = db
                .relation_index(private)
                .ok_or_else(|| format!("unknown relation {private:?}"))?;
            let atom = cq
                .atoms()
                .iter()
                .position(|x| x.relation == rel)
                .ok_or("private relation not in the query")?;
            let profile =
                TruncationProfile::build_session(&pinned[0], cq, tree, atom).map_err(err)?;
            let ell = q.ell.unwrap_or(((profile.max_delta() * 3) / 2).max(10));
            let seed = q.seed.ok_or("the benchmark always sends seed=")?;
            let mut rng = StdRng::seed_from_u64(seed);
            let r = tsensdp_answer_from_profile(&profile, ell, q.epsilon, &mut rng);
            a.set("noisy_answer", r.noisy_answer);
            a.set("threshold", r.threshold);
        }
        QueryOp::TsensTopk => return Err("tsens_topk is not part of any workload".into()),
    }
    Ok(a)
}

fn set_report(a: &mut Answer, db: &Database, r: &SensitivityReport) {
    a.set("local_sensitivity", r.local_sensitivity);
    let witness = match &r.witness {
        Some(w) => format!("\"{}\"", json_escape(&w.display(db))),
        None => "null".to_owned(),
    };
    a.set("witness", witness);
}

/// Parse, pin, build and answer one `/query` body in process.
///
/// # Errors
/// Parse, build and engine errors.
pub fn answer(engine: &ShardedEngine, body: &str) -> Result<Answer, String> {
    let q = tsens_server::parse_query(body)?;
    let pinned = engine.pin();
    let (cq, tree) = build_query(pinned[0].database(), &q)?;
    run_op(engine, &pinned, &q, &cq, &tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_fields_come_from_the_top_level() {
        let body = r#"{"ok":true,"op":"tsens","db":"d","local_sensitivity":4,"witness":"R1(a2, b2, *)","per_relation":[{"relation":"R1","sensitivity":4,"witness":"R1(\"x\", *)"}]}"#;
        let a = Answer::from_body(body);
        assert_eq!(a.number("local_sensitivity"), Some(4));
        assert_eq!(a.0["witness"], "\"R1(a2, b2, *)\"");
        assert!(!a.0.contains_key("count"));
        assert_eq!(json_token(r#"{"w":"a\"b","n":1}"#, "w"), Some(r#""a\"b""#));
        assert_eq!(json_token(r#"{"w":null}"#, "w"), Some("null"));
        assert_eq!(json_token(r#"{"count":12}"#, "count"), Some("12"));
    }
}
