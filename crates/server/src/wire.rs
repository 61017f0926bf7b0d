//! The query wire format: a small line-based `key=value` body, reusing
//! the CLI's conventions (`join=` relation lists, CSV `+`/`-` delta
//! lines) so anything scriptable against `tsens-cli` speaks the server's
//! language too.
//!
//! ```text
//! POST /query
//!   op=count|tsens|tsens_topk|elastic|tsensdp   (default: tsens)
//!   join=R1,R2,R3                               (default: all relations)
//!   where=R.A=value                             (repeatable, ANDed per relation)
//!   k=16                                        (tsens_topk)
//!   private=R epsilon=1.0 ell=12 seed=7         (tsensdp)
//!   db=name                                     (multi-database servers)
//!
//! POST /update
//!   +,Relation,v1,v2,...                        (same lines as `tsens-cli
//!   -,Relation,v1,v2,...                         update --ops` files)
//!
//! POST /query_batch
//!   <query body>                                (any number of /query
//!   ---                                          bodies separated by
//!   <query body>                                 `---` lines)
//! ```
//!
//! Parsing is pure string handling over untrusted input: every failure
//! is a typed error carried back as an HTTP 400, never a panic.

use tsens_data::io::parse_field;
use tsens_data::Value;

/// Which algorithm a `/query` request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// `|Q(D)|` under bag semantics.
    Count,
    /// Local sensitivity via TSens (Algorithm 2).
    Tsens,
    /// Top-k capped TSens (upper bound).
    TsensTopk,
    /// Elastic sensitivity (Flex baseline).
    Elastic,
    /// TSensDP differentially private answer.
    TsensDp,
}

/// One equality selection `relation.attr = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WherePredicate {
    /// Relation name as sent on the wire.
    pub relation: String,
    /// Attribute name as sent on the wire.
    pub attr: String,
    /// The constant (parsed with the CSV field rules: integers become
    /// `Value::Int`, everything else `Value::Str`).
    pub value: Value,
}

/// A parsed `/query` body.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Target database (`None` = the server's default).
    pub db: Option<String>,
    /// Algorithm to run.
    pub op: QueryOp,
    /// Relations to join, in order; empty = all relations in the catalog.
    pub join: Vec<String>,
    /// Equality selections, ANDed per relation.
    pub predicates: Vec<WherePredicate>,
    /// `k` for [`QueryOp::TsensTopk`].
    pub k: usize,
    /// Privacy budget for [`QueryOp::TsensDp`].
    pub epsilon: f64,
    /// Tuple-sensitivity bound ℓ for [`QueryOp::TsensDp`] (`None` =
    /// derived from the data as in the CLI).
    pub ell: Option<u128>,
    /// RNG seed for [`QueryOp::TsensDp`]. `None` (the default) makes
    /// the server draw fresh entropy per request — a fixed seed makes
    /// the "noise" deterministic and the release non-private, so it is
    /// only for tests and offline reproduction.
    pub seed: Option<u64>,
    /// Primary private relation for [`QueryOp::TsensDp`].
    pub private: Option<String>,
}

impl Default for QueryRequest {
    fn default() -> Self {
        QueryRequest {
            db: None,
            op: QueryOp::Tsens,
            join: Vec::new(),
            predicates: Vec::new(),
            k: 16,
            epsilon: 1.0,
            ell: None,
            seed: None,
            private: None,
        }
    }
}

/// Parse a `/query` body. Unknown keys are rejected (typos should fail
/// loudly, not silently run a different query than the analyst asked
/// for).
///
/// # Errors
/// A human-readable message describing the first offending line.
pub fn parse_query(body: &str) -> Result<QueryRequest, String> {
    let mut req = QueryRequest::default();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key=value, got {line:?}", lineno + 1))?;
        let bad = |what: &str| format!("line {}: bad {what}: {value:?}", lineno + 1);
        match key.trim() {
            "db" => req.db = Some(value.trim().to_owned()),
            "op" => {
                req.op = match value.trim() {
                    "count" => QueryOp::Count,
                    "tsens" => QueryOp::Tsens,
                    "tsens_topk" => QueryOp::TsensTopk,
                    "elastic" => QueryOp::Elastic,
                    "tsensdp" => QueryOp::TsensDp,
                    other => return Err(format!("line {}: unknown op {other:?}", lineno + 1)),
                }
            }
            "join" => {
                req.join = value
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "where" => {
                // R.A=value — split on the *first* '=' after the column.
                let (col, constant) = value
                    .split_once('=')
                    .ok_or_else(|| bad("where (expected R.A=value)"))?;
                let (rel, attr) = col
                    .split_once('.')
                    .ok_or_else(|| bad("where (expected R.A=value)"))?;
                req.predicates.push(WherePredicate {
                    relation: rel.trim().to_owned(),
                    attr: attr.trim().to_owned(),
                    value: parse_field(constant),
                });
            }
            "k" => req.k = value.trim().parse().map_err(|_| bad("k"))?,
            "epsilon" => req.epsilon = value.trim().parse().map_err(|_| bad("epsilon"))?,
            "ell" => req.ell = Some(value.trim().parse().map_err(|_| bad("ell"))?),
            "seed" => req.seed = Some(value.trim().parse().map_err(|_| bad("seed"))?),
            "private" => req.private = Some(value.trim().to_owned()),
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    if req.op == QueryOp::TsensDp && req.private.is_none() {
        return Err("op=tsensdp needs private=<relation>".into());
    }
    if req.op == QueryOp::TsensTopk && req.k == 0 {
        return Err("k must be at least 1".into());
    }
    if req.op == QueryOp::TsensDp && !(req.epsilon.is_finite() && req.epsilon > 0.0) {
        return Err("epsilon must be finite and positive".into());
    }
    if req.op == QueryOp::TsensDp && req.ell == Some(0) {
        return Err("ell must be at least 1".into());
    }
    Ok(req)
}

/// Parse a `/query_batch` body: `/query` bodies separated by `---`
/// lines. **Parse-all-first**: any malformed item fails the whole batch
/// (the server answers 400 and executes nothing), so a batch is never
/// half-run.
///
/// Blank items (stray or trailing separators) are dropped rather than
/// silently run as default whole-catalog queries; a batch with no
/// non-blank items is an error.
///
/// # Errors
/// The first offending item's message, prefixed with its 1-based index.
pub fn parse_batch(body: &str) -> Result<Vec<QueryRequest>, String> {
    let mut items = Vec::new();
    let mut raw_items: Vec<String> = Vec::new();
    let mut current = String::new();
    for line in body.lines() {
        if line.trim() == "---" {
            raw_items.push(std::mem::take(&mut current));
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    raw_items.push(current);
    raw_items.retain(|s| !s.trim().is_empty());
    if raw_items.is_empty() {
        return Err("empty batch".into());
    }
    for (i, raw) in raw_items.iter().enumerate() {
        items.push(parse_query(raw).map_err(|e| format!("batch item {}: {e}", i + 1))?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_full_parse() {
        let req = parse_query("").unwrap();
        assert_eq!(req.op, QueryOp::Tsens);
        assert!(req.join.is_empty());

        let req = parse_query(
            "op=tsensdp\njoin=R1, R2 ,R3\nwhere=R1.A=a1\nwhere=R1.B=7\n\
             k=4\nepsilon=0.5\nell=9\nseed=3\nprivate=R1\ndb=main\n# c\n",
        )
        .unwrap();
        assert_eq!(req.op, QueryOp::TsensDp);
        assert_eq!(req.join, vec!["R1", "R2", "R3"]);
        assert_eq!(req.predicates.len(), 2);
        assert_eq!(req.predicates[0].relation, "R1");
        assert_eq!(req.predicates[0].attr, "A");
        assert_eq!(req.predicates[0].value, Value::str("a1"));
        assert_eq!(req.predicates[1].value, Value::Int(7));
        assert_eq!((req.k, req.ell, req.seed), (4, Some(9), Some(3)));
        assert_eq!(parse_query("").unwrap().seed, None, "no seed = entropy");
        assert_eq!(req.private.as_deref(), Some("R1"));
        assert_eq!(req.db.as_deref(), Some("main"));
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(parse_query("nonsense").is_err());
        assert!(parse_query("op=transmogrify").is_err());
        assert!(parse_query("where=R.A").is_err());
        assert!(parse_query("where=noDotHere=3").is_err());
        assert!(parse_query("k=minus one").is_err());
        assert!(parse_query("unknown_key=1").is_err());
        assert!(parse_query("op=tsensdp").is_err(), "tsensdp needs private=");
        assert!(parse_query("op=tsensdp\nprivate=R\nepsilon=-1").is_err());
        assert!(parse_query("op=tsensdp\nprivate=R\nepsilon=inf").is_err());
        assert!(parse_query("op=tsensdp\nprivate=R\nepsilon=NaN").is_err());
        assert!(parse_query("op=tsens_topk\nk=0").is_err());
    }

    #[test]
    fn batch_parses_separated_items() {
        let reqs = parse_batch("op=count\njoin=R1\n---\nop=tsens\n---\nop=elastic\n").unwrap();
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].op, QueryOp::Count);
        assert_eq!(reqs[0].join, vec!["R1"]);
        assert_eq!(reqs[1].op, QueryOp::Tsens);
        assert_eq!(reqs[2].op, QueryOp::Elastic);
        // Trailing separator doesn't create a phantom item.
        assert_eq!(parse_batch("op=count\n---\n").unwrap().len(), 1);
        // Single item, no separator at all.
        assert_eq!(parse_batch("op=count").unwrap().len(), 1);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let err = parse_batch("op=count\n---\nop=transmogrify\n").unwrap_err();
        assert!(err.starts_with("batch item 2:"), "{err}");
        assert!(parse_batch("").is_err(), "empty batch is an error");
        assert!(parse_batch("---\n---\n").is_err());
    }
}
