//! Error types for query construction and decomposition.

use std::fmt;
use tsens_data::TsensError;

/// Errors raised while building queries or decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The named relation is not in the database catalog.
    UnknownRelation(String),
    /// The query repeats a relation — self-joins are out of scope (§5.4).
    SelfJoin(String),
    /// The query has no atoms.
    EmptyQuery,
    /// GYO failed: the query hypergraph is cyclic.
    Cyclic,
    /// A user-supplied decomposition is not a valid GHD for the query.
    InvalidDecomposition(String),
    /// The serving session could not answer the request (a relation
    /// outside the catalog, …) — lets entry points that
    /// classify *and* run a query report both kinds of failure.
    Session(TsensError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownRelation(n) => write!(f, "unknown relation {n:?}"),
            QueryError::SelfJoin(n) => {
                write!(
                    f,
                    "relation {n:?} appears twice; self-joins are unsupported"
                )
            }
            QueryError::EmptyQuery => write!(f, "query has no atoms"),
            QueryError::Cyclic => write!(f, "query hypergraph is cyclic (GYO reduction stuck)"),
            QueryError::InvalidDecomposition(msg) => {
                write!(f, "invalid decomposition: {msg}")
            }
            QueryError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<TsensError> for QueryError {
    fn from(e: TsensError) -> Self {
        QueryError::Session(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(QueryError::UnknownRelation("R".into())
            .to_string()
            .contains("R"));
        assert!(QueryError::SelfJoin("R".into())
            .to_string()
            .contains("self-join"));
        assert!(QueryError::Cyclic.to_string().contains("cyclic"));
        assert!(QueryError::EmptyQuery.to_string().contains("no atoms"));
        assert!(QueryError::InvalidDecomposition("x".into())
            .to_string()
            .contains("x"));
    }
}
