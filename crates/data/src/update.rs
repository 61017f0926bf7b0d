//! Delta operations against one relation of a database.
//!
//! The paper's curator serves a *stream* of counting queries, but real
//! curators also ingest data. [`Update`] is the unit of change the
//! session stack understands: single-tuple inserts/deletes (the paper's
//! `D ∪ {t}` / `D \ {t}`, now applied for real rather than simulated)
//! and relation bulk loads. [`crate::EncodedDatabase::apply_traced`] maintains
//! the resident encoding under these deltas in place;
//! `tsens_engine::EngineSession` layers selective cache invalidation on
//! top.

use crate::relation::Row;

/// One delta against a single relation (bag semantics throughout:
/// inserting an existing row raises its multiplicity, deleting removes
/// exactly one copy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert one copy of `row` into relation `relation`.
    Insert {
        /// Catalog index of the target relation.
        relation: usize,
        /// The row to insert (arity must match the relation schema).
        row: Row,
    },
    /// Remove one copy of `row` from relation `relation`. Applying this
    /// to a database that has no copy is a no-op (reported by the
    /// `apply` return value).
    Delete {
        /// Catalog index of the target relation.
        relation: usize,
        /// The row to remove.
        row: Row,
    },
    /// Append many rows to relation `relation` at once — amortizes the
    /// re-grouping of the resident encoding over the whole batch.
    BulkLoad {
        /// Catalog index of the target relation.
        relation: usize,
        /// The rows to append.
        rows: Vec<Row>,
    },
}

impl Update {
    /// Insert one copy of `row` into relation `relation`.
    pub fn insert(relation: usize, row: Row) -> Self {
        Update::Insert { relation, row }
    }

    /// Remove one copy of `row` from relation `relation`.
    pub fn delete(relation: usize, row: Row) -> Self {
        Update::Delete { relation, row }
    }

    /// Append `rows` to relation `relation`.
    pub fn bulk_load(relation: usize, rows: Vec<Row>) -> Self {
        Update::BulkLoad { relation, rows }
    }

    /// The (single) relation this update touches — the invalidation key
    /// for everything fingerprinted on relations.
    #[inline]
    pub fn relation(&self) -> usize {
        match self {
            Update::Insert { relation, .. }
            | Update::Delete { relation, .. }
            | Update::BulkLoad { relation, .. } => *relation,
        }
    }

    /// Number of tuples added or removed (bulk loads count their rows).
    pub fn tuple_count(&self) -> usize {
        match self {
            Update::Insert { .. } | Update::Delete { .. } => 1,
            Update::BulkLoad { rows, .. } => rows.len(),
        }
    }
}

/// What one applied [`Update`] did to the resident encoding, in *code*
/// space — enough for a caller maintaining derived state (the engine's
/// cached ⊥/⊤ pass states) to repair that state in O(delta) instead of
/// recomputing it from the base relations.
///
/// Produced by [`crate::EncodedDatabase::apply_traced`]. The contract is
/// the incremental-view-maintenance one: replaying `rows` against the
/// pre-update encoding yields exactly the post-update encoding, *unless*
/// `epoch` or `bulk` is set, in which case the descriptor only names the
/// touched relation and the caller must fall back to recomputation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Catalog index of the touched relation.
    pub relation: usize,
    /// The changed key groups: encoded row plus signed multiplicity
    /// change (`+1` for an insert, `-1` for a delete). Empty when `bulk`
    /// is set — bulk loads are not itemized.
    pub rows: Vec<(Vec<u32>, i64)>,
    /// An insert carried at least one value the dictionary had never
    /// seen: its code lives in the overflow region (still mutually
    /// comparable with base codes, but not value-ordered).
    pub overflow: bool,
    /// A dictionary re-sort epoch ran *inside* the apply (overflow or
    /// churn threshold): every resident code may have been relabeled, so
    /// `rows` no longer matches either side of the update and derived
    /// state must be rebuilt, not repaired.
    pub epoch: bool,
    /// The update was a [`Update::BulkLoad`]: `rows` is empty and the
    /// caller should treat the whole relation as replaced.
    pub bulk: bool,
}

impl AppliedDelta {
    /// Whether the delta is precise enough to repair derived state from
    /// (single itemized key group, codes still valid).
    #[inline]
    pub fn repairable(&self) -> bool {
        !self.epoch && !self.bulk && !self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn accessors() {
        let ins = Update::insert(2, vec![Value::Int(1)]);
        let del = Update::delete(0, vec![Value::Int(1)]);
        let bulk = Update::bulk_load(1, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(ins.relation(), 2);
        assert_eq!(del.relation(), 0);
        assert_eq!(bulk.relation(), 1);
        assert_eq!(ins.tuple_count(), 1);
        assert_eq!(bulk.tuple_count(), 2);
    }
}
