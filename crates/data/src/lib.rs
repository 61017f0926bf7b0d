//! # tsens-data
//!
//! Relational substrate for the `tsens` workspace: values, attributes,
//! schemas, bag-semantics relations, counted relations and databases.
//!
//! The paper ("Computing Local Sensitivities of Counting Queries with
//! Joins", SIGMOD 2020) works over multi-relational databases under **bag
//! semantics**: a relation may contain duplicate rows, and the counting
//! query `|Q(D)|` counts output tuples with multiplicity. Everything in this
//! crate is therefore multiplicity-aware:
//!
//! * [`Relation`] stores raw rows (duplicates allowed);
//! * [`CountedRelation`] stores `(row, count)` pairs and is the currency of
//!   the execution engine (the paper's `cnt`-annotated relations of §4.2);
//! * [`Count`] is `u128` with saturating arithmetic — partial-join
//!   multiplicities are products of counts and can overflow 64 bits on
//!   adversarial inputs, and saturation preserves the "upper bound"
//!   semantics needed by sensitivity analysis.
//!
//! Attribute names are interned once per [`Database`] into dense
//! [`AttrId`]s so schemas are small integer vectors and joins hash integer
//! keys (see the workspace performance notes in `DESIGN.md`).

pub mod attr;
pub mod counted;
pub mod database;
pub mod domain;
pub mod encoded;
pub mod error;
pub mod fast;
pub mod io;
pub mod par;
pub mod relation;
pub mod schema;
pub mod session;
pub mod shard;
pub mod store;
pub mod update;
pub mod value;

pub use attr::{AttrId, AttrRegistry};
pub use counted::CountedRelation;
pub use database::Database;
pub use domain::{active_domain, active_domain_multi};
pub use encoded::{Dict, EncodedRelation};
pub use error::{DataError, TsensError};
pub use fast::{FastMap, FastSet};
pub use par::Pool;
pub use relation::{Relation, Row, Rows, RowsIter};
pub use schema::Schema;
pub use session::EncodedDatabase;
pub use shard::{
    partition_database, route_updates, shard_hash, validate_shard_count, ShardSpec, MAX_SHARDS,
};
pub use update::{AppliedDelta, Update};
pub use value::Value;

/// Multiplicity / sensitivity count.
///
/// Bag-semantics join sizes are products of per-relation multiplicities and
/// grow multiplicatively with the number of relations, so we use 128 bits.
/// All arithmetic on counts in this workspace goes through [`sat_mul`] /
/// [`sat_add`]; saturating keeps bounds sound (a saturated value is still a
/// valid *upper bound* on the true sensitivity, and in practice the paper's
/// workloads never get close).
pub type Count = u128;

/// Saturating multiplication on [`Count`].
#[inline]
pub fn sat_mul(a: Count, b: Count) -> Count {
    a.saturating_mul(b)
}

/// Saturating addition on [`Count`].
#[inline]
pub fn sat_add(a: Count, b: Count) -> Count {
    a.saturating_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_count_arithmetic() {
        assert_eq!(sat_mul(Count::MAX, 2), Count::MAX);
        assert_eq!(sat_add(Count::MAX, 1), Count::MAX);
        assert_eq!(sat_mul(3, 4), 12);
        assert_eq!(sat_add(3, 4), 7);
    }
}
