//! Bag-semantics relations.

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;

/// A database row: one [`Value`] per schema column.
pub type Row = Vec<Value>;

/// A bag-semantics relation: a schema plus a multiset of rows.
///
/// Duplicate rows are meaningful (the paper counts join outputs with
/// multiplicity). All per-row invariants (`row.len() == schema.arity()`)
/// are enforced on insertion.
///
/// A relation either holds its rows (what loaders, `naive_eval` and the
/// one-shot wrappers use) or is a **catalog entry** ([`Relation::catalog`]):
/// a schema and a tuple count whose rows live elsewhere — an engine
/// session keeps its data in the encoded store only. Reading the rows
/// of a catalog entry panics: it never passes for an empty relation.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    tuples: Tuples,
}

#[derive(Clone, PartialEq, Eq)]
enum Tuples {
    Rows(Vec<Row>),
    /// A catalog entry's tuple count (with multiplicity).
    Count(usize),
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: Tuples::Rows(Vec::new()),
        }
    }

    /// Build a relation from rows.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema's.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Self {
        for row in &rows {
            assert_eq!(
                row.len(),
                schema.arity(),
                "row arity must match schema arity"
            );
        }
        Relation {
            schema,
            tuples: Tuples::Rows(rows),
        }
    }

    /// A catalog entry over `schema` standing for `len` tuples whose rows
    /// are kept elsewhere.
    pub fn catalog(schema: Schema, len: usize) -> Self {
        Relation {
            schema,
            tuples: Tuples::Count(len),
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Borrow the rows.
    ///
    /// # Panics
    /// Panics on a catalog entry, whose rows live elsewhere.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        match &self.tuples {
            Tuples::Rows(rows) => rows,
            Tuples::Count(_) => catalog_row_read(),
        }
    }

    fn rows_mut(&mut self) -> &mut Vec<Row> {
        match &mut self.tuples {
            Tuples::Rows(rows) => rows,
            Tuples::Count(_) => catalog_row_read(),
        }
    }

    /// Number of rows (with multiplicity); a catalog entry's tuple count.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.tuples {
            Tuples::Rows(rows) => rows.len(),
            Tuples::Count(n) => *n,
        }
    }

    /// True if the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set a catalog entry's tuple count.
    ///
    /// # Panics
    /// Panics if the relation holds rows: their number is their count.
    pub fn set_catalog_len(&mut self, len: usize) {
        match &mut self.tuples {
            Tuples::Count(n) => *n = len,
            Tuples::Rows(_) => panic!("only a catalog entry's tuple count can be set"),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row arity differs from the schema arity, or on a
    /// catalog entry.
    pub fn push(&mut self, row: Row) {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity must match schema arity"
        );
        self.rows_mut().push(row);
    }

    /// Remove **one** occurrence of `row`, returning `true` if one existed.
    ///
    /// This is the `D \ {t}` of downward tuple sensitivity (Def 2.1):
    /// under bag semantics exactly one copy is removed — which copy is
    /// immaterial, so the scan runs back to front (update streams mostly
    /// delete recently inserted rows) and the last row moves into the
    /// freed slot (`swap_remove` order).
    pub fn remove_one(&mut self, row: &[Value]) -> bool {
        let rows = self.rows_mut();
        match rows.iter().rposition(|r| r.as_slice() == row) {
            Some(pos) => {
                rows.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Number of occurrences of `row`.
    pub fn multiplicity(&self, row: &[Value]) -> usize {
        self.iter().filter(|r| r.as_slice() == row).count()
    }

    /// Bag projection onto `target` (a subset of the schema). Keeps
    /// duplicates — this is the multiplicity-preserving `π` of the paper.
    pub fn project(&self, target: &Schema) -> Relation {
        let idx = self.schema.projection_indices(target);
        let rows = self
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Relation::from_rows(target.clone(), rows)
    }

    /// Keep only rows satisfying `pred`, in their current order.
    pub fn retain(&mut self, mut pred: impl FnMut(&[Value]) -> bool) {
        self.rows_mut().retain(|r| pred(r));
    }

    /// A relation with the same schema and the rows for which `pred` holds.
    pub fn filtered(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Relation {
        Relation::from_rows(
            self.schema.clone(),
            self.iter().filter(|r| pred(r)).cloned().collect(),
        )
    }

    /// Sort rows lexicographically (canonical form for comparisons).
    pub fn sort(&mut self) {
        self.rows_mut().sort_unstable();
    }

    /// Iterate over rows.
    ///
    /// # Panics
    /// Panics on a catalog entry.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }
}

/// The one failure of a row read on a catalog entry.
#[cold]
#[track_caller]
fn catalog_row_read() -> ! {
    panic!(
        "row read of a catalog-only relation: its rows live in an encoded store \
         (decode them with `EncodedRelation::decode`)"
    )
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = match &self.tuples {
            Tuples::Rows(rows) => rows,
            Tuples::Count(n) => {
                return writeln!(f, "Relation{:?} [{n} rows, catalog only]", self.schema)
            }
        };
        writeln!(f, "Relation{:?} [{} rows]", self.schema, rows.len())?;
        for row in rows.iter().take(20) {
            writeln!(f, "  {row:?}")?;
        }
        if rows.len() > 20 {
            writeln!(f, "  … ({} more)", rows.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn push_and_len() {
        let mut r = Relation::new(schema(&[0, 1]));
        assert!(r.is_empty());
        r.push(row(&[1, 2]));
        r.push(row(&[1, 2]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.multiplicity(&row(&[1, 2])), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_rejected() {
        let mut r = Relation::new(schema(&[0, 1]));
        r.push(row(&[1]));
    }

    #[test]
    fn remove_one_removes_single_copy() {
        let mut r = Relation::from_rows(schema(&[0]), vec![row(&[5]), row(&[5]), row(&[6])]);
        assert!(r.remove_one(&row(&[5])));
        assert_eq!(r.multiplicity(&row(&[5])), 1);
        assert!(r.remove_one(&row(&[5])));
        assert!(!r.remove_one(&row(&[5])));
        assert_eq!(r.rows(), &[row(&[6])]);
    }

    #[test]
    fn project_preserves_duplicates() {
        let r = Relation::from_rows(
            schema(&[0, 1]),
            vec![row(&[1, 10]), row(&[1, 20]), row(&[2, 10])],
        );
        let p = r.project(&schema(&[0]));
        assert_eq!(p.len(), 3);
        assert_eq!(p.multiplicity(&row(&[1])), 2);
    }

    #[test]
    fn project_reorders_columns() {
        let r = Relation::from_rows(schema(&[0, 1]), vec![row(&[1, 10])]);
        let p = r.project(&schema(&[1, 0]));
        assert_eq!(p.rows()[0], row(&[10, 1]));
    }

    #[test]
    fn filtered_and_retain() {
        let mut r = Relation::from_rows(schema(&[0]), vec![row(&[1]), row(&[2]), row(&[3])]);
        let f = r.filtered(|t| t[0].as_int().unwrap() >= 2);
        assert_eq!(f.len(), 2);
        r.retain(|t| t[0].as_int().unwrap() == 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn sort_gives_canonical_order() {
        let mut r = Relation::from_rows(schema(&[0]), vec![row(&[3]), row(&[1]), row(&[2])]);
        r.sort();
        assert_eq!(r.rows().to_vec(), vec![row(&[1]), row(&[2]), row(&[3])]);
    }

    #[test]
    fn catalog_entry_counts_without_rows() {
        let mut r = Relation::catalog(schema(&[0, 1]), 3);
        assert_eq!(r.len(), 3);
        r.set_catalog_len(0);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "catalog-only relation")]
    fn catalog_row_read_panics() {
        let r = Relation::catalog(schema(&[0]), 0);
        let _ = r.rows();
    }

    #[test]
    #[should_panic(expected = "catalog-only relation")]
    fn catalog_push_panics() {
        let mut r = Relation::catalog(schema(&[0]), 1);
        r.push(row(&[1]));
    }
}
