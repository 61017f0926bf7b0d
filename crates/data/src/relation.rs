//! Bag-semantics relations.

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A database row: one [`Value`] per schema column.
pub type Row = Vec<Value>;

/// Rows per storage chunk.
const CHUNK_ROWS: usize = 1024;

/// The row sequence of a [`Relation`]: full chunks of exactly
/// `CHUNK_ROWS` rows behind `Arc`s, then an owned tail of fewer rows, so
/// row `i` lives at `i / CHUNK_ROWS`, offset `i % CHUNK_ROWS`.
///
/// Cloning copies the chunk pointers and the tail (under `CHUNK_ROWS`
/// rows), never a full chunk, and a write copies only the chunks it
/// touches (copy-on-write per chunk). That makes a served single-row
/// update O(chunk) no matter how large the relation is, while a pinned
/// snapshot holding the old sequence stays undisturbed. The tail is
/// owned so that an append, the common write, never checks for sharing.
#[derive(Clone, Default)]
pub struct Rows {
    full: Vec<Arc<Vec<Row>>>,
    tail: Vec<Row>,
}

impl Rows {
    fn from_vec(rows: Vec<Row>) -> Self {
        let mut out = Rows {
            full: Vec::with_capacity(rows.len() / CHUNK_ROWS),
            tail: Vec::new(),
        };
        let mut rest = rows.into_iter();
        while rest.len() >= CHUNK_ROWS {
            out.full
                .push(Arc::new(rest.by_ref().take(CHUNK_ROWS).collect()));
        }
        out.tail = rest.collect();
        out
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.full.len() * CHUNK_ROWS + self.tail.len()
    }

    /// True if there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    /// The first row, if any.
    pub fn first(&self) -> Option<&Row> {
        self.full.first().map_or(self.tail.first(), |c| c.first())
    }

    /// Iterate the rows in order.
    pub fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            chunks: self.full.iter(),
            front: [].iter(),
            back: self.tail.iter(),
        }
    }

    /// The rows as consecutive slices, one per chunk — the flat inner
    /// loop for scans that run per row.
    pub fn chunks(&self) -> impl Iterator<Item = &[Row]> {
        self.full
            .iter()
            .map(|c| c.as_slice())
            .chain(std::iter::once(self.tail.as_slice()))
    }

    /// Copy the rows into one `Vec`.
    pub fn to_vec(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Take the rows out as one `Vec`, moving (not cloning) the rows of
    /// every chunk no clone shares.
    fn into_vec(self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.full {
            match Arc::try_unwrap(chunk) {
                Ok(rows) => out.extend(rows),
                Err(shared) => out.extend_from_slice(&shared),
            }
        }
        out.extend(self.tail);
        out
    }

    fn push(&mut self, row: Row) {
        self.tail.push(row);
        if self.tail.len() == CHUNK_ROWS {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK_ROWS));
            self.full.push(Arc::new(full));
        }
    }

    /// `Vec::swap_remove` across chunks: the last row moves into `pos`.
    /// Copies at most the chunk holding `pos` and the last full chunk
    /// (when the tail is empty and a clone shares it).
    fn swap_remove(&mut self, pos: usize) {
        if self.tail.is_empty() {
            let last = self
                .full
                .pop()
                .expect("swap_remove on a non-empty sequence");
            self.tail = Arc::try_unwrap(last).unwrap_or_else(|shared| shared.to_vec());
        }
        let last = self.tail.pop().expect("tail refilled above");
        if pos < self.len() {
            let (c, i) = (pos / CHUNK_ROWS, pos % CHUNK_ROWS);
            match self.full.get_mut(c) {
                Some(chunk) => Arc::make_mut(chunk)[i] = last,
                None => self.tail[i] = last,
            }
        }
    }

    /// Index of the last row equal to `row`.
    fn rposition(&self, row: &[Value]) -> Option<usize> {
        let matches = |r: &Row| r.as_slice() == row;
        if let Some(i) = self.tail.iter().rposition(matches) {
            return Some(self.full.len() * CHUNK_ROWS + i);
        }
        self.full
            .iter()
            .enumerate()
            .rev()
            .find_map(|(c, chunk)| chunk.iter().rposition(matches).map(|i| c * CHUNK_ROWS + i))
    }
}

impl Index<usize> for Rows {
    type Output = Row;

    #[inline]
    fn index(&self, i: usize) -> &Row {
        match self.full.get(i / CHUNK_ROWS) {
            Some(chunk) => &chunk[i % CHUNK_ROWS],
            None => &self.tail[i - self.full.len() * CHUNK_ROWS],
        }
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Row;
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the rows of a [`Rows`], in order.
#[derive(Clone)]
pub struct RowsIter<'a> {
    chunks: std::slice::Iter<'a, Arc<Vec<Row>>>,
    front: std::slice::Iter<'a, Row>,
    /// Starts as the tail; `next_back` refills it from `chunks`.
    back: std::slice::Iter<'a, Row>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        loop {
            if let Some(row) = self.front.next() {
                return Some(row);
            }
            match self.chunks.next() {
                Some(chunk) => self.front = chunk.iter(),
                None => return self.back.next(),
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.front.len() + self.chunks.len() * CHUNK_ROWS + self.back.len();
        (n, Some(n))
    }
}

impl DoubleEndedIterator for RowsIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.back.next_back() {
                return Some(row);
            }
            match self.chunks.next_back() {
                Some(chunk) => self.back = chunk.iter(),
                None => return self.front.next_back(),
            }
        }
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

/// A bag-semantics relation: a schema plus a multiset of rows.
///
/// Duplicate rows are meaningful (the paper counts join outputs with
/// multiplicity). All per-row invariants (`row.len() == schema.arity()`)
/// are enforced on insertion. Rows live in copy-on-write chunks
/// ([`Rows`]), so a clone copies chunk pointers plus a tail of under
/// 1024 rows.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    rows: Rows,
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Rows::default(),
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
            rows: Rows::from_vec(rows),
        }
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Borrow the rows.
    #[inline]
    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// Number of rows (with multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row arity differs from the schema arity.
    pub fn push(&mut self, row: Row) {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity must match schema arity"
        );
        self.rows.push(row);
    }

    /// Remove **one** occurrence of `row`, returning `true` if one existed.
    ///
    /// This is the `D \ {t}` of downward tuple sensitivity (Def 2.1):
    /// under bag semantics exactly one copy is removed — which copy is
    /// immaterial, so the scan runs back to front: update streams
    /// overwhelmingly delete recently-inserted rows (inserts append), and
    /// finding them at the tail keeps churn O(1) instead of O(rows). The
    /// last row moves into the freed slot (`swap_remove` order), so at
    /// most two chunks are copied.
    pub fn remove_one(&mut self, row: &[Value]) -> bool {
        if let Some(pos) = self.rows.rposition(row) {
            self.rows.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of occurrences of `row`.
    pub fn multiplicity(&self, row: &[Value]) -> usize {
        self.rows.iter().filter(|r| r.as_slice() == row).count()
    }

    /// True if at least one occurrence of `row` exists.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.rows.iter().any(|r| r.as_slice() == row)
    }

    /// Bag projection onto `target` (a subset of the schema). Keeps
    /// duplicates — this is the multiplicity-preserving `π` of the paper.
    pub fn project(&self, target: &Schema) -> Relation {
        let idx = self.schema.projection_indices(target);
        let rows = self
            .rows
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Relation {
            schema: target.clone(),
            rows: Rows::from_vec(rows),
        }
    }

    /// Keep only rows satisfying `pred`, in their current order.
    pub fn retain(&mut self, mut pred: impl FnMut(&[Value]) -> bool) {
        let mut rows = std::mem::take(&mut self.rows).into_vec();
        rows.retain(|r| pred(r));
        self.rows = Rows::from_vec(rows);
    }

    /// A relation with the same schema and the rows for which `pred` holds.
    pub fn filtered(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Relation {
        Relation {
            schema: self.schema.clone(),
            rows: Rows::from_vec(self.rows.iter().filter(|r| pred(r)).cloned().collect()),
        }
    }

    /// Sort rows lexicographically (canonical form for comparisons).
    pub fn sort(&mut self) {
        let mut rows = std::mem::take(&mut self.rows).into_vec();
        rows.sort_unstable();
        self.rows = Rows::from_vec(rows);
    }

    /// Iterate over rows.
    pub fn iter(&self) -> RowsIter<'_> {
        self.rows.iter()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{:?} [{} rows]", self.schema, self.rows.len())?;
        for row in self.rows.iter().take(20) {
            writeln!(f, "  {row:?}")?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … ({} more)", self.rows.len() - 20)?;
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
        assert_eq!(r.len(), 1);
        assert!(r.contains_row(&row(&[6])));
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
}
