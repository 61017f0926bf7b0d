//! Multi-relation database instances.

use crate::attr::{AttrId, AttrRegistry};
use crate::error::DataError;
use crate::relation::{Relation, Row};
use crate::schema::Schema;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A database instance `D`: a catalog of named bag-semantics relations
/// sharing one attribute namespace.
///
/// Relation order is stable (insertion order) and relations are addressed
/// either by name or by dense index — queries refer to relations by index
/// for speed.
///
/// Relations are held behind `Arc`s, so **cloning a database is
/// O(#relations), not O(data)**: a clone shares every relation's rows
/// with the original and mutation forks only the touched relation
/// (`Arc::make_mut`). Forking a relation copies its chunk pointers, and
/// a single-row edit then copies the one or two chunks it writes
/// ([`crate::Rows`]). This is what makes snapshot serving cheap — a
/// writer forks the catalog, applies a delta (paying O(chunk) per row
/// it touches), and publishes, while readers keep using the old
/// snapshot.
#[derive(Clone, Default)]
pub struct Database {
    registry: AttrRegistry,
    relations: Vec<(String, Arc<Relation>)>,
    by_name: HashMap<String, usize>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an attribute name, returning its id.
    pub fn attr(&mut self, name: &str) -> AttrId {
        self.registry.intern(name)
    }

    /// Intern several attribute names at once.
    pub fn attrs<const N: usize>(&mut self, names: [&str; N]) -> [AttrId; N] {
        names.map(|n| self.registry.intern(n))
    }

    /// Look up an attribute id without interning.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.registry.get(name)
    }

    /// The attribute registry.
    pub fn registry(&self) -> &AttrRegistry {
        &self.registry
    }

    /// Add a relation under `name`, returning its index.
    ///
    /// # Errors
    /// Returns [`DataError::DuplicateRelation`] if the name is taken.
    pub fn add_relation(&mut self, name: &str, rel: Relation) -> Result<usize, DataError> {
        if self.by_name.contains_key(name) {
            return Err(DataError::DuplicateRelation(name.to_owned()));
        }
        let idx = self.relations.len();
        self.relations.push((name.to_owned(), Arc::new(rel)));
        self.by_name.insert(name.to_owned(), idx);
        Ok(idx)
    }

    /// Convenience: create an empty relation over `schema` under `name`.
    pub fn add_empty(&mut self, name: &str, schema: Schema) -> Result<usize, DataError> {
        self.add_relation(name, Relation::new(schema))
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations (the paper's `n`).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|(_, r)| r.len()).sum()
    }

    /// The relation at `idx`.
    pub fn relation(&self, idx: usize) -> &Relation {
        &self.relations[idx].1
    }

    /// The shared handle of the relation at `idx` — pin it to keep these
    /// exact rows alive across later updates (updates fork, they never
    /// mutate a shared relation in place).
    pub fn relation_arc(&self, idx: usize) -> &Arc<Relation> {
        &self.relations[idx].1
    }

    /// Mutable access to the relation at `idx`. Copy-on-write: if a
    /// cloned database (a pinned snapshot) still shares this relation,
    /// it is forked here (chunk pointers only; writes then copy the
    /// chunks they touch) — the snapshot is never disturbed.
    pub fn relation_mut(&mut self, idx: usize) -> &mut Relation {
        Arc::make_mut(&mut self.relations[idx].1)
    }

    /// The name of the relation at `idx`.
    pub fn relation_name(&self, idx: usize) -> &str {
        &self.relations[idx].0
    }

    /// Index of the relation called `name`.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The relation called `name`.
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        self.relation_index(name).map(|i| self.relation(i))
    }

    /// Iterate `(index, name, relation)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, (n, r))| (i, n.as_str(), r.as_ref()))
    }

    /// Insert one copy of `row` into relation `idx` (the `D ∪ {t}` of
    /// upward tuple sensitivity).
    ///
    /// # Panics
    /// Panics if the row arity mismatches the relation schema.
    pub fn insert_row(&mut self, idx: usize, row: Row) {
        self.relation_mut(idx).push(row);
    }

    /// Remove one copy of `row` from relation `idx`, returning whether a
    /// copy existed (the `D \ {t}` of downward tuple sensitivity).
    pub fn remove_row(&mut self, idx: usize, row: &[crate::Value]) -> bool {
        self.relation_mut(idx).remove_one(row)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Database [{} relations, {} tuples]",
            self.relation_count(),
            self.total_tuples()
        )?;
        for (i, name, rel) in self.iter() {
            writeln!(f, "  #{i} {name}{:?}: {} rows", rel.schema(), rel.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn add_and_lookup_relations() {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        let idx = db
            .add_relation("R", Relation::new(Schema::new(vec![a, b])))
            .unwrap();
        assert_eq!(db.relation_index("R"), Some(idx));
        assert_eq!(db.relation_name(idx), "R");
        assert!(db.relation_by_name("S").is_none());
        assert_eq!(db.relation_count(), 1);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        let a = db.attr("A");
        db.add_empty("R", Schema::new(vec![a])).unwrap();
        let err = db.add_empty("R", Schema::new(vec![a])).unwrap_err();
        assert!(matches!(err, DataError::DuplicateRelation(_)));
    }

    #[test]
    fn insert_and_remove_rows() {
        let mut db = Database::new();
        let a = db.attr("A");
        let idx = db.add_empty("R", Schema::new(vec![a])).unwrap();
        db.insert_row(idx, vec![Value::Int(1)]);
        db.insert_row(idx, vec![Value::Int(1)]);
        assert_eq!(db.total_tuples(), 2);
        assert!(db.remove_row(idx, &[Value::Int(1)]));
        assert_eq!(db.total_tuples(), 1);
        assert!(!db.remove_row(idx, &[Value::Int(9)]));
    }

    #[test]
    fn attr_interning_shared_across_relations() {
        let mut db = Database::new();
        let a1 = db.attr("A");
        let a2 = db.attr("A");
        assert_eq!(a1, a2);
        assert_eq!(db.attr_id("A"), Some(a1));
        assert_eq!(db.registry().len(), 1);
    }
}
