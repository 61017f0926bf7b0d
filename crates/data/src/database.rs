//! Multi-relation database instances.

use crate::attr::{AttrId, AttrRegistry};
use crate::error::DataError;
use crate::relation::{Relation, Row};
use crate::schema::Schema;
use crate::update::Update;
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
/// O(#relations), not O(data)**: a clone shares every relation with the
/// original and mutation copies only the touched relation
/// (`Arc::make_mut`). The attribute registry and the name map are
/// shared the same way, so a clone allocates no strings; interning an
/// attribute or adding a relation copies them on the first write.
///
/// [`Database::catalog`] keeps everything but the rows: each relation
/// becomes a catalog entry ([`Relation::catalog`]) holding its schema
/// and tuple count. That is the form an engine session keeps next to
/// its encoded store, where the rows themselves live.
#[derive(Clone, Default)]
pub struct Database {
    registry: Arc<AttrRegistry>,
    relations: Vec<(String, Arc<Relation>)>,
    by_name: Arc<HashMap<String, usize>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an attribute name, returning its id.
    pub fn attr(&mut self, name: &str) -> AttrId {
        match self.registry.get(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.registry).intern(name),
        }
    }

    /// Intern several attribute names at once.
    pub fn attrs<const N: usize>(&mut self, names: [&str; N]) -> [AttrId; N] {
        names.map(|n| self.attr(n))
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
        Arc::make_mut(&mut self.by_name).insert(name.to_owned(), idx);
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

    /// Mutable access to the relation at `idx`. Copy-on-write: if a
    /// cloned database still shares this relation, it is copied here —
    /// the clone is never disturbed.
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

    /// This catalog (names, schemas, attribute registry) keeping the rows
    /// of the `keep` relations only: each kept relation is shared by
    /// `Arc`, every other one is a new empty relation over the same
    /// schema, so relation indices and names still match.
    ///
    /// # Panics
    /// Panics if an index in `keep` is outside the catalog.
    pub fn with_rows_of(&self, keep: impl IntoIterator<Item = usize>) -> Database {
        let mut kept = vec![false; self.relations.len()];
        for idx in keep {
            kept[idx] = true;
        }
        let relations = self
            .relations
            .iter()
            .zip(kept)
            .map(|((name, rel), k)| {
                let rel = if k {
                    Arc::clone(rel)
                } else {
                    Arc::new(Relation::new(rel.schema().clone()))
                };
                (name.clone(), rel)
            })
            .collect();
        Database {
            registry: Arc::clone(&self.registry),
            relations,
            by_name: Arc::clone(&self.by_name),
        }
    }

    /// This catalog with every relation reduced to a catalog entry: the
    /// same registry, names and schemas, and each relation's tuple count
    /// in place of its rows.
    pub fn catalog(&self) -> Database {
        let relations = self
            .relations
            .iter()
            .map(|(name, rel)| {
                let entry = Relation::catalog(rel.schema().clone(), rel.len());
                (name.clone(), Arc::new(entry))
            })
            .collect();
        Database {
            registry: Arc::clone(&self.registry),
            relations,
            by_name: Arc::clone(&self.by_name),
        }
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

    /// Apply one delta to the rows, returning `false` only for a delete
    /// of an absent row — the row-level twin of an engine session's
    /// apply, for callers that keep a model of the data next to one.
    ///
    /// # Panics
    /// Panics on an out-of-range relation or a row arity mismatch.
    pub fn apply(&mut self, update: &Update) -> bool {
        match update {
            Update::Insert { relation, row } => self.insert_row(*relation, row.clone()),
            Update::Delete { relation, row } => return self.remove_row(*relation, row),
            Update::BulkLoad { relation, rows } => {
                for row in rows {
                    self.insert_row(*relation, row.clone());
                }
            }
        }
        true
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
    fn with_rows_of_keeps_the_catalog_and_only_the_kept_rows() {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        let r = db.add_empty("R", Schema::new(vec![a])).unwrap();
        let s = db.add_empty("S", Schema::new(vec![a, b])).unwrap();
        db.insert_row(r, vec![Value::Int(1)]);
        db.insert_row(s, vec![Value::Int(1), Value::Int(2)]);
        let only_s = db.with_rows_of([s]);
        assert_eq!(only_s.relation_index("R"), Some(r));
        assert_eq!(only_s.relation(r).schema(), db.relation(r).schema());
        assert!(only_s.relation(r).is_empty());
        assert!(Arc::ptr_eq(&only_s.relations[s].1, &db.relations[s].1));
        assert_eq!(only_s.registry().len(), 2);
    }

    #[test]
    fn catalog_keeps_names_schemas_and_counts_only() {
        let mut db = Database::new();
        let a = db.attr("A");
        let r = db.add_empty("R", Schema::new(vec![a])).unwrap();
        db.insert_row(r, vec![Value::Int(1)]);
        db.insert_row(r, vec![Value::Int(1)]);
        let catalog = db.catalog();
        assert_eq!(catalog.relation_index("R"), Some(r));
        assert_eq!(catalog.relation(r).schema(), db.relation(r).schema());
        assert_eq!(
            catalog.relation(r),
            &Relation::catalog(Schema::new(vec![a]), 2)
        );
        assert!(Arc::ptr_eq(&catalog.registry, &db.registry));
    }

    #[test]
    fn clone_shares_the_registry_and_name_map_until_written() {
        let mut db = Database::new();
        let a = db.attr("A");
        db.add_empty("R", Schema::new(vec![a])).unwrap();
        let mut copy = db.clone();
        assert!(Arc::ptr_eq(&copy.registry, &db.registry));
        assert!(Arc::ptr_eq(&copy.by_name, &db.by_name));
        // Re-interning a known name writes nothing.
        assert_eq!(copy.attr("A"), a);
        assert!(Arc::ptr_eq(&copy.registry, &db.registry));

        let b = copy.attr("B");
        copy.add_empty("S", Schema::new(vec![a, b])).unwrap();
        assert_eq!(copy.attr_id("B"), Some(b));
        assert_eq!(copy.relation_index("S"), Some(1));
        assert_eq!(db.attr_id("B"), None, "the original registry is unchanged");
        assert_eq!(db.registry().len(), 1);
        assert_eq!(db.relation_index("S"), None);
        assert_eq!(db.relation_count(), 1);
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
