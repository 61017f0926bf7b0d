//! `EngineSession` — the cross-query serving layer.
//!
//! The paper's deployment model is a trusted curator answering a stream
//! of analyst counting queries over one fixed database. A session owns
//! the database-resident encoding ([`tsens_data::EncodedDatabase`]: one
//! order-isomorphic dictionary plus eagerly encoded relations) and
//! memoizes, across queries:
//!
//! * **lifted atoms** — selected + encoded + grouped atom relations,
//!   keyed by `(relation, predicate)`. Atoms without predicates resolve
//!   straight to the resident encoding; predicated atoms are filtered
//!   once and shared by every query that repeats the predicate;
//! * **passes** — bag relations and the ⊥ pass (and, on demand, the ⊤
//!   pass), keyed by the query fingerprint and tree shape
//!   ([`QueryKey`]); repeated queries and the near-identical subqueries
//!   TSens issues across skips and top-k variants hit warm state;
//! * **max-frequency statistics** — `mf(X, R)` per `(relation, attr
//!   set)`, consumed by the elastic-sensitivity baseline;
//! * **query results** — a type-erased result cache
//!   ([`EngineSession::cached_query_result`]) that higher layers
//!   (`tsens-core`'s sensitivity reports, `tsens-dp`'s profiles) use to
//!   memoize their own per-query outputs without this crate knowing
//!   their types.
//!
//! # Mutability and selective invalidation
//!
//! The session is a **mutable, versioned database**, not a frozen
//! snapshot: [`EngineSession::apply`] (and the [`EngineSession::insert`]
//! / [`EngineSession::delete`] / [`EngineSession::bulk_load`] sugar)
//! pushes single-tuple and bulk deltas into the resident encoding in
//! place (the catalog only tracks each relation's tuple count), then
//! invalidates **selectively** instead of wholesale:
//!
//! * lifted-atom entries keyed `(relation, predicate)` die only when
//!   that relation changes;
//! * pass states and cached results die only when a relation in their
//!   structural fingerprint ([`QueryKey`]) changes;
//! * `mf(X, R)` statistics die only when `R` changes, and a single-row
//!   write patches `∅` and every set of `R`'s leading columns instead;
//! * a dictionary **re-sort epoch** (a genuinely new value entered the
//!   database) additionally drops the lifted-atom cache, whose encoded
//!   rows would otherwise mix stale code labels into *new* pass
//!   computations. Surviving pass entries are safe: each pins the
//!   `Arc<Dict>` it was built with and is only ever read
//!   self-contained, and cached results store decoded values.
//!
//! Queries whose relations an update never touched keep hitting warm
//! caches; re-querying a touched relation re-runs just that query's
//! passes against the maintained encoding — no re-encoding, no
//! dictionary rebuild (see `SessionStats`' invalidation counters).
//!
//! All caches sit behind `Mutex`es, making the session `Sync`: one warm
//! session can serve many threads over a shared pass state. Mutation
//! takes `&mut self`, so the borrow checker still serializes updates
//! against in-flight queries.

use crate::passes::{
    bag_relations_from_arcs_pooled, botjoin_pass_enc_pooled, topjoin_pass_enc_pooled,
};
use crate::pool::Pool;
use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tsens_data::{
    sat_add, AttrId, Count, DataError, Database, Dict, EncodedDatabase, EncodedRelation, FastMap,
    Relation, Row, Schema, TsensError, Update,
};
use tsens_query::{Atom, ConjunctiveQuery, DecompositionTree, Predicate};

/// Structural fingerprint of a query (atom relations, schemas,
/// predicates) plus, when present, the decomposition tree shape (bag
/// composition and parent array). Two queries with equal keys run the
/// exact same pass computation, so cache hits are sound by construction —
/// no hash-collision risk is taken on result identity.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    pub(crate) atoms: Vec<(usize, Vec<AttrId>, Predicate)>,
    pub(crate) bags: Vec<Vec<usize>>,
    pub(crate) parents: Vec<Option<usize>>,
}

impl QueryKey {
    /// Fingerprint `cq` together with `tree`'s shape.
    pub fn new(cq: &ConjunctiveQuery, tree: &DecompositionTree) -> Self {
        let mut key = QueryKey::query_only(cq);
        key.bags = tree.bags().iter().map(|b| b.atoms.clone()).collect();
        key.parents = (0..tree.bag_count()).map(|v| tree.parent(v)).collect();
        key
    }

    /// Fingerprint `cq` alone (for tree-free algorithms such as the
    /// Algorithm 1 path specialisation).
    pub fn query_only(cq: &ConjunctiveQuery) -> Self {
        QueryKey {
            atoms: cq
                .atoms()
                .iter()
                .map(|a| (a.relation, a.schema.attrs().to_vec(), a.predicate.clone()))
                .collect(),
            bags: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// Whether relation `rel` is in this fingerprint — i.e. whether an
    /// update to it invalidates state cached under this key.
    pub fn touches(&self, rel: usize) -> bool {
        self.atoms.iter().any(|(r, _, _)| *r == rel)
    }
}

/// The shared ⊥/⊤ pass state of one `(query, tree)` pair, living in the
/// session's pass cache.
///
/// `lifted` and `bags` are `Arc`-shared: a singleton bag *is* its lifted
/// atom, and lifted atoms are shared across every query touching the
/// same `(relation, predicate)`. The ⊤ pass is computed lazily — plain
/// count evaluation only needs ⊥.
///
/// Every per-bag state (and every maintenance index) sits behind its
/// own `Arc`, so `clone` is shallow: O(#bags) pointer copies. Delta
/// repair of an entry a pinned snapshot shares clones it this way and
/// then copies only the states the delta changes.
#[derive(Clone)]
pub struct QueryPasses {
    /// The session dictionary (decodes witnesses at report boundaries).
    pub dict: Arc<Dict>,
    /// Lifted atom relations, in query-atom order.
    pub lifted: Vec<Arc<EncodedRelation>>,
    /// Bag relations, in tree-bag order.
    pub bags: Vec<Arc<EncodedRelation>>,
    /// ⊥ pass results (Eqn 7), in tree-bag order.
    pub bots: Vec<Arc<EncodedRelation>>,
    pub(crate) tops: OnceLock<Vec<Arc<EncodedRelation>>>,
    /// The pool the entry was built on; the lazy ⊤ pass reuses it so a
    /// cached entry parallelizes the same way cold and warm.
    pool: Pool,
    /// The owning session's parallel-pass-task counter (shared `Arc` so
    /// the lazy ⊤ pass can report without a session borrow).
    par_pass_tasks: Arc<AtomicU64>,
    /// Dictionary epoch the entry was built (or last repaired) under.
    /// Delta repair is only sound while this matches the session's
    /// current epoch — a re-sort relabels every code, so a stale entry
    /// falls back to full invalidation instead.
    pub(crate) epoch: u64,
    /// Per-bag repair generation: bumped whenever `bags[v]` is
    /// re-pointed, so maintenance indexes keyed on bag rows self-expire.
    pub(crate) bag_gen: Vec<u64>,
    /// Lazily built bag-row indexes used by O(delta) repair
    /// ([`crate::maintain`]); never consulted by query evaluation.
    pub(crate) maint: crate::maintain::MaintIndexes,
}

impl QueryPasses {
    /// ⊤ pass results (Eqn 8), computed on first use and cached for the
    /// life of the entry.
    pub fn tops(&self, tree: &DecompositionTree) -> &[Arc<EncodedRelation>] {
        self.tops.get_or_init(|| {
            let bag_refs: Vec<&EncodedRelation> = self.bags.iter().map(|b| &**b).collect();
            let bot_refs: Vec<&EncodedRelation> = self.bots.iter().map(|b| &**b).collect();
            topjoin_pass_enc_pooled(tree, &bag_refs, &bot_refs, &self.pool, &self.par_pass_tasks)
                .into_iter()
                .map(Arc::new)
                .collect()
        })
    }
}

/// Cache observability counters (monotonic, cheap relaxed atomics) —
/// used by tests to prove warm calls hit the caches and handy for
/// logging in serving front-ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lifted-atom cache hits (predicated atoms only; predicate-free
    /// atoms always resolve to the resident encoding).
    pub atom_hits: u64,
    /// Lifted-atom cache misses (entries built).
    pub atom_misses: u64,
    /// Pass-cache hits.
    pub pass_hits: u64,
    /// Pass-cache misses (pass states computed).
    pub pass_misses: u64,
    /// Result-cache hits (reports, profiles, … cached by higher layers).
    pub result_hits: u64,
    /// Result-cache misses.
    pub result_misses: u64,
    /// Max-frequency cache hits.
    pub mf_hits: u64,
    /// Max-frequency cache misses.
    pub mf_misses: u64,
    /// Updates applied through the session (no-op deletes excluded).
    pub updates_applied: u64,
    /// Dictionary re-sort epochs (updates that introduced new values).
    pub dict_epochs: u64,
    /// Lifted-atom entries dropped by invalidation (per-relation sweeps
    /// plus epoch-wide clears).
    pub atoms_invalidated: u64,
    /// Pass states dropped by per-relation invalidation.
    pub passes_invalidated: u64,
    /// Cached results dropped by per-relation invalidation.
    pub results_invalidated: u64,
    /// `mf` statistics dropped by per-relation invalidation.
    pub mf_invalidated: u64,
    /// Pass states **delta-maintained** in place by an update (O(delta)
    /// ⊥/⊤ repair instead of a drop-and-recompute).
    pub passes_maintained: u64,
    /// Cached results retained across an update because the repaired
    /// pass state was provably unchanged.
    pub results_maintained: u64,
    /// `mf` statistics patched or provably retained across an update.
    pub mf_maintained: u64,
    /// Predicated lifted-atom entries patched or provably retained
    /// across an update.
    pub atoms_maintained: u64,
    /// Copy-on-write forks taken in this session's lineage
    /// ([`EngineSession::fork`] — the snapshot-publish writer path).
    pub forks: u64,
    /// Worker-pool size this session runs on (1 = sequential paths).
    pub pool_threads: u64,
    /// Per-bag pass units executed in parallel (⊥/⊤ level-wise
    /// scheduling): only levels with at least two units count, so this
    /// is 0 under a sequential pool and for path-shaped trees.
    pub parallel_pass_tasks: u64,
    /// Partition pairs joined in parallel
    /// ([`crate::ops::partitioned_hash_join_enc`]); 0 under a sequential
    /// pool or below the size threshold.
    pub parallel_join_tasks: u64,
}

impl SessionStats {
    /// Field-wise combination of two counter snapshots.
    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        SessionStats {
            atom_hits: f(self.atom_hits, other.atom_hits),
            atom_misses: f(self.atom_misses, other.atom_misses),
            pass_hits: f(self.pass_hits, other.pass_hits),
            pass_misses: f(self.pass_misses, other.pass_misses),
            result_hits: f(self.result_hits, other.result_hits),
            result_misses: f(self.result_misses, other.result_misses),
            mf_hits: f(self.mf_hits, other.mf_hits),
            mf_misses: f(self.mf_misses, other.mf_misses),
            updates_applied: f(self.updates_applied, other.updates_applied),
            dict_epochs: f(self.dict_epochs, other.dict_epochs),
            atoms_invalidated: f(self.atoms_invalidated, other.atoms_invalidated),
            passes_invalidated: f(self.passes_invalidated, other.passes_invalidated),
            results_invalidated: f(self.results_invalidated, other.results_invalidated),
            mf_invalidated: f(self.mf_invalidated, other.mf_invalidated),
            passes_maintained: f(self.passes_maintained, other.passes_maintained),
            results_maintained: f(self.results_maintained, other.results_maintained),
            mf_maintained: f(self.mf_maintained, other.mf_maintained),
            atoms_maintained: f(self.atoms_maintained, other.atoms_maintained),
            forks: f(self.forks, other.forks),
            pool_threads: f(self.pool_threads, other.pool_threads),
            parallel_pass_tasks: f(self.parallel_pass_tasks, other.parallel_pass_tasks),
            parallel_join_tasks: f(self.parallel_join_tasks, other.parallel_join_tasks),
        }
    }
}

/// Field-wise sum: several sessions' (shards') counters together.
impl std::ops::Add for SessionStats {
    type Output = SessionStats;
    fn add(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }
}

/// Field-wise difference: what one session did between two snapshots
/// of its counters.
impl std::ops::Sub for SessionStats {
    type Output = SessionStats;
    fn sub(self, other: Self) -> Self {
        self.zip(other, |a, b| a - b)
    }
}

impl std::iter::Sum for SessionStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SessionStats::default(), |a, b| a + b)
    }
}

#[derive(Default)]
struct StatCounters {
    atom_hits: AtomicU64,
    atom_misses: AtomicU64,
    pass_hits: AtomicU64,
    pass_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    mf_hits: AtomicU64,
    mf_misses: AtomicU64,
    updates_applied: AtomicU64,
    dict_epochs: AtomicU64,
    atoms_invalidated: AtomicU64,
    passes_invalidated: AtomicU64,
    results_invalidated: AtomicU64,
    mf_invalidated: AtomicU64,
    passes_maintained: AtomicU64,
    results_maintained: AtomicU64,
    mf_maintained: AtomicU64,
    atoms_maintained: AtomicU64,
    forks: AtomicU64,
    /// `Arc`-shared so cached [`QueryPasses`] entries (whose lazy ⊤ pass
    /// runs without a session borrow) report into the same counters.
    par_pass_tasks: Arc<AtomicU64>,
    par_join_tasks: Arc<AtomicU64>,
}

impl StatCounters {
    /// Seed counters from a snapshot — the fork path, where the child
    /// session continues the parent's monotonic counts.
    fn from_stats(s: SessionStats) -> Self {
        StatCounters {
            atom_hits: AtomicU64::new(s.atom_hits),
            atom_misses: AtomicU64::new(s.atom_misses),
            pass_hits: AtomicU64::new(s.pass_hits),
            pass_misses: AtomicU64::new(s.pass_misses),
            result_hits: AtomicU64::new(s.result_hits),
            result_misses: AtomicU64::new(s.result_misses),
            mf_hits: AtomicU64::new(s.mf_hits),
            mf_misses: AtomicU64::new(s.mf_misses),
            updates_applied: AtomicU64::new(s.updates_applied),
            dict_epochs: AtomicU64::new(s.dict_epochs),
            atoms_invalidated: AtomicU64::new(s.atoms_invalidated),
            passes_invalidated: AtomicU64::new(s.passes_invalidated),
            results_invalidated: AtomicU64::new(s.results_invalidated),
            mf_invalidated: AtomicU64::new(s.mf_invalidated),
            passes_maintained: AtomicU64::new(s.passes_maintained),
            results_maintained: AtomicU64::new(s.results_maintained),
            mf_maintained: AtomicU64::new(s.mf_maintained),
            atoms_maintained: AtomicU64::new(s.atoms_maintained),
            forks: AtomicU64::new(s.forks),
            par_pass_tasks: Arc::new(AtomicU64::new(s.parallel_pass_tasks)),
            par_join_tasks: Arc::new(AtomicU64::new(s.parallel_join_tasks)),
        }
    }
}

type ResultKey = (&'static str, QueryKey, Vec<u128>);

/// A long-lived query-serving session over one mutable database. See
/// the module docs for the cache inventory and invalidation rules;
/// construction performs the whole database-resident encoding eagerly.
///
/// The encoded store is the only copy of the data. Next to it the
/// session keeps a catalog ([`Database::catalog`]: registry, names,
/// schemas and one tuple count per relation), which every update keeps
/// current — read it back through [`EngineSession::database`]. Reading
/// the rows of a catalog relation panics; decode them from
/// [`EngineSession::encoded`] instead. The caller's database is never
/// mutated.
pub struct EngineSession<'a> {
    db: Database,
    enc: EncodedDatabase,
    /// Predicated lifted atoms: `(relation, predicate) → lift`.
    atoms: Mutex<FastMap<(usize, Predicate), Arc<EncodedRelation>>>,
    /// Pass state per `(query fingerprint, tree shape)`.
    passes: Mutex<FastMap<QueryKey, Arc<QueryPasses>>>,
    /// Higher-layer query results, type-erased (downcast on read).
    results: Mutex<FastMap<ResultKey, Arc<dyn Any + Send + Sync>>>,
    /// `mf(X, R)` statistics: `(relation, sorted attrs) → max frequency`.
    mf: Mutex<FastMap<(usize, Vec<AttrId>), Count>>,
    stats: StatCounters,
    /// Intra-query worker pool: passes, large joins and encoding fan out
    /// across it. `Pool::sequential()` runs every algorithm in order on
    /// the calling thread.
    pool: Pool,
    /// The session borrows nothing; the lifetime stays so existing
    /// `EngineSession<'static>` signatures keep naming the same type.
    _lifetime: PhantomData<&'a Database>,
}

impl<'a> EngineSession<'a> {
    /// Open a session: build the database-wide dictionary and encode
    /// every relation (the once-per-database preprocessing cost).
    /// Parallel by default — the pool sizes from `TSENS_THREADS` /
    /// available parallelism; use [`EngineSession::with_pool`] to pin.
    pub fn new(db: &'a Database) -> Self {
        Self::with_pool(db, Pool::default())
    }

    /// [`EngineSession::new`] on an explicit worker pool — the
    /// builder-style entry point serving front-ends use after validating
    /// `TSENS_THREADS`. `Pool::sequential()` reproduces the
    /// single-threaded engine byte-for-byte.
    pub fn with_pool(db: &'a Database, pool: Pool) -> Self {
        Self::from_parts(
            db.catalog(),
            EncodedDatabase::new_with_pool(db, &pool),
            pool,
        )
    }

    /// Open a session over a catalog that keeps the rows of `cq`'s
    /// relations only — what the one-shot wrappers use so a single query
    /// never pays for encoding the rest of the catalog. Every other
    /// relation is empty with the same schema, so indices and names
    /// still match; the session is whole (it takes updates like any
    /// other), it just holds no rows the query cannot read.
    pub fn for_query(db: &Database, cq: &ConjunctiveQuery) -> EngineSession<'static> {
        let kept = db.with_rows_of(cq.atoms().iter().map(|a| a.relation));
        let enc = EncodedDatabase::new(&kept);
        EngineSession::from_parts(kept.catalog(), enc, Pool::default())
    }

    /// Open a session that **owns** its database — the serving
    /// front-end's constructor, where the session must outlive the scope
    /// that loaded the data (`EngineSession<'static>` slots straight
    /// into an `RwLock` shared across worker threads). The rows are
    /// dropped once encoded.
    pub fn owned(db: Database) -> EngineSession<'static> {
        Self::owned_with_pool(db, Pool::default())
    }

    /// [`EngineSession::owned`] on an explicit worker pool.
    pub fn owned_with_pool(db: Database, pool: Pool) -> EngineSession<'static> {
        let enc = EncodedDatabase::new_with_pool(&db, &pool);
        EngineSession::from_parts(db.catalog(), enc, pool)
    }

    /// Open an owning session over state restored from a durable
    /// snapshot (`tsens_data::store`) — [`EngineSession::owned`] minus
    /// the encoding cost, which is the whole point of snapshots: the
    /// dictionary and lifted relations come back exactly as saved, so
    /// boot skips CSV parse, dictionary sort, encode, and group.
    ///
    /// # Errors
    /// [`TsensError::Data`] when the pair is inconsistent (relation
    /// counts disagree) — defense against a caller pairing a catalog
    /// with someone else's encoding; the store's load path always
    /// produces a matching pair.
    pub fn from_encoded(
        db: Database,
        enc: EncodedDatabase,
    ) -> Result<EngineSession<'static>, TsensError> {
        if db.relation_count() != enc.relation_count() {
            return Err(DataError::Malformed(format!(
                "catalog has {} relations, encoding has {}",
                db.relation_count(),
                enc.relation_count()
            ))
            .into());
        }
        Ok(EngineSession::from_parts(
            db.catalog(),
            enc,
            Pool::default(),
        ))
    }

    fn from_parts(catalog: Database, enc: EncodedDatabase, pool: Pool) -> Self {
        EngineSession {
            db: catalog,
            enc,
            atoms: Mutex::new(FastMap::default()),
            passes: Mutex::new(FastMap::default()),
            results: Mutex::new(FastMap::default()),
            mf: Mutex::new(FastMap::default()),
            stats: StatCounters::default(),
            pool,
            _lifetime: PhantomData,
        }
    }

    /// The session's intra-query worker pool.
    #[inline]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The session's catalog: names, schemas and tuple counts, reflecting
    /// every applied update. Its relations hold no rows (reading them
    /// panics); the data lives in [`EngineSession::encoded`].
    #[inline]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The session-wide order-isomorphic dictionary.
    #[inline]
    pub fn dict(&self) -> &Arc<Dict> {
        self.enc.dict()
    }

    /// The resident encoding.
    #[inline]
    pub fn encoded(&self) -> &EncodedDatabase {
        &self.enc
    }

    /// The catalog with the rows of `relations` decoded from the encoded
    /// store (a distinct row of count `c` as `c` rows, in code order)
    /// and every other relation empty — for the callers that need
    /// `Value` rows back, such as a mechanism that truncates a copy of
    /// the data.
    ///
    /// # Errors
    /// [`TsensError::NoSuchRelation`] for a relation outside the
    /// catalog.
    pub fn decode_rows(
        &self,
        relations: impl IntoIterator<Item = usize>,
    ) -> Result<Database, TsensError> {
        let mut db = self.db.with_rows_of([]);
        for rel in relations {
            let decoded = self.enc.lifted(rel)?.decode(self.dict());
            let mut rows = Vec::new();
            for (row, c) in decoded.iter() {
                let copies = usize::try_from(*c).expect("a count fits the rows it stands for");
                rows.extend(std::iter::repeat_n(row, copies).cloned());
            }
            *db.relation_mut(rel) = Relation::from_rows(decoded.schema().clone(), rows);
        }
        Ok(db)
    }

    /// Check that every relation `cq` references is in the catalog — the
    /// request-path guard algorithms run before diving into infallible
    /// inner plumbing (after it, atom lifts and `mf` lookups over the
    /// query's relations cannot fail).
    ///
    /// # Errors
    /// [`TsensError::NoSuchRelation`] for the first offending atom.
    pub fn ensure_relations(&self, cq: &ConjunctiveQuery) -> Result<(), TsensError> {
        for atom in cq.atoms() {
            self.enc.lifted(atom.relation)?;
        }
        Ok(())
    }

    /// Current cache counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            atom_hits: self.stats.atom_hits.load(Ordering::Relaxed),
            atom_misses: self.stats.atom_misses.load(Ordering::Relaxed),
            pass_hits: self.stats.pass_hits.load(Ordering::Relaxed),
            pass_misses: self.stats.pass_misses.load(Ordering::Relaxed),
            result_hits: self.stats.result_hits.load(Ordering::Relaxed),
            result_misses: self.stats.result_misses.load(Ordering::Relaxed),
            mf_hits: self.stats.mf_hits.load(Ordering::Relaxed),
            mf_misses: self.stats.mf_misses.load(Ordering::Relaxed),
            updates_applied: self.stats.updates_applied.load(Ordering::Relaxed),
            dict_epochs: self.stats.dict_epochs.load(Ordering::Relaxed),
            atoms_invalidated: self.stats.atoms_invalidated.load(Ordering::Relaxed),
            passes_invalidated: self.stats.passes_invalidated.load(Ordering::Relaxed),
            results_invalidated: self.stats.results_invalidated.load(Ordering::Relaxed),
            mf_invalidated: self.stats.mf_invalidated.load(Ordering::Relaxed),
            passes_maintained: self.stats.passes_maintained.load(Ordering::Relaxed),
            results_maintained: self.stats.results_maintained.load(Ordering::Relaxed),
            mf_maintained: self.stats.mf_maintained.load(Ordering::Relaxed),
            atoms_maintained: self.stats.atoms_maintained.load(Ordering::Relaxed),
            forks: self.stats.forks.load(Ordering::Relaxed),
            pool_threads: self.pool.size() as u64,
            parallel_pass_tasks: self.stats.par_pass_tasks.load(Ordering::Relaxed),
            parallel_join_tasks: self.stats.par_join_tasks.load(Ordering::Relaxed),
        }
    }

    /// Fork this session copy-on-write — the snapshot-publish writer
    /// path. The child (`'static`) shares the catalog and the resident
    /// encoding with the parent via `Arc`, and **carries the parent's
    /// warm caches forward**: atom lifts, pass state, result entries,
    /// and `mf` statistics accumulated by readers against the parent all
    /// remain hits in the child. Stats counters continue from the parent's values, with
    /// `forks` bumped by one.
    ///
    /// Cost is O(#relations + #cache entries) pointer clones — no
    /// encodings or pass state are copied. An update applied to the
    /// child then copies only what it writes: the touched relation's
    /// catalog entry, one exactly-sized copy of the touched encoded
    /// relation, and, for each repaired pass entry the parent still
    /// shares, a shallow copy of the entry plus the ⊥/⊤ states the
    /// delta changes. The parent never observes the child's updates.
    pub fn fork(&self) -> EngineSession<'static> {
        fn clone_map<K: Clone, V: Clone>(m: &Mutex<FastMap<K, V>>) -> Mutex<FastMap<K, V>> {
            Mutex::new(m.lock().unwrap_or_else(|p| p.into_inner()).clone())
        }
        let mut stats = self.stats();
        stats.forks += 1;
        EngineSession {
            db: self.db.clone(),
            enc: self.enc.clone(),
            atoms: clone_map(&self.atoms),
            passes: clone_map(&self.passes),
            results: clone_map(&self.results),
            mf: clone_map(&self.mf),
            stats: StatCounters::from_stats(stats),
            pool: self.pool,
            _lifetime: PhantomData,
        }
    }

    /// The lifted (selected + encoded + grouped) relation of one atom.
    ///
    /// Predicate-free atoms share the resident encoding; predicated
    /// atoms are filtered once per distinct `(relation, predicate)` and
    /// cached. Selection predicates are evaluated over the encoded rows
    /// through a decoding lookup (the session holds no `Value` rows). A
    /// predicate constant the database has never seen is simply never
    /// equal to any stored value — the lift comes back empty, never a
    /// panic.
    ///
    /// # Errors
    /// [`TsensError::NoSuchRelation`] when the atom's relation is
    /// outside the catalog, and
    /// [`TsensError::Data`] when the predicate references an attribute
    /// the relation does not have.
    pub fn lifted_atom(&self, atom: &Atom) -> Result<Arc<EncodedRelation>, TsensError> {
        if atom.predicate.is_trivial() {
            return Ok(Arc::clone(self.enc.lifted(atom.relation)?));
        }
        let key = (atom.relation, atom.predicate.clone());
        if let Some(hit) = self.atoms.lock().expect("atom cache poisoned").get(&key) {
            self.stats.atom_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.stats.atom_misses.fetch_add(1, Ordering::Relaxed);
        let base = self.enc.lifted(atom.relation)?;
        let dict = self.dict();
        let schema = base.schema();
        debug_assert_eq!(schema, &atom.schema, "atom schema must match its relation");
        let mut out = EncodedRelation::with_capacity(schema.clone(), base.len());
        for (row, c) in base.iter() {
            // Full stored rows decide every in-schema attribute, so an
            // undecided predicate means it references an attribute the
            // relation does not have — malformed input. Keeping the row
            // would silently serve unfiltered counts; report it instead.
            let keep = atom
                .predicate
                .eval_partial(&|a| schema.position(a).map(|pos| dict.decode(row[pos])))
                .ok_or_else(|| {
                    TsensError::Data(DataError::UnknownAttribute(format!(
                        "predicate on relation {} references an attribute \
                         outside its schema",
                        atom.relation
                    )))
                })?;
            if keep {
                out.push(row, c);
            }
        }
        // Filtering a grouped relation preserves distinctness and order.
        let lifted = Arc::new(out);
        self.atoms
            .lock()
            .expect("atom cache poisoned")
            .insert(key, Arc::clone(&lifted));
        Ok(lifted)
    }

    /// Lift every atom of `cq`, in atom order.
    ///
    /// # Errors
    /// See [`EngineSession::lifted_atom`].
    pub fn lift_query(
        &self,
        cq: &ConjunctiveQuery,
    ) -> Result<Vec<Arc<EncodedRelation>>, TsensError> {
        cq.atoms().iter().map(|a| self.lifted_atom(a)).collect()
    }

    /// The shared pass state of `(cq, tree)`: lifted atoms, bag
    /// relations and the ⊥ pass, computed once and memoized (the ⊤ pass
    /// is added lazily inside the entry).
    ///
    /// # Errors
    /// See [`EngineSession::lifted_atom`].
    pub fn passes(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Arc<QueryPasses>, TsensError> {
        let key = QueryKey::new(cq, tree);
        if let Some(hit) = self.passes.lock().expect("pass cache poisoned").get(&key) {
            self.stats.pass_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.stats.pass_misses.fetch_add(1, Ordering::Relaxed);
        let lifted = self.lift_query(cq)?;
        let bags =
            bag_relations_from_arcs_pooled(&lifted, tree, &self.pool, &self.stats.par_join_tasks);
        let bag_refs: Vec<&EncodedRelation> = bags.iter().map(|b| &**b).collect();
        let bots = botjoin_pass_enc_pooled(tree, &bag_refs, &self.pool, &self.stats.par_pass_tasks)
            .into_iter()
            .map(Arc::new)
            .collect();
        let bag_gen = vec![0; bags.len()];
        let entry = Arc::new(QueryPasses {
            dict: Arc::clone(self.dict()),
            lifted,
            bags,
            bots,
            tops: OnceLock::new(),
            pool: self.pool,
            par_pass_tasks: Arc::clone(&self.stats.par_pass_tasks),
            epoch: self.enc.epoch(),
            bag_gen,
            maint: crate::maintain::MaintIndexes::default(),
        });
        // A racing thread may have inserted meanwhile; keep the first
        // entry so concurrent callers converge on one shared state.
        let mut guard = self.passes.lock().expect("pass cache poisoned");
        Ok(Arc::clone(guard.entry(key).or_insert(entry)))
    }

    /// Bag-semantics output size `|Q(D)|` — warm calls are a single
    /// pass-cache lookup.
    ///
    /// # Errors
    /// See [`EngineSession::lifted_atom`].
    pub fn count_query(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Count, TsensError> {
        let passes = self.passes(cq, tree)?;
        Ok(passes.bots[tree.root()].total_count())
    }

    /// Memoize an arbitrary per-query result computed by a higher layer
    /// (a sensitivity report, a truncation profile, …).
    ///
    /// `kind` namespaces the algorithm, `salt` carries its scalar
    /// parameters (skips, k, plan order, …), and the query/tree pair is
    /// fingerprinted structurally. The value is computed at most once per
    /// distinct key and shared behind an `Arc`. Keys are exact — equal
    /// keys imply the same computation, so a hit can never alias a
    /// different query's result.
    pub fn cached_query_result<T: Any + Send + Sync>(
        &self,
        kind: &'static str,
        cq: &ConjunctiveQuery,
        tree: Option<&DecompositionTree>,
        salt: &[u128],
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        self.try_cached_query_result(kind, cq, tree, salt, || Ok(compute()))
            .expect("infallible computation")
    }

    /// [`EngineSession::cached_query_result`] for fallible computations —
    /// the serving path, where a bad request (a relation outside the
    /// catalog) must come back as an error, not cache a poisoned
    /// entry or kill the worker. Failed computations cache nothing.
    ///
    /// # Errors
    /// Whatever `compute` returns.
    pub fn try_cached_query_result<T: Any + Send + Sync>(
        &self,
        kind: &'static str,
        cq: &ConjunctiveQuery,
        tree: Option<&DecompositionTree>,
        salt: &[u128],
        compute: impl FnOnce() -> Result<T, TsensError>,
    ) -> Result<Arc<T>, TsensError> {
        let key = (
            kind,
            match tree {
                Some(t) => QueryKey::new(cq, t),
                None => QueryKey::query_only(cq),
            },
            salt.to_vec(),
        );
        if let Some(hit) = self
            .results
            .lock()
            .expect("result cache poisoned")
            .get(&key)
        {
            if let Ok(typed) = Arc::clone(hit).downcast::<T>() {
                self.stats.result_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(typed);
            }
        }
        self.stats.result_misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the lock: the computation may re-enter the
        // session (passes, lifts) and must not deadlock.
        let value = Arc::new(compute()?);
        self.results
            .lock()
            .expect("result cache poisoned")
            .insert(key, Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        Ok(value)
    }

    /// Max frequency `mf(X, R)`: the largest number of rows of relation
    /// `rel` sharing one value of the attribute set `attrs` (`|R|` for
    /// the empty set). Computed from the resident encoding and cached per
    /// `(relation, attr set)` — the statistic elastic sensitivity probes
    /// repeatedly across atoms, plans and distances.
    ///
    /// # Errors
    /// [`TsensError::NoSuchRelation`] for a relation outside the
    /// catalog.
    ///
    /// # Panics
    /// Panics if an attribute is not a column of the relation.
    pub fn max_frequency(&self, rel: usize, attrs: &[AttrId]) -> Result<Count, TsensError> {
        let mut sorted: Vec<AttrId> = attrs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let key = (rel, sorted);
        if let Some(&hit) = self.mf.lock().expect("mf cache poisoned").get(&key) {
            self.stats.mf_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.stats.mf_misses.fetch_add(1, Ordering::Relaxed);
        let lifted = self.enc.lifted(rel)?;
        let target = Schema::new(key.1.clone());
        let mf = if let Some(k) = leading_columns(lifted.schema(), &key.1) {
            // The set is the leading columns (∅ gives mf(∅, R) = |R|):
            // the sorted rows hold each of its values as one run, so one
            // scan finds the largest run without grouping.
            let (mut max, mut run, mut prev) = (0, 0, None);
            for (row, c) in lifted.iter() {
                let key = &row[..k];
                run = if prev == Some(key) {
                    sat_add(run, c)
                } else {
                    c
                };
                prev = Some(key);
                max = max.max(run);
            }
            max
        } else {
            lifted
                .group(&target)
                .iter()
                .map(|(_, c)| c)
                .max()
                .unwrap_or(0)
        };
        self.mf.lock().expect("mf cache poisoned").insert(key, mf);
        Ok(mf)
    }

    // ------------------------------------------------------------------
    // Mutation: incremental updates with selective cache invalidation.
    // ------------------------------------------------------------------

    /// Version counter of relation `rel`: bumped by every update
    /// touching it. Anything fingerprinted on `rel` is valid exactly
    /// while this number is unchanged.
    #[inline]
    pub fn relation_version(&self, rel: usize) -> u64 {
        self.enc.version(rel)
    }

    /// Dictionary epoch: bumped whenever an update introduced a value
    /// the resident dictionary had never seen (forcing a re-sort).
    #[inline]
    pub fn dict_epoch(&self) -> u64 {
        self.enc.epoch()
    }

    /// Apply one delta: sweep the caches fingerprinted on the touched
    /// relation, push the delta into the resident encoding in place
    /// (and into the touched relation's catalog tuple count), and
    /// re-sort the dictionary if the delta introduced new values.
    /// Returns `Ok(false)` only for a delete of an absent row (a no-op:
    /// nothing is swept or bumped).
    ///
    /// # Errors
    /// [`TsensError::NoSuchRelation`] on an out-of-range relation,
    /// [`TsensError::Data`] on a row arity mismatch — all checked before
    /// any cache is swept or any state mutated, so a malformed request
    /// leaves the warm session untouched.
    pub fn apply(&mut self, update: Update) -> Result<bool, TsensError> {
        self.apply_inner(update, true)
    }

    /// [`EngineSession::apply`] for a whole batch, deferring the
    /// dictionary re-sort to the end (long ingests with many new values
    /// pay one epoch, not one per delta — plus automatic threshold
    /// epochs inside very large batches). Returns how many deltas
    /// applied.
    ///
    /// # Errors
    /// Stops at the first failing delta; earlier deltas stay applied
    /// (and are normalized before returning the error).
    pub fn apply_all(
        &mut self,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<usize, TsensError> {
        self.apply_all_diagnosed(updates).map_err(|(_, e)| e)
    }

    /// [`EngineSession::apply_all`] keeping track of *which* delta
    /// failed: the error carries the 0-based index of the offending
    /// update, so batch callers (the server's `/update` lane, WAL
    /// replay) can report the exact line instead of "somewhere in the
    /// batch".
    ///
    /// # Errors
    /// `(index, error)` of the first failing delta; earlier deltas stay
    /// applied (and are normalized before returning).
    pub fn apply_all_diagnosed(
        &mut self,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<usize, (usize, TsensError)> {
        let mut applied = 0;
        let mut failed = None;
        for (i, u) in updates.into_iter().enumerate() {
            match self.apply_inner(u, false) {
                Ok(true) => applied += 1,
                Ok(false) => {}
                Err(e) => {
                    failed = Some((i, e));
                    break;
                }
            }
        }
        let before = self.enc.epoch();
        self.enc.normalize();
        if self.enc.epoch() != before {
            self.on_epoch();
        }
        match failed {
            Some(ie) => Err(ie),
            None => Ok(applied),
        }
    }

    /// Insert one copy of `row` into relation `relation`.
    ///
    /// # Errors
    /// See [`EngineSession::apply`].
    pub fn insert(&mut self, relation: usize, row: Row) -> Result<(), TsensError> {
        self.apply(Update::Insert { relation, row }).map(|_| ())
    }

    /// Remove one copy of `row` from relation `relation`, returning
    /// whether a copy existed.
    ///
    /// # Errors
    /// See [`EngineSession::apply`].
    pub fn delete(&mut self, relation: usize, row: Row) -> Result<bool, TsensError> {
        self.apply(Update::Delete { relation, row })
    }

    /// Append `rows` to relation `relation` in one delta.
    ///
    /// # Errors
    /// See [`EngineSession::apply`].
    pub fn bulk_load(&mut self, relation: usize, rows: Vec<Row>) -> Result<(), TsensError> {
        self.apply(Update::BulkLoad { relation, rows }).map(|_| ())
    }

    fn apply_inner(&mut self, update: Update, normalize: bool) -> Result<bool, TsensError> {
        self.enc.validate(&update)?;
        // No-op deltas must not touch anything: an empty bulk load is
        // vacuously applied, and a delete of an absent row reports
        // `false`. The delete pre-check repeats the encode+search that
        // `EncodedDatabase::apply_traced` will redo, but that O(log n) double
        // lookup is the price of planning maintenance *before* the
        // encoded mutation — planning strips the cache's `Arc`s pinning
        // the relation, so when no snapshot shares it the apply edits
        // it in place instead of copying it.
        match &update {
            Update::Delete { relation, row } => {
                if !self.enc.contains(*relation, row)? {
                    return Ok(false);
                }
            }
            Update::BulkLoad { rows, .. } => {
                if rows.is_empty() {
                    return Ok(true);
                }
            }
            Update::Insert { .. } => {}
        }
        let rel = update.relation();
        // Phase 1 (pre-mutation): split every cache fingerprinted on
        // `rel` into provable survivors, O(delta) repair candidates
        // (resident Arcs stripped), and dropped entries.
        let mut plan = self.plan_maintenance(rel, &update);
        let epoch_before = self.enc.epoch();
        let delta = self
            .enc
            .apply_traced(&update)?
            .expect("existence was pre-checked");
        let entry = self.db.relation_mut(rel);
        let len = match &update {
            Update::Delete { .. } => entry.len() - 1,
            _ => entry.len() + update.tuple_count(),
        };
        entry.set_catalog_len(len);
        // Phase 2 (post-mutation, pre-normalize — the delta's codes are
        // valid exactly in this window): repair candidates in O(delta)
        // or fall back, then patch/retain results and mf statistics.
        self.finish_maintenance(&mut plan, rel, &delta, normalize);
        if normalize {
            self.enc.normalize();
        }
        if self.enc.epoch() != epoch_before {
            self.on_epoch();
        } else {
            // No epoch: predicated lifts keep valid codes, so entries
            // whose predicate rejects the row survive and entries whose
            // predicate accepts it are patched in place. (An epoch
            // clears the whole atom cache in `on_epoch` instead.)
            self.finish_atoms(&plan, &delta);
        }
        self.stats.updates_applied.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Phase 1 of an update: classify every cache entry fingerprinted on
    /// `rel` **before** the encoded mutation. Entries that cannot be
    /// repaired or proven untouched are dropped here (they must not pin
    /// the resident relation through `EncodedDatabase::apply_traced`); repair
    /// candidates are pulled out of the map with their resident Arcs
    /// stripped, to be repaired or dropped in
    /// [`EngineSession::finish_maintenance`].
    fn plan_maintenance(&mut self, rel: usize, update: &Update) -> MaintPlan {
        let mut plan = MaintPlan::default();
        let row = match update {
            Update::Insert { row, .. } | Update::Delete { row, .. } => Some(row),
            Update::BulkLoad { .. } => None,
        };
        let schema = self.db.relation(rel).schema();
        let eval = |pred: &Predicate, r: &Row| -> Option<bool> {
            pred.eval_partial(&|a| schema.position(a).map(|p| r[p].clone()))
        };
        let cur_epoch = self.enc.epoch();
        let resident = self.enc.lifted(rel).ok().map(Arc::clone);
        let lift_attrs: &[AttrId] = resident
            .as_deref()
            .map(|l| l.schema().attrs())
            .unwrap_or(&[]);

        // `extract_if` moves touched entries out key-and-all, so the hot
        // path (one repair candidate) never deep-clones a `QueryKey`;
        // untouched entries are the only ones reinserted.
        let passes = self.passes.get_mut().expect("pass cache poisoned");
        let touched: Vec<(QueryKey, Arc<QueryPasses>)> =
            passes.extract_if(|k, _| k.touches(rel)).collect();
        let mut dropped = 0u64;
        for (key, mut entry) in touched {
            let verdict = row.and_then(|r| classify_for_repair(&key, rel, lift_attrs, r, &eval));
            match verdict {
                Some(Classify::Untouched) => {
                    plan.untouched.push(key.clone());
                    passes.insert(key, entry);
                }
                Some(Classify::Repair { atom, bag }) if entry.epoch == cur_epoch => {
                    // Repair mutates the entry, so an entry another
                    // snapshot still shares is first copied shallowly
                    // (`make_mut`): the snapshot keeps its states, and
                    // the repair copies only the states it changes. An
                    // entry built under an older dictionary epoch is
                    // dropped below instead: a re-sort relabeled its
                    // codes.
                    let e = Arc::make_mut(&mut entry);
                    // The placeholder is never read: repair re-points
                    // both slots at the new resident lift before
                    // anything looks at them, and a fallback drops the
                    // entry whole.
                    let placeholder = empty_placeholder();
                    e.lifted[atom] = Arc::clone(&placeholder);
                    e.bags[bag] = placeholder;
                    plan.repair.push(RepairCandidate {
                        key,
                        entry,
                        atom,
                        bag,
                    });
                }
                _ => dropped += 1,
            }
        }
        self.stats
            .passes_invalidated
            .fetch_add(dropped, Ordering::Relaxed);

        // Predicated lifted atoms: a lift whose predicate rejects the
        // updated row is untouched by construction; one that accepts it
        // is patched in phase 2 once the codes are known.
        let atoms = self.atoms.get_mut().expect("atom cache poisoned");
        if atoms.is_empty() {
            return plan;
        }
        let keys: Vec<(usize, Predicate)> =
            atoms.keys().filter(|(r, _)| *r == rel).cloned().collect();
        let mut dropped = 0u64;
        for key in keys {
            match row.and_then(|r| eval(&key.1, r)) {
                Some(false) => plan.atom_keep += 1,
                Some(true) => plan.atom_patch.push(key),
                None => {
                    atoms.remove(&key);
                    dropped += 1;
                }
            }
        }
        self.stats
            .atoms_invalidated
            .fetch_add(dropped, Ordering::Relaxed);
        plan
    }

    /// Phase 2 of an update: repair the candidate pass entries against
    /// the applied delta (falling back to a drop at any divergence
    /// point), then retain pure pass-derived results for entries proven
    /// unchanged and patch `mf` statistics where the delta determines
    /// them exactly.
    fn finish_maintenance(
        &mut self,
        plan: &mut MaintPlan,
        rel: usize,
        delta: &tsens_data::AppliedDelta,
        normalize: bool,
    ) {
        // A dictionary re-sort — one that ran inside the apply, or one
        // this single-delta apply is about to run for a new value —
        // falls back to full invalidation: the delta's codes are (or
        // will be) relabeled out from under the repaired entries.
        // Overflow codes *without* an epoch (batched applies) repair
        // fine: they are mutually comparable with base codes.
        let fallback =
            !delta.repairable() || delta.rows.len() != 1 || (delta.overflow && normalize);

        let mut unchanged: Vec<QueryKey> = Vec::new();
        let mut maintained = plan.untouched.len() as u64;
        unchanged.append(&mut plan.untouched);

        let repair = std::mem::take(&mut plan.repair);
        let mut dropped = 0u64;
        if fallback {
            dropped += repair.len() as u64;
        } else {
            let (codes, dcount) = &delta.rows[0];
            let new_lift = Arc::clone(self.enc.lifted(rel).expect("updated relation exists"));
            let dict = Arc::clone(self.enc.dict());
            let passes = self.passes.get_mut().expect("pass cache poisoned");
            for RepairCandidate {
                key,
                mut entry,
                atom,
                bag,
            } in repair
            {
                let e = Arc::get_mut(&mut entry).expect("held uniquely since planning");
                match crate::maintain::repair_entry(
                    e, &key, atom, bag, codes, *dcount, &new_lift, &dict,
                ) {
                    crate::maintain::Repair::Done { unchanged: u } => {
                        if u {
                            unchanged.push(key.clone());
                        }
                        passes.insert(key, entry);
                        maintained += 1;
                    }
                    crate::maintain::Repair::Fallback => dropped += 1,
                }
            }
        }
        self.stats
            .passes_maintained
            .fetch_add(maintained, Ordering::Relaxed);
        self.stats
            .passes_invalidated
            .fetch_add(dropped, Ordering::Relaxed);

        // Results: an entry survives only if its pass state is provably
        // unchanged AND its kind derives from pass state alone. Other
        // kinds ("elastic" reads mf, "truncation_profile" and
        // "tsens_path" read the lifted atoms themselves) depend on the
        // relation's contents even when the join counts are unchanged.
        let results = self.results.get_mut().expect("result cache poisoned");
        if !results.is_empty() {
            let n = results.len();
            let mut kept = 0u64;
            results.retain(|(kind, key, _), _| {
                if !key.touches(rel) {
                    return true;
                }
                let keep = PASS_PURE_RESULT_KINDS.contains(kind) && unchanged.contains(key);
                kept += u64::from(keep);
                keep
            });
            self.stats
                .results_maintained
                .fetch_add(kept, Ordering::Relaxed);
            self.stats
                .results_invalidated
                .fetch_add((n - results.len()) as u64, Ordering::Relaxed);
        }

        // mf statistics: mf(∅,R) = |R| moves by exactly ±1. A set that
        // is the relation's leading columns (the full schema among them)
        // takes its max over runs of sorted rows sharing a prefix, and a
        // single-row delta moves only the delta row's run: an insert
        // raises the max to at least the new run, and a delete leaves
        // it alone iff the run sat strictly below the max. Other sets
        // would need a re-group — drop those.
        let mf = self.mf.get_mut().expect("mf cache poisoned");
        if mf.is_empty() {
            return;
        }
        let lifted = Arc::clone(self.enc.lifted(rel).expect("updated relation exists"));
        let keys: Vec<(usize, Vec<AttrId>)> =
            mf.keys().filter(|(r, _)| *r == rel).cloned().collect();
        let mut kept = 0u64;
        let mut dropped = 0u64;
        for key in keys {
            let patched = delta.repairable() && delta.rows.len() == 1 && {
                let (codes, dcount) = &delta.rows[0];
                let v = mf.get_mut(&key).expect("key just listed");
                if key.1.is_empty() {
                    match checked_count(*v).and_then(|c| c.checked_add(*dcount as i128)) {
                        Some(next) if next >= 0 => {
                            *v = next as Count;
                            true
                        }
                        _ => false,
                    }
                } else if let Some(k) = leading_columns(lifted.schema(), &key.1) {
                    // The delta's codes address the lift only while no
                    // epoch has relabeled them.
                    !delta.epoch && {
                        let run = prefix_run(&lifted, &codes[..k]);
                        if *dcount > 0 {
                            *v = (*v).max(run);
                            true
                        } else {
                            run + 1 < *v
                        }
                    }
                } else {
                    false
                }
            };
            if patched {
                kept += 1;
            } else {
                mf.remove(&key);
                dropped += 1;
            }
        }
        self.stats.mf_maintained.fetch_add(kept, Ordering::Relaxed);
        self.stats
            .mf_invalidated
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// Phase 3 of an update (only when no epoch ran): settle the
    /// predicated-atom cache — count the provably untouched entries and
    /// patch the lifts whose predicate accepted the updated row.
    fn finish_atoms(&mut self, plan: &MaintPlan, delta: &tsens_data::AppliedDelta) {
        let mut maintained = plan.atom_keep;
        let mut dropped = 0u64;
        let atoms = self.atoms.get_mut().expect("atom cache poisoned");
        if delta.repairable() && delta.rows.len() == 1 {
            let (codes, dcount) = &delta.rows[0];
            for key in &plan.atom_patch {
                let Some(lift) = atoms.get_mut(key) else {
                    continue;
                };
                if patch_filtered_lift(lift, codes, *dcount) {
                    maintained += 1;
                } else {
                    atoms.remove(key);
                    dropped += 1;
                }
            }
        } else {
            for key in &plan.atom_patch {
                if atoms.remove(key).is_some() {
                    dropped += 1;
                }
            }
        }
        self.stats
            .atoms_maintained
            .fetch_add(maintained, Ordering::Relaxed);
        self.stats
            .atoms_invalidated
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// A re-sort epoch relabeled every code. Cached predicated lifts
    /// would feed stale labels into *new* pass computations, so they
    /// all go. Surviving pass states are safe — each pins its own
    /// `Arc<Dict>` snapshot and is only ever read self-contained — and
    /// cached results/statistics store decoded values and counts.
    fn on_epoch(&mut self) {
        self.stats.dict_epochs.fetch_add(1, Ordering::Relaxed);
        let atoms = self.atoms.get_mut().expect("atom cache poisoned");
        self.stats
            .atoms_invalidated
            .fetch_add(atoms.len() as u64, Ordering::Relaxed);
        atoms.clear();
    }
}

/// Result kinds that are pure functions of the ⊥/⊤ pass state (plus the
/// lifts of *other* atoms), so a repaired pass entry proven unchanged
/// keeps them valid. Deliberately excluded: `"tsens_topk"` recomputes
/// capped passes from the raw lifted atoms (and enumerates candidate
/// tuples from them, so even a join-invisible row can shift top-k
/// tie-breaks); `"elastic"` reads `mf` statistics; `"tsens_path"` and
/// `"truncation_profile"` read the lifted atoms themselves.
const PASS_PURE_RESULT_KINDS: &[&str] = &["tsens", "mtable"];

/// Maintenance work sheet for one update, split at the encoded mutation:
/// built by [`EngineSession::plan_maintenance`] before the apply (while
/// old codes are still addressable and stripping Arcs still prevents a
/// copy-on-write fork of the resident relation), consumed by
/// [`EngineSession::finish_maintenance`] / [`EngineSession::finish_atoms`]
/// after it.
#[derive(Default)]
struct MaintPlan {
    /// Touched pass entries proven unchanged (predicate rejects the
    /// row). They stay in the cache; listed here so dependent results
    /// can be retained too.
    untouched: Vec<QueryKey>,
    /// Touched pass entries pulled out for O(delta) repair.
    repair: Vec<RepairCandidate>,
    /// Predicated lifts over the relation whose predicate rejects the
    /// row — provably untouched.
    atom_keep: u64,
    /// Predicated lifts whose predicate accepts the row — patched in
    /// place once the delta's codes are known.
    atom_patch: Vec<(usize, Predicate)>,
}

/// A pass entry eligible for delta repair, removed from the cache with
/// the resident relation's `Arc`s stripped to a placeholder (so the
/// encoded apply can edit an unshared relation in place).
struct RepairCandidate {
    key: QueryKey,
    entry: Arc<QueryPasses>,
    /// Index of the (unique, unpredicated) atom over the updated
    /// relation.
    atom: usize,
    /// Index of the singleton bag holding that atom.
    bag: usize,
}

/// Pre-mutation verdict for one touched pass entry.
enum Classify {
    /// The entry provably cannot observe the delta (its predicate
    /// rejects the updated row).
    Untouched,
    /// The delta enters the join tree through exactly one singleton bag
    /// — the shape [`crate::maintain::repair_entry`] handles.
    Repair { atom: usize, bag: usize },
}

/// Decide how a single-row update to `rel` interacts with the entry
/// cached under `key`. `None` means "cannot prove anything cheap —
/// invalidate". `lift_attrs` is the resident encoding's schema for
/// `rel`; repair re-points the entry's bag at the resident lift, which
/// is only sound when the atom was lifted verbatim (trivial predicate,
/// identical schema).
fn classify_for_repair(
    key: &QueryKey,
    rel: usize,
    lift_attrs: &[AttrId],
    row: &Row,
    eval: &impl Fn(&Predicate, &Row) -> Option<bool>,
) -> Option<Classify> {
    let mut touched: Option<usize> = None;
    for (i, (r, _, _)) in key.atoms.iter().enumerate() {
        if *r == rel {
            if touched.is_some() {
                // Self-join: the delta changes two inputs of the same
                // multilinear form at once — repair handles exactly one.
                return None;
            }
            touched = Some(i);
        }
    }
    let ai = touched?;
    let (_, attrs, pred) = &key.atoms[ai];
    if !pred.is_trivial() {
        // A predicated atom sees the delta only if the predicate
        // accepts the row; rejection proves the whole entry untouched.
        // (Acceptance would need the delta pushed through the filtered
        // lift — not worth the extra surface; invalidate.)
        return match eval(pred, row) {
            Some(false) => Some(Classify::Untouched),
            _ => None,
        };
    }
    if attrs != lift_attrs {
        return None;
    }
    if key.bags.is_empty() || key.parents.len() != key.bags.len() {
        return None;
    }
    let mut bag: Option<usize> = None;
    for (v, b) in key.bags.iter().enumerate() {
        if b.contains(&ai) {
            if bag.is_some() || b.len() != 1 {
                // Multi-atom bag: the bag relation is a join the delta
                // row enters non-trivially; cover trees can also place
                // one atom in several bags. Both shapes fall back.
                return None;
            }
            bag = Some(v);
        }
    }
    bag.map(|v| Classify::Repair { atom: ai, bag: v })
}

/// Shared stand-in `Arc` swapped into a repair candidate's stripped
/// slots so the candidate stops pinning the resident relation across
/// `EncodedDatabase::apply_traced` (letting it edit in place). Its
/// empty schema is fine because the placeholder is never read —
/// [`crate::maintain::repair_entry`] re-points both slots before any
/// access, and a fallback drops the entry whole.
fn empty_placeholder() -> Arc<EncodedRelation> {
    static PLACEHOLDER: std::sync::OnceLock<Arc<EncodedRelation>> = std::sync::OnceLock::new();
    Arc::clone(PLACEHOLDER.get_or_init(|| Arc::new(EncodedRelation::new(Schema::new(Vec::new())))))
}

/// `Count` as a checked signed value; `None` poisons the patch (the
/// stored count saturated, so exact arithmetic on it is meaningless).
#[inline]
fn checked_count(c: Count) -> Option<i128> {
    (c <= i128::MAX as u128).then_some(c as i128)
}

/// `Some(k)` when the distinct attribute set `attrs` is exactly the
/// first `k = attrs.len()` columns of `schema` (in any order), else
/// `None`. A grouped relation holds each value of such a set as one run
/// of consecutive rows.
fn leading_columns(schema: &Schema, attrs: &[AttrId]) -> Option<usize> {
    let k = attrs.len();
    attrs
        .iter()
        .all(|&a| schema.position(a).is_some_and(|p| p < k))
        .then_some(k)
}

/// Total count of the rows of grouped `rel` whose leading codes equal
/// `prefix`: one run of consecutive rows, bounded by binary search.
fn prefix_run(rel: &EncodedRelation, prefix: &[u32]) -> Count {
    let k = prefix.len();
    // `bound(false)`: the first row whose prefix is ≥ `prefix`;
    // `bound(true)`: the first whose prefix is > it.
    let bound = |past: bool| {
        let (mut lo, mut hi) = (0usize, rel.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let key = &rel.row(mid)[..k];
            if key < prefix || (past && key == prefix) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    (bound(false)..bound(true))
        .map(|i| rel.count(i))
        .fold(0, sat_add)
}

/// Apply a `±dcount` single-row delta to a cached predicated lift whose
/// predicate accepted the row. A lift another snapshot still shares is
/// copied once, never edited under it. Returns `false` (caller
/// invalidates, nothing written) on saturated counts, a negative
/// result, or a delete of an absent row.
fn patch_filtered_lift(lift: &mut Arc<EncodedRelation>, codes: &[u32], dcount: i64) -> bool {
    match lift.find_row(codes) {
        Ok(i) => {
            let Some(next) =
                checked_count(lift.count(i)).and_then(|c| c.checked_add(dcount as i128))
            else {
                return false;
            };
            if next < 0 {
                false
            } else if next == 0 {
                EncodedRelation::remove_row_shared(lift, i);
                true
            } else {
                Arc::make_mut(lift).set_count(i, next as Count);
                true
            }
        }
        Err(i) => {
            if dcount > 0 {
                EncodedRelation::insert_row_shared(lift, i, codes, dcount as Count);
                true
            } else {
                false
            }
        }
    }
}

impl std::fmt::Debug for EngineSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EngineSession[{} relations, dict {} values, stats {:?}]",
            self.enc.relation_count(),
            self.dict().len(),
            self.stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_eval::naive_count;
    use tsens_data::{Relation, Row, Schema, Value};
    use tsens_query::{gyo_decompose, Predicate};

    fn path_db() -> (Database, ConjunctiveQuery, DecompositionTree) {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let row2 = |x: i64, y: i64| -> Row { vec![Value::Int(x), Value::Int(y)] };
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a, b]),
                vec![row2(1, 10), row2(1, 10), row2(2, 11)],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(
                Schema::new(vec![b, c]),
                vec![row2(10, 20), row2(10, 21), row2(11, 20)],
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "rs", &["R", "S"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
        (db, q, tree)
    }

    #[test]
    fn count_matches_naive_and_hits_cache_when_warm() {
        let (db, q, tree) = path_db();
        let session = EngineSession::new(&db);
        let expected = naive_count(&db, &q);
        assert_eq!(session.count_query(&q, &tree).unwrap(), expected);
        assert_eq!(session.count_query(&q, &tree).unwrap(), expected);
        let stats = session.stats();
        assert_eq!(stats.pass_misses, 1);
        assert_eq!(stats.pass_hits, 1);
    }

    #[test]
    fn predicated_atoms_are_cached_per_predicate() {
        let (db, q, tree) = path_db();
        let a = db.attr_id("A").unwrap();
        let q1 = q
            .clone()
            .with_predicate(&db, "R", Predicate::eq(a, Value::Int(1)));
        let session = EngineSession::new(&db);
        let l1 = session.lifted_atom(&q1.atoms()[0]).unwrap();
        let l2 = session.lifted_atom(&q1.atoms()[0]).unwrap();
        assert!(Arc::ptr_eq(&l1, &l2), "same predicate must share one lift");
        // Only the A=1 rows survive (2 duplicates grouped to one entry).
        assert_eq!(l1.total_count(), 2);
        let stats = session.stats();
        assert_eq!((stats.atom_misses, stats.atom_hits), (1, 1));
        // Counting under the predicate matches the oracle.
        assert_eq!(
            session.count_query(&q1, &tree).unwrap(),
            naive_count(&db, &q1)
        );
    }

    #[test]
    fn distinct_trees_get_distinct_pass_entries() {
        let (db, q, _) = path_db();
        // Same query, two rootings: different shapes, different entries.
        let rooted_at_r = DecompositionTree::singleton(&q, vec![None, Some(0)]).expect("valid");
        let rooted_at_s = DecompositionTree::singleton(&q, vec![Some(1), None]).expect("valid");
        let session = EngineSession::new(&db);
        let c1 = session.count_query(&q, &rooted_at_r).unwrap();
        let c2 = session.count_query(&q, &rooted_at_s).unwrap();
        assert_eq!(c1, c2, "count is root-invariant");
        assert_eq!(session.stats().pass_misses, 2);
    }

    #[test]
    fn result_cache_computes_once_per_key() {
        let (db, q, tree) = path_db();
        let session = EngineSession::new(&db);
        let mut calls = 0usize;
        let a = session.cached_query_result("demo", &q, Some(&tree), &[7], || {
            calls += 1;
            42u64
        });
        let b = session.cached_query_result("demo", &q, Some(&tree), &[7], || {
            calls += 1;
            43u64
        });
        assert_eq!((*a, *b, calls), (42, 42, 1));
        // Different salt → different entry.
        let c = session.cached_query_result("demo", &q, Some(&tree), &[8], || 44u64);
        assert_eq!(*c, 44);
    }

    #[test]
    fn max_frequency_matches_brute_force() {
        let (db, _, _) = path_db();
        let session = EngineSession::new(&db);
        let b = db.attr_id("B").unwrap();
        let a = db.attr_id("A").unwrap();
        // R: B=10 appears twice, B=11 once.
        assert_eq!(session.max_frequency(0, &[b]).unwrap(), 2);
        assert_eq!(session.max_frequency(0, &[a, b]).unwrap(), 2);
        assert_eq!(session.max_frequency(0, &[]).unwrap(), 3);
        // S: B=10 twice.
        assert_eq!(session.max_frequency(1, &[b]).unwrap(), 2);
        // Warm probe hits the cache.
        assert_eq!(session.max_frequency(0, &[b]).unwrap(), 2);
        assert!(session.stats().mf_hits >= 1);
    }

    /// Leading-column sets take the run scan and the rest the group;
    /// both must match a count over a model database's `Value` rows,
    /// also once inserts mint overflow codes.
    #[test]
    fn max_frequency_matches_value_rows_on_every_attr_set() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = Database::new();
        let attrs = db.attrs(["X", "Y", "Z"]);
        let mut row = |hi: i64| -> Row {
            (0..3)
                .map(|_| Value::Int(rng.random_range(0..hi)))
                .collect()
        };
        let rows = (0..60).map(|_| row(4)).collect();
        db.add_relation("R", Relation::from_rows(Schema::new(attrs.to_vec()), rows))
            .unwrap();
        let mut session = EngineSession::owned(db.clone());
        for round in 0..3 {
            for mask in 0..8usize {
                let cols: Vec<usize> = (0..3).filter(|i| mask >> i & 1 == 1).collect();
                let mut freq: FastMap<Row, Count> = FastMap::default();
                for r in db.relation(0).rows() {
                    *freq
                        .entry(cols.iter().map(|&i| r[i].clone()).collect())
                        .or_insert(0) += 1;
                }
                let set: Vec<AttrId> = cols.iter().map(|&i| attrs[i]).collect();
                assert_eq!(
                    session.max_frequency(0, &set).unwrap(),
                    freq.values().copied().max().unwrap_or(0),
                    "round {round}, columns {cols:?}"
                );
            }
            for _ in 0..2 {
                let r = row(8);
                session.insert(0, r.clone()).unwrap();
                db.insert_row(0, r);
            }
        }
    }

    #[test]
    fn update_invalidates_only_touched_relations() {
        let (mut db, q, tree) = path_db();
        // A second query over S alone: its caches must survive R updates.
        let s_only = ConjunctiveQuery::over(&db, "s", &["S"]).unwrap();
        let s_tree = gyo_decompose(&s_only).unwrap().expect_acyclic("single");
        let mut session = EngineSession::owned(db.clone());
        let rs_before = session.count_query(&q, &tree).unwrap();
        let s_count = session.count_query(&s_only, &s_tree).unwrap();
        assert_eq!(session.stats().pass_misses, 2);

        // Insert into R (values already in the dictionary: no epoch).
        let row = vec![Value::Int(2), Value::Int(10)];
        session.insert(0, row.clone()).unwrap();
        let stats = session.stats();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.dict_epochs, 0);
        assert_eq!(
            stats.passes_maintained, 1,
            "the R⋈S pass is delta-repaired in place"
        );
        assert_eq!(stats.passes_invalidated, 0, "nothing is swept");

        // S's pass state is still warm: pure cache hit.
        assert_eq!(session.count_query(&s_only, &s_tree).unwrap(), s_count);
        assert_eq!(session.stats().pass_hits, 1);
        assert_eq!(session.stats().pass_misses, 2);

        // The R⋈S query answers from the repaired pass state — a warm
        // hit, not a recompute: (2,10) joins S's two B=10 rows → count
        // grows by 2.
        assert_eq!(session.count_query(&q, &tree).unwrap(), rs_before + 2);
        assert_eq!(session.stats().pass_hits, 2);
        assert_eq!(session.stats().pass_misses, 2);
        // And it matches a from-scratch run on the same update applied
        // to the caller's database.
        db.insert_row(0, row);
        assert_eq!(
            session.count_query(&q, &tree).unwrap(),
            naive_count(&db, &q)
        );
    }

    #[test]
    fn empty_bulk_load_sweeps_nothing() {
        let (db, q, tree) = path_db();
        let mut session = EngineSession::new(&db);
        session.count_query(&q, &tree).unwrap();
        session.bulk_load(0, Vec::new()).unwrap();
        let stats = session.stats();
        assert_eq!(stats.passes_invalidated, 0);
        assert_eq!(stats.updates_applied, 0);
        session.count_query(&q, &tree).unwrap();
        assert_eq!(session.stats().pass_hits, 1, "caches stayed warm");
    }

    #[test]
    fn insert_of_known_values_never_forks_a_pinned_dict() {
        let (db, q, tree) = path_db();
        let mut session = EngineSession::new(&db);
        session.count_query(&q, &tree).unwrap(); // pass state pins the dict
        let dict_before = Arc::clone(session.dict());
        session
            .insert(0, vec![Value::Int(2), Value::Int(10)])
            .unwrap();
        assert!(
            Arc::ptr_eq(&dict_before, session.dict()),
            "known-value inserts must not clone the dictionary"
        );
    }

    #[test]
    fn delete_of_absent_row_is_a_noop() {
        let (db, q, tree) = path_db();
        let mut session = EngineSession::new(&db);
        session.count_query(&q, &tree).unwrap();
        assert!(!session
            .delete(0, vec![Value::Int(77), Value::Int(88)])
            .unwrap());
        let stats = session.stats();
        assert_eq!(stats.updates_applied, 0);
        assert_eq!(stats.passes_invalidated, 0, "no-op deletes sweep nothing");
        assert_eq!(session.stats().pass_hits, 0);
        assert_eq!(
            session.count_query(&q, &tree).unwrap(),
            session.count_query(&q, &tree).unwrap()
        );
        assert!(session.stats().pass_hits >= 2, "caches stayed warm");
    }

    #[test]
    fn new_value_update_runs_an_epoch_and_keeps_answers_exact() {
        let (mut db, q, tree) = path_db();
        let mut session = EngineSession::owned(db.clone());
        let before = session.count_query(&q, &tree).unwrap();
        // Int(5) is new to the dictionary → re-sort epoch; the row joins
        // nothing, so the count is unchanged but recomputed.
        let row = vec![Value::Int(5), Value::Int(99)];
        session.insert(0, row.clone()).unwrap();
        db.insert_row(0, row);
        assert_eq!(session.stats().dict_epochs, 1);
        assert_eq!(session.dict_epoch(), 1);
        assert!(session.dict().is_order_isomorphic());
        assert_eq!(session.count_query(&q, &tree).unwrap(), before);
        assert_eq!(
            session.count_query(&q, &tree).unwrap(),
            naive_count(&db, &q)
        );
        // Delete it again: back to the original database.
        assert!(session
            .delete(0, vec![Value::Int(5), Value::Int(99)])
            .unwrap());
        assert_eq!(session.count_query(&q, &tree).unwrap(), before);
    }

    #[test]
    fn result_cache_for_untouched_query_survives_epochs() {
        let (db, _, _) = path_db();
        let s_only = ConjunctiveQuery::over(&db, "s", &["S"]).unwrap();
        let s_tree = gyo_decompose(&s_only).unwrap().expect_acyclic("single");
        let mut session = EngineSession::new(&db);
        let cached = session.cached_query_result("demo", &s_only, Some(&s_tree), &[], || 7u64);
        // Epoch-forcing update to R: S's cached result must survive.
        session
            .insert(0, vec![Value::Int(-1), Value::Int(-2)])
            .unwrap();
        assert_eq!(session.stats().dict_epochs, 1);
        let again = session.cached_query_result("demo", &s_only, Some(&s_tree), &[], || 8u64);
        assert_eq!((*cached, *again), (7, 7));
        assert_eq!(session.stats().result_hits, 1);
        // But R's own entries would have been swept per relation.
        assert_eq!(session.stats().results_invalidated, 0);
    }

    #[test]
    fn versions_track_touched_relations() {
        let (db, _, _) = path_db();
        let mut session = EngineSession::new(&db);
        assert_eq!(session.relation_version(0), 0);
        session
            .insert(0, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        session
            .insert(0, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        session
            .bulk_load(1, vec![vec![Value::Int(10), Value::Int(20)]])
            .unwrap();
        assert_eq!(session.relation_version(0), 2);
        assert_eq!(session.relation_version(1), 1);
    }

    #[test]
    fn query_session_holds_only_its_query_rows_and_takes_updates() {
        let (db, q, tree) = path_db();
        let s_only = ConjunctiveQuery::over(&db, "s", &["S"]).unwrap();
        let mut s = EngineSession::for_query(&db, &s_only);
        // R keeps its name and schema but none of its rows.
        assert_eq!(s.database().relation_name(0), "R");
        assert!(s.database().relation(0).is_empty());
        assert_eq!(s.count_query(&q, &tree).unwrap(), 0);
        let s_tree = gyo_decompose(&s_only).unwrap().expect_acyclic("single");
        let before = s.count_query(&s_only, &s_tree).unwrap();
        assert_eq!(before, naive_count(&db, &s_only));
        s.insert(1, vec![Value::Int(10), Value::Int(20)]).unwrap();
        assert_eq!(s.count_query(&s_only, &s_tree).unwrap(), before + 1);
    }

    #[test]
    fn malformed_updates_leave_warm_caches_untouched() {
        let (db, q, tree) = path_db();
        let mut session = EngineSession::new(&db);
        session.count_query(&q, &tree).unwrap();
        // Bad arity and out-of-range relation fail before any sweep.
        assert!(matches!(
            session.insert(0, vec![Value::Int(1)]).err(),
            Some(TsensError::Data(_))
        ));
        assert!(matches!(
            session.insert(9, vec![Value::Int(1), Value::Int(2)]).err(),
            Some(TsensError::NoSuchRelation { relation: 9, .. })
        ));
        let stats = session.stats();
        assert_eq!(stats.updates_applied, 0);
        assert_eq!(stats.passes_invalidated, 0, "failed deltas sweep nothing");
        session.count_query(&q, &tree).unwrap();
        assert_eq!(session.stats().pass_hits, 1, "caches stayed warm");
    }

    #[test]
    fn batched_updates_share_one_epoch() {
        let (mut db, q, tree) = path_db();
        let mut session = EngineSession::owned(db.clone());
        session.count_query(&q, &tree).unwrap();
        let applied = session
            .apply_all(vec![
                Update::insert(0, vec![Value::Int(100), Value::Int(10)]),
                Update::insert(0, vec![Value::Int(101), Value::Int(10)]),
                Update::insert(1, vec![Value::Int(10), Value::Int(200)]),
                Update::delete(1, vec![Value::Int(999), Value::Int(999)]), // absent
            ])
            .unwrap();
        assert_eq!(applied, 3);
        assert_eq!(session.stats().dict_epochs, 1, "one deferred epoch");
        db.insert_row(0, vec![Value::Int(100), Value::Int(10)]);
        db.insert_row(0, vec![Value::Int(101), Value::Int(10)]);
        db.insert_row(1, vec![Value::Int(10), Value::Int(200)]);
        assert_eq!(
            session.count_query(&q, &tree).unwrap(),
            naive_count(&db, &q)
        );
        assert_eq!(session.database().total_tuples(), db.total_tuples());
    }

    #[test]
    fn catalog_counts_follow_every_update_and_fork() {
        let (db, _, _) = path_db();
        let mut session = EngineSession::new(&db);
        assert_eq!(session.database().total_tuples(), 6);
        session
            .insert(0, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        session
            .bulk_load(1, vec![vec![Value::Int(10), Value::Int(20)]; 3])
            .unwrap();
        assert!(session
            .delete(0, vec![Value::Int(2), Value::Int(11)])
            .unwrap());
        assert!(!session
            .delete(0, vec![Value::Int(2), Value::Int(11)])
            .unwrap());
        assert_eq!(session.database().relation(0).len(), 3);
        assert_eq!(session.database().relation(1).len(), 6);
        let mut child = session.fork();
        child
            .insert(0, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        assert_eq!(child.database().relation(0).len(), 4);
        assert_eq!(
            session.database().relation(0).len(),
            3,
            "the parent is untouched"
        );
        assert_eq!(db.total_tuples(), 6, "the caller's database is untouched");
    }

    #[test]
    fn decode_rows_expands_counts_and_leaves_the_rest_empty() {
        let (db, _, _) = path_db();
        let session = EngineSession::new(&db);
        let decoded = session.decode_rows([0]).unwrap();
        let mut want = db.relation(0).rows().to_vec();
        want.sort();
        assert_eq!(decoded.relation(0).rows(), want.as_slice());
        assert!(decoded.relation(1).rows().is_empty());
        assert!(matches!(
            session.decode_rows([9]),
            Err(TsensError::NoSuchRelation { relation: 9, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "catalog-only relation")]
    fn reading_session_catalog_rows_panics() {
        let (db, _, _) = path_db();
        let session = EngineSession::owned(db);
        let _ = session.database().relation(0).rows();
    }

    #[test]
    fn session_is_sync_and_shareable_across_threads() {
        let (db, q, tree) = path_db();
        let session = EngineSession::new(&db);
        let expected = session.count_query(&q, &tree).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(session.count_query(&q, &tree).unwrap(), expected));
            }
        });
        assert_eq!(session.stats().pass_misses, 1);
    }
}
