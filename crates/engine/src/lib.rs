//! # tsens-engine
//!
//! Multiplicity-propagating execution engine for the `tsens` workspace.
//!
//! All operators work on dictionary-encoded counted relations
//! ([`tsens_data::EncodedRelation`]: flat `u32` rows with a `cnt` column)
//! and implement the paper's `r⋈` / `γ` machinery (§4.2): joins multiply
//! counts, group-bys sum them. The passes and the multiway join each
//! have one implementation, which takes a worker pool;
//! `Pool::sequential()` is the single-threaded engine.
//!
//! * [`ops`] — natural hash join (plain and partitioned), keyed lookup
//!   join, multiway join with size-estimate ordering;
//! * [`passes`] — the botjoin (`⊥`, post-order) and topjoin (`⊤`,
//!   pre-order) passes over a decomposition tree (Eqns 4–8), shared by
//!   Yannakakis evaluation and the TSens sensitivity algorithms;
//! * [`session`] — [`EngineSession`], the cross-query serving layer: a
//!   database-resident encoding plus memoized lifted atoms, pass states,
//!   max-frequency statistics and higher-layer query results. The free
//!   functions below are thin one-shot wrappers over a fresh session;
//!   long-lived callers should hold a session and reuse it;
//! * [`snapshot`] — [`SnapshotCell`], atomically-published session
//!   snapshots: readers pin an `Arc` and never block, writers fork
//!   copy-on-write and publish with a pointer swap;
//! * [`yannakakis`] — near-linear count evaluation of acyclic (and, via
//!   GHDs, certain cyclic) counting queries: the paper's "query
//!   evaluation" runtime baseline;
//! * [`naive_eval`] — brute-force full-join evaluation over `Value` rows,
//!   with its own private join: the test oracle for everything above.

pub(crate) mod maintain;
pub mod naive_eval;
pub mod ops;
pub mod passes;
pub mod pool;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod yannakakis;

pub use naive_eval::{full_join, naive_count};
pub use ops::{
    hash_join_enc, lookup_join_enc, multiway_join_enc, partitioned_hash_join_enc,
    PAR_JOIN_THRESHOLD,
};
pub use passes::{
    bag_relations_from_arcs_pooled, botjoin_pass_enc_pooled, topjoin_pass_enc_pooled,
};
pub use pool::{Pool, THREADS_ENV};
pub use session::{EngineSession, QueryKey, QueryPasses, SessionStats};
pub use shard::{check_co_partitioned, sharded_count, Routed, ShardedDelta, ShardedEngine};
pub use snapshot::{PublishHook, SnapshotCell};
pub use tsens_data::Update;
pub use yannakakis::count_query;
