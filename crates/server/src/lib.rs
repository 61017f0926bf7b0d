//! # tsens-server
//!
//! A long-lived serving front-end over shared
//! [`EngineSession`](tsens_engine::EngineSession)s — the
//! deployment shape the paper assumes: an analyst repeatedly issuing
//! counting queries against a live private database, answered by a
//! resident structure that absorbs updates (the Berkholz et al.
//! FO+MOD-under-updates model, held across requests instead of rebuilt
//! per query).
//!
//! The server is **dependency-free**: hand-rolled HTTP/1.1 framing with
//! keep-alive and pipelining over `std::net::TcpListener` ([`http`]), a
//! fixed worker-thread pool ([`server`]), and a line-based `key=value`
//! wire format reusing the CLI's query/ops conventions ([`wire`]). One
//! [`ShardedEngine`](tsens_engine::ShardedEngine) per loaded database —
//! at the default `--shards 1` that is exactly one
//! [`SnapshotCell`](tsens_engine::SnapshotCell): readers pin an
//! atomically-published snapshot and **never block on writers**;
//! `/update` forks the session copy-on-write, applies the whole delta
//! off to the side (atomically — any bad op discards the fork), and
//! publishes with a pointer swap, carrying the warm caches forward.
//!
//! With `--shards N` the rows are hash-partitioned by each relation's
//! shard-key column across N independent shard sessions. The same
//! handlers serve every N: `/query` scatter-gathers count/tsens/elastic
//! (sums, maxes, and merged-`mf` respectively — see `tsens_core::sharded`
//! for the soundness argument), `/update` routes each op to its owning
//! shard's publish lane, and `/stats` sums the shards' counters and
//! breaks them down per shard. At one shard every gather is the plain
//! session call. Above one shard, cross-shard joins and the topk/DP
//! operators answer 400; durability remains single-shard.
//!
//! Endpoints:
//!
//! | Endpoint         | Method | Body                                         |
//! |------------------|--------|----------------------------------------------|
//! | `/query`         | POST   | `op=`/`join=`/`where=`… (see [`wire`])       |
//! | `/query_batch`   | POST   | `/query` bodies separated by `---` lines     |
//! | `/update`        | POST   | `+,R,v…` / `-,R,v…` delta lines              |
//! | `/stats`         | GET    | — (summed SessionStats, versions, per shard) |
//! | `/healthz`       | GET    | —                                            |
//! | `/shutdown`      | POST   | — (drains the worker pool)                   |
//!
//! The request path is **panic-free on untrusted input** end to end:
//! unknown relations, bad arities, junk bodies and unseen predicate
//! constants all produce 4xx/zero answers, backed by the typed
//! `TsensError` paths through `tsens-data`/`tsens-engine`/`tsens-core`
//! (plus a `catch_unwind` shield per request as a last resort).

pub mod client;
pub mod durability;
pub mod http;
pub mod server;
pub mod wire;

pub use client::{request, Client};
pub use durability::{Durability, DurabilityConfig};
pub use server::{Server, ServerState};
pub use wire::{parse_batch, parse_query, QueryOp, QueryRequest};
