//! The serving core: a fixed pool of worker threads accepting
//! connections on one `TcpListener`, serving each database from an
//! atomically-published session snapshot ([`SnapshotCell`]).
//!
//! # Snapshot model
//!
//! Readers **never block on writers**: `/query` pins the current
//! snapshot (`Arc` clone, nanoseconds) and computes against it; a
//! concurrent `/update` forks the session copy-on-write, applies the
//! whole delta off to the side, and publishes the fork with an atomic
//! pointer swap. Every answer therefore reflects exactly one published
//! snapshot — never a half-applied delta — and updates are **atomic**:
//! a delta that fails validation mid-batch discards the fork, leaving
//! the published snapshot untouched (PR 5's `RwLock` server stopped at
//! the first bad op with earlier ops already applied).
//!
//! Warm caches are carried forward: atom lifts, pass states, and memoized
//! results accumulated by readers against the old snapshot remain hits
//! in the new one (minus entries invalidated by the delta itself).
//!
//! # Connection model
//!
//! HTTP/1.1 keep-alive with pipelining: each worker runs a
//! per-connection request loop, honoring `Connection:` headers. Between
//! requests the worker polls at [`IDLE_POLL`] so idle sockets notice
//! shutdown promptly and enforce [`KEEP_ALIVE_IDLE`]; a request already
//! in flight gets the full [`READ_TIMEOUT`]. `/shutdown` drains: in-
//! flight requests finish, keep-alive connections close after their
//! current response, and idle connections close within one poll tick.
//!
//! # Panic-freedom
//!
//! The whole request path is typed-error end to end (`TsensError`,
//! `QueryError`, `DataError`, parse errors) — malformed requests get
//! 4xx responses. As a last-resort shield each request additionally runs
//! under `catch_unwind`, and a panicking handler can at worst poison a
//! private fork (which is then discarded) — never the published
//! snapshot.

use crate::durability::Durability;
use crate::http::{self, error_body, json_escape, Request};
use crate::wire::{self, QueryOp, QueryRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsens_core::elastic::plan_order_from_tree;
use tsens_core::{
    elastic_sensitivity_sharded, sharded_tsens_checked, ElasticReport, SensitivityReport,
    SessionExt,
};
use tsens_data::io::parse_ops_indexed;
use tsens_data::{DataError, Database, TsensError, Update};
use tsens_dp::truncation::TruncationProfile;
use tsens_dp::tsensdp::tsensdp_answer_from_profile;
use tsens_engine::{
    check_co_partitioned, sharded_count, EngineSession, ShardedEngine, SnapshotCell,
};
use tsens_query::{auto_decompose, classify, ConjunctiveQuery, DecompositionTree, Predicate};

/// How long a worker waits on a request already in flight before giving
/// up on the connection (slow-loris guard).
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How often an idle keep-alive connection checks for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// How long a keep-alive connection may sit idle before the server
/// closes it.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(30);

/// One served database: the name clients address it by, the sharded
/// engine publishing its per-shard snapshots (one shard = exactly the
/// old single-cell layout), and (optionally) its durable half —
/// durability is single-shard only, enforced at construction.
struct NamedDb {
    name: String,
    engine: ShardedEngine,
    durability: Option<Arc<Durability>>,
}

/// Everything the worker pool shares: the catalog of served databases.
pub struct ServerState {
    dbs: Vec<NamedDb>,
}

impl ServerState {
    /// Build the state, encoding every database into its own resident
    /// session (the once-per-database preprocessing cost, paid at
    /// startup instead of per request) and publishing it as snapshot
    /// version 0. Ephemeral: updates live only as long as the process.
    pub fn new(dbs: Vec<(String, Database)>) -> Self {
        Self::new_sharded(dbs, 1).expect("one shard is always valid")
    }

    /// [`ServerState::new`] with every database hash-partitioned across
    /// `shards` engine shards (each its own session + snapshot cell; see
    /// [`ShardedEngine`]). One shard is byte-for-byte the unsharded
    /// serving path.
    ///
    /// # Errors
    /// Invalid shard counts (0 or above the engine maximum).
    pub fn new_sharded(dbs: Vec<(String, Database)>, shards: usize) -> Result<Self, TsensError> {
        let mut out = Vec::with_capacity(dbs.len());
        for (name, db) in dbs {
            out.push(NamedDb {
                name,
                engine: ShardedEngine::new(db, shards)?,
                durability: None,
            });
        }
        Ok(ServerState { dbs: out })
    }

    /// Build the state from already-opened sessions — the durable boot
    /// path, where [`Durability::boot`] produced each session from a
    /// snapshot+WAL recovery (or a CSV fallback) along with its store
    /// handle. Databases with a `Durability` get WAL appends in their
    /// `/update` lane and a checkpoint trigger on every publish.
    /// Always single-shard: the WAL is one ordered stream per database.
    pub fn from_sessions(dbs: Vec<(String, EngineSession<'static>, Option<Durability>)>) -> Self {
        ServerState {
            dbs: dbs
                .into_iter()
                .map(|(name, session, durability)| {
                    let cell = SnapshotCell::new(session);
                    let durability = durability.map(Arc::new);
                    if let Some(d) = &durability {
                        let hook = Arc::clone(d);
                        cell.set_publish_hook(Box::new(move |_version, session| {
                            hook.maybe_checkpoint(session);
                        }));
                    }
                    NamedDb {
                        name,
                        engine: ShardedEngine::from_cell(cell),
                        durability,
                    }
                })
                .collect(),
        }
    }

    fn find(&self, name: Option<&str>) -> Result<&NamedDb, (u16, String)> {
        match name {
            None => self
                .dbs
                .first()
                .ok_or((500, "no databases loaded".to_owned())),
            Some(n) => self
                .dbs
                .iter()
                .find(|d| d.name == n)
                .ok_or((404, format!("unknown database {n:?}"))),
        }
    }
}

/// A running server: worker threads plus the handle to stop them.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `threads` workers accepting on `listener`. Returns as soon
    /// as the workers are spawned; the listener's address (including the
    /// OS-assigned port for `:0` binds) is available via
    /// [`Server::addr`].
    ///
    /// # Errors
    /// Propagates listener cloning failures.
    pub fn start(listener: TcpListener, state: ServerState, threads: usize) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = threads.max(1);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let listener = listener.try_clone()?;
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            workers.push(std::thread::spawn(move || {
                worker_loop(listener, state, shutdown, addr, threads)
            }));
        }
        Ok(Server {
            addr,
            shutdown,
            workers,
        })
    }

    /// The bound address (resolves `:0` binds to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server shuts down (via `POST /shutdown` or
    /// [`Server::stop`]). Joining is the drain: a worker only returns
    /// once its current connection — including any pinned snapshot —
    /// is finished with.
    pub fn join(self) {
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Stop the server from the owning thread: set the flag, wake every
    /// blocked acceptor, and join the workers.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_acceptors(self.addr, self.workers.len());
        self.join();
    }
}

/// Unblock `count` workers stuck in `accept()` by dialing them; each
/// sees the shutdown flag immediately after accepting and exits.
fn wake_acceptors(addr: SocketAddr, count: usize) {
    for _ in 0..count {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

fn worker_loop(
    listener: TcpListener,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    threads: usize,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return; // the accepted connection was a shutdown wake-up
        }
        handle_connection(stream, &state, &shutdown, addr, threads);
    }
}

/// Serve one connection: a keep-alive request loop.
///
/// Idle waiting works by polling: the socket's read timeout is
/// [`IDLE_POLL`] between requests, and the loop peeks with `fill_buf`
/// (which is safe to retry after a timeout — no partial state) until
/// bytes arrive, the peer closes, the idle budget runs out, or shutdown
/// is flagged. Once bytes are available the timeout is raised to
/// [`READ_TIMEOUT`] for the actual request parse. Pipelined requests
/// already sitting in the buffer are served back-to-back without
/// touching the socket.
fn handle_connection(
    stream: TcpStream,
    state: &ServerState,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    threads: usize,
) {
    // Write timeouts too: a client that stops *reading* would otherwise
    // wedge the worker in write_response once the socket buffer fills.
    // NODELAY because a request/response ping-pong never benefits from
    // Nagle batching and pays delayed-ACK stalls for it.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut idle_since = Instant::now();
    loop {
        match reader.fill_buf() {
            Ok([]) => return, // peer closed
            Ok(_) => {}       // a request (or part of one) is waiting
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return; // drain: idle connections close within one poll
                }
                if idle_since.elapsed() >= KEEP_ALIVE_IDLE {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let _ = reader.get_ref().set_read_timeout(Some(READ_TIMEOUT));
        let request = match http::read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                // Parser state after a malformed request is unknowable;
                // answer and close, per HTTP convention.
                let _ = http::write_response(&mut writer, e.status, &error_body(&e.message), false);
                return;
            }
        };
        // Last-resort shield: nothing on the request path should panic
        // (the whole stack returns typed errors on bad input), but if a
        // bug slips through, the worker answers 500 and keeps serving
        // instead of dying with 1/N of the pool's capacity.
        let (status, body) = catch_unwind(AssertUnwindSafe(|| {
            route(&request, state, shutdown, addr, threads)
        }))
        .unwrap_or_else(|_| (500, error_body("internal error: request handler panicked")));
        // Drain semantics: once shutdown is flagged (possibly by this
        // very request), finish this response and close.
        let keep = request.keep_alive && !shutdown.load(Ordering::SeqCst);
        if http::write_response(&mut writer, status, &body, keep).is_err() || !keep {
            return;
        }
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
        idle_since = Instant::now();
    }
}

fn route(
    req: &Request,
    state: &ServerState,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    threads: usize,
) -> (u16, String) {
    match (req.method.as_str(), req.route()) {
        ("GET", "/healthz") => (200, "{\"ok\":true}".to_owned()),
        ("GET", "/stats") => handle_stats(state, req),
        ("POST", "/query") => handle_query(state, req),
        ("POST", "/query_batch") => handle_batch(state, req),
        ("POST", "/update") => handle_update(state, req),
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            wake_acceptors(addr, threads);
            (200, "{\"ok\":true,\"shutting_down\":true}".to_owned())
        }
        (_, "/healthz" | "/stats" | "/query" | "/query_batch" | "/update" | "/shutdown") => {
            (405, error_body("method not allowed"))
        }
        _ => (
            404,
            error_body(&format!("no such endpoint {:?}", req.route())),
        ),
    }
}

fn handle_stats(state: &ServerState, req: &Request) -> (u16, String) {
    let ndb = match state.find(req.query_param("db")) {
        Ok(d) => d,
        Err((status, msg)) => return (status, error_body(&msg)),
    };
    if ndb.engine.shards() > 1 {
        return handle_stats_sharded(ndb);
    }
    let cell = ndb.engine.primary();
    let session = cell.load();
    let db = session.database();
    let enc = session.encoded();
    let dict = session.dict();
    let s = session.stats();
    let durability = match &ndb.durability {
        Some(d) => d.stats_json(),
        None => "{\"enabled\":false}".to_owned(),
    };
    let body = format!(
        "{{\"ok\":true,\"db\":\"{}\",\"relations\":{},\"total_tuples\":{},\
         \"snapshot\":{{\"version\":{},\"forks\":{}}},\
         \"dict\":{{\"len\":{},\"base\":{},\"overflow\":{},\"epoch\":{}}},\
         \"cache\":{{\"atom_hits\":{},\"atom_misses\":{},\"pass_hits\":{},\"pass_misses\":{},\
         \"result_hits\":{},\"result_misses\":{},\"mf_hits\":{},\"mf_misses\":{}}},\
         \"updates\":{{\"applied\":{},\"dict_epochs\":{},\"atoms_invalidated\":{},\
         \"passes_invalidated\":{},\"results_invalidated\":{},\"mf_invalidated\":{},\
         \"atoms_maintained\":{},\"passes_maintained\":{},\"results_maintained\":{},\
         \"mf_maintained\":{}}},\
         \"parallel\":{{\"pool_threads\":{},\"pass_tasks\":{},\"join_tasks\":{}}},\
         \"durability\":{durability}}}",
        json_escape(&ndb.name),
        db.relation_count(),
        db.total_tuples(),
        cell.version(),
        s.forks,
        dict.len(),
        dict.base_len(),
        dict.overflow_len(),
        enc.epoch(),
        s.atom_hits,
        s.atom_misses,
        s.pass_hits,
        s.pass_misses,
        s.result_hits,
        s.result_misses,
        s.mf_hits,
        s.mf_misses,
        s.updates_applied,
        s.dict_epochs,
        s.atoms_invalidated,
        s.passes_invalidated,
        s.results_invalidated,
        s.mf_invalidated,
        s.atoms_maintained,
        s.passes_maintained,
        s.results_maintained,
        s.mf_maintained,
        s.pool_threads,
        s.parallel_pass_tasks,
        s.parallel_join_tasks,
    );
    (200, body)
}

/// `/stats` for a sharded database: catalog-wide aggregates (tuples and
/// update counters summed, publishes summed across shards) plus a
/// per-shard breakdown — the observable surface the load generator and
/// the CI smoke job read per-shard publish counts from.
fn handle_stats_sharded(ndb: &NamedDb) -> (u16, String) {
    let pinned = ndb.engine.pin();
    let versions = ndb.engine.versions();
    let relations = pinned[0].database().relation_count();
    let mut total_tuples = 0usize;
    let mut updates_applied = 0u64;
    let mut publishes = 0u64;
    let per: Vec<String> = pinned
        .iter()
        .zip(&versions)
        .enumerate()
        .map(|(shard, (session, &version))| {
            let s = session.stats();
            let tuples = session.database().total_tuples();
            total_tuples += tuples;
            updates_applied += s.updates_applied;
            publishes += version;
            format!(
                "{{\"shard\":{shard},\"version\":{version},\"tuples\":{tuples},\
                 \"updates_applied\":{},\"passes_invalidated\":{},\"passes_maintained\":{}}}",
                s.updates_applied, s.passes_invalidated, s.passes_maintained,
            )
        })
        .collect();
    let body = format!(
        "{{\"ok\":true,\"db\":\"{}\",\"shards\":{},\"relations\":{relations},\
         \"total_tuples\":{total_tuples},\"updates_applied\":{updates_applied},\
         \"publishes\":{publishes},\"per_shard\":[{}],\"durability\":{{\"enabled\":false}}}}",
        json_escape(&ndb.name),
        ndb.engine.shards(),
        per.join(","),
    );
    (200, body)
}

fn handle_query(state: &ServerState, req: &Request) -> (u16, String) {
    let parsed = match wire::parse_query(&req.body) {
        Ok(p) => p,
        Err(msg) => return (400, error_body(&msg)),
    };
    let db_name = parsed.db.as_deref().or_else(|| req.query_param("db"));
    let ndb = match state.find(db_name) {
        Ok(d) => d,
        Err((status, msg)) => return (status, error_body(&msg)),
    };
    // Pin the current snapshot of every shard for this request: updates
    // published while we compute don't disturb it, and it's freed when
    // the last pin drops. With one shard this is exactly the old
    // single-snapshot path.
    let pinned = ndb.engine.pin();
    let result = if pinned.len() == 1 {
        run_query(&pinned[0], &ndb.name, &parsed)
    } else {
        run_query_sharded(&ndb.engine, &pinned, &ndb.name, &parsed)
    };
    match result {
        Ok(body) => (200, body),
        Err((status, msg)) => (status, error_body(&msg)),
    }
}

/// `POST /query_batch`: `/query` bodies separated by `---` lines.
///
/// Parse-all-first: any malformed item fails the whole batch with 400
/// and nothing executes. Execution pins **one snapshot per database**
/// for the whole batch, so all items over one database answer from the
/// same consistent state no matter how many updates publish meanwhile.
/// Per-item execution errors come back embedded in the results array
/// (the batch itself still answers 200).
fn handle_batch(state: &ServerState, req: &Request) -> (u16, String) {
    let parsed = match wire::parse_batch(&req.body) {
        Ok(p) => p,
        Err(msg) => return (400, error_body(&msg)),
    };
    let mut pinned: Vec<(String, Vec<Arc<EngineSession<'static>>>)> = Vec::new();
    let mut results = Vec::with_capacity(parsed.len());
    for q in &parsed {
        let db_name = q.db.as_deref().or_else(|| req.query_param("db"));
        let item = match state.find(db_name) {
            Err((_, msg)) => error_body(&msg),
            Ok(ndb) => {
                let sessions = match pinned.iter().find(|(n, _)| *n == ndb.name) {
                    Some((_, s)) => s.clone(),
                    None => {
                        let s = ndb.engine.pin();
                        pinned.push((ndb.name.clone(), s.clone()));
                        s
                    }
                };
                let run = if sessions.len() == 1 {
                    run_query(&sessions[0], &ndb.name, q)
                } else {
                    run_query_sharded(&ndb.engine, &sessions, &ndb.name, q)
                };
                match run {
                    Ok(body) => body,
                    Err((_, msg)) => error_body(&msg),
                }
            }
        };
        results.push(item);
    }
    (
        200,
        format!(
            "{{\"ok\":true,\"count\":{},\"results\":[{}]}}",
            results.len(),
            results.join(",")
        ),
    )
}

/// Build the validated query + decomposition a wire request describes,
/// against `db`'s catalog. Every failure — unknown relation, bad
/// predicate column, cyclic-query decomposition trouble — comes back as
/// `(status, message)`.
fn build_query(
    db: &Database,
    q: &QueryRequest,
) -> Result<(ConjunctiveQuery, DecompositionTree), (u16, String)> {
    let names: Vec<String> = if q.join.is_empty() {
        (0..db.relation_count())
            .map(|i| db.relation_name(i).to_owned())
            .collect()
    } else {
        q.join.clone()
    };
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut cq = ConjunctiveQuery::over(db, "serve", &refs).map_err(|e| (400, e.to_string()))?;

    // Validate and attach `where=` predicates. The constant itself needs
    // no validation: a value the database has never seen just matches
    // nothing (empty lift → zero/empty answer), by design.
    let mut per_relation: Vec<(String, Predicate)> = Vec::new();
    for w in &q.predicates {
        if !names.iter().any(|n| n == &w.relation) {
            return Err((
                400,
                format!(
                    "where references {:?}, which is not in the join",
                    w.relation
                ),
            ));
        }
        let rel_idx = db
            .relation_index(&w.relation)
            .ok_or_else(|| (400, format!("unknown relation {:?}", w.relation)))?;
        let attr = db
            .attr_id(&w.attr)
            .filter(|&a| db.relation(rel_idx).schema().position(a).is_some())
            .ok_or_else(|| {
                (
                    400,
                    format!("{:?} is not a column of {:?}", w.attr, w.relation),
                )
            })?;
        let pred = Predicate::eq(attr, w.value.clone());
        match per_relation.iter_mut().find(|(r, _)| r == &w.relation) {
            Some((_, existing)) => {
                let prev = std::mem::replace(existing, Predicate::True);
                *existing = prev.and(pred);
            }
            None => per_relation.push((w.relation.clone(), pred)),
        }
    }
    for (rel, pred) in per_relation {
        cq = cq.with_predicate(db, &rel, pred);
    }

    let (_, tree) = classify(&cq).map_err(|e| (400, e.to_string()))?;
    let tree = match tree {
        Some(t) => t,
        None => auto_decompose(&cq).map_err(|e| (400, e.to_string()))?,
    };
    Ok((cq, tree))
}

/// Execute one parsed query against a pinned snapshot.
fn run_query(
    session: &EngineSession<'static>,
    db_name: &str,
    q: &QueryRequest,
) -> Result<String, (u16, String)> {
    let db = session.database();
    let (cq, tree) = build_query(db, q)?;
    // A full server session is resident over the whole catalog, so
    // session errors here indicate a server-side bug, not a bad request.
    let internal = |e: TsensError| (500, e.to_string());

    match q.op {
        QueryOp::Count => {
            let count = session.count_query(&cq, &tree).map_err(internal)?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"count\",\"db\":\"{}\",\"count\":{count}}}",
                json_escape(db_name)
            ))
        }
        QueryOp::Tsens => {
            let report = session.tsens(&cq, &tree).map_err(internal)?;
            Ok(report_body(db, db_name, "tsens", "", &report))
        }
        QueryOp::TsensTopk => {
            let report = session.tsens_topk(&cq, &tree, q.k).map_err(internal)?;
            let extra = format!("\"k\":{},", q.k);
            Ok(report_body(db, db_name, "tsens_topk", &extra, &report))
        }
        QueryOp::Elastic => {
            let plan = plan_order_from_tree(&tree);
            let elastic = session
                .elastic_sensitivity(&cq, &plan, 0)
                .map_err(internal)?;
            Ok(elastic_body(db, db_name, &elastic))
        }
        QueryOp::TsensDp => {
            let private = q.private.as_deref().expect("checked by the wire parser");
            let rel_idx = db
                .relation_index(private)
                .ok_or_else(|| (400, format!("unknown private relation {private:?}")))?;
            let atom = cq
                .atoms()
                .iter()
                .position(|a| a.relation == rel_idx)
                .ok_or_else(|| (400, format!("{private:?} is not in the query")))?;
            let profile =
                TruncationProfile::build_session(session, &cq, &tree, atom).map_err(internal)?;
            // The SVT threshold scan is linear in ℓ, so a wire-supplied
            // ℓ must be bounded by what the data can justify — an
            // astronomical ℓ would wedge this worker in a billions-long
            // scan off one cheap request.
            let ell_cap = profile.max_delta().saturating_mul(4).saturating_add(1000);
            let ell = q.ell.unwrap_or(((profile.max_delta() * 3) / 2).max(10));
            if ell > ell_cap {
                return Err((
                    400,
                    format!("ell {ell} exceeds the data-justified cap {ell_cap}"),
                ));
            }
            // Deterministic noise is no noise: a client-known seed lets
            // the "noise" be replayed and subtracted, so without an
            // explicit (test/reproduction) seed every request draws
            // fresh entropy.
            let mut rng = StdRng::seed_from_u64(q.seed.unwrap_or_else(entropy_seed));
            let r = tsensdp_answer_from_profile(&profile, ell, q.epsilon, &mut rng);
            // Only the released quantities go on the wire: the noisy
            // answer and the learned threshold (itself the global
            // sensitivity of the release). Bias/error diagnostics would
            // leak the true answer.
            Ok(format!(
                "{{\"ok\":true,\"op\":\"tsensdp\",\"db\":\"{}\",\"private\":\"{}\",\
                 \"epsilon\":{},\"ell\":{ell},\"noisy_answer\":{},\"threshold\":{}}}",
                json_escape(db_name),
                json_escape(private),
                q.epsilon,
                r.noisy_answer,
                r.threshold
            ))
        }
    }
}

/// Execute one parsed query scatter-gather across the pinned shard
/// snapshots of a multi-shard database.
///
/// * `count` — per-shard counts summed (co-partition rule enforced);
/// * `tsens` — per-shard reports max-merged (co-partition rule
///   enforced);
/// * `elastic` — computed from globally merged `mf` statistics, exact
///   for any query with no co-partition requirement;
/// * `tsens_topk` / `tsensdp` — rejected with 400: top-k frequency
///   capping and the SVT release are not proven scatter-gather exact,
///   so they are served from single-shard deployments only.
///
/// Cross-shard joins answer 400 (the query shape does not fit this
/// deployment); all shard catalogs are identical, so any other shard
/// error indicates a server-side bug and answers 500.
fn run_query_sharded(
    engine: &ShardedEngine,
    pinned: &[Arc<EngineSession<'static>>],
    db_name: &str,
    q: &QueryRequest,
) -> Result<String, (u16, String)> {
    let db = pinned[0].database();
    let (cq, tree) = build_query(db, q)?;
    let classify_err = |e: TsensError| match e {
        TsensError::CrossShardJoin { .. } => (400, e.to_string()),
        other => (500, other.to_string()),
    };

    match q.op {
        QueryOp::Count => {
            check_co_partitioned(engine.spec(), db, &cq).map_err(classify_err)?;
            let count = sharded_count(engine.pool(), pinned, &cq, &tree).map_err(classify_err)?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"count\",\"db\":\"{}\",\"count\":{count}}}",
                json_escape(db_name)
            ))
        }
        QueryOp::Tsens => {
            let report = sharded_tsens_checked(engine.pool(), engine.spec(), pinned, &cq, &tree)
                .map_err(classify_err)?;
            Ok(report_body(db, db_name, "tsens", "", &report))
        }
        QueryOp::Elastic => {
            let plan = plan_order_from_tree(&tree);
            let elastic =
                elastic_sensitivity_sharded(pinned, &cq, &plan, 0).map_err(classify_err)?;
            Ok(elastic_body(db, db_name, &elastic))
        }
        QueryOp::TsensTopk => Err((
            400,
            "tsens_topk is not available on a sharded deployment \
             (top-k capping is not scatter-gather exact); serve it with --shards 1"
                .to_owned(),
        )),
        QueryOp::TsensDp => Err((
            400,
            "tsensdp is not available on a sharded deployment; serve it with --shards 1".to_owned(),
        )),
    }
}

fn elastic_body(db: &Database, db_name: &str, elastic: &ElasticReport) -> String {
    let per: Vec<String> = elastic
        .per_relation
        .iter()
        .map(|(rel, bound)| {
            format!(
                "{{\"relation\":\"{}\",\"bound\":{bound}}}",
                json_escape(db.relation_name(*rel))
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"op\":\"elastic\",\"db\":\"{}\",\"overall\":{},\"per_relation\":[{}]}}",
        json_escape(db_name),
        elastic.overall,
        per.join(",")
    )
}

/// A per-request RNG seed for DP releases when the client supplies
/// none. The vendored `rand` stand-in has no OS entropy source, so this
/// mixes the wall clock with a process-wide counter — unpredictable
/// enough that the noise cannot be replayed from the wire; a production
/// deployment should swap in a real CSPRNG along with the real `rand`.
fn entropy_seed() -> u64 {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let tick = COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    (nanos ^ tick).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn report_body(
    db: &Database,
    db_name: &str,
    op: &str,
    extra: &str,
    report: &SensitivityReport,
) -> String {
    let witness = match &report.witness {
        Some(w) => format!("\"{}\"", json_escape(&w.display(db))),
        None => "null".to_owned(),
    };
    let per: Vec<String> = report
        .per_relation
        .iter()
        .map(|rs| {
            let w = match &rs.witness {
                Some(w) => format!("\"{}\"", json_escape(&w.display(db))),
                None => "null".to_owned(),
            };
            format!(
                "{{\"relation\":\"{}\",\"sensitivity\":{},\"witness\":{w}}}",
                json_escape(db.relation_name(rs.relation)),
                rs.sensitivity
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"op\":\"{op}\",\"db\":\"{}\",{extra}\"local_sensitivity\":{},\
         \"witness\":{witness},\"per_relation\":[{}]}}",
        json_escape(db_name),
        report.local_sensitivity,
        per.join(",")
    )
}

/// `POST /update`: parse the delta against the current snapshot's
/// catalog (fixed at load time — no DDL endpoints), then fork → apply →
/// publish. The batch is atomic: any failing op discards the fork and
/// answers 400 with the published snapshot unchanged. Readers are never
/// blocked — they keep answering from the old snapshot until the
/// publish, and from the new one after.
fn handle_update(state: &ServerState, req: &Request) -> (u16, String) {
    let ndb = match state.find(req.query_param("db")) {
        Ok(d) => d,
        Err((status, msg)) => return (status, error_body(&msg)),
    };
    if ndb.engine.shards() > 1 {
        return handle_update_sharded(ndb, req);
    }
    let cell = ndb.engine.primary();
    let ops = {
        let snap = cell.load();
        match parse_ops_indexed(snap.database(), &req.body) {
            Ok(ops) => ops,
            Err(e) => return (400, error_body(&e.to_string())),
        }
    };
    let total = ops.len();
    // Keep each op's provenance so an apply-stage failure names the
    // exact input line, not just "the batch failed".
    let located: Vec<String> = ops.iter().map(|o| o.locate()).collect();
    let updates: Vec<Update> = ops.into_iter().map(|o| o.update).collect();
    let mut failed_at: Option<usize> = None;
    let mut wal_failed: Option<String> = None;
    let t0 = Instant::now();
    let result = cell.update_versioned(|fork| {
        let before = fork.stats();
        let applied = match fork.apply_all_diagnosed(updates) {
            Ok(n) => n,
            Err((i, e)) => {
                failed_at = Some(i);
                return Err(e);
            }
        };
        // Durability barrier: the batch applied cleanly — log it (and
        // under fsync=always, make it stable) *before* the publish.
        // A failed append discards the fork: readers never see state
        // the WAL cannot reproduce.
        if let Some(d) = &ndb.durability {
            if let Err(e) = d.append_batch(&req.body) {
                wal_failed = Some(e.to_string());
                return Err(DataError::Malformed("WAL append failed".into()).into());
            }
        }
        Ok((applied, before, fork.stats()))
    });
    let micros = t0.elapsed().as_micros();
    let ((applied, before, after), version) = match result {
        Ok(r) => r,
        Err(e) => {
            if let Some(w) = wal_failed {
                return (
                    503,
                    error_body(&format!(
                        "durability: WAL append failed, batch not applied: {w}"
                    )),
                );
            }
            let msg = match failed_at {
                Some(i) => format!("op #{i} ({}): {e}", located[i]),
                None => e.to_string(),
            };
            return (400, error_body(&msg));
        }
    };
    let body = format!(
        "{{\"ok\":true,\"db\":\"{}\",\"applied\":{applied},\"total\":{total},\"micros\":{micros},\
         \"snapshot_version\":{version},\
         \"invalidated\":{{\"passes\":{},\"results\":{},\"atoms\":{},\"mf\":{}}},\
         \"maintained\":{{\"passes\":{},\"results\":{},\"atoms\":{},\"mf\":{}}},\"dict_epochs\":{}}}",
        json_escape(&ndb.name),
        after.passes_invalidated - before.passes_invalidated,
        after.results_invalidated - before.results_invalidated,
        after.atoms_invalidated - before.atoms_invalidated,
        after.mf_invalidated - before.mf_invalidated,
        after.passes_maintained - before.passes_maintained,
        after.results_maintained - before.results_maintained,
        after.atoms_maintained - before.atoms_maintained,
        after.mf_maintained - before.mf_maintained,
        after.dict_epochs - before.dict_epochs,
    );
    (200, body)
}

/// `POST /update` against a multi-shard database: parse the delta once
/// (all shard catalogs are identical, so shard 0's catalog validates
/// for everyone), route each op by the shard hash, and publish each
/// shard's sub-batch through its own snapshot cell.
///
/// Atomicity is **per shard**, not cross-shard: a shard's sub-batch
/// publishes as one snapshot (all or nothing), but if shard `k` rejects
/// its sub-batch, shards routed before it have already published theirs
/// — the 400 says so explicitly. Sharded databases are never durable
/// (enforced at construction), so there is no WAL lane here.
fn handle_update_sharded(ndb: &NamedDb, req: &Request) -> (u16, String) {
    debug_assert!(ndb.durability.is_none(), "durability is single-shard only");
    let ops = {
        let snap = ndb.engine.primary().load();
        match parse_ops_indexed(snap.database(), &req.body) {
            Ok(ops) => ops,
            Err(e) => return (400, error_body(&e.to_string())),
        }
    };
    let total = ops.len();
    let updates: Vec<Update> = ops.into_iter().map(|o| o.update).collect();
    let t0 = Instant::now();
    let delta = match ndb.engine.update_all(updates) {
        Ok(d) => d,
        Err(e) => {
            return (
                400,
                error_body(&format!(
                    "sharded update failed (shards routed before the failing one \
                     have already published their sub-batches): {e}"
                )),
            );
        }
    };
    let micros = t0.elapsed().as_micros();
    let per: Vec<String> = delta
        .per_shard
        .iter()
        .zip(&delta.versions)
        .enumerate()
        .map(|(shard, (&applied, &version))| {
            format!("{{\"shard\":{shard},\"applied\":{applied},\"snapshot_version\":{version}}}")
        })
        .collect();
    let body = format!(
        "{{\"ok\":true,\"db\":\"{}\",\"applied\":{},\"total\":{total},\"micros\":{micros},\
         \"shards\":{},\"published\":{},\"per_shard\":[{}]}}",
        json_escape(&ndb.name),
        delta.applied,
        ndb.engine.shards(),
        delta.published,
        per.join(","),
    );
    (200, body)
}
