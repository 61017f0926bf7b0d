//! The traced run (`--trace 1`).
//!
//! Each workload's request stream is sent once over the wire, one
//! request at a time, to a freshly set-up server. The same stream is
//! then replayed in process twice, each time on a freshly built engine
//! in the same initial state:
//!
//! * **traced** — every request is decomposed into the layers' public
//!   calls (parse, pin, build, lift, passes, ⊤, the op's gather/elastic/
//!   profile call; fork/apply/WAL for updates), each wrapped in a span.
//!   Requests that computed pass state are then re-derived stage by stage
//!   (bags, ⊥, multiplicity tables) in `attribute` spans outside the
//!   request's handling, and those stage results are checked against the
//!   wire answers too;
//! * **untraced** — the same requests through the handler-level calls
//!   only, to measure the tracing overhead.
//!
//! Layers a workload's stream never reaches get a small probe on the
//! workload's own data (named per workload below), so every per-layer
//! metric is measured in every workload. Spans are written to
//! `.bench_out/spans-<workload>-<seed>.jsonl` at the end.

use crate::exec::{build_query, op_layer, run_op, Answer};
use crate::social::{self, Req, SocialModel};
use crate::tpch::{analyst_list, SCALE};
use crate::trace::{self_time_by_name, Tracer};
use crate::{med, out_dir, pct, start_server, Args, Report, ScratchDir};
use rand::RngExt;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsens_core::acyclic::multiplicity_tables_session;
use tsens_core::elastic::{elastic_sensitivity_session, plan_order_from_tree};
use tsens_data::store::{self, FsyncPolicy};
use tsens_data::{DataError, Database, TsensError};
use tsens_dp::truncation::TruncationProfile;
use tsens_engine::passes::{bag_relations_from_arcs_pooled, botjoin_pass_enc_pooled};
use tsens_engine::{EngineSession, SessionStats, ShardedEngine, SnapshotCell};
use tsens_query::{ConjunctiveQuery, DecompositionTree};
use tsens_server::{parse_query, Client, Durability, DurabilityConfig, QueryOp, ServerState};
use tsens_workloads::{social_database, tpch_database, SocialParams};

/// Share of `--seconds` the wire pass of a social stream runs for.
const WIRE_SHARE: f64 = 0.25;

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Item {
    pub path: &'static str,
    pub body: String,
}

impl Item {
    fn of(req: &Req) -> Item {
        let (path, body) = req.wire();
        Item { path, body }
    }

    fn query(body: &str) -> Item {
        Item {
            path: "/query",
            body: body.to_owned(),
        }
    }
}

/// What the wire pass saw for one request.
struct WireRecord {
    item: Item,
    status: u16,
    body: String,
    latency_ns: u64,
    late_ns: u64,
}

/// Send `stream(0), stream(1), …` one at a time until the stream ends or
/// `budget` has passed.
fn wire_pass(
    addr: std::net::SocketAddr,
    budget: Duration,
    stream: impl Fn(usize) -> Option<Item>,
) -> Result<Vec<WireRecord>, String> {
    let mut client = Client::new(addr).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut free = Instant::now();
    let mut out = Vec::new();
    while start.elapsed() < budget {
        let Some(item) = stream(out.len()) else { break };
        let t = Instant::now();
        let late_ns = t.duration_since(free).as_nanos() as u64;
        let (status, body) = client
            .request("POST", item.path, &item.body)
            .unwrap_or_else(|e| (0, e.to_string()));
        free = Instant::now();
        out.push(WireRecord {
            item,
            status,
            body,
            latency_ns: free.duration_since(t).as_nanos() as u64,
            late_ns,
        });
    }
    Ok(out)
}

/// Counts gathered from `SessionStats` deltas and stage outputs.
#[derive(Default)]
struct Counters {
    atom: (u64, u64),
    pass: (u64, u64),
    result: (u64, u64),
    mf: (u64, u64),
    maintained: u64,
    invalidated: u64,
    bag_rows: Vec<f64>,
    top_rows: Vec<f64>,
    mtable_rows: Vec<f64>,
    wal_user_bytes: u64,
}

/// A traced request's answer and what the attribution stage needs.
struct Served {
    answer: Answer,
    op: QueryOp,
    pinned: Vec<Arc<EngineSession<'static>>>,
    cq: ConjunctiveQuery,
    tree: DecompositionTree,
    computed_passes: bool,
    computed_report: bool,
}

fn sum_stats(sessions: &[Arc<EngineSession<'static>>]) -> SessionStats {
    let mut t = SessionStats::default();
    for s in sessions.iter().map(|s| s.stats()) {
        t.atom_hits += s.atom_hits;
        t.atom_misses += s.atom_misses;
        t.pass_hits += s.pass_hits;
        t.pass_misses += s.pass_misses;
        t.result_hits += s.result_hits;
        t.result_misses += s.result_misses;
        t.mf_hits += s.mf_hits;
        t.mf_misses += s.mf_misses;
        t.parallel_pass_tasks += s.parallel_pass_tasks;
        t.parallel_join_tasks += s.parallel_join_tasks;
    }
    t
}

fn add_delta(acc: &mut (u64, u64), hits: (u64, u64), misses: (u64, u64)) {
    acc.0 += hits.1 - hits.0;
    acc.1 += misses.1 - misses.0;
}

/// Replays requests in process against one engine, traced or not.
struct Replayer<'a> {
    engine: &'a ShardedEngine,
    durability: Option<Arc<Durability>>,
    traced: bool,
    tracer: Tracer,
    counters: Counters,
    /// Per request: in-process handling time (ns), `None` for requests
    /// that are not queries.
    handle_ns: Vec<Option<u64>>,
}

impl<'a> Replayer<'a> {
    fn new(engine: &'a ShardedEngine, durability: Option<Arc<Durability>>, traced: bool) -> Self {
        Replayer {
            engine,
            durability,
            traced,
            tracer: Tracer::default(),
            counters: Counters::default(),
            handle_ns: Vec::new(),
        }
    }

    /// Replay one request; returns its answer (queries) or the applied
    /// count as `{"applied": n}` (updates). Stage-by-stage checks that
    /// fail are reported through `report`.
    fn request(&mut self, rid: u64, item: &Item, report: &mut Report) -> Result<Answer, String> {
        let t0 = Instant::now();
        let (out, handle_ns) = match (item.path, self.traced) {
            ("/query", true) => self.query_traced(rid, &item.body, report),
            ("/query", false) => {
                let out = crate::exec::answer(self.engine, &item.body);
                (out, Some(t0.elapsed().as_nanos() as u64))
            }
            ("/update", _) => {
                let out = self.update(rid, &item.body).map(|n| {
                    let mut a = Answer::default();
                    a.0.insert("applied", n.to_string());
                    a
                });
                (out, None)
            }
            (other, _) => (Err(format!("no replay for {other}")), None),
        };
        self.handle_ns.push(handle_ns);
        out
    }

    /// A traced `/query`: the handling inside a `handle` span, then, when
    /// it computed pass state or a sensitivity report, the stage-by-stage
    /// re-derivation inside an `attribute` span. Returns the answer and
    /// the handling time.
    fn query_traced(
        &mut self,
        rid: u64,
        body: &str,
        report: &mut Report,
    ) -> (Result<Answer, String>, Option<u64>) {
        let handle = self.tracer.enter("handle", rid);
        let served = self.serve_traced(rid, body);
        self.tracer.exit(handle);
        let handle_ns = Some(self.tracer.spans()[handle].duration_ns());
        let served = match served {
            Ok(s) => s,
            Err(e) => return (Err(e), handle_ns),
        };
        if served.computed_passes || served.computed_report {
            let attribute = self.tracer.enter("attribute", rid);
            let checked = self.attribute(rid, body, &served, report);
            self.tracer.exit(attribute);
            if let Err(e) = checked {
                return (Err(e), handle_ns);
            }
        }
        (Ok(served.answer), handle_ns)
    }

    /// The handler's work as the layers' public calls, one span each.
    fn serve_traced(&mut self, rid: u64, body: &str) -> Result<Served, String> {
        let tr = &mut self.tracer;
        let c = &mut self.counters;
        let q = tr.span("server.wire.parse", rid, || parse_query(body))?;
        let pinned = tr.span("engine.snapshot.pin", rid, || self.engine.pin());
        let (cq, tree) = tr.span("query.build", rid, || build_query(pinned[0].database(), &q))?;
        let s0 = sum_stats(&pinned);
        // Shard stages scatter on the engine's pool, as the gather does.
        let pool = self.engine.pool();
        tr.span("engine.session.lift", rid, || {
            pool.run(pinned.len(), |s| pinned[s].lift_query(&cq).map(drop))
                .into_iter()
                .collect::<Result<(), _>>()
        })
        .map_err(|e| e.to_string())?;
        let s1 = sum_stats(&pinned);
        add_delta(
            &mut c.atom,
            (s0.atom_hits, s1.atom_hits),
            (s0.atom_misses, s1.atom_misses),
        );
        let mut computed_passes = false;
        if q.op != QueryOp::Elastic {
            let entries = tr
                .span("engine.session.passes", rid, || {
                    pool.run(pinned.len(), |s| pinned[s].passes(&cq, &tree))
                        .into_iter()
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let s2 = sum_stats(&pinned);
            add_delta(
                &mut c.pass,
                (s1.pass_hits, s2.pass_hits),
                (s1.pass_misses, s2.pass_misses),
            );
            computed_passes = s2.pass_misses > s1.pass_misses;
            if matches!(q.op, QueryOp::Tsens | QueryOp::TsensDp) {
                let rows: usize = tr.span("engine.passes.top", rid, || {
                    entries
                        .iter()
                        .map(|e| e.tops(&tree).iter().map(|t| t.len()).sum::<usize>())
                        .sum()
                });
                c.top_rows.push(rows as f64);
            }
        }
        let s3 = sum_stats(&pinned);
        let answer = tr.span(op_layer(q.op), rid, || {
            run_op(self.engine, &pinned, &q, &cq, &tree)
        })?;
        let s4 = sum_stats(&pinned);
        add_delta(
            &mut c.result,
            (s3.result_hits, s4.result_hits),
            (s3.result_misses, s4.result_misses),
        );
        add_delta(
            &mut c.mf,
            (s3.mf_hits, s4.mf_hits),
            (s3.mf_misses, s4.mf_misses),
        );
        Ok(Served {
            computed_report: q.op == QueryOp::Tsens && s4.result_misses > s3.result_misses,
            computed_passes,
            op: q.op,
            answer,
            pinned,
            cq,
            tree,
        })
    }

    /// Re-derive a request's pass state stage by stage, off the request's
    /// path, to attribute its time; the stages must reproduce the answer.
    fn attribute(
        &mut self,
        rid: u64,
        body: &str,
        served: &Served,
        report: &mut Report,
    ) -> Result<(), String> {
        let (tr, c) = (&mut self.tracer, &mut self.counters);
        let Served {
            pinned,
            cq,
            tree,
            answer,
            ..
        } = served;
        if served.computed_passes {
            let mut root_count = 0u128;
            for s in pinned {
                let lifted = s.lift_query(cq).map_err(|e| e.to_string())?;
                let tasks = AtomicU64::new(0);
                let bags = tr.span("engine.passes.bags", rid, || {
                    bag_relations_from_arcs_pooled(&lifted, tree, s.pool(), &tasks)
                });
                c.bag_rows
                    .push(bags.iter().map(|b| b.len()).sum::<usize>() as f64);
                let refs: Vec<_> = bags.iter().map(|b| &**b).collect();
                let bots = tr.span("engine.passes.bot", rid, || {
                    botjoin_pass_enc_pooled(tree, &refs, s.pool(), &tasks)
                });
                root_count += bots[tree.root()].total_count();
            }
            if served.op == QueryOp::Count {
                report.check(answer.number("count") == Some(root_count), || {
                    format!("stage-wise count {root_count} vs {answer:?} for {body:?}")
                });
            }
        }
        if served.computed_report {
            let mut best = 0u128;
            for s in pinned {
                let tables = tr
                    .span("core.acyclic.mtables", rid, || {
                        multiplicity_tables_session(s, cq, tree)
                    })
                    .map_err(|e| e.to_string())?;
                c.mtable_rows
                    .push(tables.iter().map(|t| t.len()).sum::<usize>() as f64);
                for (t, atom) in tables.iter().zip(cq.atoms()) {
                    best = best.max(t.max_sensitivity(&atom.schema).sensitivity);
                }
            }
            report.check(answer.number("local_sensitivity") == Some(best), || {
                format!("stage-wise sensitivity {best} vs {answer:?} for {body:?}")
            });
        }
        Ok(())
    }

    /// `/update`: publish inside a `handle` span, then (traced) time the
    /// fork alone in an `attribute` span.
    fn update(&mut self, rid: u64, body: &str) -> Result<usize, String> {
        let handle = self.tracer.enter("handle", rid);
        let published = self.publish(rid, body);
        self.tracer.exit(handle);
        let (applied, touched) = published?;
        if self.traced {
            // The fork alone, off the request's path: what each publish
            // pays before applying anything.
            let attribute = self.tracer.enter("attribute", rid);
            for s in touched {
                let cell = &self.engine.cells()[s];
                let fork = self
                    .tracer
                    .span("engine.session.fork", rid, || cell.load().fork());
                drop(fork);
            }
            self.tracer.exit(attribute);
        }
        Ok(applied)
    }

    /// Parse and route the batch, then publish each shard's sub-batch
    /// through its snapshot cell: apply, then the WAL append when durable.
    /// Returns the applied count and the shards published.
    fn publish(&mut self, rid: u64, body: &str) -> Result<(usize, Vec<usize>), String> {
        let updates: Vec<_> = {
            let snapshot = self.engine.primary().load();
            tsens_data::io::parse_ops(snapshot.database(), body).map_err(|e| e.to_string())?
        };
        let routed =
            tsens_data::shard::route_updates(self.engine.spec(), self.engine.shards(), updates);
        let mut applied = 0;
        let mut touched = Vec::new();
        for (s, batch) in routed.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            touched.push(s);
            let (tr, c, durability) = (&mut self.tracer, &mut self.counters, &self.durability);
            let span = tr.enter("engine.snapshot.update", rid);
            let published = self.engine.cells()[s].update(|fork| {
                let before = fork.stats();
                let n = tr
                    .span("engine.session.apply", rid, || {
                        fork.apply_all_diagnosed(batch)
                    })
                    .map_err(|(_, e)| e)?;
                let after = fork.stats();
                c.maintained += after.passes_maintained - before.passes_maintained;
                c.invalidated += after.passes_invalidated - before.passes_invalidated;
                if let Some(d) = durability {
                    tr.span("server.durability.append", rid, || d.append_batch(body))
                        .map_err(|e| TsensError::from(DataError::Malformed(e.to_string())))?;
                    c.wal_user_bytes += body.len() as u64;
                }
                Ok(n)
            });
            tr.exit(span);
            applied += published.map_err(|e| e.to_string())?;
        }
        Ok((applied, touched))
    }
}

/// A durable single-shard engine booted in `dir`, with the server's
/// checkpoint hook.
fn durable_engine(dir: &Path, db: Database) -> Result<(ShardedEngine, Arc<Durability>), String> {
    let config = DurabilityConfig::new(dir, FsyncPolicy::Batch);
    let (session, durability) = Durability::boot(&config, move || db).map_err(|e| e.to_string())?;
    let durability = Arc::new(durability);
    let cell = SnapshotCell::new(session);
    let hook = Arc::clone(&durability);
    cell.set_publish_hook(Box::new(move |_, session| hook.maybe_checkpoint(session)));
    Ok((ShardedEngine::from_cell(cell), durability))
}

/// Everything a traced run needs to turn spans into metrics.
struct Traced {
    tracer: Tracer,
    counters: Counters,
    wire: Vec<WireRecord>,
    traced_handle_ns: Vec<Option<u64>>,
    untraced_handle_ns: Vec<Option<u64>>,
    parallel_tasks: u64,
}

/// Builds a replay engine (and its durable half, if any) in the
/// stream's initial state, recording the encode span.
type BuildEngine<'a> =
    dyn FnMut(&mut Tracer) -> Result<(ShardedEngine, Option<Arc<Durability>>), String> + 'a;

/// Replay `wire` on a fresh engine from `build` (traced, checking every
/// answer against the wire), then untraced on another; returns the
/// traced replayer's tracer and counters, with the final traced engine
/// passed to `after` for probes.
fn replay_both(
    wire: Vec<WireRecord>,
    report: &mut Report,
    build: &mut BuildEngine,
    after: &mut dyn FnMut(&ShardedEngine, &mut Tracer, &mut Report) -> Result<(), String>,
) -> Result<Traced, String> {
    let mut tracer = Tracer::default();
    let (engine, durability) = build(&mut tracer)?;
    let mut rp = Replayer::new(&engine, durability, true);
    rp.tracer = tracer;
    let start_stats = sum_stats(&engine.pin());
    for (rid, w) in wire.iter().enumerate() {
        let got = rp.request(rid as u64, &w.item, report);
        let want = match w.item.path {
            "/update" => {
                let mut a = Answer::default();
                if let Some(n) = crate::exec::json_token(&w.body, "applied") {
                    a.0.insert("applied", n.to_owned());
                }
                a
            }
            _ => Answer::from_body(&w.body),
        };
        let ok = w.status == 200 && got.as_ref().is_ok_and(|g| *g == want && !g.0.is_empty());
        report.check(ok, || {
            format!(
                "traced {:?}: {got:?} vs wire {} {}",
                w.item, w.status, w.body
            )
        });
    }
    let end_stats = sum_stats(&engine.pin());
    let parallel_tasks = (end_stats.parallel_pass_tasks + end_stats.parallel_join_tasks)
        .saturating_sub(start_stats.parallel_pass_tasks + start_stats.parallel_join_tasks);
    let Replayer {
        mut tracer,
        counters,
        handle_ns: traced_handle_ns,
        durability,
        ..
    } = rp;
    after(&engine, &mut tracer, report)?;
    drop(durability);
    drop(engine);

    let mut scratch = Tracer::default();
    let (engine, durability) = build(&mut scratch)?;
    let mut rp = Replayer::new(&engine, durability, false);
    for (rid, w) in wire.iter().enumerate() {
        let got = rp.request(rid as u64, &w.item, report);
        report.check(got.is_ok(), || format!("untraced {:?}: {got:?}", w.item));
    }
    Ok(Traced {
        tracer,
        counters,
        wire,
        traced_handle_ns,
        untraced_handle_ns: rp.handle_ns,
        parallel_tasks,
    })
}

/// WAL probe for workloads whose stream has no durable server: boot a
/// durable store over `db`, append `bodies`, reboot, and check the
/// recovered tuple count. Returns the WAL bytes the appends produced.
fn wal_probe(
    tracer: &mut Tracer,
    counters: &mut Counters,
    report: &mut Report,
    db: &Database,
    bodies: &[String],
    tuple_delta: i64,
) -> Result<u64, String> {
    let scratch = ScratchDir::new("wal-probe")?;
    let config = DurabilityConfig::new(&scratch.0, FsyncPolicy::Batch);
    let copy = db.clone();
    let (session, durability) =
        Durability::boot(&config, move || copy).map_err(|e| e.to_string())?;
    drop(session);
    for (i, body) in bodies.iter().enumerate() {
        tracer
            .span("server.durability.append", i as u64, || {
                durability.append_batch(body)
            })
            .map_err(|e| e.to_string())?;
        counters.wal_user_bytes += body.len() as u64;
    }
    drop(durability);
    let wal = wal_bytes(&scratch.0);
    let (session, durability) = tracer
        .span("data.store.recover", 0, || {
            Durability::boot(&config, Database::new)
        })
        .map_err(|e| e.to_string())?;
    let want = db.total_tuples() as i64 + tuple_delta;
    let got = session.database().total_tuples() as i64;
    report.check(got == want, || {
        format!("WAL probe recovered {got} tuples, expected {want}")
    });
    drop(durability);
    Ok(wal)
}

/// Total WAL bytes under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    store::list_wals(dir)
        .map(|wals| {
            wals.iter()
                .filter_map(|(_, p)| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Turn a traced run into the per-layer metrics.
fn finish(args: &Args, mut report: Report, t: Traced, wal_bytes: u64) -> Result<Report, String> {
    let by_name = self_time_by_name(t.tracer.spans());
    let mean = |name: &str, scale: f64| {
        by_name
            .get(name)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls.max(1) as f64 / scale)
    };
    let ratio = |(hits, misses): (u64, u64)| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let c = &t.counters;
    // Wire latency minus the untraced in-process handling of the same
    // request in the same state: framing, parsing and socket time. Taken
    // over requests handled in under a millisecond where there are any,
    // so the run-to-run noise of long computations does not swamp it.
    let pairs: Vec<(f64, f64)> = t
        .wire
        .iter()
        .zip(&t.untraced_handle_ns)
        .filter_map(|(w, h)| h.map(|h| (w.latency_ns as f64 / 1e3, h as f64 / 1e3)))
        .collect();
    let quick: Vec<f64> = pairs
        .iter()
        .filter(|p| p.1 < 1e3)
        .map(|p| p.0 - p.1)
        .collect();
    let overhead = if quick.is_empty() {
        pairs.iter().map(|p| p.0 - p.1).collect()
    } else {
        quick
    };
    let traced: u64 = t.traced_handle_ns.iter().flatten().sum();
    let untraced: u64 = t.untraced_handle_ns.iter().flatten().sum();
    let late: Vec<f64> = t.wire.iter().map(|w| w.late_ns as f64 / 1e3).collect();

    report.set("server.wire.parse_us", mean("server.wire.parse", 1e3));
    report.set("server.http.overhead_us", med(&overhead));
    report.set("query.build_us", mean("query.build", 1e3));
    report.set("engine.snapshot.pin_ns", mean("engine.snapshot.pin", 1.0));
    report.set("engine.session.lift_us", mean("engine.session.lift", 1e3));
    report.set("engine.session.atom_hit_ratio", ratio(c.atom));
    report.set("engine.session.pass_hit_ratio", ratio(c.pass));
    report.set("engine.session.result_hit_ratio", ratio(c.result));
    report.set("engine.session.mf_hit_ratio", ratio(c.mf));
    report.set("engine.shard.gather_us", mean("engine.shard.gather", 1e3));
    report.set(
        "engine.snapshot.update_us",
        mean("engine.snapshot.update", 1e3),
    );
    report.set("engine.session.fork_us", mean("engine.session.fork", 1e3));
    report.set("engine.session.apply_us", mean("engine.session.apply", 1e3));
    report.set(
        "engine.maintain.passes_maintained_ratio",
        ratio((c.maintained, c.invalidated)),
    );
    report.set(
        "server.durability.append_us",
        mean("server.durability.append", 1e3),
    );
    report.set(
        "server.durability.wal_bytes_per_user_byte",
        wal_bytes as f64 / c.wal_user_bytes.max(1) as f64,
    );
    report.set("data.store.recover_s", mean("data.store.recover", 1e9));
    report.set(
        "engine.session.passes_ms",
        mean("engine.session.passes", 1e6),
    );
    report.set("engine.passes.bags_ms", mean("engine.passes.bags", 1e6));
    report.set("engine.passes.bag_rows", med(&c.bag_rows));
    report.set("engine.passes.bot_ms", mean("engine.passes.bot", 1e6));
    report.set("engine.passes.top_ms", mean("engine.passes.top", 1e6));
    report.set("engine.passes.top_rows", med(&c.top_rows));
    report.set("core.acyclic.mtables_ms", mean("core.acyclic.mtables", 1e6));
    report.set("core.acyclic.mtable_rows", med(&c.mtable_rows));
    report.set("core.elastic_us", mean("core.elastic", 1e3));
    report.set("dp.truncation.profile_ms", mean("dp.truncation", 1e6));
    report.set("engine.pool.parallel_tasks", t.parallel_tasks as f64);
    report.set("data.encoded.encode_s", mean("data.encoded.encode", 1e9));
    report.set("bench.gen_late_p99_us", pct(&late, 99.0));
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (traced as f64 - untraced as f64) / untraced.max(1) as f64,
    );

    report.lines.push(format!(
        "traced {} requests in {} spans; per-layer self time (calls, total ms):",
        t.wire.len(),
        t.tracer.spans().len()
    ));
    for (name, (calls, ns)) in &by_name {
        report
            .lines
            .push(format!("  {name:32} {calls:6} {:10.3}", *ns as f64 / 1e6));
    }
    let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    t.tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report
        .lines
        .push(format!("spans written to {}", path.display()));
    Ok(report)
}

/// The social stream of the traced `social_read` run: the warm list,
/// then the read mix with a `count`/`tsens`/`elastic` round after every
/// 500 requests of it.
fn social_read_item(seed: u64, zipf: &crate::gen::Zipf, users: usize, i: usize) -> Item {
    const ROUND: [Req; 3] = [Req::Count, Req::Tsens, Req::Elastic];
    let warm = social::HOT_WARM + ROUND.len();
    let block = 500 + ROUND.len();
    match i {
        i if i < social::HOT_WARM => Item::of(&Req::Assoc(i)),
        i if i < warm => Item::of(&ROUND[i - social::HOT_WARM]),
        i => {
            let (b, k) = ((i - warm) / block, (i - warm) % block);
            match k.checked_sub(500) {
                Some(j) => Item::of(&ROUND[j]),
                None => Item::of(&social::read_mix(seed, zipf, users, b * 500 + k)),
            }
        }
    }
}

/// Truncation-profile probe on the social join (private `Follow`).
fn social_dp_probe(session: &EngineSession<'static>, tracer: &mut Tracer) -> Result<(), String> {
    let (cq, tree) =
        tsens_workloads::social::follow_like_join(session.database()).map_err(|e| e.to_string())?;
    tracer
        .span("dp.truncation", 0, || {
            TruncationProfile::build_session(session, &cq, &tree, 0)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

pub fn social_read_traced(args: &Args) -> Result<Report, String> {
    let params = SocialParams::default();
    let db = social_database(params, args.seed);
    let zipf = crate::gen::Zipf::new(params.users, params.zipf_s);
    let mut report = Report::default();

    let state = ServerState::new_sharded(vec![("social".into(), db.clone())], social::READ_SHARDS)
        .map_err(|e| e.to_string())?;
    let server = start_server(state)?;
    let budget = Duration::from_secs_f64(args.seconds * WIRE_SHARE);
    let wire = wire_pass(server.addr, budget, |i| {
        Some(social_read_item(args.seed, &zipf, params.users, i))
    })?;
    server.stop();
    check_social_wire(&db, params.users, &wire, &mut report);
    let writes: Vec<String> = wire
        .iter()
        .filter(|w| w.item.path == "/update")
        .map(|w| w.item.body.clone())
        .collect();

    let mut build = |tr: &mut Tracer| {
        let copy = db.clone();
        let engine = tr
            .span("data.encoded.encode", 0, || {
                ShardedEngine::new(copy, social::READ_SHARDS)
            })
            .map_err(|e| e.to_string())?;
        Ok((engine, None))
    };
    let mut after = |engine: &ShardedEngine, tr: &mut Tracer, _: &mut Report| {
        social_dp_probe(&engine.pin()[0], tr)
    };
    let mut t = replay_both(wire, &mut report, &mut build, &mut after)?;

    // The stream's inserts, appended to a durable store over the same
    // graph (the 2-shard server itself is in-memory).
    let mut bodies = writes;
    if bodies.is_empty() {
        bodies.push("+,Follow,0,1".into());
    }
    let probe: Vec<String> = bodies.iter().cycle().take(16).cloned().collect();
    let wal = wal_probe(&mut t.tracer, &mut t.counters, &mut report, &db, &probe, 16)?;
    finish(args, report, t, wal)
}

/// Check every social wire answer against the degree model (the wire
/// pass is sequential, so the model is exact at every step).
fn check_social_wire(db: &Database, users: usize, wire: &[WireRecord], report: &mut Report) {
    let mut model = SocialModel::from_db(db, users);
    for w in wire {
        let field = match w.item.path {
            "/update" => "applied",
            _ if w.item.body.starts_with("op=tsens") => "local_sensitivity",
            _ if w.item.body.starts_with("op=elastic") => "overall",
            _ => "count",
        };
        let got: Option<u128> =
            crate::exec::json_token(&w.body, field).and_then(|v| v.parse().ok());
        let want = match parse_social(&w.item) {
            Some(Req::Write(insert, u, _)) => {
                model.apply(insert, u);
                Some(1)
            }
            Some(req) => Some(model.value(&req)),
            None => None,
        };
        report.check(w.status == 200 && got.is_some() && got == want, || {
            format!(
                "wire {:?}: {} {} vs model {want:?}",
                w.item, w.status, w.body
            )
        });
    }
}

/// Recover the social request an item encodes.
fn parse_social(item: &Item) -> Option<Req> {
    if item.path == "/update" {
        let mut f = item.body.split(',');
        let insert = f.next()? == "+";
        let _relation = f.next()?;
        let u = f.next()?.parse().ok()?;
        let v = f.next()?.parse().ok()?;
        return Some(Req::Write(insert, u, v));
    }
    let body = &item.body;
    if let Some(u) = body.strip_prefix("op=count\njoin=Follow\nwhere=Follow.U=") {
        return u.parse().ok().map(Req::Assoc);
    }
    [Req::Count, Req::Tsens, Req::Elastic]
        .into_iter()
        .find(|r| r.wire().1 == *body)
}

pub fn social_write_traced(args: &Args) -> Result<Report, String> {
    let params = SocialParams::default();
    let db = social_database(params, args.seed);
    let zipf = crate::gen::Zipf::new(params.users, params.zipf_s);
    let hot = crate::gen::Zipf::new(social::HOT_READERS, params.zipf_s);
    let mut report = Report::default();
    let scratch = ScratchDir::new("social_write-traced")?;

    // The stream: a warm fresh-read query, then per write: the write,
    // its fresh read, and two hot-user reads.
    let mut rng = crate::gen::for_request(args.seed, 2, 0);
    let mut present = Vec::new();
    let mut items = vec![Item::of(&Req::Tsens)];
    let cycles = 4000;
    for i in 0..cycles {
        items.push(Item::of(&social::next_write(
            &mut rng,
            &zipf,
            params.users,
            &mut present,
        )));
        items.push(Item::of(&Req::Tsens));
        for k in 0..2 {
            let u = hot.sample(&mut crate::gen::for_request(args.seed, 3, 2 * i + k));
            items.push(Item::of(&Req::Assoc(u)));
        }
    }

    let state = social::boot_durable(&scratch.0.join("wire"), db.clone())?;
    let server = start_server(state)?;
    let budget = Duration::from_secs_f64(args.seconds * WIRE_SHARE);
    let wire = wire_pass(server.addr, budget, |i| items.get(i).cloned())?;
    server.stop();
    check_social_wire(&db, params.users, &wire, &mut report);

    let mut generation = 0;
    let mut build = |tr: &mut Tracer| {
        generation += 1;
        let dir = scratch.0.join(format!("replay-{generation}"));
        let copy = db.clone();
        let (engine, durability) =
            tr.span("data.encoded.encode", 0, || durable_engine(&dir, copy))?;
        Ok((engine, Some(durability)))
    };
    let mut after = |engine: &ShardedEngine, tr: &mut Tracer, _: &mut Report| {
        let session = engine.primary().load();
        let (cq, tree) = tsens_workloads::social::follow_like_join(session.database())
            .map_err(|e| e.to_string())?;
        let plan = plan_order_from_tree(&tree);
        tr.span("core.elastic", 0, || {
            elastic_sensitivity_session(&session, &cq, &plan, 0)
        })
        .map_err(|e| e.to_string())?;
        social_dp_probe(&session, tr)
    };
    let mut t = replay_both(wire, &mut report, &mut build, &mut after)?;

    // Reboot the traced replay's directory: recovery replays its WAL.
    let dir = scratch.0.join("replay-1");
    let wal = wal_bytes(&dir);
    let (session, durability) = t
        .tracer
        .span("data.store.recover", 0, || {
            Durability::boot(
                &DurabilityConfig::new(&dir, FsyncPolicy::Batch),
                Database::new,
            )
        })
        .map_err(|e| e.to_string())?;
    let mut model = SocialModel::from_db(&db, params.users);
    for w in &t.wire {
        if let Some(Req::Write(insert, u, _)) = parse_social(&w.item) {
            model.apply(insert, u);
        }
    }
    let engine = ShardedEngine::from_cell(SnapshotCell::new(session));
    for req in [Req::Count, Req::Tsens, Req::Assoc(0)] {
        let got = crate::exec::answer(&engine, &req.wire().1)
            .ok()
            .and_then(|a| {
                a.number(if req == Req::Tsens {
                    "local_sensitivity"
                } else {
                    "count"
                })
            });
        report.check(got == Some(model.value(&req)), || {
            format!("recovered {req:?}: {got:?}")
        });
    }
    drop((engine, durability));
    finish(args, report, t, wal)
}

pub fn tpch_analyst_traced(args: &Args) -> Result<Report, String> {
    let (db, _) = tpch_database(SCALE, args.seed);
    let list = analyst_list(args.seed);
    let mut report = Report::default();

    let server = start_server(ServerState::new(vec![("tpch".into(), db.clone())]))?;
    let wire = wire_pass(server.addr, Duration::from_secs(120), |i| {
        list.get(i).map(|q| Item::query(&q.body))
    })?;
    server.stop();

    // Update probe on the analyst's warm engine: insert-then-delete pairs
    // of existing Lineitem rows (the analyst's stream has no writes).
    let lineitem = db.relation_by_name("Lineitem").expect("TPC-H catalog");
    let mut rng = crate::gen::for_request(args.seed, 5, 0);
    let mut probe = Vec::new();
    for _ in 0..8 {
        let row = &lineitem.rows()[rng.random_range(0..lineitem.len())];
        let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        probe.push(format!("+,Lineitem,{}", values.join(",")));
        probe.push(format!("-,Lineitem,{}", values.join(",")));
    }

    let mut build = |tr: &mut Tracer| {
        let copy = db.clone();
        let engine = tr
            .span("data.encoded.encode", 0, || ShardedEngine::new(copy, 1))
            .map_err(|e| e.to_string())?;
        Ok((engine, None))
    };
    let probe_bodies = probe.clone();
    let mut after = |engine: &ShardedEngine, tr: &mut Tracer, report: &mut Report| {
        let before = engine.primary().load().database().total_tuples();
        let mut rp = Replayer::new(engine, None, true);
        rp.tracer = std::mem::take(tr);
        for (i, body) in probe_bodies.iter().enumerate() {
            let applied = rp.update(1_000_000 + i as u64, body);
            report.check(applied == Ok(1), || {
                format!("update probe {body}: {applied:?}")
            });
        }
        *tr = std::mem::take(&mut rp.tracer);
        let after = engine.primary().load().database().total_tuples();
        report.check(before == after, || {
            format!("update probe left {after} tuples, not {before}")
        });
        Ok(())
    };
    let mut t = replay_both(wire, &mut report, &mut build, &mut after)?;
    let wal = wal_probe(&mut t.tracer, &mut t.counters, &mut report, &db, &probe, 0)?;
    finish(args, report, t, wal)
}
