//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * Algorithm 1 (paper-faithful path specialisation) vs the general
//!   Algorithm 2 on the same path query — measures what the factored
//!   multiplicity tables recover;
//! * the dictionary-encoded flat-row operators the ⊥/⊤ passes are
//!   built from (hash join, lookup join, group-by);
//! * §5.4 top-k capping at several k (accuracy traded in `repro param-l`;
//!   here we measure its runtime overhead/benefit);
//! * the naive Theorem 3.1 baseline on a micro instance, to show the
//!   gap the paper motivates (§7.2: "this approach will take ×10k+ time").
//!
//! Set `TSENS_BENCH_QUICK=1` to shrink inputs and sample counts — the CI
//! smoke mode (results still land in `BENCH_results.json`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tsens_core::{naive_local_sensitivity, tsens, tsens_path, tsens_topk, SessionExt};
use tsens_data::{AttrId, Count, CountedRelation, Dict, Row, Schema, Value};
use tsens_engine::ops::{hash_join_enc, lookup_join_enc};
use tsens_engine::{EngineSession, Pool, SnapshotCell};
use tsens_query::gyo_decompose;
use tsens_server::{Client, Server, ServerState};
use tsens_workloads::facebook::{self, small_params};
use tsens_workloads::tpch;

/// CI smoke mode: tiny inputs. Sample counts stay moderate (15) rather
/// than minimal: the quick-scale medians feed the perf-regression gate,
/// and 3-sample medians of microsecond benches flap past its 30%
/// threshold on machine noise alone.
fn quick() -> bool {
    std::env::var_os("TSENS_BENCH_QUICK").is_some()
}

fn bench_path_vs_general(c: &mut Criterion) {
    let db = facebook::facebook_database(small_params(), 348);
    let (qw, tree) = facebook::qw(&db).unwrap();
    let mut group = c.benchmark_group("ablation_path_algorithm");
    group.sample_size(if quick() { 15 } else { 20 });
    group.bench_function("alg1_path", |b| {
        b.iter(|| tsens_path(&db, &qw).expect("qw is a path"))
    });
    group.bench_function("alg2_general", |b| b.iter(|| tsens(&db, &qw, &tree)));
    group.finish();
}

/// Dictionary-encoded flat rows on one natural join R(A,B) ⋈ S(B,C),
/// one keyed lookup join and one group-by — the operators the ⊥/⊤
/// passes are built from.
fn bench_hash_join_encoding(c: &mut Criterion) {
    let rows = if quick() { 2_000 } else { 20_000 };
    let domain = (rows / 10) as i64;
    let mut rng = StdRng::seed_from_u64(348);
    let mut pairs = |n: usize| -> Vec<(Row, Count)> {
        (0..n)
            .map(|_| {
                (
                    vec![
                        Value::Int(rng.random_range(0..domain)),
                        Value::Int(rng.random_range(0..domain)),
                    ],
                    1,
                )
            })
            .collect()
    };
    let schema = |ids: [u32; 2]| Schema::new(ids.iter().map(|&i| AttrId(i)).collect());
    let r = CountedRelation::from_pairs(schema([0, 1]), pairs(rows));
    let s = CountedRelation::from_pairs(schema([1, 2]), pairs(rows));
    let keyed = s.group(&Schema::new(vec![AttrId(1)]));
    let dict = Dict::from_values(
        r.iter()
            .chain(s.iter())
            .flat_map(|(row, _)| row.iter().cloned())
            .collect::<Vec<_>>(),
    );
    let r_enc = dict.encode_counted(&r);
    let s_enc = dict.encode_counted(&s);
    let keyed_enc = dict.encode_counted(&keyed);

    let mut group = c.benchmark_group("ablation_hash_join");
    group.sample_size(if quick() { 15 } else { 20 });
    group.bench_function("hash_join_encoded", |b| {
        b.iter(|| hash_join_enc(&r_enc, &s_enc))
    });
    group.bench_function("lookup_join_encoded", |b| {
        b.iter(|| lookup_join_enc(&r_enc, &keyed_enc))
    });
    group.bench_function("group_encoded", |b| {
        b.iter(|| r_enc.group(&Schema::new(vec![AttrId(1)])))
    });
    group.finish();
}

/// Sequential vs pooled execution on identical inputs — the intra-query
/// parallelism ablation. Three layers, each with a `_seq`/`_par` key
/// pair so the perf gate tracks both and their ratio is readable from
/// one report:
///
/// * `encode_*` — per-relation fan-out in `EncodedDatabase` construction;
/// * `partitioned_join_*` — one hash join above `PAR_JOIN_THRESHOLD`,
///   partitioned across the pool vs the single-probe baseline;
/// * `cold_q3_*` — a cold TPC-H q3 session end to end (encode + ⊥/⊤
///   passes), the unit the worker pool targets.
///
/// On a single-core runner the pairs coincide (the pool degenerates to
/// chunked execution on one worker); the keys still gate regressions in
/// the partitioning/scheduling overhead itself.
fn bench_parallel(c: &mut Criterion) {
    use std::sync::atomic::AtomicU64;
    use tsens_engine::ops::partitioned_hash_join_enc;

    let seq = Pool::sequential();
    let par = Pool::new(4).expect("4 > 0");

    let mut group = c.benchmark_group("parallel");
    group.sample_size(if quick() { 15 } else { 20 });

    let (db, _) = tpch::tpch_database(if quick() { 0.0005 } else { 0.002 }, 348);
    for (pool, label) in [(seq, "encode_seq"), (par, "encode_par")] {
        group.bench_function(label, |b| {
            b.iter(|| tsens_data::EncodedDatabase::new_with_pool(black_box(&db), &pool))
        });
    }

    // A join big enough to cross PAR_JOIN_THRESHOLD even in quick mode.
    let rows = 20_000;
    let domain = (rows / 10) as i64;
    let mut rng = StdRng::seed_from_u64(348);
    let mut pairs = |n: usize| -> Vec<(Row, Count)> {
        (0..n)
            .map(|_| {
                (
                    vec![
                        Value::Int(rng.random_range(0..domain)),
                        Value::Int(rng.random_range(0..domain)),
                    ],
                    1,
                )
            })
            .collect()
    };
    let schema = |ids: [u32; 2]| Schema::new(ids.iter().map(|&i| AttrId(i)).collect());
    let r = CountedRelation::from_pairs(schema([0, 1]), pairs(rows));
    let s = CountedRelation::from_pairs(schema([1, 2]), pairs(rows));
    let dict = Dict::from_values(
        r.iter()
            .chain(s.iter())
            .flat_map(|(row, _)| row.iter().cloned())
            .collect::<Vec<_>>(),
    );
    let r_enc = dict.encode_counted(&r);
    let s_enc = dict.encode_counted(&s);
    for (pool, label) in [(seq, "partitioned_join_seq"), (par, "partitioned_join_par")] {
        group.bench_function(label, |b| {
            let tasks = AtomicU64::new(0);
            b.iter(|| {
                partitioned_hash_join_enc(black_box(&r_enc), black_box(&s_enc), &pool, &tasks)
            })
        });
    }

    let (q3, t3, s3) = tpch::q3(&db).unwrap();
    for (pool, label) in [(seq, "cold_q3_seq"), (par, "cold_q3_par")] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let session = EngineSession::with_pool(&db, pool);
                session.tsens_with_skips(&q3, &t3, &s3).expect("resident")
            })
        });
    }
    group.finish();
}

/// The pool's own per-call cost: `Pool::run(n, |i| i)`, whose tasks do
/// no work, at the default pool (`pool/run_trivial/{n}`) and on the
/// in-order sequential loop (`pool/run_trivial_seq/{n}`). The gap is
/// what every pooled fan-out of cache hits (a warm sharded read) pays
/// for publishing its job to the shared helpers.
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.sample_size(if quick() { 15 } else { 20 });
    for (pool, name) in [
        (Pool::default(), "run_trivial"),
        (Pool::sequential(), "run_trivial_seq"),
    ] {
        for n in [2usize, 8] {
            group.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| black_box(pool.run(black_box(n), |i| i)))
            });
        }
    }
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let db = facebook::facebook_database(small_params(), 348);
    let (qw, tree) = facebook::qw(&db).unwrap();
    let mut group = c.benchmark_group("ablation_topk");
    group.sample_size(if quick() { 15 } else { 20 });
    for k in [1usize, 16, 1024, 1_000_000] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| tsens_topk(&db, &qw, &tree, k))
        });
    }
    group.finish();
}

fn bench_vs_naive(c: &mut Criterion) {
    let (db, _) = tpch::tpch_database(if quick() { 0.00002 } else { 0.00004 }, 348);
    let (q1, tree) = tpch::q1(&db).unwrap();
    let mut group = c.benchmark_group("ablation_vs_naive");
    group.sample_size(if quick() { 5 } else { 10 });
    group.bench_function("tsens_q1_micro", |b| b.iter(|| tsens(&db, &q1, &tree)));
    group.bench_function("naive_q1_micro", |b| {
        b.iter(|| naive_local_sensitivity(&db, &q1))
    });
    group.finish();
    let _ = gyo_decompose(&q1);
}

/// The session-layer ablation: amortized per-query latency of the
/// facebook workload batch (q4, qw, q∘, q*) served by one **warm**
/// `EngineSession` versus N fresh one-shot calls (each of which builds
/// its own session: dictionary, lifts, passes, tables).
///
/// * `warm_batch_*` — the whole batch through a prewarmed session
///   (repeat-query serving: cache hits);
/// * `oneshot_batch_*` — the same batch via the free functions (a fresh
///   session per query);
/// * `cold_session_batch_tsens` — session construction plus the batch of
///   four *distinct* first-time queries, amortizing the encoding across
///   them.
fn bench_session(c: &mut Criterion) {
    let db = facebook::facebook_database(small_params(), 348);
    let cases: Vec<_> = {
        let (q4, t4) = facebook::q4(&db).unwrap();
        let (qw, tw) = facebook::qw(&db).unwrap();
        let (qo, to) = facebook::qo(&db).unwrap();
        let (qs, ts) = facebook::qs(&db).unwrap();
        vec![(q4, t4), (qw, tw), (qo, to), (qs, ts)]
    };
    let mut group = c.benchmark_group("session");
    group.sample_size(if quick() { 15 } else { 20 });

    let session = EngineSession::new(&db);
    for (q, t) in &cases {
        session.tsens(q, t).unwrap(); // prime the caches
    }
    group.bench_function("warm_batch_tsens", |b| {
        b.iter(|| {
            for (q, t) in &cases {
                black_box(session.tsens(q, t).unwrap());
            }
        })
    });
    group.bench_function("warm_batch_eval", |b| {
        b.iter(|| {
            for (q, t) in &cases {
                black_box(session.count_query(q, t).unwrap());
            }
        })
    });
    group.bench_function("oneshot_batch_tsens", |b| {
        b.iter(|| {
            for (q, t) in &cases {
                black_box(tsens(&db, q, t));
            }
        })
    });
    group.bench_function("oneshot_batch_eval", |b| {
        b.iter(|| {
            for (q, t) in &cases {
                black_box(tsens_engine::count_query(&db, q, t));
            }
        })
    });
    group.bench_function("cold_session_batch_tsens", |b| {
        b.iter(|| {
            let fresh = EngineSession::new(&db);
            for (q, t) in &cases {
                black_box(fresh.tsens(q, t).unwrap());
            }
        })
    });
    group.finish();
}

/// The mutable-session ablation: incremental updates with selective
/// cache invalidation versus dropping and rebuilding the session.
///
/// Catalog shape mirrors a serving deployment: a small "hot" join
/// (`HotR ⋈ HotS`) that the deltas touch, plus a large "cold" join
/// (`ColdT ⋈ ColdU`) that stays warm in the cache. Keys:
///
/// * `single_tuple_update` — one insert + one delete applied to a warm
///   session (no re-query): the pure maintenance + invalidation cost;
/// * `warm_requery_delta_{1,10,100}` — apply a k-row delta to the hot
///   relation, then re-run the whole two-query batch (hot recomputes
///   its passes, cold hits the result cache), then undo the delta;
/// * `rebuild_requery` — what the same re-query costs without
///   incremental maintenance: a fresh session (full re-encode of all
///   four relations) plus both queries from cold.
fn bench_updates(c: &mut Criterion) {
    let (small, large) = if quick() {
        (500, 5_000)
    } else {
        (2_000, 40_000)
    };
    let mut db = tsens_data::Database::new();
    let [a, b2, c2, d, e, f] = db.attrs(["UA", "UB", "UC", "UD", "UE", "UF"]);
    let edge = |n: usize, k: i64| -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64 % k),
                    Value::Int((i as i64 * 13 + 1) % k),
                ]
            })
            .collect()
    };
    let rel = |s1, s2, n, k| tsens_data::Relation::from_rows(Schema::new(vec![s1, s2]), edge(n, k));
    db.add_relation("HotR", rel(a, b2, small, 211)).unwrap();
    db.add_relation("HotS", rel(b2, c2, small, 211)).unwrap();
    db.add_relation("ColdT", rel(d, e, large, 5_003)).unwrap();
    db.add_relation("ColdU", rel(e, f, large, 5_003)).unwrap();
    let hot = tsens_query::ConjunctiveQuery::over(&db, "hot", &["HotR", "HotS"]).unwrap();
    let cold = tsens_query::ConjunctiveQuery::over(&db, "cold", &["ColdT", "ColdU"]).unwrap();
    let t_hot = gyo_decompose(&hot).unwrap().expect_acyclic("path");
    let t_cold = gyo_decompose(&cold).unwrap().expect_acyclic("path");

    let mut group = c.benchmark_group("updates");
    group.sample_size(if quick() { 15 } else { 20 });

    let mut session = EngineSession::new(&db);
    session.count_query(&hot, &t_hot).unwrap();
    session.count_query(&cold, &t_cold).unwrap();

    group.bench_function("single_tuple_update", |b| {
        b.iter(|| {
            let row = vec![Value::Int(3), Value::Int(4)];
            session.insert(0, row.clone()).unwrap();
            black_box(session.delete(0, row).unwrap());
        })
    });

    for delta in [1usize, 10, 100] {
        group.bench_with_input(
            BenchmarkId::new("warm_requery_delta", delta),
            &delta,
            |b, &delta| {
                b.iter(|| {
                    let rows: Vec<Row> = (0..delta as i64)
                        .map(|i| vec![Value::Int(i % 211), Value::Int((i + 7) % 211)])
                        .collect();
                    for row in &rows {
                        session.insert(0, row.clone()).unwrap();
                    }
                    black_box(session.count_query(&hot, &t_hot).unwrap());
                    black_box(session.count_query(&cold, &t_cold).unwrap());
                    for row in rows {
                        session.delete(0, row).unwrap();
                    }
                })
            },
        );
    }

    // The delta-maintenance headline: one in-dictionary insert repairs
    // the hot query's ⊥/⊤ state in place, so the touched re-query is a
    // warm pass hit instead of a recompute. Insert and delete both
    // re-query, so every iteration measures two repair+requery rounds.
    group.bench_with_input(BenchmarkId::new("delta_maintain", 1), &1usize, |b, _| {
        b.iter(|| {
            let row = vec![Value::Int(3), Value::Int(4)];
            session.insert(0, row.clone()).unwrap();
            black_box(session.count_query(&hot, &t_hot).unwrap());
            session.delete(0, row).unwrap();
            black_box(session.count_query(&hot, &t_hot).unwrap());
        })
    });

    group.bench_function("rebuild_requery", |b| {
        b.iter(|| {
            let fresh = EngineSession::new(&db);
            black_box(fresh.count_query(&hot, &t_hot).unwrap());
            black_box(fresh.count_query(&cold, &t_cold).unwrap());
        })
    });
    group.finish();
}

/// IVM size-scaling: the same single-tuple delta + touched-query
/// re-query against growing base tables (1k → 100k rows per relation).
/// With O(delta) pass repair the measured latency must stay flat in the
/// base size — before this existed, the re-query recomputed both ⊥
/// passes and scaled linearly. The perf gate keys `ivm/update_requery/*`
/// pin the absolute numbers; the flatness claim (≤1.5× spread across the
/// series) is checked in review against `BENCH_results.json`.
fn bench_ivm_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ivm");
    group.sample_size(if quick() { 15 } else { 20 });
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut db = tsens_data::Database::new();
        let [a, b2, c2] = db.attrs(["VA", "VB", "VC"]);
        let edge = |n: usize| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i as i64 % 211),
                        Value::Int((i as i64 * 13 + 1) % 211),
                    ]
                })
                .collect()
        };
        db.add_relation(
            "R",
            tsens_data::Relation::from_rows(Schema::new(vec![a, b2]), edge(n)),
        )
        .unwrap();
        db.add_relation(
            "S",
            tsens_data::Relation::from_rows(Schema::new(vec![b2, c2]), edge(n)),
        )
        .unwrap();
        let q = tsens_query::ConjunctiveQuery::over(&db, "q", &["R", "S"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
        let mut session = EngineSession::new(&db);
        session.count_query(&q, &tree).unwrap();
        group.bench_with_input(BenchmarkId::new("update_requery", n), &n, |b, _| {
            b.iter(|| {
                let row = vec![Value::Int(3), Value::Int(4)];
                session.insert(0, row.clone()).unwrap();
                black_box(session.count_query(&q, &tree).unwrap());
                session.delete(0, row).unwrap();
                black_box(session.count_query(&q, &tree).unwrap());
            })
        });
    }
    group.finish();
}

/// The serving-front-end ablation: warm request latency through the
/// full HTTP path (`tsens-server` on loopback) versus the same warm
/// session called in-process. The gap is the *request overhead* a
/// deployment pays for process isolation; the criterion stand-in
/// reports medians, i.e. warm p50 latency.
///
/// Three wire shapes, plus the snapshot primitives underneath them:
///
/// * `http_*_warm` — one fresh TCP connect per request (the PR 5
///   baseline, dominated by connect + teardown);
/// * `http_*_reused` — the same request over a persistent keep-alive
///   connection (what a real client pays per request);
/// * `http_batch_8` — eight queries in one `/query_batch` body,
///   answered from one pinned snapshot (whole-request cost; ÷8 for
///   per-item);
/// * `snapshot_read` — `SnapshotCell::load` + a cached in-process
///   query: the server's per-request engine cost with zero wire;
/// * `snapshot_publish` — fork + single-row apply + publish: the full
///   copy-on-write write-lane cost a `/update` pays.
fn bench_serving(c: &mut Criterion) {
    let db = facebook::facebook_database(small_params(), 348);
    let (q4, t4) = facebook::q4(&db).unwrap();
    let join: Vec<&str> = q4
        .atoms()
        .iter()
        .map(|a| db.relation_name(a.relation))
        .collect();
    let count_body = format!("op=count\njoin={}", join.join(","));
    let tsens_body = format!("op=tsens\njoin={}", join.join(","));

    let session = EngineSession::new(&db);
    session.count_query(&q4, &t4).unwrap();
    session.tsens(&q4, &t4).unwrap();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let state = ServerState::new(vec![("bench".to_owned(), db.clone())]);
    let server = Server::start(listener, state, 2).expect("start server");
    let addr = server.addr();
    // Prime the served session's caches too.
    for body in [&count_body, &tsens_body] {
        let (status, response) = tsens_server::request(addr, "POST", "/query", body).unwrap();
        assert_eq!(status, 200, "{response}");
    }

    let mut group = c.benchmark_group("serving");
    group.sample_size(if quick() { 15 } else { 30 });
    group.bench_function("http_count_warm", |b| {
        b.iter(|| black_box(tsens_server::request(addr, "POST", "/query", &count_body).unwrap()))
    });
    group.bench_function("http_tsens_warm", |b| {
        b.iter(|| black_box(tsens_server::request(addr, "POST", "/query", &tsens_body).unwrap()))
    });

    // Keep-alive: same requests, connection dialed once outside the
    // timed loop.
    let mut conn = Client::new(addr).expect("dial");
    group.bench_function("http_count_reused", |b| {
        b.iter(|| black_box(conn.request("POST", "/query", &count_body).unwrap()))
    });
    group.bench_function("http_tsens_reused", |b| {
        b.iter(|| black_box(conn.request("POST", "/query", &tsens_body).unwrap()))
    });
    assert!(conn.is_connected(), "bench loop must not drop keep-alive");

    // Batch: 8 queries answered from one pinned snapshot in a single
    // round trip (the key times the whole request; divide by 8 for the
    // per-item cost).
    let batch_body = [count_body.as_str(); 8].join("\n---\n");
    group.bench_function("http_batch_8", |b| {
        b.iter(|| black_box(conn.request("POST", "/query_batch", &batch_body).unwrap()))
    });

    group.bench_function("inprocess_count_warm", |b| {
        b.iter(|| black_box(session.count_query(&q4, &t4).unwrap()))
    });
    group.bench_function("inprocess_tsens_warm", |b| {
        b.iter(|| black_box(session.tsens(&q4, &t4).unwrap()))
    });

    // The snapshot primitives under the endpoints, with the wire
    // stripped away: these two feed the perf gate (HTTP keys are too
    // runner-dependent to baseline).
    let cell = SnapshotCell::new(EngineSession::owned(db.clone()));
    cell.load().count_query(&q4, &t4).unwrap(); // prime
    group.bench_function("snapshot_read", |b| {
        b.iter(|| {
            let pinned = cell.load();
            black_box(pinned.count_query(&q4, &t4).unwrap())
        })
    });
    let delta = vec![Value::Int(-1), Value::Int(-2)];
    group.bench_function("snapshot_publish", |b| {
        b.iter(|| {
            cell.update(|s| {
                s.insert(0, delta.clone())?;
                s.delete(0, delta.clone())
            })
            .unwrap()
        })
    });
    group.finish();
    server.stop();
}

/// Served-write scaling: the `/update` write lane without the wire. A
/// reader pins the published snapshot, a single-row insert publishes
/// through `SnapshotCell::update` (fork → apply → publish), the touched
/// join is requeried on the new snapshot; then the same for the delete.
/// The pinned reader makes every publish share the touched relation and
/// its pass entry with the fork, which is the server's steady state.
/// `R(A,B)` has `n` distinct rows joined to a fixed 2000-row `S(B,C)`.
/// Pass states are copied O(Δ) and the session holds no `Value` rows;
/// the one remaining O(n) step is the flat `memcpy` of `R`'s encoded
/// relation.
fn bench_publish_requery(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(if quick() { 15 } else { 20 });
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let mut db = tsens_data::Database::new();
        let [a, b2, c2] = db.attrs(["PA", "PB", "PC"]);
        let r_rows = (0..n as i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 1000)])
            .collect();
        let s_rows = (0..2000i64)
            .map(|i| vec![Value::Int(i % 1000), Value::Int(i)])
            .collect();
        db.add_relation(
            "R",
            tsens_data::Relation::from_rows(Schema::new(vec![a, b2]), r_rows),
        )
        .unwrap();
        db.add_relation(
            "S",
            tsens_data::Relation::from_rows(Schema::new(vec![b2, c2]), s_rows),
        )
        .unwrap();
        let q = tsens_query::ConjunctiveQuery::over(&db, "q", &["R", "S"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path");
        let cell = SnapshotCell::new(EngineSession::owned(db));
        cell.load().count_query(&q, &tree).unwrap();
        // Known values (no dictionary epoch): row (7, 3) joins S's two
        // B=3 rows.
        let row = vec![Value::Int(7), Value::Int(3)];
        group.bench_with_input(BenchmarkId::new("publish_requery", n), &n, |b, _| {
            b.iter(|| {
                let pinned = cell.load();
                cell.update(|s| s.insert(0, row.clone())).unwrap();
                black_box(cell.load().count_query(&q, &tree).unwrap());
                let pinned_after = cell.load();
                cell.update(|s| s.delete(0, row.clone())).unwrap();
                black_box(cell.load().count_query(&q, &tree).unwrap());
                black_box((pinned, pinned_after));
            })
        });
        let stats = cell.load().stats();
        assert_eq!(
            stats.passes_invalidated, 0,
            "publishes must repair: {stats:?}"
        );
    }
    group.finish();
}

/// Durability layer: snapshot save, snapshot load vs the CSV re-encode
/// a restart would otherwise pay, and WAL append under each fsync
/// policy (the latency every `/update` ack carries).
fn bench_durability(c: &mut Criterion) {
    use tsens_data::store::{self, FsyncPolicy, Wal};

    let db = facebook::facebook_database(small_params(), 348);
    let session = EngineSession::new(&db);
    let dir = std::env::temp_dir().join(format!("tsens-bench-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut group = c.benchmark_group("durability");
    group.sample_size(if quick() { 15 } else { 20 });
    group.bench_function("snapshot_save", |b| {
        b.iter(|| store::save_snapshot(&dir, 1, session.database(), session.encoded()).unwrap())
    });

    let path = store::save_snapshot(&dir, 1, session.database(), session.encoded()).unwrap();
    // The boot path the snapshot replaces: read the CSVs, rebuild the
    // catalog, re-encode — what a non-durable restart pays before it
    // can serve (both paths read page-cache-warm files here).
    let csv_dir = dir.join("csv");
    std::fs::create_dir_all(&csv_dir).unwrap();
    let csv_files: Vec<std::path::PathBuf> = (0..db.relation_count())
        .map(|i| {
            let file = csv_dir.join(format!("{}.csv", db.relation_name(i)));
            tsens_data::io::write_csv(&db, i, &file).unwrap();
            file
        })
        .collect();
    group.bench_function("csv_encode", |b| {
        b.iter(|| {
            let mut db = tsens_data::Database::new();
            for file in &csv_files {
                tsens_data::io::load_csv(&mut db, file).unwrap();
            }
            tsens_data::EncodedDatabase::new(black_box(&db))
        })
    });
    group.bench_function("snapshot_load", |b| {
        b.iter(|| store::load_snapshot(black_box(&path)).unwrap())
    });
    // Restart-skips-re-encode, asserted: the loaded encoding *is* the
    // saved one (same epoch, same per-relation versions), not a fresh
    // re-encode that merely agrees.
    let loaded = store::load_snapshot(&path).unwrap();
    assert_eq!(loaded.enc.epoch(), session.encoded().epoch());
    assert_eq!(
        loaded.enc.relation_count(),
        session.encoded().relation_count()
    );
    for i in 0..loaded.enc.relation_count() {
        assert_eq!(loaded.enc.version(i), session.encoded().version(i));
    }

    let record = "+,Friends,1,2\n-,Friends,1,2";
    for (i, policy) in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Off]
        .into_iter()
        .enumerate()
    {
        group.bench_function(BenchmarkId::new("wal_append", policy), |b| {
            let mut wal = Wal::create(&dir, 100 + i as u64, policy).unwrap();
            b.iter(|| wal.append(black_box(record)).unwrap())
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharding ablation on the TAO-style social workload: the same
/// warm queries through one resident session-equivalent (1-shard
/// `ShardedEngine`, pure delegation) versus four hash-partitioned
/// shards.
///
/// * `social_count/{1,4}shard` — warm `Follow ⋈ Like` count: per-shard
///   cache hits plus the gather (sum) across shards, so the pair reads
///   as "what does fanning the same answer out over 4 snapshots cost";
/// * `shard_scatter_gather_overhead` — warm `assoc_count(hot)` at 4
///   shards: the per-shard work is a cached single-atom count, so the
///   key isolates the scatter machinery itself (pin 4 snapshots,
///   dispatch on the pool, sum);
/// * `social_update_requery` — a hot-user single-row insert + touched
///   requery + delete + requery, routed through the 4-shard publish
///   lanes: only the celebrity's shard recomputes its passes, the
///   other three answer from warm caches (the sharded mirror of
///   `ivm/update_requery`).
fn bench_sharding(c: &mut Criterion) {
    use tsens_core::sharded_tsens_checked;
    use tsens_engine::{check_co_partitioned, sharded_count, ShardedEngine};
    use tsens_query::{ConjunctiveQuery, DecompositionTree};
    use tsens_workloads::social::{self, SocialParams};

    /// The served count: co-partition check, then the per-shard sum.
    fn count(engine: &ShardedEngine, q: &ConjunctiveQuery, tree: &DecompositionTree) -> Count {
        let pinned = engine.pin();
        check_co_partitioned(engine.spec(), pinned[0].database(), q).unwrap();
        sharded_count(engine.pool(), &pinned, q, tree).unwrap()
    }
    let tsens = |engine: &ShardedEngine, q, tree| {
        sharded_tsens_checked(engine.pool(), engine.spec(), &engine.pin(), q, tree)
            .unwrap()
            .local_sensitivity
    };

    let params = if quick() {
        social::small_params()
    } else {
        SocialParams {
            users: 10_000,
            follow_edges: 80_000,
            like_edges: 20_000,
            pages: 5_000,
            zipf_s: 1.0,
        }
    };
    let db = social::social_database(params, 348);
    let (join, join_tree) = social::follow_like_join(&db).unwrap();
    let hot = social::hottest_user();
    let (assoc, assoc_tree) = social::assoc_count(&db, hot).unwrap();
    let one = ShardedEngine::new(db.clone(), 1).unwrap();
    let four = ShardedEngine::new(db.clone(), 4).unwrap();
    // Prime every shard's caches and cross-check the gathered answers —
    // the bench must not time silently-wrong scatter paths.
    for q in [(&join, &join_tree), (&assoc, &assoc_tree)] {
        assert_eq!(count(&one, q.0, q.1), count(&four, q.0, q.1));
        assert_eq!(tsens(&one, q.0, q.1), tsens(&four, q.0, q.1));
    }

    let mut group = c.benchmark_group("sharding");
    group.sample_size(if quick() { 15 } else { 20 });
    for (engine, label) in [(&one, "1shard"), (&four, "4shard")] {
        group.bench_function(BenchmarkId::new("social_count", label), |b| {
            b.iter(|| black_box(count(engine, &join, &join_tree)))
        });
    }
    group.bench_function("shard_scatter_gather_overhead", |b| {
        b.iter(|| black_box(count(&four, &assoc, &assoc_tree)))
    });
    let row = vec![Value::Int(hot), Value::Int(-1)];
    let follow_rel = (0..db.relation_count())
        .find(|&i| db.relation_name(i) == "Follow")
        .unwrap();
    group.bench_function("social_update_requery", |b| {
        b.iter(|| {
            four.update_all(vec![tsens_data::Update::Insert {
                relation: follow_rel,
                row: row.clone(),
            }])
            .unwrap();
            black_box(count(&four, &join, &join_tree));
            four.update_all(vec![tsens_data::Update::Delete {
                relation: follow_rel,
                row: row.clone(),
            }])
            .unwrap();
            black_box(count(&four, &join, &join_tree));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_path_vs_general,
    bench_hash_join_encoding,
    bench_parallel,
    bench_pool,
    bench_topk,
    bench_vs_naive,
    bench_session,
    bench_updates,
    bench_ivm_scaling,
    bench_serving,
    bench_publish_requery,
    bench_durability,
    bench_sharding
);
criterion_main!(benches);
