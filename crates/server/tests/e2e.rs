//! End-to-end server test over a real loopback socket: the paper's
//! Figure 1 running example served over HTTP — query, update, re-query,
//! malformed requests, stats, shutdown — all against one process-local
//! worker pool.

use std::net::TcpListener;
use tsens_data::{Database, Relation, Schema, Value};
use tsens_server::{client, Client, Server, ServerState};

/// The Figure 1 / Example 2.1 database (LS = 4 via inserting
/// `(a2, b2, c1)` into R1).
fn figure1() -> Database {
    let mut db = Database::new();
    let [a, b, c, d, e, f] = db.attrs(["A", "B", "C", "D", "E", "F"]);
    let v = Value::str;
    db.add_relation(
        "R1",
        Relation::from_rows(
            Schema::new(vec![a, b, c]),
            vec![
                vec![v("a1"), v("b1"), v("c1")],
                vec![v("a1"), v("b2"), v("c1")],
                vec![v("a2"), v("b1"), v("c1")],
            ],
        ),
    )
    .unwrap();
    db.add_relation(
        "R2",
        Relation::from_rows(
            Schema::new(vec![a, b, d]),
            vec![
                vec![v("a1"), v("b1"), v("d1")],
                vec![v("a2"), v("b2"), v("d2")],
            ],
        ),
    )
    .unwrap();
    db.add_relation(
        "R3",
        Relation::from_rows(
            Schema::new(vec![a, e]),
            vec![
                vec![v("a1"), v("e1")],
                vec![v("a2"), v("e1")],
                vec![v("a2"), v("e2")],
            ],
        ),
    )
    .unwrap();
    db.add_relation(
        "R4",
        Relation::from_rows(
            Schema::new(vec![b, f]),
            vec![
                vec![v("b1"), v("f1")],
                vec![v("b2"), v("f1")],
                vec![v("b2"), v("f2")],
            ],
        ),
    )
    .unwrap();
    db
}

fn start_server() -> (Server, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let state = ServerState::new(vec![("fig1".to_owned(), figure1())]);
    let server = Server::start(listener, state, 3).expect("start server");
    let addr = server.addr();
    (server, addr)
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    client::request(addr, "POST", path, body).expect("request")
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    client::request(addr, "GET", path, "").expect("request")
}

#[test]
fn serves_figure1_with_updates_errors_and_shutdown() {
    let (server, addr) = start_server();

    // Liveness.
    assert_eq!(get(addr, "/healthz"), (200, "{\"ok\":true}".to_owned()));

    // The paper's running example over the wire: LS = 4, witnessed by
    // (a2, b2, *) in R1.
    let (status, body) = post(addr, "/query", "op=tsens\njoin=R1,R2,R3,R4");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"local_sensitivity\":4"), "{body}");
    assert!(body.contains("R1(a2, b2, *)"), "{body}");

    // |Q(D)| = 1 before the update…
    let (_, body) = post(addr, "/query", "op=count\njoin=R1,R2,R3,R4");
    assert!(body.contains("\"count\":1"), "{body}");

    // …inserting the witness row grows it to 5 (Δ = LS = 4).
    let (status, body) = post(addr, "/update", "+,R1,a2,b2,c1");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"applied\":1"), "{body}");
    let (_, body) = post(addr, "/query", "op=count\njoin=R1,R2,R3,R4");
    assert!(body.contains("\"count\":5"), "{body}");

    // Malformed requests are 4xx error responses, never dead workers:
    // unknown relation, bad arity, junk op, junk body, wrong method,
    // unknown endpoint, oversized nonsense.
    let cases: Vec<(u16, String)> = vec![
        post(addr, "/query", "op=count\njoin=R9"),
        post(addr, "/query", "op=transmogrify"),
        post(addr, "/query", "complete nonsense"),
        post(addr, "/query", "op=count\njoin=R1\nwhere=R1.Zork=1"),
        post(addr, "/update", "+,R1,a2"),
        post(addr, "/update", "*,R1,a2,b2,c1"),
        post(addr, "/update", "+,Nope,a2,b2,c1"),
        // An astronomical ℓ would turn the SVT scan into a hours-long
        // read-lock hold; the server rejects it against a data-derived
        // cap instead of wedging a worker.
        post(
            addr,
            "/query",
            "op=tsensdp\nprivate=R1\nell=4000000000\njoin=R1,R2,R3,R4",
        ),
        get(addr, "/query"),
        get(addr, "/no-such-endpoint"),
    ];
    for (status, body) in cases {
        assert!(
            (400..500).contains(&status),
            "expected 4xx, got {status}: {body}"
        );
        assert!(body.contains("\"ok\":false"), "{body}");
    }

    // An unseen predicate constant is a *valid* zero answer, not an
    // error — the database simply contains nothing matching it.
    let (status, body) = post(
        addr,
        "/query",
        "op=count\njoin=R1,R2,R3,R4\nwhere=R1.A=never-seen",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"count\":0"), "{body}");

    // After all of the above, the server still answers correctly.
    let (status, body) = post(addr, "/query", "op=count\njoin=R1,R2,R3,R4");
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":5"), "{body}");

    // Stats expose the session counters and dictionary sizes.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    for key in [
        "\"relations\":4",
        "\"dict\"",
        "\"pass_hits\"",
        "\"updates\"",
    ] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    // Named database addressing works, unknown names 404.
    assert_eq!(get(addr, "/stats?db=fig1").0, 200);
    assert_eq!(get(addr, "/stats?db=nope").0, 404);

    // Clean shutdown: the endpoint answers, then every worker drains.
    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    server.join();
}

#[test]
fn keep_alive_serves_queries_and_updates_over_one_connection() {
    let (server, addr) = start_server();
    let mut c = Client::new(addr).expect("client");

    // Two queries and one update over a single connection, interleaved
    // with a second query proving the published snapshot moved.
    let (status, body) = c
        .request("POST", "/query", "op=count\njoin=R1,R2,R3,R4")
        .expect("query 1");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"count\":1"), "{body}");
    assert!(c.is_connected(), "server must honor keep-alive");

    let (status, body) = c
        .request("POST", "/update", "+,R1,a2,b2,c1")
        .expect("update");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"snapshot_version\":1"), "{body}");

    let (status, body) = c
        .request("POST", "/query", "op=count\njoin=R1,R2,R3,R4")
        .expect("query 2");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"count\":5"), "{body}");
    assert!(c.is_connected(), "still the same connection");

    // A 4xx answer keeps the connection usable too.
    let (status, _) = c.request("POST", "/query", "op=transmogrify").expect("bad");
    assert_eq!(status, 400);
    let (status, _) = c.request("GET", "/healthz", "").expect("health");
    assert_eq!(status, 200);
    assert!(c.is_connected());

    server.stop();
}

/// The drain fix: an idle keep-alive connection parks a worker in its
/// idle-poll loop; `/shutdown` must still complete promptly (the worker
/// notices the flag within one poll tick) instead of wedging until the
/// 30s idle timeout.
#[test]
fn shutdown_drains_idle_keep_alive_connections() {
    let (server, addr) = start_server();
    let mut idle = Client::new(addr).expect("client");
    let (status, _) = idle.request("GET", "/healthz", "").expect("health");
    assert_eq!(status, 200);
    assert!(idle.is_connected(), "connection parked idle");

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    let t0 = std::time::Instant::now();
    server.join();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "drain wedged on the idle keep-alive connection"
    );
}

#[test]
fn query_batch_answers_from_one_snapshot() {
    let (server, addr) = start_server();

    // A happy batch: three items, one response, per-item results.
    let (status, body) = post(
        addr,
        "/query_batch",
        "op=count\njoin=R1,R2,R3,R4\n---\nop=tsens\njoin=R1,R2,R3,R4\n---\nop=count\njoin=R3",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"count\":1"), "{body}");
    assert!(body.contains("\"local_sensitivity\":4"), "{body}");
    assert!(body.contains("\"count\":3"), "{body}");
    assert!(body.starts_with("{\"ok\":true,\"count\":3,"), "{body}");

    // A malformed item fails the whole batch: 400, nothing executes.
    let (status, body) = post(addr, "/query_batch", "op=count\n---\nop=transmogrify");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("batch item 2"), "{body}");
    let (status, body) = post(addr, "/query_batch", "");
    assert_eq!(status, 400, "{body}");

    // Per-item *execution* errors come back embedded, batch still 200.
    let (status, body) = post(
        addr,
        "/query_batch",
        "op=count\njoin=R9\n---\nop=count\njoin=R3",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":false"), "{body}");
    assert!(body.contains("\"count\":3"), "{body}");

    // The server still answers after the malformed batches.
    let (status, body) = post(addr, "/query", "op=count\njoin=R1,R2,R3,R4");
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":1"), "{body}");

    server.stop();
}

#[test]
fn concurrent_readers_share_the_warm_session() {
    let (server, addr) = start_server();
    let body = "op=count\njoin=R1,R2,R3,R4";
    let (_, first) = post(addr, "/query", body);
    assert!(first.contains("\"count\":1"), "{first}");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                for _ in 0..5 {
                    let (status, response) = post(addr, "/query", body);
                    assert_eq!(status, 200);
                    assert!(response.contains("\"count\":1"), "{response}");
                }
            });
        }
    });
    // 41 requests, 1 pass computation: everything after the first was a
    // cache hit on the shared session.
    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("\"pass_misses\":1"), "{stats}");
    server.stop();
}

/// The unsigned integer after `"key":` in a flat JSON body.
fn json_number(body: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = body
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + tag.len();
    body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {body}"))
}

#[test]
fn update_after_warm_join_repairs_its_passes() {
    let (server, addr) = start_server();
    let (status, body) = post(addr, "/query", "op=tsens\njoin=R1,R2,R3,R4");
    assert_eq!(status, 200, "{body}");
    // Known values only (no dictionary re-sort). The published snapshot
    // shares every warm pass entry with the writer's fork, so the entry
    // must be repaired on a shallow copy, not dropped.
    let (status, ack) = post(addr, "/update", "+,R1,a2,b2,c1");
    assert_eq!(status, 200, "{ack}");
    let maintained = &ack[ack.find("\"maintained\"").expect("maintained split")..];
    let invalidated = &ack[ack.find("\"invalidated\"").expect("invalidated split")..];
    assert!(json_number(maintained, "passes") >= 1, "{ack}");
    assert_eq!(json_number(invalidated, "passes"), 0, "{ack}");
    let (_, body) = post(addr, "/query", "op=count\njoin=R1,R2,R3,R4");
    assert!(body.contains("\"count\":5"), "{body}");
    let (_, body) = post(addr, "/query", "op=tsens\njoin=R1,R2,R3,R4");
    assert!(body.contains("\"ok\":true"), "{body}");
    server.stop();
}

#[test]
fn concurrent_writers_are_acked_with_distinct_versions() {
    // Each writer thread sends its updates over its own keep-alive
    // connection; every ack must name the version its own publish
    // created, so the acked versions are exactly 1..=N with no repeats.
    const WRITERS: u64 = 6;
    const PER_WRITER: u64 = 40;
    let (server, addr) = start_server();
    let mut versions: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Client::new(addr).expect("connect");
                    (0..PER_WRITER)
                        .map(|_| {
                            let (status, ack) =
                                conn.request("POST", "/update", "+,R1,a1,b1,c1").unwrap();
                            assert_eq!(status, 200, "{ack}");
                            json_number(&ack, "snapshot_version")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    versions.sort_unstable();
    assert_eq!(versions, (1..=WRITERS * PER_WRITER).collect::<Vec<_>>());
    server.stop();
}
