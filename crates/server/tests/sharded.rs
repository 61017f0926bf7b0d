//! End-to-end sharded serving over a real loopback socket: a 4-shard
//! server and a 1-shard server loaded with the same databases must give
//! byte-identical answers for every scatter-gatherable operation, route
//! updates per shard, and reject what sharding cannot serve (cross-shard
//! joins, topk, DP releases) with clean 400s.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard, PoisonError};
use tsens_data::{Database, Relation, Schema, Value};
use tsens_server::{client, Client, Server, ServerState};

/// The tests of this binary run one at a time: the thread-count test
/// reads the whole process's threads, which another test's server
/// would move.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Follow(U,V)` and `Like(U,P)`, both keyed on `U` at column 0 — the
/// default first-column spec co-partitions them, so `Follow ⋈ Like` is
/// scatter-gatherable at any shard count.
fn social() -> Database {
    let mut db = Database::new();
    let [u, v, p] = db.attrs(["U", "V", "P"]);
    let follow: Vec<Vec<Value>> = (0..120i64)
        .map(|i| vec![Value::Int(i % 13), Value::Int(i % 7)])
        .collect();
    let like: Vec<Vec<Value>> = (0..80i64)
        .map(|i| vec![Value::Int(i % 13), Value::Int(i % 5)])
        .collect();
    db.add_relation(
        "Follow",
        Relation::from_rows(Schema::new(vec![u, v]), follow),
    )
    .unwrap();
    db.add_relation("Like", Relation::from_rows(Schema::new(vec![u, p]), like))
        .unwrap();
    db
}

/// `R(A,B) ⋈ S(B,C)`: R shards on A, S on B, and the join runs through
/// B — NOT co-partitioned, the canonical cross-shard rejection case.
fn path() -> Database {
    let mut db = Database::new();
    let [a, b, c] = db.attrs(["A", "B", "C"]);
    let r: Vec<Vec<Value>> = (0..30i64)
        .map(|i| vec![Value::Int(i % 4), Value::Int(i % 9)])
        .collect();
    let s: Vec<Vec<Value>> = (0..30i64)
        .map(|i| vec![Value::Int(i % 9), Value::Int(i % 3)])
        .collect();
    db.add_relation("R", Relation::from_rows(Schema::new(vec![a, b]), r))
        .unwrap();
    db.add_relation("S", Relation::from_rows(Schema::new(vec![b, c]), s))
        .unwrap();
    db
}

fn start(shards: usize) -> (Server, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let state = ServerState::new_sharded(
        vec![("social".to_owned(), social()), ("path".to_owned(), path())],
        shards,
    )
    .expect("valid shard count");
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
fn sharded_answers_match_single_shard_ground_truth() {
    let _serial = serial();
    let (truth_srv, truth) = start(1);
    let (sharded_srv, sharded) = start(4);

    // count / tsens / elastic on the co-partitioned join, a predicated
    // single atom, and elastic on the NON-co-partitioned path join
    // (exact from merged mf stats regardless of the routing) must all be
    // byte-identical to the single-shard server's answers.
    let queries = [
        "op=count\ndb=social\njoin=Follow,Like",
        "op=count\ndb=social\njoin=Follow\nwhere=Follow.U=3",
        "op=tsens\ndb=social\njoin=Follow,Like",
        "op=elastic\ndb=social\njoin=Follow,Like",
        "op=count\ndb=path\njoin=R\nwhere=R.A=2",
        "op=elastic\ndb=path\njoin=R,S",
    ];
    for q in queries {
        let (ts, tb) = post(truth, "/query", q);
        let (ss, sb) = post(sharded, "/query", q);
        assert_eq!((ts, &tb), (ss, &sb), "diverged on {q}");
        assert_eq!(ts, 200, "{tb}");
    }

    // The cross-shard join is a clean 400 naming the rule — and the same
    // query keeps working on the single-shard server.
    let q = "op=count\ndb=path\njoin=R,S";
    assert_eq!(post(truth, "/query", q).0, 200);
    let (status, body) = post(sharded, "/query", q);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("shard-key"), "{body}");

    // Operators without a scatter-gather soundness proof are rejected.
    for q in [
        "op=tsens_topk\nk=2\ndb=social\njoin=Follow,Like",
        "op=tsensdp\nprivate=Follow\ndb=social\njoin=Follow,Like",
    ] {
        let (status, body) = post(sharded, "/query", q);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("sharded"), "{body}");
    }

    truth_srv.stop();
    sharded_srv.stop();
}

/// Every key of a flat-string JSON body (no escaped quotes): the
/// segment before each `":`.
fn key_set(body: &str) -> BTreeSet<&str> {
    let parts: Vec<&str> = body.split('"').collect();
    parts
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect()
}

/// One server at `shards` shards around a routed update: the answers
/// after it, the update ack and the `/stats` body.
fn update_and_stats(shards: usize) -> (Vec<(u16, String)>, String, String) {
    let (srv, addr) = start(shards);
    // Users 0..8 hash to several different shards.
    let delta = "+,Follow,0,50\n+,Follow,1,51\n+,Follow,2,52\n+,Follow,3,53\n\
                 +,Like,4,9\n+,Like,5,9\n-,Follow,0,0\n+,Follow,7,54";
    let (status, ack) = post(addr, "/update?db=social", delta);
    assert_eq!(status, 200, "{ack}");
    assert!(ack.contains(&format!("\"shards\":{shards},")), "{ack}");
    // Readers of the first `"applied"` get the batch total.
    let total_at = ack.find("\"applied\":8,").expect("batch total");
    assert!(Some(total_at) < ack.find("\"per_shard\":["), "{ack}");
    let batch = "op=count\ndb=social\njoin=Follow,Like\n---\nop=count\ndb=path\njoin=R";
    let answers = vec![
        post(addr, "/query", "op=count\ndb=social\njoin=Follow,Like"),
        post(addr, "/query", "op=tsens\ndb=social\njoin=Follow,Like"),
        post(
            addr,
            "/query",
            "op=count\ndb=social\njoin=Follow\nwhere=Follow.U=7",
        ),
        post(addr, "/query_batch", batch),
        // A bad op mid-batch is a 400.
        post(addr, "/update?db=social", "+,Follow,8,1\n+,Nope,1,2"),
    ];
    let (status, stats) = get(addr, "/stats?db=social");
    assert_eq!(status, 200, "{stats}");
    assert!(stats.contains(&format!("\"shards\":{shards},")), "{stats}");
    srv.stop();
    (answers, ack, stats)
}

#[test]
fn updates_route_per_shard_and_requery_matches() {
    let _serial = serial();
    let (truth, truth_ack, truth_stats) = update_and_stats(1);
    assert!(
        truth[3].1.starts_with("{\"ok\":true,\"count\":2,"),
        "{truth:?}"
    );
    assert_eq!(truth[4].0, 400, "{truth:?}");
    let ack_keys = key_set(&truth_ack);
    for key in "applied snapshot_version invalidated maintained published per_shard".split(' ') {
        assert!(ack_keys.contains(key), "missing {key} in {truth_ack}");
    }
    let stats_keys = key_set(&truth_stats);
    let stats_shape = "relations total_tuples snapshot dict cache pass_hits updates parallel \
                       durability shards publishes per_shard tuples";
    for key in stats_shape.split_whitespace() {
        assert!(stats_keys.contains(key), "missing {key} in {truth_stats}");
    }
    assert!(
        truth_stats.contains("\"updates\":{\"applied\":8,"),
        "{truth_stats}"
    );

    // The update leaves users 1 and 2 tied for the largest Like
    // sensitivity; the shard merge and one session both name the
    // smaller tied tuple, so every answer matches byte for byte.
    for shards in [2, 4] {
        let (answers, ack, stats) = update_and_stats(shards);
        assert_eq!(answers, truth, "answers diverged at {shards} shards");
        assert_eq!(key_set(&ack), ack_keys, "{ack}\nvs\n{truth_ack}");
        assert_eq!(key_set(&stats), stats_keys, "{stats}\nvs\n{truth_stats}");
    }
}

/// Threads of this process, from `/proc/self/task`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Hot 2-shard reads reuse the pool's helpers: after a warm-up read the
/// process's thread count stays put across 10⁴ served reads, so no
/// request leaves a helper (or any other thread) behind.
#[test]
#[cfg(target_os = "linux")]
fn hot_sharded_reads_start_no_threads() {
    let _serial = serial();
    let (srv, addr) = start(2);
    let mut client = Client::new(addr).expect("connect");
    let read = |client: &mut Client, user: usize| {
        let q = format!("op=count\ndb=social\njoin=Follow\nwhere=Follow.U={user}");
        let (status, body) = client.request("POST", "/query", &q).expect("read");
        assert_eq!(status, 200, "{body}");
    };
    read(&mut client, 0);
    let before = thread_count();
    for i in 0..10_000 {
        read(&mut client, i % 13);
    }
    assert_eq!(thread_count(), before, "threads grew across hot reads");
    drop(client);
    srv.stop();
}
