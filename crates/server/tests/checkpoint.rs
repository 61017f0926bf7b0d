//! End-to-end background checkpoint over a real loopback socket: a
//! durable server whose WAL limit is smaller than one update batch
//! rolls its WAL and writes a newer snapshot generation off the request
//! path. A reboot loads that generation and replays only the WAL
//! written after it.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tsens_data::store::FsyncPolicy;
use tsens_data::{Database, Relation, Schema, Value};
use tsens_server::{client, Durability, DurabilityConfig, Server, ServerState};

/// WAL record bytes (8 framing bytes plus the ops text) past which a
/// publish checkpoints.
const WAL_LIMIT: u64 = 40;
/// One batch whose record crosses [`WAL_LIMIT`] on its own.
const BIG: &str = "+,R,10,1\n+,R,11,1\n+,R,12,1\n+,R,13,1";
/// One batch whose record stays under it.
const SMALL: &str = "+,R,14,1";
const COUNT: &str = "op=count\njoin=R";

fn database() -> Database {
    let mut db = Database::new();
    let [a, b] = db.attrs(["A", "B"]);
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(vec![a, b]),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(1)],
            ],
        ),
    )
    .unwrap();
    db
}

/// Boot a durable server over `dir`; the flag says whether the source
/// data was encoded (nothing usable on disk).
fn boot(dir: &Path) -> (Server, SocketAddr, bool) {
    let config = DurabilityConfig {
        wal_limit: WAL_LIMIT,
        ..DurabilityConfig::new(dir, FsyncPolicy::Always)
    };
    let mut fallback_used = false;
    let (session, durability) = Durability::boot(&config, || {
        fallback_used = true;
        database()
    })
    .expect("durable boot");
    let state = ServerState::from_sessions(vec![("r".to_owned(), session, Some(durability))]);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(listener, state, 2).expect("start server");
    let addr = server.addr();
    (server, addr, fallback_used)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    client::request(addr, "POST", path, body).expect("request")
}

fn stats(addr: SocketAddr) -> String {
    client::request(addr, "GET", "/stats", "")
        .expect("request")
        .1
}

#[test]
fn wal_limit_checkpoints_in_background_and_reboot_replays_only_the_newer_wal() {
    assert!(BIG.len() as u64 + 8 >= WAL_LIMIT && (SMALL.len() as u64 + 8) < WAL_LIMIT);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tsens-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (server, addr, fallback_used) = boot(&dir);
    assert!(fallback_used, "first boot encodes the source data");
    let (status, body) = post(addr, "/update", BIG);
    assert_eq!(status, 200, "{body}");

    // The publish rolled the WAL to generation 1 and handed the snapshot
    // write to a background thread: wait for it to land.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut s = stats(addr);
    while !(s.contains("\"checkpoints\":1") && s.contains("\"checkpoint_in_flight\":false")) {
        assert!(Instant::now() < deadline, "no checkpoint landed: {s}");
        std::thread::sleep(Duration::from_millis(10));
        s = stats(addr);
    }
    assert!(s.contains("\"generation\":1"), "{s}");
    assert!(s.contains("\"checkpoint_failures\":0"), "{s}");

    // This batch lands in the generation-1 WAL and stays under the limit.
    let (status, body) = post(addr, "/update", SMALL);
    assert_eq!(status, 200, "{body}");
    let s = stats(addr);
    assert!(s.contains("\"wal_records\":1"), "{s}");
    assert!(s.contains("\"checkpoints\":1"), "{s}");
    let (_, body) = post(addr, "/query", COUNT);
    assert!(body.contains("\"count\":7"), "{body}");
    post(addr, "/shutdown", "");
    server.join();

    // The reboot loads the checkpoint and replays only what followed it.
    let (server, addr, fallback_used) = boot(&dir);
    assert!(
        !fallback_used,
        "recovery must not re-encode the source data"
    );
    let s = stats(addr);
    assert!(s.contains("\"source\":\"snapshot+wal\""), "{s}");
    assert!(s.contains("\"snapshot_generation\":1"), "{s}");
    assert!(s.contains("\"wal_batches_replayed\":1"), "{s}");
    assert!(s.contains("\"wal_ops_replayed\":1"), "{s}");
    let (status, body) = post(addr, "/query", COUNT);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"count\":7"), "{body}");
    post(addr, "/shutdown", "");
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}
