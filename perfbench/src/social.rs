//! The two TAO-style social-graph workloads over
//! `social_database(SocialParams::default(), seed)`: 10⁵ users, 8·10⁵
//! `Follow(U,V)` and 2·10⁵ `Like(U,P)` associations, Zipf(1.0)
//! out-degrees.
//!
//! * `social_read` — read-mostly serving on a 2-shard in-memory server.
//! * `social_write` — single-edge write batches with a fresh read after
//!   each ack, on a 1-shard durable server, then a reboot.
//!
//! Every answer is checked against [`SocialModel`], an independent
//! degree-count model of the graph under the acknowledged writes.

use crate::exec::{self, Answer};
use crate::gen::{self, Zipf};
use crate::load::{closed_loop, open_loop, Record};
use crate::{
    child_setups, med, median_of, note_latencies, pct, secs, start_server, Args, Report, Running,
    ScratchDir, THREADS,
};
use rand::RngExt;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tsens_data::store::FsyncPolicy;
use tsens_data::Database;
use tsens_engine::{ShardedEngine, SnapshotCell};
use tsens_server::{Client, Durability, DurabilityConfig, ServerState};
use tsens_workloads::{social_database, SocialParams};

/// Shards of the `social_read` server.
pub const READ_SHARDS: usize = 2;
/// `social_read` open-loop offered rate (requests/s): about a sixth of
/// the seed commit's capacity for this stream on 2 cores (~260 req/s
/// closed loop). At a half and at a quarter of capacity, the read
/// percentiles moved with the host's load from run to run (see the
/// README).
pub const READ_RATE: f64 = 40.0;
/// Hottest users whose `assoc_count` is warmed before timing.
pub const HOT_WARM: usize = 64;
/// Server set-ups per run, timed in child processes; `setup_s` is the
/// median of theirs and the run's own.
pub const SETUP_CHILDREN: usize = 3;
/// Rounds of warm `count`/`tsens`/`elastic` over the join in each burst:
/// one burst before the load and one after each of its windows.
/// `phase_s` of `social_read` is the median of all of them.
pub const GATHER_ROUNDS: usize = 3;
/// Windows each `social_read` load phase runs in; its gated latencies
/// and throughput are medians over them.
pub const WINDOWS: usize = 6;
/// Durable reboots per `social_write` run; `phase_s` is their median.
pub const RECOVER_REPS: usize = 3;
/// `social_write` reader draws users from the hottest this many, all
/// warmed before timing.
pub const HOT_READERS: usize = 100;
/// `social_write` reader's offered rate (requests/s), open loop: about
/// 1% of what one closed-loop connection of these cache hits reaches
/// (~50k req/s). A closed-loop reader held both cores, so the writer's
/// figures followed how the scheduler split them.
pub const READER_RATE: f64 = 500.0;

/// One social request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// TAO `assoc_count(user, FOLLOWS)`.
    Assoc(usize),
    /// `count` over `Follow ⋈ Like`.
    Count,
    /// `tsens` over `Follow ⋈ Like`.
    Tsens,
    /// `elastic` over `Follow ⋈ Like`.
    Elastic,
    /// Single-edge `Follow` insert (`true`) or delete.
    Write(bool, usize, usize),
}

impl Req {
    /// `(path, body)` on the wire.
    pub fn wire(&self) -> (&'static str, String) {
        match *self {
            Req::Assoc(u) => (
                "/query",
                format!("op=count\njoin=Follow\nwhere=Follow.U={u}"),
            ),
            Req::Count => ("/query", "op=count\njoin=Follow,Like".into()),
            Req::Tsens => ("/query", "op=tsens\njoin=Follow,Like".into()),
            Req::Elastic => ("/query", "op=elastic\njoin=Follow,Like".into()),
            Req::Write(insert, u, v) => {
                let sign = if insert { '+' } else { '-' };
                ("/update", format!("{sign},Follow,{u},{v}"))
            }
        }
    }

    /// The answer field checked against the model.
    fn field(&self) -> &'static str {
        match self {
            Req::Assoc(_) | Req::Count => "count",
            Req::Tsens => "local_sensitivity",
            Req::Elastic => "overall",
            Req::Write(..) => "applied",
        }
    }
}

/// Request class, for per-class latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `assoc_count` of a user requested (or warmed) before.
    Hot,
    /// `assoc_count` of a user not requested before in this run.
    Cold,
    Write,
}

/// Degree-count model of the social graph: everything the workloads'
/// answers depend on. For `Follow(U,V) ⋈ Like(U,P)`, a `Follow` tuple of
/// user `u` joins `deg_like(u)` outputs and a `Like` tuple `deg_follow(u)`,
/// so the local sensitivity and the elastic bound at distance 0 are both
/// the largest degree on either side.
#[derive(Clone, Debug)]
pub struct SocialModel {
    deg_follow: Vec<u64>,
    deg_like: Vec<u64>,
    count: u128,
    max_follow: u64,
    max_like: u64,
}

impl SocialModel {
    pub fn from_db(db: &Database, users: usize) -> SocialModel {
        let degrees = |name: &str| {
            let mut deg = vec![0u64; users];
            let rel = db.relation_by_name(name).expect("social catalog");
            for row in rel.rows() {
                let u = row[0].as_int().expect("integer ids") as usize;
                deg[u] += 1;
            }
            deg
        };
        let deg_follow = degrees("Follow");
        let deg_like = degrees("Like");
        let count = deg_follow
            .iter()
            .zip(&deg_like)
            .map(|(&f, &l)| u128::from(f) * u128::from(l))
            .sum();
        SocialModel {
            max_follow: deg_follow.iter().copied().max().unwrap_or(0),
            max_like: deg_like.iter().copied().max().unwrap_or(0),
            deg_follow,
            deg_like,
            count,
        }
    }

    /// Apply one acknowledged `Follow` write.
    pub fn apply(&mut self, insert: bool, u: usize) {
        let like = u128::from(self.deg_like[u]);
        if insert {
            self.deg_follow[u] += 1;
            self.count += like;
            self.max_follow = self.max_follow.max(self.deg_follow[u]);
        } else {
            let was_max = self.deg_follow[u] == self.max_follow;
            self.deg_follow[u] -= 1;
            self.count -= like;
            if was_max {
                self.max_follow = self.deg_follow.iter().copied().max().unwrap_or(0);
            }
        }
    }

    pub fn assoc(&self, u: usize) -> u128 {
        u128::from(self.deg_follow[u])
    }

    /// The model's answer to a read.
    pub fn value(&self, req: &Req) -> u128 {
        match *req {
            Req::Assoc(u) => self.assoc(u),
            Req::Count => self.count,
            Req::Tsens | Req::Elastic => u128::from(self.max_follow.max(self.max_like)),
            Req::Write(..) => 1,
        }
    }
}

/// The `social_read` request stream, TAO's 99.8/0.2 read/write split:
/// request `i` is a single-edge insert when `i % 500 == 499` (a fixed
/// position, so every seed runs the same mix), and otherwise
/// `assoc_count` for a Zipf-drawn user. The join's `count`/`tsens`/
/// `elastic` readers run in their own rounds ([`GATHER_ROUNDS`]).
pub fn read_mix(seed: u64, zipf: &Zipf, users: usize, i: usize) -> Req {
    let mut rng = gen::for_request(seed, 1, i);
    if i % 500 == 499 {
        Req::Write(true, zipf.sample(&mut rng), rng.random_range(0..users))
    } else {
        Req::Assoc(zipf.sample(&mut rng))
    }
}

/// Send `req` and return `(status, answer value)`.
fn send(client: &mut Client, req: &Req) -> (u16, Option<u128>) {
    let (path, body) = req.wire();
    match client.request("POST", path, &body) {
        Ok((status, resp)) => (
            status,
            exec::json_token(&resp, req.field()).and_then(|v| v.parse().ok()),
        ),
        Err(e) => {
            eprintln!("perfbench: {path} failed: {e}");
            (0, None)
        }
    }
}

/// Acknowledged and sent views of the graph: a read that races inserts
/// must answer between the state acknowledged before it was sent and the
/// state with every insert sent before its answer arrived (inserts only
/// grow every checked quantity).
struct RaceModel {
    acked: SocialModel,
    sent: SocialModel,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("model lock")
}

/// Send one `social_read` request with its race-aware check: `true` when
/// it answered 200 with a correct value.
fn read_call(client: &mut Client, model: &Mutex<RaceModel>, req: &Req) -> bool {
    match *req {
        Req::Write(insert, u, _) => {
            locked(model).sent.apply(insert, u);
            let (status, applied) = send(client, req);
            let ok = status == 200 && applied == Some(1);
            if ok {
                locked(model).acked.apply(insert, u);
            }
            ok
        }
        _ => {
            let lo = locked(model).acked.value(req);
            let (status, got) = send(client, req);
            let hi = locked(model).sent.value(req);
            status == 200 && got.is_some_and(|v| (lo..=hi).contains(&v))
        }
    }
}

/// Start the `social_read` server on `db`, returning it and the set-up
/// time (inputs in memory → first answer).
fn start_read_server(db: Database) -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    let state = ServerState::new_sharded(vec![("social".into(), db)], READ_SHARDS)
        .map_err(|e| e.to_string())?;
    let running = start_server(state)?;
    Ok((running, secs(t0.elapsed())))
}

/// One timed `social_read` set-up (child process).
pub fn read_setup(args: &Args) -> Result<f64, String> {
    let db = social_database(SocialParams::default(), args.seed);
    let (running, setup_s) = start_read_server(db)?;
    running.stop();
    Ok(setup_s)
}

pub fn social_read(args: &Args) -> Result<Report, String> {
    let params = SocialParams::default();
    let mut setups = child_setups(args, SETUP_CHILDREN)?;
    let db = social_database(params, args.seed);
    let mut report = Report::default();
    let model = SocialModel::from_db(&db, params.users);
    let (server, setup_s) = start_read_server(db)?;
    setups.push(setup_s);
    let zipf = Zipf::new(params.users, params.zipf_s);
    let race = Mutex::new(RaceModel {
        acked: model.clone(),
        sent: model,
    });

    // Warm phase: the hot set and the join's caches, as a server that
    // has been up a while would have them.
    let mut client = Client::new(server.addr).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let warm: Vec<Req> = (0..HOT_WARM)
        .map(Req::Assoc)
        .chain([Req::Count, Req::Tsens, Req::Elastic])
        .collect();
    for req in &warm {
        let ok = read_call(&mut client, &race, req);
        report.check(ok, || format!("warm {req:?}"));
    }
    let warm_s = secs(t0.elapsed());
    // Warm scatter-gather rounds: what the join's readers pay once the
    // caches are as warm as they get. A burst runs before the load and
    // after every window of it, so the median is taken over the whole
    // run and a slow stretch of the host decides it only if the stretch
    // covers half the run.
    // Each burst uses its own connection and closes it: a kept-alive idle
    // connection would hold one of the server's 2 workers.
    drop(client);
    let mut rounds = Vec::new();
    let mut gather_rounds = |report: &mut Report| {
        let mut client = Client::new(server.addr).expect("loopback address");
        for _ in 0..GATHER_ROUNDS {
            let t0 = Instant::now();
            for req in [Req::Count, Req::Tsens, Req::Elastic] {
                let ok = read_call(&mut client, &race, &req);
                report.check(ok, || format!("gather round {req:?}"));
            }
            rounds.push(secs(t0.elapsed()));
        }
    };
    gather_rounds(&mut report);

    // Open-loop phase at the fixed offered rate, in windows; each window
    // continues the stream where the last one stopped.
    let open_window = Duration::from_secs_f64(args.seconds * 0.6 / WINDOWS as f64);
    let per_window = (open_window.as_secs_f64() * READ_RATE) as usize;
    let total = per_window * WINDOWS;
    let mut seen = vec![false; params.users];
    seen[..HOT_WARM].iter_mut().for_each(|s| *s = true);
    let stream: Vec<(Req, Class)> = (0..total)
        .map(|i| {
            let req = read_mix(args.seed, &zipf, params.users, i);
            let class = match req {
                Req::Assoc(u) if std::mem::replace(&mut seen[u], true) => Class::Hot,
                Req::Assoc(_) => Class::Cold,
                _ => Class::Write,
            };
            (req, class)
        })
        .collect();
    let connect = |_| Client::new(server.addr).expect("loopback address");
    let mut windows: Vec<Vec<Record<bool>>> = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        let base = w * per_window;
        let mut records = open_loop(THREADS, READ_RATE, open_window, connect, |c, i| {
            read_call(c, &race, &stream[base + i].0)
        });
        records.iter_mut().for_each(|r| r.index += base);
        windows.push(records);
        gather_rounds(&mut report);
    }

    // Closed-loop phase: the same mix, continued, as fast as 2
    // connections go, in windows of its own.
    let closed_window = Duration::from_secs_f64(args.seconds * 0.4 / WINDOWS as f64);
    let mut closed: Vec<Record<(bool, Req)>> = Vec::new();
    let mut window_rps = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let base = total + closed.len();
        let t0 = Instant::now();
        let records = closed_loop(THREADS, closed_window, connect, |c, i| {
            let req = read_mix(args.seed, &zipf, params.users, base + i);
            (read_call(c, &race, &req), req)
        });
        let reads = records
            .iter()
            .filter(|r| !matches!(r.out.1, Req::Write(..)))
            .count();
        window_rps.push(reads as f64 / secs(t0.elapsed()));
        closed.extend(records);
        gather_rounds(&mut report);
    }
    server.stop();

    let open: Vec<&Record<bool>> = windows.iter().flatten().collect();
    for r in &open {
        report.check(r.out, || format!("open-loop {:?}", stream[r.index].0));
    }
    for r in &closed {
        report.check(r.out.0, || format!("closed-loop {:?}", r.out.1));
    }
    let lat = |records: &[&Record<bool>], class: Option<Class>| -> Vec<f64> {
        records
            .iter()
            .filter(|r| match class {
                Some(c) => stream[r.index].1 == c,
                None => stream[r.index].1 != Class::Write,
            })
            .map(|r| r.timing.latency_ns() as f64 / 1e3)
            .collect()
    };
    let reads = lat(&open, None);
    let cold = lat(&open, Some(Class::Cold));
    let hot = lat(&open, Some(Class::Hot));
    let late: Vec<f64> = open
        .iter()
        .map(|r| r.timing.lateness_ns() as f64 / 1e3)
        .collect();
    // The gated figures are medians over the windows of each phase.
    let windows: Vec<Vec<&Record<bool>>> = windows.iter().map(|w| w.iter().collect()).collect();
    let rps = med(&window_rps);

    report.set("setup_s", med(&setups));
    report.set("rps", rps);
    // p50 of the hot and the cold reads apart: about half the reads are
    // first touches, so the p50 of all reads falls between the two modes
    // and flips between them from seed to seed.
    report.set(
        "main_p50_us",
        median_of(&windows, |w| med(&lat(w, Some(Class::Cold)))),
    );
    report.set(
        "main_tail_us",
        median_of(&windows, |w| pct(&lat(w, None), 90.0)),
    );
    report.set(
        "side_p50_us",
        median_of(&windows, |w| med(&lat(w, Some(Class::Hot)))),
    );
    report.set("phase_s", med(&rounds));
    report.set("peak_rss_mb", crate::peak_rss_mb());

    report.lines.push(format!(
        "open loop: {READ_RATE} req/s offered for {WINDOWS} x {:.1} s, {THREADS} connections; closed loop: {THREADS} connections for {WINDOWS} x {:.1} s; {} join rounds",
        open_window.as_secs_f64(),
        closed_window.as_secs_f64(),
        rounds.len()
    ));
    note_latencies(&mut report, "read", &reads);
    note_latencies(&mut report, "cold_read", &cold);
    note_latencies(&mut report, "hot_read", &hot);
    note_latencies(&mut report, "write", &lat(&open, Some(Class::Write)));
    report.note("read_rps", rps, "1/s");
    report.note("gen_late_p99_us", pct(&late, 99.0), "us");
    report.note("warm_s", warm_s, "s");
    report.note("gather_round_s", med(&rounds), "s");
    let mut seen_closed = seen;
    let closed_assoc: Vec<bool> = closed
        .iter()
        .filter_map(|r| match r.out.1 {
            Req::Assoc(u) => Some(!std::mem::replace(&mut seen_closed[u], true)),
            _ => None,
        })
        .collect();
    report.note(
        "closed_cold_share",
        closed_assoc.iter().filter(|&&c| c).count() as f64 / closed_assoc.len().max(1) as f64,
        "ratio",
    );
    Ok(report)
}

/// State shared between the `social_write` writer and reader: the model
/// after every write sent so far, the per-write log, and how many writes
/// were acknowledged.
struct WriteLog {
    initial: SocialModel,
    current: SocialModel,
    /// `(user, follow degree after the write)` per write, in send order.
    log: Vec<(usize, u128)>,
    acked: usize,
}

impl WriteLog {
    /// Every value `assoc_count(u)` may take from write `from` (acked
    /// when the read was sent) through write `to` (sent when it was
    /// answered).
    fn assoc_window(&self, u: usize, from: usize, to: usize) -> Vec<u128> {
        let before = self.log[..from]
            .iter()
            .rev()
            .find(|(w, _)| *w == u)
            .map_or(self.initial.assoc(u), |&(_, d)| d);
        let mut values = vec![before];
        values.extend(
            self.log[from..to]
                .iter()
                .filter(|(w, _)| *w == u)
                .map(|&(_, d)| d),
        );
        values
    }
}

/// The next single-edge write: insert a Zipf-user edge, or (half the
/// time, when any exist) delete an edge this run inserted.
pub fn next_write(
    rng: &mut impl RngExt,
    zipf: &Zipf,
    users: usize,
    present: &mut Vec<(usize, usize)>,
) -> Req {
    if !present.is_empty() && rng.random::<f64>() < 0.5 {
        let (u, v) = present.swap_remove(rng.random_range(0..present.len()));
        Req::Write(false, u, v)
    } else {
        let (u, v) = (zipf.sample(rng), rng.random_range(0..users));
        present.push((u, v));
        Req::Write(true, u, v)
    }
}

/// Bodies whose answers must agree between the final served state, the
/// in-process oracle, and every recovered state.
fn final_checks(touched: &[usize]) -> Vec<Req> {
    let mut reqs = vec![Req::Count, Req::Tsens, Req::Elastic];
    reqs.extend((0..8).map(Req::Assoc));
    reqs.extend(touched.iter().take(32).map(|&u| Req::Assoc(u)));
    reqs
}

/// Boot a durable single-shard social server in `dir` from `db`.
pub fn boot_durable(dir: &std::path::Path, db: Database) -> Result<ServerState, String> {
    let config = DurabilityConfig::new(dir, FsyncPolicy::Batch);
    let (session, durability) = Durability::boot(&config, move || db).map_err(|e| e.to_string())?;
    Ok(ServerState::from_sessions(vec![(
        "social".into(),
        session,
        Some(durability),
    )]))
}

/// One timed `social_write` set-up (child process): a durable boot in a
/// fresh directory, which encodes and writes the initial snapshot.
pub fn write_setup(args: &Args) -> Result<f64, String> {
    let db = social_database(SocialParams::default(), args.seed);
    let scratch = ScratchDir::new("setup")?;
    let t0 = Instant::now();
    let running = start_server(boot_durable(&scratch.0, db)?)?;
    let setup_s = secs(t0.elapsed());
    running.stop();
    Ok(setup_s)
}

pub fn social_write(args: &Args) -> Result<Report, String> {
    let params = SocialParams::default();
    let mut setups = child_setups(args, SETUP_CHILDREN)?;
    let db = social_database(params, args.seed);
    let scratch = ScratchDir::new("social_write")?;
    let mut report = Report::default();

    let dir = scratch.0.join("data");
    let model = SocialModel::from_db(&db, params.users);
    let t0 = Instant::now();
    let server = start_server(boot_durable(&dir, db)?)?;
    setups.push(secs(t0.elapsed()));
    let zipf = Zipf::new(params.users, params.zipf_s);
    let hot = Zipf::new(HOT_READERS, params.zipf_s);

    // Warm the fresh-read query, as a server that has been up a while
    // would have it,
    let mut writer = Client::new(server.addr).map_err(|e| e.to_string())?;
    let (status, ls) = send(&mut writer, &Req::Tsens);
    report.check(
        status == 200 && ls == Some(model.value(&Req::Tsens)),
        || "warm tsens".into(),
    );

    // and the reader's users.
    for u in 0..HOT_READERS {
        let (status, got) = send(&mut writer, &Req::Assoc(u));
        report.check(status == 200 && got == Some(model.assoc(u)), || {
            format!("warm assoc_count({u})")
        });
    }

    let log = Mutex::new(WriteLog {
        initial: model.clone(),
        current: model,
        log: Vec::new(),
        acked: 0,
    });
    let duration = Duration::from_secs_f64(args.seconds * 0.8);
    let mut acks = Vec::new();
    let mut fresh = Vec::new();
    let mut cycles = Vec::new();
    let mut acked_writes = Vec::new();
    let mut write_checks = Vec::new();
    let phase = Instant::now();
    let reads = std::thread::scope(|scope| {
        // Reader: hot-user assoc_count in an open loop at a fixed rate,
        // checked against every state the writes it overlapped could
        // expose.
        let reader = scope.spawn(|| {
            let connect = |_| Client::new(server.addr).expect("loopback address");
            open_loop(1, READER_RATE, duration, connect, |client, i| {
                let u = hot.sample(&mut gen::for_request(args.seed, 3, i));
                let from = locked(&log).acked;
                let (status, got) = send(client, &Req::Assoc(u));
                let l = locked(&log);
                let ok = status == 200
                    && got.is_some_and(|v| l.assoc_window(u, from, l.log.len()).contains(&v));
                (ok, u)
            })
        });
        let mut rng = gen::for_request(args.seed, 2, 0);
        let mut present = Vec::new();
        while phase.elapsed() < duration {
            let req = next_write(&mut rng, &zipf, params.users, &mut present);
            let Req::Write(insert, u, _) = req else {
                unreachable!("writes only")
            };
            let expected_ls = {
                let mut l = locked(&log);
                l.current.apply(insert, u);
                let deg = l.current.assoc(u);
                l.log.push((u, deg));
                l.current.value(&Req::Tsens)
            };
            let sent = Instant::now();
            let (status, applied) = send(&mut writer, &req);
            acks.push(sent.elapsed().as_secs_f64() * 1e6);
            let ok = status == 200 && applied == Some(1);
            write_checks.push((ok, req));
            if !ok {
                break; // the model no longer matches the server
            }
            locked(&log).acked += 1;
            acked_writes.push(req);
            let t = Instant::now();
            let (status, ls) = send(&mut writer, &Req::Tsens);
            fresh.push(t.elapsed().as_secs_f64() * 1e6);
            cycles.push(sent.elapsed().as_secs_f64() * 1e6);
            write_checks.push((status == 200 && ls == Some(expected_ls), Req::Tsens));
        }
        reader.join().expect("reader thread")
    });
    let phase_s = secs(phase.elapsed());
    for (ok, req) in &write_checks {
        report.check(*ok, || format!("write phase {req:?}"));
    }
    for r in &reads {
        report.check(r.out.0, || format!("concurrent assoc_count({})", r.out.1));
    }

    let mut touched: Vec<usize> = acked_writes
        .iter()
        .filter_map(|r| match r {
            Req::Write(_, u, _) => Some(*u),
            _ => None,
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let checks = final_checks(&touched);
    let served: Vec<_> = checks
        .iter()
        .map(|req| {
            let (path, body) = req.wire();
            writer
                .request("POST", path, &body)
                .map(|(_, b)| Answer::from_body(&b))
        })
        .collect();
    // The server's own high-water mark: read before the oracle below
    // adds a second encoding of the graph to this process.
    let peak_rss_mb = crate::peak_rss_mb();
    drop(writer);
    server.stop();

    // The acked batch sequence applied to the seed database (generated
    // again from the seed) in process is the oracle for the final and
    // every recovered state.
    let oracle =
        ShardedEngine::new(social_database(params, args.seed), 1).map_err(|e| e.to_string())?;
    let updates = acked_writes
        .iter()
        .map(|r| r.wire().1)
        .collect::<Vec<_>>()
        .join("\n");
    let parsed = tsens_data::io::parse_ops(oracle.primary().load().database(), &updates)
        .map_err(|e| e.to_string())?;
    oracle.update_all(parsed).map_err(|e| e.to_string())?;
    let expected: Vec<Result<Answer, String>> = checks
        .iter()
        .map(|r| exec::answer(&oracle, &r.wire().1))
        .collect();
    let final_model = locked(&log).current.clone();
    for ((req, want), got) in checks.iter().zip(&expected).zip(&served) {
        let ok = matches!((got, want), (Ok(g), Ok(w)) if g == w)
            && want
                .as_ref()
                .is_ok_and(|w| w.number(req.field()) == Some(final_model.value(req)));
        report.check(ok, || {
            format!("final {req:?}: wire {got:?} oracle {want:?}")
        });
    }
    drop(oracle);

    let mut recovers = Vec::new();
    for _ in 0..RECOVER_REPS {
        let t0 = Instant::now();
        let (session, durability) = Durability::boot(
            &DurabilityConfig::new(&dir, FsyncPolicy::Batch),
            Database::new,
        )
        .map_err(|e| e.to_string())?;
        recovers.push(secs(t0.elapsed()));
        let engine = ShardedEngine::from_cell(SnapshotCell::new(session));
        for (req, want) in checks.iter().zip(&expected) {
            let got = exec::answer(&engine, &req.wire().1);
            report.check(&got == want, || {
                format!("recovered {req:?}: {got:?} vs {want:?}")
            });
        }
        drop(durability);
    }

    let read_lat: Vec<f64> = reads
        .iter()
        .map(|r| r.timing.latency_ns() as f64 / 1e3)
        .collect();
    let write_rps = acks.len() as f64 / phase_s;
    report.set("setup_s", med(&setups));
    report.set("rps", write_rps);
    report.set("main_p50_us", med(&acks));
    report.set("main_tail_us", pct(&acks, 90.0));
    // From the write's send to the fresh answer: the whole
    // update-then-requery cycle the writer waits for. The fresh read
    // alone is printed, not gated.
    report.set("side_p50_us", med(&cycles));
    report.set("phase_s", med(&recovers));
    report.set("peak_rss_mb", peak_rss_mb);

    report.lines.push(format!(
        "write phase {phase_s:.1} s: 1 writer connection (write, then fresh tsens), closed loop; \
         1 reader connection (hot assoc_count), open loop at {READER_RATE} req/s; fsync=batch"
    ));
    note_latencies(&mut report, "write", &acks);
    report.note("write_rps", write_rps, "1/s");
    note_latencies(&mut report, "fresh_read", &fresh);
    note_latencies(&mut report, "update_requery", &cycles);
    note_latencies(&mut report, "read", &read_lat);
    let late: Vec<f64> = reads
        .iter()
        .map(|r| r.timing.lateness_ns() as f64 / 1e3)
        .collect();
    report.note("gen_late_p99_us", pct(&late, 99.0), "us");
    report.note("recover_s", med(&recovers), "s");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_core::SessionExt;
    use tsens_workloads::social::{follow_like_join, small_params};

    #[test]
    fn model_matches_the_engine_under_writes() {
        let params = small_params();
        let db = social_database(params, 11);
        let mut model = SocialModel::from_db(&db, params.users);
        let engine = ShardedEngine::new(db, 1).unwrap();
        let zipf = Zipf::new(params.users, 1.0);
        let mut rng = gen::for_request(5, 0, 0);
        let mut present = Vec::new();
        for step in 0..40 {
            let req = next_write(&mut rng, &zipf, params.users, &mut present);
            let Req::Write(insert, u, _) = req else {
                unreachable!()
            };
            let ops = tsens_data::io::parse_ops(engine.primary().load().database(), &req.wire().1)
                .unwrap();
            assert_eq!(engine.update_all(ops).unwrap().applied, 1);
            model.apply(insert, u);
            for check in [
                Req::Count,
                Req::Tsens,
                Req::Elastic,
                Req::Assoc(u),
                Req::Assoc(0),
            ] {
                let a = exec::answer(&engine, &check.wire().1).unwrap();
                assert_eq!(
                    a.number(check.field()),
                    Some(model.value(&check)),
                    "{step} {check:?}"
                );
            }
        }
        let session = engine.primary().load();
        let (q, tree) = follow_like_join(session.database()).unwrap();
        assert_eq!(session.count_query(&q, &tree).unwrap(), model.count);
        assert_eq!(
            session.tsens(&q, &tree).unwrap().local_sensitivity,
            model.value(&Req::Tsens)
        );
    }

    #[test]
    fn assoc_window_spans_the_writes_a_read_overlaps() {
        let db = social_database(small_params(), 2);
        let m = SocialModel::from_db(&db, small_params().users);
        let d0 = m.assoc(3);
        let log = WriteLog {
            initial: m.clone(),
            current: m,
            log: vec![(3, d0 + 1), (4, 9), (3, d0 + 2), (3, d0 + 1)],
            acked: 0,
        };
        assert_eq!(log.assoc_window(3, 0, 0), vec![d0]);
        assert_eq!(log.assoc_window(3, 1, 3), vec![d0 + 1, d0 + 2]);
        assert_eq!(log.assoc_window(3, 3, 4), vec![d0 + 2, d0 + 1]);
        assert_eq!(log.assoc_window(4, 2, 4), vec![9]);
    }

    #[test]
    fn read_mix_proportions() {
        let params = small_params();
        let zipf = Zipf::new(params.users, 1.0);
        let mix: Vec<Req> = (0..100_000)
            .map(|i| read_mix(9, &zipf, params.users, i))
            .collect();
        let share = |f: fn(&Req) -> bool| mix.iter().filter(|r| f(r)).count() as f64 / 1e5;
        // TAO's 99.8/0.2 read/write split; the join's readers have
        // rounds of their own.
        assert_eq!(share(|r| matches!(r, Req::Write(..))), 0.002);
        assert_eq!(share(|r| matches!(r, Req::Assoc(_))), 0.998);
        assert_eq!(read_mix(9, &zipf, params.users, 77), mix[77]);
    }
}
