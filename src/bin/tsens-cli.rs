//! `tsens-cli` — run sensitivity analysis on CSV tables.
//!
//! ```text
//! tsens-cli <table.csv>... --join R1,R2,... [options]
//! tsens-cli update <table.csv>... --ops <ops.csv> [--join R1,R2,...]
//! tsens-cli serve <table.csv>... [--port N] [--threads N] [--shards N] [--name DB] [--data-dir DIR] [--fsync always|batch|off]
//! tsens-cli social --out DIR [--users N] [--follow N] [--like N] [--pages N] [--seed N] [--small]
//! tsens-cli snapshot save <table.csv>... --dir DIR [--generation N]
//! tsens-cli snapshot <load|inspect> <snapshot-file>
//! tsens-cli client [--host H] [--port N] <query|batch|update|stats|healthz|shutdown> [args...]
//! tsens-cli client [--host H] [--port N] exec '<cmd body...>' '<cmd body...>' ...
//! tsens-cli loadgen [--host H] [--port N] [--connections C] [--requests N] [options]
//!
//! Loads each CSV (header row = attribute names; shared names join), then
//! analyses the natural-join counting query over the listed relations
//! (file stems). Options:
//!
//!   --join A,B,C       relations to join, in order (default: all, in
//!                      load order)
//!   --private R        also run TSensDP with R as the primary private
//!                      relation
//!   --epsilon X        privacy budget for TSensDP (default 1.0)
//!   --ell N            tuple-sensitivity upper bound ℓ (default: 1.5 ×
//!                      the max existing tuple sensitivity)
//!   --seed N           RNG seed for the DP run (default: 0)
//!
//! The `update` subcommand answers the query, streams deltas from an ops
//! file through the warm session (incremental encoding maintenance +
//! selective cache invalidation), re-answers, and reports the measured
//! update-vs-rebuild cost. Ops file format, one delta per line:
//!
//!   +,RelationName,v1,v2,...    insert one row
//!   -,RelationName,v1,v2,...    delete one row copy
//! ```
//!
//! Example:
//!
//! ```text
//! tsens-cli customers.csv orders.csv lineitems.csv \
//!     --join customers,orders,lineitems --private customers --epsilon 1
//! tsens-cli update customers.csv orders.csv --ops deltas.csv
//! ```
//!
//! The `serve` subcommand loads the CSVs once, encodes them into a
//! resident [`EngineSession`], and serves `/query`, `/update`, `/stats`,
//! `/healthz` and `/shutdown` over HTTP on a fixed worker pool; the
//! `client` subcommand speaks the same wire format back:
//!
//! ```text
//! tsens-cli serve r1.csv r2.csv --port 7878 --threads 4 &
//! tsens-cli client --port 7878 query op=tsens join=r1,r2
//! tsens-cli client --port 7878 batch op=count --- op=tsens
//! tsens-cli client --port 7878 update +,r1,a2,b2,c1
//! tsens-cli client --port 7878 exec 'query op=count' 'update +,r1,a2,b2,c1' 'query op=count'
//! tsens-cli client --port 7878 shutdown
//! ```
//!
//! `client exec` runs every command over **one keep-alive connection**
//! (each quoted argument is `<command> <body-line> <body-line>…`), and
//! `loadgen` drives a running server with `--connections` persistent
//! connections issuing `--requests` queries each, reporting req/s and
//! p50/p99 latency — optionally with a concurrent bulk updater
//! (`--update-body`) to prove readers don't stall, and `--assert-*`
//! floors for CI.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tsens::core::elastic::plan_order_from_tree;
use tsens::core::SessionExt;
use tsens::data::io::{load_csv, parse_ops};
use tsens::data::store::{self, FsyncPolicy};
use tsens::dp::truncation::TruncationProfile;
use tsens::dp::tsensdp::{noise_scales_are_finite, tsensdp_answer_from_profile};
use tsens::engine::EngineSession;
use tsens::prelude::*;
use tsens::query::auto_decompose;
use tsens::server::{Durability, DurabilityConfig, Server, ServerState};

struct Args {
    files: Vec<PathBuf>,
    join: Option<Vec<String>>,
    private: Option<String>,
    epsilon: f64,
    ell: Option<u128>,
    seed: u64,
    /// `update` subcommand: path of the ops file to stream.
    ops: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        files: Vec::new(),
        join: None,
        private: None,
        epsilon: 1.0,
        ell: None,
        seed: 0,
        ops: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    let update_mode = it.peek().is_some_and(|a| a == "update");
    if update_mode {
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--join" => {
                args.join = Some(
                    value("--join")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .collect(),
                )
            }
            "--private" => args.private = Some(value("--private")?),
            "--epsilon" => {
                args.epsilon = value("--epsilon")?.parse().map_err(|_| "bad --epsilon")?;
                if !(args.epsilon.is_finite() && args.epsilon > 0.0) {
                    return Err("--epsilon must be finite and positive".into());
                }
            }
            "--ell" => args.ell = Some(value("--ell")?.parse().map_err(|_| "bad --ell")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--ops" => args.ops = Some(PathBuf::from(value("--ops")?)),
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if args.files.is_empty() {
        return Err("no CSV files given".into());
    }
    if update_mode && args.ops.is_none() {
        return Err("the update subcommand needs --ops <file>".into());
    }
    if !update_mode && args.ops.is_some() {
        return Err("--ops only applies to the update subcommand".into());
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    // Load tables.
    let mut db = Database::new();
    for path in &args.files {
        let idx = load_csv(&mut db, path).map_err(|e| e.to_string())?;
        println!(
            "loaded {:<20} {} rows, attrs {:?}",
            db.relation_name(idx),
            db.relation(idx).len(),
            db.relation(idx)
                .schema()
                .attrs()
                .iter()
                .map(|&a| db.registry().name(a))
                .collect::<Vec<_>>()
        );
    }

    // Build the query.
    let names: Vec<String> = match &args.join {
        Some(list) => list.clone(),
        None => (0..db.relation_count())
            .map(|i| db.relation_name(i).to_owned())
            .collect(),
    };
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let q = ConjunctiveQuery::over(&db, "cli", &refs).map_err(|e| e.to_string())?;
    let (class, tree) = classify(&q).map_err(|e| e.to_string())?;
    println!("\nquery: natural join of {}", names.join(" ⋈ "));
    println!("class: {class:?}");
    let tree = match tree {
        Some(t) => t,
        None => {
            let t = auto_decompose(&q).map_err(|e| e.to_string())?;
            println!(
                "cyclic query: using a heuristic GHD with {} bags (max bag size {})",
                t.bag_count(),
                t.max_bag_size()
            );
            t
        }
    };

    // One session serves every analysis below: the database-resident
    // encoding, the passes, and the max-frequency statistics are shared
    // instead of being rebuilt per entry point. In `update` mode the
    // same session absorbs the deltas in place.
    let mut session = EngineSession::new(&db);

    // Count + sensitivity.
    let count = session.count_query(&q, &tree).map_err(|e| e.to_string())?;
    println!("|Q(D)| = {count}");
    let report = session.tsens(&q, &tree).map_err(|e| e.to_string())?;
    println!(
        "\nlocal sensitivity LS(Q, D) = {}",
        report.local_sensitivity
    );
    match &report.witness {
        Some(w) => println!("most sensitive tuple:       {}", w.display(&db)),
        None => println!("no tuple can change the output"),
    }
    println!("\nper-relation maxima (δ = max tuple sensitivity):");
    for rs in &report.per_relation {
        let shown = rs
            .witness
            .as_ref()
            .map(|w| w.display(&db))
            .unwrap_or_else(|| "(none)".into());
        println!(
            "  {:<20} δ = {:<12} via {}",
            db.relation_name(rs.relation),
            rs.sensitivity,
            shown
        );
    }
    let plan = plan_order_from_tree(&tree);
    let elastic = session
        .elastic_sensitivity(&q, &plan, 0)
        .map_err(|e| e.to_string())?;
    println!(
        "\nelastic (Flex) upper bound: {} ({:.1}× looser)",
        elastic.overall,
        elastic.overall as f64 / report.local_sensitivity.max(1) as f64
    );

    // `update` subcommand: stream the deltas through the warm session,
    // re-answer, and report the measured update-vs-rebuild cost.
    if let Some(ops_path) = &args.ops {
        let ops = read_ops_file(&db, ops_path)?;
        let total = ops.len();
        let t0 = Instant::now();
        let applied = session.apply_all(ops).map_err(|e| e.to_string())?;
        let t_apply = t0.elapsed();
        let t1 = Instant::now();
        let count_after = session.count_query(&q, &tree).map_err(|e| e.to_string())?;
        let report_after = session.tsens(&q, &tree).map_err(|e| e.to_string())?;
        let t_requery = t1.elapsed();

        // Sanity + cost comparison: a from-scratch session on the
        // mutated catalog must agree, at full re-encoding price.
        let t2 = Instant::now();
        let fresh = EngineSession::new(session.database());
        let fresh_count = fresh.count_query(&q, &tree).map_err(|e| e.to_string())?;
        let fresh_ls = fresh
            .tsens(&q, &tree)
            .map_err(|e| e.to_string())?
            .local_sensitivity;
        let t_rebuild = t2.elapsed();
        if (fresh_count, fresh_ls) != (count_after, report_after.local_sensitivity) {
            return Err("incremental answer diverged from rebuild".into());
        }

        let stats = session.stats();
        println!("\n=== update ===");
        println!("applied {applied}/{total} delta(s) in {t_apply:.2?}");
        println!(
            "after update: |Q(D)| = {count_after}, LS(Q, D) = {}",
            report_after.local_sensitivity
        );
        match &report_after.witness {
            Some(w) => println!(
                "most sensitive tuple:       {}",
                w.display(session.database())
            ),
            None => println!("no tuple can change the output"),
        }
        let warm = t_apply + t_requery;
        println!(
            "update + re-query: {warm:.2?}   vs   session rebuild: {t_rebuild:.2?}   ({:.1}× faster)",
            t_rebuild.as_secs_f64() / warm.as_secs_f64().max(1e-9)
        );
        println!(
            "delta-maintained: {} pass state(s), {} result(s), {} lifted atom(s), {} mf stat(s)",
            stats.passes_maintained,
            stats.results_maintained,
            stats.atoms_maintained,
            stats.mf_maintained
        );
        println!(
            "invalidated:      {} pass state(s), {} result(s), {} lifted atom(s), {} mf stat(s); {} dict epoch(s)",
            stats.passes_invalidated,
            stats.results_invalidated,
            stats.atoms_invalidated,
            stats.mf_invalidated,
            stats.dict_epochs
        );
    }

    // Optional DP answer.
    if let Some(private) = &args.private {
        let rel_idx = db
            .relation_index(private)
            .ok_or(format!("unknown private relation {private}"))?;
        let atom = q
            .atoms()
            .iter()
            .position(|a| a.relation == rel_idx)
            .ok_or(format!("{private} is not in the query"))?;
        let profile = TruncationProfile::build_session(&session, &q, &tree, atom)
            .map_err(|e| e.to_string())?;
        let ell = args.ell.unwrap_or(((profile.max_delta() * 3) / 2).max(10));
        if !noise_scales_are_finite(ell, args.epsilon) {
            return Err(format!(
                "--epsilon {:?} with ell {ell} gives no finite positive Laplace noise scale",
                args.epsilon
            ));
        }
        let mut rng = StdRng::seed_from_u64(args.seed);
        let r = tsensdp_answer_from_profile(&profile, ell, args.epsilon, &mut rng);
        println!(
            "\nTSensDP (private = {private}, ε = {}, ℓ = {ell}):",
            args.epsilon
        );
        println!("  released answer:   {:.1}", r.noisy_answer);
        println!(
            "  learned threshold: {} (= global sensitivity of the release)",
            r.threshold
        );
        println!(
            "  [diagnostics, not released: bias {:.1}, error {:.1}]",
            r.bias, r.error
        );
    }
    Ok(())
}

/// Read and parse an ops file against `db`'s catalog.
fn read_ops_file(db: &Database, path: &Path) -> Result<Vec<Update>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_ops(db, &text).map_err(|e| e.to_string())
}

/// Load every CSV into one fresh catalog, printing a line per table.
fn load_csvs(files: &[PathBuf]) -> Result<Database, String> {
    let mut db = Database::new();
    for path in files {
        let idx = load_csv(&mut db, path).map_err(|e| e.to_string())?;
        println!(
            "loaded {:<20} {} rows",
            db.relation_name(idx),
            db.relation(idx).len()
        );
    }
    Ok(db)
}

/// `serve` subcommand: load the CSVs, build one resident session, and
/// serve it over HTTP until `/shutdown`. With `--data-dir` the session
/// is durable: boot recovers snapshot + WAL from the directory (the
/// CSVs are only read when the directory has no usable state), and
/// every accepted `/update` is WAL-logged before it is published.
fn serve(args: &[String]) -> Result<(), String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut port: u16 = 7878;
    let mut threads: usize = 4;
    let mut shards_arg: Option<String> = None;
    let mut name: Option<String> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |opt: &str| it.next().cloned().ok_or(format!("{opt} needs a value"));
        match arg.as_str() {
            "--port" => port = value("--port")?.parse().map_err(|_| "bad --port")?,
            "--threads" => threads = value("--threads")?.parse().map_err(|_| "bad --threads")?,
            "--shards" => shards_arg = Some(value("--shards")?),
            "--name" => name = Some(value("--name")?),
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--fsync" => fsync = value("--fsync")?.parse()?,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        return Err("serve needs at least one CSV file".into());
    }
    // Validate the whole serving configuration up front — a bad
    // TSENS_THREADS or --shards should refuse to boot with a clear
    // message naming the knob, not panic a worker (or silently fall
    // back) later.
    let engine_pool = tsens::engine::Pool::from_env()
        .map_err(|e| format!("{}: {e}", tsens::engine::THREADS_ENV))?;
    let shards = match &shards_arg {
        None => 1,
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| {
                format!("--shards: {raw:?} is not a shard count (expected a positive integer)")
            })?;
            tsens::data::validate_shard_count(n).map_err(|e| format!("--shards: {e}"))?
        }
    };
    if shards > 1 && data_dir.is_some() {
        return Err(format!(
            "--shards {shards} cannot be combined with --data-dir: durability \
             (snapshot + WAL) is single-shard only — drop --data-dir or serve with --shards 1"
        ));
    }
    let name = name.unwrap_or_else(|| "default".to_owned());
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let state = match &data_dir {
        Some(dir) => {
            let config = DurabilityConfig::new(dir, fsync);
            let (session, durability) = Durability::boot(&config, || {
                load_csvs(&files).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                })
            })
            .map_err(|e| format!("{}: {e}", dir.display()))?;
            ServerState::from_sessions(vec![(name, session, Some(durability))])
        }
        None => ServerState::new_sharded(vec![(name, load_csvs(&files)?)], shards)
            .map_err(|e| format!("--shards: {e}"))?,
    };
    let server = Server::start(listener, state, threads).map_err(|e| e.to_string())?;
    println!(
        "tsens-server listening on http://{} ({threads} worker threads, \
         {shards} shard(s), engine pool {} thread(s)); \
         POST /shutdown (or `tsens-cli client shutdown`) to stop",
        server.addr(),
        engine_pool.size()
    );
    server.join();
    println!("server stopped");
    Ok(())
}

/// `social` subcommand: write the TAO-style social workload
/// (`Follow(U,V)`, `Like(U,P)`; see `tsens_workloads::social`) as two
/// CSV files ready for `serve`/`repro` — the shared `U` header is what
/// makes the loaded relations join (and co-partition) on the owning
/// user.
fn social_cmd(args: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from(".");
    let mut params = tsens::workloads::SocialParams::default();
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |opt: &str| it.next().cloned().ok_or(format!("{opt} needs a value"));
        match arg.as_str() {
            "--out" => out = PathBuf::from(value("--out")?),
            "--users" => params.users = value("--users")?.parse().map_err(|_| "bad --users")?,
            "--follow" => {
                params.follow_edges = value("--follow")?.parse().map_err(|_| "bad --follow")?
            }
            "--like" => params.like_edges = value("--like")?.parse().map_err(|_| "bad --like")?,
            "--pages" => params.pages = value("--pages")?.parse().map_err(|_| "bad --pages")?,
            "--seed" => seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--small" => params = tsens::workloads::social::small_params(),
            other => return Err(format!("unknown social option {other}")),
        }
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let t0 = Instant::now();
    let db = tsens::workloads::social_database(params, seed);
    let write = |rel: &str, header: &str| -> Result<PathBuf, String> {
        let relation = db.relation_by_name(rel).expect("social catalog");
        let mut text = String::with_capacity(relation.len() * 12);
        text.push_str(header);
        text.push('\n');
        for row in relation.rows() {
            let (Value::Int(a), Value::Int(b)) = (&row[0], &row[1]) else {
                unreachable!("social rows are integer pairs")
            };
            text.push_str(&format!("{a},{b}\n"));
        }
        let path = out.join(format!("{rel}.csv"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    };
    let follow = write("Follow", "U,V")?;
    let like = write("Like", "U,P")?;
    println!(
        "social: {} follow + {} like edges over {} users (seed {seed}) in {:.2?}",
        params.follow_edges,
        params.like_edges,
        params.users,
        t0.elapsed()
    );
    println!("wrote {}", follow.display());
    println!("wrote {}", like.display());
    Ok(())
}

/// Print one snapshot summary (shared by `snapshot load`/`inspect`).
fn print_snapshot_info(info: &store::SnapshotInfo) {
    println!(
        "generation {} (format v{}), {} bytes on disk",
        info.generation, info.format_version, info.file_bytes
    );
    println!(
        "dict: {} value(s) ({} overflow), epoch {}",
        info.dict_values, info.dict_overflow, info.epoch
    );
    println!(
        "{} relation(s), {} tuple(s) total:",
        info.relations.len(),
        info.total_tuples
    );
    for (name, arity, entries) in &info.relations {
        println!("  {name:<20} arity {arity}, {entries} distinct row(s)");
    }
}

/// `snapshot` subcommand: work with the durable on-disk format without
/// a running server.
///
/// * `save <csv>... --dir DIR [--generation N]` — encode the CSVs and
///   write one snapshot file (timed against the encode).
/// * `load <file>` — fully load + validate a snapshot into a session.
/// * `inspect <file>` — print the summary (still decodes every section;
///   a snapshot that inspects clean will load clean).
fn snapshot_cmd(args: &[String]) -> Result<(), String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut dir: Option<PathBuf> = None;
    let mut generation: u64 = 1;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |opt: &str| it.next().cloned().ok_or(format!("{opt} needs a value"));
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
            "--generation" => {
                generation = value("--generation")?
                    .parse()
                    .map_err(|_| "bad --generation")?
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_owned()),
        }
    }
    let Some((command, rest)) = positional.split_first() else {
        return Err("snapshot needs a command: save | load | inspect".into());
    };
    match command.as_str() {
        "save" => {
            files.extend(rest.iter().map(PathBuf::from));
            if files.is_empty() {
                return Err("snapshot save needs at least one CSV file".into());
            }
            let dir = dir.ok_or("snapshot save needs --dir <directory>")?;
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let db = load_csvs(&files)?;
            let t0 = Instant::now();
            let session = EngineSession::owned(db);
            let t_encode = t0.elapsed();
            let t1 = Instant::now();
            let path =
                store::save_snapshot(&dir, generation, session.database(), session.encoded())
                    .map_err(|e| e.to_string())?;
            let t_save = t1.elapsed();
            println!(
                "saved {} (encode {t_encode:.2?}, snapshot write {t_save:.2?})",
                path.display()
            );
            Ok(())
        }
        "load" => {
            let [path] = rest else {
                return Err("snapshot load needs exactly one snapshot file".into());
            };
            let t0 = Instant::now();
            let loaded = store::load_snapshot(Path::new(path)).map_err(|e| e.to_string())?;
            let t_load = t0.elapsed();
            // Prove the loaded state is servable, not just parseable.
            EngineSession::from_encoded(loaded.db, loaded.enc).map_err(|e| e.to_string())?;
            print_snapshot_info(&loaded.info);
            println!("loaded into a session in {t_load:.2?} (no CSV re-encode)");
            Ok(())
        }
        "inspect" => {
            let [path] = rest else {
                return Err("snapshot inspect needs exactly one snapshot file".into());
            };
            let info = store::inspect_snapshot(Path::new(path)).map_err(|e| e.to_string())?;
            print_snapshot_info(&info);
            Ok(())
        }
        other => Err(format!("unknown snapshot command {other:?}")),
    }
}

/// `client` subcommand: issue one request against a running server and
/// print the JSON response.
fn client_cmd(args: &[String]) -> Result<(), String> {
    let mut host = "127.0.0.1".to_owned();
    let mut port: u16 = 7878;
    let mut ops: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |opt: &str| it.next().cloned().ok_or(format!("{opt} needs a value"));
        match arg.as_str() {
            "--host" => host = value("--host")?,
            "--port" => port = value("--port")?.parse().map_err(|_| "bad --port")?,
            "--ops" => ops = Some(PathBuf::from(value("--ops")?)),
            // `---` is the batch item separator, not an option.
            "---" => positional.push(arg.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_owned()),
        }
    }
    let Some((command, rest)) = positional.split_first() else {
        return Err(
            "client needs a command: query | batch | update | stats | healthz | shutdown | exec"
                .into(),
        );
    };
    // `exec`: every remaining argument is one command (`<cmd> <line>
    // <line>…`, whitespace-separated), all issued over a single
    // keep-alive connection.
    if command == "exec" {
        return client_exec(&host, port, rest);
    }
    let (method, path, body) = match command.as_str() {
        // Each further argument is one body line: `op=tsens`,
        // `join=R1,R2`, `where=R.A=v`, … for query; `+,R,v…` for update.
        "query" => ("POST", "/query", rest.join("\n")),
        // Batch: body lines with literal `---` arguments as separators.
        "batch" => ("POST", "/query_batch", rest.join("\n")),
        "update" => {
            let body = match &ops {
                Some(path) => {
                    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
                }
                None => rest.join("\n"),
            };
            if body.trim().is_empty() {
                return Err("update needs delta lines (or --ops <file>)".into());
            }
            ("POST", "/update", body)
        }
        "stats" => ("GET", "/stats", String::new()),
        "healthz" => ("GET", "/healthz", String::new()),
        "shutdown" => ("POST", "/shutdown", String::new()),
        other => return Err(format!("unknown client command {other:?}")),
    };
    let (status, response) = tsens::server::request((host.as_str(), port), method, path, &body)
        .map_err(|e| format!("{host}:{port}: {e}"))?;
    println!("{response}");
    if status >= 400 {
        return Err(format!("server answered HTTP {status}"));
    }
    Ok(())
}

/// Run several commands over one keep-alive connection. Each `spec` is
/// `<command> <body-line> <body-line>…` (whitespace-separated); prints
/// every response, fails on the first HTTP error or I/O failure.
fn client_exec(host: &str, port: u16, specs: &[String]) -> Result<(), String> {
    if specs.is_empty() {
        return Err("exec needs at least one command argument".into());
    }
    let mut client =
        tsens::server::Client::new((host, port)).map_err(|e| format!("{host}:{port}: {e}"))?;
    for spec in specs {
        let mut tokens = spec.split_whitespace();
        let command = tokens.next().ok_or("empty exec command")?;
        let body: Vec<&str> = tokens.collect();
        let (method, path) = match command {
            "query" => ("POST", "/query"),
            "batch" => ("POST", "/query_batch"),
            "update" => ("POST", "/update"),
            "stats" => ("GET", "/stats"),
            "healthz" => ("GET", "/healthz"),
            "shutdown" => ("POST", "/shutdown"),
            other => return Err(format!("unknown exec command {other:?}")),
        };
        let (status, response) = client
            .request(method, path, &body.join("\n"))
            .map_err(|e| format!("{host}:{port}: {e}"))?;
        println!("{response}");
        if status >= 400 {
            return Err(format!("server answered HTTP {status}"));
        }
    }
    // Surface whether keep-alive actually held (CI asserts on this).
    eprintln!(
        "exec: {} command(s), connection {}",
        specs.len(),
        if client.is_connected() {
            "reused (keep-alive)"
        } else {
            "closed by server"
        }
    );
    Ok(())
}

/// `loadgen` subcommand: drive a running server with persistent
/// connections and report throughput + latency percentiles.
fn loadgen(args: &[String]) -> Result<(), String> {
    let mut host = "127.0.0.1".to_owned();
    let mut port: u16 = 7878;
    let mut connections: usize = 4;
    let mut requests: usize = 1000;
    let mut query = "op=count".to_owned();
    let mut update_body: Option<String> = None;
    let mut social_users: Option<usize> = None;
    let mut write_ratio: f64 = 0.002;
    let mut assert_min_rps: Option<f64> = None;
    let mut assert_max_p99_us: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |opt: &str| it.next().cloned().ok_or(format!("{opt} needs a value"));
        match arg.as_str() {
            "--host" => host = value("--host")?,
            "--port" => port = value("--port")?.parse().map_err(|_| "bad --port")?,
            "--connections" => {
                connections = value("--connections")?
                    .parse()
                    .map_err(|_| "bad --connections")?
            }
            "--requests" => {
                requests = value("--requests")?.parse().map_err(|_| "bad --requests")?
            }
            // Space-separated body lines, e.g. "op=count join=R1,R2".
            "--query" => query = value("--query")?,
            // TAO-style social mix against a server loaded with the
            // `social` workload: per request, `--write-ratio` of the
            // traffic inserts a Follow edge and the rest run
            // `assoc_count(U)` for a random user in 0..N. Defaults to
            // TAO's measured ~99.8/0.2 read/write split.
            "--social" => {
                social_users = Some(value("--social")?.parse().map_err(|_| "bad --social")?)
            }
            "--write-ratio" => {
                write_ratio = value("--write-ratio")?
                    .parse()
                    .map_err(|_| "bad --write-ratio")?
            }
            // Semicolon-separated delta lines, looped by a concurrent
            // updater thread for the whole run, e.g.
            // "+,R1,a9,b9,c1;-,R1,a9,b9,c1".
            "--update-body" => update_body = Some(value("--update-body")?),
            "--assert-min-rps" => {
                assert_min_rps = Some(
                    value("--assert-min-rps")?
                        .parse()
                        .map_err(|_| "bad --assert-min-rps")?,
                )
            }
            "--assert-max-p99-us" => {
                assert_max_p99_us = Some(
                    value("--assert-max-p99-us")?
                        .parse()
                        .map_err(|_| "bad --assert-max-p99-us")?,
                )
            }
            other => return Err(format!("unknown loadgen option {other}")),
        }
    }
    if connections == 0 || requests == 0 {
        return Err("--connections and --requests must be at least 1".into());
    }
    if social_users == Some(0) {
        return Err("--social needs a non-empty user universe".into());
    }
    if !(0.0..=1.0).contains(&write_ratio) {
        return Err("--write-ratio must be within [0, 1]".into());
    }
    // Same startup validation as `serve`: surface a bad TSENS_THREADS
    // (e.g. 0) as a clear error and log the effective pool size, so a
    // load test knows what engine configuration it measured.
    let engine_pool = tsens::engine::Pool::from_env()
        .map_err(|e| format!("{}: {e}", tsens::engine::THREADS_ENV))?;
    println!(
        "loadgen: {connections} connection(s) × {requests} request(s), \
         engine pool {} thread(s)",
        engine_pool.size()
    );
    let body: String = query.split_whitespace().collect::<Vec<_>>().join("\n");

    // Optional concurrent bulk updater: loops the delta body through
    // its own keep-alive connection until the readers are done, so the
    // measured reader latencies overlap live publishes.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let updater = update_body.map(|spec| {
        let delta = spec.split(';').collect::<Vec<_>>().join("\n");
        let stop = std::sync::Arc::clone(&stop);
        let addr = (host.clone(), port);
        std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut client = tsens::server::Client::new(addr).map_err(|e| e.to_string())?;
            let mut published = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let (status, resp) = client
                    .request("POST", "/update", &delta)
                    .map_err(|e| e.to_string())?;
                if status != 200 {
                    return Err(format!("updater got HTTP {status}: {resp}"));
                }
                published += 1;
            }
            Ok((published, client.retries()))
        })
    });

    let t0 = Instant::now();
    let readers: Vec<_> = (0..connections)
        .map(|conn| {
            let addr = (host.clone(), port);
            let body = body.clone();
            std::thread::spawn(move || -> Result<(Vec<u64>, u64, u64), String> {
                let mut client = tsens::server::Client::new(addr).map_err(|e| e.to_string())?;
                // Deterministic per-connection mix so reruns issue the
                // same request stream.
                let mut rng = StdRng::seed_from_u64(0x50c1_a100 + conn as u64);
                let mut lat = Vec::with_capacity(requests);
                let mut writes = 0u64;
                for _ in 0..requests {
                    let (path, req_body) = match social_users {
                        Some(users) if rng.random::<f64>() < write_ratio => {
                            writes += 1;
                            let u = rng.random_range(0..users);
                            let v = rng.random_range(0..users);
                            ("/update", format!("+,Follow,{u},{v}"))
                        }
                        Some(users) => {
                            let u = rng.random_range(0..users);
                            (
                                "/query",
                                format!("op=count\njoin=Follow\nwhere=Follow.U={u}"),
                            )
                        }
                        None => ("/query", body.clone()),
                    };
                    let t = Instant::now();
                    let (status, resp) = client
                        .request("POST", path, &req_body)
                        .map_err(|e| e.to_string())?;
                    lat.push(t.elapsed().as_micros() as u64);
                    if status != 200 {
                        return Err(format!("loadgen got HTTP {status} on {path}: {resp}"));
                    }
                }
                Ok((lat, client.retries(), writes))
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(connections * requests);
    let mut retries = 0u64;
    let mut social_writes = 0u64;
    for r in readers {
        let (lat, r_retries, writes) = r.join().map_err(|_| "reader thread panicked")??;
        latencies.extend(lat);
        retries += r_retries;
        social_writes += writes;
    }
    let elapsed = t0.elapsed();
    stop.store(true, std::sync::atomic::Ordering::Release);
    let publishes = match updater {
        Some(u) => {
            let (published, u_retries) = u.join().map_err(|_| "updater thread panicked")??;
            retries += u_retries;
            published
        }
        None => 0,
    };

    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let total = latencies.len() as f64;
    let rps = total / elapsed.as_secs_f64();
    let (p50, p99) = (pct(0.50), pct(0.99));
    println!(
        "loadgen: {} requests over {connections} connection(s) in {elapsed:.2?}",
        latencies.len()
    );
    println!("rps={rps:.0}");
    println!("p50_us={p50}");
    println!("p99_us={p99}");
    println!("max_us={}", latencies[latencies.len() - 1]);
    println!("concurrent_update_publishes={publishes}");
    println!("transparent_retries={retries}");
    // Social mix: report the realized write fraction and, from /stats,
    // where the routed writes actually published, shard by shard.
    if social_users.is_some() {
        println!(
            "social_writes={social_writes} ({:.3}% of requests)",
            100.0 * social_writes as f64 / latencies.len().max(1) as f64
        );
        let (status, stats) = tsens::server::request((host.as_str(), port), "GET", "/stats", "")
            .map_err(|e| format!("{host}:{port}: {e}"))?;
        if status != 200 {
            return Err(format!("stats after loadgen answered HTTP {status}"));
        }
        let start = stats
            .find("\"per_shard\":[")
            .ok_or_else(|| format!("stats after loadgen has no per_shard: {stats}"))?;
        let tail = &stats[start..];
        let end = tail.find(']').map(|i| i + 1).unwrap_or(tail.len());
        println!("per_shard_publishes={}", &tail[..end]);
    }
    if let Some(floor) = assert_min_rps {
        if rps < floor {
            return Err(format!("throughput {rps:.0} req/s below floor {floor}"));
        }
    }
    if let Some(cap) = assert_max_p99_us {
        if p99 > cap {
            return Err(format!("reader p99 {p99}µs above cap {cap}µs"));
        }
    }
    Ok(())
}

fn usage() {
    eprintln!(
        "usage: tsens-cli <table.csv>... [--join A,B,C] [--private R] \
         [--epsilon X] [--ell N] [--seed N]\n       \
         tsens-cli update <table.csv>... --ops <ops.csv> [--join A,B,C]\n       \
         tsens-cli serve <table.csv>... [--port N] [--threads N] [--shards N] \
         [--name DB] [--data-dir DIR] [--fsync always|batch|off]\n       \
         tsens-cli snapshot save <table.csv>... --dir DIR [--generation N]\n       \
         tsens-cli snapshot <load|inspect> <snapshot-file>\n       \
         tsens-cli client [--host H] [--port N] \
         <query|batch|update|stats|healthz|shutdown> [lines...]\n       \
         tsens-cli client [--host H] [--port N] exec '<cmd lines...>' ...\n       \
         tsens-cli loadgen [--host H] [--port N] [--connections C] [--requests N] \
         [--query 'op=… join=…'] [--update-body '+,R,…;-,R,…'] \
         [--social USERS] [--write-ratio X] \
         [--assert-min-rps X] [--assert-max-p99-us N]\n       \
         tsens-cli social --out DIR [--users N] [--follow N] [--like N] \
         [--pages N] [--seed N] [--small]"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => {
            return match serve(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}\n");
                    usage();
                    ExitCode::from(2)
                }
            }
        }
        Some("snapshot") => {
            return match snapshot_cmd(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("client") => {
            return match client_cmd(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("loadgen") => {
            return match loadgen(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("social") => {
            return match social_cmd(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    match parse_args() {
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            usage();
            ExitCode::from(2)
        }
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}
