//! `tpch_analyst`: one analyst connection sending a fixed list of
//! distinct, therefore cold, queries to a 1-shard in-memory server over
//! `tpch_database(0.005, seed)`.
//!
//! The list crosses the paper's q1 (path), q2 (star) and q3 (cyclic)
//! joins with `count`/`tsens`/`elastic` and `where=` slices, plus seeded
//! `tsensdp` releases. Each pass runs on a freshly started server, so
//! every pass is cold; passes repeat until the run's time is up.

use crate::exec::{self, Answer};
use crate::gen;
use crate::{med, median_of, note_latencies, pct, secs, start_server, Args, Report};
use rand::RngExt;
use std::time::{Duration, Instant};
use tsens_engine::ShardedEngine;
use tsens_server::{Client, ServerState};
use tsens_workloads::{tpch_database, TpchScale};

/// TPC-H scale factor of the analyst's database.
pub const SCALE: f64 = 0.005;
/// The tail percentile `main_tail_us` reports. p90 of the list falls
/// between two clusters (q3 `count` slices at ~11 ms and at ~6 ms) and
/// flips between them from run to run; p75 lies inside the cluster of
/// q1/q2 `tsens` queries.
pub const TAIL: f64 = 75.0;

pub const Q1: &str = "Region,Nation,Customer,Orders,L_ok";
pub const Q2: &str = "Partsupp,S_sk,Part,L_skpk";
pub const Q3: &str = "Region,Nation,Customer,Orders,Supplier,Part,Partsupp,Lineitem";

/// One analyst query: its family (`q1`/`q2`/`q3`/`dp`) and wire body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    pub family: &'static str,
    pub body: String,
}

/// `k` distinct keys from `0..n`, drawn from the seed.
fn keys(rng: &mut impl RngExt, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// The analyst's list: 107 distinct queries. Per join and slice it asks
/// `count`, then `tsens`, then `elastic`; the `tsensdp` releases come
/// last. Slice keys are drawn from the seed.
pub fn analyst_list(seed: u64) -> Vec<Query> {
    let s = TpchScale(SCALE);
    let mut rng = gen::for_request(seed, 4, 0);
    let nations = keys(&mut rng, 25, 9);
    let parts = keys(&mut rng, s.parts(), 9);
    let supps = keys(&mut rng, s.suppliers(), 4);
    let custs = keys(&mut rng, s.customers(), 4);

    let mut slices: Vec<(&'static str, &'static str, Option<String>)> = vec![("q1", Q1, None)];
    slices.extend(
        nations
            .iter()
            .map(|k| ("q1", Q1, Some(format!("Nation.NK={k}")))),
    );
    slices.push(("q2", Q2, None));
    slices.extend(
        parts
            .iter()
            .map(|k| ("q2", Q2, Some(format!("Part.PK={k}")))),
    );
    slices.extend(
        supps
            .iter()
            .map(|k| ("q2", Q2, Some(format!("S_sk.SK={k}")))),
    );
    slices.push(("q3", Q3, None));
    slices.extend(
        nations[..4]
            .iter()
            .map(|k| ("q3", Q3, Some(format!("Nation.NK={k}")))),
    );
    slices.extend(
        custs
            .iter()
            .map(|k| ("q3", Q3, Some(format!("Customer.CK={k}")))),
    );

    let mut list = Vec::new();
    for (family, join, slice) in &slices {
        for op in ["count", "tsens", "elastic"] {
            let mut body = format!("op={op}\njoin={join}");
            if let Some(w) = slice {
                body.push_str(&format!("\nwhere={w}"));
            }
            list.push(Query { family, body });
        }
    }
    let dp = [
        (Q1, "Customer", None),
        (Q1, "Customer", Some(format!("Nation.NK={}", nations[0]))),
        (Q1, "Customer", Some(format!("Nation.NK={}", nations[1]))),
        (Q1, "Orders", Some(format!("Nation.NK={}", nations[2]))),
        (Q2, "Part", None),
        (Q2, "Part", Some(format!("Part.PK={}", parts[0]))),
        (Q2, "Partsupp", Some(format!("S_sk.SK={}", supps[0]))),
        (Q2, "Partsupp", Some(format!("S_sk.SK={}", supps[1]))),
    ];
    for (i, (join, private, slice)) in dp.into_iter().enumerate() {
        let mut body = format!(
            "op=tsensdp\njoin={join}\nprivate={private}\nepsilon=1.0\nseed={}",
            seed ^ i as u64
        );
        if let Some(w) = slice {
            body.push_str(&format!("\nwhere={w}"));
        }
        list.push(Query { family: "dp", body });
    }
    list
}

/// One timed pass of the list against a fresh server.
struct Pass {
    setup_s: f64,
    total_s: f64,
    /// Per query: latency (µs), status, body.
    answers: Vec<(f64, u16, String)>,
}

fn run_pass(db: &tsens_data::Database, list: &[Query]) -> Result<Pass, String> {
    let copy = db.clone();
    let t0 = Instant::now();
    let server = start_server(ServerState::new(vec![("tpch".into(), copy)]))?;
    let setup_s = secs(t0.elapsed());
    let mut client = Client::new(server.addr).map_err(|e| e.to_string())?;
    let mut answers = Vec::with_capacity(list.len());
    let t0 = Instant::now();
    for q in list {
        let t = Instant::now();
        let (status, body) = client
            .request("POST", "/query", &q.body)
            .unwrap_or_else(|e| (0, e.to_string()));
        answers.push((t.elapsed().as_secs_f64() * 1e6, status, body));
    }
    let total_s = secs(t0.elapsed());
    server.stop();
    Ok(Pass {
        setup_s,
        total_s,
        answers,
    })
}

pub fn tpch_analyst(args: &Args) -> Result<Report, String> {
    let (db, _) = tpch_database(SCALE, args.seed);
    let list = analyst_list(args.seed);
    let mut report = Report::default();

    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    // Peak RSS after the first pass: later passes repeat the same work,
    // and only add allocator history.
    let mut peak_rss_mb = 0.0;
    while passes.is_empty() || start.elapsed() < deadline {
        passes.push(run_pass(&db, &list)?);
        if passes.len() == 1 {
            peak_rss_mb = crate::peak_rss_mb();
        }
    }

    // Every pass must answer exactly as the in-process replay of the
    // list on the same data does.
    let oracle = ShardedEngine::new(db, 1).map_err(|e| e.to_string())?;
    let expected: Vec<Result<Answer, String>> = list
        .iter()
        .map(|q| exec::answer(&oracle, &q.body))
        .collect();
    for pass in &passes {
        for ((q, want), (_, status, body)) in list.iter().zip(&expected).zip(&pass.answers) {
            let got = Answer::from_body(body);
            let ok = *status == 200 && want.as_ref().is_ok_and(|w| *w == got && !w.0.is_empty());
            report.check(ok, || {
                format!("{}: wire {status} {body} vs {want:?}", q.body)
            });
        }
    }

    // Latencies of one pass, of one family or of all queries.
    let lat = |p: &Pass, f: Option<&str>| -> Vec<f64> {
        p.answers
            .iter()
            .zip(&list)
            .filter(|(_, q)| f.is_none_or(|f| q.family == f))
            .map(|(a, _)| a.0)
            .collect()
    };
    let family = |f: &str| -> Vec<f64> { passes.iter().flat_map(|p| lat(p, Some(f))).collect() };
    let queries: usize = passes.iter().map(|p| p.answers.len()).sum();
    let totals: Vec<f64> = passes.iter().map(|p| p.total_s).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let busy: f64 = totals.iter().sum();
    // Percentiles per pass, then their median over the passes.
    let p50 = median_of(&passes, |p| med(&lat(p, None)));
    let tail = median_of(&passes, |p| pct(&lat(p, None), TAIL));
    let full_q3 = list
        .iter()
        .position(|q| q.body == format!("op=tsens\njoin={Q3}"))
        .expect("the list has the full q3 tsens");
    let q3_full = median_of(&passes, |p| p.answers[full_q3].0);

    report.set("setup_s", med(&setups));
    report.set("rps", queries as f64 / busy);
    report.set("main_p50_us", p50);
    report.set("main_tail_us", tail);
    report.set("side_p50_us", q3_full);
    report.set("phase_s", med(&totals));
    report.set("peak_rss_mb", peak_rss_mb);

    report.lines.push(format!(
        "{} passes of {} distinct queries, each on a fresh server (scale {SCALE}, 1 connection)",
        passes.len(),
        list.len()
    ));
    report.note("cold_total_s", med(&totals), "s");
    report.note("cold_p50_ms", p50 / 1e3, "ms");
    report.note("cold_p75_ms", tail / 1e3, "ms");
    report.note(
        "cold_p90_ms",
        median_of(&passes, |p| pct(&lat(p, None), 90.0)) / 1e3,
        "ms",
    );
    for f in ["q1", "q2", "q3", "dp"] {
        note_latencies(&mut report, &format!("{f}_query"), &family(f));
    }
    report.note("q3_full_tsens_ms", q3_full / 1e3, "ms");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_long_distinct_and_seeded() {
        let a = analyst_list(1);
        assert!(a.len() >= 100, "{}", a.len());
        let mut bodies: Vec<&str> = a.iter().map(|q| q.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), a.len(), "queries must be distinct");
        assert_eq!(a, analyst_list(1));
        assert_ne!(a, analyst_list(2));
        for q in &a {
            assert!(tsens_server::parse_query(&q.body).is_ok(), "{}", q.body);
        }
    }
}
