//! `perfbench`: the tsens serving benchmark.
//!
//! ```text
//! perfbench --workload social_read|social_write|tpch_analyst \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, starts the real
//! `tsens_server::Server` in process on loopback, drives it through
//! `tsens_server::Client`, checks every answer, and prints one JSON
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced replay and reports
//! the per-layer metrics. See `perfbench/README.md`.

mod exec;
mod gen;
mod load;
mod replay;
mod social;
mod stats;
mod tpch;
mod trace;

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tsens_server::{Client, Server, ServerState};

/// Server worker threads and the most client connections any workload
/// opens: the benchmark host's core count (2).
pub const THREADS: usize = 2;

/// End-to-end metrics (`--trace 0`), in output order, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rps", "1/s"),
    ("main_p50_us", "us"),
    ("main_tail_us", "us"),
    ("side_p50_us", "us"),
    ("phase_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("server.wire.parse_us", "us"),
    ("server.http.overhead_us", "us"),
    ("query.build_us", "us"),
    ("engine.snapshot.pin_ns", "ns"),
    ("engine.session.lift_us", "us"),
    ("engine.session.atom_hit_ratio", "ratio"),
    ("engine.session.pass_hit_ratio", "ratio"),
    ("engine.session.result_hit_ratio", "ratio"),
    ("engine.session.mf_hit_ratio", "ratio"),
    ("engine.shard.gather_us", "us"),
    ("engine.snapshot.update_us", "us"),
    ("engine.session.fork_us", "us"),
    ("engine.session.apply_us", "us"),
    ("engine.maintain.passes_maintained_ratio", "ratio"),
    ("server.durability.append_us", "us"),
    ("server.durability.wal_bytes_per_user_byte", "ratio"),
    ("data.store.recover_s", "s"),
    ("engine.session.passes_ms", "ms"),
    ("engine.passes.bags_ms", "ms"),
    ("engine.passes.bag_rows", "count"),
    ("engine.passes.bot_ms", "ms"),
    ("engine.passes.top_ms", "ms"),
    ("engine.passes.top_rows", "count"),
    ("core.acyclic.mtables_ms", "ms"),
    ("core.acyclic.mtable_rows", "count"),
    ("core.elastic_us", "us"),
    ("dp.truncation.profile_ms", "ms"),
    ("engine.pool.parallel_tasks", "count"),
    ("data.encoded.encode_s", "s"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: time one server set-up in this (child) process, print
    /// it, and exit.
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-only" => setup_only = value == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// Server set-ups timed in child processes, one each, so the parent's
/// peak RSS holds a single set-up and no set-up inherits another's heap.
pub fn child_setups(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s="))
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("set-up child failed: {stdout}"))
        })
        .collect()
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (units come from the declared lists).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one checked request; a failed check is logged (the first
    /// few) and counted, never aborts the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// A human-readable metric line, `name = value unit`.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name} = {value:.4} {unit}"));
    }
}

/// A server running in process on a loopback port.
pub struct Running {
    server: Option<Server>,
    pub addr: SocketAddr,
}

impl Running {
    pub fn stop(mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

/// Start `state` on an OS-assigned loopback port and wait for its first
/// answer (`GET /stats`, which pins the served snapshot).
pub fn start_server(state: ServerState) -> Result<Running, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let server = Server::start(listener, state, THREADS).map_err(|e| e.to_string())?;
    let running = Running {
        addr: server.addr(),
        server: Some(server),
    };
    let mut client = Client::new(running.addr).map_err(|e| e.to_string())?;
    match client.request("GET", "/stats", "") {
        Ok((200, _)) => Ok(running),
        Ok((status, body)) => Err(format!("first request answered {status}: {body}")),
        Err(e) => Err(format!("first request failed: {e}")),
    }
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where runs write spans and scratch data: `.bench_out` under the
/// working directory (the checkout root).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// A scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Microseconds from nanoseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median of `xs`, 0 when empty.
pub fn med(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Percentile `p` of `xs`, 0 when empty.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    stats::percentile(xs, p).unwrap_or(0.0)
}

/// Median over `groups` of `stat` per group. A slow stretch of the host
/// moves it only if the stretch covers half the groups, where a
/// percentile over the pooled samples moves with any slow group.
pub fn median_of<G>(groups: &[G], stat: impl Fn(&G) -> f64) -> f64 {
    med(&groups.iter().map(stat).collect::<Vec<_>>())
}

/// Human-readable latency summary: count, p50 and the highest tail the
/// ten-samples-beyond rule allows.
pub fn note_latencies(report: &mut Report, name: &str, us_samples: &[f64]) {
    report
        .lines
        .push(format!("{name}: n = {}", us_samples.len()));
    report.note(&format!("{name}_p50_us"), med(us_samples), "us");
    if let Some(p) = stats::tail_percentile(us_samples.len()) {
        report.note(&format!("{name}_p{p}_us"), pct(us_samples, p), "us");
    }
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    if args.setup_only {
        let setup_s = match args.workload.as_str() {
            "social_read" => social::read_setup(args)?,
            "social_write" => social::write_setup(args)?,
            other => return Err(format!("no set-up child for {other:?}")),
        };
        println!("setup_s={setup_s}");
        std::process::exit(0);
    }
    match (args.workload.as_str(), args.trace) {
        ("social_read", false) => social::social_read(args),
        ("social_write", false) => social::social_write(args),
        ("tpch_analyst", false) => tpch::tpch_analyst(args),
        ("social_read", true) => replay::social_read_traced(args),
        ("social_write", true) => replay::social_write_traced(args),
        ("tpch_analyst", true) => replay::tpch_analyst_traced(args),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

fn result_json(args: &Args, report: &Report) -> Result<String, String> {
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        debug_assert!(stats::valid_name(name), "{name}");
        let value = *report
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let outcome = run(&args).and_then(|report| Ok((result_json(&args, &report)?, report)));
    match outcome {
        Ok((json, report)) => {
            println!(
                "# {} seed {} trace {} ({:.1} s)",
                args.workload,
                args.seed,
                u8::from(args.trace),
                t0.elapsed().as_secs_f64()
            );
            for line in &report.lines {
                println!("# {line}");
            }
            println!(
                "# error_ratio = {:.6} ({} of {} checks failed)",
                report.failed as f64 / report.attempted.max(1) as f64,
                report.failed,
                report.attempted
            );
            println!("{json}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_have_valid_unique_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = spec.find(&format!("\"{section}\"")).expect("section");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("list end")];
            let names: Vec<&str> = body
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    &rest[..rest.find('"').expect("closing quote")]
                })
                .collect();
            let declared: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, declared, "{section}");
            for (name, unit) in list {
                let entry = &body[body.find(&format!("\"name\": \"{name}\"")).expect("entry")..];
                let entry = &entry[..entry.find('}').expect("entry end")];
                assert!(
                    entry.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
    }

    #[test]
    fn median_of_groups_ignores_a_minority_of_slow_groups() {
        let fast = vec![1.0, 2.0, 3.0, 4.0];
        let slow = vec![10.0, 20.0, 30.0, 40.0];
        let groups = [fast.clone(), slow, fast.clone(), fast];
        let pooled: Vec<f64> = groups.iter().flatten().copied().collect();
        assert_eq!(median_of(&groups, |g| pct(g, 90.0)), 4.0);
        assert_eq!(pct(&pooled, 90.0), 30.0);
        assert_eq!(median_of(&groups[..0], |g: &Vec<f64>| med(g)), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let args = Args {
            workload: "social_read".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            setup_only: false,
        };
        let mut report = Report::default();
        assert!(
            result_json(&args, &report).is_err(),
            "missing metrics are an error"
        );
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, 1.5 + i as f64);
        }
        report.check(true, String::new);
        let json = result_json(&args, &report).unwrap();
        assert!(json.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(json.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }
}
