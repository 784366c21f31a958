//! End-to-end and per-layer benchmark of the `bsmp-serve/v1` batch server.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <cold-recursive|warm-repeat|tiled-traced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives `bsmp::serve_suite::serve` in-process with two closed-loop
//! clients and generated traffic, checks every answer, and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`.  See `README.md` beside this
//! file for the workloads and what each metric is meant to show.

mod check;
mod closed_loop;
mod layers;
mod stats;
mod traffic;

use std::time::{Duration, Instant};

use bsmp::serve_suite::{parse_job, result_line, run_job, serve, ServeOptions};
use bsmp::{init_shared_pool, plan_cache, set_default_threads};

use check::{check, Record};
use stats::{median, percentile, sorted, usage};
use traffic::{generate, warmup_jobs, Job, Traffic, Workload, CLIENTS};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <cold-recursive|warm-repeat|tiled-traced> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&val).ok_or(format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed `{val}`"))?),
            "--seconds" => {
                let s: u64 = val.parse().map_err(|_| format!("bad --seconds `{val}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{val}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run `jobs` cold, one after another, outside any timing; returns their
/// result records.  Set-up's engine warm-up and the warm workload's
/// capsule pre-seeding.
fn run_direct(jobs: &[Job]) -> Vec<(Job, Record)> {
    jobs.iter()
        .map(|j| {
            let spec = parse_job(&j.line()).expect("warm-up request is valid");
            let out = run_job(&spec).expect("warm-up job succeeds");
            let rec = Record::from_line(&result_line(&spec, &out)).expect("readable result");
            (j.clone(), rec)
        })
        .collect()
}

struct Setup {
    traffic: Traffic,
    reference: Vec<(Job, Record)>,
    setup_s: f64,
}

/// Pool init (as `bsmp-repro serve` does it, once per process), then
/// [`SETUP_REPS`] times: empty the plan cache, generate the traffic, warm
/// up each engine the workload uses (for `warm-repeat`: pre-seed every
/// capsule).  Cold workloads start their run with an empty cache.
fn set_up(workload: Workload, seed: u64, seconds: u64) -> Setup {
    let t = Instant::now();
    set_default_threads(0);
    init_shared_pool(0);
    let pool_s = t.elapsed().as_secs_f64();
    let warmup = warmup_jobs(workload);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        plan_cache().clear();
        let traffic = generate(workload, seed, workload.jobs_for(seconds));
        let reference = run_direct(&warmup);
        if workload.is_cold() {
            plan_cache().clear();
        }
        times.push(pool_s + t.elapsed().as_secs_f64());
        last = Some((traffic, reference));
    }
    let (traffic, reference) = last.expect("at least one set-up");
    Setup {
        traffic,
        reference,
        setup_s: median(&times).expect("set-up ran"),
    }
}

/// One untraced closed-loop run of `serve` over the traffic.
struct Served {
    records: Vec<Option<Result<Record, String>>>,
    loop_stats: closed_loop::LoopStats,
    cpu_s: f64,
    peak_rss_mib: f64,
    cache: (bsmp::machine::CacheStats, bsmp::machine::CacheStats),
}

fn serve_run(traffic: &Traffic) -> Served {
    let mut records: Vec<Option<Result<Record, String>>> = vec![None; traffic.len()];
    let cache0 = plan_cache().stats();
    let u0 = usage();
    let (loop_stats, _summary) = closed_loop::run(
        &traffic.lines,
        |input, output| {
            serve(
                input,
                output,
                ServeOptions {
                    max_inflight: CLIENTS,
                },
            )
        },
        &mut |id, line| records[id as usize] = Some(Record::from_line(line)),
    )
    .expect("in-process writer cannot fail");
    let u1 = usage();
    Served {
        records,
        loop_stats,
        cpu_s: u1.cpu_s - u0.cpu_s,
        peak_rss_mib: u1.max_rss_kib as f64 / 1024.0,
        cache: (cache0, plan_cache().stats()),
    }
}

type Metric = (&'static str, f64, &'static str);

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything one run prints.
struct Report {
    /// The information line: seed, model digest, shares, problems.
    info: String,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    /// The traced run's spans (`--trace 1` only), one JSON object a line.
    spans_jsonl: Option<String>,
}

/// Serve the set-up traffic, check every answer and, with `trace`, make
/// the traced run; returns the end-to-end or the per-layer metrics.
fn measure(w: Workload, seed: u64, trace: bool, setup: &Setup) -> Report {
    let traffic = &setup.traffic;
    let attempted = traffic.len();
    let run = serve_run(traffic);
    let rep = check(traffic, &run.records, &setup.reference);
    let ls = &run.loop_stats;
    let wall_s = ls.wall.max(Duration::from_nanos(1)).as_secs_f64();
    let jobs_per_s = ls.answered as f64 / wall_s;
    let cpu_ms_per_job = run.cpu_s * 1e3 / ls.answered.max(1) as f64;
    let (c0, c1) = run.cache;
    let evictions = c1.evictions - c0.evictions;

    // Shares of the properties later claims may rest on.
    let answered: Vec<&Record> = run.records.iter().flatten().flatten().collect();
    let capsule_hits = answered.iter().filter(|r| r.cache_hit).count() as u64;
    let exec_plan_hits = (c1.hits - c0.hits).saturating_sub(capsule_hits);
    let share = |k: u64| k as f64 / attempted as f64;
    let traced = traffic.jobs_by_id().filter(|j| j.traced()).count() as u64;
    let faulted = traffic.jobs_by_id().filter(|j| j.faults.is_some()).count() as u64;
    let shares: [Metric; 4] = [
        ("share.capsule_hit", share(capsule_hits), "1"),
        ("share.exec_plan_hit", share(exec_plan_hits), "1"),
        ("share.traced", share(traced), "1"),
        ("share.faulted", share(faulted), "1"),
    ];

    let mut problems = rep.problems.clone();
    if ls.stray > 0 {
        problems.push(format!("{} result lines matched no request", ls.stray));
    }
    if ls.max_inflight > CLIENTS {
        problems.push(format!("{} requests in flight", ls.max_inflight));
    }
    if w == Workload::WarmRepeat && evictions > 0 {
        problems.push(format!("{evictions} plan-cache evictions on a warm run"));
    }

    let lat_ms = sorted(
        ls.latency_ns
            .iter()
            .filter(|&&l| l != closed_loop::UNANSWERED)
            .map(|&l| l as f64 / 1e6)
            .collect(),
    );
    let mut pct = |q: f64| {
        percentile(&lat_ms, q).unwrap_or_else(|e| {
            problems.push(format!("latency {e}"));
            0.0
        })
    };
    let (p50, p90) = (pct(0.5), pct(0.9));
    let mut info = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"jobs\": {attempted}, \
         \"latency_samples\": {}, \"wall_s\": {wall_s:.6}, \"model_digest\": \"{:#018x}\", \
         \"failed_ratio\": {}, \"error_lines\": {}, \"setup_s\": {:.6}, \"shares\": {}",
        w.name(),
        lat_ms.len(),
        rep.model_digest,
        rep.failed as f64 / attempted as f64,
        rep.error_lines,
        setup.setup_s,
        json_metrics(&shares),
    );

    let mut spans_jsonl = None;
    let metrics: Vec<Metric> = if !trace {
        vec![
            ("jobs_per_s", jobs_per_s, "jobs/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("cpu_ms_per_job", cpu_ms_per_job, "ms"),
            ("peak_rss_mb", run.peak_rss_mib, "MiB"),
            ("setup_s", setup.setup_s, "s"),
        ]
    } else {
        if w.is_cold() {
            plan_cache().clear();
        }
        let layers = layers::traced_run(traffic);
        if layers.errors > 0 {
            problems.push(format!("{} traced jobs failed", layers.errors));
        }
        for r in &layers.refused {
            eprintln!("servebench: refused percentile {r}");
        }
        info.push_str(&format!(", \"spans\": {}", layers.spans_summary));
        spans_jsonl = Some(layers.spans_jsonl);
        let traced_jobs_per_s = layers.jobs as f64 / layers.wall_s;
        let hits = c1.hits - c0.hits;
        let misses = c1.misses - c0.misses;
        let mut m = layers.metrics;
        m.extend([
            ("plan_cache.hits", hits as f64, "count"),
            ("plan_cache.misses", misses as f64, "count"),
            ("plan_cache.evictions", evictions as f64, "count"),
            (
                "plan_cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "1",
            ),
            ("plan_cache.bytes", c1.bytes as f64, "B"),
            ("serve_suite.bad_request", rep.bad_request as f64, "count"),
            (
                "serve_suite.sim_error",
                (rep.error_lines - rep.bad_request) as f64,
                "count",
            ),
            ("failed_ratio", rep.failed as f64 / attempted as f64, "1"),
            ("traced.jobs_per_s", traced_jobs_per_s, "jobs/s"),
            ("tracing.overhead", jobs_per_s / traced_jobs_per_s, "1"),
        ]);
        m.extend(shares);
        m
    };
    info.push_str(&format!(", \"problems\": {problems:?}}}"));
    Report {
        info,
        metrics,
        problems,
        attempted,
        failed: rep.failed,
        spans_jsonl,
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let setup = set_up(w, args.seed, args.seconds);
    let report = measure(w, args.seed, args.trace, &setup);
    if let Some(spans) = &report.spans_jsonl {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.jsonl", w.name(), args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("servebench: spans written to {path}"),
            Err(e) => eprintln!("servebench: cannot write {path}: {e}"),
        }
    }
    println!("{}", report.info);
    for p in &report.problems {
        eprintln!("servebench: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        json_metrics(&report.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload warm-repeat --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::WarmRepeat, 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload warm-repeat --seed x --seconds 10 --trace 0",
            "--workload warm-repeat --seed 3 --seconds 0 --trace 0",
            "--workload warm-repeat --seed 3 --seconds 10 --trace 2",
            "--workload warm-repeat --seed 3 --seconds 10",
            "--workload warm-repeat --seed 3 --seconds 10 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` is within the limits its reader enforces and names
    /// exactly the workloads and metrics this program prints.
    #[test]
    fn benchmark_json_names_what_the_benchmark_prints() {
        use bsmp::trace::json::{parse, Val};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |key: &str, f: &str| -> Vec<String> {
            let list = doc.get(key).and_then(Val::as_arr).expect(key);
            list.iter()
                .map(|m| m.get(f).and_then(Val::as_str).expect(f).to_string())
                .collect()
        };
        let names = |key: &str| field(key, "name");
        let valid = |n: &String| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let (workloads, e2e, per_layer) =
            (names("workloads"), names("end_to_end"), names("per_layer"));
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&per_layer.len()));
        let mut all: Vec<&String> = workloads.iter().chain(&e2e).chain(&per_layer).collect();
        assert!(all.iter().all(|n| valid(n)), "{all:?}");
        all.sort();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);

        let w = Workload::WarmRepeat;
        let setup = Setup {
            traffic: generate(w, 1, 100),
            reference: run_direct(&warmup_jobs(w)),
            setup_s: 0.5,
        };
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = measure(w, 1, trace, &setup);
            assert!(r.problems.is_empty(), "{:?}", r.problems);
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.2)).collect();
            let (names, units) = (names(key), field(key, "unit"));
            let want: Vec<(&str, &str)> = names
                .iter()
                .zip(&units)
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(got, want);
        }
    }
}
