//! `bsmp-repro` — run the full experiment suite of the reproduction and
//! print every table as markdown (the contents of EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! bsmp-repro [--quick] [--threads <N>] [--slow <ν>] [--fault-seed <u64>] [--faults <PLAN.json>] [--trace <PATH>] [--engine <NAME>] [E1 E4 ...]
//! bsmp-repro bench [--out <PATH>] [--meta <STR>] [--threads <N>] [--iters <K>] [--trace-counters] [--certify] [--against <BASELINE.json>]
//! bsmp-repro trace-validate <PATH>
//! bsmp-repro trace-certify <PATH>
//! bsmp-repro serve [--threads <N>] [--max-inflight <K>] [--plan-cache-bytes <B>]
//! ```
//!
//! * `--quick` — the seconds-scale variant of every experiment;
//! * `--threads <N>` — host OS threads for the stage-parallel engines
//!   (0 = auto-detect; model costs are identical for every value);
//! * `--slow <ν>` — run a faulted demo sweep with a uniform link
//!   slowdown ν ≥ 1 before the experiment tables;
//! * `--fault-seed <s>` — seed for the demo sweep's jitter/loss/crash
//!   plan (implies the sweep; default plan is pure slowdown);
//! * `--faults <PLAN.json>` — load a full scenario plan (DESIGN.md §14:
//!   delay distributions, asymmetric links, partition storms, churn)
//!   and run the demo sweep under it; mutually exclusive with the
//!   `--slow`/`--fault-seed` shorthands;
//! * `--trace <PATH>` — run a traced demo simulation and write its
//!   `bsmp-trace/v1` JSON log to `PATH` (honors `--slow`/`--faults`);
//! * `--engine <NAME>` — which engine the `--trace` demo runs, any name
//!   of the engine registry (`bsmp::EngineKind::ALL`): `naive1`,
//!   `multi1` (default), `pipelined1` or `dnc1` on a 64-node linear
//!   array; `naive2`, `multi2` or `dnc2` on an 8×8 mesh; `naive3` or
//!   `dnc3` on a 4×4×4 cube (the `dnc*` engines and `naive3` are
//!   uniprocessor, so they trace with p = 1);
//! * `E1 … E15` — restrict to the named experiments;
//! * `bench` — instead of the report, time the engine suite and write
//!   the wall-clock baseline as JSON (default `BENCH_engines.json`);
//!   with `--against <BASELINE.json>` the fresh points/sec figures are
//!   gated against a committed baseline (exit 1 on a >20% regression on
//!   any gated case);
//! * `trace-validate <PATH>` — parse a trace log and check every
//!   structural invariant plus the Theorem-1 regime tag, then exit;
//! * `trace-certify <PATH>` — everything `trace-validate` does, then
//!   sandwich the recorded slowdown and communication totals between
//!   the Gunther/Brent and Scquizzato–Silvestri-style floors and the
//!   engine's Theorem 1–5 upper envelope (exit 0 = certified, 1 = a
//!   measured figure escaped its envelope, 2 = the trace cannot be
//!   certified at all);
//! * `bench --certify` — also run the engine × regime certification
//!   matrix and write one verdict per cell into the bench document's
//!   `certificates` section (exit 1 if any cell is not `Certified`);
//! * `serve` — the batch server: read newline-delimited
//!   `bsmp-serve/v1` job requests from stdin until EOF, run them
//!   concurrently over the shared stage pool and cost-capsule cache,
//!   and write one JSON result line per job (completion order) plus a
//!   final summary line to stdout.  `--threads <N>` sizes that stage
//!   pool (default: one thread, so stages run on the calling job's
//!   thread and traces report `"workers": 1`); `--max-inflight <K>`
//!   bounds the in-flight window (default 8; the reader blocks, giving
//!   stdin backpressure);
//!   `--plan-cache-bytes <B>` caps that cache's byte budget.  A
//!   malformed request yields a typed `bad_request` line and never
//!   kills the server, so `serve` exits 0 whenever the batch ran to
//!   completion — per-job failures are results, counted in the summary
//!   line, not a server failure.
//!
//! Exit status: 0 on success, 1 on an engine/validation error, 2 on bad
//! command-line arguments.

use bsmp::serve_suite::run_shape;
use bsmp::workloads::{inputs, Eca};
use bsmp::{EngineKind, FaultPlan, Simulation, Strategy, Tracer};
use bsmp_bench::{all_experiments, perf, Scale};

struct Args {
    scale: Scale,
    wanted: Vec<String>,
    slow: Option<f64>,
    fault_seed: Option<u64>,
    faults_path: Option<String>,
    threads: usize,
    bench: Option<BenchArgs>,
    trace_out: Option<String>,
    trace_engine: EngineKind,
    trace_validate: Option<String>,
    trace_certify: Option<String>,
    serve: Option<ServeCliArgs>,
}

struct ServeCliArgs {
    max_inflight: usize,
    plan_cache_bytes: Option<usize>,
}

struct BenchArgs {
    out: String,
    meta: String,
    iters: u32,
    trace_counters: bool,
    certify: bool,
    against: Option<String>,
}

fn parse_args(raw: &[String], valid_ids: &[&str]) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Full,
        wanted: Vec::new(),
        slow: None,
        fault_seed: None,
        faults_path: None,
        threads: 0,
        bench: None,
        trace_out: None,
        trace_engine: EngineKind::Multi1,
        trace_validate: None,
        trace_certify: None,
        serve: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--threads" => {
                let v = it.next().ok_or("--threads requires a count (0 = auto)")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a thread count"))?;
            }
            "--slow" => {
                let v = it.next().ok_or("--slow requires a value (ν ≥ 1)")?;
                let nu: f64 = v
                    .parse()
                    .map_err(|_| format!("--slow: `{v}` is not a number"))?;
                args.slow = Some(nu);
            }
            "--fault-seed" => {
                let v = it.next().ok_or("--fault-seed requires a u64 value")?;
                let seed: u64 = v
                    .parse()
                    .map_err(|_| format!("--fault-seed: `{v}` is not a u64"))?;
                args.fault_seed = Some(seed);
            }
            "--faults" => {
                let v = it.next().ok_or("--faults requires a plan path (JSON)")?;
                args.faults_path = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace requires an output path")?;
                args.trace_out = Some(v.clone());
            }
            "--engine" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--engine requires a name ({})", engine_names()))?;
                args.trace_engine = EngineKind::parse(v).ok_or_else(|| {
                    format!("--engine: `{v}` is not an engine ({})", engine_names())
                })?;
            }
            "trace-validate" => {
                let v = it.next().ok_or("trace-validate requires a trace path")?;
                args.trace_validate = Some(v.clone());
            }
            "trace-certify" => {
                let v = it.next().ok_or("trace-certify requires a trace path")?;
                args.trace_certify = Some(v.clone());
            }
            "serve" => {
                args.serve = Some(ServeCliArgs {
                    max_inflight: 8,
                    plan_cache_bytes: None,
                });
            }
            "--max-inflight" => {
                let v = it.next().ok_or("--max-inflight requires a count ≥ 1")?;
                let k: usize = v
                    .parse()
                    .map_err(|_| format!("--max-inflight: `{v}` is not a count"))?;
                if k == 0 {
                    return Err("--max-inflight must be ≥ 1".into());
                }
                match &mut args.serve {
                    Some(s) => s.max_inflight = k,
                    None => return Err("--max-inflight is only valid after `serve`".into()),
                }
            }
            "--plan-cache-bytes" => {
                let v = it
                    .next()
                    .ok_or("--plan-cache-bytes requires a byte budget")?;
                let b: usize = v
                    .parse()
                    .map_err(|_| format!("--plan-cache-bytes: `{v}` is not a byte count"))?;
                match &mut args.serve {
                    Some(s) => s.plan_cache_bytes = Some(b),
                    None => return Err("--plan-cache-bytes is only valid after `serve`".into()),
                }
            }
            "bench" => {
                args.bench = Some(BenchArgs {
                    out: "BENCH_engines.json".to_string(),
                    meta: String::new(),
                    iters: 5,
                    trace_counters: false,
                    certify: false,
                    against: None,
                });
            }
            "--out" => {
                let v = it.next().ok_or("--out requires a path")?;
                match &mut args.bench {
                    Some(b) => b.out = v.clone(),
                    None => return Err("--out is only valid after `bench`".into()),
                }
            }
            "--meta" => {
                let v = it.next().ok_or("--meta requires a string")?;
                match &mut args.bench {
                    Some(b) => b.meta = v.clone(),
                    None => return Err("--meta is only valid after `bench`".into()),
                }
            }
            "--iters" => {
                let v = it.next().ok_or("--iters requires a count ≥ 1")?;
                let k: u32 = v
                    .parse()
                    .map_err(|_| format!("--iters: `{v}` is not a count"))?;
                if k == 0 {
                    return Err("--iters must be ≥ 1".into());
                }
                match &mut args.bench {
                    Some(b) => b.iters = k,
                    None => return Err("--iters is only valid after `bench`".into()),
                }
            }
            "--trace-counters" => match &mut args.bench {
                Some(b) => b.trace_counters = true,
                None => return Err("--trace-counters is only valid after `bench`".into()),
            },
            "--certify" => match &mut args.bench {
                Some(b) => b.certify = true,
                None => return Err("--certify is only valid after `bench`".into()),
            },
            "--against" => {
                let v = it.next().ok_or("--against requires a baseline path")?;
                match &mut args.bench {
                    Some(b) => b.against = Some(v.clone()),
                    None => return Err("--against is only valid after `bench`".into()),
                }
            }
            id if id.starts_with('E') => {
                if !valid_ids.contains(&id) {
                    return Err(format!(
                        "unknown experiment `{id}` — valid ids: {}",
                        valid_ids.join(", ")
                    ));
                }
                args.wanted.push(id.to_string());
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if args.faults_path.is_some() && (args.slow.is_some() || args.fault_seed.is_some()) {
        return Err(
            "--faults replaces the --slow/--fault-seed shorthands; pass one or the other".into(),
        );
    }
    Ok(args)
}

/// Load, parse, and validate a scenario plan file for `--faults`.
/// Any failure here is a bad-argument error (exit status 2): the plan
/// never reached an engine.
fn load_plan(path: &str) -> Result<FaultPlan, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let plan = FaultPlan::from_json(&src).map_err(|e| format!("{path}: {e}"))?;
    plan.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(plan)
}

/// The `--slow`/`--fault-seed`/`--faults` demo: one TwoRegime run under
/// the scenario plan, checked against the clean run, reported as a
/// small markdown table.
fn fault_sweep(plan: &FaultPlan, label: &str, input_seed: u64) -> Result<(), bsmp::SimError> {
    let (n, p, steps) = (64u64, 4u64, 64i64);
    let init = inputs::random_bits(input_seed, n as usize);
    let prog = Eca::rule110();
    let sim = Simulation::try_linear(n, p, 1)?;
    let base = sim
        .strategy(Strategy::TwoRegime)
        .try_run(&prog, &init, steps)?;
    let rep = sim
        .strategy(Strategy::TwoRegime)
        .faults(*plan)
        .try_run(&prog, &init, steps)?;
    rep.sim.check_matches(&base.sim.mem, &base.sim.values)?;
    let f = &rep.sim.faults;
    println!("## Fault sweep — {label} (n = {n}, p = {p})\n");
    println!(
        "| T_p clean | T_p faulted | ratio | retries | recovered | injected delay | storm proc-stages | departures | rejoins |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    println!(
        "| {:.1} | {:.1} | {:.3} | {} | {} | {:.1} | {} | {} | {} |\n",
        base.sim.host_time,
        rep.sim.host_time,
        rep.sim.host_time / base.sim.host_time,
        f.retries,
        f.recovered_stages,
        f.injected_delay,
        f.outage_stages,
        f.departures,
        f.rejoins,
    );
    Ok(())
}

/// The engine names `--engine` accepts, `|`-separated.
fn engine_names() -> String {
    EngineKind::ALL.map(EngineKind::name).join("|")
}

/// The `--trace` demo: one traced run of the `--engine` selection
/// (faulted if `--slow` or `--faults` was given), validated, then
/// written as `bsmp-trace/v1` JSON.
fn trace_demo(
    path: &str,
    kind: EngineKind,
    plan: Option<&FaultPlan>,
    input_seed: u64,
) -> Result<(), String> {
    // n = 64 guest nodes (a 4×4×4 cube at d = 3) running the serve
    // suite's m = 1 workload.  The d ≥ 2 demos run fewer steps because
    // a mesh stage touches every node.
    let (n, p) = (64u64, if kind.uniprocessor() { 1 } else { 4 });
    let steps = if kind.d() == 1 { 64 } else { 16 };
    let plan = plan.copied().unwrap_or_default();
    let mut tracer = Tracer::recording();
    let (name, d) = (kind.name(), kind.d());
    run_shape(name, d, n, 1, p, steps, input_seed, &plan, &mut tracer)
        .map_err(|e| e.to_string())?;
    let trace = tracer
        .take()
        .expect("recording tracer always yields a trace");
    bsmp::validate_trace(&trace)?;
    std::fs::write(path, trace.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "wrote {path}: engine {}, {} stages, slowdown {:.2} = {:.2} (Brent) × {:.4} (locality), regime {}\n",
        trace.engine,
        trace.summary.stages,
        trace.summary.slowdown,
        trace.summary.brent_term,
        trace.summary.locality_term,
        trace.summary.regime,
    );
    Ok(())
}

/// The `trace-validate` subcommand: parse + full structural/semantic
/// validation of a written trace log.
fn trace_validate(path: &str) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = bsmp::RunTrace::from_json(&src)?;
    bsmp::validate_trace(&trace)?;
    println!(
        "{path}: OK — engine {}, {} stages, slowdown {:.3}, regime {}",
        trace.engine, trace.summary.stages, trace.summary.slowdown, trace.summary.regime,
    );
    Ok(())
}

/// The `trace-certify` subcommand: full validation, then the two-sided
/// bound sandwich.  Returns the process exit code: 0 certified, 1
/// violated, 2 uncertifiable (unreadable, malformed, stamped with the
/// wrong regime, or parameters outside the bounds' domain).
fn trace_certify(path: &str) -> i32 {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bsmp-repro: trace-certify: cannot read {path}: {e}");
            return 2;
        }
    };
    let trace = match bsmp::RunTrace::from_json(&src) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bsmp-repro: trace-certify: {path}: {e}");
            return 2;
        }
    };
    let cert = match bsmp::trace::certify::certify(&trace) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bsmp-repro: trace-certify: {path}: {e}");
            return 2;
        }
    };
    println!(
        "{path}: {} — engine {}, regime {}, slowdown {:.3} in [{:.3}, {:.3}], \
         comm {:.1} in [{:.1}, {:.1}], margin {:.2} ({} stages)",
        cert.verdict,
        cert.engine,
        cert.regime,
        cert.measured,
        cert.lower,
        cert.upper,
        cert.comm_measured,
        cert.comm_lower,
        cert.comm_upper,
        cert.margin,
        cert.stages.len(),
    );
    for f in &cert.failures {
        eprintln!("bsmp-repro: trace-certify: {path}: {f}");
    }
    match cert.verdict {
        bsmp::trace::certify::Verdict::Certified => 0,
        bsmp::trace::certify::Verdict::Violated => 1,
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let experiments = all_experiments();
    let valid_ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();

    let args = match parse_args(&raw, &valid_ids) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bsmp-repro: {msg}");
            eprintln!(
                "usage: bsmp-repro [--quick] [--threads <N>] [--slow <ν>] [--fault-seed <u64>] [--faults <PLAN.json>] [--trace <PATH>] [--engine {}] [E1 E4 ...]\n\
                 \x20      bsmp-repro bench [--out <PATH>] [--meta <STR>] [--threads <N>] [--iters <K>] [--trace-counters] [--certify] [--against <BASELINE.json>]\n\
                 \x20      bsmp-repro trace-validate <PATH>\n\
                 \x20      bsmp-repro trace-certify <PATH>\n\
                 \x20      bsmp-repro serve [--threads <N>] [--max-inflight <K>] [--plan-cache-bytes <B>]",
                engine_names()
            );
            std::process::exit(2);
        }
    };

    // Resolve the scenario plan once: a `--faults` file, or the legacy
    // `--slow`/`--fault-seed` shorthands. A malformed or invalid plan
    // file is a usage error (exit 2) — it never reached an engine.
    let plan: Option<FaultPlan> = if let Some(path) = &args.faults_path {
        match load_plan(path) {
            Ok(p) => Some(p),
            Err(msg) => {
                eprintln!("bsmp-repro: --faults: {msg}");
                std::process::exit(2);
            }
        }
    } else if args.slow.is_some() || args.fault_seed.is_some() {
        let mut p = FaultPlan::uniform_slowdown(args.slow.unwrap_or(1.0));
        if let Some(s) = args.fault_seed {
            p = p.seed(s).loss(50, 3).random_crashes(10);
        }
        Some(p)
    } else {
        None
    };
    let plan_label = if let Some(path) = &args.faults_path {
        format!("plan `{path}`")
    } else {
        format!(
            "ν = {}, seed = {:?}",
            args.slow.unwrap_or(1.0),
            args.fault_seed
        )
    };
    let input_seed = args.fault_seed.unwrap_or(1);

    if let Some(path) = &args.trace_validate {
        if let Err(msg) = trace_validate(path) {
            eprintln!("bsmp-repro: trace-validate: {msg}");
            std::process::exit(1);
        }
        return;
    }

    if let Some(path) = &args.trace_certify {
        std::process::exit(trace_certify(path));
    }

    // Plumb the host thread budget to every engine (ExecPolicy::auto()
    // resolves to this process default).
    bsmp::set_default_threads(args.threads);

    if let Some(serve) = &args.serve {
        if let Some(bytes) = serve.plan_cache_bytes {
            bsmp::plan_cache().set_capacity(bytes);
        }
        // One persistent stage pool shared by every concurrent job; each
        // job keeps its own per-run stage buffers, so engines stay
        // re-entrant.  Without --threads the pool has one thread.
        bsmp::init_shared_pool(args.threads);
        let input = std::io::BufReader::new(std::io::stdin());
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        let opts = bsmp::serve_suite::ServeOptions {
            max_inflight: serve.max_inflight,
        };
        match bsmp::serve_suite::serve(input, &mut out, opts) {
            Ok(summary) => {
                eprintln!(
                    "bsmp-repro: serve: {} job(s), {} ok, {} error(s)",
                    summary.jobs, summary.ok, summary.errors
                );
            }
            Err(e) => {
                eprintln!("bsmp-repro: serve: i/o failure: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(bench) = &args.bench {
        let cases = perf::run_engine_suite(args.threads, bench.iters);
        let traces = if bench.trace_counters {
            perf::run_trace_counters(args.threads)
        } else {
            Vec::new()
        };
        let certs = if bench.certify {
            perf::run_certify_suite()
        } else {
            Vec::new()
        };
        // The batch-server warm/cold suite always rides along: repeated
        // -shape dnc/multi traffic, cold (cleared plan cache) vs warm
        // (pre-seeded).  The warm/cold ratio floor is a CI gate.
        let serves = perf::run_serve_suite(8);
        let doc = perf::to_json(&cases, &traces, &certs, &serves, args.threads, &bench.meta);
        if let Err(e) = perf::validate_json(&doc) {
            eprintln!("bsmp-repro: bench produced a malformed document: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&bench.out, &doc) {
            eprintln!("bsmp-repro: cannot write {}: {e}", bench.out);
            std::process::exit(1);
        }
        for c in &cases {
            println!(
                "{:<28} median {:>12.6} s  min {:>12.6} s  {:>14.0} points/s{}  ({} iters)",
                c.name,
                c.m.median_s,
                c.m.min_s,
                c.pps(),
                if c.gated { "  [gated]" } else { "" },
                c.m.iters
            );
        }
        for c in &certs {
            println!(
                "certify {:<14} {:>10.1} <= {:>12.1} <= {:>14.1}  margin {:>7.2}  {}",
                c.case, c.lower, c.measured, c.upper, c.margin, c.verdict
            );
        }
        for s in &serves {
            println!(
                "serve   {:<28} cold {:>9.1} jobs/s  warm {:>11.1} jobs/s  ratio {:>8.1}×",
                s.name,
                s.cold_jps,
                s.warm_jps,
                s.ratio()
            );
        }
        match perf::serve_gate(&serves) {
            Ok(n) => println!(
                "serve warm/cold gate: {n} case(s) at ≥ {:.0}× cold throughput",
                perf::SERVE_WARM_RATIO_FLOOR
            ),
            Err(e) => {
                eprintln!("bsmp-repro: bench: serve warm path regressed: {e}");
                std::process::exit(1);
            }
        }
        println!("wrote {} ({} cases)", bench.out, cases.len());
        if certs.iter().any(|c| c.verdict != "Certified") {
            eprintln!("bsmp-repro: bench --certify: a matrix cell failed certification");
            std::process::exit(1);
        }
        if let Some(base_path) = &bench.against {
            let committed = match std::fs::read_to_string(base_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bsmp-repro: cannot read baseline {base_path}: {e}");
                    std::process::exit(1);
                }
            };
            // Two re-measurement attempts absorb transient slow phases
            // of shared hosts; a real regression fails all three.
            let mut gated = cases.clone();
            match perf::gate_with_retries(&committed, &mut gated, 2, || {
                eprintln!("bsmp-repro: gate failed; re-measuring (transient host slow phase?)");
                perf::run_engine_suite(args.threads, bench.iters)
            }) {
                Ok(n) => println!(
                    "regression gate vs {base_path}: {n} gated case(s) within {:.0}% of baseline",
                    perf::GATE_FRACTION * 100.0
                ),
                Err(e) => {
                    eprintln!("bsmp-repro: points/sec regression vs {base_path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    if let Some(path) = &args.trace_out {
        if let Err(msg) = trace_demo(path, args.trace_engine, plan.as_ref(), input_seed) {
            eprintln!("bsmp-repro: trace: {msg}");
            std::process::exit(1);
        }
    }

    if let Some(plan) = &plan {
        if let Err(e) = fault_sweep(plan, &plan_label, input_seed) {
            eprintln!("bsmp-repro: fault sweep failed: {e}");
            std::process::exit(1);
        }
    }

    println!("# Reproduction report — Bilardi & Preparata, SPAA 1995");
    println!(
        "\nScale: {:?}. Every engine run in these tables also re-verified\n\
         functional equivalence against direct guest execution.\n",
        args.scale
    );
    for exp in experiments {
        if !args.wanted.is_empty() && !args.wanted.iter().any(|w| w == exp.id) {
            continue;
        }
        println!("## {} — {}\n", exp.id, exp.artifact);
        for table in (exp.run)(args.scale) {
            println!("{}", table.to_markdown());
        }
    }
}
