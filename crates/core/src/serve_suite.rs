//! Simulation-as-a-service: the `bsmp-serve/v1` batch protocol.
//!
//! A server process owns one shared [`bsmp_machine::StagePool`] and one
//! global [`bsmp_machine::PlanCache`] and answers newline-delimited JSON
//! job requests read from stdin with one JSON result line per job, in
//! *completion* order (each line carries the request's `id`).  The
//! per-job pipeline is the same engine dispatch `bench --certify` uses
//! (see [`crate::certify_suite`]), so a serve result is bit-identical to
//! the single-shot run of the same request.
//!
//! ## Warm path: the cost capsule
//!
//! Model costs (`host_time`, the meter, fault accounting) are *geometric*
//! functions of `(engine, shape, fault plan)` — they never depend on the
//! guest's input values (the functional-equivalence and chaos suites
//! enforce this).  So after one cold run the server memoizes the cost
//! side of the report in a `CostCapsule` keyed by shape + canonical
//! fault-plan JSON, and answers repeats by running only the *direct
//! guest* execution (for `mem`/`values`, which do depend on the seed)
//! and splicing the capsule's costs back in.  Engines guarantee
//! `mem`/`values` equal to direct guest execution, so the warm report is
//! `f64::to_bits`-identical to a cold one — at a fraction of the cost
//! (a D&C simulation is orders of magnitude slower than the guest run
//! it simulates; that gap is the serve bench's warm/cold ratio).
//!
//! A capsule is only stored for *successful* runs, and a hit that needs
//! a trace but finds a trace-less capsule re-runs cold and upgrades the
//! entry.  Cached traces carry the recording run's `wall_ns` (wall time
//! is host observability, not a model quantity).

use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use bsmp_faults::{FaultPlan, FaultStats};
use bsmp_hram::{CostMeter, Word};
use bsmp_machine::{plan_cache, run_linear, run_mesh, run_volume, GuestRun, MachineSpec, PlanKey};
use bsmp_sim::{engine, EngineKind, RunOpts, SimError, SimReport};
use bsmp_trace::certify::{certify, Certificate};
use bsmp_trace::json::{escape, num, parse, Val};
use bsmp_trace::{RunTrace, Tracer};
use bsmp_workloads::{inputs, CyclicWave, Eca, Parity3d, PlaneWave, VonNeumannLife};

/// Protocol schema stamped on every request/response line.
pub const SERVE_SCHEMA: &str = "bsmp-serve/v1";

/// The input seed of a job that names none — shared with the
/// certification matrix, so a serve job and its `bench --certify` twin
/// start from the same image.
pub fn default_seed(n: u64, m: u64, p: u64) -> u64 {
    0xB5_u64.wrapping_mul(n).wrapping_add(m * 31 + p * 7)
}

/// The canonical guest workload per `(d, m)`, shared by [`run_shape`]
/// and [`run_guest`] (and through them the certification matrix):
/// `m = 1` runs rule 110 / Fredkin life / 3-D parity on random bits;
/// `m > 1` runs the cyclic/plane wave at density `m` on random words.
/// This is its initial image of `n` nodes.
fn canonical_init(seed: u64, n: u64, m: u64) -> Vec<Word> {
    let (n, m) = (n as usize, m as usize);
    if m == 1 {
        inputs::random_bits(seed, n)
    } else {
        inputs::random_words(seed, n * m, 50)
    }
}

/// The side of a `d = 3` mesh of `n` nodes, if `n` is a cube.
fn cube_side(n: u64) -> Option<usize> {
    let side = (n as f64).cbrt().round() as u64;
    (side.checked_pow(3) == Some(n)).then_some(side as usize)
}

/// Run one engine on the canonical workload for its shape.  This is the
/// single dispatch point behind both the certification matrix and the
/// batch server: every engine's `try_` path, with tracing observed by
/// `tracer` and the report returned to the caller.
#[allow(clippy::too_many_arguments)] // one flat shape tuple, by design
pub fn run_shape(
    engine: &'static str,
    d: u8,
    n: u64,
    m: u64,
    p: u64,
    steps: i64,
    seed: u64,
    plan: &FaultPlan,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let kind = EngineKind::parse(engine).ok_or(SimError::Internal {
        what: "unknown engine",
    })?;
    let opts = RunOpts {
        plan: *plan,
        ..RunOpts::default()
    };
    match d {
        1 => {
            let spec = MachineSpec::try_new(1, n, p, m)?;
            let init = canonical_init(seed, n, m);
            if m == 1 {
                engine::run_linear(kind, &spec, &Eca::rule110(), &init, steps, opts, tracer)
            } else {
                let prog = CyclicWave::new(m as usize);
                engine::run_linear(kind, &spec, &prog, &init, steps, opts, tracer)
            }
        }
        2 => {
            let spec = MachineSpec::try_new(2, n, p, m)?;
            let init = canonical_init(seed, n, m);
            if m == 1 {
                let prog = VonNeumannLife::fredkin();
                engine::run_mesh(kind, &spec, &prog, &init, steps, opts, tracer)
            } else {
                let prog = PlaneWave::new(m as usize);
                engine::run_mesh(kind, &spec, &prog, &init, steps, opts, tracer)
            }
        }
        3 => {
            let side = cube_side(n)
                .filter(|_| m == 1 && p == 1)
                .ok_or(SimError::Internal {
                    what: "d = 3 engines need a cube n with m = p = 1",
                })?;
            let init = canonical_init(seed, n, 1);
            engine::run_volume(kind, side, &Parity3d, &init, steps, opts, tracer)
        }
        _ => Err(SimError::DimensionMismatch {
            expected: 1,
            got: d,
        }),
    }
}

/// Direct guest execution of the canonical workload — the warm path's
/// source of `mem`/`values` (and the reference the engines are verified
/// against in every functional-equivalence test).
pub fn run_guest(d: u8, n: u64, m: u64, steps: i64, seed: u64) -> Result<GuestRun, SimError> {
    match d {
        1 => {
            let spec = MachineSpec::try_new(1, n, 1, m)?;
            let init = canonical_init(seed, n, m);
            Ok(if m == 1 {
                run_linear(&spec, &Eca::rule110(), &init, steps)
            } else {
                run_linear(&spec, &CyclicWave::new(m as usize), &init, steps)
            })
        }
        2 => {
            let spec = MachineSpec::try_new(2, n, 1, m)?;
            let init = canonical_init(seed, n, m);
            Ok(if m == 1 {
                run_mesh(&spec, &VonNeumannLife::fredkin(), &init, steps)
            } else {
                run_mesh(&spec, &PlaneWave::new(m as usize), &init, steps)
            })
        }
        3 => {
            let side = cube_side(n).filter(|_| m == 1).ok_or(SimError::Internal {
                what: "d = 3 guest needs a cube n with m = 1",
            })?;
            let init = canonical_init(seed, n, 1);
            Ok(run_volume(side, 1, &Parity3d, &init, steps))
        }
        _ => Err(SimError::DimensionMismatch {
            expected: 1,
            got: d,
        }),
    }
}

/// One parsed `bsmp-serve/v1` job request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen id, echoed on the result line.
    pub id: u64,
    /// Engine (interned; fixes the layout dimension `d`).
    pub engine: &'static str,
    pub d: u8,
    pub n: u64,
    pub m: u64,
    pub p: u64,
    pub steps: i64,
    /// Input seed (defaults to the certification matrix's formula).
    pub seed: u64,
    /// Canonical fault-plan JSON (exactly the capsule-key salt), `None`
    /// for a fault-free run.
    pub faults: Option<String>,
    /// Include the full run trace in the result line.
    pub trace: bool,
    /// Certify the trace and include the verdict (implies tracing).
    pub certify: bool,
}

fn bad(job_id: u64, what: impl Into<String>) -> SimError {
    SimError::BadRequest {
        job_id,
        what: what.into(),
    }
}

/// Serialize a parsed JSON value back to a canonical single-line string
/// (object key order preserved) — the capsule key's fault-plan salt.
fn val_to_string(v: &Val, out: &mut String) {
    match v {
        Val::Null => out.push_str("null"),
        Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Val::Num(x) => out.push_str(&num(*x)),
        Val::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Val::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                val_to_string(item, out);
            }
            out.push(']');
        }
        Val::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\":");
                val_to_string(item, out);
            }
            out.push('}');
        }
    }
}

/// Parse one request line.  Every failure is a typed
/// [`SimError::BadRequest`] carrying the request's id when one could be
/// read (0 otherwise) — a malformed line never panics and never kills
/// the server.
pub fn parse_job(line: &str) -> Result<JobSpec, SimError> {
    let doc = parse(line).map_err(|e| bad(0, format!("unparseable JSON: {e}")))?;
    if !matches!(doc, Val::Obj(_)) {
        return Err(bad(0, "request must be a JSON object"));
    }
    let id = match doc.get("id") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(0, "\"id\" must be a non-negative integer"))?,
        None => return Err(bad(0, "missing \"id\"")),
    };
    let u64_field = |key: &str, default: Option<u64>| -> Result<u64, SimError> {
        match doc.get(key) {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad(id, format!("\"{key}\" must be a non-negative integer"))),
            None => default.ok_or_else(|| bad(id, format!("missing \"{key}\""))),
        }
    };
    let bool_field = |key: &str| -> Result<bool, SimError> {
        match doc.get(key) {
            Some(Val::Bool(b)) => Ok(*b),
            Some(_) => Err(bad(id, format!("\"{key}\" must be a boolean"))),
            None => Ok(false),
        }
    };
    let engine_name = doc
        .get("engine")
        .and_then(Val::as_str)
        .ok_or_else(|| bad(id, "missing or non-string \"engine\""))?;
    let kind = EngineKind::parse(engine_name)
        .ok_or_else(|| bad(id, format!("unknown engine \"{engine_name}\"")))?;
    let (engine, d) = (kind.name(), kind.d());
    let n = u64_field("n", None)?;
    let m = u64_field("m", Some(1))?;
    let p = u64_field("p", Some(1))?;
    let steps = u64_field("steps", None)?;
    if steps > i64::MAX as u64 {
        return Err(bad(id, "\"steps\" out of range"));
    }
    let seed = u64_field("seed", Some(default_seed(n, m, p)))?;
    let faults = match doc.get("faults") {
        None | Some(Val::Null) => None,
        Some(v @ Val::Obj(_)) => {
            let mut s = String::new();
            val_to_string(v, &mut s);
            // Surface plan shape errors at parse time, as this job's
            // typed error.
            FaultPlan::from_json(&s)
                .map_err(|e| bad(id, format!("bad fault plan: {}", e.message)))?;
            Some(s)
        }
        Some(_) => return Err(bad(id, "\"faults\" must be an object")),
    };
    if d == 3 && (cube_side(n).is_none() || m != 1 || p != 1) {
        return Err(bad(id, "d = 3 engines need a cube n with m = p = 1"));
    }
    Ok(JobSpec {
        id,
        engine,
        d,
        n,
        m,
        p,
        steps: steps as i64,
        seed,
        faults,
        trace: bool_field("trace")?,
        certify: bool_field("certify")?,
    })
}

/// The cost side of a successful run, memoized per shape (see module
/// docs).  `mem`/`values` are deliberately absent: they depend on the
/// job's seed and come from the warm path's direct guest run.
struct CostCapsule {
    host_time: f64,
    guest_time: f64,
    meter: CostMeter,
    space: usize,
    stages: u64,
    faults: FaultStats,
    core_fallback: Option<&'static str>,
    trace: Option<RunTrace>,
}

fn capsule_key(job: &JobSpec) -> PlanKey {
    PlanKey {
        engine: job.engine,
        d: job.d,
        n: job.n,
        p: job.p,
        m: job.m,
        steps: job.steps,
        core: 0,
        extra: 0,
        // The full canonical plan text, not a hash: no collisions.
        salt: format!("capsule|{}", job.faults.as_deref().unwrap_or("")),
    }
}

fn capsule_bytes(c: &CostCapsule) -> usize {
    let trace_bytes = c
        .trace
        .as_ref()
        .map(|t| 256 + t.stages.len() * 200)
        .unwrap_or(0);
    std::mem::size_of::<CostCapsule>() + trace_bytes
}

/// A completed job: the full report plus the optional trace/certificate
/// payloads and whether the cost side came from the plan cache.
pub struct JobOutcome {
    pub report: SimReport,
    pub trace: Option<RunTrace>,
    pub cert: Option<Certificate>,
    pub cache_hit: bool,
}

/// Stamp Theorem 1's regime for `(d, n, m, p)` into a recorded trace
/// (the engines leave the tag empty; the certifier cross-checks it).
pub fn stamp_regime(trace: &mut RunTrace, d: u8, n: u64, m: u64, p: u64) {
    trace.summary.regime = format!(
        "{:?}",
        bsmp_analytic::theorem1::range(d, n as f64, m as f64, p as f64)
    );
}

/// Execute one job: cold path through the engine (memoizing the cost
/// capsule on success), warm path through the direct guest run + the
/// capsule.  Results are bit-identical either way.
pub fn run_job(job: &JobSpec) -> Result<JobOutcome, SimError> {
    let want_trace = job.trace || job.certify;
    let key = capsule_key(job);
    if let Some(c) = plan_cache().get_as::<CostCapsule>(&key) {
        // A hit that needs a trace the capsule lacks falls through to a
        // cold run (which upgrades the entry).
        if !want_trace || c.trace.is_some() {
            let guest = run_guest(job.d, job.n, job.m, job.steps, job.seed)?;
            let report = SimReport {
                mem: guest.mem,
                values: guest.values,
                host_time: c.host_time,
                guest_time: c.guest_time,
                meter: c.meter,
                space: c.space,
                stages: c.stages,
                faults: c.faults.clone(),
                core_fallback: c.core_fallback,
            };
            let trace = if want_trace { c.trace.clone() } else { None };
            let cert = match (&trace, job.certify) {
                (Some(t), true) => Some(certify(t).map_err(|e| SimError::Uncertifiable {
                    message: e.to_string(),
                })?),
                _ => None,
            };
            return Ok(JobOutcome {
                report,
                trace,
                cert,
                cache_hit: true,
            });
        }
    }
    let plan = match &job.faults {
        Some(src) => FaultPlan::from_json(src)?,
        None => FaultPlan::none(),
    };
    let mut tracer = if want_trace {
        Tracer::recording()
    } else {
        Tracer::off()
    };
    let report = run_shape(
        job.engine,
        job.d,
        job.n,
        job.m,
        job.p,
        job.steps,
        job.seed,
        &plan,
        &mut tracer,
    )?;
    let trace = tracer.take().map(|mut t| {
        stamp_regime(&mut t, job.d, job.n, job.m, job.p);
        t
    });
    let cert = match (&trace, job.certify) {
        (Some(t), true) => Some(certify(t).map_err(|e| SimError::Uncertifiable {
            message: e.to_string(),
        })?),
        _ => None,
    };
    let capsule = CostCapsule {
        host_time: report.host_time,
        guest_time: report.guest_time,
        meter: report.meter,
        space: report.space,
        stages: report.stages,
        faults: report.faults.clone(),
        core_fallback: report.core_fallback,
        trace: trace.clone(),
    };
    let bytes = capsule_bytes(&capsule);
    plan_cache().insert(key, Arc::new(capsule), bytes);
    Ok(JobOutcome {
        report,
        trace,
        cert,
        cache_hit: false,
    })
}

/// FNV-1a fingerprint of a word array — result lines carry fingerprints
/// instead of the full (potentially huge) output arrays.
pub fn fingerprint(words: &[Word]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Format a successful job's result line (single-line JSON).
pub fn result_line(job: &JobSpec, out: &JobOutcome) -> String {
    let r = &out.report;
    let mut s = String::with_capacity(512);
    s.push_str(&format!(
        "{{\"schema\": \"{SERVE_SCHEMA}\", \"id\": {}, \"ok\": true, \"engine\": \"{}\", \
         \"d\": {}, \"n\": {}, \"m\": {}, \"p\": {}, \"steps\": {}, \"seed\": {}, \
         \"cache_hit\": {}, \"host_time\": {}, \"guest_time\": {}, \"slowdown\": {}, \
         \"compute\": {}, \"access\": {}, \"transfer\": {}, \"comm\": {}, \"ops\": {}, \
         \"space\": {}, \"stages\": {}, \"mem_fp\": \"{:#018x}\", \"values_fp\": \"{:#018x}\"",
        job.id,
        job.engine,
        job.d,
        job.n,
        job.m,
        job.p,
        job.steps,
        job.seed,
        out.cache_hit,
        num(r.host_time),
        num(r.guest_time),
        num(r.slowdown()),
        num(r.meter.compute),
        num(r.meter.access),
        num(r.meter.transfer),
        num(r.meter.comm),
        r.meter.ops,
        r.space,
        r.stages,
        fingerprint(&r.mem),
        fingerprint(&r.values),
    ));
    if job.faults.is_some() {
        let f = &r.faults;
        s.push_str(&format!(
            ", \"faults\": {{\"retries\": {}, \"recovered\": {}, \"crashes\": {}, \
             \"injected_delay\": {}, \"outage_stages\": {}, \"deferred_comm\": {}, \
             \"heals\": {}, \"departures\": {}, \"rejoins\": {}, \"backoff_retries\": {}, \
             \"backoff_delay\": {}}}",
            f.retries,
            f.recovered_stages,
            f.crashes,
            num(f.injected_delay),
            f.outage_stages,
            num(f.deferred_comm),
            f.heals,
            f.departures,
            f.rejoins,
            f.backoff_retries,
            num(f.backoff_delay),
        ));
    }
    if job.trace {
        if let Some(t) = &out.trace {
            s.push_str(", \"trace\": ");
            s.push_str(&t.to_json().replace('\n', ""));
        }
    }
    if let Some(c) = &out.cert {
        s.push_str(", \"cert\": ");
        s.push_str(&c.to_json().replace('\n', ""));
    }
    s.push('}');
    s
}

/// Format a failed job's result line.  `BadRequest` keeps its job id and
/// is tagged `"kind": "bad_request"`; engine failures are `"sim_error"`.
pub fn error_line(fallback_id: u64, err: &SimError) -> String {
    let (id, kind) = match err {
        SimError::BadRequest { job_id, .. } => (*job_id, "bad_request"),
        _ => (fallback_id, "sim_error"),
    };
    format!(
        "{{\"schema\": \"{SERVE_SCHEMA}\", \"id\": {id}, \"ok\": false, \"kind\": \"{kind}\", \
         \"error\": \"{}\"}}",
        escape(&err.to_string())
    )
}

/// Final summary line: job counts plus the plan cache's counters.
pub fn summary_line(jobs: u64, ok: u64, errors: u64) -> String {
    let st = plan_cache().stats();
    format!(
        "{{\"schema\": \"{SERVE_SCHEMA}\", \"summary\": true, \"jobs\": {jobs}, \"ok\": {ok}, \
         \"errors\": {errors}, \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"entries\": {}, \"bytes\": {}, \"capacity\": {}}}}}",
        st.hits, st.misses, st.evictions, st.entries, st.bytes, st.capacity
    )
}

/// Server options.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Upper bound on jobs admitted but not yet answered; the reader
    /// blocks (backpressure on stdin) once the window is full.  Also the
    /// worker-thread count.
    pub max_inflight: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_inflight: 8 }
    }
}

/// What [`serve`] did, for smoke tests and exit codes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    pub jobs: u64,
    pub ok: u64,
    pub errors: u64,
}

/// Run the batch server: read newline-delimited requests from `input`
/// until EOF, answer each on `output` in completion order, then emit one
/// summary line.  Malformed requests yield a typed error line and never
/// kill the server; concurrency is bounded by
/// [`ServeOptions::max_inflight`].
pub fn serve<R: BufRead + Send, W: Write>(
    input: R,
    output: &mut W,
    opts: ServeOptions,
) -> std::io::Result<ServeSummary> {
    let workers = opts.max_inflight.max(1);
    // Rendezvous job queue: the reader blocks until a worker is free, so
    // at most `workers` jobs are ever in flight.
    let (job_tx, job_rx) = mpsc::sync_channel::<JobSpec>(0);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (res_tx, res_rx) = mpsc::channel::<(bool, String)>();

    let mut summary = ServeSummary::default();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            let tx = res_tx.clone();
            scope.spawn(move || loop {
                let job = {
                    let guard = rx.lock().unwrap();
                    guard.recv()
                };
                let Ok(job) = job else { break };
                let line = match run_job(&job) {
                    Ok(outcome) => (true, result_line(&job, &outcome)),
                    Err(e) => (false, error_line(job.id, &e)),
                };
                if tx.send(line).is_err() {
                    break;
                }
            });
        }
        let reader_tx = res_tx.clone();
        drop(res_tx);
        scope.spawn(move || {
            for line in input.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                match parse_job(&line) {
                    Ok(job) => {
                        if job_tx.send(job).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        if reader_tx.send((false, error_line(0, &e))).is_err() {
                            break;
                        }
                    }
                }
            }
            // Dropping job_tx / reader_tx here lets workers and the
            // writer drain out.
        });

        for (ok, line) in res_rx {
            summary.jobs += 1;
            if ok {
                summary.ok += 1;
            } else {
                summary.errors += 1;
            }
            writeln!(output, "{line}")?;
        }
        std::io::Result::Ok(())
    })?;
    writeln!(
        output,
        "{}",
        summary_line(summary.jobs, summary.ok, summary.errors)
    )?;
    output.flush()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_job_round_trip() {
        let job = parse_job(
            r#"{"id": 7, "engine": "dnc1", "n": 64, "m": 16, "steps": 64, "trace": true}"#,
        )
        .unwrap();
        assert_eq!(job.id, 7);
        assert_eq!(job.engine, "dnc1");
        assert_eq!(job.d, 1);
        assert_eq!((job.n, job.m, job.p, job.steps), (64, 16, 1, 64));
        assert_eq!(job.seed, default_seed(64, 16, 1));
        assert!(job.trace && !job.certify);
        assert_eq!(job.faults, None);
    }

    #[test]
    fn parse_job_rejects_garbage_with_typed_errors() {
        for (line, needle) in [
            ("not json at all", "unparseable"),
            ("[1, 2]", "object"),
            (
                r#"{"engine": "dnc1", "n": 8, "steps": 8}"#,
                "missing \"id\"",
            ),
            (
                r#"{"id": 3, "engine": "dnc9", "n": 8, "steps": 8}"#,
                "unknown engine",
            ),
            (
                r#"{"id": 3, "engine": "dnc1", "steps": 8}"#,
                "missing \"n\"",
            ),
            (
                r#"{"id": 3, "engine": "dnc1", "n": 8}"#,
                "missing \"steps\"",
            ),
            (
                r#"{"id": 3, "engine": "dnc1", "n": -4, "steps": 8}"#,
                "\"n\"",
            ),
            (
                r#"{"id": 3, "engine": "naive3", "n": 65, "steps": 8}"#,
                "cube",
            ),
            (
                r#"{"id": 3, "engine": "dnc1", "n": 8, "steps": 8, "faults": "storm"}"#,
                "\"faults\" must be an object",
            ),
        ] {
            let err = parse_job(line).unwrap_err();
            match err {
                SimError::BadRequest { what, .. } => {
                    assert!(what.contains(needle), "{line}: {what} !~ {needle}")
                }
                other => panic!("{line}: expected BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn job_engines_come_from_the_registry() {
        for kind in EngineKind::ALL {
            let n = if kind.d() == 3 { 64 } else { 16 };
            let line = format!(
                r#"{{"id": 1, "engine": "{}", "n": {n}, "steps": 4}}"#,
                kind.name()
            );
            let job = parse_job(&line).unwrap();
            assert_eq!((job.engine, job.d), (kind.name(), kind.d()));
        }
        let err = parse_job(r#"{"id": 9, "engine": "warp9", "n": 64, "steps": 64}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad request (job 9): unknown engine \"warp9\""
        );
    }

    #[test]
    fn bad_request_carries_the_job_id() {
        let err = parse_job(r#"{"id": 42, "engine": "nope", "n": 8, "steps": 8}"#).unwrap_err();
        assert!(matches!(err, SimError::BadRequest { job_id: 42, .. }));
        // Unreadable id falls back to 0.
        let err = parse_job(r#"{"engine": "dnc1"}"#).unwrap_err();
        assert!(matches!(err, SimError::BadRequest { job_id: 0, .. }));
    }

    #[test]
    fn warm_run_is_bit_identical_to_cold() {
        // Unique shape: the plan cache is process-global, so tests keep
        // to disjoint (engine, n, steps) shapes.
        let job = parse_job(r#"{"id": 1, "engine": "dnc1", "n": 48, "steps": 24}"#).unwrap();
        let cold = run_job(&job).unwrap();
        let warm = run_job(&job).unwrap();
        assert!(warm.cache_hit, "second run of the same shape must hit");
        assert_eq!(warm.report.mem, cold.report.mem);
        assert_eq!(warm.report.values, cold.report.values);
        assert_eq!(
            warm.report.host_time.to_bits(),
            cold.report.host_time.to_bits()
        );
        assert_eq!(
            warm.report.guest_time.to_bits(),
            cold.report.guest_time.to_bits()
        );
        assert_eq!(warm.report.meter, cold.report.meter);
        let norm = |s: String| {
            s.replace("\"cache_hit\": true", "CH")
                .replace("\"cache_hit\": false", "CH")
        };
        assert_eq!(
            norm(result_line(&job, &warm)),
            norm(result_line(&job, &cold))
        );
    }

    #[test]
    fn warm_hit_with_different_seed_reruns_only_the_guest() {
        let a =
            parse_job(r#"{"id": 1, "engine": "dnc1", "n": 32, "steps": 32, "seed": 5}"#).unwrap();
        let b =
            parse_job(r#"{"id": 2, "engine": "dnc1", "n": 32, "steps": 32, "seed": 6}"#).unwrap();
        let cold = run_job(&a).unwrap();
        let warm = run_job(&b).unwrap();
        assert!(warm.cache_hit);
        // Costs identical (input-independent), outputs differ (seeded).
        assert_eq!(
            warm.report.host_time.to_bits(),
            cold.report.host_time.to_bits()
        );
        assert_ne!(warm.report.values, cold.report.values);
        // And the warm outputs equal that seed's own cold run.
        let spec = MachineSpec::new(1, 32, 1, 1);
        let guest = run_linear(&spec, &Eca::rule110(), &inputs::random_bits(6, 32), 32);
        assert_eq!(warm.report.mem, guest.mem);
        assert_eq!(warm.report.values, guest.values);
    }

    #[test]
    fn trace_wanting_hit_upgrades_a_traceless_capsule() {
        let plain = parse_job(r#"{"id": 1, "engine": "dnc2", "n": 16, "steps": 4}"#).unwrap();
        let traced =
            parse_job(r#"{"id": 2, "engine": "dnc2", "n": 16, "steps": 4, "certify": true}"#)
                .unwrap();
        let cold = run_job(&plain).unwrap();
        assert!(!cold.cache_hit);
        let upgraded = run_job(&traced).unwrap();
        assert!(!upgraded.cache_hit, "trace-wanting hit must re-run cold");
        assert!(upgraded.trace.is_some());
        assert!(upgraded.cert.is_some());
        // The upgraded capsule now serves traced repeats warm.
        let warm = run_job(&traced).unwrap();
        assert!(warm.cache_hit);
        assert!(warm.cert.is_some());
        assert_eq!(
            warm.report.host_time.to_bits(),
            upgraded.report.host_time.to_bits()
        );
    }

    #[test]
    fn serve_loop_answers_every_line_and_survives_garbage() {
        let input = "\
{\"id\": 1, \"engine\": \"dnc1\", \"n\": 16, \"steps\": 16}\n\
this is not json\n\
{\"id\": 2, \"engine\": \"naive1\", \"n\": 16, \"p\": 4, \"steps\": 16}\n\
{\"id\": 3, \"engine\": \"dnc1\", \"n\": 16, \"steps\": 16}\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, ServeOptions { max_inflight: 2 }).unwrap();
        assert_eq!(
            summary,
            ServeSummary {
                jobs: 4,
                ok: 3,
                errors: 1
            }
        );
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "4 results + 1 summary:\n{text}");
        for l in &lines {
            parse(l).expect("every output line is valid JSON");
        }
        assert!(lines.last().unwrap().contains("\"summary\": true"));
        assert!(text.contains("\"kind\": \"bad_request\""));
        // Every job id is answered exactly once.
        for id in [1, 2, 3] {
            assert_eq!(
                lines
                    .iter()
                    .filter(|l| l.contains(&format!("\"id\": {id},")))
                    .count(),
                1,
                "id {id}"
            );
        }
    }

    #[test]
    fn capsule_keys_separate_fault_plans() {
        let plain = parse_job(r#"{"id": 1, "engine": "dnc1", "n": 40, "steps": 8}"#).unwrap();
        let faulted = parse_job(
            r#"{"id": 2, "engine": "dnc1", "n": 40, "steps": 8, "faults": {"seed": 9, "crash": {"at_stage": 0, "proc": 0}}}"#,
        )
        .unwrap();
        assert_ne!(capsule_key(&plain), capsule_key(&faulted));
        let a = run_job(&plain).unwrap();
        let b = run_job(&faulted).unwrap();
        assert!(!b.cache_hit, "fault plan must not share the plain capsule");
        assert!(
            b.report.host_time > a.report.host_time,
            "the crash recovery replay slows the run"
        );
        assert_eq!(b.report.faults.crashes, 1);
        // Faulted repeats hit their own capsule, bit-identically.
        let b2 = run_job(&faulted).unwrap();
        assert!(b2.cache_hit);
        assert_eq!(b2.report.host_time.to_bits(), b.report.host_time.to_bits());
        assert_eq!(b2.report.faults, b.report.faults);
    }
}
