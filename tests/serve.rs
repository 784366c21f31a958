//! Batch-server soak: the full certification matrix as concurrent
//! `bsmp-serve/v1` traffic, checked bit-for-bit against single-shot
//! twins, plus a seeded-corruption fuzz of the request parser.
//!
//! The soak shuffles the 23-cell engine × regime matrix
//! ([`bsmp::certify_suite::matrix`]) into one job batch — clean cells
//! with `certify: true`, a faulted twin (crash + recovery plan) for
//! every fourth cell — and runs it through [`bsmp::serve_suite::serve`]
//! at in-flight windows of 1, 2, and 8.  Every result line must carry
//! exactly the model figures (`f64::to_bits`-identical) and output
//! fingerprints of the same cell run single-shot through
//! [`bsmp::certify_suite::run_case_reported`], every certificate must
//! be `Certified`, and a warm repeat of the whole batch must answer
//! every job from the cost capsule with unchanged payloads.

use std::collections::HashMap;
use std::sync::OnceLock;

use bsmp::certify_suite::{matrix, run_case_reported, MatrixCase};
use bsmp::serve_suite::{fingerprint, parse_job, serve, ServeOptions};
use bsmp::trace::json::{parse, Val};
use bsmp::{FaultPlan, SimError, SimReport};

/// One crash at stage 0 on processor 0 plus recovery accounting — valid
/// for every engine shape in the matrix (uniprocessor engines included,
/// unlike slowdown plans, which only scale comm charges and so are
/// no-ops at p = 1).
const CRASH_PLAN: &str = r#"{"seed": 5, "crash": {"at_stage": 0, "proc": 0}}"#;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn shuffled_matrix(seed: u64) -> Vec<MatrixCase> {
    let mut cases = matrix();
    let mut s = seed.max(1);
    for i in (1..cases.len()).rev() {
        let j = (xorshift(&mut s) % (i as u64 + 1)) as usize;
        cases.swap(i, j);
    }
    cases
}

/// Request line for one matrix cell.  Clean cells certify; faulted
/// cells carry the crash plan (their traces are faulted, so they check
/// bit-identity and fault accounting rather than the clean envelope).
fn job_line(id: usize, case: &MatrixCase, faulted: bool) -> String {
    let tail = if faulted {
        format!(", \"faults\": {CRASH_PLAN}")
    } else {
        ", \"certify\": true".to_string()
    };
    format!(
        "{{\"id\": {id}, \"engine\": \"{}\", \"n\": {}, \"m\": {}, \"p\": {}, \"steps\": {}{tail}}}",
        case.engine, case.n, case.m, case.p, case.steps
    )
}

struct Twin {
    report: SimReport,
    crashes: u64,
}

/// Single-shot twin of a job: the same dispatch path the certification
/// matrix uses, outside the server and without the cost capsule.
fn run_twin(case: &MatrixCase, faulted: bool) -> Twin {
    let plan = if faulted {
        FaultPlan::from_json(CRASH_PLAN).expect("crash plan parses")
    } else {
        FaultPlan::none()
    };
    let (report, _, cert) = run_case_reported(case, &plan).expect("twin runs");
    if !faulted {
        assert_eq!(cert.verdict.to_string(), "Certified", "{}", case.engine);
    }
    Twin {
        crashes: report.faults.crashes,
        report,
    }
}

fn f64_bits(line: &Val, key: &str) -> u64 {
    line.get(key)
        .and_then(Val::as_f64)
        .unwrap_or_else(|| panic!("missing {key}"))
        .to_bits()
}

/// A result line must reproduce its twin's model figures exactly —
/// `num()` formats with `{:?}` (round-trip exact), so parsed f64s are
/// bit-identical to what the server computed.
fn assert_line_matches_twin(line: &str, twin: &Twin, faulted: bool) {
    let v = parse(line).expect("result line parses");
    let r = &twin.report;
    assert_eq!(v.get("ok"), Some(&Val::Bool(true)), "{line}");
    assert_eq!(f64_bits(&v, "host_time"), r.host_time.to_bits());
    assert_eq!(f64_bits(&v, "guest_time"), r.guest_time.to_bits());
    assert_eq!(f64_bits(&v, "compute"), r.meter.compute.to_bits());
    assert_eq!(f64_bits(&v, "access"), r.meter.access.to_bits());
    assert_eq!(f64_bits(&v, "transfer"), r.meter.transfer.to_bits());
    assert_eq!(f64_bits(&v, "comm"), r.meter.comm.to_bits());
    assert_eq!(v.get("ops").and_then(Val::as_u64), Some(r.meter.ops));
    assert_eq!(v.get("space").and_then(Val::as_u64), Some(r.space as u64));
    assert_eq!(v.get("stages").and_then(Val::as_u64), Some(r.stages));
    let fp = |words: &[u64]| format!("{:#018x}", fingerprint(words));
    assert_eq!(
        v.get("mem_fp").and_then(Val::as_str),
        Some(fp(&r.mem).as_str())
    );
    assert_eq!(
        v.get("values_fp").and_then(Val::as_str),
        Some(fp(&r.values).as_str())
    );
    if faulted {
        let f = v.get("faults").expect("faulted job reports fault block");
        assert_eq!(f.get("crashes").and_then(Val::as_u64), Some(twin.crashes));
        assert!(twin.crashes >= 1, "crash plan must actually fire");
    } else {
        let cert = v.get("cert").expect("clean job carries its certificate");
        assert_eq!(
            cert.get("verdict").and_then(Val::as_str),
            Some("Certified"),
            "{line}"
        );
    }
}

/// Run one batch through the server, returning result lines keyed by
/// job id (the batch answers in completion order) plus the summary.
fn serve_batch(lines: &[String], inflight: usize) -> (HashMap<u64, String>, Val) {
    let input = lines.join("\n").into_bytes();
    let mut out = Vec::new();
    let summary = serve(
        std::io::BufReader::new(&input[..]),
        &mut out,
        ServeOptions {
            max_inflight: inflight,
        },
    )
    .expect("serve i/o");
    assert_eq!(summary.jobs as usize, lines.len());
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).expect("utf8 output");
    let mut by_id = HashMap::new();
    let mut summary_line = None;
    for line in text.lines() {
        let v = parse(line).expect("output line parses");
        if v.get("summary").is_some() {
            summary_line = Some(v);
            continue;
        }
        let id = v.get("id").and_then(Val::as_u64).expect("line id");
        assert!(
            by_id.insert(id, line.to_string()).is_none(),
            "duplicate answer for job {id}"
        );
    }
    (by_id, summary_line.expect("summary line"))
}

/// The twins are shape-keyed and computed once: every in-flight window
/// replays the same traffic against them.
fn twins() -> &'static Vec<(MatrixCase, bool, Twin)> {
    static TWINS: OnceLock<Vec<(MatrixCase, bool, Twin)>> = OnceLock::new();
    TWINS.get_or_init(|| {
        shuffled_matrix(0x5EED)
            .into_iter()
            .enumerate()
            .map(|(i, case)| {
                let faulted = i % 4 == 3;
                let twin = run_twin(&case, faulted);
                (case, faulted, twin)
            })
            .collect()
    })
}

#[test]
fn soak_matrix_bit_identical_across_inflight_windows() {
    // The engines lease scratch from one shared pool under contention.
    bsmp::init_shared_pool(8);
    let twins = twins();
    for inflight in [1usize, 2, 8] {
        let lines: Vec<String> = twins
            .iter()
            .enumerate()
            .map(|(i, (case, faulted, _))| job_line(i, case, *faulted))
            .collect();
        let (by_id, _) = serve_batch(&lines, inflight);
        assert_eq!(by_id.len(), twins.len());
        for (i, (_, faulted, twin)) in twins.iter().enumerate() {
            assert_line_matches_twin(&by_id[&(i as u64)], twin, *faulted);
        }
    }
}

#[test]
fn soak_warm_repeat_answers_from_capsules_unchanged() {
    bsmp::init_shared_pool(8);
    let twins = twins();
    let lines: Vec<String> = twins
        .iter()
        .enumerate()
        .map(|(i, (case, faulted, _))| job_line(i, case, *faulted))
        .collect();
    // First pass may be cold or warm depending on test interleaving;
    // it seeds every capsule either way.
    let (first, _) = serve_batch(&lines, 8);
    let (second, summary) = serve_batch(&lines, 8);
    let hits = summary
        .get("plan_cache")
        .and_then(|pc| pc.get("hits"))
        .and_then(Val::as_u64)
        .expect("summary carries plan-cache counters");
    assert!(hits > 0, "warm repeat must hit the plan cache");
    for (id, line) in &second {
        let v = parse(line).expect("warm line parses");
        assert_eq!(
            v.get("cache_hit"),
            Some(&Val::Bool(true)),
            "job {id} should be answered from its capsule"
        );
        // Identical payload modulo the cache_hit flag.
        let norm = |s: &str| s.replace("\"cache_hit\": false", "\"cache_hit\": true");
        assert_eq!(norm(&first[id]), norm(line), "job {id} drifted when warm");
    }
}

#[test]
fn parser_fuzz_seeded_corruption_never_panics() {
    let base = r#"{"id": 42, "engine": "dnc1", "n": 64, "m": 16, "steps": 64, "certify": true, "faults": {"seed": 5, "crash": {"at_stage": 0, "proc": 0}}}"#;
    let bytes = base.as_bytes();
    let mut rng = 0xC0FFEE_u64;
    let mut ok = 0u32;
    let mut rejected = 0u32;
    for _ in 0..2000 {
        let mut case = bytes.to_vec();
        match xorshift(&mut rng) % 4 {
            // Truncate at a random byte.
            0 => {
                let at = (xorshift(&mut rng) as usize) % case.len();
                case.truncate(at);
            }
            // Flip bits in a random byte.
            1 => {
                let at = (xorshift(&mut rng) as usize) % case.len();
                case[at] ^= (xorshift(&mut rng) & 0xFF) as u8;
            }
            // Overwrite a random span with garbage.
            2 => {
                let at = (xorshift(&mut rng) as usize) % case.len();
                let len = ((xorshift(&mut rng) as usize) % 8).min(case.len() - at);
                for b in &mut case[at..at + len] {
                    *b = (xorshift(&mut rng) & 0xFF) as u8;
                }
            }
            // Duplicate the line onto itself (trailing data).
            _ => {
                let dup = case.clone();
                case.extend_from_slice(&dup);
            }
        }
        let line = String::from_utf8_lossy(&case).into_owned();
        // The contract under fuzz: parse_job never panics, and every
        // rejection is the typed BadRequest (so the server answers the
        // job instead of dying).
        match parse_job(&line) {
            Ok(_) => ok += 1,
            Err(SimError::BadRequest { .. }) => rejected += 1,
            Err(other) => panic!("non-BadRequest parse error: {other}"),
        }
    }
    assert!(rejected > 0, "corruption never produced a rejection?");
    // Some corruptions (e.g. flips inside a number) still parse — that
    // is fine; the count is informational.
    let _ = ok;
}

#[test]
fn serve_survives_interleaved_garbage() {
    let lines = [
        r#"{"id": 1, "engine": "dnc1", "n": 32, "m": 2, "steps": 32}"#,
        "garbage that is not json",
        r#"{"id": 3, "engine": "nope9", "n": 32, "steps": 32}"#,
        r#"{"id": 4, "engine": "dnc1", "n": 32, "m": 2, "steps": 32, "seed": 9}"#,
    ]
    .join("\n");
    let mut out = Vec::new();
    let summary = serve(
        std::io::BufReader::new(lines.as_bytes()),
        &mut out,
        ServeOptions { max_inflight: 2 },
    )
    .expect("serve i/o");
    assert_eq!((summary.jobs, summary.ok, summary.errors), (4, 2, 2));
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.matches("\"kind\": \"bad_request\"").count(), 2);
    // The unknown-engine line kept its id through the typed error.
    assert!(text.contains("\"id\": 3, \"ok\": false"), "{text}");
}
