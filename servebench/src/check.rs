//! Result-line records and the correctness check made after a timed run.
//!
//! While the run is timed, each result line is reduced to a [`Record`]
//! (hashes and fingerprints, never the 100 KB line itself).  After it, every
//! answer is checked: it is `ok`, its `mem_fp`/`values_fp` equal the
//! fingerprints of the direct guest run for its seed, every job of one shape
//! and fault plan reports bit-identical costs whether it was served cold or
//! warm, and every certificate is `Certified`.

use std::collections::HashMap;

use bsmp::serve_suite::{fingerprint, run_guest};

use crate::stats::{hash_bytes, hash_u64, HASH_SEED};
use crate::traffic::{Job, Traffic};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No certificate on the line.
    Absent,
    Certified,
    /// A certificate with any other verdict.
    Refuted,
}

/// What the check and the digest need from one result line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    pub ok: bool,
    /// `"kind"` of an error line: bad request (as opposed to a sim error).
    pub bad_request: bool,
    pub cache_hit: bool,
    /// Hash of the cost fields (`host_time` … `stages`) and the fault tally.
    pub cost_hash: u64,
    /// Hash of every model field: costs, fingerprints, the trace without
    /// its host fields (`wall_ns`, `workers`) and the certificate.
    pub model_hash: u64,
    pub mem_fp: u64,
    pub values_fp: u64,
    pub verdict: Verdict,
    pub bytes: usize,
}

fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

fn hex_field(line: &str, key: &str) -> Option<u64> {
    let v = after(line, key)?.strip_prefix("\"0x")?;
    u64::from_str_radix(v.get(..16)?, 16).ok()
}

/// Hash a trace's JSON, leaving out the host-time fields each stage and
/// the summary carry (`"wall_ns": N` and the `"workers": N` after it).
fn hash_trace(mut h: u64, trace: &str) -> u64 {
    const WALL: &str = "\"wall_ns\": ";
    const WORKERS: &str = ", \"workers\": ";
    let skip_digits = |s: &str| s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let mut rest = trace;
    while let Some(i) = rest.find(WALL) {
        h = hash_bytes(h, &rest.as_bytes()[..i]);
        rest = &rest[i + WALL.len()..];
        rest = &rest[rest.len() - skip_digits(rest)..];
        if let Some(r) = rest.strip_prefix(WORKERS) {
            rest = &r[r.len() - skip_digits(r)..];
        }
    }
    hash_bytes(h, rest.as_bytes())
}

const VALUES_FP: &str = "\"values_fp\": ";

impl Record {
    /// Reduce a `bsmp-serve/v1` result line.  `Err` for a line that is not
    /// in the shape `serve_suite::result_line`/`error_line` write.
    pub fn from_line(line: &str) -> Result<Record, String> {
        let mut r = Record {
            ok: false,
            bad_request: false,
            cache_hit: false,
            cost_hash: 0,
            model_hash: 0,
            mem_fp: 0,
            values_fp: 0,
            verdict: Verdict::Absent,
            bytes: line.len(),
        };
        let ok = after(line, "\"ok\": ").ok_or("no \"ok\" field")?;
        if !ok.starts_with("true") {
            r.bad_request = line.contains("\"kind\": \"bad_request\"");
            return Ok(r);
        }
        r.cache_hit = after(line, "\"cache_hit\": ")
            .ok_or("no \"cache_hit\"")?
            .starts_with("true");
        let costs_at = line.find("\"host_time\": ").ok_or("no \"host_time\"")?;
        let fp_at = line.find(", \"mem_fp\": ").ok_or("no \"mem_fp\"")?;
        if fp_at < costs_at {
            return Err("fields out of order".into());
        }
        r.mem_fp = hex_field(line, "\"mem_fp\": ").ok_or("bad \"mem_fp\"")?;
        r.values_fp = hex_field(line, VALUES_FP).ok_or("bad \"values_fp\"")?;
        // Everything after the values fingerprint (`"0x` + 16 digits + `"`):
        // faults, trace, cert, `}`.
        let tail_at = line.find(VALUES_FP).ok_or("no \"values_fp\"")? + VALUES_FP.len() + 20;
        let tail = line
            .get(tail_at..line.len().saturating_sub(1))
            .ok_or("line ends inside \"values_fp\"")?;
        let cert_at = tail.rfind(", \"cert\": ").unwrap_or(tail.len());
        let trace_at = tail[..cert_at].find(", \"trace\": ").unwrap_or(cert_at);
        let (faults, trace, cert) = (
            &tail[..trace_at],
            &tail[trace_at..cert_at],
            &tail[cert_at..],
        );
        r.cost_hash = hash_bytes(
            hash_bytes(HASH_SEED, &line.as_bytes()[costs_at..fp_at]),
            faults.as_bytes(),
        );
        if !cert.is_empty() {
            r.verdict = if cert.contains("\"verdict\": \"Certified\"") {
                Verdict::Certified
            } else {
                Verdict::Refuted
            };
        }
        let mut h = hash_u64(hash_u64(r.cost_hash, r.mem_fp), r.values_fp);
        h = hash_trace(h, trace);
        r.model_hash = hash_bytes(h, cert.as_bytes());
        r.ok = true;
        Ok(r)
    }
}

/// Outcome of the correctness check over one run.
pub struct CheckReport {
    /// Jobs that failed any check (each counted once).
    pub failed: usize,
    /// Error lines among them.
    pub error_lines: usize,
    pub bad_request: usize,
    /// Hash of every result's model fields, in job-id order.
    pub model_digest: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

type GuestKey = (u8, u64, u64, i64, u64);

fn guest_key(j: &Job) -> GuestKey {
    (j.d(), j.n, j.m, j.steps, j.seed)
}

/// Fingerprints of the direct guest runs for `keys`, on two threads.
fn guest_fingerprints(keys: Vec<GuestKey>) -> HashMap<GuestKey, Option<(u64, u64)>> {
    let half = keys.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = keys
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k @ (d, n, m, steps, seed)| {
                            let fp = run_guest(d, n, m, steps, seed)
                                .ok()
                                .map(|g| (fingerprint(&g.mem), fingerprint(&g.values)));
                            (k, fp)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("guest reference run panicked"))
            .collect()
    })
}

/// Check every answer of a run.  `records[id]` is `None` for an unanswered
/// job and `Some(Err)` for a line that could not be read.  `reference`
/// holds records of cold runs made outside the timed run (the warm
/// workload's pre-seeding), which every later job of their shape must
/// match.
pub fn check(
    traffic: &Traffic,
    records: &[Option<Result<Record, String>>],
    reference: &[(Job, Record)],
) -> CheckReport {
    let mut rep = CheckReport {
        failed: 0,
        error_lines: 0,
        bad_request: 0,
        model_digest: HASH_SEED,
        problems: Vec::new(),
    };
    let mut keys: Vec<GuestKey> = traffic.jobs_by_id().map(guest_key).collect();
    keys.sort_unstable();
    keys.dedup();
    let guest = guest_fingerprints(keys);
    let mut costs: HashMap<_, u64> = reference
        .iter()
        .map(|(j, r)| (j.capsule_key(), r.cost_hash))
        .collect();
    for (j, rec) in traffic.jobs_by_id().zip(records) {
        let problem = match rec {
            None => Some("unanswered".to_string()),
            Some(Err(e)) => Some(format!("unreadable result line: {e}")),
            Some(Ok(r)) if !r.ok => {
                rep.error_lines += 1;
                rep.bad_request += r.bad_request as usize;
                Some("error line".to_string())
            }
            Some(Ok(r)) => {
                let want = guest[&guest_key(j)];
                let cost = *costs.entry(j.capsule_key()).or_insert(r.cost_hash);
                if want != Some((r.mem_fp, r.values_fp)) {
                    Some(format!(
                        "fingerprints {:#x}/{:#x}, direct guest run gives {want:x?}",
                        r.mem_fp, r.values_fp
                    ))
                } else if cost != r.cost_hash {
                    Some("costs differ from an earlier job of the same shape".to_string())
                } else if j.certify && r.verdict != Verdict::Certified {
                    Some(format!("certificate verdict {:?}", r.verdict))
                } else {
                    None
                }
            }
        };
        let h = match rec {
            Some(Ok(r)) => r.model_hash,
            _ => 0,
        };
        rep.model_digest = hash_u64(rep.model_digest, h);
        if let Some(p) = problem {
            rep.failed += 1;
            if rep.problems.len() < 5 {
                rep.problems.push(format!("job {}: {p}", j.id));
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, Workload};
    use bsmp::serve_suite::{parse_job, result_line, run_job};

    fn served(job: &Job) -> String {
        let spec = parse_job(&job.line()).unwrap();
        result_line(&spec, &run_job(&spec).unwrap())
    }

    #[test]
    fn records_ignore_host_fields_and_see_model_fields() {
        let a = r#"{"schema": "bsmp-serve/v1", "id": 1, "ok": true, "engine": "dnc1", "d": 1, "n": 8, "m": 1, "p": 1, "steps": 8, "seed": 3, "cache_hit": false, "host_time": 10, "guest_time": 2, "slowdown": 5, "compute": 1, "access": 2, "transfer": 3, "comm": 4, "ops": 5, "space": 6, "stages": 1, "mem_fp": "0x00000000000000ab", "values_fp": "0x00000000000000cd", "trace": {"stages": [{"cost": 10, "wall_ns": 123, "workers": 1}], "summary": {"wall_ns": 123, "efficiency": 1}}, "cert": {"verdict": "Certified", "failures": []}}"#;
        let r = Record::from_line(a).unwrap();
        assert!(r.ok && !r.cache_hit);
        assert_eq!((r.mem_fp, r.values_fp), (0xab, 0xcd));
        assert_eq!(r.verdict, Verdict::Certified);
        // Host time, worker count, id and cache flag are not model fields.
        let b = a
            .replace(
                "\"wall_ns\": 123, \"workers\": 1",
                "\"wall_ns\": 9, \"workers\": 2",
            )
            .replace("\"wall_ns\": 123,", "\"wall_ns\": 77,")
            .replace("\"id\": 1", "\"id\": 2")
            .replace("\"cache_hit\": false", "\"cache_hit\": true");
        let rb = Record::from_line(&b).unwrap();
        assert_eq!(rb.model_hash, r.model_hash);
        assert!(rb.cache_hit);
        // A stage cost is.
        let c = a.replace("\"cost\": 10", "\"cost\": 11");
        assert_ne!(Record::from_line(&c).unwrap().model_hash, r.model_hash);
        assert_eq!(Record::from_line(&c).unwrap().cost_hash, r.cost_hash);
        let d = a.replace("\"comm\": 4", "\"comm\": 4.5");
        assert_ne!(Record::from_line(&d).unwrap().cost_hash, r.cost_hash);
        let e = a.replace("Certified", "Violated");
        assert_eq!(Record::from_line(&e).unwrap().verdict, Verdict::Refuted);
    }

    #[test]
    fn error_lines_and_garbage() {
        let bad = r#"{"schema": "bsmp-serve/v1", "id": 4, "ok": false, "kind": "bad_request", "error": "x"}"#;
        let r = Record::from_line(bad).unwrap();
        assert!(!r.ok && r.bad_request);
        assert!(Record::from_line("{\"id\": 1}").is_err());
        assert!(Record::from_line(r#"{"id": 1, "ok": true}"#).is_err());
    }

    #[test]
    fn real_answers_pass_and_tampered_ones_fail() {
        let t = generate(Workload::ColdRecursive, 2, 20);
        // Cheap jobs only: this is a check of the checker.
        let jobs: Vec<&Job> = t.jobs_by_id().collect();
        let mut records: Vec<Option<Result<Record, String>>> = jobs
            .iter()
            .map(|j| {
                let cheap = matches!(j.engine, "dnc1" | "multi1");
                cheap.then(|| Record::from_line(&served(j)))
            })
            .collect();
        let answered = records.iter().filter(|r| r.is_some()).count();
        let rep = check(&t, &records, &[]);
        assert_eq!(rep.failed, t.len() - answered, "{:?}", rep.problems);
        let digest = rep.model_digest;
        // Same answers, same digest; a changed fingerprint fails its job.
        assert_eq!(check(&t, &records, &[]).model_digest, digest);
        let i = records.iter().position(|r| r.is_some()).unwrap();
        if let Some(Ok(r)) = &mut records[i] {
            r.values_fp ^= 1;
        }
        let rep = check(&t, &records, &[]);
        assert_eq!(rep.failed, t.len() - answered + 1);
        assert!(rep.problems.iter().any(|p| p.contains("fingerprints")));
    }

    #[test]
    fn warm_answers_must_match_their_cold_reference() {
        let t = generate(Workload::WarmRepeat, 9, 6);
        let reference: Vec<(Job, Record)> = t
            .jobs_by_id()
            .map(|j| (j.clone(), Record::from_line(&served(j)).unwrap()))
            .collect();
        let records: Vec<_> = t
            .jobs_by_id()
            .map(|j| Some(Record::from_line(&served(j))))
            .collect();
        assert_eq!(check(&t, &records, &reference).failed, 0);
        let mut wrong = reference.clone();
        for (_, r) in &mut wrong {
            r.cost_hash ^= 1;
        }
        let rep = check(&t, &records, &wrong);
        assert_eq!(rep.failed, t.len());
        assert!(
            rep.problems[0].contains("costs differ"),
            "{:?}",
            rep.problems
        );
    }
}
