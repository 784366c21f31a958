//! Golden model fingerprints: every meter component, model time, op
//! count, space, output hash and trace total of a fixed set of runs,
//! compared bit-for-bit against `tests/golden/fingerprints.txt`.
//!
//! Host-side rewrites (memo tables, directories, buffers) must leave the
//! model untouched; this test is the tool that proves it.  A row is one
//! line: a case id (`engine/d/n/m/p/T/plan`) followed by `key=value`
//! fields, floats as hex `f64::to_bits`.  Rows are keyed by id, so
//! widening the coverage (more engines, shapes or plans) only adds rows.
//!
//! To re-bless after an intended model change:
//! `BSMP_BLESS=1 cargo test --test golden` — the rewritten file then
//! shows up as a reviewable diff.

use bsmp::analytic::theorem1;
use bsmp::certify_suite::{matrix, run_case_reported, MatrixCase};
use bsmp::serve_suite::fingerprint;
use bsmp::FaultPlan;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/fingerprints.txt"
);

/// Shapes beyond the certify matrix, `(engine, d, n, m, p, T)`: deeper
/// recursions, leaf radii above 1 and clipped cells on every wall, so
/// the d = 2 / d = 3 memos are exercised past the matrix's tiny cases
/// (including runs longer than the mesh side and the reverse), and
/// two-regime runs many tile heights long, so their per-run point
/// bookkeeping turns over its live time band many times.
const EXTRA: [(&str, u8, u64, u64, u64, i64); 12] = [
    ("dnc1", 1, 256, 4, 1, 200),
    ("dnc2", 2, 256, 1, 1, 16),
    ("dnc2", 2, 144, 4, 1, 13),
    ("multi2", 2, 256, 2, 4, 20),
    ("multi2", 2, 144, 3, 4, 12),
    ("dnc3", 3, 216, 1, 1, 11),
    ("dnc3", 3, 125, 1, 1, 9),
    ("dnc3", 3, 343, 1, 1, 5),
    ("dnc2", 2, 100, 1, 1, 21),
    ("multi1", 1, 128, 4, 4, 320),
    ("multi1", 1, 256, 1, 4, 512),
    ("multi2", 2, 256, 2, 4, 64),
];

fn cases() -> Vec<MatrixCase> {
    let mut v = matrix();
    for (engine, d, n, m, p, steps) in EXTRA {
        let regime = match theorem1::range(d, n as f64, m as f64, p as f64) {
            theorem1::Range::R1 => "R1",
            theorem1::Range::R2 => "R2",
            theorem1::Range::R3 => "R3",
            theorem1::Range::R4 => "R4",
        };
        v.push(MatrixCase {
            engine,
            d,
            n,
            m,
            p,
            steps,
            regime,
        });
    }
    v
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    let storm = FaultPlan::from_json(include_str!("../examples/chaos_storm.json"))
        .expect("chaos_storm.json parses");
    vec![
        ("none", FaultPlan::none()),
        ("chaos_storm", storm),
        ("nu1.8", FaultPlan::uniform_slowdown(1.8).seed(11)),
    ]
}

fn hex(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}

fn row(case: &MatrixCase, plan_name: &str, plan: &FaultPlan) -> String {
    let (r, trace, cert) = run_case_reported(case, plan)
        .unwrap_or_else(|e| panic!("{}/{}/{plan_name}: {e}", case.engine, case.regime));
    let s = &trace.summary;
    format!(
        "{}/{}/{}/{}/{}/{}/{} regime={} \
         compute={} access={} transfer={} comm={} ops={} \
         host={} guest={} space={} stages={} mem={:#018x} values={:#018x} \
         tr_stages={} tr_points={} tr_messages={} tr_comm={} tr_injected={} \
         tr_retries={} tr_outages={} tr_churn={} tr_backoffs={} verdict={:?}",
        case.engine,
        case.d,
        case.n,
        case.m,
        case.p,
        case.steps,
        plan_name,
        case.regime,
        hex(r.meter.compute),
        hex(r.meter.access),
        hex(r.meter.transfer),
        hex(r.meter.comm),
        r.meter.ops,
        hex(r.host_time),
        hex(r.guest_time),
        r.space,
        r.stages,
        fingerprint(&r.mem),
        fingerprint(&r.values),
        s.stages,
        s.points,
        s.messages,
        hex(s.comm_delay),
        hex(s.injected_delay),
        s.retries,
        s.outages,
        s.churn,
        s.backoffs,
        cert.verdict,
    )
}

fn id(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

#[test]
fn golden_fingerprints_match() {
    let mut got = Vec::new();
    for case in &cases() {
        for (name, plan) in plans() {
            got.push(row(case, name, &plan));
        }
    }
    if std::env::var("BSMP_BLESS").as_deref() == Ok("1") {
        let mut text = String::from(
            "# Golden model fingerprints (tests/golden.rs); re-bless with BSMP_BLESS=1.\n",
        );
        for r in &got {
            text.push_str(r);
            text.push('\n');
        }
        std::fs::write(GOLDEN, text).expect("write golden file");
        return;
    }
    let want_text = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let want: Vec<&str> = want_text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut diffs = Vec::new();
    for g in &got {
        match want.iter().find(|w| id(w) == id(g)) {
            Some(w) if w == g => {}
            Some(w) => diffs.push(format!("- {w}\n+ {g}")),
            None => diffs.push(format!("+ {g}   (row missing from golden file)")),
        }
    }
    for w in &want {
        if !got.iter().any(|g| id(g) == id(w)) {
            diffs.push(format!("- {w}   (row no longer produced)"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden row(s) differ (BSMP_BLESS=1 re-blesses):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
