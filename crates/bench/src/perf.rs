//! Wall-clock performance baseline of the simulation engines, written
//! as a small hand-rolled JSON document (`BENCH_engines.json`) so CI and
//! future sessions can diff host-implementation throughput across
//! commits.
//!
//! The v3 suite covers all nine engines and reports **points/sec**
//! (guest dag points simulated per second of host wall time, derived
//! from the median iteration) alongside raw timings.  Cases flagged
//! `gated` feed the 80% throughput regression gate in `ci.sh` — the
//! tiled naive/pipelined engines at pool-gate-crossing scale and every
//! dnc/multi engine; every ungated case carries a comment at its
//! definition saying why it stays out of the gate.  `table_hits` is the deterministic cost-table counter from
//! one probe run (nonzero wherever a leaf kernel serves charges from a
//! plan-time cost table).  v3 adds the batch-server warm/cold suite
//! ([`run_serve_suite`]): repeated-shape job traffic through
//! [`bsmp::serve_suite::run_job`], measured once against a cleared plan
//! cache and once pre-seeded, reported as jobs/sec with the warm/cold
//! ratio floor-gated at [`SERVE_WARM_RATIO_FLOOR`]; the document also
//! records the plan cache's hit/miss/evict counters.  Only *host* wall
//! time varies across hosts — model quantities are deterministic and
//! covered by the test suite.

use bsmp::machine::MachineSpec;
use bsmp::sim::{
    dnc::simulate_dnc, multi1::simulate_multi1, multi2::simulate_multi2, naive::simulate_naive,
    naive3::simulate_naive3, pipelined1::simulate_pipelined1,
};
use bsmp::trace::json::{self, escape, Val};
use bsmp::workloads::{inputs, Eca, Parity3d, VonNeumannLife};
use bsmp::{Simulation, Strategy};

use crate::timing::{measure, Measurement};

/// Schema tag written into the JSON document.
pub const SCHEMA: &str = "bsmp-bench-engines/v3";

/// The one record-time stamp, written into every document as
/// `"suite"`.  Bump this const when re-recording `BENCH_engines.json` —
/// the committed baseline then cannot carry a hand-typed description
/// that silently goes stale relative to the suite that produced it
/// (the v2 baseline's `meta` did exactly that).  `--meta` remains an
/// opaque per-run note (commit id, host tag) layered on top.
pub const SUITE_STAMP: &str =
    "v3 2026-08-07: + serve warm/cold suite, plan-cache counters; 1-core container baseline";

/// Warm jobs/sec must beat cold jobs/sec by at least this factor on
/// every [`run_serve_suite`] case.  Warm runs skip the whole engine
/// (direct guest execution + memoized cost capsule), so real ratios sit
/// an order of magnitude above this floor; a ratio below it means the
/// plan cache's warm path silently died.
pub const SERVE_WARM_RATIO_FLOOR: f64 = 5.0;

/// A fresh case must deliver at least this fraction of the committed
/// baseline's *best-iteration* points/sec on every gated case, or
/// [`regression_gate`] fails (>20% regression).  Best-of-N is the
/// comparison metric because medians are bimodal on shared containers
/// (observed ±25% run-to-run) while the uncontended floor holds to a
/// few percent.
pub const GATE_FRACTION: f64 = 0.8;

/// One benched engine case.
#[derive(Clone, Debug)]
pub struct PerfCase {
    pub name: &'static str,
    /// Guest dag points simulated per iteration (n·T and kin).
    pub points: u64,
    /// Does this case feed the CI throughput regression gate?  True
    /// for the tiled engines at pool-gate-crossing scale (`q ≥ 256`,
    /// p > 1) and the dnc/multi engines.
    pub gated: bool,
    /// Cost-table hits from one probe run (deterministic; nonzero
    /// wherever a leaf kernel meters through a plan-time cost table).
    pub table_hits: u64,
    pub m: Measurement,
}

impl PerfCase {
    /// Guest points simulated per second of host wall time, from the
    /// median iteration.
    pub fn pps(&self) -> f64 {
        self.points as f64 / self.m.median_s.max(1e-12)
    }

    /// Points/sec from the *best* iteration — the uncontended floor the
    /// regression gate compares, far more stable than the median on
    /// shared hosts.
    pub fn best_pps(&self) -> f64 {
        self.points as f64 / self.m.min_s.max(1e-12)
    }
}

/// Probe once (for the deterministic counters), then measure.
fn case(
    name: &'static str,
    points: u64,
    gated: bool,
    iters: u32,
    mut f: impl FnMut() -> (f64, u64),
) -> PerfCase {
    let (_, table_hits) = f();
    PerfCase {
        name,
        points,
        gated,
        table_hits,
        m: measure(iters, || f().0),
    }
}

/// Run the fixed engine suite with `iters` timed iterations per case.
/// `threads` is the host thread budget handed to the stage-parallel
/// engines (`0` = auto).
pub fn run_engine_suite(threads: usize, iters: u32) -> Vec<PerfCase> {
    let mut cases = Vec::new();

    // ---- d = 1, quick scale (continuity with the v1 baseline) ----
    let n = 128u64;
    let init = inputs::random_bits(1, n as usize);
    {
        let spec = MachineSpec::new(1, n, 1, 1);
        // Not gated: a sub-millisecond serial reference at demo scale —
        // its median is timer-granularity noise on a loaded host; the
        // n = 4096 serial twin below is the meaningful serial figure.
        cases.push(case("naive1_n128_p1_T128", n * n, false, iters, || {
            let r = simulate_naive::<1>(&spec, &Eca::rule110(), &init, n as i64);
            (r.host_time, r.meter.table_hits)
        }));
        cases.push(case("dnc1_n128_T128", n * n, true, iters, || {
            let r = simulate_dnc::<1>(&spec, &Eca::rule110(), &init, n as i64);
            (r.host_time, r.meter.table_hits)
        }));
    }
    {
        // Through the façade so the `--threads` budget is honored; q =
        // 32 stays under the pool gate (kept for baseline continuity).
        // Not gated: under the pool gate this runs serially anyway, and
        // at demo scale the iteration is too short to gate reliably —
        // naive1_n4096_p16_T512 carries the tiled-parallel gate.
        let sim = Simulation::linear(n, 4, 1)
            .strategy(Strategy::Naive)
            .threads(threads);
        cases.push(case("naive1_n128_p4_T128", n * n, false, iters, || {
            let r = sim.run(&Eca::rule110(), &init, n as i64).sim;
            (r.host_time, r.meter.table_hits)
        }));
        let spec = MachineSpec::new(1, n, 4, 1);
        cases.push(case("multi1_n128_p4_T128", n * n, true, iters, || {
            let r = simulate_multi1(&spec, &Eca::rule110(), &init, n as i64);
            (r.host_time, r.meter.table_hits)
        }));
    }

    // ---- d = 1, pool-gate-crossing scale (q = 256 at p = 16) ----
    {
        let n = 4096u64;
        let t = 512i64;
        let init = inputs::random_bits(3, n as usize);
        let pts = n * t as u64;
        let sim = Simulation::linear(n, 16, 1)
            .strategy(Strategy::Naive)
            .threads(threads);
        cases.push(case("naive1_n4096_p16_T512", pts, true, iters, || {
            let r = sim.run(&Eca::rule110(), &init, t).sim;
            (r.host_time, r.meter.table_hits)
        }));
        let spec1 = MachineSpec::new(1, n, 1, 1);
        // Not gated: the serial twin of the gated p = 16 case, kept so
        // the parallel speedup can be read off the document.  Gating
        // both would double-count the same kernel; the p = 16 case is
        // the one whose regression would mean a real engine fault.
        cases.push(case("naive1_n4096_p1_T512", pts, false, iters, || {
            let r = simulate_naive::<1>(&spec1, &Eca::rule110(), &init, t);
            (r.host_time, r.meter.table_hits)
        }));
        let spec16 = MachineSpec::new(1, n, 16, 1);
        // Gated: within-run medians hold to a few percent on this case.
        cases.push(case("pipelined1_n4096_p16_T512", pts, true, iters, || {
            let r = simulate_pipelined1(&spec16, &Eca::rule110(), &init, t);
            (r.host_time, r.meter.table_hits)
        }));
        let t64 = 64i64;
        cases.push(case(
            "multi1_n4096_p16_T64",
            n * t64 as u64,
            true,
            iters,
            || {
                let r = simulate_multi1(&spec16, &Eca::rule110(), &init, t64);
                (r.host_time, r.meter.table_hits)
            },
        ));
    }

    // ---- d = 2, quick scale (continuity) ----
    {
        let init2 = inputs::random_bits(2, 256);
        let spec = MachineSpec::new(2, 256, 16, 1);
        let sim = Simulation::mesh(256, 16, 1)
            .strategy(Strategy::Naive)
            .threads(threads);
        // Not gated (nor is its `_serial` twin below): a 16×16 mesh for
        // 16 steps finishes in microseconds, pure timer noise under the
        // gate; the pair exists to diff façade vs direct-call overhead.
        // dnc2/multi2 at 32×32 carry the d = 2 gates.
        cases.push(case("naive2_16x16_p16_T16", 256 * 16, false, iters, || {
            let r = sim.run_mesh(&VonNeumannLife::fredkin(), &init2, 16).sim;
            (r.host_time, r.meter.table_hits)
        }));
        let spec1 = MachineSpec::new(2, 256, 1, 1);
        cases.push(case("dnc2_16x16_T16", 256 * 16, true, iters, || {
            let r = simulate_dnc::<2>(&spec1, &VonNeumannLife::fredkin(), &init2, 16);
            (r.host_time, r.meter.table_hits)
        }));
        cases.push(case(
            "naive2_16x16_p16_T16_serial",
            256 * 16,
            false,
            iters,
            || {
                let r = simulate_naive::<2>(&spec, &VonNeumannLife::fredkin(), &init2, 16);
                (r.host_time, r.meter.table_hits)
            },
        ));
    }

    // ---- d = 2, pool-gate-crossing scale (b = 16, q = 256 at p = 16) ----
    {
        let init2 = inputs::random_bits(4, 64 * 64);
        let sim = Simulation::mesh(64 * 64, 16, 1)
            .strategy(Strategy::Naive)
            .threads(threads);
        // Not gated: this case is bimodal on shared containers (observed
        // 71–136 M points/s across otherwise-identical runs), so an 80%
        // gate against a good run flakes.  naive1_n4096 holds within
        // ~15% on the same host and carries the gate instead.
        cases.push(case(
            "naive2_64x64_p16_T64",
            64 * 64 * 64,
            false,
            iters,
            || {
                let r = sim.run_mesh(&VonNeumannLife::fredkin(), &init2, 64).sim;
                (r.host_time, r.meter.table_hits)
            },
        ));
        let init32 = inputs::random_bits(5, 32 * 32);
        let spec1 = MachineSpec::new(2, 32 * 32, 1, 1);
        cases.push(case("dnc2_32x32_T32", 32 * 32 * 32, true, iters, || {
            let r = simulate_dnc::<2>(&spec1, &VonNeumannLife::fredkin(), &init32, 32);
            (r.host_time, r.meter.table_hits)
        }));
        let spec4 = MachineSpec::new(2, 32 * 32, 4, 1);
        cases.push(case(
            "multi2_32x32_p4_T32",
            32 * 32 * 32,
            true,
            iters,
            || {
                let r = simulate_multi2(&spec4, &VonNeumannLife::fredkin(), &init32, 32);
                (r.host_time, r.meter.table_hits)
            },
        ));
    }

    // ---- d = 3 ----
    {
        let init3 = inputs::random_bits(6, 16 * 16 * 16);
        let spec16 = MachineSpec::new(3, 16 * 16 * 16, 1, 1);
        // Not gated: the serial volume reference; dnc3_12c_T12 below is
        // the d = 3 engine whose regression the gate must catch, and a
        // 16³ naive sweep is short enough to be timer-noise bound.
        cases.push(case(
            "naive3_16c_T16",
            16 * 16 * 16 * 16,
            false,
            iters,
            || {
                let r = simulate_naive3(&spec16, &Parity3d, &init3, 16);
                (r.host_time, r.meter.table_hits)
            },
        ));
        let init3b = inputs::random_bits(7, 12 * 12 * 12);
        let spec12 = MachineSpec::new(3, 12 * 12 * 12, 1, 1);
        cases.push(case("dnc3_12c_T12", 12 * 12 * 12 * 12, true, iters, || {
            let r = simulate_dnc::<3>(&spec12, &Parity3d, &init3b, 12);
            (r.host_time, r.meter.table_hits)
        }));
    }

    cases
}

/// Model-level counters pulled from a traced run — optional companions
/// to the wall-clock cases.  Unlike wall time they are deterministic, so
/// they diff cleanly across commits with no iteration noise.
#[derive(Clone, Debug)]
pub struct TraceCounters {
    pub name: &'static str,
    pub stages: u64,
    pub points: u64,
    pub messages: u64,
    pub comm_delay: f64,
    pub slowdown: f64,
    /// Cost-table hits from the traced run's meter (0 for engines
    /// without tiled kernels).
    pub table_hits: u64,
}

/// Trace the façade-reachable `d = 1` engines once each at the perf-suite
/// scale and return their summary counters.
pub fn run_trace_counters(threads: usize) -> Vec<TraceCounters> {
    let n = 128u64;
    let init = inputs::random_bits(1, n as usize);
    let configs: [(&'static str, Strategy, u64); 3] = [
        ("naive1_n128_p4_T128", Strategy::Naive, 4),
        ("multi1_n128_p4_T128", Strategy::TwoRegime, 4),
        ("dnc1_n128_T128", Strategy::DivideAndConquer, 1),
    ];
    configs
        .into_iter()
        .map(|(name, strategy, p)| {
            let (rep, tr) = Simulation::linear(n, p, 1)
                .strategy(strategy)
                .threads(threads)
                .trace(&Eca::rule110(), &init, n as i64);
            TraceCounters {
                name,
                stages: tr.summary.stages,
                points: tr.summary.points,
                messages: tr.summary.messages,
                comm_delay: tr.summary.comm_delay,
                slowdown: tr.summary.slowdown,
                table_hits: rep.sim.meter.table_hits,
            }
        })
        .collect()
}

/// One certificate row for the `--certify` section of the bench
/// document: the verdict and margin of one engine × regime cell of the
/// certification matrix ([`bsmp::certify_suite::matrix`]).
#[derive(Clone, Debug)]
pub struct CertRow {
    /// `engine/regime`, e.g. `multi1/R2`.
    pub case: String,
    pub engine: &'static str,
    pub regime: &'static str,
    /// Gunther/Brent slowdown floor.
    pub lower: f64,
    /// Measured slowdown `T_p / T_guest`.
    pub measured: f64,
    /// Engine-specific Theorem 1–5 envelope × slack.
    pub upper: f64,
    /// Smallest headroom ratio across the certificate's active checks.
    pub margin: f64,
    /// `Certified`, `Violated`, or `error: …` when the run itself
    /// failed.
    pub verdict: String,
}

/// Run every cell of the certification matrix clean (no fault plan) and
/// return one row per cell.  Rows with a non-`Certified` verdict mean
/// the reporting path is broken — `bench --certify` exits nonzero on
/// them.
pub fn run_certify_suite() -> Vec<CertRow> {
    bsmp::certify_suite::matrix()
        .iter()
        .map(|case| {
            let id = format!("{}/{}", case.engine, case.regime);
            match bsmp::certify_suite::run_case(case, &bsmp::FaultPlan::none()) {
                Ok((_, cert)) => CertRow {
                    case: id,
                    engine: case.engine,
                    regime: case.regime,
                    lower: cert.lower,
                    measured: cert.measured,
                    upper: cert.upper,
                    margin: cert.margin,
                    verdict: cert.verdict.to_string(),
                },
                Err(e) => CertRow {
                    case: id,
                    engine: case.engine,
                    regime: case.regime,
                    lower: 0.0,
                    measured: 0.0,
                    upper: 0.0,
                    margin: 0.0,
                    verdict: format!("error: {e}"),
                },
            }
        })
        .collect()
}

/// One repeated-shape batch-server case: the same job shape submitted
/// [`ServeCase::jobs`] times (distinct seeds), measured cold (plan
/// cache cleared before every job) and warm (cache pre-seeded by one
/// run of the shape).
#[derive(Clone, Debug)]
pub struct ServeCase {
    pub name: &'static str,
    /// Jobs per measured batch.
    pub jobs: u32,
    /// Jobs/sec with the plan cache cleared before every job.
    pub cold_jps: f64,
    /// Jobs/sec with the cache pre-seeded (every job hits its capsule).
    pub warm_jps: f64,
}

impl ServeCase {
    /// Warm speedup over cold — gated at [`SERVE_WARM_RATIO_FLOOR`].
    pub fn ratio(&self) -> f64 {
        self.warm_jps / self.cold_jps.max(1e-12)
    }
}

/// Time one batch of `lines` through [`bsmp::serve_suite::run_job`],
/// returning jobs/sec.  `cold` clears the plan cache before every job
/// so each one runs its engine and re-derives its cost capsule.
fn serve_batch_jps(lines: &[String], cold: bool) -> f64 {
    let t0 = std::time::Instant::now();
    for line in lines {
        if cold {
            bsmp::plan_cache().clear();
        }
        let job = bsmp::serve_suite::parse_job(line).expect("bench serve job parses");
        bsmp::serve_suite::run_job(&job).expect("bench serve job runs");
    }
    lines.len() as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// The batch-server warm/cold suite: repeated-shape traffic on every
/// plan-heavy engine family (dnc1/dnc2/multi1/multi2).  Each case
/// submits the same shape `jobs` times with distinct seeds — exactly
/// the traffic the plan cache exists for, since capsule keys exclude
/// the seed.  A case whose first measurement misses the
/// [`SERVE_WARM_RATIO_FLOOR`] is re-measured once (shared-host
/// anti-flake, same rationale as [`gate_with_retries`]); real warm
/// ratios are ~10–100×, so a persistent miss is a dead warm path, not
/// noise.
pub fn run_serve_suite(jobs: u32) -> Vec<ServeCase> {
    let shapes: [(&'static str, &'static str); 4] = [
        (
            "serve_dnc1_n128_m16_T128",
            r#"{"engine": "dnc1", "n": 128, "m": 16, "steps": 128}"#,
        ),
        (
            "serve_dnc2_16x16_m4_T16",
            r#"{"engine": "dnc2", "n": 256, "m": 4, "steps": 16}"#,
        ),
        (
            "serve_multi1_n128_m8_p4_T128",
            r#"{"engine": "multi1", "n": 128, "m": 8, "p": 4, "steps": 128}"#,
        ),
        (
            "serve_multi2_32x32_m4_p4_T32",
            r#"{"engine": "multi2", "n": 1024, "m": 4, "p": 4, "steps": 32}"#,
        ),
    ];
    shapes
        .iter()
        .map(|&(name, shape)| {
            let lines: Vec<String> = (0..jobs.max(1))
                .map(|i| {
                    let body = shape.trim_end_matches('}');
                    format!("{body}, \"id\": {i}, \"seed\": {}}}", 1000 + i)
                })
                .collect();
            let measure_once = || {
                let cold_jps = serve_batch_jps(&lines, true);
                // Seed the cache with one run of the shape, then measure
                // the warm batch (every job hits the capsule).
                serve_batch_jps(&lines[..1], false);
                let warm_jps = serve_batch_jps(&lines, false);
                ServeCase {
                    name,
                    jobs: lines.len() as u32,
                    cold_jps,
                    warm_jps,
                }
            };
            let first = measure_once();
            if first.ratio() >= SERVE_WARM_RATIO_FLOOR {
                first
            } else {
                measure_once()
            }
        })
        .collect()
}

/// Check every [`run_serve_suite`] case against the warm/cold ratio
/// floor.  Returns the number checked; any case below
/// [`SERVE_WARM_RATIO_FLOOR`] is an error naming the case and ratio.
pub fn serve_gate(serves: &[ServeCase]) -> Result<usize, String> {
    let failures: Vec<String> = serves
        .iter()
        .filter(|s| s.ratio() < SERVE_WARM_RATIO_FLOOR)
        .map(|s| {
            format!(
                "{}: warm/cold ratio {:.2} < {SERVE_WARM_RATIO_FLOOR} \
                 (cold {:.1} jobs/s, warm {:.1} jobs/s)",
                s.name,
                s.ratio(),
                s.cold_jps,
                s.warm_jps
            )
        })
        .collect();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    if serves.is_empty() {
        return Err("no serve cases to check".into());
    }
    Ok(serves.len())
}

/// Serialize a suite to the `BENCH_engines.json` document.  `meta` is an
/// opaque caller-supplied string (commit id, date, host tag — timestamps
/// are the caller's business, the library takes no clock); the
/// [`SUITE_STAMP`] record-time const is stamped alongside it as
/// `"suite"`.  The `trace_counters`, `certificates` and `serve_cases`
/// sections are written only when non-empty; with `serve_cases` the
/// plan cache's live counters are recorded alongside them.
pub fn to_json(
    cases: &[PerfCase],
    traces: &[TraceCounters],
    certs: &[CertRow],
    serves: &[ServeCase],
    threads: usize,
    meta: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"suite\": \"{}\",\n", escape(SUITE_STAMP)));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"meta\": \"{}\",\n", escape(meta)));
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_s\": {:.9}, \"min_s\": {:.9}, \"median_s\": {:.9}, \
             \"iters\": {}, \"points\": {}, \"pps\": {:.3}, \"gated\": {}, \"table_hits\": {}}}{}\n",
            c.name,
            c.m.mean_s,
            c.m.min_s,
            c.m.median_s,
            c.m.iters,
            c.points,
            c.pps(),
            c.gated,
            c.table_hits,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    if traces.is_empty() && certs.is_empty() && serves.is_empty() {
        s.push_str("  ]\n}\n");
        return s;
    }
    s.push_str("  ],\n");
    if !traces.is_empty() {
        s.push_str("  \"trace_counters\": [\n");
        for (i, t) in traces.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"engine_case\": \"{}\", \"stages\": {}, \"points\": {}, \"messages\": {}, \"comm_delay\": {:?}, \"slowdown\": {:?}, \"table_hits\": {}}}{}\n",
                t.name,
                t.stages,
                t.points,
                t.messages,
                t.comm_delay,
                t.slowdown,
                t.table_hits,
                if i + 1 < traces.len() { "," } else { "" }
            ));
        }
        s.push_str(if certs.is_empty() && serves.is_empty() {
            "  ]\n"
        } else {
            "  ],\n"
        });
    }
    if !certs.is_empty() {
        s.push_str("  \"certificates\": [\n");
        for (i, c) in certs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"case\": \"{}\", \"engine\": \"{}\", \"regime\": \"{}\", \"lower\": {:?}, \"measured\": {:?}, \"upper\": {:?}, \"margin\": {:?}, \"verdict\": \"{}\"}}{}\n",
                escape(&c.case),
                c.engine,
                c.regime,
                c.lower,
                c.measured,
                c.upper,
                c.margin,
                escape(&c.verdict),
                if i + 1 < certs.len() { "," } else { "" }
            ));
        }
        s.push_str(if serves.is_empty() { "  ]\n" } else { "  ],\n" });
    }
    if !serves.is_empty() {
        s.push_str("  \"serve_cases\": [\n");
        for (i, v) in serves.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"serve\": \"{}\", \"jobs\": {}, \"cold_jps\": {:.3}, \"warm_jps\": {:.3}, \"warm_cold_ratio\": {:.3}}}{}\n",
                v.name,
                v.jobs,
                v.cold_jps,
                v.warm_jps,
                v.ratio(),
                if i + 1 < serves.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        let st = bsmp::plan_cache().stats();
        s.push_str(&format!(
            "  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"entries\": {}, \"bytes\": {}, \"capacity\": {}}}\n",
            st.hits, st.misses, st.evictions, st.entries, st.bytes, st.capacity
        ));
    }
    s.push_str("}\n");
    s
}

/// Parse a bench document, checking its schema tag.
fn parse_doc(doc: &str) -> Result<Val, String> {
    let v = json::parse(doc).map_err(|e| format!("not a JSON document: {e}"))?;
    if v.get("schema").and_then(Val::as_str) != Some(SCHEMA) {
        return Err(format!("missing schema tag {SCHEMA:?}"));
    }
    Ok(v)
}

/// The records of a document's `key` section (none when it is absent).
fn section<'a>(doc: &'a Val, key: &str) -> &'a [Val] {
    doc.get(key).and_then(Val::as_arr).unwrap_or(&[])
}

/// Structural sanity check used by the CI perf-smoke step: the document
/// must carry the schema tag and the record-time suite stamp, at least
/// one case with finite non-negative timings and throughput and a
/// `gated` flag, and positive rates on every serve case.  Returns the
/// case count.
pub fn validate_json(doc: &str) -> Result<usize, String> {
    let v = parse_doc(doc)?;
    if v.get("suite").and_then(Val::as_str).is_none() {
        return Err("missing record-time \"suite\" stamp".into());
    }
    for sv in section(&v, "serve_cases") {
        for key in ["cold_jps", "warm_jps", "warm_cold_ratio"] {
            match sv.get(key).and_then(Val::as_f64) {
                Some(x) if x.is_finite() && x > 0.0 => {}
                _ => return Err(format!("bad or missing \"{key}\" in serve case {sv:?}")),
            }
        }
    }
    let cases = section(&v, "cases");
    for c in cases {
        for key in ["mean_s", "min_s", "median_s", "pps"] {
            match c.get(key).and_then(Val::as_f64) {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => return Err(format!("bad or missing \"{key}\" in case {c:?}")),
            }
        }
        if !matches!(c.get("gated"), Some(Val::Bool(_))) {
            return Err(format!("missing \"gated\" flag in case {c:?}"));
        }
    }
    if cases.is_empty() {
        return Err("no cases in document".into());
    }
    Ok(cases.len())
}

/// Compare a fresh suite against a committed baseline document: every
/// *gated* baseline case present in the fresh suite must reach at least
/// [`GATE_FRACTION`] of the baseline's best-iteration points/sec
/// (`points / min_s` on both sides — see [`GATE_FRACTION`] for why the
/// floor, not the median, carries the gate).  Returns the number of
/// cases checked; a missing schema tag or zero comparable gated cases
/// is an error (the gate must never pass vacuously by schema drift).
pub fn regression_gate(committed: &str, fresh: &[PerfCase]) -> Result<usize, String> {
    let v =
        parse_doc(committed).map_err(|e| format!("baseline is not a {SCHEMA} document: {e}"))?;
    let mut checked = 0usize;
    let mut failures = Vec::new();
    let gated = section(&v, "cases")
        .iter()
        .filter(|c| c.get("gated") == Some(&Val::Bool(true)));
    for base in gated {
        let Some(name) = base.get("name").and_then(Val::as_str) else {
            return Err(format!("unparsable baseline case: {base:?}"));
        };
        let (Some(base_min), Some(base_points)) = (
            base.get("min_s").and_then(Val::as_f64),
            base.get("points").and_then(Val::as_f64),
        ) else {
            return Err(format!("baseline case {name} has no min_s/points"));
        };
        let base_best = base_points / base_min.max(1e-12);
        let Some(c) = fresh.iter().find(|c| c.name == name) else {
            failures.push(format!("gated case {name} missing from fresh suite"));
            continue;
        };
        checked += 1;
        if c.best_pps() < base_best * GATE_FRACTION {
            failures.push(format!(
                "{name}: best {:.0} points/s < {:.0}% of baseline best {:.0}",
                c.best_pps(),
                GATE_FRACTION * 100.0,
                base_best
            ));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    if checked == 0 {
        return Err("no gated baseline cases to check".into());
    }
    Ok(checked)
}

/// [`regression_gate`] with anti-flake retries for shared hosts: on
/// failure, `rerun` measures a fresh suite whose per-case best
/// iterations are merged into the running best, then the gate re-runs —
/// up to `retries` extra attempts.  Merging maxima never manufactures
/// throughput no run reached, so a real regression still fails every
/// attempt; a transient slow phase of the host clears as soon as one
/// attempt runs at normal speed.
pub fn gate_with_retries(
    committed: &str,
    cases: &mut [PerfCase],
    retries: u32,
    mut rerun: impl FnMut() -> Vec<PerfCase>,
) -> Result<usize, String> {
    let mut last = regression_gate(committed, cases);
    for _ in 0..retries {
        if last.is_ok() {
            return last;
        }
        let fresh = rerun();
        for c in cases.iter_mut() {
            if let Some(f) = fresh.iter().find(|f| f.name == c.name) {
                if f.m.min_s < c.m.min_s {
                    c.m = f.m;
                }
            }
        }
        last = regression_gate(committed, cases);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_case(name: &'static str, points: u64, gated: bool, median_s: f64) -> PerfCase {
        PerfCase {
            name,
            points,
            gated,
            table_hits: 7,
            m: Measurement {
                mean_s: median_s * 1.25,
                min_s: median_s * 0.5,
                median_s,
                iters: 3,
            },
        }
    }

    fn fake_cases() -> Vec<PerfCase> {
        vec![
            fake_case("a", 1000, true, 0.25),
            fake_case("b", 500, false, 1.5),
        ]
    }

    #[test]
    fn json_round_trips_through_validator() {
        let doc = to_json(&fake_cases(), &[], &[], &[], 2, "unit-test");
        assert_eq!(validate_json(&doc), Ok(2));
        assert!(doc.contains("\"threads\": 2"));
        assert!(doc.contains("\"meta\": \"unit-test\""));
        assert!(doc.contains("\"gated\": true"));
        assert!(doc.contains("\"table_hits\": 7"));
        assert!(doc.contains("\"pps\": 4000.000"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_json("{}").is_err());
        let doc = to_json(&fake_cases(), &[], &[], &[], 1, "x").replace("0.312500000", "NaN");
        assert!(validate_json(&doc).is_err());
        let doc =
            to_json(&fake_cases(), &[], &[], &[], 1, "x").replace("bsmp-bench-engines/v3", "v1");
        assert!(validate_json(&doc).is_err());
        let doc =
            to_json(&fake_cases(), &[], &[], &[], 1, "x").replace("\"suite\": ", "\"stale\": ");
        assert!(validate_json(&doc).is_err());
    }

    #[test]
    fn serve_section_round_trips_and_gates() {
        let fast = ServeCase {
            name: "serve_fake",
            jobs: 8,
            cold_jps: 10.0,
            warm_jps: 120.0,
        };
        let slow = ServeCase {
            warm_jps: 20.0,
            ..fast.clone()
        };
        let doc = to_json(&fake_cases(), &[], &[], std::slice::from_ref(&fast), 1, "x");
        assert_eq!(validate_json(&doc), Ok(2));
        assert!(doc.contains("\"serve_cases\""));
        assert!(doc.contains("\"warm_cold_ratio\": 12.000"));
        assert!(doc.contains("\"plan_cache\""));
        // A zeroed jobs/sec figure must fail validation, not slip by.
        let bad = doc.replace("\"warm_jps\": 120.000", "\"warm_jps\": 0.000");
        assert!(validate_json(&bad).is_err());
        // The ratio floor: 12× passes, 2× fails naming the case.
        assert_eq!(serve_gate(&[fast]), Ok(1));
        let err = serve_gate(&[slow]).unwrap_err();
        assert!(err.contains("serve_fake"), "{err}");
        assert!(serve_gate(&[]).is_err(), "never vacuous");
    }

    #[test]
    fn serve_suite_warm_beats_cold() {
        // Tiny batch — the real floor assertion rides in ci.sh's bench
        // run; here we only check the suite runs and warms at all.
        let serves = run_serve_suite(2);
        assert_eq!(serves.len(), 4);
        for s in &serves {
            assert!(s.cold_jps > 0.0 && s.warm_jps > 0.0, "{}", s.name);
        }
    }

    #[test]
    fn meta_is_escaped() {
        let doc = to_json(&fake_cases(), &[], &[], &[], 1, "say \"hi\"\nback\\slash");
        assert!(doc.contains("say \\\"hi\\\"\\nback\\\\slash"));
        assert_eq!(validate_json(&doc), Ok(2));
    }

    #[test]
    fn gate_passes_equal_suites_and_catches_regressions() {
        let base = fake_cases();
        let doc = to_json(&base, &[], &[], &[], 1, "baseline");
        // Identical throughput: pass, one gated case checked.
        assert_eq!(regression_gate(&doc, &base), Ok(1));
        // 10% slower: still within the 20% envelope.
        let slower = vec![fake_case("a", 1000, true, 0.25 / 0.9)];
        assert_eq!(regression_gate(&doc, &slower), Ok(1));
        // 2× slower on the gated case: fail.
        let bad = vec![fake_case("a", 1000, true, 0.5)];
        let err = regression_gate(&doc, &bad).unwrap_err();
        assert!(err.contains('a'), "{err}");
        // Gated case dropped from the suite: fail, never vacuous.
        let missing = vec![fake_case("b", 500, false, 1.5)];
        assert!(regression_gate(&doc, &missing).is_err());
        // Ungated-only baseline: error rather than a vacuous pass.
        let doc2 = to_json(&[fake_case("b", 500, false, 1.5)], &[], &[], &[], 1, "x");
        assert!(regression_gate(&doc2, &base).is_err());
    }

    #[test]
    fn multi_line_baseline_gates_like_the_one_line_form() {
        // The same baseline pretty-printed with one field per line must
        // parse and gate exactly as the emitted one-case-per-line form.
        let base = fake_cases();
        let doc = to_json(&base, &[], &[], &[], 1, "baseline");
        let spread = doc
            .replace(", \"", ",\n      \"")
            .replace("{\"", "{\n      \"");
        assert!(spread.lines().count() > doc.lines().count() + 10);
        assert_eq!(validate_json(&spread), validate_json(&doc));
        for fresh in [
            base.clone(),
            vec![fake_case("a", 1000, true, 0.25 / 0.9)],
            vec![fake_case("a", 1000, true, 0.5)],
            vec![fake_case("b", 500, false, 1.5)],
        ] {
            assert_eq!(
                regression_gate(&spread, &fresh),
                regression_gate(&doc, &fresh)
            );
        }
    }

    #[test]
    fn gate_retries_clear_transient_slow_phases() {
        let base = fake_cases();
        let doc = to_json(&base, &[], &[], &[], 1, "baseline");
        // A run caught in a 2× slow phase fails one-shot…
        let mut slow = vec![
            fake_case("a", 1000, true, 0.5),
            fake_case("b", 500, false, 3.0),
        ];
        assert!(regression_gate(&doc, &slow).is_err());
        // …but one retry at normal speed merges in and clears the gate.
        let mut calls = 0;
        let r = gate_with_retries(&doc, &mut slow, 2, || {
            calls += 1;
            fake_cases()
        });
        assert_eq!(r, Ok(1));
        assert_eq!(calls, 1);
        // A real regression fails every attempt and exhausts retries.
        let mut bad = vec![fake_case("a", 1000, true, 0.5)];
        let mut calls = 0;
        let err = gate_with_retries(&doc, &mut bad, 2, || {
            calls += 1;
            vec![fake_case("a", 1000, true, 0.5)]
        })
        .unwrap_err();
        assert!(err.contains('a'), "{err}");
        assert_eq!(calls, 2);
    }

    #[test]
    fn trace_counters_are_deterministic_and_optional() {
        let a = run_trace_counters(1);
        let b = run_trace_counters(2);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.stages, y.stages);
            assert_eq!(x.points, y.points);
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.comm_delay.to_bits(), y.comm_delay.to_bits());
            assert_eq!(x.slowdown.to_bits(), y.slowdown.to_bits());
            assert_eq!(x.table_hits, y.table_hits);
            assert!(x.points > 0 && x.slowdown > 0.0, "{}", x.name);
        }
        // Every d = 1 engine now meters its leaf kernels through a
        // plan-time cost table: the tiled naive1 run and the dnc/multi
        // descent leaves all count hits.
        for t in &a {
            assert!(t.table_hits > 0, "{}: no cost-table hits", t.name);
        }
        // An empty trace section is left out of the document…
        let doc = to_json(&fake_cases(), &[], &[], &[], 2, "x");
        assert!(!doc.contains("\"trace_counters\""));
        // …and a populated one still passes the case validator.
        let doc = to_json(&fake_cases(), &a, &[], &[], 2, "x");
        assert_eq!(validate_json(&doc), Ok(2));
        assert!(doc.contains("\"trace_counters\""));
        assert!(doc.contains("\"table_hits\""));
    }

    #[test]
    fn engine_suite_runs_at_tiny_scale() {
        let cases = run_engine_suite(1, 1);
        assert!(cases.len() >= 16, "all nine engines");
        assert!(cases.iter().filter(|c| c.gated).count() >= 9);
        for c in &cases {
            assert!(c.m.mean_s.is_finite() && c.m.mean_s >= 0.0, "{}", c.name);
            assert!(c.m.min_s <= c.m.mean_s + 1e-12, "{}", c.name);
            assert!(c.points > 0 && c.pps() > 0.0, "{}", c.name);
        }
        // Every engine with leaf kernels meters through the plan-time
        // cost tables — tiled and dnc/multi descent alike.
        let hit = |n: &str| cases.iter().find(|c| c.name == n).unwrap().table_hits;
        assert!(hit("naive1_n4096_p16_T512") > 0);
        assert!(hit("naive2_64x64_p16_T64") > 0);
        assert!(hit("naive3_16c_T16") > 0);
        assert!(hit("dnc1_n128_T128") > 0);
        assert!(hit("multi1_n128_p4_T128") > 0);
        assert!(hit("dnc2_16x16_T16") > 0);
        assert!(hit("multi2_32x32_p4_T32") > 0);
        let doc = to_json(&cases, &[], &[], &[], 1, "test");
        assert_eq!(validate_json(&doc), Ok(cases.len()));
        // A fresh suite always passes its own gate.
        let gated = cases.iter().filter(|c| c.gated).count();
        assert_eq!(regression_gate(&doc, &cases), Ok(gated));
    }
}
