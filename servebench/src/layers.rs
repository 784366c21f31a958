//! The traced run: the serve pipeline re-driven from outside with the
//! benchmark's span recorder around each layer's public entry point.
//!
//! Each client thread takes its own job list in order, as in the closed
//! loop, and for each job records a `job` span around the three calls
//! `serve` makes per request (`parse_job`, `run_job`, `result_line`).  Calls
//! that sit inside `run_job` are timed by twin calls on the same inputs,
//! under a `twins` span: `run_shape` for a cold job (again with the tracer
//! off for a traced job), `run_guest` for a warm one, the input generator,
//! the fault-plan parser, `certify` and `RunTrace::to_json`.  A twin runs
//! after its job, so an exec1 twin finds the decomposition plan its job
//! has just cached.  Spans stay in memory until the run ends.  The pass
//! calls the layers directly, without `serve`'s reader, worker and writer
//! threads, so its throughput differs from the untraced run's by the twin
//! calls and by those hand-offs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bsmp::faults::FaultPlan;
use bsmp::hram::Hram;
use bsmp::machine::MachineSpec;
use bsmp::serve_suite::{parse_job, result_line, run_guest, run_job, run_shape};
use bsmp::trace::certify::certify;
use bsmp::workloads::inputs;
use bsmp::Tracer;

use crate::stats::{median, percentile, sorted};
use crate::traffic::{Family, Job, Traffic};

/// One timed call.  `parent` indexes the same thread's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread's span list.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(t0: Instant) -> Self {
        Recorder {
            t0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) -> u64 {
        self.spans[span].end_ns = self.now();
        self.spans[span].ns()
    }

    /// Run `f` inside a span; returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let s = self.open(name, job, Some(parent));
        let out = black_box(f());
        (out, self.close(s))
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children of one span never overlap: a thread runs one call at
/// a time).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// Totals the traced run adds up per job (all exact for a given seed).
#[derive(Default)]
struct Tally {
    ops: u64,
    points: u64,
    table_hits: u64,
    stages: u64,
    out_bytes: u64,
    jobs: u64,
    bad_request: u64,
    sim_error: u64,
    /// Per family: twin `run_shape` ns and metered ops.
    family_ns: BTreeMap<Family, u64>,
    family_ops: BTreeMap<Family, u64>,
    /// Σ (`run_shape` recording − `run_shape` off) over traced cold jobs.
    record_ns: i64,
    /// Per job: `run_job` minus its twins.
    dispatch_ns: Vec<f64>,
}

/// The input generator `run_shape`/`run_guest` call for `job`.
fn make_input(j: &Job) -> Vec<u64> {
    let cells = match j.d() {
        3 => {
            let side = (j.n as f64).cbrt().round() as usize;
            side * side * side
        }
        _ => j.n as usize,
    };
    if j.m == 1 {
        inputs::random_bits(j.seed, cells)
    } else {
        inputs::random_words(j.seed, cells * j.m as usize, 50)
    }
}

fn trace_job(rec: &mut Recorder, t: &mut Tally, job: &Job, line: &str) {
    let id = job.id;
    let root = rec.open("job", id, None);
    let (spec, _) = rec.time("serve_suite::parse_job", id, root, || parse_job(line));
    let Ok(spec) = spec else {
        t.bad_request += 1;
        rec.close(root);
        return;
    };
    let (out, run_ns) = rec.time("serve_suite::run_job", id, root, || run_job(&spec));
    let Ok(out) = out else {
        t.sim_error += 1;
        rec.close(root);
        return;
    };
    let (text, _) = rec.time("serve_suite::result_line", id, root, || {
        result_line(&spec, &out)
    });
    rec.close(root);
    t.jobs += 1;
    t.out_bytes += text.len() as u64;
    t.ops += out.report.meter.ops;
    t.table_hits += out.report.meter.table_hits;
    t.points += job.n * job.steps.max(0) as u64;

    let twins = rec.open("twins", id, None);
    let plan = match &spec.faults {
        Some(src) => {
            let (plan, _) = rec.time("faults::FaultPlan::from_json", id, twins, || {
                FaultPlan::from_json(src)
            });
            plan.expect("parse_job accepted this plan")
        }
        None => FaultPlan::none(),
    };
    rec.time("workloads::inputs", id, twins, || make_input(job));
    let mut inner_ns = 0;
    if out.cache_hit {
        let (_, ns) = rec.time("serve_suite::run_guest", id, twins, || {
            run_guest(spec.d, spec.n, spec.m, spec.steps, spec.seed)
        });
        inner_ns += ns;
    } else {
        let shape = |tracer: &mut Tracer| {
            run_shape(
                spec.engine,
                spec.d,
                spec.n,
                spec.m,
                spec.p,
                spec.steps,
                spec.seed,
                &plan,
                tracer,
            )
        };
        let mut tracer = if job.traced() {
            Tracer::recording()
        } else {
            Tracer::off()
        };
        let (rep, ns) = rec.time("serve_suite::run_shape", id, twins, || shape(&mut tracer));
        inner_ns += ns;
        let fam = Family::of(job.engine);
        *t.family_ns.entry(fam).or_default() += ns;
        *t.family_ops.entry(fam).or_default() += rep.map(|r| r.meter.ops).unwrap_or(0);
        if job.traced() {
            let (_, off_ns) = rec.time("serve_suite::run_shape[tracer off]", id, twins, || {
                shape(&mut Tracer::off())
            });
            t.record_ns += ns as i64 - off_ns as i64;
        }
    }
    if let Some(trace) = &out.trace {
        t.stages += trace.stages.len() as u64;
        if spec.certify {
            let (_, ns) = rec.time("trace::certify", id, twins, || certify(trace));
            inner_ns += ns;
        }
        rec.time("trace::RunTrace::to_json", id, twins, || trace.to_json());
    }
    rec.close(twins);
    t.dispatch_ns.push(run_ns as f64 - inner_ns as f64);
}

/// Median ns per metered op of `Hram::relocate` and `Hram::read` in this
/// process: the floor the engines' metered ops could at best run at.
pub fn floor_ns_per_op() -> f64 {
    let spec = MachineSpec::new(1, 4096, 1, 1);
    let mask = (1 << 14) - 1;
    let iters = 1_000_000u64;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut ram = Hram::new(spec.access_fn(), 1 << 16);
            let mut a = 1usize;
            let mut s = 0u64;
            let t = Instant::now();
            for _ in 0..iters {
                a = (a.wrapping_mul(1_103_515_245).wrapping_add(12_345)) & mask;
                ram.relocate(a, (a + 17) & mask);
                a = (a.wrapping_mul(1_103_515_245).wrapping_add(12_345)) & mask;
                s = s.wrapping_add(ram.read(a));
            }
            black_box(s);
            t.elapsed().as_nanos() as f64 / ram.meter.ops as f64
        })
        .collect();
    median(&samples).expect("five samples")
}

/// Median of `ns` samples in µs; 0 when the layer did not run, and 0 with
/// a note in `refused` when too few samples support a median.
fn p50_us(name: &str, ns: Vec<f64>, refused: &mut Vec<String>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    match percentile(&sorted(ns), 0.5) {
        Ok(x) => x / 1e3,
        Err(e) => {
            refused.push(format!("{name}: {e}"));
            0.0
        }
    }
}

/// Per-layer figures of a traced run, by metric name.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per span name: count, total ms, self ms.
    pub spans_summary: String,
    /// Every span, one JSON object per line.
    pub spans_jsonl: String,
    pub wall_s: f64,
    pub jobs: u64,
    pub errors: u64,
    /// Percentiles that had too few samples, reported as 0.
    pub refused: Vec<String>,
}

/// The traced run covers the first this many jobs of each client, so it
/// stays within a minute and its spans within a few MB.
const TRACED_PER_CLIENT: usize = 500;

/// Run the traced pass over `traffic` (one thread per client).
pub fn traced_run(traffic: &Traffic) -> Layers {
    let t0 = Instant::now();
    let per_thread: Vec<(Recorder, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .clients
            .iter()
            .zip(&traffic.lines)
            .map(|(jobs, lines)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(t0);
                    let mut tally = Tally::default();
                    for (job, line) in jobs.iter().zip(lines).take(TRACED_PER_CLIENT) {
                        trace_job(&mut rec, &mut tally, job, line);
                    }
                    (rec, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let floor = floor_ns_per_op();

    let mut t = Tally::default();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let mut jsonl = String::new();
    for (thread, (rec, tally)) in per_thread.iter().enumerate() {
        let own = self_ns(&rec.spans);
        for (i, sp) in rec.spans.iter().enumerate() {
            by_name.entry(sp.name).or_default().push(sp.ns() as f64);
            let e = totals.entry(sp.name).or_default();
            *e = (e.0 + 1, e.1 + sp.ns(), e.2 + own[i]);
            let parent = sp
                .parent
                .map_or("null".to_string(), |p| format!("\"{thread}.{p}\""));
            writeln!(
                jsonl,
                "{{\"span\": \"{thread}.{i}\", \"name\": \"{}\", \"job\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}}}",
                sp.name, sp.job, sp.start_ns, sp.end_ns, own[i]
            )
            .expect("write to String");
        }
        t.ops += tally.ops;
        t.points += tally.points;
        t.table_hits += tally.table_hits;
        t.stages += tally.stages;
        t.out_bytes += tally.out_bytes;
        t.jobs += tally.jobs;
        t.bad_request += tally.bad_request;
        t.sim_error += tally.sim_error;
        t.record_ns += tally.record_ns;
        t.dispatch_ns.extend(&tally.dispatch_ns);
        for (f, ns) in &tally.family_ns {
            *t.family_ns.entry(*f).or_default() += ns;
        }
        for (f, ops) in &tally.family_ops {
            *t.family_ops.entry(*f).or_default() += ops;
        }
    }

    let mut refused = Vec::new();
    let mut span_p50 = |name: &'static str| {
        p50_us(
            name,
            by_name.get(name).cloned().unwrap_or_default(),
            &mut refused,
        )
    };
    let parse_us = span_p50("serve_suite::parse_job");
    let serialize_us = span_p50("serve_suite::result_line");
    let guest_us = span_p50("serve_suite::run_guest");
    let plan_parse_us = span_p50("faults::FaultPlan::from_json");
    let certify_us = span_p50("trace::certify");
    let to_json_us = span_p50("trace::RunTrace::to_json");
    let dispatch_us = p50_us("serve_suite::dispatch", t.dispatch_ns.clone(), &mut refused);
    let sum_ms = |name: &str| totals.get(name).map_or(0.0, |e| e.1 as f64 / 1e6);

    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("serve_suite.parse_us", parse_us, "us"),
        ("serve_suite.dispatch_us", dispatch_us, "us"),
        ("serve_suite.serialize_us", serialize_us, "us"),
        (
            "serve_suite.out_bytes",
            t.out_bytes as f64 / t.jobs.max(1) as f64,
            "B",
        ),
    ];
    for (fam, ms_name, ratio_name) in [
        (Family::Exec1, "sim.exec1_ms", "sim.exec1_floor_ratio"),
        (Family::Exec2, "sim.exec2_ms", "sim.exec2_floor_ratio"),
        (Family::Exec3, "sim.exec3_ms", "sim.exec3_floor_ratio"),
        (Family::Tiled, "sim.tiled_ms", "sim.tiled_floor_ratio"),
    ] {
        let ns = t.family_ns.get(&fam).copied().unwrap_or(0) as f64;
        let ops = t.family_ops.get(&fam).copied().unwrap_or(0) as f64;
        metrics.push((ms_name, ns / 1e6, "ms"));
        let ratio = if ops > 0.0 { ns / (ops * floor) } else { 0.0 };
        metrics.push((ratio_name, ratio, "1"));
    }
    metrics.extend([
        ("sim.ops", t.ops as f64, "count"),
        ("sim.points", t.points as f64, "count"),
        ("hram.floor_ns_per_op", floor, "ns"),
        ("hram.table_hits", t.table_hits as f64, "count"),
        ("guest.run_us", guest_us, "us"),
        ("workloads.input_ms", sum_ms("workloads::inputs"), "ms"),
        ("faults.plan_parse_us", plan_parse_us, "us"),
        ("trace.record_ms", t.record_ns as f64 / 1e6, "ms"),
        ("trace.stages", t.stages as f64, "count"),
        ("trace.certify_us", certify_us, "us"),
        ("trace.to_json_us", to_json_us, "us"),
    ]);

    let mut spans_summary = String::from("{");
    for (i, (name, (count, total, own))) in totals.iter().enumerate() {
        write!(
            spans_summary,
            "{}\"{name}\": {{\"count\": {count}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
            if i > 0 { ", " } else { "" },
            *total as f64 / 1e6,
            *own as f64 / 1e6
        )
        .expect("write to String");
    }
    spans_summary.push('}');
    Layers {
        metrics,
        spans_summary,
        spans_jsonl: jsonl,
        wall_s,
        jobs: t.jobs,
        errors: t.bad_request + t.sim_error,
        refused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0);
        let root = rec.open("job", 1, None);
        rec.time("a", 1, root, || black_box((0..100_000u64).sum::<u64>()));
        rec.time("b", 1, root, || black_box((0..100_000u64).sum::<u64>()));
        rec.close(root);
        let own = self_ns(&rec.spans);
        let s = &rec.spans;
        assert_eq!(own[0], s[0].ns() - s[1].ns() - s[2].ns());
        assert_eq!((own[1], own[2]), (s[1].ns(), s[2].ns()));
        assert_eq!(s[1].parent, Some(0));
    }

    #[test]
    fn traced_run_reports_every_layer() {
        let traffic = crate::traffic::generate(crate::traffic::Workload::TiledTraced, 3, 8);
        let l = traced_run(&traffic);
        assert_eq!((l.jobs, l.errors), (8, 0));
        let get = |k: &str| l.metrics.iter().find(|m| m.0 == k).unwrap().1;
        assert!(get("sim.tiled_ms") > 0.0);
        assert!(get("sim.tiled_floor_ratio") > 0.0);
        assert!(get("trace.stages") > 0.0);
        assert!(get("sim.ops") > 0.0);
        assert_eq!(get("sim.exec1_ms"), 0.0);
        assert!(l.spans_jsonl.lines().count() >= 8 * 8);
        // Eight jobs are too few for a median: refused, not guessed.
        assert!(l.refused.iter().any(|r| r.contains("parse_job")));
    }
}
