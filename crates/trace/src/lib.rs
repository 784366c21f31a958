//! `bsmp-trace`: a structured tracing and certification layer for the
//! BSMP simulation engines (dependency-free apart from the
//! `bsmp-analytic` closed forms that [`certify`] sandwiches runs with).
//!
//! The paper's central object is an accounting identity: measured slowdown
//! `T_p / T_n` factors into the Brent term `n/p` and the locality slowdown
//! `A(n, m, p)` of Theorem 1.  This crate records where that time actually
//! goes — one [`StageRecord`] per bulk-synchronous stage, carrying the points
//! visited, messages sent, distance-weighted communication delay charged by
//! the stage clock, fault events consumed, wall time, and worker-thread
//! occupancy — and closes the run with a [`Summary`] that performs the
//! Brent × locality split explicitly.
//!
//! Two design rules keep the layer out of the hot path:
//!
//! 1. **Disabled mode is free.**  [`Tracer::off`] holds no state; every
//!    method starts with an `Option` check on a `None` that the optimizer
//!    sees through, so untraced runs stay bit-identical to pre-trace builds.
//! 2. **Per-worker accumulation is lock-free.**  During a pooled stage each
//!    worker adds its point/message counts to its own [`StageTally`] slot
//!    with relaxed atomics; the slots are drained and merged once, at stage
//!    close, after the pool barrier.
//!
//! Logs serialize to a hand-rolled JSON format tagged [`SCHEMA`]
//! (`bsmp-trace/v1`); [`RunTrace::validate`] checks the structural
//! invariants that `bsmp-repro trace-validate` enforces.

pub mod certify;
mod engine;
pub mod json;

pub use engine::EngineKind;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bsmp_analytic::theorem1;
use json::Val;

/// Schema tag written into every trace log.
pub const SCHEMA: &str = "bsmp-trace/v1";

/// One bulk-synchronous stage as observed by the tracer.
#[derive(Clone, Debug, PartialEq)]
pub struct StageRecord {
    /// Stage index, strictly increasing from 0 within a run.
    pub stage: u64,
    /// Engine-assigned label (e.g. `"step"`, `"rearrange"`, `"scatter"`).
    pub label: String,
    /// Guest points visited during the stage (summed over processors).
    pub points: u64,
    /// Words communicated between processors during the stage.
    pub messages: u64,
    /// Parallel model time charged (the stage's max-over-processors cost).
    pub cost: f64,
    /// Busy model time charged (summed over processors).
    pub busy: f64,
    /// Distance-weighted communication delay charged by the stage clock.
    pub comm_delay: f64,
    /// Fault-injected delay consumed during the stage.
    pub injected_delay: f64,
    /// Fault retries consumed during the stage.
    pub retries: u64,
    /// Stages recovered from transient faults during the stage.
    pub recovered: u64,
    /// Processor-stages spent inside an active partition-storm window.
    pub outages: u64,
    /// Churn events (departures + rejoins) during the stage.
    pub churn: u64,
    /// Churn redelivery backoff retries consumed during the stage.
    pub backoffs: u64,
    /// Host wall-clock time spent executing the stage, in nanoseconds.
    pub wall_ns: u64,
    /// Worker threads that executed the stage (1 for serial stages).
    pub workers: u64,
}

/// End-of-run roll-up, including the Theorem 1 slowdown split.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Host parallel model time `T_p`.
    pub host_time: f64,
    /// Guest model time `T_n`.
    pub guest_time: f64,
    /// Measured slowdown `T_p / T_n`.
    pub slowdown: f64,
    /// Brent (parallelism-loss) term `n/p`.
    pub brent_term: f64,
    /// Locality term: `slowdown / (n/p)` — the empirical `A(n, m, p)`.
    pub locality_term: f64,
    /// Theorem 1 regime tag (`"R1"`…`"R4"`), stamped by
    /// [`Tracer::finish_run`].
    pub regime: String,
    /// Number of stages recorded.
    pub stages: u64,
    /// Total points visited.
    pub points: u64,
    /// Total messages.
    pub messages: u64,
    /// Total distance-weighted communication delay.
    pub comm_delay: f64,
    /// Total fault-injected delay.
    pub injected_delay: f64,
    /// Total fault retries.
    pub retries: u64,
    /// Total processor-stages spent inside partition-storm windows.
    pub outages: u64,
    /// Total churn events (departures + rejoins).
    pub churn: u64,
    /// Total churn backoff retries.
    pub backoffs: u64,
    /// Total wall time across stages, nanoseconds.
    pub wall_ns: u64,
    /// Busy / (p · parallel) utilization over the whole run.
    pub efficiency: f64,
}

/// A complete trace of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTrace {
    /// Engine name (`"naive1"`, `"multi1"`, …).
    pub engine: String,
    /// Mesh dimensionality.
    pub d: u32,
    /// Guest machine size.
    pub n: u64,
    /// Words of memory per guest node.
    pub m: u64,
    /// Host processor count.
    pub p: u64,
    /// Guest steps simulated.
    pub steps: u64,
    /// Per-stage records, in execution order.
    pub stages: Vec<StageRecord>,
    /// End-of-run roll-up.
    pub summary: Summary,
}

/// Static description of the run, supplied when the trace is closed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunMeta {
    pub engine: EngineKind,
    pub d: u32,
    pub n: u64,
    pub m: u64,
    pub p: u64,
    pub steps: u64,
}

/// Cumulative counters sampled from the engine's clock and fault session at
/// a stage boundary.  The tracer differences consecutive samples itself, so
/// engines hand over running totals and never track "previous" state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTotals {
    /// Cumulative parallel model time (`StageClock::parallel_time`).
    pub parallel: f64,
    /// Cumulative busy model time (`StageClock::busy_time`).
    pub busy: f64,
    /// Cumulative communication delay (`StageClock::comm_time`).
    pub comm: f64,
    /// Cumulative fault-injected delay (`FaultStats::injected_delay`).
    pub injected_delay: f64,
    /// Cumulative fault retries.
    pub retries: u64,
    /// Cumulative recovered stages.
    pub recovered: u64,
    /// Cumulative storm processor-stages (`FaultStats::outage_stages`).
    pub outages: u64,
    /// Cumulative churn events (`FaultStats::departures + rejoins`).
    pub churn: u64,
    /// Cumulative backoff retries (`FaultStats::backoff_retries`).
    pub backoffs: u64,
}

/// Lock-free per-processor point/message counters for one stage.  Each
/// worker touches only its own slot, so relaxed ordering suffices; the pool
/// barrier at stage close publishes the values to the draining thread.
pub struct StageTally {
    points: Vec<AtomicU64>,
    messages: Vec<AtomicU64>,
}

impl StageTally {
    fn with_procs(p: usize) -> Self {
        Self {
            points: (0..p).map(|_| AtomicU64::new(0)).collect(),
            messages: (0..p).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Credit `points` visited and `messages` sent to processor `pi`.
    #[inline]
    pub fn add(&self, pi: usize, points: u64, messages: u64) {
        self.points[pi].fetch_add(points, Ordering::Relaxed);
        self.messages[pi].fetch_add(messages, Ordering::Relaxed);
    }

    fn drain(&self) -> (u64, u64) {
        let points = self
            .points
            .iter()
            .map(|c| c.swap(0, Ordering::Relaxed))
            .sum();
        let messages = self
            .messages
            .iter()
            .map(|c| c.swap(0, Ordering::Relaxed))
            .sum();
        (points, messages)
    }
}

struct TraceState {
    stages: Vec<StageRecord>,
    tally: StageTally,
    open_label: String,
    start: Option<Instant>,
    prev: StageTotals,
    run: Option<RunTrace>,
}

/// The recording handle threaded through the engines.
///
/// Construct with [`Tracer::off`] (the default, a true no-op) or
/// [`Tracer::recording`].  Engines call [`Tracer::begin_stage`] /
/// [`Tracer::end_stage`] around each bulk-synchronous stage, add counts via
/// [`Tracer::tally`] inside worker closures, and the caller closes the run
/// with [`Tracer::finish_run`] and collects it with [`Tracer::take`].
#[derive(Default)]
pub struct Tracer {
    state: Option<Box<TraceState>>,
}

impl Tracer {
    /// A disabled tracer: every method is a no-op behind one `None` check.
    #[inline]
    pub fn off() -> Self {
        Self { state: None }
    }

    /// A recording tracer.
    pub fn recording() -> Self {
        Self {
            state: Some(Box::new(TraceState {
                stages: Vec::new(),
                tally: StageTally::with_procs(0),
                open_label: String::new(),
                start: None,
                prev: StageTotals::default(),
                run: None,
            })),
        }
    }

    /// Whether this tracer records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.state.is_some()
    }

    /// Size the per-processor tally for `p` processors.  Engines call this
    /// once, before their stage loop.
    pub fn ensure_procs(&mut self, p: usize) {
        if let Some(st) = &mut self.state {
            if st.tally.points.len() < p {
                st.tally = StageTally::with_procs(p);
            }
        }
    }

    /// The shared per-stage tally, for worker closures to add into.
    /// `None` when tracing is disabled — engines keep local counters and
    /// skip the atomic adds entirely in that case.
    #[inline]
    pub fn tally(&self) -> Option<&StageTally> {
        self.state.as_ref().map(|st| &st.tally)
    }

    /// Open a stage.  `label` names the engine's phase for the log.
    #[inline]
    pub fn begin_stage(&mut self, label: &str) {
        if let Some(st) = &mut self.state {
            st.open_label.clear();
            st.open_label.push_str(label);
            st.start = Some(Instant::now());
        }
    }

    /// Close the open stage.  `totals` are *cumulative* counters; the tracer
    /// differences them against the previous close so per-stage figures
    /// telescope exactly to the run totals.
    pub fn end_stage(&mut self, totals: StageTotals, workers: usize) {
        if let Some(st) = &mut self.state {
            let wall_ns = st
                .start
                .take()
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            let (points, messages) = st.tally.drain();
            let stage = st.stages.len() as u64;
            st.stages.push(StageRecord {
                stage,
                label: std::mem::take(&mut st.open_label),
                points,
                messages,
                cost: totals.parallel - st.prev.parallel,
                busy: totals.busy - st.prev.busy,
                comm_delay: totals.comm - st.prev.comm,
                injected_delay: totals.injected_delay - st.prev.injected_delay,
                retries: totals.retries - st.prev.retries,
                recovered: totals.recovered - st.prev.recovered,
                outages: totals.outages - st.prev.outages,
                churn: totals.churn - st.prev.churn,
                backoffs: totals.backoffs - st.prev.backoffs,
                wall_ns,
                workers: workers.max(1) as u64,
            });
            st.prev = totals;
        }
    }

    /// Close the run: compute the summary (Brent × locality split), stamp
    /// Theorem 1's regime for `meta`'s `(d, n, m, p)`, and make the
    /// finished [`RunTrace`] available to [`Tracer::take`].
    pub fn finish_run(&mut self, meta: RunMeta, host_time: f64, guest_time: f64) {
        if let Some(st) = &mut self.state {
            let slowdown = if guest_time == 0.0 {
                if host_time == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                host_time / guest_time
            };
            let brent = meta.n as f64 / meta.p as f64;
            // Float totals come straight from the cumulative ledger
            // (`st.prev` holds the running totals after the last stage
            // close), NOT from re-summing the per-stage diffs: each
            // diff loses an ulp against the ledger it telescoped from,
            // and at thousands of stages the naive re-sum can drift
            // away from the figures the certifier checks against.
            // Integer counters are exact either way; the ledger is
            // still the single source of truth for all of them.
            let totals = st.prev;
            let denom = meta.p as f64 * host_time;
            let summary = Summary {
                host_time,
                guest_time,
                slowdown,
                brent_term: brent,
                locality_term: slowdown / brent,
                regime: format!(
                    "{:?}",
                    theorem1::range(meta.d as u8, meta.n as f64, meta.m as f64, meta.p as f64)
                ),
                stages: st.stages.len() as u64,
                points: st.stages.iter().map(|s| s.points).sum(),
                messages: st.stages.iter().map(|s| s.messages).sum(),
                comm_delay: totals.comm,
                injected_delay: totals.injected_delay,
                retries: totals.retries,
                outages: totals.outages,
                churn: totals.churn,
                backoffs: totals.backoffs,
                wall_ns: st.stages.iter().map(|s| s.wall_ns).sum(),
                efficiency: if denom > 0.0 {
                    totals.busy / denom
                } else {
                    1.0
                },
            };
            st.run = Some(RunTrace {
                engine: meta.engine.name().to_string(),
                d: meta.d,
                n: meta.n,
                m: meta.m,
                p: meta.p,
                steps: meta.steps,
                stages: std::mem::take(&mut st.stages),
                summary,
            });
        }
    }

    /// Collect the finished trace (after [`Tracer::finish_run`]).
    pub fn take(&mut self) -> Option<RunTrace> {
        self.state.as_mut().and_then(|st| st.run.take())
    }
}

/// Relative tolerance for telescoped float sums in [`RunTrace::validate`].
/// Per-stage diffs each round once, so the telescoped total drifts from the
/// cumulative clock by at most a few ulps per stage.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

impl RunTrace {
    /// Check the structural invariants of the log: strictly monotone stage
    /// ids, non-negative finite per-stage figures, `busy ≥ cost`, messages
    /// present wherever communication delay was charged, summary totals
    /// matching the per-stage sums, `Σ cost` matching the reported host
    /// time, and the Brent × locality split multiplying back to the
    /// measured slowdown.  Regime-tag *semantics* (Theorem 1 consistency)
    /// are checked by the façade, which owns the analytic bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.p == 0 {
            return Err("n and p must be positive".to_string());
        }
        if self.stages.is_empty() {
            return Err("trace has no stages".to_string());
        }
        let mut prev: Option<u64> = None;
        for s in &self.stages {
            if let Some(q) = prev {
                if s.stage <= q {
                    return Err(format!(
                        "stage ids not strictly increasing: {} after {}",
                        s.stage, q
                    ));
                }
            }
            prev = Some(s.stage);
            for (what, x) in [
                ("cost", s.cost),
                ("busy", s.busy),
                ("comm_delay", s.comm_delay),
                ("injected_delay", s.injected_delay),
            ] {
                if !x.is_finite() || x < -REL_TOL {
                    return Err(format!("stage {}: {} = {} is degenerate", s.stage, what, x));
                }
            }
            if s.busy + REL_TOL * s.busy.abs().max(1.0) < s.cost {
                return Err(format!(
                    "stage {}: busy time {} below parallel cost {}",
                    s.stage, s.busy, s.cost
                ));
            }
            if s.comm_delay > REL_TOL && s.messages == 0 {
                return Err(format!(
                    "stage {}: comm delay {} charged with zero messages",
                    s.stage, s.comm_delay
                ));
            }
            if s.workers == 0 {
                return Err(format!("stage {}: zero workers", s.stage));
            }
        }
        let sm = &self.summary;
        if sm.stages != self.stages.len() as u64 {
            return Err(format!(
                "summary counts {} stages, log has {}",
                sm.stages,
                self.stages.len()
            ));
        }
        let points: u64 = self.stages.iter().map(|s| s.points).sum();
        let messages: u64 = self.stages.iter().map(|s| s.messages).sum();
        let retries: u64 = self.stages.iter().map(|s| s.retries).sum();
        let outages: u64 = self.stages.iter().map(|s| s.outages).sum();
        let churn: u64 = self.stages.iter().map(|s| s.churn).sum();
        let backoffs: u64 = self.stages.iter().map(|s| s.backoffs).sum();
        if points != sm.points
            || messages != sm.messages
            || retries != sm.retries
            || outages != sm.outages
            || churn != sm.churn
            || backoffs != sm.backoffs
        {
            return Err("summary counters diverge from per-stage sums".to_string());
        }
        let comm: f64 = self.stages.iter().map(|s| s.comm_delay).sum();
        let injected: f64 = self.stages.iter().map(|s| s.injected_delay).sum();
        if !close(comm, sm.comm_delay) || !close(injected, sm.injected_delay) {
            return Err("summary delay totals diverge from per-stage sums".to_string());
        }
        let cost: f64 = self.stages.iter().map(|s| s.cost).sum();
        if !close(cost, sm.host_time) {
            return Err(format!(
                "stage costs sum to {} but summary host_time is {}",
                cost, sm.host_time
            ));
        }
        if !sm.slowdown.is_finite() || !sm.host_time.is_finite() || !sm.guest_time.is_finite() {
            return Err("summary times are degenerate".to_string());
        }
        if !close(sm.brent_term * sm.locality_term, sm.slowdown) {
            return Err(format!(
                "Brent term {} × locality term {} does not recover slowdown {}",
                sm.brent_term, sm.locality_term, sm.slowdown
            ));
        }
        if !matches!(sm.regime.as_str(), "R1" | "R2" | "R3" | "R4") {
            return Err(format!("regime tag '{}' is not one of R1..R4", sm.regime));
        }
        Ok(())
    }

    /// Serialize to the `bsmp-trace/v1` JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.stages.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"engine\": \"{}\",\n",
            json::escape(&self.engine)
        ));
        out.push_str(&format!("  \"d\": {},\n", self.d));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str(&format!("  \"m\": {},\n", self.m));
        out.push_str(&format!("  \"p\": {},\n", self.p));
        out.push_str(&format!("  \"steps\": {},\n", self.steps));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": {}, \"label\": \"{}\", \"points\": {}, \"messages\": {}, \
                 \"cost\": {}, \"busy\": {}, \"comm_delay\": {}, \"injected_delay\": {}, \
                 \"retries\": {}, \"recovered\": {}, \"outages\": {}, \"churn\": {}, \
                 \"backoffs\": {}, \"wall_ns\": {}, \"workers\": {}}}{}\n",
                s.stage,
                json::escape(&s.label),
                s.points,
                s.messages,
                json::num(s.cost),
                json::num(s.busy),
                json::num(s.comm_delay),
                json::num(s.injected_delay),
                s.retries,
                s.recovered,
                s.outages,
                s.churn,
                s.backoffs,
                s.wall_ns,
                s.workers,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let sm = &self.summary;
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!(
            "    \"host_time\": {},\n",
            json::num(sm.host_time)
        ));
        out.push_str(&format!(
            "    \"guest_time\": {},\n",
            json::num(sm.guest_time)
        ));
        out.push_str(&format!("    \"slowdown\": {},\n", json::num(sm.slowdown)));
        out.push_str(&format!(
            "    \"brent_term\": {},\n",
            json::num(sm.brent_term)
        ));
        out.push_str(&format!(
            "    \"locality_term\": {},\n",
            json::num(sm.locality_term)
        ));
        out.push_str(&format!(
            "    \"regime\": \"{}\",\n",
            json::escape(&sm.regime)
        ));
        out.push_str(&format!("    \"stages\": {},\n", sm.stages));
        out.push_str(&format!("    \"points\": {},\n", sm.points));
        out.push_str(&format!("    \"messages\": {},\n", sm.messages));
        out.push_str(&format!(
            "    \"comm_delay\": {},\n",
            json::num(sm.comm_delay)
        ));
        out.push_str(&format!(
            "    \"injected_delay\": {},\n",
            json::num(sm.injected_delay)
        ));
        out.push_str(&format!("    \"retries\": {},\n", sm.retries));
        out.push_str(&format!("    \"outages\": {},\n", sm.outages));
        out.push_str(&format!("    \"churn\": {},\n", sm.churn));
        out.push_str(&format!("    \"backoffs\": {},\n", sm.backoffs));
        out.push_str(&format!("    \"wall_ns\": {},\n", sm.wall_ns));
        out.push_str(&format!(
            "    \"efficiency\": {}\n",
            json::num(sm.efficiency)
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Parse a `bsmp-trace/v1` JSON document.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        let schema = field_str(&doc, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema '{schema}' is not '{SCHEMA}'"));
        }
        let stages_val = doc
            .get("stages")
            .and_then(Val::as_arr)
            .ok_or_else(|| "missing 'stages' array".to_string())?;
        let mut stages = Vec::with_capacity(stages_val.len());
        for v in stages_val {
            stages.push(StageRecord {
                stage: field_u64(v, "stage")?,
                label: field_str(v, "label")?.to_string(),
                points: field_u64(v, "points")?,
                messages: field_u64(v, "messages")?,
                cost: field_f64(v, "cost")?,
                busy: field_f64(v, "busy")?,
                comm_delay: field_f64(v, "comm_delay")?,
                injected_delay: field_f64(v, "injected_delay")?,
                retries: field_u64(v, "retries")?,
                recovered: field_u64(v, "recovered")?,
                outages: field_u64_or0(v, "outages")?,
                churn: field_u64_or0(v, "churn")?,
                backoffs: field_u64_or0(v, "backoffs")?,
                wall_ns: field_u64(v, "wall_ns")?,
                workers: field_u64(v, "workers")?,
            });
        }
        let sv = doc
            .get("summary")
            .ok_or_else(|| "missing 'summary' object".to_string())?;
        let summary = Summary {
            host_time: field_f64(sv, "host_time")?,
            guest_time: field_f64(sv, "guest_time")?,
            slowdown: field_f64(sv, "slowdown")?,
            brent_term: field_f64(sv, "brent_term")?,
            locality_term: field_f64(sv, "locality_term")?,
            regime: field_str(sv, "regime")?.to_string(),
            stages: field_u64(sv, "stages")?,
            points: field_u64(sv, "points")?,
            messages: field_u64(sv, "messages")?,
            comm_delay: field_f64(sv, "comm_delay")?,
            injected_delay: field_f64(sv, "injected_delay")?,
            retries: field_u64(sv, "retries")?,
            outages: field_u64_or0(sv, "outages")?,
            churn: field_u64_or0(sv, "churn")?,
            backoffs: field_u64_or0(sv, "backoffs")?,
            wall_ns: field_u64(sv, "wall_ns")?,
            efficiency: field_f64(sv, "efficiency")?,
        };
        Ok(RunTrace {
            engine: field_str(&doc, "engine")?.to_string(),
            d: field_u64(&doc, "d")? as u32,
            n: field_u64(&doc, "n")?,
            m: field_u64(&doc, "m")?,
            p: field_u64(&doc, "p")?,
            steps: field_u64(&doc, "steps")?,
            stages,
            summary,
        })
    }
}

fn field_f64(v: &Val, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Val::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn field_u64(v: &Val, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Val::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// Like [`field_u64`] but defaulting to 0 when the field is absent —
/// used for the scenario counters added after the first `bsmp-trace/v1`
/// logs were written, so old documents still parse.
fn field_u64_or0(v: &Val, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(0),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("non-integer field '{key}'")),
    }
}

fn field_str<'a>(v: &'a Val, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Val::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let mut t = Tracer::recording();
        t.ensure_procs(2);
        t.begin_stage("step");
        t.tally().unwrap().add(0, 8, 2);
        t.tally().unwrap().add(1, 8, 3);
        t.end_stage(
            StageTotals {
                parallel: 10.0,
                busy: 18.0,
                comm: 4.0,
                ..StageTotals::default()
            },
            2,
        );
        t.begin_stage("step");
        t.tally().unwrap().add(0, 8, 1);
        t.end_stage(
            StageTotals {
                parallel: 25.0,
                busy: 40.0,
                comm: 6.0,
                injected_delay: 3.0,
                retries: 1,
                recovered: 1,
                outages: 2,
                churn: 1,
                backoffs: 3,
            },
            2,
        );
        t.finish_run(
            RunMeta {
                engine: EngineKind::Naive1,
                d: 1,
                n: 16,
                m: 1,
                p: 2,
                steps: 2,
            },
            25.0,
            4.0,
        );
        let mut run = t.take().unwrap();
        run.summary.regime = "R4".to_string();
        run
    }

    #[test]
    fn totals_match_ledger_at_t4096() {
        // Regression: summary float totals must come from the
        // cumulative ledger, not a re-sum of the per-stage diffs.  With
        // an increment of 0.1 (not representable in binary) every diff
        // loses an ulp against the ledger, and at T = 4096 the naive
        // re-sum visibly drifts from the cumulative total.
        let steps = 4096u64;
        let mut t = Tracer::recording();
        t.ensure_procs(1);
        let mut ledger = StageTotals::default();
        for _ in 0..steps {
            t.begin_stage("step");
            t.tally().unwrap().add(0, 1, 1);
            ledger.parallel += 0.1;
            ledger.busy += 0.1;
            ledger.comm += 0.1;
            ledger.injected_delay += 0.1;
            t.end_stage(ledger, 1);
        }
        t.finish_run(
            RunMeta {
                engine: EngineKind::Naive1,
                d: 1,
                n: 1,
                m: 1,
                p: 1,
                steps,
            },
            ledger.parallel,
            steps as f64,
        );
        let mut run = t.take().unwrap();
        run.summary.regime = "R1".to_string();
        // Bit-exact against the ledger, no tolerance.
        assert_eq!(run.summary.comm_delay.to_bits(), ledger.comm.to_bits());
        assert_eq!(
            run.summary.injected_delay.to_bits(),
            ledger.injected_delay.to_bits()
        );
        // The per-stage re-sum is close but NOT bit-identical here —
        // that is exactly the drift the ledger read sidesteps.
        let resum: f64 = run.stages.iter().map(|s| s.comm_delay).sum();
        assert!((resum - ledger.comm).abs() / ledger.comm < 1e-9);
        run.validate().expect("drift-free totals validate");
    }

    #[test]
    fn off_tracer_is_inert() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        t.ensure_procs(8);
        assert!(t.tally().is_none());
        t.begin_stage("x");
        t.end_stage(StageTotals::default(), 4);
        t.finish_run(
            RunMeta {
                engine: EngineKind::Naive1,
                d: 1,
                n: 1,
                m: 1,
                p: 1,
                steps: 0,
            },
            0.0,
            0.0,
        );
        assert!(t.take().is_none());
    }

    #[test]
    fn stage_diffs_telescope() {
        let run = sample_trace();
        assert_eq!(run.stages.len(), 2);
        assert_eq!(run.stages[0].points, 16);
        assert_eq!(run.stages[0].messages, 5);
        assert_eq!(run.stages[0].cost, 10.0);
        assert_eq!(run.stages[1].cost, 15.0);
        assert_eq!(run.stages[1].comm_delay, 2.0);
        assert_eq!(run.stages[1].retries, 1);
        assert_eq!(run.summary.points, 24);
        assert_eq!(run.summary.slowdown, 6.25);
        assert_eq!(run.summary.brent_term, 8.0);
        assert_eq!(run.summary.brent_term * run.summary.locality_term, 6.25);
        // Tally was drained at stage close: second stage saw only proc 0.
        assert_eq!(run.stages[1].points, 8);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let run = sample_trace();
        run.validate().unwrap();

        let mut bad = run.clone();
        bad.stages[1].stage = 0;
        assert!(bad.validate().unwrap_err().contains("strictly increasing"));

        let mut bad = run.clone();
        bad.summary.host_time = 99.0;
        assert!(bad.validate().unwrap_err().contains("host_time"));

        let mut bad = run.clone();
        bad.summary.regime = "R9".to_string();
        assert!(bad.validate().unwrap_err().contains("regime"));

        let mut bad = run.clone();
        bad.stages[0].messages = 0;
        bad.summary.messages -= 5;
        assert!(bad.validate().unwrap_err().contains("zero messages"));

        let mut bad = run.clone();
        bad.summary.locality_term *= 2.0;
        assert!(bad.validate().unwrap_err().contains("Brent"));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let run = sample_trace();
        let doc = run.to_json();
        let back = RunTrace::from_json(&doc).unwrap();
        assert_eq!(back, run);
        back.validate().unwrap();
    }

    #[test]
    fn scenario_counters_telescope_and_survive_round_trip() {
        let run = sample_trace();
        assert_eq!(run.stages[1].outages, 2);
        assert_eq!(run.stages[1].churn, 1);
        assert_eq!(run.stages[1].backoffs, 3);
        assert_eq!(run.summary.outages, 2);
        assert_eq!(run.summary.churn, 1);
        assert_eq!(run.summary.backoffs, 3);

        let mut bad = run.clone();
        bad.summary.backoffs += 1;
        assert!(bad.validate().unwrap_err().contains("counters diverge"));
    }

    #[test]
    fn pre_scenario_documents_still_parse() {
        // Strip the new counters to emulate a log written before the
        // scenario engine existed; they must default to zero.
        let mut doc = sample_trace().to_json();
        for key in ["outages", "churn", "backoffs"] {
            doc = doc
                .lines()
                .map(|l| {
                    let mut l = l.to_string();
                    while let Some(i) = l.find(&format!("\"{key}\":")) {
                        let end = l[i..]
                            .find(',')
                            .map(|j| (i + j + 2).min(l.len()))
                            .unwrap_or(l.len());
                        l.replace_range(i..end, "");
                    }
                    l
                })
                .collect::<Vec<_>>()
                .join("\n");
        }
        let back = RunTrace::from_json(&doc).unwrap();
        assert_eq!(back.summary.outages, 0);
        assert_eq!(back.stages[1].churn, 0);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let doc = sample_trace()
            .to_json()
            .replace("bsmp-trace/v1", "other/v9");
        assert!(RunTrace::from_json(&doc).is_err());
    }
}
