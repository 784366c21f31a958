//! # bsmp-sim
//!
//! The simulation engines of the paper, as instrumented executable code.
//! Every engine runs a *real* guest computation (a node program from
//! `bsmp-workloads` or any [`bsmp_machine::LinearProgram`] /
//! [`bsmp_machine::MeshProgram`]) on a host machine with fewer
//! processors, producing
//!
//! 1. the exact same final memory image and values as direct guest
//!    execution (functional equivalence — asserted in tests), and
//! 2. the host's model time `T_p` under the bounded-speed cost model,
//!    which the benches compare against the analytic bounds.
//!
//! Engines:
//!
//! | module      | paper artifact                                       |
//! |-------------|------------------------------------------------------|
//! | [`naive1`]  | Proposition 1 / §4.2 naive, `d = 1`, any `p`         |
//! | [`naive2`]  | Proposition 1 naive, `d = 2`, any square `p`         |
//! | [`execd`]   | Proposition 2 executor over product cells, `d = 1, 2, 3` |
//! | [`dnc1`]    | Theorems 2 & 3 (uniprocessor D&C, `d = 1`)           |
//! | [`multi1`]  | Theorem 4 (two-regime multiprocessor, `d = 1`)       |
//! | [`dnc2`]    | Theorem 5 (uniprocessor D&C, `d = 2`)                |
//! | [`multi2`]  | Theorem 1 `d = 2` (two-regime, cost-accounted)       |
//! | [`dnc3`]    | Section 6 conjecture (uniprocessor D&C and naive, `d = 3`) |
//!
//! Each engine module exposes `try_simulate_X(spec, prog, init, steps,
//! opts, tracer)` and the default-options `simulate_X`; [`engine`]
//! dispatches a run over the [`EngineKind`] registry with one
//! [`RunOpts`].
//!
//! The instantaneous-model (Brent) baseline of experiment E10 is the
//! naive engines run on a [`bsmp_machine::MachineSpec::instantaneous`]
//! host; [`pipelined1`] implements Section 6's pipelined-memory machine
//! (no locality slowdown).

pub mod dnc1;
pub mod dnc2;
pub mod dnc3;
pub mod engine;
pub mod error;
pub mod execd;
pub mod multi1;
pub mod multi2;
pub mod naive1;
pub mod naive2;
pub mod pipelined1;
mod procs;
pub mod report;
mod sorted;
pub mod zone;

pub use engine::{EngineKind, RunOpts};
pub use error::SimError;
pub use report::SimReport;

/// Snapshot the cumulative stage-clock and fault counters into the shape
/// the tracer differences at stage close.
pub(crate) fn stage_totals(
    clock: &bsmp_machine::StageClock,
    stats: &bsmp_faults::FaultStats,
) -> bsmp_trace::StageTotals {
    bsmp_trace::StageTotals {
        parallel: clock.parallel_time,
        busy: clock.busy_time,
        comm: clock.comm_time,
        injected_delay: stats.injected_delay,
        retries: stats.retries,
        recovered: stats.recovered_stages,
        outages: stats.outage_stages,
        churn: stats.departures + stats.rejoins,
        backoffs: stats.backoff_retries,
    }
}

/// Close out a fault session at the end of an engine's stage loop: if the
/// scenario still holds storm-queued traffic or churn debt, charge one
/// traced settlement stage so the trace's `Σ cost = host_time` invariant
/// survives scenarios that end mid-outage.
pub(crate) fn settle_scenario(
    clock: &mut bsmp_machine::StageClock,
    session: &mut bsmp_faults::FaultSession,
    tracer: &mut bsmp_trace::Tracer,
    workers: usize,
) {
    if !session.needs_settlement() {
        return;
    }
    tracer.begin_stage("settle");
    clock.settle_faulted(session);
    tracer.end_stage(stage_totals(clock, &session.stats), workers);
}

/// Run a uniprocessor engine under `plan`.  A fault-free plan traces
/// the plain run (`run`) directly.  Otherwise the plain run goes
/// untraced and its fault-free report is treated as one bulk stage: the
/// whole run's `[host_time]` / `[comm]` pass through a single-processor
/// [`bsmp_faults::FaultSession`] (so jitter, asymmetry, outage windows,
/// and churn scale the run exactly like any other stage), plus a
/// settlement stage if the scenario ends mid-outage.  The returned
/// report keeps the plain run's memory image and meter but carries the
/// scenario-adjusted `host_time`, stage count, and fault statistics.
pub(crate) fn run_uniprocessor(
    meta: bsmp_trace::RunMeta,
    hop: f64,
    checkpoint_words: u64,
    plan: &bsmp_faults::FaultPlan,
    tracer: &mut bsmp_trace::Tracer,
    run: impl FnOnce(&mut bsmp_trace::Tracer) -> Result<SimReport, SimError>,
) -> Result<SimReport, SimError> {
    plan.validate()?;
    if plan.is_none() {
        return run(tracer);
    }
    let mut rep = run(&mut bsmp_trace::Tracer::off())?;
    let mut session = bsmp_faults::FaultSession::new(
        plan,
        bsmp_faults::FaultEnv {
            p: 1,
            hop,
            checkpoint_words,
            proc_side: 1,
        },
    );
    let mut clock = bsmp_machine::StageClock::new();
    tracer.ensure_procs(1);
    tracer.begin_stage("run");
    if let Some(tl) = tracer.tally() {
        tl.add(0, meta.n * meta.steps, 0);
    }
    let guest_time = rep.guest_time;
    clock.add_stage_faulted(&[rep.host_time], &[rep.meter.comm], &mut session)?;
    tracer.end_stage(stage_totals(&clock, &session.stats), 1);
    settle_scenario(&mut clock, &mut session, tracer, 1);
    tracer.finish_run(meta, clock.parallel_time, guest_time);
    rep.host_time = clock.parallel_time;
    rep.stages = clock.stages;
    rep.faults = session.into_stats();
    Ok(rep)
}

/// Check the preconditions shared by the `d = 1` and `d = 2`
/// divide-and-conquer engines: the spec's dimension, `p = 1`, the
/// program's density, and the initial image's length.
pub(crate) fn check_uniprocessor(
    kind: EngineKind,
    spec: &bsmp_machine::MachineSpec,
    prog_m: usize,
    init_len: usize,
) -> Result<(), SimError> {
    if spec.d != kind.d() {
        return Err(SimError::DimensionMismatch {
            expected: kind.d(),
            got: spec.d,
        });
    }
    if spec.p != 1 {
        return Err(SimError::UniprocessorOnly {
            engine: kind.name(),
            p: spec.p,
        });
    }
    if prog_m as u64 != spec.m {
        return Err(SimError::DensityMismatch {
            spec_m: spec.m,
            prog_m: prog_m as u64,
        });
    }
    let expected = spec.n as usize * prog_m;
    if init_len != expected {
        return Err(SimError::InitLength {
            expected,
            got: init_len,
        });
    }
    Ok(())
}

/// Close a uniprocessor run (opened with `begin_stage("run")`) as one
/// traced bulk stage and assemble its fault-free report.
pub(crate) fn bulk_report(
    meta: bsmp_trace::RunMeta,
    mem: Vec<bsmp_hram::Word>,
    values: Vec<bsmp_hram::Word>,
    ram: &bsmp_hram::Hram,
    meter: bsmp_hram::CostMeter,
    guest_time: f64,
    tracer: &mut bsmp_trace::Tracer,
) -> SimReport {
    let host_time = ram.time();
    if let Some(tl) = tracer.tally() {
        tl.add(0, meta.n * meta.steps, 0);
    }
    tracer.end_stage(
        bsmp_trace::StageTotals {
            parallel: host_time,
            busy: host_time,
            comm: meter.comm,
            ..bsmp_trace::StageTotals::default()
        },
        1,
    );
    tracer.finish_run(meta, host_time, guest_time);
    SimReport {
        mem,
        values,
        host_time,
        guest_time,
        meter,
        space: ram.high_water(),
        stages: 0,
        faults: bsmp_faults::FaultStats::default(),
    }
}
