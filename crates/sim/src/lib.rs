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
//! | module      | paper artifact                                   |
//! |-------------|--------------------------------------------------|
//! | [`naive1`]  | Proposition 1 / §4.2 naive, `d = 1`, any `p`     |
//! | [`naive2`]  | Proposition 1 naive, `d = 2`, any square `p`     |
//! | [`exec1`]   | Proposition 2 executor over diamond separators   |
//! | [`dnc1`]    | Theorems 2 & 3 (uniprocessor D&C, `d = 1`)       |
//! | [`multi1`]  | Theorem 4 (two-regime multiprocessor, `d = 1`)   |
//! | [`exec2`]   | Proposition 2 executor over octa/tetra cells     |
//! | [`dnc2`]    | Theorem 5 (uniprocessor D&C, `d = 2`)            |
//! | [`multi2`]  | Theorem 1 `d = 2` (two-regime, cost-accounted)   |
//!
//! The instantaneous-model (Brent) baseline of experiment E10 is the
//! naive engines run on a [`bsmp_machine::MachineSpec::instantaneous`]
//! host; [`pipelined1`] implements Section 6's pipelined-memory machine
//! (no locality slowdown).

pub mod dnc1;
pub mod dnc2;
pub mod dnc3;
pub mod error;
pub mod event1;
pub mod event2;
pub mod exec1;
pub mod exec2;
pub mod exec3;
pub mod multi1;
pub mod multi2;
pub mod naive1;
pub mod naive2;
pub mod pipelined1;
pub mod report;
mod sorted;
pub mod zone;

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

/// Apply a fault scenario to a uniprocessor run treated as one bulk
/// stage: the whole run's `[host_time]` / `[comm]` pass through a
/// single-processor [`bsmp_faults::FaultSession`] (so jitter, asymmetry,
/// outage windows, and churn scale the run exactly like any other
/// stage), plus a settlement stage if the scenario ends mid-outage.
///
/// Callers hand over the fault-free report of the plain engine; the
/// returned report keeps its memory image and meter but carries the
/// scenario-adjusted `host_time`, stage count, and fault statistics.
pub(crate) fn scenario_over_report(
    mut rep: SimReport,
    meta: bsmp_trace::RunMeta,
    hop: f64,
    checkpoint_words: u64,
    plan: &bsmp_faults::FaultPlan,
    tracer: &mut bsmp_trace::Tracer,
) -> Result<SimReport, SimError> {
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
