//! The engines' error surface: every parameter-validation failure that
//! used to panic is an explicit [`SimError`] on the `try_` paths.

use std::error::Error;
use std::fmt;

use bsmp_faults::{FaultError, FaultStats, PlanParseError, ScenarioExhausted};
use bsmp_machine::{SpecError, StagePanic};

/// Why an engine refused to run (or, for `OutputMismatch`, why a
/// result check failed).
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The engine supports a different layout dimension than the spec's.
    DimensionMismatch { expected: u8, got: u8 },
    /// The program's per-node memory density differs from the spec's.
    DensityMismatch { spec_m: u64, prog_m: u64 },
    /// The initial memory image has the wrong length.
    InitLength { expected: usize, got: usize },
    /// `d = 1` engines need `p` to divide `n`.
    IndivisibleProcessors { n: u64, p: u64 },
    /// `d = 2` engines need the processor-grid side to divide the mesh
    /// side.
    IndivisibleMeshSide { side: u64, proc_side: u64 },
    /// The `d = 2` two-regime engine needs blocks of side ≥ 2.
    BlockTooSmall { block: u64 },
    /// No admissible strip width exists for these `(n, m, p)` — the
    /// two-regime engine cannot run; fall back to naive.
    NoAdmissibleStrip { n: u64, m: u64, p: u64 },
    /// An explicitly requested strip width is inadmissible.
    InvalidStrip { s: u64, n: u64, p: u64 },
    /// A divide-and-conquer engine was asked to run with `p > 1`.
    UniprocessorOnly { engine: &'static str, p: u64 },
    /// A `d = 3` volume engine was asked to run with `m > 1`.
    UnitDensityOnly { engine: &'static str, m: u64 },
    /// Machine parameters failed Definition 2 validation.
    Spec(SpecError),
    /// The fault plan's parameters are invalid.
    Fault(FaultError),
    /// A fault-plan document failed to parse.
    PlanParse { message: String },
    /// The scenario's churn retry budget ran out mid-run: graceful
    /// degradation instead of a panic, carrying the partial accounting
    /// accumulated up to the failed stage.
    ScenarioExhausted {
        stage: u64,
        proc: usize,
        stats: Box<FaultStats>,
    },
    /// An engine-internal bookkeeping invariant broke (a bug, not a user
    /// error) — surfaced as a typed error so a scenario-induced edge case
    /// degrades instead of poisoning the stage pool with a panic.
    Internal { what: &'static str },
    /// Simulated outputs diverge from direct guest execution.
    OutputMismatch { what: &'static str },
    /// A host worker thread panicked while executing a stage (the guest
    /// program's `δ` raised); the stage pool caught it and drained the
    /// remaining tasks.
    HostPanic { message: String },
    /// A derived ratio (slowdown, locality term) is undefined for this
    /// report — zero or non-finite numerator/denominator.  The plain
    /// accessors return `NaN`/`∞` silently; the `try_` accessors surface
    /// this instead.
    DegenerateReport {
        what: &'static str,
        host_time: f64,
        guest_time: f64,
    },
    /// A batch-server job request is malformed — unknown engine,
    /// missing or out-of-range field, or unparseable JSON.  Carries the
    /// request's `id` (0 when the id itself was unreadable) so the
    /// server can answer the offending job without dropping the batch.
    BadRequest { job_id: u64, what: String },
    /// A run cannot be bound-certified (e.g. recorded under the
    /// instantaneous cost model, or the certifier rejected the trace as
    /// malformed before reaching a verdict).  Distinct from a
    /// `Violated` verdict, which IS a certification result.
    Uncertifiable { message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimError::DimensionMismatch { expected, got } => {
                write!(f, "engine requires d = {expected}, spec has d = {got}")
            }
            SimError::DensityMismatch { spec_m, prog_m } => {
                write!(
                    f,
                    "spec density m = {spec_m} does not match program density m = {prog_m}"
                )
            }
            SimError::InitLength { expected, got } => {
                write!(
                    f,
                    "initial memory image has {got} words, expected n·m = {expected}"
                )
            }
            SimError::IndivisibleProcessors { n, p } => {
                write!(f, "p = {p} must divide n = {n}")
            }
            SimError::IndivisibleMeshSide { side, proc_side } => {
                write!(
                    f,
                    "processor-grid side {proc_side} must divide mesh side {side}"
                )
            }
            SimError::BlockTooSmall { block } => {
                write!(
                    f,
                    "block side must be ≥ 2, got {block}; use the naive engine"
                )
            }
            SimError::NoAdmissibleStrip { n, m, p } => {
                write!(
                    f,
                    "no admissible strip width for n = {n}, m = {m}, p = {p}; use the naive engine"
                )
            }
            SimError::InvalidStrip { s, n, p } => {
                write!(
                    f,
                    "strip width s = {s} is inadmissible for n = {n}, p = {p}"
                )
            }
            SimError::UniprocessorOnly { engine, p } => {
                write!(
                    f,
                    "{engine} is a uniprocessor engine (needs p = 1, got p = {p})"
                )
            }
            SimError::UnitDensityOnly { engine, m } => {
                write!(f, "{engine} runs m = 1 programs only, got m = {m}")
            }
            SimError::Spec(e) => write!(f, "{e}"),
            SimError::Fault(e) => write!(f, "{e}"),
            SimError::PlanParse { ref message } => {
                write!(f, "malformed fault plan: {message}")
            }
            SimError::ScenarioExhausted {
                stage,
                proc,
                ref stats,
            } => {
                write!(
                    f,
                    "scenario exhausted the churn retry budget at stage {stage} on processor \
                     {proc} (after {} departures, {} rejoins, {} backoff retries)",
                    stats.departures, stats.rejoins, stats.backoff_retries
                )
            }
            SimError::Internal { what } => {
                write!(f, "internal engine invariant broke: {what}")
            }
            SimError::OutputMismatch { what } => {
                write!(f, "simulated {what} diverge from direct execution")
            }
            SimError::HostPanic { ref message } => {
                write!(f, "host worker panicked during a stage: {message}")
            }
            SimError::DegenerateReport {
                what,
                host_time,
                guest_time,
            } => {
                write!(
                    f,
                    "{what} is undefined: host_time = {host_time}, guest_time = {guest_time}"
                )
            }
            SimError::BadRequest { job_id, ref what } => {
                write!(f, "bad request (job {job_id}): {what}")
            }
            SimError::Uncertifiable { ref message } => {
                write!(f, "run cannot be bound-certified: {message}")
            }
        }
    }
}

impl Error for SimError {}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        SimError::Fault(e)
    }
}

impl From<StagePanic> for SimError {
    fn from(e: StagePanic) -> Self {
        SimError::HostPanic { message: e.0 }
    }
}

impl From<PlanParseError> for SimError {
    fn from(e: PlanParseError) -> Self {
        SimError::PlanParse { message: e.message }
    }
}

impl From<ScenarioExhausted> for SimError {
    fn from(e: ScenarioExhausted) -> Self {
        SimError::ScenarioExhausted {
            stage: e.stage,
            proc: e.proc,
            stats: Box::new(e.stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let errs: Vec<SimError> = vec![
            SimError::DimensionMismatch {
                expected: 1,
                got: 2,
            },
            SimError::DensityMismatch {
                spec_m: 4,
                prog_m: 2,
            },
            SimError::InitLength {
                expected: 64,
                got: 60,
            },
            SimError::IndivisibleProcessors { n: 10, p: 3 },
            SimError::IndivisibleMeshSide {
                side: 9,
                proc_side: 2,
            },
            SimError::BlockTooSmall { block: 1 },
            SimError::NoAdmissibleStrip { n: 16, m: 1, p: 8 },
            SimError::InvalidStrip { s: 3, n: 16, p: 8 },
            SimError::UniprocessorOnly {
                engine: "dnc1",
                p: 4,
            },
            SimError::Spec(SpecError::ProcessorsOutOfRange { n: 4, p: 8 }),
            SimError::Fault(FaultError::SlowdownBelowOne { nu: 0.5 }),
            SimError::OutputMismatch { what: "values" },
            SimError::PlanParse {
                message: "bad json".into(),
            },
            SimError::ScenarioExhausted {
                stage: 7,
                proc: 3,
                stats: Box::default(),
            },
            SimError::Internal {
                what: "zone bookkeeping",
            },
            SimError::HostPanic {
                message: "boom".into(),
            },
            SimError::DegenerateReport {
                what: "slowdown",
                host_time: 5.0,
                guest_time: 0.0,
            },
            SimError::Uncertifiable {
                message: "instantaneous cost model".into(),
            },
            SimError::BadRequest {
                job_id: 3,
                what: "unknown engine \"dnc9\"".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions() {
        let s: SimError = SpecError::ZeroExtent { n: 0, m: 1 }.into();
        assert!(matches!(s, SimError::Spec(_)));
        let f: SimError = FaultError::EmptyJitterRange { lo: 2.0, hi: 2.0 }.into();
        assert!(matches!(f, SimError::Fault(_)));
        let h: SimError = StagePanic("kaboom".into()).into();
        assert_eq!(
            h,
            SimError::HostPanic {
                message: "kaboom".into()
            }
        );
        let x: SimError = ScenarioExhausted {
            stage: 2,
            proc: 1,
            stats: FaultStats::default(),
        }
        .into();
        assert!(matches!(
            x,
            SimError::ScenarioExhausted {
                stage: 2,
                proc: 1,
                ..
            }
        ));
        let p: SimError = PlanParseError {
            message: "trailing data".into(),
        }
        .into();
        assert!(matches!(p, SimError::PlanParse { .. }));
    }
}
