//! One entry point per layout dimension over the engine registry
//! ([`EngineKind`]), plus the single options struct every engine reads.
//!
//! Each engine module exposes two functions: the checked
//! `try_simulate_X(spec, prog, init, steps, opts, tracer)` and the
//! panicking default-options `simulate_X(spec, prog, init, steps)`;
//! [`naive`] serves `naive1` and `naive2` as
//! `try_simulate_naive::<D>` for `D = 1, 2`, and [`dnc`] serves `dnc1`,
//! `dnc2` and `dnc3` as `try_simulate_dnc::<D>` for `D = 1, 2, 3`.
//! Callers that pick the engine at run time (the façade, the batch
//! server, the CLI) go through [`run_linear`], [`run_mesh`] or
//! [`run_volume`] instead of matching engine names themselves.

use bsmp_faults::FaultPlan;
use bsmp_hram::Word;
use bsmp_machine::{ExecPolicy, LinearProgram, MachineSpec, MeshProgram, VolumeProgram};
use bsmp_trace::Tracer;

pub use bsmp_trace::EngineKind;

use crate::{dnc, multi1, multi2, naive, naive3, pipelined1, SimError, SimReport};

/// Options of one engine run.  [`RunOpts::default`] is the paper's
/// configuration: fault-free, auto-detected host threads, the paper's
/// leaf size and strip width.  An engine ignores the fields it does not
/// read; model costs never depend on `exec`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// Fault scenario, validated at run time.  Read by every engine
    /// (the uniprocessor engines apply it to the run as one bulk stage).
    pub plan: FaultPlan,
    /// Host-thread budget.  Read by naive1 and naive2.
    pub exec: ExecPolicy,
    /// Leaf radius of the divide-and-conquer recursion; `None` selects
    /// the paper's executable diamonds/cells of radius `max(m/2, 1)`.
    /// Read by dnc1, dnc2, dnc3.
    pub leaf: Option<i64>,
    /// Strip width `s`; `None` selects the admissible width closest to
    /// the paper's `s*` ([`multi1::engine_strip`]).  Read by multi1.
    pub strip: Option<u64>,
}

/// Run a `d = 1` engine on a linear-array guest program.
pub fn run_linear(
    kind: EngineKind,
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    match kind {
        EngineKind::Naive1 => naive::try_simulate_naive::<1>(spec, prog, init, steps, opts, tracer),
        EngineKind::Multi1 => multi1::try_simulate_multi1(spec, prog, init, steps, opts, tracer),
        EngineKind::Pipelined1 => {
            pipelined1::try_simulate_pipelined1(spec, prog, init, steps, opts, tracer)
        }
        EngineKind::Dnc1 => dnc::try_simulate_dnc::<1>(spec, prog, init, steps, opts, tracer),
        _ => Err(SimError::DimensionMismatch {
            expected: kind.d(),
            got: 1,
        }),
    }
}

/// Run a `d = 2` engine on a mesh guest program.
pub fn run_mesh(
    kind: EngineKind,
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    match kind {
        EngineKind::Naive2 => naive::try_simulate_naive::<2>(spec, prog, init, steps, opts, tracer),
        EngineKind::Multi2 => multi2::try_simulate_multi2(spec, prog, init, steps, opts, tracer),
        EngineKind::Dnc2 => dnc::try_simulate_dnc::<2>(spec, prog, init, steps, opts, tracer),
        _ => Err(SimError::DimensionMismatch {
            expected: kind.d(),
            got: 2,
        }),
    }
}

/// Run a `d = 3` engine on a volume guest program.
pub fn run_volume(
    kind: EngineKind,
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    match kind {
        EngineKind::Naive3 => naive3::try_simulate_naive3(spec, prog, init, steps, opts, tracer),
        EngineKind::Dnc3 => dnc::try_simulate_dnc::<3>(spec, prog, init, steps, opts, tracer),
        _ => Err(SimError::DimensionMismatch {
            expected: kind.d(),
            got: 3,
        }),
    }
}
