//! # bsmp-sim
//!
//! The simulation engines of the paper, as instrumented executable code.
//! Every engine runs a *real* guest computation (a node program from
//! `bsmp-workloads` or any [`bsmp_machine::LinearProgram`] /
//! [`bsmp_machine::MeshProgram`] / [`bsmp_machine::VolumeProgram`]) on a
//! host machine with fewer processors, producing
//!
//! 1. the exact same final memory image and values as direct guest
//!    execution ([`bsmp_machine::run_guest`]; functional equivalence —
//!    asserted in tests), and
//! 2. the host's model time `T_p` under the bounded-speed cost model,
//!    which the benches compare against the analytic bounds.
//!
//! Engines:
//!
//! | module      | paper artifact                                       |
//! |-------------|------------------------------------------------------|
//! | [`naive`]   | Proposition 1 / §4.2 naive, `d = 1, 2` (`naive1`, `naive2`), any `p` the block layout divides |
//! | [`execd`]   | Proposition 2 executor over product cells, `d = 1, 2, 3` |
//! | [`dnc`]     | Theorems 2 & 3 (`d = 1`), Theorem 5 (`d = 2`) and the Section 6 conjecture (`d = 3`): uniprocessor D&C (`dnc1`, `dnc2`, `dnc3`) |
//! | [`multi1`]  | Theorem 4 (two-regime multiprocessor, `d = 1`)       |
//! | [`multi2`]  | Theorem 1 `d = 2` (two-regime, cost-accounted)       |
//! | [`naive3`]  | Proposition 1, `d = 3` (`naive3`, uniprocessor)      |
//! | `procs`     | `StageHost`: every engine's input checks, stage close, faults and report |
//!
//! Each engine module exposes
//! `try_simulate_X(spec, prog, init, steps, opts, tracer)` and the
//! default-options `simulate_X` ([`naive`] and [`dnc`] generic over the
//! dimension `D`); [`engine`]
//! dispatches a run over the [`EngineKind`] registry with one
//! [`RunOpts`].
//!
//! The instantaneous-model (Brent) baseline of experiment E10 is the
//! naive engines run on a [`bsmp_machine::MachineSpec::instantaneous`]
//! host; [`pipelined1`] implements Section 6's pipelined-memory machine
//! (no locality slowdown).

pub mod dnc;
pub mod engine;
pub mod error;
pub mod execd;
pub mod multi1;
pub mod multi2;
pub mod naive;
pub mod naive3;
pub mod pipelined1;
mod procs;
pub mod report;
mod sorted;
pub mod zone;

pub use engine::{EngineKind, RunOpts};
pub use error::SimError;
pub use report::SimReport;
