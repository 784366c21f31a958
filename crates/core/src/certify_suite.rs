//! The engine × regime certification matrix: one canonical case per
//! (engine, Theorem-1 regime) combination, shared by `bench --certify`,
//! experiment E15, and the certifier's integration tests.
//!
//! Regime coverage per engine follows from the machine each engine
//! implements:
//!
//! * `p > 1` engines (`naive1`, `multi1`, `pipelined1`, `naive2`,
//!   `multi2`) reach R1, R2, R4;
//! * `p = 1` engines (`dnc1`, `dnc2`) reach R1, R3, R4 — R2 is *empty*
//!   at `p = 1`, since its boundaries `(n/p)^{1/2d}` and `(np)^{1/2d}`
//!   coincide;
//! * the `d = 3` volume engines (`naive3`, `dnc3`) require `m = 1`,
//!   which always lands in R1.
//!
//! Every case is seeded and deterministic; [`run_case`] executes the
//! engine with tracing on and feeds the trace (which carries its
//! Theorem-1 regime) through [`bsmp_trace::certify::certify`].

use bsmp_faults::FaultPlan;
use bsmp_sim::{SimError, SimReport};
use bsmp_trace::certify::{certify, Certificate};
use bsmp_trace::{RunTrace, Tracer};

use crate::serve_suite::{default_seed, run_shape};

/// One (engine, regime) cell of the certification matrix.
#[derive(Clone, Copy, Debug)]
pub struct MatrixCase {
    /// Engine name as stamped into the trace.
    pub engine: &'static str,
    /// Layout dimension.
    pub d: u8,
    /// Guest volume (for `d = 3`, a perfect cube).
    pub n: u64,
    /// Memory cells per node.
    pub m: u64,
    /// Host processors.
    pub p: u64,
    /// Guest steps (`≥ n^{1/d}`, Theorem 1's domain).
    pub steps: i64,
    /// The Theorem-1 range these parameters land in.
    pub regime: &'static str,
}

/// The full matrix at the default (quick) scale: 23 cases covering all
/// 9 engines across every regime each can reach (see module docs).
pub fn matrix() -> Vec<MatrixCase> {
    let mut v = Vec::new();
    // d = 1, p = 4, n = 64: regime boundaries at m = 4, 16, 64.
    for engine in ["naive1", "multi1", "pipelined1"] {
        for (m, regime) in [(1, "R1"), (8, "R2"), (128, "R4")] {
            v.push(MatrixCase {
                engine,
                d: 1,
                n: 64,
                m,
                p: 4,
                steps: 64,
                regime,
            });
        }
    }
    // d = 1, p = 1, n = 64: boundaries at m = 8, 8, 64 (R2 empty).
    for (m, regime) in [(1, "R1"), (16, "R3"), (128, "R4")] {
        v.push(MatrixCase {
            engine: "dnc1",
            d: 1,
            n: 64,
            m,
            p: 1,
            steps: 64,
            regime,
        });
    }
    // d = 2, p = 4, n = 64 (8×8 mesh): boundaries at m = 2, 4, 8.
    for engine in ["naive2", "multi2"] {
        for (m, regime) in [(1, "R1"), (4, "R2"), (16, "R4")] {
            v.push(MatrixCase {
                engine,
                d: 2,
                n: 64,
                m,
                p: 4,
                steps: 16,
                regime,
            });
        }
    }
    // d = 2, p = 1, n = 64: boundaries at m = 2.83.., 2.83.., 8.
    for (m, regime) in [(1, "R1"), (4, "R3"), (16, "R4")] {
        v.push(MatrixCase {
            engine: "dnc2",
            d: 2,
            n: 64,
            m,
            p: 1,
            steps: 16,
            regime,
        });
    }
    // d = 3 (4×4×4 cube), m = 1 forced by the volume engines: R1 only.
    for engine in ["naive3", "dnc3"] {
        v.push(MatrixCase {
            engine,
            d: 3,
            n: 64,
            m: 1,
            p: 1,
            steps: 8,
            regime: "R1",
        });
    }
    v
}

/// Run one matrix case with tracing on and certify the trace.
///
/// The returned certificate may carry a `Violated` verdict — that is a
/// certification *result*; only engine failures and uncertifiable
/// traces are `Err`.
pub fn run_case(case: &MatrixCase, plan: &FaultPlan) -> Result<(RunTrace, Certificate), SimError> {
    run_case_reported(case, plan).map(|(_, trace, cert)| (trace, cert))
}

/// [`run_case`] returning the engine's [`SimReport`] alongside the
/// trace and certificate — the batch server's twin-check path needs all
/// three.  Dispatch goes through [`crate::serve_suite::run_shape`], the
/// single engine dispatcher shared with the server, so a matrix cell
/// and the serve job of the same shape are bit-identical by
/// construction.
pub fn run_case_reported(
    case: &MatrixCase,
    plan: &FaultPlan,
) -> Result<(SimReport, RunTrace, Certificate), SimError> {
    let mut tracer = Tracer::recording();
    let seed = default_seed(case.n, case.m, case.p);
    let report = run_shape(
        case.engine,
        case.d,
        case.n,
        case.m,
        case.p,
        case.steps,
        seed,
        plan,
        &mut tracer,
    )?;
    let trace = tracer.take().expect("recording tracer yields a trace");
    debug_assert_eq!(trace.summary.regime, case.regime, "case mis-labeled");
    let cert = certify(&trace).map_err(|e| SimError::Uncertifiable {
        message: e.to_string(),
    })?;
    Ok((report, trace, cert))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_engines() {
        let cases = matrix();
        let engines: std::collections::HashSet<&str> = cases.iter().map(|c| c.engine).collect();
        assert_eq!(engines.len(), 9);
        assert_eq!(cases.len(), 23);
        // Every registry engine has a cell, at its own dimension.
        for kind in bsmp_sim::EngineKind::ALL {
            assert_eq!(bsmp_sim::EngineKind::parse(kind.name()), Some(kind));
            assert!(engines.contains(kind.name()), "{} has no cell", kind.name());
            for c in cases.iter().filter(|c| c.engine == kind.name()) {
                assert_eq!(c.d, kind.d(), "{}", kind.name());
            }
        }
        // Every p > 1 linear engine hits all three Theorem-1 regimes
        // reachable at p > 1.
        for e in ["naive1", "multi1", "pipelined1", "naive2", "multi2"] {
            let regimes: Vec<&str> = cases
                .iter()
                .filter(|c| c.engine == e)
                .map(|c| c.regime)
                .collect();
            assert_eq!(regimes, ["R1", "R2", "R4"], "{e}");
        }
    }
}
