//! # bsmp — Bounded-Speed Message Propagation
//!
//! A full reproduction of Bilardi & Preparata, *Upper Bounds to
//! Processor-Time Tradeoffs under Bounded-Speed Message Propagation*
//! (SPAA 1995), as an executable Rust library.
//!
//! The paper studies the "limiting technology": signal propagation takes
//! time proportional to physical distance, so a random-access machine's
//! memory becomes *hierarchical* (Definition 1's `f(x)`-H-RAM) and the
//! classical Brent-principle slowdown `⌈n/p⌉` acquires an extra
//! **locality slowdown** `A(n, m, p)` (Theorem 1):
//!
//! ```text
//! T_p / T_n = O( (n/p) · A(n, m, p) )
//! ```
//!
//! This crate re-exports the whole workspace and offers a one-stop
//! [`Simulation`] façade:
//!
//! ```
//! use bsmp::{Simulation, Strategy};
//! use bsmp::workloads::{Eca, inputs};
//!
//! // Simulate 64 steps of a 64-node rule-110 array on 4 processors.
//! let init = inputs::random_bits(7, 64);
//! let report = Simulation::linear(64, 4, 1)
//!     .strategy(Strategy::TwoRegime)
//!     .run(&Eca::rule110(), &init, 64);
//!
//! // The host computed exactly what the guest would:
//! assert_eq!(report.sim.values.len(), 64);
//! // …and the measured slowdown respects the Theorem-1 envelope shape.
//! assert!(report.measured_slowdown() > 64.0 / 4.0, "above the Brent floor");
//! assert!(report.sim.guest_time > 0.0);
//! ```
//!
//! The fallible twin [`Simulation::try_run`] returns a
//! [`SimError`] instead of panicking, and
//! [`Simulation::faults`] injects a deterministic [`FaultPlan`] (link
//! slowdown, message loss with retries, crash/recovery) whose cost shows
//! up in [`SimReport::faults`](bsmp_sim::SimReport):
//!
//! ```
//! use bsmp::{FaultPlan, Simulation};
//! use bsmp::workloads::{Eca, inputs};
//!
//! let init = inputs::random_bits(7, 64);
//! let report = Simulation::linear(64, 4, 1)
//!     .faults(FaultPlan::uniform_slowdown(2.0))
//!     .try_run(&Eca::rule110(), &init, 64)
//!     .expect("parameters are valid");
//! assert!(report.sim.faults.injected_delay > 0.0);
//! ```
//!
//! Modules (one per workspace crate):
//!
//! * [`geometry`] — diamonds, octahedra, tetrahedra, the Figure-1..4
//!   decompositions;
//! * [`hram`] — the instrumented `f(x)`-H-RAM;
//! * [`dag`] — `G_T(H)`, topological partitions, Propositions 2–3;
//! * [`machine`] — `M_d(n, p, m)` machines and node programs;
//! * [`workloads`] — cellular automata, sorting, waves, Life, heat,
//!   systolic matrix multiplication;
//! * [`sim`] — every simulation engine of the paper;
//! * [`analytic`] — every closed-form bound of the paper;
//! * [`faults`] — the deterministic fault-injection layer.

pub use bsmp_analytic as analytic;
pub use bsmp_dag as dag;
pub use bsmp_faults as faults;
pub use bsmp_geometry as geometry;
pub use bsmp_hram as hram;
pub use bsmp_machine as machine;
pub use bsmp_sim as sim;
pub use bsmp_trace as trace;
pub use bsmp_workloads as workloads;

pub mod certify_suite;
pub mod serve_suite;

pub use bsmp_faults::{FaultPlan, FaultStats, PlanParseError};
pub use bsmp_hram::{CostModel, Word};
pub use bsmp_machine::{
    init_shared_pool, set_default_threads, CacheStats, ExecPolicy, LinearProgram, MachineSpec,
    MeshProgram, SpecError,
};
pub use bsmp_sim::{EngineKind, RunOpts, SimError, SimReport};
pub use bsmp_trace::{RunTrace, Tracer};
pub use serve_suite::plan_cache;

/// Which simulation scheme the host machine uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Step-by-step mimicry (Proposition 1 / §4.2 opening).
    Naive,
    /// Uniprocessor divide-and-conquer over topological separators
    /// (Theorems 2, 3, 5).  Requires `p = 1`.
    DivideAndConquer,
    /// The multiprocessor scheme: two-regime with memory rearrangement
    /// for `d = 1` (Theorem 4), block-banded honeycomb for `d = 2`
    /// (Theorem 1, `d = 2`).  For `p = 1` this degenerates to
    /// divide-and-conquer.
    TwoRegime,
    /// Pick what the paper would: D&C/two-regime when the locality
    /// slowdown beats the naive bound, naive otherwise (range 4).
    Auto,
}

/// Builder for one simulation experiment.
#[derive(Clone, Copy, Debug)]
pub struct Simulation {
    spec: MachineSpec,
    strategy: Strategy,
    faults: FaultPlan,
    exec: ExecPolicy,
}

impl Simulation {
    /// A linear-array experiment: guest `M_1(n, n, m)`, host
    /// `M_1(n, p, m)`.
    pub fn linear(n: u64, p: u64, m: u64) -> Self {
        Self::try_linear(n, p, m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Simulation::linear`].
    pub fn try_linear(n: u64, p: u64, m: u64) -> Result<Self, SimError> {
        let spec = MachineSpec::try_new(1, n, p, m)?;
        Ok(Simulation {
            spec,
            strategy: Strategy::Auto,
            faults: FaultPlan::none(),
            exec: ExecPolicy::auto(),
        })
    }

    /// A mesh experiment: guest `M_2(n, n, m)`, host `M_2(n, p, m)`
    /// (`n` and `p` perfect squares).
    pub fn mesh(n: u64, p: u64, m: u64) -> Self {
        Self::try_mesh(n, p, m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Simulation::mesh`].
    pub fn try_mesh(n: u64, p: u64, m: u64) -> Result<Self, SimError> {
        let spec = MachineSpec::try_new(2, n, p, m)?;
        Ok(Simulation {
            spec,
            strategy: Strategy::Auto,
            faults: FaultPlan::none(),
            exec: ExecPolicy::auto(),
        })
    }

    /// Switch to the instantaneous-propagation cost model (the Brent
    /// baseline of experiment E10).
    pub fn instantaneous(mut self) -> Self {
        self.spec = MachineSpec::instantaneous(self.spec.d, self.spec.n, self.spec.p, self.spec.m);
        self
    }

    /// Choose the simulation scheme.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Inject faults per `plan` (validated at run time): per-link delay
    /// inflation, transient message loss with retries, and node
    /// crash/recovery.  Default: [`FaultPlan::none`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Set the number of host OS threads used by the stage-parallel
    /// engines (`0` = auto-detect).  Model costs are bit-identical for
    /// every thread count; only wall-clock time changes.
    pub fn threads(mut self, n: usize) -> Self {
        self.exec = if n == 0 {
            ExecPolicy::auto()
        } else {
            ExecPolicy::threads(n)
        };
        self
    }

    /// The machine parameters this simulation will use.
    pub fn spec(&self) -> MachineSpec {
        self.spec
    }

    /// The engine this simulation runs: the [`Strategy`] resolved
    /// against the spec.  [`Strategy::Auto`] and [`Strategy::TwoRegime`]
    /// degrade gracefully to the naive engine when the multiprocessor
    /// scheme cannot run (no admissible strip width for `d = 1`, e.g.
    /// prime `n/p`; per-processor blocks of side 1 for `d = 2`).
    fn pick(&self) -> EngineKind {
        let spec = &self.spec;
        let [naive, dnc, multi] = if spec.d == 1 {
            [EngineKind::Naive1, EngineKind::Dnc1, EngineKind::Multi1]
        } else {
            [EngineKind::Naive2, EngineKind::Dnc2, EngineKind::Multi2]
        };
        let multi_fits = || {
            if spec.d == 1 {
                bsmp_sim::multi1::engine_strip(spec.n, spec.m, spec.p).is_some()
            } else {
                spec.mesh_side() / spec.proc_side() >= 2
            }
        };
        let (n, m, p) = (spec.n as f64, spec.m as f64, spec.p as f64);
        match self.strategy {
            Strategy::Naive => naive,
            Strategy::DivideAndConquer => dnc,
            // Range 4 of Theorem 1: only the naive simulation is
            // profitable.
            Strategy::Auto
                if bsmp_analytic::theorem1::range(spec.d, n, m, p) == bsmp_analytic::Range::R4 =>
            {
                naive
            }
            Strategy::TwoRegime | Strategy::Auto if spec.p == 1 => dnc,
            Strategy::TwoRegime | Strategy::Auto if multi_fits() => multi,
            Strategy::TwoRegime | Strategy::Auto => naive,
        }
    }

    /// Run the picked engine with `tracer` observing, after checking
    /// that the spec has the layout dimension `d` the program needs;
    /// `run` dispatches over the engine registry.
    fn run_with(
        &self,
        d: u8,
        tracer: &mut Tracer,
        run: impl FnOnce(EngineKind, RunOpts, &mut Tracer) -> Result<SimReport, SimError>,
    ) -> Result<Report, SimError> {
        if self.spec.d != d {
            return Err(SimError::DimensionMismatch {
                expected: d,
                got: self.spec.d,
            });
        }
        let opts = RunOpts {
            plan: self.faults,
            exec: self.exec,
            ..RunOpts::default()
        };
        let sim = run(self.pick(), opts, tracer)?;
        Ok(Report::new(self.spec, sim))
    }

    /// Run a linear-array guest program, reporting invalid parameters as
    /// a [`SimError`] instead of panicking.  [`Strategy::Auto`] and
    /// [`Strategy::TwoRegime`] degrade gracefully to the naive engine
    /// when no admissible strip width exists (e.g. prime `n/p`).
    pub fn try_run(
        &self,
        prog: &impl LinearProgram,
        init: &[Word],
        steps: i64,
    ) -> Result<Report, SimError> {
        self.run_with(1, &mut Tracer::off(), |kind, opts, tracer| {
            bsmp_sim::engine::run_linear(kind, &self.spec, prog, init, steps, opts, tracer)
        })
    }

    /// Run a linear-array guest program.
    ///
    /// # Panics
    /// If the builder was constructed with [`Simulation::mesh`], or the
    /// strategy requires `p = 1` and `p > 1` was given.
    pub fn run(&self, prog: &impl LinearProgram, init: &[Word], steps: i64) -> Report {
        self.try_run(prog, init, steps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Simulation::try_run`] but with a recording [`Tracer`]
    /// observing every bulk-synchronous stage.  The [`SimReport`] is
    /// bit-identical to the untraced run; the returned [`RunTrace`]
    /// carries per-stage records plus a summary that splits the measured
    /// slowdown into its Brent and locality terms and stamps Theorem 1's
    /// regime for these parameters.
    pub fn try_trace(
        &self,
        prog: &impl LinearProgram,
        init: &[Word],
        steps: i64,
    ) -> Result<(Report, RunTrace), SimError> {
        let mut tracer = Tracer::recording();
        let report = self.run_with(1, &mut tracer, |kind, opts, tracer| {
            bsmp_sim::engine::run_linear(kind, &self.spec, prog, init, steps, opts, tracer)
        })?;
        Ok((
            report,
            tracer.take().expect("recording tracer yields a trace"),
        ))
    }

    /// Panicking twin of [`Simulation::try_trace`].
    pub fn trace(
        &self,
        prog: &impl LinearProgram,
        init: &[Word],
        steps: i64,
    ) -> (Report, RunTrace) {
        self.try_trace(prog, init, steps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run a mesh guest program, reporting invalid parameters as a
    /// [`SimError`] instead of panicking.  [`Strategy::Auto`] and
    /// [`Strategy::TwoRegime`] degrade gracefully to the naive engine
    /// when the per-processor block is too small for the honeycomb
    /// scheme.
    pub fn try_run_mesh(
        &self,
        prog: &impl MeshProgram,
        init: &[Word],
        steps: i64,
    ) -> Result<Report, SimError> {
        self.run_with(2, &mut Tracer::off(), |kind, opts, tracer| {
            bsmp_sim::engine::run_mesh(kind, &self.spec, prog, init, steps, opts, tracer)
        })
    }

    /// Run a mesh guest program.
    pub fn run_mesh(&self, prog: &impl MeshProgram, init: &[Word], steps: i64) -> Report {
        self.try_run_mesh(prog, init, steps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Simulation::try_run_mesh`] with a recording [`Tracer`]; see
    /// [`Simulation::try_trace`].
    pub fn try_trace_mesh(
        &self,
        prog: &impl MeshProgram,
        init: &[Word],
        steps: i64,
    ) -> Result<(Report, RunTrace), SimError> {
        let mut tracer = Tracer::recording();
        let report = self.run_with(2, &mut tracer, |kind, opts, tracer| {
            bsmp_sim::engine::run_mesh(kind, &self.spec, prog, init, steps, opts, tracer)
        })?;
        Ok((
            report,
            tracer.take().expect("recording tracer yields a trace"),
        ))
    }

    /// Panicking twin of [`Simulation::try_trace_mesh`].
    pub fn trace_mesh(
        &self,
        prog: &impl MeshProgram,
        init: &[Word],
        steps: i64,
    ) -> (Report, RunTrace) {
        self.try_trace_mesh(prog, init, steps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run a traced linear-array simulation and certify the recorded
    /// trace against the two-sided envelopes (`lower ≤ measured ≤
    /// upper`; see [`bsmp_trace::certify`]).
    ///
    /// A `Violated` verdict is still `Ok` — the caller inspects
    /// [`Certificate::verdict`](bsmp_trace::certify::Certificate) — but
    /// a run that cannot be certified at all (instantaneous cost model,
    /// malformed trace) is [`SimError::Uncertifiable`].
    pub fn try_certify(
        &self,
        prog: &impl LinearProgram,
        init: &[Word],
        steps: i64,
    ) -> Result<(Report, RunTrace, bsmp_trace::certify::Certificate), SimError> {
        self.check_certifiable()?;
        let (report, trace) = self.try_trace(prog, init, steps)?;
        let cert = bsmp_trace::certify::certify(&trace).map_err(|e| SimError::Uncertifiable {
            message: e.to_string(),
        })?;
        Ok((report, trace, cert))
    }

    /// Mesh twin of [`Simulation::try_certify`].
    pub fn try_certify_mesh(
        &self,
        prog: &impl MeshProgram,
        init: &[Word],
        steps: i64,
    ) -> Result<(Report, RunTrace, bsmp_trace::certify::Certificate), SimError> {
        self.check_certifiable()?;
        let (report, trace) = self.try_trace_mesh(prog, init, steps)?;
        let cert = bsmp_trace::certify::certify(&trace).map_err(|e| SimError::Uncertifiable {
            message: e.to_string(),
        })?;
        Ok((report, trace, cert))
    }

    /// The trace schema does not record the cost model, and the
    /// certifier's communication floor assumes bounded-speed hop
    /// pricing — an instantaneous-model trace (every hop free) would be
    /// sandwiched against the wrong envelope.
    fn check_certifiable(&self) -> Result<(), SimError> {
        if self.spec.model == CostModel::Instantaneous {
            return Err(SimError::Uncertifiable {
                message: "instantaneous cost model: the certifier's envelopes assume \
                          bounded-speed propagation"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Validate a [`RunTrace`] structurally *and* semantically: every check
/// in [`RunTrace::validate`] plus "the stamped regime tag matches what
/// Theorem 1 assigns to the trace's own `(d, n, m, p)`".
pub fn validate_trace(trace: &RunTrace) -> Result<(), String> {
    trace.validate()?;
    let expect = format!(
        "{:?}",
        bsmp_analytic::theorem1::range(
            trace.d as u8,
            trace.n as f64,
            trace.m as f64,
            trace.p as f64
        )
    );
    if trace.summary.regime != expect {
        return Err(format!(
            "regime tag {:?} does not match Theorem 1's {expect} for d = {}, n = {}, m = {}, p = {}",
            trace.summary.regime, trace.d, trace.n, trace.m, trace.p
        ));
    }
    Ok(())
}

/// A simulation result together with the paper's analytic predictions.
#[derive(Clone, Debug)]
pub struct Report {
    /// Machine parameters.
    pub spec: MachineSpec,
    /// Measured outputs and costs.
    pub sim: SimReport,
    /// Theorem 1's locality slowdown `A(n, m, p)` for these parameters.
    pub analytic_a: f64,
    /// Theorem 1's slowdown bound `(n/p)·A`.
    pub analytic_slowdown: f64,
    /// Which of Theorem 1's four ranges `m` falls in.
    pub range: bsmp_analytic::Range,
}

impl Report {
    fn new(spec: MachineSpec, sim: SimReport) -> Self {
        let (n, m, p) = (spec.n as f64, spec.m as f64, spec.p as f64);
        Report {
            spec,
            sim,
            analytic_a: bsmp_analytic::locality_slowdown(spec.d, n, m, p),
            analytic_slowdown: bsmp_analytic::slowdown_bound(spec.d, n, m, p),
            range: bsmp_analytic::theorem1::range(spec.d, n, m, p),
        }
    }

    /// Measured `T_p / T_n`.
    pub fn measured_slowdown(&self) -> f64 {
        self.sim.slowdown()
    }

    /// Measured locality slowdown (slowdown ÷ `n/p`) — the empirical
    /// counterpart of `A(n, m, p)`.
    pub fn measured_a(&self) -> f64 {
        self.sim.locality_slowdown(self.spec.n, self.spec.p)
    }

    /// Ratio of measured to analytic locality slowdown — the
    /// implementation's constant factor (flat across parameter sweeps
    /// when the shape matches; see EXPERIMENTS.md).
    pub fn constant_factor(&self) -> f64 {
        self.measured_a() / self.analytic_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_guest;
    use bsmp_workloads::{inputs, Eca, VonNeumannLife};

    #[test]
    fn facade_linear_matches_direct() {
        let init = inputs::random_bits(60, 32);
        let spec = MachineSpec::new(1, 32, 4, 1);
        let guest = run_guest::<1>(&spec, &Eca::rule110(), &init, 32);
        for strategy in [Strategy::Naive, Strategy::TwoRegime, Strategy::Auto] {
            let r = Simulation::linear(32, 4, 1)
                .strategy(strategy)
                .run(&Eca::rule110(), &init, 32);
            r.sim.assert_matches(&guest.mem, &guest.values);
        }
    }

    #[test]
    fn facade_mesh_matches_direct() {
        let init = inputs::random_bits(61, 64);
        let r = Simulation::mesh(64, 4, 1)
            .strategy(Strategy::TwoRegime)
            .run_mesh(&VonNeumannLife::fredkin(), &init, 8);
        let guest = bsmp_machine::run_guest::<2>(
            &MachineSpec::new(2, 64, 4, 1),
            &VonNeumannLife::fredkin(),
            &init,
            8,
        );
        r.sim.assert_matches(&guest.mem, &guest.values);
    }

    #[test]
    fn auto_picks_naive_in_range_4() {
        // m ≥ n: Theorem 1 range 4 — naive is optimal.
        let s = Simulation::linear(8, 2, 16);
        assert_eq!(s.pick(), EngineKind::Naive1);
        let s = Simulation::linear(64, 2, 1);
        assert_eq!(s.pick(), EngineKind::Multi1);
        let s = Simulation::linear(64, 1, 1);
        assert_eq!(s.pick(), EngineKind::Dnc1);
    }

    #[test]
    fn report_carries_analytics() {
        let init = inputs::random_bits(62, 16);
        let r = Simulation::linear(16, 2, 1).run(&Eca::rule90(), &init, 8);
        assert!(r.analytic_a >= 1.0);
        assert!(r.analytic_slowdown >= 8.0);
        assert!(r.measured_slowdown() > 0.0);
        assert!(r.constant_factor() > 0.0);
    }

    #[test]
    fn instantaneous_baseline_hits_brent() {
        let init = inputs::random_bits(63, 64);
        let r = Simulation::linear(64, 8, 1)
            .instantaneous()
            .strategy(Strategy::Naive)
            .run(&Eca::rule90(), &init, 32);
        let brent = 64.0 / 8.0;
        let s = r.measured_slowdown();
        assert!(
            s > 0.5 * brent && s < 3.0 * brent,
            "instantaneous ⇒ Brent: {s}"
        );
    }

    #[test]
    fn try_constructors_and_runs_surface_errors() {
        assert!(matches!(
            Simulation::try_linear(15, 4, 1),
            Err(SimError::Spec(SpecError::ProcessorsOutOfRange { .. }))
                | Err(SimError::Spec(SpecError::ZeroExtent { .. }))
                | Ok(_)
        ));
        assert!(
            Simulation::try_mesh(15, 4, 1).is_err(),
            "15 is not a perfect square"
        );
        let init = inputs::random_bits(64, 10);
        let err = Simulation::try_linear(32, 4, 1)
            .unwrap()
            .try_run(&Eca::rule110(), &init, 8)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InitLength {
                expected: 32,
                got: 10
            }
        );
    }

    #[test]
    fn auto_degrades_to_naive_on_tight_mesh() {
        // p = n ⇒ block side 1: TwoRegime cannot run the honeycomb
        // scheme, and the façade must fall back instead of panicking.
        let init = inputs::random_bits(65, 16);
        let spec = MachineSpec::new(2, 16, 16, 1);
        let guest = bsmp_machine::run_guest::<2>(&spec, &VonNeumannLife::fredkin(), &init, 4);
        let r = Simulation::mesh(16, 16, 1)
            .strategy(Strategy::TwoRegime)
            .try_run_mesh(&VonNeumannLife::fredkin(), &init, 4)
            .expect("graceful degradation");
        r.sim.assert_matches(&guest.mem, &guest.values);
    }

    #[test]
    fn threads_setting_is_cost_invariant() {
        // Model time must not depend on the host thread count.
        let init = inputs::random_bits(67, 64);
        let serial = Simulation::linear(64, 4, 1)
            .strategy(Strategy::Naive)
            .threads(1)
            .run(&Eca::rule110(), &init, 32);
        for t in [0usize, 2, 8] {
            let r = Simulation::linear(64, 4, 1)
                .strategy(Strategy::Naive)
                .threads(t)
                .run(&Eca::rule110(), &init, 32);
            r.sim.assert_matches(&serial.sim.mem, &serial.sim.values);
            assert_eq!(r.sim.host_time.to_bits(), serial.sim.host_time.to_bits());
            assert_eq!(r.sim.stages, serial.sim.stages);
        }
    }

    #[test]
    fn faulted_facade_run_accounts_delay() {
        let init = inputs::random_bits(66, 64);
        let base = Simulation::linear(64, 4, 1)
            .strategy(Strategy::Naive)
            .try_run(&Eca::rule110(), &init, 32)
            .unwrap();
        let slowed = Simulation::linear(64, 4, 1)
            .strategy(Strategy::Naive)
            .faults(FaultPlan::uniform_slowdown(2.0))
            .try_run(&Eca::rule110(), &init, 32)
            .unwrap();
        slowed.sim.assert_matches(&base.sim.mem, &base.sim.values);
        assert!(slowed.sim.faults.injected_delay > 0.0);
        assert!(slowed.sim.host_time > base.sim.host_time);
        assert!(slowed.sim.host_time <= 2.0 * base.sim.host_time + 1e-6);
    }
}
