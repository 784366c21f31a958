//! Tier-1 checks for the structured tracing layer (PR 4):
//!
//! 1. **Bit-identity** — tracing, whether disabled or recording, never
//!    perturbs a `SimReport`: every float matches `to_bits`-exactly,
//!    including under an active `FaultPlan`.
//! 2. **Acceptance** — every engine's trace passes the full
//!    `trace-validate` check (structural invariants plus the Theorem-1
//!    regime tag), and the summary's Brent × locality split multiplies
//!    back to the measured slowdown.

use bsmp::sim::{dnc3, pipelined1};
use bsmp::trace::{RunTrace, Tracer};
use bsmp::workloads::{inputs, Eca, Parity3d, VonNeumannLife};
use bsmp::{validate_trace, FaultPlan, MachineSpec, RunOpts, SimReport, Simulation, Strategy};

fn assert_reports_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.host_time.to_bits(), b.host_time.to_bits());
    assert_eq!(a.guest_time.to_bits(), b.guest_time.to_bits());
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.values, b.values);
    assert_eq!(a.stages, b.stages);
    assert_eq!(a.space, b.space);
    assert_eq!(
        a.faults.injected_delay.to_bits(),
        b.faults.injected_delay.to_bits()
    );
    assert_eq!(a.faults.retries, b.faults.retries);
    assert_eq!(a.faults.recovered_stages, b.faults.recovered_stages);
    assert_eq!(a.meter.comm.to_bits(), b.meter.comm.to_bits());
}

fn check_trace(trace: &RunTrace, engine: &str, rep: &SimReport) {
    validate_trace(trace).unwrap_or_else(|e| panic!("{engine}: {e}"));
    assert_eq!(trace.engine, engine);
    assert_eq!(
        trace.summary.host_time.to_bits(),
        rep.host_time.to_bits(),
        "{engine}: trace host_time diverges from the report"
    );
    // The Theorem-1 split must multiply back to the measured slowdown.
    let product = trace.summary.brent_term * trace.summary.locality_term;
    assert!(
        (product - trace.summary.slowdown).abs() <= 1e-9 * trace.summary.slowdown.abs().max(1.0),
        "{engine}: {} × {} != {}",
        trace.summary.brent_term,
        trace.summary.locality_term,
        trace.summary.slowdown
    );
}

#[test]
fn tracing_never_perturbs_linear_reports() {
    let init = inputs::random_bits(90, 64);
    let prog = Eca::rule110();
    let plans = [
        FaultPlan::none(),
        FaultPlan::uniform_slowdown(1.5),
        FaultPlan::uniform_slowdown(1.2)
            .seed(9)
            .loss(50, 3)
            .random_crashes(10),
    ];
    for strategy in [Strategy::Naive, Strategy::TwoRegime] {
        for plan in plans {
            let sim = Simulation::linear(64, 4, 1).strategy(strategy).faults(plan);
            let base = sim.try_run(&prog, &init, 32).unwrap();
            let (traced, trace) = sim.try_trace(&prog, &init, 32).unwrap();
            assert_reports_identical(&base.sim, &traced.sim);
            validate_trace(&trace).unwrap();
        }
    }
}

#[test]
fn tracing_never_perturbs_mesh_reports() {
    let init = inputs::random_bits(91, 64);
    let prog = VonNeumannLife::fredkin();
    for strategy in [Strategy::Naive, Strategy::TwoRegime] {
        for plan in [FaultPlan::none(), FaultPlan::uniform_slowdown(2.0)] {
            let sim = Simulation::mesh(64, 4, 1).strategy(strategy).faults(plan);
            let base = sim.try_run_mesh(&prog, &init, 8).unwrap();
            let (traced, trace) = sim.try_trace_mesh(&prog, &init, 8).unwrap();
            assert_reports_identical(&base.sim, &traced.sim);
            validate_trace(&trace).unwrap();
        }
    }
}

#[test]
fn facade_engines_produce_valid_traces() {
    let init = inputs::random_bits(92, 64);
    let prog = Eca::rule110();
    for (strategy, p, engine) in [
        (Strategy::Naive, 4u64, "naive1"),
        (Strategy::TwoRegime, 4, "multi1"),
        (Strategy::TwoRegime, 1, "dnc1"),
    ] {
        let (rep, trace) = Simulation::linear(64, p, 1)
            .strategy(strategy)
            .try_trace(&prog, &init, 32)
            .unwrap();
        check_trace(&trace, engine, &rep.sim);
        assert!(trace.summary.points > 0, "{engine}: no points recorded");
    }

    let init2 = inputs::random_bits(93, 64);
    let life = VonNeumannLife::fredkin();
    for (strategy, p, engine) in [
        (Strategy::Naive, 4u64, "naive2"),
        (Strategy::TwoRegime, 4, "multi2"),
        (Strategy::TwoRegime, 1, "dnc2"),
    ] {
        let (rep, trace) = Simulation::mesh(64, p, 1)
            .strategy(strategy)
            .try_trace_mesh(&life, &init2, 8)
            .unwrap();
        check_trace(&trace, engine, &rep.sim);
        assert!(trace.summary.points > 0, "{engine}: no points recorded");
    }
}

/// Engines not reachable through the façade: trace them directly and
/// stamp the regime the way the façade would.
#[test]
fn direct_engines_produce_valid_traces() {
    let stamp = |mut tr: RunTrace| {
        tr.summary.regime = format!(
            "{:?}",
            bsmp::analytic::theorem1::range(tr.d as u8, tr.n as f64, tr.m as f64, tr.p as f64)
        );
        tr
    };

    let init = inputs::random_bits(94, 64);
    let spec = MachineSpec::new(1, 64, 4, 1);
    let mut tracer = Tracer::recording();
    let rep = pipelined1::try_simulate_pipelined1(
        &spec,
        &Eca::rule110(),
        &init,
        32,
        RunOpts {
            plan: FaultPlan::none(),
            ..RunOpts::default()
        },
        &mut tracer,
    )
    .unwrap();
    let tr = stamp(tracer.take().unwrap());
    check_trace(&tr, "pipelined1", &rep);

    let side = 4usize;
    let vinit = inputs::random_bits(95, side * side * side);
    let mut tracer = Tracer::recording();
    let rep = dnc3::try_simulate_dnc3(side, &Parity3d, &vinit, 4, RunOpts::default(), &mut tracer)
        .unwrap();
    let tr = stamp(tracer.take().unwrap());
    check_trace(&tr, "dnc3", &rep);

    let mut tracer = Tracer::recording();
    let rep =
        dnc3::try_simulate_naive3(side, &Parity3d, &vinit, 4, RunOpts::default(), &mut tracer)
            .unwrap();
    let tr = stamp(tracer.take().unwrap());
    check_trace(&tr, "naive3", &rep);
}

#[test]
fn traces_survive_a_json_round_trip() {
    let init = inputs::random_bits(96, 64);
    let (_, trace) = Simulation::linear(64, 4, 1)
        .strategy(Strategy::TwoRegime)
        .try_trace(&Eca::rule110(), &init, 32)
        .unwrap();
    let parsed = RunTrace::from_json(&trace.to_json()).unwrap();
    assert_eq!(parsed, trace);
    validate_trace(&parsed).unwrap();
}

#[test]
fn validate_trace_rejects_a_mis_stamped_regime() {
    let init = inputs::random_bits(97, 64);
    let (_, mut trace) = Simulation::linear(64, 4, 1)
        .strategy(Strategy::Naive)
        .try_trace(&Eca::rule110(), &init, 16)
        .unwrap();
    validate_trace(&trace).unwrap();
    trace.summary.regime = "R4".into(); // n = 64, m = 1 is R1 territory.
    assert!(validate_trace(&trace).is_err());
}

#[test]
fn facade_certifies_linear_and_mesh_runs() {
    let init = inputs::random_bits(98, 64);
    let (_, trace, cert) = Simulation::try_linear(64, 4, 1)
        .unwrap()
        .strategy(Strategy::TwoRegime)
        .try_certify(&Eca::rule110(), &init, 64)
        .unwrap();
    assert_eq!(cert.verdict, bsmp::trace::certify::Verdict::Certified);
    assert_eq!(cert.engine, trace.engine);
    assert!(cert.lower <= cert.measured && cert.measured <= cert.upper);

    let (_, _, mcert) = Simulation::try_mesh(64, 4, 1)
        .unwrap()
        .strategy(Strategy::Naive)
        .try_certify_mesh(&VonNeumannLife::fredkin(), &init, 16)
        .unwrap();
    assert_eq!(mcert.verdict, bsmp::trace::certify::Verdict::Certified);
}

#[test]
fn facade_refuses_to_certify_instantaneous_runs() {
    // The trace schema does not record the cost model, and the
    // certifier's floors assume bounded-speed hops — an instantaneous
    // trace would be judged against the wrong envelopes.
    let init = inputs::random_bits(99, 64);
    let err = Simulation::try_linear(64, 4, 1)
        .unwrap()
        .instantaneous()
        .strategy(Strategy::Naive)
        .try_certify(&Eca::rule110(), &init, 16)
        .unwrap_err();
    assert!(matches!(err, bsmp::SimError::Uncertifiable { .. }), "{err}");
}
