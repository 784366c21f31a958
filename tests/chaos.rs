//! Chaos-soak harness for the adversarial scenario engine (DESIGN.md
//! §14): a seeded scenario matrix — lognormal/Pareto jitter, asymmetric
//! links, partition storms, continuous churn, and their composition —
//! runs across every engine and host thread count, asserting
//!
//! * zero panics: every outcome is `Ok` or a *typed* `SimError`;
//! * functional equivalence: faults perturb the clock, never the
//!   computed values;
//! * bit-reproducibility: the same seed + plan yields `f64::to_bits`-
//!   identical reports on every rerun and every thread count;
//! * neutrality: `FaultPlan::none` through the faulted entry points is
//!   bit-identical to the plain entry points.
//!
//! The quick matrix runs under plain `cargo test`; set `BSMP_SOAK=1`
//! for the extended multi-seed soak.

use bsmp::faults::Region;
use bsmp::machine::MachineSpec;
use bsmp::sim::engine;
use bsmp::workloads::{inputs, Eca, Parity3d, VonNeumannLife};
use bsmp::{
    set_default_threads, EngineKind, ExecPolicy, FaultPlan, RunOpts, SimError, SimReport, Tracer,
};

/// One engine of the matrix: a short, multi-stage configuration.
struct Outcome {
    engine: &'static str,
    report: SimReport,
}

/// Run the full 9-engine suite under `plan` (with `exec` for the
/// engines that read a host-thread policy) and return every report.
/// Panics only on a *typed-error* result — the harness itself asserts
/// the error-free property of the matrix plans.
fn run_all_engines(plan: &FaultPlan, exec: ExecPolicy) -> Vec<Outcome> {
    let opts = RunOpts {
        plan: *plan,
        exec,
        ..RunOpts::default()
    };
    // d = 1: p = 8, dnc1 at p = 1.
    let prog1 = Eca::rule110();
    let init1 = inputs::random_bits(0xC0DE, 64);
    let spec1 = MachineSpec::new(1, 64, 8, 1);
    let uni1 = MachineSpec::new(1, 64, 1, 1);
    // d = 2: p = 4, dnc2 at p = 1.
    let prog2 = VonNeumannLife::fredkin();
    let init2 = inputs::random_bits(0xC0DE + 1, 64);
    let spec2 = MachineSpec::new(2, 64, 4, 1);
    let uni2 = MachineSpec::new(2, 64, 1, 1);
    // d = 3: uniprocessor engines, side³ = 27 nodes.
    let init3 = inputs::random_bits(0xC0DE + 2, 27);
    EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let off = &mut Tracer::off();
            let rep = match kind {
                EngineKind::Dnc1 => engine::run_linear(kind, &uni1, &prog1, &init1, 16, opts, off),
                EngineKind::Dnc2 => engine::run_mesh(kind, &uni2, &prog2, &init2, 8, opts, off),
                _ => match kind.d() {
                    1 => engine::run_linear(kind, &spec1, &prog1, &init1, 32, opts, off),
                    2 => engine::run_mesh(kind, &spec2, &prog2, &init2, 8, opts, off),
                    _ => engine::run_volume(kind, 3, &Parity3d, &init3, 3, opts, off),
                },
            };
            let engine = kind.name();
            let report = rep.unwrap_or_else(|e| panic!("{engine}: scenario must not error: {e}"));
            Outcome { engine, report }
        })
        .collect()
}

/// The seeded scenario matrix: one plan per adversarial family plus
/// their composition.  Every plan keeps the churn retry budget generous
/// so the quick matrix never exhausts (exhaustion has its own test).
fn scenario_matrix(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "lognormal-jitter",
            FaultPlan::none().seed(seed).lognormal(0.25, 0.5),
        ),
        (
            "pareto-jitter",
            FaultPlan::none().seed(seed).pareto(1.0, 2.5),
        ),
        (
            "asymmetric-links",
            FaultPlan::none()
                .seed(seed)
                .lognormal(0.1, 0.3)
                .asymmetric(0.6),
        ),
        (
            "partition-storm",
            FaultPlan::none()
                .seed(seed)
                .storm(Region::Interval { lo: 1, hi: 3 }, 2, 3, 8),
        ),
        (
            "tile-storm",
            FaultPlan::none().seed(seed).storm(
                Region::Tile {
                    r0: 0,
                    r1: 1,
                    c0: 0,
                    c1: 2,
                },
                1,
                2,
                6,
            ),
        ),
        ("churn", FaultPlan::none().seed(seed).churn(60, 2, 10, 1.0)),
        (
            "kitchen-sink",
            FaultPlan::none()
                .seed(seed)
                .lognormal(0.2, 0.4)
                .asymmetric(0.4)
                .loss(80, 4)
                .storm(Region::Interval { lo: 1, hi: 2 }, 3, 2, 9)
                .churn(40, 2, 10, 1.0),
        ),
    ]
}

/// Quick matrix: every scenario family on every engine — no panics, no
/// errors, values untouched by faults, reports bit-identical on rerun.
#[test]
fn chaos_matrix_is_panic_free_and_reproducible() {
    let clean = run_all_engines(&FaultPlan::none(), ExecPolicy::auto());
    for (name, plan) in scenario_matrix(0x5EED) {
        let first = run_all_engines(&plan, ExecPolicy::auto());
        let again = run_all_engines(&plan, ExecPolicy::auto());
        for ((a, b), base) in first.iter().zip(&again).zip(&clean) {
            // Faults never change what was computed …
            a.report
                .check_matches(&base.report.mem, &base.report.values)
                .unwrap_or_else(|e| panic!("{name}/{}: values diverged: {e}", a.engine));
            // … never speed the run up …
            assert!(
                a.report.host_time >= base.report.host_time - 1e-9,
                "{name}/{}: faulted run finished early",
                a.engine
            );
            // … and are bit-reproducible per (seed, plan).
            assert_eq!(
                a.report.host_time.to_bits(),
                b.report.host_time.to_bits(),
                "{name}/{}: host_time not reproducible",
                a.engine
            );
            assert_eq!(
                a.report.faults, b.report.faults,
                "{name}/{}: fault counters not reproducible",
                a.engine
            );
        }
    }
}

/// Determinism under concurrency: the same seed + scenario produces a
/// `to_bits`-identical report at every host thread count.  Model costs
/// must be a pure function of the plan, never of the host schedule.
#[test]
fn chaos_reports_identical_across_thread_counts() {
    let plan = scenario_matrix(0xD15EA5E)
        .pop()
        .expect("matrix is non-empty")
        .1;
    let mut baseline: Option<Vec<Outcome>> = None;
    for threads in [1usize, 2, 8] {
        set_default_threads(threads);
        let got = run_all_engines(&plan, ExecPolicy::threads(threads));
        if let Some(base) = &baseline {
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(
                    a.report.host_time.to_bits(),
                    b.report.host_time.to_bits(),
                    "{}: host_time differs at {threads} threads",
                    a.engine
                );
                assert_eq!(
                    a.report.meter.comm.to_bits(),
                    b.report.meter.comm.to_bits(),
                    "{}: comm ledger differs at {threads} threads",
                    a.engine
                );
                assert_eq!(
                    a.report.faults, b.report.faults,
                    "{}: fault counters differ at {threads} threads",
                    a.engine
                );
                assert_eq!(a.report.mem, b.report.mem);
                assert_eq!(a.report.values, b.report.values);
            }
        } else {
            baseline = Some(got);
        }
    }
    set_default_threads(0);
}

/// A plan that injects nothing (here: [`FaultPlan::none`] with a
/// non-default seed) is bit-identical to the default fault-free run on
/// every engine: the scenario layer must cost nothing when it injects
/// nothing.
#[test]
fn none_plan_is_bitwise_neutral_on_all_engines() {
    let plain = run_all_engines(&FaultPlan::none(), ExecPolicy::auto());
    let none = run_all_engines(&FaultPlan::none().seed(0xC0DE), ExecPolicy::auto());
    for (plain, none) in plain.iter().zip(&none) {
        let engine = plain.engine;
        let (plain, none) = (&plain.report, &none.report);
        assert_eq!(
            plain.host_time.to_bits(),
            none.host_time.to_bits(),
            "{engine}: empty plan must be bit-neutral"
        );
        assert_eq!(
            plain.meter.comm.to_bits(),
            none.meter.comm.to_bits(),
            "{engine}: empty plan must leave the comm ledger untouched"
        );
        assert_eq!(plain.stages, none.stages, "{engine}: stage count drifted");
        assert_eq!(plain.mem, none.mem);
        assert_eq!(plain.values, none.values);
    }
}

/// Exhausting the churn retry budget is a typed error carrying partial
/// fault statistics — never a panic, never a poisoned pool.
#[test]
fn churn_exhaustion_degrades_to_typed_error() {
    // Every processor leaves immediately and stays down longer than the
    // single allowed redelivery attempt.
    let plan = FaultPlan::none().seed(7).churn(1000, 6, 1, 1.0);
    let prog = Eca::rule110();
    let init = inputs::random_bits(0xDEAD, 64);
    let spec = MachineSpec::new(1, 64, 8, 1);
    let opts = RunOpts {
        plan,
        ..RunOpts::default()
    };
    for kind in [
        EngineKind::Naive1,
        EngineKind::Multi1,
        EngineKind::Pipelined1,
    ] {
        let engine = kind.name();
        match engine::run_linear(kind, &spec, &prog, &init, 32, opts, &mut Tracer::off()) {
            Err(SimError::ScenarioExhausted { stats, .. }) => {
                assert!(
                    stats.departures > 0,
                    "{engine}: partial stats must record the departures"
                );
                assert!(
                    stats.backoff_retries > 0,
                    "{engine}: partial stats must record the failed retries"
                );
            }
            other => panic!("{engine}: expected ScenarioExhausted, got {other:?}"),
        }
    }
}

/// Extended soak, opt-in via `BSMP_SOAK=1`: the full matrix over many
/// seeds and longer horizons.  Anything nondeterministic, panicky, or
/// value-corrupting across ~500 engine runs fails here.
#[test]
fn chaos_soak_extended() {
    if std::env::var("BSMP_SOAK").as_deref() != Ok("1") {
        eprintln!("chaos_soak_extended: skipped (set BSMP_SOAK=1 to run)");
        return;
    }
    for seed in [1u64, 2, 3, 0xFEED, 0xBEEF, 0xABCDEF, u64::MAX] {
        for (name, plan) in scenario_matrix(seed) {
            let first = run_all_engines(&plan, ExecPolicy::auto());
            let again = run_all_engines(&plan, ExecPolicy::auto());
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(
                    a.report.host_time.to_bits(),
                    b.report.host_time.to_bits(),
                    "soak {name}/{} seed {seed}: not reproducible",
                    a.engine
                );
                assert_eq!(a.report.faults, b.report.faults);
                assert_eq!(a.report.values, b.report.values);
            }
        }
    }
}
