//! Integration: measured costs sit inside the paper's analytic
//! envelopes, and scale with the predicted shapes.
//!
//! Constants are implementation-specific (Proposition 3's own τ₀ is
//! ~128); the envelope tests therefore pin *growth rates* and
//! *orderings*, which is what Θ-bounds assert.

use bsmp::machine::MachineSpec;
use bsmp::sim::{dnc::simulate_dnc, naive::simulate_naive};
use bsmp::workloads::{inputs, CyclicWave, Eca};
use bsmp::{analytic, Simulation, Strategy};

#[test]
fn theorem2_growth_rate() {
    // slowdown(n) = Θ(n log n): growth per doubling ∈ (2, 4) and
    // decreasing towards 2.
    let slow = |n: u64| {
        let init = inputs::random_bits(20, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        simulate_dnc::<1>(&spec, &Eca::rule90(), &init, n as i64).slowdown()
    };
    let (s64, s128, s256) = (slow(64), slow(128), slow(256));
    let g1 = s128 / s64;
    let g2 = s256 / s128;
    assert!(g1 > 1.8 && g1 < 3.6, "first doubling ×{g1}");
    assert!(g2 > 1.8 && g2 < 3.6, "second doubling ×{g2}");
    assert!(g2 < g1 * 1.3, "log factor flattens the growth");
}

#[test]
fn proposition1_growth_rate() {
    // Naive uniprocessor slowdown = Θ(n²) for d = 1.
    let slow = |n: u64| {
        let init = inputs::random_bits(21, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        simulate_naive::<1>(&spec, &Eca::rule90(), &init, 32).slowdown()
    };
    let ratio = slow(256) / slow(64);
    assert!(
        ratio > 8.0 && ratio < 32.0,
        "quadratic: 4× n ⇒ ~16× slowdown, got {ratio}"
    );
}

#[test]
fn theorem3_locality_term_saturates() {
    // Theorem 3: locality slowdown min(n, m·log(n/m)) — growing m at
    // fixed n must increase the slowdown sublinearly and approach the
    // naive ceiling.
    let n = 32u64;
    let slow = |m: usize| {
        let init = inputs::random_words(22, n as usize * m, 50);
        let spec = MachineSpec::new(1, n, 1, m as u64);
        simulate_dnc::<1>(&spec, &CyclicWave::new(m), &init, n as i64).slowdown()
    };
    let s1 = slow(1);
    let s4 = slow(4);
    let s16 = slow(16);
    assert!(s4 > s1, "locality loss grows with density");
    assert!(s16 > s4);
    assert!(
        s16 / s4 < 8.0,
        "sublinear in m (log factor), got {}",
        s16 / s4
    );
}

#[test]
fn theorem1_bound_is_respected_in_shape() {
    // Measured A / analytic A (the constant factor) must stay within one
    // order of magnitude across a parameter sweep — i.e. the analytic
    // shape explains the measurements.
    let n = 128u64;
    let steps = 64i64;
    let mut factors = Vec::new();
    for p in [2u64, 4, 8] {
        let init = inputs::random_bits(23, n as usize);
        let r = Simulation::linear(n, p, 1)
            .strategy(Strategy::TwoRegime)
            .run(&Eca::rule90(), &init, steps);
        factors.push(r.constant_factor());
    }
    let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = factors.iter().cloned().fold(0.0f64, f64::max);
    assert!(min > 1.0, "measured above the Θ-bound's shape floor");
    assert!(
        max / min < 12.0,
        "constant factor drift across p: {factors:?}"
    );
}

#[test]
fn brent_baseline_under_instantaneous_model() {
    // E10: the instantaneous model recovers Brent's ⌈n/p⌉ exactly in
    // shape (constant ≈ per-step bookkeeping).
    for (n, p) in [(64u64, 4u64), (128, 8), (128, 16)] {
        let init = inputs::random_bits(24, n as usize);
        let r = Simulation::linear(n, p, 1)
            .instantaneous()
            .strategy(Strategy::Naive)
            .run(&Eca::rule110(), &init, 32);
        let brent = analytic::brent::brent_slowdown(n, p) as f64;
        let s = r.measured_slowdown();
        assert!(
            s > 0.4 * brent && s < 3.0 * brent,
            "n={n} p={p}: {s} vs Brent {brent}"
        );
    }
}

#[test]
fn superlinearity_manifest() {
    // Bounded-speed slowdown strictly exceeds the instantaneous one for
    // the same machine pair — the Section-6 conclusion.
    let (n, p) = (128u64, 4u64);
    let init = inputs::random_bits(25, n as usize);
    let bounded =
        Simulation::linear(n, p, 1)
            .strategy(Strategy::Naive)
            .run(&Eca::rule110(), &init, 64);
    let instant = Simulation::linear(n, p, 1)
        .instantaneous()
        .strategy(Strategy::Naive)
        .run(&Eca::rule110(), &init, 64);
    assert!(
        bounded.measured_slowdown() > 4.0 * instant.measured_slowdown(),
        "bounded {} ≫ instantaneous {}",
        bounded.measured_slowdown(),
        instant.measured_slowdown()
    );
}

#[test]
fn space_stays_within_proposition3() {
    // σ(|V|) = O(|V|^{1/2}) for d = 1: compare against the closed form
    // with the implementation's measured σ₀.
    let spec_of = |n: u64| MachineSpec::new(1, n, 1, 1);
    let space = |n: u64| {
        let init = inputs::random_bits(26, n as usize);
        simulate_dnc::<1>(&spec_of(n), &Eca::rule90(), &init, n as i64).space as f64
    };
    let s128 = space(128);
    let s512 = space(512);
    // |V| grows 16×; √ growth means ×4.
    let ratio = s512 / s128;
    assert!(
        ratio > 2.5 && ratio < 6.5,
        "σ ~ √|V|: expected ~4×, got {ratio}"
    );
}

// ---------------------------------------------------------------------
// Two-sided certification: every engine × regime cell of the matrix is
// sandwiched `floor ≤ measured ≤ envelope` by `bsmp_trace::certify`,
// clean and under fault plans; tampered traces flip to `Violated` and
// mis-stamped regimes are rejected outright.
// ---------------------------------------------------------------------

use bsmp::certify_suite::{matrix, run_case};
use bsmp::trace::certify::{certify, CertifyError, Verdict};
use bsmp::FaultPlan;

#[test]
fn matrix_certifies_clean_and_under_faults() {
    let plans = [
        ("clean", FaultPlan::none()),
        ("slowdown", FaultPlan::uniform_slowdown(1.8).seed(11)),
        ("loss", FaultPlan::none().loss(40, 3).seed(5)),
    ];
    for (label, plan) in plans {
        for case in matrix() {
            let (_, cert) = run_case(&case, &plan)
                .unwrap_or_else(|e| panic!("{}/{} [{label}]: {e}", case.engine, case.regime));
            assert_eq!(
                cert.verdict,
                Verdict::Certified,
                "{}/{} [{label}]: {:?}",
                case.engine,
                case.regime,
                cert.failures
            );
            assert!(
                cert.margin >= 1.0,
                "{}/{} [{label}]: margin {}",
                case.engine,
                case.regime,
                cert.margin
            );
            assert_eq!(cert.engine, case.engine);
            assert_eq!(cert.regime, case.regime);
        }
    }
}

#[test]
fn fault_plans_do_not_change_upper_side_margins() {
    // The fault-adjusted upper check subtracts the recorded injected
    // delay, so a uniform slowdown leaves the slowdown sandwich's upper
    // side exactly where the clean run put it.
    let case = matrix()
        .into_iter()
        .find(|c| c.engine == "multi1" && c.regime == "R1")
        .unwrap();
    let (_, clean) = run_case(&case, &FaultPlan::none()).unwrap();
    let (_, faulted) = run_case(&case, &FaultPlan::uniform_slowdown(2.5).seed(3)).unwrap();
    assert_eq!(faulted.verdict, Verdict::Certified);
    assert_eq!(clean.upper.to_bits(), faulted.upper.to_bits());
}

#[test]
fn corrupted_slowdown_is_violated() {
    let case = matrix()[0];
    let (mut trace, _) = run_case(&case, &FaultPlan::none()).unwrap();
    // Shrink the recorded guest time: the recomputed slowdown explodes
    // past the envelope and disagrees with the stored summary figure.
    trace.summary.guest_time /= 1.0e6;
    trace
        .validate()
        .expect("corruption stays structurally valid");
    let cert = certify(&trace).expect("still certifiable");
    assert_eq!(cert.verdict, Verdict::Violated);
    assert!(
        cert.failures.iter().any(|f| f.contains("stored slowdown")),
        "{:?}",
        cert.failures
    );
}

#[test]
fn inflated_comm_ledger_is_violated() {
    // A trace whose communication ledger was inflated (consistently, so
    // structural validation still passes) exceeds the busy-time ceiling:
    // every unit of comm delay must be charged to some processor clock.
    let case = matrix()
        .into_iter()
        .find(|c| c.engine == "naive1" && c.regime == "R1")
        .unwrap();
    let (mut trace, _) = run_case(&case, &FaultPlan::none()).unwrap();
    for s in &mut trace.stages {
        s.comm_delay *= 1.0e6;
    }
    trace.summary.comm_delay *= 1.0e6;
    trace
        .validate()
        .expect("corruption stays structurally valid");
    let cert = certify(&trace).expect("still certifiable");
    assert_eq!(cert.verdict, Verdict::Violated);
    assert!(
        cert.failures.iter().any(|f| f.contains("comm")),
        "{:?}",
        cert.failures
    );
}

#[test]
fn zeroed_comm_ledger_is_violated() {
    // The opposite tampering direction: a p > 1 ledger zeroed below the
    // distance-weighted cut floor.
    let case = matrix()
        .into_iter()
        .find(|c| c.engine == "naive1" && c.regime == "R1")
        .unwrap();
    let (mut trace, _) = run_case(&case, &FaultPlan::none()).unwrap();
    for s in &mut trace.stages {
        s.comm_delay = 0.0;
    }
    trace.summary.comm_delay = 0.0;
    trace
        .validate()
        .expect("corruption stays structurally valid");
    let cert = certify(&trace).expect("still certifiable");
    assert_eq!(cert.verdict, Verdict::Violated);
    assert!(
        cert.failures.iter().any(|f| f.contains("comm")),
        "{:?}",
        cert.failures
    );
}

#[test]
fn mis_stamped_regime_is_rejected() {
    let case = matrix()[0]; // an R1 cell
    let (mut trace, _) = run_case(&case, &FaultPlan::none()).unwrap();
    trace.summary.regime = "R4".to_string();
    trace.validate().expect("R4 is a structurally valid stamp");
    match certify(&trace) {
        Err(CertifyError::RegimeMismatch { stamped, expected }) => {
            assert_eq!(stamped, "R4");
            assert_eq!(expected, "R1");
        }
        other => panic!("expected RegimeMismatch, got {other:?}"),
    }
}

#[test]
fn unknown_engine_is_rejected() {
    let case = matrix()[0];
    let (mut trace, _) = run_case(&case, &FaultPlan::none()).unwrap();
    trace.engine = "naive9".to_string();
    match certify(&trace) {
        Err(CertifyError::UnknownEngine(e)) => assert_eq!(e, "naive9"),
        other => panic!("expected UnknownEngine, got {other:?}"),
    }
}
