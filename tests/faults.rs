//! Integration tests of the deterministic fault-injection layer: under
//! any fault plan the engines stay *functionally* equivalent to direct
//! guest execution (checkpoint/restore replays the same deterministic
//! stage), while the clock-level accounting obeys the analytic envelope
//! `T_p(ν) ≤ ν · T_p(1)` for a uniform link slowdown ν (communication
//! is only a part of each stage's critical path, so inflating it by ν
//! inflates the stage by at most ν).

use bsmp::machine::{run_guest, MachineSpec};
use bsmp::sim::{engine, multi2, naive};
use bsmp::workloads::{inputs, Eca, VonNeumannLife};
use bsmp::{EngineKind, FaultPlan, RunOpts, SimReport, Simulation, Strategy, Tracer};

const NUS: [f64; 3] = [1.0, 2.0, 4.0];

/// Default run options with fault plan `plan`.
fn faulted(plan: FaultPlan) -> RunOpts {
    RunOpts {
        plan,
        ..RunOpts::default()
    }
}

/// Check one engine run against the guest and the ν-envelope.
fn check_envelope(base: &SimReport, faulted: &SimReport, nu: f64, tag: &str) {
    faulted
        .check_matches(&base.mem, &base.values)
        .unwrap_or_else(|e| panic!("{tag} ν={nu}: {e}"));
    assert!(
        base.host_time <= faulted.host_time + 1e-9,
        "{tag} ν={nu}: faulted run finished early ({} < {})",
        faulted.host_time,
        base.host_time
    );
    assert!(
        faulted.host_time <= nu * base.host_time + 1e-6,
        "{tag} ν={nu}: {} exceeds ν-envelope {}",
        faulted.host_time,
        nu * base.host_time
    );
    if nu == 1.0 {
        assert_eq!(
            faulted.host_time.to_bits(),
            base.host_time.to_bits(),
            "{tag}: ν=1 must be bit-identical"
        );
    }
}

#[test]
fn uniform_slowdown_envelope_linear_engines() {
    let n = 64u64;
    let init = inputs::random_bits(90, n as usize);
    let prog = Eca::rule110();
    let spec = MachineSpec::new(1, n, 8, 1);
    let guest = run_guest::<1>(&spec, &prog, &init, 32);

    for kind in [
        EngineKind::Naive1,
        EngineKind::Multi1,
        EngineKind::Pipelined1,
    ] {
        let run = |plan| {
            engine::run_linear(
                kind,
                &spec,
                &prog,
                &init,
                32,
                faulted(plan),
                &mut Tracer::off(),
            )
        };
        let base = run(FaultPlan::none()).unwrap();
        base.assert_matches(&guest.mem, &guest.values);
        for nu in NUS {
            let rep = run(FaultPlan::uniform_slowdown(nu)).unwrap();
            check_envelope(&base, &rep, nu, kind.name());
        }
    }
}

#[test]
fn uniform_slowdown_envelope_mesh_engines() {
    let init = inputs::random_bits(91, 64);
    let prog = VonNeumannLife::fredkin();
    let spec = MachineSpec::new(2, 64, 4, 1);
    let guest = run_guest::<2>(&spec, &prog, &init, 8);

    for kind in [EngineKind::Naive2, EngineKind::Multi2] {
        let run = |plan| {
            engine::run_mesh(
                kind,
                &spec,
                &prog,
                &init,
                8,
                faulted(plan),
                &mut Tracer::off(),
            )
        };
        let base = run(FaultPlan::none()).unwrap();
        base.assert_matches(&guest.mem, &guest.values);
        for nu in NUS {
            let rep = run(FaultPlan::uniform_slowdown(nu)).unwrap();
            check_envelope(&base, &rep, nu, kind.name());
        }
    }
}

#[test]
fn lossy_and_crashy_runs_stay_functionally_equivalent() {
    let n = 64u64;
    let init = inputs::random_bits(92, n as usize);
    let prog = Eca::rule90();
    let spec = MachineSpec::new(1, n, 8, 1);
    let guest = run_guest::<1>(&spec, &prog, &init, 48);

    // Heavy losses + jitter + random crashes: values must still match
    // guest execution, and the accounting must show the faults happened.
    let plan = FaultPlan::none()
        .seed(0xBAD5EED)
        .jitter(1.0, 3.0)
        .loss(200, 4)
        .random_crashes(30);
    let rep =
        naive::try_simulate_naive::<1>(&spec, &prog, &init, 48, faulted(plan), &mut Tracer::off())
            .unwrap();
    rep.assert_matches(&guest.mem, &guest.values);
    assert!(
        rep.faults.retries > 0,
        "200‰ loss over 48 stages must retry"
    );
    assert!(
        rep.faults.recovered_stages > 0,
        "30‰ crash rate over 48×8 draws must crash"
    );
    assert!(rep.faults.injected_delay > 0.0);

    // And identically so on re-run (stateless hash-derived draws).
    let again =
        naive::try_simulate_naive::<1>(&spec, &prog, &init, 48, faulted(plan), &mut Tracer::off())
            .unwrap();
    assert_eq!(rep.host_time.to_bits(), again.host_time.to_bits());
    assert_eq!(rep.faults, again.faults);
}

#[test]
fn crash_at_specific_stage_charges_recovery_once() {
    let n = 32u64;
    let init = inputs::random_bits(93, n as usize);
    let prog = Eca::rule110();
    let spec = MachineSpec::new(1, n, 4, 1);
    let base = naive::simulate_naive::<1>(&spec, &prog, &init, 16);
    let plan = FaultPlan::none().crash_at(5, 2);
    let rep =
        naive::try_simulate_naive::<1>(&spec, &prog, &init, 16, faulted(plan), &mut Tracer::off())
            .unwrap();
    rep.assert_matches(&base.mem, &base.values);
    assert_eq!(rep.faults.crashes, 1);
    assert_eq!(rep.faults.recovered_stages, 1);
    assert!(
        rep.host_time > base.host_time,
        "recovery re-execution must cost time"
    );
}

#[test]
fn facade_respects_envelope_end_to_end() {
    let init = inputs::random_bits(94, 64);
    let prog = Eca::rule110();
    let base = Simulation::linear(64, 4, 1)
        .strategy(Strategy::TwoRegime)
        .try_run(&prog, &init, 64)
        .unwrap();
    for nu in NUS {
        let rep = Simulation::linear(64, 4, 1)
            .strategy(Strategy::TwoRegime)
            .faults(FaultPlan::uniform_slowdown(nu))
            .try_run(&prog, &init, 64)
            .unwrap();
        check_envelope(&base.sim, &rep.sim, nu, "facade/two-regime");
    }
}

#[test]
fn empty_plan_is_bitwise_neutral_across_engines() {
    let init1 = inputs::random_bits(95, 64);
    let spec1 = MachineSpec::new(1, 64, 4, 1);
    let prog1 = Eca::rule110();
    let plain = naive::simulate_naive::<1>(&spec1, &prog1, &init1, 32);
    let none = FaultPlan::none().seed(95);
    let none = naive::try_simulate_naive::<1>(
        &spec1,
        &prog1,
        &init1,
        32,
        faulted(none),
        &mut Tracer::off(),
    )
    .unwrap();
    assert_eq!(plain.host_time.to_bits(), none.host_time.to_bits());

    let init2 = inputs::random_bits(96, 64);
    let spec2 = MachineSpec::new(2, 64, 4, 1);
    let prog2 = VonNeumannLife::fredkin();
    let plain2 = multi2::simulate_multi2(&spec2, &prog2, &init2, 6);
    let none2 = FaultPlan::none().seed(96);
    let none2 = multi2::try_simulate_multi2(
        &spec2,
        &prog2,
        &init2,
        6,
        faulted(none2),
        &mut Tracer::off(),
    )
    .unwrap();
    assert_eq!(plain2.host_time.to_bits(), none2.host_time.to_bits());
    assert_eq!(plain2.stages, none2.stages);
}

#[test]
fn invalid_plans_are_rejected_not_panicked() {
    let init = inputs::random_bits(97, 64);
    let spec = MachineSpec::new(1, 64, 4, 1);
    let prog = Eca::rule110();
    for bad in [
        FaultPlan::uniform_slowdown(0.5),
        FaultPlan::uniform_slowdown(f64::NAN),
        FaultPlan::none().jitter(3.0, 2.0),
        FaultPlan::none().loss(1_001, 1),
        FaultPlan::none().random_crashes(2_000),
    ] {
        let err = naive::try_simulate_naive::<1>(
            &spec,
            &prog,
            &init,
            8,
            faulted(bad),
            &mut Tracer::off(),
        );
        assert!(
            matches!(err, Err(bsmp::SimError::Fault(_))),
            "plan {bad:?} must be rejected"
        );
    }
}

/// Parity3d with a second (unused) private cell: a volume program of
/// the wrong density for the `m = 1` volume engines.
struct TwoCellVolume;

impl bsmp::machine::VolumeProgram for TwoCellVolume {
    fn m(&self) -> usize {
        2
    }

    fn delta(
        &self,
        x: usize,
        y: usize,
        z: usize,
        t: i64,
        own: bsmp::Word,
        prev: bsmp::Word,
        nb: [bsmp::Word; 6],
    ) -> bsmp::Word {
        bsmp::workloads::Parity3d.delta(x, y, z, t, own, prev, nb)
    }
}

/// Every engine refuses each malformed input with the same typed
/// `SimError`: a spec of the wrong dimension, a program of the wrong
/// density, a short initial image and, where they apply, an indivisible
/// `p` or mesh side, `p > 1` on a uniprocessor engine, or `m > 1` on a
/// volume engine.
#[test]
fn malformed_inputs_get_the_same_typed_error_on_every_engine() {
    use bsmp::machine::VolumeProgram;
    use bsmp::SimError::*;
    use bsmp::{SimError, Word};

    let off = &mut Tracer::off();
    let opts = RunOpts::default();
    let (eca, wave2) = (Eca::rule90(), bsmp::workloads::CyclicWave::new(2));
    let life = VonNeumannLife::fredkin();
    let bits = |len: usize| inputs::random_bits(98, len);
    for kind in EngineKind::ALL {
        let uni = kind.uniprocessor();
        let p = if uni { 1 } else { 4 };
        let mut cases: Vec<(&str, Result<SimReport, SimError>, SimError)> = Vec::new();
        let dim = |got| DimensionMismatch {
            expected: kind.d(),
            got,
        };
        match kind.d() {
            1 => {
                // `two` picks the two-cell program over the one-cell one.
                let run = |spec: &MachineSpec, two: bool, init: &[Word]| {
                    let off = &mut Tracer::off();
                    if two {
                        engine::run_linear(kind, spec, &wave2, init, 8, opts, off)
                    } else {
                        engine::run_linear(kind, spec, &eca, init, 8, opts, off)
                    }
                };
                let spec = MachineSpec::new(1, 64, p, 1);
                let (one, two) = (false, true);
                cases.push((
                    "dimension",
                    run(&MachineSpec::new(2, 64, p, 1), one, &bits(64)),
                    dim(2),
                ));
                cases.push((
                    "density",
                    run(&spec, two, &bits(128)),
                    DensityMismatch {
                        spec_m: 1,
                        prog_m: 2,
                    },
                ));
                cases.push((
                    "init",
                    run(&spec, one, &bits(63)),
                    InitLength {
                        expected: 64,
                        got: 63,
                    },
                ));
                let spec3 = MachineSpec::new(1, 64, 3, 1);
                match kind {
                    EngineKind::Naive1 | EngineKind::Pipelined1 => cases.push((
                        "indivisible p",
                        run(&spec3, one, &bits(64)),
                        IndivisibleProcessors { n: 64, p: 3 },
                    )),
                    EngineKind::Multi1 => cases.push((
                        "indivisible p",
                        run(&spec3, one, &bits(64)),
                        NoAdmissibleStrip { n: 64, m: 1, p: 3 },
                    )),
                    _ => cases.push((
                        "p > 1",
                        run(&MachineSpec::new(1, 64, 4, 1), one, &bits(64)),
                        UniprocessorOnly {
                            engine: kind.name(),
                            p: 4,
                        },
                    )),
                }
            }
            2 => {
                let spec = MachineSpec::new(2, 64, p, 1);
                let run = |spec: &MachineSpec, init: &[Word]| {
                    engine::run_mesh(kind, spec, &life, init, 4, opts, &mut Tracer::off())
                };
                cases.push((
                    "dimension",
                    run(&MachineSpec::new(1, 64, p, 1), &bits(64)),
                    dim(1),
                ));
                cases.push((
                    "density",
                    run(&MachineSpec::new(2, 64, p, 2), &bits(64)),
                    DensityMismatch {
                        spec_m: 2,
                        prog_m: 1,
                    },
                ));
                cases.push((
                    "init",
                    run(&spec, &bits(63)),
                    InitLength {
                        expected: 64,
                        got: 63,
                    },
                ));
                if uni {
                    cases.push((
                        "p > 1",
                        run(&MachineSpec::new(2, 64, 4, 1), &bits(64)),
                        UniprocessorOnly {
                            engine: kind.name(),
                            p: 4,
                        },
                    ));
                } else {
                    cases.push((
                        "indivisible mesh side",
                        run(&MachineSpec::new(2, 36, 16, 1), &bits(36)),
                        IndivisibleMeshSide {
                            side: 6,
                            proc_side: 4,
                        },
                    ));
                }
            }
            _ => {
                let parity = bsmp::workloads::Parity3d;
                assert_eq!(parity.m(), 1);
                let cube = MachineSpec::new(3, 27, 1, 1);
                cases.push((
                    "dimension",
                    engine::run_linear(
                        kind,
                        &MachineSpec::new(1, 27, 1, 1),
                        &eca,
                        &bits(27),
                        3,
                        opts,
                        off,
                    ),
                    DimensionMismatch {
                        expected: 3,
                        got: 1,
                    },
                ));
                cases.push((
                    "volume engine on a mesh spec",
                    engine::run_volume(
                        kind,
                        &MachineSpec::new(2, 64, 1, 1),
                        &parity,
                        &bits(64),
                        3,
                        opts,
                        off,
                    ),
                    dim(2),
                ));
                cases.push((
                    "density",
                    engine::run_volume(kind, &cube, &TwoCellVolume, &bits(54), 3, opts, off),
                    DensityMismatch {
                        spec_m: 1,
                        prog_m: 2,
                    },
                ));
                cases.push((
                    "m > 1",
                    engine::run_volume(
                        kind,
                        &MachineSpec::new(3, 27, 1, 2),
                        &TwoCellVolume,
                        &bits(54),
                        3,
                        opts,
                        off,
                    ),
                    UnitDensityOnly {
                        engine: kind.name(),
                        m: 2,
                    },
                ));
                cases.push((
                    "p > 1",
                    engine::run_volume(
                        kind,
                        &MachineSpec::new(3, 64, 8, 1),
                        &parity,
                        &bits(64),
                        3,
                        opts,
                        off,
                    ),
                    UniprocessorOnly {
                        engine: kind.name(),
                        p: 8,
                    },
                ));
                cases.push((
                    "init",
                    engine::run_volume(kind, &cube, &parity, &bits(26), 3, opts, off),
                    InitLength {
                        expected: 27,
                        got: 26,
                    },
                ));
            }
        }
        for (what, got, want) in cases {
            match got {
                Err(e) => assert_eq!(e, want, "{}: {what}", kind.name()),
                Ok(_) => panic!("{}: {what} must be refused", kind.name()),
            }
        }
    }
}
