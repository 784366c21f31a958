//! Cross-crate integration: every simulation engine must compute exactly
//! what direct guest execution computes, across workloads, machine
//! shapes, densities and processor counts.

use bsmp::machine::{run_guest, MachineSpec};
use bsmp::sim::{
    dnc::simulate_dnc, multi1::simulate_multi1, multi2::simulate_multi2, naive::simulate_naive,
};
use bsmp::workloads::{
    inputs, CyclicWave, Eca, FirPipeline, OddEvenSort, SystolicMatmul, VonNeumannLife,
};
use bsmp::{LinearProgram, MeshProgram};

fn check1(prog: &impl LinearProgram, n: u64, steps: i64, seed: u64) {
    let m = prog.m() as u64;
    let init = inputs::random_words(seed, (n * m) as usize, 64);
    let uni = MachineSpec::new(1, n, 1, m);
    let guest = run_guest::<1>(&uni, prog, &init, steps);

    simulate_naive::<1>(&uni, prog, &init, steps).assert_matches(&guest.mem, &guest.values);
    simulate_dnc::<1>(&uni, prog, &init, steps).assert_matches(&guest.mem, &guest.values);
    for p in [2u64, 4] {
        if !n.is_multiple_of(p) {
            continue;
        }
        let spec = MachineSpec::new(1, n, p, m);
        simulate_naive::<1>(&spec, prog, &init, steps).assert_matches(&guest.mem, &guest.values);
        if bsmp::sim::multi1::engine_strip(n, m, p).is_some() {
            simulate_multi1(&spec, prog, &init, steps).assert_matches(&guest.mem, &guest.values);
        }
    }
}

fn check2(prog: &impl MeshProgram, n: u64, steps: i64, seed: u64) {
    let m = prog.m() as u64;
    let init = inputs::random_words(seed, (n * m) as usize, 2);
    check2_init(prog, n, steps, &init);
}

fn check2_init(prog: &impl MeshProgram, n: u64, steps: i64, init: &[u64]) {
    let m = prog.m() as u64;
    let uni = MachineSpec::new(2, n, 1, m);
    let guest = run_guest::<2>(&uni, prog, init, steps);

    simulate_naive::<2>(&uni, prog, init, steps).assert_matches(&guest.mem, &guest.values);
    simulate_dnc::<2>(&uni, prog, init, steps).assert_matches(&guest.mem, &guest.values);
    {
        let p = 4u64;
        let spec = MachineSpec::new(2, n, p, m);
        simulate_naive::<2>(&spec, prog, init, steps).assert_matches(&guest.mem, &guest.values);
        simulate_multi2(&spec, prog, init, steps).assert_matches(&guest.mem, &guest.values);
    }
}

#[test]
fn all_engines_agree_on_rule110() {
    check1(&Eca::rule110(), 32, 32, 1);
}

#[test]
fn all_engines_agree_on_rule90() {
    check1(&Eca::rule90(), 64, 24, 2);
}

#[test]
fn all_engines_agree_on_sorting() {
    check1(&OddEvenSort::new(32), 32, 32, 3);
}

#[test]
fn all_engines_agree_on_multicell_wave() {
    check1(&CyclicWave::new(3), 16, 18, 4);
    check1(&CyclicWave::new(8), 16, 12, 5);
}

#[test]
fn all_engines_agree_on_awkward_sizes() {
    // Odd n, T not a power of two, T ≠ n.
    check1(&Eca::rule110(), 13, 7, 6);
    check1(&Eca::rule110(), 24, 50, 7);
}

#[test]
fn all_engines_agree_on_fir_pipeline() {
    // Read-mostly m > 1 workload: coefficients persist across cell reuse.
    let prog = FirPipeline::new(3, (0..40).map(|i| (i * 13 % 100) + 1).collect());
    let n = 16u64;
    let init = prog.coefficients(n as usize);
    let uni = MachineSpec::new(1, n, 1, 3);
    let guest = run_guest::<1>(&uni, &prog, &init, 24);
    simulate_naive::<1>(&uni, &prog, &init, 24).assert_matches(&guest.mem, &guest.values);
    simulate_dnc::<1>(&uni, &prog, &init, 24).assert_matches(&guest.mem, &guest.values);
    let spec4 = MachineSpec::new(1, n, 4, 3);
    simulate_multi1(&spec4, &prog, &init, 24).assert_matches(&guest.mem, &guest.values);
    // Outputs agree with the workload's own oracle too.
    let oracle = prog.oracle(n as usize, 24);
    for (val, exp) in guest.values.iter().zip(&oracle) {
        assert_eq!(bsmp::workloads::fir::sample_of(*val), exp.0);
        assert_eq!(bsmp::workloads::fir::acc_of(*val), exp.1);
    }
}

#[test]
fn all_engines_agree_on_life() {
    check2(&VonNeumannLife::fredkin(), 64, 9, 8);
    check2(&VonNeumannLife::b2s12(), 64, 6, 9);
}

#[test]
fn all_engines_agree_on_systolic_matmul() {
    let side = 4usize;
    let prog = SystolicMatmul::new(side);
    let a = inputs::random_matrix(10, side, 64);
    let b = inputs::random_matrix(11, side, 64);
    let init = prog.stage_inputs(&a, &b);
    check2_init(&prog, (side * side) as u64, prog.steps(), &init);
}

#[test]
fn cost_model_never_changes_answers() {
    // The instantaneous model must produce identical values.
    let init = inputs::random_bits(12, 32);
    let b = MachineSpec::new(1, 32, 4, 1);
    let i = MachineSpec::instantaneous(1, 32, 4, 1);
    let rb = simulate_naive::<1>(&b, &Eca::rule110(), &init, 32);
    let ri = simulate_naive::<1>(&i, &Eca::rule110(), &init, 32);
    assert_eq!(rb.values, ri.values);
    assert_eq!(rb.mem, ri.mem);
    assert!(ri.host_time < rb.host_time);
}
