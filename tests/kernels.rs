//! Bit-identity of the tiled/table kernels against the scalar reference
//! loops (PR 7).  The tiled paths must reproduce the per-point engines
//! to `f64::to_bits` on every model quantity — including under active
//! fault plans, tracing, and any host-thread count.

use bsmp::machine::{ExecPolicy, MachineSpec};
use bsmp::sim::{dnc3, naive1, naive2};
use bsmp::trace::Tracer;
use bsmp::workloads::{inputs, CyclicWave, Eca, Parity3d, VonNeumannLife};
use bsmp::{FaultPlan, RunOpts, SimReport};

/// Every field bit-compared; `table_hits` is exempt by design (the
/// scalar reference reports 0 there).
fn assert_bit_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.mem, b.mem, "{what}: mem");
    assert_eq!(a.values, b.values, "{what}: values");
    assert_eq!(
        a.host_time.to_bits(),
        b.host_time.to_bits(),
        "{what}: host_time {} vs {}",
        a.host_time,
        b.host_time
    );
    assert_eq!(
        a.guest_time.to_bits(),
        b.guest_time.to_bits(),
        "{what}: guest_time"
    );
    for (x, y, f) in [
        (a.meter.compute, b.meter.compute, "compute"),
        (a.meter.access, b.meter.access, "access"),
        (a.meter.transfer, b.meter.transfer, "transfer"),
        (a.meter.comm, b.meter.comm, "comm"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: meter.{f} {x} vs {y}");
    }
    assert_eq!(a.meter.ops, b.meter.ops, "{what}: meter.ops");
    assert_eq!(a.space, b.space, "{what}: space");
    assert_eq!(a.stages, b.stages, "{what}: stages");
}

fn storm_plan() -> FaultPlan {
    FaultPlan::uniform_slowdown(2.0).seed(4242).jitter(1.0, 2.0)
}

#[test]
fn naive1_tiled_matches_scalar_bitwise() {
    // Densities spanning the exact-dyadic regime (m = 1, 4), the chain
    // regime (m = 3), and sizes spanning the pool gate.
    let cases: &[(usize, usize, u64, i64)] = &[
        (1, 64, 1, 64),
        (1, 64, 8, 64),
        (1, 2048, 4, 24), // q = 512 ≥ 256: pool-gated size
        (4, 96, 4, 40),
        (3, 96, 4, 40),  // non-pow2 m: chain mode
        (1, 33, 11, 12), // q = 3: smallest tiled block
    ];
    for &(m, n, p, steps) in cases {
        let spec = MachineSpec::new(1, n as u64, p, m as u64);
        let init = inputs::random_words(7, n * m, 97);
        let prog = CyclicWave::new(m);
        for threads in [1usize, 2, 8] {
            let exec = ExecPolicy::threads(threads);
            for plan in [FaultPlan::none(), storm_plan()] {
                let what = format!("naive1 m={m} n={n} p={p} threads={threads}");
                let tiled = naive1::try_simulate_naive1(
                    &spec,
                    &prog,
                    &init,
                    steps,
                    RunOpts {
                        plan,
                        exec,
                        ..RunOpts::default()
                    },
                    &mut Tracer::off(),
                )
                .unwrap();
                let scalar = naive1::try_simulate_naive1_scalar(
                    &spec,
                    &prog,
                    &init,
                    steps,
                    RunOpts {
                        plan,
                        exec,
                        ..RunOpts::default()
                    },
                    &mut Tracer::off(),
                )
                .unwrap();
                assert_bit_identical(&tiled, &scalar, &what);
                assert_eq!(scalar.meter.table_hits, 0, "{what}: scalar used tables");
                if n / p as usize >= 3 {
                    assert!(tiled.meter.table_hits > 0, "{what}: tiled path not taken");
                }
            }
        }
    }
}

#[test]
fn naive1_exact_mode_engages_for_dyadic_density() {
    // m = 1 (exact) and m = 3 (chain) must both report table hits from
    // the tiled path, and both match the scalar loop (covered above);
    // here we pin that the exact-dyadic path is actually exercised at a
    // pow2 density by checking hit counts equal the access op count.
    let (n, p, steps) = (256usize, 4u64, 32i64);
    let spec = MachineSpec::new(1, n as u64, p, 1);
    let init = inputs::random_bits(3, n);
    let rep = naive1::simulate_naive1(&spec, &Eca::rule110(), &init, steps);
    assert_eq!(
        rep.meter.table_hits, rep.meter.ops,
        "all accesses table-served"
    );
}

#[test]
fn naive2_tiled_matches_scalar_bitwise() {
    let cases: &[(u64, u64, i64)] = &[(8, 1, 8), (8, 4, 8), (16, 16, 16), (32, 4, 10)];
    for &(side, p, steps) in cases {
        let n = side * side;
        let spec = MachineSpec::new(2, n, p, 1);
        let init = inputs::random_bits(11, n as usize);
        let prog = VonNeumannLife::b2s12();
        for threads in [1usize, 2, 8] {
            let exec = ExecPolicy::threads(threads);
            for plan in [FaultPlan::none(), storm_plan()] {
                let what = format!("naive2 side={side} p={p} threads={threads}");
                let tiled = naive2::try_simulate_naive2(
                    &spec,
                    &prog,
                    &init,
                    steps,
                    RunOpts {
                        plan,
                        exec,
                        ..RunOpts::default()
                    },
                    &mut Tracer::off(),
                )
                .unwrap();
                let scalar = naive2::try_simulate_naive2_scalar(
                    &spec,
                    &prog,
                    &init,
                    steps,
                    RunOpts {
                        plan,
                        exec,
                        ..RunOpts::default()
                    },
                    &mut Tracer::off(),
                )
                .unwrap();
                assert_bit_identical(&tiled, &scalar, &what);
                assert_eq!(scalar.meter.table_hits, 0, "{what}: scalar used tables");
            }
        }
    }
}

#[test]
fn naive3_tiled_matches_scalar_bitwise() {
    for side in [4i64, 6, 8] {
        let n = (side * side * side) as usize;
        let init = inputs::random_bits(13, n);
        let steps = side;
        let tiled = dnc3::simulate_naive3(side as usize, &Parity3d, &init, steps);
        let scalar =
            dnc3::try_simulate_naive3_scalar(side as usize, &Parity3d, &init, steps).unwrap();
        assert_bit_identical(&tiled, &scalar, &format!("naive3 side={side}"));
        assert_eq!(scalar.meter.table_hits, 0, "naive3 scalar used tables");
        assert!(tiled.meter.table_hits > 0, "naive3 tiled path not taken");
    }
}
