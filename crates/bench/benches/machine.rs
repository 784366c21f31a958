//! Wall-clock benchmarks of direct guest execution (the reference
//! semantics every engine is validated against).

use std::hint::black_box;

use bsmp::machine::{run_guest, MachineSpec};
use bsmp::workloads::{inputs, Eca, SystolicMatmul, VonNeumannLife};
use bsmp_bench::timing::bench;

fn main() {
    {
        let n = 256u64;
        let spec = MachineSpec::new(1, n, n, 1);
        let init = inputs::random_bits(1, n as usize);
        bench("machine/guest_rule110_256x256", 20, || {
            black_box(
                run_guest::<1>(&spec, &Eca::rule110(), &init, 256)
                    .values
                    .len(),
            )
        });
    }

    {
        let spec = MachineSpec::new(2, 1024, 1024, 1);
        let init = inputs::random_bits(2, 1024);
        bench("machine/guest_life_32x32x32", 20, || {
            black_box(
                run_guest::<2>(&spec, &VonNeumannLife::fredkin(), &init, 32)
                    .values
                    .len(),
            )
        });
    }

    {
        let side = 16usize;
        let prog = SystolicMatmul::new(side);
        let a = inputs::random_matrix(3, side, 100);
        let bm = inputs::random_matrix(4, side, 100);
        let init = prog.stage_inputs(&a, &bm);
        let spec = MachineSpec::new(
            2,
            (side * side) as u64,
            (side * side) as u64,
            (side + 1) as u64,
        );
        bench("machine/guest_systolic_matmul_16", 10, || {
            black_box(
                run_guest::<2>(&spec, &prog, &init, prog.steps())
                    .values
                    .len(),
            )
        });
    }
}
