//! The introduction's motivating example (experiment E6): multiplying
//! two `√n × √n` matrices on a mesh vs. on one processor.
//!
//! Under instantaneous propagation the mesh's speedup is `Θ(n)` — linear
//! in the processor count, per the Fundamental Principle.  Under bounded
//! speed the uniprocessor's memory accesses pay their distance, and the
//! speedup becomes **superlinear**: `Θ(n^{3/2})` against the
//! straightforward serial implementation, `Θ(n·log n)` against the
//! blocked one [AACS87].
//!
//! ```sh
//! cargo run --release --example matmul_speedup
//! ```

use bsmp::analytic::matmul;
use bsmp::machine::{run_guest, MachineSpec};
use bsmp::sim::{dnc::simulate_dnc, naive::simulate_naive};
use bsmp::workloads::{inputs, SystolicMatmul};

fn main() {
    println!("Analytic model (Section 1):\n");
    println!(
        "{:>8} {:>12} {:>14} {:>16} {:>12}",
        "n", "mesh T", "speedup naive", "speedup blocked", "classical"
    );
    for n in [256.0, 1024.0, 4096.0, 16384.0, 65536.0] {
        println!(
            "{:>8} {:>12.0} {:>14.0} {:>16.0} {:>12.0}",
            n,
            matmul::mesh_time(n),
            matmul::speedup_over_naive(n),
            matmul::speedup_over_blocked(n),
            matmul::speedup_instantaneous(n),
        );
    }

    // Measured: run the systolic matmul as a real workload and compare a
    // p = n mesh (the guest itself) against uniprocessor simulations.
    let side = 8usize;
    let n = (side * side) as u64;
    let prog = SystolicMatmul::new(side);
    let a = inputs::random_matrix(1, side, 100);
    let b = inputs::random_matrix(2, side, 100);
    let init = prog.stage_inputs(&a, &b);
    let m = (side + 1) as u64;
    let spec = MachineSpec::new(2, n, 1, m);

    let guest = run_guest::<2>(&spec, &prog, &init, prog.steps());
    let naive = simulate_naive::<2>(&spec, &prog, &init, prog.steps());
    let dnc = simulate_dnc::<2>(&spec, &prog, &init, prog.steps());
    naive.assert_matches(&guest.mem, &guest.values);
    dnc.assert_matches(&guest.mem, &guest.values);

    println!("\nMeasured, {side}×{side} matrices on the executable model:");
    println!("  mesh (p = n):            T_n = {:>12.0}", guest.time);
    println!(
        "  uniprocessor, naive:     T_1 = {:>12.0}   speedup {:>8.0}x",
        naive.host_time,
        naive.host_time / guest.time
    );
    println!(
        "  uniprocessor, blocked:   T_1 = {:>12.0}   speedup {:>8.0}x",
        dnc.host_time,
        dnc.host_time / guest.time
    );
    println!("\nBoth speedups exceed the classical cap p = n = {n}: parallelism");
    println!("and locality compound under bounded-speed propagation.");
}
