//! Wall-clock benchmarks of the simulation engines themselves — how fast
//! the *instrumented model* runs on the host CPU (model time is what the
//! E-experiments report; this is implementation throughput).

use std::hint::black_box;

use bsmp::machine::MachineSpec;
use bsmp::sim::{dnc::simulate_dnc, multi1::simulate_multi1, naive::simulate_naive};
use bsmp::workloads::{inputs, Eca, VonNeumannLife};
use bsmp_bench::timing::bench;

fn main() {
    let n = 128u64;
    let init = inputs::random_bits(1, n as usize);

    {
        let spec = MachineSpec::new(1, n, 1, 1);
        bench("engines/naive1_n128_T128", 10, || {
            black_box(simulate_naive::<1>(&spec, &Eca::rule110(), &init, n as i64).host_time)
        });
        bench("engines/dnc1_n128_T128", 10, || {
            black_box(simulate_dnc::<1>(&spec, &Eca::rule110(), &init, n as i64).host_time)
        });
    }

    {
        let spec = MachineSpec::new(1, n, 4, 1);
        bench("engines/multi1_n128_p4_T128", 10, || {
            black_box(simulate_multi1(&spec, &Eca::rule110(), &init, n as i64).host_time)
        });
    }

    {
        let spec = MachineSpec::new(2, 256, 1, 1);
        let init2 = inputs::random_bits(2, 256);
        bench("engines/dnc2_16x16_T16", 10, || {
            black_box(simulate_dnc::<2>(&spec, &VonNeumannLife::fredkin(), &init2, 16).host_time)
        });
    }
}
