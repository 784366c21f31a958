//! Bitwise meter fingerprints for every engine — hex `f64::to_bits` of
//! each cost component over a deterministic config matrix.
//!
//! Two checkouts producing identical fingerprints are bit-identical at
//! the model level (host-side refactors proven harmless).  Like
//! `points_table`, the file is self-contained so it can be dropped into
//! an older checkout and diffed:
//!
//! ```text
//! cargo run --release -p bsmp-bench --bin meter_fingerprint > new.txt
//! (in the old tree) ... > old.txt && diff old.txt new.txt
//! ```

use bsmp::machine::MachineSpec;
use bsmp::sim::{
    dnc1::simulate_dnc1, dnc2::simulate_dnc2, multi1::simulate_multi1, naive1::simulate_naive1,
    naive2::simulate_naive2, pipelined1::simulate_pipelined1, SimReport,
};
use bsmp::workloads::{inputs, Eca, FirPipeline, VonNeumannLife};

fn row(name: &str, r: &SimReport) {
    let m = &r.meter;
    println!(
        "{name:<28} access={:016x} compute={:016x} transfer={:016x} comm={:016x} ops={} values={:016x}",
        m.access.to_bits(),
        m.compute.to_bits(),
        m.transfer.to_bits(),
        m.comm.to_bits(),
        m.ops,
        r.values
            .iter()
            .fold(0u64, |h, w| h.rotate_left(7) ^ w.wrapping_mul(0x9e3779b97f4a7c15)),
    );
}

fn main() {
    for (n, p, t) in [(64u64, 4u64, 32i64), (256, 8, 64), (1024, 16, 64)] {
        let init = inputs::random_bits(17, n as usize);
        let spec = MachineSpec::new(1, n, p, 1);
        row(
            &format!("naive1_n{n}_p{p}_m1_T{t}"),
            &simulate_naive1(&spec, &Eca::rule110(), &init, t),
        );
        row(
            &format!("multi1_n{n}_p{p}_m1_T{t}"),
            &simulate_multi1(&spec, &Eca::rule110(), &init, t),
        );
        row(
            &format!("pipelined1_n{n}_p{p}_m1_T{t}"),
            &simulate_pipelined1(&spec, &Eca::rule110(), &init, t),
        );
        if p == 4 {
            let uni = MachineSpec::new(1, n, 1, 1);
            row(
                &format!("dnc1_n{n}_m1_T{t}"),
                &simulate_dnc1(&uni, &Eca::rule110(), &init, t),
            );
        }
    }
    // m > 1 (non-power-of-two density: exercises the reciprocal-exact
    // chain mode and execd's pillar-state staging at D = 1).
    {
        let (n, p, m, t) = (128u64, 4u64, 3usize, 32i64);
        let prog = FirPipeline::new(m, (0..n).map(|i| (i * 7 + 1) % 1024).collect());
        let init = inputs::random_bits(23, n as usize * m);
        let spec = MachineSpec::new(1, n, p, m as u64);
        row(
            &format!("naive1_n{n}_p{p}_m{m}_T{t}"),
            &simulate_naive1(&spec, &prog, &init, t),
        );
        row(
            &format!("multi1_n{n}_p{p}_m{m}_T{t}"),
            &simulate_multi1(&spec, &prog, &init, t),
        );
    }
    for (side, p, t) in [(16u64, 16u64, 16i64), (32, 4, 32)] {
        let n = side * side;
        let init = inputs::random_bits(19, n as usize);
        let spec = MachineSpec::new(2, n, p, 1);
        row(
            &format!("naive2_{side}x{side}_p{p}_T{t}"),
            &simulate_naive2(&spec, &VonNeumannLife::fredkin(), &init, t),
        );
        if side == 16 {
            let uni = MachineSpec::new(2, n, 1, 1);
            row(
                &format!("dnc2_{side}x{side}_T{t}"),
                &simulate_dnc2(&uni, &VonNeumannLife::fredkin(), &init, t),
            );
        }
    }
}
