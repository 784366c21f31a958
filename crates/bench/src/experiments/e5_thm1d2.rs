//! **E5 — Theorem 1, d = 2**: the multiprocessor mesh simulation:
//! processor and density sweeps against the four-range analytic `A`.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::analytic::locality_slowdown;
use bsmp::machine::MachineSpec;
use bsmp::sim::{multi2::simulate_multi2, naive::simulate_naive};
use bsmp::workloads::{inputs, VonNeumannLife};

pub fn run(scale: Scale) -> Vec<Table> {
    let (sides, ps): (&[u64], &[u64]) = match scale {
        Scale::Quick => (&[16, 32], &[4]),
        Scale::Full => (&[16, 32, 64], &[4, 16]),
    };
    let mut t = Table::new(
        "E5 / Theorem 1 d=2 — block-banded multiprocessor mesh simulation (m = 1, T = √n/2)",
        &[
            "√n",
            "p",
            "A two-regime",
            "A naive",
            "A analytic",
            "naive/two-regime",
        ],
    );
    for &p in ps {
        for &side in sides {
            let n = side * side;
            let sp = (p as f64).sqrt() as u64;
            if side / sp < 4 {
                continue;
            }
            let init = inputs::random_bits(side + p, n as usize);
            let spec = MachineSpec::new(2, n, p, 1);
            let steps = (side / 2) as i64;
            let two = simulate_multi2(&spec, &VonNeumannLife::fredkin(), &init, steps);
            let nv = simulate_naive::<2>(&spec, &VonNeumannLife::fredkin(), &init, steps);
            let (a2, an) = (two.locality_slowdown(n, p), nv.locality_slowdown(n, p));
            t.row(vec![
                side.to_string(),
                p.to_string(),
                fnum(a2),
                fnum(an),
                fnum(locality_slowdown(2, n as f64, 1.0, p as f64)),
                fnum(an / a2),
            ]);
        }
    }
    t.note(
        "The engine is the block-banded generalization of Figure 2 (the full \
         rearranged d=2 orchestration lives in the unpublished TR [BP95a]); \
         it reproduces the Theorem-1 d=2 shape for m ≥ (n/p)^{1/4} and the \
         growth-rate separation from naive everywhere.",
    );
    vec![t]
}
