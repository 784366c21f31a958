//! **E4 — Theorem 5**: `M_2(n, n, 1)` on `M_2(n, 1, 1)`: measured
//! slowdown vs `n·log n`, against the naive `Θ(n^{3/2})`.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::analytic::logp2;
use bsmp::machine::MachineSpec;
use bsmp::sim::{dnc::simulate_dnc, naive::simulate_naive};
use bsmp::workloads::{inputs, VonNeumannLife};

pub fn run(scale: Scale) -> Vec<Table> {
    let sides: &[u64] = match scale {
        Scale::Quick => &[8, 16],
        Scale::Full => &[8, 16, 32],
    };
    let mut t = Table::new(
        "E4 / Theorem 5 — uniprocessor D&C simulation of a √n×√n mesh CA (T = √n, Fredkin rule)",
        &[
            "√n",
            "n",
            "slowdown D&C",
            "/ (n·log n)",
            "slowdown naive",
            "/ n^1.5",
        ],
    );
    for &side in sides {
        let n = side * side;
        let init = inputs::random_bits(side, n as usize);
        let spec = MachineSpec::new(2, n, 1, 1);
        let d = simulate_dnc::<2>(&spec, &VonNeumannLife::fredkin(), &init, side as i64);
        let v = simulate_naive::<2>(&spec, &VonNeumannLife::fredkin(), &init, side as i64);
        let nf = n as f64;
        t.row(vec![
            side.to_string(),
            n.to_string(),
            fnum(d.slowdown()),
            fnum(d.slowdown() / (nf * logp2(nf))),
            fnum(v.slowdown()),
            fnum(v.slowdown() / nf.powf(1.5)),
        ]);
    }
    t.note(
        "Paper: T1/Tn = O(n log n) via the octahedron/tetrahedron separator \
         (Figure 3) vs O(n^{3/2}) naive. The normalized columns should be \
         ~constant across sizes; D&C's relative position improves with n.",
    );
    vec![t]
}
