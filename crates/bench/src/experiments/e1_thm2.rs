//! **E1 — Theorem 2**: `M_1(n, n, 1)` on `M_1(n, 1, 1)`: measured
//! slowdown vs `n·log n`, against the naive `Θ(n²)`.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::analytic::{bounds, logp2};
use bsmp::machine::MachineSpec;
use bsmp::sim::{dnc::simulate_dnc, naive::simulate_naive};
use bsmp::workloads::{inputs, Eca};

pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: &[u64] = match scale {
        Scale::Quick => &[64, 128, 256],
        Scale::Full => &[64, 128, 256, 512, 1024],
    };
    let mut t = Table::new(
        "E1 / Theorem 2 — uniprocessor D&C simulation of an n-node CA (T = n, rule 110)",
        &[
            "n",
            "slowdown D&C",
            "/ (n·log n)",
            "slowdown naive",
            "/ n²",
            "D&C wins?",
        ],
    );
    for &n in sizes {
        let init = inputs::random_bits(n, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        let d = simulate_dnc::<1>(&spec, &Eca::rule110(), &init, n as i64);
        let v = simulate_naive::<1>(&spec, &Eca::rule110(), &init, n as i64);
        let nf = n as f64;
        t.row(vec![
            n.to_string(),
            fnum(d.slowdown()),
            fnum(d.slowdown() / (nf * logp2(nf))),
            fnum(v.slowdown()),
            fnum(v.slowdown() / (nf * nf)),
            if d.host_time < v.host_time {
                "yes".into()
            } else {
                "not yet".into()
            },
        ]);
    }
    t.note(format!(
        "Paper: T1/Tn = O(n log n) (Thm 2) vs O(n^2) naive (Prop 1). The \
         normalized columns must be ~constant; the crossover sits near \
         n≈300 with this implementation's constants (Prop 3's τ0 ≈ {:.0}).",
        4.0 * 4.0 * 1.0 * 8.0 * 2f64.sqrt() / 1.0
    ));
    t.note(format!(
        "Analytic curves: n log n at n=256 is {}, naive bound n² is {}.",
        fnum(bounds::thm2_slowdown(256.0)),
        fnum(bounds::prop1_naive_uniprocessor(1, 256.0))
    ));
    vec![t]
}
