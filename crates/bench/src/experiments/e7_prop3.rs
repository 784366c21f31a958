//! **E7 — Propositions 2–3**: measured space/time of the separator
//! executors against the closed forms `σ(k) = σ₀·k^γ`,
//! `τ(k) = τ₀·k·log k`.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::analytic::logp2;
use bsmp::dag::separator::{iterate_recurrence, SeparatorSpec, SpaceTimeBounds};
use bsmp::machine::MachineSpec;
use bsmp::sim::dnc::simulate_dnc;
use bsmp::workloads::{inputs, Eca, VonNeumannLife};

pub fn run(scale: Scale) -> Vec<Table> {
    // d = 1: γ = 1/2, α = 1.
    let sizes: &[u64] = match scale {
        Scale::Quick => &[64, 128, 256],
        Scale::Full => &[64, 128, 256, 512, 1024],
    };
    let mut t1 = Table::new(
        "E7a / Propositions 2–3, d=1 — measured σ and τ of the diamond executor (k = |V| = n²)",
        &[
            "n",
            "k",
            "space meas.",
            "σ/√k (→σ₀)",
            "time meas.",
            "τ/(k·log k) (→τ₀)",
        ],
    );
    for &n in sizes {
        let init = inputs::random_bits(n, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        let r = simulate_dnc::<1>(&spec, &Eca::rule90(), &init, n as i64);
        let k = (n * n) as f64;
        t1.row(vec![
            n.to_string(),
            fnum(k),
            r.space.to_string(),
            fnum(r.space as f64 / k.sqrt()),
            fnum(r.host_time),
            fnum(r.host_time / (k * logp2(k))),
        ]);
    }
    let spec1 = SeparatorSpec::diamond();
    let b1 = SpaceTimeBounds::from_spec(&spec1, 1.0, 1.0);
    let (rs, rt) = iterate_recurrence(&spec1, 1.0, 1.0, 65536.0);
    t1.note(format!(
        "Proposition 3 closed forms for the (2√(2x), 1/4)-separator: σ₀ = {:.1}, \
         τ₀ = {:.1}; numeric recurrence at k = 65536 gives σ = {}, τ = {}. \
         The measured per-√k and per-(k·log k) columns must be ~constant.",
        b1.sigma0,
        b1.tau0,
        fnum(rs),
        fnum(rt)
    ));

    // d = 2: γ = 2/3, α = 1/2.
    let sides: &[u64] = match scale {
        Scale::Quick => &[8, 16],
        Scale::Full => &[8, 16, 32],
    };
    let mut t2 = Table::new(
        "E7b / Propositions 2–3, d=2 — measured σ of the octa/tetra executor (k = n^{3/2})",
        &["√n", "k", "space meas.", "σ/k^{2/3} (→σ₀)"],
    );
    for &side in sides {
        let n = side * side;
        let init = inputs::random_bits(side, n as usize);
        let spec = MachineSpec::new(2, n, 1, 1);
        let r = simulate_dnc::<2>(&spec, &VonNeumannLife::fredkin(), &init, side as i64);
        let k = (n * side) as f64;
        t2.row(vec![
            side.to_string(),
            fnum(k),
            r.space.to_string(),
            fnum(r.space as f64 / k.powf(2.0 / 3.0)),
        ]);
    }
    t2.note("γ = 2/3 for the Theorem-5 separator: space grows with the dag's *surface*.");
    vec![t1, t2]
}
