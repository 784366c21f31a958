//! **E12 — ablations of the design choices** DESIGN.md calls out:
//!
//! * the executable-diamond size (Theorem 3 stops the recursion at
//!   `D(m)`; what happens for other leaf radii?);
//! * the leaf size for `m = 1` (Theorem 2 recurses all the way down —
//!   is a coarser leaf better or worse?).

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::machine::MachineSpec;
use bsmp::sim::dnc1::try_simulate_dnc1;
use bsmp::sim::dnc2::try_simulate_dnc2;
use bsmp::workloads::{inputs, CyclicWave, Eca, VonNeumannLife};
use bsmp::{RunOpts, Tracer};

/// Default run options with leaf radius `h`.
fn leaf(h: i64) -> RunOpts {
    RunOpts {
        leaf: Some(h),
        ..RunOpts::default()
    }
}

pub fn run(scale: Scale) -> Vec<Table> {
    // (a) m = 1: leaf radius sweep on the diamond executor.
    let n: u64 = match scale {
        Scale::Quick => 128,
        Scale::Full => 256,
    };
    let mut t1 = Table::new(
        format!("E12a — leaf-radius ablation, d=1 diamond executor (m = 1, n = {n}, T = n)"),
        &["leaf h", "host time", "vs best"],
    );
    let init = inputs::random_bits(95, n as usize);
    let spec = MachineSpec::new(1, n, 1, 1);
    let mut results = Vec::new();
    let mut h = 1i64;
    while h <= (n / 4) as i64 {
        let r = try_simulate_dnc1(
            &spec,
            &Eca::rule110(),
            &init,
            n as i64,
            leaf(h),
            &mut Tracer::off(),
        )
        .expect("valid parameters");
        results.push((h, r.host_time));
        h *= 4;
    }
    let best = results.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (h, time) in &results {
        t1.row(vec![h.to_string(), fnum(*time), fnum(time / best)]);
    }
    t1.note(
        "Theorem 2 recurses to unit leaves (h = 1); coarser leaves trade \
         recursion/copy overhead against naive locality loss inside the \
         leaf. The paper's choice is near-optimal; very coarse leaves decay \
         towards the naive simulation.",
    );

    // (b) m > 1: the executable-diamond choice D(m) of Theorem 3.
    let m: usize = 8;
    let mut t2 = Table::new(
        format!("E12b — executable-diamond ablation, d=1 (m = {m}, n = {n}, T = n/2); paper: leaf width = m (h = m/2)"),
        &["leaf h", "host time", "vs best"],
    );
    let initm = inputs::random_words(96, n as usize * m, 100);
    let specm = MachineSpec::new(1, n, 1, m as u64);
    let mut results = Vec::new();
    let mut h = 1i64;
    while h <= (n / 4) as i64 {
        let r = try_simulate_dnc1(
            &specm,
            &CyclicWave::new(m),
            &initm,
            (n / 2) as i64,
            leaf(h),
            &mut Tracer::off(),
        )
        .expect("valid parameters");
        results.push((h, r.host_time));
        h *= 2;
    }
    let best = results.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (h, time) in &results {
        let marker = if *h == (m as i64) / 2 {
            " ← paper's D(m)"
        } else {
            ""
        };
        t2.row(vec![format!("{h}{marker}"), fnum(*time), fnum(time / best)]);
    }
    t2.note(
        "Theorem 3 stops the recursion at diamonds of width m ('executable \
         diamonds', naive leaves): recursing past them relocates state \
         blocks that no longer amortize, while stopping earlier inflates \
         the naive portion — the measured minimum brackets the paper's \
         choice within a small factor.",
    );

    // (c) d = 2 leaf ablation.
    let side: u64 = match scale {
        Scale::Quick => 16,
        Scale::Full => 32,
    };
    let mut t3 = Table::new(
        format!(
            "E12c — leaf-radius ablation, d=2 octa/tetra executor (m = 1, √n = {side}, T = √n)"
        ),
        &["leaf h", "host time", "vs best"],
    );
    let init2 = inputs::random_bits(97, (side * side) as usize);
    let spec2 = MachineSpec::new(2, side * side, 1, 1);
    let mut results = Vec::new();
    let mut h = 1i64;
    while h <= (side / 2) as i64 {
        let r = try_simulate_dnc2(
            &spec2,
            &VonNeumannLife::fredkin(),
            &init2,
            side as i64,
            leaf(h),
            &mut Tracer::off(),
        )
        .expect("valid parameters");
        results.push((h, r.host_time));
        h *= 2;
    }
    let best = results.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (h, time) in &results {
        t3.row(vec![h.to_string(), fnum(*time), fnum(time / best)]);
    }
    vec![t1, t2, t3]
}
