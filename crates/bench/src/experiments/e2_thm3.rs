//! **E2 — Theorem 3**: sweep the memory density `m` at fixed `n`: the
//! locality slowdown follows `min(n, m·log(n/m))` and saturates at the
//! naive ceiling.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::analytic::bounds;
use bsmp::machine::MachineSpec;
use bsmp::sim::dnc::simulate_dnc;
use bsmp::workloads::{inputs, CyclicWave};

pub fn run(scale: Scale) -> Vec<Table> {
    let (n, ms): (u64, &[usize]) = match scale {
        Scale::Quick => (64, &[1, 2, 4, 8, 16]),
        Scale::Full => (128, &[1, 2, 4, 8, 16, 32, 64, 128]),
    };
    let mut t = Table::new(
        format!("E2 / Theorem 3 — density sweep at n = {n} (T = n, order-m wave kernel)"),
        &[
            "m",
            "locality slowdown (meas.)",
            "min(n, m·log(n/m))",
            "ratio",
            "range",
        ],
    );
    let mut ratios = Vec::new();
    for &m in ms {
        let init = inputs::random_words(n + m as u64, n as usize * m, 100);
        let spec = MachineSpec::new(1, n, 1, m as u64);
        let r = simulate_dnc::<1>(&spec, &CyclicWave::new(m), &init, n as i64);
        let meas = r.slowdown() / n as f64;
        let analytic = bounds::thm3_locality(n as f64, m as f64);
        ratios.push(meas / analytic);
        t.row(vec![
            m.to_string(),
            fnum(meas),
            fnum(analytic),
            fnum(meas / analytic),
            format!(
                "{:?}",
                bsmp::analytic::theorem1::range(1, n as f64, m as f64, 1.0)
            ),
        ]);
    }
    let (lo, hi) = (
        ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        ratios.iter().cloned().fold(0.0f64, f64::max),
    );
    t.note(format!(
        "The ratio column is the implementation constant; drift ×{:.1} across \
         a {}× density range (shape reproduced when ≲ one order of magnitude).",
        hi / lo,
        ms.last().unwrap() / ms[0]
    ));
    t.note(format!(
        "Saturation: the combined scheme's locality term reaches the naive \
         ceiling n at m = n/2 = {} (footnote log); the block-D&C variant \
         crosses naive at m ≈ n/log n = {}.",
        fnum(bounds::thm3_crossover_m(n as f64)),
        fnum(bounds::dnc_block_crossover_m(n as f64))
    ));
    vec![t]
}
