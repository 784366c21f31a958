//! **Theorems 2 and 3** — divide-and-conquer uniprocessor simulation of
//! the linear array, built on the [`crate::execd`] executor at `D = 1`
//! (its cells are the Figure-1 diamonds).
//!
//! * Theorem 2 (`m = 1`): leaf diamonds of radius 1, slowdown
//!   `O(n log n)`.
//! * Theorem 3 (`m > 1`): recursion down to the *executable diamonds*
//!   `D(m)` (radius `m/2`), executed naively; slowdown
//!   `O(n · min(n, m log(n/m)))`.  For `m ≥ n` the whole computation is
//!   one executable diamond — the naive regime.

use bsmp_geometry::Diamond;
use bsmp_hram::Word;
use bsmp_machine::{guest_time, LinearProgram, MachineSpec};
use bsmp_trace::Tracer;

use crate::error::SimError;
use crate::execd::CellExec;
use crate::procs::{run_uniprocessor, StageHost};
use crate::report::SimReport;
use crate::{EngineKind, RunOpts};

/// Simulate `steps` guest steps of `M_1(n, n, m)` on the uniprocessor
/// `M_1(n, 1, m)`, with preconditions checked.  Reads `opts.leaf` (the
/// leaf radius; default: the paper's `D(m)` executable diamonds) and
/// `opts.plan`.  The tracer sees the run as a single bulk stage: one
/// record carries the whole run's totals.
pub fn try_simulate_dnc1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let leaf_h = opts.leaf.unwrap_or((prog.m() as i64 / 2).max(1));
    let host = StageHost::for_spec(
        EngineKind::Dnc1,
        spec,
        steps,
        prog.m(),
        init.len(),
        &opts.plan,
        tracer,
    )?;
    run_uniprocessor(host, guest_time::<1>(spec, prog, steps), || {
        let n = spec.n as i64;
        let mut exec = CellExec::<Diamond, _, 1>::new(n, spec.access_fn(), prog, steps, leaf_h);
        let (mem, values) = exec.run(init)?;
        Ok((mem, values, exec.ram))
    })
}

/// [`try_simulate_dnc1`] with default options; panics on invalid
/// parameters.
pub fn simulate_dnc1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_dnc1(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("dnc1: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_linear;
    use bsmp_workloads::{inputs, CyclicWave, Eca, OddEvenSort, TokenShift};

    fn check_equiv(prog: &impl LinearProgram, n: u64, steps: i64, init: &[Word]) -> SimReport {
        let spec = MachineSpec::new(1, n, 1, prog.m() as u64);
        let guest = run_linear(&spec, prog, init, steps);
        let rep = simulate_dnc1(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn token_shift_tiny() {
        let init: Vec<Word> = vec![10, 20, 30, 40];
        check_equiv(&TokenShift::new(7), 4, 4, &init);
    }

    #[test]
    fn rule110_various_sizes() {
        for n in [4u64, 8, 16, 32, 64] {
            let init = inputs::random_bits(n, n as usize);
            check_equiv(&Eca::rule110(), n, n as i64, &init);
        }
    }

    #[test]
    fn non_square_time_ranges() {
        // T ≠ n exercises clipped top/bottom tiles.
        let init = inputs::random_bits(20, 16);
        for steps in [1i64, 3, 7, 16, 40] {
            check_equiv(&Eca::rule90(), 16, steps, &init);
        }
    }

    #[test]
    fn odd_sizes() {
        for n in [3u64, 5, 7, 13] {
            let init = inputs::random_bits(n, n as usize);
            check_equiv(&Eca::rule110(), n, (n + 2) as i64, &init);
        }
    }

    #[test]
    fn sorting_via_dnc() {
        let init = inputs::random_words(21, 16, 500);
        let rep = check_equiv(&OddEvenSort::new(16), 16, 16, &init);
        let mut expect = init.clone();
        expect.sort();
        assert_eq!(rep.values, expect);
    }

    #[test]
    fn multi_cell_wave_equivalence() {
        for m in [2usize, 3, 4, 8] {
            let n = 16usize;
            let init = inputs::random_words(22 + m as u64, n * m, 100);
            check_equiv(&CyclicWave::new(m), n as u64, 20, &init);
        }
    }

    #[test]
    fn m_exceeding_n_still_works() {
        // Range-4 situation: the executable diamond swallows everything.
        let (n, m) = (8usize, 16usize);
        let init = inputs::random_words(30, n * m, 100);
        check_equiv(&CyclicWave::new(m), n as u64, 12, &init);
    }

    #[test]
    fn dnc_beats_naive_for_small_m() {
        // Theorem 2 vs Proposition 1: n·log n ≪ n² asymptotically.  The
        // scheme's constants (Proposition 3's τ₀) put the crossover near
        // n ≈ 300 in this implementation; at n = 512 D&C wins clearly,
        // and its advantage doubles with n (shape check).
        let n = 512u64;
        let init = inputs::random_bits(23, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        let dnc = simulate_dnc1(&spec, &Eca::rule90(), &init, n as i64);
        let naive = crate::naive::simulate_naive::<1>(&spec, &Eca::rule90(), &init, n as i64);
        assert!(
            dnc.host_time < naive.host_time / 1.3,
            "D&C {} should beat naive {}",
            dnc.host_time,
            naive.host_time
        );
    }

    #[test]
    fn slowdown_tracks_n_log_n() {
        // Theorem 2 shape: slowdown(2n)/slowdown(n) ≈ 2·log(2n)/log(n),
        // clearly below the naive ratio of 4.
        let init_a = inputs::random_bits(24, 64);
        let init_b = inputs::random_bits(25, 128);
        let s_a = check_equiv(&Eca::rule90(), 64, 64, &init_a).slowdown();
        let s_b = check_equiv(&Eca::rule90(), 128, 128, &init_b).slowdown();
        let ratio = s_b / s_a;
        assert!(ratio > 1.6 && ratio < 3.4, "n log n doubling, got {ratio}");
    }

    #[test]
    fn space_is_near_linear_not_quadratic() {
        // Proposition 3: σ(|V|) = O(|V|^{1/2}) = O(n) for T = n — so
        // doubling n doubles (not quadruples) the footprint.
        let s128 = {
            let init = inputs::random_bits(26, 128);
            check_equiv(&Eca::rule90(), 128, 128, &init).space as f64
        };
        let s256 = {
            let init = inputs::random_bits(26, 256);
            check_equiv(&Eca::rule90(), 256, 256, &init).space as f64
        };
        let ratio = s256 / s128;
        assert!(
            ratio < 2.5,
            "space should scale ~linearly in n, got ×{ratio}"
        );
        assert!((s256 as usize) < 256 * 256 / 4, "far below |V|");
    }

    #[test]
    fn multiprocessor_spec_is_rejected() {
        let init = inputs::random_bits(31, 16);
        let (spec, opts) = (MachineSpec::new(1, 16, 4, 1), RunOpts::default());
        assert_eq!(
            try_simulate_dnc1(&spec, &Eca::rule110(), &init, 4, opts, &mut Tracer::off()).err(),
            Some(SimError::UniprocessorOnly {
                engine: "dnc1",
                p: 4
            })
        );
    }

    #[test]
    fn leaf_size_ablation_runs() {
        let n = 32u64;
        let init = inputs::random_bits(27, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        let (prog, steps) = (Eca::rule110(), n as i64);
        let guest = run_linear(&spec, &prog, &init, steps);
        for leaf in [1i64, 2, 4, 8] {
            let opts = RunOpts {
                leaf: Some(leaf),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_dnc1(&spec, &prog, &init, steps, opts, &mut Tracer::off()).unwrap();
            rep.assert_matches(&guest.mem, &guest.values);
        }
    }
}
