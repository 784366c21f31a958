//! The divide-and-conquer uniprocessor simulations, one engine per mesh
//! dimension `D` on the [`crate::execd`] executor: the guest
//! `M_D(n, n, m)` runs on the uniprocessor `M_D(n, 1, m)`.
//!
//! * `D = 1` (`dnc1`), **Theorems 2 and 3**: the cells are Figure 1's
//!   diamonds.  For `m = 1` the leaves are diamonds of radius 1 and the
//!   slowdown is `O(n log n)` (Theorem 2).  For `m > 1` the recursion
//!   stops at the *executable diamonds* `D(m)` (radius `m/2`), executed
//!   naively, for a slowdown of `O(n · min(n, m log(n/m)))` (Theorem 3).
//!   For `m ≥ n` the whole computation is one executable diamond — the
//!   naive regime.
//! * `D = 2` (`dnc2`), **Theorem 5**: the cells are Section 5's
//!   octahedra and tetrahedra.  For `T_n ≥ √n` the slowdown is
//!   `O(n log n)`; `m > 1` mirrors Theorem 3 with *executable cells* of
//!   radius `~m/2`.
//! * `D = 3` (`dnc3`), **Section 6's conjecture, measured**: the cells
//!   are 4-D honeycomb cells.  The conjectured slowdown `O(n log n)`, the
//!   `d = 3` analogue of Theorems 2 and 5, is checked in the tests and in
//!   experiment E11c against the naive `O(n^{4/3})` of [`crate::naive3`].

use bsmp_hram::Word;
use bsmp_machine::{guest_time, Guest, MachineSpec};
use bsmp_trace::Tracer;

use crate::error::SimError;
use crate::execd::CellExec;
use crate::procs::{run_uniprocessor, StageHost};
use crate::report::SimReport;
use crate::{EngineKind, RunOpts};

/// Simulate `steps` guest steps of `M_D(n, n, m)` on the uniprocessor
/// `M_D(n, 1, m)` by the separator recursion (`D ∈ {1, 2, 3}`: engine
/// `dnc1`, `dnc2` or `dnc3`), with preconditions checked.  Reads
/// `opts.leaf` (the leaf radius; default: the paper's executable cells
/// of radius `max(m/2, 1)`) and `opts.plan`.  The tracer sees the run as
/// a single bulk stage: one record carries the whole run's totals.
pub fn try_simulate_dnc<const D: usize>(
    spec: &MachineSpec,
    prog: &impl Guest<D>,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let kind = [EngineKind::Dnc1, EngineKind::Dnc2, EngineKind::Dnc3][D - 1];
    let leaf_h = opts.leaf.unwrap_or((prog.m() as i64 / 2).max(1));
    let host = StageHost::for_spec(kind, spec, steps, prog.m(), init.len(), &opts.plan, tracer)?;
    run_uniprocessor(host, guest_time::<D>(spec, prog, steps), || {
        let side = spec.mesh_side() as i64;
        let mut exec = CellExec::<_, D>::new(side, spec.access_fn(), prog, steps, leaf_h);
        let (mem, values) = exec.run(init)?;
        Ok((mem, values, exec.ram))
    })
}

/// [`try_simulate_dnc`] with default options; panics on invalid
/// parameters.
pub fn simulate_dnc<const D: usize>(
    spec: &MachineSpec,
    prog: &impl Guest<D>,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_dnc::<D>(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("dnc{D}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_guest;
    use bsmp_workloads::{
        inputs, CyclicWave, Eca, HeatDiffusion, OddEvenSort, Parity3d, PlaneWave, SystolicMatmul,
        TokenShift, VonNeumannLife,
    };

    use crate::naive::simulate_naive;
    use crate::naive3::simulate_naive3;

    /// One default-options run of `M_D(n, n, m)`, diffed against the
    /// direct guest run.
    fn check_equiv<const D: usize>(
        prog: &impl Guest<D>,
        n: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(D as u8, n, 1, prog.m() as u64);
        let guest = run_guest::<D>(&spec, prog, init, steps);
        let rep = simulate_dnc::<D>(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn token_shift_tiny() {
        let init: Vec<Word> = vec![10, 20, 30, 40];
        check_equiv::<1>(&TokenShift::new(7), 4, 4, &init);
    }

    #[test]
    fn rule110_various_sizes() {
        for n in [4u64, 8, 16, 32, 64] {
            let init = inputs::random_bits(n, n as usize);
            check_equiv::<1>(&Eca::rule110(), n, n as i64, &init);
        }
    }

    #[test]
    fn non_square_time_ranges() {
        // T ≠ n exercises clipped top/bottom tiles.
        let init = inputs::random_bits(20, 16);
        for steps in [1i64, 3, 7, 16, 40] {
            check_equiv::<1>(&Eca::rule90(), 16, steps, &init);
        }
    }

    #[test]
    fn odd_sizes() {
        for n in [3u64, 5, 7, 13] {
            let init = inputs::random_bits(n, n as usize);
            check_equiv::<1>(&Eca::rule110(), n, (n + 2) as i64, &init);
        }
    }

    #[test]
    fn sorting_via_dnc() {
        let init = inputs::random_words(21, 16, 500);
        let rep = check_equiv::<1>(&OddEvenSort::new(16), 16, 16, &init);
        let mut expect = init.clone();
        expect.sort();
        assert_eq!(rep.values, expect);
    }

    #[test]
    fn multi_cell_wave_equivalence() {
        for m in [2usize, 3, 4, 8] {
            let n = 16usize;
            let init = inputs::random_words(22 + m as u64, n * m, 100);
            check_equiv::<1>(&CyclicWave::new(m), n as u64, 20, &init);
        }
    }

    #[test]
    fn m_exceeding_n_still_works() {
        // Range-4 situation: the executable diamond swallows everything.
        let (n, m) = (8usize, 16usize);
        let init = inputs::random_words(30, n * m, 100);
        check_equiv::<1>(&CyclicWave::new(m), n as u64, 12, &init);
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
        let dnc = simulate_dnc::<1>(&spec, &Eca::rule90(), &init, n as i64);
        let naive = simulate_naive::<1>(&spec, &Eca::rule90(), &init, n as i64);
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
        let s_a = check_equiv::<1>(&Eca::rule90(), 64, 64, &init_a).slowdown();
        let s_b = check_equiv::<1>(&Eca::rule90(), 128, 128, &init_b).slowdown();
        let ratio = s_b / s_a;
        assert!(ratio > 1.6 && ratio < 3.4, "n log n doubling, got {ratio}");
    }

    #[test]
    fn space_is_near_linear_not_quadratic() {
        // Proposition 3: σ(|V|) = O(|V|^{1/2}) = O(n) for T = n — so
        // doubling n doubles (not quadruples) the footprint.
        let s128 = {
            let init = inputs::random_bits(26, 128);
            check_equiv::<1>(&Eca::rule90(), 128, 128, &init).space as f64
        };
        let s256 = {
            let init = inputs::random_bits(26, 256);
            check_equiv::<1>(&Eca::rule90(), 256, 256, &init).space as f64
        };
        let ratio = s256 / s128;
        assert!(
            ratio < 2.5,
            "space should scale ~linearly in n, got ×{ratio}"
        );
        assert!((s256 as usize) < 256 * 256 / 4, "far below |V|");
    }

    /// A spec with p > 1 is refused with the engine's own name.
    fn rejects_multiprocessor<const D: usize>(prog: &impl Guest<D>, n: u64, p: u64, seed: u64) {
        let (spec, opts) = (MachineSpec::new(D as u8, n, p, 1), RunOpts::default());
        let init = inputs::random_bits(seed, n as usize);
        assert_eq!(
            try_simulate_dnc::<D>(&spec, prog, &init, 4, opts, &mut Tracer::off()).err(),
            Some(SimError::UniprocessorOnly {
                engine: ["dnc1", "dnc2", "dnc3"][D - 1],
                p
            })
        );
    }

    #[test]
    fn multiprocessor_spec_is_rejected_d1() {
        rejects_multiprocessor::<1>(&Eca::rule110(), 16, 4, 31);
    }

    #[test]
    fn multiprocessor_spec_is_rejected_d2() {
        rejects_multiprocessor::<2>(&VonNeumannLife::fredkin(), 16, 4, 38);
    }

    #[test]
    fn multiprocessor_spec_is_rejected_d3() {
        rejects_multiprocessor::<3>(&Parity3d, 64, 8, 39);
    }

    /// Every leaf radius in `leaves` gives the guest's answer.
    fn leaf_sizes_match_guest<const D: usize>(
        prog: &impl Guest<D>,
        side: u64,
        steps: i64,
        seed: u64,
        leaves: &[i64],
    ) {
        let (m, n) = (prog.m(), side.pow(D as u32));
        let spec = MachineSpec::new(D as u8, n, 1, m as u64);
        let init = match m {
            1 => inputs::random_bits(seed, n as usize),
            _ => inputs::random_words(seed, n as usize * m, 100),
        };
        let guest = run_guest::<D>(&spec, prog, &init, steps);
        for &leaf in leaves {
            let opts = RunOpts {
                leaf: Some(leaf),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_dnc::<D>(&spec, prog, &init, steps, opts, &mut Tracer::off()).unwrap();
            rep.assert_matches(&guest.mem, &guest.values);
        }
    }

    #[test]
    fn leaf_size_ablation_runs() {
        leaf_sizes_match_guest::<1>(&Eca::rule110(), 32, 32, 27, &[1, 2, 4, 8]);
        for m in [1usize, 2, 4] {
            for side in 4..=8 {
                leaf_sizes_match_guest::<2>(&PlaneWave::new(m), side, 9, side, &[1, 2, 3, 4]);
            }
        }
        for side in 2..=8 {
            leaf_sizes_match_guest::<3>(&Parity3d, side, side as i64, side, &[1, 2, 3, 4]);
        }
    }

    #[test]
    fn life_small_meshes() {
        for side in [2u64, 3, 4, 8] {
            let n = side * side;
            let init = inputs::random_bits(31 + side, n as usize);
            check_equiv::<2>(&VonNeumannLife::fredkin(), n, side as i64, &init);
        }
    }

    #[test]
    fn life_nonsquare_time() {
        let init = inputs::random_bits(32, 16);
        for steps in [1i64, 3, 9] {
            check_equiv::<2>(&VonNeumannLife::b2s12(), 16, steps, &init);
        }
    }

    #[test]
    fn heat_equivalence() {
        let init = inputs::random_words(33, 36, 10_000);
        check_equiv::<2>(&HeatDiffusion::new(100), 36, 7, &init);
    }

    #[test]
    fn systolic_matmul_via_dnc() {
        let s = 3usize;
        let prog = SystolicMatmul::new(s);
        let a = inputs::random_matrix(34, s, 30);
        let b = inputs::random_matrix(35, s, 30);
        let init = prog.stage_inputs(&a, &b);
        let rep = check_equiv::<2>(&prog, (s * s) as u64, prog.steps(), &init);
        let c = prog.extract_c(&rep.values);
        for r in 0..s {
            for q in 0..s {
                let expect: u64 = (0..s).map(|k| a[r][k] * b[k][q]).sum();
                assert_eq!(c[r][q], expect);
            }
        }
    }

    #[test]
    fn dnc2_beats_naive2_shape() {
        // Theorem 5 vs Proposition 1 (d = 2): n·log n vs n^{3/2} — check
        // the growth-rate gap over a 4× size increase.
        let run = |side: u64| {
            let n = side * side;
            let init = inputs::random_bits(36, n as usize);
            let spec = MachineSpec::new(2, n, 1, 1);
            let d = simulate_dnc::<2>(&spec, &VonNeumannLife::fredkin(), &init, side as i64);
            let v = simulate_naive::<2>(&spec, &VonNeumannLife::fredkin(), &init, side as i64);
            (d.slowdown(), v.slowdown())
        };
        let (d8, v8) = run(8);
        let (d16, v16) = run(16);
        // Naive slowdown grows ~n^{3/2} = 8× per side-doubling (n ×4);
        // D&C grows ~n·log n ≈ 4.6×.
        let naive_growth = v16 / v8;
        let dnc_growth = d16 / d8;
        assert!(
            dnc_growth < naive_growth,
            "D&C growth {dnc_growth} must undercut naive growth {naive_growth}"
        );
        assert!(
            naive_growth > 5.5,
            "naive ~(n)^{{3/2}} growth, got {naive_growth}"
        );
        assert!(dnc_growth < 6.5, "D&C ~n log n growth, got {dnc_growth}");
    }

    #[test]
    fn space_scales_with_surface_not_volume() {
        // Proposition 3 (γ = 2/3): σ(|V|) = O(|V|^{2/3}) = O(n) for
        // T = √n: quadrupling n (×8 vertices) should ×4 the space.
        let side_a = 8u64;
        let side_b = 16u64;
        let sp = |side: u64| {
            let n = side * side;
            let init = inputs::random_bits(37, n as usize);
            let spec = MachineSpec::new(2, n, 1, 1);
            simulate_dnc::<2>(&spec, &VonNeumannLife::fredkin(), &init, side as i64).space as f64
        };
        let ratio = sp(side_b) / sp(side_a);
        assert!(
            ratio < 6.0,
            "space should grow ~|V|^{{2/3}} (×4), got ×{ratio}"
        );
    }

    /// One `d = 3` run of dnc3 and naive3, each diffed against the guest.
    fn check_volume(side: u64, steps: i64, seed: u64) -> (SimReport, SimReport) {
        let spec = MachineSpec::new(3, side.pow(3), 1, 1);
        let init = inputs::random_bits(seed, spec.n as usize);
        let prog = Parity3d;
        let guest = run_guest::<3>(&spec, &prog, &init, steps);
        let d = simulate_dnc::<3>(&spec, &prog, &init, steps);
        d.assert_matches(&guest.mem, &guest.values);
        let v = simulate_naive3(&spec, &prog, &init, steps);
        v.assert_matches(&guest.mem, &guest.values);
        (d, v)
    }

    #[test]
    fn equivalence_small_volumes() {
        for (side, steps) in [(2u64, 3i64), (3, 4), (4, 4), (4, 9)] {
            check_volume(side, steps, side);
        }
    }

    #[test]
    fn conjectured_growth_rate() {
        // d = 3 analogue of Theorem 2/5: slowdown O(n log n) vs naive
        // O(n^{4/3}): growth per side-doubling (n ×8): D&C ≈ ×8·(log
        // ratio) ≈ ×9–11; naive ≈ 8^{4/3} = 16.
        let (d4, v4) = check_volume(4, 4, 10);
        let (d8, v8) = check_volume(8, 8, 11);
        let dnc_growth = d8.slowdown() / d4.slowdown();
        let naive_growth = v8.slowdown() / v4.slowdown();
        assert!(
            dnc_growth < naive_growth,
            "D&C ×{dnc_growth} must undercut naive ×{naive_growth}"
        );
        assert!(naive_growth > 11.0, "naive ~n^{{4/3}}: ×{naive_growth}");
        assert!(dnc_growth < 14.0, "D&C ~n·log n: ×{dnc_growth}");
    }

    #[test]
    fn space_scales_like_k_three_quarters() {
        // Proposition 3 at (α, γ) = (1/3, 3/4): σ(k) = O(k^{3/4}).
        let (d4, _) = check_volume(4, 4, 12);
        let (d8, _) = check_volume(8, 8, 13);
        // k grows ×16 (side³·T: 256 → 4096); k^{3/4} growth = ×8.
        let ratio = d8.space as f64 / d4.space as f64;
        assert!(ratio < 12.0, "σ ~ k^{{3/4}}: expected ~8×, got ×{ratio}");
    }
}
