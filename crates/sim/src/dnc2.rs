//! **Theorem 5** — divide-and-conquer uniprocessor simulation of the
//! mesh, built on the [`crate::execd`] executor: for `T_n ≥ √n`,
//! a `T_n`-step computation of `M_2(n, n, 1)` runs on `M_2(n, 1, 1)`
//! with slowdown `O(n log n)`; the `m > 1` generalization mirrors
//! Theorem 3 with *executable cells* of radius `~m/2`.

use bsmp_geometry::Domain2;
use bsmp_hram::Word;
use bsmp_machine::{guest_time, MachineSpec, MeshProgram};
use bsmp_trace::Tracer;

use crate::error::SimError;
use crate::execd::CellExec;
use crate::procs::{run_uniprocessor, StageHost};
use crate::report::SimReport;
use crate::{EngineKind, RunOpts};

/// Simulate `steps` guest steps of `M_2(n, n, m)` on the uniprocessor
/// `M_2(n, 1, m)`, with preconditions checked.  Reads `opts.leaf` (the
/// leaf radius; default: executable cells of radius `max(m/2, 1)`) and
/// `opts.plan`.  The tracer sees the run as a single bulk stage.
pub fn try_simulate_dnc2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let leaf_h = opts.leaf.unwrap_or((prog.m() as i64 / 2).max(1));
    let host = StageHost::for_spec(
        EngineKind::Dnc2,
        spec,
        steps,
        prog.m(),
        init.len(),
        &opts.plan,
        tracer,
    )?;
    run_uniprocessor(host, guest_time::<2>(spec, prog, steps), || {
        let side = spec.mesh_side() as i64;
        let mut exec = CellExec::<Domain2, _, 2>::new(side, spec.access_fn(), prog, steps, leaf_h);
        let (mem, values) = exec.run(init)?;
        Ok((mem, values, exec.ram))
    })
}

/// [`try_simulate_dnc2`] with default options; panics on invalid
/// parameters.
pub fn simulate_dnc2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_dnc2(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("dnc2: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_mesh;
    use bsmp_workloads::{inputs, HeatDiffusion, SystolicMatmul, VonNeumannLife};

    fn check_equiv(prog: &impl MeshProgram, n: u64, steps: i64, init: &[Word]) -> SimReport {
        let spec = MachineSpec::new(2, n, 1, prog.m() as u64);
        let guest = run_mesh(&spec, prog, init, steps);
        let rep = simulate_dnc2(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn life_small_meshes() {
        for side in [2u64, 3, 4, 8] {
            let n = side * side;
            let init = inputs::random_bits(31 + side, n as usize);
            check_equiv(&VonNeumannLife::fredkin(), n, side as i64, &init);
        }
    }

    #[test]
    fn life_nonsquare_time() {
        let init = inputs::random_bits(32, 16);
        for steps in [1i64, 3, 9] {
            check_equiv(&VonNeumannLife::b2s12(), 16, steps, &init);
        }
    }

    #[test]
    fn heat_equivalence() {
        let init = inputs::random_words(33, 36, 10_000);
        check_equiv(&HeatDiffusion::new(100), 36, 7, &init);
    }

    #[test]
    fn systolic_matmul_via_dnc() {
        let s = 3usize;
        let prog = SystolicMatmul::new(s);
        let a = inputs::random_matrix(34, s, 30);
        let b = inputs::random_matrix(35, s, 30);
        let init = prog.stage_inputs(&a, &b);
        let rep = check_equiv(&prog, (s * s) as u64, prog.steps(), &init);
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
            let d = simulate_dnc2(&spec, &VonNeumannLife::fredkin(), &init, side as i64);
            let v = crate::naive::simulate_naive::<2>(
                &spec,
                &VonNeumannLife::fredkin(),
                &init,
                side as i64,
            );
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
    fn multiprocessor_spec_is_rejected() {
        let init = inputs::random_bits(38, 16);
        let (spec, prog) = (MachineSpec::new(2, 16, 4, 1), VonNeumannLife::fredkin());
        let opts = RunOpts::default();
        assert_eq!(
            try_simulate_dnc2(&spec, &prog, &init, 4, opts, &mut Tracer::off()).err(),
            Some(SimError::UniprocessorOnly {
                engine: "dnc2",
                p: 4
            })
        );
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
            simulate_dnc2(&spec, &VonNeumannLife::fredkin(), &init, side as i64).space as f64
        };
        let ratio = sp(side_b) / sp(side_a);
        assert!(
            ratio < 6.0,
            "space should grow ~|V|^{{2/3}} (×4), got ×{ratio}"
        );
    }
}
