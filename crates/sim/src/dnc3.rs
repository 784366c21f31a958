//! **Section 6's conjecture, measured**: divide-and-conquer uniprocessor
//! simulation of the 3-D mesh `M_3(n, n, 1)` on `M_3(n, 1, 1)`, built on
//! the 4-D separator executor [`crate::execd`].  The conjectured
//! slowdown — `O(n log n)`, the d = 3 analogue of Theorems 2/5 — is
//! verified in the tests and experiment E11c, against the naive
//! `O(n^{4/3})` (Proposition 1 with d = 3).

use bsmp_geometry::Domain3;
use bsmp_hram::{AccessFn, CostMeter, CostTable, Word};
use bsmp_machine::{volume_guest_time, VolumeProgram};
use bsmp_trace::{RunMeta, Tracer};

use crate::error::SimError;
use crate::execd::CellExec;
use crate::report::SimReport;
use crate::{bulk_report, EngineKind, RunOpts};

/// Simulate `steps` guest steps of `M_3(n, n, 1)` (side `n^{1/3}`) on
/// the uniprocessor `M_3(n, 1, 1)` via the 4-D separator recursion,
/// with preconditions checked.  Reads `opts.plan`; the tracer sees the
/// run as a single bulk stage.
pub fn try_simulate_dnc3(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let meta = volume_meta(EngineKind::Dnc3, side, steps);
    let n = meta.n;
    crate::run_uniprocessor(meta, side as f64, n, &opts.plan, tracer, |tracer| {
        check_volume(prog, init, n as usize)?;
        tracer.ensure_procs(1);
        tracer.begin_stage("run");
        let access = AccessFn::new(3, 1);
        let mut exec = CellExec::<Domain3, _, 3>::new(side as i64, access, prog, steps, 1);
        let (mem, values) = exec.run(init)?;
        let guest_time = volume_guest_time(side, 1, prog, steps);
        let meter = exec.ram.meter;
        Ok(bulk_report(
            meta, mem, values, &exec.ram, meter, guest_time, tracer,
        ))
    })
}

/// [`try_simulate_dnc3`] with default options; panics on invalid
/// parameters.
pub fn simulate_dnc3(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_dnc3(
        side,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("dnc3: {e}"))
}

/// Naive step-by-step simulation on the 3-D-mesh uniprocessor host —
/// the Proposition-1 baseline for `d = 3` (slowdown `O(n^{4/3})`),
/// with preconditions checked.  Reads `opts.plan`; the tracer sees the
/// run as a single bulk stage.
pub fn try_simulate_naive3(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let n = (side * side * side) as u64;
    crate::run_uniprocessor(
        volume_meta(EngineKind::Naive3, side, steps),
        side as f64,
        n,
        &opts.plan,
        tracer,
        |tracer| try_simulate_naive3_impl(side, prog, init, steps, tracer, false),
    )
}

/// [`try_simulate_naive3`] with default options; panics on invalid
/// parameters.
pub fn simulate_naive3(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_naive3(
        side,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("naive3: {e}"))
}

/// The pre-tiling per-point reference loop, kept as the oracle for the
/// kernel bit-identity tests (`tests/kernels.rs`).  Reports 0
/// `table_hits`; every other field is bit-identical to the tiled path.
#[doc(hidden)]
pub fn try_simulate_naive3_scalar(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> Result<SimReport, SimError> {
    try_simulate_naive3_impl(side, prog, init, steps, &mut Tracer::off(), true)
}

/// The trace header of a `d = 3` uniprocessor run.
fn volume_meta(kind: EngineKind, side: usize, steps: i64) -> RunMeta {
    RunMeta {
        engine: kind,
        d: 3,
        n: (side * side * side) as u64,
        m: 1,
        p: 1,
        steps: steps.max(0) as u64,
    }
}

/// The volume engines' preconditions: unit density and an initial
/// image of one word per node.
fn check_volume(prog: &impl VolumeProgram, init: &[Word], n: usize) -> Result<(), SimError> {
    if prog.m() != 1 {
        return Err(SimError::DensityMismatch {
            spec_m: 1,
            prog_m: prog.m() as u64,
        });
    }
    if init.len() != n {
        return Err(SimError::InitLength {
            expected: n,
            got: init.len(),
        });
    }
    Ok(())
}

fn try_simulate_naive3_impl(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    tracer: &mut Tracer,
    force_scalar: bool,
) -> Result<SimReport, SimError> {
    let n = side * side * side;
    check_volume(prog, init, n)?;
    tracer.ensure_procs(1);
    tracer.begin_stage("run");
    let access = AccessFn::new(3, 1);
    let mut ram = bsmp_hram::Hram::new(access, 3 * n);
    // Layout: value row A at [0, n), row B at [n, 2n).
    for (v, w) in init.iter().enumerate() {
        ram.poke(v, *w);
    }
    let idx = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
    let mut prev: Vec<Word> = init.to_vec();
    let mut next = vec![0 as Word; n];
    let (mut row_prev, mut row_next) = (0usize, n);

    // Plan-time cost table over both value rows.  The d = 3 charges are
    // irrational (cube roots), so the tiled kernel runs in chain mode:
    // a register replays the scalar loop's IEEE add order with table
    // lookups, bit-identical by construction.
    let table = CostTable::new(access, 2 * n);
    let ss = side * side;

    for t in 1..=steps {
        if force_scalar {
            for z in 0..side {
                for y in 0..side {
                    for x in 0..side {
                        let b = prog.boundary();
                        let mut rd =
                            |ok: bool, a: usize| if ok { ram.read(row_prev + a) } else { b };
                        let nb = [
                            rd(x > 0, idx(x.saturating_sub(1), y, z)),
                            rd(x + 1 < side, idx((x + 1).min(side - 1), y, z)),
                            rd(y > 0, idx(x, y.saturating_sub(1), z)),
                            rd(y + 1 < side, idx(x, (y + 1).min(side - 1), z)),
                            rd(z > 0, idx(x, y, z.saturating_sub(1))),
                            rd(z + 1 < side, idx(x, y, (z + 1).min(side - 1))),
                        ];
                        let mine = ram.read(row_prev + idx(x, y, z));
                        let out = prog.delta(x, y, z, t, mine, mine, nb);
                        ram.compute();
                        ram.write(row_next + idx(x, y, z), out);
                        next[idx(x, y, z)] = out;
                    }
                }
            }
        } else {
            // Tiled kernel: same scan order and same per-point charge
            // order (6 neighbors x±, y±, z±, then mine, then write),
            // metered through the table into a register chain.  Border
            // slabs keep gated reads; interior rows are branch-free.
            ram.reserve_table(&table);
            let mut acc = ram.meter.access;
            let cb = table.charges();
            let cbp = &cb[row_prev..row_prev + n];
            let cbn = &cb[row_next..row_next + n];
            let bd = prog.boundary();
            {
                let mem = ram.mem_table(&table);
                let (r0, r1) = mem.split_at_mut(n);
                let (rprev, rnext): (&[Word], &mut [Word]) = if row_prev == 0 {
                    (&*r0, r1)
                } else {
                    (&*r1, r0)
                };
                let point = |x: usize,
                             y: usize,
                             z: usize,
                             rnext: &mut [Word],
                             next: &mut [Word],
                             acc: &mut f64| {
                    let a = (z * side + y) * side + x;
                    let nb = [
                        if x > 0 {
                            *acc += cbp[a - 1];
                            rprev[a - 1]
                        } else {
                            bd
                        },
                        if x + 1 < side {
                            *acc += cbp[a + 1];
                            rprev[a + 1]
                        } else {
                            bd
                        },
                        if y > 0 {
                            *acc += cbp[a - side];
                            rprev[a - side]
                        } else {
                            bd
                        },
                        if y + 1 < side {
                            *acc += cbp[a + side];
                            rprev[a + side]
                        } else {
                            bd
                        },
                        if z > 0 {
                            *acc += cbp[a - ss];
                            rprev[a - ss]
                        } else {
                            bd
                        },
                        if z + 1 < side {
                            *acc += cbp[a + ss];
                            rprev[a + ss]
                        } else {
                            bd
                        },
                    ];
                    *acc += cbp[a];
                    let mine = rprev[a];
                    let out = prog.delta(x, y, z, t, mine, mine, nb);
                    *acc += cbn[a];
                    rnext[a] = out;
                    next[a] = out;
                };
                for z in 0..side {
                    for y in 0..side {
                        if z == 0 || z + 1 == side || y == 0 || y + 1 == side {
                            for x in 0..side {
                                point(x, y, z, rnext, &mut next, &mut acc);
                            }
                            continue;
                        }
                        point(0, y, z, rnext, &mut next, &mut acc);
                        for x in 1..side - 1 {
                            let a = (z * side + y) * side + x;
                            acc += cbp[a - 1];
                            acc += cbp[a + 1];
                            acc += cbp[a - side];
                            acc += cbp[a + side];
                            acc += cbp[a - ss];
                            acc += cbp[a + ss];
                            let nb = [
                                rprev[a - 1],
                                rprev[a + 1],
                                rprev[a - side],
                                rprev[a + side],
                                rprev[a - ss],
                                rprev[a + ss],
                            ];
                            acc += cbp[a];
                            let mine = rprev[a];
                            let out = prog.delta(x, y, z, t, mine, mine, nb);
                            acc += cbn[a];
                            rnext[a] = out;
                            next[a] = out;
                        }
                        point(side - 1, y, z, rnext, &mut next, &mut acc);
                    }
                }
            }
            ram.meter.access = acc;
            // n mine-reads + n writes + (6n − 6·side²) in-volume
            // neighbor reads (each face misses one direction).
            let accesses = 8 * n as u64 - 6 * ss as u64;
            ram.meter.ops += accesses;
            ram.meter.add_table_hits(accesses);
            ram.meter.add_compute(n as f64);
        }
        std::mem::swap(&mut prev, &mut next);
        std::mem::swap(&mut row_prev, &mut row_next);
    }

    let mem = prev.clone();
    let meter = {
        let mut m = CostMeter::new();
        m.add_compute(0.0);
        ram.meter.merged(&m)
    };
    let guest_time = volume_guest_time(side, 1, prog, steps);
    let meta = volume_meta(EngineKind::Naive3, side, steps);
    Ok(bulk_report(
        meta, mem, prev, &ram, meter, guest_time, tracer,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_volume;
    use bsmp_workloads::{inputs, Parity3d};

    fn check_equiv(side: usize, steps: i64, seed: u64) -> (SimReport, SimReport) {
        let n = side * side * side;
        let init = inputs::random_bits(seed, n);
        let prog = Parity3d;
        let guest = run_volume(side, 1, &prog, &init, steps);
        let d = simulate_dnc3(side, &prog, &init, steps);
        d.assert_matches(&guest.mem, &guest.values);
        let v = simulate_naive3(side, &prog, &init, steps);
        v.assert_matches(&guest.mem, &guest.values);
        (d, v)
    }

    #[test]
    fn equivalence_small_volumes() {
        for (side, steps) in [(2usize, 3i64), (3, 4), (4, 4), (4, 9)] {
            check_equiv(side, steps, side as u64);
        }
    }

    #[test]
    fn conjectured_growth_rate() {
        // d = 3 analogue of Theorem 2/5: slowdown O(n log n) vs naive
        // O(n^{4/3}): growth per side-doubling (n ×8): D&C ≈ ×8·(log
        // ratio) ≈ ×9–11; naive ≈ 8^{4/3} = 16.
        let (d4, v4) = check_equiv(4, 4, 10);
        let (d8, v8) = check_equiv(8, 8, 11);
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
        let (d4, _) = check_equiv(4, 4, 12);
        let (d8, _) = check_equiv(8, 8, 13);
        // k grows ×16 (side³·T: 256 → 4096); k^{3/4} growth = ×8.
        let ratio = d8.space as f64 / d4.space as f64;
        assert!(ratio < 12.0, "σ ~ k^{{3/4}}: expected ~8×, got ×{ratio}");
    }
}
