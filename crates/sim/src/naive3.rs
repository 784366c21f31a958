//! The naive `d = 3` simulation: Proposition 1's step-by-step baseline
//! (slowdown `O(n^{4/3})`) on the 3-D-mesh uniprocessor host
//! `M_3(n, 1, 1)`, the reference [`crate::dnc`]'s `d = 3` recursion is
//! measured against (Section 6's conjecture, experiment E11c).  It runs
//! as one bulk stage; the `d = 1, 2` naive engines are
//! [`crate::naive`].

use bsmp_hram::{CostTable, Hram, Word};
use bsmp_machine::{guest_time, MachineSpec, VolumeProgram};
use bsmp_trace::Tracer;

use crate::error::SimError;
use crate::procs::{run_uniprocessor, StageHost};
use crate::report::SimReport;
use crate::{EngineKind, RunOpts};

/// Naive step-by-step simulation on the 3-D-mesh uniprocessor host —
/// the Proposition-1 baseline for `d = 3` (slowdown `O(n^{4/3})`),
/// with preconditions checked.  Reads `opts.plan`; the tracer sees the
/// run as a single bulk stage.
pub fn try_simulate_naive3(
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    run_naive3(spec, prog, init, steps, opts, tracer, false)
}

/// [`try_simulate_naive3`] with default options; panics on invalid
/// parameters.
pub fn simulate_naive3(
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_naive3(
        spec,
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
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> Result<SimReport, SimError> {
    let off = &mut Tracer::off();
    run_naive3(spec, prog, init, steps, RunOpts::default(), off, true)
}

fn run_naive3(
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
    force_scalar: bool,
) -> Result<SimReport, SimError> {
    let host = StageHost::for_spec(
        EngineKind::Naive3,
        spec,
        steps,
        prog.m(),
        init.len(),
        &opts.plan,
        tracer,
    )?;
    run_uniprocessor(host, guest_time::<3>(spec, prog, steps), || {
        Ok(naive3_kernel(spec, prog, init, steps, force_scalar))
    })
}

/// The naive `d = 3` step loop on one H-RAM of side³ nodes: the final
/// memory image, the values, and the metered H-RAM.
fn naive3_kernel(
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    force_scalar: bool,
) -> (Vec<Word>, Vec<Word>, Hram) {
    let (n, side) = (spec.n as usize, spec.mesh_side() as usize);
    let access = spec.access_fn();
    let mut ram = Hram::new(access, 2 * n);
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

    (prev.clone(), prev, ram)
}
