//! The naive simulation for the mesh (`d = 2`): `M_2(n, p, m)` mimics
//! `M_2(n, n, m)` step by step.  Processor `(I, J)` of the `√p × √p`
//! host grid hosts the `b × b` guest sub-mesh with `b = √n/√p`; blocks in
//! natural order, two value planes above them.  Slowdown
//! `O((n/p)^{3/2})` — Proposition 1 with `d = 2`.

use bsmp_faults::{FaultEnv, FaultSession};
use bsmp_hram::{CostTable, Hram, Word};
use bsmp_machine::{
    lease_scratch, mesh_guest_time, CoreKind, DisjointSlice, MachineSpec, MeshProgram, PoolLease,
    StageClock,
};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::error::SimError;
use crate::report::SimReport;
use crate::RunOpts;
use crate::{settle_scenario, stage_totals};

/// Simulate `steps` guest steps of `M_2(n, n, m)` on `M_2(n, p, m)` by
/// the naive method, with preconditions checked.  Reads `opts.plan`,
/// `opts.exec` (the host-thread budget) and `opts.core`: the dense
/// stage loop or the event-driven sparse core of [`crate::event2`], which
/// falls back to the dense loop when its preconditions do not hold.
/// The report and trace are bit-identical for every thread budget and
/// core (see DESIGN.md §12); a disabled tracer costs one `None` check
/// per stage.
pub fn try_simulate_naive2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    match opts.core {
        CoreKind::Dense => try_simulate_naive2_impl(spec, prog, init, steps, opts, tracer, false),
        CoreKind::Event => {
            crate::event2::try_simulate_naive2_event(spec, prog, init, steps, opts, tracer, None)
        }
    }
}

/// [`try_simulate_naive2`] with default options; panics on invalid
/// parameters.
pub fn simulate_naive2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_naive2(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("naive2: {e}"))
}

/// The pre-tiling per-point reference implementation on the dense core,
/// kept as the oracle for the kernel bit-identity tests
/// (`tests/kernels.rs`).  Reports 0 `table_hits`; every other field is
/// bit-identical to the tiled path.
#[doc(hidden)]
pub fn try_simulate_naive2_scalar(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    try_simulate_naive2_impl(spec, prog, init, steps, opts, tracer, true)
}

pub(crate) fn try_simulate_naive2_impl(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
    force_scalar: bool,
) -> Result<SimReport, SimError> {
    let (plan, exec) = (&opts.plan, opts.exec);
    if spec.d != 2 {
        return Err(SimError::DimensionMismatch {
            expected: 2,
            got: spec.d,
        });
    }
    let side = spec.mesh_side() as usize;
    let n = side * side;
    let sp = spec.proc_side() as usize;
    let m = prog.m();
    if m as u64 != spec.m {
        return Err(SimError::DensityMismatch {
            spec_m: spec.m,
            prog_m: m as u64,
        });
    }
    if init.len() != n * m {
        return Err(SimError::InitLength {
            expected: n * m,
            got: init.len(),
        });
    }
    if !side.is_multiple_of(sp) {
        return Err(SimError::IndivisibleMeshSide {
            side: side as u64,
            proc_side: sp as u64,
        });
    }
    plan.validate()?;
    let b = side / sp; // guest nodes per host-node side
    let q = b * b;
    let access = spec.access_fn();
    let hop = spec.neighbor_distance();
    let mut session = FaultSession::new(
        plan,
        FaultEnv {
            p: sp * sp,
            hop,
            checkpoint_words: spec.node_mem(),
            proc_side: sp,
        },
    );

    // Per-processor layout: blocks [0, q·m), value plane A, value plane B.
    let va = q * m;
    let vb = q * m + q;
    let mut rams: Vec<Hram> = (0..sp * sp)
        .map(|_| Hram::new(access, q * m + 2 * q))
        .collect();

    let proc_of = |i: usize, j: usize| (j / b) * sp + (i / b);
    let loc_of = |i: usize, j: usize| (j % b) * b + (i % b);

    let mut prev: Vec<Word> = vec![0; n];
    for j in 0..side {
        for i in 0..side {
            let v = j * side + i;
            let (pi, l) = (proc_of(i, j), loc_of(i, j));
            for c in 0..m {
                rams[pi].poke(l * m + c, init[v * m + c]);
            }
            let v0 = init[v * m + prog.cell(i, j, 0)];
            rams[pi].poke(va + l, v0);
            prev[v] = v0;
        }
    }

    let mut clock = StageClock::new();
    let mut next = vec![0 as Word; n];
    let (mut row_prev, mut row_next) = (va, vb);

    // Plan-time cost table over the per-processor address range.  The
    // d = 2 charges are irrational (square roots), so the tiled kernel
    // always runs in chain mode: a register accumulator replays the
    // scalar loop's exact IEEE add order with table lookups, and the
    // result is bit-identical by construction (table values come from
    // `AccessFn::charge` itself).
    let table = CostTable::new(access, q * m + 2 * q);

    // Host processors are independent within a stage: each owns its
    // H-RAM and writes a disjoint set of guest cells in `next`.
    let pool = if exec.resolved().min(sp * sp) > 1 && q >= 256 {
        PoolLease::for_procs(sp * sp, exec)
    } else {
        PoolLease::serial()
    };
    let mut scratch = lease_scratch(sp * sp);
    tracer.ensure_procs(sp * sp);
    for t in 1..=steps {
        tracer.begin_stage("step");
        let tally = tracer.tally();
        for (before, ram) in scratch.comm_before.iter_mut().zip(&rams) {
            *before = ram.meter.comm;
        }
        let next_slots = DisjointSlice::new(&mut next);
        let run_scalar = |pid: usize, ram: &mut Hram| -> f64 {
            let (pi_, pj) = (pid % sp, pid / sp);
            let t0 = ram.time();
            let mut comm = 0.0;
            let mut msgs = 0u64;
            for jj in 0..b {
                for ii in 0..b {
                    let (i, j) = (pi_ * b + ii, pj * b + jj);
                    let c = prog.cell(i, j, t);
                    let l = jj * b + ii;
                    let own = ram.read(l * m + c);
                    let bd = prog.boundary();
                    let fetch =
                        |di: isize, dj: isize, ram: &mut Hram, comm: &mut f64, msgs: &mut u64| {
                            let (ni, nj) = (i as isize + di, j as isize + dj);
                            if ni < 0 || nj < 0 || ni >= side as isize || nj >= side as isize {
                                return bd;
                            }
                            let (ni, nj) = (ni as usize, nj as usize);
                            if proc_of(ni, nj) == pid {
                                ram.read(row_prev + loc_of(ni, nj))
                            } else {
                                *comm += hop;
                                *msgs += 1;
                                prev[nj * side + ni]
                            }
                        };
                    let w = fetch(-1, 0, ram, &mut comm, &mut msgs);
                    let e = fetch(1, 0, ram, &mut comm, &mut msgs);
                    let s = fetch(0, -1, ram, &mut comm, &mut msgs);
                    let nn = fetch(0, 1, ram, &mut comm, &mut msgs);
                    let mine = ram.read(row_prev + l);
                    let out = prog.delta(i, j, t, own, mine, w, e, s, nn);
                    ram.compute();
                    ram.write(l * m + c, out);
                    ram.write(row_next + l, out);
                    // Safety: guest cell (i, j) belongs to exactly this
                    // processor's block — no other task writes it.
                    unsafe {
                        *next_slots.get_mut(j * side + i) = out;
                    }
                }
            }
            // Outbound edge values (one per border node per adjacent side).
            let mut sides = 0;
            if pi_ > 0 {
                sides += 1;
            }
            if pi_ + 1 < sp {
                sides += 1;
            }
            if pj > 0 {
                sides += 1;
            }
            if pj + 1 < sp {
                sides += 1;
            }
            comm += (sides * b) as f64 * hop;
            msgs += (sides * b) as u64;
            if let Some(tl) = tally {
                tl.add(pid, q as u64, msgs);
            }
            ram.meter.add_comm(comm);
            ram.time() - t0
        };
        // Tiled kernel: same point order and same charge order per point
        // (own, w, e, s, nn, mine, write-own, write-next), metered
        // through the cost table into a register chain.  Border rows
        // keep gated fetches; interior rows run a branch-free middle.
        let run_tiled = |pid: usize, ram: &mut Hram| -> f64 {
            let (pi_, pj) = (pid % sp, pid / sp);
            ram.reserve_table(&table);
            let t0 = ram.time();
            let mut comm = 0.0;
            let mut msgs = 0u64;
            let mut acc = ram.meter.access;
            let cb = table.charges();
            let cbp = &cb[row_prev..row_prev + q];
            let cbn = &cb[row_next..row_next + q];
            let bd = prog.boundary();
            {
                let mem = ram.mem_table(&table);
                let (blocks, planes) = mem.split_at_mut(q * m);
                let (pa, pb_) = planes.split_at_mut(q);
                let (pprev, pnext): (&[Word], &mut [Word]) = if row_prev == va {
                    (&*pa, pb_)
                } else {
                    (&*pb_, pa)
                };
                let point = |ii: usize,
                             jj: usize,
                             blocks: &mut [Word],
                             pnext: &mut [Word],
                             acc: &mut f64,
                             comm: &mut f64,
                             msgs: &mut u64| {
                    let (i, j) = (pi_ * b + ii, pj * b + jj);
                    let c = prog.cell(i, j, t);
                    let l = jj * b + ii;
                    let a = l * m + c;
                    *acc += cb[a];
                    let own = blocks[a];
                    let w = if ii > 0 {
                        *acc += cbp[l - 1];
                        pprev[l - 1]
                    } else if pi_ > 0 {
                        *comm += hop;
                        *msgs += 1;
                        prev[j * side + i - 1]
                    } else {
                        bd
                    };
                    let e = if ii + 1 < b {
                        *acc += cbp[l + 1];
                        pprev[l + 1]
                    } else if pi_ + 1 < sp {
                        *comm += hop;
                        *msgs += 1;
                        prev[j * side + i + 1]
                    } else {
                        bd
                    };
                    let s = if jj > 0 {
                        *acc += cbp[l - b];
                        pprev[l - b]
                    } else if pj > 0 {
                        *comm += hop;
                        *msgs += 1;
                        prev[(j - 1) * side + i]
                    } else {
                        bd
                    };
                    let nn = if jj + 1 < b {
                        *acc += cbp[l + b];
                        pprev[l + b]
                    } else if pj + 1 < sp {
                        *comm += hop;
                        *msgs += 1;
                        prev[(j + 1) * side + i]
                    } else {
                        bd
                    };
                    *acc += cbp[l];
                    let mine = pprev[l];
                    let out = prog.delta(i, j, t, own, mine, w, e, s, nn);
                    *acc += cb[a];
                    blocks[a] = out;
                    *acc += cbn[l];
                    pnext[l] = out;
                    // Safety: guest cell (i, j) belongs to exactly this
                    // processor's block — no other task writes it.
                    unsafe {
                        *next_slots.get_mut(j * side + i) = out;
                    }
                };
                for jj in 0..b {
                    if jj == 0 || jj + 1 == b {
                        for ii in 0..b {
                            point(ii, jj, blocks, pnext, &mut acc, &mut comm, &mut msgs);
                        }
                        continue;
                    }
                    point(0, jj, blocks, pnext, &mut acc, &mut comm, &mut msgs);
                    let j = pj * b + jj;
                    for ii in 1..b - 1 {
                        let i = pi_ * b + ii;
                        let c = prog.cell(i, j, t);
                        let l = jj * b + ii;
                        let a = l * m + c;
                        acc += cb[a];
                        let own = blocks[a];
                        acc += cbp[l - 1];
                        acc += cbp[l + 1];
                        acc += cbp[l - b];
                        acc += cbp[l + b];
                        acc += cbp[l];
                        let out = prog.delta(
                            i,
                            j,
                            t,
                            own,
                            pprev[l],
                            pprev[l - 1],
                            pprev[l + 1],
                            pprev[l - b],
                            pprev[l + b],
                        );
                        acc += cb[a];
                        blocks[a] = out;
                        acc += cbn[l];
                        pnext[l] = out;
                        // Safety: as above — this block owns cell (i, j).
                        unsafe {
                            *next_slots.get_mut(j * side + i) = out;
                        }
                    }
                    point(b - 1, jj, blocks, pnext, &mut acc, &mut comm, &mut msgs);
                }
            }
            ram.meter.access = acc;
            // Every point reads own + mine and writes twice (4q); local
            // neighbor fetches are 4q − 4b (each edge row/column lacks
            // one in-block neighbor), independent of comm vs boundary.
            let accesses = 8 * q as u64 - 4 * b as u64;
            ram.meter.ops += accesses;
            ram.meter.add_table_hits(accesses);
            ram.meter.add_compute(q as f64);
            let mut sides = 0;
            if pi_ > 0 {
                sides += 1;
            }
            if pi_ + 1 < sp {
                sides += 1;
            }
            if pj > 0 {
                sides += 1;
            }
            if pj + 1 < sp {
                sides += 1;
            }
            comm += (sides * b) as f64 * hop;
            msgs += (sides * b) as u64;
            if let Some(tl) = tally {
                tl.add(pid, q as u64, msgs);
            }
            ram.meter.add_comm(comm);
            ram.time() - t0
        };
        {
            let rams_slots = DisjointSlice::new(&mut rams);
            pool.run_stage(sp * sp, &mut scratch.per_proc, |pid| {
                // Safety: processor pid is claimed by exactly one thread.
                let ram = unsafe { rams_slots.get_mut(pid) };
                if force_scalar {
                    run_scalar(pid, ram)
                } else {
                    run_tiled(pid, ram)
                }
            })?;
        }
        let sc = &mut *scratch;
        for ((delta, ram), before) in sc.per_comm.iter_mut().zip(&rams).zip(&sc.comm_before) {
            *delta = ram.meter.comm - before;
        }
        clock.add_stage_faulted(&scratch.per_proc, &scratch.per_comm, &mut session)?;
        tracer.end_stage(stage_totals(&clock, &session.stats), pool.threads());
        std::mem::swap(&mut prev, &mut next);
        std::mem::swap(&mut row_prev, &mut row_next);
    }
    settle_scenario(&mut clock, &mut session, tracer, pool.threads());

    let mut mem = vec![0 as Word; n * m];
    for j in 0..side {
        for i in 0..side {
            let v = j * side + i;
            let (pi, l) = (proc_of(i, j), loc_of(i, j));
            for c in 0..m {
                mem[v * m + c] = rams[pi].peek(l * m + c);
            }
        }
    }
    let meter = rams
        .iter()
        .fold(bsmp_hram::CostMeter::new(), |acc, r| acc.merged(&r.meter));
    let guest_time = mesh_guest_time(spec, prog, steps);
    tracer.finish_run(
        RunMeta {
            engine: EngineKind::Naive2,
            d: 2,
            n: spec.n,
            m: spec.m,
            p: spec.p,
            steps: steps.max(0) as u64,
        },
        clock.parallel_time,
        guest_time,
    );
    Ok(SimReport {
        mem,
        values: prev,
        host_time: clock.parallel_time,
        guest_time,
        meter,
        space: rams.iter().map(|r| r.high_water()).max().unwrap_or(0),
        stages: clock.stages,
        faults: session.into_stats(),
        core_fallback: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_faults::FaultPlan;
    use bsmp_machine::run_mesh;
    use bsmp_workloads::{inputs, HeatDiffusion, SystolicMatmul, VonNeumannLife};

    fn check_equiv(
        prog: &impl MeshProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(2, n, p, prog.m() as u64);
        let guest = run_mesh(&spec, prog, init, steps);
        let rep = simulate_naive2(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn life_matches_direct_execution() {
        let init = inputs::random_bits(11, 64);
        for p in [1u64, 4, 16, 64] {
            check_equiv(&VonNeumannLife::fredkin(), 64, p, 8, &init);
        }
    }

    #[test]
    fn heat_matches_direct_execution() {
        let init = inputs::random_words(12, 64, 10_000);
        check_equiv(&HeatDiffusion::new(0), 64, 4, 10, &init);
    }

    #[test]
    fn systolic_matmul_on_host() {
        let s = 4usize;
        let prog = SystolicMatmul::new(s);
        let a = inputs::random_matrix(13, s, 50);
        let b = inputs::random_matrix(14, s, 50);
        let init = prog.stage_inputs(&a, &b);
        let rep = check_equiv(&prog, (s * s) as u64, 4, prog.steps(), &init);
        let c = prog.extract_c(&rep.values);
        for r in 0..s {
            for q in 0..s {
                let expect: u64 = (0..s).map(|k| a[r][k] * b[k][q]).sum();
                assert_eq!(c[r][q], expect, "C[{r}][{q}]");
            }
        }
    }

    #[test]
    fn slowdown_scales_like_three_halves_power() {
        // d = 2 naive: slowdown Θ((n/p)^{3/2}).
        let n = 256u64; // 16×16 mesh
        let init = inputs::random_bits(15, n as usize);
        let steps = 16i64;
        let s1 = check_equiv(&VonNeumannLife::fredkin(), n, 1, steps, &init).slowdown();
        let s16 = check_equiv(&VonNeumannLife::fredkin(), n, 16, steps, &init).slowdown();
        let ratio = s1 / s16;
        // (n/1)^{3/2} / (n/16)^{3/2} = 16^{3/2} = 64.
        assert!(ratio > 20.0 && ratio < 200.0, "expected ~64×, got {ratio}");
    }

    #[test]
    fn uniform_slowdown_stays_within_nu_envelope() {
        let init = inputs::random_bits(16, 64);
        let spec = MachineSpec::new(2, 64, 4, 1);
        let prog = VonNeumannLife::fredkin();
        let base = simulate_naive2(&spec, &prog, &init, 8);
        for nu in [1.0, 2.0, 4.0] {
            let opts = RunOpts {
                plan: FaultPlan::uniform_slowdown(nu),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_naive2(&spec, &prog, &init, 8, opts, &mut Tracer::off()).unwrap();
            rep.assert_matches(&base.mem, &base.values);
            assert!(rep.host_time >= base.host_time - 1e-9);
            assert!(rep.host_time <= nu * base.host_time + 1e-6, "ν = {nu}");
        }
    }

    #[test]
    fn try_variant_reports_bad_parameters() {
        let run = |spec: &MachineSpec, init: &[Word]| {
            let (prog, opts) = (VonNeumannLife::fredkin(), RunOpts::default());
            try_simulate_naive2(spec, &prog, init, 4, opts, &mut Tracer::off())
        };
        let init = inputs::random_bits(17, 64);
        let spec = MachineSpec::new(2, 64, 4, 1);
        assert!(matches!(
            run(&spec, &init[..60]),
            Err(SimError::InitLength { .. })
        ));
        let linear = MachineSpec::new(1, 64, 4, 1);
        assert!(matches!(
            run(&linear, &init),
            Err(SimError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }
}
