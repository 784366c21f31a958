//! The **naive simulation** (Proposition 1 and the opening of §4.2) for
//! the linear array: the host mimics the guest step by step.
//!
//! Processor `PE_i` of `M_1(n, p, m)` performs the actions of guest
//! nodes `i·(n/p) … (i+1)·(n/p) - 1`.  Each node's private memory is a
//! block in the host node's H-RAM, in the guest's natural order; two
//! value rows (previous / next) sit above the blocks.  Per guest step,
//! the host node touches one cell per hosted guest node — `n/p` accesses
//! at addresses up to `Θ(n·m/p)`, hence slowdown `O((n/p)^{1+1/d})`;
//! values crossing the processor boundary are charged `words × n/p`.

use bsmp_hram::{CostTable, Hram, Word};
use bsmp_machine::{guest_time, DisjointSlice, LinearProgram, MachineSpec};
use bsmp_trace::{EngineKind, StageTally, Tracer};

use crate::error::SimError;
use crate::procs::{naive_pool, StageHost};
use crate::report::SimReport;
use crate::RunOpts;

/// Simulate `steps` guest steps of `M_1(n, n, m)` on `M_1(n, p, m)` by
/// the naive method, with preconditions checked.  Reads `opts.plan` and
/// `opts.exec` (the host-thread budget).  The report and trace are
/// bit-identical for every thread budget (see DESIGN.md §12); a
/// disabled tracer costs one `None` check per stage.
pub fn try_simulate_naive1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    try_simulate_naive1_impl(spec, prog, init, steps, opts, tracer, false)
}

/// [`try_simulate_naive1`] with default options; panics on invalid
/// parameters.
pub fn simulate_naive1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_naive1(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("naive1: {e}"))
}

/// The pre-tiling per-point reference implementation, kept as the
/// oracle for the kernel bit-identity tests (`tests/kernels.rs`).
/// Reports 0 `table_hits`; every other field is bit-identical to the
/// tiled path.
#[doc(hidden)]
pub fn try_simulate_naive1_scalar(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    try_simulate_naive1_impl(spec, prog, init, steps, opts, tracer, true)
}

fn try_simulate_naive1_impl(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
    force_scalar: bool,
) -> Result<SimReport, SimError> {
    let mut host = StageHost::for_spec(
        EngineKind::Naive1,
        spec,
        steps,
        prog.m(),
        init.len(),
        &opts.plan,
        tracer,
    )?;
    let n = spec.n as usize;
    let p = spec.p as usize;
    let m = prog.m();
    let q = n / p; // guest nodes per host node
    let access = spec.access_fn();

    // Per-processor H-RAM: blocks [0, q·m), value row A [q·m, q·m + q),
    // value row B [q·m + q, q·m + 2q).
    let va = q * m;
    let vb = q * m + q;
    let mut rams: Vec<Hram> = (0..p).map(|_| Hram::new(access, q * m + 2 * q)).collect();
    for v in 0..n {
        let (pi, j) = (v / q, v % q);
        for c in 0..m {
            rams[pi].poke(j * m + c, init[v * m + c]);
        }
        // Initial values.
        let v0 = init[v * m + prog.cell(v, 0)];
        rams[pi].poke(va + (v % q), v0);
    }

    let hop = spec.neighbor_distance();
    // Global mirror of the previous value row (functional carrier for
    // cross-processor reads; costs are charged explicitly).
    let mut prev: Vec<Word> = (0..n).map(|v| init[v * m + prog.cell(v, 0)]).collect();
    let mut next = vec![0 as Word; n];
    let (mut row_prev, mut row_next) = (va, vb);

    // Plan-time cost table over the per-processor address space, plus
    // the exact-dyadic integer-unit view when the charges allow it (d=1
    // power-of-two m, or the instantaneous model): per-stage access
    // metering then collapses to integer arithmetic that is bit-identical
    // to the scalar f64 chain (see bsmp_hram::table).  The peeled tiled
    // kernel needs at least one interior column, so tiny blocks keep the
    // scalar loop.
    let scalar = force_scalar || q < 3;
    let table = CostTable::new(access, q * m + 2 * q);
    let per_proc_accesses = (steps.max(0) as u64)
        .saturating_mul(6)
        .saturating_mul(q as u64);
    let exact = table
        .exact_units()
        .filter(|_| table.units_budget_ok(per_proc_accesses));
    // Per-stage row charges are input-independent: left reads touch
    // rp..rp+q-2, right reads rp+1..rp+q-1, mine-reads rp..rp+q-1 and
    // next-writes rn..rn+q-1, whichever processor and stage — only the
    // row parity (which row is "previous") varies.
    // At unit density every cell index is 0, so the block address of
    // node `j` is just `j`: the per-stage block-address sum collapses to
    // `q(q-1)/2`, and the block row always mirrors the previous value
    // row (both hold the node's sole cell).  The kernel can then skip
    // the block stores entirely and materialize the blocks once after
    // the last stage — the meter is unchanged because exact-units
    // accounting is order-free integer arithmetic.
    let m1_fast = !scalar && m == 1 && exact.is_some();
    let m1_addr_sum = (q as u64 * (q as u64 - 1)) / 2;
    let row_units = exact.map(|e| {
        let rows = |rp: usize, rn: usize| {
            let lr = if q >= 2 {
                e.span_units(rp, rp + q - 2) + e.span_units(rp + 1, rp + q - 1)
            } else {
                0
            };
            lr + e.span_units(rp, rp + q - 1) + e.span_units(rn, rn + q - 1)
        };
        [rows(va, vb), rows(vb, va)]
    });
    let mut units_total: Vec<u64> = vec![0; p];

    // Host processors are independent within a stage; run them on the
    // persistent worker pool when there is enough work per stage to pay
    // for the handoff.  Model time is unaffected: each worker owns its
    // H-RAM and returns its own metered cost into its own slot.
    let pool = naive_pool(p, q, opts.exec);
    for t in 1..=steps {
        host.begin_stage("step", &rams);
        let stage_row_units = row_units.map(|ru| if row_prev == va { ru[0] } else { ru[1] });
        let run_scalar = |pi: usize, ram: &mut Hram, next: &mut [Word], tl: Option<&StageTally>| {
            let t0 = ram.time();
            let mut comm = 0.0;
            let mut msgs = 0u64;
            for (j, slot) in next.iter_mut().enumerate() {
                let v = pi * q + j;
                let c = prog.cell(v, t);
                let own = ram.read(j * m + c);
                let left = if v == 0 {
                    prog.boundary()
                } else if j == 0 {
                    comm += hop; // one word from the west neighbor node
                    msgs += 1;
                    prev[v - 1]
                } else {
                    ram.read(row_prev + j - 1)
                };
                let right = if v == n - 1 {
                    prog.boundary()
                } else if j == q - 1 {
                    comm += hop;
                    msgs += 1;
                    prev[v + 1]
                } else {
                    ram.read(row_prev + j + 1)
                };
                let mine = ram.read(row_prev + j);
                let out = prog.delta(v, t, own, mine, left, right);
                ram.compute();
                ram.write(j * m + c, out);
                ram.write(row_next + j, out);
                *slot = out;
            }
            // Outbound edge values to the two neighbors.
            if pi > 0 {
                comm += hop;
                msgs += 1;
            }
            if pi + 1 < p {
                comm += hop;
                msgs += 1;
            }
            if let Some(tl) = tl {
                tl.add(pi, q as u64, msgs);
            }
            ram.meter.add_comm(comm);
            ram.time() - t0
        };

        // Tiled kernel: west/east columns peeled, branch-free interior
        // over contiguous row strips, charges served by the plan-time
        // table.  Bit-identity: the chain mode replays the scalar loop's
        // f64 additions in the identical order (in a register); the
        // exact mode re-associates freely, which is lossless for dyadic
        // charges (see bsmp_hram::table).  Requires q ≥ 3 (peeling).
        let run_tiled = |pi: usize,
                         ram: &mut Hram,
                         next: &mut [Word],
                         units: &mut u64,
                         tally: Option<&StageTally>|
         -> f64 {
            ram.reserve_table(&table);
            let t0 = ram.time();
            let vbase = pi * q;
            let mut comm = 0.0;
            let mut msgs = 0u64;
            let mut acc = ram.meter.access; // chain-mode register
            let mut addr_sum = 0u64; // exact-mode Σ of block addresses
            {
                let cb = table.charges();
                let mem = ram.mem_table(&table);
                let (blocks, rows) = mem.split_at_mut(q * m);
                let (ra, rb) = rows.split_at_mut(q);
                let (rprev, rnext) = if row_prev == va {
                    (&*ra, rb)
                } else {
                    (&*rb, ra)
                };
                let chain = exact.is_none();

                if m1_fast {
                    // West edge (j = 0).  At m = 1 the block row mirrors
                    // the previous value row, so `own` and `mine` are
                    // both `rprev[j]` and the block store is deferred to
                    // the post-run fixup.
                    let left = if pi == 0 {
                        prog.boundary()
                    } else {
                        comm += hop;
                        msgs += 1;
                        prev[vbase - 1]
                    };
                    let out = prog.delta(vbase, t, rprev[0], rprev[0], left, rprev[1]);
                    rnext[0] = out;
                    next[0] = out;
                    // Interior: contiguous strips, one store per point.
                    // Only the two edge values of the global mirror row
                    // are read cross-processor during a stage, so the
                    // interior of `next` is published once after the
                    // final stage instead of per point.
                    let inner_next = &mut rnext[1..q - 1];
                    let (wl, wc, wr) = (&rprev[..q - 2], &rprev[1..q - 1], &rprev[2..q]);
                    for (k, (((l, c), r), nx)) in wl
                        .iter()
                        .zip(wc.iter())
                        .zip(wr.iter())
                        .zip(inner_next.iter_mut())
                        .enumerate()
                    {
                        *nx = prog.delta(vbase + k + 1, t, *c, *c, *l, *r);
                    }
                    // East edge (j = q - 1).
                    let j = q - 1;
                    let right = if pi + 1 == p {
                        prog.boundary()
                    } else {
                        comm += hop;
                        msgs += 1;
                        prev[vbase + j + 1]
                    };
                    let out = prog.delta(vbase + j, t, rprev[j], rprev[j], rprev[j - 1], right);
                    rnext[j] = out;
                    next[j] = out;
                    addr_sum = m1_addr_sum;
                } else {
                    // j == 0 (west edge).
                    let c = prog.cell(vbase, t);
                    let own = blocks[c];
                    let left = if pi == 0 {
                        prog.boundary()
                    } else {
                        comm += hop;
                        msgs += 1;
                        prev[vbase - 1]
                    };
                    let (right, mine) = (rprev[1], rprev[0]);
                    let out = prog.delta(vbase, t, own, mine, left, right);
                    blocks[c] = out;
                    rnext[0] = out;
                    next[0] = out;
                    if chain {
                        acc += cb[c];
                        acc += cb[row_prev + 1];
                        acc += cb[row_prev];
                        acc += cb[c];
                        acc += cb[row_next];
                    } else {
                        addr_sum += c as u64;
                    }

                    // Interior 1..q-1: contiguous strips, no boundary or
                    // ownership branches.
                    let inner_next = &mut rnext[1..q - 1];
                    let inner_slot = &mut next[1..q - 1];
                    let win = rprev.windows(3);
                    if chain {
                        let cbp = &cb[row_prev..row_prev + q];
                        let cbn = &cb[row_next..row_next + q];
                        for (k, (w, (nx, slot))) in win
                            .zip(inner_next.iter_mut().zip(inner_slot.iter_mut()))
                            .enumerate()
                        {
                            let j = k + 1;
                            let v = vbase + j;
                            let c = prog.cell(v, t);
                            let a = j * m + c;
                            let own = blocks[a];
                            acc += cb[a];
                            acc += cbp[j - 1];
                            acc += cbp[j + 1];
                            acc += cbp[j];
                            let out = prog.delta(v, t, own, w[1], w[0], w[2]);
                            blocks[a] = out;
                            acc += cb[a];
                            acc += cbn[j];
                            *nx = out;
                            *slot = out;
                        }
                    } else {
                        for (k, (w, (nx, slot))) in win
                            .zip(inner_next.iter_mut().zip(inner_slot.iter_mut()))
                            .enumerate()
                        {
                            let j = k + 1;
                            let v = vbase + j;
                            let c = prog.cell(v, t);
                            let a = j * m + c;
                            let out = prog.delta(v, t, blocks[a], w[1], w[0], w[2]);
                            blocks[a] = out;
                            *nx = out;
                            *slot = out;
                            addr_sum += a as u64;
                        }
                    }

                    // j == q - 1 (east edge).
                    let j = q - 1;
                    let v = vbase + j;
                    let c = prog.cell(v, t);
                    let a = j * m + c;
                    let own = blocks[a];
                    let left = rprev[j - 1];
                    let right = if pi + 1 == p {
                        prog.boundary()
                    } else {
                        comm += hop;
                        msgs += 1;
                        prev[v + 1]
                    };
                    let mine = rprev[j];
                    let out = prog.delta(v, t, own, mine, left, right);
                    blocks[a] = out;
                    rnext[j] = out;
                    next[j] = out;
                    if chain {
                        acc += cb[a];
                        acc += cb[row_prev + j - 1];
                        acc += cb[row_prev + j];
                        acc += cb[a];
                        acc += cb[row_next + j];
                    } else {
                        addr_sum += a as u64;
                    }
                }
            }
            let accesses = 6 * q as u64 - 2;
            match exact {
                Some(e) => {
                    let (base, slope) = e.affine();
                    let block_units = 2 * q as u64 * base + 2 * slope * addr_sum;
                    *units += block_units + stage_row_units.unwrap_or(0);
                    ram.meter.access = e.time(*units);
                }
                None => ram.meter.access = acc,
            }
            ram.meter.ops += accesses;
            ram.meter.add_table_hits(accesses);
            ram.meter.add_compute(q as f64);
            if pi > 0 {
                comm += hop;
                msgs += 1;
            }
            if pi + 1 < p {
                comm += hop;
                msgs += 1;
            }
            if let Some(tl) = tally {
                tl.add(pi, q as u64, msgs);
            }
            ram.meter.add_comm(comm);
            ram.time() - t0
        };

        {
            let rams_slots = DisjointSlice::new(&mut rams);
            let next_slots = DisjointSlice::new(&mut next);
            let units_slots = DisjointSlice::new(&mut units_total);
            host.run_tasks(&pool, |pi, tally| {
                // Safety: processor pi is claimed by exactly one thread;
                // its H-RAM, its q-word chunk of `next` and its unit
                // accumulator are touched by no one else this stage.
                let ram = unsafe { rams_slots.get_mut(pi) };
                let chunk = unsafe { next_slots.slice_mut(pi * q, q) };
                if scalar {
                    run_scalar(pi, ram, chunk, tally)
                } else {
                    let u = unsafe { units_slots.get_mut(pi) };
                    run_tiled(pi, ram, chunk, u, tally)
                }
            })?;
        }
        host.close_stage(pool.threads(), &rams)?;
        std::mem::swap(&mut prev, &mut next);
        std::mem::swap(&mut row_prev, &mut row_next);
    }
    // Materialize the m = 1 kernel's deferred stores: the final value
    // row *is* the final block content, and the interior of the global
    // mirror row is published here instead of per stage.
    if m1_fast && steps > 0 {
        for (pi, ram) in rams.iter_mut().enumerate() {
            let mem = ram.mem_table(&table);
            mem.copy_within(row_prev..row_prev + q, 0);
            prev[pi * q..(pi + 1) * q].copy_from_slice(&mem[row_prev..row_prev + q]);
        }
    }

    // Collect outputs (uncharged inspection: the blocks already sit in
    // the guest's natural layout).
    let mut mem = vec![0 as Word; n * m];
    for v in 0..n {
        let (pi, j) = (v / q, v % q);
        for c in 0..m {
            mem[v * m + c] = rams[pi].peek(j * m + c);
        }
    }
    let guest_time = guest_time::<1>(spec, prog, steps);
    Ok(host.finish_procs(mem, prev, guest_time, &rams))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_faults::FaultPlan;
    use bsmp_machine::run_linear;
    use bsmp_workloads::{inputs, CyclicWave, Eca, OddEvenSort, TokenShift};

    fn check_equiv(
        prog: &impl LinearProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(1, n, p, prog.m() as u64);
        let guest = run_linear(&spec, prog, init, steps);
        let rep = simulate_naive1(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn uniprocessor_matches_direct_execution() {
        let init = inputs::random_bits(3, 32);
        check_equiv(&Eca::rule110(), 32, 1, 32, &init);
    }

    #[test]
    fn multiprocessor_matches_direct_execution() {
        let init = inputs::random_bits(4, 32);
        for p in [2u64, 4, 8, 16, 32] {
            check_equiv(&Eca::rule110(), 32, p, 32, &init);
        }
    }

    #[test]
    fn multi_cell_program_matches() {
        let m = 3usize;
        let init = inputs::random_words(5, 16 * m, 100);
        check_equiv(&CyclicWave::new(m), 16, 4, 20, &init);
    }

    #[test]
    fn sorting_on_the_host() {
        let init = inputs::random_words(6, 16, 1000);
        let rep = check_equiv(&OddEvenSort::new(16), 16, 4, 16, &init);
        let mut expect = init.clone();
        expect.sort();
        assert_eq!(rep.values, expect);
    }

    #[test]
    fn slowdown_scales_like_n_over_p_squared() {
        // Proposition 1 (d = 1): slowdown Θ((n/p)²).
        let n = 128u64;
        let init = inputs::random_bits(7, n as usize);
        let s1 = check_equiv(&Eca::rule90(), n, 1, n as i64, &init).slowdown();
        let s4 = check_equiv(&Eca::rule90(), n, 4, n as i64, &init).slowdown();
        let ratio = s1 / s4;
        assert!(
            ratio > 8.0 && ratio < 32.0,
            "quartering n/p should cut slowdown ~16×, got {ratio}"
        );
    }

    #[test]
    fn full_parallelism_has_constant_slowdown() {
        let n = 64u64;
        let init = inputs::random_bits(8, n as usize);
        let rep = check_equiv(&TokenShift::new(9), n, n, n as i64, &init);
        assert!(
            rep.slowdown() < 4.0,
            "p = n host ≈ guest, got {}",
            rep.slowdown()
        );
    }

    #[test]
    fn instantaneous_model_recovers_brent() {
        // E10: under instantaneous propagation the naive simulation's
        // slowdown is Θ(n/p), not (n/p)².
        let n = 128u64;
        let init = inputs::random_bits(9, n as usize);
        for p in [1u64, 4, 16] {
            let spec = MachineSpec::instantaneous(1, n, p, 1);
            let rep = simulate_naive1(&spec, &Eca::rule90(), &init, n as i64);
            let brent = (n / p) as f64;
            let s = rep.slowdown();
            assert!(
                s > 0.5 * brent && s < 3.0 * brent,
                "p={p}: instantaneous slowdown {s} vs Brent {brent}"
            );
        }
    }

    #[test]
    fn threaded_stage_path_matches_sequential_semantics() {
        // q ≥ 256 triggers the threaded path; a p = 1 run of the same
        // computation (sequential path) must agree functionally, and the
        // model costs must be deterministic across repeated threaded runs.
        let n = 2048u64;
        let init = inputs::random_bits(29, n as usize);
        let spec = MachineSpec::new(1, n, 4, 1);
        let a = simulate_naive1(&spec, &Eca::rule110(), &init, 8);
        let b = simulate_naive1(&spec, &Eca::rule110(), &init, 8);
        assert_eq!(a.values, b.values);
        assert!(
            (a.host_time - b.host_time).abs() < 1e-9,
            "threaded cost deterministic"
        );
        let guest = run_linear(&spec, &Eca::rule110(), &init, 8);
        a.assert_matches(&guest.mem, &guest.values);
    }

    #[test]
    fn stage_count_equals_steps() {
        let init = inputs::random_bits(10, 16);
        let spec = MachineSpec::new(1, 16, 4, 1);
        let rep = simulate_naive1(&spec, &Eca::rule90(), &init, 10);
        assert_eq!(rep.stages, 10);
    }

    #[test]
    fn try_variant_reports_bad_parameters() {
        let run = |spec: &MachineSpec, init: &[Word], plan| {
            let opts = RunOpts {
                plan,
                ..RunOpts::default()
            };
            try_simulate_naive1(spec, &Eca::rule90(), init, 4, opts, &mut Tracer::off())
        };
        let init = inputs::random_bits(11, 12);
        let spec = MachineSpec::new(1, 12, 4, 1);
        assert!(matches!(
            run(&spec, &init[..10], FaultPlan::none()),
            Err(SimError::InitLength { .. })
        ));
        let indivisible = MachineSpec::new(1, 10, 3, 1);
        let init10 = inputs::random_bits(12, 10);
        assert!(matches!(
            run(&indivisible, &init10, FaultPlan::none()),
            Err(SimError::IndivisibleProcessors { .. })
        ));
        assert!(matches!(
            run(
                &spec,
                &inputs::random_bits(13, 12),
                FaultPlan::uniform_slowdown(0.25)
            ),
            Err(SimError::Fault(_))
        ));
    }

    #[test]
    fn uniform_slowdown_stays_within_nu_envelope() {
        let init = inputs::random_bits(14, 64);
        let spec = MachineSpec::new(1, 64, 8, 1);
        let base = simulate_naive1(&spec, &Eca::rule110(), &init, 32);
        for nu in [1.0, 2.0, 4.0] {
            let opts = RunOpts {
                plan: FaultPlan::uniform_slowdown(nu),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_naive1(&spec, &Eca::rule110(), &init, 32, opts, &mut Tracer::off())
                    .unwrap();
            rep.assert_matches(&base.mem, &base.values);
            assert!(rep.host_time >= base.host_time - 1e-9);
            assert!(rep.host_time <= nu * base.host_time + 1e-6, "ν = {nu}");
        }
    }
}
