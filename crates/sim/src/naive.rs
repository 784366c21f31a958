//! The **naive simulation** (Proposition 1 and the opening of §4.2):
//! the host `M_D(n, p, m)` mimics the guest `M_D(n, n, m)` step by
//! step, one scheme for the linear array (`D = 1`) and the mesh
//! (`D = 2`).
//!
//! The host grid has side `sp = p^{1/D}`; processor `Σ P_k·sp^k` hosts
//! the guest sub-mesh of side `b = n^{1/D}/sp` whose nodes sit at
//! `x_k = P_k·b + x'_k`, at local index `Σ x'_k·b^k`.  Each node's
//! private memory is a block in the host node's H-RAM, in the guest's
//! natural order; two value planes (previous / next) sit above the
//! blocks.  Per guest step a host node touches one cell per hosted
//! guest node — `q = n/p` accesses at addresses up to `Θ(q·m)`, hence
//! slowdown `O((n/p)^{1+1/D})`; values crossing a processor boundary are
//! charged `words × (n/p)^{1/D}`.

use std::array::from_fn;

use bsmp_hram::{CostTable, Hram, Word};
use bsmp_machine::{guest_time, DisjointSlice, Guest, MachineSpec};
use bsmp_trace::{EngineKind, StageTally, Tracer};

use crate::error::SimError;
use crate::procs::{naive_pool, StageHost};
use crate::report::SimReport;
use crate::RunOpts;

/// Simulate `steps` guest steps of `M_D(n, n, m)` on `M_D(n, p, m)` by
/// the naive method (`D ∈ {1, 2}`: engine `naive1` or `naive2`), with
/// preconditions checked.  Reads `opts.plan` and `opts.exec` (the
/// host-thread budget).  The report and trace are bit-identical for
/// every thread budget (see DESIGN.md §12); a disabled tracer costs one
/// `None` check per stage.
pub fn try_simulate_naive<const D: usize>(
    spec: &MachineSpec,
    prog: &(impl Guest<D> + Sync),
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    run::<D>(spec, prog, init, steps, opts, tracer, false)
}

/// [`try_simulate_naive`] with default options; panics on invalid
/// parameters.
pub fn simulate_naive<const D: usize>(
    spec: &MachineSpec,
    prog: &(impl Guest<D> + Sync),
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_naive::<D>(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("naive{D}: {e}"))
}

/// The per-point reference loop (every access through `Hram::read` /
/// `Hram::write`), kept as the oracle for the kernel bit-identity tests
/// (`tests/kernels.rs`).  Reports 0 `table_hits`; every other field is
/// bit-identical to [`try_simulate_naive`].
#[doc(hidden)]
pub fn try_simulate_naive_scalar<const D: usize>(
    spec: &MachineSpec,
    prog: &(impl Guest<D> + Sync),
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    run::<D>(spec, prog, init, steps, opts, tracer, true)
}

/// The block decomposition of the guest over the host grid.
struct Grid<const D: usize> {
    /// Guest side `n^{1/D}`, block side `b`, nodes per block `q = b^D`.
    side: usize,
    b: usize,
    q: usize,
    /// Local-index stride `b^k` and node-index stride `side^k` of axis `k`.
    local: [usize; D],
    global: [usize; D],
    /// Each processor's first node `P_k·b`.
    origin: Vec<[usize; D]>,
}

/// A node as its host processor sees it: guest and in-block
/// coordinates, local index and node index.
#[derive(Clone, Copy)]
struct Node<const D: usize> {
    x: [usize; D],
    lx: [usize; D],
    l: usize,
    v: usize,
}

impl<const D: usize> Node<D> {
    /// The node `i` steps further along axis 0.
    fn east(mut self, i: usize) -> Self {
        (self.x[0], self.lx[0], self.l, self.v) =
            (self.x[0] + i, self.lx[0] + i, self.l + i, self.v + i);
        self
    }
}

/// Where a node's neighbor across one side of one axis lives: in the
/// same block (local index), in the adjacent block (node index), or past
/// the guest's border.
enum Nb {
    Local(usize),
    Remote(usize),
    Border,
}

impl<const D: usize> Grid<D> {
    fn new(side: usize, sp: usize) -> Self {
        let b = side / sp;
        Grid {
            side,
            b,
            q: b.pow(D as u32),
            local: from_fn(|k| b.pow(k as u32)),
            global: from_fn(|k| side.pow(k as u32)),
            origin: (0..sp.pow(D as u32))
                .map(|pid| from_fn(|k| pid / sp.pow(k as u32) % sp * b))
                .collect(),
        }
    }

    /// Call `row` with the first node of every row along axis 0 of
    /// processor `pid`'s block, in local-index order.
    fn for_each_row(&self, pid: usize, mut row: impl FnMut(Node<D>)) {
        let mut lx = [0usize; D];
        for l in (0..self.local[D - 1]).map(|r| r * self.b) {
            let x: [usize; D] = from_fn(|k| self.origin[pid][k] + lx[k]);
            let v = (0..D).map(|k| x[k] * self.global[k]).sum();
            row(Node { x, lx, l, v });
            for xk in lx.iter_mut().skip(1) {
                *xk += 1;
                if *xk < self.b {
                    break;
                }
                *xk = 0;
            }
        }
    }

    /// The neighbor of `nd` one step down (`up = false`) or up axis `k`.
    #[inline]
    fn neighbor(&self, nd: Node<D>, k: usize, up: bool) -> Nb {
        let (lx, x) = (nd.lx[k], nd.x[k]);
        match up {
            true if lx + 1 < self.b => Nb::Local(nd.l + self.local[k]),
            true if x + 1 < self.side => Nb::Remote(nd.v + self.global[k]),
            false if lx > 0 => Nb::Local(nd.l - self.local[k]),
            false if x > 0 => Nb::Remote(nd.v - self.global[k]),
            _ => Nb::Border,
        }
    }

    /// In-block neighbors of local node `l`: the previous plane is read
    /// at `l` by each of them and by `l` itself.
    fn degree(&self, l: usize) -> u64 {
        let deg = |xk: usize| u64::from(xk > 0) + u64::from(xk + 1 < self.b);
        self.local.iter().map(|&s| deg(l / s % self.b)).sum()
    }

    /// Words processor `pid` sends per stage: each border node's value,
    /// to the adjacent block across each side that has one.
    fn outbound(&self, pid: usize) -> usize {
        let faces: usize = (self.origin[pid].iter())
            .map(|&o| usize::from(o > 0) + usize::from(o + self.b < self.side))
            .sum();
        faces * self.local[D - 1]
    }
}

/// What one stage's processor tasks share.
struct Stage<'a, P, const D: usize> {
    grid: &'a Grid<D>,
    prog: &'a P,
    t: i64,
    hop: f64,
    /// Global mirrors of the previous values and of this stage's.
    prev: &'a [Word],
    next: DisjointSlice<'a, Word>,
    row_prev: usize,
    row_next: usize,
}

/// One processor's memory and charges in a tiled stage (whole table,
/// previous plane, next plane), with its running sums: the chain-mode
/// access register, the exact-mode block-address sum, comm, messages.
struct Tile<'a> {
    blocks: &'a mut [Word],
    pprev: &'a [Word],
    pnext: &'a mut [Word],
    cb: &'a [f64],
    cbp: &'a [f64],
    cbn: &'a [f64],
    acc: f64,
    addr_sum: u64,
    comm: f64,
    msgs: u64,
}

impl<P: Guest<D>, const D: usize> Stage<'_, P, D> {
    /// Publish `out` as node `v`'s value this stage.
    #[inline]
    fn publish(&self, v: usize, out: Word) {
        // Safety: node v sits in exactly one processor's block, and
        // only that processor's task writes it.
        unsafe { *self.next.get_mut(v) = out }
    }

    /// Processor `pid`'s stage, one charged `Hram` access at a time in
    /// the order own, `x_k ∓ 1` for each axis, mine, write own, write
    /// next.  Returns comm and messages received.
    fn scalar(&self, pid: usize, ram: &mut Hram) -> (f64, u64) {
        let (prog, t, m) = (self.prog, self.t, self.prog.m());
        let (mut comm, mut msgs) = (0.0, 0u64);
        self.grid.for_each_row(pid, |row| {
            for nd in (0..self.grid.b).map(|i| row.east(i)) {
                let a = nd.l * m + prog.cell(nd.x, t);
                let own = ram.read(a);
                let mut fetch = |k, up| match self.grid.neighbor(nd, k, up) {
                    Nb::Local(l) => ram.read(self.row_prev + l),
                    Nb::Remote(v) => {
                        (comm, msgs) = (comm + self.hop, msgs + 1);
                        self.prev[v]
                    }
                    Nb::Border => prog.boundary(),
                };
                let nb = from_fn(|k| [fetch(k, false), fetch(k, true)]);
                let mine = ram.read(self.row_prev + nd.l);
                let out = prog.delta(nd.x, t, own, mine, nb);
                ram.compute();
                ram.write(a, out);
                ram.write(self.row_next + nd.l, out);
                self.publish(nd.v, out);
            }
        });
        (comm, msgs)
    }

    /// Processor `pid`'s stage metered through `table`: `CHAIN` replays
    /// [`Stage::scalar`]'s f64 additions in order in a register; exact
    /// mode sums block addresses (lossless for dyadic charges), and `M1`
    /// (exact mode at `m = 1`, a node's block being its previous value)
    /// defers the block stores.  A row interior on every other axis runs
    /// its two end points gated around a branch-free middle; border rows
    /// and blocks of side `b < 3` run every point gated.
    fn tiled<const CHAIN: bool, const M1: bool>(
        &self,
        pid: usize,
        ram: &mut Hram,
        table: &CostTable,
    ) -> (f64, u64, f64, u64) {
        let (b, q) = (self.grid.b, self.grid.q);
        ram.reserve_table(table);
        let acc = ram.meter.access;
        let cb = table.charges();
        let (blocks, planes) = ram.mem_table(table).split_at_mut(q * self.prog.m());
        let (pa, pb) = planes.split_at_mut(q);
        let (pprev, pnext) = match self.row_prev < self.row_next {
            true => (&*pa, pb),
            false => (&*pb, pa),
        };
        let (cbp, cbn) = (&cb[self.row_prev..][..q], &cb[self.row_next..][..q]);
        // At m = 1 node l's block address is l in every stage.
        let addr_sum = if M1 { (q * (q - 1) / 2) as u64 } else { 0 };
        let mut tile = Tile {
            blocks,
            pprev,
            pnext,
            cb,
            cbp,
            cbn,
            acc,
            addr_sum,
            comm: 0.0,
            msgs: 0,
        };
        self.grid.for_each_row(pid, |row| {
            if b >= 3 && row.lx[1..].iter().all(|&c| (1..b - 1).contains(&c)) {
                self.point::<CHAIN, M1>(&mut tile, row);
                self.middle::<CHAIN, M1>(&mut tile, row);
                self.point::<CHAIN, M1>(&mut tile, row.east(b - 1));
            } else {
                for i in 0..b {
                    self.point::<CHAIN, M1>(&mut tile, row.east(i));
                }
            }
        });
        (tile.acc, tile.addr_sum, tile.comm, tile.msgs)
    }

    /// One gated point of [`Stage::tiled`].  Block-face nodes all pass
    /// here, so each publishes its value to the global mirror.
    #[inline(always)]
    fn point<const CHAIN: bool, const M1: bool>(&self, tile: &mut Tile, nd: Node<D>) {
        let (prog, t, l) = (self.prog, self.t, nd.l);
        let mine = tile.pprev[l];
        let (own, a) = match M1 {
            true => (mine, l),
            false => {
                let a = l * prog.m() + prog.cell(nd.x, t);
                (tile.blocks[a], a)
            }
        };
        if CHAIN {
            tile.acc += tile.cb[a];
        }
        let mut nb = [[prog.boundary(); 2]; D];
        for (k, pair) in nb.iter_mut().enumerate() {
            for (side, up) in [false, true].into_iter().enumerate() {
                match self.grid.neighbor(nd, k, up) {
                    Nb::Local(ln) => {
                        if CHAIN {
                            tile.acc += tile.cbp[ln];
                        }
                        pair[side] = tile.pprev[ln];
                    }
                    Nb::Remote(vn) => {
                        (tile.comm, tile.msgs) = (tile.comm + self.hop, tile.msgs + 1);
                        pair[side] = self.prev[vn];
                    }
                    Nb::Border => {}
                }
            }
        }
        if CHAIN {
            tile.acc += tile.cbp[l];
        }
        let out = prog.delta(nd.x, t, own, mine, nb);
        if !M1 {
            if CHAIN {
                tile.acc += tile.cb[a];
            } else {
                tile.addr_sum += a as u64;
            }
            tile.blocks[a] = out;
        }
        if CHAIN {
            tile.acc += tile.cbn[l];
        }
        tile.pnext[l] = out;
        self.publish(nd.v, out);
    }

    /// The branch-free middle `1..b−1` of the interior row starting at
    /// `row`: every neighbor is in the block, and no value leaves it
    /// this stage.  Axis 0 walks the row's west / centre / east strips;
    /// the other axes index the previous plane `b^k` away.
    #[inline]
    fn middle<const CHAIN: bool, const M1: bool>(&self, tile: &mut Tile, row: Node<D>) {
        fn strips<T>(r: &[T]) -> (&[T], &[T], &[T]) {
            (&r[..r.len() - 2], &r[1..r.len() - 1], &r[2..])
        }
        let (prog, t, b, m, l0) = (self.prog, self.t, self.grid.b, self.prog.m(), row.l);
        let (pprev, cbp, local) = (tile.pprev, tile.cbp, self.grid.local);
        let (west, centre, east) = strips(&pprev[l0..l0 + b]);
        let (cw, cc, ce) = strips(&cbp[l0..l0 + b]);
        let next = &mut tile.pnext[l0 + 1..l0 + b - 1];
        let cn = &tile.cbn[l0 + 1..l0 + b - 1];
        let (mut acc, mut addr_sum) = (tile.acc, tile.addr_sum);
        let strip = west.iter().zip(centre).zip(east).zip(next);
        for (j, (((&w, &mine), &e), next)) in strip.enumerate() {
            let (mut x, l) = (row.x, l0 + j + 1);
            x[0] += j + 1;
            let (own, a) = match M1 {
                true => (mine, 0),
                false => {
                    let a = l * m + prog.cell(x, t);
                    (tile.blocks[a], a)
                }
            };
            let mut nb = [[w, e]; D];
            for (pair, &stride) in nb.iter_mut().zip(&local).skip(1) {
                *pair = [pprev[l - stride], pprev[l + stride]];
            }
            if CHAIN {
                acc += tile.cb[a];
                acc += cw[j];
                acc += ce[j];
                for &stride in &local[1..] {
                    acc += cbp[l - stride];
                    acc += cbp[l + stride];
                }
                acc += cc[j];
            }
            let out = prog.delta(x, t, own, mine, nb);
            if !M1 {
                if CHAIN {
                    acc += tile.cb[a];
                } else {
                    addr_sum += a as u64;
                }
                tile.blocks[a] = out;
            }
            if CHAIN {
                acc += cn[j];
            }
            *next = out;
        }
        (tile.acc, tile.addr_sum) = (acc, addr_sum);
    }
}

fn run<const D: usize>(
    spec: &MachineSpec,
    prog: &(impl Guest<D> + Sync),
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
    scalar: bool,
) -> Result<SimReport, SimError> {
    // d = 1, 2 only: naive3 is `crate::naive3`'s one bulk stage.
    let kind = [EngineKind::Naive1, EngineKind::Naive2][D - 1];
    let mut host =
        StageHost::for_spec(kind, spec, steps, prog.m(), init.len(), &opts.plan, tracer)?;
    let grid = Grid::<D>::new(spec.mesh_side() as usize, spec.proc_side() as usize);
    let (n, p, b, q, m) = (spec.n as usize, spec.p as usize, grid.b, grid.q, prog.m());
    let access = spec.access_fn();

    // Per-processor H-RAM: blocks [0, q·m), value planes A and B above.
    // `prev` mirrors the previous values globally: it carries the
    // cross-processor reads, whose costs are charged explicitly.
    let (va, vb) = (q * m, q * m + q);
    let mut rams: Vec<Hram> = (0..p).map(|_| Hram::new(access, q * m + 2 * q)).collect();
    let mut prev = vec![0 as Word; n];
    for (pid, ram) in rams.iter_mut().enumerate() {
        grid.for_each_row(pid, |row| {
            for nd in (0..b).map(|i| row.east(i)) {
                for c in 0..m {
                    ram.poke(nd.l * m + c, init[nd.v * m + c]);
                }
                prev[nd.v] = init[nd.v * m + prog.cell(nd.x, 0)];
                ram.poke(va + nd.l, prev[nd.v]);
            }
        });
    }
    let mut next = vec![0 as Word; n];
    let (mut row_prev, mut row_next) = (va, vb);

    // Plan-time cost table over the per-processor address space, and its
    // exact-dyadic unit view where the charges allow (bsmp_hram::table).
    // A stage's plane charges depend only on which plane is "previous",
    // so exact mode sums them once here.
    let table = CostTable::new(access, q * m + 2 * q);
    let per_proc_accesses = (steps.max(0) as u64)
        .saturating_mul(4 + 2 * D as u64)
        .saturating_mul(q as u64);
    let exact = table
        .exact_units()
        .filter(|_| table.units_budget_ok(per_proc_accesses))
        .map(|e| {
            let plane = |rp: usize, rn: usize| -> u64 {
                (0..q)
                    .map(|l| (1 + grid.degree(l)) * e.units(rp + l) + e.units(rn + l))
                    .sum()
            };
            (e, [plane(va, vb), plane(vb, va)])
        });
    let m1 = !scalar && m == 1 && exact.is_some();
    // Every point reads own + mine and writes twice; each axis adds two
    // in-block reads per point but the block's two faces across it.
    let accesses = 4 * q as u64 + 2 * D as u64 * (q - q / b) as u64;
    let mut units_total: Vec<u64> = vec![0; p];

    // Host processors are independent within a stage (each owns its
    // H-RAM), so they run on the worker pool when the work pays for it.
    let pool = naive_pool(p, q, opts.exec);
    let hop = spec.neighbor_distance();
    for t in 1..=steps {
        host.begin_stage("step", &rams);
        let parity = usize::from(row_prev != va);
        let mirror = DisjointSlice::new(&mut next);
        let stage = Stage {
            grid: &grid,
            prog,
            t,
            hop,
            prev: &prev,
            next: mirror,
            row_prev,
            row_next,
        };
        let rams_slots = DisjointSlice::new(&mut rams);
        let units_slots = DisjointSlice::new(&mut units_total);
        host.run_tasks(&pool, |pid, tally: Option<&StageTally>| {
            // Safety: processor pid is claimed by exactly one thread; its
            // H-RAM and its unit accumulator are touched by no one else
            // this stage.
            let ram = unsafe { rams_slots.get_mut(pid) };
            let t0 = ram.time();
            let (comm, msgs) = if scalar {
                stage.scalar(pid, ram)
            } else {
                let (acc, addr_sum, comm, msgs) = match (exact, m1) {
                    (None, _) => stage.tiled::<true, false>(pid, ram, &table),
                    (Some(_), false) => stage.tiled::<false, false>(pid, ram, &table),
                    (Some(_), true) => stage.tiled::<false, true>(pid, ram, &table),
                };
                ram.meter.access = match exact {
                    Some((e, plane_units)) => {
                        let units = unsafe { units_slots.get_mut(pid) };
                        let (base, slope) = e.affine();
                        *units += 2 * q as u64 * base + 2 * slope * addr_sum + plane_units[parity];
                        e.time(*units)
                    }
                    None => acc,
                };
                ram.meter.ops += accesses;
                ram.meter.add_table_hits(accesses);
                ram.meter.add_compute(q as f64);
                (comm, msgs)
            };
            let out = grid.outbound(pid);
            if let Some(tl) = tally {
                tl.add(pid, q as u64, msgs + out as u64);
            }
            ram.meter.add_comm(comm + out as f64 * hop);
            ram.time() - t0
        })?;
        host.close_stage(pool.threads(), &rams)?;
        std::mem::swap(&mut prev, &mut next);
        std::mem::swap(&mut row_prev, &mut row_next);
    }

    // The tiled kernels publish only block-face values to the global
    // mirror per stage (no other value is read across processors); the
    // final plane publishes the rest here, and under `m1` it is the final
    // block content too.  Then collect the outputs (uncharged: the blocks
    // already sit in the guest's natural layout).
    let mut mem = vec![0 as Word; n * m];
    for (pid, ram) in rams.iter_mut().enumerate() {
        let words = ram.mem_table(&table);
        if m1 {
            words.copy_within(row_prev..row_prev + q, 0);
        }
        grid.for_each_row(pid, |row| {
            let (l, v) = (row.l, row.v);
            prev[v..v + b].copy_from_slice(&words[row_prev + l..][..b]);
            mem[v * m..(v + b) * m].copy_from_slice(&words[l * m..(l + b) * m]);
        });
    }
    let guest_time = guest_time::<D>(spec, prog, steps);
    Ok(host.finish_procs(mem, prev, guest_time, &rams))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_faults::FaultPlan;
    use bsmp_machine::{run_guest, LinearProgram, MeshProgram};
    use bsmp_workloads::{
        inputs, CyclicWave, Eca, HeatDiffusion, OddEvenSort, SystolicMatmul, TokenShift,
        VonNeumannLife,
    };

    fn check_equiv(
        prog: &impl LinearProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(1, n, p, prog.m() as u64);
        let guest = run_guest::<1>(&spec, prog, init, steps);
        let rep = simulate_naive::<1>(&spec, prog, init, steps);
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
            let rep = simulate_naive::<1>(&spec, &Eca::rule90(), &init, n as i64);
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
        let a = simulate_naive::<1>(&spec, &Eca::rule110(), &init, 8);
        let b = simulate_naive::<1>(&spec, &Eca::rule110(), &init, 8);
        assert_eq!(a.values, b.values);
        assert!(
            (a.host_time - b.host_time).abs() < 1e-9,
            "threaded cost deterministic"
        );
        let guest = run_guest::<1>(&spec, &Eca::rule110(), &init, 8);
        a.assert_matches(&guest.mem, &guest.values);
    }

    #[test]
    fn stage_count_equals_steps() {
        let init = inputs::random_bits(10, 16);
        let spec = MachineSpec::new(1, 16, 4, 1);
        let rep = simulate_naive::<1>(&spec, &Eca::rule90(), &init, 10);
        assert_eq!(rep.stages, 10);
    }

    #[test]
    fn linear_try_variant_reports_bad_parameters() {
        let run = |spec: &MachineSpec, init: &[Word], plan| {
            let opts = RunOpts {
                plan,
                ..RunOpts::default()
            };
            try_simulate_naive::<1>(spec, &Eca::rule90(), init, 4, opts, &mut Tracer::off())
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
    fn linear_uniform_slowdown_stays_within_nu_envelope() {
        let init = inputs::random_bits(14, 64);
        let spec = MachineSpec::new(1, 64, 8, 1);
        let base = simulate_naive::<1>(&spec, &Eca::rule110(), &init, 32);
        for nu in [1.0, 2.0, 4.0] {
            let opts = RunOpts {
                plan: FaultPlan::uniform_slowdown(nu),
                ..RunOpts::default()
            };
            let rep = try_simulate_naive::<1>(
                &spec,
                &Eca::rule110(),
                &init,
                32,
                opts,
                &mut Tracer::off(),
            )
            .unwrap();
            rep.assert_matches(&base.mem, &base.values);
            assert!(rep.host_time >= base.host_time - 1e-9);
            assert!(rep.host_time <= nu * base.host_time + 1e-6, "ν = {nu}");
        }
    }

    fn check_equiv_mesh(
        prog: &impl MeshProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(2, n, p, prog.m() as u64);
        let guest = run_guest::<2>(&spec, prog, init, steps);
        let rep = simulate_naive::<2>(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn life_matches_direct_execution() {
        let init = inputs::random_bits(11, 64);
        for p in [1u64, 4, 16, 64] {
            check_equiv_mesh(&VonNeumannLife::fredkin(), 64, p, 8, &init);
        }
    }

    #[test]
    fn heat_matches_direct_execution() {
        let init = inputs::random_words(12, 64, 10_000);
        check_equiv_mesh(&HeatDiffusion::new(0), 64, 4, 10, &init);
    }

    #[test]
    fn systolic_matmul_on_host() {
        let s = 4usize;
        let prog = SystolicMatmul::new(s);
        let a = inputs::random_matrix(13, s, 50);
        let b = inputs::random_matrix(14, s, 50);
        let init = prog.stage_inputs(&a, &b);
        let rep = check_equiv_mesh(&prog, (s * s) as u64, 4, prog.steps(), &init);
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
        let s1 = check_equiv_mesh(&VonNeumannLife::fredkin(), n, 1, steps, &init).slowdown();
        let s16 = check_equiv_mesh(&VonNeumannLife::fredkin(), n, 16, steps, &init).slowdown();
        let ratio = s1 / s16;
        // (n/1)^{3/2} / (n/16)^{3/2} = 16^{3/2} = 64.
        assert!(ratio > 20.0 && ratio < 200.0, "expected ~64×, got {ratio}");
    }

    #[test]
    fn mesh_uniform_slowdown_stays_within_nu_envelope() {
        let init = inputs::random_bits(16, 64);
        let spec = MachineSpec::new(2, 64, 4, 1);
        let prog = VonNeumannLife::fredkin();
        let base = simulate_naive::<2>(&spec, &prog, &init, 8);
        for nu in [1.0, 2.0, 4.0] {
            let opts = RunOpts {
                plan: FaultPlan::uniform_slowdown(nu),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_naive::<2>(&spec, &prog, &init, 8, opts, &mut Tracer::off()).unwrap();
            rep.assert_matches(&base.mem, &base.values);
            assert!(rep.host_time >= base.host_time - 1e-9);
            assert!(rep.host_time <= nu * base.host_time + 1e-6, "ν = {nu}");
        }
    }

    #[test]
    fn mesh_try_variant_reports_bad_parameters() {
        let run = |spec: &MachineSpec, init: &[Word]| {
            let (prog, opts) = (VonNeumannLife::fredkin(), RunOpts::default());
            try_simulate_naive::<2>(spec, &prog, init, 4, opts, &mut Tracer::off())
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
