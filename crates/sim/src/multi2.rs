//! **Theorem 1, `d = 2`** — multiprocessor simulation of the mesh
//! `M_2(n, n, m)` by `M_2(n, p, m)`.
//!
//! The paper proves the `d = 2` multiprocessor case by an orchestration
//! "closely patterned" on Section 4.2 but published only in the
//! technical report \[BP95a\], which is not available.  This engine
//! implements the *block-banded* generalization of Figure 2 — the
//! analogue of the first multiprocessor scheme of §4.2:
//!
//! * processor `(I, J)` of the `√p × √p` host grid owns the `b × b`
//!   guest sub-mesh with `b = √(n/p)`; its nodes' private memories live
//!   in its local H-RAM;
//! * space-time is covered by the octahedron/tetrahedron cells of radius
//!   `b/2` (the Theorem-5 honeycomb), executed in topological order;
//!   each cell is executed by the processor owning its center, with the
//!   full Theorem-5 recursion ([`CellExec`]) on that processor's H-RAM;
//! * cells bridging two blocks (the tetrahedra of the honeycomb, ~1/3 of
//!   the volume) borrow the foreign pillars' private memories and
//!   boundary values, charged at `words × hops × √(n/p)` — which stays a
//!   lower-order term of the locality slowdown (the borrowed state is
//!   `O(m)` per pillar once per `Θ(b)` steps).
//!
//! This reproduces Theorem 1's `d = 2` bound for `m ≥ (n/p)^{1/4}`
//! (ranges 2–4, where the paper's own `s*` equals the block/band scale);
//! for very small `m` the full rearranged scheme would shave a further
//! factor (range 1), which we document as out of scope along with
//! \[BP95a\].  The analytic four-range `A` is available in
//! `bsmp_analytic::theorem1` for comparison (experiment E5).

use bsmp_machine::FxHashMap;

use bsmp_faults::{FaultEnv, FaultPlan, FaultSession};
use bsmp_geometry::{cell_cover, ClippedDomain2, Domain2, IBox, Pt3};
use bsmp_hram::{AccessFn, Word};
use bsmp_machine::{
    lease_scratch, mesh_guest_time, CoreKind, EventQueue, MachineSpec, MeshProgram, ScratchLease,
    StageClock,
};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::error::SimError;
use crate::execd::{CellExec, CellPlans};
use crate::report::SimReport;
use crate::zone::ZoneAlloc;
use crate::{settle_scenario, stage_totals, RunOpts};

/// Simulate `steps` guest steps of `M_2(n, n, m)` on `M_2(n, p, m)`
/// by the block-banded honeycomb scheme, with preconditions checked.
/// Reads `opts.plan` and `opts.core`: the dense cell loop or the
/// discrete-event calendar that drains honeycomb cells by
/// projection-center time sum.  Reports are bit-identical across
/// cores.  The tracer observes each honeycomb stage row; the report is
/// bit-identical either way.
pub fn try_simulate_multi2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let expected = spec.n as usize * prog.m();
    if init.len() != expected {
        return Err(SimError::InitLength {
            expected,
            got: init.len(),
        });
    }
    opts.plan.validate()?;
    let mut eng = Engine2::new(spec, prog, steps, &opts.plan, opts.core)?;
    eng.tracer = std::mem::take(tracer);
    eng.tracer.ensure_procs(spec.p as usize);
    let rep = eng.run(init).and_then(|()| eng.finish(spec, prog, steps));
    *tracer = std::mem::take(&mut eng.tracer);
    rep
}

/// [`try_simulate_multi2`] with default options; panics on invalid
/// parameters.
pub fn simulate_multi2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_multi2(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("multi2: {e}"))
}

struct Engine2<'a, P: MeshProgram> {
    side: usize,
    sp: usize,
    b: usize,
    m: usize,
    t_steps: i64,
    hop: f64,
    cbox: IBox,
    execs: Vec<CellExec<'a, Domain2, P, 2>>,
    /// Shape plans shared by all `execs` (lent to the executing one).
    plans: CellPlans<2>,
    prog: &'a P,
    vals: FxHashMap<Pt3, Word>,
    /// value → (proc, addr) in that proc's value-home zone.
    home: FxHashMap<Pt3, (usize, usize)>,
    home_zones: Vec<ZoneAlloc>,
    transit_zones: Vec<ZoneAlloc>,
    clock: StageClock,
    /// Reusable stage buffers (snapshots + deltas), allocated once.
    scratch: ScratchLease,
    session: FaultSession,
    tracer: Tracer,
    tile_space: usize,
    state_base: usize,
    core: CoreKind,
}

impl<'a, P: MeshProgram> Engine2<'a, P> {
    fn new(
        spec: &MachineSpec,
        prog: &'a P,
        steps: i64,
        plan: &FaultPlan,
        core: CoreKind,
    ) -> Result<Self, SimError> {
        if spec.d != 2 {
            return Err(SimError::DimensionMismatch {
                expected: 2,
                got: spec.d,
            });
        }
        let side = spec.mesh_side() as usize;
        let sp = spec.proc_side() as usize;
        let m = prog.m();
        if m as u64 != spec.m {
            return Err(SimError::DensityMismatch {
                spec_m: spec.m,
                prog_m: m as u64,
            });
        }
        if !side.is_multiple_of(sp) {
            return Err(SimError::IndivisibleMeshSide {
                side: side as u64,
                proc_side: sp as u64,
            });
        }
        let b = side / sp;
        if b < 2 {
            return Err(SimError::BlockTooSmall { block: b as u64 });
        }
        let cbox = IBox::new(0, side as i64, 0, side as i64, 1, steps + 1);

        // Each processor runs the Theorem-5 recursion on its own H-RAM,
        // metered like the uniprocessor host's.
        let access = AccessFn::new(2, spec.m);
        let leaf = (m as i64 / 2).max(1);
        let new_exec = || CellExec::new(side as i64, access, prog, steps, leaf);
        let interior = Domain2::octahedron(
            (side / 2) as i64,
            (side / 2) as i64,
            (steps / 2).max(1),
            (b / 2).max(1) as i64,
        );
        let tile_space = new_exec().space(&interior) * 2 + 128;
        let transit_cap = 8 * b * b * m + 32 * b * b + 1024;
        let home_cap = 16 * b * b + 8 * b + 512;
        let transit_base = tile_space;
        let home_base = transit_base + transit_cap;
        let state_base = home_base + home_cap;
        let _ = transit_base;

        let execs = (0..sp * sp)
            .map(|_| {
                let mut e = new_exec();
                e.cover(state_base + b * b * m);
                e
            })
            .collect();
        let home_zones = (0..sp * sp)
            .map(|_| ZoneAlloc::new(home_base, home_cap))
            .collect();
        let transit_zones = (0..sp * sp)
            .map(|_| ZoneAlloc::new(transit_base, transit_cap))
            .collect();

        let hop = spec.neighbor_distance();
        let session = FaultSession::new(
            plan,
            FaultEnv {
                p: sp * sp,
                hop,
                checkpoint_words: spec.node_mem(),
                proc_side: sp,
            },
        );
        Ok(Engine2 {
            side,
            sp,
            b,
            m,
            t_steps: steps,
            hop,
            cbox,
            execs,
            plans: CellPlans::default(),
            prog,
            vals: FxHashMap::default(),
            home: FxHashMap::default(),
            home_zones,
            transit_zones,
            clock: StageClock::new(),
            scratch: lease_scratch(sp * sp),
            session,
            tracer: Tracer::off(),
            tile_space,
            state_base,
            core,
        })
    }

    #[inline]
    fn proc_of_node(&self, x: i64, y: i64) -> usize {
        let bx = (x as usize).min(self.side - 1) / self.b;
        let by = (y as usize).min(self.side - 1) / self.b;
        by * self.sp + bx
    }

    /// Manhattan distance between two processors on the host grid.
    fn proc_hops(&self, a: usize, c: usize) -> f64 {
        let (ax, ay) = (a % self.sp, a / self.sp);
        let (cx, cy) = (c % self.sp, c / self.sp);
        ((ax as i64 - cx as i64).abs() + (ay as i64 - cy as i64).abs()) as f64
    }

    /// Local home address of node `(x, y)`'s private-memory block on its
    /// own processor.
    fn state_home(&self, x: i64, y: i64) -> usize {
        let lx = (x as usize) % self.b;
        let ly = (y as usize) % self.b;
        self.state_base + (ly * self.b + lx) * self.m
    }

    /// Credit `points` space-time points and `msgs` messages to
    /// processor `pr` in the tracer's per-stage tally (no-op when off).
    #[inline]
    fn tmark(&self, pr: usize, points: u64, msgs: u64) {
        if let Some(tl) = self.tracer.tally() {
            tl.add(pr, points, msgs);
        }
    }

    /// Snapshot each processor's (total time, comm charge) into the
    /// reusable scratch — marks the start of a stage.
    fn begin_stage(&mut self, label: &str) {
        self.tracer.begin_stage(label);
        let scratch = &mut *self.scratch;
        for ((time, comm), e) in scratch
            .time_before
            .iter_mut()
            .zip(scratch.comm_before.iter_mut())
            .zip(&self.execs)
        {
            *time = e.ram.time();
            *comm = e.ram.meter.comm;
        }
    }

    /// Close the stage opened by the matching [`begin_stage`](Self::begin_stage).
    fn close_stage(&mut self) -> Result<(), SimError> {
        let scratch = &mut *self.scratch;
        for (((delta, comm), e), (t0, c0)) in scratch
            .per_proc
            .iter_mut()
            .zip(scratch.per_comm.iter_mut())
            .zip(&self.execs)
            .zip(scratch.time_before.iter().zip(&scratch.comm_before))
        {
            *delta = e.ram.time() - t0;
            *comm = e.ram.meter.comm - c0;
        }
        self.clock.add_stage_faulted(
            &self.scratch.per_proc,
            &self.scratch.per_comm,
            &mut self.session,
        )?;
        self.tracer
            .end_stage(stage_totals(&self.clock, &self.session.stats), 1);
        Ok(())
    }

    fn outbound(&self, piece: &ClippedDomain2) -> Vec<Pt3> {
        let mut out = Vec::new();
        piece.for_each_point(|pt| {
            if pt.t == self.t_steps
                || pt
                    .succs()
                    .iter()
                    .any(|sq| self.cbox.contains(*sq) && !piece.contains(*sq))
            {
                out.push(pt);
            }
        });
        out
    }

    /// Fetch a value into processor `pr`'s transit zone (charging local
    /// accesses and inter-processor hops), returning the address.
    fn stage_value(&mut self, pt: Pt3, pr: usize) -> Result<usize, SimError> {
        let (owner, addr) = *self.home.get(&pt).ok_or(SimError::Internal {
            what: "preboundary value not homed",
        })?;
        let w = if let Some(&w) = self.vals.get(&pt) {
            w
        } else {
            self.execs[owner].ram.peek(addr)
        };
        let _ = self.execs[owner].ram.read(addr);
        if owner != pr {
            let hops = self.proc_hops(owner, pr);
            self.execs[owner].ram.meter.add_comm(hops * self.hop / 2.0);
            self.execs[pr].ram.meter.add_comm(hops * self.hop / 2.0);
            self.tmark(pr, 0, 1);
        }
        let dst = self.transit_zones[pr].alloc();
        self.execs[pr].ram.write(dst, w);
        Ok(dst)
    }

    /// Execute one honeycomb cell on its owner, lending the owner's
    /// executor the run's shared shape plans meanwhile.
    fn run_cell(&mut self, piece: &ClippedDomain2) -> Result<(), SimError> {
        if piece.points_count() == 0 {
            return Ok(());
        }
        let pr = self.proc_of_node(
            piece.cell.dx.cx.clamp(0, self.side as i64 - 1),
            piece.cell.dy.cx.clamp(0, self.side as i64 - 1),
        );
        self.execs[pr].swap_plans(&mut self.plans);
        let res = self.run_cell_on(piece, pr);
        self.execs[pr].swap_plans(&mut self.plans);
        res
    }

    fn run_cell_on(&mut self, piece: &ClippedDomain2, pr: usize) -> Result<(), SimError> {
        // Stage preboundary values (private copies, consumed by exec).
        let g = self.execs[pr].gamma(&piece.cell);
        let mut seeds = Vec::with_capacity(g.len());
        for &(t, [x, y]) in &g {
            let addr = self.stage_value(Pt3::new(x, y, t), pr)?;
            seeds.push(((t, [x, y]), addr));
        }

        // Stage pillar states (borrow foreign ones, charged).
        let mut state_seeds: Vec<((i64, i64), usize, usize, usize)> = Vec::new();
        if self.m > 1 {
            for [x, y] in self.execs[pr].pillars(&piece.cell) {
                let hpr = self.proc_of_node(x, y);
                let home_addr = self.state_home(x, y);
                let copy = self.transit_zones[pr].alloc_block(self.m);
                if hpr == pr {
                    self.execs[pr].ram.relocate_block(home_addr, copy, self.m);
                } else {
                    let hops = self.proc_hops(hpr, pr);
                    let c = self.m as f64 * hops * self.hop;
                    self.execs[hpr].ram.meter.add_comm(c / 2.0);
                    self.execs[pr].ram.meter.add_comm(c / 2.0);
                    self.tmark(pr, 0, self.m as u64);
                    for cc in 0..self.m {
                        let w = self.execs[hpr].ram.read(home_addr + cc);
                        self.execs[pr].ram.write(copy + cc, w);
                    }
                }
                state_seeds.push(((x, y), copy, home_addr, hpr));
            }
        }

        // Execute via the Theorem-5 recursion on the owner's H-RAM.  The
        // staged copies are the recursion's value directory (`gamma`
        // is sorted, so `seeds` already is); `want` is the outbound set
        // in sorted order, while the harvest below keeps the cell's
        // visit order (its charges follow it).
        let out_pts = self.outbound(piece);
        let mut want: Vec<_> = out_pts.iter().map(|p| (p.t, [p.x, p.y])).collect();
        want.sort_unstable();
        debug_assert!(seeds.windows(2).all(|w| w[0].0 < w[1].0));
        {
            let exec = &mut self.execs[pr];
            exec.clear_seeds();
            for ((x, y), addr, _, _) in &state_seeds {
                exec.seed_state([*x, *y], *addr);
            }
        }
        let space = self.execs[pr].space(&piece.cell);
        let mut zone = std::mem::replace(&mut self.transit_zones[pr], ZoneAlloc::new(0, 0));
        let mut out_addrs = Vec::with_capacity(want.len());
        let exec_res = if space > self.tile_space {
            Err(SimError::Internal {
                what: "cell footprint exceeds the tile budget",
            })
        } else {
            self.execs[pr].exec(&piece.cell, &want, &mut zone, &seeds, &mut out_addrs)
        };
        self.transit_zones[pr] = zone;
        exec_res?;
        if out_addrs.len() != want.len() {
            return Err(SimError::Internal {
                what: "cell output not parked",
            });
        }
        self.tmark(pr, piece.points_count() as u64, 0);

        // Harvest outbound values: persist them at the *consumer-side*
        // home (the processor owning the value's node).
        for pt in out_pts {
            let addr = want
                .binary_search(&(pt.t, [pt.x, pt.y]))
                .map(|i| out_addrs[i])
                .map_err(|_| SimError::Internal {
                    what: "cell output not parked",
                })?;
            let w = self.execs[pr].ram.peek(addr);
            let _ = self.execs[pr].ram.read(addr);
            self.transit_zones[pr].free_if_owned(addr);
            self.vals.insert(pt, w);
            let hpr = self.proc_of_node(pt.x, pt.y);
            if hpr != pr {
                let hops = self.proc_hops(hpr, pr);
                self.execs[pr].ram.meter.add_comm(hops * self.hop / 2.0);
                self.execs[hpr].ram.meter.add_comm(hops * self.hop / 2.0);
                self.tmark(pr, 0, 1);
            }
            if let Some((opr, oaddr)) = self.home.get(&pt).copied() {
                self.home_zones[opr].free(oaddr);
            }
            let dst = self.home_zones[hpr].alloc();
            self.execs[hpr].ram.write(dst, w);
            self.home.insert(pt, (hpr, dst));
        }

        // Return borrowed states.
        if self.m > 1 {
            for ((x, y), copy, home_addr, hpr) in state_seeds {
                let parked = self.execs[pr]
                    .state_addr([x, y])
                    .ok_or(SimError::Internal {
                        what: "pillar state not parked",
                    })?;
                if hpr == pr {
                    self.execs[pr].ram.relocate_block(parked, home_addr, self.m);
                } else {
                    let hops = self.proc_hops(hpr, pr);
                    let c = self.m as f64 * hops * self.hop;
                    self.execs[hpr].ram.meter.add_comm(c / 2.0);
                    self.execs[pr].ram.meter.add_comm(c / 2.0);
                    self.tmark(pr, 0, self.m as u64);
                    for cc in 0..self.m {
                        let w = self.execs[pr].ram.read(parked + cc);
                        self.execs[hpr].ram.write(home_addr + cc, w);
                    }
                }
                self.transit_zones[pr].free_block(parked, self.m);
                let _ = copy;
            }
        }
        self.execs[pr].clear_seeds();
        Ok(())
    }

    fn run(&mut self, init: &[Word]) -> Result<(), SimError> {
        // Lay out the guest image (uncharged: problem statement).
        let side = self.side;
        let m = self.m;
        for y in 0..side {
            for x in 0..side {
                let pr = self.proc_of_node(x as i64, y as i64);
                let base = self.state_home(x as i64, y as i64);
                for c in 0..m {
                    self.execs[pr]
                        .ram
                        .poke(base + c, init[(y * side + x) * m + c]);
                }
                // Input-row value: a view into the state home.
                let p0 = Pt3::new(x as i64, y as i64, 0);
                self.home.insert(p0, (pr, base + self.prog.cell(x, y, 0)));
            }
        }
        if self.t_steps == 0 {
            return Ok(());
        }

        let hb = (self.b / 2).max(1) as i64;
        let cells = cell_cover(self.cbox, hb, Pt3::new(0, 0, 0));
        // Stage rows: group by the projection-center time sum.
        self.begin_stage("cells");
        match self.core {
            CoreKind::Dense => {
                let mut last_key = i64::MIN;
                for cell in cells {
                    let key = cell.cell.dx.ct + cell.cell.dy.ct;
                    if key != last_key && last_key != i64::MIN {
                        self.close_stage()?;
                        self.begin_stage("cells");
                        self.gc(key / 2 - 2 * hb)?;
                    }
                    last_key = key;
                    self.run_cell(&cell)?;
                }
            }
            CoreKind::Event => {
                // Calendar drain keyed by the projection-center time sum.
                // The cover is sorted by (key, dx.cx, dy.cx) and buckets
                // pop FIFO, so each popped bucket is exactly one dense
                // stage row in the dense order — meters stay
                // bit-identical.
                let mut cal = EventQueue::new();
                for cell in cells {
                    cal.schedule(cell.cell.dx.ct + cell.cell.dy.ct, cell);
                }
                let mut first = true;
                while let Some((key, row)) = cal.pop_stage() {
                    if !first {
                        self.close_stage()?;
                        self.begin_stage("cells");
                        self.gc(key / 2 - 2 * hb)?;
                    }
                    first = false;
                    for cell in &row {
                        self.run_cell(cell)?;
                    }
                }
            }
        }
        self.close_stage()?;
        Ok(())
    }

    /// Drop home values below the reachable horizon.
    fn gc(&mut self, cutoff: i64) -> Result<(), SimError> {
        let mut dead: Vec<Pt3> = self
            .home
            .keys()
            .copied()
            .filter(|pt| pt.t < cutoff && pt.t != self.t_steps && pt.t > 0)
            .collect();
        dead.sort();
        for pt in dead {
            let (pr, addr) = self.home.remove(&pt).ok_or(SimError::Internal {
                what: "home placement missing for a dead value",
            })?;
            self.home_zones[pr].free(addr);
        }
        Ok(())
    }

    fn finish(
        &mut self,
        spec: &MachineSpec,
        prog: &impl MeshProgram,
        steps: i64,
    ) -> Result<SimReport, SimError> {
        let side = self.side;
        let m = self.m;
        // Final write-back for m = 1 (value is the state).
        if m == 1 && steps > 0 {
            self.begin_stage("writeback");
            for y in 0..side {
                for x in 0..side {
                    let pt = Pt3::new(x as i64, y as i64, steps);
                    let (pr, addr) = *self.home.get(&pt).ok_or(SimError::Internal {
                        what: "final value not homed",
                    })?;
                    let w = self.vals[&pt];
                    let _ = self.execs[pr].ram.read(addr);
                    let hpr = self.proc_of_node(x as i64, y as i64);
                    let dst = self.state_home(x as i64, y as i64);
                    self.execs[hpr].ram.write(dst, w);
                }
            }
            self.close_stage()?;
        }
        settle_scenario(&mut self.clock, &mut self.session, &mut self.tracer, 1);
        let mut mem = vec![0 as Word; side * side * m];
        for y in 0..side {
            for x in 0..side {
                let pr = self.proc_of_node(x as i64, y as i64);
                let base = self.state_home(x as i64, y as i64);
                for c in 0..m {
                    mem[(y * side + x) * m + c] = self.execs[pr].ram.peek(base + c);
                }
            }
        }
        let values: Vec<Word> = if steps == 0 {
            (0..side * side)
                .map(|v| mem[v * m + self.prog.cell(v % side, v / side, 0)])
                .collect()
        } else {
            (0..side * side)
                .map(|v| self.vals[&Pt3::new((v % side) as i64, (v / side) as i64, steps)])
                .collect()
        };
        let meter = self
            .execs
            .iter()
            .fold(bsmp_hram::CostMeter::new(), |acc, e| {
                acc.merged(&e.ram.meter)
            });
        let guest_time = mesh_guest_time(spec, prog, steps);
        self.tracer.finish_run(
            RunMeta {
                engine: EngineKind::Multi2,
                d: 2,
                n: spec.n,
                m: spec.m,
                p: spec.p,
                steps: steps.max(0) as u64,
            },
            self.clock.parallel_time,
            guest_time,
        );
        Ok(SimReport {
            mem,
            values,
            host_time: self.clock.parallel_time,
            guest_time,
            meter,
            space: self
                .execs
                .iter()
                .map(|e| e.ram.high_water())
                .max()
                .unwrap_or(0),
            stages: self.clock.stages,
            faults: self.session.stats.clone(),
            core_fallback: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_mesh;
    use bsmp_workloads::{inputs, HeatDiffusion, SystolicMatmul, VonNeumannLife};

    #[test]
    fn over_budget_cell_is_a_typed_error() {
        let spec = MachineSpec::new(2, 64, 4, 1);
        let init = inputs::random_bits(42, 64);
        let prog = VonNeumannLife::fredkin();
        let mut eng = Engine2::new(&spec, &prog, 16, &FaultPlan::none(), CoreKind::Dense).unwrap();
        eng.tile_space = 0;
        assert!(matches!(
            eng.run(&init),
            Err(SimError::Internal {
                what: "cell footprint exceeds the tile budget"
            })
        ));
    }

    fn check_equiv(
        prog: &impl MeshProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(2, n, p, prog.m() as u64);
        let guest = run_mesh(&spec, prog, init, steps);
        let rep = simulate_multi2(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn life_multiproc() {
        let init = inputs::random_bits(50, 64);
        for p in [1u64, 4, 16] {
            check_equiv(&VonNeumannLife::fredkin(), 64, p, 8, &init);
        }
    }

    #[test]
    fn heat_multiproc() {
        let init = inputs::random_words(51, 64, 5_000);
        check_equiv(&HeatDiffusion::new(10), 64, 4, 6, &init);
    }

    #[test]
    fn nonsquare_times() {
        let init = inputs::random_bits(52, 64);
        for steps in [1i64, 3, 13] {
            check_equiv(&VonNeumannLife::b2s12(), 64, 4, steps, &init);
        }
    }

    #[test]
    fn systolic_matmul_multiproc() {
        let s = 4usize;
        let prog = SystolicMatmul::new(s);
        let a = inputs::random_matrix(53, s, 40);
        let b = inputs::random_matrix(54, s, 40);
        let init = prog.stage_inputs(&a, &b);
        let rep = check_equiv(&prog, (s * s) as u64, 4, prog.steps(), &init);
        let c = prog.extract_c(&rep.values);
        for r in 0..s {
            for q in 0..s {
                let expect: u64 = (0..s).map(|k| a[r][k] * b[k][q]).sum();
                assert_eq!(c[r][q], expect);
            }
        }
    }

    #[test]
    fn locality_shape_beats_naive_growth() {
        // Theorem 1 d = 2 shape: the D&C host's locality slowdown grows
        // far slower than the naive (n/p)^{1/2} law.
        let p = 4u64;
        let a_of = |side: u64| {
            let n = side * side;
            let init = inputs::random_bits(55, n as usize);
            let steps = (side / 2) as i64;
            let spec = MachineSpec::new(2, n, p, 1);
            let rep = simulate_multi2(&spec, &VonNeumannLife::fredkin(), &init, steps);
            let naive =
                crate::naive2::simulate_naive2(&spec, &VonNeumannLife::fredkin(), &init, steps);
            (rep.locality_slowdown(n, p), naive.locality_slowdown(n, p))
        };
        let (two_a, naive_a) = a_of(16);
        let (two_b, naive_b) = a_of(32);
        let naive_growth = naive_b / naive_a;
        let two_growth = two_b / two_a;
        assert!(
            two_growth < naive_growth,
            "D&C growth ×{two_growth} must undercut naive ×{naive_growth}"
        );
    }

    #[test]
    fn uniform_slowdown_stays_within_nu_envelope() {
        let init = inputs::random_bits(56, 64);
        let spec = MachineSpec::new(2, 64, 4, 1);
        let prog = VonNeumannLife::fredkin();
        let base = simulate_multi2(&spec, &prog, &init, 6);
        for nu in [1.0f64, 2.0, 4.0] {
            let opts = RunOpts {
                plan: bsmp_faults::FaultPlan::uniform_slowdown(nu),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_multi2(&spec, &prog, &init, 6, opts, &mut Tracer::off()).unwrap();
            rep.assert_matches(&base.mem, &base.values);
            assert!(
                base.host_time <= rep.host_time + 1e-9
                    && rep.host_time <= nu * base.host_time + 1e-6,
                "ν={nu}: {} vs base {}",
                rep.host_time,
                base.host_time
            );
            if nu == 1.0 {
                assert_eq!(rep.host_time.to_bits(), base.host_time.to_bits());
            }
        }
    }

    #[test]
    fn try_variant_reports_bad_parameters() {
        let prog = VonNeumannLife::fredkin();
        let init = inputs::random_bits(57, 64);
        let spec = MachineSpec::new(2, 64, 4, 1);
        let run = |spec: &MachineSpec, init: &[Word]| {
            try_simulate_multi2(spec, &prog, init, 4, RunOpts::default(), &mut Tracer::off()).err()
        };
        assert_eq!(
            run(&spec, &init[..10]),
            Some(SimError::InitLength {
                expected: 64,
                got: 10
            })
        );
        // p = n gives block side 1 — too small for the strip machinery.
        let tight = MachineSpec::new(2, 64, 64, 1);
        assert_eq!(
            run(&tight, &init),
            Some(SimError::BlockTooSmall { block: 1 })
        );
    }
}
