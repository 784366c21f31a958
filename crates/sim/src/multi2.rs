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

use bsmp_geometry::{cell_cover, ClippedDomain2, Diamond, IBox, Pt3};
use bsmp_hram::{AccessFn, Word};
use bsmp_machine::{guest_time, MachineSpec, MeshProgram};
use bsmp_trace::{EngineKind, Tracer};

use crate::error::SimError;
use crate::execd::CellExec;
use crate::procs::{Loc, PointTable, ProcArray, StageHost};
use crate::report::SimReport;
use crate::RunOpts;

/// Simulate `steps` guest steps of `M_2(n, n, m)` on `M_2(n, p, m)`
/// by the block-banded honeycomb scheme, with preconditions checked.
/// Reads `opts.plan`.  The tracer observes each honeycomb stage row;
/// the report is bit-identical either way.
pub fn try_simulate_multi2(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let mut eng = Engine2::new(spec, prog, init.len(), steps, opts, tracer)?;
    eng.run(init)?;
    eng.finish(spec, prog, steps)
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
    cbox: IBox,
    /// The processors; processor `(I, J)`'s node states are its block.
    host: ProcArray<'a, P, 2>,
    prog: &'a P,
    /// Words of the cell outputs in the live time band (rows below the
    /// GC cutoff are released with `home`'s).
    vals: PointTable<Pt3, Word>,
    /// value → (proc, addr) in that proc's value-home zone.
    home: PointTable<Pt3, Loc>,
}

impl<'a, P: MeshProgram> Engine2<'a, P> {
    /// Check the inputs (an `init_len`-word image) and lay out the host.
    fn new(
        spec: &MachineSpec,
        prog: &'a P,
        init_len: usize,
        steps: i64,
        opts: RunOpts,
        tracer: &'a mut Tracer,
    ) -> Result<Self, SimError> {
        let host = StageHost::for_spec(
            EngineKind::Multi2,
            spec,
            steps,
            prog.m(),
            init_len,
            &opts.plan,
            tracer,
        )?;
        let side = spec.mesh_side() as usize;
        let sp = spec.proc_side() as usize;
        let m = prog.m();
        let b = side / sp;
        let cbox = IBox::new(0, side as i64, 0, side as i64, 1, steps + 1);
        // Rows between the GC cutoff and the top of the open stage row
        // (about 1.5·b).
        let window = 2 * b + 4;

        // Each processor runs the Theorem-5 recursion on its own H-RAM,
        // metered like the uniprocessor host's.
        let access = AccessFn::new(2, spec.m);
        let leaf = (m as i64 / 2).max(1);
        let host = ProcArray::new(
            spec,
            host,
            || CellExec::new(side as i64, access, prog, steps, leaf),
            &[Diamond::new((side / 2) as i64, (steps / 2).max(1), (b / 2).max(1) as i64); 2],
            128,
            8 * b * b * m + 32 * b * b + 1024,
            16 * b * b + 8 * b + 512,
            b * b * m,
        );
        Ok(Engine2 {
            side,
            sp,
            b,
            m,
            t_steps: steps,
            cbox,
            host,
            prog,
            vals: PointTable::new(side as i64, steps, window),
            home: PointTable::new(side as i64, steps, window),
        })
    }

    #[inline]
    fn proc_of_node(&self, x: i64, y: i64) -> usize {
        let bx = (x as usize).min(self.side - 1) / self.b;
        let by = (y as usize).min(self.side - 1) / self.b;
        by * self.sp + bx
    }

    /// Local home address of node `(x, y)`'s private-memory block on its
    /// own processor.
    fn state_home(&self, x: i64, y: i64) -> usize {
        let lx = (x as usize) % self.b;
        let ly = (y as usize) % self.b;
        self.host.state_base + (ly * self.b + lx) * self.m
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
        let (owner, addr) = self.home.get(pt)?.ok_or(SimError::Internal {
            what: "preboundary value not homed",
        })?;
        let w = match self.vals.get(pt)? {
            Some(w) => w,
            None => self.host.execs[owner].ram.peek(addr),
        };
        let _ = self.host.execs[owner].ram.read(addr);
        self.host.send(owner, pr, 1, pr);
        let dst = self.host.transit_zones[pr].alloc();
        self.host.execs[pr].ram.write(dst, w);
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
        self.host.swap_plans(pr);
        let res = self.run_cell_on(piece, pr);
        self.host.swap_plans(pr);
        res
    }

    fn run_cell_on(&mut self, piece: &ClippedDomain2, pr: usize) -> Result<(), SimError> {
        let cell = [piece.cell.dx, piece.cell.dy];
        // Stage preboundary values (private copies, consumed by exec).
        let g = self.host.execs[pr].gamma(&cell);
        let mut seeds = Vec::with_capacity(g.len());
        for &(t, [x, y]) in &g {
            let addr = self.stage_value(Pt3::new(x, y, t), pr)?;
            seeds.push(((t, [x, y]), addr));
        }

        // Stage pillar states (borrow foreign ones, charged).
        let mut state_seeds = Vec::new();
        if self.m > 1 {
            for [x, y] in self.host.execs[pr].pillars(&cell) {
                let hpr = self.proc_of_node(x, y);
                let home_addr = self.state_home(x, y);
                let copy = self.host.transit_zones[pr].alloc_block(self.m);
                if hpr == pr {
                    self.host.execs[pr]
                        .ram
                        .relocate_block(home_addr, copy, self.m);
                } else {
                    self.host.send(hpr, pr, self.m, pr);
                    for cc in 0..self.m {
                        let w = self.host.execs[hpr].ram.read(home_addr + cc);
                        self.host.execs[pr].ram.write(copy + cc, w);
                    }
                }
                state_seeds.push(([x, y], copy, home_addr, hpr));
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
        let states = state_seeds.iter().map(|&(x, addr, _, _)| (x, addr));
        let out_addrs = self.host.exec(pr, &cell, &want, &seeds, states)?;
        self.host.tmark(pr, piece.points_count() as u64, 0);

        // Harvest outbound values: persist them at the *consumer-side*
        // home (the processor owning the value's node).
        for pt in out_pts {
            let addr = want
                .binary_search(&(pt.t, [pt.x, pt.y]))
                .map(|i| out_addrs[i])
                .map_err(|_| SimError::Internal {
                    what: "cell output not parked",
                })?;
            let w = self.host.execs[pr].ram.peek(addr);
            let _ = self.host.execs[pr].ram.read(addr);
            self.host.transit_zones[pr].free_if_owned(addr);
            self.vals.insert(pt, w)?;
            let hpr = self.proc_of_node(pt.x, pt.y);
            self.host.send(pr, hpr, 1, pr);
            if let Some((opr, oaddr)) = self.home.get(pt)? {
                self.host.home_zones[opr].free(oaddr);
            }
            let dst = self.host.home_zones[hpr].alloc();
            self.host.execs[hpr].ram.write(dst, w);
            self.home.insert(pt, (hpr, dst))?;
        }

        // Return borrowed states.
        if self.m > 1 {
            for (x, _, home_addr, hpr) in state_seeds {
                let parked = self.host.execs[pr]
                    .state_addr(x)
                    .ok_or(SimError::Internal {
                        what: "pillar state not parked",
                    })?;
                if hpr == pr {
                    self.host.execs[pr]
                        .ram
                        .relocate_block(parked, home_addr, self.m);
                } else {
                    self.host.send(hpr, pr, self.m, pr);
                    for cc in 0..self.m {
                        let w = self.host.execs[pr].ram.read(parked + cc);
                        self.host.execs[hpr].ram.write(home_addr + cc, w);
                    }
                }
                self.host.transit_zones[pr].free_block(parked, self.m);
            }
        }
        self.host.execs[pr].clear_seeds();
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
                    self.host.execs[pr]
                        .ram
                        .poke(base + c, init[(y * side + x) * m + c]);
                }
                // Input-row value: a view into the state home.
                let p0 = Pt3::new(x as i64, y as i64, 0);
                self.home.insert(p0, (pr, base + self.prog.cell(x, y, 0)))?;
            }
        }
        if self.t_steps == 0 {
            return Ok(());
        }

        let hb = (self.b / 2).max(1) as i64;
        let cells = cell_cover(self.cbox, hb, Pt3::new(0, 0, 0));
        // Stage rows: group by the projection-center time sum.
        self.host.begin_stage("cells");
        let mut last_key = i64::MIN;
        for cell in cells {
            let key = cell.cell.dx.ct + cell.cell.dy.ct;
            if key != last_key && last_key != i64::MIN {
                self.host.close_stage()?;
                self.host.begin_stage("cells");
                self.gc(key / 2 - 2 * hb);
            }
            last_key = key;
            self.run_cell(&cell)?;
        }
        self.host.close_stage()?;
        // Final write-back for m = 1 (value is the state).
        if m == 1 {
            self.host.begin_stage("writeback");
            for y in 0..side {
                for x in 0..side {
                    let pt = Pt3::new(x as i64, y as i64, self.t_steps);
                    let (pr, addr) = self.home.get(pt)?.ok_or(SimError::Internal {
                        what: "final value not homed",
                    })?;
                    let w = self.final_value(x, y)?;
                    let _ = self.host.execs[pr].ram.read(addr);
                    let hpr = self.proc_of_node(x as i64, y as i64);
                    let dst = self.state_home(x as i64, y as i64);
                    self.host.execs[hpr].ram.write(dst, w);
                }
            }
            self.host.close_stage()?;
        }
        Ok(())
    }

    /// Drop the values below the reachable horizon: free their home
    /// slots in key order (input-row entries are views into the state
    /// homes), then release their rows (row T stays).
    fn gc(&mut self, cutoff: i64) {
        for (pt, (pr, addr)) in self.home.entries(i64::MIN, cutoff) {
            if pt.t > 0 && pt.t != self.t_steps {
                self.host.home_zones[pr].free(addr);
            }
        }
        self.home.release_below(cutoff);
        self.vals.release_below(cutoff);
    }

    /// Node `(x, y)`'s value at step `T`.
    fn final_value(&self, x: usize, y: usize) -> Result<Word, SimError> {
        self.vals
            .get(Pt3::new(x as i64, y as i64, self.t_steps))?
            .ok_or(SimError::Internal {
                what: "final value missing",
            })
    }

    fn finish(
        self,
        spec: &MachineSpec,
        prog: &impl MeshProgram,
        steps: i64,
    ) -> Result<SimReport, SimError> {
        let side = self.side;
        let m = self.m;
        let mut mem = vec![0 as Word; side * side * m];
        for y in 0..side {
            for x in 0..side {
                let pr = self.proc_of_node(x as i64, y as i64);
                let base = self.state_home(x as i64, y as i64);
                for c in 0..m {
                    mem[(y * side + x) * m + c] = self.host.execs[pr].ram.peek(base + c);
                }
            }
        }
        let values: Vec<Word> = if steps == 0 {
            (0..side * side)
                .map(|v| mem[v * m + self.prog.cell(v % side, v / side, 0)])
                .collect()
        } else {
            (0..side * side)
                .map(|v| self.final_value(v % side, v / side))
                .collect::<Result<_, _>>()?
        };
        let guest_time = guest_time::<2>(spec, prog, steps);
        Ok(self.host.finish(guest_time, mem, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_guest;
    use bsmp_workloads::{inputs, HeatDiffusion, SystolicMatmul, VonNeumannLife};

    #[test]
    fn over_budget_cell_is_a_typed_error() {
        let spec = MachineSpec::new(2, 64, 4, 1);
        let init = inputs::random_bits(42, 64);
        let prog = VonNeumannLife::fredkin();
        let mut tracer = Tracer::off();
        let mut eng = Engine2::new(&spec, &prog, 64, 16, RunOpts::default(), &mut tracer).unwrap();
        eng.host.tile_space = 0;
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
        let guest = run_guest::<2>(&spec, prog, init, steps);
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
                crate::naive::simulate_naive::<2>(&spec, &VonNeumannLife::fredkin(), &init, steps);
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
