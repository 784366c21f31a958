//! The processor array behind the two-regime multiprocessor engines:
//! [`crate::multi1`] (Theorem 4) and [`crate::multi2`], its `d = 2`
//! analogue "closely patterned" on §4.2.
//!
//! [`ProcArray`] owns what both schemes run on: `p` per-processor
//! [`CellExec`] executors sharing one set of shape plans, each
//! processor's value-home and transit zones, and the stage clock, fault
//! session and tracer every stage closes into.  The engines keep only
//! their own scheme — which values move where, and when.

use bsmp_faults::{FaultEnv, FaultPlan, FaultSession};
use bsmp_hram::{CostMeter, Word};
use bsmp_machine::{lease_scratch, MachineSpec, ScratchLease, StageClock};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::execd::{CellExec, CellPlans, Guest, Point, ProductCell};
use crate::zone::ZoneAlloc;
use crate::{settle_scenario, stage_totals, SimError, SimReport};

/// `p` processors of `M_d(n, p, m)`, each an H-RAM with the same
/// layout, low to high: the cell budget `[0, tile_space)`, the transit
/// zone, the value-home zone, then the node states from `state_base`.
pub(crate) struct ProcArray<'a, C, P, const D: usize> {
    /// Per-processor executors (each owns its processor's H-RAM).
    pub execs: Vec<CellExec<'a, C, P, D>>,
    /// The run's shape plans, lent to whichever executor runs a cell.
    plans: CellPlans<D>,
    pub home_zones: Vec<ZoneAlloc>,
    pub transit_zones: Vec<ZoneAlloc>,
    clock: StageClock,
    /// Reusable stage buffers (snapshots + deltas), allocated once.
    scratch: ScratchLease,
    session: FaultSession,
    tracer: &'a mut Tracer,
    /// Near-neighbor distance `(n/p)^{1/d}`.
    pub hop: f64,
    /// Processors per row of the host grid (1 on the linear array).
    proc_side: usize,
    pub tile_space: usize,
    pub transit_base: usize,
    transit_cap: usize,
    pub state_base: usize,
}

impl<'a, C: ProductCell<D>, P: Guest<D>, const D: usize> ProcArray<'a, C, P, D> {
    /// Lay out `spec.p` processors built by `new_exec`.  The cell budget
    /// is twice the footprint of `interior` plus `pad`; the zones take
    /// `transit_cap` and `home_cap` words, the node states
    /// `state_words`.  The probe that sizes the budget donates its shape
    /// plans to the run.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &MachineSpec,
        plan: &FaultPlan,
        tracer: &'a mut Tracer,
        new_exec: impl Fn() -> CellExec<'a, C, P, D>,
        interior: &C,
        pad: usize,
        transit_cap: usize,
        home_cap: usize,
        state_words: usize,
    ) -> Self {
        let p = spec.p as usize;
        let mut probe = new_exec();
        let tile_space = probe.space(interior) * 2 + pad;
        let mut plans = CellPlans::default();
        probe.swap_plans(&mut plans);
        let transit_base = tile_space;
        let home_base = transit_base + transit_cap;
        let state_base = home_base + home_cap;
        let execs = (0..p)
            .map(|_| {
                let mut e = new_exec();
                e.cover(state_base + state_words);
                e
            })
            .collect();
        let proc_side = if spec.d == 1 {
            1
        } else {
            spec.proc_side() as usize
        };
        let hop = spec.neighbor_distance();
        let env = FaultEnv {
            p,
            hop,
            checkpoint_words: spec.node_mem(),
            proc_side,
        };
        tracer.ensure_procs(p);
        ProcArray {
            execs,
            plans,
            home_zones: (0..p)
                .map(|_| ZoneAlloc::new(home_base, home_cap))
                .collect(),
            transit_zones: (0..p)
                .map(|_| ZoneAlloc::new(transit_base, transit_cap))
                .collect(),
            clock: StageClock::new(),
            scratch: lease_scratch(p),
            session: FaultSession::new(plan, env),
            tracer,
            hop,
            proc_side,
            tile_space,
            transit_base,
            transit_cap,
            state_base,
        }
    }

    /// Credit `points` space-time points and `msgs` messages to
    /// processor `pr` in the tracer's per-stage tally (no-op when
    /// tracing is off).
    #[inline]
    pub fn tmark(&self, pr: usize, points: u64, msgs: u64) {
        if let Some(tl) = self.tracer.tally() {
            tl.add(pr, points, msgs);
        }
    }

    /// Open a stage: snapshot each processor's (total time, comm charge).
    pub fn begin_stage(&mut self, label: &str) {
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
    pub fn close_stage(&mut self) -> Result<(), SimError> {
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

    /// Lend the run's shape plans to processor `pr`'s executor, or take
    /// them back: call once before and once after it runs a cell.
    pub fn swap_plans(&mut self, pr: usize) {
        self.execs[pr].swap_plans(&mut self.plans);
    }

    /// Empty every processor's transit zone.
    pub fn reset_transit(&mut self) {
        for z in &mut self.transit_zones {
            *z = ZoneAlloc::new(self.transit_base, self.transit_cap);
        }
    }

    /// Charge moving `words` words between processors `a` and `c`:
    /// `words × hops × hop` (hops on the host grid), half on each end,
    /// and `words` messages to `by`'s tally.  Free when `a == c`.
    pub fn send(&mut self, a: usize, c: usize, words: usize, by: usize) {
        if a == c {
            return;
        }
        let s = self.proc_side;
        let hops = (a % s).abs_diff(c % s) + (a / s).abs_diff(c / s);
        let cost = words as f64 * hops as f64 * self.hop;
        self.execs[a].ram.meter.add_comm(cost / 2.0);
        self.execs[c].ram.meter.add_comm(cost / 2.0);
        self.tmark(by, 0, words as u64);
    }

    /// Run `cell` on processor `pr` from the staged preboundary `seeds`
    /// and pillar `states` (node, block base), parking the `want` values
    /// in `pr`'s transit zone; returns their addresses in `want` order.
    /// A cell over the budget is an error.
    pub fn exec(
        &mut self,
        pr: usize,
        cell: &C,
        want: &[Point<D>],
        seeds: &[(Point<D>, usize)],
        states: impl IntoIterator<Item = ([i64; D], usize)>,
    ) -> Result<Vec<usize>, SimError> {
        let exec = &mut self.execs[pr];
        exec.clear_seeds();
        for (x, addr) in states {
            exec.seed_state(x, addr);
        }
        if exec.space(cell) > self.tile_space {
            return Err(SimError::Internal {
                what: "cell footprint exceeds the tile budget",
            });
        }
        let mut out = Vec::with_capacity(want.len());
        self.execs[pr].exec(cell, want, &mut self.transit_zones[pr], seeds, &mut out)?;
        if out.len() != want.len() {
            return Err(SimError::Internal {
                what: "cell output not parked",
            });
        }
        Ok(out)
    }

    /// Close the run: settle the fault scenario, then report `mem` and
    /// `values` with the processors' merged meters and the largest
    /// per-processor footprint as space.
    pub fn finish(
        mut self,
        engine: EngineKind,
        spec: &MachineSpec,
        steps: i64,
        guest_time: f64,
        mem: Vec<Word>,
        values: Vec<Word>,
    ) -> SimReport {
        settle_scenario(&mut self.clock, &mut self.session, self.tracer, 1);
        let meta = RunMeta {
            engine,
            d: spec.d as u32,
            n: spec.n,
            m: spec.m,
            p: spec.p,
            steps: steps.max(0) as u64,
        };
        let host_time = self.clock.parallel_time;
        self.tracer.finish_run(meta, host_time, guest_time);
        SimReport {
            mem,
            values,
            host_time,
            guest_time,
            meter: self
                .execs
                .iter()
                .fold(CostMeter::new(), |acc, e| acc.merged(&e.ram.meter)),
            space: self
                .execs
                .iter()
                .map(|e| e.ram.high_water())
                .max()
                .unwrap_or(0),
            stages: self.clock.stages,
            faults: self.session.into_stats(),
        }
    }
}
