//! The host side every engine shares: [`StageHost`], which turns a
//! run's stages into `T_p = Σ_stages max_proc cost`, and
//! [`ProcArray`], the processor array behind the two-regime
//! multiprocessor engines [`crate::multi1`] (Theorem 4) and
//! [`crate::multi2`], its `d = 2` analogue "closely patterned" on §4.2.
//!
//! [`StageHost`] owns the stage clock, the fault session, the tracer and
//! the per-processor stage buffers.  Every engine checks its inputs,
//! closes its stages and assembles its report through it: the naive and
//! pipelined loops directly, the two-regime schemes through
//! [`ProcArray`], and the uniprocessor engines as one bulk stage
//! ([`run_uniprocessor`]).  [`ProcArray`] adds what the two-regime
//! schemes run on: `p` per-processor [`CellExec`] executors sharing one
//! set of shape plans, and each processor's value-home and transit
//! zones.  The engines keep only their own scheme — which values move
//! where, and when.

use bsmp_faults::{FaultEnv, FaultPlan, FaultSession};
use bsmp_hram::{CostMeter, Hram, Word};
use bsmp_machine::{ExecPolicy, Guest, MachineSpec, PoolLease, StageClock};
use bsmp_trace::{EngineKind, RunMeta, StageTally, StageTotals, Tracer};

use crate::execd::{CellExec, CellPlans, Point, ProductCell};
use crate::zone::ZoneAlloc;
use crate::{SimError, SimReport};

/// One run's host: the stage clock, the fault session every stage cost
/// passes through, the tracer, and four `p`-long buffers (each
/// processor's stage cost and its communication component, and the
/// meter snapshots taken at stage open), allocated once per run.
pub(crate) struct StageHost<'t> {
    meta: RunMeta,
    clock: StageClock,
    session: FaultSession,
    tracer: &'t mut Tracer,
    /// Each processor's cost in the open stage.
    pub cost: Vec<f64>,
    /// The communication component of each processor's stage cost.
    pub comm: Vec<f64>,
    time0: Vec<f64>,
    comm0: Vec<f64>,
    /// Host threads of the last closed stage, stamped on the settlement
    /// stage too.
    workers: usize,
}

impl<'t> StageHost<'t> {
    /// Check the run's inputs against `meta.engine`'s preconditions and
    /// validate `plan`, then open the host of `env.p` processors.
    pub fn new(
        meta: RunMeta,
        env: FaultEnv,
        prog_m: usize,
        init_len: usize,
        plan: &FaultPlan,
        tracer: &'t mut Tracer,
    ) -> Result<Self, SimError> {
        check_inputs(&meta, prog_m, init_len)?;
        plan.validate()?;
        let p = env.p;
        tracer.ensure_procs(p);
        Ok(StageHost {
            meta,
            clock: StageClock::new(),
            session: FaultSession::new(plan, env),
            tracer,
            cost: vec![0.0; p],
            comm: vec![0.0; p],
            time0: vec![0.0; p],
            comm0: vec![0.0; p],
            workers: 1,
        })
    }

    /// [`new`](Self::new) for a `steps`-step run of `kind` on `spec`.
    pub fn for_spec(
        kind: EngineKind,
        spec: &MachineSpec,
        steps: i64,
        prog_m: usize,
        init_len: usize,
        plan: &FaultPlan,
        tracer: &'t mut Tracer,
    ) -> Result<Self, SimError> {
        let meta = RunMeta {
            engine: kind,
            d: spec.d as u32,
            n: spec.n,
            m: spec.m,
            p: spec.p,
            steps: steps.max(0) as u64,
        };
        let env = FaultEnv {
            p: spec.p as usize,
            hop: spec.neighbor_distance(),
            checkpoint_words: spec.node_mem(),
            proc_side: if spec.d == 2 {
                spec.proc_side() as usize
            } else {
                1
            },
        };
        Self::new(meta, env, prog_m, init_len, plan, tracer)
    }

    /// Open a stage labelled `label`, snapshotting the meters of the
    /// processors in `rams` (in processor order; may be empty).
    pub fn begin_stage<'r>(&mut self, label: &str, rams: impl IntoIterator<Item = &'r Hram>) {
        self.tracer.begin_stage(label);
        for ((time, comm), ram) in self.time0.iter_mut().zip(&mut self.comm0).zip(rams) {
            *time = ram.time();
            *comm = ram.meter.comm;
        }
    }

    /// Credit `points` space-time points and `msgs` messages to
    /// processor `pr` in the tracer's per-stage tally (no-op when
    /// tracing is off).
    #[inline]
    pub fn tally(&self, pr: usize, points: u64, msgs: u64) {
        if let Some(tl) = self.tracer.tally() {
            tl.add(pr, points, msgs);
        }
    }

    /// Run the open stage's per-processor tasks on `pool`.  Task `i`
    /// gets the per-stage tally (`None` when tracing is off) and returns
    /// processor `i`'s cost.
    pub fn run_tasks(
        &mut self,
        pool: &PoolLease,
        task: impl Fn(usize, Option<&StageTally>) -> f64 + Sync,
    ) -> Result<(), SimError> {
        let tally = self.tracer.tally();
        pool.run_stage(self.cost.len(), &mut self.cost, |i| task(i, tally))?;
        Ok(())
    }

    /// Close the open stage on `workers` host threads.  A processor in
    /// `rams` is charged its meter's growth since
    /// [`begin_stage`](Self::begin_stage); the others keep the cost and
    /// comm the engine wrote.  The costs pass through the fault session
    /// into the clock and the trace.
    pub fn close_stage<'r>(
        &mut self,
        workers: usize,
        rams: impl IntoIterator<Item = &'r Hram>,
    ) -> Result<(), SimError> {
        for ((((cost, comm), ram), time0), comm0) in self
            .cost
            .iter_mut()
            .zip(&mut self.comm)
            .zip(rams)
            .zip(&self.time0)
            .zip(&self.comm0)
        {
            *cost = ram.time() - time0;
            *comm = ram.meter.comm - comm0;
        }
        self.clock
            .add_stage_faulted(&self.cost, &self.comm, &mut self.session)?;
        self.workers = workers;
        self.tracer.end_stage(self.totals(), workers);
        Ok(())
    }

    /// The cumulative clock and fault counters the tracer differences
    /// at stage close.
    fn totals(&self) -> StageTotals {
        let stats = &self.session.stats;
        StageTotals {
            parallel: self.clock.parallel_time,
            busy: self.clock.busy_time,
            comm: self.clock.comm_time,
            injected_delay: stats.injected_delay,
            retries: stats.retries,
            recovered: stats.recovered_stages,
            outages: stats.outage_stages,
            churn: stats.departures + stats.rejoins,
            backoffs: stats.backoff_retries,
        }
    }

    /// Close the run and report `mem` and `values` with `meter` and
    /// `space`.  A scenario that still holds storm-queued traffic or
    /// churn debt is charged one traced settlement stage first, so the
    /// trace's `Σ cost = host_time` holds for runs that end mid-outage.
    pub fn finish(
        mut self,
        mem: Vec<Word>,
        values: Vec<Word>,
        guest_time: f64,
        meter: CostMeter,
        space: usize,
    ) -> SimReport {
        if self.session.needs_settlement() {
            self.tracer.begin_stage("settle");
            self.clock.settle_faulted(&mut self.session);
            self.tracer.end_stage(self.totals(), self.workers);
        }
        let host_time = self.clock.parallel_time;
        self.tracer.finish_run(self.meta, host_time, guest_time);
        SimReport {
            mem,
            values,
            host_time,
            guest_time,
            meter,
            space,
            stages: self.clock.stages,
            faults: self.session.into_stats(),
        }
    }

    /// [`finish`](Self::finish) with the processors' merged meters and
    /// the largest per-processor footprint as space.
    pub fn finish_procs<'r>(
        self,
        mem: Vec<Word>,
        values: Vec<Word>,
        guest_time: f64,
        rams: impl IntoIterator<Item = &'r Hram>,
    ) -> SimReport {
        let (meter, space) = rams.into_iter().fold((CostMeter::new(), 0), |(m, s), r| {
            (m.merged(&r.meter), s.max(r.high_water()))
        });
        self.finish(mem, values, guest_time, meter, space)
    }
}

/// Check the preconditions every engine shares, keyed on
/// `meta.engine`: the spec's dimension, `p = 1` on a uniprocessor
/// engine, `m = 1` on a volume engine, the program's density, the
/// initial image's length, and the divisibility the naive and honeycomb
/// layouts need.
fn check_inputs(meta: &RunMeta, prog_m: usize, init_len: usize) -> Result<(), SimError> {
    let kind = meta.engine;
    if meta.d != kind.d() as u32 {
        return Err(SimError::DimensionMismatch {
            expected: kind.d(),
            got: meta.d as u8,
        });
    }
    if kind.uniprocessor() && meta.p != 1 {
        return Err(SimError::UniprocessorOnly {
            engine: kind.name(),
            p: meta.p,
        });
    }
    if kind.d() == 3 && meta.m != 1 {
        return Err(SimError::UnitDensityOnly {
            engine: kind.name(),
            m: meta.m,
        });
    }
    if prog_m as u64 != meta.m {
        return Err(SimError::DensityMismatch {
            spec_m: meta.m,
            prog_m: prog_m as u64,
        });
    }
    let expected = meta.n as usize * prog_m;
    if init_len != expected {
        return Err(SimError::InitLength {
            expected,
            got: init_len,
        });
    }
    match kind {
        EngineKind::Naive1 | EngineKind::Pipelined1 if !meta.n.is_multiple_of(meta.p) => {
            Err(SimError::IndivisibleProcessors {
                n: meta.n,
                p: meta.p,
            })
        }
        EngineKind::Naive2 | EngineKind::Multi2 => {
            let (side, proc_side) = (meta.n.isqrt(), meta.p.isqrt());
            if !side.is_multiple_of(proc_side) {
                Err(SimError::IndivisibleMeshSide { side, proc_side })
            } else if kind == EngineKind::Multi2 && side / proc_side < 2 {
                Err(SimError::BlockTooSmall {
                    block: side / proc_side,
                })
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

/// The stage pool of a naive engine whose `p` processors host `q` guest
/// nodes each: worker threads pay for their per-stage handoff only from
/// `q ≥ 256` on, so smaller blocks run serially on the calling thread.
pub(crate) fn naive_pool(p: usize, q: usize, exec: ExecPolicy) -> PoolLease {
    if exec.resolved().min(p) > 1 && q >= 256 {
        PoolLease::for_procs(p, exec)
    } else {
        PoolLease::serial()
    }
}

/// Run a uniprocessor engine as one bulk stage `"run"`: `run` computes
/// the final memory image and values on its H-RAM, and the H-RAM's time
/// and comm pass through the host's single-processor fault session like
/// any other stage's (so jitter, asymmetry, outage windows and churn
/// scale the run), plus a settlement stage if the scenario ends
/// mid-outage.
pub(crate) fn run_uniprocessor(
    mut host: StageHost,
    guest_time: f64,
    run: impl FnOnce() -> Result<(Vec<Word>, Vec<Word>, Hram), SimError>,
) -> Result<SimReport, SimError> {
    host.begin_stage("run", []);
    let (mem, values, ram) = run()?;
    host.tally(0, host.meta.n * host.meta.steps, 0);
    host.cost[0] = ram.time();
    host.comm[0] = ram.meter.comm;
    host.close_stage(1, [])?;
    Ok(host.finish_procs(mem, values, guest_time, [&ram]))
}

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
    host: StageHost<'a>,
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
    /// Lay out `spec.p` processors built by `new_exec` on `host`.  The
    /// cell budget is twice the footprint of `interior` plus `pad`; the
    /// zones take `transit_cap` and `home_cap` words, the node states
    /// `state_words`.  The probe that sizes the budget donates its shape
    /// plans to the run.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &MachineSpec,
        host: StageHost<'a>,
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
        ProcArray {
            execs,
            plans,
            home_zones: (0..p)
                .map(|_| ZoneAlloc::new(home_base, home_cap))
                .collect(),
            transit_zones: (0..p)
                .map(|_| ZoneAlloc::new(transit_base, transit_cap))
                .collect(),
            host,
            hop: spec.neighbor_distance(),
            proc_side: if spec.d == 1 {
                1
            } else {
                spec.proc_side() as usize
            },
            tile_space,
            transit_base,
            transit_cap,
            state_base,
        }
    }

    /// Credit `points` space-time points and `msgs` messages to
    /// processor `pr` in the tracer's per-stage tally.
    #[inline]
    pub fn tmark(&self, pr: usize, points: u64, msgs: u64) {
        self.host.tally(pr, points, msgs);
    }

    /// Open a stage: snapshot each processor's meter.
    pub fn begin_stage(&mut self, label: &str) {
        self.host
            .begin_stage(label, self.execs.iter().map(|e| &e.ram));
    }

    /// Close the stage opened by the matching [`begin_stage`](Self::begin_stage).
    pub fn close_stage(&mut self) -> Result<(), SimError> {
        self.host.close_stage(1, self.execs.iter().map(|e| &e.ram))
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

    /// Close the run: report `mem` and `values` (see
    /// [`StageHost::finish_procs`]).
    pub fn finish(self, guest_time: f64, mem: Vec<Word>, values: Vec<Word>) -> SimReport {
        let rams = self.execs.iter().map(|e| &e.ram);
        self.host.finish_procs(mem, values, guest_time, rams)
    }
}
