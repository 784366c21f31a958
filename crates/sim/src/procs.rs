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
use bsmp_geometry::{Diamond, Pt2, Pt3};
use bsmp_hram::{CostMeter, Hram, Word};
use bsmp_machine::{ExecPolicy, Guest, MachineSpec, PoolLease, StageClock};
use bsmp_trace::{EngineKind, RunMeta, StageTally, StageTotals, Tracer};

use crate::execd::{CellExec, CellPlans, Point};
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
pub(crate) struct ProcArray<'a, P, const D: usize> {
    /// Per-processor executors (each owns its processor's H-RAM).
    pub execs: Vec<CellExec<'a, P, D>>,
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

impl<'a, P: Guest<D>, const D: usize> ProcArray<'a, P, D> {
    /// Lay out `spec.p` processors built by `new_exec` on `host`.  The
    /// cell budget is twice the footprint of `interior` plus `pad`; the
    /// zones take `transit_cap` and `home_cap` words, the node states
    /// `state_words`.  The probe that sizes the budget donates its shape
    /// plans to the run.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &MachineSpec,
        host: StageHost<'a>,
        new_exec: impl Fn() -> CellExec<'a, P, D>,
        interior: &[Diamond; D],
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
        cell: &[Diamond; D],
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

/// A processor of the array and an address in its H-RAM.
pub(crate) type Loc = (usize, usize);

/// A dag point as a [`PointTable`] key: its row `t` and its node's index
/// `col` within the row, so that `t · side^DIMS + col` is execd's linear
/// `(t, x…)` key and the key order is the point order.
pub(crate) trait RowPoint: Copy {
    /// Spatial dimensions.
    const DIMS: u32;
    fn row(self) -> i64;
    /// The node's index in its row, `None` off the mesh of side `side`.
    fn col(self, side: i64) -> Option<usize>;
    /// The point at row `t`, column `col`.
    fn at(t: i64, col: usize, side: i64) -> Self;
}

impl RowPoint for Pt2 {
    const DIMS: u32 = 1;
    #[inline]
    fn row(self) -> i64 {
        self.t
    }
    #[inline]
    fn col(self, side: i64) -> Option<usize> {
        (0..side).contains(&self.x).then_some(self.x as usize)
    }
    #[inline]
    fn at(t: i64, col: usize, _side: i64) -> Self {
        Pt2::new(col as i64, t)
    }
}

impl RowPoint for Pt3 {
    const DIMS: u32 = 2;
    #[inline]
    fn row(self) -> i64 {
        self.t
    }
    #[inline]
    fn col(self, side: i64) -> Option<usize> {
        ((0..side).contains(&self.x) && (0..side).contains(&self.y))
            .then_some((self.x * side + self.y) as usize)
    }
    #[inline]
    fn at(t: i64, col: usize, side: i64) -> Self {
        let c = col as i64;
        Pt3::new(c / side, c % side, t)
    }
}

const BELOW_WINDOW: SimError = SimError::Internal {
    what: "point below the table's row window",
};
const OFF_TABLE: SimError = SimError::Internal {
    what: "point outside the dag box",
};
const TOO_WIDE: SimError = SimError::Internal {
    what: "value too wide for a point-table slot",
};

/// A value a [`PointTable`] slot holds, stored packed.
pub(crate) trait Packed: Copy {
    type Raw: Copy + Default;
    /// The stored form, `None` when the value does not fit it.
    fn pack(self) -> Option<Self::Raw>;
    fn unpack(raw: Self::Raw) -> Self;
}

impl Packed for Word {
    type Raw = Word;
    #[inline]
    fn pack(self) -> Option<Word> {
        Some(self)
    }
    #[inline]
    fn unpack(raw: Word) -> Word {
        raw
    }
}

/// A [`Loc`] in 8 bytes.  Each processor's H-RAM (and its charge
/// table) is laid out in full before a run starts, so its addresses
/// stay far below `2³²`; a wider one is refused, never truncated.
impl Packed for Loc {
    type Raw = [u32; 2];
    #[inline]
    fn pack(self) -> Option<[u32; 2]> {
        Some([u32::try_from(self.0).ok()?, u32::try_from(self.1).ok()?])
    }
    #[inline]
    fn unpack([pr, addr]: [u32; 2]) -> Loc {
        (pr as usize, addr as usize)
    }
}

/// A dense map from the dag points of rows `lo..=T` to `V`: O(1) get,
/// insert and remove without hashing, and entries visited in key order.
///
/// Rows live in a ring of `rows` row buffers, each `side^DIMS` slots
/// plus a presence bitset; the ring grows when an insert lands above
/// it.  [`release_below`](Self::release_below) drops whole rows once no
/// later read can reach them, so the table holds the live time band,
/// not the run's `n·T` points.  Row `T` is never released.  A point
/// below the window, off the mesh or past row `T` is a
/// [`SimError::Internal`], never a silent miss.
pub(crate) struct PointTable<K, V: Packed> {
    side: i64,
    width: usize,
    /// Presence words per row.
    words: usize,
    /// Row `T`.
    last: i64,
    /// First row held.
    lo: i64,
    /// Ring row of row `lo`.
    head: usize,
    /// Highest row ever inserted.
    top: i64,
    /// Ring size in rows.
    rows: usize,
    slots: Vec<V::Raw>,
    live: Vec<u64>,
    /// Most rows `lo..=top` ever spanned.
    #[cfg(test)]
    high_water: usize,
    key: std::marker::PhantomData<fn() -> K>,
}

impl<K: RowPoint, V: Packed> PointTable<K, V> {
    /// An empty table over rows `0..=last` of the mesh of side `side`,
    /// its ring sized for `rows_hint` rows.
    pub fn new(side: i64, last: i64, rows_hint: usize) -> Self {
        let width = side.max(0).pow(K::DIMS) as usize;
        let words = width.div_ceil(64);
        let rows = rows_hint.clamp(1, (last.max(0) + 1) as usize);
        PointTable {
            side,
            width,
            words,
            last,
            lo: 0,
            head: 0,
            top: -1,
            rows,
            slots: vec![V::Raw::default(); rows * width],
            live: vec![0; rows * words],
            #[cfg(test)]
            high_water: 0,
            key: std::marker::PhantomData,
        }
    }

    /// Ring row of row `t`, which must be in the ring
    /// (`lo ≤ t < lo + rows`).
    #[inline]
    fn ring(&self, t: i64) -> usize {
        let r = self.head + (t - self.lo) as usize;
        if r >= self.rows {
            r - self.rows
        } else {
            r
        }
    }

    /// `pt`'s row and column, checked against the window and the box.
    #[inline]
    fn locate(&self, pt: K) -> Result<(i64, usize), SimError> {
        let t = pt.row();
        if t < self.lo {
            return Err(BELOW_WINDOW);
        }
        match pt.col(self.side) {
            Some(c) if t <= self.last => Ok((t, c)),
            _ => Err(OFF_TABLE),
        }
    }

    /// Presence word and bit of `(t, c)`, `None` above the ring.
    #[inline]
    fn bit(&self, t: i64, c: usize) -> Option<(usize, u64)> {
        (t < self.lo + self.rows as i64)
            .then(|| (self.ring(t) * self.words + c / 64, 1 << (c % 64)))
    }

    /// The value at `pt`, if any.
    #[inline]
    pub fn get(&self, pt: K) -> Result<Option<V>, SimError> {
        let (t, c) = self.locate(pt)?;
        Ok(match self.bit(t, c) {
            Some((w, b)) if self.live[w] & b != 0 => {
                Some(V::unpack(self.slots[self.ring(t) * self.width + c]))
            }
            _ => None,
        })
    }

    /// Whether `pt` has a value.
    #[inline]
    pub fn contains(&self, pt: K) -> Result<bool, SimError> {
        Ok(self.get(pt)?.is_some())
    }

    /// Set `pt`'s value; returns the one it replaces.
    #[inline]
    pub fn insert(&mut self, pt: K, v: V) -> Result<Option<V>, SimError> {
        let (t, c) = self.locate(pt)?;
        let raw = v.pack().ok_or(TOO_WIDE)?;
        if t >= self.lo + self.rows as i64 {
            self.grow(t);
        }
        if t > self.top {
            self.top = t;
            #[cfg(test)]
            {
                self.high_water = self.high_water.max((t - self.lo + 1) as usize);
            }
        }
        let r = self.ring(t);
        let (w, b) = (r * self.words + c / 64, 1 << (c % 64));
        let had = self.live[w] & b != 0;
        self.live[w] |= b;
        let old = std::mem::replace(&mut self.slots[r * self.width + c], raw);
        Ok(had.then(|| V::unpack(old)))
    }

    /// Remove `pt`'s value and return it.
    #[inline]
    pub fn remove(&mut self, pt: K) -> Result<Option<V>, SimError> {
        let (t, c) = self.locate(pt)?;
        Ok(match self.bit(t, c) {
            Some((w, b)) if self.live[w] & b != 0 => {
                self.live[w] &= !b;
                Some(V::unpack(self.slots[self.ring(t) * self.width + c]))
            }
            _ => None,
        })
    }

    /// Re-lay the ring from ring row 0 with room for row `t`: at least
    /// double, never past row `T`.
    fn grow(&mut self, t: i64) {
        let need = (t - self.lo + 1) as usize;
        let rows = need
            .max(2 * self.rows)
            .min((self.last - self.lo + 1) as usize);
        let mut slots = vec![V::Raw::default(); rows * self.width];
        let mut live = vec![0; rows * self.words];
        for (to, r) in (self.lo..self.lo + self.rows as i64).enumerate() {
            let from = self.ring(r);
            slots[to * self.width..][..self.width]
                .copy_from_slice(&self.slots[from * self.width..][..self.width]);
            live[to * self.words..][..self.words]
                .copy_from_slice(&self.live[from * self.words..][..self.words]);
        }
        (self.rows, self.head, self.slots, self.live) = (rows, 0, slots, live);
    }

    /// The entries of rows `t0..t1` (clamped to the window), in key
    /// order.
    pub fn entries(&self, t0: i64, t1: i64) -> impl Iterator<Item = (K, V)> + '_ {
        let hi = t1.min(self.top + 1).min(self.lo + self.rows as i64);
        (t0.max(self.lo)..hi).flat_map(move |t| {
            let r = self.ring(t);
            let live = &self.live[r * self.words..][..self.words];
            let slots = &self.slots[r * self.width..][..self.width];
            live.iter().enumerate().flat_map(move |(w, &bits)| {
                let mut bits = bits;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let c = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        (K::at(t, c, self.side), V::unpack(slots[c]))
                    })
                })
            })
        })
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.live.fill(0);
    }

    /// Drop the rows below `t` (never row `T`): a later access to them
    /// is an error.
    pub fn release_below(&mut self, t: i64) {
        let t = t.min(self.last);
        if t <= self.lo {
            return;
        }
        let gone = ((t - self.lo) as usize).min(self.rows);
        for r in self.lo..self.lo + gone as i64 {
            let r = self.ring(r);
            self.live[r * self.words..][..self.words].fill(0);
        }
        self.head = (self.head + gone) % self.rows;
        self.lo = t;
    }

    /// Most rows the window ever spanned (tests only).
    #[cfg(test)]
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELOW: Result<Option<u64>, SimError> = Err(BELOW_WINDOW);

    #[test]
    fn point_table_insert_replace_remove() {
        let mut tb = PointTable::<Pt2, u64>::new(70, 9, 2);
        let a = Pt2::new(66, 3);
        assert_eq!(tb.get(a), Ok(None));
        assert_eq!(tb.insert(a, 5), Ok(None));
        assert_eq!(
            tb.insert(a, 7),
            Ok(Some(5)),
            "replace returns the old value"
        );
        assert_eq!(tb.get(a), Ok(Some(7)));
        assert_eq!(tb.contains(Pt2::new(65, 3)), Ok(false));
        assert_eq!(tb.remove(a), Ok(Some(7)));
        assert_eq!(tb.remove(a), Ok(None));
        assert_eq!(tb.get(a), Ok(None));
        // Off the mesh or past row T is an error, not a miss.
        assert_eq!(tb.get(Pt2::new(70, 3)), Err(OFF_TABLE));
        assert_eq!(tb.get(Pt2::new(-1, 3)), Err(OFF_TABLE));
        assert_eq!(tb.insert(Pt2::new(0, 10), 1), Err(OFF_TABLE));
        let mut t3 = PointTable::<Pt3, u64>::new(5, 4, 1);
        assert_eq!(t3.insert(Pt3::new(4, 0, 1), 9), Ok(None));
        assert_eq!(t3.get(Pt3::new(3, 5, 1)), Err(OFF_TABLE), "y off the mesh");
        assert_eq!(t3.get(Pt3::new(4, 0, 1)), Ok(Some(9)));
        // A location wider than a slot is refused, not truncated.
        let mut locs = PointTable::<Pt2, Loc>::new(4, 2, 3);
        assert_eq!(locs.insert(Pt2::new(1, 1), (3, 1 << 32)), Err(TOO_WIDE));
        assert_eq!(locs.insert(Pt2::new(1, 1), (3, 7)), Ok(None));
        assert_eq!(locs.get(Pt2::new(1, 1)), Ok(Some((3, 7))));
    }

    /// Entries come out in point order whatever the insertion order,
    /// across ring growth and removals.
    #[test]
    fn point_table_iterates_in_key_order() {
        let mut tb = PointTable::<Pt3, u64>::new(9, 40, 1);
        let mut want = std::collections::BTreeMap::new();
        let mut s = 12345u64;
        for i in 0..600u64 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pt = Pt3::new(
                (s >> 33) as i64 % 9,
                (s >> 45) as i64 % 9,
                (s >> 20) as i64 % 41,
            );
            if i % 3 == 2 {
                assert_eq!(tb.remove(pt), Ok(want.remove(&pt)));
            } else {
                assert_eq!(tb.insert(pt, i), Ok(want.insert(pt, i)));
            }
        }
        let got: Vec<_> = tb.entries(i64::MIN, i64::MAX).collect();
        assert_eq!(got, want.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
        let band: Vec<_> = tb.entries(7, 12).map(|(k, _)| k).collect();
        let want_band: Vec<_> = want
            .keys()
            .filter(|k| (7..12).contains(&k.t))
            .copied()
            .collect();
        assert_eq!(band, want_band);
        tb.clear();
        assert_eq!(tb.entries(i64::MIN, i64::MAX).count(), 0);
    }

    #[test]
    fn released_rows_read_as_typed_errors() {
        let mut tb = PointTable::<Pt2, u64>::new(4, 12, 4);
        for t in 0..=12 {
            tb.insert(Pt2::new(t % 4, t), t as u64).unwrap();
        }
        tb.release_below(6);
        assert_eq!(tb.get(Pt2::new(1, 5)), BELOW);
        assert_eq!(tb.remove(Pt2::new(1, 5)), BELOW);
        assert_eq!(tb.insert(Pt2::new(1, 5), 0), BELOW);
        assert_eq!(tb.get(Pt2::new(2, 6)), Ok(Some(6)));
        let kept: Vec<_> = tb.entries(i64::MIN, i64::MAX).map(|(k, _)| k.t).collect();
        assert_eq!(kept, (6..=12).collect::<Vec<_>>());
        // Releasing past row T keeps row T; released rows stay released
        // when the ring wraps onto their slots.
        tb.release_below(40);
        assert_eq!(tb.get(Pt2::new(0, 12)), Ok(Some(12)));
        assert_eq!(tb.get(Pt2::new(3, 11)), BELOW);
        assert_eq!(tb.high_water(), 13);
    }
}
