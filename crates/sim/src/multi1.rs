//! **Theorem 4** — the two-regime multiprocessor simulation of
//! `M_1(n, n, m)` by `M_1(n, p, m)` (Section 4.2).
//!
//! ## Structure
//!
//! * **Memory rearrangement** `π = π₂ ∘ π₁` on the `q = n/s` width-`s`
//!   strips: `π₁` reverses the odd length-`p` segments, `π₂` is the
//!   `(q/p)`-way shuffle.  Afterwards each processor holds one strip of
//!   every segment, initially-consecutive strips are either adjacent or
//!   `n/p` apart, and the strips of one segment map *bijectively* onto
//!   the `p` processors ([`rearrangement`]).  The rearrangement itself is
//!   performed (and charged) as a preprocessing stage.
//!
//! * **Regime 1** — the space-time is covered by diamonds `D(ps)`
//!   (executed sequentially, in topological order).  Before executing a
//!   tile, each strip's private-memory block and each preboundary value
//!   cascades through `log₂(n/(ps))` halving levels: at level `k` the
//!   word is relocated between staging addresses `≈ n·m·2^{-k}/p` and
//!   charged one near-neighbor hop (`n/p`), which is exactly the
//!   `O(n²m/p)`-per-stage accounting the paper derives from the
//!   rearranged layout.  The symmetric scatter runs after the tile.
//!
//! * **Regime 2** — a `D(ps)` tile splits into `2p - 1` rows of `D(s)`
//!   diamonds.  Aligned rows sit inside strips: each diamond is executed
//!   by its strip's processor with the full Theorem-3 recursion (the
//!   per-processor [`DiamondExec`]).  Offset rows straddle strip
//!   boundaries: the *cooperating mode* splits such a diamond
//!   recursively — off-center children go wholly to the left/right
//!   processor, the central chain of leaf diamonds is executed
//!   vertex-by-vertex with each vertex on its own side and `O(s)` words
//!   exchanged across the seam at distance `n/p`.
//!
//! ## Fidelity notes (also in DESIGN.md)
//!
//! * The Regime-1 cascade performs one physical move per word and adds
//!   the per-level staging charges explicitly; the level distances rely
//!   on the rearrangement adjacency properties, which are implemented
//!   and property-tested in [`rearrangement`] rather than re-derived
//!   per word.
//! * In the central band of a shared diamond, operand reads are charged
//!   at the top of the working region (the staging area they physically
//!   occupy) rather than through a per-word address map.

use std::sync::Arc;

use bsmp_machine::{FxHashMap, FxHashSet};

use bsmp_faults::{FaultEnv, FaultSession};
use bsmp_geometry::{diamond_cover, ClippedDiamond, IRect, Pt2};
use bsmp_hram::Word;
use bsmp_machine::{
    lease_scratch, linear_guest_time, plan_cache, CoreKind, EventQueue, LinearProgram, MachineSpec,
    PlanKey, ScratchLease, StageClock,
};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::dnc1::exec1_plan_key;
use crate::error::SimError;
use crate::exec1::{DiamondExec, DiamondPlan};
use crate::report::SimReport;
use crate::zone::ZoneAlloc;
use crate::{settle_scenario, stage_totals, RunOpts};

/// The strip rearrangement `π = π₂ ∘ π₁` of Section 4.2.
pub mod rearrangement {
    /// Slot of strip `j` after the rearrangement, with `q` strips and
    /// `p` processors (`p | q`).
    ///
    /// `π₁` reverses odd segments of length `p`; `π₂` sends segment `i`,
    /// position `r` to slot `r·(q/p) + i`.
    pub fn slot_of(j: usize, q: usize, p: usize) -> usize {
        let seg = j / p;
        let pos = j % p;
        let pos1 = if seg % 2 == 1 { p - 1 - pos } else { pos };
        pos1 * (q / p) + seg
    }

    /// Processor holding strip `j` after the rearrangement.
    pub fn proc_of(j: usize, q: usize, p: usize) -> usize {
        slot_of(j, q, p) / (q / p)
    }

    /// Local slot (within its processor's memory) of strip `j`.
    pub fn local_slot_of(j: usize, q: usize, p: usize) -> usize {
        slot_of(j, q, p) % (q / p)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn is_a_permutation() {
            let (q, p) = (16, 4);
            let mut seen = vec![false; q];
            for j in 0..q {
                let s = slot_of(j, q, p);
                assert!(!seen[s]);
                seen[s] = true;
            }
        }

        #[test]
        fn consecutive_strips_adjacent_or_q_over_p_apart() {
            // The paper's first property: initially consecutive indices
            // are either consecutive or at distance q/p in the
            // rearranged array.
            let (q, p) = (32, 4);
            for j in 0..q - 1 {
                let d =
                    (slot_of(j, q, p) as i64 - slot_of(j + 1, q, p) as i64).unsigned_abs() as usize;
                assert!(d == 1 || d == q / p, "strips {j},{} at distance {d}", j + 1);
            }
        }

        #[test]
        fn each_processor_gets_one_strip_per_segment() {
            // The paper's second property: every segment of I has a
            // member in every processor's region.
            let (q, p) = (32, 8);
            for seg in 0..q / p {
                let procs: bsmp_machine::FxHashSet<usize> =
                    (0..p).map(|r| proc_of(seg * p + r, q, p)).collect();
                assert_eq!(procs.len(), p, "segment {seg} covers all processors");
            }
        }

        #[test]
        fn seam_strips_share_a_processor() {
            // Across a segment boundary, the two adjacent strips are
            // homologous and land on the same processor (so inter-segment
            // shared diamonds need no communication).
            let (q, p) = (32, 4);
            for seg in 0..q / p - 1 {
                let a = proc_of(seg * p + p - 1, q, p);
                let b = proc_of((seg + 1) * p, q, p);
                assert_eq!(a, b, "seam after segment {seg}");
            }
        }
    }
}

/// Pick the engine's strip width: the admissible width (`s | n`,
/// `p | n/s`, `s ≥ 2`) closest to the paper's `s*` in log-scale.
/// Returns `None` when no admissible width exists (e.g. prime `n`) —
/// callers fall back to the naive scheme.
pub fn engine_strip(n: u64, m: u64, p: u64) -> Option<u64> {
    let star = bsmp_analytic::optimal_s(n as f64, m as f64, p as f64);
    let mut best: Option<(f64, u64)> = None;
    let mut s = 2u64;
    while s <= n / p.max(1) {
        if s.is_power_of_two() && n.is_multiple_of(s) && (n / s).is_multiple_of(p) {
            let dist = (s as f64 / star).ln().abs();
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, s));
            }
        }
        s += 1;
    }
    best.map(|(_, s)| s)
}

/// Simulate `steps` guest steps of `M_1(n, n, m)` on `M_1(n, p, m)` by
/// the two-regime strip scheme, with preconditions checked.  Reads
/// `opts.strip` (default: the admissible width closest to the paper's
/// `s*`, see [`engine_strip`]), `opts.plan`, and `opts.core`: the dense
/// tile loop, or the discrete-event calendar that drains `D(ps)` tiles
/// by center time.  Reports are bit-identical across cores (the tile
/// cover is emitted in non-decreasing center-time order, which the
/// calendar replays verbatim).  The tracer observes every
/// rearrangement/gather/row/scatter stage; a disabled tracer costs one
/// `None` check per stage.
pub fn try_simulate_multi1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
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
    let mut eng = Engine::new(spec, prog, steps, opts)?;
    eng.tracer = std::mem::take(tracer);
    eng.tracer.ensure_procs(spec.p as usize);
    let outcome = eng.run(init);
    if outcome.is_ok() {
        settle_scenario(&mut eng.clock, &mut eng.session, &mut eng.tracer, 1);
    }
    let rep = outcome.map(|()| eng.finish(spec, prog, steps));
    *tracer = std::mem::take(&mut eng.tracer);
    rep
}

/// [`try_simulate_multi1`] with default options; panics on invalid
/// parameters.
pub fn simulate_multi1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_multi1(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("multi1: {e}"))
}

struct Engine<'a, P: LinearProgram> {
    n: usize,
    p: usize,
    m: usize,
    s: usize,
    q: usize,
    t_steps: i64,
    hop: f64,
    cbox: IRect,
    /// Per-processor executor (owns that processor's H-RAM).
    execs: Vec<DiamondExec<'a, P>>,
    prog: &'a P,
    /// Ground-truth words for every live dag value (addresses are
    /// tracked in `placed`/`home`).
    vals: FxHashMap<Pt2, Word>,
    /// Transient placement during one `D(ps)` tile: value → (proc, addr).
    placed: FxHashMap<Pt2, (usize, usize)>,
    /// Persistent placement between tiles: value → (proc, addr in the
    /// value-home region).
    home: FxHashMap<Pt2, (usize, usize)>,
    home_zones: Vec<ZoneAlloc>,
    transit_zones: Vec<ZoneAlloc>,
    /// Per-strip staged state base during a tile (proc, addr), `m > 1`.
    staged_state: FxHashMap<usize, (usize, usize)>,
    clock: StageClock,
    /// Reusable stage buffers (snapshots + deltas), allocated once.
    scratch: ScratchLease,
    /// Layout constants (per processor).
    tile_space: usize,
    transit_base: usize,
    transit_cap: usize,
    strip_home_base: usize,
    /// Regime-1 cascade levels `log₂(n/(p·s))`.
    levels: u32,
    preprocessing_time: f64,
    debug_ctx: String,
    session: FaultSession,
    tracer: Tracer,
    core: CoreKind,
    /// Shared-plan bookkeeping: the cache key of the per-tile
    /// decomposition plan, the cached plan all `p` executors adopted,
    /// and the probe's discoveries (harvested with the executors' in
    /// [`finish`](Self::finish)).
    plan_key: PlanKey,
    plan_cached: Option<Arc<DiamondPlan>>,
    plan_found: DiamondPlan,
}

impl<'a, P: LinearProgram> Engine<'a, P> {
    fn new(spec: &MachineSpec, prog: &'a P, steps: i64, opts: RunOpts) -> Result<Self, SimError> {
        if spec.d != 1 {
            return Err(SimError::DimensionMismatch {
                expected: 1,
                got: spec.d,
            });
        }
        let n = spec.n as usize;
        let p = spec.p as usize;
        let m = prog.m();
        if m as u64 != spec.m {
            return Err(SimError::DensityMismatch {
                spec_m: spec.m,
                prog_m: m as u64,
            });
        }
        let s = match opts.strip {
            Some(s) => {
                let su = s as usize;
                if su < 2 || !n.is_multiple_of(su) || !(n / su).is_multiple_of(p) {
                    return Err(SimError::InvalidStrip {
                        s,
                        n: spec.n,
                        p: spec.p,
                    });
                }
                su
            }
            None => match engine_strip(spec.n, spec.m, spec.p) {
                Some(s) => s as usize,
                None => {
                    return Err(SimError::NoAdmissibleStrip {
                        n: spec.n,
                        m: spec.m,
                        p: spec.p,
                    })
                }
            },
        };
        let q = n / s;
        let cbox = IRect::new(0, n as i64, 1, steps + 1);

        // Per-processor layout: probe the worst-case inner-tile footprint.
        // The probe and all `p` executors recurse over translates of the
        // same tile shapes, so they all share one frozen decomposition
        // plan from the global cache (the probe's own discoveries seed
        // the harvest folded back in at `finish`).
        let pseudo = MachineSpec::new(1, spec.n, 1, spec.m);
        let leaf_h = (m as i64 / 2).max(1);
        let plan_key = exec1_plan_key(spec.n, spec.m, steps, leaf_h);
        let plan_cached = plan_cache().get_as::<DiamondPlan>(&plan_key);
        let mut probe = DiamondExec::new(&pseudo, prog, steps, leaf_h);
        if let Some(pl) = &plan_cached {
            probe.set_plan(Arc::clone(pl));
        }
        let interior = ClippedDiamond::new(
            bsmp_geometry::Diamond::new((n / 2) as i64, (steps / 2).max(1), (s / 2) as i64),
            cbox,
        );
        let tile_space = probe.space(&interior) * 2 + 64;
        let plan_found = probe.drain_discoveries();
        let transit_cap = 8 * s * m + 48 * s + 1024;
        let home_cap = 16 * (n / p).max(s) + 8 * s + 512;
        let transit_base = tile_space;
        let home_base = transit_base + transit_cap;
        let strip_home_base = home_base + home_cap;

        let execs: Vec<DiamondExec<'a, P>> = (0..p)
            .map(|_| {
                let mut e = DiamondExec::new(&pseudo, prog, steps, leaf_h);
                if let Some(pl) = &plan_cached {
                    e.set_plan(Arc::clone(pl));
                }
                e
            })
            .collect();
        let home_zones = (0..p)
            .map(|_| ZoneAlloc::new(home_base, home_cap))
            .collect();
        let transit_zones = (0..p)
            .map(|_| ZoneAlloc::new(transit_base, transit_cap))
            .collect();
        let levels = ((n as f64) / (p as f64 * s as f64)).log2().max(0.0).round() as u32;
        let session = FaultSession::new(
            &opts.plan,
            FaultEnv {
                p,
                hop: spec.neighbor_distance(),
                checkpoint_words: spec.node_mem(),
                proc_side: 1,
            },
        );

        Ok(Engine {
            n,
            p,
            m,
            s,
            q,
            t_steps: steps,
            hop: spec.neighbor_distance(),
            cbox,
            execs,
            prog,
            vals: FxHashMap::default(),
            placed: FxHashMap::default(),
            home: FxHashMap::default(),
            home_zones,
            transit_zones,
            staged_state: FxHashMap::default(),
            clock: StageClock::new(),
            scratch: lease_scratch(p),
            tile_space,
            transit_base,
            transit_cap,
            strip_home_base,
            levels,
            preprocessing_time: 0.0,
            debug_ctx: String::new(),
            session,
            tracer: Tracer::off(),
            core: opts.core,
            plan_key,
            plan_cached,
            plan_found,
        })
    }

    /// Credit points/messages to processor `pr`'s tally slot (no-op when
    /// tracing is disabled).
    #[inline]
    fn tmark(&self, pr: usize, points: u64, msgs: u64) {
        if let Some(tl) = self.tracer.tally() {
            tl.add(pr, points, msgs);
        }
    }

    fn proc_of_strip(&self, j: usize) -> usize {
        rearrangement::proc_of(j, self.q, self.p)
    }

    /// Local base address of strip `j`'s private-memory home block.
    fn strip_home(&self, j: usize) -> usize {
        self.strip_home_base + rearrangement::local_slot_of(j, self.q, self.p) * self.s * self.m
    }

    fn strip_of_col(&self, x: i64) -> usize {
        (x as usize) / self.s
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

    /// Lay out the guest image at the *natural* strip homes (uncharged:
    /// problem statement), then perform and charge the rearrangement.
    fn preprocess(&mut self, init: &[Word]) -> Result<(), SimError> {
        // Natural placement: strip j at slot j.
        let seg = self.q / self.p;
        let sm = self.s * self.m;
        let home_base = self.strip_home_base;
        let natural_home =
            move |j: usize| -> (usize, usize) { (j / seg, home_base + (j % seg) * sm) };
        for j in 0..self.q {
            let (pr, base) = natural_home(j);
            for w in 0..sm {
                self.execs[pr].ram.poke(base + w, init[j * sm + w]);
            }
        }
        // Rearrangement stage: move every strip to its π-home.
        self.begin_stage("rearrange");
        // Stage via a scratch buffer in the transit region to avoid
        // overwriting unmoved strips (cycle-safe: copy all out, then in).
        let mut buf: Vec<Vec<Word>> = Vec::with_capacity(self.q);
        for j in 0..self.q {
            let (pr, base) = natural_home(j);
            let mut b = Vec::with_capacity(sm);
            for w in 0..sm {
                b.push(self.execs[pr].ram.read(base + w));
            }
            buf.push(b);
        }
        for (j, bwords) in buf.iter().enumerate() {
            let (src_p, _) = natural_home(j);
            let dst_p = self.proc_of_strip(j);
            let dst = self.strip_home(j);
            let hops = (src_p as i64 - dst_p as i64).unsigned_abs() as f64;
            if hops > 0.0 {
                let c = sm as f64 * hops * self.hop;
                self.execs[src_p].ram.meter.add_comm(c / 2.0);
                self.execs[dst_p].ram.meter.add_comm(c / 2.0);
                self.tmark(src_p, 0, sm as u64);
            }
            for (w, word) in bwords.iter().enumerate() {
                self.execs[dst_p].ram.write(dst + w, *word);
            }
        }
        self.close_stage()?;
        self.preprocessing_time = self.clock.parallel_time;

        // Seed the input-row values: value (x, 0) is the content of cell
        // (x, cell(x,0)) inside the strip home (no copy needed).
        for x in 0..self.n {
            let j = self.strip_of_col(x as i64);
            let pr = self.proc_of_strip(j);
            let addr = self.strip_home(j) + (x - j * self.s) * self.m + self.prog.cell(x, 0);
            self.home.insert(Pt2::new(x as i64, 0), (pr, addr));
        }
        Ok(())
    }

    /// Charge the Regime-1 cascade for one word arriving at (or leaving)
    /// a tile: one staging relocation and one near-neighbor hop per
    /// halving level.
    fn cascade_charge(&mut self, pr: usize, words: usize) {
        let ram = &mut self.execs[pr].ram;
        for k in 0..self.levels {
            let stage_addr = (self.n * self.m) >> (k + 1).min(63);
            let c = 2.0 + 2.0 * ram.access.f(stage_addr / self.p.max(1));
            ram.meter.add_transfer(c * words as f64);
            ram.meter.add_comm(words as f64 * self.hop);
        }
        if self.levels > 0 {
            self.tmark(pr, 0, words as u64 * self.levels as u64);
        }
    }

    /// Move one value into processor `pr`'s transit zone; returns the
    /// address.  Sources: current tile placement, or the inter-tile home.
    fn stage_value(&mut self, pt: Pt2, pr: usize) -> Result<usize, SimError> {
        if let Some(&(owner, addr)) = self.placed.get(&pt) {
            if owner == pr {
                return Ok(addr);
            }
            // Cross-seam exchange (cooperating mode): one word, charged
            // on both endpoints at the true processor distance.
            let hops = (owner as i64 - pr as i64).unsigned_abs() as f64;
            let w = self.vals[&pt];
            let _ = self.execs[owner].ram.read(addr);
            self.execs[owner].ram.meter.add_comm(hops * self.hop / 2.0);
            let dst = self.transit_zones[pr].alloc();
            self.execs[pr].ram.meter.add_comm(hops * self.hop / 2.0);
            self.tmark(pr, 0, 1);
            self.execs[pr].ram.write(dst, w);
            self.placed.insert(pt, (pr, dst));
            return Ok(dst);
        }
        let (owner, addr) = *self.home.get(&pt).ok_or(SimError::Internal {
            what: "staged value neither placed nor home",
        })?;
        // Inter-tile ingest: cascade through the Regime-1 levels.
        let w = if self.vals.contains_key(&pt) {
            self.vals[&pt]
        } else {
            // Input-row value read straight out of the strip home.
            self.execs[owner].ram.peek(addr)
        };
        let _ = self.execs[owner].ram.read(addr);
        self.cascade_charge(pr, 1);
        if owner != pr {
            let hops = (owner as i64 - pr as i64).unsigned_abs() as f64;
            self.execs[owner].ram.meter.add_comm(hops * self.hop / 2.0);
            self.execs[pr].ram.meter.add_comm(hops * self.hop / 2.0);
            self.tmark(pr, 0, 1);
        }
        let dst = self.transit_zones[pr].alloc();
        self.execs[pr].ram.write(dst, w);
        self.vals.insert(pt, w);
        self.placed.insert(pt, (pr, dst));
        Ok(dst)
    }

    /// Stage strip `j`'s private memory into its processor's transit
    /// region for the duration of a tile (Regime-1 gather).
    fn stage_strip(&mut self, j: usize) {
        if self.m == 1 || self.staged_state.contains_key(&j) {
            return;
        }
        let pr = self.proc_of_strip(j);
        let sm = self.s * self.m;
        let src = self.strip_home(j);
        let dst = self.transit_zones[pr].alloc_block(sm);
        self.execs[pr].ram.relocate_block(src, dst, sm);
        self.cascade_charge(pr, sm);
        self.staged_state.insert(j, (pr, dst));
    }

    /// Return strip `j`'s private memory to its home (Regime-1 scatter).
    fn unstage_strip(&mut self, j: usize) {
        if let Some((pr, base)) = self.staged_state.remove(&j) {
            let sm = self.s * self.m;
            let dst = self.strip_home(j);
            self.execs[pr].ram.relocate_block(base, dst, sm);
            self.cascade_charge(pr, sm);
            self.transit_zones[pr].free_block(base, sm);
        }
    }

    /// The vertices of `piece` whose successors escape it — the values
    /// later pieces (or the final report) will need.
    fn outbound(&self, piece: &ClippedDiamond) -> Vec<Pt2> {
        // Row-strip form of the per-point `succs()` scan: a vertex
        // escapes iff it sits on the last row, or some successor inside
        // the computation box falls outside the piece's next row (piece
        // rows are contiguous intervals).  Emission order equals the
        // `for_each_point` order the per-point scan produced.
        let n = self.n as i64;
        let mut out = Vec::new();
        piece.for_each_row(|t, a, b| {
            let nr = if t == self.t_steps {
                None
            } else {
                piece.row_range(t + 1)
            };
            match nr {
                // Last row, or no next row in the piece: everything
                // escapes (each vertex has an in-box successor at t+1
                // whenever t < t_steps; at t = t_steps it reports out).
                None => {
                    for x in a..=b {
                        out.push(Pt2::new(x, t));
                    }
                }
                Some((a2, b2)) => {
                    for x in a..=b {
                        if (x - 1).max(0) < a2 || (x + 1).min(n - 1) > b2 {
                            out.push(Pt2::new(x, t));
                        }
                    }
                }
            }
        });
        out
    }

    /// The in-dag preboundary of a piece (values needed before running
    /// it).
    fn gamma(&self, piece: &ClippedDiamond) -> Vec<Pt2> {
        // Row-strip form of the per-point `preds()` scan: row t's
        // members [a, b] pull [a−1, b+1] at t−1; whatever the piece
        // doesn't own of that span (its rows are contiguous intervals)
        // is preboundary.  Rows are disjoint, so no dedup set is needed.
        let n = self.n as i64;
        let mut v: Vec<Pt2> = Vec::new();
        piece.for_each_row(|t, a, b| {
            let tp = t - 1;
            if tp < 0 {
                return;
            }
            let lo = (a - 1).max(0);
            let hi = (b + 1).min(n - 1);
            // Empty own-row sentinel subtracts nothing from [lo, hi].
            let (c, d) = piece.row_range(tp).unwrap_or((hi + 1, hi));
            for x in lo..=hi.min(c - 1) {
                v.push(Pt2::new(x, tp));
            }
            for x in (d + 1).max(lo)..=hi {
                v.push(Pt2::new(x, tp));
            }
        });
        v.sort();
        v
    }

    /// Execute one (whole) `D(·)` piece on processor `pr` via the full
    /// Theorem-3 recursion, staging its inputs first.
    fn run_piece_on(&mut self, pr: usize, piece: &ClippedDiamond) -> Result<(), SimError> {
        if piece.points_count() == 0 {
            return Ok(());
        }
        self.tmark(pr, piece.points_count() as u64, 0);
        self.debug_ctx = format!("piece {:?} on proc {pr}", piece.d);
        // Stage preboundary values.  Each piece gets *private* copies of
        // its preboundary (the recursion consumes and frees them); the
        // canonical placement in `placed`/`home` is untouched.
        let g: Vec<Pt2> = self.gamma(piece);
        let mut seeds = Vec::with_capacity(g.len());
        for pt in &g {
            let addr = self.stage_value(*pt, pr)?;
            let w = self.execs[pr].ram.peek(addr);
            let copy = self.transit_zones[pr].alloc();
            let _ = self.execs[pr].ram.read(addr);
            self.execs[pr].ram.write(copy, w);
            seeds.push((*pt, copy));
        }
        // Columns and their staged states.  The recursion relocates the
        // per-column blocks; we write them back to the strip block after
        // the piece completes so the staging area stays canonical.
        let b = piece.d.bbox().intersect(&self.cbox);
        let mut state_seeds = Vec::new();
        if self.m > 1 {
            for x in b.x0.max(0)..b.x1.min(self.n as i64) {
                if !piece_has_column(piece, x, &self.cbox) {
                    continue;
                }
                let j = self.strip_of_col(x);
                let (owner, base) = *self.staged_state.get(&j).ok_or(SimError::Internal {
                    what: "piece column's strip not staged",
                })?;
                assert_eq!(
                    owner, pr,
                    "piece columns must be on the executing processor"
                );
                // Private copy of the column block for the recursion.
                let home_addr = base + (x as usize - j * self.s) * self.m;
                let copy = self.transit_zones[pr].alloc_block(self.m);
                self.execs[pr].ram.relocate_block(home_addr, copy, self.m);
                state_seeds.push((x, copy, home_addr));
            }
        }

        // Run the recursion on this processor's H-RAM.
        // `outbound` emits in time-major order — sorted and duplicate-free,
        // exactly what `exec` wants.
        let out_pts = self.outbound(piece);
        debug_assert!(out_pts.windows(2).all(|w| w[0] < w[1]));
        {
            let exec = &mut self.execs[pr];
            exec.clear_seeds();
            for (x, addr, _) in &state_seeds {
                exec.seed_state(*x, *addr);
            }
        }
        // The staged preboundary copies become the recursion's value
        // directory (sorting is host bookkeeping — the staging charges
        // above already happened in Γ emission order).
        seeds.sort_unstable();
        let space = self.execs[pr].space(piece);
        if space > self.tile_space {
            return Err(SimError::Internal {
                what: "tile footprint exceeds the tile budget",
            });
        }
        // Parent zone: the transit zone (park results there).
        let mut zone = std::mem::replace(&mut self.transit_zones[pr], ZoneAlloc::new(0, 0));
        let mut out_addrs = Vec::with_capacity(out_pts.len());
        let exec_res = self.execs[pr].exec(piece, &out_pts, &mut zone, &seeds, &mut out_addrs);
        self.transit_zones[pr] = zone;
        exec_res?;
        if out_addrs.len() != out_pts.len() {
            return Err(SimError::Internal {
                what: "piece output not parked",
            });
        }

        // Harvest: record outbound values (they stay parked in transit).
        for (pt, addr) in out_pts.into_iter().zip(out_addrs) {
            let w = self.execs[pr].ram.peek(addr);
            self.vals.insert(pt, w);
            if let Some((old_pr, old_addr)) = self.placed.insert(pt, (pr, addr)) {
                // Superseded stale placement (shouldn't generally happen).
                self.transit_zones[old_pr].free_if_owned(old_addr);
            }
        }
        // Write the evolved column states back into the strip block and
        // release the recursion's parked blocks.
        if self.m > 1 {
            for (x, _, home_addr) in &state_seeds {
                let parked = self.execs[pr].state_addr(*x).ok_or(SimError::Internal {
                    what: "piece column state not parked",
                })?;
                self.execs[pr]
                    .ram
                    .relocate_block(parked, *home_addr, self.m);
                self.transit_zones[pr].free_block(parked, self.m);
            }
        }
        self.execs[pr].clear_seeds();
        Ok(())
    }

    /// Execute a strip-boundary diamond in cooperating mode: off-center
    /// children go wholly to one side; the central leaf chain runs
    /// vertex-by-vertex, each vertex on its own side.
    fn run_shared(&mut self, piece: &ClippedDiamond, pl: usize, pr: usize) -> Result<(), SimError> {
        if piece.points_count() == 0 {
            return Ok(());
        }
        let leaf_h = (self.m as i64 / 2).max(1);
        if piece.d.h <= leaf_h {
            return self.run_band_leaf(piece, pl, pr);
        }
        for kid in piece.d.children() {
            let ck = ClippedDiamond::new(kid, self.cbox);
            if ck.points_count() == 0 {
                continue;
            }
            if kid.cx < piece.d.cx {
                self.run_piece_on(pl, &ck)?;
            } else if kid.cx > piece.d.cx {
                self.run_piece_on(pr, &ck)?;
            } else {
                self.run_shared(&ck, pl, pr)?;
            }
        }
        Ok(())
    }

    /// Central-band leaf of a shared diamond: naive execution split by
    /// side, with seam crossings charged at one hop.
    fn run_band_leaf(
        &mut self,
        piece: &ClippedDiamond,
        pl: usize,
        pr: usize,
    ) -> Result<(), SimError> {
        let mut pts = Vec::with_capacity(piece.points_count() as usize);
        piece.for_each_point(|pt| {
            if self.cbox.contains(pt) {
                pts.push(pt);
            }
        });
        pts.sort();
        if pts.is_empty() {
            return Ok(());
        }
        let cx = piece.d.cx;
        let nominal = self.transit_base; // operands live in the transit band
        let out_set: FxHashSet<Pt2> = self.outbound(piece).into_iter().collect();
        for pt in &pts {
            let side = if pt.x < cx { pl } else { pr };
            self.tmark(side, 1, 0);
            // Operand fetches: previous values from `vals` (placed on
            // either side); charge a read at the transit band plus a hop
            // when the operand lives across the seam.
            let fetch = |me: &mut Self, qp: Pt2| -> Result<Word, SimError> {
                if qp.x < 0 || qp.x >= me.n as i64 {
                    return Ok(me.prog.boundary());
                }
                let w = if qp.t == 0 {
                    let a = me.stage_value(qp, side)?;
                    me.execs[side].ram.peek(a)
                } else {
                    *me.vals.get(&qp).ok_or(SimError::Internal {
                        what: "band-leaf operand missing",
                    })?
                };
                let owner = me.placed.get(&qp).map(|&(o, _)| o).unwrap_or(side);
                let _ = me.execs[side].ram.read(nominal);
                if owner != side {
                    let hops = (owner as i64 - side as i64).unsigned_abs() as f64;
                    me.execs[owner].ram.meter.add_comm(hops * me.hop / 2.0);
                    me.execs[side].ram.meter.add_comm(hops * me.hop / 2.0);
                    me.tmark(side, 0, 1);
                }
                Ok(w)
            };
            let prev = fetch(self, Pt2::new(pt.x, pt.t - 1))?;
            let left = fetch(self, Pt2::new(pt.x - 1, pt.t - 1))?;
            let right = fetch(self, Pt2::new(pt.x + 1, pt.t - 1))?;
            let own = if self.m > 1 {
                let j = self.strip_of_col(pt.x);
                let (owner, base) = self.staged_state[&j];
                assert_eq!(owner, side, "band vertex state must be on its own side");
                self.execs[side].ram.read(
                    base + (pt.x as usize - j * self.s) * self.m
                        + self.prog.cell(pt.x as usize, pt.t),
                )
            } else {
                prev
            };
            let out = self.prog.delta(pt.x as usize, pt.t, own, prev, left, right);
            self.execs[side].ram.compute();
            if self.m > 1 {
                let j = self.strip_of_col(pt.x);
                let (_, base) = self.staged_state[&j];
                self.execs[side].ram.write(
                    base + (pt.x as usize - j * self.s) * self.m
                        + self.prog.cell(pt.x as usize, pt.t),
                    out,
                );
            }
            self.vals.insert(*pt, out);
            if out_set.contains(pt) {
                let dst = self.transit_zones[side].alloc();
                self.execs[side].ram.write(dst, out);
                self.placed.insert(*pt, (side, dst));
            }
        }
        Ok(())
    }

    /// Execute one `D(ps)` tile: Regime-1 gather, the `2p-1` Regime-2
    /// stage rows, Regime-1 scatter.
    fn run_tile(&mut self, tile: &ClippedDiamond) -> Result<(), SimError> {
        self.debug_ctx = format!("tile {:?}", tile.d);
        let ps = (self.p * self.s) as i64;
        // --- Gather stage: stage all strips the tile touches.
        self.begin_stage("gather");
        let b = tile.d.bbox().intersect(&self.cbox);
        if b.is_empty() {
            return Ok(());
        }
        let strips: Vec<usize> = {
            let lo = self.strip_of_col(b.x0.max(0));
            let hi = self.strip_of_col((b.x1 - 1).min(self.n as i64 - 1));
            (lo..=hi).collect()
        };
        for &j in &strips {
            self.stage_strip(j);
        }
        self.close_stage()?;

        // --- Regime 2: rows of D(s) diamonds inside the tile.
        // The radius-s/2 tiling exactly refines the radius-ps/2 tiling
        // (anchored identically), so this tile's interior diamonds are
        // the s-cover members whose (always-included) top tip lies in the
        // tile diamond.
        // The radius-hs tiling that *nests* inside the radius-hp tiling
        // is anchored at (0, hp - hs): each halving level shifts the
        // center lattice down by the child radius.
        let hs = (self.s / 2) as i64;
        let hp = ((self.p * self.s) / 2) as i64;
        let inner = diamond_cover(IRect::new(b.x0, b.x1, b.t0, b.t1), hs, Pt2::new(0, hp - hs));
        let mut rows: Vec<(i64, Vec<ClippedDiamond>)> = Vec::new();
        for d in inner {
            if !tile.d.contains(Pt2::new(d.d.cx, d.d.ct + hs)) {
                continue;
            }
            let within = ClippedDiamond::new(d.d, self.cbox);
            if within.points_count() == 0 {
                continue;
            }
            match rows.last_mut() {
                Some((ct, v)) if *ct == d.d.ct => v.push(within),
                _ => rows.push((d.d.ct, vec![within])),
            }
        }
        let _ = ps;
        let mut prev_row_lo = i64::MIN;
        for (row_ct, row) in rows {
            self.begin_stage("row");
            // Free transit slots of values that no later piece (in this
            // tile or any other) can consume: everything below the
            // previous row's floor that does not escape the tile.
            let row_lo = row_ct - hs;
            if prev_row_lo > i64::MIN {
                let mut dead: Vec<Pt2> =
                    self.placed
                        .iter()
                        .filter(|(pt, _)| {
                            pt.t < prev_row_lo - 1
                                && pt.t != self.t_steps
                                && pt.succs().iter().all(|sq| {
                                    !self.cbox.contains(*sq) || self.vals.contains_key(sq)
                                })
                                && pt
                                    .succs()
                                    .iter()
                                    .all(|sq| !self.cbox.contains(*sq) || tile.contains(*sq))
                        })
                        .map(|(pt, _)| *pt)
                        .collect();
                dead.sort();
                for pt in dead {
                    let (pr2, addr) = self.placed.remove(&pt).ok_or(SimError::Internal {
                        what: "transit placement missing for a dead value",
                    })?;
                    self.transit_zones[pr2].free_if_owned(addr);
                }
            }
            prev_row_lo = row_lo;
            for piece in row {
                let cxu = piece.d.cx;
                if cxu.rem_euclid(self.s as i64) == 0 && self.p > 1 {
                    // Strip-boundary diamond: cooperating mode between the
                    // strips left and right of the seam (edge seams where
                    // one side is outside the array degenerate to one
                    // processor).
                    let jl = self.strip_of_col((cxu - 1).clamp(0, self.n as i64 - 1));
                    let jr = self.strip_of_col(cxu.clamp(0, self.n as i64 - 1));
                    let (pl, pr) = (self.proc_of_strip(jl), self.proc_of_strip(jr));
                    if pl == pr {
                        self.run_piece_on(pl, &piece)?;
                    } else {
                        self.run_shared(&piece, pl, pr)?;
                    }
                } else {
                    let j = self.strip_of_col(piece.d.cx.clamp(0, self.n as i64 - 1));
                    self.run_piece_on(self.proc_of_strip(j), &piece)?;
                }
            }
            self.close_stage()?;
        }

        // --- Scatter stage: return strips home; persist still-needed
        // boundary values; drop the rest.
        self.begin_stage("scatter");
        for &j in &strips {
            self.unstage_strip(j);
        }
        let mut placed: Vec<(Pt2, (usize, usize))> =
            std::mem::take(&mut self.placed).into_iter().collect();
        placed.sort_by_key(|(pt, _)| *pt);
        for (pt, (pr, addr)) in placed {
            let needed = pt.t == self.t_steps
                || pt.succs().iter().any(|sq| {
                    self.cbox.contains(*sq) && !self.vals.contains_key(sq) && !tile.contains(*sq)
                });
            self.transit_zones[pr].free_if_owned(addr);
            if needed && !self.home.contains_key(&pt) {
                let w = self.vals[&pt];
                let _ = self.execs[pr].ram.read(addr);
                self.cascade_charge(pr, 1);
                let dst = self.home_zones[pr].alloc();
                self.execs[pr].ram.write(dst, w);
                self.home.insert(pt, (pr, dst));
            }
        }
        // Garbage-collect home values no longer reachable.
        let cutoff = b.t0 - 2;
        let mut dead: Vec<Pt2> = self
            .home
            .keys()
            .copied()
            .filter(|pt| pt.t < cutoff && pt.t != self.t_steps)
            .collect();
        dead.sort();
        for pt in dead {
            let (pr, addr) = self.home.remove(&pt).ok_or(SimError::Internal {
                what: "home placement missing for a dead value",
            })?;
            // Input-row entries are views into the strip homes, not
            // allocated slots.
            if pt.t > 0 {
                self.home_zones[pr].free(addr);
            }
        }
        self.close_stage()?;
        // Fresh transit zones for the next tile (everything in them has
        // been scattered or dropped).
        for z in &mut self.transit_zones {
            *z = ZoneAlloc::new(self.transit_base, self.transit_cap);
        }
        Ok(())
    }

    fn run(&mut self, init: &[Word]) -> Result<(), SimError> {
        self.preprocess(init)?;
        if self.t_steps == 0 {
            return Ok(());
        }
        let hp = ((self.p * self.s) / 2) as i64;
        let tiles = diamond_cover(self.cbox, hp, Pt2::new(0, 0));
        match self.core {
            CoreKind::Dense => {
                for tile in tiles {
                    self.run_tile(&tile)?;
                }
            }
            CoreKind::Event => {
                // Calendar drain keyed by tile center time.  The cover is
                // sorted by (ct, cx) and buckets pop FIFO, so the drained
                // sequence is exactly the dense iteration order — the
                // meters stay bit-identical.
                let mut cal = EventQueue::new();
                for tile in tiles {
                    cal.schedule(tile.d.ct, tile);
                }
                while let Some((_ct, batch)) = cal.pop_stage() {
                    for tile in &batch {
                        self.run_tile(tile)?;
                    }
                }
            }
        }
        // For m = 1 the node state *is* the value: write the final row
        // back into the strip homes (charged — the host must leave the
        // guest's memory as the guest would).
        if self.m == 1 {
            self.begin_stage("writeback");
            for x in 0..self.n {
                let pt = Pt2::new(x as i64, self.t_steps);
                let (pr, addr) = *self.home.get(&pt).ok_or(SimError::Internal {
                    what: "final value not homed",
                })?;
                let w = self.vals[&pt];
                let _ = self.execs[pr].ram.read(addr);
                let j = self.strip_of_col(x as i64);
                let hp_ = self.proc_of_strip(j);
                if hp_ != pr {
                    let hops = (hp_ as i64 - pr as i64).unsigned_abs() as f64;
                    self.execs[pr].ram.meter.add_comm(hops * self.hop / 2.0);
                    self.execs[hp_].ram.meter.add_comm(hops * self.hop / 2.0);
                    self.tmark(pr, 0, 1);
                }
                let dst = self.strip_home(j) + (x - j * self.s);
                self.execs[hp_].ram.write(dst, w);
            }
            self.close_stage()?;
        }

        // Final un-rearrangement (restore the guest's natural layout).
        self.begin_stage("restore");
        let sm = self.s * self.m;
        let seg = self.q / self.p;
        let mut buf: Vec<Vec<Word>> = Vec::with_capacity(self.q);
        for j in 0..self.q {
            let pr = self.proc_of_strip(j);
            let base = self.strip_home(j);
            let mut bwords = Vec::with_capacity(sm);
            for w in 0..sm {
                bwords.push(self.execs[pr].ram.read(base + w));
            }
            buf.push(bwords);
        }
        for (j, bwords) in buf.iter().enumerate() {
            let src_p = self.proc_of_strip(j);
            let dst_p = j / seg;
            let dst = self.strip_home_base + (j % seg) * sm;
            let hops = (src_p as i64 - dst_p as i64).unsigned_abs() as f64;
            if hops > 0.0 {
                let c = sm as f64 * hops * self.hop;
                self.execs[src_p].ram.meter.add_comm(c / 2.0);
                self.execs[dst_p].ram.meter.add_comm(c / 2.0);
                self.tmark(src_p, 0, sm as u64);
            }
            for (w, word) in bwords.iter().enumerate() {
                self.execs[dst_p].ram.write(dst + w, *word);
            }
        }
        self.close_stage()?;
        Ok(())
    }

    fn finish(&mut self, spec: &MachineSpec, prog: &impl LinearProgram, steps: i64) -> SimReport {
        // Fold every executor's plan discoveries (plus the probe's,
        // stashed at construction) back into the cached plan.  `finish`
        // only runs on success, so partial failed runs never pollute the
        // cache.
        let mut found = std::mem::take(&mut self.plan_found);
        for e in &mut self.execs {
            found.absorb(e.drain_discoveries());
        }
        if !found.is_empty() {
            let mut merged = match self.plan_cached.take() {
                Some(arc) => (*arc).clone(),
                None => DiamondPlan::default(),
            };
            merged.absorb(found);
            let bytes = merged.approx_bytes();
            plan_cache().insert(self.plan_key.clone(), Arc::new(merged), bytes);
        }
        let sm = self.s * self.m;
        let seg = self.q / self.p;
        let mut mem = vec![0 as Word; self.n * self.m];
        for j in 0..self.q {
            let pr = j / seg;
            let base = self.strip_home_base + (j % seg) * sm;
            for w in 0..sm {
                mem[j * sm + w] = self.execs[pr].ram.peek(base + w);
            }
        }
        let values: Vec<Word> = if steps == 0 {
            (0..self.n)
                .map(|x| mem[x * self.m + self.prog.cell(x, 0)])
                .collect()
        } else {
            (0..self.n)
                .map(|x| self.vals[&Pt2::new(x as i64, steps)])
                .collect()
        };
        let meter = self
            .execs
            .iter()
            .fold(bsmp_hram::CostMeter::new(), |acc, e| {
                acc.merged(&e.ram.meter)
            });
        let guest_time = linear_guest_time(spec, prog, steps);
        self.tracer.finish_run(
            RunMeta {
                engine: EngineKind::Multi1,
                d: 1,
                n: spec.n,
                m: spec.m,
                p: spec.p,
                steps: steps.max(0) as u64,
            },
            self.clock.parallel_time,
            guest_time,
        );
        SimReport {
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
        }
    }
}

/// Does `piece` execute at least one vertex in column `x`?
fn piece_has_column(piece: &ClippedDiamond, x: i64, cbox: &IRect) -> bool {
    let k = (x - piece.d.cx).abs();
    let lo = (piece.d.ct - piece.d.h + k + 1)
        .max(cbox.t0)
        .max(piece.clip.t0);
    let hi = (piece.d.ct + piece.d.h - k)
        .min(cbox.t1 - 1)
        .min(piece.clip.t1 - 1);
    let xlo = piece.clip.x0.max(cbox.x0);
    let xhi = piece.clip.x1.min(cbox.x1);
    x >= xlo && x < xhi && lo <= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_faults::FaultPlan;
    use bsmp_machine::run_linear;
    use bsmp_workloads::{inputs, CyclicWave, Eca, OddEvenSort};

    fn check_equiv(
        prog: &impl LinearProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(1, n, p, prog.m() as u64);
        let guest = run_linear(&spec, prog, init, steps);
        let rep = simulate_multi1(&spec, prog, init, steps);
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn rule110_small() {
        let init = inputs::random_bits(40, 16);
        check_equiv(&Eca::rule110(), 16, 2, 16, &init);
    }

    #[test]
    fn over_budget_tile_is_a_typed_error() {
        let spec = MachineSpec::new(1, 64, 4, 1);
        let init = inputs::random_bits(41, 64);
        let prog = Eca::rule110();
        let mut eng = Engine::new(&spec, &prog, 64, RunOpts::default()).unwrap();
        eng.tile_space = 0;
        assert!(matches!(
            eng.run(&init),
            Err(SimError::Internal {
                what: "tile footprint exceeds the tile budget"
            })
        ));
    }

    #[test]
    fn rule110_various_p() {
        let n = 32u64;
        let init = inputs::random_bits(41, n as usize);
        for p in [1u64, 2, 4, 8] {
            check_equiv(&Eca::rule110(), n, p, n as i64, &init);
        }
    }

    #[test]
    fn sorting_multiproc() {
        let init = inputs::random_words(42, 32, 999);
        let rep = check_equiv(&OddEvenSort::new(32), 32, 4, 32, &init);
        let mut expect = init.clone();
        expect.sort();
        assert_eq!(rep.values, expect);
    }

    #[test]
    fn multi_cell_wave() {
        for m in [2usize, 4] {
            let n = 32usize;
            let init = inputs::random_words(43 + m as u64, n * m, 100);
            check_equiv(&CyclicWave::new(m), n as u64, 4, 16, &init);
        }
    }

    #[test]
    fn nonsquare_time() {
        let init = inputs::random_bits(44, 32);
        for steps in [1i64, 5, 11, 40] {
            check_equiv(&Eca::rule90(), 32, 4, steps, &init);
        }
    }

    #[test]
    fn explicit_strip_widths() {
        let n = 32u64;
        let init = inputs::random_bits(45, n as usize);
        let spec = MachineSpec::new(1, n, 4, 1);
        let guest = run_linear(&spec, &Eca::rule110(), &init, n as i64);
        for s in [2u64, 4, 8] {
            let opts = RunOpts {
                strip: Some(s),
                ..RunOpts::default()
            };
            let rep = try_simulate_multi1(
                &spec,
                &Eca::rule110(),
                &init,
                n as i64,
                opts,
                &mut Tracer::off(),
            )
            .unwrap();
            rep.assert_matches(&guest.mem, &guest.values);
        }
    }

    #[test]
    fn uniform_slowdown_stays_within_nu_envelope() {
        let n = 32u64;
        let init = inputs::random_bits(47, n as usize);
        let spec = MachineSpec::new(1, n, 4, 1);
        let (prog, steps) = (Eca::rule110(), n as i64);
        let base = simulate_multi1(&spec, &prog, &init, steps);
        for nu in [1.0, 2.0, 4.0] {
            let opts = RunOpts {
                plan: FaultPlan::uniform_slowdown(nu),
                ..RunOpts::default()
            };
            let rep =
                try_simulate_multi1(&spec, &prog, &init, steps, opts, &mut Tracer::off()).unwrap();
            rep.assert_matches(&base.mem, &base.values);
            assert!(rep.host_time >= base.host_time - 1e-9);
            assert!(rep.host_time <= nu * base.host_time + 1e-6, "ν = {nu}");
        }
    }

    #[test]
    fn try_variant_reports_bad_parameters() {
        let spec = MachineSpec::new(1, 32, 4, 1);
        let run = |init: &[Word], strip| {
            let opts = RunOpts {
                strip,
                ..RunOpts::default()
            };
            try_simulate_multi1(&spec, &Eca::rule110(), init, 8, opts, &mut Tracer::off())
        };
        let init = inputs::random_bits(48, 32);
        assert!(matches!(
            run(&init[..30], None),
            Err(SimError::InitLength { .. })
        ));
        assert!(matches!(
            run(&init, Some(3)),
            Err(SimError::InvalidStrip { s: 3, .. })
        ));
    }

    #[test]
    fn locality_slowdown_shape_beats_naive() {
        // Theorem 4: the two-regime scheme's locality slowdown A is
        // polylogarithmic in n (for m = 1), while the naive scheme's is
        // Θ(n/p).  Absolute crossover happens beyond unit-test scale
        // (the scheme's constants are ~τ₀ of Proposition 3; see the E3
        // bench), so assert the *growth rates*: quadrupling n must
        // multiply naive's A by ~4 and the two-regime A by far less.
        let p = 4u64;
        let a_of = |n: u64| {
            let init = inputs::random_bits(46, n as usize);
            let steps = (n / 4) as i64;
            let spec = MachineSpec::new(1, n, p, 1);
            let guest = run_linear(&spec, &Eca::rule90(), &init, steps);
            let rep = simulate_multi1(&spec, &Eca::rule90(), &init, steps);
            rep.assert_matches(&guest.mem, &guest.values);
            let naive = crate::naive1::simulate_naive1(&spec, &Eca::rule90(), &init, steps);
            (rep.locality_slowdown(n, p), naive.locality_slowdown(n, p))
        };
        let (two_a, naive_a) = a_of(128);
        let (two_b, naive_b) = a_of(512);
        let naive_growth = naive_b / naive_a;
        let two_growth = two_b / two_a;
        assert!(naive_growth > 2.5, "naive A ~ n/p: ×{naive_growth}");
        assert!(
            two_growth < naive_growth / 1.5,
            "two-regime A nearly flat: ×{two_growth} vs naive ×{naive_growth}"
        );
        // Brent floor: slowdown exceeds n/p (A > 1).
        assert!(two_a > 1.0 && two_b > 1.0);
    }
}
