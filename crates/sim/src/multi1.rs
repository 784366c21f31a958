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
//!   per-processor [`CellExec`] at `D = 1`; the processors' executors
//!   share one set of shape plans).  Offset rows straddle strip
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

use bsmp_geometry::{diamond_cover, ClippedDiamond, Diamond, IRect, Pt2};
use bsmp_hram::{AccessFn, Word};
use bsmp_machine::{guest_time, LinearProgram, MachineSpec};
use bsmp_trace::{EngineKind, Tracer};

use crate::error::SimError;
use crate::execd::CellExec;
use crate::procs::{Loc, PointTable, ProcArray, StageHost};
use crate::report::SimReport;
use crate::RunOpts;

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
/// `s*`, see [`engine_strip`]) and `opts.plan`.  The tracer observes
/// every rearrangement/gather/row/scatter stage; a disabled tracer
/// costs one `None` check per stage.
pub fn try_simulate_multi1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let mut eng = Engine::new(spec, prog, init.len(), steps, opts, tracer)?;
    eng.run(init)?;
    eng.finish(spec, prog, steps)
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
    cbox: IRect,
    /// The processors; their node states are the strip homes.
    host: ProcArray<'a, P, 1>,
    prog: &'a P,
    /// Ground-truth words of the dag values computed, or staged from
    /// the input row, in the live time band: rows below a tile's GC
    /// cutoff are released with `home`'s (addresses are tracked in
    /// `placed`/`home`).
    vals: PointTable<Pt2, Word>,
    /// Transient placement during one `D(ps)` tile: value → (proc, addr).
    placed: PointTable<Pt2, Loc>,
    /// Persistent placement between tiles: value → (proc, addr in the
    /// value-home region).
    home: PointTable<Pt2, Loc>,
    /// Per-strip staged state base during a tile (proc, addr), `m > 1`.
    staged_state: Vec<Option<Loc>>,
    /// Scratch list of the dead-value sweep and the scatter.
    sweep: Vec<(Pt2, Loc)>,
    /// Regime-1 cascade levels `log₂(n/(p·s))`.
    levels: u32,
}

impl<'a, P: LinearProgram> Engine<'a, P> {
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
            EngineKind::Multi1,
            spec,
            steps,
            prog.m(),
            init_len,
            &opts.plan,
            tracer,
        )?;
        let n = spec.n as usize;
        let p = spec.p as usize;
        let m = prog.m();
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
        // Rows a tile reaches above the last GC cutoff: its own `p·s`
        // and the half tile below it its inputs and the cutoff lag span.
        let window = 3 * (p * s / 2) + 4;
        let cbox = IRect::new(0, n as i64, 1, steps + 1);

        // Each processor runs the Theorem-3 recursion on its own H-RAM,
        // metered like the uniprocessor host's; the cell budget probes
        // the worst-case inner-tile footprint.
        let access = AccessFn::new(1, spec.m);
        let leaf_h = (m as i64 / 2).max(1);
        let host = ProcArray::new(
            spec,
            host,
            || CellExec::new(n as i64, access, prog, steps, leaf_h),
            &[Diamond::new(
                (n / 2) as i64,
                (steps / 2).max(1),
                (s / 2) as i64,
            )],
            64,
            8 * s * m + 48 * s + 1024,
            16 * (n / p).max(s) + 8 * s + 512,
            n / p * m,
        );
        Ok(Engine {
            n,
            p,
            m,
            s,
            q,
            t_steps: steps,
            cbox,
            host,
            prog,
            vals: PointTable::new(n as i64, steps, window),
            placed: PointTable::new(n as i64, steps, window),
            home: PointTable::new(n as i64, steps, window),
            staged_state: vec![None; q],
            sweep: Vec::new(),
            levels: ((n as f64) / (p as f64 * s as f64)).log2().max(0.0).round() as u32,
        })
    }

    fn proc_of_strip(&self, j: usize) -> usize {
        rearrangement::proc_of(j, self.q, self.p)
    }

    /// Local base address of strip `j`'s private-memory home block.
    fn strip_home(&self, j: usize) -> usize {
        self.host.state_base + rearrangement::local_slot_of(j, self.q, self.p) * self.s * self.m
    }

    fn strip_of_col(&self, x: i64) -> usize {
        (x as usize) / self.s
    }

    /// Strip `j`'s (processor, base) in the guest's natural layout:
    /// slot `j`, before the rearrangement and after the run.
    fn natural_home(&self, j: usize) -> (usize, usize) {
        let seg = self.q / self.p;
        (j / seg, self.host.state_base + (j % seg) * self.s * self.m)
    }

    /// Move every strip from its natural home to its π-home (`to_pi`) or
    /// back, as one charged stage.  All blocks are read out before any is
    /// written (cycle-safe); each travels `s·m` words × hops.
    fn move_strips(&mut self, label: &str, to_pi: bool) -> Result<(), SimError> {
        self.host.begin_stage(label);
        let sm = self.s * self.m;
        let ends = |me: &Self, j| {
            let pi = (me.proc_of_strip(j), me.strip_home(j));
            if to_pi {
                (me.natural_home(j), pi)
            } else {
                (pi, me.natural_home(j))
            }
        };
        let mut buf: Vec<Vec<Word>> = Vec::with_capacity(self.q);
        for j in 0..self.q {
            let ((pr, base), _) = ends(self, j);
            let ram = &mut self.host.execs[pr].ram;
            buf.push((base..base + sm).map(|a| ram.read(a)).collect());
        }
        for (j, words) in buf.iter().enumerate() {
            let ((src, _), (dst, base)) = ends(self, j);
            self.host.send(src, dst, sm, src);
            for (w, &word) in words.iter().enumerate() {
                self.host.execs[dst].ram.write(base + w, word);
            }
        }
        self.host.close_stage()
    }

    /// Lay out the guest image at the *natural* strip homes (uncharged:
    /// problem statement), then perform and charge the rearrangement.
    fn preprocess(&mut self, init: &[Word]) -> Result<(), SimError> {
        let sm = self.s * self.m;
        for j in 0..self.q {
            let (pr, base) = self.natural_home(j);
            for w in 0..sm {
                self.host.execs[pr].ram.poke(base + w, init[j * sm + w]);
            }
        }
        self.move_strips("rearrange", true)?;

        // Seed the input-row values: value (x, 0) is the content of cell
        // (x, cell(x,0)) inside the strip home (no copy needed).
        for x in 0..self.n {
            let j = self.strip_of_col(x as i64);
            let pr = self.proc_of_strip(j);
            let addr = self.strip_home(j) + (x - j * self.s) * self.m + self.prog.cell(x, 0);
            self.home.insert(Pt2::new(x as i64, 0), (pr, addr))?;
        }
        Ok(())
    }

    /// Charge the Regime-1 cascade for one word arriving at (or leaving)
    /// a tile: one staging relocation and one near-neighbor hop per
    /// halving level.
    fn cascade_charge(&mut self, pr: usize, words: usize) {
        let ram = &mut self.host.execs[pr].ram;
        for k in 0..self.levels {
            let stage_addr = (self.n * self.m) >> (k + 1).min(63);
            let c = 2.0 + 2.0 * ram.access.f(stage_addr / self.p.max(1));
            ram.meter.add_transfer(c * words as f64);
            ram.meter.add_comm(words as f64 * self.host.hop);
        }
        if self.levels > 0 {
            self.host.tmark(pr, 0, words as u64 * self.levels as u64);
        }
    }

    /// Move one value into processor `pr`'s transit zone; returns the
    /// address.  Sources: current tile placement, or the inter-tile home.
    fn stage_value(&mut self, pt: Pt2, pr: usize) -> Result<usize, SimError> {
        if let Some((owner, addr)) = self.placed.get(pt)? {
            if owner == pr {
                return Ok(addr);
            }
            // Cross-seam exchange (cooperating mode): one word, charged
            // on both endpoints at the true processor distance.
            let w = self.vals.get(pt)?.ok_or(SimError::Internal {
                what: "placed value has no word",
            })?;
            let _ = self.host.execs[owner].ram.read(addr);
            self.host.send(owner, pr, 1, pr);
            let dst = self.host.transit_zones[pr].alloc();
            self.host.execs[pr].ram.write(dst, w);
            self.placed.insert(pt, (pr, dst))?;
            return Ok(dst);
        }
        let (owner, addr) = self.home.get(pt)?.ok_or(SimError::Internal {
            what: "staged value neither placed nor home",
        })?;
        // Inter-tile ingest: cascade through the Regime-1 levels.  An
        // input-row value is read straight out of the strip home the
        // first time.
        let w = match self.vals.get(pt)? {
            Some(w) => w,
            None => self.host.execs[owner].ram.peek(addr),
        };
        let _ = self.host.execs[owner].ram.read(addr);
        self.cascade_charge(pr, 1);
        self.host.send(owner, pr, 1, pr);
        let dst = self.host.transit_zones[pr].alloc();
        self.host.execs[pr].ram.write(dst, w);
        self.vals.insert(pt, w)?;
        self.placed.insert(pt, (pr, dst))?;
        Ok(dst)
    }

    /// Stage strip `j`'s private memory into its processor's transit
    /// region for the duration of a tile (Regime-1 gather).
    fn stage_strip(&mut self, j: usize) {
        if self.m == 1 || self.staged_state[j].is_some() {
            return;
        }
        let pr = self.proc_of_strip(j);
        let sm = self.s * self.m;
        let src = self.strip_home(j);
        let dst = self.host.transit_zones[pr].alloc_block(sm);
        self.host.execs[pr].ram.relocate_block(src, dst, sm);
        self.cascade_charge(pr, sm);
        self.staged_state[j] = Some((pr, dst));
    }

    /// Return strip `j`'s private memory to its home (Regime-1 scatter).
    fn unstage_strip(&mut self, j: usize) {
        if let Some((pr, base)) = self.staged_state[j].take() {
            let sm = self.s * self.m;
            let dst = self.strip_home(j);
            self.host.execs[pr].ram.relocate_block(base, dst, sm);
            self.cascade_charge(pr, sm);
            self.host.transit_zones[pr].free_block(base, sm);
        }
    }

    /// Strip `j`'s staged state base (proc, addr).
    fn staged(&self, j: usize) -> Result<Loc, SimError> {
        self.staged_state
            .get(j)
            .copied()
            .flatten()
            .ok_or(SimError::Internal {
                what: "strip state not staged",
            })
    }

    /// Whether some in-box successor of `pt` outside `tile` is still to
    /// be computed — a later tile reads `pt`.
    fn needed_beyond(&self, pt: Pt2, tile: &ClippedDiamond) -> Result<bool, SimError> {
        for sq in pt.succs() {
            if self.cbox.contains(sq) && !tile.contains(sq) && !self.vals.contains(sq)? {
                return Ok(true);
            }
        }
        Ok(false)
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

    /// Execute one (whole) `D(·)` piece on processor `pr` via the full
    /// Theorem-3 recursion, lending that processor's executor the run's
    /// shared shape plans meanwhile.
    fn run_piece_on(&mut self, pr: usize, piece: &ClippedDiamond) -> Result<(), SimError> {
        if piece.points_count() == 0 {
            return Ok(());
        }
        self.host.swap_plans(pr);
        let res = self.exec_piece(pr, piece);
        self.host.swap_plans(pr);
        res
    }

    /// [`run_piece_on`](Self::run_piece_on)'s body: stage the piece's
    /// inputs, run the recursion, harvest its outputs.
    fn exec_piece(&mut self, pr: usize, piece: &ClippedDiamond) -> Result<(), SimError> {
        self.host.tmark(pr, piece.points_count() as u64, 0);
        // Stage preboundary values (Γ from the shape plan, sorted).  Each
        // piece gets *private* copies of its preboundary (the recursion
        // consumes and frees them); the canonical placement in
        // `placed`/`home` is untouched.  The copies, in Γ order, are the
        // recursion's sorted value directory.
        let g = self.host.execs[pr].gamma(&[piece.d]);
        let mut seeds = Vec::with_capacity(g.len());
        for &(t, [x]) in &g {
            let addr = self.stage_value(Pt2::new(x, t), pr)?;
            let w = self.host.execs[pr].ram.peek(addr);
            let copy = self.host.transit_zones[pr].alloc();
            let _ = self.host.execs[pr].ram.read(addr);
            self.host.execs[pr].ram.write(copy, w);
            seeds.push(((t, [x]), copy));
        }
        // Columns and their staged states.  The recursion relocates the
        // per-column blocks; we write them back to the strip block after
        // the piece completes so the staging area stays canonical.
        let mut state_seeds = Vec::new();
        if self.m > 1 {
            for [x] in self.host.execs[pr].pillars(&[piece.d]) {
                let j = self.strip_of_col(x);
                let (owner, base) = self.staged(j)?;
                if owner != pr {
                    return Err(SimError::Internal {
                        what: "piece column staged off the executing processor",
                    });
                }
                // Private copy of the column block for the recursion.
                let home_addr = base + (x as usize - j * self.s) * self.m;
                let copy = self.host.transit_zones[pr].alloc_block(self.m);
                self.host.execs[pr]
                    .ram
                    .relocate_block(home_addr, copy, self.m);
                state_seeds.push((x, copy, home_addr));
            }
        }

        // Run the recursion on this processor's H-RAM.
        // `outbound` emits in time-major order — sorted and duplicate-free,
        // exactly what `exec` wants.
        let out_pts = self.outbound(piece);
        let want: Vec<_> = out_pts.iter().map(|q| (q.t, [q.x])).collect();
        debug_assert!(want.windows(2).all(|w| w[0] < w[1]));
        let states = state_seeds.iter().map(|&(x, addr, _)| ([x], addr));
        let out_addrs = self.host.exec(pr, &[piece.d], &want, &seeds, states)?;

        // Harvest: record outbound values (they stay parked in transit).
        for (pt, addr) in out_pts.into_iter().zip(out_addrs) {
            let w = self.host.execs[pr].ram.peek(addr);
            self.vals.insert(pt, w)?;
            if let Some((old_pr, old_addr)) = self.placed.insert(pt, (pr, addr))? {
                // Superseded stale placement (shouldn't generally happen).
                self.host.transit_zones[old_pr].free_if_owned(old_addr);
            }
        }
        // Write the evolved column states back into the strip block and
        // release the recursion's parked blocks.
        if self.m > 1 {
            for (x, _, home_addr) in &state_seeds {
                let parked = self.host.execs[pr]
                    .state_addr([*x])
                    .ok_or(SimError::Internal {
                        what: "piece column state not parked",
                    })?;
                self.host.execs[pr]
                    .ram
                    .relocate_block(parked, *home_addr, self.m);
                self.host.transit_zones[pr].free_block(parked, self.m);
            }
        }
        self.host.execs[pr].clear_seeds();
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
        // Both lists are in time-major (point) order, so membership in
        // the outbound set is one forward walk.
        let mut pts = Vec::with_capacity(piece.points_count() as usize);
        piece.for_each_point(|pt| {
            if self.cbox.contains(pt) {
                pts.push(pt);
            }
        });
        debug_assert!(pts.windows(2).all(|w| w[0] < w[1]));
        if pts.is_empty() {
            return Ok(());
        }
        let cx = piece.d.cx;
        let nominal = self.host.transit_base; // operands live in the transit band
        let outs = self.outbound(piece);
        let mut outs = outs.iter().peekable();
        for pt in &pts {
            let side = if pt.x < cx { pl } else { pr };
            self.host.tmark(side, 1, 0);
            // Operand fetches: previous values from `vals` (placed on
            // either side); charge a read at the transit band plus a hop
            // when the operand lives across the seam.
            let fetch = |me: &mut Self, qp: Pt2| -> Result<Word, SimError> {
                if qp.x < 0 || qp.x >= me.n as i64 {
                    return Ok(me.prog.boundary());
                }
                let w = if qp.t == 0 {
                    let a = me.stage_value(qp, side)?;
                    me.host.execs[side].ram.peek(a)
                } else {
                    me.vals.get(qp)?.ok_or(SimError::Internal {
                        what: "band-leaf operand missing",
                    })?
                };
                let owner = me.placed.get(qp)?.map_or(side, |(o, _)| o);
                let _ = me.host.execs[side].ram.read(nominal);
                me.host.send(owner, side, 1, side);
                Ok(w)
            };
            let prev = fetch(self, Pt2::new(pt.x, pt.t - 1))?;
            let left = fetch(self, Pt2::new(pt.x - 1, pt.t - 1))?;
            let right = fetch(self, Pt2::new(pt.x + 1, pt.t - 1))?;
            // The vertex's own memory cell in its staged strip (`m > 1`).
            let cell = if self.m > 1 {
                let j = self.strip_of_col(pt.x);
                let (owner, base) = self.staged(j)?;
                if owner != side {
                    return Err(SimError::Internal {
                        what: "band vertex state staged off its own side",
                    });
                }
                Some(
                    base + (pt.x as usize - j * self.s) * self.m
                        + self.prog.cell(pt.x as usize, pt.t),
                )
            } else {
                None
            };
            let own = match cell {
                Some(a) => self.host.execs[side].ram.read(a),
                None => prev,
            };
            let out = self.prog.delta(pt.x as usize, pt.t, own, prev, left, right);
            self.host.execs[side].ram.compute();
            if let Some(a) = cell {
                self.host.execs[side].ram.write(a, out);
            }
            self.vals.insert(*pt, out)?;
            while outs.next_if(|q| *q < pt).is_some() {}
            if outs.next_if_eq(&pt).is_some() {
                let dst = self.host.transit_zones[side].alloc();
                self.host.execs[side].ram.write(dst, out);
                self.placed.insert(*pt, (side, dst))?;
            }
        }
        Ok(())
    }

    /// Execute one `D(ps)` tile: Regime-1 gather, the `2p-1` Regime-2
    /// stage rows, Regime-1 scatter.
    fn run_tile(&mut self, tile: &ClippedDiamond) -> Result<(), SimError> {
        // --- Gather stage: stage all strips the tile touches.
        self.host.begin_stage("gather");
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
        self.host.close_stage()?;

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
        let mut prev_row_lo = i64::MIN;
        for (row_ct, row) in rows {
            self.host.begin_stage("row");
            // Free transit slots of values that no later piece (in this
            // tile or any other) can consume: everything below the
            // previous row's floor that does not escape the tile.
            let row_lo = row_ct - hs;
            if prev_row_lo > i64::MIN {
                // Placements come out in key order, the order the slots
                // are freed in.
                let mut dead = std::mem::take(&mut self.sweep);
                for (pt, loc) in self.placed.entries(i64::MIN, prev_row_lo - 1) {
                    let mut done = pt.t != self.t_steps;
                    for sq in pt.succs() {
                        if done && self.cbox.contains(sq) {
                            done = tile.contains(sq) && self.vals.contains(sq)?;
                        }
                    }
                    if done {
                        dead.push((pt, loc));
                    }
                }
                for (pt, (pr2, addr)) in dead.drain(..) {
                    self.placed.remove(pt)?;
                    self.host.transit_zones[pr2].free_if_owned(addr);
                }
                self.sweep = dead;
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
            self.host.close_stage()?;
        }

        // --- Scatter stage: return strips home; persist still-needed
        // boundary values; drop the rest.
        self.host.begin_stage("scatter");
        for &j in &strips {
            self.unstage_strip(j);
        }
        let mut placed = std::mem::take(&mut self.sweep);
        placed.extend(self.placed.entries(i64::MIN, i64::MAX));
        self.placed.clear();
        for (pt, (pr, addr)) in placed.drain(..) {
            let needed = pt.t == self.t_steps || self.needed_beyond(pt, tile)?;
            self.host.transit_zones[pr].free_if_owned(addr);
            if needed && !self.home.contains(pt)? {
                let w = self.vals.get(pt)?.ok_or(SimError::Internal {
                    what: "scattered value has no word",
                })?;
                let _ = self.host.execs[pr].ram.read(addr);
                self.cascade_charge(pr, 1);
                let dst = self.host.home_zones[pr].alloc();
                self.host.execs[pr].ram.write(dst, w);
                self.home.insert(pt, (pr, dst))?;
            }
        }
        self.sweep = placed;
        // Garbage-collect home values no longer reachable, in key order,
        // then release their rows (row T stays).  Input-row entries are
        // views into the strip homes, not allocated slots.
        let cutoff = b.t0 - 2;
        for (pt, (pr, addr)) in self.home.entries(i64::MIN, cutoff) {
            if pt.t > 0 && pt.t != self.t_steps {
                self.host.home_zones[pr].free(addr);
            }
        }
        self.home.release_below(cutoff);
        self.vals.release_below(cutoff);
        self.placed.release_below(cutoff);
        self.host.close_stage()?;
        // Fresh transit zones for the next tile (everything in them has
        // been scattered or dropped).
        self.host.reset_transit();
        Ok(())
    }

    fn run(&mut self, init: &[Word]) -> Result<(), SimError> {
        self.preprocess(init)?;
        if self.t_steps == 0 {
            return Ok(());
        }
        let hp = ((self.p * self.s) / 2) as i64;
        let tiles = diamond_cover(self.cbox, hp, Pt2::new(0, 0));
        for tile in tiles {
            self.run_tile(&tile)?;
        }
        // For m = 1 the node state *is* the value: write the final row
        // back into the strip homes (charged — the host must leave the
        // guest's memory as the guest would).
        if self.m == 1 {
            self.host.begin_stage("writeback");
            for x in 0..self.n {
                let pt = Pt2::new(x as i64, self.t_steps);
                let (pr, addr) = self.home.get(pt)?.ok_or(SimError::Internal {
                    what: "final value not homed",
                })?;
                let w = self.final_value(x)?;
                let _ = self.host.execs[pr].ram.read(addr);
                let j = self.strip_of_col(x as i64);
                let hp_ = self.proc_of_strip(j);
                self.host.send(pr, hp_, 1, pr);
                let dst = self.strip_home(j) + (x - j * self.s);
                self.host.execs[hp_].ram.write(dst, w);
            }
            self.host.close_stage()?;
        }

        // Final un-rearrangement (restore the guest's natural layout).
        self.move_strips("restore", false)
    }

    /// Node `x`'s value at step `T`.
    fn final_value(&self, x: usize) -> Result<Word, SimError> {
        self.vals
            .get(Pt2::new(x as i64, self.t_steps))?
            .ok_or(SimError::Internal {
                what: "final value missing",
            })
    }

    fn finish(
        self,
        spec: &MachineSpec,
        prog: &impl LinearProgram,
        steps: i64,
    ) -> Result<SimReport, SimError> {
        let sm = self.s * self.m;
        let mut mem = vec![0 as Word; self.n * self.m];
        for j in 0..self.q {
            let (pr, base) = self.natural_home(j);
            for w in 0..sm {
                mem[j * sm + w] = self.host.execs[pr].ram.peek(base + w);
            }
        }
        let values: Vec<Word> = if steps == 0 {
            (0..self.n)
                .map(|x| mem[x * self.m + self.prog.cell(x, 0)])
                .collect()
        } else {
            (0..self.n)
                .map(|x| self.final_value(x))
                .collect::<Result<_, _>>()?
        };
        let guest_time = guest_time::<1>(spec, prog, steps);
        Ok(self.host.finish(guest_time, mem, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_faults::FaultPlan;
    use bsmp_machine::run_guest;
    use bsmp_workloads::{inputs, CyclicWave, Eca, OddEvenSort};

    fn check_equiv(
        prog: &impl LinearProgram,
        n: u64,
        p: u64,
        steps: i64,
        init: &[Word],
    ) -> SimReport {
        let spec = MachineSpec::new(1, n, p, prog.m() as u64);
        let guest = run_guest::<1>(&spec, prog, init, steps);
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
        let mut tracer = Tracer::off();
        let mut eng = Engine::new(&spec, &prog, 64, 64, RunOpts::default(), &mut tracer).unwrap();
        eng.host.tile_space = 0;
        assert!(matches!(
            eng.run(&init),
            Err(SimError::Internal {
                what: "cell footprint exceeds the tile budget"
            })
        ));
    }

    #[test]
    fn released_table_row_is_a_typed_error() {
        // A value table whose window has moved past the input row: the
        // first ingest reads below it and must fail typed, not panic or
        // fall back to the strip home.
        let spec = MachineSpec::new(1, 64, 4, 1);
        let init = inputs::random_bits(41, 64);
        let prog = Eca::rule110();
        let mut tracer = Tracer::off();
        let mut eng = Engine::new(&spec, &prog, 64, 64, RunOpts::default(), &mut tracer).unwrap();
        eng.vals.release_below(1);
        assert!(matches!(
            eng.run(&init),
            Err(SimError::Internal {
                what: "point below the table's row window"
            })
        ));
    }

    #[test]
    fn point_tables_hold_the_tile_band_not_the_run() {
        // T = 8·p·s: the tables' windows turn over many times, and each
        // spans at most a tile (p·s rows), the half tile below it and a
        // few rows of GC lag.
        for (m, s) in [(1usize, 4u64), (4, 8)] {
            let (n, p) = (64u64, 4u64);
            let steps = (8 * p * s) as i64;
            let spec = MachineSpec::new(1, n, p, m as u64);
            let prog = CyclicWave::new(m);
            let init = inputs::random_words(49, n as usize * m, 100);
            let opts = RunOpts {
                strip: Some(s),
                ..RunOpts::default()
            };
            let mut tracer = Tracer::off();
            let mut eng = Engine::new(&spec, &prog, init.len(), steps, opts, &mut tracer).unwrap();
            eng.run(&init).unwrap();
            let band = (p * s + p * s / 2 + 4) as usize;
            for (name, hw) in [
                ("vals", eng.vals.high_water()),
                ("placed", eng.placed.high_water()),
                ("home", eng.home.high_water()),
            ] {
                assert!(hw <= band, "m = {m}: {name} spans {hw} rows > {band}");
            }
            let guest = run_guest::<1>(&spec, &prog, &init, steps);
            let rep = eng.finish(&spec, &prog, steps).unwrap();
            rep.assert_matches(&guest.mem, &guest.values);
        }
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
        let guest = run_guest::<1>(&spec, &Eca::rule110(), &init, n as i64);
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
            let guest = run_guest::<1>(&spec, &Eca::rule90(), &init, steps);
            let rep = simulate_multi1(&spec, &Eca::rule90(), &init, steps);
            rep.assert_matches(&guest.mem, &guest.values);
            let naive = crate::naive::simulate_naive::<1>(&spec, &Eca::rule90(), &init, steps);
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
