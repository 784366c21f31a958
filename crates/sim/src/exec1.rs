//! The Proposition-2 executor over diamond topological separators
//! (`d = 1`) — the machinery behind Theorems 2 and 3.
//!
//! The whole computed vertex set `[0, n) × [1, T]` is wrapped in one big
//! clipped diamond and executed recursively: each diamond splits into its
//! four half-radius children (bottom, left, right, top — the Figure-1
//! separator), and Proposition 2's memory discipline is followed
//! *literally* on an instrumented H-RAM:
//!
//! * child working space is always the low band `[0, S(child))`;
//! * transit data (incoming preboundary values, inter-child boundary
//!   values, private-memory blocks of the diamond's node columns) lives
//!   in the parking band `[max_i S(child_i), S(U))`, managed by a
//!   [`ZoneAlloc`];
//! * every move is charged `read + write` at the true addresses, so the
//!   measured time is exactly the quantity Theorem 2/3 bound;
//! * diamonds with radius `≤ leaf_h` are executed naively (the
//!   "executable diamonds" of Theorem 3's proof, `D(m)` for density `m`).
//!
//! For `m = 1` the node state *is* the communicated value and no state
//! blocks exist; for `m > 1` each node column's `m`-cell private memory
//! is relocated as a block along the recursion, exactly as in §4.1
//! ("the access to a single variable is replaced by the access to the
//! entire private memory of an individual processor").

use bsmp_machine::FxHashMap;

use bsmp_geometry::{ClippedDiamond, Diamond, IRect, Pt2};
use bsmp_hram::{CostTable, Hram, Word};
use bsmp_machine::{LinearProgram, MachineSpec};

use crate::error::SimError;
use crate::sorted::{insert_sorted, merge_vals, remove_sorted_vals, vals_get, Vals};
use crate::zone::ZoneAlloc;

/// Shape key for memoizing the space function `S(U)`: the radius plus
/// the diamond's position relative to all four dag walls, clamped to
/// `±(2h + 2)` — beyond that distance a wall cannot influence `Γ`,
/// columns, or the outbound cap, so all truly interior diamonds of one
/// radius share a key.
type ShapeKey = (i64, i64, i64, i64, i64);

/// Memoized Γ of one diamond shape, as offsets from the centre.
struct GammaPattern {
    /// Emission order (see [`DiamondExec::gamma`]) — ingest follows it.
    emit: Vec<(i64, i64)>,
    /// The same offsets sorted — `(dt, dx)` order equals `(t, x)` order.
    sorted: Vec<(i64, i64)>,
}

/// Per-depth scratch buffers for [`DiamondExec::exec_node`]: every
/// diamond visited at the same recursion depth reuses one set, so the
/// steady-state recursion performs no per-node heap allocation.
#[derive(Default)]
struct LevelBufs {
    kids: Vec<ClippedDiamond>,
    g_u: Vec<Pt2>,
    zone_list: Vals<Pt2>,
    scratch: Vec<Pt2>,
    vscratch: Vals<Pt2>,
    wtmp: Vec<Pt2>,
    kid_addrs: Vec<usize>,
    want_kid: Vec<Pt2>,
    kid_gammas: [Vec<Pt2>; 4],
    cols: Vec<i64>,
}

/// The recursive executor.  One instance per simulation run; its shape
/// memos (`space_memo`, `gamma_memo`, `sib_want_memo`) are private to
/// that run, so the executor holds no state beyond its arguments.
pub struct DiamondExec<'a, P: LinearProgram> {
    prog: &'a P,
    /// Array length.
    n: i64,
    /// Computation steps.
    t_steps: i64,
    /// Cells per node.
    m: usize,
    /// Computed vertices: `x ∈ [0, n)`, `t ∈ [1, T]`.
    cbox: IRect,
    /// The host H-RAM.
    pub ram: Hram,
    /// Current base address of each node column's `m`-cell block
    /// (only for `m > 1`).
    state: FxHashMap<i64, usize>,
    /// `(S(U), max_i S(child_i))` per shape (see
    /// [`space_and_zmax`](Self::space_and_zmax)).
    space_memo: FxHashMap<ShapeKey, (usize, usize)>,
    /// Γ memoized as `(dt, dx)` offsets from the diamond centre — both
    /// emission order (ingest addresses follow it) and sorted order
    /// (membership / parking) — keyed by the same wall-distance shape
    /// key as the space memo: beyond the key's clamp distance a wall
    /// cannot change which preboundary points survive the `keep` filter.
    gamma_memo: FxHashMap<ShapeKey, GammaPattern>,
    /// The shape-determined part of each kid's `want` (later-sibling
    /// gamma points the kid computes or borrows), as sorted `(dt, dx)`
    /// offsets from the *parent's* centre, per kid index.
    sib_want_memo: FxHashMap<(ShapeKey, u8), Vec<(i64, i64)>>,
    /// Reusable leaf scratch (points / preboundary of the current leaf);
    /// avoids two heap allocations per executable diamond.
    leaf_pts: Vec<Pt2>,
    leaf_gamma: Vec<Pt2>,
    /// Per-recursion-depth scratch buffers (see [`LevelBufs`]).
    levels: Vec<LevelBufs>,
    /// Diamonds with `h ≤ leaf_h` are executed naively.
    leaf_h: i64,
    /// Plan-time charge table covering the leaf scratch band: the
    /// execute loop's operand reads and result writes take their
    /// `1 + f(x)` from here (counted in `table_hits`) instead of
    /// re-evaluating the access function per access.  The table memoizes
    /// [`bsmp_hram::AccessFn::charge`] verbatim, so meters stay
    /// bit-identical; addresses above the table fall back to the scalar
    /// evaluation.
    table: CostTable,
    /// Debug oracle: expected value per vertex (tests only).
    #[doc(hidden)]
    pub oracle: Option<FxHashMap<Pt2, Word>>,
}

impl<'a, P: LinearProgram> DiamondExec<'a, P> {
    pub fn new(spec: &MachineSpec, prog: &'a P, t_steps: i64, leaf_h: i64) -> Self {
        assert_eq!(spec.d, 1);
        assert_eq!(spec.p, 1, "DiamondExec is the uniprocessor engine");
        let n = spec.n as i64;
        let m = prog.m();
        assert_eq!(m as u64, spec.m);
        // Leaf scratch bound: a radius-h diamond has ≤ 2h² + 2h + 1
        // points, ≤ 6h + 8 preboundary slots (lattice plus input row),
        // and ≤ (2h + 1)·m state words.  Capped so degenerate leaf
        // choices cannot balloon the table.
        let h = leaf_h.max(1) as usize;
        let leaf_span = (2 * h * h + 2 * h + 1 + 6 * h + 8 + (2 * h + 1) * m).min(1 << 20);
        let table = CostTable::new(spec.access_fn(), leaf_span);
        DiamondExec {
            prog,
            n,
            t_steps,
            m,
            cbox: IRect::new(0, n, 1, t_steps + 1),
            ram: Hram::new(spec.access_fn(), 0),
            state: FxHashMap::default(),
            space_memo: FxHashMap::default(),
            gamma_memo: FxHashMap::default(),
            sib_want_memo: FxHashMap::default(),
            leaf_pts: Vec::new(),
            leaf_gamma: Vec::new(),
            levels: Vec::new(),
            leaf_h: leaf_h.max(1),
            table,
            oracle: None,
        }
    }

    /// Is `p` a vertex this engine executes?
    #[inline]
    fn in_exec(&self, u: &ClippedDiamond, p: Pt2) -> bool {
        u.d.contains(p) && self.cbox.contains(p)
    }

    /// Is `p` a dag vertex at all (including the input row)?
    #[inline]
    fn in_dag(&self, p: Pt2) -> bool {
        0 <= p.x && p.x < self.n && 0 <= p.t && p.t <= self.t_steps
    }

    /// The executor's preboundary of `U = D ∩ cbox`: all dag vertices
    /// outside `U` that are predecessors of a vertex of `U`.  This is
    /// the diamond's lattice preboundary plus the input-row vertices the
    /// diamond itself covers, filtered to actual predecessors.
    pub fn gamma(&mut self, u: &ClippedDiamond) -> Vec<Pt2> {
        let mut out = Vec::new();
        self.gamma_into(u, &mut out);
        out
    }

    /// [`gamma`](Self::gamma) into a reusable buffer (cleared first).
    /// Emission order — lattice preboundary order, then the input row —
    /// is charge-relevant: ingest addresses follow it.
    fn gamma_into(&mut self, u: &ClippedDiamond, out: &mut Vec<Pt2>) {
        out.clear();
        let pat = self.gamma_pattern(u);
        let (cx, ct) = (u.d.cx, u.d.ct);
        out.extend(pat.emit.iter().map(|&(dt, dx)| Pt2::new(cx + dx, ct + dt)));
    }

    /// Γ in sorted `(t, x)` order (offset order equals absolute order).
    fn gamma_sorted_into(&mut self, u: &ClippedDiamond, out: &mut Vec<Pt2>) {
        out.clear();
        let pat = self.gamma_pattern(u);
        let (cx, ct) = (u.d.cx, u.d.ct);
        out.extend(
            pat.sorted
                .iter()
                .map(|&(dt, dx)| Pt2::new(cx + dx, ct + dt)),
        );
    }

    fn gamma_pattern(&mut self, u: &ClippedDiamond) -> &GammaPattern {
        let key = self.shape_key(u);
        // Single hash probe on the (dominant) hit path; the miss path
        // scans with captured copies of the dag bounds so the entry's
        // mutable borrow of the memo doesn't conflict.
        let (n, t_steps, cbox, uc) = (self.n, self.t_steps, self.cbox, *u);
        self.gamma_memo.entry(key).or_insert_with(|| {
            let in_dag = |p: Pt2| 0 <= p.x && p.x < n && 0 <= p.t && p.t <= t_steps;
            let in_ex = |p: Pt2| uc.d.contains(p) && cbox.contains(p);
            let keep = |q: Pt2| in_dag(q) && q.succs().iter().any(|s| in_ex(*s));
            let mut pts = Vec::new();
            u.d.for_each_preboundary(|q| {
                if keep(q) {
                    pts.push(q);
                }
            });
            // Input-row vertices inside the diamond (below cbox).
            if u.d.bbox().t0 <= 0 {
                for x in u.d.bbox().x0.max(0)..u.d.bbox().x1.min(n) {
                    let q = Pt2::new(x, 0);
                    if u.d.contains(q) && keep(q) {
                        pts.push(q);
                    }
                }
            }
            let emit: Vec<(i64, i64)> = pts.iter().map(|q| (q.t - u.d.ct, q.x - u.d.cx)).collect();
            let mut sorted = emit.clone();
            sorted.sort_unstable();
            GammaPattern { emit, sorted }
        })
    }

    /// Columns (node indices) with at least one executed vertex in `U`.
    fn cols(&self, u: &ClippedDiamond) -> Vec<i64> {
        let mut out = Vec::new();
        self.cols_into(u, &mut out);
        out
    }

    /// [`cols`](Self::cols) into a reusable buffer (cleared first).
    fn cols_into(&self, u: &ClippedDiamond, out: &mut Vec<i64>) {
        out.clear();
        let b = u.d.bbox().intersect(&self.cbox);
        out.extend((b.x0..b.x1).filter(|&x| {
            let (lo, hi) = self.col_range(u, x);
            lo <= hi
        }));
    }

    /// Executed `t`-range of column `x` in `U` (inclusive; empty if
    /// `lo > hi`).
    fn col_range(&self, u: &ClippedDiamond, x: i64) -> (i64, i64) {
        let k = (x - u.d.cx).abs();
        let lo = (u.d.ct - u.d.h + k + 1).max(self.cbox.t0);
        let hi = (u.d.ct + u.d.h - k).min(self.cbox.t1 - 1);
        (lo, hi)
    }

    /// Upper bound on how many values of `U` any ancestor can want back:
    /// vertices with a successor outside `U` that is executed later or
    /// lies above the final row.
    fn outbound_cap(&self, u: &ClippedDiamond) -> usize {
        let b = u.d.bbox().intersect(&self.cbox);
        let mut count = 0usize;
        for x in b.x0..b.x1 {
            let (lo, hi) = self.col_range(u, x);
            if lo > hi {
                continue;
            }
            // Only the top two vertices of a column can have successors
            // outside U that anyone later can consume: upward exposure is
            // limited to the top two rows of each column, and sideways
            // exposure beyond the clip edge points outside the dag (the
            // clip is the dag box), where no consumer exists.
            let _ = x;
            count += 2.min((hi - lo + 1) as usize);
        }
        count + 4
    }

    /// Non-empty children in topological order.
    fn kids(&self, u: &ClippedDiamond) -> Vec<ClippedDiamond> {
        let mut out = Vec::new();
        self.kids_into(u, &mut out);
        out
    }

    /// [`kids`](Self::kids) into a reusable buffer (cleared first).
    fn kids_into(&self, u: &ClippedDiamond, out: &mut Vec<ClippedDiamond>) {
        out.clear();
        out.extend(
            u.d.children()
                .into_iter()
                .map(|d| ClippedDiamond::new(d, self.cbox))
                .filter(|c| c.points_count() > 0),
        );
    }

    fn shape_key(&self, u: &ClippedDiamond) -> ShapeKey {
        let h = u.d.h;
        let cl = 2 * h + 2;
        (
            h,
            u.d.cx.clamp(-cl, cl),
            (self.n - u.d.cx).clamp(-cl, cl),
            u.d.ct.clamp(-cl, cl),
            (self.t_steps + 1 - u.d.ct).clamp(-cl, cl),
        )
    }

    /// The space function `S(U)` of Proposition 2, memoized per shape.
    pub fn space(&mut self, u: &ClippedDiamond) -> usize {
        self.space_and_zmax(u).0
    }

    /// `(S(U), max_i S(child_i))` in one memo probe — the recursion
    /// needs both to size a level's zone, and the kid maximum is as
    /// shape-determined as `S` itself (children are translation-covariant
    /// and the key's clamp covers their wall distances).
    fn space_and_zmax(&mut self, u: &ClippedDiamond) -> (usize, usize) {
        let key = self.shape_key(u);
        if let Some(&v) = self.space_memo.get(&key) {
            return v;
        }
        let v = if u.d.h <= self.leaf_h || u.d.h % 2 == 1 {
            let vol = u.points_count() as usize;
            let g = self.gamma(u).len();
            let st = if self.m > 1 {
                self.cols(u).len() * self.m
            } else {
                0
            };
            (vol + g + st, 0)
        } else {
            let kids = self.kids(u);
            let mut zmax = 0usize;
            let mut p_u = 0usize;
            for k in &kids {
                zmax = zmax.max(self.space(k));
                let st = if self.m > 1 {
                    self.cols(k).len() * self.m
                } else {
                    0
                };
                p_u += self.gamma(k).len() + st;
            }
            let st_u = if self.m > 1 {
                self.cols(u).len() * self.m
            } else {
                0
            };
            (
                zmax + p_u + self.gamma(u).len() + self.outbound_cap(u) + st_u,
                zmax,
            )
        };
        self.space_memo.insert(key, v);
        v
    }

    /// Move a column's state block into `zone`.
    fn move_state(
        &mut self,
        x: i64,
        zone: &mut ZoneAlloc,
        from: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        let old = *self.state.get(&x).ok_or(SimError::Internal {
            what: "moved state block not live",
        })?;
        let new = zone.alloc_block(self.m);
        for c in 0..self.m {
            self.ram.relocate(old + c, new + c);
        }
        from.free_block_if_owned(old, self.m);
        self.state.insert(x, new);
        Ok(())
    }

    /// Execute `U`, with all inputs parked in `parent_zone` at the
    /// addresses listed in the sorted directory `parent_vals`; park the
    /// values in `want` (a **sorted, deduplicated** point list — parking
    /// order follows it, so charges stay deterministic) and all column
    /// states back into `parent_zone`, pushing the parked address of each
    /// `want` entry onto `out_addrs` in `want` order.
    ///
    /// Bookkeeping invariant violations surface as
    /// [`SimError::Internal`] rather than panicking, so a chaos run can
    /// degrade gracefully.
    pub fn exec(
        &mut self,
        u: &ClippedDiamond,
        want: &[Pt2],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Pt2, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        self.exec_at(u, want, parent_zone, parent_vals, out_addrs, 0)
    }

    fn exec_at(
        &mut self,
        u: &ClippedDiamond,
        want: &[Pt2],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Pt2, usize)],
        out_addrs: &mut Vec<usize>,
        depth: usize,
    ) -> Result<(), SimError> {
        debug_assert!(want.windows(2).all(|w| w[0] < w[1]), "want must be sorted");
        if u.d.h <= self.leaf_h || u.d.h % 2 == 1 {
            return self.exec_leaf(u, want, parent_zone, parent_vals, out_addrs);
        }
        // Per-depth scratch: every diamond visited at this depth reuses
        // the same buffers, so the steady-state recursion allocates
        // nothing per node.
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, LevelBufs::default);
        }
        let mut b = std::mem::take(&mut self.levels[depth]);
        let res = self.exec_node(u, want, parent_zone, parent_vals, out_addrs, depth, &mut b);
        self.levels[depth] = b;
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_node(
        &mut self,
        u: &ClippedDiamond,
        want: &[Pt2],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Pt2, usize)],
        out_addrs: &mut Vec<usize>,
        depth: usize,
        b: &mut LevelBufs,
    ) -> Result<(), SimError> {
        let (s_u, zmax) = self.space_and_zmax(u);
        self.kids_into(u, &mut b.kids);
        let mut zone = ZoneAlloc::new(zmax, s_u - zmax);

        // Ingest: preboundary values + column states (Proposition 2 step 1
        // at this level).  `zone_list` becomes this level's own value
        // directory: every value currently parked in our zone, sorted —
        // all mutations are linear merges over sorted inputs, which beats
        // a hash map on this path (small lists, no hashing, no rehash).
        self.gamma_into(u, &mut b.g_u);
        b.zone_list.clear();
        for i in 0..b.g_u.len() {
            let q = b.g_u[i];
            let old = vals_get(parent_vals, q).ok_or(SimError::Internal {
                what: "moved value not live",
            })?;
            let new = zone.alloc();
            self.ram.relocate(old, new);
            parent_zone.free_if_owned(old);
            b.zone_list.push((q, new));
        }
        b.cols.clear();
        if self.m > 1 {
            self.cols_into(u, &mut b.cols);
            for i in 0..b.cols.len() {
                self.move_state(b.cols[i], &mut zone, parent_zone)?;
            }
        }
        b.zone_list.sort_unstable();

        // Children, in topological order.  Each gamma is sorted (its
        // ingest order is re-derived inside the child's own `exec`) so
        // membership checks are binary searches.
        let key = self.shape_key(u);
        for i in 0..b.kids.len() {
            let k = b.kids[i];
            let mut g = std::mem::take(&mut b.kid_gammas[i]);
            self.gamma_sorted_into(&k, &mut g);
            b.kid_gammas[i] = g;
        }
        for i in 0..b.kids.len() {
            let kid = b.kids[i];
            // What the child must park back: values needed by later
            // siblings or by our own parent, that the child computes or
            // borrows.  The sibling part is shape-determined, so it is
            // memoized as offsets from our centre.
            b.want_kid.clear();
            let relevant =
                |q: Pt2, me: &Self, kg: &[Pt2]| me.in_exec(&kid, q) || kg.binary_search(&q).is_ok();
            if let Some(offs) = self.sib_want_memo.get(&(key, i as u8)) {
                b.want_kid.extend(
                    offs.iter()
                        .map(|&(dt, dx)| Pt2::new(u.d.cx + dx, u.d.ct + dt)),
                );
            } else {
                for g in b.kid_gammas[..b.kids.len()].iter().skip(i + 1) {
                    for &q in g {
                        if relevant(q, self, &b.kid_gammas[i]) {
                            b.want_kid.push(q);
                        }
                    }
                }
                b.want_kid.sort();
                b.want_kid.dedup();
                let offs: Vec<(i64, i64)> = b
                    .want_kid
                    .iter()
                    .map(|q| (q.t - u.d.ct, q.x - u.d.cx))
                    .collect();
                self.sib_want_memo.insert((key, i as u8), offs);
            }
            // Only `want` entries whose `t` lies within the kid's
            // influence band can be relevant; `want` is sorted by `t`,
            // and the filtered slice stays sorted, so a linear merge
            // finishes the job.
            let (t_lo, t_hi) = (kid.d.ct - kid.d.h, kid.d.ct + kid.d.h);
            let lo = want.partition_point(|q| q.t < t_lo);
            let hi = want.partition_point(|q| q.t <= t_hi);
            b.wtmp.clear();
            for &q in &want[lo..hi] {
                if relevant(q, self, &b.kid_gammas[i]) {
                    b.wtmp.push(q);
                }
            }
            insert_sorted(&mut b.want_kid, &b.wtmp, &mut b.scratch);
            // The kid ingests its Γ straight out of `zone_list`, then
            // parks `want_kid` back; the stale Γ entries are dropped and
            // the freshly parked addresses merged in afterwards (pure
            // host bookkeeping — no charge is involved).
            b.kid_addrs.clear();
            {
                let mut kid_addrs = std::mem::take(&mut b.kid_addrs);
                let r = self.exec_at(
                    &kid,
                    &b.want_kid,
                    &mut zone,
                    &b.zone_list,
                    &mut kid_addrs,
                    depth + 1,
                );
                b.kid_addrs = kid_addrs;
                r?;
            }
            remove_sorted_vals(&mut b.zone_list, &b.kid_gammas[i]);
            merge_vals(&mut b.zone_list, &b.want_kid, &b.kid_addrs, &mut b.vscratch);
        }

        // Park what the parent wants (Proposition 2 step 3); drop the
        // rest.  `want` and `zone_list` are both sorted: one linear walk
        // parks wants in order and frees the leftovers — already in the
        // sorted order the drop loop needs, so addresses and charges
        // stay fully deterministic.
        let mut zi = 0;
        for &q in want {
            while zi < b.zone_list.len() && b.zone_list[zi].0 < q {
                zone.free_if_owned(b.zone_list[zi].1);
                zi += 1;
            }
            if zi >= b.zone_list.len() || b.zone_list[zi].0 != q {
                return Err(SimError::Internal {
                    what: "wanted value missing from zone",
                });
            }
            let old = b.zone_list[zi].1;
            zi += 1;
            let new = parent_zone.alloc();
            self.ram.relocate(old, new);
            zone.free_if_owned(old);
            out_addrs.push(new);
        }
        for &(_, old) in &b.zone_list[zi..] {
            zone.free_if_owned(old);
        }
        for i in 0..b.cols.len() {
            self.move_state(b.cols[i], parent_zone, &mut zone)?;
        }
        Ok(())
    }

    /// Naive execution of an executable diamond (Theorem 3's recursion
    /// bottom): ingest, run vertices in time order, park.
    ///
    /// Leaves dominate the recursion's host cost, so this path avoids
    /// per-leaf heap traffic: points and Γ live in reusable scratch
    /// buffers, and every operand address comes from a binary search
    /// over those sorted/tiny lists or from the parent's sorted value
    /// directory — no hash map anywhere.
    fn exec_leaf(
        &mut self,
        u: &ClippedDiamond,
        want: &[Pt2],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Pt2, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let mut pts = std::mem::take(&mut self.leaf_pts);
        pts.clear();
        u.for_each_point(|p| {
            if self.cbox.contains(p) {
                pts.push(p);
            }
        });
        pts.sort();
        if pts.is_empty() {
            self.leaf_pts = pts;
            return Ok(());
        }
        let mut g_u = std::mem::take(&mut self.leaf_gamma);
        self.gamma_into(u, &mut g_u);
        let res = self.exec_leaf_inner(u, want, parent_zone, parent_vals, out_addrs, &pts, &g_u);
        self.leaf_pts = pts;
        self.leaf_gamma = g_u;
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_leaf_inner(
        &mut self,
        u: &ClippedDiamond,
        want: &[Pt2],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Pt2, usize)],
        out_addrs: &mut Vec<usize>,
        pts: &[Pt2],
        g_u: &[Pt2],
    ) -> Result<(), SimError> {
        let cols_u = if self.m > 1 { self.cols(u) } else { Vec::new() };
        // Scratch layout: [0, |U|) value slots, then Γ slots, then state
        // blocks.
        let n_pts = pts.len();
        // Ingest Γ into the fixed scratch slots.
        for (i, q) in g_u.iter().enumerate() {
            let dst = n_pts + i;
            let old = vals_get(parent_vals, *q).ok_or(SimError::Internal {
                what: "preboundary value not live at leaf ingest",
            })?;
            self.ram.relocate(old, dst);
            parent_zone.free_if_owned(old);
        }
        // Ingest states.
        let st_base0 = n_pts + g_u.len();
        for (i, &x) in cols_u.iter().enumerate() {
            let dst = st_base0 + i * self.m;
            let old = *self.state.get(&x).ok_or(SimError::Internal {
                what: "state block not live at leaf ingest",
            })?;
            for c in 0..self.m {
                self.ram.relocate(old + c, dst + c);
            }
            parent_zone.free_block_if_owned(old, self.m);
        }

        // Execute in time order.
        let bd = self.prog.boundary();
        for (i, p) in pts.iter().enumerate() {
            let v = p.x as usize;
            let t = p.t;
            let read_val = |me: &mut Self, q: Pt2| -> Result<Word, SimError> {
                if !me.in_dag(q) {
                    return Ok(bd);
                }
                let a = match pts.binary_search(&q) {
                    Ok(j) => j,
                    Err(_) => {
                        n_pts
                            + g_u.iter().position(|g| *g == q).ok_or(SimError::Internal {
                                what: "operand unavailable in leaf",
                            })?
                    }
                };
                Ok(me.ram.read_via(&me.table, a))
            };
            let prev = read_val(self, Pt2::new(p.x, t - 1))?;
            let left = read_val(self, Pt2::new(p.x - 1, t - 1))?;
            let right = read_val(self, Pt2::new(p.x + 1, t - 1))?;
            let own = if self.m > 1 {
                let c = self.prog.cell(v, t);
                let ci = cols_u.binary_search(&p.x).map_err(|_| SimError::Internal {
                    what: "column state missing in leaf",
                })?;
                self.ram.read_via(&self.table, st_base0 + ci * self.m + c)
            } else {
                prev
            };
            let out = self.prog.delta(v, t, own, prev, left, right);
            if let Some(o) = &self.oracle {
                if let Some(&exp) = o.get(p) {
                    assert_eq!(out, exp,
                        "vertex {p:?} in leaf {u:?}: operands own={own} prev={prev} l={left} r={right}");
                }
            }
            self.ram.compute();
            if self.m > 1 {
                let c = self.prog.cell(v, t);
                let ci = cols_u.binary_search(&p.x).map_err(|_| SimError::Internal {
                    what: "column state missing in leaf",
                })?;
                self.ram
                    .write_via(&self.table, st_base0 + ci * self.m + c, out);
            }
            self.ram.write_via(&self.table, i, out);
        }

        // Park wanted values (`want` is sorted: deterministic addresses).
        // Interior vertices sit at their point index; everything else
        // must be a Γ ingest, at its fixed scratch slot.
        for &q in want {
            let old = match pts.binary_search(&q) {
                Ok(i) => i,
                Err(_) => {
                    n_pts
                        + g_u.iter().position(|g| *g == q).ok_or(SimError::Internal {
                            what: "wanted value not present in leaf",
                        })?
                }
            };
            let new = parent_zone.alloc();
            self.ram.relocate(old, new);
            out_addrs.push(new);
        }
        // Park states.
        for (i, &x) in cols_u.iter().enumerate() {
            let base = st_base0 + i * self.m;
            let new = parent_zone.alloc_block(self.m);
            for c in 0..self.m {
                self.ram.relocate(base + c, new + c);
            }
            self.state.insert(x, new);
        }
        Ok(())
    }

    /// Seed a column's state-block base address (multiprocessor engine:
    /// staging a tile's column states into this processor's memory —
    /// values are passed positionally via [`exec`](Self::exec)'s
    /// `parent_vals` directory instead).
    pub fn seed_state(&mut self, col: i64, addr: usize) {
        self.state.insert(col, addr);
    }

    /// Address of a column's state block, if present.
    pub fn state_addr(&self, col: i64) -> Option<usize> {
        self.state.get(&col).copied()
    }

    /// Drop all seeded column states (between tile executions).
    pub fn clear_seeds(&mut self) {
        self.state.clear();
    }

    /// Run the whole simulation: lay out the guest image, execute the
    /// top-level diamond, write the final image back into the guest
    /// layout.  Returns `(final_mem, final_values)`.
    pub fn run(&mut self, init: &[Word]) -> Result<(Vec<Word>, Vec<Word>), SimError> {
        let n = self.n as usize;
        let m = self.m;
        assert_eq!(init.len(), n * m);
        if self.t_steps == 0 {
            let values = (0..n).map(|v| init[v * m + self.prog.cell(v, 0)]).collect();
            return Ok((init.to_vec(), values));
        }

        // Top-level diamond covering the whole computed box.
        let h_top = ((self.n + self.t_steps + 4) as u64).next_power_of_two() as i64;
        let top = ClippedDiamond::new(
            Diamond::new(self.n / 2, self.t_steps / 2 + 1, h_top),
            self.cbox,
        );
        let s_top = self.space(&top);

        // Driver zone and guest image above the working region.
        let g_top = self.gamma(&top).len();
        let zone_cap = g_top + m * n + n + 32;
        let mut driver_zone = ZoneAlloc::new(s_top, zone_cap);
        let image = s_top + zone_cap;

        // Lay out the initial guest image (uncharged: problem statement).
        for (i, w) in init.iter().enumerate() {
            self.ram.poke(image + i, *w);
        }
        // The input row's value directory, straight from the image
        // layout (t = 0, x ascending: already sorted).
        let driver_vals: Vals<Pt2> = (0..n)
            .map(|v| (Pt2::new(v as i64, 0), image + v * m + self.prog.cell(v, 0)))
            .collect();
        if m > 1 {
            for v in 0..n {
                self.state.insert(v as i64, image + v * m);
            }
        }

        // Want the final row back (ascending x: already sorted).
        let want: Vec<Pt2> = (0..self.n).map(|x| Pt2::new(x, self.t_steps)).collect();
        let mut out_addrs = Vec::with_capacity(n);
        self.exec(&top, &want, &mut driver_zone, &driver_vals, &mut out_addrs)?;

        // Write the final image back into the guest layout (charged —
        // the host must leave memory as the guest would).
        let mut values = vec![0 as Word; n];
        for (v, slot) in values.iter_mut().enumerate() {
            let addr = *out_addrs.get(v).ok_or(SimError::Internal {
                what: "final value not live after top-level exec",
            })?;
            *slot = self.ram.peek(addr);
            if m == 1 {
                self.ram.relocate(addr, image + v);
            }
        }
        if m > 1 {
            for v in 0..n {
                let old = *self.state.get(&(v as i64)).ok_or(SimError::Internal {
                    what: "final state block not live after top-level exec",
                })?;
                let dst = image + v * m;
                if old != dst {
                    for c in 0..m {
                        self.ram.relocate(old + c, dst + c);
                    }
                }
            }
        }
        let mem = (0..n * m).map(|i| self.ram.peek(image + i)).collect();
        Ok((mem, values))
    }
}
