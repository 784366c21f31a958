//! The Proposition-2 executor over the **4-D topological separator**
//! (`d = 3`) — turning Section 6's conjecture into a measured result.
//!
//! Third of the recursive executors (see [`crate::exec1`],
//! [`crate::exec2`]), with the same memory discipline: the computed box
//! `[0, side)³ × [1, T]` is wrapped in one big clipped symmetric cell of
//! [`bsmp_geometry::Domain3`]; cells refine by the product-of-diamonds
//! honeycomb (`q ≤ 46`, `δ < 1/2`, `Γ = Θ(|U|^{3/4})`); cells of radius
//! `≤ leaf_h` execute naively.  The host H-RAM uses the 3-D access
//! function `f(x) = (x/m)^{1/3}` (`α = 1/3`), for which the separator's
//! `γ = 3/4` satisfies Proposition 3's admissibility with equality — the
//! predicted slowdown is `O(n log n)`, verified in experiment E13.
//!
//! Host side, everything shape-determined about a cell — Γ, its
//! children, the sibling part of each child's `want`, `S(U)`, and a
//! leaf's sorted points with their operand slots — is compiled once per
//! shape into a `ShapePlan`; the recursion then threads a sorted value
//! directory down instead of a global map, reuses per-depth buffers, and
//! runs leaves from precomputed operand slots without any hashing.
//!
//! For simplicity this engine supports `m = 1` (the Theorem-2/5-analogue
//! setting the conjecture is about).

use bsmp_machine::FxHashMap;

use bsmp_geometry::{ClippedDomain3, Diamond, Domain3, IBox4, Pt4};
use bsmp_hram::{AccessFn, CostTable, Hram, Word};
use bsmp_machine::VolumeProgram;

use crate::error::SimError;
use crate::sorted::{insert_sorted, merge_vals, remove_sorted_vals, vals_get, Vals};
use crate::zone::ZoneAlloc;

/// Memo key: radius, the two projection-time offsets, and clamped
/// distances to the eight dag walls.  A cell and its Γ lie within
/// `h + 1` of its projection centres, so beyond `h + 2` a wall cannot
/// influence anything the plan holds.
type ShapeKey = (i64, i64, i64, i64, i64, i64, i64, i64, i64, i64, i64);

/// Leaf operand slot marker: the operand lies outside the dag and reads
/// the program's boundary word.
const BOUNDARY: u32 = u32::MAX;
/// Leaf operand slot marker: an in-dag operand that is neither executed
/// in the leaf nor in its Γ (a bookkeeping bug, reported at run time).
const MISSING: u32 = u32::MAX - 1;

/// Everything shape-determined about one cell, relative to the cell
/// origin (see [`origin`]).  Point sets are kept as sorted *keys* (see
/// [`VolumeExec::key`]) less the origin's key: the key is linear in the
/// coordinates and orders dag points like `Pt4`, so translating a plan
/// is one addition per point and every comparison is one integer compare.
struct ShapePlan {
    /// `S(U)` of Proposition 2.
    space: usize,
    /// `max_i S(child_i)` (0 for leaves).
    zmax: usize,
    /// Executed naively (radius `≤ leaf_h` or odd).
    leaf: bool,
    /// Γ, sorted; ingest follows this order.
    gamma: Vec<i64>,
    /// Non-empty children in topological order: which of our per-axis
    /// diamond children (see [`split`]) each one combines, and its plan.
    kids: Vec<([u8; 3], u32)>,
    /// Per child: the shape-determined part of its `want` (later-sibling
    /// Γ points it computes or borrows), sorted — child `i`'s list is
    /// `sib_want[sib_at[i]..sib_at[i + 1]]`.
    sib_want: Vec<i64>,
    sib_at: Vec<u32>,
    /// Leaves: executed points, sorted — the execution order — as
    /// coordinate offsets and as keys.
    pts: Vec<Pt4>,
    pts_key: Vec<i64>,
    /// Leaves: per point, the scratch slot of each operand in read order
    /// (`Pt4::preds` order), or [`BOUNDARY`] / [`MISSING`].
    operands: Vec<[u32; 7]>,
}

/// Per-depth scratch buffers for [`VolumeExec::exec_node`] (see
/// `exec1::LevelBufs`).
#[derive(Default)]
struct LevelBufs {
    kids: Vec<(ClippedDomain3, u32)>,
    g_u: Vec<i64>,
    zone_list: Vals<i64>,
    scratch: Vec<i64>,
    vscratch: Vals<i64>,
    wtmp: Vec<i64>,
    kid_addrs: Vec<usize>,
    want_kid: Vec<i64>,
    kid_gammas: Vec<Vec<i64>>,
}

/// The recursive `d = 3` executor (`m = 1`).
pub struct VolumeExec<'a, P: VolumeProgram> {
    prog: &'a P,
    side: i64,
    t_steps: i64,
    cbox: IBox4,
    pub ram: Hram,
    /// Per-run shape plans, and their index by shape key.
    plans: Vec<ShapePlan>,
    plan_ids: FxHashMap<ShapeKey, u32>,
    /// Per-recursion-depth scratch buffers (see [`LevelBufs`]).
    levels: Vec<LevelBufs>,
    pub leaf_h: i64,
    /// Plan-time charge table (see `DiamondExec::table`): reads, writes
    /// and relocations take their `1 + f(x)` from here instead of a
    /// `cbrt` per access, counted in `table_hits`, with scalar fallback
    /// above the table.  It covers the leaf scratch band from the start
    /// and every address of the run once [`run`](Self::run) has laid
    /// out memory.  Meters stay bit-identical.
    table: CostTable,
    /// Every cell `exec` visited, in visit order (tests only).
    #[cfg(test)]
    visited: Vec<ClippedDomain3>,
}

/// The point all of a cell's plan offsets are taken from.
#[inline]
fn origin(u: &ClippedDomain3) -> Pt4 {
    Pt4::new(u.cell.dx.cx, u.cell.dy.cx, u.cell.dz.cx, u.cell.dx.ct)
}

#[inline]
fn offset(p: Pt4, o: Pt4) -> Pt4 {
    Pt4::new(p.x - o.x, p.y - o.y, p.z - o.z, p.t - o.t)
}

#[inline]
fn translate(d: Pt4, o: Pt4) -> Pt4 {
    Pt4::new(d.x + o.x, d.y + o.y, d.z + o.z, d.t + o.t)
}

/// The per-axis diamond children (bottom, left, right, top) of a cell;
/// its own children are products of one from each axis.
fn split(c: &Domain3) -> [[Diamond; 4]; 3] {
    [c.dx.children(), c.dy.children(), c.dz.children()]
}

/// The child combining per-axis children `ix` of `split`.
fn kid_cell(split: &[[Diamond; 4]; 3], ix: [u8; 3]) -> Domain3 {
    Domain3 {
        dx: split[0][ix[0] as usize],
        dy: split[1][ix[1] as usize],
        dz: split[2][ix[2] as usize],
    }
}

/// Executed `t`-range of column `x` in a diamond tile (inclusive; empty
/// if `lo > hi`).
#[inline]
fn tile_range(d: &Diamond, x: i64) -> (i64, i64) {
    let k = (x - d.cx).abs();
    (d.ct - d.h + k + 1, d.ct + d.h - k)
}

/// Scratch slot of key offset `d` in a leaf plan: point index, else Γ
/// slot.
#[inline]
fn leaf_slot(plan: &ShapePlan, d: i64) -> Option<usize> {
    match plan.pts_key.binary_search(&d) {
        Ok(j) => Some(j),
        Err(_) => plan
            .gamma
            .binary_search(&d)
            .ok()
            .map(|j| plan.pts.len() + j),
    }
}

impl<'a, P: VolumeProgram> VolumeExec<'a, P> {
    pub fn new(side: i64, prog: &'a P, t_steps: i64, leaf_h: i64) -> Self {
        assert_eq!(prog.m(), 1, "VolumeExec supports m = 1");
        let leaf_h = leaf_h.max(1);
        // Leaf scratch bound: a radius-h cell has ≤ (2h + 1)⁴ points and
        // ≤ 8(2h + 1)³ preboundary slots.  Capped so degenerate leaf
        // choices cannot balloon the table.
        let w = 2 * leaf_h as usize + 1;
        let leaf_span = (w * w * w * w + 8 * w * w * w + 16).min(1 << 20);
        let access = AccessFn::new(3, 1);
        VolumeExec {
            prog,
            side,
            t_steps,
            cbox: IBox4::new(0, side, 0, side, 0, side, 1, t_steps + 1),
            ram: Hram::new(access, 0),
            plans: Vec::new(),
            plan_ids: FxHashMap::default(),
            levels: Vec::new(),
            leaf_h,
            table: CostTable::new(access, leaf_span),
            #[cfg(test)]
            visited: Vec::new(),
        }
    }

    /// The directory key of `p`: its index in `(t, x, y, z)`-major order
    /// over the dag box.  Linear in the coordinates, and ordered like
    /// `Pt4` on dag points.
    #[inline]
    fn key(&self, p: Pt4) -> i64 {
        ((p.t * self.side + p.x) * self.side + p.y) * self.side + p.z
    }

    /// The dag point of key `k` (inverse of [`key`](Self::key)).
    fn point(&self, k: i64) -> Pt4 {
        let s = self.side;
        let (z, k) = (k.rem_euclid(s), k.div_euclid(s));
        let (y, k) = (k.rem_euclid(s), k.div_euclid(s));
        let (x, t) = (k.rem_euclid(s), k.div_euclid(s));
        Pt4::new(x, y, z, t)
    }

    #[inline]
    fn in_exec(&self, u: &ClippedDomain3, p: Pt4) -> bool {
        u.cell.contains(p) && self.cbox.contains(p)
    }

    #[inline]
    fn in_dag(&self, p: Pt4) -> bool {
        0 <= p.x
            && p.x < self.side
            && 0 <= p.y
            && p.y < self.side
            && 0 <= p.z
            && p.z < self.side
            && 0 <= p.t
            && p.t <= self.t_steps
    }

    /// The executor's preboundary: dag vertices outside `U` that are
    /// predecessors of a vertex of `U`, sorted (from the shape plan).
    pub fn gamma(&mut self, u: &ClippedDomain3) -> Vec<Pt4> {
        let id = self.plan_of(u);
        let ko = self.key(origin(u));
        self.plans[id as usize]
            .gamma
            .iter()
            .map(|&d| self.point(d + ko))
            .collect()
    }

    /// The executed box of time slice `t` of `u` (inclusive `x`, `y`,
    /// `z` ranges), or `None` when the slice is empty.
    fn slice(&self, u: &ClippedDomain3, t: i64) -> Option<[(i64, i64); 3]> {
        let c = &self.cbox;
        if t < c.t0 || t >= c.t1 {
            return None;
        }
        let clip = |d: &Diamond, lo: i64, hi: i64| {
            let (a, b) = d.row_range(t)?;
            let (a, b) = (a.max(lo), b.min(hi - 1));
            (a <= b).then_some((a, b))
        };
        Some([
            clip(&u.cell.dx, c.x0, c.x1)?,
            clip(&u.cell.dy, c.y0, c.y1)?,
            clip(&u.cell.dz, c.z0, c.z1)?,
        ])
    }

    /// Γ computed slice by slice, already sorted: the predecessors of
    /// slice `t + 1` (its box widened by one along one axis at a time)
    /// that lie in the dag but not in slice `t`.  Output-sensitive — it
    /// never enumerates the cell's interior.
    fn gamma_direct(&self, u: &ClippedDomain3) -> Vec<Pt4> {
        let h = u.cell.h();
        let (c, k) = (&u.cell, self.side - 1);
        let t_lo = c.dx.ct.max(c.dy.ct).max(c.dz.ct) - h;
        let t_hi = c.dx.ct.min(c.dy.ct).min(c.dz.ct) + h;
        let inside = |v: i64, r: (i64, i64)| r.0 <= v && v <= r.1;
        let mut out = Vec::new();
        for t in t_lo.max(0)..t_hi {
            let Some([bx, by, bz]) = self.slice(u, t + 1) else {
                continue;
            };
            let own = self.slice(u, t);
            for x in (bx.0 - 1).max(0)..=(bx.1 + 1).min(k) {
                let xin = inside(x, bx);
                for y in (by.0 - 1).max(0)..=(by.1 + 1).min(k) {
                    let yin = inside(y, by);
                    if !xin && !yin {
                        continue;
                    }
                    let w = (xin && yin) as i64;
                    let (z0, z1) = ((bz.0 - w).max(0), (bz.1 + w).min(k));
                    // Minus the executed run of slice `t` in this row.
                    let (e0, e1) = match own {
                        Some([ox, oy, oz]) if inside(x, ox) && inside(y, oy) => oz,
                        _ => (z1 + 1, z1),
                    };
                    for z in (z0..=z1).filter(|z| !(e0..=e1).contains(z)) {
                        out.push(Pt4::new(x, y, z, t));
                    }
                }
            }
        }
        out
    }

    /// Outbound cap: top two vertices of every pillar (the 4-D analogue
    /// of the d = 1/2 arguments; neighbor pillar ranges shift by ≤ 1).
    /// A pillar's executed vertices are the intersection of its three
    /// tile column ranges with the clip, so each pillar is counted in
    /// O(1) without enumerating points.
    fn outbound_cap(&self, u: &ClippedDomain3) -> usize {
        let (c, k) = (&self.cbox, &u.cell);
        let h = k.h();
        let span = |cx: i64, lo: i64, hi: i64| (cx - h).max(lo)..(cx + h + 1).min(hi);
        let mut count = 0usize;
        for x in span(k.dx.cx, c.x0, c.x1) {
            let (xl, xh) = tile_range(&k.dx, x);
            for y in span(k.dy.cx, c.y0, c.y1) {
                let (yl, yh) = tile_range(&k.dy, y);
                for z in span(k.dz.cx, c.z0, c.z1) {
                    let (zl, zh) = tile_range(&k.dz, z);
                    let lo = xl.max(yl).max(zl).max(c.t0);
                    let hi = xh.min(yh).min(zh).min(c.t1 - 1);
                    if lo <= hi {
                        count += 2.min((hi - lo + 1) as usize);
                    }
                }
            }
        }
        count + 16
    }

    fn shape_key(&self, u: &ClippedDomain3) -> ShapeKey {
        let h = u.cell.h();
        let cl = h + 2;
        (
            h,
            u.cell.dy.ct - u.cell.dx.ct,
            u.cell.dz.ct - u.cell.dx.ct,
            u.cell.dx.cx.clamp(-cl, cl),
            (self.side - u.cell.dx.cx).clamp(-cl, cl),
            u.cell.dy.cx.clamp(-cl, cl),
            (self.side - u.cell.dy.cx).clamp(-cl, cl),
            u.cell.dz.cx.clamp(-cl, cl),
            (self.side - u.cell.dz.cx).clamp(-cl, cl),
            u.cell.dx.ct.clamp(-cl, cl),
            (self.t_steps + 1 - u.cell.dx.ct).clamp(-cl, cl),
        )
    }

    /// The space function `S(U)` of Proposition 2, memoized per shape.
    pub fn space(&mut self, u: &ClippedDomain3) -> usize {
        let id = self.plan_of(u);
        self.plans[id as usize].space
    }

    /// The plan of `u`'s shape, compiled (with its children's) on first
    /// sight.
    fn plan_of(&mut self, u: &ClippedDomain3) -> u32 {
        let key = self.shape_key(u);
        if let Some(&id) = self.plan_ids.get(&key) {
            return id;
        }
        let plan = self.compile(u);
        let id = self.plans.len() as u32;
        self.plans.push(plan);
        self.plan_ids.insert(key, id);
        id
    }

    fn compile(&mut self, u: &ClippedDomain3) -> ShapePlan {
        let o = origin(u);
        let ko = self.key(o);
        let g_abs = self.gamma_direct(u);
        let gamma = g_abs.iter().map(|&q| self.key(q) - ko).collect();
        let mut plan = ShapePlan {
            space: 0,
            zmax: 0,
            leaf: u.cell.h() <= self.leaf_h || u.cell.h() % 2 == 1,
            gamma,
            kids: Vec::new(),
            sib_want: Vec::new(),
            sib_at: Vec::new(),
            pts: Vec::new(),
            pts_key: Vec::new(),
            operands: Vec::new(),
        };
        if plan.leaf {
            let mut pts = Vec::new();
            u.for_each_point(|p| pts.push(p));
            pts.sort_unstable();
            plan.operands = pts
                .iter()
                .map(|p| {
                    p.preds().map(|q| {
                        if !self.in_dag(q) {
                            BOUNDARY
                        } else if let Ok(j) = pts.binary_search(&q) {
                            j as u32
                        } else if let Ok(j) = g_abs.binary_search(&q) {
                            (pts.len() + j) as u32
                        } else {
                            MISSING
                        }
                    })
                })
                .collect();
            plan.space = pts.len() + plan.gamma.len();
            plan.pts = pts.iter().map(|&p| offset(p, o)).collect();
            plan.pts_key = pts.iter().map(|&p| self.key(p) - ko).collect();
            return plan;
        }
        // Children, their plans and (absolute) Γs.
        let kids = u.children();
        let halves = split(&u.cell);
        let mut kid_keys = Vec::with_capacity(kids.len());
        let mut p_u = 0usize;
        for k in &kids {
            let id = self.plan_of(k);
            let kp = &self.plans[id as usize];
            plan.zmax = plan.zmax.max(kp.space);
            p_u += kp.gamma.len();
            kid_keys.push((id, self.key(origin(k))));
            let ix = |axis: usize, d: &Diamond| {
                halves[axis].iter().position(|h| h == d).unwrap_or(0) as u8
            };
            let axes = [ix(0, &k.cell.dx), ix(1, &k.cell.dy), ix(2, &k.cell.dz)];
            plan.kids.push((axes, id));
        }
        // Sibling wants: kid `i` parks every later-sibling Γ point it
        // computes or borrows — with `last(q)` the latest kid whose Γ
        // holds `q`, every `q` with `i < last(q)` in kid `i`'s Γ or
        // points.  All kid points and Γs lie in the cell's time band, a
        // contiguous key range, so `last` is a dense table over it.
        let gamma_of = |j: usize| {
            let (id, kko) = kid_keys[j];
            self.plans[id as usize].gamma.iter().map(move |&d| d + kko)
        };
        let (c, h) = (&u.cell, u.cell.h());
        let t_lo = (c.dx.ct.max(c.dy.ct).max(c.dz.ct) - h).max(0);
        let t_hi = (c.dx.ct.min(c.dy.ct).min(c.dz.ct) + h).min(self.t_steps);
        let k_lo = self.key(Pt4::new(0, 0, 0, t_lo));
        let k_hi = self.key(Pt4::new(0, 0, 0, t_hi + 1));
        let mut last = vec![0u8; (k_hi - k_lo).max(0) as usize];
        for j in 0..kids.len() {
            for q in gamma_of(j) {
                last[(q - k_lo) as usize] = j as u8 + 1;
            }
        }
        let later = |q: i64, j: usize| last[(q - k_lo) as usize] as usize > j + 1;
        plan.sib_at.push(0);
        for (j, kid) in kids.iter().enumerate() {
            let start = plan.sib_want.len();
            plan.sib_want.extend(gamma_of(j).filter(|&q| later(q, j)));
            kid.for_each_point(|p| {
                let q = self.key(p);
                if later(q, j) {
                    plan.sib_want.push(q);
                }
            });
            let w = &mut plan.sib_want[start..];
            w.sort_unstable();
            w.iter_mut().for_each(|q| *q -= ko);
            plan.sib_at.push(plan.sib_want.len() as u32);
        }
        plan.space = plan.zmax + p_u + plan.gamma.len() + self.outbound_cap(u);
        plan
    }

    /// Execute `U`, with all inputs parked in `parent_zone` at the
    /// addresses listed in the sorted directory `parent_vals`; park the
    /// values in `want` (sorted, deduplicated — parking order follows
    /// it) back into `parent_zone`, pushing each parked address onto
    /// `out_addrs` in `want` order.  Points are [`key`](Self::key)s.
    /// Bookkeeping invariant violations surface as [`SimError::Internal`]
    /// rather than panicking.
    fn exec(
        &mut self,
        u: &ClippedDomain3,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let id = self.plan_of(u);
        self.exec_at(u, id, want, parent_zone, parent_vals, out_addrs, 0)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_at(
        &mut self,
        u: &ClippedDomain3,
        id: u32,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
        depth: usize,
    ) -> Result<(), SimError> {
        debug_assert!(want.windows(2).all(|w| w[0] < w[1]), "want must be sorted");
        #[cfg(test)]
        self.visited.push(*u);
        if self.plans[id as usize].leaf {
            return self.exec_leaf(origin(u), id, want, parent_zone, parent_vals, out_addrs);
        }
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, LevelBufs::default);
        }
        let mut b = std::mem::take(&mut self.levels[depth]);
        let res = self.exec_node(
            u,
            id,
            want,
            parent_zone,
            parent_vals,
            out_addrs,
            depth,
            &mut b,
        );
        self.levels[depth] = b;
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_node(
        &mut self,
        u: &ClippedDomain3,
        id: u32,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
        depth: usize,
        b: &mut LevelBufs,
    ) -> Result<(), SimError> {
        let o = origin(u);
        let ko = self.key(o);
        let plan = &self.plans[id as usize];
        let mut zone = ZoneAlloc::new(plan.zmax, plan.space - plan.zmax);
        b.g_u.clear();
        b.g_u.extend(plan.gamma.iter().map(|&d| d + ko));
        let halves = split(&u.cell);
        b.kids.clear();
        b.kids.extend(
            plan.kids
                .iter()
                .map(|&(ix, kid)| (ClippedDomain3::new(kid_cell(&halves, ix), self.cbox), kid)),
        );
        let nk = b.kids.len();
        if b.kid_gammas.len() < nk {
            b.kid_gammas.resize_with(nk, Vec::new);
        }
        for (g, (k, kid)) in b.kid_gammas.iter_mut().zip(&b.kids) {
            let kko = self.key(origin(k));
            g.clear();
            g.extend(self.plans[*kid as usize].gamma.iter().map(|&d| d + kko));
        }

        // Ingest Γ (sorted: `zone_list` is born sorted).
        b.zone_list.clear();
        for &q in &b.g_u {
            let old = vals_get(parent_vals, q).ok_or(SimError::Internal {
                what: "moved value not live",
            })?;
            let new = zone.alloc();
            self.ram.relocate_via(&self.table, old, new);
            parent_zone.free_if_owned(old);
            b.zone_list.push((q, new));
        }

        // Children, in topological order.
        for i in 0..nk {
            let (kid, kid_id) = b.kids[i];
            b.want_kid.clear();
            let plan = &self.plans[id as usize];
            let sib = &plan.sib_want[plan.sib_at[i] as usize..plan.sib_at[i + 1] as usize];
            b.want_kid.extend(sib.iter().map(|&d| d + ko));
            // The parent's wants the kid executes or borrows.  A leaf
            // kid looks its few points and Γ up in `want`; a larger kid
            // scans the slices of `want` within its reach — per time
            // step, the `x` band of its x tile.
            b.wtmp.clear();
            let kp = &self.plans[kid_id as usize];
            if kp.leaf {
                let kko = self.key(origin(&kid));
                for q in kp.pts_key.iter().map(|&d| d + kko) {
                    if want.binary_search(&q).is_ok() {
                        b.wtmp.push(q);
                    }
                }
                insert_sorted(&mut b.want_kid, &b.wtmp, &mut b.scratch);
                b.wtmp.clear();
                for &q in &b.kid_gammas[i] {
                    if want.binary_search(&q).is_ok() {
                        b.wtmp.push(q);
                    }
                }
            } else {
                let (c, h, s) = (&kid.cell, kid.cell.h(), self.side);
                let t_lo = c.dx.ct.max(c.dy.ct).max(c.dz.ct) - h;
                let t_hi = c.dx.ct.min(c.dy.ct).min(c.dz.ct) + h;
                let (x_lo, x_hi) = ((c.dx.cx - h).max(0), (c.dx.cx + h).min(s - 1));
                let mut at = 0;
                for t in t_lo..=t_hi {
                    let k_lo = self.key(Pt4::new(x_lo, 0, 0, t));
                    let k_hi = self.key(Pt4::new(x_hi, s - 1, s - 1, t));
                    let a = at + want[at..].partition_point(|&q| q < k_lo);
                    at = a + want[a..].partition_point(|&q| q <= k_hi);
                    for &q in &want[a..at] {
                        if self.in_exec(&kid, self.point(q))
                            || b.kid_gammas[i].binary_search(&q).is_ok()
                        {
                            b.wtmp.push(q);
                        }
                    }
                }
            }
            insert_sorted(&mut b.want_kid, &b.wtmp, &mut b.scratch);
            b.kid_addrs.clear();
            {
                let mut kid_addrs = std::mem::take(&mut b.kid_addrs);
                let r = self.exec_at(
                    &kid,
                    kid_id,
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

        // Park what the parent wants (sorted), then drop the rest — only
        // this level's zone sees the drops, and it allocates nothing
        // more.
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
            self.ram.relocate_via(&self.table, old, new);
            zone.free_if_owned(old);
            out_addrs.push(new);
        }
        for &(_, old) in &b.zone_list[zi..] {
            zone.free_if_owned(old);
        }
        Ok(())
    }

    /// Naive execution of an executable cell from its compiled plan:
    /// ingest Γ, run the points in time order with precomputed operand
    /// slots, park.
    fn exec_leaf(
        &mut self,
        o: Pt4,
        id: u32,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let ko = self.key(o);
        let plan = &self.plans[id as usize];
        // Scratch layout: [0, |U|) value slots, then Γ slots.
        let n_pts = plan.pts.len();
        if n_pts == 0 {
            return Ok(());
        }
        for (i, &d) in plan.gamma.iter().enumerate() {
            let old = vals_get(parent_vals, d + ko).ok_or(SimError::Internal {
                what: "preboundary value not live at leaf ingest",
            })?;
            self.ram.relocate_via(&self.table, old, n_pts + i);
            parent_zone.free_if_owned(old);
        }

        let bd = self.prog.boundary();
        for (i, (&d, slots)) in plan.pts.iter().zip(&plan.operands).enumerate() {
            let mut w = [bd; 7];
            for (w, &s) in w.iter_mut().zip(slots) {
                if s == MISSING {
                    return Err(SimError::Internal {
                        what: "operand unavailable in leaf",
                    });
                }
                if s != BOUNDARY {
                    *w = self.ram.read_via(&self.table, s as usize);
                }
            }
            let p = translate(d, o);
            let nb = [w[1], w[2], w[3], w[4], w[5], w[6]];
            let out = self.prog.delta(
                p.x as usize,
                p.y as usize,
                p.z as usize,
                p.t,
                w[0],
                w[0],
                nb,
            );
            self.ram.compute();
            self.ram.write_via(&self.table, i, out);
        }

        // Park wanted values (sorted: deterministic addresses).
        for &q in want {
            let old = leaf_slot(plan, q - ko).ok_or(SimError::Internal {
                what: "wanted value not present in leaf",
            })?;
            let new = parent_zone.alloc();
            self.ram.relocate_via(&self.table, old, new);
            out_addrs.push(new);
        }
        Ok(())
    }

    /// Run the whole simulation; returns `(final_mem, final_values)`.
    pub fn run(&mut self, init: &[Word]) -> Result<(Vec<Word>, Vec<Word>), SimError> {
        let side = self.side as usize;
        let n = side * side * side;
        assert_eq!(init.len(), n);
        if self.t_steps == 0 {
            return Ok((init.to_vec(), init.to_vec()));
        }

        let h_top = ((self.side + self.t_steps + 4) as u64).next_power_of_two() as i64;
        let c = self.side / 2;
        let top = ClippedDomain3::new(
            Domain3::symmetric(c, c, c, self.t_steps / 2 + 1, h_top),
            self.cbox,
        );
        let s_top = self.space(&top);
        let zone_cap = self.gamma(&top).len() + 2 * n + 64;
        let mut driver_zone = ZoneAlloc::new(s_top, zone_cap);
        let image = s_top + zone_cap;
        // Every address the run touches is now known: widen the charge
        // table over all of them, so relocations skip the `cbrt` too.
        self.table = CostTable::new(self.ram.access, image + n);

        for (i, w) in init.iter().enumerate() {
            self.ram.poke(image + i, *w);
        }
        // The input volume's value directory and the final volume's want
        // list, both in key order (x-, then y-, then z-major): node
        // `(x, y, z)`'s final value comes back at
        // `out_addrs[(x·side + y)·side + z]`.
        let idx = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
        let mut driver_vals: Vals<i64> = Vec::with_capacity(n);
        let mut want: Vec<i64> = Vec::with_capacity(n);
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
                    driver_vals.push((self.key(Pt4::new(xi, yi, zi, 0)), image + idx(x, y, z)));
                    want.push(self.key(Pt4::new(xi, yi, zi, self.t_steps)));
                }
            }
        }
        let mut out_addrs = Vec::with_capacity(n);
        self.exec(&top, &want, &mut driver_zone, &driver_vals, &mut out_addrs)?;
        if out_addrs.len() != n {
            return Err(SimError::Internal {
                what: "final value not live after top-level exec",
            });
        }

        let mut values = vec![0 as Word; n];
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    let addr = out_addrs[(x * side + y) * side + z];
                    values[idx(x, y, z)] = self.ram.peek(addr);
                    self.ram
                        .relocate_via(&self.table, addr, image + idx(x, y, z));
                }
            }
        }
        let mem = (0..n).map(|i| self.ram.peek(image + i)).collect();
        Ok((mem, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_workloads::{inputs, Parity3d};

    /// Γ straight from the definition: every dag predecessor of an
    /// executed point that is not itself executed.
    fn gamma_reference<P: VolumeProgram>(ex: &VolumeExec<'_, P>, u: &ClippedDomain3) -> Vec<Pt4> {
        let mut v = Vec::new();
        u.for_each_point(|p| {
            for q in p.preds() {
                if ex.in_dag(q) && !ex.in_exec(u, q) {
                    v.push(q);
                }
            }
        });
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The outbound cap straight from the executed points.
    fn outbound_cap_from_points(u: &ClippedDomain3) -> usize {
        let mut v = Vec::new();
        u.for_each_point(|p| v.push((p.x, p.y, p.z)));
        v.sort_unstable();
        v.chunk_by(|a, b| a == b)
            .map(|run| 2.min(run.len()))
            .sum::<usize>()
            + 16
    }

    /// Run one small dnc3 simulation and check every visited cell's
    /// plan — Γ, children or sorted leaf points — and its outbound cap
    /// against the direct computations.  Returns the visited cells.
    fn check_memos(side: i64, steps: i64) -> Vec<ClippedDomain3> {
        let n = (side * side * side) as usize;
        let init = inputs::random_bits(11 + side as u64, n);
        let mut ex = VolumeExec::new(side, &Parity3d, steps, 1);
        ex.run(&init).unwrap();
        let visited = std::mem::take(&mut ex.visited);
        for u in &visited {
            let direct = gamma_reference(&ex, u);
            assert_eq!(
                ex.gamma_direct(u),
                direct,
                "Γ of {u:?} (side {side}, T {steps})"
            );
            assert_eq!(
                ex.gamma(u),
                direct,
                "Γ memo of {u:?} (side {side}, T {steps})"
            );
            assert_eq!(
                ex.outbound_cap(u),
                outbound_cap_from_points(u),
                "cap of {u:?}"
            );
            let o = origin(u);
            let id = ex.plan_of(u);
            let plan = &ex.plans[id as usize];
            if plan.leaf {
                let mut pts = u.points();
                pts.sort_unstable();
                let planned: Vec<Pt4> = plan.pts.iter().map(|&d| translate(d, o)).collect();
                assert_eq!(planned, pts, "leaf points of {u:?}");
            } else {
                let kids: Vec<Domain3> = u.children().iter().map(|k| k.cell).collect();
                let halves = split(&u.cell);
                let planned: Vec<Domain3> = plan
                    .kids
                    .iter()
                    .map(|&(ix, _)| kid_cell(&halves, ix))
                    .collect();
                assert_eq!(planned, kids, "children of {u:?}");
            }
        }
        assert!(
            ex.ram.meter.table_hits > 0,
            "leaf accesses use the cost table"
        );
        visited
    }

    #[test]
    fn memoized_gamma_matches_direct_on_every_visited_cell() {
        let mut classes = [0usize; 3];
        // Walls touched by some visited cell: low/high x, y, z, then
        // t = 1 (executes from the input volume) and t = T.
        let mut walls = [false; 8];
        let mut runs = Vec::new();
        for side in 1..=5 {
            for steps in [1, 2, 5] {
                runs.push((side, steps));
            }
        }
        runs.push((6, 7));
        for (side, steps) in runs {
            for u in check_memos(side, steps) {
                classes[u.cell.class()] += 1;
                u.for_each_point(|p| {
                    let hits = [
                        p.x == 0,
                        p.x == side - 1,
                        p.y == 0,
                        p.y == side - 1,
                        p.z == 0,
                        p.z == side - 1,
                        p.t == 1,
                        p.t == steps,
                    ];
                    for (w, h) in walls.iter_mut().zip(hits) {
                        *w |= h;
                    }
                });
            }
        }
        assert!(
            classes.iter().all(|&c| c > 0),
            "cell classes visited: {classes:?}"
        );
        assert!(walls.iter().all(|&w| w), "walls touched: {walls:?}");
    }
}
