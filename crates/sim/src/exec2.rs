//! The Proposition-2 executor over octahedron/tetrahedron topological
//! separators (`d = 2`) — the machinery behind Theorem 5.
//!
//! It follows [`crate::exec1`]'s memory discipline with the Figure-3
//! refinements of [`bsmp_geometry::Domain2`] in place of the diamond
//! splits: the computed box `[0, side)² × [1, T]` is wrapped in one big
//! clipped octahedron; octahedra split into 6 octahedra + 8 tetrahedra,
//! tetrahedra into 4 tetrahedra + 1 octahedron; cells of radius
//! `≤ leaf_h` are executed naively.  Node-column state blocks become
//! per-*pillar* (mesh position) blocks.
//!
//! Host side, everything shape-determined about a cell — Γ, its pillars,
//! its children, the sibling part of each child's `want`, `S(U)`, and a
//! leaf's sorted points with their operand slots — is compiled once per
//! shape into a `ShapePlan`; the recursion threads a sorted value
//! directory down instead of a global map, reuses per-depth buffers, and
//! runs leaves from precomputed operand slots without any hashing.  The
//! dimension is not abstracted away: the boundary cases (input plane,
//! wall proximity, pillar enumeration) differ in exactly the places a
//! shared abstraction would have to re-expose, and the paper, too,
//! develops the cases separately (Sections 4 and 5).

use bsmp_machine::FxHashMap;

use bsmp_geometry::{ClippedDomain2, Diamond, Domain2, IBox, Pt3};
use bsmp_hram::{CostTable, Hram, Word};
use bsmp_machine::{MachineSpec, MeshProgram};

use crate::error::SimError;
use crate::sorted::{insert_sorted, merge_vals, remove_sorted_vals, vals_get, Vals};
use crate::zone::ZoneAlloc;

/// Memo key: radius, cell kind offset, and clamped distances to the six
/// dag walls.  A cell and its Γ lie within `h + 1` of its projection
/// centres, so beyond `h + 2` a wall cannot influence anything the plan
/// holds.
type ShapeKey = (i64, i64, i64, i64, i64, i64, i64, i64);

/// Absent entry of the dense pillar-state table.
const NO_STATE: usize = usize::MAX;
/// Leaf operand slot marker: the operand lies outside the dag and reads
/// the program's boundary word.
const BOUNDARY: u32 = u32::MAX;
/// Leaf operand slot marker: an in-dag operand that is neither executed
/// in the leaf nor in its Γ (a bookkeeping bug, reported at run time).
const MISSING: u32 = u32::MAX - 1;

/// Everything shape-determined about one cell, relative to the cell
/// origin (see [`origin`]).  Point sets are kept as sorted *keys* (see
/// [`CellExec::key`]) less the origin's key: the key is linear in the
/// coordinates and orders dag points like `Pt3`, so translating a plan
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
    /// Pillars with an executed vertex, sorted `(x, y)` (only `m > 1`).
    pillars: Vec<(i64, i64)>,
    /// Non-empty children in topological order: which of our per-axis
    /// diamond children (see [`split`]) each one combines, and its plan.
    kids: Vec<([u8; 2], u32)>,
    /// Per child: the shape-determined part of its `want` (later-sibling
    /// Γ points it computes or borrows), sorted — child `i`'s list is
    /// `sib_want[sib_at[i]..sib_at[i + 1]]`.
    sib_want: Vec<i64>,
    sib_at: Vec<u32>,
    /// Leaves: executed points, sorted — the execution order — as
    /// coordinate offsets and as keys.
    pts: Vec<Pt3>,
    pts_key: Vec<i64>,
    /// Leaves: per point, the scratch slot of each operand in read order
    /// (`Pt3::preds` order), or [`BOUNDARY`] / [`MISSING`], and the index
    /// of its pillar in `pillars` (`m > 1`).
    operands: Vec<([u32; 5], u32)>,
}

/// The shape plans of one run, indexed by shape key.  Pure geometry of
/// the run's `(side, T, m, leaf_h)`, so the per-processor executors of
/// one multiprocessor run can pass one set between them (see
/// [`CellExec::swap_plans`]).
#[derive(Default)]
pub struct CellPlans {
    list: Vec<ShapePlan>,
    ids: FxHashMap<ShapeKey, u32>,
}

/// Per-depth scratch buffers for [`CellExec::exec_node`]: every cell
/// visited at the same recursion depth reuses one set, so the
/// steady-state recursion performs no per-node heap allocation.
#[derive(Default)]
struct LevelBufs {
    kids: Vec<(ClippedDomain2, u32)>,
    g_u: Vec<i64>,
    zone_list: Vals<i64>,
    scratch: Vec<i64>,
    vscratch: Vals<i64>,
    wtmp: Vec<i64>,
    kid_addrs: Vec<usize>,
    want_kid: Vec<i64>,
    kid_gammas: Vec<Vec<i64>>,
    pillars: Vec<(i64, i64)>,
}

/// The recursive `d = 2` executor.
pub struct CellExec<'a, P: MeshProgram> {
    prog: &'a P,
    side: i64,
    t_steps: i64,
    m: usize,
    cbox: IBox,
    pub ram: Hram,
    /// Pillar (mesh node `y·side + x`) → state block base, or
    /// [`NO_STATE`] (only `m > 1`).
    state: Vec<usize>,
    /// Per-run shape plans (see [`CellPlans`]).
    plans: CellPlans,
    /// Per-recursion-depth scratch buffers (see [`LevelBufs`]).
    levels: Vec<LevelBufs>,
    pub leaf_h: i64,
    /// Plan-time charge table (see `DiamondExec::table`): reads, writes
    /// and relocations take their `1 + f(x)` from here instead of a
    /// square root per access, counted in `table_hits`, with scalar
    /// fallback above the table.  It covers the leaf scratch band from
    /// the start, and every address of the run once memory is laid out
    /// (see [`cover`](Self::cover)).  Meters stay bit-identical.
    table: CostTable,
    /// Every cell `exec` visited, in visit order (tests only).
    #[cfg(test)]
    visited: Vec<ClippedDomain2>,
}

/// The point all of a cell's plan offsets are taken from.
#[inline]
fn origin(u: &ClippedDomain2) -> Pt3 {
    Pt3::new(u.cell.dx.cx, u.cell.dy.cx, u.cell.dx.ct)
}

#[inline]
fn offset(p: Pt3, o: Pt3) -> Pt3 {
    Pt3::new(p.x - o.x, p.y - o.y, p.t - o.t)
}

#[inline]
fn translate(d: Pt3, o: Pt3) -> Pt3 {
    Pt3::new(d.x + o.x, d.y + o.y, d.t + o.t)
}

/// The per-axis diamond children (bottom, left, right, top) of a cell;
/// its own children are products of one from each axis.
fn split(c: &Domain2) -> [[Diamond; 4]; 2] {
    [c.dx.children(), c.dy.children()]
}

/// The child combining per-axis children `ix` of `split`.
fn kid_cell(split: &[[Diamond; 4]; 2], ix: [u8; 2]) -> Domain2 {
    Domain2 {
        dx: split[0][ix[0] as usize],
        dy: split[1][ix[1] as usize],
    }
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

impl<'a, P: MeshProgram> CellExec<'a, P> {
    pub fn new(spec: &MachineSpec, prog: &'a P, t_steps: i64, leaf_h: i64) -> Self {
        assert_eq!(spec.d, 2);
        assert_eq!(spec.p, 1, "CellExec is the uniprocessor engine");
        let side = spec.mesh_side() as i64;
        let m = prog.m();
        assert_eq!(m as u64, spec.m);
        // Leaf scratch bound: a radius-h cell has ≤ (2h + 1)³ points,
        // O(h²) preboundary slots, and ≤ (2h + 1)²·m state words.
        // Capped so degenerate leaf choices cannot balloon the table.
        let h = 2 * leaf_h.max(1) as usize + 1;
        let leaf_span = (h * h * h + 6 * h * h + h * h * m + 8).min(1 << 20);
        let table = CostTable::new(spec.access_fn(), leaf_span);
        let state = if m > 1 {
            vec![NO_STATE; (side * side) as usize]
        } else {
            Vec::new()
        };
        CellExec {
            prog,
            side,
            t_steps,
            m,
            cbox: IBox::new(0, side, 0, side, 1, t_steps + 1),
            ram: Hram::new(spec.access_fn(), 0),
            state,
            plans: CellPlans::default(),
            levels: Vec::new(),
            leaf_h: leaf_h.max(1),
            table,
            #[cfg(test)]
            visited: Vec::new(),
        }
    }

    /// Exchange this executor's shape plans with `other` — executors of
    /// the same `(side, T, m, leaf_h)` can share one set.
    pub fn swap_plans(&mut self, other: &mut CellPlans) {
        std::mem::swap(&mut self.plans, other);
    }

    /// Extend the charge table over addresses `0..len` (no-op if it
    /// already covers them) — call once the run's memory layout is
    /// known.
    pub fn cover(&mut self, len: usize) {
        if len > self.table.len() {
            self.table = CostTable::new(self.ram.access, len);
        }
    }

    /// The directory key of `p`: its index in `(t, x, y)`-major order
    /// over the dag box.  Linear in the coordinates, and ordered like
    /// `Pt3` on dag points.
    #[inline]
    fn key(&self, p: Pt3) -> i64 {
        (p.t * self.side + p.x) * self.side + p.y
    }

    /// The dag point of key `k` (inverse of [`key`](Self::key)).
    fn point(&self, k: i64) -> Pt3 {
        let s = self.side;
        let (y, k) = (k.rem_euclid(s), k.div_euclid(s));
        Pt3::new(k.rem_euclid(s), y, k.div_euclid(s))
    }

    #[inline]
    fn in_exec(&self, u: &ClippedDomain2, p: Pt3) -> bool {
        u.cell.contains(p) && self.cbox.contains(p)
    }

    #[inline]
    fn in_dag(&self, p: Pt3) -> bool {
        0 <= p.x
            && p.x < self.side
            && 0 <= p.y
            && p.y < self.side
            && 0 <= p.t
            && p.t <= self.t_steps
    }

    /// The executor's preboundary: dag vertices outside `U` that are
    /// predecessors of a vertex of `U`, sorted (from the shape plan).
    pub fn gamma(&mut self, u: &ClippedDomain2) -> Vec<Pt3> {
        let id = self.plan_of(u);
        let ko = self.key(origin(u));
        self.plans.list[id as usize]
            .gamma
            .iter()
            .map(|&d| self.point(d + ko))
            .collect()
    }

    /// Mesh pillars with an executed vertex in `U`, sorted (from the
    /// shape plan, which records them only for `m > 1`).
    pub fn pillars(&mut self, u: &ClippedDomain2) -> Vec<(i64, i64)> {
        let id = self.plan_of(u);
        let o = origin(u);
        self.plans.list[id as usize]
            .pillars
            .iter()
            .map(|&(x, y)| (x + o.x, y + o.y))
            .collect()
    }

    /// The executed rectangle of time slice `t` of `u` (inclusive `x`
    /// and `y` ranges), or `None` when the slice is empty.
    fn slice(&self, u: &ClippedDomain2, t: i64) -> Option<[(i64, i64); 2]> {
        let c = &self.cbox;
        if t < c.t0 || t >= c.t1 {
            return None;
        }
        let clip = |d: &Diamond, lo: i64, hi: i64| {
            let (a, b) = d.row_range(t)?;
            let (a, b) = (a.max(lo), b.min(hi - 1));
            (a <= b).then_some((a, b))
        };
        Some([clip(&u.cell.dx, c.x0, c.x1)?, clip(&u.cell.dy, c.y0, c.y1)?])
    }

    /// Γ computed slice by slice, already sorted: the predecessors of
    /// slice `t + 1` (its rectangle widened by one along one axis at a
    /// time) that lie in the dag but not in slice `t`.  Output-sensitive
    /// — it never enumerates the cell's interior.
    fn gamma_direct(&self, u: &ClippedDomain2) -> Vec<Pt3> {
        let h = u.cell.h();
        let (c, k) = (&u.cell, self.side - 1);
        let t_lo = c.dx.ct.max(c.dy.ct) - h;
        let t_hi = c.dx.ct.min(c.dy.ct) + h;
        let inside = |v: i64, r: (i64, i64)| r.0 <= v && v <= r.1;
        let mut out = Vec::new();
        for t in t_lo.max(0)..t_hi {
            let Some([bx, by]) = self.slice(u, t + 1) else {
                continue;
            };
            let own = self.slice(u, t);
            for x in (bx.0 - 1).max(0)..=(bx.1 + 1).min(k) {
                let w = inside(x, bx) as i64;
                let (y0, y1) = ((by.0 - w).max(0), (by.1 + w).min(k));
                // Minus the executed run of slice `t` in this column.
                let (e0, e1) = match own {
                    Some([ox, oy]) if inside(x, ox) => oy,
                    _ => (y1 + 1, y1),
                };
                for y in (y0..=y1).filter(|y| !(e0..=e1).contains(y)) {
                    out.push(Pt3::new(x, y, t));
                }
            }
        }
        out
    }

    /// Pillars from the per-pillar `t`-ranges (no point enumeration).
    fn pillars_direct(&self, u: &ClippedDomain2) -> Vec<(i64, i64)> {
        let b = u.cell.bbox().intersect(&self.cbox);
        let mut v = Vec::new();
        for x in b.x0..b.x1 {
            for y in b.y0..b.y1 {
                let (lo, hi) = self.pillar_range(u, x, y);
                if lo <= hi {
                    v.push((x, y));
                }
            }
        }
        v
    }

    /// Executed `t`-range of a pillar (inclusive).
    fn pillar_range(&self, u: &ClippedDomain2, x: i64, y: i64) -> (i64, i64) {
        let h = u.cell.h();
        let kx = (x - u.cell.dx.cx).abs();
        let ky = (y - u.cell.dy.cx).abs();
        let lo = (u.cell.dx.ct - h + kx).max(u.cell.dy.ct - h + ky) + 1;
        let hi = (u.cell.dx.ct + h - kx).min(u.cell.dy.ct + h - ky);
        (lo.max(self.cbox.t0), hi.min(self.cbox.t1 - 1))
    }

    /// Upper bound on values any ancestor can want back: the top two
    /// vertices of every pillar (side exposure beyond the clip edge
    /// points outside the dag; neighbor pillar ranges shift by at most
    /// one per step, so upward exposure is limited to the top two rows).
    fn outbound_cap(&self, u: &ClippedDomain2) -> usize {
        let mut count = 0usize;
        for (x, y) in self.pillars_direct(u) {
            let (lo, hi) = self.pillar_range(u, x, y);
            count += 2.min((hi - lo + 1) as usize);
        }
        count + 8
    }

    fn shape_key(&self, u: &ClippedDomain2) -> ShapeKey {
        let h = u.cell.h();
        let cl = h + 2;
        (
            h,
            u.cell.dy.ct - u.cell.dx.ct,
            u.cell.dx.cx.clamp(-cl, cl),
            (self.side - u.cell.dx.cx).clamp(-cl, cl),
            u.cell.dy.cx.clamp(-cl, cl),
            (self.side - u.cell.dy.cx).clamp(-cl, cl),
            u.cell.dx.ct.clamp(-cl, cl),
            (self.t_steps + 1 - u.cell.dx.ct).clamp(-cl, cl),
        )
    }

    /// The space function `S(U)` of Proposition 2, memoized per shape.
    pub fn space(&mut self, u: &ClippedDomain2) -> usize {
        let id = self.plan_of(u);
        self.plans.list[id as usize].space
    }

    /// The plan of `u`'s shape, compiled (with its children's) on first
    /// sight.
    fn plan_of(&mut self, u: &ClippedDomain2) -> u32 {
        let key = self.shape_key(u);
        if let Some(&id) = self.plans.ids.get(&key) {
            return id;
        }
        let plan = self.compile(u);
        let id = self.plans.list.len() as u32;
        self.plans.list.push(plan);
        self.plans.ids.insert(key, id);
        id
    }

    fn compile(&mut self, u: &ClippedDomain2) -> ShapePlan {
        let o = origin(u);
        let ko = self.key(o);
        let g_abs = self.gamma_direct(u);
        let pillars = if self.m > 1 {
            self.pillars_direct(u)
        } else {
            Vec::new()
        };
        let mut plan = ShapePlan {
            space: 0,
            zmax: 0,
            leaf: u.cell.h() <= self.leaf_h || u.cell.h() % 2 == 1,
            gamma: g_abs.iter().map(|&q| self.key(q) - ko).collect(),
            pillars: pillars.iter().map(|&(x, y)| (x - o.x, y - o.y)).collect(),
            kids: Vec::new(),
            sib_want: Vec::new(),
            sib_at: Vec::new(),
            pts: Vec::new(),
            pts_key: Vec::new(),
            operands: Vec::new(),
        };
        let st_u = pillars.len() * self.m;
        if plan.leaf {
            // Each time slice is a rectangle, so listing slices `t`, then
            // `x`, then `y` gives the points in sorted order and makes a
            // point's slot arithmetic.
            let (c, h) = (&u.cell, u.cell.h());
            let span = |r: (i64, i64)| (r.1 - r.0 + 1) as usize;
            let mut rows = Vec::new();
            let mut n_pts = 0;
            for t in c.dx.ct.max(c.dy.ct) - h + 1..=c.dx.ct.min(c.dy.ct) + h {
                if let Some(r) = self.slice(u, t) {
                    rows.push((t, r, n_pts));
                    n_pts += span(r[0]) * span(r[1]);
                }
            }
            let inside = |v: i64, r: (i64, i64)| r.0 <= v && v <= r.1;
            let slot = |q: Pt3| {
                let &(_, [xr, yr], base) = rows.iter().find(|r| r.0 == q.t)?;
                (inside(q.x, xr) && inside(q.y, yr))
                    .then(|| base + (q.x - xr.0) as usize * span(yr) + (q.y - yr.0) as usize)
            };
            let mut pts = Vec::with_capacity(n_pts);
            for &(t, [xr, yr], _) in &rows {
                for x in xr.0..=xr.1 {
                    pts.extend((yr.0..=yr.1).map(|y| Pt3::new(x, y, t)));
                }
            }
            plan.operands = pts
                .iter()
                .map(|p| {
                    let slots = p.preds().map(|q| {
                        if !self.in_dag(q) {
                            BOUNDARY
                        } else if let Some(j) = slot(q) {
                            j as u32
                        } else if let Ok(j) = g_abs.binary_search(&q) {
                            (n_pts + j) as u32
                        } else {
                            MISSING
                        }
                    });
                    let pillar = pillars.binary_search(&(p.x, p.y)).unwrap_or(0);
                    (slots, pillar as u32)
                })
                .collect();
            plan.space = n_pts + plan.gamma.len() + st_u;
            plan.pts = pts.iter().map(|&p| offset(p, o)).collect();
            plan.pts_key = pts.iter().map(|&p| self.key(p) - ko).collect();
            return plan;
        }
        // Children, their plans and (absolute) Γs.
        let kids: Vec<ClippedDomain2> = u
            .cell
            .children()
            .into_iter()
            .map(|c| ClippedDomain2::new(c, self.cbox))
            .filter(|c| c.points_count() > 0)
            .collect();
        let halves = split(&u.cell);
        let mut kid_keys = Vec::with_capacity(kids.len());
        let mut p_u = 0usize;
        for k in &kids {
            let id = self.plan_of(k);
            let kp = &self.plans.list[id as usize];
            plan.zmax = plan.zmax.max(kp.space);
            p_u += kp.gamma.len() + kp.pillars.len() * self.m;
            kid_keys.push((id, self.key(origin(k))));
            let ix = |axis: usize, d: &Diamond| {
                halves[axis].iter().position(|h| h == d).unwrap_or(0) as u8
            };
            plan.kids.push(([ix(0, &k.cell.dx), ix(1, &k.cell.dy)], id));
        }
        // Sibling wants: kid `i` parks every later-sibling Γ point it
        // computes or borrows — with `last(q)` the latest kid whose Γ
        // holds `q`, every `q` with `i < last(q)` in kid `i`'s Γ or
        // points.  All kid points and Γs lie in the cell's time band, a
        // contiguous key range, so `last` is a dense table over it.
        let gamma_of = |j: usize| {
            let (id, kko) = kid_keys[j];
            self.plans.list[id as usize]
                .gamma
                .iter()
                .map(move |&d| d + kko)
        };
        let (c, h) = (&u.cell, u.cell.h());
        let t_lo = (c.dx.ct.max(c.dy.ct) - h).max(0);
        let t_hi = (c.dx.ct.min(c.dy.ct) + h).min(self.t_steps);
        let k_lo = self.key(Pt3::new(0, 0, t_lo));
        let k_hi = self.key(Pt3::new(0, 0, t_hi + 1));
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
        plan.space = plan.zmax + p_u + plan.gamma.len() + self.outbound_cap(u) + st_u;
        plan
    }

    #[inline]
    fn pillar_index(&self, (x, y): (i64, i64)) -> usize {
        (y * self.side + x) as usize
    }

    fn state_get(&self, xy: (i64, i64)) -> Option<usize> {
        self.state
            .get(self.pillar_index(xy))
            .copied()
            .filter(|&a| a != NO_STATE)
    }

    fn move_state(
        &mut self,
        xy: (i64, i64),
        zone: &mut ZoneAlloc,
        from: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        let old = self.state_get(xy).ok_or(SimError::Internal {
            what: "moved state block not live",
        })?;
        let new = zone.alloc_block(self.m);
        for c in 0..self.m {
            self.ram.relocate_via(&self.table, old + c, new + c);
        }
        from.free_block_if_owned(old, self.m);
        let i = self.pillar_index(xy);
        self.state[i] = new;
        Ok(())
    }

    /// Execute `U`, with all inputs parked in `parent_zone` at the
    /// addresses listed in the sorted directory `parent_vals`; park the
    /// values in `want` (a **sorted, deduplicated** point list — parking
    /// order follows it, so charges stay deterministic) and all pillar
    /// states back into `parent_zone`, pushing the parked address of each
    /// `want` entry onto `out_addrs` in `want` order.
    ///
    /// Bookkeeping invariant violations surface as
    /// [`SimError::Internal`] rather than panicking, so a chaos run can
    /// degrade gracefully.
    pub fn exec(
        &mut self,
        u: &ClippedDomain2,
        want: &[Pt3],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Pt3, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let want: Vec<i64> = want.iter().map(|&q| self.key(q)).collect();
        let vals: Vals<i64> = parent_vals.iter().map(|&(q, a)| (self.key(q), a)).collect();
        let id = self.plan_of(u);
        self.exec_at(u, id, &want, parent_zone, &vals, out_addrs, 0)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_at(
        &mut self,
        u: &ClippedDomain2,
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
        if self.plans.list[id as usize].leaf {
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
        u: &ClippedDomain2,
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
        let plan = &self.plans.list[id as usize];
        let mut zone = ZoneAlloc::new(plan.zmax, plan.space - plan.zmax);
        b.g_u.clear();
        b.g_u.extend(plan.gamma.iter().map(|&d| d + ko));
        b.pillars.clear();
        b.pillars
            .extend(plan.pillars.iter().map(|&(x, y)| (x + o.x, y + o.y)));
        let halves = split(&u.cell);
        b.kids.clear();
        b.kids.extend(
            plan.kids
                .iter()
                .map(|&(ix, kid)| (ClippedDomain2::new(kid_cell(&halves, ix), self.cbox), kid)),
        );
        let nk = b.kids.len();
        if b.kid_gammas.len() < nk {
            b.kid_gammas.resize_with(nk, Vec::new);
        }
        for (g, (k, kid)) in b.kid_gammas.iter_mut().zip(&b.kids) {
            let kko = self.key(origin(k));
            g.clear();
            g.extend(
                self.plans.list[*kid as usize]
                    .gamma
                    .iter()
                    .map(|&d| d + kko),
            );
        }

        // Ingest Γ (sorted: `zone_list` is born sorted), then pillar
        // states.
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
        for i in 0..b.pillars.len() {
            self.move_state(b.pillars[i], &mut zone, parent_zone)?;
        }

        // Children, in topological order.
        for i in 0..nk {
            let (kid, kid_id) = b.kids[i];
            b.want_kid.clear();
            let plan = &self.plans.list[id as usize];
            let sib = &plan.sib_want[plan.sib_at[i] as usize..plan.sib_at[i + 1] as usize];
            b.want_kid.extend(sib.iter().map(|&d| d + ko));
            // The parent's wants the kid executes or borrows.  A leaf
            // kid looks its few points and Γ up in `want`; a larger kid
            // scans the slices of `want` within its reach — per time
            // step, the `x` band of its x tile.
            b.wtmp.clear();
            let kp = &self.plans.list[kid_id as usize];
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
                let t_lo = c.dx.ct.max(c.dy.ct) - h;
                let t_hi = c.dx.ct.min(c.dy.ct) + h;
                let (x_lo, x_hi) = ((c.dx.cx - h).max(0), (c.dx.cx + h).min(s - 1));
                let mut at = 0;
                for t in t_lo..=t_hi {
                    let k_lo = self.key(Pt3::new(x_lo, 0, t));
                    let k_hi = self.key(Pt3::new(x_hi, s - 1, t));
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

        // Park what the parent wants (sorted), then drop the rest —
        // only this level's zone sees the drops, and it allocates
        // nothing more.
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
        for i in 0..b.pillars.len() {
            self.move_state(b.pillars[i], parent_zone, &mut zone)?;
        }
        Ok(())
    }

    /// Naive execution of an executable cell from its compiled plan:
    /// ingest Γ and pillar states, run the points in time order with
    /// precomputed operand slots, park.
    fn exec_leaf(
        &mut self,
        o: Pt3,
        id: u32,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let ko = self.key(o);
        let plan = &self.plans.list[id as usize];
        // Scratch layout: [0, |U|) value slots, then Γ slots, then
        // pillar state blocks.
        let (n_pts, m) = (plan.pts.len(), self.m);
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
        let base0 = n_pts + plan.gamma.len();
        for (i, &(x, y)) in plan.pillars.iter().enumerate() {
            let xy = (x + o.x, y + o.y);
            let old = self.state_get(xy).ok_or(SimError::Internal {
                what: "state block not live at leaf ingest",
            })?;
            for c in 0..m {
                self.ram
                    .relocate_via(&self.table, old + c, base0 + i * m + c);
            }
            parent_zone.free_block_if_owned(old, m);
        }

        let bd = self.prog.boundary();
        for (i, (&d, &(slots, pillar))) in plan.pts.iter().zip(&plan.operands).enumerate() {
            let mut w = [bd; 5];
            for (w, &s) in w.iter_mut().zip(&slots) {
                if s == MISSING {
                    return Err(SimError::Internal {
                        what: "operand unavailable in leaf",
                    });
                }
                if s != BOUNDARY {
                    *w = self.ram.read_via(&self.table, s as usize);
                }
            }
            let [prev, west, east, south, north] = w;
            let p = translate(d, o);
            let (x, y) = (p.x as usize, p.y as usize);
            let st = base0 + pillar as usize * m;
            let own = if m > 1 {
                let c = self.prog.cell(x, y, p.t);
                self.ram.read_via(&self.table, st + c)
            } else {
                prev
            };
            let out = self
                .prog
                .delta(x, y, p.t, own, prev, west, east, south, north);
            self.ram.compute();
            if m > 1 {
                let c = self.prog.cell(x, y, p.t);
                self.ram.write_via(&self.table, st + c, out);
            }
            self.ram.write_via(&self.table, i, out);
        }

        // Park wanted values (sorted: deterministic addresses), then
        // pillar states.
        for &q in want {
            let old = leaf_slot(plan, q - ko).ok_or(SimError::Internal {
                what: "wanted value not present in leaf",
            })?;
            let new = parent_zone.alloc();
            self.ram.relocate_via(&self.table, old, new);
            out_addrs.push(new);
        }
        for (i, &(x, y)) in plan.pillars.iter().enumerate() {
            let new = parent_zone.alloc_block(m);
            for c in 0..m {
                self.ram
                    .relocate_via(&self.table, base0 + i * m + c, new + c);
            }
            let k = ((y + o.y) * self.side + x + o.x) as usize;
            self.state[k] = new;
        }
        Ok(())
    }

    /// Seed a pillar's state-block base address (multiprocessor engine:
    /// staging a cell's pillar states into this processor's memory —
    /// values are passed positionally via [`exec`](Self::exec)'s
    /// `parent_vals` directory instead).
    pub fn seed_state(&mut self, xy: (i64, i64), addr: usize) {
        let i = self.pillar_index(xy);
        self.state[i] = addr;
    }

    /// Address of a pillar's state block, if present.
    pub fn state_addr(&self, xy: (i64, i64)) -> Option<usize> {
        self.state_get(xy)
    }

    /// Drop all seeded pillar states (between cell executions).
    pub fn clear_seeds(&mut self) {
        self.state.fill(NO_STATE);
    }

    /// Run the whole simulation; returns `(final_mem, final_values)` in
    /// the guest's node-major layout (node index `y·side + x`).
    pub fn run(&mut self, init: &[Word]) -> Result<(Vec<Word>, Vec<Word>), SimError> {
        let side = self.side as usize;
        let n = side * side;
        let m = self.m;
        assert_eq!(init.len(), n * m);
        if self.t_steps == 0 {
            let values = (0..n)
                .map(|v| init[v * m + self.prog.cell(v % side, v / side, 0)])
                .collect();
            return Ok((init.to_vec(), values));
        }

        let h_top = ((self.side + self.t_steps + 4) as u64).next_power_of_two() as i64;
        let top = ClippedDomain2::new(
            Domain2::octahedron(self.side / 2, self.side / 2, self.t_steps / 2 + 1, h_top),
            self.cbox,
        );
        let s_top = self.space(&top);
        let g_top = self.gamma(&top).len();
        let zone_cap = g_top + m * n + n + 64;
        let mut driver_zone = ZoneAlloc::new(s_top, zone_cap);
        let image = s_top + zone_cap;
        self.cover(image + n * m);

        for (i, w) in init.iter().enumerate() {
            self.ram.poke(image + i, *w);
        }
        // The input plane's value directory, straight from the image
        // layout; `(t, x, y)` order is x-major.
        let mut driver_vals: Vals<i64> = Vec::with_capacity(n);
        for x in 0..side {
            for y in 0..side {
                let v = y * side + x;
                let k = self.key(Pt3::new(x as i64, y as i64, 0));
                driver_vals.push((k, image + v * m + self.prog.cell(x, y, 0)));
                if m > 1 {
                    self.seed_state((x as i64, y as i64), image + v * m);
                }
            }
        }

        // Want the final plane back (sorted: x-major), so the final
        // value of node (x, y) comes back at `out_addrs[x·side + y]`.
        let want: Vec<i64> = (0..self.side)
            .flat_map(|x| (0..self.side).map(move |y| (x, y)))
            .map(|(x, y)| self.key(Pt3::new(x, y, self.t_steps)))
            .collect();
        let mut out_addrs = Vec::with_capacity(n);
        let id = self.plan_of(&top);
        self.exec_at(
            &top,
            id,
            &want,
            &mut driver_zone,
            &driver_vals,
            &mut out_addrs,
            0,
        )?;
        if out_addrs.len() != n {
            return Err(SimError::Internal {
                what: "final value not live after top-level exec",
            });
        }

        let mut values = vec![0 as Word; n];
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                let addr = out_addrs[x * side + y];
                values[v] = self.ram.peek(addr);
                if m == 1 {
                    self.ram.relocate_via(&self.table, addr, image + v);
                }
            }
        }
        if m > 1 {
            for y in 0..side {
                for x in 0..side {
                    let v = y * side + x;
                    let old = self
                        .state_get((x as i64, y as i64))
                        .ok_or(SimError::Internal {
                            what: "final state block not live after top-level exec",
                        })?;
                    let dst = image + v * m;
                    if old != dst {
                        for c in 0..m {
                            self.ram.relocate_via(&self.table, old + c, dst + c);
                        }
                    }
                }
            }
        }
        let mem = (0..n * m).map(|i| self.ram.peek(image + i)).collect();
        Ok((mem, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_geometry::CellKind;
    use bsmp_machine::run_mesh;
    use bsmp_workloads::{inputs, PlaneWave, VonNeumannLife};

    /// Pillars straight from the executed points.
    fn pillars_from_points(u: &ClippedDomain2) -> Vec<(i64, i64)> {
        let mut v = Vec::new();
        u.for_each_point(|p| v.push((p.x, p.y)));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Γ straight from the definition: every dag predecessor of an
    /// executed point that is not itself executed.
    fn gamma_reference<P: MeshProgram>(ex: &CellExec<'_, P>, u: &ClippedDomain2) -> Vec<Pt3> {
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

    /// Run one small dnc2 simulation, check it against the guest, and
    /// check every visited cell's plan — Γ, pillars, children or sorted
    /// leaf points — against the direct computations.  Returns the
    /// visited cells.
    fn check_memos(prog: &impl MeshProgram, side: i64, steps: i64) -> Vec<ClippedDomain2> {
        let m = prog.m();
        let spec = MachineSpec::new(2, (side * side) as u64, 1, m as u64);
        let init = inputs::random_words(7 + side as u64, (side * side) as usize * m, 50);
        let mut ex = CellExec::new(&spec, prog, steps, (m as i64 / 2).max(1));
        let (mem, values) = ex.run(&init).unwrap();
        let guest = run_mesh(&spec, prog, &init, steps);
        assert_eq!((mem, values), (guest.mem, guest.values));
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
            let o = origin(u);
            let id = ex.plan_of(u);
            let plan = &ex.plans.list[id as usize];
            if m > 1 {
                let pillars: Vec<(i64, i64)> = plan
                    .pillars
                    .iter()
                    .map(|&(x, y)| (x + o.x, y + o.y))
                    .collect();
                assert_eq!(pillars, pillars_from_points(u), "pillars of {u:?}");
            }
            if plan.leaf {
                let mut pts = u.points();
                pts.sort_unstable();
                let planned: Vec<Pt3> = plan.pts.iter().map(|&d| translate(d, o)).collect();
                assert_eq!(planned, pts, "leaf points of {u:?}");
            } else {
                let kids: Vec<Domain2> = u.children().iter().map(|k| k.cell).collect();
                let halves = split(&u.cell);
                let planned: Vec<Domain2> = plan
                    .kids
                    .iter()
                    .map(|&(ix, _)| kid_cell(&halves, ix))
                    .collect();
                assert_eq!(planned, kids, "children of {u:?}");
            }
        }
        visited
    }

    #[test]
    fn memoized_gamma_matches_direct_on_every_visited_cell() {
        let mut kinds = [0usize; 3];
        // Walls touched by some visited cell: x = 0, x = side − 1,
        // y = 0, y = side − 1, the input plane (t = 1 executes from it)
        // and the final plane t = T.
        let mut walls = [false; 6];
        let mut runs = Vec::new();
        for side in 1..=5 {
            for steps in [1, 2, 5] {
                runs.push((side, steps));
            }
        }
        runs.push((8, 9));
        for (side, steps) in runs {
            let mut cells = check_memos(&VonNeumannLife::fredkin(), side, steps);
            cells.extend(check_memos(&PlaneWave::new(4), side, steps));
            for u in &cells {
                kinds[match u.cell.kind() {
                    CellKind::Octahedron => 0,
                    CellKind::TetraXBottom => 1,
                    CellKind::TetraYBottom => 2,
                }] += 1;
                u.for_each_point(|p| {
                    let hits = [
                        p.x == 0,
                        p.x == side - 1,
                        p.y == 0,
                        p.y == side - 1,
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
            kinds.iter().all(|&k| k > 0),
            "cell kinds visited: {kinds:?}"
        );
        assert!(walls.iter().all(|&w| w), "walls touched: {walls:?}");
    }
}
