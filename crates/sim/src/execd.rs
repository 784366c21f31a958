//! The Proposition-2 executor over product-of-diamond cells, generic
//! over the number `D` of mesh axes: the octahedra/tetrahedra of
//! Theorem 5 (`D = 2`, run by [`crate::dnc2`] and [`crate::multi2`]) and
//! Section 6's 4-D honeycomb cells (`D = 3`, run by [`crate::dnc3`]).
//!
//! A cell is `D` per-axis diamonds of one radius (`[Diamond; D]`, see
//! [`ProductCell`]).  Its children are products of per-axis children, in
//! the order [`Domain2::children`] / [`Domain3::children`] give them (6
//! octahedra + 8 tetrahedra or 4 tetrahedra + 1 octahedron at `D = 2`,
//! up to 46 cells at `D = 3`).  The executor follows [`crate::exec1`]'s
//! memory discipline: the computed box `[0, side)^D × [1, T]` is wrapped
//! in one big clipped symmetric cell, and cells of radius `≤ leaf_h` (or
//! odd) execute naively.  With `m > 1`, node-column state blocks become
//! per-*pillar* (mesh position) blocks.  The H-RAM's access function is
//! the caller's: the mesh spec's at `D = 2`, `f(x) = (x/m)^{1/3}` at
//! `D = 3`, where the separator's `γ = 3/4` meets Proposition 3's
//! admissibility with equality (experiment E13).
//!
//! Host side, everything shape-determined about a cell — Γ, its pillars,
//! its children, the sibling part of each child's `want`, `S(U)`, and a
//! leaf's sorted points with their operand slots — is compiled once per
//! shape into a `ShapePlan`; the recursion threads a sorted value
//! directory down instead of a global map, reuses per-depth buffers, and
//! runs leaves from precomputed operand slots without any hashing.

use std::array::from_fn;
use std::marker::PhantomData;

use bsmp_geometry::{Diamond, Domain2, Domain3, Pt2};
use bsmp_hram::{AccessFn, CostTable, Hram, Word};
use bsmp_machine::{FxHashMap, MeshProgram, VolumeProgram};

use crate::error::SimError;
use crate::sorted::{insert_sorted, merge_vals, remove_sorted_vals, vals_get, Vals};
use crate::zone::ZoneAlloc;

/// A dag vertex: time step, then the `D` mesh coordinates.  Tuples order
/// like `Pt3`/`Pt4` (time-major), and like their directory keys.
pub type Point<const D: usize> = (i64, [i64; D]);

/// A honeycomb cell as the product of `D` per-axis diamonds of one
/// radius.  The geometry crate stays the one source of the refinement
/// and its topological order.
pub trait ProductCell<const D: usize>: Copy {
    fn axes(&self) -> [Diamond; D];
    fn from_axes(axes: [Diamond; D]) -> Self;
    /// The children, in topological order.
    fn children(&self) -> Vec<Self>;
}

impl ProductCell<2> for Domain2 {
    fn axes(&self) -> [Diamond; 2] {
        [self.dx, self.dy]
    }
    fn from_axes([dx, dy]: [Diamond; 2]) -> Self {
        Domain2 { dx, dy }
    }
    fn children(&self) -> Vec<Self> {
        Domain2::children(self)
    }
}

impl ProductCell<3> for Domain3 {
    fn axes(&self) -> [Diamond; 3] {
        [self.dx, self.dy, self.dz]
    }
    fn from_axes([dx, dy, dz]: [Diamond; 3]) -> Self {
        Domain3 { dx, dy, dz }
    }
    fn children(&self) -> Vec<Self> {
        Domain3::children(self)
    }
}

/// A guest program of the `D`-dimensional mesh, as the executor calls it.
pub trait Guest<const D: usize> {
    fn m(&self) -> usize;
    fn boundary(&self) -> Word;
    fn cell(&self, x: [usize; D], t: i64) -> usize;
    /// `nb[i]` holds the neighbours at `x_i − 1` and `x_i + 1`.
    fn delta(&self, x: [usize; D], t: i64, own: Word, prev: Word, nb: [[Word; 2]; D]) -> Word;
}

impl<P: MeshProgram> Guest<2> for P {
    fn m(&self) -> usize {
        MeshProgram::m(self)
    }
    fn boundary(&self) -> Word {
        MeshProgram::boundary(self)
    }
    fn cell(&self, [x, y]: [usize; 2], t: i64) -> usize {
        MeshProgram::cell(self, x, y, t)
    }
    fn delta(&self, [x, y]: [usize; 2], t: i64, own: Word, prev: Word, nb: [[Word; 2]; 2]) -> Word {
        let [[west, east], [south, north]] = nb;
        MeshProgram::delta(self, x, y, t, own, prev, west, east, south, north)
    }
}

impl<P: VolumeProgram> Guest<3> for P {
    fn m(&self) -> usize {
        VolumeProgram::m(self)
    }
    fn boundary(&self) -> Word {
        VolumeProgram::boundary(self)
    }
    fn cell(&self, [x, y, z]: [usize; 3], t: i64) -> usize {
        VolumeProgram::cell(self, x, y, z, t)
    }
    fn delta(&self, x: [usize; 3], t: i64, own: Word, prev: Word, nb: [[Word; 2]; 3]) -> Word {
        let [[a, b], [c, d], [e, f]] = nb;
        VolumeProgram::delta(self, x[0], x[1], x[2], t, own, prev, [a, b, c, d, e, f])
    }
}

/// Memo key: radius, then per axis the centre-time offset from axis 0
/// and the clamped distances to its two dag walls, then the clamped
/// distances to the two time walls.  A cell and its Γ lie within `h + 1`
/// of its projection centres, so beyond `h + 2` a wall cannot influence
/// anything the plan holds.
type ShapeKey<const D: usize> = (i64, [(i64, [i64; 2]); D], [i64; 2]);

/// Absent entry of the dense pillar-state table.
const NO_STATE: usize = usize::MAX;
/// Leaf operand slot marker: the operand lies outside the dag and reads
/// the program's boundary word.
const BOUNDARY: u32 = u32::MAX;
/// Leaf operand slot marker: an in-dag operand that is neither executed
/// in the leaf nor in its Γ (a bookkeeping bug, reported at run time).
const MISSING: u32 = u32::MAX - 1;

/// A leaf point's operand scratch slots (or [`BOUNDARY`] / [`MISSING`]),
/// in read order — `prev`, then `x_i ∓ 1` per axis — and the index of
/// its pillar in the plan's `pillars` (`m > 1`).
struct Operands<const D: usize> {
    prev: u32,
    nb: [[u32; 2]; D],
    pillar: u32,
}

/// Everything shape-determined about one cell, relative to the cell
/// origin (see [`origin`]).  Point sets are kept as sorted *keys* (see
/// [`CellExec::key`]) less the origin's key: the key is linear in the
/// coordinates and orders dag points like [`Point`], so translating a
/// plan is one addition per point and every comparison is one integer
/// compare.
#[derive(Default)]
struct ShapePlan<const D: usize> {
    /// `S(U)` of Proposition 2.
    space: usize,
    /// `max_i S(child_i)` (0 for leaves).
    zmax: usize,
    /// Executed naively (radius `≤ leaf_h` or odd).
    leaf: bool,
    /// Γ, sorted; ingest follows this order.
    gamma: Vec<i64>,
    /// Pillars with an executed vertex, sorted (only `m > 1`).
    pillars: Vec<[i64; D]>,
    /// Non-empty children in topological order: which per-axis diamond
    /// child (bottom, left, right, top) each one combines, and its plan.
    kids: Vec<([u8; D], u32)>,
    /// Per child: the shape-determined part of its `want` (later-sibling
    /// Γ points it computes or borrows), sorted — child `i`'s list is
    /// `sib_want[sib_at[i]..sib_at[i + 1]]`.
    sib_want: Vec<i64>,
    sib_at: Vec<u32>,
    /// Leaves: executed points, sorted — the execution order — as
    /// coordinate offsets and as keys.
    pts: Vec<Point<D>>,
    pts_key: Vec<i64>,
    /// Leaves: per point, its operand slots.
    operands: Vec<Operands<D>>,
}

/// The shape plans of one run, indexed by shape key.  Pure geometry of
/// the run's `(side, T, m, leaf_h)`, so the per-processor executors of
/// one multiprocessor run can pass one set between them (see
/// [`CellExec::swap_plans`]).
#[derive(Default)]
pub struct CellPlans<const D: usize> {
    list: Vec<ShapePlan<D>>,
    ids: FxHashMap<ShapeKey<D>, u32>,
}

/// Per-depth scratch buffers for [`CellExec::exec_node`]: every cell
/// visited at the same recursion depth reuses one set, so the
/// steady-state recursion performs no per-node heap allocation.
#[derive(Default)]
struct LevelBufs<const D: usize> {
    kids: Vec<([Diamond; D], u32)>,
    g_u: Vec<i64>,
    zone_list: Vals<i64>,
    scratch: Vec<i64>,
    vscratch: Vals<i64>,
    wtmp: Vec<i64>,
    kid_addrs: Vec<usize>,
    want_kid: Vec<i64>,
    kid_gammas: Vec<Vec<i64>>,
    pillars: Vec<[i64; D]>,
}

/// The recursive executor over cells `C` of the `D`-dimensional mesh.
pub struct CellExec<'a, C, P, const D: usize> {
    prog: &'a P,
    side: i64,
    t_steps: i64,
    m: usize,
    pub ram: Hram,
    /// Pillar (mesh node `x₀ + x₁·side + …`) → state block base, or
    /// [`NO_STATE`] (only `m > 1`).
    state: Vec<usize>,
    /// Per-run shape plans (see [`CellPlans`]).
    plans: CellPlans<D>,
    /// Per-recursion-depth scratch buffers (see [`LevelBufs`]).
    levels: Vec<LevelBufs<D>>,
    leaf_h: i64,
    /// Plan-time charge table (see `DiamondExec::table`): reads, writes
    /// and relocations take their `1 + f(x)` from here instead of a root
    /// per access, counted in `table_hits`, with scalar fallback above
    /// the table.  It covers the leaf scratch band from the start, and
    /// every address of the run once memory is laid out (see
    /// [`cover`](Self::cover)).  Meters stay bit-identical.
    table: CostTable,
    /// Every cell `exec` visited, in visit order (tests only).
    #[cfg(test)]
    visited: Vec<[Diamond; D]>,
    cell: PhantomData<fn() -> C>,
}

/// The point all of a cell's plan offsets are taken from.
#[inline]
fn origin<const D: usize>(u: &[Diamond; D]) -> Point<D> {
    (u[0].ct, u.map(|d| d.cx))
}

#[inline]
fn add<const D: usize>(a: [i64; D], b: [i64; D]) -> [i64; D] {
    from_fn(|i| a[i] + b[i])
}

/// The time band `(max ct − h, min ct + h)` of a cell: its points have
/// `t` in `(lo, hi]`.
fn band<const D: usize>(u: &[Diamond; D]) -> (i64, i64) {
    let h = u[0].h;
    let lo = u.iter().map(|d| d.ct).max().unwrap_or(0) - h;
    let hi = u.iter().map(|d| d.ct).min().unwrap_or(0) + h;
    (lo, hi)
}

/// Visit every `x` of the box `lo..=hi` (per axis) in ascending order,
/// the last axis fastest.
#[inline]
fn for_each_in<const D: usize>(lo: [i64; D], hi: [i64; D], mut f: impl FnMut([i64; D])) {
    if (0..D).any(|i| lo[i] > hi[i]) {
        return;
    }
    let mut x = lo;
    loop {
        for z in lo[D - 1]..=hi[D - 1] {
            x[D - 1] = z;
            f(x);
        }
        let mut i = D - 1;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if x[i] < hi[i] {
                x[i] += 1;
                break;
            }
            x[i] = lo[i];
        }
    }
}

/// Scratch slot of key offset `d` in a leaf plan: point index, else Γ
/// slot.
#[inline]
fn leaf_slot<const D: usize>(plan: &ShapePlan<D>, d: i64) -> Option<usize> {
    match plan.pts_key.binary_search(&d) {
        Ok(j) => Some(j),
        Err(_) => plan
            .gamma
            .binary_search(&d)
            .ok()
            .map(|j| plan.pts.len() + j),
    }
}

/// Read one leaf operand from its scratch slot (`None`: [`MISSING`]).
#[inline]
fn operand(ram: &mut Hram, table: &CostTable, bd: Word, s: u32) -> Option<Word> {
    match s {
        MISSING => None,
        BOUNDARY => Some(bd),
        s => Some(ram.read_via(table, s as usize)),
    }
}

impl<'a, C: ProductCell<D>, P: Guest<D>, const D: usize> CellExec<'a, C, P, D> {
    /// A uniprocessor executor for a `T`-step run of `prog` on the mesh
    /// of side `side`, metered under `access`.
    pub fn new(side: i64, access: AccessFn, prog: &'a P, t_steps: i64, leaf_h: i64) -> Self {
        let m = prog.m();
        let leaf_h = leaf_h.max(1);
        // Leaf scratch bound: a radius-h cell has ≤ w^(D+1) points
        // (w = 2h + 1), O(D·w^D) preboundary slots (budgeted at
        // 2^(D+1)·w^D) and ≤ m·w^D state words.  Capped so degenerate
        // leaf choices cannot balloon the table.
        let w = 2 * leaf_h as usize + 1;
        let wd = w.pow(D as u32);
        let leaf_span = (w * wd + ((1 << (D + 1)) + m) * wd + 16).min(1 << 20);
        let state = if m > 1 {
            vec![NO_STATE; side.pow(D as u32) as usize]
        } else {
            Vec::new()
        };
        CellExec {
            prog,
            side,
            t_steps,
            m,
            ram: Hram::new(access, 0),
            state,
            plans: CellPlans::default(),
            levels: Vec::new(),
            leaf_h,
            table: CostTable::new(access, leaf_span),
            #[cfg(test)]
            visited: Vec::new(),
            cell: PhantomData,
        }
    }

    /// Exchange this executor's shape plans with `other` — executors of
    /// the same `(side, T, m, leaf_h)` can share one set.
    pub fn swap_plans(&mut self, other: &mut CellPlans<D>) {
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

    /// The directory key of `(t, x)`: its index in `(t, x₀, x₁, …)`-major
    /// order over the dag box.  Linear in the coordinates, and ordered
    /// like [`Point`] on dag points.
    #[inline]
    fn key(&self, (t, x): Point<D>) -> i64 {
        x.iter().fold(t, |k, &xi| k * self.side + xi)
    }

    /// The dag point of key `k` (inverse of [`key`](Self::key)).
    fn point(&self, mut k: i64) -> Point<D> {
        let mut x = [0; D];
        for xi in x.iter_mut().rev() {
            *xi = k.rem_euclid(self.side);
            k = k.div_euclid(self.side);
        }
        (k, x)
    }

    /// Index of mesh node `x` in the guest's node-major layout.
    #[inline]
    fn node(&self, x: [i64; D]) -> usize {
        x.iter().rev().fold(0, |k, &xi| k * self.side + xi) as usize
    }

    #[inline]
    fn in_exec(&self, u: &[Diamond; D], (t, x): Point<D>) -> bool {
        1 <= t
            && t <= self.t_steps
            && (0..D).all(|i| 0 <= x[i] && x[i] < self.side && u[i].contains(Pt2::new(x[i], t)))
    }

    #[inline]
    fn in_dag(&self, (t, x): Point<D>) -> bool {
        0 <= t && t <= self.t_steps && x.iter().all(|&xi| 0 <= xi && xi < self.side)
    }

    /// The executor's preboundary: dag vertices outside `U` that are
    /// predecessors of a vertex of `U`, sorted (from the shape plan).
    pub fn gamma(&mut self, u: &C) -> Vec<Point<D>> {
        let u = u.axes();
        let id = self.plan_of(&u);
        let ko = self.key(origin(&u));
        self.plans.list[id as usize]
            .gamma
            .iter()
            .map(|&d| self.point(d + ko))
            .collect()
    }

    /// Mesh pillars with an executed vertex in `U`, sorted (from the
    /// shape plan, which records them only for `m > 1`).
    pub fn pillars(&mut self, u: &C) -> Vec<[i64; D]> {
        let u = u.axes();
        let id = self.plan_of(&u);
        let o = origin(&u).1;
        self.plans.list[id as usize]
            .pillars
            .iter()
            .map(|&d| add(d, o))
            .collect()
    }

    /// The executed box of time slice `t` of `u` (inclusive range per
    /// axis), or `None` when the slice is empty.
    fn slice(&self, u: &[Diamond; D], t: i64) -> Option<[(i64, i64); D]> {
        if t < 1 || t > self.t_steps {
            return None;
        }
        let mut r = [(0, 0); D];
        for (r, d) in r.iter_mut().zip(u) {
            let (a, b) = d.row_range(t)?;
            let (a, b) = (a.max(0), b.min(self.side - 1));
            if a > b {
                return None;
            }
            *r = (a, b);
        }
        Some(r)
    }

    /// Visit the executed points of `u` slice by slice, in sorted order.
    fn for_each_point(&self, u: &[Diamond; D], mut f: impl FnMut(Point<D>)) {
        let (lo, hi) = band(u);
        for t in lo + 1..=hi {
            if let Some(r) = self.slice(u, t) {
                for_each_in(r.map(|r| r.0), r.map(|r| r.1), |x| f((t, x)));
            }
        }
    }

    /// Γ (as keys) computed slice by slice, already sorted: the
    /// predecessors of slice `t + 1` (its box widened by one along one
    /// axis at a time) that lie in the dag but not in slice `t`.
    /// Output-sensitive — it never enumerates the cell's interior.
    fn gamma_direct(&self, u: &[Diamond; D]) -> Vec<i64> {
        let (t_lo, t_hi) = band(u);
        let k = self.side - 1;
        let inside = |v: i64, r: (i64, i64)| r.0 <= v && v <= r.1;
        let mut out = Vec::new();
        for t in t_lo.max(0)..t_hi {
            let Some(b) = self.slice(u, t + 1) else {
                continue;
            };
            let own = self.slice(u, t);
            // Rows along the last axis: the leading axes run over the
            // widened box; a row widens too when no leading axis left
            // the box, and is dropped when two did.
            let lo = from_fn(|i| if i + 1 < D { (b[i].0 - 1).max(0) } else { 0 });
            let hi = from_fn(|i| if i + 1 < D { (b[i].1 + 1).min(k) } else { 0 });
            for_each_in(lo, hi, |mut x| {
                let lead = 0..D - 1;
                let outside = lead.clone().filter(|&i| !inside(x[i], b[i])).count();
                if outside > 1 {
                    return;
                }
                let w = (outside == 0) as i64;
                let (z0, z1) = ((b[D - 1].0 - w).max(0), (b[D - 1].1 + w).min(k));
                // Minus the executed run of slice `t` in this row.
                let (e0, e1) = match own {
                    Some(o) if lead.clone().all(|i| inside(x[i], o[i])) => o[D - 1],
                    _ => (z1 + 1, z1),
                };
                for z in (z0..=z1).filter(|z| !(e0..=e1).contains(z)) {
                    x[D - 1] = z;
                    out.push(self.key((t, x)));
                }
            });
        }
        out
    }

    /// Visit each pillar (mesh position) with an executed vertex in `u`,
    /// sorted, with the length of its executed `t`-range — the
    /// intersection of its per-axis tile columns with the clip, so no
    /// point is enumerated.
    fn for_each_pillar(&self, u: &[Diamond; D], mut f: impl FnMut([i64; D], i64)) {
        let lo = u.map(|d| (d.cx - d.h + 1).max(0));
        let hi = u.map(|d| (d.cx + d.h - 1).min(self.side - 1));
        for_each_in(lo, hi, |x| {
            let (mut t0, mut t1) = (1, self.t_steps);
            for (d, &xi) in u.iter().zip(&x) {
                let k = (xi - d.cx).abs();
                t0 = t0.max(d.ct - d.h + k + 1);
                t1 = t1.min(d.ct + d.h - k);
            }
            if t0 <= t1 {
                f(x, t1 - t0 + 1);
            }
        });
    }

    /// Upper bound on values any ancestor can want back: the top two
    /// vertices of every pillar (side exposure beyond the clip edge
    /// points outside the dag; neighbor pillar ranges shift by at most
    /// one per step, so upward exposure is limited to the top two rows),
    /// plus `2^(D+1)`.
    fn outbound_cap(&self, u: &[Diamond; D]) -> usize {
        let mut count = 0;
        self.for_each_pillar(u, |_, len| count += 2.min(len as usize));
        count + (1 << (D + 1))
    }

    fn shape_key(&self, u: &[Diamond; D]) -> ShapeKey<D> {
        let (h, ct) = (u[0].h, u[0].ct);
        let walls = |c: i64, end: i64| [c.clamp(-h - 2, h + 2), (end - c).clamp(-h - 2, h + 2)];
        let axes = u.map(|d| (d.ct - ct, walls(d.cx, self.side)));
        (h, axes, walls(ct, self.t_steps + 1))
    }

    /// The space function `S(U)` of Proposition 2, memoized per shape.
    pub fn space(&mut self, u: &C) -> usize {
        let id = self.plan_of(&u.axes());
        self.plans.list[id as usize].space
    }

    /// The plan of `u`'s shape, compiled (with its children's) on first
    /// sight.
    fn plan_of(&mut self, u: &[Diamond; D]) -> u32 {
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

    fn compile(&mut self, u: &[Diamond; D]) -> ShapePlan<D> {
        let (to, xo) = origin(u);
        let ko = self.key((to, xo));
        let g_abs = self.gamma_direct(u);
        let mut pillars = Vec::new();
        if self.m > 1 {
            self.for_each_pillar(u, |x, _| pillars.push(x));
        }
        let h = u[0].h;
        let mut plan = ShapePlan {
            leaf: h <= self.leaf_h || h % 2 == 1,
            gamma: g_abs.iter().map(|&q| q - ko).collect(),
            pillars: pillars.iter().map(|x| from_fn(|i| x[i] - xo[i])).collect(),
            ..ShapePlan::default()
        };
        let st_u = pillars.len() * self.m;
        if plan.leaf {
            // Each time slice is a box, so listing slices by `t`, then
            // `x₀, x₁, …` gives the points in sorted order and makes a
            // point's slot arithmetic.
            let (t_lo, t_hi) = band(u);
            let mut rows = Vec::new();
            let mut n_pts = 0;
            for t in t_lo + 1..=t_hi {
                if let Some(r) = self.slice(u, t) {
                    rows.push((t, r, n_pts));
                    n_pts += r
                        .iter()
                        .map(|r| (r.1 - r.0 + 1) as usize)
                        .product::<usize>();
                }
            }
            let slot = |(t, x): Point<D>| {
                let &(_, r, base) = rows.iter().find(|r| r.0 == t)?;
                let mut j = 0;
                for (&xi, &(a, b)) in x.iter().zip(&r) {
                    if xi < a || xi > b {
                        return None;
                    }
                    j = j * (b - a + 1) as usize + (xi - a) as usize;
                }
                Some(base + j)
            };
            let slot_of = |q: Point<D>| {
                if !self.in_dag(q) {
                    BOUNDARY
                } else if let Some(j) = slot(q) {
                    j as u32
                } else if let Ok(j) = g_abs.binary_search(&self.key(q)) {
                    (n_pts + j) as u32
                } else {
                    MISSING
                }
            };
            let mut pts = Vec::with_capacity(n_pts);
            for &(t, r, _) in &rows {
                for_each_in(r.map(|r| r.0), r.map(|r| r.1), |x| pts.push((t, x)));
            }
            plan.operands = pts
                .iter()
                .map(|&(t, x)| Operands {
                    prev: slot_of((t - 1, x)),
                    nb: from_fn(|i| {
                        [-1, 1].map(|s| {
                            let mut y = x;
                            y[i] += s;
                            slot_of((t - 1, y))
                        })
                    }),
                    pillar: pillars.binary_search(&x).unwrap_or(0) as u32,
                })
                .collect();
            plan.space = n_pts + plan.gamma.len() + st_u;
            plan.pts = pts
                .iter()
                .map(|&(t, x)| (t - to, from_fn(|i| x[i] - xo[i])))
                .collect();
            plan.pts_key = pts.iter().map(|&p| self.key(p) - ko).collect();
            return plan;
        }
        // Children, their plans and (absolute) Γs.
        let kids: Vec<[Diamond; D]> = C::from_axes(*u)
            .children()
            .iter()
            .map(|c| c.axes())
            .filter(|k| {
                let (lo, hi) = band(k);
                (lo + 1..=hi).any(|t| self.slice(k, t).is_some())
            })
            .collect();
        let halves = u.map(|d| d.children());
        let mut kid_keys = Vec::with_capacity(kids.len());
        let mut p_u = 0usize;
        for k in &kids {
            let id = self.plan_of(k);
            let kp = &self.plans.list[id as usize];
            plan.zmax = plan.zmax.max(kp.space);
            p_u += kp.gamma.len() + kp.pillars.len() * self.m;
            kid_keys.push((id, self.key(origin(k))));
            let ix = from_fn(|i| halves[i].iter().position(|d| *d == k[i]).unwrap_or(0) as u8);
            plan.kids.push((ix, id));
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
        let (t_lo, t_hi) = band(u);
        let k_lo = self.key((t_lo.max(0), [0; D]));
        let k_hi = self.key((t_hi.min(self.t_steps) + 1, [0; D]));
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
            self.for_each_point(kid, |p| {
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

    fn state_get(&self, x: [i64; D]) -> Option<usize> {
        self.state
            .get(self.node(x))
            .copied()
            .filter(|&a| a != NO_STATE)
    }

    fn move_state(
        &mut self,
        x: [i64; D],
        zone: &mut ZoneAlloc,
        from: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        let old = self.state_get(x).ok_or(SimError::Internal {
            what: "moved state block not live",
        })?;
        let new = zone.alloc_block(self.m);
        for c in 0..self.m {
            self.ram.relocate_via(&self.table, old + c, new + c);
        }
        from.free_block_if_owned(old, self.m);
        let i = self.node(x);
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
        u: &C,
        want: &[Point<D>],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(Point<D>, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let want: Vec<i64> = want.iter().map(|&q| self.key(q)).collect();
        let vals: Vals<i64> = parent_vals.iter().map(|&(q, a)| (self.key(q), a)).collect();
        let u = u.axes();
        let id = self.plan_of(&u);
        self.exec_at(&u, id, &want, parent_zone, &vals, out_addrs, 0)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_at(
        &mut self,
        u: &[Diamond; D],
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
        u: &[Diamond; D],
        id: u32,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
        depth: usize,
        b: &mut LevelBufs<D>,
    ) -> Result<(), SimError> {
        let o = origin(u);
        let ko = self.key(o);
        let plan = &self.plans.list[id as usize];
        let mut zone = ZoneAlloc::new(plan.zmax, plan.space - plan.zmax);
        b.g_u.clear();
        b.g_u.extend(plan.gamma.iter().map(|&d| d + ko));
        b.pillars.clear();
        b.pillars.extend(plan.pillars.iter().map(|&d| add(d, o.1)));
        let halves = u.map(|d| d.children());
        b.kids.clear();
        b.kids.extend(
            plan.kids
                .iter()
                .map(|&(ix, kid)| (from_fn(|i| halves[i][ix[i] as usize]), kid)),
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
            // step, the `x₀` band of its first tile.
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
                let (t_lo, t_hi) = band(&kid);
                let (c, s) = (&kid[0], self.side);
                let (mut lo, mut hi) = ([0; D], [s - 1; D]);
                (lo[0], hi[0]) = ((c.cx - c.h).max(0), (c.cx + c.h).min(s - 1));
                let mut at = 0;
                for t in t_lo..=t_hi {
                    let (k_lo, k_hi) = (self.key((t, lo)), self.key((t, hi)));
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
        (to, xo): Point<D>,
        id: u32,
        want: &[i64],
        parent_zone: &mut ZoneAlloc,
        parent_vals: &[(i64, usize)],
        out_addrs: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let ko = self.key((to, xo));
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
        for (i, &d) in plan.pillars.iter().enumerate() {
            let old = self.state_get(add(d, xo)).ok_or(SimError::Internal {
                what: "state block not live at leaf ingest",
            })?;
            for c in 0..m {
                self.ram
                    .relocate_via(&self.table, old + c, base0 + i * m + c);
            }
            parent_zone.free_block_if_owned(old, m);
        }

        let bd = self.prog.boundary();
        let missing = || SimError::Internal {
            what: "operand unavailable in leaf",
        };
        for (i, (&(dt, dx), op)) in plan.pts.iter().zip(&plan.operands).enumerate() {
            let prev = operand(&mut self.ram, &self.table, bd, op.prev).ok_or_else(missing)?;
            let mut nb = [[bd; 2]; D];
            for (w, &s) in nb.as_flattened_mut().iter_mut().zip(op.nb.as_flattened()) {
                *w = operand(&mut self.ram, &self.table, bd, s).ok_or_else(missing)?;
            }
            let (t, x) = (dt + to, add(dx, xo).map(|v| v as usize));
            let st = base0 + op.pillar as usize * m;
            let own = if m > 1 {
                let c = self.prog.cell(x, t);
                self.ram.read_via(&self.table, st + c)
            } else {
                prev
            };
            let out = self.prog.delta(x, t, own, prev, nb);
            self.ram.compute();
            if m > 1 {
                let c = self.prog.cell(x, t);
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
        for (i, &d) in plan.pillars.iter().enumerate() {
            let new = parent_zone.alloc_block(m);
            for c in 0..m {
                self.ram
                    .relocate_via(&self.table, base0 + i * m + c, new + c);
            }
            let k = self.node(add(d, xo));
            self.state[k] = new;
        }
        Ok(())
    }

    /// Seed a pillar's state-block base address (multiprocessor engine:
    /// staging a cell's pillar states into this processor's memory —
    /// values are passed positionally via [`exec`](Self::exec)'s
    /// `parent_vals` directory instead).
    pub fn seed_state(&mut self, x: [i64; D], addr: usize) {
        let i = self.node(x);
        self.state[i] = addr;
    }

    /// Address of a pillar's state block, if present.
    pub fn state_addr(&self, x: [i64; D]) -> Option<usize> {
        self.state_get(x)
    }

    /// Drop all seeded pillar states (between cell executions).
    pub fn clear_seeds(&mut self) {
        self.state.fill(NO_STATE);
    }

    /// Run the whole simulation; returns `(final_mem, final_values)` in
    /// the guest's node-major layout (node index `x₀ + x₁·side + …`).
    pub fn run(&mut self, init: &[Word]) -> Result<(Vec<Word>, Vec<Word>), SimError> {
        let side = self.side;
        let n = side.pow(D as u32) as usize;
        let m = self.m;
        assert_eq!(init.len(), n * m);
        let coords = |v: usize| -> [i64; D] {
            let mut v = v as i64;
            from_fn(|_| {
                let x = v % side;
                v /= side;
                x
            })
        };
        let prog = self.prog;
        let cell = |x: [i64; D], t| prog.cell(x.map(|v| v as usize), t);
        if self.t_steps == 0 {
            let values = (0..n).map(|v| init[v * m + cell(coords(v), 0)]).collect();
            return Ok((init.to_vec(), values));
        }

        let h_top = ((side + self.t_steps + 4) as u64).next_power_of_two() as i64;
        let top = [Diamond::new(side / 2, self.t_steps / 2 + 1, h_top); D];
        let id = self.plan_of(&top);
        let s_top = self.plans.list[id as usize].space;
        let g_top = self.plans.list[id as usize].gamma.len();
        let zone_cap = g_top + m * n + n + 64;
        let mut driver_zone = ZoneAlloc::new(s_top, zone_cap);
        let image = s_top + zone_cap;
        self.cover(image + n * m);

        for (i, w) in init.iter().enumerate() {
            self.ram.poke(image + i, *w);
        }
        // The input plane's value directory, straight from the image
        // layout, and the final plane's want list, both in key order:
        // node `x`'s final value comes back at `out_addrs[key(0, x)]`.
        let mut driver_vals: Vals<i64> = Vec::with_capacity(n);
        let mut want: Vec<i64> = Vec::with_capacity(n);
        for_each_in([0; D], [side - 1; D], |x| {
            let v = self.node(x);
            driver_vals.push((self.key((0, x)), image + v * m + cell(x, 0)));
            want.push(self.key((self.t_steps, x)));
        });
        if m > 1 {
            for (v, s) in self.state.iter_mut().enumerate() {
                *s = image + v * m;
            }
        }
        let mut out_addrs = Vec::with_capacity(n);
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
        for (v, value) in values.iter_mut().enumerate() {
            let addr = out_addrs[self.key((0, coords(v))) as usize];
            *value = self.ram.peek(addr);
            if m == 1 {
                self.ram.relocate_via(&self.table, addr, image + v);
            }
        }
        if m > 1 {
            for v in 0..n {
                let old = self.state_get(coords(v)).ok_or(SimError::Internal {
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
        let mem = (0..n * m).map(|i| self.ram.peek(image + i)).collect();
        Ok((mem, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_geometry::CellKind;
    use bsmp_machine::{run_mesh, MachineSpec};
    use bsmp_workloads::{inputs, Parity3d, PlaneWave, VonNeumannLife};

    /// The executed points of `u`, straight from the definition: every
    /// dag point of `[0, side)^D × [1, T]` whose projections lie in `u`'s
    /// diamonds.
    fn points_of<const D: usize>(u: &[Diamond; D], side: i64, steps: i64) -> Vec<Point<D>> {
        let mut v = Vec::new();
        for t in 1..=steps {
            for_each_in([0; D], [side - 1; D], |x| {
                if (0..D).all(|i| u[i].contains(Pt2::new(x[i], t))) {
                    v.push((t, x));
                }
            });
        }
        v
    }

    /// Run one small simulation, then check every visited cell's plan
    /// against the definitions: Γ (every dag predecessor of an executed
    /// point that is not itself executed), the children
    /// ([`ProductCell::children`] less the empty ones), the sorted leaf
    /// points, the pillars (`m > 1`) and the outbound cap (the top two
    /// vertices of every pillar).  Leaf accesses must use the cost
    /// table.  Returns the run's result and the visited cells.
    #[allow(clippy::type_complexity)]
    fn check_plans<C: ProductCell<D>, P: Guest<D>, const D: usize>(
        mut ex: CellExec<C, P, D>,
        init: &[Word],
    ) -> ((Vec<Word>, Vec<Word>), Vec<[Diamond; D]>) {
        let out = ex.run(init).unwrap();
        let (side, steps) = (ex.side, ex.t_steps);
        let visited = std::mem::take(&mut ex.visited);
        for u in &visited {
            let pts = points_of(u, side, steps);
            let mut direct: Vec<Point<D>> = pts
                .iter()
                .flat_map(|&(t, x)| {
                    (0..=2 * D).map(move |j| {
                        let mut y = x;
                        if j > 0 {
                            y[(j - 1) / 2] += if j % 2 == 1 { -1 } else { 1 };
                        }
                        (t - 1, y)
                    })
                })
                .filter(|&q| ex.in_dag(q) && !ex.in_exec(u, q))
                .collect();
            direct.sort_unstable();
            direct.dedup();
            let g: Vec<Point<D>> = ex.gamma_direct(u).iter().map(|&k| ex.point(k)).collect();
            assert_eq!(g, direct, "Γ of {u:?} (side {side}, T {steps})");
            let memo = ex.gamma(&C::from_axes(*u));
            assert_eq!(memo, direct, "Γ memo of {u:?} (side {side}, T {steps})");
            let mut pillars: Vec<[i64; D]> = pts.iter().map(|p| p.1).collect();
            pillars.sort_unstable();
            let cap: usize = pillars
                .chunk_by(|a, b| a == b)
                .map(|r| 2.min(r.len()))
                .sum();
            assert_eq!(ex.outbound_cap(u), cap + (1 << (D + 1)), "cap of {u:?}");
            pillars.dedup();
            if ex.m > 1 {
                let planned = ex.pillars(&C::from_axes(*u));
                assert_eq!(planned, pillars, "pillars of {u:?}");
            }
            let (o, id) = (origin(u), ex.plan_of(u));
            let plan = &ex.plans.list[id as usize];
            if plan.leaf {
                let planned: Vec<Point<D>> = plan
                    .pts
                    .iter()
                    .map(|&(t, x)| (t + o.0, add(x, o.1)))
                    .collect();
                assert_eq!(planned, pts, "leaf points of {u:?}");
            } else {
                let kids: Vec<[Diamond; D]> = C::from_axes(*u)
                    .children()
                    .iter()
                    .map(|k| k.axes())
                    .filter(|k| !points_of(k, side, steps).is_empty())
                    .collect();
                let halves = u.map(|d| d.children());
                let planned: Vec<[Diamond; D]> = plan
                    .kids
                    .iter()
                    .map(|&(ix, _)| from_fn(|i| halves[i][ix[i] as usize]))
                    .collect();
                assert_eq!(planned, kids, "children of {u:?}");
            }
        }
        assert!(
            ex.ram.meter.table_hits > 0,
            "leaf accesses use the cost table"
        );
        (out, visited)
    }

    /// The runs of both tests: sides 1–5 × T ∈ {1, 2, 5}, plus `larger`.
    fn runs(larger: (i64, i64)) -> Vec<(i64, i64)> {
        let mut runs: Vec<(i64, i64)> = (1..=5)
            .flat_map(|side| [1, 2, 5].map(|steps| (side, steps)))
            .collect();
        runs.push(larger);
        runs
    }

    /// Mark the dag walls an executed point of `u` touches: low and high
    /// per axis, then `t = 1` (executes from the input plane) and `t = T`.
    fn touch_walls<const D: usize>(walls: &mut [bool], u: &[Diamond; D], side: i64, steps: i64) {
        for (t, x) in points_of(u, side, steps) {
            for i in 0..D {
                walls[2 * i] |= x[i] == 0;
                walls[2 * i + 1] |= x[i] == side - 1;
            }
            walls[2 * D] |= t == 1;
            walls[2 * D + 1] |= t == steps;
        }
    }

    mod d2 {
        use super::*;

        /// One dnc2-shaped run, checked against the guest too.
        fn check(prog: &impl MeshProgram, side: i64, steps: i64) -> Vec<[Diamond; 2]> {
            let m = MeshProgram::m(prog);
            let spec = MachineSpec::new(2, (side * side) as u64, 1, m as u64);
            let init = inputs::random_words(7 + side as u64, (side * side) as usize * m, 50);
            let leaf = (m as i64 / 2).max(1);
            let ex = CellExec::<Domain2, _, 2>::new(side, spec.access_fn(), prog, steps, leaf);
            let (out, visited) = check_plans(ex, &init);
            let guest = run_mesh(&spec, prog, &init, steps);
            assert_eq!(out, (guest.mem, guest.values));
            visited
        }

        #[test]
        fn memoized_gamma_matches_direct_on_every_visited_cell() {
            let mut kinds = [0usize; 3];
            let mut walls = [false; 6];
            for (side, steps) in runs((8, 9)) {
                let mut cells = check(&VonNeumannLife::fredkin(), side, steps);
                cells.extend(check(&PlaneWave::new(4), side, steps));
                for u in &cells {
                    kinds[match Domain2::from_axes(*u).kind() {
                        CellKind::Octahedron => 0,
                        CellKind::TetraXBottom => 1,
                        CellKind::TetraYBottom => 2,
                    }] += 1;
                    touch_walls(&mut walls, u, side, steps);
                }
            }
            assert!(
                kinds.iter().all(|&k| k > 0),
                "cell kinds visited: {kinds:?}"
            );
            assert!(walls.iter().all(|&w| w), "walls touched: {walls:?}");
        }
    }

    mod d3 {
        use super::*;

        #[test]
        fn memoized_gamma_matches_direct_on_every_visited_cell() {
            let mut classes = [0usize; 3];
            let mut walls = [false; 8];
            for (side, steps) in runs((6, 7)) {
                let init = inputs::random_bits(11 + side as u64, (side * side * side) as usize);
                let access = AccessFn::new(3, 1);
                let ex = CellExec::<Domain3, _, 3>::new(side, access, &Parity3d, steps, 1);
                for u in check_plans(ex, &init).1 {
                    classes[Domain3::from_axes(u).class()] += 1;
                    touch_walls(&mut walls, &u, side, steps);
                }
            }
            assert!(
                classes.iter().all(|&c| c > 0),
                "cell classes visited: {classes:?}"
            );
            assert!(walls.iter().all(|&w| w), "walls touched: {walls:?}");
        }
    }
}
