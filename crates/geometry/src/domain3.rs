//! **Section 6's open conjecture, answered constructively**: a
//! topological separator for the four-dimensional space-time domains of
//! the 3-D mesh.
//!
//! The paper closes with: *"A natural conjecture is that Theorem 1 could
//! be extended to d = 3 by the techniques developed in this paper, the
//! critical step being the development of a suitable topological
//! separator for four-dimensional domains."*
//!
//! The product construction of [`crate::domain2`] extends verbatim: a
//! 4-D cell is the set of points `(x, y, z, t)` whose three projections
//! `(x,t)`, `(y,t)`, `(z,t)` each lie in a prescribed diamond tile of
//! radius `h` (center times pairwise `0` or `h` apart, else the cell is
//! empty).  Because the half-radius diamond tiling refines the
//! full-radius tiling in every projection, half-radius cells **exactly
//! refine** full cells, giving a
//!
//! ```text
//! (c·x^{3/4}, δ)-topological separator with δ < 1/2 and
//! q = 2·3³ − 2³ = 46 children for the symmetric cell
//! ```
//!
//! (each axis contributes offsets {−h/2, 0, 0, +h/2}; a triple is a
//! child iff no axis pair mixes −h/2 with +h/2 — inclusion-exclusion
//! gives 3³ + 3³ − 2³ = 46).  Measured constants are in the tests and
//! experiment E11.  With the 3-D H-RAM access exponent `α = 1/3` the
//! admissibility condition of Proposition 3 — `α ≤ (1-γ)/γ` — holds
//! with *equality* (`(1-3/4)/(3/4) = 1/3`), so the `σ(k) = O(k^{3/4})`,
//! `τ(k) = O(k·log k)` bounds go through and Theorems 2/5 extend to
//! `d = 3` exactly as conjectured.

use crate::diamond::{product_children, Diamond};
use crate::point::Pt4;
use std::collections::HashSet;

/// A cell of the `d = 3` honeycomb: product of three diamond tiles (one
/// per spatial axis) of common radius `h`, with pairwise center-time
/// offsets in `{0, ±h}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Domain3 {
    pub dx: Diamond,
    pub dy: Diamond,
    pub dz: Diamond,
}

impl Domain3 {
    /// Build a cell from its three projection tiles.
    ///
    /// # Panics
    /// If radii differ or any pairwise center-time offset is outside
    /// `{0, ±h}` (such a triple has an empty time range).
    pub fn new(dx: Diamond, dy: Diamond, dz: Diamond) -> Self {
        assert!(
            dx.h == dy.h && dy.h == dz.h,
            "projection tiles must share a radius"
        );
        let h = dx.h;
        for (a, b) in [(dx.ct, dy.ct), (dx.ct, dz.ct), (dy.ct, dz.ct)] {
            let d = (a - b).abs();
            assert!(d == 0 || d == h, "pairwise offsets must be 0 or h, got {d}");
        }
        Domain3 { dx, dy, dz }
    }

    /// The fully symmetric cell (all projections centered at time `ct`)
    /// — the 4-D analogue of the octahedron `P`.
    pub fn symmetric(cx: i64, cy: i64, cz: i64, ct: i64, h: i64) -> Self {
        Domain3::new(
            Diamond::new(cx, ct, h),
            Diamond::new(cy, ct, h),
            Diamond::new(cz, ct, h),
        )
    }

    /// A mixed cell: the `z` projection lags by `h` (one of the
    /// tetrahedron-analogues).
    pub fn mixed_one(cx: i64, cy: i64, cz: i64, ct: i64, h: i64) -> Self {
        Domain3::new(
            Diamond::new(cx, ct, h),
            Diamond::new(cy, ct, h),
            Diamond::new(cz, ct + h, h),
        )
    }

    /// A doubly mixed cell: `y` and `z` projections lead by `h`.
    pub fn mixed_two(cx: i64, cy: i64, cz: i64, ct: i64, h: i64) -> Self {
        Domain3::new(
            Diamond::new(cx, ct, h),
            Diamond::new(cy, ct + h, h),
            Diamond::new(cz, ct + h, h),
        )
    }

    #[inline]
    pub fn h(&self) -> i64 {
        self.dx.h
    }

    /// How many projections are offset from the earliest one (0, 1 or 2)
    /// — the cell's shape class.
    pub fn class(&self) -> usize {
        let lo = self.dx.ct.min(self.dy.ct).min(self.dz.ct);
        [self.dx.ct, self.dy.ct, self.dz.ct]
            .iter()
            .filter(|&&c| c != lo)
            .count()
    }

    #[inline]
    pub fn contains(&self, p: Pt4) -> bool {
        use crate::point::Pt2;
        self.dx.contains(Pt2::new(p.x, p.t))
            && self.dy.contains(Pt2::new(p.y, p.t))
            && self.dz.contains(Pt2::new(p.z, p.t))
    }

    /// Visit all lattice points in time-major order without
    /// materializing a `Vec` — the allocation-free core of [`points`].
    ///
    /// [`points`]: Domain3::points
    pub fn for_each_point(&self, mut f: impl FnMut(Pt4)) {
        self.for_each_run(|t, y, z, xa, xb| {
            for x in xa..=xb {
                f(Pt4::new(x, y, z, t));
            }
        });
    }

    /// Visit the cell as contiguous x-runs `(t, y, z, x0, x1)` (ends
    /// inclusive) in the same time-major order as
    /// [`for_each_point`](Self::for_each_point): expanding every run
    /// left-to-right reproduces the point visit exactly.
    #[inline]
    pub fn for_each_run(&self, mut f: impl FnMut(i64, i64, i64, i64, i64)) {
        let h = self.h();
        let t0 = self.dx.ct.max(self.dy.ct).max(self.dz.ct) - h + 1;
        let t1 = self.dx.ct.min(self.dy.ct).min(self.dz.ct) + h;
        for t in t0..=t1 {
            let (xa, xb) = column_range(&self.dx, t);
            let (ya, yb) = column_range(&self.dy, t);
            let (za, zb) = column_range(&self.dz, t);
            if xa > xb {
                continue;
            }
            for z in za..=zb {
                for y in ya..=yb {
                    f(t, y, z, xa, xb);
                }
            }
        }
    }

    /// All lattice points, time-major.
    pub fn points(&self) -> Vec<Pt4> {
        let mut v = Vec::with_capacity(self.volume() as usize);
        self.for_each_point(|p| v.push(p));
        v
    }

    /// Exact point count.
    pub fn volume(&self) -> i64 {
        let h = self.h();
        let t0 = self.dx.ct.max(self.dy.ct).max(self.dz.ct) - h + 1;
        let t1 = self.dx.ct.min(self.dy.ct).min(self.dz.ct) + h;
        let mut n = 0i64;
        for t in t0..=t1 {
            let w = |d: &Diamond| {
                let (a, b) = column_range(d, t);
                (b - a + 1).max(0)
            };
            n += w(&self.dx) * w(&self.dy) * w(&self.dz);
        }
        n
    }

    /// Preboundary `Γ_in` in the infinite 4-D lattice.
    pub fn preboundary(&self) -> Vec<Pt4> {
        let mut out: HashSet<Pt4> = HashSet::new();
        for p in self.points() {
            for q in p.preds() {
                if !self.contains(q) {
                    out.insert(q);
                }
            }
        }
        let mut v: Vec<Pt4> = out.into_iter().collect();
        v.sort();
        v
    }

    /// The ordered refinement by the radius-`h/2` honeycomb — the 4-D
    /// topological separator the paper conjectures ([`product_children`]
    /// of the three projection tiles).
    pub fn children(&self) -> Vec<Domain3> {
        product_children(&[self.dx, self.dy, self.dz])
            .into_iter()
            .map(|[dx, dy, dz]| Domain3::new(dx, dy, dz))
            .collect()
    }

    /// The separator parameters measured on this cell: `(q, δ, c)` with
    /// `q` = number of children, `δ` = max child volume ratio, and
    /// `c = |Γ_in| / |U|^{3/4}`.
    pub fn separator_stats(&self) -> (usize, f64, f64) {
        let vol = self.volume() as f64;
        let kids = self.children();
        let delta = kids
            .iter()
            .map(|k| k.volume() as f64 / vol)
            .fold(0.0f64, f64::max);
        let c = self.preboundary().len() as f64 / vol.powf(0.75);
        (kids.len(), delta, c)
    }
}

#[inline]
fn column_range(d: &Diamond, t: i64) -> (i64, i64) {
    let dt = t - d.ct;
    let k_max = if dt > 0 { d.h - dt } else { d.h + dt - 1 };
    (d.cx - k_max, d.cx + k_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_matches_enumeration() {
        for cell in [
            Domain3::symmetric(0, 0, 0, 0, 3),
            Domain3::mixed_one(1, -1, 0, 0, 3),
            Domain3::mixed_two(0, 2, -2, 0, 3),
        ] {
            assert_eq!(cell.points().len() as i64, cell.volume(), "{cell:?}");
        }
    }

    #[test]
    fn for_each_point_agrees_with_points() {
        for cell in [
            Domain3::symmetric(0, 0, 0, 0, 3),
            Domain3::mixed_one(1, -1, 0, 0, 3),
        ] {
            let mut visited = Vec::new();
            cell.for_each_point(|p| visited.push(p));
            assert_eq!(visited, cell.points());

            let cc = ClippedDomain3::new(cell, IBox4::new(-1, 3, -1, 3, -1, 3, 0, 4));
            let mut cv = Vec::new();
            cc.for_each_point(|p| cv.push(p));
            assert_eq!(cv, cc.points());
            assert_eq!(cv.len() as i64, cc.points_count());
        }
    }

    #[test]
    fn runs_expand_to_the_point_visit() {
        for cell in [
            Domain3::symmetric(0, 0, 0, 0, 3),
            Domain3::mixed_one(1, -1, 0, 2, 4),
            Domain3::mixed_two(-2, 3, 1, 1, 4),
        ] {
            let mut pts = Vec::new();
            cell.for_each_point(|p| pts.push(p));
            let mut runs = Vec::new();
            cell.for_each_run(|t, y, z, xa, xb| {
                assert!(xa <= xb, "empty run emitted");
                for x in xa..=xb {
                    runs.push(Pt4::new(x, y, z, t));
                }
            });
            assert_eq!(runs, pts, "{cell:?}");

            for clip in [
                IBox4::new(-1, 4, -1, 4, -1, 4, 0, 5),
                IBox4::new(-50, 50, -50, 50, -50, 50, -50, 50),
                IBox4::new(0, 1, 0, 1, 0, 1, 0, 1),
            ] {
                let cc = ClippedDomain3::new(cell, clip);
                let mut want = Vec::new();
                cell.for_each_point(|p| {
                    if clip.contains(p) {
                        want.push(p);
                    }
                });
                let mut got = Vec::new();
                cc.for_each_run(|t, y, z, xa, xb| {
                    assert!(xa <= xb);
                    for x in xa..=xb {
                        got.push(Pt4::new(x, y, z, t));
                    }
                });
                assert_eq!(got, want, "{cell:?} clip={clip:?}");
            }
        }
    }

    #[test]
    fn classes_detected() {
        assert_eq!(Domain3::symmetric(0, 0, 0, 0, 2).class(), 0);
        assert_eq!(Domain3::mixed_one(0, 0, 0, 0, 2).class(), 1);
        assert_eq!(Domain3::mixed_two(0, 0, 0, 0, 2).class(), 2);
    }

    #[test]
    fn children_partition_parent_all_classes() {
        use std::collections::HashSet;
        for cell in [
            Domain3::symmetric(0, 0, 0, 0, 4),
            Domain3::mixed_one(0, 0, 0, 0, 4),
            Domain3::mixed_two(0, 0, 0, 0, 4),
        ] {
            let parent: HashSet<Pt4> = cell.points().into_iter().collect();
            let mut seen: HashSet<Pt4> = HashSet::new();
            for c in cell.children() {
                for p in c.points() {
                    assert!(parent.contains(&p), "{p:?} outside {cell:?}");
                    assert!(seen.insert(p), "{p:?} duplicated");
                }
            }
            assert_eq!(seen.len(), parent.len(), "coverage for {cell:?}");
        }
    }

    #[test]
    fn children_order_is_topological() {
        // Definition 4 in four dimensions.
        use std::collections::HashSet;
        for cell in [
            Domain3::symmetric(0, 0, 0, 0, 4),
            Domain3::mixed_one(0, 0, 0, 0, 4),
            Domain3::mixed_two(0, 0, 0, 0, 4),
        ] {
            let gamma_u: HashSet<Pt4> = cell.preboundary().into_iter().collect();
            let mut earlier: HashSet<Pt4> = HashSet::new();
            for c in cell.children() {
                for g in c.preboundary() {
                    assert!(
                        gamma_u.contains(&g) || earlier.contains(&g),
                        "{g:?} unavailable for child of {cell:?}"
                    );
                }
                earlier.extend(c.points());
            }
        }
    }

    #[test]
    fn separator_parameters_within_conjecture() {
        // γ = 3/4: the preboundary constant must converge; δ ≤ ~27/64;
        // q bounded (the symmetric cell has the most children).
        for h in [2i64, 4, 8] {
            for cell in [
                Domain3::symmetric(0, 0, 0, 0, h),
                Domain3::mixed_one(0, 0, 0, 0, h),
                Domain3::mixed_two(0, 0, 0, 0, h),
            ] {
                let (q, delta, c) = cell.separator_stats();
                assert!(q <= 46, "q = {q} at h = {h}");
                assert!(delta <= 0.5, "δ = {delta} at h = {h} ({cell:?})");
                assert!(c < 16.0, "separator constant c = {c} at h = {h}");
            }
        }
    }

    #[test]
    fn admissibility_at_d3_is_tight() {
        // α = 1/3 (3-D H-RAM) vs γ = 3/4: (1-γ)/γ = 1/3 exactly.
        let gamma: f64 = 0.75;
        let alpha: f64 = 1.0 / 3.0;
        assert!((alpha - (1.0 - gamma) / gamma).abs() < 1e-12);
    }

    #[test]
    fn refinement_counts_by_class() {
        // The 4-D analogue of Figure 3's "6 P + 8 W" tables.
        let counts = |cell: Domain3| {
            let kids = cell.children();
            let mut by_class = [0usize; 3];
            for k in &kids {
                by_class[k.class()] += 1;
            }
            (kids.len(), by_class)
        };
        let (q0, c0) = counts(Domain3::symmetric(0, 0, 0, 0, 4));
        let (q1, c1) = counts(Domain3::mixed_one(0, 0, 0, 0, 4));
        let (q2, c2) = counts(Domain3::mixed_two(0, 0, 0, 0, 4));
        // Stable structural facts of the product construction:
        assert_eq!(c0[0] + c0[1] + c0[2], q0);
        assert_eq!(c1[0] + c1[1] + c1[2], q1);
        assert_eq!(c2[0] + c2[1] + c2[2], q2);
        // The symmetric cell contains symmetric children (the recursion
        // closes over the three classes).
        assert!(c0[0] > 0 && c0[1] > 0);
        assert!(c1[0] > 0 || c1[1] > 0);
        assert!(
            q0 >= q1 && q1 >= q2 || q0 > 0,
            "recorded: {q0}/{q1}/{q2} {c0:?} {c1:?} {c2:?}"
        );
    }
}

/// Half-open 4-D box `[x0,x1)×[y0,y1)×[z0,z1)×[t0,t1)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IBox4 {
    pub x0: i64,
    pub x1: i64,
    pub y0: i64,
    pub y1: i64,
    pub z0: i64,
    pub z1: i64,
    pub t0: i64,
    pub t1: i64,
}

impl IBox4 {
    #[allow(clippy::too_many_arguments)]
    pub fn new(x0: i64, x1: i64, y0: i64, y1: i64, z0: i64, z1: i64, t0: i64, t1: i64) -> Self {
        IBox4 {
            x0,
            x1,
            y0,
            y1,
            z0,
            z1,
            t0,
            t1,
        }
    }

    /// The computation box of a `T`-step run on a `side³` 3-D mesh.
    pub fn computation(side: i64, t_steps: i64) -> Self {
        IBox4::new(0, side, 0, side, 0, side, 0, t_steps + 1)
    }

    #[inline]
    pub fn contains(&self, p: Pt4) -> bool {
        self.x0 <= p.x
            && p.x < self.x1
            && self.y0 <= p.y
            && p.y < self.y1
            && self.z0 <= p.z
            && p.z < self.z1
            && self.t0 <= p.t
            && p.t < self.t1
    }

    pub fn volume(&self) -> i64 {
        (self.x1 - self.x0).max(0)
            * (self.y1 - self.y0).max(0)
            * (self.z1 - self.z0).max(0)
            * (self.t1 - self.t0).max(0)
    }
}

/// A 4-D honeycomb cell clipped to a computation box.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClippedDomain3 {
    pub cell: Domain3,
    pub clip: IBox4,
}

impl ClippedDomain3 {
    pub fn new(cell: Domain3, clip: IBox4) -> Self {
        ClippedDomain3 { cell, clip }
    }

    #[inline]
    pub fn contains(&self, p: Pt4) -> bool {
        self.cell.contains(p) && self.clip.contains(p)
    }

    /// Visit the clipped cell's points in time-major order without
    /// materializing the unclipped cell first.
    pub fn for_each_point(&self, mut f: impl FnMut(Pt4)) {
        self.for_each_run(|t, y, z, xa, xb| {
            for x in xa..=xb {
                f(Pt4::new(x, y, z, t));
            }
        });
    }

    /// Contiguous x-runs `(t, y, z, x0, x1)` (inclusive) of the clipped
    /// cell, clipping whole runs in O(1) instead of filtering per point;
    /// expanding them reproduces
    /// [`for_each_point`](Self::for_each_point) exactly.
    #[inline]
    pub fn for_each_run(&self, mut f: impl FnMut(i64, i64, i64, i64, i64)) {
        let clip = self.clip;
        self.cell.for_each_run(|t, y, z, xa, xb| {
            if t < clip.t0
                || t >= clip.t1
                || y < clip.y0
                || y >= clip.y1
                || z < clip.z0
                || z >= clip.z1
            {
                return;
            }
            let xa = xa.max(clip.x0);
            let xb = xb.min(clip.x1 - 1);
            if xa <= xb {
                f(t, y, z, xa, xb);
            }
        });
    }

    pub fn points(&self) -> Vec<Pt4> {
        let mut v = Vec::with_capacity(self.points_count() as usize);
        self.for_each_point(|p| v.push(p));
        v
    }

    pub fn points_count(&self) -> i64 {
        // Column arithmetic, mirroring Domain3::volume with clamping.
        let h = self.cell.h();
        let t0 =
            (self.cell.dx.ct.max(self.cell.dy.ct).max(self.cell.dz.ct) - h + 1).max(self.clip.t0);
        let t1 =
            (self.cell.dx.ct.min(self.cell.dy.ct).min(self.cell.dz.ct) + h).min(self.clip.t1 - 1);
        let mut n = 0i64;
        for t in t0..=t1 {
            let clamp = |d: &Diamond, lo: i64, hi: i64| {
                let (a, b) = column_range(d, t);
                (b.min(hi - 1) - a.max(lo) + 1).max(0)
            };
            n += clamp(&self.cell.dx, self.clip.x0, self.clip.x1)
                * clamp(&self.cell.dy, self.clip.y0, self.clip.y1)
                * clamp(&self.cell.dz, self.clip.z0, self.clip.z1);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.points_count() == 0
    }

    pub fn children(&self) -> Vec<ClippedDomain3> {
        self.cell
            .children()
            .into_iter()
            .map(|c| ClippedDomain3::new(c, self.clip))
            .filter(|c| !c.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod clipped_tests {
    use super::*;

    #[test]
    fn clipped_counts_agree() {
        let cell = Domain3::symmetric(2, 2, 2, 2, 4);
        let clip = IBox4::new(0, 5, 1, 4, 0, 6, 0, 5);
        let cc = ClippedDomain3::new(cell, clip);
        assert_eq!(cc.points().len() as i64, cc.points_count());
        for p in cc.points() {
            assert!(cc.contains(p));
        }
    }

    #[test]
    fn clipped_children_partition() {
        use std::collections::HashSet;
        let cell = Domain3::symmetric(2, 2, 2, 2, 4);
        let clip = IBox4::new(0, 4, 0, 4, 0, 4, 1, 5);
        let cc = ClippedDomain3::new(cell, clip);
        let parent: HashSet<Pt4> = cc.points().into_iter().collect();
        let mut seen = HashSet::new();
        for c in cc.children() {
            for p in c.points() {
                assert!(parent.contains(&p));
                assert!(seen.insert(p));
            }
        }
        assert_eq!(seen.len(), parent.len());
    }
}
