//! The `d = 2` space-time cells: octahedra `P` and tetrahedra `W`
//! (Section 5), realized as *products of 2-D diamond tiles*.
//!
//! ## The product structure
//!
//! The paper defines the octahedron `P(√r)` by the eight half-spaces
//! `|z ± x| ≤ √r/2`, `|z ± y| ≤ √r/2` — i.e. the square bipyramid
//! `{ |z| + |x| ≤ ρ/2, |z| + |y| ≤ ρ/2 }` — and the tetrahedron `W(√r)`
//! by `{ z ≥ |y|, z + |x| ≤ ρ/2 }` (four half-spaces).
//!
//! Both are *projection products* of the 2-D diamond `D` of Section 4:
//! a point `(x, y, t)` lies in such a cell iff its `(x, t)` projection
//! lies in one diamond tile and its `(y, t)` projection lies in another.
//! If the two tiles have centers at the **same** time, the cell is an
//! octahedron; if the centers differ by exactly `h` (the diamond radius),
//! it is a tetrahedron; larger offsets give the empty set.
//!
//! Because the radius-`h/2` diamond tiling exactly refines the radius-`h`
//! tiling in each projection, the radius-`h/2` cells exactly refine the
//! radius-`h` cells, and the refinement counts are **exactly the paper's
//! Figure 3**:
//!
//! * an octahedron splits into `6` octahedra + `8` tetrahedra
//!   (`|P(√r/2)| = |P(√r)|/8`, `|W(√r/2)| = |P(√r)|/32`), and
//! * a tetrahedron splits into `4` tetrahedra + `1` octahedron
//!   (`|P(√r/2)| = |W(√r)|/2`, `|W(√r/2)| = |W(√r)|/8`),
//!
//! with the topological order given by the cells' time extents.  These
//! are the `(2·3^{2/3} x^{2/3}, 1/2)`-topological separators of
//! Theorem 5 (up to the constant).

use crate::diamond::{product_children, Diamond};
use crate::ibox::IBox;
use crate::point::{Pt2, Pt3};

/// A cell of the `d = 2` honeycomb: the set of points `(x, y, t)` whose
/// `(x, t)` projection lies in diamond `dx` and whose `(y, t)` projection
/// lies in diamond `dy` (both of the same radius `h`).
///
/// `dx.ct == dy.ct` ⇒ octahedron; `|dx.ct − dy.ct| == h` ⇒ tetrahedron;
/// otherwise the cell is empty (constructor rejects it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Domain2 {
    /// Diamond tile of the `(x, t)` projection.
    pub dx: Diamond,
    /// Diamond tile of the `(y, t)` projection.
    pub dy: Diamond,
}

/// The combinatorial type of a [`Domain2`] cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellKind {
    /// Square bipyramid `P(ρ)`: both projection tiles centered at the
    /// same time.
    Octahedron,
    /// Tetrahedron `W(ρ)` with its bottom edge along the x-axis
    /// (the y-tile is centered `h` later).
    TetraXBottom,
    /// Tetrahedron `W(ρ)` with its bottom edge along the y-axis
    /// (the x-tile is centered `h` later).
    TetraYBottom,
}

impl Domain2 {
    /// Build a cell from its two projection tiles.
    ///
    /// # Panics
    /// If the radii differ or the center-time offset is not in
    /// `{0, ±h}` (any other offset gives an empty cell).
    pub fn new(dx: Diamond, dy: Diamond) -> Self {
        assert_eq!(dx.h, dy.h, "projection tiles must share a radius");
        let dt = (dx.ct - dy.ct).abs();
        assert!(
            dt == 0 || dt == dx.h,
            "cell offset must be 0 or h, got {dt}"
        );
        Domain2 { dx, dy }
    }

    /// The octahedron `P(ρ)` with `ρ = 2h`, centered at `(cx, cy, ct)`.
    pub fn octahedron(cx: i64, cy: i64, ct: i64, h: i64) -> Self {
        Domain2::new(Diamond::new(cx, ct, h), Diamond::new(cy, ct, h))
    }

    /// The tetrahedron `W(ρ)` with its (excluded) bottom edge along the
    /// x-axis at `(cx, cy, tb)` and top edge along the y-axis at
    /// `t = tb + h`.
    pub fn tetra_x_bottom(cx: i64, cy: i64, tb: i64, h: i64) -> Self {
        Domain2::new(Diamond::new(cx, tb, h), Diamond::new(cy, tb + h, h))
    }

    /// The transposed tetrahedron: bottom edge along the y-axis at
    /// `(cx, cy, tb)`, top edge along the x-axis at `t = tb + h`.
    pub fn tetra_y_bottom(cx: i64, cy: i64, tb: i64, h: i64) -> Self {
        Domain2::new(Diamond::new(cx, tb + h, h), Diamond::new(cy, tb, h))
    }

    /// Cell radius (`ρ/2` in the paper's notation).
    #[inline]
    pub fn h(&self) -> i64 {
        self.dx.h
    }

    /// Which of the three cell shapes this is.
    pub fn kind(&self) -> CellKind {
        match self.dx.ct - self.dy.ct {
            0 => CellKind::Octahedron,
            d if d == -self.h() => CellKind::TetraXBottom,
            d if d == self.h() => CellKind::TetraYBottom,
            _ => unreachable!("constructor enforces offset ∈ {{0, ±h}}"),
        }
    }

    /// Membership test (O(1)).
    #[inline]
    pub fn contains(&self, p: Pt3) -> bool {
        self.dx.contains(Pt2::new(p.x, p.t)) && self.dy.contains(Pt2::new(p.y, p.t))
    }

    /// Exact lattice point count.
    ///
    /// Octahedra have `Σ_col 2(h − max(kx, ky))` points `≈ (8/3)h³
    /// = ρ³/3`; tetrahedra have `≈ (2/3)h³ = ρ³/12`, matching
    /// `|P(√r)| = r^{3/2}/3` and `|W(√r)| = r^{3/2}/12`.
    pub fn volume(&self) -> i64 {
        let h = self.h();
        let mut n = 0i64;
        // Column (kx, ky): t-range = intersection of the two projection
        // tiles' column ranges.
        for kx in -(h - 1)..h {
            for ky in -(h - 1)..h {
                n += self.column_len(kx.abs(), ky.abs());
            }
        }
        n
    }

    /// Length of the column at offsets `(kx, ky)` from the two tile
    /// centers (both ≥ 0).
    #[inline]
    fn column_len(&self, kx: i64, ky: i64) -> i64 {
        let h = self.h();
        let lo = (self.dx.ct - h + kx).max(self.dy.ct - h + ky); // exclusive
        let hi = (self.dx.ct + h - kx).min(self.dy.ct + h - ky); // inclusive
        (hi - lo).max(0)
    }

    /// Tight bounding box.
    pub fn bbox(&self) -> IBox {
        let bx = self.dx.bbox();
        let by = self.dy.bbox();
        IBox::new(
            bx.x0,
            bx.x1,
            by.x0,
            by.x1,
            bx.t0.max(by.t0),
            bx.t1.min(by.t1),
        )
    }

    /// Visit all lattice points in time-major order without
    /// materializing a `Vec` — the allocation-free core of [`points`].
    ///
    /// [`points`]: Domain2::points
    pub fn for_each_point(&self, mut f: impl FnMut(Pt3)) {
        self.for_each_run(|t, y, xa, xb| {
            for x in xa..=xb {
                f(Pt3::new(x, y, t));
            }
        });
    }

    /// Visit the cell as contiguous x-runs `(t, y, x0, x1)` (ends
    /// inclusive) in the same time-major order as
    /// [`for_each_point`](Self::for_each_point): expanding every run
    /// left-to-right reproduces the point visit exactly.
    #[inline]
    pub fn for_each_run(&self, mut f: impl FnMut(i64, i64, i64, i64)) {
        let h = self.h();
        let t0 = (self.dx.ct - h + 1).max(self.dy.ct - h + 1);
        let t1 = (self.dx.ct + h).min(self.dy.ct + h);
        for t in t0..=t1 {
            // x range at this t from the x-tile, y range from the y-tile.
            let (xa, xb) = column_range(&self.dx, t);
            let (ya, yb) = column_range(&self.dy, t);
            if xa > xb {
                continue;
            }
            for y in ya..=yb {
                f(t, y, xa, xb);
            }
        }
    }

    /// All lattice points in time-major order.
    pub fn points(&self) -> Vec<Pt3> {
        let mut v = Vec::with_capacity(self.volume() as usize);
        self.for_each_point(|p| v.push(p));
        v
    }

    /// Preboundary `Γ_in` in the infinite lattice, computed from the
    /// points (O(|cell|)); callers clip to the computation box.
    pub fn preboundary(&self) -> Vec<Pt3> {
        preboundary_of(&self.points(), |p| self.contains(p))
    }

    /// The ordered refinement of this cell by the radius-`h/2` honeycomb:
    /// exactly Figure 3 of the paper (6 P + 8 W for an octahedron,
    /// 4 W + 1 P for a tetrahedron), in topological order
    /// ([`product_children`] of the two projection tiles).
    ///
    /// # Panics
    /// If `h` is odd or `< 2`.
    pub fn children(&self) -> Vec<Domain2> {
        product_children(&[self.dx, self.dy])
            .into_iter()
            .map(|[dx, dy]| Domain2::new(dx, dy))
            .collect()
    }
}

/// Row `t` of a 2-D diamond: inclusive column range (empty if `xa > xb`).
#[inline]
fn column_range(d: &Diamond, t: i64) -> (i64, i64) {
    let dt = t - d.ct;
    let k_max = if dt > 0 { d.h - dt } else { d.h + dt - 1 };
    (d.cx - k_max, d.cx + k_max)
}

/// Generic preboundary of an explicit point set: all dag predecessors of
/// members that are not members.
pub fn preboundary_of(points: &[Pt3], contains: impl Fn(Pt3) -> bool) -> Vec<Pt3> {
    let mut out = std::collections::HashSet::new();
    for p in points {
        for q in p.preds() {
            if !contains(q) {
                out.insert(q);
            }
        }
    }
    let mut v: Vec<Pt3> = out.into_iter().collect();
    v.sort();
    v
}

/// A honeycomb cell clipped to a computation box — the truncated
/// octahedra/tetrahedra of Figure 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClippedDomain2 {
    pub cell: Domain2,
    pub clip: IBox,
}

impl ClippedDomain2 {
    pub fn new(cell: Domain2, clip: IBox) -> Self {
        ClippedDomain2 { cell, clip }
    }

    #[inline]
    pub fn contains(&self, p: Pt3) -> bool {
        self.cell.contains(p) && self.clip.contains(p)
    }

    /// Exact point count without enumeration of empty regions.
    pub fn points_count(&self) -> i64 {
        let h = self.cell.h();
        let mut n = 0i64;
        let t0 = (self.cell.dx.ct - h + 1)
            .max(self.cell.dy.ct - h + 1)
            .max(self.clip.t0);
        let t1 = (self.cell.dx.ct + h)
            .min(self.cell.dy.ct + h)
            .min(self.clip.t1 - 1);
        for t in t0..=t1 {
            let (xa, xb) = column_range(&self.cell.dx, t);
            let (ya, yb) = column_range(&self.cell.dy, t);
            let xa = xa.max(self.clip.x0);
            let xb = xb.min(self.clip.x1 - 1);
            let ya = ya.max(self.clip.y0);
            let yb = yb.min(self.clip.y1 - 1);
            n += (xb - xa + 1).max(0) * (yb - ya + 1).max(0);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.points_count() == 0
    }

    /// Visit the clipped cell's points in time-major order without
    /// materializing the unclipped cell first.
    pub fn for_each_point(&self, mut f: impl FnMut(Pt3)) {
        self.for_each_run(|t, y, xa, xb| {
            for x in xa..=xb {
                f(Pt3::new(x, y, t));
            }
        });
    }

    /// Contiguous x-runs `(t, y, x0, x1)` (inclusive) of the clipped
    /// cell, clipping whole runs in O(1) instead of filtering per point;
    /// expanding them reproduces
    /// [`for_each_point`](Self::for_each_point) exactly.
    #[inline]
    pub fn for_each_run(&self, mut f: impl FnMut(i64, i64, i64, i64)) {
        let clip = self.clip;
        self.cell.for_each_run(|t, y, xa, xb| {
            if t < clip.t0 || t >= clip.t1 || y < clip.y0 || y >= clip.y1 {
                return;
            }
            let xa = xa.max(clip.x0);
            let xb = xb.min(clip.x1 - 1);
            if xa <= xb {
                f(t, y, xa, xb);
            }
        });
    }

    pub fn points(&self) -> Vec<Pt3> {
        let mut v = Vec::with_capacity(self.points_count() as usize);
        self.for_each_point(|p| v.push(p));
        v
    }

    /// Preboundary within the dag whose vertex set is `self.clip`.
    pub fn preboundary(&self) -> Vec<Pt3> {
        self.cell
            .preboundary()
            .into_iter()
            .filter(|p| self.clip.contains(*p))
            .collect()
    }

    /// Clipped children (Figure 3 refinement intersected with the box),
    /// empty pieces dropped.
    pub fn children(&self) -> Vec<ClippedDomain2> {
        self.cell
            .children()
            .into_iter()
            .map(|c| ClippedDomain2::new(c, self.clip))
            .filter(|c| !c.is_empty())
            .collect()
    }

    /// Translation-invariant memo key (see
    /// [`crate::diamond::ClippedDiamond::shape_key`]).
    #[allow(clippy::type_complexity)]
    pub fn shape_key(&self) -> (i64, i64, (i64, i64, i64, i64, i64, i64)) {
        let b = self.cell.bbox();
        let c = b.intersect(&self.clip);
        let (ox, oy, ot) = (self.cell.dx.cx, self.cell.dy.cx, self.cell.dx.ct);
        (
            self.cell.h(),
            self.cell.dy.ct - self.cell.dx.ct,
            (
                c.x0 - ox,
                c.x1 - ox,
                c.y0 - oy,
                c.y1 - oy,
                c.t0 - ot,
                c.t1 - ot,
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn octahedron_volume_formula() {
        // |P| exact = 2h + Σ_{k=1}^{h-1} 8k·2(h-k) = (8h³ - 2h)/3 … verify
        // against enumeration, and against the continuous ρ³/3 = 8h³/3.
        for h in 1..=6i64 {
            let p = Domain2::octahedron(0, 0, 0, h);
            let vol = p.volume();
            assert_eq!(vol, p.points().len() as i64, "h={h}");
            let continuous = 8.0 * (h as f64).powi(3) / 3.0;
            assert!(
                (vol as f64 - continuous).abs() <= continuous / 2.0 + 2.0,
                "h={h}: {vol} vs {continuous}"
            );
        }
    }

    #[test]
    fn tetra_volume_formula() {
        for h in 2..=6i64 {
            let w = Domain2::tetra_x_bottom(0, 0, 0, h);
            assert_eq!(w.volume(), w.points().len() as i64);
            let continuous = 8.0 * (h as f64).powi(3) / 12.0; // ρ³/12
            assert!((w.volume() as f64) < 2.0 * continuous + 4.0);
            assert!((w.volume() as f64) > continuous / 3.0);
        }
    }

    #[test]
    fn octa_children_counts_match_figure_3a() {
        let p = Domain2::octahedron(0, 0, 0, 4);
        let kids = p.children();
        assert_eq!(kids.len(), 14, "6 octahedra + 8 tetrahedra");
        let octs = kids
            .iter()
            .filter(|c| c.kind() == CellKind::Octahedron)
            .count();
        assert_eq!(octs, 6);
        assert_eq!(kids.len() - octs, 8);
        // Volume ratios of Figure 3(a): |P(ρ/2)| = |P|/8, |W(ρ/2)| = |P|/32
        // (continuous; lattice counts approximate).
        let vol: i64 = kids.iter().map(|c| c.volume()).sum();
        assert_eq!(vol, p.volume(), "children partition parent by volume");
    }

    #[test]
    fn tetra_children_counts_match_figure_3b() {
        for mk in [
            Domain2::tetra_x_bottom(0, 0, 0, 4),
            Domain2::tetra_y_bottom(0, 0, 0, 4),
        ] {
            let kids = mk.children();
            assert_eq!(kids.len(), 5, "4 tetrahedra + 1 octahedron");
            let octs = kids
                .iter()
                .filter(|c| c.kind() == CellKind::Octahedron)
                .count();
            assert_eq!(octs, 1);
            let vol: i64 = kids.iter().map(|c| c.volume()).sum();
            assert_eq!(vol, mk.volume());
        }
    }

    #[test]
    fn children_partition_points_exactly() {
        for cell in [
            Domain2::octahedron(1, -2, 3, 4),
            Domain2::tetra_x_bottom(0, 1, 0, 4),
            Domain2::tetra_y_bottom(2, 0, -1, 4),
        ] {
            let parent: HashSet<Pt3> = cell.points().into_iter().collect();
            let mut seen: HashSet<Pt3> = HashSet::new();
            for c in cell.children() {
                for p in c.points() {
                    assert!(parent.contains(&p), "{p:?} outside parent {cell:?}");
                    assert!(seen.insert(p), "{p:?} duplicated");
                }
            }
            assert_eq!(seen.len(), parent.len(), "{cell:?}");
        }
    }

    #[test]
    fn children_order_is_topological() {
        // Definition 4 for the Figure-3 refinements.
        for cell in [
            Domain2::octahedron(0, 0, 0, 4),
            Domain2::tetra_x_bottom(0, 0, 0, 4),
            Domain2::tetra_y_bottom(0, 0, 0, 4),
        ] {
            let gamma_u: HashSet<Pt3> = cell.preboundary().into_iter().collect();
            let mut earlier: HashSet<Pt3> = HashSet::new();
            for c in cell.children() {
                for g in c.preboundary() {
                    assert!(
                        gamma_u.contains(&g) || earlier.contains(&g),
                        "{g:?} unavailable for child {c:?} of {cell:?}"
                    );
                }
                earlier.extend(c.points());
            }
        }
    }

    #[test]
    fn octa_preboundary_scales_like_surface() {
        // Γ_in(P(√r)) = Θ(r) = Θ((2h)²) — check the growth is quadratic.
        let g4 = Domain2::octahedron(0, 0, 0, 4).preboundary().len() as f64;
        let g8 = Domain2::octahedron(0, 0, 0, 8).preboundary().len() as f64;
        let ratio = g8 / g4;
        assert!(ratio > 3.0 && ratio < 5.0, "surface ratio {ratio}");
    }

    #[test]
    fn clipped_counts_and_points_agree() {
        let cell = Domain2::octahedron(3, 3, 3, 4);
        let clip = IBox::new(0, 6, 1, 7, 0, 6);
        let cc = ClippedDomain2::new(cell, clip);
        assert_eq!(cc.points_count(), cc.points().len() as i64);
        for p in cc.points() {
            assert!(cc.contains(p));
        }
    }

    #[test]
    fn clipped_children_topological() {
        let cell = Domain2::octahedron(2, 2, 2, 4);
        let clip = IBox::new(0, 5, 0, 5, 0, 5);
        let cc = ClippedDomain2::new(cell, clip);
        let gamma_u: HashSet<Pt3> = cc.preboundary().into_iter().collect();
        let mut earlier: HashSet<Pt3> = HashSet::new();
        let mut total = 0;
        for c in cc.children() {
            for g in c.preboundary() {
                assert!(gamma_u.contains(&g) || earlier.contains(&g), "{g:?}");
            }
            total += c.points().len();
            earlier.extend(c.points());
        }
        assert_eq!(total, cc.points().len());
    }

    #[test]
    fn for_each_point_agrees_with_points() {
        for cell in [
            Domain2::octahedron(0, 0, 0, 3),
            Domain2::tetra_x_bottom(1, -1, 2, 4),
            Domain2::tetra_y_bottom(-2, 3, 1, 4),
        ] {
            let mut visited = Vec::new();
            cell.for_each_point(|p| visited.push(p));
            assert_eq!(visited, cell.points());

            let cc = ClippedDomain2::new(cell, IBox::new(-1, 4, -1, 4, 0, 5));
            let mut cv = Vec::new();
            cc.for_each_point(|p| cv.push(p));
            assert_eq!(cv, cc.points());
            assert_eq!(cv.len() as i64, cc.points_count());
        }
    }

    #[test]
    fn runs_expand_to_the_point_visit() {
        for cell in [
            Domain2::octahedron(0, 0, 0, 3),
            Domain2::tetra_x_bottom(1, -1, 2, 4),
            Domain2::tetra_y_bottom(-2, 3, 1, 4),
        ] {
            let mut pts = Vec::new();
            cell.for_each_point(|p| pts.push(p));
            let mut runs = Vec::new();
            cell.for_each_run(|t, y, xa, xb| {
                assert!(xa <= xb, "empty run emitted");
                for x in xa..=xb {
                    runs.push(Pt3::new(x, y, t));
                }
            });
            assert_eq!(runs, pts, "{cell:?}");

            // Clipped runs against the pre-strip per-point filter.
            for clip in [
                IBox::new(-1, 4, -1, 4, 0, 5),
                IBox::new(-50, 50, -50, 50, -50, 50),
                IBox::new(0, 1, 0, 1, 0, 1),
            ] {
                let cc = ClippedDomain2::new(cell, clip);
                let mut want = Vec::new();
                cell.for_each_point(|p| {
                    if clip.contains(p) {
                        want.push(p);
                    }
                });
                let mut got = Vec::new();
                cc.for_each_run(|t, y, xa, xb| {
                    assert!(xa <= xb);
                    for x in xa..=xb {
                        got.push(Pt3::new(x, y, t));
                    }
                });
                assert_eq!(got, want, "{cell:?} clip={clip:?}");
            }
        }
    }

    #[test]
    fn kind_detection() {
        assert_eq!(Domain2::octahedron(0, 0, 0, 2).kind(), CellKind::Octahedron);
        assert_eq!(
            Domain2::tetra_x_bottom(0, 0, 0, 2).kind(),
            CellKind::TetraXBottom
        );
        assert_eq!(
            Domain2::tetra_y_bottom(0, 0, 0, 2).kind(),
            CellKind::TetraYBottom
        );
    }
}
