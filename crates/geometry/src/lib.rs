//! # bsmp-geometry
//!
//! Lattice geometry underlying the topological-separator technique of
//! Bilardi & Preparata, *Upper Bounds to Processor-Time Tradeoffs under
//! Bounded-Speed Message Propagation* (SPAA 1995), Sections 3–5.
//!
//! The computation dags of the paper live on integer lattices:
//!
//! * for a linear array (`d = 1`), the dag `G_T(M_1)` occupies the 2-D
//!   space-time lattice with points `(x, t)`;
//! * for a square mesh (`d = 2`), the dag `G_T(M_2)` occupies the 3-D
//!   space-time lattice with points `(x, y, t)`.
//!
//! The paper specifies convex vertex subsets by *semi-closed convex
//! geometric domains*: the domain does not contain the frontier points of
//! minimum `t` for each fixed value of the spatial coordinates (Section 3,
//! last paragraph).  This crate provides exactly those domains:
//!
//! * [`Diamond`] — the domain `D(r)` of Section 4 (Theorem 2);
//! * [`Octahedron`] — the domain `P(√r)` of Section 5 (Theorem 5);
//! * [`Tetrahedron`] — the domain `W(√r)` of Section 5, in its four
//!   orientations;
//! * clipped variants of each (intersection with the space-time box of the
//!   actual computation), used for the boundary pieces of Figures 1 and 4;
//! * the recursive *ordered partitions* of Figures 1, 3 and 4, together
//!   with the zig-zag bands of Figure 2.
//!
//! Everything here is purely combinatorial: no costs, no machines.  The
//! execution engines in `bsmp-sim` walk these decompositions; `bsmp-dag`
//! validates that they are genuine topological partitions (Definition 4).

pub mod ibox;
pub mod point;

pub mod diamond;
pub mod tiling1;

pub mod domain2;
pub mod octa;
pub mod tetra;
pub mod tiling2;

pub mod domain3;

pub mod figures;
pub mod render;

pub use diamond::{product_children, ClippedDiamond, Diamond, SemiDiamond, SemiSide};
pub use domain2::{CellKind, ClippedDomain2, Domain2};
pub use domain3::{ClippedDomain3, Domain3, IBox4};
pub use ibox::{IBox, IRect};
pub use octa::Octahedron;
pub use point::{Pt2, Pt3, Pt4};
pub use tetra::{TetraOrient, Tetrahedron};
pub use tiling1::{diamond_cover, zigzag_bands};
pub use tiling2::cell_cover;

/// The diamond tiling anchored so that the bottom tile row's *upper*
/// halves cover the input row `t = 0` — convenient default for engines.
pub fn default_anchor1() -> Pt2 {
    Pt2::new(0, 0)
}
