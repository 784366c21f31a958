//! # bsmp-workloads
//!
//! Concrete guest computations for the simulation experiments — the
//! "wide class of important applications" with `n`-fold parallelism and
//! full locality that Section 6 appeals to.  Every workload is a
//! synchronous node program realizing exactly the dag `G_T(H)` of
//! Definition 3, with full data dependence on every arc (so no simulation
//! strategy can shortcut it).
//!
//! Linear-array (`d = 1`) workloads:
//! * [`eca::Eca`] — elementary cellular automata (rule 90, rule 110, …);
//! * [`sort::OddEvenSort`] — odd-even transposition sort;
//! * [`wave::CyclicWave`] — an order-`m` space-time recurrence that
//!   cycles through all `m` private cells (exercises `m > 1` addressing);
//! * [`shift::TokenShift`] — a data shift with exactly predictable
//!   output (engine sanity checks);
//! * [`fir::FirPipeline`] — a systolic FIR filter whose private cells
//!   hold persistent tap coefficients (read-mostly `m > 1` pattern).
//!
//! Mesh (`d = 2`) workloads:
//! * [`life::VonNeumannLife`] — a Life-like rule on the von Neumann
//!   neighborhood;
//! * [`heat::HeatDiffusion`] — integer heat diffusion;
//! * [`cannon::SystolicMatmul`] — a genuine systolic matrix
//!   multiplication on the mesh (boundary-fed, `m = side + 1`), the
//!   introduction's motivating example;
//! * [`plane::PlaneWave`] — the mesh analogue of `CyclicWave`: an
//!   order-`m` recurrence cycling through all `m` private cells.
//!
//! 3-D mesh (`d = 3`) workload: [`volume::Parity3d`].
//!
//! Every program-trait method (`m`, `boundary`, `cell`, `delta`) is
//! `#[inline]`: the engines call them once per space-time point from
//! other crates, and the release profile has no LTO, so an out-of-line
//! call there would cost more than most programs' `δ`.

pub mod cannon;
pub mod eca;
pub mod fir;
pub mod heat;
pub mod inputs;
pub mod life;
pub mod plane;
pub mod shift;
pub mod sort;
pub mod wave;

pub use cannon::SystolicMatmul;
pub use eca::Eca;
pub use fir::FirPipeline;
pub use heat::HeatDiffusion;
pub use life::VonNeumannLife;
pub use plane::PlaneWave;
pub use shift::TokenShift;
pub use sort::OddEvenSort;
pub use wave::CyclicWave;

pub mod volume;
pub use volume::Parity3d;
